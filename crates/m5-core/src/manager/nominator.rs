//! Nominator — turning tracker output into a ranked migration candidate
//! list (§5.2).
//!
//! Maintains the `_HPA` structure: one entry per hot page with a 64-bit
//! word mask. Three modes:
//!
//! * **HPT-only** — nominate straight from HPT's hot pages.
//! * **HPT-driven** — hot-word addresses from `_HWA` set mask bits of the
//!   matching `_HPA` entries; pages of similar hotness are ranked dense
//!   before sparse (Guideline 3: good for mixed dense/sparse workloads
//!   like roms and liblinear).
//! * **HWT-driven** — `_HPA` is built *solely* from hot words: each word's
//!   page gets an entry, its mask accumulating matched words and serving
//!   as the hotness signal (Guideline 4: good for sparse-only workloads
//!   like Redis and CacheLib).

use cxl_sim::addr::{CacheLineAddr, Pfn};
use std::collections::{BTreeMap, HashMap};

/// Which nomination mechanism to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NominatorMode {
    /// Hot pages straight from HPT.
    HptOnly,
    /// HPT pages annotated with HWT word masks; dense ranked first.
    HptDriven,
    /// Pages derived purely from HWT hot words.
    HwtDriven,
}

impl NominatorMode {
    /// Whether this mode needs an HPT attached.
    pub fn needs_hpt(self) -> bool {
        !matches!(self, NominatorMode::HwtDriven)
    }

    /// Whether this mode needs an HWT attached.
    pub fn needs_hwt(self) -> bool {
        !matches!(self, NominatorMode::HptOnly)
    }
}

/// One `_HPA` entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HpaEntry {
    /// The hot page.
    pub pfn: Pfn,
    /// The page's hotness (HPT estimate, or accumulated hot-word counts in
    /// HWT-driven mode).
    pub count: u64,
    /// Bit `i` set ⇔ word `i` of the page appeared in `_HWA`.
    pub mask: u64,
}

impl HpaEntry {
    /// Number of distinct hot words observed in this page.
    pub fn hot_words(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// The Nominator component.
///
/// In HWT-driven mode `_HPA` is *persistent*: each epoch's hot words fold
/// into it and existing counts decay by half. The device CAM is drained
/// fresh every query, so pages whose words stopped being hot (e.g.
/// because they migrated off CXL and left the tracker's view) fade out of
/// `_HPA` within a few epochs, while pages with only a thin per-epoch
/// word signal accumulate until they surface — this is what "periodically
/// updated by HPT and HWT" (§5.2) has to mean at word granularity, where
/// one epoch rarely carries enough counts to rank pages on its own.
#[derive(Clone, Debug)]
pub struct Nominator {
    mode: NominatorMode,
    hpa: Vec<HpaEntry>,
    /// Persistent HWT-driven accumulation: pfn → (decaying count, mask).
    /// Ordered, so `_HPA` and the checkpoint list pages in PFN order.
    hwa_acc: BTreeMap<Pfn, (u64, u64)>,
}

impl Nominator {
    /// Builds a Nominator in `mode`.
    pub fn new(mode: NominatorMode) -> Nominator {
        Nominator {
            mode,
            hpa: Vec::new(),
            hwa_acc: BTreeMap::new(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> NominatorMode {
        self.mode
    }

    /// The current `_HPA` contents (after [`Nominator::refresh`]).
    pub fn hpa(&self) -> &[HpaEntry] {
        &self.hpa
    }

    /// Rebuilds `_HPA` from this epoch's tracker output: `hot_pages` from
    /// HPT and `hot_words` from HWT (either may be empty depending on the
    /// mode).
    pub fn refresh(&mut self, hot_pages: &[(Pfn, u64)], hot_words: &[(CacheLineAddr, u64)]) {
        self.hpa.clear();
        match self.mode {
            NominatorMode::HptOnly => {
                self.hpa
                    .extend(hot_pages.iter().map(|&(pfn, count)| HpaEntry {
                        pfn,
                        count,
                        mask: 0,
                    }));
            }
            NominatorMode::HptDriven => {
                let mut index: HashMap<Pfn, usize> = HashMap::with_capacity(hot_pages.len());
                for &(pfn, count) in hot_pages {
                    index.insert(pfn, self.hpa.len());
                    self.hpa.push(HpaEntry {
                        pfn,
                        count,
                        mask: 0,
                    });
                }
                // Search _HPA with the PFNs derived from hot-word addresses;
                // on a match, set the bit indexed by the in-page word.
                for &(line, _) in hot_words {
                    if let Some(&i) = index.get(&line.pfn()) {
                        self.hpa[i].mask |= 1u64 << line.word_index().0;
                    }
                }
            }
            NominatorMode::HwtDriven => {
                // Decay the persistent accumulation, then fold this
                // epoch's hot words in.
                self.hwa_acc.retain(|_, (count, _)| {
                    *count /= 2;
                    *count > 0
                });
                for &(line, wcount) in hot_words {
                    let e = self.hwa_acc.entry(line.pfn()).or_insert((0, 0));
                    e.0 += wcount;
                    e.1 |= 1u64 << line.word_index().0;
                }
                self.hpa
                    .extend(self.hwa_acc.iter().map(|(&pfn, &(count, mask))| HpaEntry {
                        pfn,
                        count,
                        mask,
                    }));
            }
        }
    }

    /// Drops `pfn` from the persistent HWT-driven accumulation. The
    /// manager retires every candidate it acted on: a promoted page's old
    /// frame is dead (its words left the tracker's view), and a rejected
    /// one (pinned/bound) must not crowd the next nomination either.
    pub fn retire(&mut self, pfn: Pfn) {
        self.hwa_acc.remove(&pfn);
    }

    /// Serializes the nominator — the current `_HPA` contents and the
    /// persistent HWT-driven accumulation, in PFN order — for a checkpoint.
    /// The mode is not written: the manager derives it.
    pub fn save(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        w.put_u64(self.hpa.len() as u64);
        for e in &self.hpa {
            w.put_u64(e.pfn.0);
            w.put_u64(e.count);
            w.put_u64(e.mask);
        }
        w.put_u64(self.hwa_acc.len() as u64);
        for (&pfn, &(count, mask)) in &self.hwa_acc {
            w.put_u64(pfn.0);
            w.put_u64(count);
            w.put_u64(mask);
        }
    }

    /// Rebuilds a nominator running in `mode` from a checkpoint section.
    /// After a tracker failure the live nominator runs in `HptOnly`
    /// regardless of the configured mode, so the manager passes the mode
    /// its restored tracker strikes imply.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated payload.
    pub fn restore(
        mode: NominatorMode,
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<Nominator, cxl_sim::checkpoint::CodecError> {
        let n = r.get_u64()? as usize;
        let mut hpa = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            hpa.push(HpaEntry {
                pfn: Pfn(r.get_u64()?),
                count: r.get_u64()?,
                mask: r.get_u64()?,
            });
        }
        let n = r.get_u64()? as usize;
        let mut hwa_acc = BTreeMap::new();
        for _ in 0..n {
            let pfn = Pfn(r.get_u64()?);
            let count = r.get_u64()?;
            let mask = r.get_u64()?;
            hwa_acc.insert(pfn, (count, mask));
        }
        Ok(Nominator { mode, hpa, hwa_acc })
    }

    /// The top `limit` candidates under the mode's ranking.
    pub fn nominate(&self, limit: usize) -> Vec<HpaEntry> {
        let mut v = self.hpa.clone();
        match self.mode {
            NominatorMode::HptOnly => {
                v.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.pfn.cmp(&b.pfn)));
            }
            NominatorMode::HwtDriven => {
                // §5.2: in HWT-driven mode "the 64-bit mask serves as an
                // access count" — rank by how many distinct hot words hit
                // the page, then by accumulated word counts. A page with
                // many hot words (a dense hot structure like a KV index)
                // outranks one carried by a single scorching word.
                v.sort_unstable_by(|a, b| {
                    b.hot_words()
                        .cmp(&a.hot_words())
                        .then(b.count.cmp(&a.count))
                        .then(a.pfn.cmp(&b.pfn))
                });
            }
            NominatorMode::HptDriven => {
                // Rank by hotness magnitude (log₂ bucket) first, then prefer
                // dense pages among similarly hot ones (§4.1: migrating
                // dense hot pages beats migrating sparse ones of similar
                // hotness).
                let bucket = |c: u64| 64 - c.leading_zeros();
                v.sort_unstable_by(|a, b| {
                    bucket(b.count)
                        .cmp(&bucket(a.count))
                        .then(b.hot_words().cmp(&a.hot_words()))
                        .then(b.count.cmp(&a.count))
                        .then(a.pfn.cmp(&b.pfn))
                });
            }
        }
        v.truncate(limit);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::WordIndex;
    use cxl_sim::memory::CXL_BASE_PFN;

    fn pfn(i: u64) -> Pfn {
        Pfn(CXL_BASE_PFN + i)
    }

    fn word(page: u64, w: u8) -> CacheLineAddr {
        pfn(page).word(WordIndex(w)).cache_line()
    }

    #[test]
    fn hpt_only_ranks_by_count() {
        let mut n = Nominator::new(NominatorMode::HptOnly);
        n.refresh(&[(pfn(1), 10), (pfn(2), 30), (pfn(3), 20)], &[]);
        let out = n.nominate(2);
        assert_eq!(out[0].pfn, pfn(2));
        assert_eq!(out[1].pfn, pfn(3));
        assert_eq!(out[0].mask, 0);
    }

    #[test]
    fn hpt_driven_sets_mask_bits_from_words() {
        let mut n = Nominator::new(NominatorMode::HptDriven);
        n.refresh(
            &[(pfn(1), 100), (pfn(2), 100)],
            &[
                (word(1, 0), 50),
                (word(1, 63), 40),
                (word(2, 7), 90),
                (word(9, 3), 10), // no matching _HPA entry: dropped
            ],
        );
        let hpa = n.hpa();
        let e1 = hpa.iter().find(|e| e.pfn == pfn(1)).unwrap();
        assert_eq!(e1.mask, 1 | (1 << 63));
        assert_eq!(e1.hot_words(), 2);
        let e2 = hpa.iter().find(|e| e.pfn == pfn(2)).unwrap();
        assert_eq!(e2.hot_words(), 1);
    }

    #[test]
    fn hpt_driven_prefers_dense_among_similar_hotness() {
        let mut n = Nominator::new(NominatorMode::HptDriven);
        // Pages 1 and 2 in the same log₂ hotness bucket; page 2 is denser.
        n.refresh(
            &[(pfn(1), 100), (pfn(2), 98)],
            &[
                (word(1, 0), 9),
                (word(2, 1), 9),
                (word(2, 2), 9),
                (word(2, 3), 9),
            ],
        );
        let out = n.nominate(2);
        assert_eq!(out[0].pfn, pfn(2), "denser page wins the tie");
        // But a much hotter sparse page still beats a cooler dense one.
        n.refresh(
            &[(pfn(1), 1000), (pfn(2), 90)],
            &[(word(2, 1), 9), (word(2, 2), 9), (word(2, 3), 9)],
        );
        assert_eq!(n.nominate(1)[0].pfn, pfn(1));
    }

    #[test]
    fn hwt_driven_builds_hpa_from_words_alone() {
        let mut n = Nominator::new(NominatorMode::HwtDriven);
        n.refresh(
            &[], // no HPT in this mode
            &[(word(5, 0), 40), (word(5, 1), 30), (word(6, 9), 50)],
        );
        let out = n.nominate(10);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pfn, pfn(5), "two hot words beat one");
        assert_eq!(out[0].count, 70);
        assert_eq!(out[0].hot_words(), 2);
        assert_eq!(out[1].pfn, pfn(6));
    }

    #[test]
    fn refresh_replaces_previous_epoch() {
        let mut n = Nominator::new(NominatorMode::HptOnly);
        n.refresh(&[(pfn(1), 10)], &[]);
        n.refresh(&[(pfn(2), 20)], &[]);
        assert_eq!(n.hpa().len(), 1);
        assert_eq!(n.nominate(10)[0].pfn, pfn(2));
    }

    #[test]
    fn mode_requirements() {
        assert!(NominatorMode::HptOnly.needs_hpt());
        assert!(!NominatorMode::HptOnly.needs_hwt());
        assert!(NominatorMode::HptDriven.needs_hpt());
        assert!(NominatorMode::HptDriven.needs_hwt());
        assert!(!NominatorMode::HwtDriven.needs_hpt());
        assert!(NominatorMode::HwtDriven.needs_hwt());
    }
}
