//! A Multi-Generational LRU (MGLRU) for demotion-victim selection.
//!
//! M5 relies on the Linux kernel's MGLRU to choose which DDR pages to demote
//! once the fast tier fills up (§5.2). This model keeps the resident pages of
//! the fast tier sorted into `G` generations. An *aging pass* samples each
//! page's PTE accessed bit: recently accessed pages move to the youngest
//! generation, untouched ones drift one generation older. Demotion victims
//! are taken from the oldest populated generation, FIFO within a generation.

use crate::addr::Vpn;
use crate::paging::PageTable;
use std::collections::VecDeque;

/// Number of generations, matching the kernel's default `MAX_NR_GENS` tiers
/// in spirit (young → old).
pub const NR_GENS: usize = 4;

/// `index` value of an untracked page.
const UNTRACKED: u8 = u8::MAX;

/// The MGLRU bookkeeping for one node's resident pages.
#[derive(Clone, Debug, Default)]
pub struct MgLru {
    gens: [VecDeque<Vpn>; NR_GENS],
    /// Current generation of each page, indexed by VPN (VPNs are handed
    /// out densely from 0); [`UNTRACKED`] for pages not in the LRU.
    index: Vec<u8>,
    /// Number of tracked pages.
    tracked: usize,
    aging_passes: u64,
}

impl MgLru {
    /// An empty LRU.
    pub fn new() -> MgLru {
        MgLru::default()
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// The generation of `vpn`, if tracked.
    fn gen_of(&self, vpn: Vpn) -> Option<usize> {
        match self.index.get(vpn.0 as usize) {
            Some(&g) if g != UNTRACKED => Some(g as usize),
            _ => None,
        }
    }

    /// Records `vpn` as tracked in generation `g`.
    fn track(&mut self, vpn: Vpn, g: usize) {
        let i = vpn.0 as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, UNTRACKED);
        }
        self.tracked += (self.index[i] == UNTRACKED) as usize;
        self.index[i] = g as u8;
    }

    /// Stops tracking `vpn`, which must be tracked.
    fn untrack(&mut self, vpn: Vpn) {
        self.index[vpn.0 as usize] = UNTRACKED;
        self.tracked -= 1;
    }

    /// Number of aging passes performed.
    pub fn aging_passes(&self) -> u64 {
        self.aging_passes
    }

    /// Starts tracking `vpn` in the youngest generation (a page was just
    /// promoted to, or allocated on, this node).
    pub fn insert(&mut self, vpn: Vpn) {
        if self.gen_of(vpn).is_some() {
            return;
        }
        self.gens[0].push_back(vpn);
        self.track(vpn, 0);
    }

    /// Stops tracking `vpn` (the page was demoted or unmapped). Returns
    /// whether it was tracked.
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        match self.gen_of(vpn) {
            Some(g) => {
                self.untrack(vpn);
                if let Some(pos) = self.gens[g].iter().position(|&v| v == vpn) {
                    self.gens[g].remove(pos);
                }
                true
            }
            None => false,
        }
    }

    /// One aging pass: samples and clears each tracked page's accessed bit
    /// in `pt`. Accessed pages are refreshed into the youngest generation;
    /// idle pages move one generation older. Returns the number of PTEs
    /// scanned (the caller bills that as kernel work).
    pub fn age(&mut self, pt: &mut PageTable) -> u64 {
        self.aging_passes += 1;
        let mut scanned = 0;
        let mut next: [VecDeque<Vpn>; NR_GENS] = Default::default();
        for g in 0..NR_GENS {
            while let Some(vpn) = self.gens[g].pop_front() {
                scanned += 1;
                let new_gen = if pt.test_and_clear_accessed(vpn) {
                    0
                } else {
                    (g + 1).min(NR_GENS - 1)
                };
                next[new_gen].push_back(vpn);
                self.index[vpn.0 as usize] = new_gen as u8;
            }
        }
        self.gens = next;
        scanned
    }

    /// Picks up to `n` demotion victims from the oldest populated
    /// generations. The victims are removed from the LRU.
    pub fn pick_coldest(&mut self, n: usize) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(n);
        for g in (0..NR_GENS).rev() {
            while out.len() < n {
                match self.gens[g].pop_front() {
                    Some(vpn) => {
                        self.untrack(vpn);
                        out.push(vpn);
                    }
                    None => break,
                }
            }
            if out.len() == n {
                break;
            }
        }
        out
    }

    /// Iterates over all tracked pages with their generation, in VPN
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, usize)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g != UNTRACKED)
            .map(|(v, &g)| (Vpn(v as u64), g as usize))
    }

    /// Serializes the generations (FIFO order within each — victim order is
    /// behavior-bearing) for a checkpoint. The index is derived state,
    /// rebuilt on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        for gen in &self.gens {
            w.put_u64(gen.len() as u64);
            for &vpn in gen {
                w.put_u64(vpn.0);
            }
        }
        w.put_u64(self.aging_passes);
    }

    /// Rebuilds an MGLRU from a checkpoint section. Every page must lie
    /// below `vpn_extent`, the restored page table's extent.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload;
    /// [`CodecError::BadValue`](crate::checkpoint::CodecError::BadValue)
    /// for a page at or past `vpn_extent` or listed twice.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
        vpn_extent: u64,
    ) -> Result<MgLru, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let mut lru = MgLru::new();
        for g in 0..NR_GENS {
            let n = r.get_u64()? as usize;
            for _ in 0..n {
                let vpn = Vpn(r.get_u64()?);
                if vpn.0 >= vpn_extent {
                    return Err(CodecError::BadValue {
                        what: "mglru page past the page table",
                        value: vpn.0,
                    });
                }
                if lru.gen_of(vpn).is_some() {
                    return Err(CodecError::BadValue {
                        what: "repeated mglru page",
                        value: vpn.0,
                    });
                }
                lru.gens[g].push_back(vpn);
                lru.track(vpn, g);
            }
        }
        lru.aging_passes = r.get_u64()?;
        Ok(lru)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;

    fn pt_with(pages: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map(Vpn(i), Pfn(i));
        }
        pt
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut lru = MgLru::new();
        lru.insert(Vpn(1));
        lru.insert(Vpn(1)); // idempotent
        assert_eq!(lru.len(), 1);
        assert!(lru.remove(Vpn(1)));
        assert!(!lru.remove(Vpn(1)));
        assert!(lru.is_empty());
    }

    #[test]
    fn idle_pages_age_toward_oldest_generation() {
        let mut pt = pt_with(2);
        let mut lru = MgLru::new();
        lru.insert(Vpn(0));
        lru.insert(Vpn(1));
        for pass in 1..=NR_GENS {
            let scanned = lru.age(&mut pt);
            assert_eq!(scanned, 2);
            let expect = pass.min(NR_GENS - 1);
            assert_eq!(lru.gens[expect].len(), 2, "after pass {pass}");
        }
        assert_eq!(lru.aging_passes(), NR_GENS as u64);
    }

    #[test]
    fn accessed_pages_return_to_youngest() {
        let mut pt = pt_with(2);
        let mut lru = MgLru::new();
        lru.insert(Vpn(0));
        lru.insert(Vpn(1));
        lru.age(&mut pt); // both now gen 1
        pt.set_accessed(Vpn(0));
        lru.age(&mut pt);
        assert_eq!(lru.gens[0].len(), 1); // page 0 refreshed
        assert_eq!(lru.gens[2].len(), 1); // page 1 aged further
                                          // The accessed bit was consumed by the aging pass.
        assert!(!pt.test_and_clear_accessed(Vpn(0)));
    }

    #[test]
    fn pick_coldest_prefers_oldest_generation() {
        let mut pt = pt_with(3);
        let mut lru = MgLru::new();
        lru.insert(Vpn(0));
        lru.age(&mut pt); // 0 -> gen 1
        lru.insert(Vpn(1));
        lru.age(&mut pt); // 0 -> gen 2, 1 -> gen 1
        lru.insert(Vpn(2)); // gen 0
        let victims = lru.pick_coldest(2);
        assert_eq!(victims, vec![Vpn(0), Vpn(1)]);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pick_coldest(5), vec![Vpn(2)]);
        assert!(lru.pick_coldest(1).is_empty());
    }

    #[test]
    fn restore_rejects_pages_past_the_table_or_listed_twice() {
        use crate::checkpoint::{CodecError, StateReader, StateWriter};
        let mut lru = MgLru::new();
        lru.insert(Vpn(3));
        lru.insert(Vpn(5));
        let mut w = StateWriter::new();
        lru.save(&mut w);
        let bytes = w.finish();
        let back = MgLru::restore(&mut StateReader::new(&bytes), 6).unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            vec![(Vpn(3), 0), (Vpn(5), 0)]
        );
        assert!(matches!(
            MgLru::restore(&mut StateReader::new(&bytes), 5),
            Err(CodecError::BadValue { value: 5, .. })
        ));

        let mut w = StateWriter::new();
        w.put_u64(1);
        w.put_u64(3);
        w.put_u64(1);
        w.put_u64(3);
        for _ in 2..NR_GENS {
            w.put_u64(0);
        }
        w.put_u64(0);
        let bytes = w.finish();
        assert!(matches!(
            MgLru::restore(&mut StateReader::new(&bytes), 6),
            Err(CodecError::BadValue { value: 3, .. })
        ));
    }

    #[test]
    fn iter_reports_generations() {
        let mut pt = pt_with(1);
        let mut lru = MgLru::new();
        lru.insert(Vpn(0));
        lru.age(&mut pt);
        let all: Vec<_> = lru.iter().collect();
        assert_eq!(all, vec![(Vpn(0), 1)]);
    }
}
