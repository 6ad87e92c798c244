//! PAC and WAC — the exact access counters (§3).
//!
//! Both are one near-memory device that snoops every access address
//! flowing from the CXL IP to the memory controllers, and both run one
//! datapath. PAC right-shifts `PA[47:6]` by 6 to count per 4 KiB page; WAC
//! is the same datapath without the address-to-PFN conversion and counts
//! per 64 B word. An SRAM unit holds one `L`-bit saturating counter per
//! monitored key; a saturated counter is accumulated into the 64-bit
//! access-count table and reset, so the final counts are **exact** —
//! unlike PEBS-style sampling, the counters observe every DRAM access.
//!
//! The paper's WAC monitors a 128 MB window that software re-aims, because
//! word counters for a whole 256 GB device would need 8 GB of SRAM. At
//! simulated scale one window covers the whole CXL node.

use crate::count_table::AccessCountTable;
use cxl_sim::addr::{CacheLineAddr, Granularity, WORDS_PER_PAGE};
use cxl_sim::controller::CxlDevice;
use cxl_sim::faults::DeviceFault;
use cxl_sim::memory::CXL_BASE_PFN;
use cxl_sim::system::System;
use cxl_sim::time::Nanos;
use std::collections::BTreeMap;

/// Counter configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterConfig {
    /// What an access is counted by: its page (PAC) or its word (WAC).
    pub granularity: Granularity,
    /// Counter width `L` in bits, `1..=16`.
    pub counter_bits: u32,
    /// First monitored key: a PFN for pages, a cache-line address for
    /// words.
    pub base: u64,
    /// Number of monitored keys.
    pub len: u64,
}

impl CounterConfig {
    /// PAC: the system's CXL node by page, with 16-bit counters (they
    /// saturate only after ~20 s even for memory-intensive workloads).
    pub fn pac(sys: &System) -> CounterConfig {
        CounterConfig {
            granularity: Granularity::Page,
            counter_bits: 16,
            base: CXL_BASE_PFN,
            len: sys.config().cxl.capacity_frames,
        }
    }

    /// WAC: the system's CXL node by word, with the paper's 4-bit counters.
    pub fn wac(sys: &System) -> CounterConfig {
        let words = WORDS_PER_PAGE as u64;
        CounterConfig {
            granularity: Granularity::Word,
            counter_bits: 4,
            base: CXL_BASE_PFN * words,
            len: sys.config().cxl.capacity_frames * words,
        }
    }
}

/// The exact access counter device: a PAC or a WAC, by [`Granularity`].
/// Every query takes and returns raw keys; convert them with `Pfn(key)` or
/// `CacheLineAddr(key)`.
#[derive(Clone, Debug)]
pub struct AccessCounter {
    config: CounterConfig,
    max: u16,
    sram: Vec<u16>,
    table: AccessCountTable,
    counted: u64,
    out_of_range: u64,
    dead: bool,
}

impl AccessCounter {
    /// Builds a counter.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is outside `1..=16`, or if `len` is 0.
    pub fn new(config: CounterConfig) -> AccessCounter {
        assert!(
            (1..=16).contains(&config.counter_bits),
            "counter width must be 1..=16 bits"
        );
        assert!(config.len > 0, "must monitor at least one key");
        AccessCounter {
            max: u16::MAX >> (16 - config.counter_bits),
            sram: vec![0; config.len as usize],
            table: AccessCountTable::new(),
            counted: 0,
            out_of_range: 0,
            dead: false,
            config,
        }
    }

    fn index_of(&self, key: u64) -> Option<usize> {
        let rel = key.checked_sub(self.config.base)?;
        (rel < self.config.len).then_some(rel as usize)
    }

    /// The exact access count of `key` (SRAM residue plus spilled table
    /// value); `0` for unmonitored keys.
    pub fn count(&self, key: u64) -> u64 {
        self.index_of(key)
            .map_or(0, |i| u64::from(self.sram[i]) + self.table.get(key))
    }

    /// Total accesses counted (all monitored keys).
    pub fn total_counted(&self) -> u64 {
        self.counted
    }

    /// Accesses that fell outside the monitored keys.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// D2H/D2D spill writes performed by saturation handling.
    pub fn spill_writes(&self) -> u64 {
        self.table.spill_writes()
    }

    /// Iterates `(key, count)` over monitored keys with nonzero counts, in
    /// ascending key order.
    pub fn iter_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.config.base..)
            .zip(&self.sram)
            .filter_map(move |(key, &c)| {
                let total = u64::from(c) + self.table.get(key);
                (total > 0).then_some((key, total))
            })
    }

    /// The `k` hottest keys, hottest first (ties broken by key).
    pub fn hottest(&self, k: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.iter_counts().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Sum of the counts of the top `k` keys — the denominator of the
    /// paper's average access-count ratio (§4.1, step S5).
    pub fn top_k_sum(&self, k: usize) -> u64 {
        self.hottest(k).iter().map(|&(_, c)| c).sum()
    }

    /// Sum of the counts of an arbitrary set of keys — the numerator of
    /// the access-count ratio (§4.1, step S4: look up each identified key).
    pub fn sum_counts_of<I: IntoIterator<Item = u64>>(&self, keys: I) -> u64 {
        keys.into_iter().map(|k| self.count(k)).sum()
    }

    /// Number of *unique* keys counted in each page, by PFN — for a word
    /// counter, the Figure 4 access-sparsity metric. A page counter reports
    /// 1 for every touched page.
    pub fn unique_words_per_page(&self) -> BTreeMap<u64, u32> {
        let mut out = BTreeMap::new();
        for (key, _) in self.iter_counts() {
            *out.entry(self.config.granularity.pfn(key).0).or_default() += 1;
        }
        out
    }

    /// Clears all counters and the spill table.
    pub fn reset(&mut self) {
        self.sram.fill(0);
        self.table.clear();
        self.counted = 0;
        self.out_of_range = 0;
    }
}

impl CxlDevice for AccessCounter {
    fn name(&self) -> &str {
        match self.config.granularity {
            Granularity::Page => "pac",
            Granularity::Word => "wac",
        }
    }

    fn on_access(&mut self, line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        if self.dead {
            return;
        }
        let key = self.config.granularity.key(line);
        match self.index_of(key) {
            Some(i) => {
                self.counted += 1;
                // An SRAM pegged at `max` by a fault overflows by one here.
                let c = u32::from(self.sram[i]) + 1;
                if c >= u32::from(self.max) {
                    self.table.spill(key, u64::from(c));
                    self.sram[i] = 0;
                } else {
                    self.sram[i] = c as u16;
                }
            }
            None => self.out_of_range += 1,
        }
    }

    fn on_fault(&mut self, fault: DeviceFault) {
        match fault {
            DeviceFault::SramBitFlip { slot, bit } => {
                let i = (slot % self.config.len) as usize;
                self.sram[i] ^= 1 << (bit % self.config.counter_bits);
            }
            DeviceFault::SramSaturate => self.sram.fill(self.max),
            DeviceFault::Fail => self.dead = true,
            // RAS faults target the memory/link layer, not the counter
            // SRAM; the injector routes them to the RAS queue, never here.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::{Pfn, WordIndex};

    const BOTH: [Granularity; 2] = [Granularity::Page, Granularity::Word];

    /// A counter over the first `pages` CXL pages at `granularity`.
    fn counter(granularity: Granularity, bits: u32, pages: u64) -> AccessCounter {
        let per_page = match granularity {
            Granularity::Page => 1,
            Granularity::Word => WORDS_PER_PAGE as u64,
        };
        AccessCounter::new(CounterConfig {
            granularity,
            counter_bits: bits,
            base: granularity.key(line(0, 0)),
            len: pages * per_page,
        })
    }

    fn line(page: u64, word: u8) -> CacheLineAddr {
        Pfn(CXL_BASE_PFN + page).word(WordIndex(word)).cache_line()
    }

    fn touch(c: &mut AccessCounter, line: CacheLineAddr, times: u64) {
        for _ in 0..times {
            c.on_access(line, false, Nanos::ZERO);
        }
    }

    #[test]
    fn counts_stay_exact_through_saturation() {
        for g in BOTH {
            // 4-bit counters saturate at 15.
            let mut c = counter(g, 4, 16);
            touch(&mut c, line(2, 5), 1000);
            touch(&mut c, line(3, 0), 7);
            assert_eq!(c.count(g.key(line(2, 5))), 1000, "{g:?}");
            assert_eq!(c.count(g.key(line(3, 0))), 7, "{g:?}");
            assert_eq!(c.count(g.key(line(1, 0))), 0, "{g:?}");
            assert_eq!(c.total_counted(), 1007, "{g:?}");
            assert_eq!(c.spill_writes(), 1000 / 15, "{g:?}");
        }
    }

    #[test]
    fn words_of_one_page_count_to_that_page() {
        let mut pac = counter(Granularity::Page, 16, 16);
        let mut wac = counter(Granularity::Word, 4, 16);
        for w in 0..64u8 {
            pac.on_access(line(5, w), false, Nanos::ZERO);
            wac.on_access(line(5, w), false, Nanos::ZERO);
        }
        assert_eq!(pac.count(CXL_BASE_PFN + 5), 64);
        assert_eq!(pac.iter_counts().count(), 1);
        assert_eq!(wac.iter_counts().count(), 64);
        assert!(wac.iter_counts().all(|(_, n)| n == 1));
        assert_eq!(wac.count(line(5, 9).0), 1);
        assert_eq!((pac.name(), wac.name()), ("pac", "wac"));
    }

    #[test]
    fn out_of_range_accesses_are_counted_apart() {
        for g in BOTH {
            let mut c = counter(g, 16, 16);
            // A DDR access: PFN below the CXL base.
            c.on_access(Pfn(1).word(WordIndex(0)).cache_line(), false, Nanos::ZERO);
            // Beyond the monitored keys.
            c.on_access(line(100, 0), false, Nanos::ZERO);
            assert_eq!(c.total_counted(), 0, "{g:?}");
            assert_eq!(c.out_of_range(), 2, "{g:?}");
            assert_eq!(c.count(g.key(line(100, 0))), 0, "{g:?}");
        }
    }

    #[test]
    fn hottest_orders_by_count_then_key() {
        for g in BOTH {
            let mut c = counter(g, 16, 16);
            let lines = [line(0, 0), line(1, 1), line(2, 2), line(3, 3)];
            for (l, times) in lines.into_iter().zip([50, 30, 10, 30]) {
                touch(&mut c, l, times);
            }
            let [a, b, d, e] = lines.map(|l| g.key(l));
            assert_eq!(c.hottest(3), vec![(a, 50), (b, 30), (e, 30)], "{g:?}");
            assert_eq!(c.top_k_sum(2), 80, "{g:?}");
            // A "warm" list sums lower than the true top-2.
            assert_eq!(c.sum_counts_of([b, d]), 40, "{g:?}");
            let keys: Vec<u64> = c.iter_counts().map(|(k, _)| k).collect();
            assert_eq!(keys, vec![a, b, d, e], "{g:?}");
        }
    }

    #[test]
    fn faults_corrupt_counts_but_never_invent_keys() {
        for g in BOTH {
            let mut c = counter(g, 4, 16);
            let hot = line(1, 0);
            touch(&mut c, hot, 3);
            // A bit flip perturbs one counter but keeps the device running.
            let slot = g.key(hot) - g.key(line(0, 0));
            c.on_fault(DeviceFault::SramBitFlip { slot, bit: 1 });
            touch(&mut c, hot, 1);
            assert_ne!(c.count(g.key(hot)), 4, "{g:?}: counter corrupted");
            // Saturation pegs every counter; candidates stay in range.
            c.on_fault(DeviceFault::SramSaturate);
            touch(&mut c, line(2, 0), 1);
            let base = g.key(line(0, 0));
            assert_eq!(c.hottest(usize::MAX).len() as u64, c.config.len, "{g:?}");
            for (key, _) in c.hottest(usize::MAX) {
                assert!(key - base < c.config.len, "{g:?}: invented {key:#x}");
            }
        }
    }

    #[test]
    fn a_saturated_full_width_counter_spills_without_overflow() {
        for g in BOTH {
            let mut c = counter(g, 16, 2);
            c.on_fault(DeviceFault::SramSaturate);
            touch(&mut c, line(1, 0), 1);
            assert_eq!(c.count(g.key(line(1, 0))), 1 << 16, "{g:?}");
            assert_eq!(c.spill_writes(), 1, "{g:?}");
        }
    }

    #[test]
    fn a_dead_counter_stops_counting() {
        for g in BOTH {
            let mut c = counter(g, 4, 16);
            touch(&mut c, line(3, 0), 2);
            c.on_fault(DeviceFault::Fail);
            touch(&mut c, line(3, 0), 10);
            c.on_access(line(100, 0), false, Nanos::ZERO);
            assert_eq!(c.total_counted(), 2, "{g:?}");
            assert_eq!(c.count(g.key(line(3, 0))), 2, "{g:?}");
            assert_eq!(c.out_of_range(), 0, "{g:?}");
        }
    }

    #[test]
    fn reset_clears_counts() {
        for g in BOTH {
            let mut c = counter(g, 4, 16);
            touch(&mut c, line(0, 0), 99);
            c.on_access(line(100, 0), false, Nanos::ZERO);
            c.reset();
            assert_eq!(c.count(g.key(line(0, 0))), 0, "{g:?}");
            assert_eq!(c.total_counted(), 0, "{g:?}");
            assert_eq!(c.out_of_range(), 0, "{g:?}");
            assert_eq!(c.spill_writes(), 0, "{g:?}");
            assert_eq!(c.iter_counts().count(), 0, "{g:?}");
        }
    }

    #[test]
    fn unique_words_per_page_measures_sparsity() {
        let mut wac = counter(Granularity::Word, 4, 4);
        let mut pac = counter(Granularity::Page, 16, 4);
        // Page 0: sparse, only 3 unique words (each touched repeatedly).
        for w in [0u8, 5, 9] {
            touch(&mut wac, line(0, w), 10);
            touch(&mut pac, line(0, w), 10);
        }
        // Page 1: dense, all 64 words.
        for w in 0..64u8 {
            touch(&mut wac, line(1, w), 1);
            touch(&mut pac, line(1, w), 1);
        }
        let uniq = wac.unique_words_per_page();
        assert_eq!(uniq.len(), 2);
        assert_eq!(uniq[&CXL_BASE_PFN], 3);
        assert_eq!(uniq[&(CXL_BASE_PFN + 1)], 64);
        // A page counter cannot resolve words: one per touched page.
        let pages = pac.unique_words_per_page();
        assert_eq!(
            pages.into_iter().collect::<Vec<_>>(),
            [(CXL_BASE_PFN, 1), (CXL_BASE_PFN + 1, 1)]
        );
    }
}
