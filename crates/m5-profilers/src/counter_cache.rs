//! Scalability mode 1 (§3): the SRAM unit as a *cache* of counters.
//!
//! When CXL DRAM is too large for one counter per page to fit in SRAM, the
//! controller caches a subset. A miss evicts a victim counter: its value is
//! written to the access-count table with a D2H/D2D access, and the new
//! counter starts at 1. Counting stays exact; the cost is writeback traffic
//! proportional to the miss rate.

use crate::count_table::AccessCountTable;
use cxl_sim::addr::{CacheLineAddr, Pfn};
use cxl_sim::controller::CxlDevice;
use cxl_sim::time::Nanos;
use std::collections::{HashMap, VecDeque};

/// A bounded cache of per-page counters backed by the access-count table.
#[derive(Clone, Debug)]
pub struct CounterCache {
    capacity: usize,
    counts: HashMap<u64, u64>,
    /// FIFO eviction order (a round-robin victim pointer in hardware).
    order: VecDeque<u64>,
    table: AccessCountTable,
    hits: u64,
    misses: u64,
}

impl CounterCache {
    /// A cache holding at most `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> CounterCache {
        assert!(capacity > 0, "cache needs capacity");
        CounterCache {
            capacity,
            counts: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            table: AccessCountTable::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Records one access to the counter at `idx`.
    pub fn record(&mut self, idx: u64) {
        if let Some(c) = self.counts.get_mut(&idx) {
            *c += 1;
            self.hits += 1;
            return;
        }
        self.misses += 1;
        if self.counts.len() == self.capacity {
            // Evict the FIFO victim: write its count back, then reuse.
            if let Some(victim) = self.order.pop_front() {
                if let Some(c) = self.counts.remove(&victim) {
                    self.table.spill(victim, c);
                }
            }
        }
        self.counts.insert(idx, 1);
        self.order.push_back(idx);
    }

    /// The exact count for `idx` (cached residue plus table history).
    pub fn count(&self, idx: u64) -> u64 {
        self.counts.get(&idx).copied().unwrap_or(0) + self.table.get(idx)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (each one a potential eviction writeback).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// D2H/D2D writebacks performed by evictions.
    pub fn writebacks(&self) -> u64 {
        self.table.spill_writes()
    }

    /// Number of counters currently cached.
    pub fn cached(&self) -> usize {
        self.counts.len()
    }
}

/// A PAC variant whose SRAM is a [`CounterCache`] — attachable to the CXL
/// controller like the plain [`crate::counter::AccessCounter`].
#[derive(Clone, Debug)]
pub struct CachedPac {
    base: Pfn,
    cache: CounterCache,
    counted: u64,
}

impl CachedPac {
    /// A cached PAC monitoring PFNs at or above `base` with `capacity`
    /// SRAM counters.
    pub fn new(base: Pfn, capacity: usize) -> CachedPac {
        CachedPac {
            base,
            cache: CounterCache::new(capacity),
            counted: 0,
        }
    }

    /// The exact count of `pfn`.
    pub fn count(&self, pfn: Pfn) -> u64 {
        self.cache.count(pfn.0)
    }

    /// Total accesses counted.
    pub fn total_counted(&self) -> u64 {
        self.counted
    }

    /// The underlying cache (for hit/miss statistics).
    pub fn cache(&self) -> &CounterCache {
        &self.cache
    }
}

impl CxlDevice for CachedPac {
    fn name(&self) -> &str {
        "pac-cached"
    }

    fn on_access(&mut self, line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        let pfn = line.pfn();
        if pfn.0 >= self.base.0 {
            self.counted += 1;
            self.cache.record(pfn.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::WordIndex;
    use cxl_sim::memory::CXL_BASE_PFN;

    #[test]
    fn counting_is_exact_under_thrashing() {
        // Capacity 2, but 5 hot indices: constant eviction.
        let mut cc = CounterCache::new(2);
        let mut truth = HashMap::<u64, u64>::new();
        for round in 0..100u64 {
            for idx in 0..5 {
                let reps = 1 + (idx + round) % 3;
                for _ in 0..reps {
                    cc.record(idx);
                    *truth.entry(idx).or_default() += 1;
                }
            }
        }
        for (&idx, &c) in &truth {
            assert_eq!(cc.count(idx), c, "idx {idx}");
        }
        assert!(cc.writebacks() > 0, "thrashing must evict");
        assert!(cc.cached() <= 2);
    }

    #[test]
    fn hits_avoid_writebacks() {
        let mut cc = CounterCache::new(4);
        for _ in 0..100 {
            cc.record(1);
        }
        assert_eq!(cc.hits(), 99);
        assert_eq!(cc.misses(), 1);
        assert_eq!(cc.writebacks(), 0);
    }

    #[test]
    fn cached_pac_device_counts_like_pac() {
        let mut pac = CachedPac::new(Pfn(CXL_BASE_PFN), 2);
        for page in 0..4u64 {
            for _ in 0..=page {
                pac.on_access(
                    Pfn(CXL_BASE_PFN + page).word(WordIndex(0)).cache_line(),
                    false,
                    Nanos::ZERO,
                );
            }
        }
        for page in 0..4u64 {
            assert_eq!(pac.count(Pfn(CXL_BASE_PFN + page)), page + 1);
        }
        assert_eq!(pac.total_counted(), 10);
        // DDR traffic is ignored.
        pac.on_access(Pfn(0).word(WordIndex(0)).cache_line(), false, Nanos::ZERO);
        assert_eq!(pac.total_counted(), 10);
    }
}
