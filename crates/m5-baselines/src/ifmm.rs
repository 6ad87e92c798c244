//! IFMM — Intel Flat Memory Mode (§9 related work), a trace-level model.
//!
//! In flat memory mode the memory controller treats local DDR as an
//! *exclusive cache* of CXL memory with a one-to-one (direct-mapped)
//! 64 B-word correspondence: accessing a CXL word swaps it with the DDR
//! word in its slot — no TLB shootdown, no PTE update, no 4 KiB copy.
//! The catch the paper points out: the one-to-one mapping requires
//! DDR capacity ≥ the covered CXL range, and a conflicting word evicts
//! the previous tenant, so dense working sets thrash slots.
//!
//! This model replays a cache-filtered DRAM trace and reports how many
//! accesses each scheme serves from fast memory:
//!
//! * IFMM alone (word swaps, direct-mapped slots),
//! * page migration alone (an oracle promoting the hottest pages that
//!   fit), and
//! * the hybrid the paper proposes: M5 migrates dense hot pages while
//!   IFMM swaps hot words of the remaining sparse pages.
//!
//! It quantifies the §9 synergy claim: sparse-page workloads love word
//! swaps, dense-page workloads love page migration, and the hybrid
//! dominates both.

use cxl_sim::addr::{CacheLineAddr, Pfn, WORDS_PER_PAGE};
use cxl_sim::trace::TraceRecord;
use std::collections::{HashMap, HashSet};

/// The direct-mapped word-swap state.
#[derive(Clone, Debug)]
pub struct FlatMemoryMode {
    /// DDR slots (one per 64 B word of the covered range): which CXL word
    /// currently occupies each slot.
    slots: Vec<Option<u64>>,
    swaps: u64,
    fast_hits: u64,
    accesses: u64,
}

impl FlatMemoryMode {
    /// A flat-mode controller with `slots` DDR word slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> FlatMemoryMode {
        assert!(slots > 0, "need at least one slot");
        FlatMemoryMode {
            slots: vec![None; slots],
            swaps: 0,
            fast_hits: 0,
            accesses: 0,
        }
    }

    /// Observes one CXL word access: a hit if the word already occupies
    /// its slot, otherwise a swap that installs it (evicting the previous
    /// tenant back to CXL).
    pub fn access(&mut self, line: CacheLineAddr) -> bool {
        self.accesses += 1;
        let slot = (line.0 as usize) % self.slots.len();
        if self.slots[slot] == Some(line.0) {
            self.fast_hits += 1;
            true
        } else {
            self.slots[slot] = Some(line.0);
            self.swaps += 1;
            false
        }
    }

    /// Fraction of accesses served from fast memory.
    pub fn fast_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.fast_hits as f64 / self.accesses as f64
        }
    }

    /// Word swaps performed (each one a 64 B + 64 B transfer).
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// The outcome of replaying one trace under the three schemes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IfmmComparison {
    /// Fast-memory hit fraction under IFMM word swapping alone.
    pub ifmm_fast_fraction: f64,
    /// Fast-memory hit fraction under oracle page migration alone.
    pub paging_fast_fraction: f64,
    /// Fast-memory hit fraction under the §9 hybrid (M5 pages + IFMM
    /// words for the rest).
    pub hybrid_fast_fraction: f64,
    /// Word swaps IFMM performed (its traffic cost).
    pub ifmm_swaps: u64,
}

/// Replays `trace` under the three schemes with a fast tier of
/// `ddr_pages` 4 KiB pages.
///
/// The paging scheme is an *oracle*: it promotes the `ddr_pages` hottest
/// pages of the whole trace (an upper bound for any real migration
/// policy). The hybrid gives half the fast tier to oracle page migration
/// and runs IFMM word swapping in the other half for the remaining
/// pages' words.
pub fn compare(trace: &[TraceRecord], ddr_pages: usize) -> IfmmComparison {
    // Per-page access counts for the paging oracle.
    let mut page_counts: HashMap<Pfn, u64> = HashMap::new();
    for r in trace {
        *page_counts.entry(r.line.pfn()).or_default() += 1;
    }
    let mut pages: Vec<(Pfn, u64)> = page_counts.into_iter().collect();
    // Hottest first; equal counts in PFN order, so the pinned half does not
    // depend on hash-map iteration order.
    pages.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let paging_hits: u64 = pages.iter().take(ddr_pages).map(|&(_, c)| c).sum();
    let total: u64 = pages.iter().map(|&(_, c)| c).sum();

    // IFMM alone: all DDR capacity as word slots.
    let mut ifmm = FlatMemoryMode::new(ddr_pages.max(1) * WORDS_PER_PAGE);
    for r in trace {
        ifmm.access(r.line);
    }

    // Hybrid: half the capacity to the hottest pages, half to word slots
    // for everything else.
    let half = ddr_pages / 2;
    let hybrid_pages: HashSet<Pfn> = pages.iter().take(half).map(|&(p, _)| p).collect();
    let mut hybrid_ifmm = FlatMemoryMode::new((ddr_pages - half).max(1) * WORDS_PER_PAGE);
    let mut hybrid_hits = 0u64;
    for r in trace {
        // Short-circuit keeps pinned-page hits out of the word cache.
        if hybrid_pages.contains(&r.line.pfn()) || hybrid_ifmm.access(r.line) {
            hybrid_hits += 1;
        }
    }

    let frac = |hits: u64| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    IfmmComparison {
        ifmm_fast_fraction: ifmm.fast_fraction(),
        paging_fast_fraction: frac(paging_hits),
        hybrid_fast_fraction: frac(hybrid_hits),
        ifmm_swaps: ifmm.swaps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::WordIndex;
    use cxl_sim::memory::CXL_BASE_PFN;
    use cxl_sim::time::Nanos;

    fn rec(page: u64, word: u8) -> TraceRecord {
        TraceRecord {
            line: Pfn(CXL_BASE_PFN + page).word(WordIndex(word)).cache_line(),
            is_write: false,
            ts: Nanos::ZERO,
        }
    }

    #[test]
    fn repeated_word_hits_after_first_swap() {
        let mut fm = FlatMemoryMode::new(64);
        let line = rec(0, 5).line;
        assert!(!fm.access(line), "first access swaps");
        assert!(fm.access(line), "then it is fast");
        assert_eq!(fm.swaps(), 1);
        assert!((fm.fast_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicting_words_thrash_a_slot() {
        let mut fm = FlatMemoryMode::new(64);
        let a = rec(0, 3).line;
        // Same slot: word 3 of a page exactly `slots` lines away.
        let b = CacheLineAddr(a.0 + 64);
        for _ in 0..10 {
            assert!(!fm.access(a));
            assert!(!fm.access(b));
        }
        assert_eq!(fm.fast_hits, 0, "alternating conflicts never hit");
    }

    /// The §9 synergy: sparse hot words favour IFMM, dense hot pages
    /// favour paging, and the hybrid beats IFMM alone on a mixed trace.
    #[test]
    fn hybrid_wins_on_a_mixed_workload() {
        let mut trace = Vec::new();
        // Dense hot page 0: all 64 words, repeatedly.
        for _ in 0..50 {
            for w in 0..64u8 {
                trace.push(rec(0, w));
            }
        }
        // Sparse hot words: one word in each of 40 pages, at distinct
        // in-page offsets so they occupy distinct direct-mapped slots.
        for _ in 0..50 {
            for p in 1..=40u64 {
                trace.push(rec(p, ((7 + p) % 64) as u8));
            }
        }
        let cmp = compare(&trace, 2);
        // Paging with 2 pages catches the dense page but almost none of
        // the sparse traffic; IFMM catches the sparse words but conflicts
        // on the dense page... the hybrid gets both.
        assert!(
            cmp.hybrid_fast_fraction >= cmp.paging_fast_fraction - 1e-9,
            "hybrid {:.3} < paging {:.3}",
            cmp.hybrid_fast_fraction,
            cmp.paging_fast_fraction
        );
        assert!(
            cmp.hybrid_fast_fraction > cmp.ifmm_fast_fraction,
            "hybrid {:.3} <= ifmm {:.3}",
            cmp.hybrid_fast_fraction,
            cmp.ifmm_fast_fraction
        );
        assert!(cmp.ifmm_swaps > 0);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let cmp = compare(&[], 4);
        assert_eq!(cmp.ifmm_fast_fraction, 0.0);
        assert_eq!(cmp.paging_fast_fraction, 0.0);
    }
}
