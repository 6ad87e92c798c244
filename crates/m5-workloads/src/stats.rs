//! Trace fingerprinting: the statistics that define each benchmark's
//! paper role (Figures 4 and 10), computable from any replayable trace.
//!
//! Test-only: the unit tests below pin trace-level properties (write
//! fraction, op marks, word sparsity) that `tests/workload_fingerprints.rs`
//! does not check, since it measures behind the LLC.

use crate::access::ReplayWorkload;
use cxl_sim::addr::{PAGE_SIZE, WORD_SIZE};
use cxl_sim::system::AccessStream;
use std::collections::{HashMap, HashSet};

/// Trace-level fingerprint of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Total accesses inspected.
    pub accesses: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Distinct pages touched.
    pub pages_touched: usize,
    /// Per-page access-count percentile ratios over the median
    /// (`p90/p50`, `p95/p50`, `p99/p50`) — the Figure 10 skew shape.
    pub skew: (f64, f64, f64),
    /// Fraction of touched pages with at most {4, 8, 16, 32, 48} unique
    /// 64 B words accessed — the Figure 4 sparsity profile.
    pub sparsity: [f64; 5],
    /// Operations marked (0 if the workload doesn't mark ops).
    pub ops: u64,
}

impl TraceStats {
    /// Computes the fingerprint of `workload` (consumes a fresh replay).
    pub fn of(workload: &ReplayWorkload) -> TraceStats {
        let mut wl = workload.fresh();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut words: HashMap<u64, HashSet<u8>> = HashMap::new();
        let mut accesses = 0u64;
        let mut writes = 0u64;
        let mut ops = 0u64;
        while let Some(a) = wl.next_access() {
            accesses += 1;
            if a.is_write {
                writes += 1;
            }
            if a.op_end {
                ops += 1;
            }
            let page = a.vaddr.0 / PAGE_SIZE as u64;
            *counts.entry(page).or_default() += 1;
            words
                .entry(page)
                .or_default()
                .insert(((a.vaddr.0 / WORD_SIZE as u64) % 64) as u8);
        }

        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable();
        let pct = |p: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            sorted[((sorted.len() - 1) as f64 * p) as usize] as f64
        };
        let p50 = pct(0.50).max(1.0);

        let total_pages = words.len().max(1) as f64;
        let sparsity = [4u8, 8, 16, 32, 48]
            .map(|t| words.values().filter(|w| w.len() <= t as usize).count() as f64 / total_pages);

        TraceStats {
            accesses,
            write_fraction: if accesses == 0 {
                0.0
            } else {
                writes as f64 / accesses as f64
            },
            pages_touched: counts.len(),
            skew: (pct(0.90) / p50, pct(0.95) / p50, pct(0.99) / p50),
            sparsity,
            ops,
        }
    }

    /// Whether the trace is "sparse-page dominated" in the paper's sense:
    /// a majority of pages have ≤25 % of their words accessed
    /// (Guideline 4 territory — prefer the HWT-driven Nominator).
    pub fn is_sparse_dominated(&self) -> bool {
        self.sparsity[2] > 0.5
    }

    /// Whether the per-page heat is skewed enough that precise hot-page
    /// identification pays (p99 page ≥ 4× the median).
    pub fn is_skewed(&self) -> bool {
        self.skew.2 >= 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{generate, KvConfig};
    use crate::registry::Benchmark;
    use cxl_sim::addr::VirtAddr;

    #[test]
    fn kv_fingerprint_is_sparse_with_ops() {
        let wl = generate(&KvConfig::redis(7 * 300), VirtAddr(0), 60_000);
        let stats = TraceStats::of(&wl);
        assert_eq!(stats.accesses, wl.len() as u64);
        assert!(stats.ops > 10_000);
        assert!(stats.is_sparse_dominated(), "{:?}", stats.sparsity);
        assert!((0.2..0.5).contains(&stats.write_fraction));
    }

    #[test]
    fn roms_fingerprint_is_skewed_not_sparse() {
        let wl = Benchmark::Roms.spec().build(VirtAddr(0), 2_000_000, 1);
        let stats = TraceStats::of(&wl);
        assert!(stats.is_skewed(), "skew = {:?}", stats.skew);
        assert!(!stats.is_sparse_dominated());
    }

    #[test]
    fn stencil_fingerprint_is_flat_and_dense() {
        let wl = Benchmark::Fotonik3d.spec().build(VirtAddr(0), 1_500_000, 1);
        let stats = TraceStats::of(&wl);
        assert!(!stats.is_skewed(), "skew = {:?}", stats.skew);
        assert!(stats.sparsity[4] < 0.1, "dense pages expected");
        assert!(stats.pages_touched > 1000);
    }

    #[test]
    fn empty_trace_is_degenerate_but_safe() {
        let rec = crate::access::AccessRecorder::new();
        let wl = rec.into_workload("empty", VirtAddr(0));
        let stats = TraceStats::of(&wl);
        assert_eq!(stats.accesses, 0);
        assert_eq!(stats.pages_touched, 0);
        assert_eq!(stats.write_fraction, 0.0);
    }
}
