//! `fill_chunk` ≡ repeated `next_access` for every registered workload.
//!
//! The chunked run pipeline is only byte-identical to the per-access loop
//! if batching never changes the access sequence. This property holds by
//! construction for the default `fill_chunk` (it *is* a `next_access`
//! loop); these tests pin it for the native bulk implementations — the
//! recorded-trace widen-and-rebase pass in `ReplayWorkload` and the
//! quantum-aware delegation in `CoRunner` — at arbitrary chunk capacities.

use cxl_sim::addr::VirtAddr;
use cxl_sim::chunk::AccessChunk;
use cxl_sim::system::{Access, AccessStream};
use m5_workloads::access::ReplayWorkload;
use m5_workloads::corun::CoRunner;
use m5_workloads::registry::Benchmark;
use proptest::prelude::*;
use std::sync::OnceLock;

const ACCESSES: u64 = 4096;
const SEED: u64 = 0xC0FFEE;
const BASE: VirtAddr = VirtAddr(0x40_0000);

/// Every registered workload, built once (graph generation is cached but
/// trace recording still costs; the proptests only replay cursors).
fn traces() -> &'static Vec<(Benchmark, ReplayWorkload)> {
    static TRACES: OnceLock<Vec<(Benchmark, ReplayWorkload)>> = OnceLock::new();
    TRACES.get_or_init(|| {
        Benchmark::FIGURE4
            .iter()
            .map(|&b| (b, b.spec().build(BASE, ACCESSES, SEED)))
            .collect()
    })
}

fn drain_next<S: AccessStream>(s: &mut S) -> Vec<Access> {
    std::iter::from_fn(|| s.next_access()).collect()
}

fn drain_chunks<S: AccessStream>(s: &mut S, cap: usize) -> Vec<Access> {
    let mut chunk = AccessChunk::with_capacity(cap);
    let mut out = Vec::new();
    loop {
        chunk.clear();
        if s.fill_chunk(&mut chunk) == 0 {
            break;
        }
        out.extend(chunk.iter());
    }
    out
}

/// Forwards only `next_access`, so `fill_chunk` takes the trait's default
/// implementation — the reference the native paths are compared against.
struct DefaultImpl<S>(S);

impl<S: AccessStream> AccessStream for DefaultImpl<S> {
    fn next_access(&mut self) -> Option<Access> {
        self.0.next_access()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Native `ReplayWorkload::fill_chunk` produces the identical sequence
    /// for every benchmark at any chunk capacity.
    #[test]
    fn replay_fill_chunk_matches_next_access(cap in 1usize..3001) {
        for (b, wl) in traces() {
            let reference = drain_next(&mut wl.fresh());
            let batched = drain_chunks(&mut wl.fresh(), cap);
            prop_assert_eq!(
                &batched, &reference,
                "{:?} diverged at cap {}", b, cap
            );
        }
    }

    /// The native path also matches the trait's default implementation
    /// (same stream, `fill_chunk` forced through the `next_access` loop).
    #[test]
    fn replay_fill_chunk_matches_default_impl(cap in 1usize..3001) {
        let (_, wl) = &traces()[0];
        let via_default = drain_chunks(&mut DefaultImpl(wl.fresh()), cap);
        let via_native = drain_chunks(&mut wl.fresh(), cap);
        prop_assert_eq!(via_native, via_default);
    }

    /// `CoRunner::fill_chunk` respects quantum boundaries exactly: the
    /// interleaved sequence matches per-access round-robin for any
    /// (quantum, chunk capacity) pair, including streams of unequal
    /// length draining mid-chunk.
    #[test]
    fn corun_fill_chunk_matches_next_access(
        cap in 1usize..701,
        quantum in 1u32..98,
    ) {
        let picks = [Benchmark::Mcf, Benchmark::Redis, Benchmark::Pr];
        let streams = || -> Vec<ReplayWorkload> {
            traces()
                .iter()
                .filter(|(b, _)| picks.contains(b))
                .enumerate()
                // Disjoint bases per instance, like the Figure 11 co-run
                // setup; the traces already have unequal lengths, so some
                // streams drain mid-chunk.
                .map(|(i, (_, wl))| wl.rebased(VirtAddr(BASE.0 + ((i as u64) << 28))))
                .collect()
        };
        let reference = drain_next(&mut CoRunner::new(streams(), quantum));
        let batched = drain_chunks(&mut CoRunner::new(streams(), quantum), cap);
        prop_assert_eq!(batched, reference);
    }
}
