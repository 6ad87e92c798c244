//! Property tests for the LLC and TLB replacement logic — these filters
//! shape everything the profilers and trackers observe, so their
//! invariants get dedicated coverage.

use cxl_sim::addr::{CacheLineAddr, Vpn};
use cxl_sim::cache::{Llc, LlcConfig};
use cxl_sim::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Occupancy never exceeds capacity; a line reported as a hit was
    /// inserted earlier and not evicted/invalidated since (tracked by a
    /// reference model per set).
    #[test]
    fn llc_matches_a_reference_lru(ops in prop::collection::vec((0u64..256, any::<bool>(), prop::bool::weighted(0.1)), 1..400)) {
        let config = LlcConfig { size_bytes: 4096, ways: 2 };
        let mut llc = Llc::new(config);
        let sets = config.sets();
        // Reference model: per-set MRU-ordered vec of (addr, dirty).
        let mut model: Vec<Vec<(u64, bool)>> = vec![Vec::new(); sets];
        for (line, write, invalidate) in ops {
            let set = line as usize % sets;
            if invalidate {
                let out = llc.invalidate(CacheLineAddr(line));
                let pos = model[set].iter().position(|&(a, _)| a == line);
                let expect = pos.and_then(|p| {
                    let (a, d) = model[set].remove(p);
                    d.then_some(CacheLineAddr(a))
                });
                prop_assert_eq!(out, expect);
                continue;
            }
            let res = llc.access(CacheLineAddr(line), write);
            let pos = model[set].iter().position(|&(a, _)| a == line);
            match pos {
                Some(p) => {
                    prop_assert!(res.hit, "model says hit for {line}");
                    let (a, d) = model[set].remove(p);
                    model[set].insert(0, (a, d || write));
                }
                None => {
                    prop_assert!(!res.hit, "model says miss for {line}");
                    let wb = if model[set].len() == 2 {
                        let (a, d) = model[set].pop().expect("full set");
                        d.then_some(CacheLineAddr(a))
                    } else {
                        None
                    };
                    prop_assert_eq!(res.writeback, wb);
                    model[set].insert(0, (line, write));
                }
            }
            let expected_occupancy: usize = model.iter().map(Vec::len).sum();
            prop_assert_eq!(llc.occupancy(), expected_occupancy);
        }
    }

    /// TLB: after any sequence of lookups/inserts/invalidations, a second
    /// lookup of a just-inserted VPN hits unless enough conflicting
    /// insertions displaced it; occupancy is bounded; hits+misses equals
    /// lookups.
    #[test]
    fn tlb_accounting_is_consistent(ops in prop::collection::vec((0u64..64, 0u8..3), 1..300)) {
        let mut tlb = Tlb::new(TlbConfig { entries: 16, ways: 2 });
        let mut lookups = 0;
        let mut live: HashSet<u64> = HashSet::new();
        for (vpn, op) in ops {
            match op {
                0 => {
                    lookups += 1;
                    let hit = tlb.lookup(Vpn(vpn));
                    if !hit {
                        tlb.insert(Vpn(vpn));
                        live.insert(vpn);
                    }
                }
                1 => {
                    tlb.insert(Vpn(vpn));
                    live.insert(vpn);
                }
                _ => {
                    tlb.invalidate(Vpn(vpn));
                    live.remove(&vpn);
                }
            }
            prop_assert!(tlb.occupancy() <= 16);
            // The TLB never caches something that was invalidated and not
            // re-inserted (subset check: occupancy can be smaller because
            // of evictions, never larger than the live set).
            prop_assert!(tlb.occupancy() <= live.len().max(16));
        }
        prop_assert_eq!(tlb.hits() + tlb.misses(), lookups);
    }

    /// Latency histogram quantiles are monotone in q and bounded by the
    /// recorded extremes.
    #[test]
    fn histogram_quantiles_are_monotone(samples in prop::collection::vec(1u64..1_000_000, 1..200)) {
        use cxl_sim::report::LatencyHistogram;
        use cxl_sim::time::Nanos;
        let mut h = LatencyHistogram::new();
        let max = *samples.iter().max().expect("non-empty");
        for &s in &samples {
            h.record(Nanos(s));
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).expect("non-empty").0;
            prop_assert!(v >= prev, "quantile not monotone at {q}");
            prop_assert!(v <= max, "quantile above max at {q}");
            prev = v;
        }
    }

    /// Folding the op-latency histogram into power-of-two buckets equals
    /// recording the same samples into a `Log2Histogram` directly, from 0
    /// up through the top power of two.
    #[test]
    fn latency_histogram_folds_exactly_to_log2(samples in prop::collection::vec(prop_oneof![Just(0u64), 1u64..4096, any::<u64>(), (1u64 << 63)..u64::MAX, Just(u64::MAX)], 0..200)) {
        use cxl_sim::report::LatencyHistogram;
        use cxl_sim::telemetry::Log2Histogram;
        use cxl_sim::time::Nanos;
        let mut h = LatencyHistogram::new();
        let mut direct = Log2Histogram::new();
        for &s in &samples {
            h.record(Nanos(s));
            direct.record(s);
        }
        prop_assert_eq!(h.to_log2(), direct);
    }
}
