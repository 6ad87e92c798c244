//! Cross-crate property tests: invariants that must hold under arbitrary
//! interleavings of accesses, migrations, and daemon actions.

use m5::profilers::counter::{AccessCounter, CounterConfig};
use m5::sim::addr::{Granularity, Pfn, VirtAddr, Vpn, PAGE_SIZE};
use m5::sim::controller::CxlDevice;
use m5::sim::faults::{DeviceFault, FaultPlan};
use m5::sim::memory::{NodeId, CXL_BASE_PFN};
use m5::sim::prelude::*;
use m5::trackers::sketch::CmSketch;
use m5::trackers::spacesaving::SpaceSaving;
use m5::trackers::topk::{CmSketchTopK, TopKAlgorithm};
use proptest::prelude::*;
use std::collections::HashMap;

const PAGES: u64 = 32;

/// An arbitrary step in a system torture run.
#[derive(Clone, Debug)]
enum Step {
    Access { page: u64, word: u8, write: bool },
    Promote { page: u64 },
    Demote { page: u64 },
    Age,
    ClearPresent { page: u64 },
    Pin { page: u64, on: bool },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0..PAGES, 0u8..64, any::<bool>())
            .prop_map(|(page, word, write)| Step::Access { page, word, write }),
        2 => (0..PAGES).prop_map(|page| Step::Promote { page }),
        1 => (0..PAGES).prop_map(|page| Step::Demote { page }),
        1 => Just(Step::Age),
        1 => (0..PAGES).prop_map(|page| Step::ClearPresent { page }),
        1 => (0..PAGES, any::<bool>()).prop_map(|(page, on)| Step::Pin { page, on }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No frames are ever lost or duplicated, every mapped page stays
    /// mapped, and allocation counters agree with the page table, no
    /// matter what sequence of operations runs.
    #[test]
    fn system_conserves_frames_under_torture(steps in prop::collection::vec(step_strategy(), 1..200)) {
        let mut sys = System::new(SystemConfig::small());
        let region = sys.alloc_region(PAGES, Placement::AllOnCxl).unwrap();
        for step in steps {
            match step {
                Step::Access { page, word, write } => {
                    let addr = region.base.offset(page * PAGE_SIZE as u64 + word as u64 * 64);
                    sys.access(addr, write);
                }
                Step::Promote { page } => {
                    let _ = sys.migrate_page(Vpn(page), NodeId::Ddr);
                }
                Step::Demote { page } => {
                    let _ = sys.migrate_page(Vpn(page), NodeId::Cxl);
                }
                Step::Age => {
                    sys.mglru_age();
                }
                Step::ClearPresent { page } => {
                    sys.page_table_mut().clear_present(Vpn(page));
                    sys.tlb_mut().invalidate(Vpn(page));
                }
                Step::Pin { page, on } => {
                    sys.page_table_mut().set_pinned(Vpn(page), on);
                }
            }
            // Invariants after every step:
            prop_assert_eq!(sys.page_table().mapped_pages(), PAGES);
            prop_assert_eq!(
                sys.nr_pages(NodeId::Ddr) + sys.nr_pages(NodeId::Cxl),
                PAGES
            );
            // Every PTE's frame resolves back through the reverse map.
            let mut seen_pfns = std::collections::HashSet::new();
            for (vpn, pte) in sys.page_table().iter_mapped() {
                prop_assert!(seen_pfns.insert(pte.pfn), "duplicate frame {:?}", pte.pfn);
                prop_assert_eq!(sys.page_table().vpn_of(pte.pfn), Some(vpn));
            }
        }
    }

    /// PAC's total equals the number of CXL DRAM reads, and per-page
    /// counts are exact, under random access patterns and counter widths.
    #[test]
    fn pac_is_exact_for_any_counter_width(
        accesses in prop::collection::vec((0..8u64, 0u8..64), 1..500),
        bits in 2u32..17,
    ) {
        let mut pac = AccessCounter::new(CounterConfig {
            granularity: Granularity::Page,
            counter_bits: bits,
            base: CXL_BASE_PFN,
            len: 8,
        });
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(page, word) in &accesses {
            let line = Pfn(CXL_BASE_PFN + page)
                .word(m5::sim::addr::WordIndex(word))
                .cache_line();
            use m5::sim::controller::CxlDevice;
            pac.on_access(line, false, Nanos::ZERO);
            *truth.entry(page).or_default() += 1;
        }
        prop_assert_eq!(pac.total_counted(), accesses.len() as u64);
        for (&page, &count) in &truth {
            prop_assert_eq!(pac.count(CXL_BASE_PFN + page), count);
        }
    }

    /// CM-Sketch estimates never fall below true counts (the hardware's
    /// comparator-tree minimum can only overestimate).
    #[test]
    fn cm_sketch_never_underestimates(keys in prop::collection::vec(0..64u64, 1..2000)) {
        let mut sketch = CmSketch::new(4, 16, 7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &keys {
            sketch.update(k);
            *truth.entry(k).or_default() += 1;
        }
        for (&k, &c) in &truth {
            prop_assert!(sketch.estimate(k) >= c);
        }
    }

    /// Space-Saving's classic error bound: every monitored count
    /// overestimates by at most total/N, and the recorded error bounds the
    /// actual overestimate.
    #[test]
    fn space_saving_error_bound(keys in prop::collection::vec(0..100u64, 1..2000)) {
        let n = 8;
        let mut ss = SpaceSaving::new(n);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &keys {
            ss.update(k);
            *truth.entry(k).or_default() += 1;
        }
        for e in ss.entries() {
            let t = truth.get(&e.addr).copied().unwrap_or(0);
            prop_assert!(e.count >= t);
            prop_assert!(e.count - t <= e.error);
            prop_assert!(e.error <= ss.total() / n as u64);
        }
    }

    /// The CM-Sketch top-K CAM reports a subset of tracked addresses in
    /// non-increasing order, and never more than K of them.
    #[test]
    fn topk_output_is_sorted_and_bounded(keys in prop::collection::vec(0..32u64, 1..1000), k in 1usize..8) {
        let mut t = CmSketchTopK::with_total_entries(4, 256, k, 3);
        for &key in &keys {
            t.record(key);
        }
        let top = t.top_k();
        prop_assert!(top.len() <= k);
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "CAM out of order: {:?}", top);
        }
        for (addr, _) in &top {
            prop_assert!(keys.contains(addr), "CAM invented address {addr}");
        }
    }

    /// Replay determinism: a recorded workload trace replays to identical
    /// simulator state (time, misses, reads) on identical machines.
    #[test]
    fn replay_is_deterministic(seed in any::<u64>()) {
        use m5::workloads::kv::{generate, KvConfig};
        let mut c = KvConfig::redis(600);
        c.seed = seed;
        let wl = generate(&c, VirtAddr(0), 5_000);
        let run_once = || {
            let mut sys = System::new(SystemConfig::small().with_cxl_frames(2048));
            let _ = sys.alloc_region(c.footprint_pages(), Placement::AllOnCxl).unwrap();
            let report = m5::sim::system::run(
                &mut sys,
                &mut wl.fresh(),
                &mut m5::sim::system::NoMigration,
                u64::MAX,
            );
            (report.total_time, report.llc_misses, report.reads_on(NodeId::Cxl))
        };
        prop_assert_eq!(run_once(), run_once());
    }

    /// Retrying a promotion batch — as the Promoter does after transient
    /// failures — is idempotent: pages promoted once are rejected as
    /// already-resident on re-submission, never promoted twice.
    #[test]
    fn batch_retry_is_idempotent(pages in prop::collection::vec(0..PAGES, 1..40)) {
        // DDR is large enough that no demotion churn can move pages back.
        let mut sys = System::new(SystemConfig::small().with_ddr_frames(64));
        let _ = sys.alloc_region(PAGES, Placement::AllOnCxl).unwrap();
        let vpns: Vec<Vpn> = pages.iter().map(|&p| Vpn(p)).collect();
        let distinct: std::collections::HashSet<Vpn> = vpns.iter().copied().collect();

        let first = sys.promote_with_demotion(&vpns, 8);
        prop_assert_eq!(first.migrated.len(), distinct.len());
        let promotions_after_first = sys.migration_stats().promotions;

        // Re-submit the identical batch (the degenerate retry).
        let second = sys.promote_with_demotion(&vpns, 8);
        prop_assert!(second.migrated.is_empty(), "retry double-promoted");
        prop_assert_eq!(sys.migration_stats().promotions, promotions_after_first);
        prop_assert_eq!(sys.nr_pages(NodeId::Ddr), distinct.len() as u64);
    }

    /// Injected SRAM corruption (saturation, bit flips) may garble counts,
    /// but PAC and WAC hot-set candidates always stay inside the monitored
    /// address range — corruption never invents addresses.
    #[test]
    fn saturated_profilers_never_invent_candidates(
        accesses in prop::collection::vec((0..8u64, 0u8..64), 1..300),
        slot in any::<u64>(),
        bit in 0u32..16,
    ) {
        let mut pac = AccessCounter::new(CounterConfig {
            granularity: Granularity::Page,
            counter_bits: 4,
            base: CXL_BASE_PFN,
            len: 8,
        });
        let mut wac = AccessCounter::new(CounterConfig {
            granularity: Granularity::Word,
            counter_bits: 4,
            base: Pfn(CXL_BASE_PFN).base().cache_line().0,
            len: 8 * 64,
        });
        let half = accesses.len() / 2;
        for (i, &(page, word)) in accesses.iter().enumerate() {
            if i == half {
                pac.on_fault(DeviceFault::SramSaturate);
                pac.on_fault(DeviceFault::SramBitFlip { slot, bit });
                wac.on_fault(DeviceFault::SramSaturate);
                wac.on_fault(DeviceFault::SramBitFlip { slot, bit });
            }
            let line = Pfn(CXL_BASE_PFN + page)
                .word(m5::sim::addr::WordIndex(word))
                .cache_line();
            pac.on_access(line, false, Nanos::ZERO);
            wac.on_access(line, false, Nanos::ZERO);
        }
        for (pfn, _) in pac.hottest(1000) {
            let rel = pfn.wrapping_sub(CXL_BASE_PFN);
            prop_assert!(rel < 8, "PAC invented {pfn:#x}");
        }
        let base = Pfn(CXL_BASE_PFN).base().cache_line().0;
        for (line, _) in wac.hottest(10_000) {
            let rel = line.wrapping_sub(base);
            prop_assert!(rel < 8 * 64, "WAC invented {line:#x}");
        }
    }
}

proptest! {
    // Whole-system chaos runs are heavier; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-injection determinism: identical workload and fault seeds
    /// reproduce the entire run report, byte for byte.
    #[test]
    fn fault_injection_is_deterministic(wseed in any::<u64>(), fseed in any::<u64>()) {
        use m5::workloads::kv::{generate, KvConfig};
        let mut c = KvConfig::redis(600);
        c.seed = wseed;
        let wl = generate(&c, VirtAddr(0), 5_000);
        let plan = FaultPlan::chaos(fseed, Nanos(1_000_000));
        let run_once = || {
            let mut sys =
                System::with_fault_plan(SystemConfig::small().with_cxl_frames(2048), &plan);
            let _ = sys.alloc_region(c.footprint_pages(), Placement::AllOnCxl).unwrap();
            m5::sim::system::run(
                &mut sys,
                &mut wl.fresh(),
                &mut m5::sim::system::NoMigration,
                u64::MAX,
            )
        };
        prop_assert_eq!(run_once(), run_once());
    }
}
