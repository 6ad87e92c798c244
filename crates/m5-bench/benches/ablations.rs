//! Ablations — design choices the paper motivates but does not sweep,
//! isolated one at a time on the roms workload (the most
//! precision-rewarding benchmark) plus Redis for the sparse-page cases:
//!
//! 1. **Migration cache pollution** on/off (§4.1's argument for why
//!    migrating sparse pages hurts).
//! 2. **Daemon co-location** (paper methodology) vs an isolated core —
//!    how much of the CPU-driven overhead is interference.
//! 3. **Elector feedback** (Algorithm 1) vs blind fixed-period migration.
//! 4. **HPT query cadence** — the paper notes precision improves as the
//!    Elector queries more often.

use cxl_sim::prelude::*;
use cxl_sim::report::RunReport;
use cxl_sim::system::{run, MigrationDaemon, NoMigration};
use m5_baselines::damon::{Damon, DamonConfig};
use m5_bench::{access_budget_from_args, banner};
use m5_core::manager::elector::ElectorConfig;
use m5_core::manager::{M5Config, M5Manager};
use m5_core::policy;
use m5_workloads::registry::Benchmark;

fn run_custom(
    bench: Benchmark,
    accesses: u64,
    config: SystemConfig,
    daemon: &mut dyn MigrationDaemon,
) -> RunReport {
    let spec = bench.spec();
    let mut sys = System::new(
        config
            .with_cxl_frames(spec.footprint_pages + 1024)
            .with_ddr_frames(spec.footprint_pages / 2),
    );
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .expect("fits");
    let mut wl = spec.build(region.base, accesses + 1024, 17);
    run(&mut sys, &mut wl, daemon, accesses)
}

fn main() {
    banner(
        "Ablations",
        "isolating the design choices DESIGN.md calls out",
    );
    let accesses = access_budget_from_args();

    // 1. Migration cache pollution.
    println!("\n[1] migration cache pollution (redis, DAMON — the sparse-page victim)");
    for (label, pollute) in [("pollution on (default)", true), ("pollution off", false)] {
        let mut cfg = SystemConfig::scaled_default();
        cfg.migration_pollutes_cache = pollute;
        let r = run_custom(
            Benchmark::Redis,
            accesses,
            cfg,
            &mut Damon::new(DamonConfig::default()),
        );
        println!(
            "  {label:>24}: total {} | llc hit rate {:.1}%",
            r.total_time,
            100.0 * r.llc_hits as f64 / (r.llc_hits + r.llc_misses).max(1) as f64
        );
    }

    // 2. Daemon co-location.
    println!("\n[2] daemon placement (roms, DAMON)");
    for (label, isolated) in [("co-located (paper)", false), ("isolated core", true)] {
        let cfg = if isolated {
            SystemConfig::scaled_default().with_isolated_daemon()
        } else {
            SystemConfig::scaled_default()
        };
        let r = run_custom(
            Benchmark::Roms,
            accesses,
            cfg,
            &mut Damon::new(DamonConfig::default()),
        );
        println!(
            "  {label:>24}: total {} | kernel billed {}",
            r.total_time,
            r.kernel.total()
        );
    }

    // 3. Elector feedback vs blind periodic migration.
    println!("\n[3] Elector feedback (roms, M5-HPT)");
    {
        let r = run_custom(
            Benchmark::Roms,
            accesses,
            SystemConfig::scaled_default(),
            &mut M5Manager::new(policy::simple_hpt_policy()),
        );
        println!(
            "  {:>24}: total {} | promotions {}",
            "Algorithm 1 (default)", r.total_time, r.migrations.promotions
        );
        // Blind: a flat period, migrate every epoch (disable the feedback
        // by keeping the minimum == maximum period and a constant fscale).
        let mut blind = policy::simple_hpt_policy();
        blind.elector = ElectorConfig {
            f_default_hz: 500.0,
            fscale: m5_core::manager::elector::FScale::Power { n: 0.0 },
            min_period: Nanos::from_millis(2),
            max_period: Nanos::from_millis(2),
            cold_start_ratio: 1.1,
        };
        let r = run_custom(
            Benchmark::Roms,
            accesses,
            SystemConfig::scaled_default(),
            &mut M5Manager::new(blind),
        );
        println!(
            "  {:>24}: total {} | promotions {}",
            "blind 2ms period", r.total_time, r.migrations.promotions
        );
    }

    // 4. Query cadence.
    println!("\n[4] HPT query cadence (roms, M5-HPT; min period sweep)");
    for min_us in [200u64, 500, 2000, 8000] {
        let mut cfg: M5Config = policy::simple_hpt_policy();
        cfg.elector.min_period = Nanos::from_micros(min_us);
        cfg.elector.max_period = cfg.elector.max_period.max(cfg.elector.min_period);
        let r = run_custom(
            Benchmark::Roms,
            accesses,
            SystemConfig::scaled_default(),
            &mut M5Manager::new(cfg),
        );
        println!(
            "  {:>20}us: total {} | promotions {}",
            min_us, r.total_time, r.migrations.promotions
        );
    }

    // 5. §9 synergy analysis: IFMM word swapping vs page migration vs the
    //    hybrid, on a sparse-page (redis) and a dense-page (cactu) trace.
    println!("\n[5] IFMM (flat memory mode) vs page migration vs hybrid (fast-hit fraction)");
    for bench in [Benchmark::Redis, Benchmark::CactuBssn] {
        let spec = bench.spec();
        let trace = m5_bench::collect_trace(&spec, accesses.min(2_000_000), accesses as usize, 21);
        let cmp = m5_baselines::ifmm::compare(&trace, (spec.footprint_pages / 2) as usize);
        println!(
            "  {:>8}: ifmm {:.3} | oracle paging {:.3} | hybrid {:.3} | swaps {}",
            bench.label(),
            cmp.ifmm_fast_fraction,
            cmp.paging_fast_fraction,
            cmp.hybrid_fast_fraction,
            cmp.ifmm_swaps
        );
    }

    // 6. Tracker-family comparison at matched N: all three §5.1 streaming
    //    families plus the Mithril-style grouped variant, trace-level
    //    precision on mcf (the Figure 7 protocol).
    println!("\n[6] tracker families at N = 2048 (mcf trace, HPT epochs, K = 5)");
    {
        use m5_trackers::mithril::MithrilTopK;
        use m5_trackers::topk::{CmSketchTopK, SpaceSavingTopK, StickySamplingTopK, TopKAlgorithm};
        let trace = m5_bench::collect_trace(
            &Benchmark::Mcf.spec(),
            accesses.min(4_000_000),
            accesses as usize,
            23,
        );
        let period = Nanos::from_millis(50);
        let mut trackers: Vec<Box<dyn TopKAlgorithm>> = vec![
            Box::new(CmSketchTopK::with_total_entries(4, 2048, 5, 1)),
            Box::new(SpaceSavingTopK::new(2048, 5)),
            Box::new(MithrilTopK::new(2048, 16, 5, 1)),
            Box::new(StickySamplingTopK::new(2048, 5, 2048, 1)),
        ];
        for t in &mut trackers {
            let name = t.name();
            let r = m5_bench::epoch_ratio(&trace, |l| l.pfn().0, t.as_mut(), 5, period);
            println!("  {name:>16}: {r:.3}");
        }
    }

    // 7. PAC scalability mode 1 (§3): the SRAM as a counter cache — exact
    //    counting preserved, writeback traffic grows as capacity shrinks.
    println!("\n[7] PAC counter-cache: writeback traffic vs SRAM capacity (mcf)");
    {
        use cxl_sim::memory::CXL_BASE_PFN;
        use m5_profilers::counter_cache::CachedPac;
        let spec = Benchmark::Mcf.spec();
        let trace = m5_bench::collect_trace(&spec, accesses.min(2_000_000), accesses as usize, 29);
        for capacity in [8192usize, 2048, 512, 128] {
            let mut pac = CachedPac::new(cxl_sim::addr::Pfn(CXL_BASE_PFN), capacity);
            use cxl_sim::controller::CxlDevice;
            for r in &trace {
                pac.on_access(r.line, r.is_write, r.ts);
            }
            println!(
                "  capacity {capacity:>6}: hit rate {:>5.1}% | {:>8} D2H/D2D writebacks for {} accesses",
                100.0 * pac.cache().hits() as f64
                    / (pac.cache().hits() + pac.cache().misses()).max(1) as f64,
                pac.cache().writebacks(),
                pac.total_counted()
            );
        }
    }

    // Reference points.
    println!("\n[ref] no migration");
    for bench in [Benchmark::Roms, Benchmark::Redis] {
        let r = run_custom(
            bench,
            accesses,
            SystemConfig::scaled_default(),
            &mut NoMigration,
        );
        println!("  {:>8}: total {}", bench.label(), r.total_time);
    }
}
