//! Cross-crate integration tests: the whole stack (workload → simulator →
//! daemon → migration) exercised end-to-end at reduced scale.

use m5::baselines::anb::{Anb, AnbConfig};
use m5::baselines::damon::{Damon, DamonConfig};
use m5::core::manager::M5Manager;
use m5::core::policy;
use m5::profilers::counter::{AccessCounter, CounterConfig};
use m5::sim::memory::NodeId;
use m5::sim::prelude::*;
use m5::sim::system::{run, MigrationDaemon, NoMigration};
use m5::workloads::registry::Benchmark;

const ACCESSES: u64 = 600_000;

fn system_for(bench: Benchmark) -> (System, cxl_sim::system::Region) {
    let spec = bench.spec();
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(spec.footprint_pages / 2);
    let mut sys = System::new(config);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .expect("CXL sized to fit");
    (sys, region)
}

fn run_daemon(bench: Benchmark, daemon: &mut dyn MigrationDaemon, seed: u64) -> RunReport {
    let (mut sys, region) = system_for(bench);
    let mut wl = bench.spec().build(region.base, ACCESSES + 64, seed);
    run(&mut sys, &mut wl, daemon, ACCESSES)
}

#[test]
fn migration_beats_no_migration_on_skewed_workloads() {
    // roms is the most skew-rewarding benchmark in the paper (Figure 10).
    // Long enough that migration costs amortize (§7.2: one page move pays
    // off after ~318 saved CXL accesses).
    const LONG: u64 = 2_500_000;
    let spec = Benchmark::Roms.spec();
    let (mut sys_a, region) = system_for(Benchmark::Roms);
    let trace = spec.build(region.base, LONG + 64, 1);
    let base = run(&mut sys_a, &mut trace.fresh(), &mut NoMigration, LONG);
    let (mut sys_b, _) = system_for(Benchmark::Roms);
    let m5 = run(
        &mut sys_b,
        &mut trace.fresh(),
        &mut M5Manager::new(policy::simple_hpt_policy()),
        LONG,
    );
    assert!(
        m5.total_time < base.total_time,
        "M5 {} should beat no-migration {}",
        m5.total_time,
        base.total_time
    );
    assert!(m5.migrations.promotions > 0);
    // Hot traffic moved to the fast tier.
    assert!(m5.reads_on(NodeId::Ddr) > 0);
}

#[test]
fn every_daemon_completes_on_every_benchmark_class() {
    // One representative per workload family to keep CI quick.
    for bench in [
        Benchmark::Redis,
        Benchmark::Pr,
        Benchmark::Mcf,
        Benchmark::Liblinear,
    ] {
        for which in 0..3 {
            let report = match which {
                0 => run_daemon(bench, &mut Anb::new(AnbConfig::default()), 2),
                1 => run_daemon(bench, &mut Damon::new(DamonConfig::default()), 2),
                _ => run_daemon(bench, &mut M5Manager::new(policy::simple_hpt_policy()), 2),
            };
            assert_eq!(report.accesses, ACCESSES, "{bench}: short run");
            assert!(report.total_time > Nanos::ZERO);
        }
    }
}

#[test]
fn pac_counts_exactly_the_cxl_reads() {
    let (mut sys, region) = system_for(Benchmark::Mcf);
    let pac_handle = sys.attach_device(AccessCounter::new(CounterConfig::pac(&sys)));
    let mut wl = Benchmark::Mcf.spec().build(region.base, ACCESSES + 64, 3);
    let report = run(&mut sys, &mut wl, &mut NoMigration, ACCESSES);
    let pac: &AccessCounter = sys.device(pac_handle).unwrap();
    // Without migration every LLC miss fill goes to CXL; PAC snoops both
    // the fills (reads) and the dirty writebacks, like the real hardware
    // counting every access between the CXL IP and the MCs.
    assert_eq!(
        pac.total_counted(),
        report.reads_on(NodeId::Cxl) + sys.perfmon().total_writebacks(NodeId::Cxl)
    );
    assert_eq!(report.reads_on(NodeId::Ddr), 0);
}

#[test]
fn m5_identification_is_cheaper_than_cpu_driven() {
    let anb = run_daemon(Benchmark::Mcf, &mut Anb::new(AnbConfig::record_only()), 4);
    let damon = run_daemon(
        Benchmark::Mcf,
        &mut Damon::new(DamonConfig::record_only()),
        4,
    );
    let mut m5_daemon = M5Manager::new(m5::core::manager::M5Config {
        record_only: true,
        ..policy::simple_hpt_policy()
    });
    let m5 = run_daemon(Benchmark::Mcf, &mut m5_daemon, 4);
    let m5_cost = m5.kernel.identification_total();
    assert!(
        m5_cost < anb.kernel.identification_total(),
        "M5 {} vs ANB {}",
        m5_cost,
        anb.kernel.identification_total()
    );
    assert!(
        m5_cost < damon.kernel.identification_total(),
        "M5 {} vs DAMON {}",
        m5_cost,
        damon.kernel.identification_total()
    );
}

#[test]
fn demotion_keeps_ddr_within_capacity() {
    let (mut sys, region) = system_for(Benchmark::Roms);
    let cap = sys.config().ddr.capacity_frames;
    let mut wl = Benchmark::Roms.spec().build(region.base, ACCESSES + 64, 5);
    let mut m5 = M5Manager::new(policy::simple_hpt_policy());
    let report = run(&mut sys, &mut wl, &mut m5, ACCESSES);
    assert!(sys.nr_pages(NodeId::Ddr) <= cap);
    // Once DDR filled, promotions must be matched by demotions.
    if report.migrations.promotions > cap {
        assert!(report.migrations.demotions > 0);
    }
}

#[test]
fn identical_traces_replay_identically_across_daemons() {
    let spec = Benchmark::Redis.spec();
    let (mut sys_a, region_a) = system_for(Benchmark::Redis);
    let (mut sys_b, region_b) = system_for(Benchmark::Redis);
    assert_eq!(region_a.base, region_b.base);
    let wl = spec.build(region_a.base, 50_000, 6);
    let a = run(&mut sys_a, &mut wl.fresh(), &mut NoMigration, u64::MAX);
    let b = run(&mut sys_b, &mut wl.fresh(), &mut NoMigration, u64::MAX);
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.llc_misses, b.llc_misses);
}
