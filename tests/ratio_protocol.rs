//! Integration test of the §4.1 access-count-ratio protocol: on a skewed
//! workload, M5's CXL-driven tracker identifies hotter pages than the
//! CPU-driven baselines — the paper's headline qualitative claim
//! (Figures 3 and 8) at test scale.

use m5::baselines::anb::{Anb, AnbConfig};
use m5::baselines::damon::{Damon, DamonConfig};
use m5::core::manager::{M5Config, M5Manager};
use m5::core::policy;
use m5::profilers::counter::{AccessCounter, CounterConfig};
use m5::sim::addr::Pfn;
use m5::sim::prelude::*;
use m5::sim::system::{run, MigrationDaemon};
use m5::workloads::registry::Benchmark;

const ACCESSES: u64 = 800_000;
const K: usize = 256;

/// Runs `daemon` in record-only fashion under PAC and scores its
/// identified pages against PAC's top-K (§4.1 S1–S5).
fn ratio_under<D: MigrationDaemon>(
    bench: Benchmark,
    daemon: &mut D,
    log_pfns: impl Fn(&D) -> Vec<Pfn>,
) -> f64 {
    let spec = bench.spec();
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(spec.footprint_pages / 2);
    let mut sys = System::new(config);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .unwrap();
    let pac_handle = sys.attach_device(AccessCounter::new(CounterConfig::pac(&sys)));
    let mut wl = spec.build(region.base, ACCESSES + 64, 12);
    let _ = run(&mut sys, &mut wl, daemon, ACCESSES);
    let pac: &AccessCounter = sys.device(pac_handle).unwrap();
    let identified: Vec<_> = log_pfns(daemon).into_iter().take(K).collect();
    let k_eff = identified.len().max(1);
    pac.sum_counts_of(identified.into_iter().map(|p| p.0)) as f64
        / pac.top_k_sum(k_eff).max(1) as f64
}

#[test]
fn m5_identifies_hotter_pages_than_cpu_driven_solutions() {
    let bench = Benchmark::Roms;

    let mut anb = Anb::new(AnbConfig::record_only());
    let anb_ratio = ratio_under(bench, &mut anb, |d| d.hot_log().pfns().collect());

    let mut damon = Damon::new(DamonConfig::record_only());
    let damon_ratio = ratio_under(bench, &mut damon, |d| d.hot_log().pfns().collect());

    let mut m5 = M5Manager::new(M5Config {
        record_only: true,
        ..policy::simple_hpt_policy()
    });
    let m5_ratio = ratio_under(bench, &mut m5, |d| d.hot_log().pfns().collect());

    assert!(
        m5_ratio > anb_ratio,
        "M5 ratio {m5_ratio:.3} should beat ANB {anb_ratio:.3}"
    );
    assert!(
        m5_ratio > damon_ratio * 0.95,
        "M5 ratio {m5_ratio:.3} should be at least DAMON-class {damon_ratio:.3}"
    );
    assert!(m5_ratio > 0.3, "M5 ratio {m5_ratio:.3} unexpectedly low");
}

#[test]
fn space_saving_50_trails_cm_sketch_32k() {
    let bench = Benchmark::Roms;
    let mut cm = M5Manager::new(M5Config {
        record_only: true,
        ..policy::simple_hpt_policy()
    });
    let cm_ratio = ratio_under(bench, &mut cm, |d| d.hot_log().pfns().collect());

    let mut ss = M5Manager::new(M5Config {
        record_only: true,
        ..policy::space_saving_50_policy()
    });
    let ss_ratio = ratio_under(bench, &mut ss, |d| d.hot_log().pfns().collect());

    // The paper's Figure 8: CM-Sketch(32K) ≥ Space-Saving(50), modestly.
    assert!(
        cm_ratio >= ss_ratio * 0.9,
        "CM(32K) {cm_ratio:.3} vs SS(50) {ss_ratio:.3}"
    );
}
