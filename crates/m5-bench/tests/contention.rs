//! Contention-model differential and figure tests (ISSUE 7).
//!
//! The cornerstone: with `ContentionConfig::disabled()` (the default) the
//! timing path must be **byte-identical** to the fixed-cost path — on the
//! strongest evidence the system produces (rendered golden-format
//! telemetry snapshot + debug-formatted `RunReport`), across all three
//! golden workloads, even with deliberately absurd link parameters parked
//! behind the disabled switch. The checked-in goldens themselves are the
//! other half of this differential (`tests/golden.rs` runs them
//! unchanged).
//!
//! With contention *enabled*, the loaded-latency sweep must produce the
//! classic shape: throughput non-increasing in offered load with a
//! visible latency knee, and a migration storm must backpressure demand
//! latency — measurably when enabled, not at all when disabled.

use cxl_sim::prelude::*;
use cxl_sim::system::run;
use m5_bench::crash_sweep::{SweepSpec, SWEEPS};
use m5_bench::golden::{self, GOLDENS};
use m5_bench::loaded::{self, SWEEP_BACKGROUNDS};
use m5_bench::parallel::{crash_sweep_parallel, crash_sweep_sequential};
use m5_core::manager::{M5Config, M5Manager};

/// Reduced budget: several M5 epochs and migrations per golden workload.
const ACCESSES: u64 = 60_000;

/// Runs one golden workload on `config`, returning the full rendered
/// snapshot and report.
fn observe(g: &golden::GoldenSpec, config: SystemConfig) -> (String, String) {
    let spec = g.benchmark.spec();
    let mut sys = System::new(
        config
            .with_cxl_frames(spec.footprint_pages + 1024)
            .with_ddr_frames(spec.footprint_pages / 2),
    );
    sys.install_telemetry(Telemetry::enabled());
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .unwrap();
    let mut wl = spec.build(region.base, ACCESSES, g.seed);
    let mut m5 = M5Manager::new(M5Config::default());
    let report = run(&mut sys, &mut wl, &mut m5, ACCESSES);
    sys.telemetry_mut().flush();
    let snap = golden::render("contention-diff", &sys.telemetry().snapshot());
    (snap, format!("{report:?}"))
}

/// A disabled config whose parked parameters are absurd: if any code path
/// consults them while `enabled` is false, the differential explodes.
fn disabled_with_absurd_params() -> ContentionConfig {
    let mut cfg = ContentionConfig::disabled();
    cfg.cxl = LinkParams {
        peak_bytes_per_sec: 1,
        knee: 0.0,
        slope: 1000.0,
        max_load_factor: 1000.0,
        write_cost_permille: 100_000,
        background_load: 0.97,
        burst_capacity: Nanos::from_millis(10),
    };
    cfg.ddr = cfg.cxl;
    cfg
}

/// Contention disabled ⇒ byte-identical to the stock fixed-cost path, for
/// every golden workload, even with absurd parameters behind the switch.
#[test]
fn disabled_contention_is_byte_identical_to_fixed_costs() {
    for g in &GOLDENS {
        let stock = observe(g, SystemConfig::scaled_default());
        let explicit = observe(
            g,
            SystemConfig::scaled_default().with_contention(ContentionConfig::disabled()),
        );
        assert_eq!(
            stock, explicit,
            "golden '{}': explicit disabled() diverged from default",
            g.name
        );
        let absurd = observe(
            g,
            SystemConfig::scaled_default().with_contention(disabled_with_absurd_params()),
        );
        assert_eq!(
            stock, absurd,
            "golden '{}': disabled-but-absurd params leaked into the timing path",
            g.name
        );
    }
}

/// The loaded-latency sweep: latency monotone (within measurement-feedback
/// jitter) with a visible knee, throughput declining into saturation.
#[test]
fn loaded_latency_sweep_shows_knee_and_throughput_decline() {
    let points = loaded::sweep(
        GOLDENS[2].benchmark,
        GOLDENS[2].seed,
        40_000,
        &SWEEP_BACKGROUNDS,
        true,
    );
    assert_eq!(points.len(), SWEEP_BACKGROUNDS.len());
    for w in points.windows(2) {
        assert!(
            w[1].loaded_latency.0 >= w[0].loaded_latency.0,
            "loaded latency fell from {:?} (bg {}) to {:?} (bg {})",
            w[0].loaded_latency,
            w[0].background,
            w[1].loaded_latency,
            w[1].background
        );
        // Throughput must never *rise* with more offered load (2%
        // tolerance for window-measurement feedback).
        assert!(
            w[1].sim_accesses_per_sec() <= w[0].sim_accesses_per_sec() * 1.02,
            "throughput rose with offered load: {:.0} (bg {}) -> {:.0} (bg {})",
            w[0].sim_accesses_per_sec(),
            w[0].background,
            w[1].sim_accesses_per_sec(),
            w[1].background
        );
    }
    let first = points.first().unwrap();
    let last = points.last().unwrap();
    assert!(
        last.loaded_latency.0 as f64 >= first.loaded_latency.0 as f64 * 1.5,
        "no visible knee: {:?} at bg {} vs {:?} at bg {}",
        first.loaded_latency,
        first.background,
        last.loaded_latency,
        last.background
    );
    assert!(
        last.sim_accesses_per_sec() < first.sim_accesses_per_sec(),
        "saturation did not reduce throughput"
    );

    // Contention off: the identical sweep is flat — every point bit-equal.
    let off = loaded::sweep(
        GOLDENS[2].benchmark,
        GOLDENS[2].seed,
        40_000,
        &SWEEP_BACKGROUNDS,
        false,
    );
    for w in off.windows(2) {
        assert_eq!(
            w[0].total_time, w[1].total_time,
            "fixed-cost sweep not flat"
        );
        assert_eq!(w[0].loaded_latency, w[1].loaded_latency);
    }
    assert_eq!(
        off[0].loaded_latency.0, 400,
        "fixed CXL latency is the floor"
    );
}

/// Migration-storm backpressure: copy traffic on the shared link raises
/// demand latency when contention is on; the identical schedule with
/// contention off shows exactly zero delta.
#[test]
fn migration_storm_backpressures_demand_only_when_contended() {
    let on = loaded::migration_storm(true);
    assert!(on.migrated > 0);
    assert!(
        on.storm_avg_ns > on.calm_avg_ns,
        "no backpressure: calm {:.1} ns vs storm {:.1} ns",
        on.calm_avg_ns,
        on.storm_avg_ns
    );

    let off = loaded::migration_storm(false);
    assert_eq!(on.migrated, off.migrated, "schedules must be identical");
    assert_eq!(
        off.calm_avg_ns, off.storm_avg_ns,
        "fixed-cost path: storm must not move demand latency at all"
    );
    assert!(
        on.backpressure_ns() > 0.0 && off.backpressure_ns() == 0.0,
        "backpressure on={:.1} off={:.1}",
        on.backpressure_ns(),
        off.backpressure_ns()
    );
}

/// The crash-sweep's parallel and sequential drivers must stay
/// byte-identical with queueing enabled — contention state advances only
/// with the sim clock, so fan-out must not perturb it.
#[test]
fn contended_crash_sweep_parallel_matches_sequential() {
    let spec = SweepSpec {
        accesses: 8_000,
        contended: true,
        ..SWEEPS[0]
    };
    let par = crash_sweep_parallel(&spec);
    let seq = crash_sweep_sequential(&spec);
    assert!(
        par.baseline.violations.is_empty(),
        "contended baseline violates invariants: {:?}",
        par.baseline.violations
    );
    assert_eq!(par.baseline.steps, seq.baseline.steps);
    assert_eq!(
        par.artifact("contended-graph"),
        seq.artifact("contended-graph"),
        "contended parallel sweep artifact diverged from sequential"
    );
}
