//! Graceful-degradation harness: killing the near-memory trackers mid-run
//! must push the M5-manager into software-only identification — the run
//! completes, the mode switch shows up in the report, and nothing panics.

use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan};
use cxl_sim::memory::NodeId;
use cxl_sim::prelude::*;
use cxl_sim::system::{run, AccessStream};
use cxl_sim::time::Nanos;
use m5_core::manager::{M5Config, M5Manager};
use m5_core::policy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct SkewedStream {
    base: VirtAddr,
    pages: u64,
    hot: u64,
    rng: SmallRng,
    remaining: u64,
}

impl AccessStream for SkewedStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let page = if self.rng.gen::<f64>() < 0.9 {
            self.rng.gen_range(0..self.hot)
        } else {
            self.rng.gen_range(self.hot..self.pages)
        };
        let off = self.rng.gen_range(0u64..64) * 64;
        Some(Access::read(self.base.offset(page * 4096 + off)))
    }
}

fn setup(plan: &FaultPlan) -> (System, SkewedStream, M5Manager) {
    setup_with(plan, M5Config::default())
}

fn setup_with(plan: &FaultPlan, config: M5Config) -> (System, SkewedStream, M5Manager) {
    let mut sys = System::with_fault_plan(
        SystemConfig::small()
            .with_cxl_frames(1024)
            .with_ddr_frames(256),
        plan,
    );
    let region = sys.alloc_region(512, Placement::AllOnCxl).unwrap();
    let wl = SkewedStream {
        base: region.base,
        pages: 512,
        hot: 16,
        rng: SmallRng::seed_from_u64(3),
        remaining: 300_000,
    };
    (sys, wl, M5Manager::new(config))
}

#[test]
fn tracker_failure_falls_back_to_software_identification() {
    // Kill every attached device early in the run: the tracker starts
    // returning garbage, the manager strikes it out and switches to PTE
    // accessed-bit scanning. The HPT-only and the HWT-driven manager each
    // depend on one tracker.
    let plan = FaultPlan::none().with(Nanos(1_000), FaultKind::Device(DeviceFault::Fail));
    for (config, tracker) in [
        (M5Config::default(), "hpt"),
        (policy::simple_hwt_policy(), "hwt"),
    ] {
        let (mut sys, mut wl, mut m5) = setup_with(&plan, config);
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);

        assert_eq!(
            report.accesses, 300_000,
            "run completed despite {tracker} loss"
        );
        assert!(m5.in_software_fallback());
        assert_eq!(report.daemon, format!("m5-{tracker}+sw-fallback"));
        assert_eq!(report.health.degraded.len(), 1);
        let degraded = &report.health.degraded[0];
        assert!(degraded.contains("software-only"), "{degraded}");
        assert!(
            degraded.contains(&format!(": {tracker} returned garbage")),
            "{degraded}"
        );
        // Software identification still finds and promotes hot pages —
        // worse, but working (it bills real PTE-scan time, unlike the
        // trackers).
        assert!(report.migrations.promotions > 0);
        assert!(report.kernel.of(cxl_sim::kernel::CostKind::PteScan) > Nanos::ZERO);
        let hot_on_ddr = (0..16)
            .filter(|&p| sys.page_table().get(Vpn(p)).unwrap().node() == NodeId::Ddr)
            .count();
        assert!(
            hot_on_ddr > 0,
            "fallback still promotes some of the hot set"
        );
    }
}

#[test]
fn healthy_run_records_clean_health() {
    let (mut sys, mut wl, mut m5) = setup(&FaultPlan::none());
    let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
    assert!(!m5.in_software_fallback());
    assert_eq!(report.daemon, "m5-hpt");
    assert!(report.health.degraded.is_empty());
    assert_eq!(report.health.faults_injected, 0);
}

#[test]
fn chaos_plans_never_crash_the_manager() {
    for seed in 0..4 {
        let plan = FaultPlan::chaos(seed, Nanos(5_000_000));
        let (mut sys, mut wl, mut m5) = setup(&plan);
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        assert_eq!(report.accesses, 300_000, "seed {seed} completed");
    }
}

#[test]
fn chaos_manager_runs_are_deterministic() {
    let plan = FaultPlan::chaos(9, Nanos(5_000_000));
    let once = || {
        let (mut sys, mut wl, mut m5) = setup(&plan);
        run(&mut sys, &mut wl, &mut m5, u64::MAX)
    };
    assert_eq!(once(), once());
}

#[test]
fn isolated_tracker_faults_never_strike_out_a_healthy_tracker() {
    // Each SRAM saturation garbles the one query after it: the first
    // (2 ms) and the third (6.5 ms) of four. The healthy query between
    // them clears the first strike, so the tracker never collects the
    // consecutive strikes that engage the fallback.
    let saturate = FaultKind::Device(DeviceFault::SramSaturate);
    let plan = FaultPlan::none()
        .with(Nanos(10_000), saturate)
        .with(Nanos::from_millis(5), saturate);
    let (mut sys, mut wl, mut m5) = setup(&plan);
    sys.install_telemetry(Telemetry::enabled());
    let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);

    assert_eq!(report.health.faults_injected, 2);
    let snap = sys.telemetry().snapshot();
    assert_eq!(snap.counter("m5.tracker.queries", "hpt"), Some(4));
    assert_eq!(snap.counter("m5.tracker.strikes", "hpt"), Some(2));
    assert!(!m5.in_software_fallback());
    assert_eq!(report.daemon, "m5-hpt");
    assert!(report.health.degraded.is_empty());
}
