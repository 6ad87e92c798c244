//! Chaos harness for the fault injector: every injected fault class must
//! degrade the system observably but gracefully — never a panic — and runs
//! must stay deterministic per (workload seed, fault seed) pair.

use cxl_sim::addr::{CacheLineAddr, PAGE_SIZE};
use cxl_sim::controller::CxlDevice;
use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan};
use cxl_sim::kernel::CostKind;
use cxl_sim::memory::NodeId;
use cxl_sim::migration::MigrateError;
use cxl_sim::prelude::*;
use cxl_sim::report::RunReport;
use cxl_sim::system::{run, AccessStream, NoMigration};
use cxl_sim::time::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PAGES: u64 = 64;
const ACCESSES: u64 = 50_000;

struct UniformStream {
    base: VirtAddr,
    rng: SmallRng,
    remaining: u64,
}

impl AccessStream for UniformStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let page = self.rng.gen_range(0..PAGES);
        let word = self.rng.gen_range(0u64..64) * 64;
        Some(Access::read(
            self.base.offset(page * PAGE_SIZE as u64 + word),
        ))
    }
}

fn fresh_system(plan: &FaultPlan) -> (System, UniformStream) {
    let mut sys = System::with_fault_plan(
        SystemConfig::small()
            .with_cxl_frames(256)
            .with_ddr_frames(128),
        plan,
    );
    let region = sys.alloc_region(PAGES, Placement::AllOnCxl).unwrap();
    let wl = UniformStream {
        base: region.base,
        rng: SmallRng::seed_from_u64(7),
        remaining: ACCESSES,
    };
    (sys, wl)
}

fn run_with(plan: &FaultPlan) -> RunReport {
    let (mut sys, mut wl) = fresh_system(plan);
    run(&mut sys, &mut wl, &mut NoMigration, u64::MAX)
}

/// A probe device that just counts what the controller shows it.
#[derive(Default)]
struct Probe {
    seen: u64,
    failed: bool,
}

impl CxlDevice for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn on_access(&mut self, _line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        self.seen += 1;
    }

    fn on_fault(&mut self, fault: DeviceFault) {
        if matches!(fault, DeviceFault::Fail) {
            self.failed = true;
        }
    }
}

#[test]
fn empty_plan_matches_plain_construction() {
    let baseline = run_with(&FaultPlan::none());
    let (mut sys, mut wl) = {
        let mut sys = System::new(
            SystemConfig::small()
                .with_cxl_frames(256)
                .with_ddr_frames(128),
        );
        let region = sys.alloc_region(PAGES, Placement::AllOnCxl).unwrap();
        let wl = UniformStream {
            base: region.base,
            rng: SmallRng::seed_from_u64(7),
            remaining: ACCESSES,
        };
        (sys, wl)
    };
    let plain = run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    assert_eq!(baseline, plain, "FaultPlan::none() must be invisible");
    assert!(baseline.health.is_clean());
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let plan = FaultPlan::chaos(42, Nanos(2_000_000));
    let a = run_with(&plan);
    let b = run_with(&plan);
    assert_eq!(a, b, "same workload seed + same fault plan => same report");
    assert!(a.health.faults_injected > 0, "chaos plan actually fired");
}

#[test]
fn every_chaos_seed_survives_without_panicking() {
    for seed in 0..8 {
        let plan = FaultPlan::chaos(seed, Nanos(2_000_000));
        let report = run_with(&plan);
        assert_eq!(report.accesses, ACCESSES, "run completed under seed {seed}");
    }
}

#[test]
fn latency_spike_inflates_run_time() {
    let clean = run_with(&FaultPlan::none());
    let spiked = run_with(&FaultPlan::none().with(
        Nanos::ZERO,
        FaultKind::LatencySpike {
            extra: Nanos(500),
            duration: Nanos(u64::MAX / 2),
        },
    ));
    assert!(
        spiked.total_time > clean.total_time,
        "spiked {} <= clean {}",
        spiked.total_time,
        clean.total_time
    );
    assert_eq!(spiked.health.faults_injected, 1);
}

#[test]
fn controller_stall_blinds_devices() {
    let stall_plan = FaultPlan::none().with(
        Nanos::ZERO,
        FaultKind::ControllerStall {
            duration: Nanos(u64::MAX / 2),
        },
    );
    let (mut sys, mut wl) = fresh_system(&stall_plan);
    let h = sys.attach_device(Probe::default());
    let _ = run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    let stalled_seen = sys.device::<Probe>(h).unwrap().seen;
    assert_eq!(stalled_seen, 0, "stalled controller must not snoop");

    let (mut sys, mut wl) = fresh_system(&FaultPlan::none());
    let h = sys.attach_device(Probe::default());
    let _ = run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    assert!(sys.device::<Probe>(h).unwrap().seen > 0);
}

#[test]
fn poisoned_reads_are_repaired_not_fatal() {
    let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::PoisonLine { reads: 3 });
    let report = run_with(&plan);
    assert_eq!(report.accesses, ACCESSES);
    assert_eq!(report.health.poison_repairs, 3);
    assert!(
        report.kernel.of(CostKind::DaemonOther) > Nanos::ZERO,
        "memory-failure handling billed"
    );
}

#[test]
fn device_failure_reaches_attached_devices() {
    let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::Device(DeviceFault::Fail));
    let (mut sys, mut wl) = fresh_system(&plan);
    let h = sys.attach_device(Probe::default());
    let _ = run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    assert!(sys.device::<Probe>(h).unwrap().failed);
}

#[test]
fn copy_failure_is_a_transient_rejection() {
    let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::MigrationCopyFail { attempts: 2 });
    let (mut sys, _) = fresh_system(&plan);
    let err = sys.migrate_page(Vpn(0), NodeId::Ddr).unwrap_err();
    assert!(matches!(err, MigrateError::Copy { .. }));
    assert!(err.is_transient());
    let err = sys.migrate_page(Vpn(0), NodeId::Ddr).unwrap_err();
    assert!(matches!(err, MigrateError::Copy { .. }));
    // Each failed copy quarantined its shadow frame on the destination.
    assert_eq!(sys.quarantined_frames(NodeId::Ddr), 2);
    // The budget of two failed attempts is spent; the third succeeds.
    sys.migrate_page(Vpn(0), NodeId::Ddr).unwrap();
    assert_eq!(sys.migration_stats().rejected, 2);
    assert_eq!(sys.migration_stats().promotions, 1);
    assert!(sys.check_invariants().is_empty());
    // Scrubbing returns both poisoned frames to the allocator.
    assert_eq!(sys.scrub_quarantine(16), 2);
    assert_eq!(sys.quarantined_frames(NodeId::Ddr), 0);
}

#[test]
fn ddr_pressure_rejects_promotions_until_it_clears() {
    let plan = FaultPlan::none().with(
        Nanos::ZERO,
        FaultKind::DdrPressure {
            duration: Nanos(1_000),
        },
    );
    let (mut sys, _) = fresh_system(&plan);
    let err = sys.migrate_page(Vpn(0), NodeId::Ddr).unwrap_err();
    assert!(matches!(err, MigrateError::NoFreeFrame(_)));
    assert!(err.is_transient());
    // Demotions to CXL are unaffected by DDR pressure, and once simulated
    // time passes the window the promotion goes through.
    while sys.now() <= Nanos(1_000) {
        sys.access(VirtAddr(0), false);
    }
    sys.migrate_page(Vpn(0), NodeId::Ddr).unwrap();
}

#[test]
fn unmapped_access_is_a_typed_error_not_a_panic() {
    let (mut sys, _) = fresh_system(&FaultPlan::none());
    let far = VirtAddr(PAGES * PAGE_SIZE as u64 + 123);
    let err = sys.try_access(far, false).unwrap_err();
    assert!(err.to_string().contains("unmapped"));
}
