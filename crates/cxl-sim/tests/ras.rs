//! End-to-end tests of the memory RAS subsystem at the `System` level:
//! correctable-error trending into predictive page offlining, live node
//! evacuation with typed allocation/migration errors, graceful survivor
//! exhaustion, degraded-link latency, and — the golden-hygiene contract —
//! full quiescence on fault-free runs.

use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan, SimError};
use cxl_sim::kernel::CostKind;
use cxl_sim::memory::{NodeId, CXL_BASE_PFN};
use cxl_sim::migration::MigrateError;
use cxl_sim::prelude::*;
use cxl_sim::ras::NodeHealth;
use cxl_sim::system::Region;
use m5_telemetry::Telemetry;

const PAGES: u64 = 16;

fn device(at: u64, fault: DeviceFault) -> (Nanos, FaultKind) {
    (Nanos(at), FaultKind::Device(fault))
}

fn system_with(faults: &[(Nanos, FaultKind)], ddr_frames: u64) -> (System, Region) {
    let mut plan = FaultPlan::none();
    for (at, kind) in faults {
        plan = plan.with(*at, *kind);
    }
    let mut sys = System::with_fault_plan(
        SystemConfig::small()
            .with_cxl_frames(64)
            .with_ddr_frames(ddr_frames),
        &plan,
    );
    sys.install_telemetry(Telemetry::enabled());
    let region = sys.alloc_region(PAGES, Placement::AllOnCxl).unwrap();
    (sys, region)
}

/// Drives `ras_service` with a small drain budget until the CXL node goes
/// `Offline` (or the round bound trips), interleaving demand accesses so
/// simulated time advances.
fn drive_to_offline(sys: &mut System, region: &Region) {
    let mut rounds = 0;
    while sys.ras().health(NodeId::Cxl) != NodeHealth::Offline {
        for p in 0..PAGES {
            sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
        }
        sys.ras_service(4);
        rounds += 1;
        assert!(rounds < 1_000, "evacuation never concluded");
        assert!(
            sys.check_invariants().is_empty(),
            "round {rounds}: {:?}",
            sys.check_invariants()
        );
    }
}

#[test]
fn ce_trend_soft_offlines_the_frame_and_retires_it() {
    // Two correctable errors on frame 3 cross the default threshold.
    let (mut sys, region) = system_with(
        &[
            device(0, DeviceFault::CorrectableEcc { pfn: 3 }),
            device(0, DeviceFault::CorrectableEcc { pfn: 3 }),
        ],
        64,
    );
    let before = sys.kernel_costs().of(CostKind::RasScrub);
    let report = sys.ras_service(8);
    assert_eq!(report.frames_offlined, 1);
    assert_eq!(sys.offlined_frames(NodeId::Cxl), 1);
    assert_eq!(sys.ras().total_ce(NodeId::Cxl), 2);
    // The page that lived on the failing frame was migrated to the
    // survivor, not lost.
    let vpn = sys.page_table().vpn_of(Pfn(CXL_BASE_PFN + 3));
    assert_eq!(vpn, None, "retired frame no longer maps a page");
    assert_eq!(sys.nr_pages(NodeId::Ddr) + sys.nr_pages(NodeId::Cxl), PAGES);
    // The patrol walk billed scrub time to the RAS cost stream.
    assert!(sys.kernel_costs().of(CostKind::RasScrub) > before);
    // Health stays Healthy: two faults are below the degrade threshold.
    assert_eq!(sys.ras().health(NodeId::Cxl), NodeHealth::Healthy);
    assert!(sys.check_invariants().is_empty());

    sys.telemetry_mut().flush();
    let snap = sys.telemetry().snapshot();
    assert_eq!(snap.counter("sim.ras", "ce"), Some(2));
    assert_eq!(snap.counter("sim.ras", "offline-nominated"), Some(1));
    assert_eq!(snap.counter("sim.ras", "frame-offlined"), Some(1));
    // Every access still works after the offline.
    for p in 0..PAGES {
        sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
    }
}

#[test]
fn hot_remove_drains_the_node_live_and_reports() {
    let (mut sys, region) = system_with(&[device(0, DeviceFault::HotRemovePrepare)], 64);
    drive_to_offline(&mut sys, &region);

    let report = *sys.ras().evacuation_report(NodeId::Cxl).unwrap();
    assert_eq!(report.node, NodeId::Cxl);
    assert_eq!(report.pages_moved, PAGES);
    assert_eq!(report.residual, 0);
    assert!(report.deadline_met);
    assert_eq!(sys.nr_pages(NodeId::Ddr), PAGES);
    assert_eq!(sys.nr_pages(NodeId::Cxl), 0);

    // The offline node rejects new placements with typed errors...
    match sys.alloc_region(1, Placement::AllOnCxl) {
        Err(SimError::NodeOffline(NodeId::Cxl)) => {}
        other => panic!("expected NodeOffline, got {other:?}"),
    }
    let err = sys.migrate_page(Vpn(0), NodeId::Cxl).unwrap_err();
    assert!(matches!(
        err,
        MigrateError::NodeOffline { node: NodeId::Cxl }
    ));
    assert!(!err.is_transient(), "offline is permanent, not a retry");

    // ...while demand access to the drained pages keeps working.
    for p in 0..PAGES {
        sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
    }
    assert!(sys.check_invariants().is_empty());

    sys.telemetry_mut().flush();
    let snap = sys.telemetry().snapshot();
    assert_eq!(snap.counter("sim.ras", "hot-remove"), Some(1));
    assert_eq!(snap.counter("sim.ras", "pages-drained"), Some(PAGES));
    assert_eq!(snap.counter("sim.ras", "evacuations"), Some(1));
    assert_eq!(
        snap.gauge("sim.ras.health", NodeId::Cxl.label()),
        Some(NodeHealth::Offline.gauge())
    );
}

#[test]
fn drain_is_bounded_per_service_call() {
    let (mut sys, _region) = system_with(&[device(0, DeviceFault::HotRemovePrepare)], 64);
    let r = sys.ras_service(4);
    assert_eq!(r.pages_drained, 4, "one call drains at most the budget");
    assert_eq!(sys.nr_pages(NodeId::Cxl), PAGES - 4);
    assert_eq!(sys.ras().health(NodeId::Cxl), NodeHealth::Evacuating);
}

#[test]
fn exhausted_survivor_stalls_gracefully_then_concludes_at_deadline() {
    // DDR too small for the region: the drain stalls with a typed
    // capacity-exhaustion note, and deadline expiry forces the conclusion
    // with residual pages that stay accessible.
    let mut plan = FaultPlan::none();
    plan = plan.with(
        Nanos::ZERO,
        FaultKind::Device(DeviceFault::HotRemovePrepare),
    );
    let mut sys = System::with_fault_plan(
        SystemConfig::small()
            .with_cxl_frames(64)
            .with_ddr_frames(8)
            // Each drained page bills ~54 µs of migration time, so filling
            // the 8-frame survivor costs ~430 µs; 1 ms leaves room to stall
            // on the full survivor before expiring.
            .with_evac_deadline(Nanos::from_millis(1)),
        &plan,
    );
    let region = sys.alloc_region(PAGES, Placement::AllOnCxl).unwrap();
    let mut rounds = 0;
    while sys.ras().health(NodeId::Cxl) != NodeHealth::Offline {
        for p in 0..PAGES {
            sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
        }
        sys.ras_service(4);
        rounds += 1;
        assert!(rounds < 1_000, "deadline expiry never concluded");
    }
    let report = *sys.ras().evacuation_report(NodeId::Cxl).unwrap();
    assert!(report.residual > 0, "survivor too small to absorb the node");
    assert!(!report.deadline_met);
    assert_eq!(report.residual, sys.nr_pages(NodeId::Cxl));
    assert_eq!(sys.nr_pages(NodeId::Ddr) + sys.nr_pages(NodeId::Cxl), PAGES);
    let notes = sys.degradations().join("\n");
    assert!(
        notes.contains("capacity exhausted"),
        "missing exhaustion note in: {notes}"
    );
    // Residual pages on the offline node still serve demand accesses.
    for p in 0..PAGES {
        sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
    }
    assert!(sys.check_invariants().is_empty());
}

#[test]
fn degraded_link_inflates_cxl_access_latency() {
    let run = |faults: &[(Nanos, FaultKind)]| {
        let (mut sys, region) = system_with(faults, 64);
        for _ in 0..50 {
            for p in 0..PAGES {
                sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
            }
        }
        sys.now()
    };
    let clean = run(&[]);
    let degraded = run(&[device(0, DeviceFault::LinkDegrade { factor: 300 })]);
    assert!(
        degraded > clean,
        "3x link factor must cost time: {degraded:?} <= {clean:?}"
    );
}

/// Golden hygiene: on a fault-free run the RAS layer must be fully
/// quiescent — no counters, no gauge, no scrub billing, and a service call
/// is a no-op that changes nothing.
#[test]
fn fault_free_runs_leave_the_ras_layer_byte_quiescent() {
    let (mut sys, region) = system_with(&[], 64);
    for _ in 0..20 {
        for p in 0..PAGES {
            sys.access(region.base.offset(p * PAGE_SIZE as u64), false);
        }
        let r = sys.ras_service(8);
        assert_eq!(r, cxl_sim::system::RasServiceReport::default());
    }
    assert!(sys.ras().quiescent());
    assert_eq!(sys.ras().health(NodeId::Cxl), NodeHealth::Healthy);
    assert_eq!(sys.offlined_frames(NodeId::Cxl), 0);
    assert_eq!(sys.kernel_costs().of(CostKind::RasScrub), Nanos::ZERO);
    sys.telemetry_mut().flush();
    let snap = sys.telemetry().snapshot();
    assert_eq!(snap.counter_total("sim.ras"), 0);
    assert_eq!(snap.gauge("sim.ras.health", NodeId::Cxl.label()), None);
}
