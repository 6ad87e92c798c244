//! Smoke test of the access engine against its oracle, through the `m5`
//! facade only.
//!
//! The chunked driver runs its accesses in segments that check faults,
//! flushes and wakeups once each; the per-access driver
//! (`run_per_access`) is the semantic reference. A short M5 run with
//! telemetry on, live fault windows, and the contention model enabled
//! must produce the same `RunReport` and the same rendered telemetry
//! snapshot under both, at chunk capacities that cut segments
//! everywhere, and must end exactly the pinned number of segments at
//! their horizon. A run checkpointed
//! mid-chunk and restored into a fresh machine must finish byte-identical
//! to the run that never stopped.

use m5::core::manager::{M5Config, M5Manager};
use m5::sim::prelude::*;
use m5::sim::system::{run_chunked, run_per_access, DEFAULT_CHUNK_ACCESSES};
use m5::workloads::access::ReplayWorkload;
use m5::workloads::registry::Benchmark;

const ACCESSES: u64 = 200_000;
const SEED: u64 = 11;
const BENCH: Benchmark = Benchmark::Redis;

/// Spike, stall, poison, and DDR-pressure windows inside the run's first
/// few simulated milliseconds, so segments open and close on fault
/// edges throughout. A correctable error and a link degrade early on
/// leave every later segment adding the RAS penalty to its CXL fills; a
/// controller reset at an unreachable journal step and a copy failure
/// stay pending without cutting a segment; and a poisoned read after a
/// long fault-free stretch makes the scheduled-fault edge cut a
/// segment.
fn plan() -> FaultPlan {
    FaultPlan::none()
        .with(
            Nanos::from_micros(100),
            FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 5 }),
        )
        .with(
            Nanos::from_micros(200),
            FaultKind::Device(DeviceFault::LinkDegrade { factor: 150 }),
        )
        .with(
            Nanos::from_micros(250),
            FaultKind::ControllerReset { at_step: 1 << 40 },
        )
        .with(
            Nanos::from_micros(300),
            FaultKind::LatencySpike {
                extra: Nanos::from_micros(1),
                duration: Nanos::from_micros(200),
            },
        )
        .with(
            Nanos::from_micros(900),
            FaultKind::ControllerStall {
                duration: Nanos::from_micros(150),
            },
        )
        .with(
            Nanos::from_micros(1_300),
            FaultKind::PoisonLine { reads: 3 },
        )
        .with(
            Nanos::from_micros(1_800),
            FaultKind::DdrPressure {
                duration: Nanos::from_micros(400),
            },
        )
        .with(
            Nanos::from_micros(2_500),
            FaultKind::MigrationCopyFail { attempts: 2 },
        )
        .with(LATE_FAULT, FaultKind::PoisonLine { reads: 2 })
}

/// When [`plan`]'s last fault fires, long after the others.
const LATE_FAULT: Nanos = Nanos::from_millis(50);

/// The chunked run's exact horizon-break count. Every digest and oracle
/// would still pass if an engine change cut its segments short; this pin
/// would not. A change that moves the count on purpose updates it, as it
/// would a golden line.
const PINNED_BREAKS: u64 = 133;

fn config() -> SystemConfig {
    let pages = BENCH.spec().footprint_pages;
    SystemConfig::scaled_default()
        .with_cxl_frames(pages + 1024)
        .with_ddr_frames(pages / 2)
        .with_contention(ContentionConfig::enabled_default().with_cxl_background(0.6))
}

/// A fresh telemetry-enabled machine executing [`plan`], its workload,
/// and an M5 manager.
fn parts() -> (System, ReplayWorkload, M5Manager) {
    let spec = BENCH.spec();
    let mut sys = System::with_fault_plan(config(), &plan());
    sys.install_telemetry(Telemetry::enabled());
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .expect("CXL sized to fit");
    let wl = spec.build(region.base, ACCESSES, SEED);
    (sys, wl, M5Manager::new(M5Config::default()))
}

fn rendered_snapshot(sys: &mut System) -> String {
    sys.telemetry_mut().flush();
    sys.telemetry().snapshot().to_string()
}

#[test]
fn chunked_engine_matches_per_access_oracle() {
    let (mut sys, mut wl, mut m5) = parts();
    let oracle = run_per_access(&mut sys, &mut wl, &mut m5, ACCESSES);
    assert_eq!(oracle.accesses, ACCESSES, "workload ended early");
    let oracle_snap = rendered_snapshot(&mut sys);
    assert_eq!(
        sys.fault_log().len(),
        plan().len(),
        "a fault never fired: its boundary went untested"
    );
    assert!(
        oracle.migrations.promotions > 0,
        "the manager never promoted: migrations went untested"
    );

    for cap in [1, 7, DEFAULT_CHUNK_ACCESSES] {
        let (mut sys, mut wl, mut m5) = parts();
        let report = run_chunked(&mut sys, &mut wl, &mut m5, ACCESSES, cap);
        assert_eq!(report, oracle, "report diverged at chunk cap {cap}");
        assert_eq!(
            rendered_snapshot(&mut sys),
            oracle_snap,
            "telemetry diverged at chunk cap {cap}"
        );
        assert_eq!(
            sys.horizon_breaks(),
            PINNED_BREAKS,
            "horizon-break count moved at chunk cap {cap}"
        );
    }
}

/// The machine checkpoint plus the manager and run-driver sections.
fn capture(sys: &mut System, m5: &M5Manager, run: &ChunkedRun) -> Checkpoint {
    let mut cp = sys.checkpoint();
    let mut w = StateWriter::new();
    m5.save(sys, &mut w);
    cp.add_section("m5", w.finish());
    let mut w = StateWriter::new();
    run.save(&mut w);
    cp.add_section("run", w.finish());
    cp
}

/// Final checkpoint bytes, report, and rendered snapshot of a run driven
/// to the end.
fn finish(mut sys: System, m5: M5Manager, run: ChunkedRun) -> (Vec<u8>, RunReport, String) {
    let cp = capture(&mut sys, &m5, &run).encode();
    let report = run.finish(&mut sys, &m5);
    let snap = rendered_snapshot(&mut sys);
    (cp, report, snap)
}

#[test]
fn checkpoint_restore_split_matches_uninterrupted_run() {
    let uninterrupted = {
        let (mut sys, mut wl, mut m5) = parts();
        let mut run = ChunkedRun::begin(&mut sys, &mut m5);
        run.drive_to(&mut sys, &mut wl, &mut m5, ACCESSES, DEFAULT_CHUNK_ACCESSES);
        assert_eq!(run.accesses(), ACCESSES, "workload ended early");
        finish(sys, m5, run)
    };

    // Split mid-chunk: 77 777 is not a multiple of the chunk capacity.
    let split = 77_777;
    let (image, pos) = {
        let (mut sys, mut wl, mut m5) = parts();
        let mut run = ChunkedRun::begin(&mut sys, &mut m5);
        run.drive_to(&mut sys, &mut wl, &mut m5, split, DEFAULT_CHUNK_ACCESSES);
        assert_eq!(run.accesses(), split);
        (capture(&mut sys, &m5, &run).encode(), wl.pos())
    };
    let restored = {
        let cp = Checkpoint::decode(&image).expect("image decodes");
        let mut sys = System::restore(config(), &plan(), &cp).expect("machine restores");
        let mut r = StateReader::new(cp.require("m5").expect("m5 section"));
        let mut m5 =
            M5Manager::restore(M5Config::default(), &mut sys, &mut r).expect("manager restores");
        let mut r = StateReader::new(cp.require("run").expect("run section"));
        let mut run = ChunkedRun::resume(&mut r).expect("run driver restores");
        let (_, mut wl, _) = parts();
        wl.seek(pos);
        run.drive_to(&mut sys, &mut wl, &mut m5, ACCESSES, DEFAULT_CHUNK_ACCESSES);
        finish(sys, m5, run)
    };

    assert_eq!(restored.1, uninterrupted.1, "report diverged after restore");
    assert_eq!(
        restored.2, uninterrupted.2,
        "telemetry diverged after restore"
    );
    assert!(
        restored.0 == uninterrupted.0,
        "final checkpoint images differ after restore"
    );
}
