//! Property net for the chunked access engine: on *random* access
//! streams — not just the golden workloads — the chunked driver (which
//! runs the fused scalar loop through segments that check faults,
//! flushes and wakeups once each) must stay byte-identical to the
//! `run_per_access` oracle, with fault windows active and the contention
//! model enabled, and a mid-chunk checkpoint/restore split must land on
//! the exact same final state as the run that never stopped.
//!
//! The deterministic suites (`chunk_determinism.rs`, `checkpoint.rs`)
//! pin the golden workloads; this file fuzzes the space between them:
//! arbitrary page-collision patterns, write/op-end mixes, chunk
//! capacities that cut segments at awkward points, M5 migrations
//! and epoch rollovers landing between segments, and split points that
//! cut a chunk anywhere.

use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan};
use cxl_sim::prelude::*;
use cxl_sim::system::{run_chunked, run_per_access, Region, DEFAULT_CHUNK_ACCESSES};
use m5_baselines::anb::{Anb, AnbConfig};
use m5_baselines::damon::{Damon, DamonConfig};
use m5_bench::checkpoint::{capture, resume};
use m5_bench::golden;
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::{AccessRecorder, ReplayWorkload};
use proptest::prelude::*;

/// A fault plan whose spike/stall/poison/pressure windows all land inside
/// even the shortest generated run (a few hundred accesses simulate a few
/// hundred microseconds on the contended scaled machine). A correctable
/// error and a link degrade put the rest of the run on a slow link, so
/// segments add the RAS penalty to their CXL fills; a controller reset
/// at an unreachable journal step and a copy failure stay pending
/// without cutting a segment; and a poisoned read after a long
/// fault-free stretch makes the scheduled-fault edge cut a segment.
fn active_plan() -> FaultPlan {
    FaultPlan::none()
        .with(
            Nanos::from_micros(1),
            FaultKind::LatencySpike {
                extra: Nanos::from_micros(1),
                duration: Nanos::from_micros(3),
            },
        )
        .with(
            Nanos::from_micros(2),
            FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 3 }),
        )
        .with(
            Nanos::from_micros(3),
            FaultKind::Device(DeviceFault::LinkDegrade { factor: 200 }),
        )
        .with(
            Nanos::from_micros(4),
            FaultKind::ControllerReset { at_step: 1 << 40 },
        )
        .with(
            Nanos::from_micros(6),
            FaultKind::MigrationCopyFail { attempts: 2 },
        )
        .with(
            Nanos::from_micros(5),
            FaultKind::ControllerStall {
                duration: Nanos::from_micros(2),
            },
        )
        .with(Nanos::from_micros(8), FaultKind::PoisonLine { reads: 2 })
        .with(
            Nanos::from_micros(10),
            FaultKind::DdrPressure {
                duration: Nanos::from_micros(4),
            },
        )
        .with(
            Nanos::from_micros(LATE_FAULT_US),
            FaultKind::PoisonLine { reads: 2 },
        )
}

/// When [`active_plan`]'s last fault fires, long after the others.
const LATE_FAULT_US: u64 = 150;

/// The default M5 manager, or with `fast_epochs` one whose Elector
/// period is 20–200 µs instead of 2–20 ms and whose migration time quota
/// is lifted: a generated stream simulates well under a millisecond, so
/// only the fast manager ticks, promotes pages, and rolls its epoch and
/// bandwidth windows over inside it.
fn m5_config(fast_epochs: bool) -> M5Config {
    let mut c = M5Config::default();
    if fast_epochs {
        c.elector.min_period = Nanos::from_micros(20);
        c.elector.max_period = Nanos::from_micros(200);
        c.migration_time_budget = 1.0;
    }
    c
}

/// The daemon under test: the M5 manager of [`m5_config`], the
/// hinting-fault heavy ANB, or the PTE-sampling DAMON. With `fast_epochs`
/// DAMON samples every 5 µs (an aggregation every 100 µs) with its
/// migration time quota lifted, so it promotes inside a generated stream.
fn daemon(which: usize, fast_epochs: bool) -> Box<dyn MigrationDaemon> {
    match which {
        0 => Box::new(M5Manager::new(m5_config(fast_epochs))),
        1 => Box::new(Anb::new(AnbConfig::default())),
        _ if fast_epochs => Box::new(Damon::new(DamonConfig {
            sample_interval: Nanos::from_micros(5),
            migration_time_budget: 1.0,
            ..DamonConfig::default()
        })),
        _ => Box::new(Damon::new(DamonConfig::default())),
    }
}

/// A contended machine executing `plan`, with the workload's pages on
/// CXL (so snoops, contention billing, and migration all have traffic).
fn contended_system(pages: u64, plan: &FaultPlan) -> (System, Region) {
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(pages + 64)
        .with_ddr_frames((pages / 2).max(2))
        .with_contention(ContentionConfig::enabled_default().with_cxl_background(0.6));
    let mut sys = System::with_fault_plan(config, plan);
    let region = sys
        .alloc_region(pages, Placement::AllOnCxl)
        .expect("CXL sized to fit");
    (sys, region)
}

/// Replay workload over `region` built from raw (offset, write, op-end)
/// triples.
fn replay(ops: &[(u64, bool, bool)], pages: u64, region: &Region) -> ReplayWorkload {
    let mut rec = AccessRecorder::with_capacity(ops.len());
    let span = pages * 4096;
    for &(off, w, end) in ops {
        rec.push(off % span, w, end);
    }
    rec.into_workload("engine-prop", region.base)
}

/// Full-fidelity observation: rendered telemetry snapshot + report debug.
fn snapshot(sys: &mut System, report: &RunReport) -> (String, String) {
    sys.telemetry_mut().flush();
    let snap = golden::render("engine-prop", &sys.telemetry().snapshot());
    (snap, format!("{report:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Chunked ≡ per-access oracle on random streams, faults and
    /// contention live, under the M5 manager, the hinting-fault heavy ANB
    /// daemon and DAMON, at chunk capacities that slice segments at
    /// awkward points, and with `fast_epochs` with M5 and DAMON ticks,
    /// promotions, and epoch and bandwidth-window rollovers landing
    /// between segments.
    #[test]
    fn chunked_matches_per_access_oracle(
        ops in prop::collection::vec(
            (any::<u64>(), prop::bool::weighted(0.3), prop::bool::weighted(0.05)),
            64..1024,
        ),
        pages in 8u64..48,
        cap_idx in 0usize..6,
        which in 0usize..3,
        fast_epochs in any::<bool>(),
    ) {
        let cap = [3usize, 7, 17, 64, 509, 4096][cap_idx];
        let plan = active_plan();
        let accesses = ops.len() as u64;

        let oracle = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let mut d = daemon(which, fast_epochs);
            let report = run_per_access(&mut sys, &mut wl, d.as_mut(), accesses);
            snapshot(&mut sys, &report)
        };

        let chunked = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let mut d = daemon(which, fast_epochs);
            let report = run_chunked(&mut sys, &mut wl, d.as_mut(), accesses, cap);
            snapshot(&mut sys, &report)
        };

        prop_assert_eq!(&oracle.1, &chunked.1, "report diverged (cap={})", cap);
        prop_assert_eq!(&oracle.0, &chunked.0, "telemetry diverged (cap={})", cap);
    }

    /// Checkpointing at an arbitrary access index — almost always inside
    /// a chunk, and usually inside a segment — and restoring into a
    /// fresh machine must produce the byte-identical final checkpoint,
    /// report, and telemetry of the uninterrupted run.
    #[test]
    fn restore_equals_continue_at_any_split(
        ops in prop::collection::vec(
            (any::<u64>(), prop::bool::weighted(0.3), prop::bool::weighted(0.05)),
            128..1024,
        ),
        pages in 8u64..48,
        split_num in 1u64..99,
    ) {
        let plan = active_plan();
        let accesses = ops.len() as u64;
        let split = (accesses * split_num / 100).max(1);

        let uninterrupted = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let mut m5 = M5Manager::new(M5Config::default());
            let mut run = ChunkedRun::begin(&mut sys, &mut m5);
            run.drive_to(&mut sys, &mut wl, &mut m5, accesses, DEFAULT_CHUNK_ACCESSES);
            let cp = capture(&mut sys, &m5, &run, &wl).encode();
            let report = run.finish(&mut sys, &m5);
            let (snap, rep) = snapshot(&mut sys, &report);
            (cp, snap, rep)
        };

        let restored = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let mut m5 = M5Manager::new(M5Config::default());
            let mut run = ChunkedRun::begin(&mut sys, &mut m5);
            run.drive_to(&mut sys, &mut wl, &mut m5, split, DEFAULT_CHUNK_ACCESSES);
            prop_assert_eq!(run.accesses(), split, "split point not reached");
            let mid = capture(&mut sys, &m5, &run, &wl).encode();
            let config = sys.config().clone();
            drop((sys, wl, m5, run));

            let cp = Checkpoint::decode(&mid).expect("mid-run snapshot decodes");
            let (_, region2) = contended_system(pages, &plan);
            prop_assert_eq!(region2.base, region.base, "deterministic layout");
            let mut wl = replay(&ops, pages, &region2);
            let resumed = resume(&cp, config, &plan, M5Config::default(), &mut wl)
                .expect("mid-run snapshot restores");
            let (mut sys, mut m5, mut run) = (resumed.sys, resumed.m5, resumed.run);
            run.drive_to(&mut sys, &mut wl, &mut m5, accesses, DEFAULT_CHUNK_ACCESSES);
            let cp = capture(&mut sys, &m5, &run, &wl).encode();
            let report = run.finish(&mut sys, &m5);
            let (snap, rep) = snapshot(&mut sys, &report);
            (cp, snap, rep)
        };

        prop_assert_eq!(&uninterrupted.2, &restored.2, "report diverged at split {}", split);
        prop_assert_eq!(&uninterrupted.1, &restored.1, "telemetry diverged at split {}", split);
        prop_assert_eq!(&uninterrupted.0, &restored.0, "final checkpoints differ at split {}", split);
    }
}
