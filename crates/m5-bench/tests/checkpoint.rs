//! Restore≡continue differential net for the run-level checkpoint
//! harness.
//!
//! The contract under test: checkpointing a run at an interior epoch and
//! resuming it in a fresh process yields a **byte-identical** final
//! checkpoint, [`cxl_sim::prelude::RunReport`], and rendered metrics
//! snapshot to the run that never stopped — across all three golden
//! workloads, on a contended machine executing an active fault plan, and
//! through torn-commit crashes that force the `.prev` fallback.
//!
//! Set `M5_CKPT_ARTIFACTS=<dir>` to keep the checkpoint images the tests
//! write (CI uploads them when the suite fails).

use cxl_sim::checkpoint::Checkpoint;
use cxl_sim::faults::{FaultKind, FaultPlan};
use cxl_sim::prelude::*;
use cxl_sim::system::{ChunkedRun, DEFAULT_CHUNK_ACCESSES};
use m5_bench::checkpoint::{
    capture, drive_with_checkpoints, golden_parts, golden_parts_faulted, resume, resume_from_file,
};
use m5_bench::golden::{render, GoldenSpec, GOLDENS};
use m5_bench::soak::{
    checkpoint_campaign, run_campaign, run_campaign_resumable, SoakScenario, SoakSpec,
};
use m5_core::manager::M5Config;
use std::path::PathBuf;

/// Where this test writes checkpoint images: the CI artifact dir when
/// `M5_CKPT_ARTIFACTS` is set, a process-unique temp dir otherwise.
fn ckpt_dir(tag: &str) -> PathBuf {
    let d = match std::env::var_os("M5_CKPT_ARTIFACTS") {
        Some(dir) => PathBuf::from(dir).join(tag),
        None => std::env::temp_dir().join(format!("m5-ckpt-it-{}-{tag}", std::process::id())),
    };
    std::fs::create_dir_all(&d).expect("checkpoint dir creatable");
    d
}

/// Runs `g` to completion with the sequential chunked driver, returning
/// the final full-state checkpoint bytes, the report, and the rendered
/// metrics snapshot.
fn golden_uninterrupted(g: &GoldenSpec) -> (Vec<u8>, RunReport, String) {
    let (mut sys, mut wl, mut m5) = golden_parts(g);
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    run.drive_to(
        &mut sys,
        &mut wl,
        &mut m5,
        g.accesses,
        DEFAULT_CHUNK_ACCESSES,
    );
    let cp = capture(&mut sys, &m5, &run, &wl);
    let report = run.finish(&mut sys, &m5);
    sys.telemetry_mut().flush();
    let snap = render(g.name, &sys.telemetry().snapshot());
    (cp.encode(), report, snap)
}

/// Runs `g` to `split` accesses, checkpoints, then restores the encoded
/// bytes into an entirely fresh machine/manager/workload and finishes the
/// run — the "killed and restarted in a new process" path.
fn golden_split(g: &GoldenSpec, split: u64) -> (Vec<u8>, RunReport, String) {
    // First process: run to the split point and checkpoint.
    let (mut sys, mut wl, mut m5) = golden_parts(g);
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    run.drive_to(&mut sys, &mut wl, &mut m5, split, DEFAULT_CHUNK_ACCESSES);
    assert_eq!(run.accesses(), split, "split point not reached");
    let mid = capture(&mut sys, &m5, &run, &wl).encode();
    let config = sys.config().clone();
    drop((sys, wl, m5, run));

    // Second process: everything rebuilt from spec + snapshot bytes.
    let cp = Checkpoint::decode(&mid).expect("mid-run snapshot decodes");
    let (_, mut wl, _) = golden_parts(g); // fresh trace, same deterministic base
    let resumed = resume(
        &cp,
        config,
        &FaultPlan::none(),
        M5Config::default(),
        &mut wl,
    )
    .expect("mid-run snapshot restores");
    let (mut sys, mut m5, mut run) = (resumed.sys, resumed.m5, resumed.run);
    assert_eq!(run.accesses(), split, "restored driver lost its position");
    run.drive_to(
        &mut sys,
        &mut wl,
        &mut m5,
        g.accesses,
        DEFAULT_CHUNK_ACCESSES,
    );
    let cp = capture(&mut sys, &m5, &run, &wl);
    let report = run.finish(&mut sys, &m5);
    sys.telemetry_mut().flush();
    let snap = render(g.name, &sys.telemetry().snapshot());
    (cp.encode(), report, snap)
}

fn assert_restore_equals_continue(g: &GoldenSpec, split: u64) {
    let (cp_a, report_a, snap_a) = golden_uninterrupted(g);
    let (cp_b, report_b, snap_b) = golden_split(g, split);
    assert_eq!(
        report_a, report_b,
        "golden '{}': restored run's report diverged from the uninterrupted run",
        g.name
    );
    assert_eq!(
        snap_a, snap_b,
        "golden '{}': restored run's metrics snapshot diverged",
        g.name
    );
    assert_eq!(
        cp_a, cp_b,
        "golden '{}': final full-state checkpoints are not byte-identical",
        g.name
    );
}

#[test]
fn golden_graph_restore_equals_continue() {
    assert_restore_equals_continue(&GOLDENS[0], 100_000);
}

#[test]
fn golden_kv_restore_equals_continue() {
    assert_restore_equals_continue(&GOLDENS[1], 100_000);
}

#[test]
fn golden_spec_restore_equals_continue() {
    assert_restore_equals_continue(&GOLDENS[2], 100_000);
}

/// Driving the checkpoint harness's legs must be byte-identical to the
/// one-leg `run` the golden suite uses — the quiescent (checkpoint-free)
/// path is exactly the committed goldens.
#[test]
fn chunked_driver_matches_the_golden_harness() {
    let g = GoldenSpec {
        accesses: 60_000,
        ..GOLDENS[0]
    };
    let (_, report_chunked, snap_chunked) = golden_uninterrupted(&g);
    let (snap, report) = m5_bench::golden::run_golden(&g, None);
    assert_eq!(report, report_chunked);
    assert_eq!(render(g.name, &snap), snap_chunked);
}

/// Restore≡continue on a hostile machine: contention enabled and an
/// active fault plan (latency spike, poisoned reads, copy failures, DDR
/// pressure, CE bursts) spanning the split point.
#[test]
fn contended_faulted_restore_equals_continue() {
    use cxl_sim::faults::DeviceFault;
    let g = GoldenSpec {
        accesses: 120_000,
        ..GOLDENS[1]
    };
    let plan = FaultPlan::none()
        .with(
            Nanos(50_000),
            FaultKind::LatencySpike {
                extra: Nanos(400),
                duration: Nanos(4_000_000),
            },
        )
        .with(Nanos(200_000), FaultKind::PoisonLine { reads: 3 })
        .with(Nanos(400_000), FaultKind::MigrationCopyFail { attempts: 2 })
        .with(
            Nanos(900_000),
            FaultKind::DdrPressure {
                duration: Nanos(2_000_000),
            },
        )
        .with(
            Nanos(1_200_000),
            FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 3 }),
        )
        .with(
            Nanos(6_000_000),
            FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 3 }),
        );
    let background = Some(0.5);
    let split = 60_000;

    let run_full = |()| {
        let (mut sys, mut wl, mut m5) = golden_parts_faulted(&g, &plan, background);
        let mut run = ChunkedRun::begin(&mut sys, &mut m5);
        run.drive_to(
            &mut sys,
            &mut wl,
            &mut m5,
            g.accesses,
            DEFAULT_CHUNK_ACCESSES,
        );
        let cp = capture(&mut sys, &m5, &run, &wl);
        let report = run.finish(&mut sys, &m5);
        sys.telemetry_mut().flush();
        (
            cp.encode(),
            report,
            render(g.name, &sys.telemetry().snapshot()),
        )
    };
    let (cp_a, report_a, snap_a) = run_full(());
    assert!(
        report_a.health.faults_injected > 0,
        "the fault plan never fired — this differential would be vacuous"
    );

    let (mut sys, mut wl, mut m5) = golden_parts_faulted(&g, &plan, background);
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    run.drive_to(&mut sys, &mut wl, &mut m5, split, DEFAULT_CHUNK_ACCESSES);
    let mid = capture(&mut sys, &m5, &run, &wl).encode();
    let config = sys.config().clone();
    drop((sys, wl, m5, run));

    let cp = Checkpoint::decode(&mid).expect("mid-run snapshot decodes");
    let (_, mut wl, _) = golden_parts_faulted(&g, &plan, background);
    let resumed =
        resume(&cp, config, &plan, M5Config::default(), &mut wl).expect("snapshot restores");
    let (mut sys, mut m5, mut run) = (resumed.sys, resumed.m5, resumed.run);
    run.drive_to(
        &mut sys,
        &mut wl,
        &mut m5,
        g.accesses,
        DEFAULT_CHUNK_ACCESSES,
    );
    let cp_b = capture(&mut sys, &m5, &run, &wl).encode();
    let report_b = run.finish(&mut sys, &m5);
    sys.telemetry_mut().flush();
    let snap_b = render(g.name, &sys.telemetry().snapshot());

    assert_eq!(report_a, report_b, "contended+faulted report diverged");
    assert_eq!(snap_a, snap_b, "contended+faulted snapshot diverged");
    assert_eq!(cp_a, cp_b, "contended+faulted final checkpoints differ");
}

/// Torn-snapshot sweep: commit a valid checkpoint, then tear a newer one
/// at EVERY manifest section index (including the crash between the two
/// commit renames). Loading must never accept a torn image: every torn
/// index falls back to the previous valid checkpoint, and a restored run
/// from the fallback still completes with clean invariants.
#[test]
fn torn_commit_at_every_section_falls_back_to_previous_valid() {
    let g = GoldenSpec {
        accesses: 40_000,
        ..GOLDENS[1]
    };
    let dir = ckpt_dir("torn-sweep");
    let path = dir.join("golden.ckpt");
    let prev_path = dir.join("golden.ckpt.prev");

    let (mut sys, mut wl, mut m5) = golden_parts(&g);
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    run.drive_to(&mut sys, &mut wl, &mut m5, 15_000, DEFAULT_CHUNK_ACCESSES);
    let cp1 = capture(&mut sys, &m5, &run, &wl);
    run.drive_to(&mut sys, &mut wl, &mut m5, 30_000, DEFAULT_CHUNK_ACCESSES);
    let cp2 = capture(&mut sys, &m5, &run, &wl);
    let config = sys.config().clone();

    let sections = cp2.section_count() as u64;
    assert!(sections >= 15, "manifest unexpectedly small: {sections}");
    for at in 0..=sections {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev_path);
        cp1.commit(&path).expect("priming commit");
        cp2.commit_torn(&path, at).expect("torn commit io");
        let loaded = Checkpoint::load(&path)
            .unwrap_or_else(|e| panic!("torn at section {at}: no valid image: {e}"));
        assert!(
            loaded.fell_back,
            "torn at section {at}: a torn image was accepted as primary"
        );
        assert_eq!(
            loaded.checkpoint.encode(),
            cp1.encode(),
            "torn at section {at}: fallback is not the previous valid image"
        );
    }

    // A clean commit over the primed image is accepted as primary.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev_path);
    cp1.commit(&path).expect("priming commit");
    cp2.commit(&path).expect("clean commit");
    let loaded = Checkpoint::load(&path).expect("clean image loads");
    assert!(!loaded.fell_back);
    assert_eq!(loaded.checkpoint.encode(), cp2.encode());

    // Resume from representative fallback images and finish the run:
    // invariants clean, every region page still mapped exactly once.
    for at in [0, sections / 2, sections] {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev_path);
        cp1.commit(&path).expect("priming commit");
        cp2.commit_torn(&path, at).expect("torn commit io");
        let (_, mut wl, _) = golden_parts(&g);
        let (resumed, fell_back) = resume_from_file(
            &path,
            config.clone(),
            &FaultPlan::none(),
            M5Config::default(),
            &mut wl,
        )
        .expect("fallback image restores");
        assert!(fell_back);
        let (mut sys, mut m5, mut run) = (resumed.sys, resumed.m5, resumed.run);
        assert_eq!(
            run.accesses(),
            15_000,
            "fallback resumed at the wrong point"
        );
        run.drive_to(
            &mut sys,
            &mut wl,
            &mut m5,
            g.accesses,
            DEFAULT_CHUNK_ACCESSES,
        );
        let report = run.finish(&mut sys, &m5);
        assert_eq!(report.accesses, g.accesses);
        let violations = sys.check_invariants();
        assert!(violations.is_empty(), "torn at {at}: {violations:?}");
        let pages = g.benchmark.spec().footprint_pages;
        assert_eq!(
            sys.nr_pages(NodeId::Ddr) + sys.nr_pages(NodeId::Cxl),
            pages,
            "torn at {at}: pages lost or double-mapped after fallback restore"
        );
    }
    if std::env::var_os("M5_CKPT_ARTIFACTS").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// End-to-end injector-driven crash: a `TornCheckpoint` fault armed
/// mid-run tears the periodic commit it lands on; a restart then falls
/// back to the previous interval's image and still finishes the run.
#[test]
fn armed_torn_fault_tears_the_periodic_commit_and_restart_falls_back() {
    let g = GoldenSpec {
        accesses: 20_000,
        ..GOLDENS[0]
    };
    // Probe: find the simulated instant of the first periodic commit, so
    // the fault provably arms between the first and second commits.
    let t_mid = {
        let (mut sys, mut wl, mut m5) = golden_parts(&g);
        let mut run = ChunkedRun::begin(&mut sys, &mut m5);
        run.drive_to(&mut sys, &mut wl, &mut m5, 10_000, DEFAULT_CHUNK_ACCESSES);
        sys.now()
    };
    let plan = FaultPlan::none().with(
        Nanos(t_mid.0 + 1),
        FaultKind::TornCheckpoint { at_section: 4 },
    );
    let dir = ckpt_dir("torn-armed");
    let path = dir.join("run.ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("run.ckpt.prev"));

    let (mut sys, mut wl, mut m5) = golden_parts_faulted(&g, &plan, None);
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    let outcome = drive_with_checkpoints(
        &mut sys, &mut m5, &mut run, &mut wl, g.accesses, 10_000, &path,
    )
    .expect("checkpoint io");
    assert_eq!(outcome.commits, 2, "expected commits at 10k and 20k");
    assert_eq!(
        outcome.torn_commits, 1,
        "the armed fault must tear exactly the second commit"
    );
    let config = sys.config().clone();
    drop((sys, wl, m5, run));

    // Restart: the torn primary is rejected, the 10k image restores.
    let (_, mut wl, _) = golden_parts(&g);
    let (resumed, fell_back) = resume_from_file(&path, config, &plan, M5Config::default(), &mut wl)
        .expect("previous interval image restores");
    assert!(
        fell_back,
        "restart should have fallen back to the 10k image"
    );
    let (mut sys, mut m5, mut run) = (resumed.sys, resumed.m5, resumed.run);
    assert_eq!(run.accesses(), 10_000);
    run.drive_to(
        &mut sys,
        &mut wl,
        &mut m5,
        g.accesses,
        DEFAULT_CHUNK_ACCESSES,
    );
    let report = run.finish(&mut sys, &m5);
    assert_eq!(report.accesses, g.accesses);
    assert!(sys.check_invariants().is_empty());
    if std::env::var_os("M5_CKPT_ARTIFACTS").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A chaos-soak campaign killed mid-run and resumed from its periodic
/// checkpoint must report exactly what the uninterrupted campaign does.
#[test]
fn soak_campaign_resumed_from_checkpoint_matches_uninterrupted() {
    // The standard CI chaos campaign (seed 1): the full default budget,
    // so the evacuation the chaos plan triggers concludes before exit and
    // the campaign is judged against the real RAS contract.
    let spec = SoakSpec {
        scenario: SoakScenario::Chaos,
        seed: 1,
        accesses: 400_000,
        ddr_frames: 1024,
    };
    let reference = run_campaign(spec);

    let dir = ckpt_dir("soak-resume");
    let path = dir.join(format!("{}.ckpt", spec.name()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join(format!("{}.ckpt.prev", spec.name())));
    checkpoint_campaign(spec, &path, 200_000);
    let resumed = run_campaign_resumable(spec, &path, 150_000);
    assert_eq!(
        format!("{reference:?}"),
        format!("{resumed:?}"),
        "resumed campaign diverged from the uninterrupted reference"
    );
    assert!(
        resumed.failures(&spec).is_empty(),
        "{:?}",
        resumed.failures(&spec)
    );
    if std::env::var_os("M5_CKPT_ARTIFACTS").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The checkpoint-seeded crash sweep: every tail point restored from the
/// mid-run seed must fire its reset, complete the budget, and exit with
/// clean invariants — same contract as the unseeded sweep, at roughly
/// half the replay cost per point.
#[test]
fn seeded_crash_sweep_tail_points_recover_cleanly() {
    use m5_bench::crash_sweep::{baseline, run_with_reset_from_seed, seed_checkpoint, SWEEPS};
    let s = SWEEPS[0];
    let base = baseline(&s);
    assert!(base.violations.is_empty());
    let seed = seed_checkpoint(&s, s.accesses / 2);
    assert!(
        seed.steps < base.steps,
        "seed point ({}) is past the baseline's last journal step ({})",
        seed.steps,
        base.steps
    );
    // Sample up to 12 tail points evenly across (seed.steps, base.steps]
    // — each point replays only the post-seed half of the workload, and
    // the full every-point sweep already runs unseeded in CI.
    let lo = seed.steps + 1;
    let hi = base.steps;
    let n = (hi - lo + 1).min(12);
    let mut picks: Vec<u64> = (0..n).map(|i| lo + i * (hi - lo) / n.max(1)).collect();
    picks.push(hi);
    picks.dedup();
    for at_step in picks {
        let r = run_with_reset_from_seed(&s, &seed, at_step);
        assert!(r.fired, "step {at_step}: reset never struck");
        assert_eq!(r.accesses, s.accesses, "step {at_step}: budget incomplete");
        assert!(
            r.violations.is_empty(),
            "step {at_step}: invariants violated: {:?}",
            r.violations
        );
    }
}

/// Restoring under a config that differs from the checkpointed one is a
/// typed rejection, not a silently wrong machine.
#[test]
fn restore_rejects_config_skew() {
    let g = GoldenSpec {
        accesses: 10_000,
        ..GOLDENS[0]
    };
    let (mut sys, mut wl, mut m5) = golden_parts(&g);
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    run.drive_to(&mut sys, &mut wl, &mut m5, 5_000, DEFAULT_CHUNK_ACCESSES);
    let cp = capture(&mut sys, &m5, &run, &wl);
    let skewed = sys.config().clone().with_ddr_frames(7);
    let (_, mut fresh_wl, _) = golden_parts(&g);
    let err = resume(
        &cp,
        skewed,
        &FaultPlan::none(),
        M5Config::default(),
        &mut fresh_wl,
    );
    assert!(
        matches!(err, Err(cxl_sim::checkpoint::RestoreError::ConfigMismatch)),
        "config skew must be rejected as RestoreError::ConfigMismatch"
    );
}

/// Randomized torture: interleave access batches, clean snapshots, torn
/// crashes at arbitrary sections, and restores in any order. Whatever the
/// sequence, the machine must never trip an invariant, and every region
/// page must stay mapped exactly once (no pages lost to a crash, none
/// double-mapped by a restore).
mod interleaving {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Drive roughly `0..4096` more accesses through the run.
        Advance(u16),
        /// Capture + clean two-phase commit.
        Snapshot,
        /// Capture + commit torn at section `k % (sections + 1)`.
        Torn(u16),
        /// Reload the newest valid image (if any) into a fresh machine.
        Restore,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u16..4096).prop_map(Op::Advance),
            Just(Op::Snapshot),
            (0u16..64).prop_map(Op::Torn),
            Just(Op::Restore),
        ]
    }

    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn random_crash_restore_cycles_never_lose_a_page(ops in proptest::collection::vec(op_strategy(), 1..10)) {
            let g = GoldenSpec { accesses: 40_000, ..GOLDENS[2] };
            let pages = g.benchmark.spec().footprint_pages;
            // A light fault plan so checkpoint cycles also cross live
            // fault state (spike window + CE hits on a shared frame).
            let plan = FaultPlan::none()
                .with(Nanos(30_000), FaultKind::LatencySpike { extra: Nanos(300), duration: Nanos(2_000_000) })
                .with(Nanos(90_000), FaultKind::Device(cxl_sim::faults::DeviceFault::CorrectableEcc { pfn: 5 }))
                .with(Nanos(700_000), FaultKind::Device(cxl_sim::faults::DeviceFault::CorrectableEcc { pfn: 5 }));
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = ckpt_dir("prop");
            let path = dir.join(format!("case-{case}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(dir.join(format!("case-{case}.ckpt.prev")));

            let (mut sys, mut wl, mut m5) = golden_parts_faulted(&g, &plan, None);
            let config = sys.config().clone();
            let mut run = ChunkedRun::begin(&mut sys, &mut m5);
            for op in &ops {
                match *op {
                    Op::Advance(n) => {
                        let target = (run.accesses() + n as u64).min(g.accesses);
                        run.drive_to(&mut sys, &mut wl, &mut m5, target, DEFAULT_CHUNK_ACCESSES);
                    }
                    Op::Snapshot => {
                        let cp = capture(&mut sys, &m5, &run, &wl);
                        cp.commit(&path).expect("clean commit io");
                    }
                    Op::Torn(k) => {
                        let cp = capture(&mut sys, &m5, &run, &wl);
                        let at = k as u64 % (cp.section_count() as u64 + 1);
                        cp.commit_torn(&path, at).expect("torn commit io");
                    }
                    Op::Restore => {
                        if let Ok(loaded) = Checkpoint::load(&path) {
                            let (_, mut fresh_wl, _) = golden_parts_faulted(&g, &plan, None);
                            let resumed = resume(
                                &loaded.checkpoint, config.clone(), &plan,
                                M5Config::default(), &mut fresh_wl,
                            ).expect("a loaded image always restores");
                            sys = resumed.sys;
                            m5 = resumed.m5;
                            run = resumed.run;
                            wl = fresh_wl;
                        }
                    }
                }
                let violations = sys.check_invariants();
                prop_assert!(violations.is_empty(), "after {op:?}: {violations:?}");
                prop_assert_eq!(
                    sys.nr_pages(NodeId::Ddr) + sys.nr_pages(NodeId::Cxl),
                    pages,
                    "after {:?}: pages lost or double-mapped", op
                );
            }
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(dir.join(format!("case-{case}.ckpt.prev")));
        }
    }
}
