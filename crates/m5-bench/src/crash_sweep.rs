//! Crash-point sweep harness.
//!
//! The transactional migration engine journals every migration as a
//! write-ahead transaction (`Intent → CopyInProgress → Remapped →
//! Committed`), and a [`FaultKind::ControllerReset`] strikes exactly at a
//! journal-append boundary. That makes crashes *enumerable*: a fault-free
//! baseline run of a workload performs some number `N` of journal appends,
//! and injecting a reset at step `k` for every `k in 1..=N` exercises a
//! crash at every reachable transaction state the workload produces.
//!
//! For each sweep point the harness runs the full workload + M5 manager,
//! lets the manager's recovery prologue replay the journal, and checks
//! that (a) the run still completes its access budget and (b)
//! [`System::check_invariants`] holds at exit. The sweep tests live in
//! `tests/crash_sweep.rs`; CI runs them in release mode and uploads the
//! per-point failure reports (`M5_SWEEP_ARTIFACTS=<dir>`) when they fail.

use cxl_sim::faults::{FaultKind, FaultPlan};
use cxl_sim::journal::RecoveryReport;
use cxl_sim::prelude::*;
use cxl_sim::system::{run, ChunkedRun, DEFAULT_CHUNK_ACCESSES};
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::registry::Benchmark;

/// One sweep workload: a benchmark pinned to a seed and a deliberately
/// small access budget — the sweep reruns the whole workload once per
/// journal step, so the budget bounds the sweep's total runtime.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec {
    /// Short name, used in failure reports and artifact files.
    pub name: &'static str,
    /// The workload.
    pub benchmark: Benchmark,
    /// Trace seed.
    pub seed: u64,
    /// Access budget per sweep point.
    pub accesses: u64,
    /// Run the sweep on a contention-enabled machine (queueing + shared
    /// CXL link budget), so crash recovery is exercised with migration
    /// traffic backpressuring demand accesses.
    pub contended: bool,
}

/// The three sweep workloads — the same benchmark/seed families as the
/// golden suite (`crate::golden::GOLDENS`), with budgets sized so the full
/// sweep (baseline steps × full runs each) stays in CI-friendly time.
pub const SWEEPS: [SweepSpec; 3] = [
    SweepSpec {
        name: "graph",
        benchmark: Benchmark::Pr,
        seed: 42,
        accesses: 30_000,
        contended: false,
    },
    SweepSpec {
        name: "kv",
        benchmark: Benchmark::Redis,
        seed: 42,
        accesses: 30_000,
        contended: false,
    },
    SweepSpec {
        name: "spec",
        benchmark: Benchmark::Mcf,
        seed: 42,
        accesses: 30_000,
        contended: false,
    },
];

/// The observable outcome of one sweep point (or of the baseline run).
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Reset injection point (`None` for the fault-free baseline).
    pub at_step: Option<u64>,
    /// Accesses the run actually completed.
    pub accesses: u64,
    /// Journal appends performed by the end of the run.
    pub steps: u64,
    /// Committed migrations per the journal's terminal counters.
    pub committed: u64,
    /// Whether the armed reset actually struck during the run.
    pub fired: bool,
    /// The end-of-run journal replay, if the run ended fenced (a reset
    /// that struck after the manager's last epoch).
    pub final_recovery: Option<RecoveryReport>,
    /// Invariant violations at exit (must be empty).
    pub violations: Vec<String>,
}

/// Background load used by contended sweep points: past the default knee,
/// so queueing delay is live without drowning the run in standing latency.
pub const SWEEP_BACKGROUND: f64 = 0.7;

fn run_spec(s: &SweepSpec, plan: &FaultPlan, at_step: Option<u64>) -> SweepRun {
    let spec = s.benchmark.spec();
    let (mut sys, region) = if s.contended {
        crate::standard_contended_system_with_faults(&spec, plan, SWEEP_BACKGROUND)
    } else {
        crate::standard_system_with_faults(&spec, plan)
    };
    let mut wl = spec.build(region.base, s.accesses, s.seed);
    let mut m5 = M5Manager::new(M5Config::default());
    let report = run(&mut sys, &mut wl, &mut m5, s.accesses);
    // A reset that strikes after the manager's last epoch leaves the
    // engine fenced at exit; recovery is then the *next* run's first act,
    // which the sweep performs here so invariants are checked post-replay.
    let final_recovery = sys.needs_recovery().then(|| sys.recover());
    SweepRun {
        at_step,
        accesses: report.accesses,
        steps: sys.journal().steps(),
        committed: sys.journal().counters().committed(),
        fired: at_step.is_some() && !sys.reset_pending(),
        final_recovery,
        violations: sys.check_invariants(),
    }
}

/// Runs the fault-free baseline, whose `steps` defines the sweep range.
pub fn baseline(s: &SweepSpec) -> SweepRun {
    run_spec(s, &FaultPlan::none(), None)
}

/// Runs one sweep point: the workload with a controller reset armed to
/// strike at journal step `at_step`.
pub fn run_with_reset(s: &SweepSpec, at_step: u64) -> SweepRun {
    let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::ControllerReset { at_step });
    run_spec(s, &plan, Some(at_step))
}

/// A fault-free mid-run snapshot the sweep seeds each point from — the
/// perturbed run is identical to the baseline up to the reset, so points
/// striking after the snapshot's journal step need not replay the common
/// prefix.
#[derive(Clone)]
pub struct SweepSeed {
    /// Encoded run checkpoint (system + manager + driver + workload cursor).
    bytes: Vec<u8>,
    /// The machine configuration the snapshot was taken under.
    config: SystemConfig,
    /// The region base the workload trace was bound to.
    base: cxl_sim::addr::VirtAddr,
    /// Journal steps performed by the snapshot point. Sweep points at or
    /// below this step struck inside the prefix; seed only the tail.
    pub steps: u64,
    /// Accesses executed by the snapshot point.
    pub accesses: u64,
}

/// Runs `s` fault-free to `at_accesses` with [`ChunkedRun::drive_to`]
/// and captures the seed snapshot.
/// Oracle hook: the seeded crash sweep in `tests/checkpoint.rs` starts from it.
pub fn seed_checkpoint(s: &SweepSpec, at_accesses: u64) -> SweepSeed {
    use crate::checkpoint as ck;
    let spec = s.benchmark.spec();
    let (mut sys, region) = if s.contended {
        crate::standard_contended_system(&spec, SWEEP_BACKGROUND)
    } else {
        crate::standard_system(&spec)
    };
    let mut wl = spec.build(region.base, s.accesses, s.seed);
    let mut m5 = M5Manager::new(M5Config::default());
    let mut run = ChunkedRun::begin(&mut sys, &mut m5);
    run.drive_to(
        &mut sys,
        &mut wl,
        &mut m5,
        at_accesses.min(s.accesses),
        DEFAULT_CHUNK_ACCESSES,
    );
    let cp = ck::capture(&mut sys, &m5, &run, &wl);
    SweepSeed {
        bytes: cp.encode(),
        config: sys.config().clone(),
        base: region.base,
        steps: sys.journal().steps(),
        accesses: run.accesses(),
    }
}

/// Runs one sweep point from the seed: restore the snapshot under a plan
/// that arms a controller reset at journal step `at_step`, then run only
/// the tail. `at_step` should be greater than `seed.steps` — earlier
/// steps already happened inside the snapshotted prefix and the reset
/// would instead strike the first append after restore.
pub fn run_with_reset_from_seed(s: &SweepSpec, seed: &SweepSeed, at_step: u64) -> SweepRun {
    use crate::checkpoint as ck;
    let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::ControllerReset { at_step });
    let cp = cxl_sim::checkpoint::Checkpoint::decode(&seed.bytes)
        .expect("seed snapshot was encoded by capture and never left memory");
    let spec = s.benchmark.spec();
    let mut wl = spec.build(seed.base, s.accesses, s.seed);
    let resumed = ck::resume(
        &cp,
        seed.config.clone(),
        &plan,
        M5Config::default(),
        &mut wl,
    )
    .expect("seed snapshot restores under its own config");
    let ck::ResumedRun {
        mut sys,
        mut m5,
        mut run,
    } = resumed;
    run.drive_to(
        &mut sys,
        &mut wl,
        &mut m5,
        s.accesses,
        DEFAULT_CHUNK_ACCESSES,
    );
    let report = run.finish(&mut sys, &m5);
    let final_recovery = sys.needs_recovery().then(|| sys.recover());
    SweepRun {
        at_step: Some(at_step),
        accesses: report.accesses,
        steps: sys.journal().steps(),
        committed: sys.journal().counters().committed(),
        fired: !sys.reset_pending(),
        final_recovery,
        violations: sys.check_invariants(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_fault_free_and_journals_migrations() {
        let b = baseline(&SWEEPS[0]);
        assert_eq!(b.at_step, None);
        assert!(!b.fired);
        assert!(b.final_recovery.is_none());
        assert!(b.violations.is_empty(), "{:?}", b.violations);
        assert!(b.committed > 0, "baseline never migrated");
        // A committed migration is exactly 4 appends; aborts are 2.
        assert!(b.steps >= 4 * b.committed);
    }
}
