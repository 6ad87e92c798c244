//! Run-level checkpoint/restore harness.
//!
//! [`cxl_sim::system::System::checkpoint`] captures the machine; a *run*
//! is more than the machine: the M5 manager (component state + tracker
//! SRAM), the chunk driver's report baseline, and the workload cursor.
//! This module bundles all four into one manifest — sections `m5`, `run`,
//! and `workload` appended to the system's own — commits it with the
//! two-phase tmp→prev→rename protocol (honouring any armed
//! [`cxl_sim::faults::FaultKind::TornCheckpoint`] fault), and rebuilds a
//! running machine from the result, falling back to the previous valid
//! image when the primary is torn.
//!
//! The restore≡continue contract (`tests/checkpoint.rs`): checkpointing a
//! run at any interior point and resuming it in a fresh process yields a
//! byte-identical final checkpoint, [`RunReport`], and metrics snapshot
//! to the run that never stopped. Checkpointing is opt-in — a run that
//! never calls [`capture`] is untouched by this module.

use crate::golden::GoldenSpec;
use cxl_sim::checkpoint::{
    section_err, Checkpoint, CheckpointError, CodecError, RestoreError, StateReader, StateWriter,
};
use cxl_sim::faults::FaultPlan;
use cxl_sim::prelude::*;
use cxl_sim::system::{ChunkedRun, DEFAULT_CHUNK_ACCESSES};
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::ReplayWorkload;
use std::path::Path;

/// A workload stream whose cursor can ride in a run checkpoint.
///
/// Trace contents and RNG parameters are pure functions of the workload
/// spec, so the restoring side rebuilds the stream from the spec and then
/// loads only position-like state (a replay cursor, an RNG position, a
/// remaining-budget counter) from the snapshot.
pub trait StreamCheckpoint: AccessStream {
    /// Serializes the stream's cursor state.
    fn save_cursor(&self, w: &mut StateWriter);

    /// Restores cursor state into a freshly built stream.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    fn load_cursor(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError>;
}

impl StreamCheckpoint for ReplayWorkload {
    fn save_cursor(&self, w: &mut StateWriter) {
        w.put_usize(self.pos());
    }

    fn load_cursor(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.seek(r.get_usize()?);
        Ok(())
    }
}

/// Captures the full run state: the system's own sections plus `m5`
/// (manager components + attached tracker SRAM), `run` (driver baseline +
/// op-latency accumulators), and `workload` (stream cursor).
pub fn capture<W>(sys: &mut System, m5: &M5Manager, run: &ChunkedRun, wl: &W) -> Checkpoint
where
    W: StreamCheckpoint + ?Sized,
{
    let mut cp = sys.checkpoint();
    let mut w = StateWriter::new();
    m5.save(sys, &mut w);
    cp.add_section("m5", w.finish());
    let mut w = StateWriter::new();
    run.save(&mut w);
    cp.add_section("run", w.finish());
    let mut w = StateWriter::new();
    wl.save_cursor(&mut w);
    cp.add_section("workload", w.finish());
    cp
}

/// Commits `cp` to `path` with the two-phase protocol. When the system's
/// injector has an armed [`cxl_sim::faults::FaultKind::TornCheckpoint`]
/// fault, the commit is torn at the armed section index instead — the
/// mid-write crash the fault models. Returns whether the commit was torn.
///
/// # Errors
///
/// [`CheckpointError::Io`] if a filesystem step fails.
pub fn commit(sys: &mut System, cp: &Checkpoint, path: &Path) -> Result<bool, CheckpointError> {
    match sys.take_torn_checkpoint() {
        Some(at) => {
            cp.commit_torn(path, at)?;
            Ok(true)
        }
        None => {
            cp.commit(path)?;
            Ok(false)
        }
    }
}

/// A run rebuilt from a checkpoint, ready for [`ChunkedRun::drive_to`].
pub struct ResumedRun {
    /// The restored machine (fresh controller; the manager restore
    /// re-attached its tracker devices and reloaded their SRAM).
    pub sys: System,
    /// The restored manager. `on_start` must NOT be called on it — the
    /// checkpointed run already started it.
    pub m5: M5Manager,
    /// The restored chunk driver. Its report baseline is the original
    /// run's, so the final [`RunReport`] deltas match the uninterrupted
    /// run's.
    pub run: ChunkedRun,
}

/// Rebuilds a run from `cp`. `config` and `plan` are the machine
/// configuration and fault plan the caller would have built the original
/// run with (both pure data, validated / re-armed against the snapshot);
/// `wl` is the freshly rebuilt workload whose cursor is seeked forward.
///
/// Passing a `plan` that differs from the checkpointed one is allowed and
/// deliberate: the checkpoint-seeded crash sweep snapshots a fault-free
/// prefix once, then replays the tail under a different fault each point.
///
/// # Errors
///
/// [`RestoreError::ConfigMismatch`] when `config` differs from the
/// checkpointed one, [`RestoreError::MissingSection`] /
/// [`RestoreError::Corrupt`] on structural damage.
pub fn resume<W>(
    cp: &Checkpoint,
    config: SystemConfig,
    plan: &FaultPlan,
    m5_config: M5Config,
    wl: &mut W,
) -> Result<ResumedRun, RestoreError>
where
    W: StreamCheckpoint + ?Sized,
{
    let mut sys = System::restore(config, plan, cp)?;
    let mut r = StateReader::new(cp.require("m5")?);
    let m5 = M5Manager::restore(m5_config, &mut sys, &mut r).map_err(section_err("m5"))?;
    r.expect_end().map_err(section_err("m5"))?;
    let mut r = StateReader::new(cp.require("run")?);
    let run = ChunkedRun::resume(&mut r).map_err(section_err("run"))?;
    r.expect_end().map_err(section_err("run"))?;
    let mut r = StateReader::new(cp.require("workload")?);
    wl.load_cursor(&mut r).map_err(section_err("workload"))?;
    r.expect_end().map_err(section_err("workload"))?;
    Ok(ResumedRun { sys, m5, run })
}

/// [`resume`] from a file, with the `.prev` fallback: a missing, torn, or
/// corrupt primary image falls back to the previous valid checkpoint.
/// Returns the rebuilt run and whether the fallback was taken.
///
/// # Errors
///
/// [`RestoreError::NoValidCheckpoint`] when neither image validates, plus
/// everything [`resume`] can return.
pub fn resume_from_file<W>(
    path: &Path,
    config: SystemConfig,
    plan: &FaultPlan,
    m5_config: M5Config,
    wl: &mut W,
) -> Result<(ResumedRun, bool), RestoreError>
where
    W: StreamCheckpoint + ?Sized,
{
    let loaded = Checkpoint::load(path)?;
    let resumed = resume(&loaded.checkpoint, config, plan, m5_config, wl)?;
    Ok((resumed, loaded.fell_back))
}

/// What a [`drive_with_checkpoints`] leg accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Commits attempted (periodic, one per interval reached).
    pub commits: u64,
    /// Commits an armed torn-checkpoint fault cut short.
    pub torn_commits: u64,
}

/// Drives to `target`, committing a checkpoint to `path` every `every`
/// accesses (including one at `target`). Armed torn-checkpoint faults
/// tear the matching commit, exactly as a crash mid-write would.
///
/// # Errors
///
/// [`CheckpointError::Io`] if a commit's filesystem step fails.
pub fn drive_with_checkpoints<W>(
    sys: &mut System,
    m5: &mut M5Manager,
    run: &mut ChunkedRun,
    wl: &mut W,
    target: u64,
    every: u64,
    path: &Path,
) -> Result<DriveOutcome, CheckpointError>
where
    W: StreamCheckpoint + ?Sized,
{
    let every = every.max(1);
    let mut out = DriveOutcome::default();
    while run.accesses() < target {
        let next = (run.accesses() + every).min(target);
        run.drive_to(sys, wl, m5, next, DEFAULT_CHUNK_ACCESSES);
        if run.accesses() < next {
            // The stream ended early; nothing more will execute.
            break;
        }
        let cp = capture(sys, m5, run, wl);
        out.commits += 1;
        if commit(sys, &cp, path)? {
            out.torn_commits += 1;
        }
    }
    Ok(out)
}

/// Builds a golden run's machine, workload, and manager — the same
/// construction as [`crate::golden::run_golden`], but without starting
/// the loop, so the chunked / checkpointed drivers can own it.
pub fn golden_parts(g: &GoldenSpec) -> (System, ReplayWorkload, M5Manager) {
    let spec = g.benchmark.spec();
    let (mut sys, region) = crate::standard_system(&spec);
    sys.install_telemetry(Telemetry::enabled());
    let wl = spec.build(region.base, g.accesses, g.seed);
    (sys, wl, M5Manager::new(M5Config::default()))
}

/// [`golden_parts`] on a machine executing `plan`, optionally with the
/// contention model enabled at `background` offered load — the hostile
/// variant of the restore≡continue differential.
/// Oracle hook: only `tests/checkpoint.rs` (restore≡continue) calls it.
pub fn golden_parts_faulted(
    g: &GoldenSpec,
    plan: &FaultPlan,
    background: Option<f64>,
) -> (System, ReplayWorkload, M5Manager) {
    let spec = g.benchmark.spec();
    let (mut sys, region) = match background {
        Some(b) => crate::standard_contended_system_with_faults(&spec, plan, b),
        None => crate::standard_system_with_faults(&spec, plan),
    };
    sys.install_telemetry(Telemetry::enabled());
    let wl = spec.build(region.base, g.accesses, g.seed);
    (sys, wl, M5Manager::new(M5Config::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::faults::FaultKind;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("m5-ckpt-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&d).expect("temp dir creatable");
        d
    }

    #[test]
    fn replay_cursor_roundtrips_through_the_codec() {
        use m5_workloads::registry::Benchmark;
        let spec = Benchmark::Redis.spec();
        let mut wl = spec.build(cxl_sim::addr::VirtAddr(0), 5_000, 9);
        for _ in 0..123 {
            wl.next_access();
        }
        let mut w = StateWriter::new();
        wl.save_cursor(&mut w);
        let bytes = w.finish();
        let mut fresh = spec.build(cxl_sim::addr::VirtAddr(0), 5_000, 9);
        let mut r = StateReader::new(&bytes);
        fresh.load_cursor(&mut r).expect("cursor decodes");
        r.expect_end().expect("nothing trails the cursor");
        assert_eq!(fresh.pos(), 123);
        assert_eq!(fresh.next_access(), wl.next_access());
    }

    #[test]
    fn commit_tears_exactly_when_the_injector_armed_a_fault() {
        let dir = test_dir("commit-torn");
        let path = dir.join("sys.ckpt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("sys.ckpt.prev"));
        let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::TornCheckpoint { at_section: 1 });
        let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
        let region = sys.alloc_region(4, Placement::AllOnCxl).expect("fits");
        sys.access(region.base, false); // polls the injector: the fault arms
        let cp = sys.checkpoint();
        assert!(
            commit(&mut sys, &cp, &path).expect("commit io"),
            "armed fault must tear"
        );
        // A torn primary with no previous image: nothing valid to load.
        assert!(Checkpoint::load(&path).is_err());
        // The fault was consumed; the next commit is clean and loadable.
        let cp2 = sys.checkpoint();
        assert!(!commit(&mut sys, &cp2, &path).expect("commit io"));
        let loaded = Checkpoint::load(&path).expect("clean image loads");
        assert!(!loaded.fell_back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
