//! One rep: build a fresh machine, drive the whole access budget, check
//! the result.
//!
//! Three loops share the same machine construction:
//!
//! * the warm-up rep and the timed reps of the uncheckpointed workloads call
//!   `cxl_sim::system::run`, the entry point every figure bench uses;
//! * traced reps run the same chunked loop from outside, timing each call;
//! * `mcf_chaos_ckpt`'s timed and traced reps use that loop too, and every
//!   [`crate::workload::CKPT_EVERY`] accesses round-trip the whole run through an
//!   in-memory checkpoint and continue on the restored machine.

use crate::span::{Layer, Spans, Timed};
use crate::workload::{self, Daemon, Parts, Workload};
use crate::Metric;
use cxl_sim::checkpoint::fnv64;
use cxl_sim::prelude::*;
use cxl_sim::system::DEFAULT_CHUNK_ACCESSES;
use m5_bench::checkpoint::{capture, resume};
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::ReplayWorkload;
use std::time::Instant;

/// What a rep is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepKind {
    /// Untimed reference: `cxl_sim::system::run`, never checkpointed.
    Warmup,
    /// Untraced measurement rep.
    Timed,
    /// Measurement rep with every layer call recorded as a span.
    Traced,
}

/// The outcome of one rep.
pub struct Rep {
    /// The run report.
    pub report: RunReport,
    /// fnv64 of the report's Debug render plus the telemetry snapshot's.
    pub digest: u64,
    /// Simulated statistics (`model.*`), identical for identical runs.
    pub model: Vec<Metric>,
    /// Invariant violations and budget shortfalls; empty for a good rep.
    pub problems: Vec<String>,
    /// Set-up seconds: trace, machine, daemon construction and `on_start`.
    pub setup_s: f64,
    /// Seconds in `WorkloadSpec::build`.
    pub trace_s: f64,
    /// Seconds building the machine.
    pub machine_s: f64,
    /// Host seconds driving the budget, excluding `on_start`.
    pub run_s: f64,
    /// The spans of a traced rep.
    pub spans: Option<Spans>,
}

/// A run in progress on the chunked loop.
struct Live<D> {
    sys: System,
    daemon: Timed<D>,
    run: ChunkedRun,
}

/// Runs one rep of `w` over `accesses` accesses. A checkpointing rep
/// round-trips every `ckpt_every` accesses.
///
/// # Errors
///
/// A checkpoint decode or restore failure, which ends the rep.
pub fn rep(
    w: Workload,
    accesses: u64,
    seed: u64,
    ckpt_every: u64,
    kind: RepKind,
) -> Result<Rep, String> {
    let Parts {
        sys,
        wl,
        daemon,
        plan,
        trace_s,
        machine_s,
        daemon_s,
    } = workload::build(w, accesses, seed);
    let every = if w.checkpoints() && kind != RepKind::Warmup {
        ckpt_every
    } else {
        u64::MAX
    };
    let mut rep = match daemon {
        Daemon::M5(m5) => drive(sys, wl, *m5, accesses, every, kind, |live, wl| {
            round_trip(live, wl, &plan)
        }),
        Daemon::Anb(anb) => drive(sys, wl, *anb, accesses, every, kind, |_, _| Ok(())),
    }?;
    rep.trace_s = trace_s;
    rep.machine_s = machine_s;
    rep.setup_s += trace_s + machine_s + daemon_s;
    Ok(rep)
}

fn drive<D: MigrationDaemon>(
    mut sys: System,
    mut wl: ReplayWorkload,
    daemon: D,
    accesses: u64,
    every: u64,
    kind: RepKind,
    round_trip: impl FnMut(&mut Live<D>, &mut ReplayWorkload) -> Result<(), String>,
) -> Result<Rep, String> {
    let mut daemon = Timed::new(daemon, kind == RepKind::Traced);
    let t = Instant::now();
    let (report, sys, mut daemon) = if kind != RepKind::Traced && every == u64::MAX {
        let report = cxl_sim::system::run(&mut sys, &mut wl, &mut daemon, accesses);
        (report, sys, daemon)
    } else {
        let run = ChunkedRun::begin(&mut sys, &mut daemon);
        let mut live = Live { sys, daemon, run };
        drive_loop(&mut live, &mut wl, accesses, every, round_trip)?;
        let Live {
            mut sys,
            mut daemon,
            run,
        } = live;
        let start = daemon.spans.as_ref().map(Spans::now);
        let report = run.finish(&mut sys, &daemon);
        if let (Some(s), Some(t)) = (&mut daemon.spans, start) {
            s.record(Layer::Report, t, 0);
        }
        (report, sys, daemon)
    };
    let run_s = t.elapsed().as_secs_f64() - daemon.on_start_s;

    let mut problems = sys.check_invariants();
    if report.accesses < accesses {
        problems.push(format!(
            "completed {} of {accesses} accesses",
            report.accesses
        ));
    }
    Ok(Rep {
        model: model(&report, &sys),
        digest: digest(&report, &sys),
        problems,
        setup_s: daemon.on_start_s,
        trace_s: 0.0,
        machine_s: 0.0,
        run_s,
        spans: daemon.spans.take(),
        report,
    })
}

/// The chunked loop: fill a chunk, drive it, and after every `every`
/// accesses hand the run to `between`. Identical in effect to
/// `cxl_sim::system::run` when `between` leaves the run alone.
fn drive_loop<D: MigrationDaemon>(
    live: &mut Live<D>,
    wl: &mut ReplayWorkload,
    accesses: u64,
    every: u64,
    mut between: impl FnMut(&mut Live<D>, &mut ReplayWorkload) -> Result<(), String>,
) -> Result<(), String> {
    let mut chunk = AccessChunk::with_capacity(DEFAULT_CHUNK_ACCESSES);
    loop {
        let target = live.run.accesses().saturating_add(every).min(accesses);
        while live.run.accesses() < target {
            chunk.clear();
            let left = target - live.run.accesses();
            chunk.set_limit(left.min(chunk.capacity() as u64) as usize);
            let start = live.daemon.spans.as_ref().map(Spans::now);
            let n = wl.fill_chunk(&mut chunk);
            if let (Some(s), Some(t)) = (&mut live.daemon.spans, start) {
                s.record(Layer::Gen, t, n as u64);
            }
            if n == 0 {
                return Ok(());
            }
            let id = live.daemon.spans.as_mut().map(|s| s.open(Layer::Drive));
            live.run
                .drive(&mut live.sys, &mut live.daemon, &chunk, target);
            if let (Some(s), Some(id)) = (&mut live.daemon.spans, id) {
                s.close(id);
            }
        }
        if live.run.accesses() >= accesses {
            return Ok(());
        }
        between(live, wl)?;
    }
}

/// Captures the whole run, encodes and decodes the image, and continues on
/// the machine, manager and `ChunkedRun` restored from it.
fn round_trip(
    live: &mut Live<M5Manager>,
    wl: &mut ReplayWorkload,
    plan: &FaultPlan,
) -> Result<(), String> {
    let Live { sys, daemon, run } = live;
    let spans = &mut daemon.spans;
    let parent = spans.as_mut().map(|s| s.open(Layer::Ckpt));
    let step = |spans: &mut Option<Spans>, layer: Layer, t: Option<u64>, work: u64| {
        if let (Some(s), Some(t)) = (spans.as_mut(), t) {
            s.record(layer, t, work);
        }
        spans.as_ref().map(Spans::now)
    };
    let t = spans.as_ref().map(Spans::now);
    let cp = capture(sys, &daemon.inner, run, wl);
    let t = step(spans, Layer::Capture, t, 0);
    let bytes = cp.encode();
    let t = step(spans, Layer::Encode, t, bytes.len() as u64);
    let cp = Checkpoint::decode(&bytes).map_err(|e| format!("checkpoint decode: {e}"))?;
    let t = step(spans, Layer::Decode, t, 0);
    let resumed = resume(&cp, sys.config().clone(), plan, M5Config::default(), wl)
        .map_err(|e| format!("checkpoint resume: {e}"))?;
    *sys = resumed.sys;
    daemon.inner = resumed.m5;
    *run = resumed.run;
    step(spans, Layer::Restore, t, 0);
    if let (Some(s), Some(id)) = (spans.as_mut(), parent) {
        s.close(id);
    }
    Ok(())
}

/// fnv64 of the report's Debug render followed by the telemetry
/// snapshot's: equal digests mean the runs were indistinguishable.
pub fn digest(report: &RunReport, sys: &System) -> u64 {
    let snap = sys.telemetry().snapshot();
    fnv64(format!("{report:?}{snap:?}").as_bytes())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulated statistics of a finished run: `model.*` in report order.
pub fn model(r: &RunReport, sys: &System) -> Vec<Metric> {
    let (ddr, cxl) = (r.reads_on(NodeId::Ddr), r.reads_on(NodeId::Cxl));
    let count = |name: &str, v: u64| Metric::new(format!("model.{name}"), v as f64, "count");
    let mut out = vec![
        count("llc_hits", r.llc_hits),
        count("llc_misses", r.llc_misses),
        Metric::new(
            "model.llc_miss_ratio",
            ratio(r.llc_misses, r.llc_hits + r.llc_misses),
            "ratio",
        ),
        count("tlb_misses", sys.tlb().misses()),
        count("dram_reads_ddr", ddr),
        count("dram_reads_cxl", cxl),
        Metric::new("model.cxl_read_share", ratio(cxl, ddr + cxl), "ratio"),
        count("writebacks", sys.llc().writebacks()),
        count("hinting_faults", r.hinting_faults),
        count("promotions", r.migrations.promotions),
        count("demotions", r.migrations.demotions),
        count("rejected", r.migrations.rejected),
        count("faults_injected", r.health.faults_injected),
        Metric::new(
            "model.op_p99_us",
            r.p99().map_or(0.0, Nanos::as_micros_f64),
            "us",
        ),
    ];
    for kind in CostKind::ALL {
        let name = match kind {
            CostKind::HintingFault => "hinting_fault",
            CostKind::TlbShootdown => "tlb_shootdown",
            CostKind::PteScan => "pte_scan",
            CostKind::Migration => "migration",
            CostKind::ManagerQuery => "manager_query",
            CostKind::DaemonOther => "daemon_other",
            CostKind::JournalWrite => "journal_write",
            CostKind::RasScrub => "ras_scrub",
        };
        out.push(Metric::new(
            format!("model.kernel_ms.{name}"),
            r.kernel.of(kind).0 as f64 / 1e6,
            "ms",
        ));
    }
    out
}
