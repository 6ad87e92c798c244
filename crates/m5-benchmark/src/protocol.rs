//! The run protocol for one workload and the metrics it reports.
//!
//! 1. One untimed warm-up rep warms host caches and the graph cache, and
//!    is the reference every later rep must reproduce exactly.
//! 2. Timed untraced reps give the end-to-end metrics.
//! 3. Traced reps give the per-layer metrics; their spans are pooled for
//!    percentiles.
//!
//! Every rep is closed-loop and single-threaded: one caller, and each chunk
//! waits for the previous one. The modelled LLC and TLB start empty in
//! every rep.

use crate::rep::{rep, Rep, RepKind};
use crate::span::{Layer, Spans};
use crate::stats::{median, Tail};
use crate::workload::{Workload, CKPT_EVERY, FULL_ACCESSES, QUICK_ACCESSES};
use crate::Metric;
use std::time::Instant;

/// Which metric set a run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Want {
    /// End-to-end metrics only (timed reps).
    EndToEnd,
    /// Per-layer metrics only (traced reps, plus untraced reps for
    /// `trace.overhead`).
    PerLayer,
    /// Both sets.
    Both,
}

/// How much to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Accesses per rep.
    pub accesses: u64,
    /// Input seed.
    pub seed: u64,
    /// Timed reps to run at least.
    pub timed_min: usize,
    /// Keep adding timed reps until this many seconds of them have run.
    pub seconds: f64,
    /// Traced reps.
    pub traced: usize,
    /// Which metrics to report.
    pub want: Want,
}

impl Options {
    /// A full run: 24 M accesses, 5 timed and 2 traced reps.
    pub fn full(seed: u64) -> Options {
        Options {
            accesses: FULL_ACCESSES,
            seed,
            timed_min: 5,
            seconds: 0.0,
            traced: 2,
            want: Want::Both,
        }
    }

    /// The `--quick` smoke run: 2 M accesses, 2 timed and 1 traced rep.
    pub fn quick(seed: u64) -> Options {
        Options {
            accesses: QUICK_ACCESSES,
            timed_min: 2,
            traced: 1,
            ..Options::full(seed)
        }
    }
}

/// What one workload's run produced.
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// The warm-up rep's digest, which every other rep reproduced.
    pub digest: u64,
    /// Reps attempted, warm-up included.
    pub attempted: u64,
    /// One line per failed rep.
    pub failures: Vec<String>,
    /// End-to-end metrics, in declaration order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in declaration order.
    pub per_layer: Vec<Metric>,
    /// The traced reps' spans.
    pub spans: Vec<Spans>,
}

/// Runs one rep and checks it against the warm-up reference: no
/// invariant violations, the whole budget completed, and the same digest
/// and simulated statistics.
fn checked(
    w: Workload,
    o: &Options,
    kind: RepKind,
    reference: Option<&Rep>,
    out: &mut Outcome,
) -> Option<Rep> {
    out.attempted += 1;
    let r = match rep(w, o.accesses, o.seed, CKPT_EVERY, kind) {
        Ok(r) => r,
        Err(e) => {
            out.failures.push(format!("{kind:?} rep: {e}"));
            return None;
        }
    };
    let mut problems = r.problems.clone();
    if let Some(reference) = reference {
        if r.digest != reference.digest {
            problems.push(format!(
                "digest {:#018x} differs from the warm-up's {:#018x}",
                r.digest, reference.digest
            ));
        }
        if r.model != reference.model {
            problems.push("simulated statistics differ from the warm-up's".into());
        }
    }
    if problems.is_empty() {
        Some(r)
    } else {
        out.failures
            .push(format!("{kind:?} rep: {}", problems.join("; ")));
        None
    }
}

/// Runs the protocol for `w`.
pub fn run_workload(w: Workload, o: &Options) -> Outcome {
    let mut out = Outcome {
        workload: w,
        digest: 0,
        attempted: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        spans: Vec::new(),
    };
    let Some(warm) = checked(w, o, RepKind::Warmup, None, &mut out) else {
        return out;
    };
    out.digest = warm.digest;

    // Per-layer runs need only enough untraced reps for `trace.overhead`.
    let (timed_min, seconds) = match o.want {
        Want::PerLayer => (o.timed_min.min(2), 0.0),
        _ => (o.timed_min, o.seconds),
    };
    let start = Instant::now();
    let mut timed = Vec::new();
    let mut tries = 0;
    while tries < timed_min || start.elapsed().as_secs_f64() < seconds {
        tries += 1;
        timed.extend(checked(w, o, RepKind::Timed, Some(&warm), &mut out));
    }
    let mut traced = Vec::new();
    if o.want != Want::EndToEnd {
        for _ in 0..o.traced {
            traced.extend(checked(w, o, RepKind::Traced, Some(&warm), &mut out));
        }
    }

    if o.want != Want::PerLayer {
        out.end_to_end = end_to_end(o, &warm, &timed);
    }
    if o.want != Want::EndToEnd {
        out.per_layer = per_layer(o, &warm, &timed, &traced);
    }
    out.spans = traced.into_iter().filter_map(|r| r.spans).collect();
    out
}

/// `median of n=… min=… max=…` for a sample set.
fn spread(samples: &[f64]) -> String {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of n={} min={min} max={max}", samples.len())
}

fn acc_per_s(o: &Options, reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| o.accesses as f64 / r.run_s).collect()
}

fn end_to_end(o: &Options, warm: &Rep, timed: &[Rep]) -> Vec<Metric> {
    let aps = acc_per_s(o, timed);
    let setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
    vec![
        Metric::new("acc_per_s", median(&aps), "acc/s").note(spread(&aps)),
        Metric::new("setup_s", median(&setup), "s").note(spread(&setup)),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
        Metric::new("simulated_s", warm.report.total_time.as_secs_f64(), "s"),
    ]
}

/// Durations in ns of the rep's spans of `layer`.
fn ns_of(spans: &Spans, layer: Layer) -> Vec<f64> {
    spans
        .spans()
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Seconds the rep's spans of `layer` cover.
fn secs(spans: &Spans, layer: Layer) -> f64 {
    ns_of(spans, layer).iter().fold(0.0, |a, ns| a + ns) / 1e9
}

/// Work summed over the rep's spans of `layer`.
fn work(spans: &Spans, layer: Layer) -> f64 {
    spans
        .spans()
        .iter()
        .filter(|s| s.layer == layer)
        .fold(0.0, |a, s| a + s.work as f64)
}

/// Self time in ns of each drive span: its duration minus its tick and
/// fault children.
fn engine_ns(spans: &Spans) -> Vec<f64> {
    let all = spans.spans();
    let mut own: Vec<f64> = all.iter().map(|s| s.ns() as f64).collect();
    for s in all {
        if let Some(p) = s.parent {
            own[p] -= s.ns() as f64;
        }
    }
    all.iter()
        .zip(own)
        .filter(|(s, _)| s.layer == Layer::Drive)
        .map(|(_, ns)| ns)
        .collect()
}

fn engine_s(s: &Spans) -> f64 {
    secs(s, Layer::Drive) - secs(s, Layer::Tick) - secs(s, Layer::Fault)
}

fn gen_s(s: &Spans) -> f64 {
    secs(s, Layer::Gen)
}

fn gen_ns(s: &Spans) -> Vec<f64> {
    ns_of(s, Layer::Gen)
}

/// Pushes `{name}.p{p}` for each `p`; a percentile the sample count does
/// not support reads 0, and the note gives the count.
fn push_tail(out: &mut Vec<Metric>, name: &str, t: &Tail, ps: &[u32], unit: &'static str) {
    for &p in ps {
        out.push(
            Metric::new(format!("{name}.p{p}"), t.at(p).unwrap_or(0.0), unit).note(t.to_string()),
        );
    }
}

fn per_layer(o: &Options, warm: &Rep, timed: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let reps: Vec<(&Rep, &Spans)> = traced
        .iter()
        .filter_map(|r| r.spans.as_ref().map(|s| (r, s)))
        .collect();
    // The median over traced reps of a per-rep quantity.
    let med = |f: &dyn Fn(&Rep, &Spans) -> f64| {
        median(&reps.iter().map(|&(r, s)| f(r, s)).collect::<Vec<_>>())
    };
    // Per-call durations pooled over the traced reps, scaled from ns.
    let pooled = |f: &dyn Fn(&Spans) -> Vec<f64>, scale: f64| {
        Tail::of(
            reps.iter()
                .flat_map(|&(_, s)| f(s))
                .map(|ns| ns / scale)
                .collect(),
        )
    };
    let measured: Vec<f64> = timed.iter().chain(traced).map(|r| r.trace_s).collect();
    let machine: Vec<f64> = timed.iter().chain(traced).map(|r| r.machine_s).collect();
    let mut out = vec![
        Metric::new("setup.trace_s", median(&measured), "s"),
        Metric::new("setup.machine_s", median(&machine), "s"),
        Metric::new("setup.cold_s", warm.setup_s, "s"),
    ];

    type SelfTime = fn(&Spans) -> f64;
    type PerCall = fn(&Spans) -> Vec<f64>;
    let own: [(&str, SelfTime, PerCall); 2] =
        [("gen", gen_s, gen_ns), ("engine", engine_s, engine_ns)];
    for (name, self_s, per_call) in own {
        out.push(Metric::new(
            format!("{name}.self_s"),
            med(&|_, s| self_s(s)),
            "s",
        ));
        out.push(Metric::new(
            format!("{name}.share"),
            med(&|r, s| self_s(s) / r.run_s),
            "ratio",
        ));
        out.push(Metric::new(
            format!("{name}.ns_per_acc"),
            med(&|_, s| self_s(s) * 1e9 / o.accesses as f64),
            "ns",
        ));
        push_tail(
            &mut out,
            &format!("{name}.call_us"),
            &pooled(&per_call, 1e3),
            &[50, 99],
            "us",
        );
    }

    for (name, layer, p) in [("tick", Layer::Tick, 90), ("fault", Layer::Fault, 99)] {
        out.push(Metric::new(
            format!("{name}.calls"),
            med(&|_, s| ns_of(s, layer).len() as f64),
            "count",
        ));
        out.push(Metric::new(
            format!("{name}.self_s"),
            med(&|_, s| secs(s, layer)),
            "s",
        ));
        out.push(Metric::new(
            format!("{name}.share"),
            med(&|r, s| secs(s, layer) / r.run_s),
            "ratio",
        ));
        let t = pooled(&|s| ns_of(s, layer), 1e3);
        push_tail(&mut out, &format!("{name}.us"), &t, &[50, p], "us");
        out.push(Metric::new(
            format!("{name}.pages_moved"),
            med(&|_, s| work(s, layer)),
            "count",
        ));
    }

    out.push(Metric::new(
        "report.finish_ms",
        med(&|_, s| secs(s, Layer::Report) * 1e3),
        "ms",
    ));

    out.push(Metric::new(
        "ckpt.calls",
        med(&|_, s| ns_of(s, Layer::Ckpt).len() as f64),
        "count",
    ));
    out.push(Metric::new(
        "ckpt.share",
        med(&|r, s| secs(s, Layer::Ckpt) / r.run_s),
        "ratio",
    ));
    let bytes = Tail::of(
        reps.iter()
            .flat_map(|&(_, s)| s.spans())
            .filter(|x| x.layer == Layer::Encode)
            .map(|x| x.work as f64)
            .collect(),
    );
    out.push(Metric::new("ckpt.bytes", bytes.at(50).unwrap_or(0.0), "B").note(bytes.to_string()));
    for (name, layer, ps) in [
        ("capture", Layer::Capture, &[50, 90][..]),
        ("encode", Layer::Encode, &[50]),
        ("decode", Layer::Decode, &[50]),
        ("restore", Layer::Restore, &[50, 90]),
    ] {
        let t = pooled(&|s| ns_of(s, layer), 1e6);
        push_tail(&mut out, &format!("ckpt.{name}_ms"), &t, ps, "ms");
    }

    out.extend(warm.model.iter().cloned());

    let traced_aps = median(&acc_per_s(o, traced));
    let overhead = if traced_aps > 0.0 {
        median(&acc_per_s(o, timed)) / traced_aps
    } else {
        0.0
    };
    out.push(Metric::new("trace.overhead", overhead, "ratio"));
    let gap = med(&|r, s| {
        let covered: f64 = [Layer::Gen, Layer::Drive, Layer::Report, Layer::Ckpt]
            .into_iter()
            .map(|l| secs(s, l))
            .sum();
        1.0 - covered / r.run_s
    });
    out.push(Metric::new("trace.ledger_gap", gap, "ratio"));
    out
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak resident set to the current one, so the next
/// workload's `peak_rss_mib` is its own.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
