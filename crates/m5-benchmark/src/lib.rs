//! # m5-benchmark — end-to-end and per-layer host-time benchmark
//!
//! Runs four single-threaded, closed-loop workloads through the simulator
//! (see [`workload::Workload`]) and reports, per workload:
//!
//! * end-to-end metrics from untraced reps: host throughput, set-up time,
//!   peak resident memory and simulated application time;
//! * per-layer metrics from traced reps: self time, share and per-call
//!   tails of trace generation, the access engine, daemon ticks and
//!   faults, report assembly and checkpointing, plus the simulated
//!   statistics of the modelled machine.
//!
//! Every rep is checked: it must complete its budget with clean
//! invariants and reproduce the warm-up rep's digest and simulated
//! statistics exactly. The model is not validated against hardware, so
//! no accuracy figure is reported.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod rep;
pub mod span;
pub mod stats;
pub mod workload;

pub use workload::Workload;

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count and spread, for the text report.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }

    /// The `workload metric value unit` report line.
    pub fn line(&self, workload: &str) -> String {
        let mut s = format!("{workload} {} {} {}", self.name, self.value, self.unit);
        if !self.note.is_empty() {
            let _ = write!(s, "  ({})", self.note);
        }
        s
    }
}

/// Renders `{"name": {"value": v, "unit": u}, ...}` from `(name, metric)`
/// pairs. Every value the benchmark computes is finite.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (String, &'a Metric)>) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
