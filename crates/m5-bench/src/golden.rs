//! Golden-trace differential harness.
//!
//! A golden run drives a fixed workload, seed, and access budget through
//! the standard scaled machine with the M5 manager and an enabled
//! telemetry bus, then renders the resulting [`MetricsSnapshot`] into a
//! canonical, line-oriented text form. Checked-in goldens (under
//! `crates/m5-bench/goldens/`) are diffed against fresh runs with
//! per-metric tolerances, so any change to the simulator's accounting, the
//! manager's behaviour, or the telemetry plumbing shows up as a readable
//! metric-level diff rather than a silent drift.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p m5-bench --test golden
//! ```
//!
//! Set `M5_GOLDEN_ARTIFACTS=<dir>` to also write each run's JSONL event
//! trace and human-readable metrics summary there (CI uploads these on
//! failure).

use cxl_sim::prelude::*;
use cxl_sim::system::run;
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::registry::Benchmark;
use std::fmt::Write as _;
use std::path::Path;

/// One golden workload: a benchmark pinned to a seed and access budget.
#[derive(Clone, Copy, Debug)]
pub struct GoldenSpec {
    /// Short name; also the golden file stem (`golden_<name>.txt`).
    pub name: &'static str,
    /// The workload.
    pub benchmark: Benchmark,
    /// Trace seed.
    pub seed: u64,
    /// Access budget (sized for seconds, not minutes, of runtime).
    pub accesses: u64,
}

/// The three golden workloads: a graph kernel, a key-value store, and a
/// SPEC-like scientific workload — one per workload family the paper
/// evaluates.
pub const GOLDENS: [GoldenSpec; 3] = [
    GoldenSpec {
        name: "graph",
        benchmark: Benchmark::Pr,
        seed: 42,
        accesses: 250_000,
    },
    GoldenSpec {
        name: "kv",
        benchmark: Benchmark::Redis,
        seed: 42,
        accesses: 250_000,
    },
    GoldenSpec {
        name: "spec",
        benchmark: Benchmark::Mcf,
        seed: 42,
        accesses: 250_000,
    },
];

/// Runs one golden workload to completion, returning the telemetry
/// snapshot and the run report. When `jsonl` is given, the full event
/// stream and final snapshot are written there as JSONL.
pub fn run_golden(g: &GoldenSpec, jsonl: Option<&Path>) -> (MetricsSnapshot, RunReport) {
    let spec = g.benchmark.spec();
    let (mut sys, region) = crate::standard_system(&spec);
    let mut t = Telemetry::enabled();
    if let Some(path) = jsonl {
        if let Ok(f) = std::fs::File::create(path) {
            t.add_sink(Box::new(JsonlSink::new(f)));
        }
    }
    sys.install_telemetry(t);
    let mut wl = spec.build(region.base, g.accesses, g.seed);
    let mut m5 = M5Manager::new(M5Config::default());
    let report = run(&mut sys, &mut wl, &mut m5, g.accesses);
    sys.telemetry_mut().flush();
    (sys.telemetry().snapshot(), report)
}

/// Renders a snapshot into the canonical golden text form: one line per
/// metric, sorted (the snapshot already is), floats at fixed precision so
/// the text is byte-stable for identical runs.
pub fn render(name: &str, snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# golden metrics snapshot: {name}");
    let _ = writeln!(
        out,
        "# regenerate: UPDATE_GOLDENS=1 cargo test -p m5-bench --test golden"
    );
    for (k, v) in &snap.counters {
        let _ = writeln!(out, "counter {k} {v}");
    }
    for (k, v) in &snap.gauges {
        let _ = writeln!(out, "gauge {k} {v:.3}");
    }
    for (k, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "hist {k} {} {} {} {} {}",
            h.count, h.sum, h.max, h.p50, h.p99
        );
    }
    out
}

/// A parsed golden line: metric kind, key, and numeric fields.
type Lines = std::collections::BTreeMap<String, (String, Vec<f64>)>;

fn parse(text: &str) -> Lines {
    let mut out = Lines::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(kind), Some(key)) = (it.next(), it.next()) else {
            continue;
        };
        let fields: Vec<f64> = it.filter_map(|t| t.parse().ok()).collect();
        out.insert(format!("{kind} {key}"), (kind.to_string(), fields));
    }
    out
}

/// Relative tolerance for one field of one metric. Counts are exact (the
/// simulator is deterministic); time- and rate-derived values get 1%
/// headroom so a cost-model tweak elsewhere doesn't churn every golden.
fn rel_tolerance(kind: &str, key: &str, field: usize) -> f64 {
    match kind {
        "counter" if key.starts_with("sim.kernel.ns") => 0.01,
        "counter" => 0.0,
        "gauge" => 0.01,
        // hist fields: count sum max p50 p99 — count exact, rest 1%.
        "hist" if field == 0 => 0.0,
        _ => 0.01,
    }
}

fn within(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Diffs a golden text against a freshly rendered one, returning one
/// human-readable line per out-of-tolerance metric (empty = match).
pub fn diff(expected: &str, actual: &str) -> Vec<String> {
    let e = parse(expected);
    let a = parse(actual);
    let mut out = Vec::new();
    for (key, (kind, ev)) in &e {
        match a.get(key) {
            None => out.push(format!("missing from run: {key}")),
            Some((_, av)) => {
                if av.len() != ev.len() {
                    out.push(format!(
                        "{key}: field count {} != golden {}",
                        av.len(),
                        ev.len()
                    ));
                    continue;
                }
                for (i, (&want, &got)) in ev.iter().zip(av).enumerate() {
                    let tol = rel_tolerance(kind, key.split(' ').nth(1).unwrap_or(""), i);
                    if !within(want, got, tol) {
                        out.push(format!(
                            "{key} field {i}: got {got}, golden {want} (tol {:.0}%)",
                            tol * 100.0
                        ));
                    }
                }
            }
        }
    }
    for key in a.keys() {
        if !e.contains_key(key) {
            out.push(format!("new metric not in golden: {key}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_and_exact_diff() {
        let text =
            "# comment\ncounter sim.llc{hit} 10\ngauge bw{ddr} 2.500\nhist lat{} 4 100 60 32 60\n";
        let p = parse(text);
        assert_eq!(p.len(), 3);
        assert_eq!(p["counter sim.llc{hit}"].1, vec![10.0]);
        assert!(diff(text, text).is_empty());
    }

    #[test]
    fn diff_flags_out_of_tolerance_and_missing_metrics() {
        let golden = "counter sim.accesses{read} 100\ncounter sim.kernel.ns{migration} 1000\n";
        // Exact counter off by one: flagged. Kernel ns within 1%: not.
        let run = "counter sim.accesses{read} 101\ncounter sim.kernel.ns{migration} 1005\ncounter extra{} 1\n";
        let d = diff(golden, run);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|l| l.contains("sim.accesses")));
        assert!(d.iter().any(|l| l.contains("new metric")));
        // 2% off on kernel ns is out of tolerance.
        let run2 = "counter sim.accesses{read} 100\ncounter sim.kernel.ns{migration} 1020\n";
        assert_eq!(diff(golden, run2).len(), 1);
    }
}
