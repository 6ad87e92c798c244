//! Wall-clock throughput bench: accesses/sec of the hot access pipeline.
//!
//! Four suites:
//!
//! * **golden** — the three golden workloads (`m5_bench::golden::GOLDENS`)
//!   driven through the standard machine with the M5 manager and an
//!   *enabled* telemetry bus, exactly like the golden differential harness.
//!   This is the instrumented end-to-end pipeline the figure benches pay
//!   for on every run. A sequential chunk loop times `fill_chunk`
//!   apart from `ChunkedRun::drive` + `finish`, so `gen_ns + sim_ns ==
//!   wall_ns` holds exactly and `accesses_per_sec` stays simulation-only.
//! * **gen** — workload generation alone: record the trace, then drain it
//!   through `fill_chunk` into reusable chunks. The producer half of the
//!   golden suite's loop, isolated.
//! * **loaded_off** — the loaded-latency sweep's driver (Zipf workload
//!   under the `MonitorOnly` heartbeat) on the fixed-cost machine, so the
//!   gate covers the sweep path with contention-off numbers that stay
//!   comparable across machines.
//! * **micro** — a random-access stream with no daemon and telemetry
//!   disabled: the bare `System::access` path.
//!
//! Writes `BENCH_throughput.json` (override with `--out PATH`) so CI can
//! track the performance trajectory. With `--check BASELINE.json` it
//! prints a per-suite delta table against the committed baseline and
//! exits non-zero if any suite regresses more than 20 %.
//!
//! JSON schema, one suite object per line (the `--check` parser is
//! line-based and expects `accesses_per_sec` last on the line):
//!
//! ```text
//! {"name": str,             suite identifier
//!  "accesses": u64,         simulated accesses per rep
//!  "wall_ns": u128,         best rep's total wall time; == gen_ns + sim_ns
//!  "gen_ns": u128,          workload build + generation (wall_ns - sim_ns)
//!  "sim_ns": u128,          simulate-side wall time (0 for gen-only suites)
//!  "accesses_per_sec": f64} accesses / sim_ns (per wall_ns if sim_ns == 0)
//! ```

use cxl_sim::chunk::AccessChunk;
use cxl_sim::prelude::*;
use cxl_sim::system::DEFAULT_CHUNK_ACCESSES;
use m5_bench::golden::GOLDENS;
use m5_core::manager::{M5Config, M5Manager};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One measured suite: name, accesses executed, and the best rep's wall
/// time split into its generate/simulate halves (`wall_ns == gen_ns +
/// sim_ns`; either half may be zero for suites that only exercise one).
/// The two halves run one after the other, never concurrently.
struct Measurement {
    name: String,
    accesses: u64,
    wall_ns: u128,
    gen_ns: u128,
    sim_ns: u128,
}

impl Measurement {
    /// Simulation throughput: per simulate-side time when the suite has a
    /// simulate half, per total wall time for generation-only suites.
    fn accesses_per_sec(&self) -> f64 {
        let ns = if self.sim_ns > 0 {
            self.sim_ns
        } else {
            self.wall_ns
        };
        if ns == 0 {
            return 0.0;
        }
        self.accesses as f64 / (ns as f64 / 1e9)
    }
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Drives `wl` to `accesses` one chunk at a time, as
/// `ChunkedRun::drive_to` does, timing the simulate side. Returns the
/// report and the nanoseconds spent in `drive` and `finish`; the rest of
/// the caller's wall time is generation.
fn run_timed<W>(
    sys: &mut System,
    wl: &mut W,
    m5: &mut M5Manager,
    accesses: u64,
) -> (RunReport, u128)
where
    W: AccessStream + ?Sized,
{
    let mut run = ChunkedRun::begin(sys, m5);
    let mut chunk = AccessChunk::with_capacity(DEFAULT_CHUNK_ACCESSES);
    let mut sim_ns = 0;
    while run.accesses() < accesses {
        chunk.clear();
        let left = accesses - run.accesses();
        chunk.set_limit(left.min(DEFAULT_CHUNK_ACCESSES as u64) as usize);
        if wl.fill_chunk(&mut chunk) == 0 {
            break;
        }
        let t = Instant::now();
        run.drive(sys, m5, &chunk, accesses);
        sim_ns += t.elapsed().as_nanos();
    }
    let t = Instant::now();
    let report = run.finish(sys, m5);
    (report, sim_ns + t.elapsed().as_nanos())
}

/// The three goldens end to end: the M5 manager, an enabled telemetry
/// bus, and the golden harness's chunked run — timed by [`run_timed`].
fn golden_suite(accesses: u64, reps: u32) -> Vec<Measurement> {
    GOLDENS
        .iter()
        .map(|g| {
            let spec = g.benchmark.spec();
            // (sim, wall) of the rep with the best simulate time — wall
            // and gen are taken from the same rep so the wall = gen + sim
            // invariant holds per measurement.
            let mut best: Option<(u128, u128)> = None;
            for _ in 0..reps {
                let (mut sys, region) = m5_bench::standard_system(&spec);
                sys.install_telemetry(Telemetry::enabled());
                let t0 = Instant::now();
                let mut wl = spec.build(region.base, accesses, g.seed);
                let mut m5 = M5Manager::new(M5Config::default());
                let (report, sim) = run_timed(&mut sys, &mut wl, &mut m5, accesses);
                let wall = t0.elapsed().as_nanos();
                assert_eq!(report.accesses, accesses, "workload ended early");
                if best.is_none_or(|(s, _)| sim < s) {
                    best = Some((sim, wall));
                }
            }
            let (sim, wall) = best.expect("reps >= 1");
            Measurement {
                name: format!("golden_{}", g.name),
                accesses,
                wall_ns: wall,
                gen_ns: wall - sim,
                sim_ns: sim,
            }
        })
        .collect()
}

/// Generation-only suites: record the trace and stream it through
/// `fill_chunk` into a reusable chunk — the exact producer work the
/// golden suite counts as `gen_ns`.
fn gen_suite(accesses: u64, reps: u32) -> Vec<Measurement> {
    GOLDENS
        .iter()
        .map(|g| {
            let spec = g.benchmark.spec();
            let base = cxl_sim::addr::VirtAddr(1 << 30);
            let mut best = u128::MAX;
            let mut chunk = AccessChunk::with_capacity(DEFAULT_CHUNK_ACCESSES);
            for _ in 0..reps {
                let t0 = Instant::now();
                let mut wl = spec.build(base, accesses, g.seed);
                let mut drained = 0u64;
                loop {
                    chunk.clear();
                    let n = wl.fill_chunk(&mut chunk);
                    if n == 0 {
                        break;
                    }
                    drained += n as u64;
                }
                let wall = t0.elapsed().as_nanos();
                // Generators may overshoot by the tail of the last op.
                assert!(drained >= accesses, "trace shorter than budget");
                best = best.min(wall);
            }
            Measurement {
                name: format!("gen_{}", g.name),
                accesses,
                wall_ns: best,
                gen_ns: best,
                sim_ns: 0,
            }
        })
        .collect()
}

/// The loaded-latency sweep's driver with contention **off**: the Zipf
/// golden workload under the `MonitorOnly` heartbeat on the fixed-cost
/// machine. This is the wall-clock cost of the sweep harness itself
/// (window rollovers included, queueing excluded), so the regression gate
/// covers the loaded-latency path with numbers that stay comparable
/// across machines regardless of contention parameters.
fn loaded_off_suite(accesses: u64, reps: u32) -> Measurement {
    let g = &GOLDENS[2];
    let spec = g.benchmark.spec();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let (mut sys, region) = m5_bench::standard_system(&spec);
        let mut wl = spec.build(region.base, accesses, g.seed);
        let mut daemon = m5_bench::loaded::MonitorOnly::new(Nanos::from_micros(100));
        let t0 = Instant::now();
        let report = cxl_sim::system::run(&mut sys, &mut wl, &mut daemon, accesses);
        let wall = t0.elapsed().as_nanos();
        assert_eq!(report.accesses, accesses, "workload ended early");
        best = best.min(wall);
    }
    Measurement {
        name: "loaded_off".into(),
        accesses,
        wall_ns: best,
        gen_ns: 0,
        sim_ns: best,
    }
}

fn micro_suite(accesses: u64, reps: u32) -> Measurement {
    let pages = 4096u64;
    let mut rng = SmallRng::seed_from_u64(5);
    let addrs: Vec<u64> = (0..65_536)
        .map(|_| rng.gen_range(0..pages * 4096))
        .collect();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let mut sys = System::new(
            SystemConfig::scaled_default()
                .with_cxl_frames(pages + 64)
                .with_ddr_frames(pages),
        );
        let region = sys
            .alloc_region(pages, Placement::AllOnCxl)
            .expect("CXL sized to fit");
        let t0 = Instant::now();
        let mut i = 0usize;
        for _ in 0..accesses {
            let a = addrs[i];
            i = (i + 1) & (addrs.len() - 1);
            std::hint::black_box(sys.access(region.base.offset(a), false));
        }
        best = best.min(t0.elapsed().as_nanos());
    }
    Measurement {
        name: "micro_random".into(),
        accesses,
        wall_ns: best,
        gen_ns: 0,
        sim_ns: best,
    }
}

fn render_json(ms: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"suites\": [\n");
    for (i, m) in ms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"accesses\": {}, \"wall_ns\": {}, \
             \"gen_ns\": {}, \"sim_ns\": {}, \
             \"accesses_per_sec\": {:.0}}}{}\n",
            m.name,
            m.accesses,
            m.wall_ns,
            m.gen_ns,
            m.sim_ns,
            m.accesses_per_sec(),
            if i + 1 < ms.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, accesses_per_sec)` pairs from the bench's own JSON
/// (a full parser is overkill for a format we also write).
fn parse_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Some(aps) = line
            .split("\"accesses_per_sec\": ")
            .nth(1)
            .and_then(|s| s.trim_end_matches(['}', ',', ' ']).parse::<f64>().ok())
        else {
            continue;
        };
        out.push((name.to_string(), aps));
    }
    out
}

/// Prints the per-suite delta table and returns the list of >20 %
/// regressions (suites new since the baseline are shown but never fail).
fn check_against(baseline_path: &str, ms: &[Measurement]) -> Result<(), Vec<String>> {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = parse_json(&text);
    let mut failures = Vec::new();
    println!();
    println!(
        "{:<16} {:>16} {:>16} {:>9}",
        "suite", "baseline acc/s", "current acc/s", "delta"
    );
    for m in ms {
        let base_aps = baseline
            .iter()
            .find(|(name, _)| name == &m.name)
            .map(|(_, aps)| *aps);
        let got = m.accesses_per_sec();
        match base_aps {
            Some(base) if base > 0.0 => {
                let delta = (got / base - 1.0) * 100.0;
                println!(
                    "{:<16} {:>16.0} {:>16.0} {:>+8.1}%",
                    m.name, base, got, delta
                );
                if got < base * 0.80 {
                    failures.push(format!(
                        "suite '{}' regressed: {got:.0} accesses/s vs baseline \
                         {base:.0} ({delta:.1}%, limit -20%)",
                        m.name
                    ));
                }
            }
            _ => println!("{:<16} {:>16} {:>16.0} {:>9}", m.name, "(new)", got, "-"),
        }
    }
    for (name, _) in &baseline {
        if !ms.iter().any(|m| &m.name == name) {
            failures.push(format!("suite '{name}' missing from this run"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn main() {
    let accesses: u64 = arg_value("--accesses")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let reps: u32 = arg_value("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_throughput.json".into());

    m5_bench::banner(
        "throughput",
        "wall-clock accesses/sec of the access pipeline",
    );
    let mut ms = golden_suite(accesses, reps);
    ms.extend(gen_suite(accesses, reps));
    ms.push(loaded_off_suite(accesses, reps));
    ms.push(micro_suite(accesses, reps));
    for m in &ms {
        println!(
            "{:<16} {:>12} accesses  {:>12} ns (gen {:>12} / sim {:>12})  {:>10.2} M accesses/s",
            m.name,
            m.accesses,
            m.wall_ns,
            m.gen_ns,
            m.sim_ns,
            m.accesses_per_sec() / 1e6
        );
    }

    let json = render_json(&ms);
    std::fs::write(&out_path, &json).expect("write throughput json");
    println!("wrote {out_path}");

    if let Some(baseline) = arg_value("--check") {
        match check_against(&baseline, &ms) {
            Ok(()) => println!("within 20% of baseline {baseline}"),
            Err(failures) => {
                for f in &failures {
                    eprintln!("REGRESSION: {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
