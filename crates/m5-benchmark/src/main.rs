//! The benchmark command. Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline -p m5-benchmark -- [--seed N] [--workload NAME]...
//!     [--quick] [--seconds S] [--trace 0|1] [--out PATH] [--spans DIR]
//! ```
//!
//! It prints every metric as a `workload metric value unit` line, then as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 if any rep fails its correctness checks and 2 on
//! a usage error.

use m5_benchmark::protocol::{reset_peak_rss, run_workload, Options, Outcome, Want};
use m5_benchmark::{metrics_json, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: m5-benchmark [--seed N] [--workload NAME]... [--quick] \
[--seconds S] [--trace 0|1] [--out PATH] [--spans DIR]
  workloads: pr_m5 redis_m5 mcf_anb mcf_chaos_ckpt (default: all)
  --seconds S  keep adding timed reps until S seconds of them have run
  --trace 0    report only the end-to-end metrics; 1: only the per-layer ones";

struct Cli {
    seed: u64,
    workloads: Vec<Workload>,
    quick: bool,
    seconds: Option<f64>,
    want: Want,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 42,
        workloads: Vec::new(),
        quick: false,
        seconds: None,
        want: Want::Both,
        out: None,
        spans: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            cli.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                cli.seconds = Some(s);
            }
            "--workload" => cli
                .workloads
                .push(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?),
            "--trace" => {
                cli.want = match value.as_str() {
                    "0" => Want::EndToEnd,
                    "1" => Want::PerLayer,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(value.into()),
            "--spans" => cli.spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    Ok(cli)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn report(out: &Outcome) {
    let w = out.workload.name();
    println!("{w} digest {:#018x} fnv64", out.digest);
    let failed = out.failures.len();
    println!(
        "{w} fail_frac {} ratio  ({failed} of {} reps failed)",
        failed as f64 / out.attempted as f64,
        out.attempted
    );
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("{}", m.line(w));
    }
    for f in &out.failures {
        eprintln!("{w} FAILED {f}");
    }
}

fn results_json(cli: &Cli, o: &Options, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|out| {
            let failures: Vec<String> = out
                .failures
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect();
            format!(
                "{{\"name\": \"{}\", \"digest\": \"{:#018x}\", \"attempted\": {}, \
                 \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}",
                out.workload.name(),
                out.digest,
                out.attempted,
                out.failures.len(),
                failures.join(", "),
                metrics_json(
                    out.end_to_end
                        .iter()
                        .chain(&out.per_layer)
                        .map(|m| (m.name.clone(), m))
                )
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"accesses\": {}, \"workloads\": [{}]}}\n",
        cli.seed,
        o.accesses,
        workloads.join(", ")
    )
}

fn main() {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("m5-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut o = if cli.quick {
        Options::quick(cli.seed)
    } else {
        Options::full(cli.seed)
    };
    o.want = cli.want;
    if let Some(s) = cli.seconds {
        o.seconds = s;
    }
    println!(
        "# m5-benchmark: seed {}, {} accesses per rep, at least {} timed and {} traced reps",
        o.seed, o.accesses, o.timed_min, o.traced
    );

    let mut outcomes = Vec::new();
    for (i, &w) in cli.workloads.iter().enumerate() {
        if i > 0 {
            reset_peak_rss();
        }
        let out = run_workload(w, &o);
        report(&out);
        outcomes.push(out);
    }

    let mut io_errors = Vec::new();
    if let Some(dir) = &cli.spans {
        for out in &outcomes {
            let mut text = String::new();
            for (rep, spans) in out.spans.iter().enumerate() {
                spans.write_jsonl(rep, &mut text);
            }
            let path = dir.join(format!("{}.spans.jsonl", out.workload.name()));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
            {
                io_errors.push(format!("writing {}: {e}", path.display()));
            }
        }
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, results_json(&cli, &o, &outcomes)) {
            io_errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    for e in &io_errors {
        eprintln!("m5-benchmark: {e}");
    }

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    let prefix = |out: &Outcome, name: &str| {
        if outcomes.len() == 1 {
            name.to_string()
        } else {
            format!("{}.{name}", out.workload.name())
        }
    };
    let metrics = metrics_json(outcomes.iter().flat_map(|out| {
        out.end_to_end
            .iter()
            .chain(&out.per_layer)
            .map(move |m| (prefix(out, &m.name), m))
    }));
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    if !correct || !io_errors.is_empty() {
        std::process::exit(1);
    }
}
