//! RAS chaos-soak runner.
//!
//! Runs the default campaign set (seeded chaos mixes, clean-room
//! evacuations, and a squeezed-survivor drain) across the thread pool,
//! prints the canonical artifact, and exits non-zero if any campaign
//! violates the RAS contract.
//!
//! Flags:
//! * `--long` — nightly scale: 4× the chaos seeds, larger access budgets.
//! * `--seeds N` — override the number of chaos campaigns.
//! * `--accesses N` — override the per-campaign access budget (the
//!   squeeze campaign keeps its own budget: it must outlive the
//!   evacuation deadline).
//! * `--out PATH` — also write the artifact to `PATH`.
//! * `--resume DIR` — checkpoint each campaign into `DIR/<name>.ckpt`
//!   periodically and resume any campaign whose checkpoint survives from
//!   a previous (killed) invocation instead of restarting it.
//! * `--checkpoint-every N` — accesses between checkpoints in resume
//!   mode (default 100000).

use m5_bench::soak::{
    all_failures, artifact, default_campaigns, run_campaign_resumable, soak_parallel,
    CampaignReport, SoakScenario, SoakSpec,
};
use std::path::PathBuf;

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).and_then(|s| s.parse().ok())
}

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).cloned()
}

/// Resume-mode driver: sequential (each campaign owns one checkpoint
/// file; a resumed run must see the file its predecessor left).
fn soak_resumable(specs: &[SoakSpec], dir: &PathBuf, every: u64) -> Vec<CampaignReport> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create checkpoint dir {}: {e}", dir.display());
        std::process::exit(2);
    }
    specs
        .iter()
        .map(|s| run_campaign_resumable(*s, &dir.join(format!("{}.ckpt", s.name())), every))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let long = args.iter().any(|a| a == "--long");
    let mut specs = default_campaigns(long);
    if let Some(n) = flag_value(&args, "--seeds") {
        let template = specs[0];
        let tail: Vec<SoakSpec> = specs
            .iter()
            .copied()
            .filter(|s| s.scenario != SoakScenario::Chaos)
            .collect();
        specs = (0..n)
            .map(|seed| SoakSpec { seed, ..template })
            .chain(tail)
            .collect();
    }
    if let Some(a) = flag_value(&args, "--accesses") {
        for s in &mut specs {
            if s.scenario != SoakScenario::Squeeze {
                s.accesses = a;
            }
        }
    }

    let reports = match flag_str(&args, "--resume") {
        Some(dir) => {
            let every = flag_value(&args, "--checkpoint-every").unwrap_or(100_000);
            soak_resumable(&specs, &PathBuf::from(dir), every)
        }
        None => soak_parallel(&specs),
    };
    let text = artifact(&reports);
    print!("{text}");
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if let Some(path) = args.get(i + 1) {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let failures = all_failures(&specs, &reports);
    if !failures.is_empty() {
        eprintln!("soak FAILED ({} contract violations):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("soak OK: {} campaigns clean", reports.len());
}
