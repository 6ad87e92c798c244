//! Figure 4 — Probability that a 4 KiB page has at most N ∈
//! {4, 8, 16, 32, 48} unique 64 B words accessed, measured with WAC.
//!
//! Expected shape: the KV stores are overwhelmingly sparse (≤16 words in
//! ~86 % / 76 % / 74 % of pages for Redis / Memcached / CacheLib); the
//! SPEC benchmarks except roms are dense (≥48 words in ~87–92 % of
//! pages); GAP is mixed, with PR and SSSP mostly dense.

use cxl_sim::system::NoMigration;
use m5_bench::{access_budget_from_args, banner, standard_system};
use m5_profilers::counter::{AccessCounter, CounterConfig};
use m5_workloads::registry::Benchmark;

const THRESHOLDS: [u32; 5] = [4, 8, 16, 32, 48];

fn main() {
    banner(
        "Figure 4",
        "P(page has at most N unique 64B words accessed), by WAC",
    );
    let accesses = access_budget_from_args();
    println!(
        "{:>8} | {:>7} {:>7} {:>7} {:>7} {:>7} | pages",
        "bench", "<=4", "<=8", "<=16", "<=32", "<=48"
    );
    println!("{:-<70}", "");
    for bench in Benchmark::FIGURE4 {
        let spec = bench.spec();
        let (mut sys, region) = standard_system(&spec);
        let handle = sys.attach_device(AccessCounter::new(CounterConfig::wac(&sys)));
        let mut wl = spec.build(region.base, accesses, 4);
        let _ = cxl_sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
        let wac: &AccessCounter = sys.device(handle).expect("WAC attached");
        let uniq = wac.unique_words_per_page();
        let total = uniq.len().max(1) as f64;
        let probs: Vec<f64> = THRESHOLDS
            .iter()
            .map(|&t| uniq.values().filter(|&&w| w <= t).count() as f64 / total)
            .collect();
        println!(
            "{:>8} | {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} | {}",
            bench.label(),
            probs[0],
            probs[1],
            probs[2],
            probs[3],
            probs[4],
            uniq.len()
        );
    }
    println!("{:-<70}", "");
    println!(
        "paper anchors: P(<=16 words) ≈ 0.86 / 0.76 / 0.74 for redis / mcd / c.-lib;\n\
         SPEC except roms: P(>=48 words) ≈ 0.87–0.92 (i.e. <=48 column near its complement);\n\
         GAP mixed: pr and sssp dense, lib./bc/bfs/cc/tc notably sparser."
    );
}
