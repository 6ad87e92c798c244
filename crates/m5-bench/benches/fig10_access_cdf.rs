//! Figure 10 — CDF of per-4KiB-page access counts, collected with PAC.
//!
//! Expected shape: roms is the most skewed (its p90/p95/p99 pages see
//! ≈2×/8×/17× the accesses of the p50 page); Liblinear is also heavily
//! skewed; TC and Redis are nearly flat (which is why precision buys
//! little there — the §7.2 migration-amortization argument: moving a page
//! costs ~54 µs ≈ 318 CXL-vs-DDR access savings).

use cxl_sim::system::NoMigration;
use m5_bench::{access_budget_from_args, attach_pac, banner, main_benchmarks, standard_system};
use m5_profilers::counter::AccessCounter;

fn main() {
    banner(
        "Figure 10",
        "CDF of per-page access counts (PAC, log10 bins)",
    );
    let accesses = access_budget_from_args();
    println!(
        "{:>8} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} | {:>8} {:>8} {:>8}",
        "bench",
        "<=1e0",
        "<=1e1",
        "<=1e2",
        "<=1e3",
        "<=1e4",
        "<=1e5",
        "p90/p50",
        "p95/p50",
        "p99/p50"
    );
    println!("{:-<92}", "");
    for bench in main_benchmarks() {
        let spec = bench.spec();
        let (mut sys, region) = standard_system(&spec);
        let pac_handle = attach_pac(&mut sys);
        let mut wl = spec.build(region.base, accesses, 10);
        let _ = cxl_sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
        let pac: &AccessCounter = sys.device(pac_handle).expect("PAC attached");
        let mut counts: Vec<u64> = pac.iter_counts().map(|(_, c)| c).collect();
        counts.sort_unstable();
        let n = counts.len().max(1);
        let cdf_at = |bound: u64| counts.partition_point(|&c| c <= bound) as f64 / n as f64;
        let pct = |p: f64| counts[((n - 1) as f64 * p) as usize] as f64;
        let p50 = pct(0.50).max(1.0);
        println!(
            "{:>8} | {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} | {:>8.1} {:>8.1} {:>8.1}",
            bench.label(),
            cdf_at(1),
            cdf_at(10),
            cdf_at(100),
            cdf_at(1_000),
            cdf_at(10_000),
            cdf_at(100_000),
            pct(0.90) / p50,
            pct(0.95) / p50,
            pct(0.99) / p50,
        );
    }
    println!("{:-<92}", "");
    println!(
        "paper anchors: roms p90/p95/p99 ≈ 2x/8x/17x of p50; lib. strongly skewed;\n\
         tc / redis nearly flat (bottom-p50 TC page ≈ bottom-p10 + 288 accesses)."
    );
}
