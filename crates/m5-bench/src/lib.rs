//! # m5-bench — shared harness utilities for the figure/table benches
//!
//! Each table and figure of the paper's evaluation has a `harness = false`
//! bench target under `benches/` that regenerates it; this library holds
//! the protocol pieces they share:
//!
//! * [`standard_system`] — the scaled machine with per-benchmark DDR caps
//!   (the paper limits DDR to ~50 % of each footprint),
//! * [`run_ratio_protocol`] — the §4.1 S1–S5 protocol: record-only
//!   hot-page logs scored against PAC's exact counts,
//! * [`epoch_ratio`] — the §7.1 trace-driven tracker-precision metric
//!   (per-query-epoch top-K overlap, weighted by true counts),
//! * [`collect_trace`] — cache-filtered DRAM trace capture (the Pin +
//!   Ramulator pipeline stand-in), and
//! * table printing helpers shared by every harness.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod crash_sweep;
pub mod golden;
pub mod loaded;
pub mod parallel;
pub mod soak;

use cxl_sim::prelude::*;
use cxl_sim::system::Region;
use cxl_sim::trace::{TraceCapture, TraceRecord};
use m5_profilers::counter::{AccessCounter, CounterConfig};
use m5_trackers::topk::TopKAlgorithm;
use m5_workloads::registry::{Benchmark, WorkloadSpec};
use std::collections::HashMap;

/// Default per-benchmark access budget for full-system figure runs.
///
/// Sized so that (a) sweep-style workloads complete several full passes
/// (their re-reference periods are ~2–6 M accesses), and (b) page
/// migration has time to amortize (§7.2: a move pays for itself after
/// ~318 saved CXL accesses).
pub const DEFAULT_ACCESSES: u64 = 24_000_000;

/// Builds the standard scaled machine for `spec`: CXL sized to hold the
/// whole footprint, DDR capped at half of it (§6: "roughly 50 % of the
/// pages can be migrated"), and allocates the workload region on CXL.
pub fn standard_system(spec: &WorkloadSpec) -> (System, Region) {
    standard_system_with_faults(spec, &cxl_sim::faults::FaultPlan::none())
}

/// [`standard_system`] executing a fault plan — the chaos-harness entry
/// point. `FaultPlan::none()` reproduces the fault-free machine exactly.
pub fn standard_system_with_faults(
    spec: &WorkloadSpec,
    plan: &cxl_sim::faults::FaultPlan,
) -> (System, Region) {
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(spec.footprint_pages / 2);
    let mut sys = System::with_fault_plan(config, plan);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .expect("CXL sized to fit the footprint");
    (sys, region)
}

/// [`standard_system`] with the contention-aware timing model enabled:
/// default link parameters plus `background` offered load (as a fraction
/// of the CXL link's peak) from other tenants sharing the link. The
/// offered-load axis of the loaded-latency sweep.
pub fn standard_contended_system(spec: &WorkloadSpec, background: f64) -> (System, Region) {
    standard_contended_system_with_faults(spec, &cxl_sim::faults::FaultPlan::none(), background)
}

/// [`standard_contended_system`] executing a fault plan.
pub fn standard_contended_system_with_faults(
    spec: &WorkloadSpec,
    plan: &cxl_sim::faults::FaultPlan,
    background: f64,
) -> (System, Region) {
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(spec.footprint_pages / 2)
        .with_contention(ContentionConfig::enabled_default().with_cxl_background(background));
    let mut sys = System::with_fault_plan(config, plan);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .expect("CXL sized to fit the footprint");
    (sys, region)
}

/// Attaches a PAC covering the CXL node and returns its handle.
pub fn attach_pac(sys: &mut System) -> DeviceHandle {
    let pac = AccessCounter::new(CounterConfig::pac(sys));
    sys.attach_device(pac)
}

/// The paper's hot-page quota: K ≈ footprint/16 (§4.1 sets K up to 128K
/// pages ≈ 1/16 of the 8 GB footprints).
pub fn k_for(spec: &WorkloadSpec) -> usize {
    (spec.footprint_pages / 16).max(16) as usize
}

/// §4.1 protocol result: the average access-count ratio of a solution's
/// identified hot pages versus PAC's true top-K, sampled at several
/// execution points.
#[derive(Clone, Debug)]
pub struct AccessCountRatio {
    /// Per-execution-point ratios.
    pub points: Vec<f64>,
}

impl AccessCountRatio {
    /// Mean over execution points.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().sum::<f64>() / self.points.len() as f64
    }

    /// Minimum over execution points.
    pub fn min(&self) -> f64 {
        self.points.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum over execution points.
    pub fn max(&self) -> f64 {
        self.points.iter().copied().fold(0.0, f64::max)
    }
}

/// Computes one S4/S5 ratio: the summed true counts of the identified
/// pages (first `k`) over the summed counts of PAC's top-`k_eff`, where
/// `k_eff` is the number of pages actually collected (S5 compares equal
/// numbers of pages).
pub fn ratio_against_pac(
    pac: &AccessCounter,
    identified: impl IntoIterator<Item = cxl_sim::addr::Pfn>,
    k: usize,
) -> f64 {
    let ident: Vec<_> = identified.into_iter().take(k).collect();
    if ident.is_empty() {
        return 0.0;
    }
    let k_eff = ident.len();
    let num = pac.sum_counts_of(ident.iter().map(|p| p.0)) as f64;
    let den = pac.top_k_sum(k_eff) as f64;
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `daemon` (expected to be record-only) for `accesses` total,
/// computing the access-count ratio at `points` evenly spaced execution
/// points. `log_pfns` extracts the solution's current hot-page list.
///
/// The points are legs of one [`ChunkedRun`]:
/// the daemon starts once, so its devices, wakeup schedule and scan state
/// carry across points exactly as in one uninterrupted run.
// The S1–S5 protocol genuinely has this many independent knobs; bundling
// them into a one-off struct would only move the argument list.
#[allow(clippy::too_many_arguments)]
pub fn run_ratio_protocol<D, F>(
    sys: &mut System,
    workload: &mut dyn AccessStream,
    daemon: &mut D,
    pac_handle: DeviceHandle,
    k: usize,
    accesses: u64,
    points: usize,
    mut log_pfns: F,
) -> AccessCountRatio
where
    D: cxl_sim::system::MigrationDaemon,
    F: FnMut(&D) -> Vec<cxl_sim::addr::Pfn>,
{
    let chunk = accesses / points as u64;
    let mut out = Vec::with_capacity(points);
    let mut run = ChunkedRun::begin(sys, daemon);
    for point in 1..=points as u64 {
        run.drive_to(
            sys,
            workload,
            daemon,
            chunk * point,
            cxl_sim::system::DEFAULT_CHUNK_ACCESSES,
        );
        let pac: &AccessCounter = sys.device(pac_handle).expect("PAC attached");
        out.push(ratio_against_pac(pac, log_pfns(daemon), k));
    }
    let _ = run.finish(sys, daemon);
    AccessCountRatio { points: out }
}

/// Captures a cache-filtered, time-stamped CXL DRAM trace of `limit`
/// records by running the workload with no migration — the stand-in for
/// the paper's Pin + Ramulator pipeline (§7.1).
pub fn collect_trace(
    spec: &WorkloadSpec,
    target_accesses: u64,
    limit: usize,
    seed: u64,
) -> Vec<TraceRecord> {
    let (mut sys, region) = standard_system(spec);
    let handle = sys.attach_device(TraceCapture::with_limit(limit));
    let mut wl = spec.build(region.base, target_accesses, seed);
    let _ = cxl_sim::system::run(
        &mut sys,
        &mut wl,
        &mut cxl_sim::system::NoMigration,
        u64::MAX,
    );
    let cap: &TraceCapture = sys.device(handle).expect("capture attached");
    cap.records().to_vec()
}

/// §7.1 tracker-precision metric: replay a trace into `tracker`, querying
/// every `period`; each epoch's top-`k` is scored by true in-epoch counts
/// against the exact in-epoch top-`k`. Returns the per-epoch average.
///
/// `key` maps a trace record's cache-line address to the tracked key
/// (identity for HWT, the PFN for HPT).
pub fn epoch_ratio(
    records: &[TraceRecord],
    key: impl Fn(cxl_sim::addr::CacheLineAddr) -> u64,
    tracker: &mut dyn TopKAlgorithm,
    k: usize,
    period: Nanos,
) -> f64 {
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut epoch_end = match records.first() {
        Some(r) => r.ts + period,
        None => return 0.0,
    };
    let mut ratios: Vec<f64> = Vec::new();
    fn close_epoch(
        truth: &mut HashMap<u64, u64>,
        tracker: &mut dyn TopKAlgorithm,
        k: usize,
        ratios: &mut Vec<f64>,
    ) {
        if truth.is_empty() {
            return;
        }
        let picked = tracker.drain_top_k();
        let mut exact: Vec<u64> = truth.values().copied().collect();
        exact.sort_unstable_by(|a, b| b.cmp(a));
        let den: u64 = exact.iter().take(k).sum();
        let num: u64 = picked
            .iter()
            .take(k)
            .map(|(addr, _)| truth.get(addr).copied().unwrap_or(0))
            .sum();
        if den > 0 {
            ratios.push(num as f64 / den as f64);
        }
        truth.clear();
    }
    for r in records {
        while r.ts >= epoch_end {
            close_epoch(&mut truth, tracker, k, &mut ratios);
            epoch_end += period;
        }
        let key_val = key(r.line);
        tracker.record(key_val);
        *truth.entry(key_val).or_default() += 1;
    }
    close_epoch(&mut truth, tracker, k, &mut ratios);
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Prints a figure header in a consistent style.
pub fn banner(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id}: {caption}");
    println!("==============================================================");
}

/// Geometric mean of positive values (the cross-benchmark mean for
/// normalized performance).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (sum / values.len() as f64).exp()
}

/// Parses the standard bench CLI: `--quick` shrinks access budgets for CI
/// smoke runs; `--accesses N` overrides explicitly.
pub fn access_budget_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--accesses") {
        if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
            return n;
        }
    }
    if args.iter().any(|a| a == "--quick") {
        DEFAULT_ACCESSES / 8
    } else {
        DEFAULT_ACCESSES
    }
}

/// The benchmark list shared by the full-system figures.
pub fn main_benchmarks() -> [Benchmark; 12] {
    Benchmark::MAIN_TWELVE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_values() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn k_for_is_a_sixteenth() {
        let spec = Benchmark::Mcf.spec();
        assert_eq!(k_for(&spec), (spec.footprint_pages / 16) as usize);
    }

    #[test]
    fn ratio_protocol_points_are_legs_of_one_run() {
        use m5_core::manager::{M5Config, M5Manager};
        const ACCESSES: u64 = 8 * 100_000;
        let spec = Benchmark::Roms.spec();
        let m5 = || {
            M5Manager::new(M5Config {
                record_only: true,
                ..m5_core::policy::simple_hpt_policy()
            })
        };

        let machine = || {
            let (mut sys, region) = standard_system(&spec);
            let pac = attach_pac(&mut sys);
            (sys, pac, spec.build(region.base, ACCESSES, 3))
        };

        let (mut sys, pac, mut wl) = machine();
        let mut stepped = m5();
        let _ = run_ratio_protocol(
            &mut sys,
            &mut wl,
            &mut stepped,
            pac,
            k_for(&spec),
            ACCESSES,
            8,
            |d: &M5Manager| d.hot_log().pfns().collect(),
        );

        let (mut sys, _, mut wl) = machine();
        let mut whole = m5();
        let _ = cxl_sim::system::run(&mut sys, &mut wl, &mut whole, ACCESSES);

        assert!(whole.epochs() > 8, "{} epochs", whole.epochs());
        assert_eq!(stepped.epochs(), whole.epochs());
        assert_eq!(stepped.hot_log().entries(), whole.hot_log().entries());
    }

    #[test]
    fn standard_system_halves_ddr() {
        let spec = Benchmark::Mcf.spec();
        let (sys, region) = standard_system(&spec);
        assert_eq!(region.pages, spec.footprint_pages);
        assert_eq!(sys.config().ddr.capacity_frames, spec.footprint_pages / 2);
        assert_eq!(sys.nr_pages(NodeId::CXL), spec.footprint_pages);
    }

    #[test]
    fn epoch_ratio_is_one_for_a_perfect_tracker() {
        use cxl_sim::addr::CacheLineAddr;
        use m5_trackers::topk::CmSketchTopK;
        let records: Vec<cxl_sim::trace::TraceRecord> = (0..1000u64)
            .map(|i| cxl_sim::trace::TraceRecord {
                line: CacheLineAddr(i % 4),
                is_write: false,
                ts: Nanos(i * 10),
            })
            .collect();
        let mut tracker = CmSketchTopK::with_total_entries(4, 4096, 4, 1);
        let r = epoch_ratio(&records, |l| l.0, &mut tracker, 4, Nanos::from_micros(2));
        assert!(r > 0.99, "ratio {r}");
    }
}
