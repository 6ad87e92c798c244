//! Figure 11 — Accuracy of the CM-Sketch(32K) tracker as the working-set
//! size grows: mcf, roms, fotonik3d and cactuBSSN at ×1..×64 co-running
//! instances, each in a disjoint physical range.
//!
//! Expected shape: graceful degradation — more unique addresses mean more
//! sketch collisions, but precision falls slowly rather than collapsing.

use cxl_sim::time::Nanos;
use cxl_sim::trace::TraceRecord;
use m5_bench::{access_budget_from_args, banner, epoch_ratio};
use m5_trackers::topk::CmSketchTopK;
use m5_workloads::corun::CoRunner;
use m5_workloads::registry::Benchmark;

const K: usize = 5;
const SCALES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Builds a merged cache-filtered trace of `instances` co-running copies,
/// each with its own region (disjoint physical ranges).
fn merged_trace(bench: Benchmark, instances: usize, per_instance: u64) -> Vec<TraceRecord> {
    use cxl_sim::prelude::*;
    use cxl_sim::trace::TraceCapture;
    let spec = bench.spec();
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages * instances as u64 + 1024)
        .with_ddr_frames(1024);
    let mut sys = System::new(config);
    let handle = sys.attach_device(TraceCapture::with_limit(
        ((per_instance as usize) * instances).min(8_000_000),
    ));
    // One region and one trace per instance; interleave round-robin like
    // co-scheduled processes.
    let streams = (0..instances)
        .map(|i| {
            let region = sys
                .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
                .expect("CXL sized for all instances");
            spec.build(region.base, per_instance, 20 + i as u64)
        })
        .collect();
    let mut co = CoRunner::new(streams, 64);
    cxl_sim::system::run(
        &mut sys,
        &mut co,
        &mut cxl_sim::system::NoMigration,
        u64::MAX,
    );
    let cap: &TraceCapture = sys.device(handle).expect("capture");
    cap.records().to_vec()
}

fn main() {
    banner(
        "Figure 11",
        "CM-Sketch(32K) accuracy vs number of co-running instances",
    );
    let budget = access_budget_from_args();
    print!("{:>8}", "bench");
    for s in SCALES {
        print!(" {:>7}", format!("x{s}"));
    }
    println!();
    println!("{:-<68}", "");
    for bench in [
        Benchmark::Mcf,
        Benchmark::Roms,
        Benchmark::Fotonik3d,
        Benchmark::CactuBssn,
    ] {
        print!("{:>8}", bench.label());
        for instances in SCALES {
            // Keep the total trace bounded: split the budget across
            // instances so x64 doesn't take 64x the time.
            let per_instance = (budget / instances as u64).max(100_000);
            let trace = merged_trace(bench, instances, per_instance);
            let mut tracker = CmSketchTopK::with_total_entries(4, 32 * 1024, K, 13);
            // Same ×50 epoch scaling as Figure 7 (see that harness).
            let r = epoch_ratio(
                &trace,
                |l| l.pfn().0,
                &mut tracker,
                K,
                Nanos::from_millis(50),
            );
            print!(" {r:>7.3}");
        }
        println!();
    }
    println!("{:-<68}", "");
    println!(
        "paper anchors: precision decreases gracefully as footprint grows (32 instances\n\
         demand 20-27 GB there); 32K sketch entries cost only ~0.01% of an 8GB module's\n\
         die area, so larger devices can simply scale N (Table 4 reaches 128K)."
    );
}
