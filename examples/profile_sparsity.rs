//! Offline profiling with PAC and WAC: exactly count page and word
//! accesses for a workload and report hotness skew plus page sparsity —
//! the §3/§4 methodology of the paper, usable for any workload you write
//! against the simulator.
//!
//! ```bash
//! cargo run --release --example profile_sparsity
//! ```

use m5::profilers::counter::{AccessCounter, CounterConfig};
use m5::sim::prelude::*;
use m5::sim::system::NoMigration;
use m5::workloads::registry::Benchmark;

const ACCESSES: u64 = 1_500_000;

fn main() {
    for bench in [Benchmark::Redis, Benchmark::Roms] {
        let spec = bench.spec();
        let config = SystemConfig::scaled_default()
            .with_cxl_frames(spec.footprint_pages + 1024)
            .with_ddr_frames(16);
        let mut sys = System::new(config);
        let region = sys
            .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
            .expect("fits");
        let pac = sys.attach_device(AccessCounter::new(CounterConfig::pac(&sys)));
        let wac = sys.attach_device(AccessCounter::new(CounterConfig::wac(&sys)));

        let mut wl = spec.build(region.base, ACCESSES, 3);
        let _ = m5::sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);

        let pac: &AccessCounter = sys.device(pac).unwrap();
        let wac: &AccessCounter = sys.device(wac).unwrap();

        println!("== {} ==", bench.label());
        println!(
            "PAC counted {} accesses over {} touched pages",
            pac.total_counted(),
            pac.iter_counts().count()
        );
        println!("hottest pages:");
        for (pfn, count) in pac.hottest(5) {
            println!("  {:?}: {count} accesses", Pfn(pfn));
        }

        // Word-level sparsity histogram (Figure 4's raw data).
        let uniq = wac.unique_words_per_page();
        let mut histogram = [0u32; 5];
        for &words in uniq.values() {
            let bucket = match words {
                0..=4 => 0,
                5..=8 => 1,
                9..=16 => 2,
                17..=32 => 3,
                _ => 4,
            };
            histogram[bucket] += 1;
        }
        let total = uniq.len().max(1) as f64;
        println!("unique 64B words touched per page:");
        for (label, count) in ["1-4", "5-8", "9-16", "17-32", "33-64"]
            .iter()
            .zip(histogram)
        {
            println!(
                "  {label:>6} words: {:>5.1}% of pages",
                100.0 * count as f64 / total
            );
        }
        println!();
    }
    println!("Redis pages are sparse (most ≤16 words); roms pages are mostly dense.");
}
