//! The §8 huge-page extension: derive hot 2 MiB huge-page candidates from
//! HPT's hot 4 KiB page stream, consult the "OS" about which candidates
//! are actually huge-backed, and inspect coverage (the 2 MiB analogue of
//! dense vs sparse hot pages).
//!
//! ```bash
//! cargo run --release --example huge_pages
//! ```

use m5::core::manager::hugepage::{HugePageAggregator, HugePfn, SUBPAGES_PER_HUGE};
use m5::core::tracker::{HotTracker, TrackerConfig};
use m5::sim::addr::Granularity;
use m5::sim::prelude::*;
use m5::sim::system::NoMigration;
use m5::workloads::registry::Benchmark;

fn main() {
    // Run roms with an HPT attached; every manager epoch would normally
    // promote 4 KiB pages — here we aggregate the epochs into 2 MiB
    // candidates instead.
    let spec = Benchmark::Roms.spec();
    let mut sys = System::new(
        SystemConfig::scaled_default()
            .with_cxl_frames(spec.footprint_pages + 1024)
            .with_ddr_frames(16),
    );
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .expect("fits");
    let hpt = sys.attach_device(HotTracker::new(TrackerConfig::hpt(), Granularity::Page));
    let mut workload = spec.build(region.base, 6_000_000, 8);

    let mut agg = HugePageAggregator::new();
    // Drive the system manually, draining HPT every ~2 ms epoch.
    let mut next_query = sys.now() + Nanos::from_millis(2);
    use m5::sim::system::AccessStream;
    while let Some(a) = workload.next_access() {
        sys.access(a.vaddr, a.is_write);
        if sys.now() >= next_query {
            let epoch: Vec<(Pfn, u64)> = sys
                .device_mut::<HotTracker>(hpt)
                .expect("attached")
                .query()
                .into_iter()
                .map(|(pfn, count)| (Pfn(pfn), count))
                .collect();
            agg.observe(&epoch);
            next_query = sys.now() + Nanos::from_millis(2);
        }
    }
    let _ = m5::sim::system::run(
        &mut sys,
        &mut workload,
        &mut NoMigration,
        0, // drained above
    );

    println!(
        "aggregated {} candidate 2MiB huge pages from the 4KiB hot-page stream\n",
        agg.len()
    );
    // "Consult the OS": pretend only even-numbered huge frames are backed
    // by real 2 MiB mappings.
    let is_huge_backed = |h: HugePfn| h.0.is_multiple_of(2);
    println!("top huge-page candidates (OS-confirmed only):");
    println!(
        "{:>14} | {:>10} | {:>9} | verdict",
        "huge frame", "hotness", "coverage"
    );
    for e in agg.hottest(8, is_huge_backed) {
        let verdict = if u64::from(e.coverage) > SUBPAGES_PER_HUGE / 4 {
            "dense — migrate as one 2MiB unit"
        } else {
            "sparse — prefer 4KiB migration of its hot subpages"
        };
        println!(
            "{:>14} | {:>10} | {:>6}/512 | {verdict}",
            format!("{:?}", e.huge),
            e.count,
            e.coverage
        );
    }
}
