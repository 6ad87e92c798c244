//! DRAM-level workload fingerprints.
//!
//! The figure harnesses depend on each benchmark exhibiting its paper
//! role *after cache filtering* (what PAC and the trackers actually see),
//! not just at trace level. These tests pin those properties down.

use m5::profilers::counter::{AccessCounter, CounterConfig};
use m5::sim::prelude::*;
use m5::sim::system::NoMigration;
use m5::workloads::registry::Benchmark;

const ACCESSES: u64 = 3_000_000;

fn pac_counts(bench: Benchmark) -> Vec<u64> {
    let spec = bench.spec();
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(16);
    let mut sys = System::new(config);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .unwrap();
    let pac = sys.attach_device(AccessCounter::new(CounterConfig::pac(&sys)));
    let mut wl = spec.build(region.base, ACCESSES, 31);
    let _ = m5::sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    let pac: &AccessCounter = sys.device(pac).unwrap();
    let mut counts: Vec<u64> = pac.iter_counts().map(|(_, c)| c).collect();
    counts.sort_unstable();
    counts
}

fn pct(counts: &[u64], p: f64) -> f64 {
    counts[((counts.len() - 1) as f64 * p) as usize] as f64
}

#[test]
fn roms_is_the_most_skewed_spec_benchmark_at_dram_level() {
    let counts = pac_counts(Benchmark::Roms);
    let p50 = pct(&counts, 0.5).max(1.0);
    assert!(
        pct(&counts, 0.90) / p50 >= 1.5,
        "p90 {}",
        pct(&counts, 0.90) / p50
    );
    assert!(
        pct(&counts, 0.99) / p50 >= 5.0,
        "p99 {}",
        pct(&counts, 0.99) / p50
    );
    // ...and clearly more skewed than the uniform stencils. (A partial
    // final sweep bounds the stencil ratio at 2: consecutive sweep
    // counts.)
    let cactu = pac_counts(Benchmark::CactuBssn);
    let cactu_p99_ratio = pct(&cactu, 0.99) / pct(&cactu, 0.5).max(1.0);
    assert!(cactu_p99_ratio <= 2.05, "cactu p99/p50 {cactu_p99_ratio}");
}

#[test]
fn stencils_are_uniform_at_dram_level() {
    for bench in [Benchmark::CactuBssn, Benchmark::Fotonik3d] {
        let counts = pac_counts(bench);
        // Bounded by 2 even when the run ends mid-sweep (counts are
        // consecutive integers across the sweep boundary).
        let ratio = pct(&counts, 0.95) / pct(&counts, 0.5).max(1.0);
        assert!(ratio <= 2.05, "{bench}: p95/p50 = {ratio}");
    }
}

#[test]
fn liblinear_weight_skew_survives_the_llc() {
    let counts = pac_counts(Benchmark::Liblinear);
    let ratio = pct(&counts, 0.99) / pct(&counts, 0.5).max(1.0);
    assert!(ratio >= 3.0, "lib. p99/p50 = {ratio}");
}

#[test]
fn redis_index_pages_are_the_dram_hot_set() {
    // The hash index (highest VPNs) must be the hottest pages PAC sees —
    // the dense hot structure M5 promotes first.
    let spec = Benchmark::Redis.spec();
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(16);
    let mut sys = System::new(config);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .unwrap();
    let pac = sys.attach_device(AccessCounter::new(CounterConfig::pac(&sys)));
    let mut wl = spec.build(region.base, ACCESSES, 31);
    let _ = m5::sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    let pac: &AccessCounter = sys.device(pac).unwrap();
    let index_vpn_start = spec.footprint_pages - 112; // 112 index pages
    let top: Vec<_> = pac.hottest(50);
    let index_hits = top
        .iter()
        .filter(|(pfn, _)| {
            sys.page_table()
                .vpn_of(Pfn(*pfn))
                .is_some_and(|v| v.0 >= index_vpn_start)
        })
        .count();
    assert!(
        index_hits >= 40,
        "only {index_hits}/50 of the hottest pages are index pages"
    );
}

#[test]
fn kv_pages_stay_sparse_under_wac() {
    let spec = Benchmark::Redis.spec();
    let config = SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(16);
    let mut sys = System::new(config);
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .unwrap();
    let wac = sys.attach_device(AccessCounter::new(CounterConfig::wac(&sys)));
    let mut wl = spec.build(region.base, ACCESSES, 31);
    let _ = m5::sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    let wac: &AccessCounter = sys.device(wac).unwrap();
    let uniq = wac.unique_words_per_page();
    let sparse = uniq.values().filter(|&&w| w <= 16).count();
    let frac = sparse as f64 / uniq.len().max(1) as f64;
    assert!(frac > 0.75, "redis sparse fraction {frac:.2}");
}

#[test]
fn graph_kernels_touch_their_whole_layout_classes() {
    // PR must touch offsets, targets, and both rank arrays; its DRAM
    // traffic must dwarf the page count (real reuse).
    let counts = pac_counts(Benchmark::Pr);
    assert!(
        counts.len() > 1_500,
        "pr touched only {} pages",
        counts.len()
    );
    let total: u64 = counts.iter().sum();
    assert!(total as usize > counts.len() * 50, "pr pages barely reused");
}
