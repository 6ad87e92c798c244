//! Capture, store, and analyze cache-filtered DRAM traces — the §7.1
//! offline-profiling pipeline (the paper collects such traces with Pin +
//! Ramulator to drive its tracker simulator).
//!
//! ```bash
//! cargo run --release --example trace_tools [out.m5trace]
//! ```

use m5::sim::prelude::*;
use m5::sim::system::NoMigration;
use m5::sim::trace::{decode, encode, TraceCapture};
use m5::workloads::registry::Benchmark;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/mcf.m5trace".to_string());

    // 1. Capture: run mcf with a TraceCapture device on the controller.
    let spec = Benchmark::Mcf.spec();
    let mut sys = System::new(
        SystemConfig::scaled_default()
            .with_cxl_frames(spec.footprint_pages + 1024)
            .with_ddr_frames(16),
    );
    let region = sys.alloc_region(spec.footprint_pages, Placement::AllOnCxl)?;
    let capture = sys.attach_device(TraceCapture::with_limit(1_000_000));
    let mut wl = spec.build(region.base, 1_500_000, 99);
    let _ = m5::sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    let records = sys
        .device::<TraceCapture>(capture)
        .expect("capture attached")
        .records()
        .to_vec();
    println!("captured {} cache-filtered DRAM accesses", records.len());

    // 2. Store: a checksummed trace frame (16 bytes per record), then
    //    round-trip it through the file.
    let bytes = encode(&records);
    std::fs::write(&out_path, &bytes)?;
    println!("wrote {} bytes to {out_path}", bytes.len());
    let back = decode(&std::fs::read(&out_path)?)?;
    assert_eq!(back, records);

    // 3. Analyze: the per-page histogram any tracker is trying to learn.
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut writes = 0u64;
    for r in &back {
        *counts.entry(r.line.pfn().0).or_default() += 1;
        if r.is_write {
            writes += 1;
        }
    }
    let mut v: Vec<u64> = counts.values().copied().collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "{} pages touched; {:.1}% writebacks; hottest pages: {:?}",
        v.len(),
        100.0 * writes as f64 / back.len() as f64,
        &v[..v.len().min(5)]
    );
    let span = back
        .last()
        .map(|r| r.ts - back[0].ts)
        .unwrap_or(Nanos::ZERO);
    println!(
        "trace spans {span} of simulated time ({:.1} M DRAM accesses/s)",
        back.len() as f64 / span.as_secs_f64().max(1e-9) / 1e6
    );
    Ok(())
}
