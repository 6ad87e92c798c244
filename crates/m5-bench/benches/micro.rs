//! Hot-path micro-benchmarks: the streaming trackers' update loops, the
//! per-access pipeline with a PAC snooping, and page migration.
//!
//! The hardware requirement (§5.1) is one tracker update per 2.5 ns (tCCD
//! of DDR4-3200) — the software models obviously don't hit that, but their
//! relative throughput matters for simulation turnaround, and the update
//! paths are the hot loops of every figure harness. The device-free access
//! path is timed by the `throughput` bench's `micro_random` suite.
//!
//! Each case runs once to warm up, then `SAMPLES` timed times; the line
//! printed is the mean time per run and the elements processed per second.
//!
//! ```bash
//! cargo bench -p m5-bench --bench micro
//! ```

use cxl_sim::memory::NodeId;
use cxl_sim::prelude::*;
use m5_profilers::pac::{Pac, PacConfig};
use m5_trackers::sketch::CmSketch;
use m5_trackers::spacesaving::SpaceSaving;
use m5_trackers::topk::{CmSketchTopK, SpaceSavingTopK, TopKAlgorithm};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: u32 = 10;

/// Times `f` (one warm-up run, then `SAMPLES` runs) and prints the mean
/// run time and the rate at `elements` per run.
fn time_case<O>(label: &str, elements: u64, mut f: impl FnMut() -> O) {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..SAMPLES {
        black_box(f());
    }
    let mean = t0.elapsed().as_secs_f64() / f64::from(SAMPLES);
    println!(
        "{label:<34} {:>10.3} ms/iter {:>10.1} Melem/s",
        mean * 1e3,
        elements as f64 / mean / 1e6
    );
}

fn zipfish_keys(n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(99);
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            (r * r * r * 100_000.0) as u64
        })
        .collect()
}

fn setup(pages: u64) -> (System, cxl_sim::system::Region) {
    let mut sys = System::new(
        SystemConfig::scaled_default()
            .with_cxl_frames(pages + 64)
            .with_ddr_frames(pages),
    );
    let region = sys.alloc_region(pages, Placement::AllOnCxl).unwrap();
    (sys, region)
}

fn bench_trackers() {
    let keys = zipfish_keys(100_000);
    let n_keys = keys.len() as u64;
    for n in [1024usize, 32 * 1024, 128 * 1024] {
        let mut sketch = CmSketch::with_total_entries(4, n, 1);
        time_case(&format!("cm_sketch_update/{n}"), n_keys, || {
            for &k in &keys {
                black_box(sketch.update(k));
            }
        });
    }
    for n in [50usize, 2048] {
        time_case(&format!("space_saving_update/{n}"), n_keys, || {
            let mut ss = SpaceSaving::new(n);
            for &k in &keys {
                ss.update(k);
            }
            ss.total()
        });
    }
    let mut t = CmSketchTopK::with_total_entries(4, 32 * 1024, 5, 1);
    time_case("topk_record/cm_sketch_32k_k5", n_keys, || {
        for &k in &keys {
            t.record(k);
        }
        t.top_k()
    });
    time_case("topk_record/space_saving_50_k5", n_keys, || {
        let mut t = SpaceSavingTopK::new(50, 5);
        for &k in &keys {
            t.record(k);
        }
        t.top_k()
    });
}

fn bench_sim() {
    let n = 100_000u64;
    let mut rng = SmallRng::seed_from_u64(5);
    let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4096u64 * 4096)).collect();
    let (mut sys, region) = setup(4096);
    sys.attach_device(Pac::new(PacConfig::covering_cxl(&sys)));
    time_case("system_access/random_with_pac", n, || {
        for &a in &addrs {
            black_box(sys.access(region.base.offset(a), false));
        }
    });

    time_case("migration/promote_demote_512", 512, || {
        let (mut sys, region) = setup(1024);
        let vpns: Vec<_> = region.vpns().take(512).collect();
        let out = sys.promote_with_demotion(&vpns, 64);
        black_box(out.migrated.len());
        for vpn in &vpns {
            let _ = sys.migrate_page(*vpn, NodeId::Cxl);
        }
    });
}

fn main() {
    m5_bench::banner(
        "micro",
        "tracker update, access-path and migration micro-benchmarks",
    );
    bench_trackers();
    bench_sim();
}
