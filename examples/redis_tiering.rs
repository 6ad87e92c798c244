//! The Redis story from the paper's Figure 9: with uniform YCSB-A
//! traffic, a scanner that never backs off (DAMON) keeps paying
//! identification and migration costs at equilibrium and *hurts* p99,
//! while M5's HWT-driven nominator promotes the genuinely hot (dense)
//! index pages at virtually no CPU cost.
//!
//! ```bash
//! cargo run --release --example redis_tiering
//! ```

use m5::baselines::anb::{Anb, AnbConfig};
use m5::baselines::damon::{Damon, DamonConfig};
use m5::core::manager::M5Manager;
use m5::core::policy;
use m5::sim::report::RunReport;
use m5::sim::system::{run, MigrationDaemon, NoMigration};
use m5::workloads::registry::Benchmark;

const ACCESSES: u64 = 2_000_000;

fn run_once(daemon: &mut dyn MigrationDaemon) -> RunReport {
    let spec = Benchmark::Redis.spec();
    let config = m5::sim::config::SystemConfig::scaled_default()
        .with_cxl_frames(spec.footprint_pages + 1024)
        .with_ddr_frames(spec.footprint_pages / 2);
    let mut sys = m5::sim::system::System::new(config);
    let region = sys
        .alloc_region(spec.footprint_pages, m5::sim::config::Placement::AllOnCxl)
        .expect("fits");
    let mut wl = spec.build(region.base, ACCESSES + 64, 7);
    run(&mut sys, &mut wl, daemon, ACCESSES)
}

fn main() {
    println!("Redis + YCSB-A on tiered memory: p99 under three migration policies\n");
    let baseline = run_once(&mut NoMigration);
    let show = |name: &str, r: &RunReport| {
        let p99 = r.p99().expect("kv workloads mark ops");
        let base_p99 = baseline.p99().expect("ops");
        println!(
            "{name:>14}: p99 {p99} ({:+.1}% vs none) | promoted {} | kernel {}",
            100.0 * (p99.0 as f64 / base_p99.0 as f64 - 1.0),
            r.migrations.promotions,
            r.kernel.total()
        );
    };
    show("no migration", &baseline);
    show("anb", &run_once(&mut Anb::new(AnbConfig::default())));
    show("damon", &run_once(&mut Damon::new(DamonConfig::default())));
    show(
        "m5 (hwt)",
        &run_once(&mut M5Manager::new(policy::simple_hwt_policy())),
    );
    println!(
        "\nExpected: ANB's hinting faults hammer p99 over this short horizon; DAMON's\n\
         scanning+migrating is p99-neutral-to-harmful; M5(HWT) matches the best p99\n\
         at a tenth of the kernel cost by promoting the dense hot index pages."
    );
}
