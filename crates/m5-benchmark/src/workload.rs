//! The four benchmark workloads and the machines they run on.
//!
//! Machines mirror `m5_bench::standard_system*`: CXL sized to hold the
//! whole footprint, DDR capped at half of it, the region allocated on CXL.
//! They are built here so the workload definitions live with the
//! benchmark.

use cxl_sim::prelude::*;
use m5_baselines::anb::{Anb, AnbConfig};
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::ReplayWorkload;
use m5_workloads::graph::{self, CsrGraph, GapKernel, GraphLayout};
use m5_workloads::registry::Benchmark;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accesses per rep in a full run: `m5_bench::DEFAULT_ACCESSES`, the budget
/// every figure bench simulates per workload.
pub const FULL_ACCESSES: u64 = m5_bench::DEFAULT_ACCESSES;

/// Accesses per rep in `--quick` mode.
pub const QUICK_ACCESSES: u64 = 2_000_000;

/// `mcf_chaos_ckpt` does a checkpoint round trip every this many accesses.
pub const CKPT_EVERY: u64 = 250_000;

/// Seed of `mcf_chaos_ckpt`'s chaos plan. The plan is part of the
/// workload's definition, like the machine: it stays the same for every
/// `--seed`, so each seed varies only the trace and the workload stresses
/// the same fault paths on every seed.
const CHAOS_SEED: u64 = 42;

/// Offered background load on the contended machine, as a fraction of the
/// CXL link's peak bandwidth.
const CONTENDED_BACKGROUND: f64 = 0.5;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GAP PageRank under the M5 manager, telemetry on: the LLC-hit path.
    PrM5,
    /// Redis under YCSB-A under the M5 manager, telemetry on: the miss,
    /// writeback and tracker-feed path.
    RedisM5,
    /// SPEC mcf under ANB, telemetry off: hinting faults and PTE scans.
    McfAnb,
    /// SPEC mcf under M5 on a contended machine with a chaos fault plan and
    /// a checkpoint round trip every [`CKPT_EVERY`] accesses.
    McfChaosCkpt,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PrM5,
        Workload::RedisM5,
        Workload::McfAnb,
        Workload::McfChaosCkpt,
    ];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrM5 => "pr_m5",
            Workload::RedisM5 => "redis_m5",
            Workload::McfAnb => "mcf_anb",
            Workload::McfChaosCkpt => "mcf_chaos_ckpt",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The traced application. `pr_m5` runs it on its own seeded graph
    /// (see [`build`]).
    fn benchmark(self) -> Benchmark {
        match self {
            Workload::PrM5 => Benchmark::Pr,
            Workload::RedisM5 => Benchmark::Redis,
            Workload::McfAnb | Workload::McfChaosCkpt => Benchmark::Mcf,
        }
    }

    /// Whether timed and traced reps checkpoint and restore as they go.
    pub(crate) fn checkpoints(self) -> bool {
        self == Workload::McfChaosCkpt
    }

    /// The fault plan the machine executes: none, or for `mcf_chaos_ckpt`
    /// the chaos plan over 200 ms without `HotRemovePrepare` (DDR holds
    /// only half the footprint, so an evacuation cannot finish).
    fn fault_plan(self) -> FaultPlan {
        if !self.checkpoints() {
            return FaultPlan::none();
        }
        let hot_remove = FaultKind::Device(DeviceFault::HotRemovePrepare);
        let chaos = FaultPlan::chaos(CHAOS_SEED, Nanos::from_millis(200));
        FaultPlan::from_schedule(
            chaos
                .schedule()
                .iter()
                .filter(|f| f.kind != hot_remove)
                .copied()
                .collect(),
        )
    }

    /// The machine for a footprint of `pages`.
    fn config(self, pages: u64) -> SystemConfig {
        let config = SystemConfig::scaled_default()
            .with_cxl_frames(pages + 1024)
            .with_ddr_frames(pages / 2);
        if self.checkpoints() {
            config.with_contention(
                ContentionConfig::enabled_default().with_cxl_background(CONTENDED_BACKGROUND),
            )
        } else {
            config
        }
    }
}

/// The daemon a workload runs under.
pub enum Daemon {
    /// The M5 manager with its default configuration.
    M5(Box<M5Manager>),
    /// Automatic NUMA balancing with its default configuration.
    Anb(Box<Anb>),
}

/// Everything one rep needs, built from scratch, with the set-up timed.
pub struct Parts {
    /// The machine, region allocated, telemetry installed.
    pub sys: System,
    /// The materialised access trace.
    pub wl: ReplayWorkload,
    /// The daemon, constructed but not started.
    pub daemon: Daemon,
    /// The fault plan `sys` executes (a checkpoint restore needs it).
    pub plan: FaultPlan,
    /// Seconds building the trace (`WorkloadSpec::build`, or for `pr_m5`
    /// the graph kernel, plus the graph itself on first use).
    pub trace_s: f64,
    /// Seconds building the machine and allocating the region.
    pub machine_s: f64,
    /// Seconds constructing the daemon.
    pub daemon_s: f64,
}

/// `Benchmark::Pr`'s R-MAT social graph (scale 17, average degree 16),
/// but drawn from `seed` so that each seed is a different input. Built
/// once per process and seed, so only the warm-up rep pays for it.
fn social_graph(seed: u64) -> Arc<CsrGraph> {
    static CACHE: Mutex<Option<(u64, Arc<CsrGraph>)>> = Mutex::new(None);
    let mut cache = CACHE.lock().expect("graph cache poisoned");
    if let Some((s, g)) = &*cache {
        if *s == seed {
            return Arc::clone(g);
        }
    }
    let g = Arc::new(CsrGraph::rmat(17, 16, seed));
    *cache = Some((seed, Arc::clone(&g)));
    g
}

/// Builds a fresh machine, trace and daemon for `w`.
pub fn build(w: Workload, accesses: u64, seed: u64) -> Parts {
    let plan = w.fault_plan();

    let t = Instant::now();
    let graph = (w == Workload::PrM5).then(|| social_graph(seed));
    let graph_s = t.elapsed().as_secs_f64();
    let pages = match &graph {
        Some(g) => GraphLayout::for_graph(g).total_pages,
        None => w.benchmark().spec().footprint_pages,
    };

    let t = Instant::now();
    let mut sys = System::with_fault_plan(w.config(pages), &plan);
    let region = sys
        .alloc_region(pages, Placement::AllOnCxl)
        .expect("CXL sized to fit the footprint");
    if w != Workload::McfAnb {
        sys.install_telemetry(Telemetry::enabled());
    }
    let machine_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let wl = match &graph {
        Some(g) => graph::generate(GapKernel::Pr, g, region.base, accesses, seed),
        None => w.benchmark().spec().build(region.base, accesses, seed),
    };
    let trace_s = graph_s + t.elapsed().as_secs_f64();

    let t = Instant::now();
    let daemon = match w {
        Workload::McfAnb => Daemon::Anb(Box::new(Anb::new(AnbConfig::default()))),
        _ => Daemon::M5(Box::new(M5Manager::new(M5Config::default()))),
    };
    let daemon_s = t.elapsed().as_secs_f64();

    Parts {
        sys,
        wl,
        daemon,
        plan,
        trace_s,
        machine_s,
        daemon_s,
    }
}
