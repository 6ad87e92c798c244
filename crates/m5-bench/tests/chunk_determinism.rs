//! Batch-driver determinism: the chunked driver must be **byte-identical**
//! to the per-access reference loop, both in one leg (`run_chunked`) and
//! split into two [`ChunkedRun::drive_to`] legs whose first leg stops the
//! access budget mid-chunk.
//!
//! Equality is asserted on the strongest observable evidence the system
//! produces: the rendered golden-format telemetry snapshot (every
//! counter, gauge, and histogram percentile) plus the debug-formatted
//! `RunReport`. Any divergence in fault servicing, epoch timing, TLB
//! flush cadence, daemon wake order, or latency accounting shows up
//! here — at chunk size 1 (every access is its own batch), at sizes
//! that misalign with every internal cadence, and at the default.
//!
//! `run_per_access` is kept in-tree precisely as this test's oracle.
//!
//! Every chunked variant must also end the same number of access
//! segments at their horizon ([`System::horizon_breaks`]): the count is a
//! function of the simulated run, never of the chunk size. For the three
//! goldens and the faulted run it is pinned exactly ([`PINNED_BREAKS`],
//! [`FAULTED_BREAKS`]). An engine change that keeps every output but cuts
//! segments short passes every other oracle; the pin fails it on every
//! host. A change that moves the count on purpose updates the pins, as it
//! would a golden line.

use cxl_sim::faults::{FaultKind, FaultPlan};
use cxl_sim::prelude::*;
use cxl_sim::report::RunReport;
use cxl_sim::system::{run_chunked, run_per_access, ChunkedRun};
use m5_baselines::anb::{Anb, AnbConfig};
use m5_baselines::damon::{Damon, DamonConfig};
use m5_bench::golden::{self, GOLDENS};
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::ReplayWorkload;

/// Reduced budget: enough for several M5 epochs and migrations on every
/// golden workload while keeping the full driver matrix fast.
const ACCESSES: u64 = 60_000;

/// Chunk capacities that misalign with every internal cadence: 1 forces
/// a daemon-dispatch check between every pair of accesses, 7 and 509 are
/// prime, 4096 is the default.
const CAPS: [usize; 4] = [1, 7, 509, 4096];

type BoxedDaemon = Box<dyn MigrationDaemon + Send>;
type Driver =
    dyn Fn(&mut System, &mut ReplayWorkload, &mut (dyn MigrationDaemon + Send), u64) -> RunReport;

/// Runs one workload under `daemon_new()` with telemetry enabled and the
/// given driver, returning the full rendered snapshot + report, and the
/// horizon-break count.
/// `contended` enables the queueing timing model with that CXL background
/// load — the determinism contract must hold with contention state in the
/// loop too.
#[allow(clippy::too_many_arguments)]
fn observe(
    spec: &m5_workloads::registry::WorkloadSpec,
    plan: &FaultPlan,
    seed: u64,
    accesses: u64,
    contended: Option<f64>,
    daemon_new: &dyn Fn() -> BoxedDaemon,
    drive: &Driver,
) -> ((String, String), u64) {
    let (mut sys, region) = match contended {
        Some(bg) => m5_bench::standard_contended_system_with_faults(spec, plan, bg),
        None => m5_bench::standard_system_with_faults(spec, plan),
    };
    sys.install_telemetry(Telemetry::enabled());
    let mut wl = spec.build(region.base, accesses, seed);
    let mut daemon = daemon_new();
    let report = drive(&mut sys, &mut wl, daemon.as_mut(), accesses);
    sys.telemetry_mut().flush();
    let snap = golden::render("determinism", &sys.telemetry().snapshot());
    ((snap, format!("{report:?}")), sys.horizon_breaks())
}

/// The exact horizon-break count of each golden's [`ACCESSES`]-access
/// run under the M5 manager, by golden name.
const PINNED_BREAKS: [(&str, u64); 3] = [("graph", 4), ("kv", 20), ("spec", 22)];

/// The exact horizon-break count of the faulted-spec run. Open fault
/// windows are segment constants; an engine that cut its segments at
/// every access inside a window would count each of those accesses.
const FAULTED_BREAKS: u64 = 22;

/// Asserts every chunked variant matches the per-access
/// reference for one (spec, plan, daemon) configuration, and returns the
/// horizon-break count they all share.
#[allow(clippy::too_many_arguments)]
fn assert_all_drivers_match(
    label: &str,
    spec: &m5_workloads::registry::WorkloadSpec,
    plan: &FaultPlan,
    seed: u64,
    accesses: u64,
    contended: Option<f64>,
    daemon_new: &dyn Fn() -> BoxedDaemon,
) -> u64 {
    let (reference, _) = observe(
        spec,
        plan,
        seed,
        accesses,
        contended,
        daemon_new,
        &|s, w, d, m| run_per_access(s, w, d, m),
    );
    let mut first_breaks: Option<u64> = None;
    for cap in CAPS {
        let (chunked, breaks) = observe(
            spec,
            plan,
            seed,
            accesses,
            contended,
            daemon_new,
            &move |s, w, d, m| run_chunked(s, w, d, m, cap),
        );
        assert_eq!(
            chunked, reference,
            "{label}: run_chunked(cap={cap}) diverged from per-access"
        );
        let first = *first_breaks.get_or_insert(breaks);
        assert_eq!(
            breaks, first,
            "{label}: run_chunked(cap={cap}) broke its segments differently"
        );
        let (two_legs, breaks) = observe(
            spec,
            plan,
            seed,
            accesses,
            contended,
            daemon_new,
            &move |s, w, d, m| {
                let mut run = ChunkedRun::begin(s, d);
                run.drive_to(s, w, d, m / 3, cap);
                run.drive_to(s, w, d, m, cap);
                run.finish(s, d)
            },
        );
        assert_eq!(
            two_legs, reference,
            "{label}: two drive_to legs (cap={cap}) diverged from per-access"
        );
        assert_eq!(
            breaks, first,
            "{label}: two drive_to legs (cap={cap}) broke their segments differently"
        );
    }
    first_breaks.expect("CAPS is not empty")
}

fn m5_daemon() -> BoxedDaemon {
    Box::new(M5Manager::new(M5Config::default()))
}

/// Every golden workload under the M5 manager: graph (PageRank), kv
/// (uniform Redis), spec (Zipf Mcf) — the exact configurations whose
/// checked-in goldens the chunked pipeline regenerated — each with its
/// pinned horizon-break count.
#[test]
fn golden_workloads_match_per_access_at_every_chunk_size() {
    for (g, (name, pinned)) in GOLDENS.iter().zip(PINNED_BREAKS) {
        assert_eq!(g.name, name, "PINNED_BREAKS follows GOLDENS order");
        let spec = g.benchmark.spec();
        let breaks = assert_all_drivers_match(
            g.name,
            &spec,
            &FaultPlan::none(),
            g.seed,
            ACCESSES,
            None,
            &m5_daemon,
        );
        assert_eq!(
            breaks, pinned,
            "{name}: the horizon-break count moved; if on purpose, update PINNED_BREAKS"
        );
    }
}

/// With an active fault plan the batch driver must see every fault at
/// exactly the same accesses: spikes and stalls add latency, poisoned
/// reads retry, and DDR pressure shifts costs — all of it must land on
/// identical accesses in every driver, with the pinned horizon-break
/// count.
#[test]
fn fault_plan_runs_match_per_access_at_every_chunk_size() {
    let spec = GOLDENS[2].benchmark.spec();
    let plan = FaultPlan::none()
        .with(
            Nanos::from_micros(500),
            FaultKind::LatencySpike {
                extra: Nanos::from_micros(2),
                duration: Nanos::from_micros(300),
            },
        )
        .with(
            Nanos::from_millis(1),
            FaultKind::ControllerStall {
                duration: Nanos::from_micros(150),
            },
        )
        .with(
            Nanos::from_micros(1_400),
            FaultKind::PoisonLine { reads: 3 },
        )
        .with(
            Nanos::from_micros(1_700),
            FaultKind::DdrPressure {
                duration: Nanos::from_micros(400),
            },
        );
    let breaks =
        assert_all_drivers_match("faulted-spec", &spec, &plan, 42, 40_000, None, &m5_daemon);
    assert_eq!(
        breaks, FAULTED_BREAKS,
        "faulted-spec: the horizon-break count moved; if on purpose, update FAULTED_BREAKS"
    );
}

/// ANB unmaps pages and relies on NUMA hinting faults delivered through
/// `MigrationDaemon::on_fault` — the `BatchPause::Fault` hand-off. The
/// fault must surface after the faulting access and before the next one
/// in every driver, or promotion order (and everything downstream)
/// diverges.
#[test]
fn anb_hinting_fault_path_matches_per_access() {
    let spec = GOLDENS[0].benchmark.spec();
    assert_all_drivers_match(
        "anb-graph",
        &spec,
        &FaultPlan::none(),
        42,
        ACCESSES,
        None,
        &|| Box::new(Anb::new(AnbConfig::default())),
    );
}

/// DAMON samples PTEs with its own seeded RNG and promotes whole regions
/// under a time quota. On every golden, and on the spec golden under a
/// chaos plan on a contended machine, every driver must match the
/// per-access reference.
#[test]
fn damon_matches_per_access_at_every_chunk_size() {
    let damon = || -> BoxedDaemon { Box::new(Damon::new(DamonConfig::default())) };
    for g in &GOLDENS {
        let spec = g.benchmark.spec();
        assert_all_drivers_match(
            g.name,
            &spec,
            &FaultPlan::none(),
            g.seed,
            ACCESSES,
            None,
            &damon,
        );
    }
    let g = &GOLDENS[2];
    assert_all_drivers_match(
        "damon-chaos-spec",
        &g.benchmark.spec(),
        &FaultPlan::chaos(7, Nanos::from_millis(5)),
        g.seed,
        ACCESSES,
        Some(0.6),
        &damon,
    );
}

/// With the contention model enabled (queueing state, per-class billing,
/// window rollovers all live), every driver must still match the
/// per-access reference byte-for-byte at every chunk size — the queue
/// advances only with the sim clock, never with batching structure.
#[test]
fn contended_runs_match_per_access_at_every_chunk_size() {
    let g = &GOLDENS[0];
    let spec = g.benchmark.spec();
    assert_all_drivers_match(
        "contended-graph",
        &spec,
        &FaultPlan::none(),
        g.seed,
        ACCESSES,
        Some(0.7),
        &m5_daemon,
    );
}

/// With telemetry off, a plan whose faults all fire early must leave the
/// rest of the run to long segments — the fault log alone must not cut
/// them — and still match the per-access oracle. The chaos plan mixes
/// every class, RAS faults included, so the tail also runs on a degraded
/// link.
#[test]
fn telemetry_off_chaos_run_serves_its_tail_quiet() {
    let spec = GOLDENS[2].benchmark.spec();
    let plan = FaultPlan::chaos(7, Nanos::from_micros(500));
    let run = |chunked: bool| {
        let (mut sys, region) = m5_bench::standard_system_with_faults(&spec, &plan);
        let mut wl = spec.build(region.base, ACCESSES, 42);
        let mut daemon = M5Manager::new(M5Config::default());
        let report = if chunked {
            run_chunked(&mut sys, &mut wl, &mut daemon, ACCESSES, 509)
        } else {
            run_per_access(&mut sys, &mut wl, &mut daemon, ACCESSES)
        };
        (report, sys.horizon_breaks(), sys.fault_log().len())
    };
    let (oracle, _, _) = run(false);
    let (report, breaks, fired) = run(true);
    assert_eq!(report, oracle, "chunked run diverged from per-access");
    assert_eq!(fired, plan.len(), "every fault fires inside the run");
    assert!(
        oracle.total_time > Nanos::from_millis(2),
        "the run outlasts its faults by a long tail"
    );
    assert_eq!(report.accesses, ACCESSES);
    assert!(
        breaks * 100 <= ACCESSES,
        "{breaks} horizon breaks in {ACCESSES} accesses: more than 1 %"
    );
}
