//! Telemetry integration: the in-memory sink's snapshot must exactly
//! reproduce the `RunReport` aggregates (they share one accounting path),
//! fault windows must trace as spans, and a disabled bus must not perturb
//! a run.

use cxl_sim::faults::FaultKind;
use cxl_sim::prelude::*;
use cxl_sim::report::RunReport;
use cxl_sim::system::{run, NoMigration, Region};
use cxl_sim::telemetry::HistogramSnapshot;

struct Stream {
    region: Region,
    n: u64,
    i: u64,
}

impl AccessStream for Stream {
    fn next_access(&mut self) -> Option<Access> {
        if self.i >= self.n {
            return None;
        }
        // Stride through the region line by line, every 4th access a store,
        // every 16th the end of a client-visible op.
        let a = self
            .region
            .base
            .offset(self.i * 64 % self.region.len_bytes());
        let mut acc = if self.i.is_multiple_of(4) {
            Access::write(a)
        } else {
            Access::read(a)
        };
        if self.i % 16 == 15 {
            acc = acc.end_op();
        }
        self.i += 1;
        Some(acc)
    }
}

/// A daemon that exercises the migration engine during the run: promotions
/// and a degradation on its first tick, a demotion and a permanent
/// rejection on its second. The ticks are 400 µs apart, so the demotion
/// lands in a warm LLC where the migration's cache pollution evicts dirty
/// lines.
struct Exerciser {
    region: Region,
    wake: Nanos,
    ticks: u64,
}

impl MigrationDaemon for Exerciser {
    fn name(&self) -> &str {
        "exerciser"
    }
    fn next_wake(&self) -> Option<Nanos> {
        (self.ticks < 2).then_some(self.wake)
    }
    fn on_tick(&mut self, sys: &mut System) {
        let base = self.region.base.vpn();
        if self.ticks == 0 {
            let _ = sys.migrate_page(base, NodeId::Ddr);
            let _ = sys.migrate_page(base.offset(1), NodeId::Ddr);
            sys.note_degradation("exerciser: synthetic degradation");
        } else {
            let _ = sys.migrate_page(base, NodeId::Cxl);
            // Unmapped page: a finally-rejected request.
            let _ = sys.migrate_page(Vpn(9_999), NodeId::Ddr);
        }
        self.ticks += 1;
        self.wake = sys.now() + Nanos::from_micros(400);
    }
}

fn faulty_plan() -> FaultPlan {
    FaultPlan::none()
        .with(
            Nanos::from_micros(5),
            FaultKind::LatencySpike {
                extra: Nanos(400),
                duration: Nanos::from_micros(30),
            },
        )
        .with(Nanos::from_micros(10), FaultKind::PoisonLine { reads: 2 })
        .with(
            Nanos::from_micros(40),
            FaultKind::ControllerStall {
                duration: Nanos::from_micros(15),
            },
        )
}

fn seeded_run(telemetry: Option<Telemetry>) -> (System, RunReport) {
    let mut sys = System::with_fault_plan(SystemConfig::small(), &faulty_plan());
    if let Some(t) = telemetry {
        sys.install_telemetry(t);
    }
    let region = sys.alloc_region(16, Placement::AllOnCxl).unwrap();
    let mut wl = Stream {
        region,
        n: 6_000,
        i: 0,
    };
    let mut daemon = Exerciser {
        region,
        wake: Nanos::from_micros(10),
        ticks: 0,
    };
    let report = run(&mut sys, &mut wl, &mut daemon, u64::MAX);
    (sys, report)
}

#[test]
fn snapshot_exactly_reproduces_run_report() {
    let (mut sys, report) = seeded_run(Some(Telemetry::enabled()));
    sys.telemetry_mut().flush();
    let snap = sys.telemetry().snapshot();

    assert_eq!(snap.counter_total("sim.accesses"), report.accesses);
    assert_eq!(snap.counter("sim.llc", "hit"), Some(report.llc_hits));
    assert_eq!(snap.counter("sim.llc", "miss"), Some(report.llc_misses));
    for node in NodeId::ALL {
        assert_eq!(
            snap.counter("sim.dram.reads", node.label()).unwrap_or(0),
            report.reads_on(node),
            "dram reads on {node}"
        );
    }
    // Writebacks are not in the report; the ledger counts them from
    // construction, where telemetry was installed. The ledger includes
    // the writebacks of migration cache pollution, which no access takes.
    let stats = sys.stats();
    for (i, node) in NodeId::ALL.into_iter().enumerate() {
        assert_eq!(
            snap.counter("sim.dram.writebacks", node.label())
                .unwrap_or(0),
            stats.dram_writebacks[i],
            "dram writebacks on {node}"
        );
    }
    // Every CXL writeback an access takes also takes one snoop, delivered
    // or dropped; more writebacks than that means pollution wrote back.
    let access_snoops = snap.counter("sim.snoops", "writeback").unwrap_or(0)
        + snap.counter("sim.snoops", "dropped").unwrap_or(0);
    assert!(
        stats.dram_writebacks[1] > access_snoops,
        "no pollution writeback: {} CXL writebacks, {access_snoops} snoops",
        stats.dram_writebacks[1]
    );
    assert_eq!(
        snap.counter("sim.migrations", "promoted").unwrap_or(0),
        report.migrations.promotions
    );
    assert_eq!(
        snap.counter("sim.migrations", "demoted").unwrap_or(0),
        report.migrations.demotions
    );
    assert_eq!(
        snap.counter("sim.migrations", "rejected").unwrap_or(0),
        report.migrations.rejected
    );
    assert!(report.migrations.promotions >= 2, "exerciser promoted");
    assert!(report.migrations.rejected >= 1, "exerciser was rejected");
    assert!(report.migrations.demotions >= 1, "exerciser demoted");

    for kind in CostKind::ALL {
        assert_eq!(
            snap.counter("sim.kernel.ns", kind.label()).unwrap_or(0),
            report.kernel.of(kind).0,
            "kernel ns of {kind}"
        );
        assert_eq!(
            snap.counter("sim.kernel.events", kind.label()).unwrap_or(0),
            report.kernel.events_of(kind),
            "kernel events of {kind}"
        );
    }

    assert_eq!(
        snap.counter_total("sim.faults"),
        report.health.faults_injected
    );
    for (class, n) in &report.health.fault_counts {
        assert_eq!(
            snap.counter("sim.faults", class.label()),
            Some(*n),
            "fault count of {class}"
        );
    }
    assert_eq!(
        snap.counter("sim.poison.repairs", "").unwrap_or(0),
        report.health.poison_repairs
    );
    assert!(report.health.poison_repairs > 0, "poison plan fired");
    assert_eq!(
        snap.counter("sim.degraded", "").unwrap_or(0),
        report.health.degraded.len() as u64
    );
    assert!(!report.health.degraded.is_empty(), "exerciser degraded");

    // Histogram totals equal event counts.
    let lat_total: u64 = ["llc", "ddr", "cxl"]
        .iter()
        .filter_map(|l| snap.histogram("sim.access.latency", l))
        .map(|h| h.count)
        .sum();
    assert_eq!(lat_total, report.accesses);
    assert!(report.op_latency.count() > 0);
    assert_eq!(
        snap.histogram("sim.op.latency", ""),
        Some(HistogramSnapshot::of(&report.op_latency.to_log2()))
    );
}

#[test]
fn fault_windows_trace_as_spans() {
    let mut sys = System::with_fault_plan(SystemConfig::small(), &faulty_plan());
    let mut t = Telemetry::enabled();
    let (sink, buf) = MemorySink::new();
    t.add_sink(Box::new(sink));
    sys.install_telemetry(t);
    let region = sys.alloc_region(16, Placement::AllOnCxl).unwrap();
    let mut wl = Stream {
        region,
        n: 6_000,
        i: 0,
    };
    run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);

    let events = buf.lock().unwrap().events.clone();
    let window_events: Vec<_> = events
        .iter()
        .filter(|e| e.name == "sim.fault.window")
        .collect();
    for label in ["latency-spike", "controller-stall"] {
        assert!(
            window_events.iter().any(|e| {
                e.label == label && e.kind == cxl_sim::telemetry::EventKind::SpanStart
            }),
            "missing span start for {label}"
        );
        assert!(
            window_events.iter().any(|e| {
                e.label == label && matches!(e.kind, cxl_sim::telemetry::EventKind::SpanEnd { .. })
            }),
            "missing span end for {label}"
        );
    }
    assert!(
        events.iter().any(|e| e.name == "sim.fault"),
        "fault arming emits instant events"
    );
}

#[test]
fn disabled_telemetry_does_not_perturb_the_run() {
    let (_, with) = seeded_run(Some(Telemetry::enabled()));
    let (_, without) = seeded_run(None);
    assert!(!with.health.degraded.is_empty() && with.migrations.demotions > 0);
    assert_eq!(with, without, "telemetry must be observation-only");
}

/// Replacing the fault plan restarts the injector's counts from zero; the
/// published `sim.faults` and `sim.poison.repairs` totals must keep what
/// the old injectors counted, including counts no flush has published yet.
#[test]
fn replacing_the_fault_plan_keeps_fault_totals() {
    let (mut sys, report) = seeded_run(Some(Telemetry::enabled()));
    let cold = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
    let plan = FaultPlan::none().with(sys.now(), FaultKind::PoisonLine { reads: 2 });
    sys.install_fault_plan(&plan);
    // Cold lines miss to CXL, so both poisoned fills happen here, with no
    // flush in between.
    for i in 0..8 {
        sys.access(cold.base.offset(i * 64), false);
    }
    assert_eq!(sys.fault_injector().poison_repairs(), 2);
    sys.install_fault_plan(&FaultPlan::none());

    let snap = sys.telemetry_mut().snapshot();
    assert_eq!(
        snap.counter_total("sim.faults"),
        report.health.faults_injected + 1
    );
    assert_eq!(
        snap.counter("sim.poison.repairs", ""),
        Some(report.health.poison_repairs + 2)
    );
}
