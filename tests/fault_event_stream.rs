//! Pins the telemetry event stream of a chaos-faulted M5 run, through the
//! `m5` facade.
//!
//! Each access segment's prologue arms the faults that came due and
//! delivers them in one pass: device faults to the controller, then RAS
//! faults to the RAS state machine, then one `sim.fault` event per armed
//! fault. The events the RAS machine and the manager emit interleave with
//! those, so a change to the delivery order or to which faults emit an
//! event moves the pinned digest of the whole stream. A change that moves
//! it on purpose re-pins both values and says why, as it would a golden
//! line.

use std::collections::BTreeMap;

use m5::core::manager::{M5Config, M5Manager};
use m5::sim::checkpoint::fnv64;
use m5::sim::prelude::*;
use m5::sim::system::run;
use m5::workloads::access::{AccessRecorder, ReplayWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ACCESSES: u64 = 200_000;
const PAGES: u64 = 192;
const HOT_PAGES: u64 = 16;

/// Events per name in the pinned run.
const PINNED_COUNTS: [(&str, usize); 7] = [
    ("m5.recovery", 2),
    ("sim.degraded", 4),
    ("sim.fault", 24),
    ("sim.fault.window", 10),
    ("sim.migration.txn", 400),
    ("sim.ras.evacuation", 2),
    ("sim.txn.reset", 2),
];

/// `fnv64` of the `Debug` text of the pinned run's event sequence.
const PINNED_DIGEST: u64 = 0x8a38_55bb_5b0b_d0e3;

/// Three of four accesses go to a few hot pages, the rest anywhere in the
/// region; one in five writes.
fn workload(base: VirtAddr) -> ReplayWorkload {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut rec = AccessRecorder::with_capacity(ACCESSES as usize);
    for _ in 0..ACCESSES {
        let page = if rng.gen_range(0u32..4) < 3 {
            rng.gen_range(0..HOT_PAGES)
        } else {
            rng.gen_range(0..PAGES)
        };
        let line = rng.gen_range(0u64..64);
        rec.push(page * 4096 + line * 64, rng.gen_range(0u32..5) == 0, false);
    }
    rec.into_workload("skewed", base)
}

#[test]
fn chaos_fault_event_stream_is_pinned() {
    let plan = FaultPlan::chaos(3, Nanos::from_millis(4));
    let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
    let mut telemetry = Telemetry::enabled();
    let (sink, buf) = MemorySink::new();
    telemetry.add_sink(Box::new(sink));
    sys.install_telemetry(telemetry);
    let region = sys
        .alloc_region(PAGES, Placement::AllOnCxl)
        .expect("CXL sized to fit");
    let mut wl = workload(region.base);
    let mut m5 = M5Manager::new(M5Config::default());
    let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
    assert_eq!(report.accesses, ACCESSES, "workload ended early");
    assert_eq!(
        report.health.faults_injected,
        plan.len() as u64,
        "every chaos fault armed during the run"
    );

    let events = buf.lock().unwrap().events.clone();
    let mut counts = BTreeMap::new();
    for e in &events {
        *counts.entry(e.name).or_insert(0) += 1;
    }
    let fault_events = counts.get("sim.fault").copied().unwrap_or(0);
    assert_eq!(
        fault_events,
        plan.len(),
        "one sim.fault event per armed fault"
    );
    let counts: Vec<(&str, usize)> = counts.into_iter().collect();
    let digest = fnv64(format!("{events:?}").as_bytes());
    assert_eq!(counts, PINNED_COUNTS);
    assert_eq!(digest, PINNED_DIGEST, "event stream digest {digest:#018x}");
}
