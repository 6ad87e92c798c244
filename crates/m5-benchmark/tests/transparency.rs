//! The measuring must not change the program it measures.
//!
//! At a 250 k-access budget, for every workload: the traced loop with the
//! timing wrapper, the untimed-wrapper timed rep, and (for
//! `mcf_chaos_ckpt`) the checkpointing loop all produce the digest and
//! simulated statistics of a plain `cxl_sim::system::run` with the bare
//! daemon.

use m5_benchmark::rep::{digest, model, rep, RepKind};
use m5_benchmark::workload::{build, Daemon};
use m5_benchmark::Workload;

const BUDGET: u64 = 250_000;
const SEED: u64 = 42;

fn plain(w: Workload) -> (u64, Vec<m5_benchmark::Metric>) {
    let mut p = build(w, BUDGET, SEED);
    let report = match &mut p.daemon {
        Daemon::M5(m5) => cxl_sim::system::run(&mut p.sys, &mut p.wl, m5.as_mut(), BUDGET),
        Daemon::Anb(anb) => cxl_sim::system::run(&mut p.sys, &mut p.wl, anb.as_mut(), BUDGET),
    };
    assert_eq!(report.accesses, BUDGET, "{}: short run", w.name());
    (digest(&report, &p.sys), model(&report, &p.sys))
}

#[test]
fn wrapped_traced_and_checkpointing_loops_match_plain_run() {
    for w in Workload::ALL {
        let (want, want_model) = plain(w);
        // No round trips, then a round trip every 60 k accesses (only
        // `mcf_chaos_ckpt` checkpoints).
        for every in [u64::MAX, 60_000] {
            for kind in [RepKind::Warmup, RepKind::Timed, RepKind::Traced] {
                let r = rep(w, BUDGET, SEED, every, kind).expect("rep completes");
                assert!(r.problems.is_empty(), "{}: {:?}", w.name(), r.problems);
                assert_eq!(
                    r.digest,
                    want,
                    "{} {kind:?} every {every}: digest differs from plain run",
                    w.name()
                );
                assert_eq!(r.model, want_model, "{} {kind:?}", w.name());
                assert_eq!(r.spans.is_some(), kind == RepKind::Traced);
            }
        }
    }
}

#[test]
fn checkpointing_rep_round_trips_and_traces_every_call() {
    let w = Workload::McfChaosCkpt;
    let r = rep(w, BUDGET, SEED, 60_000, RepKind::Traced).expect("rep completes");
    let spans = r.spans.expect("traced");
    let count = |name: &str| {
        spans
            .spans()
            .iter()
            .filter(|s| s.layer.name() == name)
            .count()
    };
    // Round trips at 60 k, 120 k, 180 k and 240 k; none at the end.
    for name in ["ckpt", "capture", "encode", "decode", "restore"] {
        assert_eq!(count(name), 4, "{name}");
    }
    assert_eq!(count("report"), 1);
    assert!(count("tick") > 0, "the manager ticked");
    let generated: u64 = spans
        .spans()
        .iter()
        .filter(|s| s.layer.name() == "gen")
        .map(|s| s.work)
        .sum();
    assert_eq!(generated, BUDGET);
    // Every child lies inside its parent.
    for s in spans.spans() {
        if let Some(p) = s.parent {
            let p = spans.spans()[p];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
    }
}

#[test]
fn mcf_anb_faults_are_traced_under_their_drive_span() {
    let r = rep(Workload::McfAnb, BUDGET, SEED, u64::MAX, RepKind::Traced).expect("completes");
    let spans = r.spans.expect("traced");
    let faults: Vec<_> = spans
        .spans()
        .iter()
        .filter(|s| s.layer.name() == "fault")
        .collect();
    assert_eq!(faults.len() as u64, r.report.hinting_faults);
    assert!(faults.iter().all(|f| f
        .parent
        .is_some_and(|p| spans.spans()[p].layer.name() == "drive")));
}
