//! Property tests for the contention-aware timing model (ISSUE 7):
//!
//! 1. the loaded-latency curve is monotone non-decreasing in offered load
//!    and never dips below the unloaded floor,
//! 2. billed queue-delay ns conserve exactly: the delays the entry points
//!    return on a node sum to the per-class `billed_ns` of its closed
//!    windows, and
//! 3. the queue state is a deterministic function of the op sequence —
//!    replaying the same seeded schedule reproduces every delay and every
//!    closed window bit-for-bit.

use cxl_sim::contention::{loaded_extra, LinkWindow};
use cxl_sim::prelude::*;
use proptest::prelude::*;

// The vendored proptest only implements `Strategy` for integer ranges, so
// fractional parameters are generated in permille and scaled.
fn link_params() -> impl Strategy<Value = LinkParams> {
    (
        (1_000_000u64..100_000_000_000, 0u64..980, 0u64..4000),
        (1000u64..32_000, 500u64..4000, 0u64..980, 0u64..100_000),
    )
        .prop_map(
            |((peak, knee, slope), (max_lf, wcost, bg, burst))| LinkParams {
                peak_bytes_per_sec: peak,
                knee: knee as f64 / 1000.0,
                slope: slope as f64 / 1000.0,
                max_load_factor: max_lf as f64 / 1000.0,
                write_cost_permille: wcost,
                background_load: bg as f64 / 1000.0,
                burst_capacity: Nanos(burst),
            },
        )
}

/// One scripted operation against a contention model. Time deltas are
/// per-op and non-negative, so the reconstructed schedule is always
/// non-decreasing — as the sim clock is.
#[derive(Clone, Copy, Debug)]
enum Op {
    Demand {
        node: bool,
        dt: u64,
    },
    Writeback {
        node: bool,
        dt: u64,
    },
    Bulk {
        node: bool,
        class: u8,
        bytes: u16,
        write: bool,
        dt: u64,
    },
    Rollover {
        dt: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<bool>(), 0u64..5_000).prop_map(|(node, dt)| Op::Demand { node, dt }),
        2 => (any::<bool>(), 0u64..5_000).prop_map(|(node, dt)| Op::Writeback { node, dt }),
        2 => (any::<bool>(), 0u8..3, 1u16..8192, any::<bool>(), 0u64..5_000)
            .prop_map(|(node, class, bytes, write, dt)| Op::Bulk { node, class, bytes, write, dt }),
        1 => (1u64..1_000_000).prop_map(|dt| Op::Rollover { dt }),
    ]
}

fn class_of(c: u8) -> TrafficClass {
    TrafficClass::ALL[c as usize % 3]
}

fn node_of(b: bool) -> NodeId {
    if b {
        NodeId::Cxl
    } else {
        NodeId::Ddr
    }
}

/// Replays `ops` against a fresh model, recording every billed delay (with
/// its node) and every closed window; a last rollover closes the tail.
fn replay(cfg: &ContentionConfig, ops: &[Op]) -> (Vec<(NodeId, Nanos)>, Vec<[LinkWindow; 2]>) {
    let mut c = Contention::new(cfg, [Nanos(100), Nanos(270)]);
    let mut now = Nanos::ZERO;
    let mut delays = Vec::new();
    let mut windows = Vec::new();
    for &o in ops {
        match o {
            Op::Demand { node, dt } => {
                now += Nanos(dt);
                delays.push((node_of(node), c.demand_delay(node_of(node), now)));
            }
            Op::Writeback { node, dt } => {
                now += Nanos(dt);
                c.writeback(node_of(node), now);
            }
            Op::Bulk {
                node,
                class,
                bytes,
                write,
                dt,
            } => {
                now += Nanos(dt);
                let d = c.bulk_delay(node_of(node), class_of(class), bytes as u64, write, now);
                delays.push((node_of(node), d));
            }
            Op::Rollover { dt } => {
                now += Nanos(dt);
                windows.push(c.rollover(now));
            }
        }
    }
    windows.push(c.rollover(now + Nanos(1)));
    (delays, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loaded latency is monotone non-decreasing in offered load and the
    /// loaded value (unloaded + extra) never drops below the unloaded
    /// floor, for any parameter set.
    #[test]
    fn curve_is_monotone_and_floored(
        p in link_params(),
        unloaded in 1u64..100_000,
        lo_pm in 0u64..2000,
        hi_pm in 0u64..2000,
    ) {
        let u = Nanos(unloaded);
        let (lo_pm, hi_pm) = if lo_pm <= hi_pm { (lo_pm, hi_pm) } else { (hi_pm, lo_pm) };
        let (lo, hi) = (lo_pm as f64 / 1000.0, hi_pm as f64 / 1000.0);
        let e_lo = loaded_extra(u, lo, &p);
        let e_hi = loaded_extra(u, hi, &p);
        prop_assert!(e_hi >= e_lo, "extra({hi}) = {e_hi:?} < extra({lo}) = {e_lo:?}");
        // Never below the unloaded floor: extra is non-negative by type
        // (Nanos wraps u64), so loaded = unloaded + extra >= unloaded.
        prop_assert!(u + e_lo >= u);
        // And bounded by the configured cap.
        let cap = (u.0 as f64 * (p.max_load_factor - 1.0).max(0.0)) as u64;
        prop_assert!(e_hi.0 <= cap + 1, "extra {e_hi:?} above cap {cap}");
    }

    /// Billed ns conserve under any op interleaving: on each node, the
    /// delays `demand_delay` and `bulk_delay` returned sum to the
    /// per-class `billed_ns` summed over every closed window, so no delay
    /// a caller paid goes unbilled and no window bills a delay nobody paid.
    #[test]
    fn billed_ns_conserve_across_classes(ops in prop::collection::vec(op(), 1..400)) {
        let cfg = ContentionConfig::enabled_default().with_cxl_background(0.7);
        let (delays, windows) = replay(&cfg, &ops);
        for (n, node) in [NodeId::Ddr, NodeId::Cxl].into_iter().enumerate() {
            let paid: u64 = delays.iter().filter(|(d, _)| *d == node).map(|(_, x)| x.0).sum();
            let billed: u64 = windows.iter().map(|w| w[n].billed_ns.iter().sum::<u64>()).sum();
            prop_assert_eq!(paid, billed, "{} delays paid vs billed over closed windows", node);
        }
    }

    /// The queue is deterministic: replaying an identical op schedule
    /// reproduces every delay and every closed window exactly.
    #[test]
    fn queue_state_is_deterministic(ops in prop::collection::vec(op(), 1..300)) {
        let cfg = ContentionConfig::enabled_default().with_cxl_background(0.5);
        let (d1, w1) = replay(&cfg, &ops);
        let (d2, w2) = replay(&cfg, &ops);
        prop_assert_eq!(d1, d2, "delays must replay bit-for-bit");
        prop_assert_eq!(w1, w2, "windows must replay bit-for-bit");
    }

    /// A disabled config never produces delay through the system path:
    /// `System` guards on the cached flag, so the model is never consulted
    /// — but even if it were, a zero-background disabled-params model
    /// starts with an empty queue.
    #[test]
    fn more_offered_load_never_lowers_the_standing_curve(
        bg_a in 0u64..980,
        bg_b in 0u64..980,
    ) {
        let (bg_a, bg_b) = (bg_a as f64 / 1000.0, bg_b as f64 / 1000.0);
        let (lo, hi) = if bg_a <= bg_b { (bg_a, bg_b) } else { (bg_b, bg_a) };
        let calm = Contention::new(
            &ContentionConfig::enabled_default().with_cxl_background(lo),
            [Nanos(100), Nanos(270)],
        );
        let busy = Contention::new(
            &ContentionConfig::enabled_default().with_cxl_background(hi),
            [Nanos(100), Nanos(270)],
        );
        prop_assert!(
            busy.extra_estimate(NodeId::Cxl, Nanos::ZERO)
                >= calm.extra_estimate(NodeId::Cxl, Nanos::ZERO)
        );
    }
}
