//! Contention-aware memory timing: per-node loaded-latency queueing.
//!
//! The fixed per-access node latencies ([`crate::memory::NodeConfig`]) model
//! an *average* loaded latency; real CXL links show latency rising steeply
//! with offered load (the paper's §5.2 bandwidth-proportionality argument,
//! and the silicon-validated CXL-DMSim / CXLMemSim curves). This module adds
//! that behaviour as a strictly opt-in layer with two cooperating parts per
//! node:
//!
//! 1. **A loaded-latency curve** — an M/M/1-style standing queue delay
//!    derived from the previous epoch window's offered bytes (plus a
//!    configurable background load from other tenants sharing the link).
//!    The curve is recomputed only at window rollover (the Monitor's
//!    sampling cadence), so it is a deterministic function of the closed
//!    window, not of wall-clock interleaving.
//! 2. **A token-bucket backlog** — every transfer deposits its link service
//!    time into a per-node bucket that drains one-for-one with simulated
//!    time (scaled down by the background load's share of the link). A
//!    transfer arriving at a non-empty bucket waits out the backlog (capped
//!    at `burst_capacity`), which is what makes migration copies, journal
//!    appends, and RAS patrol traffic *backpressure* demand accesses on the
//!    same link — and vice versa — within a single epoch.
//!
//! Traffic is billed per [`TrafficClass`] so the per-epoch queue-delay
//! ledger conserves exactly: the sum of per-class billed nanoseconds equals
//! the node total (a property test enforces this).
//!
//! With `enabled = false` (the default, [`ContentionConfig::disabled`])
//! nothing here is ever consulted and the fixed-cost path is bit-for-bit
//! identical to builds without this module.

use crate::memory::NodeId;
use crate::time::Nanos;

/// Utilizations are clamped below 1.0 so the M/M/1 pole stays finite.
const RHO_MAX: f64 = 0.98;

/// Who a transfer on the shared link is billed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Application demand traffic: LLC miss fills and dirty writebacks.
    Demand,
    /// Page-migration traffic: journaled copy DMA and journal appends.
    Migration,
    /// RAS traffic: patrol-scrub reads (evacuation drains bill as
    /// `Migration` — they ride the journaled migration path).
    Ras,
}

impl TrafficClass {
    /// All classes, in billing-ledger order.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Demand,
        TrafficClass::Migration,
        TrafficClass::Ras,
    ];

    /// Stable lower-case label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Demand => "demand",
            TrafficClass::Migration => "migration",
            TrafficClass::Ras => "ras",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            TrafficClass::Demand => 0,
            TrafficClass::Migration => 1,
            TrafficClass::Ras => 2,
        }
    }
}

/// Queueing parameters of one node's memory link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Link capacity in bytes/second. The defaults scale the paper's
    /// hardware by the same ~42× factor as the node capacities: a single
    /// DDR4-2666 channel behind the CXL controller (~21 GB/s) becomes
    /// 0.5 GB/s, the host DDR (~85 GB/s) becomes 2 GB/s.
    pub peak_bytes_per_sec: u64,
    /// Utilization below which the standing queue delay is zero (curve
    /// offset); queueing becomes visible past the knee.
    pub knee: f64,
    /// Scale of the M/M/1 term: `extra = unloaded · slope · (ρ/(1−ρ) −
    /// knee/(1−knee))` for `ρ > knee`.
    pub slope: f64,
    /// Cap on `loaded / unloaded`; bounds the curve near the pole.
    pub max_load_factor: f64,
    /// Link service cost of a write relative to a read, in permille
    /// (1000 = symmetric). CXL writes carry the NDR/DRS round-trip
    /// asymmetry, so they consume more link time than reads.
    pub write_cost_permille: u64,
    /// Fraction of `peak_bytes_per_sec` consumed by other tenants sharing
    /// the link (the offered-load axis of the loaded-latency sweep). Adds
    /// to the measured window utilization and slows the backlog drain.
    pub background_load: f64,
    /// Cap on the token-bucket backlog delay any single transfer can
    /// observe — a burst of migration copies delays demand fills by at
    /// most this much.
    pub burst_capacity: Nanos,
}

impl LinkParams {
    /// Default DDR link: wide, near-symmetric, short burst queue.
    pub fn ddr_default() -> LinkParams {
        LinkParams {
            peak_bytes_per_sec: 2_000_000_000,
            knee: 0.65,
            slope: 0.35,
            max_load_factor: 4.0,
            write_cost_permille: 1000,
            background_load: 0.0,
            burst_capacity: Nanos(500),
        }
    }

    /// Default CXL link: narrow, write-asymmetric, deeper burst queue.
    pub fn cxl_default() -> LinkParams {
        LinkParams {
            peak_bytes_per_sec: 500_000_000,
            knee: 0.65,
            slope: 0.35,
            max_load_factor: 8.0,
            write_cost_permille: 1500,
            background_load: 0.0,
            burst_capacity: Nanos(2_000),
        }
    }
}

/// Contention-model configuration: one [`LinkParams`] per node plus the
/// master switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentionConfig {
    /// Master switch. `false` (the default) keeps the fixed-cost timing
    /// path bit-for-bit intact — the parameters below are never consulted.
    pub enabled: bool,
    /// Fast-tier link parameters.
    pub ddr: LinkParams,
    /// Slow-tier link parameters.
    pub cxl: LinkParams,
}

impl ContentionConfig {
    /// The default: contention modelling off, legacy fixed costs.
    pub fn disabled() -> ContentionConfig {
        ContentionConfig {
            enabled: false,
            ddr: LinkParams::ddr_default(),
            cxl: LinkParams::cxl_default(),
        }
    }

    /// Contention modelling on with the default link parameters.
    pub fn enabled_default() -> ContentionConfig {
        ContentionConfig {
            enabled: true,
            ..ContentionConfig::disabled()
        }
    }

    /// Returns this config with the CXL background load (offered-load
    /// sweep axis) overridden.
    pub fn with_cxl_background(mut self, load: f64) -> ContentionConfig {
        self.cxl.background_load = load;
        self
    }

    /// The parameters of `node`'s link.
    pub fn link(&self, node: NodeId) -> &LinkParams {
        match node {
            NodeId::Ddr => &self.ddr,
            NodeId::Cxl => &self.cxl,
        }
    }
}

impl Default for ContentionConfig {
    fn default() -> ContentionConfig {
        ContentionConfig::disabled()
    }
}

/// The standing queue delay of a link at `utilization`, on top of
/// `unloaded` latency: zero up to the knee, then an M/M/1-style
/// `ρ/(1−ρ)` rise, capped at `unloaded · (max_load_factor − 1)`.
///
/// Monotone non-decreasing in `utilization` and never negative — the
/// loaded latency never drops below the unloaded floor (property-tested).
pub fn loaded_extra(unloaded: Nanos, utilization: f64, p: &LinkParams) -> Nanos {
    let rho = if utilization.is_finite() {
        utilization.clamp(0.0, RHO_MAX)
    } else {
        RHO_MAX
    };
    let knee = p.knee.clamp(0.0, RHO_MAX);
    if rho <= knee {
        return Nanos::ZERO;
    }
    let q = rho / (1.0 - rho) - knee / (1.0 - knee);
    let extra = unloaded.0 as f64 * p.slope.max(0.0) * q;
    let cap = unloaded.0 as f64 * (p.max_load_factor - 1.0).max(0.0);
    Nanos(extra.min(cap).max(0.0) as u64)
}

/// One node's closed accounting window, returned by
/// [`Contention::rollover`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkWindow {
    /// Bytes offered per traffic class in the closed window.
    pub bytes: [u64; 3],
    /// Queue-delay nanoseconds billed per traffic class in the window.
    pub billed_ns: [u64; 3],
    /// The utilization the *next* window's curve was computed from.
    pub utilization: f64,
}

/// Runtime queue state of one link.
#[derive(Clone, Debug)]
struct Link {
    p: LinkParams,
    unloaded: Nanos,
    /// `background_load` as integer permille, for the deterministic
    /// integer drain computation.
    bg_permille: u64,
    /// Standing queue delay from the loaded-latency curve: always
    /// `loaded_extra(unloaded, cur_util, p)`, cached for the per-fill
    /// path and recomputed whenever `cur_util` changes.
    cur_extra: Nanos,
    /// The utilization `cur_extra` was computed from.
    cur_util: f64,
    /// Token-bucket backlog: deposited service ns not yet drained.
    backlog: u64,
    last_drain: Nanos,
    win_start: Nanos,
    win_bytes: [u64; 3],
    win_ns: [u64; 3],
}

impl Link {
    fn new(p: LinkParams, unloaded: Nanos) -> Link {
        let bg = p.background_load.clamp(0.0, RHO_MAX);
        let cur_util = bg;
        Link {
            bg_permille: (bg * 1000.0) as u64,
            cur_extra: loaded_extra(unloaded, cur_util, &p),
            cur_util,
            backlog: 0,
            last_drain: Nanos::ZERO,
            win_start: Nanos::ZERO,
            win_bytes: [0; 3],
            win_ns: [0; 3],
            p,
            unloaded,
        }
    }

    /// Link service time of a transfer at full capacity, in ns.
    #[inline]
    fn service_ns(&self, bytes: u64, is_write: bool) -> u64 {
        let base = bytes.saturating_mul(1_000_000_000) / self.p.peak_bytes_per_sec.max(1);
        if is_write {
            base.saturating_mul(self.p.write_cost_permille) / 1000
        } else {
            base
        }
    }

    /// Drains the backlog for time elapsed since the last drain. Our
    /// traffic owns only `1 − background_load` of the link, so the bucket
    /// drains at that fraction of real time.
    #[inline]
    fn drain(&mut self, now: Nanos) {
        let elapsed = now.saturating_sub(self.last_drain).0;
        if elapsed > 0 {
            let drained = elapsed.saturating_mul(1000 - self.bg_permille.min(999)) / 1000;
            self.backlog = self.backlog.saturating_sub(drained);
            self.last_drain = now;
        }
    }

    /// Read-only view of the backlog as of `now`.
    #[inline]
    fn backlog_at(&self, now: Nanos) -> u64 {
        let elapsed = now.saturating_sub(self.last_drain).0;
        let drained = elapsed.saturating_mul(1000 - self.bg_permille.min(999)) / 1000;
        self.backlog.saturating_sub(drained)
    }

    /// Bills a transfer the current queue delay and deposits its service
    /// time. Returns the delay the transfer must wait out.
    fn transfer(&mut self, class: TrafficClass, bytes: u64, is_write: bool, now: Nanos) -> Nanos {
        self.drain(now);
        let delay = self.cur_extra.0 + self.backlog.min(self.p.burst_capacity.0);
        self.backlog += self.service_ns(bytes, is_write);
        let i = class.idx();
        self.win_bytes[i] += bytes;
        self.win_ns[i] += delay;
        Nanos(delay)
    }

    /// A fire-and-forget transfer (asynchronous writeback): consumes link
    /// service — raising the backlog and the window's offered bytes — but
    /// nothing waits on it, so zero delay ns are billed.
    fn post(&mut self, class: TrafficClass, bytes: u64, is_write: bool, now: Nanos) {
        self.drain(now);
        self.backlog += self.service_ns(bytes, is_write);
        self.win_bytes[class.idx()] += bytes;
    }

    fn rollover(&mut self, now: Nanos) -> LinkWindow {
        let out = LinkWindow {
            bytes: self.win_bytes,
            billed_ns: self.win_ns,
            utilization: self.cur_util,
        };
        let width = now.saturating_sub(self.win_start).0;
        if width > 0 {
            let offered: u64 = self.win_bytes.iter().sum();
            let measured =
                offered as f64 * 1e9 / (self.p.peak_bytes_per_sec.max(1) as f64 * width as f64);
            self.cur_util = measured + self.p.background_load.clamp(0.0, RHO_MAX);
            self.cur_extra = loaded_extra(self.unloaded, self.cur_util, &self.p);
        }
        // A zero-width window (two rollovers at the same instant — e.g. an
        // access landing exactly on a rollover boundary) carries no
        // information: keep the previous curve rather than dividing by
        // zero or zeroing the estimate.
        self.win_start = now;
        self.win_bytes = [0; 3];
        self.win_ns = [0; 3];
        out
    }
}

/// The whole contention model: one queue per node.
///
/// All entry points take `now` explicitly — state advances only with the
/// simulated clock, so identical access sequences (chunked or per-access)
/// produce identical queue states.
#[derive(Clone, Debug)]
pub struct Contention {
    enabled: bool,
    links: [Link; 2],
}

#[inline]
fn idx(node: NodeId) -> usize {
    match node {
        NodeId::Ddr => 0,
        NodeId::Cxl => 1,
    }
}

impl Contention {
    /// Builds the model from `cfg`; `unloaded` is the per-node fixed
    /// latency (`[DDR, CXL]`) the curves sit on top of.
    pub fn new(cfg: &ContentionConfig, unloaded: [Nanos; 2]) -> Contention {
        Contention {
            enabled: cfg.enabled,
            links: [
                Link::new(cfg.ddr, unloaded[0]),
                Link::new(cfg.cxl, unloaded[1]),
            ],
        }
    }

    /// Whether the model is active. When `false`, callers must not bill
    /// through it (the [`crate::system::System`] hot path checks a cached
    /// copy of this flag).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Queue delay for a 64 B demand fill on `node` at `now`; bills the
    /// demand class.
    #[inline]
    pub fn demand_delay(&mut self, node: NodeId, now: Nanos) -> Nanos {
        self.links[idx(node)].transfer(TrafficClass::Demand, 64, false, now)
    }

    /// Accounts an asynchronous 64 B dirty writeback on `node`: consumes
    /// write-asymmetric link service (backpressuring later transfers) but
    /// delays nothing itself.
    #[inline]
    pub fn writeback(&mut self, node: NodeId, now: Nanos) {
        self.links[idx(node)].post(TrafficClass::Demand, 64, true, now);
    }

    /// Queue delay for a bulk transfer (migration page copy, journal
    /// append, RAS patrol batch) of `bytes` on `node`, billed to `class`.
    /// The burst waits out the queue once; its service feeds the backlog
    /// that subsequent demand fills will wait on.
    pub fn bulk_delay(
        &mut self,
        node: NodeId,
        class: TrafficClass,
        bytes: u64,
        is_write: bool,
        now: Nanos,
    ) -> Nanos {
        self.links[idx(node)].transfer(class, bytes, is_write, now)
    }

    /// Closes both nodes' accounting windows at `now`, recomputing each
    /// loaded-latency curve from its closed window. Returns the closed
    /// windows in `[DDR, CXL]` order.
    pub fn rollover(&mut self, now: Nanos) -> [LinkWindow; 2] {
        [self.links[0].rollover(now), self.links[1].rollover(now)]
    }

    /// Outstanding token-bucket backlog of `node` as of `now` (read-only).
    pub fn queue_ns(&self, node: NodeId, now: Nanos) -> u64 {
        self.links[idx(node)].backlog_at(now)
    }

    /// Estimated extra latency the next demand fill on `node` would pay:
    /// standing curve delay plus capped backlog.
    pub fn extra_estimate(&self, node: NodeId, now: Nanos) -> Nanos {
        let l = &self.links[idx(node)];
        Nanos(l.cur_extra.0 + l.backlog_at(now).min(l.p.burst_capacity.0))
    }

    /// The utilization `node`'s current curve was computed from.
    pub fn utilization(&self, node: NodeId) -> f64 {
        self.links[idx(node)].cur_util
    }

    /// The configured parameters of `node`'s link.
    pub fn params(&self, node: NodeId) -> &LinkParams {
        &self.links[idx(node)].p
    }

    /// Serializes both links' dynamic queue state for a checkpoint.
    /// Parameters and the unloaded floor are rebuilt from configuration,
    /// and the standing delay from the utilization.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        for l in &self.links {
            w.put_f64(l.cur_util);
            w.put_u64(l.backlog);
            w.put_u64(l.last_drain.0);
            w.put_u64(l.win_start.0);
            for i in 0..3 {
                w.put_u64(l.win_bytes[i]);
                w.put_u64(l.win_ns[i]);
            }
        }
    }

    /// Rebuilds the model from a checkpoint section, given the active
    /// configuration and the per-node unloaded latencies. Each link's
    /// standing delay is recomputed from its restored utilization.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn restore(
        cfg: &ContentionConfig,
        unloaded: [Nanos; 2],
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Contention, crate::checkpoint::CodecError> {
        let mut c = Contention::new(cfg, unloaded);
        for l in &mut c.links {
            l.cur_util = r.get_f64()?;
            l.cur_extra = loaded_extra(l.unloaded, l.cur_util, &l.p);
            l.backlog = r.get_u64()?;
            l.last_drain = Nanos(r.get_u64()?);
            l.win_start = Nanos(r.get_u64()?);
            for i in 0..3 {
                l.win_bytes[i] = r.get_u64()?;
                l.win_ns[i] = r.get_u64()?;
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cxl_model(background: f64) -> Contention {
        let cfg = ContentionConfig::enabled_default().with_cxl_background(background);
        Contention::new(&cfg, [Nanos(100), Nanos(270)])
    }

    #[test]
    fn default_is_disabled() {
        let cfg = ContentionConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg, ContentionConfig::disabled());
        assert!(!Contention::new(&cfg, [Nanos(100), Nanos(270)]).enabled());
    }

    #[test]
    fn curve_is_zero_below_knee_and_rises_past_it() {
        let p = LinkParams::cxl_default();
        let u = Nanos(270);
        assert_eq!(loaded_extra(u, 0.0, &p), Nanos::ZERO);
        assert_eq!(loaded_extra(u, p.knee, &p), Nanos::ZERO);
        let at_80 = loaded_extra(u, 0.8, &p);
        let at_95 = loaded_extra(u, 0.95, &p);
        assert!(at_80 > Nanos::ZERO);
        assert!(at_95 > at_80, "{at_95:?} vs {at_80:?}");
        // The cap bounds the pole.
        let at_max = loaded_extra(u, 2.0, &p);
        assert!(at_max.0 <= u.0 * (p.max_load_factor as u64 - 1));
    }

    #[test]
    fn background_load_loads_the_link_from_construction() {
        let calm = cxl_model(0.0).extra_estimate(NodeId::Cxl, Nanos::ZERO);
        let busy = cxl_model(0.9).extra_estimate(NodeId::Cxl, Nanos::ZERO);
        assert_eq!(calm, Nanos::ZERO);
        assert!(busy > Nanos::ZERO, "90% background shows a standing queue");
    }

    #[test]
    fn backlog_drains_with_time() {
        let mut c = cxl_model(0.0);
        // A page copy deposits ~8 µs of service on a 0.5 GB/s link.
        let d0 = c.bulk_delay(NodeId::Cxl, TrafficClass::Migration, 4096, true, Nanos(0));
        assert_eq!(d0, Nanos::ZERO, "empty queue: no delay");
        let d1 = c.demand_delay(NodeId::Cxl, Nanos(100));
        assert!(d1 > Nanos::ZERO, "demand right behind the copy waits");
        assert!(d1.0 <= c.params(NodeId::Cxl).burst_capacity.0);
        // Long after the burst the bucket is dry again.
        let d2 = c.demand_delay(NodeId::Cxl, Nanos(1_000_000));
        assert_eq!(d2, Nanos::ZERO);
    }

    #[test]
    fn writes_cost_more_link_time_than_reads() {
        let mut c = cxl_model(0.0);
        c.writeback(NodeId::Cxl, Nanos::ZERO);
        let wb_backlog = c.queue_ns(NodeId::Cxl, Nanos::ZERO);
        let mut c2 = cxl_model(0.0);
        let _ = c2.demand_delay(NodeId::Cxl, Nanos::ZERO);
        let rd_backlog = c2.queue_ns(NodeId::Cxl, Nanos::ZERO);
        assert!(
            wb_backlog > rd_backlog,
            "write service {wb_backlog} <= read service {rd_backlog}"
        );
    }

    #[test]
    fn a_loaded_link_bills_every_class_it_carries() {
        // Conservation of the billed ns is property-tested in
        // tests/contention_properties.rs; this pins that a loaded link
        // bills delay at all and books bulk bytes to their class.
        let mut c = cxl_model(0.8);
        for i in 0..200u64 {
            let t = Nanos(150 * (i + 1));
            match i % 4 {
                0 => drop(c.bulk_delay(NodeId::Cxl, TrafficClass::Migration, 4096, true, t)),
                1 => c.writeback(NodeId::Cxl, t),
                _ => drop(c.demand_delay(NodeId::Cxl, t)),
            }
        }
        let w = c.rollover(Nanos(30_000))[1];
        assert!(w.billed_ns[TrafficClass::Demand as usize] > 0);
        assert!(w.bytes[TrafficClass::Migration as usize] > 0);
    }

    #[test]
    fn rollover_updates_the_curve_from_offered_load() {
        let mut c = cxl_model(0.0);
        // Saturate the window: 500 MB/s capacity, offer ~64 B/100 ns
        // (640 MB/s) of demand for 100 µs.
        let mut t = 0u64;
        for _ in 0..1000 {
            t += 100;
            let _ = c.demand_delay(NodeId::Cxl, Nanos(t));
        }
        let _ = c.rollover(Nanos(t));
        assert!(
            c.utilization(NodeId::Cxl) > 0.9,
            "util {}",
            c.utilization(NodeId::Cxl)
        );
        assert!(c.extra_estimate(NodeId::Cxl, Nanos(t)) > Nanos::ZERO);
        // An idle window brings the curve back down.
        let _ = c.rollover(Nanos(t + 10_000_000));
        assert!(c.utilization(NodeId::Cxl) < 0.1);
    }

    #[test]
    fn zero_width_rollover_keeps_the_previous_curve() {
        let mut c = cxl_model(0.0);
        let mut t = 0u64;
        for _ in 0..1000 {
            t += 100;
            let _ = c.demand_delay(NodeId::Cxl, Nanos(t));
        }
        let _ = c.rollover(Nanos(t));
        let util = c.utilization(NodeId::Cxl);
        assert!(util > 0.5);
        // Rolling again at the same instant must not zero the estimate.
        let _ = c.rollover(Nanos(t));
        assert_eq!(c.utilization(NodeId::Cxl), util);
    }
}
