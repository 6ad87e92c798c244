//! Memory RAS (reliability/availability/serviceability): correctable-error
//! trending, predictive page offlining, and live node evacuation.
//!
//! Production CXL devices fail *gradually* — ECC corrects a trickle of bit
//! errors per frame, the link retrains to a degraded rate, the fabric
//! manager announces a hot-remove — and the memory manager is expected to
//! ride the decline out: spot the failing frames before they go
//! uncorrectable, move their pages away, and ultimately drain the whole
//! node live while demand traffic continues. This module holds the *state
//! machine* for that process; the mechanics (migrating pages off, retiring
//! frames, billing patrol-scrub time) live on [`crate::system::System`],
//! which owns the page table and allocators, and the drain policy lives in
//! the M5 manager's epoch loop.
//!
//! Health is tracked per node and moves forward only:
//!
//! ```text
//! Healthy → Degraded → Evacuating → Offline
//! ```
//!
//! * **Healthy → Degraded**: the leaky-bucket error rate crosses
//!   [`DEGRADE_TOKENS`] (a burst of correctable errors or link
//!   events — a steady trickle leaks away harmlessly).
//! * **Degraded → Evacuating**: the bucket crosses
//!   [`EVACUATE_TOKENS`], or a
//!   [`DeviceFault::HotRemovePrepare`] arrives (which forces the
//!   transition from *any* earlier state).
//! * **Evacuating → Offline**: the node's mapped pages have been drained
//!   (or the evacuation deadline expired with residual pages), reported in
//!   an [`EvacuationReport`].
//!
//! The whole layer is **quiescent** when no RAS fault has ever been
//! delivered: fault-free runs take none of these branches and stay
//! byte-identical to a build without this module.

use crate::faults::DeviceFault;
use crate::memory::NodeId;
use crate::time::Nanos;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Correctable-error count at which a frame is soft-offlined: its page is
/// migrated off and the frame permanently retired.
pub const CE_OFFLINE_THRESHOLD: u32 = 2;

/// Leaky-bucket level (tokens; one RAS fault = one token) at which the
/// node's health degrades.
pub const DEGRADE_TOKENS: u64 = 3;

/// Bucket level at which the node starts a live evacuation.
pub const EVACUATE_TOKENS: u64 = 8;

/// Tokens leaked per simulated millisecond — the rate that separates a
/// harmless trickle of correctable errors from a failing device.
pub const LEAK_PER_MS: u64 = 1;

/// Frames the patrol scrubber walks per service epoch (each billed
/// [`crate::kernel::CostKind::RasScrub`] time).
pub const PATROL_FRAMES: u64 = 64;

/// The live-evacuation deadline of both [`crate::config::SystemConfig`]
/// presets ([`crate::config::SystemConfig::evac_deadline`]).
pub const DEFAULT_EVAC_DEADLINE: Nanos = Nanos::from_millis(50);

/// Node health, in degradation order. Transitions are forward-only: a node
/// that degraded stays suspect even after its error rate subsides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeHealth {
    /// No concerning error trend.
    #[default]
    Healthy,
    /// Error rate crossed the degrade threshold; watch closely.
    Degraded,
    /// Live evacuation in progress: no new pages may land on the node.
    Evacuating,
    /// Evacuation concluded; the node is out of service.
    Offline,
}

impl NodeHealth {
    /// Stable kebab-case name (also the telemetry label).
    pub const fn label(self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Degraded => "degraded",
            NodeHealth::Evacuating => "evacuating",
            NodeHealth::Offline => "offline",
        }
    }

    /// Numeric value for health gauges (0 = healthy … 3 = offline).
    pub const fn gauge(self) -> f64 {
        match self {
            NodeHealth::Healthy => 0.0,
            NodeHealth::Degraded => 1.0,
            NodeHealth::Evacuating => 2.0,
            NodeHealth::Offline => 3.0,
        }
    }
}

impl fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The final accounting of one live node evacuation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvacuationReport {
    /// The evacuated node.
    pub node: NodeId,
    /// When the node entered `Evacuating`.
    pub started: Nanos,
    /// When the node went `Offline`.
    pub finished: Nanos,
    /// Pages drained off the node during the evacuation.
    pub pages_moved: u64,
    /// Mapped pages still on the node at `Offline` (pinned, node-bound, or
    /// stranded by a full survivor).
    pub residual: u64,
    /// Whether the drain concluded before the evacuation deadline
    /// ([`crate::config::SystemConfig::evac_deadline`]).
    pub deadline_met: bool,
}

/// Live-evacuation bookkeeping while a node is `Evacuating`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EvacProgress {
    started: Nanos,
    deadline: Nanos,
    moved: u64,
}

/// Per-node RAS bookkeeping.
#[derive(Clone, Debug, Default)]
struct NodeRas {
    health: NodeHealth,
    /// Per-frame correctable-error counts, keyed by frame index (relative
    /// to the node's base PFN).
    ce_counts: HashMap<u64, u32>,
    total_ce: u64,
    /// Leaky bucket, in milli-tokens (one fault adds 1000).
    bucket_milli: u64,
    bucket_at: Nanos,
    /// Link latency as a percentage of nominal (100 = full speed).
    link_factor: u32,
    /// Frames whose CE count crossed the threshold, awaiting soft-offline.
    pending_offline: Vec<u64>,
    /// Patrol-scrub cursor (frame index of the next walk's first frame).
    patrol_cursor: u64,
    evac: Option<EvacProgress>,
    report: Option<EvacuationReport>,
}

/// What one delivered RAS fault changed — the `System` turns this into
/// telemetry and degradation notes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RasDelta {
    /// A health transition `(from, to)`, if one happened.
    pub transition: Option<(NodeHealth, NodeHealth)>,
    /// The frame index that took a correctable error, if any.
    pub ce_frame: Option<u64>,
    /// Whether that frame just crossed the offline threshold.
    pub crossed_threshold: bool,
}

/// The RAS state machine for the whole tier (all nodes).
///
/// Pure bookkeeping: nothing in here touches the page table, allocators,
/// clock, or telemetry. The `System` delivers faults via
/// [`RasState::record`] and drives offlining/evacuation from its service
/// epoch; the state machine only decides *what* should happen.
#[derive(Clone, Debug)]
pub struct RasState {
    /// Live-evacuation deadline, from the machine's configuration.
    evac_deadline: Nanos,
    nodes: [NodeRas; 2],
    /// Total RAS faults ever delivered; zero ⇔ the layer is quiescent.
    events: u64,
}

impl RasState {
    /// A fresh, fully healthy state machine whose evacuations must finish
    /// within `evac_deadline`.
    pub fn new(evac_deadline: Nanos) -> RasState {
        RasState {
            evac_deadline,
            nodes: [NodeRas::default(), NodeRas::default()],
            events: 0,
        }
    }

    fn node(&self, id: NodeId) -> &NodeRas {
        &self.nodes[match id {
            NodeId::Ddr => 0,
            NodeId::Cxl => 1,
        }]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeRas {
        &mut self.nodes[match id {
            NodeId::Ddr => 0,
            NodeId::Cxl => 1,
        }]
    }

    /// Whether the RAS layer has never seen a fault. The `System` skips
    /// its RAS service epoch and health checks while this holds, so
    /// fault-free runs are byte-identical to a build without this module.
    /// The access path needs no such gate: [`RasState::extra_latency`] is
    /// zero until a link degrades.
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.events == 0
    }

    /// Current health of `node`.
    #[inline]
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.node(node).health
    }

    /// Total correctable errors recorded on `node`.
    pub fn total_ce(&self, node: NodeId) -> u64 {
        self.node(node).total_ce
    }

    /// The completed evacuation's report, once `node` is `Offline`.
    pub fn evacuation_report(&self, node: NodeId) -> Option<&EvacuationReport> {
        self.node(node).report.as_ref()
    }

    /// Extra latency a degraded link adds to an access to `node` whose
    /// nominal latency is `base` (zero at full link speed).
    #[inline]
    pub fn extra_latency(&self, node: NodeId, base: Nanos) -> Nanos {
        let factor = self.node(node).link_factor;
        if factor > 100 {
            Nanos(base.0 * u64::from(factor - 100) / 100)
        } else {
            Nanos::ZERO
        }
    }

    /// Leaks the bucket down for elapsed simulated time. Health never
    /// improves — decay only affects how much *further* abuse is needed to
    /// cross the next threshold.
    pub fn decay(&mut self, node: NodeId, now: Nanos) {
        let n = self.node_mut(node);
        if now > n.bucket_at {
            let leaked = (now.0 - n.bucket_at.0) * LEAK_PER_MS / 1_000;
            n.bucket_milli = n.bucket_milli.saturating_sub(leaked);
            n.bucket_at = now;
        }
    }

    /// Applies the bucket thresholds (and a forced floor) to `node`'s
    /// health, returning the transition if one happened. `Evacuating` and
    /// `Offline` are never entered here for a node already past them.
    fn retrend(
        &mut self,
        node: NodeId,
        floor: NodeHealth,
        now: Nanos,
    ) -> Option<(NodeHealth, NodeHealth)> {
        let deadline = self.evac_deadline;
        let n = self.node_mut(node);
        let mut target = if n.bucket_milli >= EVACUATE_TOKENS * 1_000 {
            NodeHealth::Evacuating
        } else if n.bucket_milli >= DEGRADE_TOKENS * 1_000 {
            NodeHealth::Degraded
        } else {
            NodeHealth::Healthy
        };
        target = target.max(floor);
        if target > n.health {
            let from = n.health;
            n.health = target;
            if target == NodeHealth::Evacuating {
                n.evac = Some(EvacProgress {
                    started: now,
                    deadline: now + deadline,
                    moved: 0,
                });
            }
            Some((from, target))
        } else {
            None
        }
    }

    /// Delivers one RAS fault (already classified by
    /// [`DeviceFault::is_ras`]) to the node it targets — always the CXL
    /// node, where the controller lives. `capacity` is that node's frame
    /// count; raw frame indices are reduced modulo it.
    pub fn record(&mut self, fault: DeviceFault, now: Nanos, capacity: u64) -> RasDelta {
        let node = NodeId::Cxl;
        self.events += 1;
        self.decay(node, now);
        let mut delta = RasDelta::default();
        let mut floor = NodeHealth::Healthy;
        {
            let n = self.node_mut(node);
            n.bucket_milli += 1_000;
            match fault {
                DeviceFault::CorrectableEcc { pfn } => {
                    let idx = if capacity > 0 { pfn % capacity } else { pfn };
                    let count = n.ce_counts.entry(idx).or_insert(0);
                    *count += 1;
                    n.total_ce += 1;
                    delta.ce_frame = Some(idx);
                    if *count == CE_OFFLINE_THRESHOLD {
                        delta.crossed_threshold = true;
                        if !n.pending_offline.contains(&idx) {
                            n.pending_offline.push(idx);
                        }
                    }
                }
                DeviceFault::LinkDegrade { factor } => {
                    n.link_factor = n.link_factor.max(factor.max(100));
                }
                DeviceFault::HotRemovePrepare => {
                    floor = NodeHealth::Evacuating;
                }
                // Non-RAS faults are routed to snoop devices by the
                // injector and never reach this method.
                DeviceFault::SramBitFlip { .. } | DeviceFault::SramSaturate | DeviceFault::Fail => {
                }
            }
        }
        delta.transition = self.retrend(node, floor, now);
        delta
    }

    /// Harvests the next soft-offline candidates for `node`, at most `max`:
    /// first the queue of frames that crossed the threshold, then a patrol
    /// walk re-checking for frames whose earlier offline attempt failed.
    /// Returns `(candidates, frames_walked)`; the walk advances the patrol
    /// cursor and is what the `System` bills scrub time for.
    pub fn harvest_offline_candidates(
        &mut self,
        node: NodeId,
        capacity: u64,
        max: u64,
    ) -> (Vec<u64>, u64) {
        let patrol = PATROL_FRAMES.min(capacity);
        let n = self.node_mut(node);
        let take = (max as usize).min(n.pending_offline.len());
        let mut out: Vec<u64> = n.pending_offline.drain(..take).collect();
        let mut walked = 0;
        if capacity > 0 {
            for _ in 0..patrol {
                let idx = n.patrol_cursor % capacity;
                n.patrol_cursor = (n.patrol_cursor + 1) % capacity;
                walked += 1;
                if n.ce_counts
                    .get(&idx)
                    .is_some_and(|&c| c >= CE_OFFLINE_THRESHOLD)
                    && !out.contains(&idx)
                    && !n.pending_offline.contains(&idx)
                    && (out.len() as u64) < max
                {
                    out.push(idx);
                }
            }
        }
        (out, walked)
    }

    /// Records that frame `idx` on `node` was permanently retired: its CE
    /// trail is dropped so patrol walks stop re-nominating it. The memory
    /// node's offlined list is the count of retired frames.
    pub fn note_offlined(&mut self, node: NodeId, idx: u64) {
        self.node_mut(node).ce_counts.remove(&idx);
    }

    /// Records `pages` drained off `node` by the evacuation.
    pub fn note_evacuated(&mut self, node: NodeId, pages: u64) {
        if let Some(e) = &mut self.node_mut(node).evac {
            e.moved += pages;
        }
    }

    /// Whether `node`'s evacuation deadline has passed at `now`.
    pub fn evac_deadline_passed(&self, node: NodeId, now: Nanos) -> bool {
        self.node(node).evac.is_some_and(|e| now >= e.deadline)
    }

    /// Concludes `node`'s evacuation: the node goes `Offline` and the final
    /// [`EvacuationReport`] is stored (and returned). `residual` is the
    /// count of mapped pages left stranded on the node.
    pub fn complete_evacuation(
        &mut self,
        node: NodeId,
        now: Nanos,
        residual: u64,
    ) -> Option<EvacuationReport> {
        let n = self.node_mut(node);
        let evac = n.evac.take()?;
        let report = EvacuationReport {
            node,
            started: evac.started,
            finished: now,
            pages_moved: evac.moved,
            residual,
            deadline_met: now <= evac.deadline,
        };
        n.health = NodeHealth::Offline;
        n.report = Some(report);
        Some(report)
    }
}

impl NodeRas {
    fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u8(match self.health {
            NodeHealth::Healthy => 0,
            NodeHealth::Degraded => 1,
            NodeHealth::Evacuating => 2,
            NodeHealth::Offline => 3,
        });
        // HashMap iteration order is process-local; serialize sorted so
        // the image is deterministic.
        let mut ce: Vec<(u64, u32)> = self.ce_counts.iter().map(|(&k, &v)| (k, v)).collect();
        ce.sort_unstable();
        w.put_u64(ce.len() as u64);
        for (idx, count) in ce {
            w.put_u64(idx);
            w.put_u32(count);
        }
        w.put_u64(self.total_ce);
        w.put_u64(self.bucket_milli);
        w.put_u64(self.bucket_at.0);
        w.put_u32(self.link_factor);
        w.put_u64_slice(&self.pending_offline);
        w.put_u64(self.patrol_cursor);
        match self.evac {
            Some(e) => {
                w.put_bool(true);
                w.put_u64(e.started.0);
                w.put_u64(e.deadline.0);
                w.put_u64(e.moved);
            }
            None => w.put_bool(false),
        }
        match &self.report {
            Some(rep) => {
                w.put_bool(true);
                w.put_u8(match rep.node {
                    NodeId::Ddr => 0,
                    NodeId::Cxl => 1,
                });
                w.put_u64(rep.started.0);
                w.put_u64(rep.finished.0);
                w.put_u64(rep.pages_moved);
                w.put_u64(rep.residual);
                w.put_bool(rep.deadline_met);
            }
            None => w.put_bool(false),
        }
    }

    fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<NodeRas, crate::checkpoint::CodecError> {
        let health = match r.get_u8()? {
            0 => NodeHealth::Healthy,
            1 => NodeHealth::Degraded,
            2 => NodeHealth::Evacuating,
            3 => NodeHealth::Offline,
            v => {
                return Err(crate::checkpoint::CodecError::BadValue {
                    what: "node health",
                    value: v as u64,
                })
            }
        };
        let n_ce = r.get_u64()? as usize;
        let mut ce_counts = HashMap::with_capacity(n_ce.min(1 << 16));
        let mut last = None;
        for _ in 0..n_ce {
            let idx = r.get_u64()?;
            let count = r.get_u32()?;
            if last.is_some_and(|prev| idx <= prev) {
                return Err(crate::checkpoint::CodecError::BadValue {
                    what: "correctable-error frame order",
                    value: idx,
                });
            }
            last = Some(idx);
            ce_counts.insert(idx, count);
        }
        let total_ce = r.get_u64()?;
        let bucket_milli = r.get_u64()?;
        let bucket_at = Nanos(r.get_u64()?);
        let link_factor = r.get_u32()?;
        let pending_offline = r.get_u64_vec()?;
        let mut queued = HashSet::with_capacity(pending_offline.len());
        if let Some(&idx) = pending_offline.iter().find(|&&idx| !queued.insert(idx)) {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "repeated pending-offline frame",
                value: idx,
            });
        }
        let patrol_cursor = r.get_u64()?;
        let evac = if r.get_bool()? {
            Some(EvacProgress {
                started: Nanos(r.get_u64()?),
                deadline: Nanos(r.get_u64()?),
                moved: r.get_u64()?,
            })
        } else {
            None
        };
        let report = if r.get_bool()? {
            Some(EvacuationReport {
                node: match r.get_u8()? {
                    0 => NodeId::Ddr,
                    1 => NodeId::Cxl,
                    v => {
                        return Err(crate::checkpoint::CodecError::BadValue {
                            what: "evacuation node",
                            value: v as u64,
                        })
                    }
                },
                started: Nanos(r.get_u64()?),
                finished: Nanos(r.get_u64()?),
                pages_moved: r.get_u64()?,
                residual: r.get_u64()?,
                deadline_met: r.get_bool()?,
            })
        } else {
            None
        };
        Ok(NodeRas {
            health,
            ce_counts,
            total_ce,
            bucket_milli,
            bucket_at,
            link_factor,
            pending_offline,
            patrol_cursor,
            evac,
            report,
        })
    }
}

impl RasState {
    /// Serializes the whole health ladder for a checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        for node in &self.nodes {
            node.save(w);
        }
        w.put_u64(self.events);
    }

    /// Rebuilds the state machine from a checkpoint section, given the
    /// evacuation deadline (not serialized — supplied by the restoring
    /// config).
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, and
    /// rejects with [`CodecError::BadValue`] a node state
    /// [`RasState::record`] cannot build: correctable-error frame indices
    /// that are not strictly increasing (save writes them sorted, one per
    /// frame), or a frame queued for offlining twice.
    ///
    /// [`CodecError::BadValue`]: crate::checkpoint::CodecError::BadValue
    pub fn restore(
        evac_deadline: Nanos,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<RasState, crate::checkpoint::CodecError> {
        Ok(RasState {
            evac_deadline,
            nodes: [NodeRas::restore(r)?, NodeRas::restore(r)?],
            events: r.get_u64()?,
        })
    }
}

impl Default for RasState {
    fn default() -> RasState {
        RasState::new(DEFAULT_EVAC_DEADLINE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ce(pfn: u64) -> DeviceFault {
        DeviceFault::CorrectableEcc { pfn }
    }

    #[test]
    fn fresh_state_is_quiescent_and_healthy() {
        let ras = RasState::default();
        assert!(ras.quiescent());
        for node in NodeId::ALL {
            assert_eq!(ras.health(node), NodeHealth::Healthy);
            assert_eq!(ras.extra_latency(node, Nanos(270)), Nanos::ZERO);
        }
    }

    #[test]
    fn ce_burst_crosses_offline_threshold_once() {
        let mut ras = RasState::default();
        let d1 = ras.record(ce(5), Nanos(10), 64);
        assert_eq!(d1.ce_frame, Some(5));
        assert!(!d1.crossed_threshold);
        let d2 = ras.record(ce(5), Nanos(20), 64);
        assert!(d2.crossed_threshold, "default threshold is 2");
        let d3 = ras.record(ce(5), Nanos(30), 64);
        assert!(!d3.crossed_threshold, "crossing is edge-triggered");
        assert_eq!(ras.total_ce(NodeId::Cxl), 3);
        assert_eq!(ras.node(NodeId::Cxl).ce_counts[&5], 3);
        let (cands, walked) = ras.harvest_offline_candidates(NodeId::Cxl, 64, 8);
        assert_eq!(cands, vec![5]);
        assert_eq!(walked, 64);
        assert!(!ras.quiescent());
    }

    #[test]
    fn frame_indices_reduce_modulo_capacity() {
        let mut ras = RasState::default();
        let d = ras.record(ce(1_000_003), Nanos(0), 64);
        assert_eq!(d.ce_frame, Some(1_000_003 % 64));
    }

    #[test]
    fn bucket_burst_degrades_but_trickle_leaks_away() {
        let mut ras = RasState::default();
        // Three faults in 1 µs: bucket 3 tokens → Degraded.
        for i in 0..3u64 {
            let d = ras.record(ce(i), Nanos(i * 300), 64);
            if i < 2 {
                assert_eq!(d.transition, None);
            } else {
                assert_eq!(
                    d.transition,
                    Some((NodeHealth::Healthy, NodeHealth::Degraded))
                );
            }
        }
        // A trickle on a fresh state: 1 fault every 2 ms leaks fully
        // between events (leak 1 token/ms) and never degrades.
        let mut slow = RasState::default();
        for i in 0..10u64 {
            let d = slow.record(ce(i), Nanos::from_millis(2 * i), 64);
            assert_eq!(d.transition, None, "trickle at event {i}");
        }
        assert_eq!(slow.health(NodeId::Cxl), NodeHealth::Healthy);
    }

    #[test]
    fn health_never_improves() {
        let mut ras = RasState::default();
        for i in 0..3u64 {
            ras.record(ce(i), Nanos(i), 64);
        }
        assert_eq!(ras.health(NodeId::Cxl), NodeHealth::Degraded);
        ras.decay(NodeId::Cxl, Nanos::from_secs(10));
        ras.record(ce(99), Nanos::from_secs(10), 64);
        assert_eq!(ras.health(NodeId::Cxl), NodeHealth::Degraded);
    }

    #[test]
    fn link_degrade_scales_latency_and_takes_the_max() {
        let mut ras = RasState::default();
        ras.record(DeviceFault::LinkDegrade { factor: 150 }, Nanos(0), 64);
        assert_eq!(ras.extra_latency(NodeId::Cxl, Nanos(270)), Nanos(135));
        ras.record(DeviceFault::LinkDegrade { factor: 120 }, Nanos(1), 64);
        assert_eq!(
            ras.extra_latency(NodeId::Cxl, Nanos(270)),
            Nanos(135),
            "a later, milder retrain does not speed the link back up"
        );
        assert_eq!(ras.extra_latency(NodeId::Ddr, Nanos(100)), Nanos::ZERO);
    }

    #[test]
    fn hot_remove_forces_evacuation_and_reports_on_completion() {
        let mut ras = RasState::default();
        let d = ras.record(DeviceFault::HotRemovePrepare, Nanos(1_000), 64);
        assert_eq!(
            d.transition,
            Some((NodeHealth::Healthy, NodeHealth::Evacuating))
        );
        ras.note_evacuated(NodeId::Cxl, 30);
        ras.note_evacuated(NodeId::Cxl, 2);
        assert_eq!(ras.node(NodeId::Cxl).evac.map(|e| e.moved), Some(32));
        assert!(!ras.evac_deadline_passed(NodeId::Cxl, Nanos(2_000)));
        let report = ras
            .complete_evacuation(NodeId::Cxl, Nanos(5_000), 0)
            .unwrap();
        assert_eq!(ras.health(NodeId::Cxl), NodeHealth::Offline);
        assert_eq!(report.pages_moved, 32);
        assert_eq!(report.residual, 0);
        assert!(report.deadline_met);
        assert_eq!(report.started, Nanos(1_000));
        assert_eq!(ras.evacuation_report(NodeId::Cxl), Some(&report));
        // Completing twice is a no-op.
        assert!(ras
            .complete_evacuation(NodeId::Cxl, Nanos(9_000), 0)
            .is_none());
    }

    #[test]
    fn deadline_expiry_marks_report_unmet() {
        let mut ras = RasState::default();
        ras.record(DeviceFault::HotRemovePrepare, Nanos(0), 64);
        let after = DEFAULT_EVAC_DEADLINE + Nanos(1);
        assert!(ras.evac_deadline_passed(NodeId::Cxl, after));
        let report = ras.complete_evacuation(NodeId::Cxl, after, 7).unwrap();
        assert!(!report.deadline_met);
        assert_eq!(report.residual, 7);
    }

    #[test]
    fn patrol_walk_is_bounded_and_wraps() {
        let mut ras = RasState::default();
        for _ in 0..2 {
            ras.record(ce(63), Nanos(0), 64);
        }
        // Drain the pending queue, then rely on patrol to re-find it.
        let (first, _) = ras.harvest_offline_candidates(NodeId::Cxl, 64, 8);
        assert_eq!(first, vec![63]);
        // Not offlined (attempt "failed"): the patrol walk re-harvests.
        let (again, walked) = ras.harvest_offline_candidates(NodeId::Cxl, 64, 8);
        assert_eq!(walked, 64);
        assert_eq!(again, vec![63]);
        ras.note_offlined(NodeId::Cxl, 63);
        let (after, _) = ras.harvest_offline_candidates(NodeId::Cxl, 64, 8);
        assert!(after.is_empty(), "retired frames are not re-nominated");
    }
}
