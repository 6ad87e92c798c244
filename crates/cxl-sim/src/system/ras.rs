//! Fault servicing and RAS service epochs: predictive soft-offlining and
//! bounded live evacuation.

use crate::addr::{Pfn, Vpn};
use crate::contention::TrafficClass;
use crate::faults::{DeviceFault, FaultClass, FaultKind, SimError};
use crate::kernel::CostKind;
use crate::memory::{NodeId, CXL_BASE_PFN};
use crate::migration::MigrateError;
use crate::ras::{EvacuationReport, NodeHealth, RasState};
use crate::time::Nanos;
use std::ops::Range;

use super::System;

/// Soft-offline candidates processed per [`System::ras_service`] epoch —
/// bounds the per-epoch stall predictive offlining can add.
const RAS_OFFLINE_BATCH: u64 = 8;

/// What one [`System::ras_service`] epoch accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RasServiceReport {
    /// Frames permanently retired this epoch.
    pub frames_offlined: u64,
    /// Offline candidates whose attempt failed this epoch (page stranded
    /// or frame in flight); the patrol walk re-nominates them.
    pub offline_retries: u64,
    /// Pages drained off the evacuating node this epoch.
    pub pages_drained: u64,
    /// The final evacuation report, when this epoch concluded it.
    pub evacuation: Option<EvacuationReport>,
}

impl System {
    /// Arms due faults and delivers the ones it armed in the same pass:
    /// device faults to the controller first, then RAS faults to the RAS
    /// state machine, then (with telemetry on) one `sim.fault` event per
    /// armed fault. Runs once per access segment ([`System::access_batch`])
    /// and before every migration and RAS epoch; with nothing due, `poll`
    /// is one compare and the armed range is empty.
    #[inline]
    pub(super) fn service_faults(&mut self) {
        let armed = self.faults.poll(self.clock.now());
        for i in armed.clone() {
            if let FaultKind::Device(d) = self.faults.schedule()[i].kind {
                if !d.is_ras() {
                    self.controller.inject(d);
                }
            }
        }
        for i in armed.clone() {
            if let FaultKind::Device(d) = self.faults.schedule()[i].kind {
                if d.is_ras() {
                    self.ras_record(d);
                }
            }
        }
        if self.telemetry_on {
            self.trace_faults(armed);
        }
    }

    /// Delivers one RAS fault to the state machine and mirrors what changed
    /// to telemetry and the degradation log: `sim.ras` counters per fault
    /// class, the `sim.ras.health` gauge on transitions, and a
    /// `sim.ras.evacuation` span opened when the CXL node starts draining.
    fn ras_record(&mut self, fault: DeviceFault) {
        let now = self.clock.now();
        let capacity = self.config.cxl.capacity_frames;
        let delta = self.ras.record(fault, now, capacity);
        if self.telemetry.is_enabled() {
            let label = match fault {
                DeviceFault::CorrectableEcc { .. } => "ce",
                DeviceFault::LinkDegrade { .. } => "link-degrade",
                DeviceFault::HotRemovePrepare => "hot-remove",
                _ => "other",
            };
            self.telemetry.counter_add("sim.ras", label, 1);
            if delta.crossed_threshold {
                self.telemetry
                    .counter_add("sim.ras", "offline-nominated", 1);
            }
        }
        if let Some((from, to)) = delta.transition {
            if self.telemetry.is_enabled() {
                self.telemetry
                    .gauge_set("sim.ras.health", NodeId::Cxl.label(), to.gauge());
                if to == NodeHealth::Evacuating && self.evac_span.is_none() {
                    self.evac_span = Some(self.telemetry.span_start(
                        now.0,
                        "sim.ras.evacuation",
                        NodeId::Cxl.label(),
                    ));
                }
            }
            self.note_degradation(format!("RAS: CXL node health {from} -> {to}"));
        }
    }

    /// Emits an instant event for each fault in `armed` (the schedule
    /// indices armed at `now`) and opens/closes `sim.fault.window` spans as
    /// the injector's latency-spike, stall, and DDR-pressure windows come
    /// and go. Only called with telemetry enabled.
    fn trace_faults(&mut self, armed: Range<usize>) {
        let now = self.clock.now();
        for f in &self.faults.schedule()[armed] {
            self.telemetry
                .event(now.0, "sim.fault", f.kind.class().label());
        }

        let windows = [
            (
                self.faults.cxl_extra_latency(now) > Nanos::ZERO,
                &mut self.spike_span,
                FaultClass::LatencySpike,
            ),
            (
                self.faults.controller_stalled(now),
                &mut self.stall_span,
                FaultClass::ControllerStall,
            ),
            (
                self.faults.ddr_pressure(now),
                &mut self.pressure_span,
                FaultClass::DdrPressure,
            ),
        ];
        for (active, span, class) in windows {
            match (active, span.take()) {
                (true, None) => {
                    *span = Some(self.telemetry.span_start(
                        now.0,
                        "sim.fault.window",
                        class.label(),
                    ));
                }
                (false, Some(s)) => self.telemetry.span_end(now.0, s),
                (_, prev) => *span = prev,
            }
        }
    }

    /// The RAS state machine (read-only: per-node health, CE trends,
    /// evacuation reports).
    pub fn ras(&self) -> &RasState {
        &self.ras
    }

    /// Frames of `node` permanently retired by the RAS layer.
    pub fn offlined_frames(&self, node: NodeId) -> u64 {
        self.memory.node(node).offlined_frames()
    }

    /// One epoch of RAS service work, driven from the migration daemon's
    /// tick (the M5 manager calls this from its `on_tick` prologue):
    ///
    /// 1. **Predictive soft-offlining** — frames whose correctable-error
    ///    count crossed [`crate::ras::CE_OFFLINE_THRESHOLD`] have
    ///    their page migrated off through the journaled (crash-consistent)
    ///    migration path, then the frame is permanently retired. The patrol
    ///    walk behind the candidate harvest is billed as
    ///    [`CostKind::RasScrub`] and re-nominates frames whose earlier
    ///    attempt failed (stranded page, frame in flight).
    /// 2. **Bounded live evacuation** — while the CXL node is `Evacuating`,
    ///    up to `drain_budget` pages per call are migrated to the survivor.
    ///    The budget is the backpressure: demand traffic never waits on
    ///    more than one bounded drain per epoch, and a full survivor
    ///    degrades the drain gracefully instead of wedging it. The node
    ///    goes `Offline` — with an [`EvacuationReport`] — once nothing
    ///    drainable remains or the deadline expires.
    ///
    /// A no-op while the RAS layer is quiescent (fault-free runs) or the
    /// migration engine is fenced awaiting [`System::recover`].
    pub fn ras_service(&mut self, drain_budget: u64) -> RasServiceReport {
        let mut report = RasServiceReport::default();
        // Arm and deliver any RAS faults due since the last access first, so
        // an epoch that saw no demand traffic still notices the trend.
        self.service_faults();
        if self.ras.quiescent() || self.journal.is_fenced() {
            return report;
        }
        let now = self.clock.now();
        self.ras.decay(NodeId::Cxl, now);

        // Phase 1: soft-offline frames with a concerning CE trend.
        let capacity = self.config.cxl.capacity_frames;
        let (candidates, walked) =
            self.ras
                .harvest_offline_candidates(NodeId::Cxl, capacity, RAS_OFFLINE_BATCH);
        if walked > 0 {
            let per = self.config.costs.ras_patrol_per_frame;
            self.daemon_bill(CostKind::RasScrub, per * walked);
            if self.contention_on {
                // Patrol reads one line's worth of CE state per walked
                // frame over the same link demand traffic uses.
                let d = self.contention.bulk_delay(
                    NodeId::Cxl,
                    TrafficClass::Ras,
                    64 * walked,
                    false,
                    self.clock.now(),
                );
                if d > Nanos::ZERO {
                    self.daemon_bill(CostKind::RasScrub, d);
                }
            }
        }
        for idx in candidates {
            let pfn = Pfn(CXL_BASE_PFN + idx);
            if let Some(vpn) = self.page_table.vpn_of(pfn) {
                if self.migrate_page_uncounted(vpn, NodeId::Ddr).is_err() {
                    // Stranded (pinned page, full survivor, fenced engine):
                    // the patrol walk re-nominates the frame next epoch.
                    report.offline_retries += 1;
                    continue;
                }
            }
            if self.memory.node_mut(NodeId::Cxl).offline_frame(pfn) {
                self.ras.note_offlined(NodeId::Cxl, idx);
                report.frames_offlined += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.counter_add("sim.ras", "frame-offlined", 1);
                }
            } else {
                // Held by an open migration transaction; retry next epoch.
                report.offline_retries += 1;
            }
        }

        // Phase 2: bounded live-evacuation drain.
        if self.ras.health(NodeId::Cxl) != NodeHealth::Evacuating {
            return report;
        }
        if !self.ras.evac_deadline_passed(NodeId::Cxl, now) && drain_budget > 0 {
            let victims: Vec<Vpn> = self
                .page_table
                .pages_on(NodeId::Cxl)
                .filter(|(_, pte)| !pte.flags.pinned() && !pte.flags.cxl_bound())
                .map(|(vpn, _)| vpn)
                .take(drain_budget as usize)
                .collect();
            let mut exhausted = false;
            for vpn in victims {
                match self.migrate_page_uncounted(vpn, NodeId::Ddr) {
                    Ok(()) => report.pages_drained += 1,
                    Err(MigrateError::NoFreeFrame(_)) | Err(MigrateError::Quarantined { .. }) => {
                        exhausted = true;
                        break;
                    }
                    Err(MigrateError::NeedsRecovery) | Err(MigrateError::Remap { .. }) => break,
                    Err(_) => {}
                }
            }
            if report.pages_drained > 0 {
                self.ras.note_evacuated(NodeId::Cxl, report.pages_drained);
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .counter_add("sim.ras", "pages-drained", report.pages_drained);
                }
            }
            if exhausted && !self.evac_exhaustion_noted {
                self.evac_exhaustion_noted = true;
                self.note_degradation(format!(
                    "RAS: evacuation drain stalled: {}",
                    SimError::CapacityExhausted(NodeId::Ddr)
                ));
            }
        }

        // Completion check: the node goes Offline once nothing drainable
        // remains (full drain, or only pinned/node-bound residents) or the
        // deadline expired with pages stranded on it.
        let mut residual = 0u64;
        let mut movable = false;
        for (_, pte) in self.page_table.pages_on(NodeId::Cxl) {
            residual += 1;
            if !pte.flags.pinned() && !pte.flags.cxl_bound() {
                movable = true;
            }
        }
        let now = self.clock.now();
        let expired = self.ras.evac_deadline_passed(NodeId::Cxl, now);
        if residual == 0 || !movable || expired {
            if let Some(done) = self.ras.complete_evacuation(NodeId::Cxl, now, residual) {
                report.evacuation = Some(done);
                self.evac_exhaustion_noted = false;
                let span = self.evac_span.take();
                if self.telemetry.is_enabled() {
                    self.telemetry.gauge_set(
                        "sim.ras.health",
                        NodeId::Cxl.label(),
                        NodeHealth::Offline.gauge(),
                    );
                    self.telemetry.counter_add("sim.ras", "evacuations", 1);
                    if let Some(span) = span {
                        self.telemetry.span_end(now.0, span);
                    }
                }
                self.note_degradation(format!(
                    "RAS: CXL node offline: {} pages drained, {} residual, deadline {}",
                    done.pages_moved,
                    done.residual,
                    if done.deadline_met { "met" } else { "missed" }
                ));
            }
        }
        report
    }
}
