//! The composed machine and its run loop.
//!
//! A [`System`] wires together the tiered memory, page table, TLB, LLC,
//! CXL controller, performance monitor, MGLRU and the kernel-cost ledger.
//! The [`run`] driver pulls accesses from an [`AccessStream`] (a workload),
//! pushes them through [`System::access`], dispatches hinting faults and
//! periodic wakeups to a [`MigrationDaemon`], and assembles a
//! [`RunReport`].
//!
//! ## Timing model
//!
//! Each access advances the simulated clock by its end-to-end latency:
//! LLC hit time, plus a page walk on a TLB miss, plus the node's DRAM
//! latency on an LLC miss, plus soft-fault handling if the page was
//! unmapped. Kernel work performed by a migration daemon additionally
//! advances the clock when the daemon is co-located with the application
//! core (`SystemConfig::colocated_daemon`, the paper's §6 methodology) —
//! this is how identification overhead turns into application slowdown.
//!
//! Copy-engine traffic of page migration is *not* visible to the
//! performance monitor or the CXL snoop devices: we model it as a DCOH/DMA
//! transfer whose cost is folded into `CostModel::migrate_per_page`. This
//! keeps `bw()` an application-demand signal, which is what the
//! M5-manager's Monitor needs (§5.2), and keeps the profiled access counts
//! attributable to the application.

use crate::addr::{CacheLineAddr, Pfn, VirtAddr, Vpn, WordIndex, WORDS_PER_PAGE};
use crate::cache::Llc;
use crate::chunk::{AccessChunk, CHUNK_ADDR_MASK, CHUNK_OP_END_BIT, CHUNK_WRITE_BIT};
use crate::config::{Placement, SystemConfig};
use crate::contention::{Contention, TrafficClass};
use crate::controller::{CxlController, CxlDevice, DeviceHandle};
use crate::faults::{DeviceFault, FaultClass, FaultEvent, FaultInjector, FaultPlan, SimError};
use crate::journal::{MigrationJournal, RecoveryReport, TxnId, TxnState};
use crate::kernel::{CostKind, KernelCosts};
use crate::memory::{NodeId, OutOfFrames, TieredMemory, CXL_BASE_PFN};
use crate::mglru::MgLru;
use crate::migration::{BatchOutcome, MigrateError, MigrationStats};
use crate::paging::{PageTable, Pte};
use crate::perfmon::{BandwidthStats, PerfMonitor};
use crate::ras::{EvacuationReport, NodeHealth, RasState};
use crate::report::{HealthReport, LatencyHistogram, RunReport};
use crate::time::{Clock, Nanos};
use crate::tlb::Tlb;
use m5_telemetry::{SpanId, Telemetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A contiguous virtual region handed to a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First byte of the region.
    pub base: VirtAddr,
    /// Length in pages.
    pub pages: u64,
}

impl Region {
    /// Iterates over the region's virtual page numbers.
    pub fn vpns(&self) -> impl Iterator<Item = Vpn> {
        let first = self.base.vpn().0;
        (first..first + self.pages).map(Vpn)
    }

    /// Whether `vpn` falls inside this region.
    pub fn contains(&self, vpn: Vpn) -> bool {
        let first = self.base.vpn().0;
        (first..first + self.pages).contains(&vpn.0)
    }

    /// Length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.pages * crate::addr::PAGE_SIZE as u64
    }
}

/// One memory access issued by a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The virtual byte address touched.
    pub vaddr: VirtAddr,
    /// Whether this is a store.
    pub is_write: bool,
    /// Whether this access completes a client-visible operation (used for
    /// per-op latency percentiles, e.g. Redis p99).
    pub op_end: bool,
}

impl Access {
    /// A load with no op marker.
    pub fn read(vaddr: VirtAddr) -> Access {
        Access {
            vaddr,
            is_write: false,
            op_end: false,
        }
    }

    /// A store with no op marker.
    pub fn write(vaddr: VirtAddr) -> Access {
        Access {
            vaddr,
            is_write: true,
            op_end: false,
        }
    }

    /// Marks this access as the end of an operation.
    pub fn end_op(mut self) -> Access {
        self.op_end = true;
        self
    }
}

/// A source of memory accesses (implemented by every workload in
/// `m5-workloads`).
pub trait AccessStream {
    /// Produces the next access, or `None` when the workload is complete.
    fn next_access(&mut self) -> Option<Access>;

    /// Appends accesses to `chunk` until it is full or the stream ends,
    /// returning how many were appended (0 means the stream is done).
    ///
    /// The default implementation loops [`AccessStream::next_access`], so
    /// every stream batches correctly; generators with a cheaper bulk path
    /// (recorded traces, co-runners) override it. Implementations must
    /// produce exactly the `next_access` sequence — the equivalence is what
    /// lets the chunked run driver replace the per-access loop
    /// byte-identically.
    fn fill_chunk(&mut self, chunk: &mut AccessChunk) -> usize {
        let mut n = 0;
        while !chunk.is_full() {
            match self.next_access() {
                Some(a) => {
                    chunk.push(a);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// The result of one [`System::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// End-to-end latency of the access (already applied to the clock).
    pub latency: Nanos,
    /// Whether the LLC served the access.
    pub llc_hit: bool,
    /// The node that served the miss fill, if any.
    pub dram_node: Option<NodeId>,
    /// The physical cache line touched in DRAM, if any.
    pub line: Option<CacheLineAddr>,
    /// Whether a soft (hinting) page fault was taken.
    pub hinting_fault: bool,
    /// Whether the read returned a poisoned line that memory-failure
    /// handling recovered (fault injection only; the latency includes the
    /// repair cost).
    pub poisoned: bool,
}

/// A daemon that observes system events and migrates pages — ANB, DAMON, or
/// the M5-manager. The no-op implementation is [`NoMigration`].
pub trait MigrationDaemon {
    /// A short label used in reports.
    fn name(&self) -> &str;

    /// Called once before the run starts.
    fn on_start(&mut self, _sys: &mut System) {}

    /// The next simulated instant at which [`MigrationDaemon::on_tick`]
    /// should run, or `None` for a purely event-driven daemon.
    fn next_wake(&self) -> Option<Nanos> {
        None
    }

    /// Periodic work (scanning, querying trackers, migrating). The
    /// implementation must move its own `next_wake` forward, or the driver
    /// will stop invoking it for the current instant.
    fn on_tick(&mut self, _sys: &mut System) {}

    /// A hinting page fault was taken on `vpn` (ANB's migration trigger).
    fn on_fault(&mut self, _vpn: Vpn, _sys: &mut System) {}
}

/// The trivial daemon: never migrates (the paper's "no page migration"
/// baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMigration;

impl MigrationDaemon for NoMigration {
    fn name(&self) -> &str {
        "none"
    }
}

/// Per-access telemetry deltas, accumulated locally and flushed to the
/// [`Telemetry`] registry once per tick instead of once per access.
///
/// `Telemetry::counter_add` costs a `HashMap` probe per call; the access
/// hot path bumps up to eight counters and one histogram per access, so on
/// instrumented runs the probes dominate. This struct holds those deltas
/// as plain array slots — indexed by node, snoop kind, or [`CostKind`] —
/// and [`System::flush_telemetry`] merges them in one probe per metric.
/// Flush points: every [`System::rollover_bandwidth`] (the Monitor tick),
/// every [`System::telemetry_mut`] borrow (so external writers/snapshots
/// never see a torn view), and the end of [`run`]. Counters only ever sum,
/// so the final snapshot is identical to per-access recording.
#[derive(Debug, Default)]
struct TelemetryBatch {
    pending: bool,
    /// `[read, write]`.
    accesses: [u64; 2],
    /// `[hit, miss]`.
    llc: [u64; 2],
    hinting_faults: u64,
    poison_repairs: u64,
    /// Indexed like [`NodeId::ALL`]: `[ddr, cxl]`.
    dram_reads: [u64; 2],
    dram_writebacks: [u64; 2],
    /// `[read, writeback, dropped]`.
    snoops: [u64; 3],
    /// Indexed like [`CostKind::ALL`].
    kernel_ns: [u64; CostKind::ALL.len()],
    kernel_events: [u64; CostKind::ALL.len()],
    /// Access-latency scratch histograms: `[llc, ddr, cxl]`.
    latency: [m5_telemetry::Log2Histogram; 3],
    /// Per-node contention queue-delay histograms (`[ddr, cxl]`); only
    /// ever recorded with the contention model enabled, so disabled runs
    /// never materialize the metric.
    contention_extra: [m5_telemetry::Log2Histogram; 2],
}

const BATCH_SNOOP_READ: usize = 0;
const BATCH_SNOOP_WRITEBACK: usize = 1;
const BATCH_SNOOP_DROPPED: usize = 2;
const BATCH_LAT_LLC: usize = 0;
const BATCH_LAT_DDR: usize = 1;
const BATCH_LAT_CXL: usize = 2;

/// Soft-offline candidates processed per [`System::ras_service`] epoch —
/// bounds the per-epoch stall predictive offlining can add.
const RAS_OFFLINE_BATCH: u64 = 8;

#[inline]
fn node_idx(node: NodeId) -> usize {
    match node {
        NodeId::Ddr => 0,
        NodeId::Cxl => 1,
    }
}

/// The composed tiered-memory machine.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    clock: Clock,
    memory: TieredMemory,
    page_table: PageTable,
    tlb: Tlb,
    llc: Llc,
    controller: CxlController,
    perfmon: PerfMonitor,
    kernel: KernelCosts,
    ddr_lru: MgLru,
    migrations: MigrationStats,
    journal: MigrationJournal,
    hinting_faults: u64,
    next_vpn: u64,
    placement_rng: SmallRng,
    last_tlb_flush: Nanos,
    faults: FaultInjector,
    degradations: Vec<String>,
    promoter_retried: u64,
    promoter_gave_up: u64,
    telemetry: Telemetry,
    /// Cached `telemetry.is_enabled()` so the access path tests one bool.
    telemetry_on: bool,
    contention: Contention,
    /// Cached `contention.enabled()` so the access path tests one bool;
    /// with it false the timing model is bit-for-bit the legacy fixed-cost
    /// path.
    contention_on: bool,
    batch: TelemetryBatch,
    fault_events_seen: usize,
    spike_span: Option<SpanId>,
    stall_span: Option<SpanId>,
    pressure_span: Option<SpanId>,
    ras: RasState,
    evac_span: Option<SpanId>,
    /// Whether the current evacuation already noted survivor-capacity
    /// exhaustion (one degradation entry per evacuation, not per epoch).
    evac_exhaustion_noted: bool,
}

impl System {
    /// Builds a machine from `config` with no fault injection
    /// ([`FaultPlan::none`] — fault-free runs are byte-identical to builds
    /// without the fault module).
    pub fn new(config: SystemConfig) -> System {
        System::with_fault_plan(config, &FaultPlan::none())
    }

    /// Builds a machine from `config` executing `plan`.
    pub fn with_fault_plan(config: SystemConfig, plan: &FaultPlan) -> System {
        System {
            memory: TieredMemory::new(config.ddr.clone(), config.cxl.clone()),
            tlb: Tlb::new(config.tlb),
            llc: Llc::new(config.llc),
            controller: CxlController::new(),
            perfmon: PerfMonitor::new(),
            kernel: KernelCosts::new(),
            ddr_lru: MgLru::new(),
            migrations: MigrationStats::default(),
            journal: MigrationJournal::new(),
            hinting_faults: 0,
            next_vpn: 0,
            placement_rng: SmallRng::seed_from_u64(0x4d35_0001),
            last_tlb_flush: Nanos::ZERO,
            page_table: PageTable::new(),
            clock: Clock::new(),
            faults: FaultInjector::from_plan(plan),
            degradations: Vec::new(),
            promoter_retried: 0,
            promoter_gave_up: 0,
            telemetry: Telemetry::disabled(),
            telemetry_on: false,
            contention: Contention::new(
                &config.contention,
                [config.ddr.access_latency, config.cxl.access_latency],
            ),
            contention_on: config.contention.enabled,
            batch: TelemetryBatch::default(),
            fault_events_seen: 0,
            spike_span: None,
            stall_span: None,
            pressure_span: None,
            ras: RasState::new(config.ras),
            evac_span: None,
            evac_exhaustion_noted: false,
            config,
        }
    }

    /// Installs a telemetry bus (typically [`Telemetry::enabled`] with sinks
    /// attached). The default is [`Telemetry::disabled`], which reduces every
    /// instrumentation point to a single branch.
    pub fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.telemetry_on = self.telemetry.is_enabled();
    }

    /// The telemetry bus (read-only: snapshots).
    ///
    /// Per-access `sim.*` counters accumulate in a local batch and become
    /// visible at flush points (see [`System::flush_telemetry`]); a
    /// snapshot taken between flushes can trail the current tick's
    /// accesses. Borrow via [`System::telemetry_mut`] first — it flushes —
    /// when an exact point-in-time view is needed.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The telemetry bus (mutable — daemons record manager-side metrics and
    /// spans through the system's bus so one snapshot covers the whole
    /// stack). Flushes the per-access batch first, so external writers and
    /// snapshot takers always see fully up-to-date counters.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        self.flush_telemetry();
        &mut self.telemetry
    }

    /// Drains the per-access telemetry batch into the bus registry: one
    /// probe per touched metric instead of one per access. Idempotent and
    /// cheap when nothing is pending. Called automatically on
    /// [`System::rollover_bandwidth`], [`System::telemetry_mut`], and at
    /// the end of [`run`].
    pub fn flush_telemetry(&mut self) {
        if !self.batch.pending {
            return;
        }
        let b = std::mem::take(&mut self.batch);
        let t = &mut self.telemetry;
        for (label, v) in [("read", b.accesses[0]), ("write", b.accesses[1])] {
            if v > 0 {
                t.counter_add("sim.accesses", label, v);
            }
        }
        for (label, v) in [("hit", b.llc[0]), ("miss", b.llc[1])] {
            if v > 0 {
                t.counter_add("sim.llc", label, v);
            }
        }
        if b.hinting_faults > 0 {
            t.counter_add("sim.hinting_faults", "", b.hinting_faults);
        }
        if b.poison_repairs > 0 {
            t.counter_add("sim.poison.repairs", "", b.poison_repairs);
        }
        for node in NodeId::ALL {
            let i = node_idx(node);
            if b.dram_reads[i] > 0 {
                t.counter_add("sim.dram.reads", node.label(), b.dram_reads[i]);
            }
            if b.dram_writebacks[i] > 0 {
                t.counter_add("sim.dram.writebacks", node.label(), b.dram_writebacks[i]);
            }
        }
        for (label, i) in [
            ("read", BATCH_SNOOP_READ),
            ("writeback", BATCH_SNOOP_WRITEBACK),
            ("dropped", BATCH_SNOOP_DROPPED),
        ] {
            if b.snoops[i] > 0 {
                t.counter_add("sim.snoops", label, b.snoops[i]);
            }
        }
        for (i, kind) in CostKind::ALL.iter().enumerate() {
            if b.kernel_ns[i] > 0 {
                t.counter_add("sim.kernel.ns", kind.label(), b.kernel_ns[i]);
            }
            if b.kernel_events[i] > 0 {
                t.counter_add("sim.kernel.events", kind.label(), b.kernel_events[i]);
            }
        }
        for (label, i) in [
            ("llc", BATCH_LAT_LLC),
            ("ddr", BATCH_LAT_DDR),
            ("cxl", BATCH_LAT_CXL),
        ] {
            t.histogram_merge("sim.access.latency", label, &b.latency[i]);
        }
        for node in NodeId::ALL {
            // Empty histograms are skipped by the merge, so contention-off
            // runs never grow a `sim.contention.*` metric.
            t.histogram_merge(
                "sim.contention.extra",
                node.label(),
                &b.contention_extra[node_idx(node)],
            );
        }
    }

    /// Replaces the fault plan (resets the injector; already-armed windows
    /// close, pending one-shot faults are dropped).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = FaultInjector::from_plan(plan);
    }

    /// The fault injector (read-only: counts, log, poison repairs).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Consumes the next armed torn-checkpoint fault, if any, returning the
    /// manifest section index at which the commit must be cut short. The
    /// checkpointing harness calls this immediately before each commit and
    /// switches to [`crate::checkpoint::Checkpoint::commit_torn`] when a
    /// fault is armed.
    pub fn take_torn_checkpoint(&mut self) -> Option<u64> {
        self.faults.take_torn_checkpoint()
    }

    /// Every fault armed so far, in arming order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.log()
    }

    /// Records a degradation-mode switch (e.g. a daemon falling back to
    /// software-only identification after tracker failure). Surfaces in
    /// [`RunReport::health`].
    pub fn note_degradation(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.telemetry.is_enabled() {
            let now = self.clock.now().0;
            self.telemetry.event(now, "sim.degraded", msg.clone());
            self.telemetry.counter_add("sim.degraded", "", 1);
        }
        self.degradations.push(msg);
    }

    /// Degradation-mode switches recorded so far.
    pub fn degradations(&self) -> &[String] {
        &self.degradations
    }

    /// Accounts Promoter retry activity for [`RunReport::health`].
    pub fn note_promoter_retries(&mut self, retried: u64, gave_up: u64) {
        self.promoter_retried += retried;
        self.promoter_gave_up += gave_up;
    }

    /// Arms due faults and delivers queued device faults to the controller.
    #[inline]
    fn service_faults(&mut self) {
        let now = self.clock.now();
        // Fast path for fault-free operation (every golden run, most
        // benches): a quiescent injector with no open telemetry span and
        // no unseen log entries makes the rest of this function a no-op.
        if self.faults.quiescent(now)
            && self.fault_events_seen == self.faults.log().len()
            && self.spike_span.is_none()
            && self.stall_span.is_none()
            && self.pressure_span.is_none()
        {
            return;
        }
        self.faults.poll(now);
        while let Some(f) = self.faults.pop_device_fault() {
            self.controller.inject(f);
        }
        while let Some(f) = self.faults.pop_ras_fault() {
            self.ras_record(f);
        }
        if self.telemetry.is_enabled() {
            self.trace_faults();
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

    /// Emits instant events for newly-armed faults and opens/closes
    /// `sim.fault.window` spans as the injector's latency-spike, stall, and
    /// DDR-pressure windows come and go. Only called with telemetry enabled.
    fn trace_faults(&mut self) {
        let now = self.clock.now();
        for i in self.fault_events_seen..self.faults.log().len() {
            let ev = self.faults.log()[i];
            self.telemetry
                .counter_add("sim.faults", ev.class.label(), 1);
            self.telemetry.event(ev.at.0, "sim.fault", ev.class.label());
        }
        self.fault_events_seen = self.faults.log().len();

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

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Allocates a region of `pages` pages placed per `placement`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfFrames`] if a node runs out of capacity
    /// (when interleaved placement finds DDR full it falls back to CXL and
    /// vice versa, so only total exhaustion fails), or
    /// [`SimError::NodeOffline`] if the target node is being evacuated or
    /// has been taken offline by the RAS layer.
    pub fn alloc_region(&mut self, pages: u64, placement: Placement) -> Result<Region, SimError> {
        let base_vpn = self.next_vpn;
        let mut rng = match placement {
            Placement::Interleaved { seed, .. } => SmallRng::seed_from_u64(seed),
            _ => SmallRng::seed_from_u64(self.placement_rng.gen()),
        };
        for i in 0..pages {
            let vpn = Vpn(base_vpn + i);
            let want = match placement {
                Placement::AllOnCxl => NodeId::Cxl,
                Placement::AllOnDdr => NodeId::Ddr,
                Placement::Interleaved { ddr_fraction, .. } => {
                    if rng.gen::<f64>() < ddr_fraction {
                        NodeId::Ddr
                    } else {
                        NodeId::Cxl
                    }
                }
            };
            if !self.ras.quiescent() && self.ras.health(want) >= NodeHealth::Evacuating {
                return Err(SimError::NodeOffline(want));
            }
            let pfn = match self.memory.alloc_on(want) {
                Ok(pfn) => pfn,
                Err(_) if matches!(placement, Placement::Interleaved { .. }) => {
                    self.memory.alloc_on(want.other())?
                }
                Err(e) => return Err(e.into()),
            };
            self.page_table.map(vpn, pfn);
            if NodeId::of_pfn(pfn) == NodeId::Ddr {
                self.ddr_lru.insert(vpn);
            }
        }
        self.next_vpn += pages;
        Ok(Region {
            base: Vpn(base_vpn).base(),
            pages,
        })
    }

    /// Performs one memory access, advancing the clock by its latency.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` is not mapped — workloads only touch regions they
    /// allocated, so an unmapped access is a bug. Use
    /// [`System::try_access`] where unmapped addresses are recoverable.
    pub fn access(&mut self, vaddr: VirtAddr, is_write: bool) -> AccessOutcome {
        self.try_access(vaddr, is_write)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Performs one memory access, advancing the clock by its latency.
    ///
    /// Injected faults are handled here: latency spikes inflate the CXL
    /// access time, controller stalls blind the snoop devices, and poisoned
    /// lines are recovered via the memory-failure path (billed, flagged on
    /// the outcome) — none of them fail the access.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unmapped`] if `vaddr` is not mapped.
    pub fn try_access(
        &mut self,
        vaddr: VirtAddr,
        is_write: bool,
    ) -> Result<AccessOutcome, SimError> {
        self.service_faults();

        // Context-switch-style full TLB flush: the passive invalidation that
        // lets accessed bits get re-set for TLB-resident hot pages (§2.1).
        if let Some(interval) = self.config.tlb_flush_interval {
            if self.clock.now() - self.last_tlb_flush >= interval {
                self.tlb.flush();
                self.last_tlb_flush = self.clock.now();
            }
        }

        let (pte, latency, hinting_fault) = self.translate(vaddr, is_write)?;
        Ok(self.access_frame(vaddr, pte.pfn, is_write, latency, hinting_fault, true))
    }

    /// Translates `vaddr` for one access: a hinting fault on a
    /// non-present page, the TLB probe with a page walk on a miss, and
    /// the PTE flag store. Returns the PTE as stored, the latency so far
    /// and whether a hinting fault was taken.
    #[inline]
    fn translate(
        &mut self,
        vaddr: VirtAddr,
        is_write: bool,
    ) -> Result<(Pte, Nanos, bool), SimError> {
        let vpn = vaddr.vpn();
        let costs = self.config.costs;
        let mut latency = Nanos::ZERO;
        let mut hinting_fault = false;

        let pte = match self.page_table.get(vpn) {
            Some(p) => *p,
            None => return Err(SimError::Unmapped(vaddr)),
        };
        // Flag updates accumulate locally and are stored once at the end:
        // nothing between here and the store reads the page table, and in
        // steady state (accessed already set, page already dirty) the store
        // is skipped entirely, saving a second random table lookup.
        let mut flags = pte.flags;

        if !flags.present() {
            // Soft (hinting) page fault: kernel re-establishes the mapping.
            hinting_fault = true;
            self.hinting_faults += 1;
            self.bill_kernel(CostKind::HintingFault, costs.hinting_fault);
            latency += costs.hinting_fault;
            flags = flags.with_present();
        }

        if !self.tlb.lookup(vpn) {
            latency += costs.page_walk;
            flags = flags.with_accessed();
            self.tlb.insert(vpn);
        }

        if is_write {
            flags = flags.with_dirty();
        }

        if flags != pte.flags {
            self.page_table.store_flags(vpn, flags);
        }
        Ok((
            Pte {
                pfn: pte.pfn,
                flags,
            },
            latency,
            hinting_fault,
        ))
    }

    /// The access past translation to `pfn`: LLC, DRAM, snoops,
    /// telemetry and the clock. `latency` and `hinting_fault` carry the
    /// translation's share.
    ///
    /// `faults_active = false` is the batch fast path: the caller has
    /// proven the injector quiescent up to a horizon (no stall window, no
    /// latency spike, no pending poison), so the per-access fault queries
    /// compile down to constants. With a quiescent injector both variants
    /// are exactly equivalent — `controller_stalled` is false,
    /// `cxl_extra_latency` is zero, `take_poisoned_read` is false — which
    /// keeps the chunked driver byte-identical to the per-access loop.
    #[inline]
    fn access_frame(
        &mut self,
        vaddr: VirtAddr,
        pfn: Pfn,
        is_write: bool,
        mut latency: Nanos,
        hinting_fault: bool,
        faults_active: bool,
    ) -> AccessOutcome {
        let costs = self.config.costs;
        let word = WordIndex(vaddr.word_index().0);
        let line = pfn.word(word).cache_line();
        latency += costs.llc_hit;

        let res = self.llc.access(line, is_write);
        let mut dram_node = None;
        let mut poisoned = false;
        let now = self.clock.now();
        let stalled = faults_active && self.faults.controller_stalled(now);
        if !res.hit {
            let node = NodeId::of_pfn(pfn);
            latency += self.memory.node(node).access_latency();
            self.perfmon.record_read(node);
            if self.contention_on {
                let extra = self.contention.demand_delay(node, now);
                latency += extra;
                if self.telemetry_on {
                    self.batch.pending = true;
                    self.batch.contention_extra[node_idx(node)].record(extra.0);
                }
            }
            if node == NodeId::Cxl {
                if faults_active {
                    latency += self.faults.cxl_extra_latency(now);
                    if !self.ras.quiescent() {
                        // Degraded-link penalty scales with the nominal
                        // node latency (a retrained link slows every fill).
                        latency += self
                            .ras
                            .extra_latency(node, self.memory.node(node).access_latency());
                    }
                    if self.faults.take_poisoned_read() {
                        // Uncorrectable ECC on the fill: the kernel's
                        // memory-failure path isolates the line, re-fetches,
                        // and resumes the load — slow but never fatal.
                        poisoned = true;
                        self.faults.note_poison_repaired();
                        self.bill_kernel(CostKind::DaemonOther, costs.poison_repair);
                        latency += costs.poison_repair;
                    }
                }
                if !stalled {
                    self.controller.snoop(line, false, now);
                }
                if self.telemetry_on {
                    self.batch.pending = true;
                    self.batch.snoops[if stalled {
                        BATCH_SNOOP_DROPPED
                    } else {
                        BATCH_SNOOP_READ
                    }] += 1;
                }
            }
            dram_node = Some(node);
        }
        if let Some(wb) = res.writeback {
            let wb_node = NodeId::of_pfn(wb.pfn());
            self.perfmon.record_writeback(wb_node);
            if self.contention_on {
                // Writebacks drain asynchronously: they consume (write-
                // asymmetric) link service that later fills wait on, but
                // this access does not stall for them.
                self.contention.writeback(wb_node, now);
            }
            if self.telemetry_on {
                self.batch.pending = true;
                self.batch.dram_writebacks[node_idx(wb_node)] += 1;
            }
            if wb_node == NodeId::Cxl {
                if !stalled {
                    self.controller.snoop(wb, true, now);
                }
                if self.telemetry_on {
                    self.batch.snoops[if stalled {
                        BATCH_SNOOP_DROPPED
                    } else {
                        BATCH_SNOOP_WRITEBACK
                    }] += 1;
                }
            }
        }

        if self.telemetry_on {
            self.batch.pending = true;
            self.batch.accesses[is_write as usize] += 1;
            self.batch.llc[!res.hit as usize] += 1;
            self.batch.hinting_faults += hinting_fault as u64;
            self.batch.poison_repairs += poisoned as u64;
            match dram_node {
                Some(node) => {
                    self.batch.dram_reads[node_idx(node)] += 1;
                    self.batch.latency[BATCH_LAT_DDR + node_idx(node)].record(latency.0);
                }
                None => self.batch.latency[BATCH_LAT_LLC].record(latency.0),
            }
        }

        self.clock.advance(latency);
        AccessOutcome {
            latency,
            llc_hit: res.hit,
            dram_node,
            line: if res.hit { None } else { Some(line) },
            hinting_fault,
            poisoned,
        }
    }

    /// Executes accesses from `chunk` starting at index `from`, returning
    /// the index of the first unexecuted access and why the batch paused.
    ///
    /// This is the batch core of the chunked run pipeline: instead of
    /// paying the epoch/fault/flush checks on every access, it computes the
    /// distance to the next *boundary* — the daemon's wake `deadline`, the
    /// periodic TLB flush, and the fault injector's next scheduled event —
    /// once, and runs a tight loop of bare [`System::translate`] and
    /// [`System::access_frame`] calls up to it. Accesses at or past a boundary fall back to the fully-checked
    /// [`System::try_access`] path one at a time, so the observable
    /// behaviour is identical to calling [`System::access`] in a loop.
    ///
    /// Sequencing contract (mirrors the per-access [`run`] loop):
    ///
    /// * at least one access is executed per call, even with
    ///   `deadline <= now` — the per-access loop likewise forces progress
    ///   after its bounded tick dispatch;
    /// * the batch pauses *before* the first access whose start time has
    ///   reached `deadline` (the driver dispatches daemon ticks, then
    ///   resumes);
    /// * the batch pauses *after* an access that took a hinting fault, so
    ///   the driver can deliver [`MigrationDaemon::on_fault`] in order.
    ///
    /// Op-latency state lives in `st` so one [`BatchState`] spans many
    /// chunks (ops may straddle chunk boundaries).
    ///
    /// # Panics
    ///
    /// Panics if an access touches an unmapped address, like
    /// [`System::access`].
    pub fn access_batch(
        &mut self,
        chunk: &AccessChunk,
        from: usize,
        max_accesses: u64,
        deadline: Option<Nanos>,
        st: &mut BatchState,
    ) -> (usize, BatchPause) {
        let words = chunk.words();
        let mut idx = from;
        let mut executed = false;
        loop {
            if idx >= words.len() {
                return (idx, BatchPause::Chunk);
            }
            if st.n >= max_accesses {
                return (idx, BatchPause::Budget);
            }
            if executed {
                if let Some(d) = deadline {
                    if self.clock.now() >= d {
                        return (idx, BatchPause::Wake);
                    }
                }
            }

            // Hot segment: while the injector is provably quiescent and no
            // flush or wake boundary has been reached, `service_faults`,
            // the flush-interval check, and the per-access fault queries
            // are all no-ops — skip them wholesale up to the horizon.
            let now = self.clock.now();
            let quiet = self.faults.quiescent(now)
                && self.ras.quiescent()
                && self.fault_events_seen == self.faults.log().len()
                && self.spike_span.is_none()
                && self.stall_span.is_none()
                && self.pressure_span.is_none();
            if quiet {
                let mut horizon = deadline.unwrap_or(Nanos(u64::MAX));
                if let Some(interval) = self.config.tlb_flush_interval {
                    horizon = horizon.min(self.last_tlb_flush + interval);
                }
                if let Some(at) = self.faults.next_scheduled() {
                    horizon = horizon.min(at);
                }
                if now < horizon {
                    // Same-page reuse: the previous access of this segment
                    // stored its page's flags and left the translation at
                    // its TLB set's MRU position (by hitting or inserting
                    // it), and nothing between two accesses of a quiet
                    // segment touches the page table or the TLB. A repeat
                    // of that page skips both lookups; the TLB probe would
                    // only have counted a hit.
                    let mut last: Option<(Vpn, Pte)> = None;
                    while idx < words.len() && st.n < max_accesses && self.clock.now() < horizon {
                        let w = words[idx];
                        let vaddr = VirtAddr(w & CHUNK_ADDR_MASK);
                        let is_write = w & CHUNK_WRITE_BIT != 0;
                        let vpn = vaddr.vpn();
                        let (pfn, latency, hinting_fault) = match &mut last {
                            Some((prev, pte)) if *prev == vpn => {
                                self.tlb.count_mru_hit();
                                if is_write && !pte.flags.dirty() {
                                    pte.flags = pte.flags.with_dirty();
                                    self.page_table.store_flags(vpn, pte.flags);
                                }
                                (pte.pfn, Nanos::ZERO, false)
                            }
                            _ => {
                                let (pte, latency, hinting_fault) = self
                                    .translate(vaddr, is_write)
                                    .unwrap_or_else(|e| panic!("{e}"));
                                last = Some((vpn, pte));
                                (pte.pfn, latency, hinting_fault)
                            }
                        };
                        self.access_frame(vaddr, pfn, is_write, latency, hinting_fault, false);
                        idx += 1;
                        st.n += 1;
                        if w & CHUNK_OP_END_BIT != 0 {
                            st.record_op_end(self.clock.now());
                        }
                        if hinting_fault {
                            return (idx, BatchPause::Fault(vpn));
                        }
                    }
                    executed = true;
                    continue;
                }
            }

            // Boundary (or non-quiescent injector): one fully-checked
            // access, then re-evaluate.
            let w = words[idx];
            let vaddr = VirtAddr(w & CHUNK_ADDR_MASK);
            let out = self.access(vaddr, w & CHUNK_WRITE_BIT != 0);
            idx += 1;
            st.n += 1;
            executed = true;
            if w & CHUNK_OP_END_BIT != 0 {
                st.record_op_end(self.clock.now());
            }
            if out.hinting_fault {
                return (idx, BatchPause::Fault(vaddr.vpn()));
            }
        }
    }

    /// Bills kernel work to the ledger and mirrors it to telemetry (via
    /// the per-tick batch; see [`TelemetryBatch`]).
    fn bill_kernel(&mut self, kind: CostKind, d: Nanos) {
        self.kernel.bill(kind, d);
        if self.telemetry_on {
            self.batch.pending = true;
            self.batch.kernel_ns[kind as usize] += d.0;
            self.batch.kernel_events[kind as usize] += 1;
        }
    }

    /// Bills daemon kernel work; when the daemon is co-located with the
    /// application core, the clock advances too (the application stalls).
    pub fn daemon_bill(&mut self, kind: CostKind, d: Nanos) {
        self.bill_kernel(kind, d);
        if self.config.colocated_daemon {
            self.clock.advance(d);
        }
    }

    /// Closes the perf-monitor measurement window at the current instant,
    /// returning both nodes' bandwidth stats (fast tier first) and updating
    /// the `sim.bw.bytes_per_sec` / `sim.nr_pages` telemetry gauges. This is
    /// the Monitor's sampling entry point (paper Table 1).
    pub fn rollover_bandwidth(&mut self) -> [BandwidthStats; 2] {
        self.flush_telemetry();
        let now = self.clock.now();
        let stats = self.perfmon.rollover(now);
        if self.telemetry.is_enabled() {
            for (node, bw) in NodeId::ALL.iter().zip(&stats) {
                self.telemetry
                    .gauge_set("sim.bw.bytes_per_sec", node.label(), bw.bytes_per_sec());
                self.telemetry.gauge_set(
                    "sim.nr_pages",
                    node.label(),
                    self.memory.node(*node).allocated_frames() as f64,
                );
            }
        }
        if self.contention_on {
            // The contention window rolls at the Monitor's cadence: each
            // closed epoch's offered bytes set the next epoch's curve.
            let windows = self.contention.rollover(now);
            if self.telemetry.is_enabled() {
                for node in NodeId::ALL {
                    self.telemetry.gauge_set(
                        "sim.contention.queue_ns",
                        node.label(),
                        self.contention.queue_ns(node, now) as f64,
                    );
                    self.telemetry.gauge_set(
                        "sim.contention.loaded_ns",
                        node.label(),
                        self.loaded_latency(node).0 as f64,
                    );
                }
                for class in TrafficClass::ALL {
                    let ns: u64 = windows.iter().map(|w| w.billed_ns[class as usize]).sum();
                    if ns > 0 {
                        self.telemetry
                            .counter_add("sim.contention.ns", class.label(), ns);
                    }
                }
            }
        }
        stats
    }

    /// The expected end-to-end latency of the next demand fill on `node`:
    /// the configured node latency plus, with the contention model on, the
    /// standing loaded-latency curve delay and the current (capped) queue
    /// backlog. Equals the configured latency exactly when contention is
    /// disabled.
    pub fn loaded_latency(&self, node: NodeId) -> Nanos {
        let base = self.memory.node(node).access_latency();
        if self.contention_on {
            base + self.contention.extra_estimate(node, self.clock.now())
        } else {
            base
        }
    }

    /// The contention model (read-only: queue depths, billing ledgers).
    pub fn contention(&self) -> &Contention {
        &self.contention
    }

    /// Migrates `vpn` to `dst`, with the Promoter-style safety checks.
    ///
    /// A failed call counts one rejected migration: a direct call is one
    /// request, and its failure is final. Retry-aware callers (the internal
    /// promote-with-demotion loop, the M5 Promoter's backoff rounds) must
    /// use [`System::migrate_page_uncounted`] for their re-attempts and
    /// count the *final* outcome exactly once — otherwise one rejected
    /// request inflates [`MigrationStats::rejected`] by the retry count.
    ///
    /// # Errors
    ///
    /// Returns a [`MigrateError`] if the page is unmapped, already on `dst`,
    /// pinned, node-bound, no shadow frame is available, the copy faults,
    /// the watchdog rolls the transaction back, or a controller reset
    /// fences the engine. No cost is billed on the pre-transaction safety
    /// rejections except for the rejected-stat bump.
    pub fn migrate_page(&mut self, vpn: Vpn, dst: NodeId) -> Result<(), MigrateError> {
        self.migrate_txn(vpn, dst, true)
    }

    /// [`System::migrate_page`] without the rejected-stat bump on failure,
    /// for callers that retry and account the final outcome themselves via
    /// [`System::note_rejected_migrations`]. Successful migrations are
    /// always counted (a success is never retried).
    pub fn migrate_page_uncounted(&mut self, vpn: Vpn, dst: NodeId) -> Result<(), MigrateError> {
        self.migrate_txn(vpn, dst, false)
    }

    /// The single migration entry point: counted/uncounted is a flag on the
    /// transaction, not a separate code path.
    fn migrate_txn(&mut self, vpn: Vpn, dst: NodeId, counted: bool) -> Result<(), MigrateError> {
        let r = self.migrate_txn_inner(vpn, dst, counted);
        if counted && r.is_err() {
            self.note_rejected_migrations(1);
        }
        r
    }

    /// Appends one journal record's worth of kernel time and consumes a
    /// controller reset due at the new step, fencing the engine. Returns
    /// `true` if a reset struck at this append (the append itself is
    /// durable; everything sequenced after it is lost).
    fn post_append(&mut self) -> bool {
        let cost = self.config.costs.journal_write;
        self.daemon_bill(CostKind::JournalWrite, cost);
        if self.contention_on {
            // The journal lives on the CXL device: each append is a 64 B
            // write on the shared link, contending with demand traffic.
            let now = self.clock.now();
            let d = self
                .contention
                .bulk_delay(NodeId::Cxl, TrafficClass::Migration, 64, true, now);
            if d > Nanos::ZERO {
                self.daemon_bill(CostKind::JournalWrite, d);
            }
        }
        if self.faults.take_reset(self.journal.steps()) {
            self.journal.fence();
            if self.telemetry.is_enabled() {
                let now = self.clock.now().0;
                self.telemetry.counter_add("sim.txn", "reset", 1);
                self.telemetry
                    .event(now, "sim.txn.reset", "controller reset at journal append");
            }
            true
        } else {
            false
        }
    }

    /// Drives `id` to a terminal `state`: appends the terminal record
    /// (billed, reset-checked — a reset on a terminal append only fences,
    /// the transaction itself is already retired), bumps the `sim.txn`
    /// counter, and closes the transaction's span.
    fn finish_txn(&mut self, id: TxnId, state: TxnState) {
        let retired = self.journal.transition(id, state);
        self.post_append();
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("sim.txn", state.label(), 1);
            if let Some(span) = retired.and_then(|t| t.span) {
                self.telemetry.span_end(self.clock.now().0, span);
            }
        }
    }

    fn migrate_txn_inner(
        &mut self,
        vpn: Vpn,
        dst: NodeId,
        counted: bool,
    ) -> Result<(), MigrateError> {
        self.service_faults();
        if self.journal.is_fenced() {
            return Err(MigrateError::NeedsRecovery);
        }
        let pte = match self.page_table.get(vpn) {
            Some(p) => *p,
            None => return Err(MigrateError::NotMapped),
        };
        // Promoter-style safety checks (§5.2) stay in front of the
        // transaction: a rejected request never opens a journal entry.
        let check = if pte.node() == dst {
            Some(MigrateError::AlreadyThere)
        } else if pte.flags.pinned() {
            Some(MigrateError::Pinned)
        } else if pte.flags.cxl_bound() && dst == NodeId::Ddr {
            Some(MigrateError::NodeBound)
        } else if !self.ras.quiescent() && self.ras.health(dst) >= NodeHealth::Evacuating {
            // No new pages may land on a node the RAS layer is draining —
            // otherwise the evacuation chases its own tail.
            Some(MigrateError::NodeOffline { node: dst })
        } else {
            None
        };
        if let Some(e) = check {
            return Err(e);
        }
        let src = pte.pfn;
        let costs = self.config.costs;

        // Phase 1 — Intent: the write-ahead promise.
        let id = self.journal.begin(vpn, src, dst, counted);
        if self.telemetry.is_enabled() {
            let span = self.telemetry.span_start(
                self.clock.now().0,
                "sim.migration.txn",
                match dst {
                    NodeId::Ddr => "promote",
                    NodeId::Cxl => "demote",
                },
            );
            self.journal.set_span(id, span);
        }
        if self.post_append() {
            return Err(MigrateError::Remap {
                phase: TxnState::Intent,
            });
        }

        // Phase 2 — shadow frame on the destination. Injected DDR pressure
        // makes the fast tier behave as full even though frames are
        // nominally free (another tenant grabbed them).
        let pressured = dst == NodeId::Ddr && self.faults.ddr_pressure(self.clock.now());
        let shadow = if pressured {
            Err(OutOfFrames { node: dst })
        } else {
            self.memory.alloc_on(dst)
        };
        let shadow = match shadow {
            Ok(p) => p,
            Err(e) => {
                let err = if !pressured && self.memory.node(dst).quarantined_frames() > 0 {
                    MigrateError::Quarantined { node: dst }
                } else {
                    MigrateError::NoFreeFrame(e)
                };
                self.finish_txn(id, TxnState::Aborted);
                return Err(err);
            }
        };
        self.journal.set_shadow(id, shadow);
        self.journal.transition(id, TxnState::CopyInProgress);
        if self.post_append() {
            return Err(MigrateError::Remap {
                phase: TxnState::CopyInProgress,
            });
        }

        // Watchdog: the copy engine moves data through the controller, so a
        // stalled controller blocks the copy. Wait out short stalls (billed
        // as migration time); roll back rather than wait past the deadline.
        let stall = self.faults.stall_remaining(self.clock.now());
        if stall > Nanos::ZERO {
            if stall > self.config.migration_watchdog {
                self.daemon_bill(CostKind::Migration, self.config.migration_watchdog);
                self.memory.free(shadow);
                self.finish_txn(id, TxnState::RolledBack);
                return Err(MigrateError::Stalled { waited: stall });
            }
            self.daemon_bill(CostKind::Migration, stall);
        }

        if self.faults.take_copy_failure() {
            // Copy-engine/DMA fault mid-copy: the shadow frame's contents
            // are suspect, so it leaves the allocator until scrubbed. The
            // source page is untouched.
            self.memory.quarantine(shadow);
            self.telemetry.counter_add("sim.quarantine", "poisoned", 1);
            self.finish_txn(id, TxnState::RolledBack);
            return Err(MigrateError::Copy {
                line: shadow.word(WordIndex(0)).cache_line(),
            });
        }

        // Phase 3 — atomic remap: shootdown, PTE switch, stale-line
        // eviction, optional pollution of the shadow frame's lines.
        self.tlb.invalidate(vpn);
        self.daemon_bill(CostKind::TlbShootdown, costs.tlb_shootdown);
        self.daemon_bill(CostKind::Migration, costs.migrate_per_page);
        if self.contention_on {
            // The copy DMA reads one page off the source link and writes
            // it to the destination link; both bursts wait out their
            // queues and feed the backlog demand fills will wait on.
            let now = self.clock.now();
            let page = crate::addr::PAGE_SIZE as u64;
            let src_node = NodeId::of_pfn(src);
            let d = self
                .contention
                .bulk_delay(src_node, TrafficClass::Migration, page, false, now)
                + self
                    .contention
                    .bulk_delay(dst, TrafficClass::Migration, page, true, now);
            if d > Nanos::ZERO {
                self.daemon_bill(CostKind::Migration, d);
            }
        }
        let old_pfn = self.page_table.remap(vpn, shadow);
        debug_assert_eq!(old_pfn, src, "page moved underneath an open transaction");
        for w in 0..WORDS_PER_PAGE as u8 {
            self.llc.invalidate(old_pfn.word(WordIndex(w)).cache_line());
        }
        if self.config.migration_pollutes_cache {
            for w in 0..WORDS_PER_PAGE as u8 {
                if let Some(wb) = self.llc.fill(shadow.word(WordIndex(w)).cache_line(), false) {
                    self.perfmon.record_writeback(NodeId::of_pfn(wb.pfn()));
                }
            }
        }
        self.journal.transition(id, TxnState::Remapped);
        if self.post_append() {
            // The remap is durable but the source frame was not freed:
            // recovery rolls this transaction forward and counts it.
            return Err(MigrateError::Remap {
                phase: TxnState::Remapped,
            });
        }

        // Phase 4 — source free + commit.
        self.memory.free(src);
        match dst {
            NodeId::Ddr => self.ddr_lru.insert(vpn),
            NodeId::Cxl => {
                self.ddr_lru.remove(vpn);
            }
        }
        self.migrations.record(dst);
        self.telemetry.counter_add(
            "sim.migrations",
            match dst {
                NodeId::Ddr => "promoted",
                NodeId::Cxl => "demoted",
            },
            1,
        );
        self.finish_txn(id, TxnState::Committed);
        Ok(())
    }

    /// Whether the migration engine is fenced after a controller reset and
    /// [`System::recover`] must run before new migrations.
    pub fn needs_recovery(&self) -> bool {
        self.journal.is_fenced()
    }

    /// The migration write-ahead journal (read-only: steps, open
    /// transactions, terminal counters).
    pub fn journal(&self) -> &MigrationJournal {
        &self.journal
    }

    /// Frames of `node` currently quarantined pending a scrub.
    pub fn quarantined_frames(&self, node: NodeId) -> u64 {
        self.memory.node(node).quarantined_frames()
    }

    /// Whether an armed controller reset has not yet struck — the crash
    /// sweep uses this to tell "reset fired and was recovered" apart from
    /// "the run finished before reaching the target journal step".
    pub fn reset_pending(&self) -> bool {
        self.faults.reset_pending()
    }

    /// Replays the migration journal after a controller reset, rolling each
    /// open transaction back or forward to a consistent state, and lifts
    /// the engine fence.
    ///
    /// Semantics per open transaction (the append that recorded its state
    /// is durable; mutations sequenced after it are lost):
    ///
    /// * `Intent` — nothing was mutated: abort.
    /// * `CopyInProgress` — the shadow frame was allocated but the mapping
    ///   is untouched: free the shadow, roll back.
    /// * `Remapped` — inspect the page table. If the PTE points at the
    ///   shadow frame the migration is effectively done: free the source,
    ///   fix the MGLRU, count it, commit (roll *forward*). Otherwise free
    ///   the shadow and roll back.
    ///
    /// Each closure appends a terminal journal record (billed as kernel
    /// time; resets are not consumed during recovery). Safe to call when
    /// nothing is pending — it is then a no-op that returns a clean report.
    pub fn recover(&mut self) -> RecoveryReport {
        let open = self.journal.take_open();
        let mut report = RecoveryReport {
            scanned: open.len() as u64,
            ..RecoveryReport::default()
        };
        let journal_cost = self.config.costs.journal_write;
        for txn in open {
            let terminal = match txn.state {
                TxnState::Intent => {
                    report.aborted += 1;
                    TxnState::Aborted
                }
                TxnState::CopyInProgress => {
                    if let Some(shadow) = txn.shadow {
                        self.memory.free(shadow);
                    }
                    report.rolled_back += 1;
                    TxnState::RolledBack
                }
                TxnState::Remapped => {
                    let shadow = txn.shadow.expect("Remapped txn always has a shadow frame");
                    let mapped_to_shadow =
                        self.page_table.get(txn.vpn).map(|p| p.pfn) == Some(shadow);
                    if mapped_to_shadow {
                        self.memory.free(txn.src);
                        match txn.dst {
                            NodeId::Ddr => self.ddr_lru.insert(txn.vpn),
                            NodeId::Cxl => {
                                self.ddr_lru.remove(txn.vpn);
                            }
                        }
                        self.migrations.record(txn.dst);
                        self.telemetry.counter_add(
                            "sim.migrations",
                            match txn.dst {
                                NodeId::Ddr => "promoted",
                                NodeId::Cxl => "demoted",
                            },
                            1,
                        );
                        report.rolled_forward += 1;
                        TxnState::Committed
                    } else {
                        self.memory.free(shadow);
                        report.rolled_back += 1;
                        TxnState::RolledBack
                    }
                }
                terminal => unreachable!("terminal txn {terminal} left open in journal"),
            };
            let retired = self.journal.append_terminal(txn, terminal);
            self.daemon_bill(CostKind::JournalWrite, journal_cost);
            if self.telemetry.is_enabled() {
                self.telemetry.counter_add("sim.txn", terminal.label(), 1);
                if let Some(span) = retired.span {
                    self.telemetry.span_end(self.clock.now().0, span);
                }
            }
        }
        self.journal.clear_fence();
        debug_assert!(
            self.check_invariants().is_empty(),
            "recovery left invariants broken: {:?}",
            self.check_invariants()
        );
        report
    }

    /// Scrubs up to `max` quarantined frames per node, returning them to
    /// the allocators; bills the scrub work. Returns the number of frames
    /// scrubbed across both nodes.
    pub fn scrub_quarantine(&mut self, max: u64) -> u64 {
        let mut total = 0;
        for node in NodeId::ALL {
            let n = self.memory.node_mut(node).scrub(max);
            total += n;
        }
        if total > 0 {
            let per = self.config.costs.scrub_per_frame;
            self.daemon_bill(CostKind::DaemonOther, per * total);
            self.telemetry
                .counter_add("sim.quarantine", "scrubbed", total);
        }
        total
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
    ///    count crossed [`crate::ras::RasConfig::ce_offline_threshold`] have
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
        // Deliver any RAS faults queued since the last access first, so an
        // epoch that saw no demand traffic still notices the trend.
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

    /// Checks the crash-consistency invariants, returning a human-readable
    /// description of every violation (empty when consistent):
    ///
    /// * every mapped VPN points at exactly one frame, and no frame backs
    ///   two VPNs;
    /// * no mapped frame is simultaneously free, quarantined, or
    ///   RAS-offlined;
    /// * each node's free + allocated + quarantined + offlined partition
    ///   its capacity;
    /// * every allocated frame is accounted for — mapped by the page table
    ///   or in flight in an open migration transaction;
    /// * the journal's committed terminal counts reconcile with
    ///   [`MigrationStats`].
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();

        // Frame uniqueness across the page table.
        let mut frame_owner: std::collections::HashMap<crate::addr::Pfn, Vpn> =
            std::collections::HashMap::new();
        for (vpn, pte) in self.page_table.iter_mapped() {
            if let Some(prev) = frame_owner.insert(pte.pfn, vpn) {
                violations.push(format!(
                    "frame {:?} double-mapped by {prev:?} and {vpn:?}",
                    pte.pfn
                ));
            }
        }

        // Frames legitimately held by open (in-flight) transactions.
        let mut in_flight: std::collections::HashSet<crate::addr::Pfn> =
            std::collections::HashSet::new();
        for txn in self.journal.open() {
            match txn.state {
                TxnState::Intent => {}
                TxnState::CopyInProgress => {
                    if let Some(shadow) = txn.shadow {
                        in_flight.insert(shadow);
                    }
                }
                TxnState::Remapped => {
                    if let Some(shadow) = txn.shadow {
                        // After the durable remap the *source* frame is the
                        // in-flight one; if the remap was lost, the shadow.
                        if self.page_table.get(txn.vpn).map(|p| p.pfn) == Some(shadow) {
                            in_flight.insert(txn.src);
                        } else {
                            in_flight.insert(shadow);
                        }
                    }
                }
                _ => violations.push(format!("terminal txn {:?} still open", txn.id)),
            }
        }

        for node in NodeId::ALL {
            let n = self.memory.node(node);
            let free: std::collections::HashSet<crate::addr::Pfn> = n.free_pfns().collect();
            let quarantined: std::collections::HashSet<crate::addr::Pfn> =
                n.quarantined_pfns().collect();
            let offlined: std::collections::HashSet<crate::addr::Pfn> = n.offlined_pfns().collect();

            for pfn in &quarantined {
                if free.contains(pfn) {
                    violations.push(format!("{node}: frame {pfn:?} both free and quarantined"));
                }
            }
            for pfn in &offlined {
                if free.contains(pfn) {
                    violations.push(format!("{node}: frame {pfn:?} both free and offlined"));
                }
                if quarantined.contains(pfn) {
                    violations.push(format!(
                        "{node}: frame {pfn:?} both quarantined and offlined"
                    ));
                }
            }
            let accounted = free.len() as u64
                + quarantined.len() as u64
                + offlined.len() as u64
                + n.allocated_frames();
            if accounted != n.capacity_frames() {
                violations.push(format!(
                    "{node}: free {} + quarantined {} + offlined {} + allocated {} != capacity {}",
                    free.len(),
                    quarantined.len(),
                    offlined.len(),
                    n.allocated_frames(),
                    n.capacity_frames()
                ));
            }

            let mut mapped_here = 0u64;
            for (vpn, pte) in self.page_table.iter_mapped() {
                if NodeId::of_pfn(pte.pfn) != node {
                    continue;
                }
                mapped_here += 1;
                if free.contains(&pte.pfn) {
                    violations.push(format!(
                        "{node}: mapped frame {:?} ({vpn:?}) is free",
                        pte.pfn
                    ));
                }
                if quarantined.contains(&pte.pfn) {
                    violations.push(format!(
                        "{node}: mapped frame {:?} ({vpn:?}) is quarantined",
                        pte.pfn
                    ));
                }
                if offlined.contains(&pte.pfn) {
                    violations.push(format!(
                        "{node}: mapped frame {:?} ({vpn:?}) is offlined",
                        pte.pfn
                    ));
                }
            }
            let in_flight_here = in_flight
                .iter()
                .filter(|p| NodeId::of_pfn(**p) == node)
                .count() as u64;
            if mapped_here + in_flight_here != n.allocated_frames() {
                violations.push(format!(
                    "{node}: mapped {mapped_here} + in-flight {in_flight_here} != allocated {}",
                    n.allocated_frames()
                ));
            }
        }

        // Journal terminal counters reconcile with migration stats.
        let counters = self.journal.counters();
        if counters.committed_promotions != self.migrations.promotions {
            violations.push(format!(
                "journal committed promotions {} != stats promotions {}",
                counters.committed_promotions, self.migrations.promotions
            ));
        }
        if counters.committed_demotions != self.migrations.demotions {
            violations.push(format!(
                "journal committed demotions {} != stats demotions {}",
                counters.committed_demotions, self.migrations.demotions
            ));
        }

        violations
    }

    /// Counts `n` migration requests whose final outcome was rejection.
    /// Paired with [`System::migrate_page_uncounted`]: a retrying caller
    /// calls this once per request it gives up on, never per attempt.
    pub fn note_rejected_migrations(&mut self, n: u64) {
        self.migrations.rejected += n;
        self.telemetry.counter_add("sim.migrations", "rejected", n);
    }

    /// Migrates a batch of pages to `dst`, collecting per-page outcomes
    /// (the `migrate_pages()` interface used by the Promoter).
    pub fn migrate_batch(&mut self, vpns: &[Vpn], dst: NodeId) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for &vpn in vpns {
            match self.migrate_page(vpn, dst) {
                Ok(()) => out.migrated.push(vpn),
                Err(e) => out.rejected.push((vpn, e)),
            }
        }
        out
    }

    /// Runs one MGLRU aging pass over the DDR-resident pages, billing the
    /// PTE scans, and returns the number of PTEs scanned.
    pub fn mglru_age(&mut self) -> u64 {
        let scanned = self.ddr_lru.age(&mut self.page_table);
        let per = self.config.costs.pte_scan_per_entry;
        self.daemon_bill(CostKind::PteScan, per * scanned);
        scanned
    }

    /// Demotes up to `n` of the coldest DDR pages to CXL, returning how many
    /// actually moved. Victims that fail the safety checks are put back.
    pub fn demote_coldest(&mut self, n: usize) -> usize {
        let victims = self.ddr_lru.pick_coldest(n);
        let mut moved = 0;
        for vpn in victims {
            match self.migrate_page(vpn, NodeId::Cxl) {
                Ok(()) => moved += 1,
                Err(_) => self.ddr_lru.insert(vpn),
            }
        }
        moved
    }

    /// Promotes `vpns` to DDR, demoting cold pages to make room when the
    /// fast tier fills up (the paper's §7.2 protocol: once DDR is full,
    /// every batch of promotions demotes an equal number of MGLRU-cold
    /// pages). Returns the batch outcome.
    ///
    /// Each requested page counts at most one rejected migration, no matter
    /// how many internal attempts (initial try, post-demotion retry) it
    /// took to reach that verdict.
    pub fn promote_with_demotion(&mut self, vpns: &[Vpn], demote_batch: usize) -> BatchOutcome {
        let out = self.promote_with_demotion_impl(vpns, demote_batch);
        self.note_rejected_migrations(out.rejected.len() as u64);
        out
    }

    /// [`System::promote_with_demotion`] without counting the rejections,
    /// for callers (the M5 Promoter) that retry transiently-failed pages in
    /// later rounds and count only the pages they finally give up on.
    pub fn promote_with_demotion_uncounted(
        &mut self,
        vpns: &[Vpn],
        demote_batch: usize,
    ) -> BatchOutcome {
        self.promote_with_demotion_impl(vpns, demote_batch)
    }

    /// The shared body: counted/uncounted differ only in whether the caller
    /// counts the final rejections (individual attempts inside this loop
    /// always go through the uncounted transactional path).
    fn promote_with_demotion_impl(&mut self, vpns: &[Vpn], demote_batch: usize) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut aged_this_call = false;
        for &vpn in vpns {
            match self.migrate_txn(vpn, NodeId::Ddr, false) {
                Ok(()) => out.migrated.push(vpn),
                Err(MigrateError::NoFreeFrame(_)) | Err(MigrateError::Quarantined { .. }) => {
                    // Age before the first demotion of this batch so
                    // recently-accessed pages are refreshed to the young
                    // generation — otherwise an undifferentiated gen-0
                    // FIFO would demote the *first-promoted* (typically
                    // hottest) pages first.
                    if !aged_this_call {
                        self.mglru_age();
                        aged_this_call = true;
                    }
                    let demoted = self.demote_coldest(demote_batch.max(1));
                    if demoted == 0 {
                        out.rejected.push((
                            vpn,
                            MigrateError::NoFreeFrame(OutOfFrames { node: NodeId::Ddr }),
                        ));
                        continue;
                    }
                    match self.migrate_txn(vpn, NodeId::Ddr, false) {
                        Ok(()) => out.migrated.push(vpn),
                        Err(e) => out.rejected.push((vpn, e)),
                    }
                }
                Err(e) => out.rejected.push((vpn, e)),
            }
        }
        out
    }

    /// Free frames remaining on `node`.
    pub fn free_frames(&self, node: NodeId) -> u64 {
        self.memory.node(node).free_frames()
    }

    /// Pages currently allocated on `node` (the `nr_pages()` Monitor
    /// function, Table 1).
    pub fn nr_pages(&self, node: NodeId) -> u64 {
        self.memory.node(node).allocated_frames()
    }

    /// Attaches a near-memory device to the CXL controller.
    pub fn attach_device<D: CxlDevice>(&mut self, device: D) -> DeviceHandle {
        self.controller.attach(device)
    }

    /// Borrows an attached device by handle.
    pub fn device<D: CxlDevice>(&self, handle: DeviceHandle) -> Option<&D> {
        self.controller.device(handle)
    }

    /// Mutably borrows an attached device by handle.
    pub fn device_mut<D: CxlDevice>(&mut self, handle: DeviceHandle) -> Option<&mut D> {
        self.controller.device_mut(handle)
    }

    /// The page table (read-only).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The page table (mutable — used by daemons to sample/clear PTE bits
    /// and by tests).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// The TLB (mutable — ANB's unmap protocol invalidates entries).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// The TLB (read-only).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The LLC (read-only).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// The performance monitor.
    pub fn perfmon(&self) -> &PerfMonitor {
        &self.perfmon
    }

    /// The performance monitor (mutable — the Monitor component rolls its
    /// measurement window).
    pub fn perfmon_mut(&mut self) -> &mut PerfMonitor {
        &mut self.perfmon
    }

    /// The kernel-cost ledger.
    pub fn kernel_costs(&self) -> &KernelCosts {
        &self.kernel
    }

    /// Cumulative migration statistics.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migrations
    }

    /// Soft page faults taken so far.
    pub fn hinting_faults(&self) -> u64 {
        self.hinting_faults
    }

    /// A cumulative snapshot of every aggregate a [`RunReport`] is built
    /// from. Capture one before a run, another after, and diff — this is
    /// the single accounting path used by [`run`], so reports and live
    /// telemetry can never disagree about what a counter means.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            now: self.clock.now(),
            llc_hits: self.llc.hits(),
            llc_misses: self.llc.misses(),
            dram_reads: [
                self.perfmon.total_reads(NodeId::Ddr),
                self.perfmon.total_reads(NodeId::Cxl),
            ],
            dram_writebacks: [
                self.perfmon.total_writebacks(NodeId::Ddr),
                self.perfmon.total_writebacks(NodeId::Cxl),
            ],
            hinting_faults: self.hinting_faults,
            kernel: self.kernel.clone(),
            migrations: self.migrations,
            fault_counts: {
                let mut c = [0u64; FaultClass::ALL.len()];
                for (slot, &class) in c.iter_mut().zip(FaultClass::ALL.iter()) {
                    *slot = self.faults.count_of(class);
                }
                c
            },
            poison_repairs: self.faults.poison_repairs(),
            degradations: self.degradations.len(),
            promoter_retried: self.promoter_retried,
            promoter_gave_up: self.promoter_gave_up,
        }
    }

    /// Assembles a [`RunReport`] covering everything since `before` (a
    /// snapshot from [`System::stats`]). `accesses` and `op_latency` come
    /// from the driver, which is the only place that can count them.
    pub fn report_since(
        &self,
        before: &SystemStats,
        daemon: String,
        accesses: u64,
        op_latency: LatencyHistogram,
    ) -> RunReport {
        let after = self.stats();
        let fault_counts: Vec<_> = FaultClass::ALL
            .iter()
            .enumerate()
            .filter_map(|(i, &class)| {
                let n = after.fault_counts[i] - before.fault_counts[i];
                (n > 0).then_some((class, n))
            })
            .collect();
        RunReport {
            daemon,
            total_time: after.now - before.now,
            accesses,
            llc_hits: after.llc_hits - before.llc_hits,
            llc_misses: after.llc_misses - before.llc_misses,
            dram_reads: [
                (NodeId::Ddr, after.dram_reads[0] - before.dram_reads[0]),
                (NodeId::Cxl, after.dram_reads[1] - before.dram_reads[1]),
            ],
            hinting_faults: after.hinting_faults - before.hinting_faults,
            migrations: MigrationStats {
                promotions: after.migrations.promotions - before.migrations.promotions,
                demotions: after.migrations.demotions - before.migrations.demotions,
                rejected: after.migrations.rejected - before.migrations.rejected,
            },
            kernel: after.kernel.delta_since(&before.kernel),
            op_latency,
            health: HealthReport {
                faults_injected: fault_counts.iter().map(|&(_, n)| n).sum(),
                fault_counts,
                poison_repairs: after.poison_repairs - before.poison_repairs,
                degraded: self.degradations[before.degradations..].to_vec(),
                promoter_retried: after.promoter_retried - before.promoter_retried,
                promoter_gave_up: after.promoter_gave_up - before.promoter_gave_up,
            },
        }
    }

    /// Captures a crash-consistent snapshot of the whole machine as a
    /// [`Checkpoint`]: memory partitions (free/allocated/quarantined/
    /// offlined, in hand-out order), page table, TLB and LLC arrays with
    /// their LRU order, migration journal, fault-injector arming state,
    /// RAS health ladder, contention queues, perfmon windows, MGLRU
    /// generations, kernel ledger, and the telemetry registry.
    ///
    /// The per-access telemetry batch is flushed first; counters and
    /// histogram merges are exact, so flushing early is observationally
    /// equivalent for every snapshot taken at or after the next flush
    /// point. Attached [`CxlDevice`]s are *not* captured — the restoring
    /// harness re-attaches its devices and reloads their SRAM state (the
    /// M5 manager does this in its own checkpoint section). Open telemetry
    /// spans are owned by their creators and re-opened after restore.
    pub fn checkpoint(&mut self) -> crate::checkpoint::Checkpoint {
        use crate::checkpoint::StateWriter;
        self.flush_telemetry();
        let mut cp = crate::checkpoint::Checkpoint::new();
        let mut section = |name: &str, f: &mut dyn FnMut(&mut StateWriter)| {
            let mut w = StateWriter::new();
            f(&mut w);
            cp.add_section(name, w.finish());
        };
        section("config", &mut |w| w.put_str(&format!("{:?}", self.config)));
        section("clock", &mut |w| w.put_u64(self.clock.now().0));
        section("memory", &mut |w| self.memory.save(w));
        section("paging", &mut |w| self.page_table.save(w));
        section("tlb", &mut |w| self.tlb.save(w));
        section("llc", &mut |w| self.llc.save(w));
        section("perfmon", &mut |w| self.perfmon.save(w));
        section("kernel", &mut |w| self.kernel.save(w));
        section("mglru", &mut |w| self.ddr_lru.save(w));
        section("journal", &mut |w| self.journal.save(w));
        section("faults", &mut |w| self.faults.save(w));
        section("ras", &mut |w| self.ras.save(w));
        section("contention", &mut |w| self.contention.save(w));
        section("telemetry", &mut |w| match self.telemetry.export_state() {
            Some(state) => {
                w.put_bool(true);
                crate::checkpoint::save_telemetry_state(&state, w);
            }
            None => w.put_bool(false),
        });
        section("system", &mut |w| {
            w.put_u64(self.migrations.promotions);
            w.put_u64(self.migrations.demotions);
            w.put_u64(self.migrations.rejected);
            w.put_u64(self.hinting_faults);
            w.put_u64(self.next_vpn);
            w.put_u64_slice(&self.placement_rng.state());
            w.put_u64(self.last_tlb_flush.0);
            w.put_u64(self.degradations.len() as u64);
            for d in &self.degradations {
                w.put_str(d);
            }
            w.put_u64(self.promoter_retried);
            w.put_u64(self.promoter_gave_up);
            w.put_u64(self.fault_events_seen as u64);
            w.put_bool(self.evac_exhaustion_noted);
            // Handles of spans open across the checkpoint; the telemetry
            // section carries the spans themselves.
            for span in [
                self.spike_span,
                self.stall_span,
                self.pressure_span,
                self.evac_span,
            ] {
                match span {
                    Some(s) => {
                        w.put_bool(true);
                        w.put_u64(s.raw());
                    }
                    None => w.put_bool(false),
                }
            }
        });
        cp
    }

    /// Rebuilds a machine from a [`Checkpoint`] captured by
    /// [`System::checkpoint`]. `config` must be equal to the checkpointed
    /// configuration (validated against the stored config section) and
    /// `plan` must be the fault plan the checkpointed run was executing —
    /// the plan is pure data the caller supplies again; only the
    /// injector's arming cursor and armed-but-unconsumed faults are
    /// restored from the snapshot.
    ///
    /// Devices are not restored: the returned system has a fresh
    /// [`CxlController`] and the harness re-attaches daemon devices before
    /// resuming. Fault-window telemetry spans restart as closed (a window
    /// open across the snapshot re-opens on the next traced event).
    ///
    /// # Errors
    ///
    /// [`RestoreError::ConfigMismatch`] when `config` differs from the
    /// checkpointed one, [`RestoreError::MissingSection`] /
    /// [`RestoreError::Corrupt`] on structural damage a checksum did not
    /// catch (e.g. a version-compatible but truncated section).
    pub fn restore(
        config: SystemConfig,
        plan: &FaultPlan,
        cp: &crate::checkpoint::Checkpoint,
    ) -> Result<System, crate::checkpoint::RestoreError> {
        use crate::checkpoint::{section_err, RestoreError, StateReader};

        fn read_section<'c, T>(
            cp: &'c crate::checkpoint::Checkpoint,
            name: &'static str,
            f: impl FnOnce(&mut StateReader<'c>) -> Result<T, crate::checkpoint::CodecError>,
        ) -> Result<T, RestoreError> {
            let mut r = StateReader::new(cp.require(name)?);
            let out = f(&mut r).map_err(section_err(name))?;
            r.expect_end().map_err(section_err(name))?;
            Ok(out)
        }

        let stored = read_section(cp, "config", |r| r.get_str())?;
        if stored != format!("{config:?}") {
            return Err(RestoreError::ConfigMismatch);
        }

        let clock = read_section(cp, "clock", |r| Ok(Clock::at(Nanos(r.get_u64()?))))?;
        let memory = read_section(cp, "memory", |r| {
            TieredMemory::restore(config.ddr.clone(), config.cxl.clone(), r)
        })?;
        let page_table = read_section(cp, "paging", |r| PageTable::restore(r))?;
        let tlb = read_section(cp, "tlb", |r| Tlb::restore(config.tlb, r))?;
        let llc = read_section(cp, "llc", |r| Llc::restore(config.llc, r))?;
        let perfmon = read_section(cp, "perfmon", |r| PerfMonitor::restore(r))?;
        let kernel = read_section(cp, "kernel", |r| KernelCosts::restore(r))?;
        let ddr_lru = read_section(cp, "mglru", |r| MgLru::restore(r, page_table.extent()))?;
        let journal = read_section(cp, "journal", |r| MigrationJournal::restore(r))?;
        let faults = read_section(cp, "faults", |r| FaultInjector::restore(plan, r))?;
        let ras = read_section(cp, "ras", |r| RasState::restore(config.ras, r))?;
        let contention = read_section(cp, "contention", |r| {
            Contention::restore(
                &config.contention,
                [config.ddr.access_latency, config.cxl.access_latency],
                r,
            )
        })?;
        let telemetry = read_section(cp, "telemetry", |r| {
            if r.get_bool()? {
                let state = crate::checkpoint::restore_telemetry_state(r)?;
                Ok(Telemetry::from_state(&state))
            } else {
                Ok(Telemetry::disabled())
            }
        })?;

        struct Misc {
            migrations: MigrationStats,
            hinting_faults: u64,
            next_vpn: u64,
            rng_state: [u64; 4],
            last_tlb_flush: Nanos,
            degradations: Vec<String>,
            promoter_retried: u64,
            promoter_gave_up: u64,
            fault_events_seen: u64,
            evac_exhaustion_noted: bool,
            /// `[spike, stall, pressure, evac]` span handles.
            spans: [Option<SpanId>; 4],
        }
        let misc = read_section(cp, "system", |r| {
            let migrations = MigrationStats {
                promotions: r.get_u64()?,
                demotions: r.get_u64()?,
                rejected: r.get_u64()?,
            };
            let hinting_faults = r.get_u64()?;
            let next_vpn = r.get_u64()?;
            let rng_vec = r.get_u64_vec()?;
            let rng_state: [u64; 4] = rng_vec.as_slice().try_into().map_err(|_| {
                crate::checkpoint::CodecError::BadValue {
                    what: "placement-rng state length",
                    value: rng_vec.len() as u64,
                }
            })?;
            let last_tlb_flush = Nanos(r.get_u64()?);
            let nd = r.get_u64()?;
            let mut degradations = Vec::new();
            for _ in 0..nd {
                degradations.push(r.get_str()?);
            }
            let promoter_retried = r.get_u64()?;
            let promoter_gave_up = r.get_u64()?;
            let fault_events_seen = r.get_u64()?;
            let evac_exhaustion_noted = r.get_bool()?;
            let mut spans = [None; 4];
            for span in &mut spans {
                if r.get_bool()? {
                    *span = Some(SpanId::from_raw(r.get_u64()?));
                }
            }
            Ok(Misc {
                migrations,
                hinting_faults,
                next_vpn,
                rng_state,
                last_tlb_flush,
                degradations,
                promoter_retried,
                promoter_gave_up,
                fault_events_seen,
                evac_exhaustion_noted,
                spans,
            })
        })?;

        let telemetry_on = telemetry.is_enabled();
        Ok(System {
            clock,
            memory,
            page_table,
            tlb,
            llc,
            controller: CxlController::new(),
            perfmon,
            kernel,
            ddr_lru,
            migrations: misc.migrations,
            journal,
            hinting_faults: misc.hinting_faults,
            next_vpn: misc.next_vpn,
            placement_rng: SmallRng::from_state(misc.rng_state),
            last_tlb_flush: misc.last_tlb_flush,
            faults,
            degradations: misc.degradations,
            promoter_retried: misc.promoter_retried,
            promoter_gave_up: misc.promoter_gave_up,
            telemetry,
            telemetry_on,
            contention,
            contention_on: config.contention.enabled,
            batch: TelemetryBatch::default(),
            fault_events_seen: misc.fault_events_seen as usize,
            spike_span: misc.spans[0],
            stall_span: misc.spans[1],
            pressure_span: misc.spans[2],
            ras,
            evac_span: misc.spans[3],
            evac_exhaustion_noted: misc.evac_exhaustion_noted,
            config,
        })
    }
}

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

/// A cumulative snapshot of the aggregates behind [`RunReport`], captured
/// with [`System::stats`]. All fields count from system construction;
/// subtract two snapshots for per-run deltas.
#[derive(Clone, Debug)]
pub struct SystemStats {
    /// Simulated time at capture.
    pub now: Nanos,
    /// Cumulative LLC hits.
    pub llc_hits: u64,
    /// Cumulative LLC misses.
    pub llc_misses: u64,
    /// Cumulative DRAM reads, `[DDR, CXL]`.
    pub dram_reads: [u64; 2],
    /// Cumulative DRAM writebacks, `[DDR, CXL]`.
    pub dram_writebacks: [u64; 2],
    /// Cumulative soft page faults.
    pub hinting_faults: u64,
    /// The kernel-time ledger.
    pub kernel: KernelCosts,
    /// Cumulative migration statistics.
    pub migrations: MigrationStats,
    /// Cumulative armed faults, indexed like [`FaultClass::ALL`].
    pub fault_counts: [u64; FaultClass::ALL.len()],
    /// Cumulative poisoned lines recovered.
    pub poison_repairs: u64,
    /// Number of degradation-mode switches recorded.
    pub degradations: usize,
    /// Cumulative Promoter retry rounds.
    pub promoter_retried: u64,
    /// Cumulative pages the Promoter gave up on.
    pub promoter_gave_up: u64,
}

impl SystemStats {
    /// Serializes the snapshot for a checkpoint (drivers persist their
    /// report baseline so a restored run's [`RunReport`] deltas match the
    /// uninterrupted run's).
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64(self.now.0);
        w.put_u64(self.llc_hits);
        w.put_u64(self.llc_misses);
        w.put_u64_slice(&self.dram_reads);
        w.put_u64_slice(&self.dram_writebacks);
        w.put_u64(self.hinting_faults);
        self.kernel.save(w);
        w.put_u64(self.migrations.promotions);
        w.put_u64(self.migrations.demotions);
        w.put_u64(self.migrations.rejected);
        w.put_u64_slice(&self.fault_counts);
        w.put_u64(self.poison_repairs);
        w.put_u64(self.degradations as u64);
        w.put_u64(self.promoter_retried);
        w.put_u64(self.promoter_gave_up);
    }

    /// Rebuilds a snapshot from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, or
    /// per-node/per-class vectors of the wrong length.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<SystemStats, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        fn fixed<const N: usize>(v: Vec<u64>, what: &'static str) -> Result<[u64; N], CodecError> {
            let n = v.len();
            v.try_into().map_err(|_| CodecError::BadValue {
                what,
                value: n as u64,
            })
        }
        let now = Nanos(r.get_u64()?);
        let llc_hits = r.get_u64()?;
        let llc_misses = r.get_u64()?;
        let dram_reads = fixed::<2>(r.get_u64_vec()?, "stats dram-read vector length")?;
        let dram_writebacks = fixed::<2>(r.get_u64_vec()?, "stats dram-writeback vector length")?;
        let hinting_faults = r.get_u64()?;
        let kernel = KernelCosts::restore(r)?;
        let migrations = MigrationStats {
            promotions: r.get_u64()?,
            demotions: r.get_u64()?,
            rejected: r.get_u64()?,
        };
        let fault_counts = fixed::<{ FaultClass::ALL.len() }>(
            r.get_u64_vec()?,
            "stats fault-count vector length",
        )?;
        Ok(SystemStats {
            now,
            llc_hits,
            llc_misses,
            dram_reads,
            dram_writebacks,
            hinting_faults,
            kernel,
            migrations,
            fault_counts,
            poison_repairs: r.get_u64()?,
            degradations: r.get_u64()? as usize,
            promoter_retried: r.get_u64()?,
            promoter_gave_up: r.get_u64()?,
        })
    }
}

/// Why [`System::access_batch`] returned control to the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPause {
    /// Every access in the chunk (from the starting index) was executed.
    Chunk,
    /// The access budget (`max_accesses`) was exhausted.
    Budget,
    /// The daemon's wake deadline was reached before the next access.
    Wake,
    /// The last executed access took a hinting fault on this page; the
    /// driver must deliver [`MigrationDaemon::on_fault`] before resuming.
    Fault(Vpn),
}

/// Per-run state threaded through [`System::access_batch`] calls: the
/// access count and the op-latency accumulators (ops may straddle chunk
/// boundaries, so this outlives any single chunk).
#[derive(Clone, Debug)]
pub struct BatchState {
    op_hist: LatencyHistogram,
    /// Scratch for `sim.op.latency`: merged once at the end instead of one
    /// registry probe per completed op.
    op_telemetry: m5_telemetry::Log2Histogram,
    op_start: Nanos,
    n: u64,
}

impl BatchState {
    /// Fresh state; `start` is the simulated time the run begins (the
    /// first op is measured from here).
    pub fn new(start: Nanos) -> BatchState {
        BatchState {
            op_hist: LatencyHistogram::new(),
            op_telemetry: m5_telemetry::Log2Histogram::new(),
            op_start: start,
            n: 0,
        }
    }

    /// Accesses executed so far.
    pub fn accesses(&self) -> u64 {
        self.n
    }

    #[inline]
    fn record_op_end(&mut self, now: Nanos) {
        let op = now - self.op_start;
        self.op_hist.record(op);
        self.op_telemetry.record(op.0);
        self.op_start = now;
    }

    /// Serializes the op-latency accumulators and access count for a
    /// checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        self.op_hist.save(w);
        crate::checkpoint::save_log2_histogram(&self.op_telemetry, w);
        w.put_u64(self.op_start.0);
        w.put_u64(self.n);
    }

    /// Rebuilds batch state from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<BatchState, crate::checkpoint::CodecError> {
        Ok(BatchState {
            op_hist: LatencyHistogram::restore(r)?,
            op_telemetry: crate::checkpoint::restore_log2_histogram(r)?,
            op_start: Nanos(r.get_u64()?),
            n: r.get_u64()?,
        })
    }
}

/// The chunk-level run driver: owns the report baseline and the
/// [`BatchState`], and turns fully-generated [`AccessChunk`]s into
/// simulated accesses with daemon wakeups and fault delivery interleaved
/// exactly as the per-access loop would.
///
/// [`run_chunked`] is the everything-in-one-thread assembly; `m5-bench`
/// builds an overlapped double-buffered driver from the same three calls
/// (`begin` / `drive` / `finish`).
#[derive(Debug)]
pub struct ChunkedRun {
    before: SystemStats,
    st: BatchState,
}

impl ChunkedRun {
    /// Captures the report baseline and starts the daemon (in that order,
    /// matching the per-access loop).
    pub fn begin<D>(sys: &mut System, daemon: &mut D) -> ChunkedRun
    where
        D: MigrationDaemon + ?Sized,
    {
        let before = sys.stats();
        daemon.on_start(sys);
        let st = BatchState::new(sys.now());
        ChunkedRun { before, st }
    }

    /// Accesses executed so far.
    pub fn accesses(&self) -> u64 {
        self.st.n
    }

    /// Executes one chunk to completion (or until the budget is hit),
    /// dispatching due daemon wakeups between batch segments and
    /// delivering hinting faults in order. Returns whether budget remains.
    pub fn drive<D>(
        &mut self,
        sys: &mut System,
        daemon: &mut D,
        chunk: &AccessChunk,
        max_accesses: u64,
    ) -> bool
    where
        D: MigrationDaemon + ?Sized,
    {
        let mut idx = 0;
        while idx < chunk.len() && self.st.n < max_accesses {
            // Dispatch due wakeups (bounded to avoid a daemon that never
            // reschedules wedging the loop).
            let mut ticks = 0;
            while let Some(w) = daemon.next_wake() {
                if w > sys.now() || ticks >= 64 {
                    break;
                }
                daemon.on_tick(sys);
                ticks += 1;
            }

            let deadline = daemon.next_wake();
            let (next, pause) = sys.access_batch(chunk, idx, max_accesses, deadline, &mut self.st);
            idx = next;
            if let BatchPause::Fault(vpn) = pause {
                daemon.on_fault(vpn, sys);
            }
        }
        self.st.n < max_accesses
    }

    /// Serializes the run driver (report baseline + op-latency state) for
    /// a checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        self.before.save(w);
        self.st.save(w);
    }

    /// Rebuilds a run driver from a checkpoint section. Unlike
    /// [`ChunkedRun::begin`], this does *not* capture a fresh baseline or
    /// call the daemon's `on_start` — the checkpointed run already did
    /// both; the caller re-attaches daemon devices and reloads their state
    /// separately.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn resume(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<ChunkedRun, crate::checkpoint::CodecError> {
        Ok(ChunkedRun {
            before: SystemStats::restore(r)?,
            st: BatchState::restore(r)?,
        })
    }

    /// Flushes telemetry and assembles the [`RunReport`].
    pub fn finish<D>(self, sys: &mut System, daemon: &D) -> RunReport
    where
        D: MigrationDaemon + ?Sized,
    {
        sys.flush_telemetry();
        sys.telemetry
            .histogram_merge("sim.op.latency", "", &self.st.op_telemetry);
        sys.report_since(
            &self.before,
            daemon.name().to_string(),
            self.st.n,
            self.st.op_hist,
        )
    }
}

/// Default chunk capacity for [`run`]: big enough to amortise the
/// boundary checks, small enough that two live chunks stay cache-resident.
pub const DEFAULT_CHUNK_ACCESSES: usize = 4096;

/// Drives `workload` through `sys` under `daemon` for at most
/// `max_accesses` accesses (or until the stream ends), returning a report
/// of everything that happened during this run (deltas, so a `System` may
/// be reused across runs).
///
/// This is the chunked pipeline ([`run_chunked`] with
/// [`DEFAULT_CHUNK_ACCESSES`]); it produces byte-identical results to the
/// per-access reference loop [`run_per_access`].
pub fn run<W, D>(sys: &mut System, workload: &mut W, daemon: &mut D, max_accesses: u64) -> RunReport
where
    W: AccessStream + ?Sized,
    D: MigrationDaemon + ?Sized,
{
    run_chunked(sys, workload, daemon, max_accesses, DEFAULT_CHUNK_ACCESSES)
}

/// [`run`] with an explicit chunk capacity. The access budget caps every
/// fill, so the workload cursor never advances past `max_accesses` —
/// protocols that resume the same stream across calls (ratio protocols)
/// see exactly the per-access loop's consumption.
pub fn run_chunked<W, D>(
    sys: &mut System,
    workload: &mut W,
    daemon: &mut D,
    max_accesses: u64,
    chunk_capacity: usize,
) -> RunReport
where
    W: AccessStream + ?Sized,
    D: MigrationDaemon + ?Sized,
{
    let mut run = ChunkedRun::begin(sys, daemon);
    let mut chunk = AccessChunk::with_capacity(chunk_capacity);
    while run.accesses() < max_accesses {
        chunk.clear();
        let left = max_accesses - run.accesses();
        chunk.set_limit(left.min(chunk.capacity() as u64) as usize);
        if workload.fill_chunk(&mut chunk) == 0 {
            break;
        }
        run.drive(sys, daemon, &chunk, max_accesses);
    }
    run.finish(sys, daemon)
}

/// The per-access reference driver: pull one access, dispatch due
/// wakeups, execute, deliver faults. Kept as the semantic baseline the
/// chunked drivers are differentially tested against — do not optimise.
pub fn run_per_access<W, D>(
    sys: &mut System,
    workload: &mut W,
    daemon: &mut D,
    max_accesses: u64,
) -> RunReport
where
    W: AccessStream + ?Sized,
    D: MigrationDaemon + ?Sized,
{
    let before = sys.stats();

    daemon.on_start(sys);

    let mut op_hist = LatencyHistogram::new();
    // Scratch for `sim.op.latency`: merged once at the end instead of one
    // registry probe per completed op.
    let mut op_telemetry = m5_telemetry::Log2Histogram::new();
    let mut op_start = sys.now();
    let mut n = 0u64;
    while n < max_accesses {
        let Some(acc) = workload.next_access() else {
            break;
        };
        // Dispatch due wakeups (bounded to avoid a daemon that never
        // reschedules wedging the loop).
        let mut ticks = 0;
        while let Some(w) = daemon.next_wake() {
            if w > sys.now() || ticks >= 64 {
                break;
            }
            daemon.on_tick(sys);
            ticks += 1;
        }

        let out = sys.access(acc.vaddr, acc.is_write);
        if out.hinting_fault {
            daemon.on_fault(acc.vaddr.vpn(), sys);
        }
        n += 1;
        if acc.op_end {
            let now = sys.now();
            let op = now - op_start;
            op_hist.record(op);
            op_telemetry.record(op.0);
            op_start = now;
        }
    }

    sys.flush_telemetry();
    sys.telemetry
        .histogram_merge("sim.op.latency", "", &op_telemetry);
    sys.report_since(&before, daemon.name().to_string(), n, op_hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::faults::FaultKind;

    fn small_system() -> System {
        System::new(SystemConfig::small())
    }

    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
    }

    /// Deterministic exerciser used by the restore≡continue tests: mixes
    /// reads, writes, and migrations over `region`, indexed so two calls
    /// with the same range perform identical work.
    fn exercise(sys: &mut System, region: &Region, lo: u64, hi: u64) {
        let pages = region.pages;
        for i in lo..hi {
            let vpn = region.base.vpn().0 + (i * 7 + i / 3) % pages;
            let addr = VirtAddr(vpn * PAGE_SIZE as u64 + (i % 64) * 8);
            sys.access(addr, i % 3 == 0);
            if i % 97 == 13 {
                let _ = sys.migrate_page(Vpn(vpn), NodeId::Ddr);
            }
            if i % 131 == 40 {
                let _ = sys.migrate_page(Vpn(vpn), NodeId::Cxl);
            }
        }
    }

    fn differential_restore_continue(plan: FaultPlan, telemetry: bool) {
        let config = SystemConfig::small();
        let place = Placement::Interleaved {
            ddr_fraction: 0.5,
            seed: 7,
        };

        // Uninterrupted reference run.
        let mut a = System::with_fault_plan(config.clone(), &plan);
        if telemetry {
            a.install_telemetry(Telemetry::enabled());
        }
        let ra = a.alloc_region(32, place).unwrap();
        exercise(&mut a, &ra, 0, 1200);

        // Same run, checkpointed at an interior point and restored into a
        // fresh machine.
        let mut b = System::with_fault_plan(config.clone(), &plan);
        if telemetry {
            b.install_telemetry(Telemetry::enabled());
        }
        let rb = b.alloc_region(32, place).unwrap();
        assert_eq!(ra, rb);
        exercise(&mut b, &rb, 0, 700);
        let cp = b.checkpoint();
        drop(b);
        let mut b2 = System::restore(config, &plan, &cp).unwrap();
        assert!(b2.check_invariants().is_empty());
        exercise(&mut b2, &rb, 700, 1200);

        // The full machine state is byte-identical, not just the reports.
        assert_eq!(a.checkpoint().encode(), b2.checkpoint().encode());
        assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b2.stats()));
        assert_eq!(a.telemetry().snapshot(), b2.telemetry().snapshot());
        assert!(a.check_invariants().is_empty());
    }

    #[test]
    fn checkpoint_restore_continue_matches_uninterrupted_run() {
        differential_restore_continue(FaultPlan::none(), false);
    }

    #[test]
    fn checkpoint_restore_continue_matches_with_telemetry() {
        differential_restore_continue(FaultPlan::none(), true);
    }

    #[test]
    fn checkpoint_restore_continue_matches_under_faults() {
        // A plan whose windows and consumables straddle the checkpoint
        // instant: armed-but-unconsumed state must survive the round trip,
        // and so must the telemetry span of the still-open spike window.
        let plan = FaultPlan::none()
            .with(
                Nanos(2_000),
                FaultKind::LatencySpike {
                    extra: Nanos(400),
                    duration: Nanos(4_000_000),
                },
            )
            .with(Nanos(3_000), FaultKind::PoisonLine { reads: 2 })
            .with(Nanos(4_000), FaultKind::MigrationCopyFail { attempts: 2 })
            .with(
                Nanos(5_000),
                FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 3 }),
            );
        differential_restore_continue(plan.clone(), false);
        differential_restore_continue(plan, true);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut sys = System::new(SystemConfig::small());
        let r = sys.alloc_region(4, Placement::AllOnDdr).unwrap();
        exercise(&mut sys, &r, 0, 50);
        let cp = sys.checkpoint();
        let mut other = SystemConfig::small();
        other.colocated_daemon = !other.colocated_daemon;
        let err = System::restore(other, &FaultPlan::none(), &cp).unwrap_err();
        assert!(matches!(
            err,
            crate::checkpoint::RestoreError::ConfigMismatch
        ));
    }

    #[test]
    fn restore_reports_missing_and_corrupt_sections() {
        let mut sys = System::new(SystemConfig::small());
        let r = sys.alloc_region(4, Placement::AllOnDdr).unwrap();
        exercise(&mut sys, &r, 0, 50);
        let cp = sys.checkpoint();

        // A checkpoint with a section dropped restores with a named error.
        let mut partial = crate::checkpoint::Checkpoint::new();
        for name in cp.section_names() {
            if name != "journal" {
                partial.add_section(name, cp.section(name).unwrap().to_vec());
            }
        }
        let err = System::restore(SystemConfig::small(), &FaultPlan::none(), &partial).unwrap_err();
        assert!(matches!(
            err,
            crate::checkpoint::RestoreError::MissingSection { section: "journal" }
        ));

        // A truncated section payload is Corrupt, attributed to its section.
        let mut truncated = crate::checkpoint::Checkpoint::new();
        for name in cp.section_names() {
            let bytes = cp.section(name).unwrap();
            let keep = if name == "paging" {
                &bytes[..bytes.len() / 2]
            } else {
                bytes
            };
            truncated.add_section(name, keep.to_vec());
        }
        let err =
            System::restore(SystemConfig::small(), &FaultPlan::none(), &truncated).unwrap_err();
        assert!(matches!(
            err,
            crate::checkpoint::RestoreError::Corrupt {
                section: "paging",
                ..
            }
        ));
    }

    /// `cp` with the first slots of `set` in the `section` ("llc" or
    /// "tlb") entry array overwritten by `slots`.
    fn with_cache_set(
        cp: &crate::checkpoint::Checkpoint,
        section: &str,
        set: usize,
        ways: usize,
        slots: &[u64],
    ) -> crate::checkpoint::Checkpoint {
        use crate::checkpoint::{StateReader, StateWriter};
        let mut r = StateReader::new(cp.section(section).unwrap());
        let mut w = StateWriter::new();
        w.put_u8(r.get_u8().unwrap());
        let mut entries = r.get_u64_vec().unwrap();
        entries[set * ways..set * ways + slots.len()].copy_from_slice(slots);
        w.put_u64_slice(&entries);
        w.put_u64_slice(&r.get_u64_vec().unwrap());
        for _ in 0..3 {
            w.put_u64(r.get_u64().unwrap());
        }
        r.expect_end().unwrap();
        let payload = w.finish();
        let mut out = crate::checkpoint::Checkpoint::new();
        for name in cp.section_names() {
            let bytes = if name == section {
                payload.clone()
            } else {
                cp.section(name).unwrap().to_vec()
            };
            out.add_section(name, bytes);
        }
        out
    }

    #[test]
    fn restore_rejects_malformed_cache_sets() {
        const EMPTY: u64 = u64::MAX;
        let config = SystemConfig::small();
        let cp = System::new(config.clone()).checkpoint();
        let restore = |cp| System::restore(config.clone(), &FaultPlan::none(), &cp);
        for (section, sets, ways) in [
            ("llc", config.llc.sets(), config.llc.ways),
            ("tlb", config.tlb.entries / config.tlb.ways, config.tlb.ways),
        ] {
            // Set 3 holds entries 3 + k·sets; entry 4 + sets lives in set 4.
            let own = |k: usize| (3 + k * sets) as u64;
            let sys = restore(with_cache_set(&cp, section, 3, ways, &[own(1), own(2)]))
                .expect("a well-formed set restores");
            if section == "llc" {
                assert!(sys.llc().contains(CacheLineAddr(own(2))));
            } else {
                assert_eq!(sys.tlb().occupancy(), 2);
            }
            for slots in [
                [EMPTY, own(1)],
                [own(1), own(1)],
                [own(1), (4 + sets) as u64],
            ] {
                let err = restore(with_cache_set(&cp, section, 3, ways, &slots)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        crate::checkpoint::RestoreError::Corrupt {
                            section: s,
                            source: crate::checkpoint::CodecError::BadValue { .. },
                        } if s == section
                    ),
                    "{section} set {slots:x?} restored: {err:?}"
                );
            }
        }
    }

    #[test]
    fn alloc_region_places_all_on_cxl() {
        let mut sys = small_system();
        let r = sys.alloc_region(10, Placement::AllOnCxl).unwrap();
        assert_eq!(r.pages, 10);
        assert_eq!(sys.nr_pages(NodeId::Cxl), 10);
        assert_eq!(sys.nr_pages(NodeId::Ddr), 0);
        for vpn in r.vpns() {
            assert_eq!(sys.page_table().get(vpn).unwrap().node(), NodeId::Cxl);
        }
    }

    #[test]
    fn interleaved_placement_respects_fraction_roughly() {
        let mut sys = System::new(
            SystemConfig::small()
                .with_ddr_frames(200)
                .with_cxl_frames(200),
        );
        sys.alloc_region(
            200,
            Placement::Interleaved {
                ddr_fraction: 0.5,
                seed: 42,
            },
        )
        .unwrap();
        let ddr = sys.nr_pages(NodeId::Ddr);
        assert!((60..=140).contains(&ddr), "ddr={ddr}");
    }

    #[test]
    fn access_latency_reflects_node_and_cache() {
        let mut sys = small_system();
        let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        let out = sys.access(r.base, false);
        // Cold access: page walk + LLC hit time + CXL DRAM.
        assert!(!out.llc_hit);
        assert_eq!(out.dram_node, Some(NodeId::Cxl));
        assert_eq!(out.latency, Nanos(60 + 20 + 270));
        // Second access to the same line: pure LLC hit.
        let out2 = sys.access(r.base, false);
        assert!(out2.llc_hit);
        assert_eq!(out2.dram_node, None);
        assert_eq!(out2.latency, Nanos(20));
    }

    #[test]
    fn hinting_fault_is_billed_and_cleared() {
        let mut sys = small_system();
        let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        let vpn = r.base.vpn();
        sys.access(r.base, false);
        sys.page_table_mut().clear_present(vpn);
        sys.tlb_mut().invalidate(vpn);
        let out = sys.access(r.base, false);
        assert!(out.hinting_fault);
        assert_eq!(sys.hinting_faults(), 1);
        assert!(sys.kernel_costs().of(CostKind::HintingFault) > Nanos::ZERO);
        assert!(sys.page_table().get(vpn).unwrap().flags.present());
    }

    #[test]
    fn migration_moves_page_and_bills_costs() {
        let mut sys = small_system();
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        let vpn = r.base.vpn();
        sys.access(r.base, false);
        sys.migrate_page(vpn, NodeId::Ddr).unwrap();
        assert_eq!(sys.nr_pages(NodeId::Ddr), 1);
        assert_eq!(sys.nr_pages(NodeId::Cxl), 1);
        assert_eq!(sys.page_table().get(vpn).unwrap().node(), NodeId::Ddr);
        assert_eq!(sys.migration_stats().promotions, 1);
        assert_eq!(
            sys.kernel_costs().of(CostKind::Migration),
            sys.config().costs.migrate_per_page
        );
        // The access now goes to DDR (and misses: old lines were invalidated,
        // pollution filled the *new* frame's lines, so actually it hits).
        let out = sys.access(r.base, false);
        assert!(out.llc_hit, "pollution pre-filled the new frame's lines");
    }

    #[test]
    fn migration_safety_checks() {
        let mut sys = small_system();
        let r = sys.alloc_region(3, Placement::AllOnCxl).unwrap();
        let a = r.base.vpn();
        let b = a.offset(1);
        sys.page_table_mut().set_pinned(a, true);
        sys.page_table_mut().set_cxl_bound(b, true);
        assert_eq!(sys.migrate_page(a, NodeId::Ddr), Err(MigrateError::Pinned));
        assert_eq!(
            sys.migrate_page(b, NodeId::Ddr),
            Err(MigrateError::NodeBound)
        );
        assert_eq!(
            sys.migrate_page(Vpn(999), NodeId::Ddr),
            Err(MigrateError::NotMapped)
        );
        let c = a.offset(2);
        sys.migrate_page(c, NodeId::Ddr).unwrap();
        assert_eq!(
            sys.migrate_page(c, NodeId::Ddr),
            Err(MigrateError::AlreadyThere)
        );
        // Pinned + NodeBound + NotMapped + AlreadyThere.
        assert_eq!(sys.migration_stats().rejected, 4);
    }

    #[test]
    fn destination_full_is_reported() {
        let mut sys = System::new(SystemConfig::small().with_ddr_frames(1));
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        let a = r.base.vpn();
        sys.migrate_page(a, NodeId::Ddr).unwrap();
        let err = sys.migrate_page(a.offset(1), NodeId::Ddr).unwrap_err();
        assert!(matches!(err, MigrateError::NoFreeFrame(_)));
        assert_eq!(sys.journal().counters().aborted, 1);
        assert!(sys.check_invariants().is_empty());
    }

    #[test]
    fn committed_migration_walks_the_journal() {
        let mut sys = small_system();
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        sys.migrate_page(r.base.vpn(), NodeId::Ddr).unwrap();
        let counters = sys.journal().counters();
        assert_eq!(counters.committed_promotions, 1);
        assert_eq!(counters.terminal(), 1);
        assert!(sys.journal().open().is_empty());
        // begin + copy-in-progress + remapped + committed = 4 appends.
        assert_eq!(sys.journal().steps(), 4);
        assert_eq!(sys.kernel_costs().events_of(CostKind::JournalWrite), 4);
        assert!(sys.check_invariants().is_empty());
    }

    #[test]
    fn copy_fault_quarantines_the_shadow_frame() {
        use crate::faults::FaultKind;
        let plan =
            FaultPlan::none().with(Nanos::ZERO, FaultKind::MigrationCopyFail { attempts: 1 });
        let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
        let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        let err = sys.migrate_page(r.base.vpn(), NodeId::Ddr).unwrap_err();
        assert!(matches!(err, MigrateError::Copy { .. }));
        assert_eq!(sys.quarantined_frames(NodeId::Ddr), 1);
        assert_eq!(sys.journal().counters().rolled_back, 1);
        assert!(sys.check_invariants().is_empty());
        // The source page is intact on CXL.
        assert_eq!(
            sys.page_table().get(r.base.vpn()).unwrap().node(),
            NodeId::Cxl
        );
        // A scrub pass returns the frame to circulation.
        assert_eq!(sys.scrub_quarantine(8), 1);
        assert_eq!(sys.quarantined_frames(NodeId::Ddr), 0);
        assert!(sys.check_invariants().is_empty());
        sys.migrate_page(r.base.vpn(), NodeId::Ddr).unwrap();
    }

    #[test]
    fn watchdog_rolls_back_long_stalls() {
        use crate::faults::FaultKind;
        // A stall much longer than the 200 µs watchdog deadline.
        let plan = FaultPlan::none().with(
            Nanos::ZERO,
            FaultKind::ControllerStall {
                duration: Nanos::from_millis(5),
            },
        );
        let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
        let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        let err = sys.migrate_page(r.base.vpn(), NodeId::Ddr).unwrap_err();
        assert!(matches!(err, MigrateError::Stalled { .. }));
        assert_eq!(sys.journal().counters().rolled_back, 1);
        assert_eq!(sys.free_frames(NodeId::Ddr), 256, "shadow frame returned");
        assert!(sys.check_invariants().is_empty());
        // Short stalls are waited out instead.
        let plan = FaultPlan::none().with(
            Nanos::ZERO,
            FaultKind::ControllerStall {
                duration: Nanos::from_micros(50),
            },
        );
        let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
        let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        sys.migrate_page(r.base.vpn(), NodeId::Ddr).unwrap();
        assert!(sys.check_invariants().is_empty());
    }

    #[test]
    fn reset_at_each_phase_recovers_consistently() {
        use crate::faults::FaultKind;
        // A committed migration appends 4 journal records; sweep a reset
        // over every step and make sure recovery restores the invariants.
        for at_step in 1..=4u64 {
            let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::ControllerReset { at_step });
            let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
            let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
            let vpn = r.base.vpn();
            let res = sys.migrate_page(vpn, NodeId::Ddr);
            if at_step == 4 {
                // Reset on the terminal append: the commit is durable.
                assert!(res.is_ok(), "step 4 reset lands after the commit");
            } else {
                assert!(
                    matches!(res, Err(MigrateError::Remap { .. })),
                    "step {at_step}: {res:?}"
                );
            }
            assert!(sys.needs_recovery());
            assert_eq!(
                sys.migrate_page(vpn, NodeId::Cxl),
                Err(MigrateError::NeedsRecovery),
                "fenced engine rejects new work"
            );
            let report = sys.recover();
            assert!(!sys.needs_recovery());
            assert!(sys.check_invariants().is_empty(), "step {at_step}");
            match at_step {
                1 => assert_eq!(report.aborted, 1),
                2 => assert_eq!(report.rolled_back, 1),
                3 => assert_eq!(report.rolled_forward, 1),
                _ => assert!(report.is_clean()),
            }
            // The page ends up somewhere definite and usable.
            let node = sys.page_table().get(vpn).unwrap().node();
            if at_step >= 3 {
                assert_eq!(node, NodeId::Ddr, "step {at_step}: remap was durable");
            } else {
                assert_eq!(node, NodeId::Cxl, "step {at_step}: rolled back");
            }
        }
    }

    #[test]
    fn recovery_without_pending_work_is_a_clean_noop() {
        let mut sys = small_system();
        let report = sys.recover();
        assert!(report.is_clean());
        assert!(sys.check_invariants().is_empty());
    }

    #[test]
    fn invariant_checker_spots_double_mapping() {
        let mut sys = small_system();
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        let a = r.base.vpn();
        let pfn = sys.page_table().get(a).unwrap().pfn;
        // Corrupt the page table directly: map page 1 onto page 0's frame.
        sys.page_table_mut().remap(a.offset(1), pfn);
        let violations = sys.check_invariants();
        assert!(
            violations.iter().any(|v| v.contains("double-mapped")),
            "{violations:?}"
        );
    }

    #[test]
    fn demote_coldest_uses_mglru() {
        let mut sys = small_system();
        let r = sys.alloc_region(4, Placement::AllOnDdr).unwrap();
        // Age twice while touching only page 0: others grow cold.
        sys.access(r.base, false);
        sys.mglru_age();
        sys.access(r.base, false);
        sys.mglru_age();
        let moved = sys.demote_coldest(2);
        assert_eq!(moved, 2);
        assert_eq!(sys.nr_pages(NodeId::Cxl), 2);
        // Page 0 was kept hot, so it should still be on DDR.
        assert_eq!(
            sys.page_table().get(r.base.vpn()).unwrap().node(),
            NodeId::Ddr
        );
    }

    #[test]
    fn colocated_daemon_work_stalls_the_clock() {
        let mut sys = small_system();
        let before = sys.now();
        sys.daemon_bill(CostKind::PteScan, Nanos(1000));
        assert_eq!(sys.now() - before, Nanos(1000));

        let mut isolated = System::new(SystemConfig::small().with_isolated_daemon());
        let before = isolated.now();
        isolated.daemon_bill(CostKind::PteScan, Nanos(1000));
        assert_eq!(isolated.now(), before, "isolated daemon does not stall app");
        assert_eq!(isolated.kernel_costs().of(CostKind::PteScan), Nanos(1000));
    }

    struct SequentialStream {
        base: VirtAddr,
        n: u64,
        i: u64,
    }

    impl AccessStream for SequentialStream {
        fn next_access(&mut self) -> Option<Access> {
            if self.i >= self.n {
                return None;
            }
            let a = Access::read(self.base.offset(self.i * 64)).end_op();
            self.i += 1;
            Some(a)
        }
    }

    #[test]
    fn run_produces_consistent_report() {
        let mut sys = small_system();
        let r = sys.alloc_region(4, Placement::AllOnCxl).unwrap();
        let mut wl = SequentialStream {
            base: r.base,
            n: 4 * (PAGE_SIZE / 64) as u64,
            i: 0,
        };
        let report = run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
        assert_eq!(report.accesses, 256);
        assert_eq!(report.llc_misses, 256, "every line touched once");
        assert_eq!(report.reads_on(NodeId::Cxl), 256);
        assert_eq!(report.reads_on(NodeId::Ddr), 0);
        assert_eq!(report.op_latency.count(), 256);
        assert!(report.total_time >= Nanos(256 * 270));
        assert_eq!(report.daemon, "none");
    }

    #[test]
    fn run_reports_deltas_on_reused_system() {
        let mut sys = small_system();
        let r = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        let mut wl = SequentialStream {
            base: r.base,
            n: 10,
            i: 0,
        };
        let first = run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
        let mut wl2 = SequentialStream {
            base: r.base,
            n: 10,
            i: 0,
        };
        let second = run(&mut sys, &mut wl2, &mut NoMigration, u64::MAX);
        assert_eq!(first.accesses, 10);
        assert_eq!(second.accesses, 10);
        assert_eq!(second.llc_misses, 0, "lines already resident");
    }

    struct TickingDaemon {
        wake: Nanos,
        period: Nanos,
        ticks: u64,
    }

    impl MigrationDaemon for TickingDaemon {
        fn name(&self) -> &str {
            "ticker"
        }
        fn next_wake(&self) -> Option<Nanos> {
            Some(self.wake)
        }
        fn on_tick(&mut self, sys: &mut System) {
            self.ticks += 1;
            self.wake = sys.now() + self.period;
        }
    }

    #[test]
    fn daemon_ticks_fire_on_schedule() {
        let mut sys = small_system();
        let r = sys.alloc_region(4, Placement::AllOnCxl).unwrap();
        let mut wl = SequentialStream {
            base: r.base,
            n: 200,
            i: 0,
        };
        let mut d = TickingDaemon {
            wake: Nanos::ZERO,
            period: Nanos::from_micros(5),
            ticks: 0,
        };
        let report = run(&mut sys, &mut wl, &mut d, u64::MAX);
        assert!(d.ticks >= 5, "got {} ticks", d.ticks);
        assert!(report.total_time > Nanos::from_micros(5 * d.ticks / 2));
    }
}
