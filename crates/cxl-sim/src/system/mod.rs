//! The composed machine and its run loop.
//!
//! A [`System`] wires together the tiered memory, page table, TLB, LLC,
//! CXL controller, performance monitor, MGLRU and the kernel-cost ledger.
//! The [`run`] driver pulls accesses from an [`AccessStream`] (a workload),
//! pushes them through [`System::access`], dispatches hinting faults and
//! periodic wakeups to a [`MigrationDaemon`], and assembles a
//! [`RunReport`](crate::report::RunReport).
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
//! transfer whose cost is folded into
//! [`MIGRATE_PER_PAGE`](crate::kernel::MIGRATE_PER_PAGE). This keeps
//! `bw()` an application-demand signal, which is what the
//! M5-manager's Monitor needs (§5.2), and keeps the profiled access counts
//! attributable to the application.

mod engine;
mod ras;
mod run;
mod state;
mod txn;

use engine::TelemetryBatch;
pub use engine::{BatchPause, BatchState};
pub use ras::RasServiceReport;
pub use run::{run, run_chunked, run_per_access, ChunkedRun, DEFAULT_CHUNK_ACCESSES};
pub use state::SystemStats;

use crate::addr::{CacheLineAddr, VirtAddr, Vpn};
use crate::cache::Llc;
use crate::chunk::AccessChunk;
use crate::config::{Placement, SystemConfig};
use crate::contention::{Contention, TrafficClass};
use crate::controller::{CxlController, CxlDevice, DeviceHandle};
use crate::faults::{FaultEvent, FaultInjector, FaultPlan, SimError};
use crate::journal::MigrationJournal;
use crate::kernel::{CostKind, KernelCosts};
use crate::memory::{NodeId, TieredMemory};
use crate::mglru::MgLru;
use crate::migration::MigrationStats;
use crate::paging::PageTable;
use crate::perfmon::{BandwidthStats, PerfMonitor};
use crate::ras::{NodeHealth, RasState};
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
    /// Migration requests whose final outcome was rejection. Promotions
    /// and demotions are the journal's committed counts.
    rejected_migrations: u64,
    journal: MigrationJournal,
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
    /// The ledgers as last published to telemetry: each flush publishes
    /// the growth since this point (see [`System::flush_telemetry`]).
    published: SystemStats,
    spike_span: Option<SpanId>,
    stall_span: Option<SpanId>,
    pressure_span: Option<SpanId>,
    ras: RasState,
    evac_span: Option<SpanId>,
    /// Whether the current evacuation already noted survivor-capacity
    /// exhaustion (one degradation entry per evacuation, not per epoch).
    evac_exhaustion_noted: bool,
    /// Segments of [`System::access_batch`] that ended at their horizon
    /// (see [`System::horizon_breaks`]; not checkpointed).
    horizon_breaks: u64,
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
            rejected_migrations: 0,
            journal: MigrationJournal::new(),
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
            published: SystemStats::default(),
            spike_span: None,
            stall_span: None,
            pressure_span: None,
            ras: RasState::new(config.evac_deadline),
            evac_span: None,
            evac_exhaustion_noted: false,
            horizon_breaks: 0,
            config,
        }
    }

    /// Installs a telemetry bus (typically [`Telemetry::enabled`] with sinks
    /// attached). The default is [`Telemetry::disabled`], which reduces every
    /// instrumentation point to a single branch.
    pub fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.telemetry_on = self.telemetry.is_enabled();
        self.published = self.stats();
    }

    /// The telemetry bus (read-only: snapshots).
    ///
    /// `sim.*` counters become visible at flush points (see
    /// [`System::flush_telemetry`]); a snapshot taken between flushes can
    /// trail the current tick's accesses. Borrow via [`System::telemetry_mut`] first — it flushes —
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

    /// Replaces the fault plan (resets the injector; already-armed windows
    /// close, pending one-shot faults are dropped). The old injector's
    /// fault and poison-repair counts are published first; telemetry keeps
    /// them while the new injector counts from zero.
    /// Oracle hook: the journal and RAS property tests inject faults mid-run
    /// through it (`crates/cxl-sim/tests/{journal,ras}_properties.rs`).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.flush_telemetry();
        self.faults = FaultInjector::from_plan(plan);
        self.published = self.stats();
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
    /// Oracle hook: the chunk-size and engine≡`run_per_access` oracles
    /// check that both drivers armed the same faults.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.faults.log().collect()
    }

    /// Records a degradation-mode switch (e.g. a daemon falling back to
    /// software-only identification after tracker failure). Surfaces in
    /// [`RunReport::health`](crate::report::RunReport::health).
    pub fn note_degradation(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.telemetry.is_enabled() {
            let now = self.clock.now().0;
            self.telemetry.event(now, "sim.degraded", msg.clone());
        }
        self.degradations.push(msg);
    }

    /// Degradation-mode switches recorded so far.
    pub fn degradations(&self) -> &[String] {
        &self.degradations
    }

    /// Accounts Promoter retry activity for [`RunReport::health`](crate::report::RunReport::health).
    pub fn note_promoter_retries(&mut self, retried: u64, gave_up: u64) {
        self.promoter_retried += retried;
        self.promoter_gave_up += gave_up;
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

    /// The kernel-cost ledger.
    pub fn kernel_costs(&self) -> &KernelCosts {
        &self.kernel
    }

    /// Cumulative migration statistics: the journal's committed
    /// promotions and demotions, and the rejected requests.
    pub fn migration_stats(&self) -> MigrationStats {
        let c = self.journal.counters();
        MigrationStats {
            promotions: c.committed_promotions,
            demotions: c.committed_demotions,
            rejected: self.rejected_migrations,
        }
    }

    /// Soft page faults taken so far: the kernel ledger's hinting-fault
    /// events.
    pub fn hinting_faults(&self) -> u64 {
        self.kernel.events_of(CostKind::HintingFault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CostKind;

    pub(super) fn small_system() -> System {
        System::new(SystemConfig::small())
    }

    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
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
}
