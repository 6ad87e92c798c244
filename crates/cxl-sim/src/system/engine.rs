//! The access engine: one access, the batch loop over a chunk, and the
//! per-access telemetry batch they feed.

use crate::addr::{Pfn, VirtAddr, Vpn, WordIndex};
use crate::chunk::{AccessChunk, CHUNK_ADDR_MASK, CHUNK_OP_END_BIT, CHUNK_WRITE_BIT};
use crate::faults::{FaultClass, SimError};
use crate::kernel::CostKind;
use crate::memory::NodeId;
use crate::paging::Pte;
use crate::report::LatencyHistogram;
use crate::time::Nanos;

use super::{AccessOutcome, System};

/// Per-access telemetry that no ledger holds, accumulated locally and
/// flushed to the [`Telemetry`](m5_telemetry::Telemetry) registry once per
/// tick instead of once per access: the read/write split of accesses, the
/// snoop outcomes, and the latency and contention histograms.
///
/// `Telemetry::counter_add` costs a `HashMap` probe per call, so these
/// deltas sit in plain array slots and [`System::flush_telemetry`] merges
/// them in one probe per metric. Every other `sim.*` counter is published
/// at the flush as the growth of the ledger [`System::stats`] reads.
/// Flush points: every [`System::rollover_bandwidth`] (the Monitor tick),
/// every [`System::telemetry_mut`] borrow (so external writers/snapshots
/// never see a torn view), and the end of [`run`](super::run). Counters
/// only ever sum, so the final snapshot is identical to per-access
/// recording.
#[derive(Debug, Default)]
pub(super) struct TelemetryBatch {
    /// `[read, write]`.
    accesses: [u64; 2],
    /// `[read, writeback, dropped]`.
    snoops: [u64; 3],
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

#[inline]
fn node_idx(node: NodeId) -> usize {
    match node {
        NodeId::Ddr => 0,
        NodeId::Cxl => 1,
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
    /// driver must deliver [`MigrationDaemon::on_fault`](super::MigrationDaemon::on_fault) before resuming.
    Fault(Vpn),
}

/// The fault state every access of one segment shares, fixed by
/// [`System::begin_segment`] and constant up to `horizon`.
struct Segment {
    /// The segment ends after the first access that finishes at or past
    /// this instant: the wake deadline, the next TLB flush, or the
    /// injector's next edge.
    horizon: Nanos,
    /// Added to every CXL fill: the degraded-link penalty plus any open
    /// latency spike.
    cxl_extra: Nanos,
    /// Whether a controller stall drops this segment's snoops.
    stalled: bool,
}

/// Per-run state threaded through [`System::access_batch`] calls: the
/// access count and the op-latency histogram (ops may straddle chunk
/// boundaries, so this outlives any single chunk).
#[derive(Clone, Debug)]
pub struct BatchState {
    pub(super) op_hist: LatencyHistogram,
    op_start: Nanos,
    pub(super) n: u64,
}

impl BatchState {
    /// Fresh state; `start` is the simulated time the run begins (the
    /// first op is measured from here).
    pub fn new(start: Nanos) -> BatchState {
        BatchState {
            op_hist: LatencyHistogram::new(),
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
        self.op_hist.record(now - self.op_start);
        self.op_start = now;
    }

    /// Serializes the op-latency histogram and access count for a
    /// checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        self.op_hist.save(w);
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
            op_start: Nanos(r.get_u64()?),
            n: r.get_u64()?,
        })
    }
}

impl System {
    /// Publishes everything counted since the last flush to the bus
    /// registry: the growth of each ledger [`System::stats`] reads, as
    /// `sim.llc`, `sim.dram.*`, `sim.hinting_faults`, `sim.poison.repairs`,
    /// `sim.kernel.*`, `sim.faults` and `sim.degraded` counters (zero
    /// deltas skipped), then the drained per-access batch. A no-op with
    /// telemetry disabled. Called automatically on
    /// [`System::rollover_bandwidth`], [`System::telemetry_mut`], and at
    /// the end of [`run`](super::run).
    pub fn flush_telemetry(&mut self) {
        if !self.telemetry_on {
            return;
        }
        let now = self.stats();
        let d = now.since(&self.published);
        self.published = now;
        let t = &mut self.telemetry;
        let mut add = |name: &'static str, label: &'static str, v: u64| {
            if v > 0 {
                t.counter_add(name, label, v);
            }
        };
        add("sim.llc", "hit", d.llc_hits);
        add("sim.llc", "miss", d.llc_misses);
        add("sim.hinting_faults", "", d.hinting_faults);
        add("sim.poison.repairs", "", d.poison_repairs);
        for (i, node) in NodeId::ALL.into_iter().enumerate() {
            add("sim.dram.reads", node.label(), d.dram_reads[i]);
            add("sim.dram.writebacks", node.label(), d.dram_writebacks[i]);
        }
        for kind in CostKind::ALL {
            add("sim.kernel.ns", kind.label(), d.kernel.of(kind).0);
            add("sim.kernel.events", kind.label(), d.kernel.events_of(kind));
        }
        for (i, class) in FaultClass::ALL.into_iter().enumerate() {
            add("sim.faults", class.label(), d.fault_counts[i]);
        }
        add("sim.degraded", "", d.degradations as u64);

        let b = std::mem::take(&mut self.batch);
        add("sim.accesses", "read", b.accesses[0]);
        add("sim.accesses", "write", b.accesses[1]);
        add("sim.snoops", "read", b.snoops[BATCH_SNOOP_READ]);
        add("sim.snoops", "writeback", b.snoops[BATCH_SNOOP_WRITEBACK]);
        add("sim.snoops", "dropped", b.snoops[BATCH_SNOOP_DROPPED]);
        let t = &mut self.telemetry;
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

    /// Segments of [`System::access_batch`] that ended because the clock
    /// reached their horizon (a wake deadline, a TLB flush, or a fault
    /// edge), since this machine was built or restored. A segment cut by
    /// the end of a chunk, the access budget or a hinting fault does not
    /// count, so this is a deterministic work count: it depends on the
    /// simulated run only, never on the host or the chunk capacity. Kept
    /// out of checkpoints, reports and telemetry, so reading it perturbs
    /// nothing.
    pub fn horizon_breaks(&self) -> u64 {
        self.horizon_breaks
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

    /// Performs one memory access, advancing the clock by its latency: a
    /// one-access segment.
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
        let seg = self.begin_segment(None);
        let (pte, latency, hinting_fault) = self.translate(vaddr, is_write)?;
        Ok(self.access_frame(vaddr, pte.pfn, is_write, latency, hinting_fault, &seg))
    }

    /// The prologue of every access segment: arms due faults and delivers
    /// the ones it armed, runs a due TLB flush, and fixes the fault state the
    /// segment's accesses share up to its horizon.
    ///
    /// Exactness: until the clock reaches the horizon, repeating this
    /// prologue before each access would change nothing. `poll` arms
    /// nothing before the next scheduled fault and every open window's
    /// end is an edge ([`FaultInjector::next_edge`](crate::faults::FaultInjector::next_edge)),
    /// so the spike penalty, the stall and, with telemetry on, the
    /// fault-window spans stay as they are; a device or RAS fault is
    /// delivered by the prologue whose `poll` armed it; the link factor behind
    /// the RAS penalty moves only when a RAS fault is delivered or a RAS
    /// service epoch runs, both outside a segment; and the next flush is a
    /// horizon term.
    #[inline]
    fn begin_segment(&mut self, deadline: Option<Nanos>) -> Segment {
        self.service_faults();
        let now = self.clock.now();
        let mut horizon = deadline.unwrap_or(Nanos(u64::MAX));
        // Context-switch-style full TLB flush: the passive invalidation that
        // lets accessed bits get re-set for TLB-resident hot pages (§2.1).
        if let Some(interval) = self.config.tlb_flush_interval {
            if now - self.last_tlb_flush >= interval {
                self.tlb.flush();
                self.last_tlb_flush = now;
            }
            horizon = horizon.min(self.last_tlb_flush + interval);
        }
        if let Some(edge) = self.faults.next_edge(now) {
            horizon = horizon.min(edge);
        }
        // A degraded link slows every fill in proportion to the nominal
        // node latency; zero at full link speed.
        let ras_extra = self
            .ras
            .extra_latency(NodeId::Cxl, self.memory.node(NodeId::Cxl).access_latency());
        Segment {
            horizon,
            cxl_extra: ras_extra + self.faults.cxl_extra_latency(now),
            stalled: self.faults.controller_stalled(now),
        }
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
            self.kernel
                .bill(CostKind::HintingFault, costs.hinting_fault);
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
    /// translation's share; `seg` the fault state of the segment.
    #[inline]
    fn access_frame(
        &mut self,
        vaddr: VirtAddr,
        pfn: Pfn,
        is_write: bool,
        mut latency: Nanos,
        hinting_fault: bool,
        seg: &Segment,
    ) -> AccessOutcome {
        let costs = self.config.costs;
        let word = WordIndex(vaddr.word_index().0);
        let line = pfn.word(word).cache_line();
        latency += costs.llc_hit;

        let res = self.llc.access(line, is_write);
        let mut dram_node = None;
        let mut poisoned = false;
        let now = self.clock.now();
        let stalled = seg.stalled;
        if !res.hit {
            let node = NodeId::of_pfn(pfn);
            latency += self.memory.node(node).access_latency();
            self.perfmon.record_read(node);
            if self.contention_on {
                let extra = self.contention.demand_delay(node, now);
                latency += extra;
                if self.telemetry_on {
                    self.batch.contention_extra[node_idx(node)].record(extra.0);
                }
            }
            if node == NodeId::Cxl {
                latency += seg.cxl_extra;
                if self.faults.take_poisoned_read() {
                    // Uncorrectable ECC on the fill: the kernel's
                    // memory-failure path isolates the line, re-fetches,
                    // and resumes the load — slow but never fatal.
                    poisoned = true;
                    self.kernel.bill(CostKind::DaemonOther, costs.poison_repair);
                    latency += costs.poison_repair;
                }
                if !stalled {
                    self.controller.snoop(line, false, now);
                }
                if self.telemetry_on {
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
            self.batch.accesses[is_write as usize] += 1;
            let lat = match dram_node {
                Some(node) => BATCH_LAT_DDR + node_idx(node),
                None => BATCH_LAT_LLC,
            };
            self.batch.latency[lat].record(latency.0);
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
    /// This is the batch core of the chunked run pipeline: a loop of
    /// segments. Each opens with `System::begin_segment`, which runs the
    /// fault, flush and wake bookkeeping once and fixes a *horizon*; the
    /// segment's accesses then run as bare `System::translate` and
    /// `System::access_frame` calls until one finishes at or past the
    /// horizon, so the observable behaviour is identical to calling
    /// [`System::access`] in a loop.
    ///
    /// Sequencing contract (mirrors the per-access [`run`](super::run) loop):
    ///
    /// * at least one access is executed per call, even with
    ///   `deadline <= now` — the per-access loop likewise forces progress
    ///   after its bounded tick dispatch;
    /// * the batch pauses *before* the first access whose start time has
    ///   reached `deadline` (the driver dispatches daemon ticks, then
    ///   resumes);
    /// * the batch pauses *after* an access that took a hinting fault, so
    ///   the driver can deliver [`MigrationDaemon::on_fault`](super::MigrationDaemon::on_fault) in order.
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
            executed = true;

            let seg = self.begin_segment(deadline);
            // Same-page reuse: the previous access of this segment stored
            // its page's flags and left the translation at its TLB set's
            // MRU position (by hitting or inserting it), and nothing
            // between two accesses of a segment touches the page table or
            // the TLB. A repeat of that page skips both lookups; the TLB
            // probe would only have counted a hit.
            let mut last: Option<(Vpn, Pte)> = None;
            let fault = loop {
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
                self.access_frame(vaddr, pfn, is_write, latency, hinting_fault, &seg);
                idx += 1;
                st.n += 1;
                if w & CHUNK_OP_END_BIT != 0 {
                    st.record_op_end(self.clock.now());
                }
                let at_horizon = self.clock.now() >= seg.horizon;
                if at_horizon || hinting_fault || idx >= words.len() || st.n >= max_accesses {
                    self.horizon_breaks += at_horizon as u64;
                    break hinting_fault.then_some(vpn);
                }
            };
            if let Some(vpn) = fault {
                return (idx, BatchPause::Fault(vpn));
            }
        }
    }

    /// Bills daemon kernel work; when the daemon is co-located with the
    /// application core, the clock advances too (the application stalls).
    pub fn daemon_bill(&mut self, kind: CostKind, d: Nanos) {
        self.kernel.bill(kind, d);
        if self.config.colocated_daemon {
            self.clock.advance(d);
        }
    }
}
