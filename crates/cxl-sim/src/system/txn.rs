//! Journaled page migration, crash recovery, promotion with demotion,
//! and the invariant checker.

use crate::addr::{Pfn, Vpn, WordIndex, WORDS_PER_PAGE};
use crate::contention::TrafficClass;
use crate::journal::{MigrationJournal, RecoveryReport, TxnId, TxnState};
use crate::kernel::{
    CostKind, JOURNAL_WRITE, MIGRATE_PER_PAGE, PTE_SCAN_PER_ENTRY, SCRUB_PER_FRAME, TLB_SHOOTDOWN,
};
use crate::memory::{NodeId, OutOfFrames};
use crate::migration::{BatchOutcome, MigrateError};
use crate::ras::NodeHealth;
use crate::time::Nanos;

use super::System;

/// Migration watchdog deadline: a migration whose copy phase would wait on
/// a stalled CXL controller for longer than this is rolled back instead of
/// waiting (retry/backoff is the promoter's job). A few page-copy times.
const MIGRATION_WATCHDOG: Nanos = Nanos::from_micros(200);

impl System {
    /// Migrates `vpn` to `dst`, with the Promoter-style safety checks.
    ///
    /// A failed call counts one rejected migration: a direct call is one
    /// request, and its failure is final. Retry-aware callers (the internal
    /// promote-with-demotion loop, the M5 Promoter's backoff rounds) must
    /// use [`System::migrate_page_uncounted`] for their re-attempts and
    /// count the *final* outcome exactly once — otherwise one rejected
    /// request inflates [`MigrationStats::rejected`](crate::migration::MigrationStats::rejected) by the retry count.
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

    /// The single migration entry point: counted/uncounted decides only
    /// whether a failure counts one rejected migration; the transaction
    /// is the same either way.
    fn migrate_txn(&mut self, vpn: Vpn, dst: NodeId, counted: bool) -> Result<(), MigrateError> {
        let r = self.migrate_txn_inner(vpn, dst);
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
        self.daemon_bill(CostKind::JournalWrite, JOURNAL_WRITE);
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

    fn migrate_txn_inner(&mut self, vpn: Vpn, dst: NodeId) -> Result<(), MigrateError> {
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

        // Phase 1 — Intent: the write-ahead promise.
        let id = self.journal.begin(vpn, src, dst);
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
            if stall > MIGRATION_WATCHDOG {
                self.daemon_bill(CostKind::Migration, MIGRATION_WATCHDOG);
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
        self.daemon_bill(CostKind::TlbShootdown, TLB_SHOOTDOWN);
        self.daemon_bill(CostKind::Migration, MIGRATE_PER_PAGE);
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
        self.commit_tail(vpn, src, dst);
        self.finish_txn(id, TxnState::Committed);
        Ok(())
    }

    /// The commit tail a migration and recovery's roll-forward share: frees
    /// the source frame, moves the page into or out of the DDR MGLRU, and
    /// bumps `sim.migrations`. The caller's `Committed` journal record is
    /// what counts the migration in [`System::migration_stats`].
    fn commit_tail(&mut self, vpn: Vpn, src: Pfn, dst: NodeId) {
        self.memory.free(src);
        let label = match dst {
            NodeId::Ddr => {
                self.ddr_lru.insert(vpn);
                "promoted"
            }
            NodeId::Cxl => {
                self.ddr_lru.remove(vpn);
                "demoted"
            }
        };
        self.telemetry.counter_add("sim.migrations", label, 1);
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
                        self.commit_tail(txn.vpn, txn.src, txn.dst);
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
            self.daemon_bill(CostKind::JournalWrite, JOURNAL_WRITE);
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
            self.daemon_bill(CostKind::DaemonOther, SCRUB_PER_FRAME * total);
            self.telemetry
                .counter_add("sim.quarantine", "scrubbed", total);
        }
        total
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
    ///   or in flight in an open migration transaction.
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

        violations
    }

    /// How many pages a daemon may still migrate under a time quota: the
    /// number of [`MIGRATE_PER_PAGE`] slots left before cumulative migration
    /// time reaches `budget × elapsed`. Each promotion implies a matching
    /// demotion once the fast tier is full, so a factor of two is reserved.
    pub fn migration_allowance(&self, budget: f64) -> usize {
        let spent = self.kernel.of(CostKind::Migration).0 as f64;
        let allowed = budget * self.clock.now().0.max(1) as f64 - spent;
        let per_page = MIGRATE_PER_PAGE.0 as f64 * 2.0;
        (allowed / per_page).max(0.0) as usize
    }

    /// Counts `n` migration requests whose final outcome was rejection.
    /// Paired with [`System::migrate_page_uncounted`]: a retrying caller
    /// calls this once per request it gives up on, never per attempt.
    pub fn note_rejected_migrations(&mut self, n: u64) {
        self.rejected_migrations += n;
        self.telemetry.counter_add("sim.migrations", "rejected", n);
    }

    /// Runs one MGLRU aging pass over the DDR-resident pages, billing the
    /// PTE scans, and returns the number of PTEs scanned.
    pub fn mglru_age(&mut self) -> u64 {
        let scanned = self.ddr_lru.age(&mut self.page_table);
        self.daemon_bill(CostKind::PteScan, PTE_SCAN_PER_ENTRY * scanned);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::small_system;
    use crate::system::*;

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
        assert_eq!(sys.kernel_costs().of(CostKind::Migration), MIGRATE_PER_PAGE);
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
}
