//! Machine checkpoint/restore and the cumulative [`SystemStats`] snapshot.

use crate::cache::Llc;
use crate::config::SystemConfig;
use crate::contention::Contention;
use crate::controller::CxlController;
use crate::faults::{FaultClass, FaultInjector, FaultPlan};
use crate::journal::MigrationJournal;
use crate::kernel::KernelCosts;
use crate::memory::{NodeId, TieredMemory};
use crate::mglru::MgLru;
use crate::migration::MigrationStats;
use crate::paging::PageTable;
use crate::perfmon::PerfMonitor;
use crate::ras::RasState;
use crate::time::{Clock, Nanos};
use crate::tlb::Tlb;
use m5_telemetry::{SpanId, Telemetry};
use rand::rngs::SmallRng;

use super::{System, TelemetryBatch};

/// A cumulative snapshot of the aggregates behind [`RunReport`](crate::report::RunReport), captured
/// with [`System::stats`]. All fields count from system construction;
/// [`SystemStats::since`] subtracts two snapshots for per-run deltas.
#[derive(Clone, Debug, Default)]
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
    /// The growth of every aggregate since `before`, an earlier snapshot
    /// of the same machine; `now` becomes the elapsed time. Run reports
    /// and the telemetry flush both subtract through here.
    pub fn since(&self, before: &SystemStats) -> SystemStats {
        fn sub<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i] - b[i])
        }
        SystemStats {
            now: self.now - before.now,
            llc_hits: self.llc_hits - before.llc_hits,
            llc_misses: self.llc_misses - before.llc_misses,
            dram_reads: sub(self.dram_reads, before.dram_reads),
            dram_writebacks: sub(self.dram_writebacks, before.dram_writebacks),
            hinting_faults: self.hinting_faults - before.hinting_faults,
            kernel: self.kernel.delta_since(&before.kernel),
            migrations: MigrationStats {
                promotions: self.migrations.promotions - before.migrations.promotions,
                demotions: self.migrations.demotions - before.migrations.demotions,
                rejected: self.migrations.rejected - before.migrations.rejected,
            },
            fault_counts: sub(self.fault_counts, before.fault_counts),
            poison_repairs: self.poison_repairs - before.poison_repairs,
            degradations: self.degradations - before.degradations,
            promoter_retried: self.promoter_retried - before.promoter_retried,
            promoter_gave_up: self.promoter_gave_up - before.promoter_gave_up,
        }
    }

    /// Serializes the snapshot for a checkpoint (drivers persist their
    /// report baseline so a restored run's [`RunReport`](crate::report::RunReport) deltas match the
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

impl System {
    /// A cumulative snapshot of every aggregate a [`RunReport`](crate::report::RunReport) is built
    /// from. Capture one before a run, another after, and diff — this is
    /// the single accounting path used by [`run`](super::run) and
    /// [`System::flush_telemetry`], so reports and live telemetry can never
    /// disagree about what a counter means.
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

    /// Captures a crash-consistent snapshot of the whole machine as a
    /// [`Checkpoint`](crate::checkpoint::Checkpoint): memory partitions (free/allocated/quarantined/
    /// offlined, in hand-out order), page table, TLB and LLC arrays with
    /// their LRU order, migration journal, fault-injector arming state,
    /// RAS health ladder, contention queues, perfmon windows, MGLRU
    /// generations, kernel ledger, and the telemetry registry.
    ///
    /// The per-access telemetry batch is flushed first; counters and
    /// histogram merges are exact, so flushing early is observationally
    /// equivalent for every snapshot taken at or after the next flush
    /// point. Attached [`CxlDevice`](crate::controller::CxlDevice)s are *not* captured — the restoring
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

    /// Rebuilds a machine from a [`Checkpoint`](crate::checkpoint::Checkpoint) captured by
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
    /// [`RestoreError::ConfigMismatch`](crate::checkpoint::RestoreError::ConfigMismatch) when `config` differs from the
    /// checkpointed one, [`RestoreError::MissingSection`](crate::checkpoint::RestoreError::MissingSection) /
    /// [`RestoreError::Corrupt`](crate::checkpoint::RestoreError::Corrupt) on structural damage a checksum did not
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
        let mut sys = System {
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
            published: SystemStats::default(),
            fault_events_seen: misc.fault_events_seen as usize,
            spike_span: misc.spans[0],
            stall_span: misc.spans[1],
            pressure_span: misc.spans[2],
            ras,
            evac_span: misc.spans[3],
            evac_exhaustion_noted: misc.evac_exhaustion_noted,
            config,
        };
        // The checkpoint flushed before capture, so the restored registry
        // already holds every count up to here.
        sys.published = sys.stats();
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::faults::{DeviceFault, FaultKind};
    use crate::system::*;

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
}
