//! Run drivers: the chunked driver, its entry points, and the per-access
//! reference loop.

use crate::chunk::AccessChunk;
use crate::faults::FaultClass;
use crate::memory::NodeId;
use crate::migration::MigrationStats;
use crate::report::{HealthReport, LatencyHistogram, RunReport};

use super::{AccessStream, BatchPause, BatchState, MigrationDaemon, System, SystemStats};

/// The chunk-level run driver: owns the report baseline and the
/// [`BatchState`], and turns fully-generated [`AccessChunk`]s into
/// simulated accesses with daemon wakeups and fault delivery interleaved
/// exactly as the per-access loop would.
///
/// A run is `begin`, any number of [`ChunkedRun::drive_to`] legs, and
/// `finish`; [`run_chunked`] is the one-leg assembly. Checkpointing
/// harnesses save the driver between legs and [`ChunkedRun::resume`] it.
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

    /// Fills chunks of `chunk_capacity` accesses from `workload` and drives
    /// them until `target` *total* accesses have executed or the stream
    /// ends. Every fill is capped at the accesses left, so the workload
    /// cursor never passes `target`: ratio protocols resume the same
    /// stream across calls with exact budgets, and a checkpoint taken
    /// between legs records a cursor the restored run resumes from
    /// exactly. This is the only loop that fills a chunk and drives it.
    pub fn drive_to<W, D>(
        &mut self,
        sys: &mut System,
        workload: &mut W,
        daemon: &mut D,
        target: u64,
        chunk_capacity: usize,
    ) where
        W: AccessStream + ?Sized,
        D: MigrationDaemon + ?Sized,
    {
        let mut chunk = AccessChunk::with_capacity(chunk_capacity);
        while self.st.n < target {
            chunk.clear();
            let left = target - self.st.n;
            chunk.set_limit(left.min(chunk_capacity as u64) as usize);
            if workload.fill_chunk(&mut chunk) == 0 {
                break;
            }
            self.drive(sys, daemon, &chunk, target);
        }
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

/// [`run`] with an explicit chunk capacity: one [`ChunkedRun::drive_to`]
/// leg, so the workload cursor never advances past `max_accesses`.
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
    run.drive_to(sys, workload, daemon, max_accesses, chunk_capacity);
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

impl System {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::system::tests::small_system;
    use crate::system::*;

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
