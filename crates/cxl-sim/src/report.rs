//! Run reports: everything a figure harness needs from one simulation run.

use crate::faults::FaultClass;
use crate::kernel::{CostKind, KernelCosts};
use crate::memory::NodeId;
use crate::migration::MigrationStats;
use crate::time::Nanos;
use m5_telemetry::metrics::{log2_bucket, Log2Histogram, LOG2_BUCKETS};
use std::fmt;

/// A compact log-scale latency histogram for percentile estimation.
///
/// Buckets are ~2.5 % wide (64 sub-buckets per power of two), so a reported
/// percentile is within a few percent of the exact order statistic while
/// storage stays constant no matter how many operations are recorded — the
/// Redis YCSB runs record millions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// counts[b] where b encodes (exponent, 64ths mantissa).
    counts: Vec<u64>,
    total: u64,
    /// Exact sum of the samples (the buckets only bound each one).
    sum: u128,
    max: Nanos,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as u64;
    let mantissa = (ns >> (exp - SUB_BITS as u64)) - SUB;
    ((exp - SUB_BITS as u64 + 1) * SUB + mantissa) as usize
}

fn bucket_lower_bound(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let exp = b / SUB + SUB_BITS as u64 - 1;
    let mantissa = b % SUB;
    (SUB + mantissa) << (exp - SUB_BITS as u64)
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
            total: 0,
            sum: 0,
            max: Nanos::ZERO,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: Nanos) {
        self.counts[bucket_of(v.0)] += 1;
        self.total += 1;
        self.sum += v.0 as u128;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest sample recorded.
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// The same samples in power-of-two buckets. Every bucket here lies
    /// inside one power of two and the count, sum and max are exact, so
    /// this equals recording each sample into a [`Log2Histogram`].
    pub fn to_log2(&self) -> Log2Histogram {
        let mut counts = [0u64; LOG2_BUCKETS];
        for (b, &c) in self.counts.iter().enumerate() {
            counts[log2_bucket(bucket_lower_bound(b))] += c;
        }
        Log2Histogram::from_parts(&counts, self.sum, self.max.0).expect("LOG2_BUCKETS counts")
    }

    /// Serializes the histogram for a checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.counts);
        w.put_u64(self.total);
        w.put_u128(self.sum);
        w.put_u64(self.max.0);
    }

    /// Rebuilds a histogram from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects a bucket array of the wrong width
    /// and a total that is not the sum of the buckets.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<LatencyHistogram, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let counts = r.get_u64_vec()?;
        let expected = (64 - SUB_BITS as usize + 1) * SUB as usize;
        if counts.len() != expected {
            return Err(CodecError::BadValue {
                what: "latency-histogram bucket count",
                value: counts.len() as u64,
            });
        }
        let total = r.get_u64()?;
        if counts.iter().map(|&c| c as u128).sum::<u128>() != total as u128 {
            return Err(CodecError::BadValue {
                what: "latency-histogram total",
                value: total,
            });
        }
        Ok(LatencyHistogram {
            counts,
            total,
            sum: r.get_u128()?,
            max: Nanos(r.get_u64()?),
        })
    }

    /// The approximate `q`-quantile (`q` in `[0, 1]`), or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<Nanos> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Nanos(bucket_lower_bound(b)));
            }
        }
        Some(self.max)
    }

    /// Mean of recorded samples (bucket lower bounds), or `None` if empty.
    pub fn mean(&self) -> Option<Nanos> {
        if self.total == 0 {
            return None;
        }
        let sum: u128 = self
            .counts
            .iter()
            .enumerate()
            .map(|(b, &c)| bucket_lower_bound(b) as u128 * c as u128)
            .sum();
        Some(Nanos((sum / self.total as u128) as u64))
    }
}

/// Fault-injection and degradation summary for one run.
///
/// Default (all-zero, empty) for fault-free runs; [`RunReport`]'s `Display`
/// prints a health section only when something actually went wrong, so
/// fault-free output is byte-identical to builds without fault injection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Faults armed by the injector during this run.
    pub faults_injected: u64,
    /// Per-class fault counts (non-zero classes only, display order).
    pub fault_counts: Vec<(FaultClass, u64)>,
    /// Poisoned lines recovered by memory-failure handling.
    pub poison_repairs: u64,
    /// Degradation-mode switches recorded by daemons (e.g. a tracker
    /// failure forcing software-only identification).
    pub degraded: Vec<String>,
    /// Migration attempts the Promoter retried after transient failures.
    pub promoter_retried: u64,
    /// Migration attempts the Promoter abandoned after exhausting retries.
    pub promoter_gave_up: u64,
}

impl HealthReport {
    /// Whether the run saw no faults, no degradations, and no retries.
    pub fn is_clean(&self) -> bool {
        self == &HealthReport::default()
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "health: {} faults injected, {} poison repairs",
            self.faults_injected, self.poison_repairs
        )?;
        if !self.fault_counts.is_empty() {
            write!(f, " (")?;
            for (i, (class, n)) in self.fault_counts.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{class}: {n}")?;
            }
            write!(f, ")")?;
        }
        if self.promoter_retried > 0 || self.promoter_gave_up > 0 {
            write!(
                f,
                "; promoter retried {} / gave up {}",
                self.promoter_retried, self.promoter_gave_up
            )?;
        }
        for d in &self.degraded {
            write!(f, "\n  degraded: {d}")?;
        }
        Ok(())
    }
}

/// The result of driving a workload through [`crate::system::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Label of the daemon that ran (e.g. "anb", "damon", "m5-hpt").
    pub daemon: String,
    /// Total simulated time consumed.
    pub total_time: Nanos,
    /// Number of workload accesses executed.
    pub accesses: u64,
    /// LLC demand hits.
    pub llc_hits: u64,
    /// LLC demand misses (DRAM reads).
    pub llc_misses: u64,
    /// 64 B reads served per node.
    pub dram_reads: [(NodeId, u64); 2],
    /// Hinting (soft) page faults taken.
    pub hinting_faults: u64,
    /// Migration statistics.
    pub migrations: MigrationStats,
    /// Kernel-time ledger.
    pub kernel: KernelCosts,
    /// Per-operation latency distribution (if the workload marks ops).
    pub op_latency: LatencyHistogram,
    /// Fault-injection and degradation summary (default when fault-free).
    pub health: HealthReport,
}

impl RunReport {
    /// Operations per simulated second (0 if no op markers were seen).
    pub fn ops_per_sec(&self) -> f64 {
        if self.total_time == Nanos::ZERO {
            return 0.0;
        }
        self.op_latency.count() as f64 / self.total_time.as_secs_f64()
    }

    /// Accesses per simulated second.
    pub fn accesses_per_sec(&self) -> f64 {
        if self.total_time == Nanos::ZERO {
            return 0.0;
        }
        self.accesses as f64 / self.total_time.as_secs_f64()
    }

    /// The p99 operation latency, if ops were recorded.
    pub fn p99(&self) -> Option<Nanos> {
        self.op_latency.quantile(0.99)
    }

    /// Reads served by `node`.
    pub fn reads_on(&self, node: NodeId) -> u64 {
        self.dram_reads
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, r)| r)
            .unwrap_or(0)
    }

    /// Speedup of this run relative to `baseline` (by total time; higher is
    /// better).
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        baseline.total_time.0 as f64 / self.total_time.0 as f64
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} for {} accesses ({:.1} M accesses/s)",
            self.daemon,
            self.total_time,
            self.accesses,
            self.accesses_per_sec() / 1e6
        )?;
        writeln!(
            f,
            "  LLC: {} hits / {} misses; DRAM reads: DDR {} CXL {}",
            self.llc_hits,
            self.llc_misses,
            self.reads_on(NodeId::Ddr),
            self.reads_on(NodeId::Cxl)
        )?;
        writeln!(
            f,
            "  migrations: {} promoted, {} demoted, {} rejected; {} hinting faults",
            self.migrations.promotions,
            self.migrations.demotions,
            self.migrations.rejected,
            self.hinting_faults
        )?;
        write!(f, "  {}", self.kernel)?;
        if let Some(p99) = self.p99() {
            write!(f, "\n  op latency p50/p99: ")?;
            match self.op_latency.quantile(0.50) {
                Some(p50) => write!(f, "{p50}/{p99}")?,
                None => write!(f, "-/{p99}")?,
            }
        }
        if !self.health.is_clean() {
            write!(f, "\n  {}", self.health)?;
        }
        Ok(())
    }
}

/// Identification-only kernel time (everything except `Migration`) — used by
/// the §4.2 harness.
pub fn identification_cost(kernel: &KernelCosts) -> Nanos {
    kernel.identification_total()
}

/// A `(kind, time)` breakdown in display order, skipping zero rows.
pub fn kernel_breakdown(kernel: &KernelCosts) -> Vec<(CostKind, Nanos)> {
    CostKind::ALL
        .into_iter()
        .filter(|&k| kernel.of(k) > Nanos::ZERO)
        .map(|k| (k, kernel.of(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_is_monotone_and_tight() {
        let mut prev = 0;
        for ns in [
            0u64,
            1,
            63,
            64,
            65,
            100,
            1000,
            54_000,
            1_000_000,
            u32::MAX as u64,
        ] {
            let b = bucket_of(ns);
            let lo = bucket_lower_bound(b);
            assert!(lo <= ns, "lower bound {lo} > value {ns}");
            // Bucket width is < 1/32 of the value above 64 ns.
            if ns >= 64 {
                assert!(ns - lo <= ns / 32, "bucket too wide at {ns}");
            }
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos(i));
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5).unwrap().0;
        let p99 = h.quantile(0.99).unwrap().0;
        assert!((4800..=5200).contains(&p50), "p50={p50}");
        assert!((9500..=10_000).contains(&p99), "p99={p99}");
        assert!(h.quantile(1.0).unwrap().0 <= 10_000);
        assert!(h.mean().unwrap().0 > 4500);
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn restore_rejects_a_wrong_width_or_a_total_off_the_buckets() {
        use crate::checkpoint::{CodecError, StateReader, StateWriter};
        let mut h = LatencyHistogram::new();
        for ns in [0, 70, 5_000, u64::MAX] {
            h.record(Nanos(ns));
        }
        let image = |counts: &[u64], total: u64| {
            let mut w = StateWriter::new();
            w.put_u64_slice(counts);
            w.put_u64(total);
            w.put_u128(h.sum);
            w.put_u64(h.max.0);
            w.finish()
        };
        let restore = |b: &[u8]| LatencyHistogram::restore(&mut StateReader::new(b));

        assert_eq!(restore(&image(&h.counts, 4)), Ok(h.clone()));
        assert!(matches!(
            restore(&image(&h.counts[1..], 4)),
            Err(CodecError::BadValue {
                what: "latency-histogram bucket count",
                ..
            })
        ));
        for total in [3, 5, u64::MAX] {
            assert_eq!(
                restore(&image(&h.counts, total)),
                Err(CodecError::BadValue {
                    what: "latency-histogram total",
                    value: total
                })
            );
        }
    }

    fn dummy_report(total: u64) -> RunReport {
        RunReport {
            daemon: "test".into(),
            total_time: Nanos(total),
            accesses: 100,
            llc_hits: 60,
            llc_misses: 40,
            dram_reads: [(NodeId::Ddr, 10), (NodeId::Cxl, 30)],
            hinting_faults: 2,
            migrations: MigrationStats::default(),
            kernel: KernelCosts::new(),
            op_latency: LatencyHistogram::new(),
            health: HealthReport::default(),
        }
    }

    #[test]
    fn kernel_breakdown_skips_zero_rows() {
        let mut k = KernelCosts::new();
        k.bill(CostKind::PteScan, Nanos(30));
        k.bill(CostKind::Migration, Nanos(54_000));
        let rows = kernel_breakdown(&k);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|&(kind, t)| kind == CostKind::PteScan && t == Nanos(30)));
        assert_eq!(identification_cost(&k), Nanos(30));
    }

    #[test]
    fn display_includes_op_percentiles_when_present() {
        let mut r = dummy_report(1_000_000);
        r.op_latency.record(Nanos(100));
        r.op_latency.record(Nanos(2000));
        let s = r.to_string();
        assert!(s.contains("op latency p50/p99"), "{s}");
    }

    #[test]
    fn clean_health_is_invisible_in_display() {
        let r = dummy_report(1_000_000);
        assert!(r.health.is_clean());
        assert!(
            !r.to_string().contains("health:"),
            "clean runs show no health section"
        );
        let mut faulty = dummy_report(1_000_000);
        faulty.health.faults_injected = 3;
        faulty.health.fault_counts = vec![(FaultClass::PoisonedLine, 2)];
        faulty.health.degraded = vec!["hpt garbage; software-only fallback".into()];
        faulty.health.promoter_retried = 5;
        let s = faulty.to_string();
        assert!(s.contains("health: 3 faults injected"), "{s}");
        assert!(s.contains("poisoned-line: 2"), "{s}");
        assert!(s.contains("degraded: hpt garbage"), "{s}");
        assert!(s.contains("retried 5"), "{s}");
    }

    #[test]
    fn report_accessors() {
        let r = dummy_report(1_000_000_000);
        assert_eq!(r.reads_on(NodeId::Cxl), 30);
        assert!((r.accesses_per_sec() - 100.0).abs() < 1e-9);
        let faster = dummy_report(500_000_000);
        assert!((faster.speedup_vs(&r) - 2.0).abs() < 1e-12);
        assert!(r.to_string().contains("migrations"));
    }
}
