//! Run reports: everything a figure harness needs from one simulation run.

use crate::faults::FaultClass;
use crate::kernel::KernelCosts;
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
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

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

/// The largest value [`bucket_of`] maps to bucket `b`.
fn bucket_upper_bound(b: usize) -> u64 {
    if b + 1 < BUCKETS {
        bucket_lower_bound(b + 1) - 1
    } else {
        u64::MAX
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
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

    /// Serializes the histogram for a checkpoint: the non-empty buckets
    /// as (index, count) pairs in increasing index order, then the sum
    /// and the max. The total is their counts' sum, so it is not stored.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        let filled = || self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        w.put_usize(filled().count());
        for (b, &c) in filled() {
            w.put_u32(b as u32);
            w.put_u64(c);
        }
        w.put_u128(self.sum);
        w.put_u64(self.max.0);
    }

    /// Rebuilds a histogram from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects a bucket index past the last
    /// bucket or not above the previous one, a zero count, counts whose
    /// total overflows a `u64`, a max outside the highest non-empty bucket
    /// (or nonzero when empty), and a sum outside the range the bucket
    /// bounds allow.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<LatencyHistogram, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let bad = |what, value| Err(CodecError::BadValue { what, value });
        let n = r.get_usize()?;
        let mut counts = vec![0; BUCKETS];
        let mut total = 0u64;
        let mut next = 0;
        for _ in 0..n {
            let b = r.get_u32()? as usize;
            let c = r.get_u64()?;
            if b >= BUCKETS {
                return bad("latency-histogram bucket index", b as u64);
            }
            if b < next {
                return bad("latency-histogram bucket order", b as u64);
            }
            if c == 0 {
                return bad("latency-histogram empty bucket", b as u64);
            }
            let Some(t) = total.checked_add(c) else {
                return bad("latency-histogram total", c);
            };
            counts[b] = c;
            total = t;
            next = b + 1;
        }
        let sum = r.get_u128()?;
        let max = r.get_u64()?;
        let max_fits = match counts.iter().rposition(|&c| c > 0) {
            Some(top) => (bucket_lower_bound(top)..=bucket_upper_bound(top)).contains(&max),
            None => max == 0,
        };
        if !max_fits {
            return bad("latency-histogram max", max);
        }
        // Cannot overflow: the counts sum to a u64, so each bound is at
        // most u64::MAX squared.
        let (lo, hi) = counts
            .iter()
            .enumerate()
            .fold((0u128, 0u128), |(lo, hi), (b, &c)| {
                let c = c as u128;
                (
                    lo + c * bucket_lower_bound(b) as u128,
                    hi + c * bucket_upper_bound(b) as u128,
                )
            });
        if !(lo..=hi).contains(&sum) {
            return bad(
                "latency-histogram sum",
                u64::try_from(sum).unwrap_or(u64::MAX),
            );
        }
        Ok(LatencyHistogram {
            counts,
            total,
            sum,
            max: Nanos(max),
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

    /// A histogram image in the checkpoint layout: `pairs` as written,
    /// then `sum` and `max`.
    fn image(pairs: &[(u32, u64)], sum: u128, max: u64) -> Vec<u8> {
        let mut w = crate::checkpoint::StateWriter::new();
        w.put_usize(pairs.len());
        for &(b, c) in pairs {
            w.put_u32(b);
            w.put_u64(c);
        }
        w.put_u128(sum);
        w.put_u64(max);
        w.finish()
    }

    /// `h`'s non-empty buckets as (index, count) pairs.
    fn pairs(h: &LatencyHistogram) -> Vec<(u32, u64)> {
        let filled = h.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        filled.map(|(b, &c)| (b as u32, c)).collect()
    }

    fn restore(b: &[u8]) -> Result<LatencyHistogram, crate::checkpoint::CodecError> {
        LatencyHistogram::restore(&mut crate::checkpoint::StateReader::new(b))
    }

    fn bad(
        what: &'static str,
        value: u64,
    ) -> Result<LatencyHistogram, crate::checkpoint::CodecError> {
        Err(crate::checkpoint::CodecError::BadValue { what, value })
    }

    #[test]
    fn save_writes_only_the_non_empty_buckets() {
        let mut h = LatencyHistogram::new();
        for ns in [0, 70, 70, 5_000, u64::MAX] {
            h.record(Nanos(ns));
        }
        let mut w = crate::checkpoint::StateWriter::new();
        h.save(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes, image(&pairs(&h), h.sum, h.max.0));
        assert_eq!(bytes.len(), 8 + 4 * (4 + 8) + 16 + 8);
        assert_eq!(restore(&bytes), Ok(h));

        let empty = LatencyHistogram::new();
        let mut w = crate::checkpoint::StateWriter::new();
        empty.save(&mut w);
        assert_eq!(w.finish().len(), 8 + 16 + 8);
    }

    #[test]
    fn restore_rejects_a_bucket_list_the_histogram_cannot_hold() {
        let mut h = LatencyHistogram::new();
        for ns in [0, 70, 5_000] {
            h.record(Nanos(ns));
        }
        let p = pairs(&h);
        let (sum, max) = (h.sum, h.max.0);
        assert_eq!(restore(&image(&p, sum, max)), Ok(h));

        let last = BUCKETS as u32;
        assert_eq!(
            restore(&image(&[(last, 1)], 0, 0)),
            bad("latency-histogram bucket index", last as u64)
        );
        let repeated = [p[0], p[1], p[1]];
        assert_eq!(
            restore(&image(&repeated, sum, max)),
            bad("latency-histogram bucket order", p[1].0 as u64)
        );
        let swapped = [p[1], p[0], p[2]];
        assert_eq!(
            restore(&image(&swapped, sum, max)),
            bad("latency-histogram bucket order", p[0].0 as u64)
        );
        let zero = [p[0], (p[1].0, 0), p[2]];
        assert_eq!(
            restore(&image(&zero, sum, max)),
            bad("latency-histogram empty bucket", p[1].0 as u64)
        );
        let overflow = [(1, u64::MAX), (2, 1)];
        assert_eq!(
            restore(&image(&overflow, 0, 2)),
            bad("latency-histogram total", 1)
        );
    }

    #[test]
    fn restore_rejects_a_max_or_sum_off_the_bucket_bounds() {
        assert_eq!(restore(&image(&[], 0, 0)), Ok(LatencyHistogram::new()));
        assert_eq!(restore(&image(&[], 0, 7)), bad("latency-histogram max", 7));

        let samples = [3u64, 70, 5_000];
        let mut h = LatencyHistogram::new();
        for ns in samples {
            h.record(Nanos(ns));
        }
        let p = pairs(&h);
        // Any max inside the top bucket restores; one outside does not.
        let top = bucket_of(5_000);
        let (top_lo, top_hi) = (bucket_lower_bound(top), bucket_upper_bound(top));
        for max in [top_lo, top_hi] {
            assert!(restore(&image(&p, h.sum, max)).is_ok(), "max {max}");
        }
        for max in [0, 70, top_lo - 1, top_hi + 1, u64::MAX] {
            assert_eq!(
                restore(&image(&p, h.sum, max)),
                bad("latency-histogram max", max)
            );
        }

        // The sum lies between the samples' bucket lower and upper bounds.
        let sum_of = |bound: fn(usize) -> u64| -> u128 {
            samples.iter().map(|&ns| bound(bucket_of(ns)) as u128).sum()
        };
        let (lo, hi) = (sum_of(bucket_lower_bound), sum_of(bucket_upper_bound));
        for sum in [lo, hi] {
            assert!(restore(&image(&p, sum, 5_000)).is_ok(), "sum {sum}");
        }
        for sum in [0, lo - 1, hi + 1, u128::MAX] {
            let value = u64::try_from(sum).unwrap_or(u64::MAX);
            assert_eq!(
                restore(&image(&p, sum, 5_000)),
                bad("latency-histogram sum", value)
            );
        }
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for b in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper_bound(b) + 1, bucket_lower_bound(b + 1));
            assert_eq!(bucket_of(bucket_lower_bound(b)), b);
            assert_eq!(bucket_of(bucket_upper_bound(b)), b);
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
