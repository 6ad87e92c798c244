//! PEBS-style sampling (§2.1 Solution 3) — the Memtis-class baseline.
//!
//! The real Intel PEBS cannot sample LLC misses to CXL memory, which is
//! why the paper had to exclude Memtis from its evaluation (§4). The
//! simulator has no such limitation, so this daemon reproduces the
//! mechanism as an *extension*: sample one of every `sample_period` LLC
//! miss addresses into a buffer; when the buffer fills, take an interrupt
//! (billed kernel time) and fold the samples into per-page counters; on a
//! migration epoch, promote the hottest sampled slow-tier pages.
//!
//! The §2.1 trade-off is built in: a lower `sample_period` identifies hot
//! pages more precisely but interrupts the CPU more often — recent work
//! reports >15 % slowdown at 1/100 sampling (§4.2's closing note).
//!
//! The sampler taps the miss stream by attaching a [`PebsBuffer`] as a
//! [`CxlDevice`] at `on_start` — conceptually where PEBS sits — and each
//! daemon tick drains whatever the buffer accumulated. (Note the one
//! modelling liberty: a controller-side device sees CXL misses only,
//! whereas real PEBS samples on the CPU; since all baselines here manage
//! only the CXL tier, the streams coincide.)

use crate::daemon::HotPageLog;
use cxl_sim::addr::{CacheLineAddr, Pfn};
use cxl_sim::controller::{CxlDevice, DeviceHandle};
use cxl_sim::hotlog::HOT_LOG_CAP;
use cxl_sim::kernel::CostKind;
use cxl_sim::memory::NodeId;
use cxl_sim::system::{MigrationDaemon, System};
use cxl_sim::time::Nanos;
use std::collections::HashMap;

/// The sampling front-end attached to the controller: keeps every
/// `period`-th miss address in a bounded buffer, like the PEBS hardware.
#[derive(Clone, Debug)]
pub struct PebsBuffer {
    period: u64,
    capacity: usize,
    countdown: u64,
    samples: Vec<CacheLineAddr>,
    overflows: u64,
}

impl PebsBuffer {
    /// A buffer sampling one in `period` accesses, holding `capacity`
    /// records.
    pub fn new(period: u64, capacity: usize) -> PebsBuffer {
        PebsBuffer {
            period: period.max(1),
            capacity,
            countdown: period.max(1),
            samples: Vec::with_capacity(capacity),
            overflows: 0,
        }
    }

    /// Drains the buffered samples.
    pub fn drain(&mut self) -> Vec<CacheLineAddr> {
        std::mem::take(&mut self.samples)
    }

    /// Samples dropped because the buffer was full (the interrupt lagged).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl CxlDevice for PebsBuffer {
    fn name(&self) -> &str {
        "pebs-buffer"
    }

    fn on_access(&mut self, line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.period;
            if self.samples.len() < self.capacity {
                self.samples.push(line);
            } else {
                self.overflows += 1;
            }
        }
    }
}

/// PEBS buffer capacity; a full buffer costs an interrupt.
const BUFFER_CAPACITY: usize = 512;

/// Pages promoted per migration epoch.
const PROMOTE_BATCH: usize = 32;

/// Cold pages demoted per capacity miss.
const DEMOTE_BATCH: usize = 64;

/// Kernel time to process one interrupt's worth of samples.
const INTERRUPT_COST: Nanos = Nanos::from_micros(5);

/// PEBS daemon tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PebsConfig {
    /// Sample one of this many CXL misses (Memtis-style setups use
    /// hundreds to thousands).
    pub sample_period: u64,
    /// Time between daemon ticks (buffer processing + possible migration).
    pub tick_period: Nanos,
    /// Whether to migrate (false = record-only).
    pub migrate: bool,
    /// Migration rate limit as a fraction of elapsed time.
    pub migration_time_budget: f64,
}

impl Default for PebsConfig {
    fn default() -> PebsConfig {
        PebsConfig {
            sample_period: 128,
            tick_period: Nanos::from_millis(1),
            migrate: true,
            migration_time_budget: 0.25,
        }
    }
}

impl PebsConfig {
    /// The §4.1 record-only configuration.
    pub fn record_only() -> PebsConfig {
        PebsConfig {
            migrate: false,
            ..PebsConfig::default()
        }
    }
}

/// The sampling-based migration daemon.
#[derive(Debug)]
pub struct PebsSampler {
    config: PebsConfig,
    buffer: Option<DeviceHandle>,
    counts: HashMap<Pfn, u64>,
    log: HotPageLog,
    wake: Option<Nanos>,
    interrupts: u64,
    samples_processed: u64,
}

impl PebsSampler {
    /// Builds a PEBS-style daemon.
    pub fn new(config: PebsConfig) -> PebsSampler {
        PebsSampler {
            log: HotPageLog::new(HOT_LOG_CAP),
            buffer: None,
            counts: HashMap::new(),
            wake: None,
            interrupts: 0,
            samples_processed: 0,
            config,
        }
    }

    /// The identified hot pages.
    pub fn hot_log(&self) -> &HotPageLog {
        &self.log
    }

    /// Buffer-full interrupts taken.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }

    /// Samples folded into the per-page histogram.
    pub fn samples_processed(&self) -> u64 {
        self.samples_processed
    }
}

impl MigrationDaemon for PebsSampler {
    fn name(&self) -> &str {
        if self.config.migrate {
            "pebs"
        } else {
            "pebs-record"
        }
    }

    fn on_start(&mut self, sys: &mut System) {
        self.buffer =
            Some(sys.attach_device(PebsBuffer::new(self.config.sample_period, BUFFER_CAPACITY)));
        self.wake = Some(sys.now() + self.config.tick_period);
    }

    fn next_wake(&self) -> Option<Nanos> {
        self.wake
    }

    fn on_tick(&mut self, sys: &mut System) {
        let Some(handle) = self.buffer else { return };
        let samples = sys
            .device_mut::<PebsBuffer>(handle)
            .map(|b| b.drain())
            .unwrap_or_default();
        if !samples.is_empty() {
            // The interrupt + per-sample analysis is the CPU cost §2.1
            // describes; higher precision (lower period) = more of these.
            self.interrupts += 1;
            self.samples_processed += samples.len() as u64;
            sys.daemon_bill(CostKind::DaemonOther, INTERRUPT_COST);
            for line in samples {
                *self.counts.entry(line.pfn()).or_default() += 1;
            }
        }
        // Migration epoch: promote the hottest sampled slow-tier pages.
        let mut hot: Vec<(Pfn, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        hot.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
        let mut batch = Vec::with_capacity(PROMOTE_BATCH);
        for (pfn, _) in hot.into_iter().take(PROMOTE_BATCH * 2) {
            if let Some(vpn) = sys.page_table().vpn_of(pfn) {
                if sys
                    .page_table()
                    .get(vpn)
                    .is_some_and(|pte| pte.node() == NodeId::Cxl)
                {
                    self.log.record(vpn, pfn);
                    batch.push(vpn);
                    if batch.len() >= PROMOTE_BATCH {
                        break;
                    }
                }
            }
        }
        batch.truncate(sys.migration_allowance(self.config.migration_time_budget));
        if self.config.migrate && !batch.is_empty() {
            sys.promote_with_demotion(&batch, DEMOTE_BATCH);
        }
        // Sampled counts age out so the histogram tracks the current phase.
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.wake = Some(sys.now() + self.config.tick_period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::config::{Placement, SystemConfig};
    use cxl_sim::system::{run, Access, AccessStream};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    struct SkewedStream {
        base: cxl_sim::addr::VirtAddr,
        pages: u64,
        hot: u64,
        rng: SmallRng,
        remaining: u64,
    }

    impl AccessStream for SkewedStream {
        fn next_access(&mut self) -> Option<Access> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let page = if self.rng.gen::<f64>() < 0.9 {
                self.rng.gen_range(0..self.hot)
            } else {
                self.rng.gen_range(self.hot..self.pages)
            };
            Some(Access::read(
                self.base
                    .offset(page * 4096 + self.rng.gen_range(0u64..64) * 64),
            ))
        }
    }

    #[test]
    fn buffer_samples_one_in_period() {
        let mut buf = PebsBuffer::new(10, 100);
        for i in 0..100u64 {
            buf.on_access(CacheLineAddr(i), false, Nanos::ZERO);
        }
        assert_eq!(buf.len(), 10);
        let drained = buf.drain();
        assert_eq!(drained.len(), 10);
        assert!(buf.is_empty());
        assert_eq!(drained[0], CacheLineAddr(9), "every 10th access kept");
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let mut buf = PebsBuffer::new(1, 4);
        for i in 0..10u64 {
            buf.on_access(CacheLineAddr(i), false, Nanos::ZERO);
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.overflows(), 6);
    }

    #[test]
    fn sampler_promotes_hot_pages() {
        let mut sys = System::new(
            SystemConfig::small()
                .with_cxl_frames(512)
                .with_ddr_frames(256),
        );
        let region = sys.alloc_region(256, Placement::AllOnCxl).unwrap();
        let mut wl = SkewedStream {
            base: region.base,
            pages: 256,
            hot: 8,
            rng: SmallRng::seed_from_u64(4),
            remaining: 400_000,
        };
        let mut pebs = PebsSampler::new(PebsConfig {
            sample_period: 16,
            tick_period: Nanos::from_micros(200),
            ..PebsConfig::default()
        });
        let report = run(&mut sys, &mut wl, &mut pebs, u64::MAX);
        assert!(report.migrations.promotions > 0);
        assert!(pebs.interrupts() > 0);
        assert!(pebs.samples_processed() > 100);
        let hot_on_ddr = (0..8)
            .filter(|&p| sys.page_table().get(cxl_sim::addr::Vpn(p)).unwrap().node() == NodeId::Ddr)
            .count();
        assert!(hot_on_ddr >= 6, "only {hot_on_ddr}/8 promoted");
    }

    #[test]
    fn sparser_sampling_is_less_precise_but_cheaper() {
        let run_with_period = |period: u64| {
            let mut sys = System::new(
                SystemConfig::small()
                    .with_cxl_frames(512)
                    .with_ddr_frames(256),
            );
            let region = sys.alloc_region(256, Placement::AllOnCxl).unwrap();
            let mut wl = SkewedStream {
                base: region.base,
                pages: 256,
                hot: 8,
                rng: SmallRng::seed_from_u64(4),
                remaining: 200_000,
            };
            let mut pebs = PebsSampler::new(PebsConfig {
                sample_period: period,
                tick_period: Nanos::from_micros(200),
                migrate: false,
                ..PebsConfig::default()
            });
            let report = run(&mut sys, &mut wl, &mut pebs, u64::MAX);
            (
                pebs.samples_processed(),
                report.kernel.of(CostKind::DaemonOther),
            )
        };
        let (dense_samples, dense_cost) = run_with_period(8);
        let (sparse_samples, sparse_cost) = run_with_period(512);
        assert!(dense_samples > sparse_samples * 8);
        assert!(dense_cost > sparse_cost, "denser sampling costs more CPU");
    }

    #[test]
    fn record_only_never_migrates() {
        let mut sys = System::new(
            SystemConfig::small()
                .with_cxl_frames(512)
                .with_ddr_frames(256),
        );
        let region = sys.alloc_region(128, Placement::AllOnCxl).unwrap();
        let mut wl = SkewedStream {
            base: region.base,
            pages: 128,
            hot: 8,
            rng: SmallRng::seed_from_u64(4),
            remaining: 100_000,
        };
        let mut pebs = PebsSampler::new(PebsConfig::record_only());
        let report = run(&mut sys, &mut wl, &mut pebs, u64::MAX);
        assert_eq!(report.migrations.promotions, 0);
        assert_eq!(pebs.name(), "pebs-record");
        assert!(!pebs.hot_log().is_empty());
    }
}
