//! DAMON — region-based PTE-scanning monitoring (§2.1 Solution 2), with a
//! DAMOS `migrate_hot`-style promotion scheme.
//!
//! DAMON divides the monitored address space into regions, assumes pages
//! within a region share access behaviour, and each *sampling interval*
//! checks (and clears) the PTE accessed bit of one random page per region.
//! Every *aggregation interval* it acts on the counts — here, promoting the
//! slow-tier pages of the hottest regions — and adapts the region layout by
//! merging similar neighbours and splitting regions while below the region
//! cap.
//!
//! Fidelity notes that matter for the paper's observations:
//!
//! * The accessed bit is only set by a hardware walk on a TLB miss, so
//!   TLB-resident hot pages go *unseen* — one source of warm-page
//!   misidentification (Observation 1).
//! * A region's count is Boolean per sample regardless of how many accesses
//!   hit it, so access magnitude is invisible (§2.1).
//! * DAMON keeps scanning and acting at equilibrium; with a uniform
//!   workload (Redis) the scheme keeps migrating interchangeable pages,
//!   which costs more than it earns (Figure 9's Redis regression).

use crate::daemon::HotPageLog;
use cxl_sim::addr::Vpn;
use cxl_sim::hotlog::HOT_LOG_CAP;
use cxl_sim::kernel::{CostKind, PTE_SAMPLE_WALK, PTE_SCAN_PER_ENTRY};
use cxl_sim::memory::NodeId;
use cxl_sim::system::{MigrationDaemon, System};
use cxl_sim::time::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples per aggregation (`aggr_interval / sample_interval`, 20).
const AGGR_SAMPLES: u32 = 20;

/// Adjacent regions merge when counts differ by at most this.
const MERGE_THRESHOLD: u32 = 1;

/// A region is hot when `nr_accesses ≥ HOT_FRACTION × AGGR_SAMPLES`.
const HOT_FRACTION: f64 = 0.4;

/// Cold pages demoted per capacity miss.
const DEMOTE_BATCH: usize = 64;

/// RNG seed for sampling and split points.
const SEED: u64 = 0xda40;

/// DAMON tuning knobs (kernel equivalents noted).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DamonConfig {
    /// Sampling interval (`sample_interval`, kernel default 5 ms).
    pub sample_interval: Nanos,
    /// Lower bound on regions (`min_nr_regions`).
    pub min_regions: usize,
    /// Upper bound on regions (`max_nr_regions`).
    pub max_regions: usize,
    /// Max pages promoted per aggregation (DAMOS quota).
    pub quota_pages: usize,
    /// Whether to migrate (false = §4.1 record-only mode).
    pub migrate: bool,
    /// DAMOS time quota: skip applying the scheme while cumulative
    /// migration time exceeds this fraction of elapsed time (the kernel's
    /// `quotas.ms` throttle). This is what bounds DAMON's equilibrium
    /// churn on uniform workloads — without it Redis would collapse
    /// instead of losing the paper's ~16 %.
    pub migration_time_budget: f64,
}

impl Default for DamonConfig {
    fn default() -> DamonConfig {
        DamonConfig {
            sample_interval: Nanos::from_micros(250),
            min_regions: 10,
            max_regions: 100,
            quota_pages: 128,
            migrate: true,
            migration_time_budget: 0.25,
        }
    }
}

impl DamonConfig {
    /// The §4.1 configuration: identify hot pages but never migrate.
    pub fn record_only() -> DamonConfig {
        DamonConfig {
            migrate: false,
            ..DamonConfig::default()
        }
    }
}

/// One monitored region: `[start, end)` in VPNs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DamonRegion {
    /// First VPN of the region.
    pub start: u64,
    /// One past the last VPN.
    pub end: u64,
    /// Samples in the current aggregation window that found the accessed
    /// bit set.
    pub nr_accesses: u32,
    /// Aggregations this region has survived unmerged/unsplit.
    pub age: u32,
}

impl DamonRegion {
    fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// The DAMON daemon.
#[derive(Clone, Debug)]
pub struct Damon {
    config: DamonConfig,
    regions: Vec<DamonRegion>,
    wake: Option<Nanos>,
    samples_done: u32,
    rng: SmallRng,
    log: HotPageLog,
    ptes_sampled: u64,
    aggregations: u64,
}

impl Damon {
    /// Builds a DAMON daemon.
    pub fn new(config: DamonConfig) -> Damon {
        Damon {
            regions: Vec::new(),
            wake: None,
            samples_done: 0,
            rng: SmallRng::seed_from_u64(SEED),
            log: HotPageLog::new(HOT_LOG_CAP),
            ptes_sampled: 0,
            aggregations: 0,
            config,
        }
    }

    /// The hot pages identified so far.
    pub fn hot_log(&self) -> &HotPageLog {
        &self.log
    }

    /// The current region layout.
    pub fn regions(&self) -> &[DamonRegion] {
        &self.regions
    }

    /// PTEs sampled so far.
    pub fn ptes_sampled(&self) -> u64 {
        self.ptes_sampled
    }

    /// Aggregation intervals completed.
    pub fn aggregations(&self) -> u64 {
        self.aggregations
    }

    fn init_regions(&mut self, extent: u64) {
        self.regions.clear();
        if extent == 0 {
            return;
        }
        let n = (self.config.min_regions as u64).min(extent).max(1);
        let chunk = extent / n;
        for i in 0..n {
            let start = i * chunk;
            let end = if i == n - 1 { extent } else { (i + 1) * chunk };
            self.regions.push(DamonRegion {
                start,
                end,
                nr_accesses: 0,
                age: 0,
            });
        }
    }

    /// One sampling pass: one random PTE per region. Clearing the young
    /// bit also invalidates the sampled page's TLB entry (the kernel's
    /// `ptep_clear_flush_young` path) — without the flush, a TLB-resident
    /// hot page would never re-set its bit and the sampler would score
    /// hot regions *below* cold ones.
    fn sample(&mut self, sys: &mut System) {
        for r in &mut self.regions {
            let vpn = Vpn(self.rng.gen_range(r.start..r.end));
            self.ptes_sampled += 1;
            if sys.page_table_mut().test_and_clear_accessed(vpn) {
                r.nr_accesses = (r.nr_accesses + 1).min(AGGR_SAMPLES);
                sys.tlb_mut().invalidate(vpn);
            }
        }
        sys.daemon_bill(
            CostKind::PteScan,
            PTE_SAMPLE_WALK * self.regions.len() as u64,
        );
    }

    /// The DAMOS action: promote slow-tier pages of hot regions.
    fn apply_scheme(&mut self, sys: &mut System) {
        let hot_min = (HOT_FRACTION * AGGR_SAMPLES as f64).ceil() as u32;
        let mut order: Vec<usize> = (0..self.regions.len()).collect();
        order.sort_by(|&a, &b| {
            self.regions[b]
                .nr_accesses
                .cmp(&self.regions[a].nr_accesses)
        });

        let mut batch: Vec<Vpn> = Vec::with_capacity(self.config.quota_pages);
        let mut walked = 0u64;
        'outer: for &i in &order {
            let r = self.regions[i];
            if r.nr_accesses < hot_min {
                break;
            }
            for vpn in (r.start..r.end).map(Vpn) {
                walked += 1;
                let Some(pte) = sys.page_table().get(vpn) else {
                    continue;
                };
                if pte.node() == NodeId::Cxl {
                    self.log.record(vpn, pte.pfn);
                    batch.push(vpn);
                    if batch.len() >= self.config.quota_pages {
                        break 'outer;
                    }
                }
            }
        }
        // The scheme walks region PTEs to find movable pages.
        sys.daemon_bill(CostKind::PteScan, PTE_SCAN_PER_ENTRY * walked);
        let allowed = sys.migration_allowance(self.config.migration_time_budget);
        batch.truncate(allowed);
        if self.config.migrate && !batch.is_empty() {
            if sys.free_frames(NodeId::Ddr) < batch.len() as u64 {
                sys.mglru_age();
            }
            sys.promote_with_demotion(&batch, DEMOTE_BATCH);
        }
    }

    /// Merge similar neighbours, then split while under the region cap.
    fn adapt_regions(&mut self) {
        // Merge pass.
        let mut merged: Vec<DamonRegion> = Vec::with_capacity(self.regions.len());
        for r in self.regions.drain(..) {
            match merged.last_mut() {
                Some(last)
                    if last.end == r.start
                        && last.nr_accesses.abs_diff(r.nr_accesses) <= MERGE_THRESHOLD =>
                {
                    last.end = r.end;
                    last.nr_accesses = last.nr_accesses.max(r.nr_accesses);
                    last.age = last.age.min(r.age);
                }
                _ => merged.push(r),
            }
        }
        self.regions = merged;
        // Split pass: while below half the cap, split every splittable
        // region at a random interior point (the kernel splits into 2–3
        // subregions under the same condition).
        if self.regions.len() < self.config.max_regions / 2 {
            let mut split: Vec<DamonRegion> = Vec::with_capacity(self.regions.len() * 2);
            for r in self.regions.drain(..) {
                if r.len() >= 2 && split.len() + 2 <= self.config.max_regions {
                    // Split at a random interior point: mid ∈ [start+1, end-1].
                    let mid = r.start + 1 + self.rng.gen_range(0..r.len() - 1);
                    split.push(DamonRegion {
                        start: r.start,
                        end: mid,
                        nr_accesses: r.nr_accesses,
                        age: r.age + 1,
                    });
                    split.push(DamonRegion {
                        start: mid,
                        end: r.end,
                        nr_accesses: r.nr_accesses,
                        age: r.age + 1,
                    });
                } else {
                    split.push(r);
                }
            }
            self.regions = split;
        }
        for r in &mut self.regions {
            r.nr_accesses = 0;
        }
    }
}

impl MigrationDaemon for Damon {
    fn name(&self) -> &str {
        if self.config.migrate {
            "damon"
        } else {
            "damon-record"
        }
    }

    fn on_start(&mut self, sys: &mut System) {
        self.init_regions(sys.page_table().extent());
        self.wake = Some(sys.now() + self.config.sample_interval);
    }

    fn next_wake(&self) -> Option<Nanos> {
        self.wake
    }

    fn on_tick(&mut self, sys: &mut System) {
        if self.regions.is_empty() {
            self.init_regions(sys.page_table().extent());
        }
        self.sample(sys);
        self.samples_done += 1;
        if self.samples_done >= AGGR_SAMPLES {
            self.samples_done = 0;
            self.aggregations += 1;
            self.apply_scheme(sys);
            self.adapt_regions();
        }
        self.wake = Some(sys.now() + self.config.sample_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::config::{Placement, SystemConfig};
    use cxl_sim::system::{run, Access, AccessStream};

    struct SkewedStream {
        region: cxl_sim::system::Region,
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
            let page = if self.rng.gen::<f64>() < 0.98 {
                self.rng.gen_range(0..self.hot)
            } else {
                self.rng.gen_range(self.hot..self.region.pages)
            };
            let off = self.rng.gen_range(0u64..64) * 64;
            Some(Access::read(self.region.base.offset(page * 4096 + off)))
        }
    }

    fn setup(migrate: bool) -> (System, SkewedStream, Damon) {
        // The footprint must exceed the TLB reach, or hot pages never take a
        // TLB miss and their accessed bits are never set — DAMON would be
        // structurally blind (the paper's warm-page pathology taken to the
        // extreme).
        let mut sys = System::new(
            SystemConfig::small()
                .with_cxl_frames(1024)
                .with_ddr_frames(512),
        );
        let region = sys.alloc_region(1024, Placement::AllOnCxl).unwrap();
        let wl = SkewedStream {
            region,
            hot: 16,
            rng: SmallRng::seed_from_u64(2),
            remaining: 700_000,
        };
        let mut cfg = if migrate {
            DamonConfig::default()
        } else {
            DamonConfig::record_only()
        };
        cfg.sample_interval = Nanos::from_micros(50);
        cfg.min_regions = 8;
        cfg.max_regions = 128;
        cfg.quota_pages = 16;
        (sys, wl, Damon::new(cfg))
    }

    #[test]
    fn damon_promotes_hot_region_pages() {
        let (mut sys, mut wl, mut damon) = setup(true);
        let report = run(&mut sys, &mut wl, &mut damon, u64::MAX);
        assert!(report.migrations.promotions > 0);
        assert!(damon.aggregations() > 0);
        assert!(!damon.hot_log().is_empty());
        let hot_on_ddr = (0..16)
            .filter(|&p| sys.page_table().get(Vpn(p)).unwrap().node() == NodeId::Ddr)
            .count();
        assert!(hot_on_ddr >= 8, "only {hot_on_ddr}/16 hot pages promoted");
    }

    #[test]
    fn record_only_identifies_without_migrating() {
        let (mut sys, mut wl, mut damon) = setup(false);
        let report = run(&mut sys, &mut wl, &mut damon, u64::MAX);
        assert_eq!(report.migrations.promotions, 0);
        assert!(!damon.hot_log().is_empty());
        assert_eq!(damon.name(), "damon-record");
    }

    #[test]
    fn sampling_bills_pte_scans_continuously() {
        let (mut sys, mut wl, mut damon) = setup(true);
        let report = run(&mut sys, &mut wl, &mut damon, u64::MAX);
        assert!(report.kernel.of(CostKind::PteScan) > Nanos::ZERO);
        assert!(damon.ptes_sampled() > 100);
        // Unlike ANB, DAMON takes no hinting faults.
        assert_eq!(report.hinting_faults, 0);
        assert_eq!(report.kernel.of(CostKind::HintingFault), Nanos::ZERO);
    }

    #[test]
    fn regions_stay_within_bounds_and_cover_the_space() {
        let (mut sys, mut wl, mut damon) = setup(true);
        let _ = run(&mut sys, &mut wl, &mut damon, u64::MAX);
        let regions = damon.regions();
        assert!(!regions.is_empty());
        assert!(regions.len() <= 128);
        // Contiguous cover of [0, extent).
        assert_eq!(regions[0].start, 0);
        for w in regions.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap between regions");
        }
        assert_eq!(regions.last().unwrap().end, sys.page_table().extent());
    }

    #[test]
    fn time_quota_caps_migration() {
        let (mut sys, mut wl, _) = setup(true);
        let cfg = DamonConfig {
            sample_interval: Nanos::from_micros(50),
            migration_time_budget: 0.05,
            ..Default::default()
        };
        let mut damon = Damon::new(cfg);
        let report = run(&mut sys, &mut wl, &mut damon, u64::MAX);
        let spent = report.kernel.of(CostKind::Migration).0 as f64;
        let elapsed = report.total_time.0 as f64;
        assert!(
            spent <= 0.05 * elapsed * 2.0,
            "migration {spent}ns exceeds 5% quota of {elapsed}ns"
        );
    }

    #[test]
    fn init_handles_empty_address_space() {
        let mut sys = System::new(SystemConfig::small());
        let mut damon = Damon::new(DamonConfig::default());
        damon.on_start(&mut sys);
        assert!(damon.regions().is_empty());
    }
}
