//! ANB — Automatic NUMA Balancing (§2.1 Solution 1).
//!
//! The kernel's balancer periodically *unmaps* a batch of pages resident on
//! the slow node (clears their present bits and invalidates their TLB
//! entries). The next touch takes a NUMA hinting fault; the fault handler
//! treats the page as hot on the faulting node and promotes it. Costs:
//! PTE writes and (batched) TLB shootdowns at scan time, plus a soft fault
//! per identified page — the overheads the paper measures in §4.2.
//!
//! The scan period adapts like the kernel's `numa_scan_period`: it backs
//! off when faults stop producing migrations and speeds back up when they
//! do — which is why ANB incurs little overhead once migration reaches an
//! equilibrium (§7.2's Redis observation).
//!
//! The *warm-page problem* the paper demonstrates (Observation 1) emerges
//! naturally from this protocol: a single touch of a sampled page is enough
//! to mark it hot, so rarely-accessed pages that happen to be touched once
//! during the scan window get promoted alongside truly hot ones.

use crate::daemon::{AdaptivePeriod, HotPageLog};
use cxl_sim::addr::Vpn;
use cxl_sim::hotlog::HOT_LOG_CAP;
use cxl_sim::kernel::CostKind;
use cxl_sim::memory::NodeId;
use cxl_sim::system::{MigrationDaemon, System};
use cxl_sim::time::Nanos;

/// Pages unmapped per scan (`numa_scan_size`-equivalent).
const SCAN_PAGES: usize = 128;

/// Unmapped pages per batched TLB shootdown IPI.
const SHOOTDOWN_BATCH: usize = 32;

/// Cold pages demoted per capacity miss.
const DEMOTE_BATCH: usize = 64;

/// Seed for the scan cursor's starting position. The kernel's scanner
/// resumes wherever a task's previous scan stopped, which over many tasks
/// is effectively a random phase — starting at VPN 0 would bias the first
/// identifications toward whatever a workload happens to place at the
/// bottom of its address space.
const CURSOR_SEED: u64 = 0x1537;

/// ANB tuning knobs (defaults scaled to the simulator's time/footprint
/// scale; the kernel's equivalents are noted).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnbConfig {
    /// Fastest scan cadence (`numa_scan_period_min`).
    pub scan_period_min: Nanos,
    /// Slowest scan cadence after back-off (`numa_scan_period_max`).
    pub scan_period_max: Nanos,
    /// Whether faults trigger migration (false = §4.1 record-only mode).
    pub migrate: bool,
    /// Migration rate limit as a fraction of elapsed time (the kernel's
    /// NUMA migration ratelimit): faults over budget still *identify*
    /// pages but do not move them.
    pub migration_time_budget: f64,
}

impl Default for AnbConfig {
    fn default() -> AnbConfig {
        AnbConfig {
            scan_period_min: Nanos::from_millis(4),
            scan_period_max: Nanos::from_millis(64),
            migrate: true,
            migration_time_budget: 0.25,
        }
    }
}

impl AnbConfig {
    /// The §4.1 configuration: identify hot pages but never migrate.
    pub fn record_only() -> AnbConfig {
        AnbConfig {
            migrate: false,
            ..AnbConfig::default()
        }
    }
}

/// The ANB daemon.
#[derive(Clone, Debug)]
pub struct Anb {
    config: AnbConfig,
    period: AdaptivePeriod,
    wake: Option<Nanos>,
    cursor: u64,
    log: HotPageLog,
    promotions_since_scan: u64,
    faults_since_scan: u64,
    faults_taken: u64,
    pages_unmapped: u64,
}

impl Anb {
    /// Builds an ANB daemon.
    pub fn new(config: AnbConfig) -> Anb {
        Anb {
            period: AdaptivePeriod::new(config.scan_period_min, config.scan_period_max),
            wake: None,
            cursor: 0,
            log: HotPageLog::new(HOT_LOG_CAP),
            promotions_since_scan: 0,
            faults_since_scan: 0,
            faults_taken: 0,
            pages_unmapped: 0,
            config,
        }
    }

    /// The hot pages identified so far (§4.1 S1 list).
    pub fn hot_log(&self) -> &HotPageLog {
        &self.log
    }

    /// NUMA hinting faults handled so far.
    pub fn faults_taken(&self) -> u64 {
        self.faults_taken
    }

    /// Pages unmapped by the scanner so far.
    pub fn pages_unmapped(&self) -> u64 {
        self.pages_unmapped
    }

    /// The current (adaptive) scan period.
    pub fn scan_period(&self) -> Nanos {
        self.period.current()
    }

    /// Unmaps up to [`SCAN_PAGES`] CXL-resident pages, round-robin over the
    /// virtual address space.
    fn scan(&mut self, sys: &mut System) {
        let extent = sys.page_table().extent();
        if extent == 0 {
            return;
        }
        let costs = sys.config().costs;
        let mut unmapped = 0usize;
        let mut walked = 0u64;
        while unmapped < SCAN_PAGES && walked < extent {
            let vpn = Vpn(self.cursor % extent);
            self.cursor = (self.cursor + 1) % extent;
            walked += 1;
            let on_cxl = sys
                .page_table()
                .get(vpn)
                .is_some_and(|pte| pte.node() == NodeId::Cxl && pte.flags.present());
            if on_cxl {
                sys.page_table_mut().clear_present(vpn);
                sys.tlb_mut().invalidate(vpn);
                sys.daemon_bill(CostKind::PteScan, costs.pte_scan_per_entry);
                unmapped += 1;
                self.pages_unmapped += 1;
                if unmapped.is_multiple_of(SHOOTDOWN_BATCH) {
                    sys.daemon_bill(CostKind::TlbShootdown, costs.tlb_shootdown);
                }
            }
        }
        if unmapped > 0 && !unmapped.is_multiple_of(SHOOTDOWN_BATCH) {
            sys.daemon_bill(CostKind::TlbShootdown, costs.tlb_shootdown);
        }
    }
}

impl MigrationDaemon for Anb {
    fn name(&self) -> &str {
        if self.config.migrate {
            "anb"
        } else {
            "anb-record"
        }
    }

    fn on_start(&mut self, sys: &mut System) {
        let extent = sys.page_table().extent();
        if extent > 0 {
            self.cursor = CURSOR_SEED % extent;
        }
        self.wake = Some(sys.now() + self.period.current());
    }

    fn next_wake(&self) -> Option<Nanos> {
        self.wake
    }

    fn on_tick(&mut self, sys: &mut System) {
        // Adapt like `numa_scan_period`: keep scanning fast while faults
        // are productive (they identify pages, and — in migrate mode —
        // those pages actually move); back off toward the maximum period
        // at equilibrium. This is why ANB "rarely unmaps pages" once
        // migration settles (§7.2's Redis observation).
        let productive = if self.config.migrate {
            self.promotions_since_scan > (SCAN_PAGES as u64) / 8
        } else {
            self.faults_since_scan > (SCAN_PAGES as u64) / 8
        };
        if productive {
            self.period.productive();
        } else {
            self.period.unproductive();
        }
        self.promotions_since_scan = 0;
        self.faults_since_scan = 0;

        // kswapd watermark trickle: NUMA balancing itself never demotes —
        // reclaim frees a small batch of cold DDR frames when the node
        // runs dry, rate-limited by the scan cadence.
        if self.config.migrate && sys.free_frames(NodeId::Ddr) < DEMOTE_BATCH as u64 {
            sys.mglru_age();
            sys.demote_coldest(DEMOTE_BATCH);
        }
        self.scan(sys);
        self.wake = Some(sys.now() + self.period.current());
    }

    fn on_fault(&mut self, vpn: Vpn, sys: &mut System) {
        self.faults_taken += 1;
        self.faults_since_scan += 1;
        if let Some(pte) = sys.page_table().get(vpn) {
            if pte.node() == NodeId::Cxl {
                self.log.record(vpn, pte.pfn);
                if self.config.migrate
                    && sys.migration_allowance(self.config.migration_time_budget) > 0
                {
                    // `migrate_misplaced_page()`: promotion succeeds only if
                    // the fast tier has a free frame right now.
                    if sys.migrate_page(vpn, NodeId::Ddr).is_ok() {
                        self.promotions_since_scan += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::config::{Placement, SystemConfig};
    use cxl_sim::system::{run, Access, AccessStream};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A workload hammering the first `hot` pages of its region and rarely
    /// touching the rest.
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
            let page = if self.rng.gen::<f64>() < 0.9 {
                self.rng.gen_range(0..self.hot)
            } else {
                self.rng.gen_range(self.hot..self.region.pages)
            };
            let off = self.rng.gen_range(0u64..64) * 64;
            Some(Access::read(self.region.base.offset(page * 4096 + off)))
        }
    }

    fn skewed_setup(migrate: bool) -> (System, SkewedStream, Anb) {
        let mut sys = System::new(SystemConfig::small());
        let region = sys.alloc_region(64, Placement::AllOnCxl).unwrap();
        let wl = SkewedStream {
            region,
            hot: 8,
            rng: SmallRng::seed_from_u64(1),
            remaining: 200_000,
        };
        let mut cfg = if migrate {
            AnbConfig::default()
        } else {
            AnbConfig::record_only()
        };
        cfg.scan_period_min = Nanos::from_micros(100);
        cfg.scan_period_max = Nanos::from_millis(4);
        (sys, wl, Anb::new(cfg))
    }

    #[test]
    fn anb_identifies_and_promotes_hot_pages() {
        let (mut sys, mut wl, mut anb) = skewed_setup(true);
        let report = run(&mut sys, &mut wl, &mut anb, u64::MAX);
        assert!(report.hinting_faults > 0, "scanner must cause faults");
        assert!(report.migrations.promotions > 0, "faults must promote");
        assert!(!anb.hot_log().is_empty());
        // The hammered pages end up on DDR.
        let on_ddr = (0..8)
            .filter(|&p| sys.page_table().get(Vpn(p)).unwrap().node() == NodeId::Ddr)
            .count();
        assert!(on_ddr >= 6, "only {on_ddr}/8 hot pages promoted");
    }

    #[test]
    fn record_only_mode_never_migrates() {
        let (mut sys, mut wl, mut anb) = skewed_setup(false);
        let report = run(&mut sys, &mut wl, &mut anb, u64::MAX);
        assert_eq!(report.migrations.promotions, 0);
        assert_eq!(report.migrations.demotions, 0);
        assert!(!anb.hot_log().is_empty(), "still identifies pages");
        assert!(report.hinting_faults > 0);
        assert_eq!(anb.name(), "anb-record");
    }

    #[test]
    fn scan_period_backs_off_at_equilibrium() {
        let (mut sys, mut wl, mut anb) = skewed_setup(true);
        let _ = run(&mut sys, &mut wl, &mut anb, u64::MAX);
        // After the hot set is promoted, scans stop producing migrations and
        // the period must have backed off beyond the minimum.
        assert!(
            anb.scan_period() > Nanos::from_micros(100),
            "period stayed at min: {}",
            anb.scan_period()
        );
    }

    #[test]
    fn scanner_bills_kernel_time() {
        let (mut sys, mut wl, mut anb) = skewed_setup(true);
        let report = run(&mut sys, &mut wl, &mut anb, u64::MAX);
        assert!(report.kernel.of(CostKind::TlbShootdown) > Nanos::ZERO);
        assert!(report.kernel.of(CostKind::HintingFault) > Nanos::ZERO);
        assert!(anb.pages_unmapped() > 0);
        assert!(anb.faults_taken() > 0);
    }
}
