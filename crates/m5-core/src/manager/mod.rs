//! The M5-manager (§5.2): Monitor, Nominator, Elector, Promoter, composed
//! into a [`MigrationDaemon`] for the simulator's run loop.
//!
//! Everything except the Promoter's final `migrate_pages()` call runs in
//! user space in the paper's implementation; for the simulator the
//! distinction shows up only in the cost model (manager work is billed as
//! [`CostKind::ManagerQuery`], and is tiny compared to what ANB and DAMON
//! burn — that is Observation 3 turned into a design).

pub mod elector;
pub mod hugepage;
pub mod monitor;
pub mod nominator;
pub mod promoter;

use crate::tracker::{self, HotTracker, TrackerConfig};
use cxl_sim::addr::{CacheLineAddr, Granularity, Pfn, Vpn};
use cxl_sim::checkpoint::{CodecError, StateReader, StateWriter};
use cxl_sim::controller::DeviceHandle;
use cxl_sim::hotlog::{HotPageLog, HOT_LOG_CAP};
use cxl_sim::kernel::{CostKind, PTE_SCAN_PER_ENTRY, TRACKER_QUERY};
use cxl_sim::memory::{NodeId, CXL_BASE_PFN};
use cxl_sim::system::{MigrationDaemon, System};
use cxl_sim::time::Nanos;
use elector::{Elector, ElectorConfig, CONGESTION_KNEE};
use nominator::{Nominator, NominatorMode};
use promoter::{Promoter, PromoterStats};
use std::fmt;

/// Consecutive garbage query results a tracker may return before the
/// manager declares it failed and falls back to software identification.
const TRACKER_STRIKE_LIMIT: u8 = 2;

/// Appended to the daemon name once tracker failure forces software-only
/// identification.
const FALLBACK_SUFFIX: &str = "+sw-fallback";

/// A rejected [`M5Config`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// The nominator mode needs an HPT but `hpt` is `None`.
    MissingHpt(NominatorMode),
    /// The nominator mode needs an HWT but `hwt` is `None`.
    MissingHwt(NominatorMode),
    /// `promote_batch` is zero: the manager would never nominate anything.
    ZeroPromoteBatch,
    /// `migration_time_budget` is not a finite fraction in `(0, 1]`.
    BadMigrationBudget(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingHpt(mode) => {
                write!(f, "nominator mode {mode:?} requires an HPT")
            }
            ConfigError::MissingHwt(mode) => {
                write!(f, "nominator mode {mode:?} requires an HWT")
            }
            ConfigError::ZeroPromoteBatch => write!(f, "promote_batch must be nonzero"),
            ConfigError::BadMigrationBudget(b) => {
                write!(
                    f,
                    "migration_time_budget {b} must be a finite fraction in (0, 1]"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One epoch's sanitized tracker output: hot pages from the HPT and hot
/// words from the HWT (either may be empty).
type TrackerOutput = (Vec<(Pfn, u64)>, Vec<(CacheLineAddr, u64)>);

/// Full M5 configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct M5Config {
    /// HPT device configuration (`None` omits the device; required unless
    /// the nominator is HWT-driven).
    pub hpt: Option<TrackerConfig>,
    /// HWT device configuration (`None` omits the device; required for the
    /// HPT-driven and HWT-driven nominators).
    pub hwt: Option<TrackerConfig>,
    /// Nominator mechanism.
    pub mode: NominatorMode,
    /// Elector policy.
    pub elector: ElectorConfig,
    /// Pages nominated (and promoted) per migration epoch.
    pub promote_batch: usize,
    /// §4.1 record-only mode: identify but never migrate.
    pub record_only: bool,
    /// Migration time quota: skip promotion while cumulative migration
    /// time exceeds this fraction of elapsed time. At the simulator's
    /// compressed time scale, unthrottled `migrate_pages()` (~54 µs/page)
    /// would otherwise dominate short runs; real deployments amortise it
    /// over hours. Matches the DAMON baseline's quota for fairness.
    pub migration_time_budget: f64,
}

impl Default for M5Config {
    fn default() -> M5Config {
        M5Config {
            hpt: Some(TrackerConfig::hpt()),
            hwt: None,
            mode: NominatorMode::HptOnly,
            elector: ElectorConfig::default(),
            promote_batch: 32,
            record_only: false,
            migration_time_budget: 0.25,
        }
    }
}

impl M5Config {
    /// Checks internal consistency, returning the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mode.needs_hpt() && self.hpt.is_none() {
            return Err(ConfigError::MissingHpt(self.mode));
        }
        if self.mode.needs_hwt() && self.hwt.is_none() {
            return Err(ConfigError::MissingHwt(self.mode));
        }
        if self.promote_batch == 0 {
            return Err(ConfigError::ZeroPromoteBatch);
        }
        if !self.migration_time_budget.is_finite()
            || self.migration_time_budget <= 0.0
            || self.migration_time_budget > 1.0
        {
            return Err(ConfigError::BadMigrationBudget(self.migration_time_budget));
        }
        Ok(())
    }

    /// The configuration of the tracker keyed at `granularity`.
    fn tracker(&self, granularity: Granularity) -> Option<TrackerConfig> {
        match granularity {
            Granularity::Page => self.hpt,
            Granularity::Word => self.hwt,
        }
    }
}

/// One tracker the manager may drive: its granularity, the attached device
/// (`None` when the config omits it, or before `on_start`), and the
/// consecutive garbage batches it has returned.
#[derive(Clone, Copy, Debug)]
struct TrackerSlot {
    granularity: Granularity,
    handle: Option<DeviceHandle>,
    strikes: u8,
}

impl TrackerSlot {
    fn new(granularity: Granularity) -> TrackerSlot {
        TrackerSlot {
            granularity,
            handle: None,
            strikes: 0,
        }
    }

    /// Writes whether a device is attached, then its state.
    fn save(&self, sys: &System, w: &mut StateWriter) {
        match self.handle.and_then(|h| sys.device::<HotTracker>(h)) {
            Some(d) => {
                w.put_bool(true);
                d.save(w);
            }
            None => w.put_bool(false),
        }
    }

    /// The mirror of [`TrackerSlot::save`]: attaches a device built from
    /// `config` and loads the saved state into it, if any was saved. A
    /// slot without a config has no device, so it can hold no strikes.
    fn restore(
        &mut self,
        config: Option<TrackerConfig>,
        sys: &mut System,
        r: &mut StateReader<'_>,
    ) -> Result<(), CodecError> {
        let saved = r.get_bool()?;
        let Some(config) = config else {
            return if saved || self.strikes > 0 {
                Err(CodecError::BadValue {
                    what: "tracker state without a tracker config",
                    value: self.granularity as u64,
                })
            } else {
                Ok(())
            };
        };
        let mut device = HotTracker::new(config, self.granularity);
        if saved {
            device.load(r)?;
        }
        self.handle = Some(sys.attach_device(device));
        Ok(())
    }
}

/// The composed M5-manager daemon.
#[derive(Debug)]
pub struct M5Manager {
    config: M5Config,
    nominator: Nominator,
    elector: Elector,
    promoter: Promoter,
    /// The HPT, then the HWT.
    trackers: [TrackerSlot; 2],
    wake: Option<Nanos>,
    log: HotPageLog,
    epochs: u64,
    migrate_epochs: u64,
    ras_drain_epochs: u64,
    /// Set by the config's mode, plus [`FALLBACK_SUFFIX`] once in software
    /// fallback; derived, so never checkpointed.
    name: String,
    /// The previous epoch's CXL congestion factor (loaded/unloaded
    /// latency). The RAS evacuation drain runs *before* this epoch's
    /// Monitor sample, so it is shaped by the last sample instead — one
    /// epoch of lag, against a signal that builds over many epochs.
    last_congestion: f64,
}

impl M5Manager {
    /// Builds a manager from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` fails [`M5Config::validate`].
    pub fn try_new(config: M5Config) -> Result<M5Manager, ConfigError> {
        config.validate()?;
        let name = match (config.mode, config.record_only) {
            (NominatorMode::HptOnly, false) => "m5-hpt",
            (NominatorMode::HptDriven, false) => "m5-hpt+hwt",
            (NominatorMode::HwtDriven, false) => "m5-hwt",
            (NominatorMode::HptOnly, true) => "m5-hpt-record",
            (NominatorMode::HptDriven, true) => "m5-hpt+hwt-record",
            (NominatorMode::HwtDriven, true) => "m5-hwt-record",
        };
        Ok(M5Manager {
            nominator: Nominator::new(config.mode),
            elector: Elector::new(config.elector),
            promoter: Promoter::new(),
            trackers: [
                TrackerSlot::new(Granularity::Page),
                TrackerSlot::new(Granularity::Word),
            ],
            wake: None,
            log: HotPageLog::new(HOT_LOG_CAP),
            epochs: 0,
            migrate_epochs: 0,
            ras_drain_epochs: 0,
            name: name.to_string(),
            last_congestion: 1.0,
            config,
        })
    }

    /// Builds a manager from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`M5Manager::try_new`]
    /// to handle the error instead.
    pub fn new(config: M5Config) -> M5Manager {
        M5Manager::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether tracker failure pushed the manager into software-only
    /// identification: some tracker struck out. Nothing queries a tracker
    /// after that, so its strikes stay at the limit.
    pub fn in_software_fallback(&self) -> bool {
        self.trackers
            .iter()
            .any(|s| s.strikes >= TRACKER_STRIKE_LIMIT)
    }

    /// The identified-hot-page log (§4.1's list).
    pub fn hot_log(&self) -> &HotPageLog {
        &self.log
    }

    /// Promoter statistics.
    pub fn promoter_stats(&self) -> PromoterStats {
        self.promoter.stats()
    }

    /// Manager epochs run so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Epochs in which the Elector chose to migrate.
    pub fn migrate_epochs(&self) -> u64 {
        self.migrate_epochs
    }

    /// Epochs whose RAS prologue drained at least one page off an
    /// evacuating node. A live evacuation spreads over many epochs (the
    /// drain is bounded by the promotion budget), so demand traffic never
    /// waits behind more than one bounded drain per epoch.
    pub fn ras_drain_epochs(&self) -> u64 {
        self.ras_drain_epochs
    }

    /// Serializes the manager for a checkpoint: component state, epoch
    /// counters, the hot-page log, and the attached trackers' SRAM
    /// contents. The `System` checkpoint deliberately excludes devices
    /// (they belong to whoever attached them), so the manager section
    /// carries them. Restore derives the rest: the daemon name, the
    /// software fallback and the nominator's mode from the config and the
    /// tracker strikes. Pair with [`M5Manager::restore`].
    pub fn save(&self, sys: &System, w: &mut StateWriter) {
        w.put_str(&format!("{:?}", self.config));
        for slot in &self.trackers {
            w.put_u8(slot.strikes);
        }
        self.nominator.save(w);
        self.elector.save(w);
        self.promoter.save(w);
        match self.wake {
            Some(n) => {
                w.put_bool(true);
                w.put_u64(n.0);
            }
            None => w.put_bool(false),
        }
        self.log.save(w);
        w.put_u64(self.epochs);
        w.put_u64(self.migrate_epochs);
        w.put_u64(self.ras_drain_epochs);
        w.put_f64(self.last_congestion);
        for slot in &self.trackers {
            slot.save(sys, w);
        }
    }

    /// Rebuilds a manager from a checkpoint section, re-attaching fresh
    /// tracker devices to `sys` (which must itself have been restored from
    /// the matching checkpoint — its device table starts empty) and
    /// reloading their SRAM contents. `on_start` must NOT be called on the
    /// returned manager: the checkpointed run already started, and the
    /// restored `wake` deadline continues its epoch schedule. Drive it with
    /// [`cxl_sim::system::ChunkedRun::resume`] or a manual wakeup loop.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when `config` differs from the checkpointed
    /// one, fails validation, or the payload is truncated or internally
    /// inconsistent.
    pub fn restore(
        config: M5Config,
        sys: &mut System,
        r: &mut StateReader<'_>,
    ) -> Result<M5Manager, CodecError> {
        let saved = r.get_str()?;
        if saved != format!("{config:?}") {
            return Err(CodecError::BadValue {
                what: "m5 config mismatch",
                value: saved.len() as u64,
            });
        }
        let mut m = M5Manager::try_new(config).map_err(|_| CodecError::BadValue {
            what: "m5 config invalid",
            value: 0,
        })?;
        for slot in &mut m.trackers {
            slot.strikes = r.get_u8()?;
        }
        // Reaching the limit engages the fallback, and nothing queries a
        // tracker after that.
        let strikes = m.trackers.map(|s| s.strikes);
        if strikes.iter().any(|&s| s > TRACKER_STRIKE_LIMIT) {
            return Err(CodecError::BadValue {
                what: "tracker strikes past the limit",
                value: u64::from(strikes[0]) << 8 | u64::from(strikes[1]),
            });
        }
        let mode = if m.in_software_fallback() {
            m.name.push_str(FALLBACK_SUFFIX);
            NominatorMode::HptOnly
        } else {
            config.mode
        };
        m.nominator = Nominator::restore(mode, r)?;
        m.elector = Elector::restore(config.elector, r)?;
        m.promoter = Promoter::restore(r)?;
        m.wake = if r.get_bool()? {
            Some(Nanos(r.get_u64()?))
        } else {
            None
        };
        m.log = HotPageLog::restore(r)?;
        m.epochs = r.get_u64()?;
        m.migrate_epochs = r.get_u64()?;
        m.ras_drain_epochs = r.get_u64()?;
        m.last_congestion = r.get_f64()?;
        for slot in &mut m.trackers {
            slot.restore(config.tracker(slot.granularity), sys, r)?;
        }
        Ok(m)
    }

    fn query_trackers(&mut self, sys: &mut System) -> TrackerOutput {
        // Report batches are traced as spans so a JSONL consumer can line
        // up tracker output with the epoch that consumed it.
        let span = sys.telemetry().is_enabled().then(|| {
            let now = sys.now().0;
            sys.telemetry_mut().span_start(now, "m5.tracker.report", "")
        });
        let [pages, words] = [0, 1].map(|i| self.query_tracker(sys, i));
        if let Some(s) = span {
            let now = sys.now().0;
            sys.telemetry_mut().span_end(now, s);
        }
        (
            pages.into_iter().map(|(k, c)| (Pfn(k), c)).collect(),
            words
                .into_iter()
                .map(|(k, c)| (CacheLineAddr(k), c))
                .collect(),
        )
    }

    /// Bills and drains tracker slot `i` and publishes its telemetry, then
    /// health-checks the batch. A healthy tracker only ever reports keys
    /// inside the CXL node it snoops, with counts far below saturation.
    /// Anything else is a wedged or corrupted device: the batch is
    /// discarded, the tracker struck, and [`TRACKER_STRIKE_LIMIT`]
    /// consecutive strikes engage the software fallback. A healthy batch
    /// clears the tracker's strikes.
    fn query_tracker(&mut self, sys: &mut System, i: usize) -> Vec<(u64, u64)> {
        let TrackerSlot {
            granularity,
            handle: Some(h),
            ..
        } = self.trackers[i]
        else {
            return Vec::new();
        };
        let label = tracker::label(granularity);
        sys.daemon_bill(CostKind::ManagerQuery, TRACKER_QUERY);
        let (observed, mut out) = sys
            .device_mut::<HotTracker>(h)
            .map(|d| (d.observed(), d.query()))
            .unwrap_or_default();
        let t = sys.telemetry_mut();
        t.counter_add("m5.tracker.queries", label, 1);
        t.gauge_set("m5.tracker.observed", label, observed as f64);
        t.gauge_set("m5.tracker.batch", label, out.len() as f64);
        let cxl = CXL_BASE_PFN..CXL_BASE_PFN + sys.config().cxl.capacity_frames;
        if out
            .iter()
            .any(|&(key, c)| !cxl.contains(&granularity.pfn(key).0) || c == u64::MAX)
        {
            out.clear();
            let engaged = self.in_software_fallback();
            self.trackers[i].strikes += 1;
            sys.telemetry_mut()
                .counter_add("m5.tracker.strikes", label, 1);
            if !engaged && self.in_software_fallback() {
                self.engage_fallback(sys, label);
            }
        } else {
            self.trackers[i].strikes = 0;
        }
        out
    }

    /// Switches to software-only hot-page identification after a tracker
    /// strikes out. The near-memory devices stay attached but are no longer
    /// queried; candidates come from PTE accessed-bit scans instead, and
    /// the mode change is recorded in the run report via the daemon name
    /// and the system's degradation log.
    fn engage_fallback(&mut self, sys: &mut System, which: &'static str) {
        if sys.telemetry().is_enabled() {
            let now = sys.now().0;
            let t = sys.telemetry_mut();
            t.counter_add("m5.fallback", which, 1);
            t.event(now, "m5.fallback", which);
        }
        sys.note_degradation(format!(
            "{}: {which} returned garbage {TRACKER_STRIKE_LIMIT}x; \
             falling back to software-only identification",
            self.name
        ));
        self.name.push_str(FALLBACK_SUFFIX);
        // Word-granular signals are gone; rank pages like HptOnly.
        self.nominator = Nominator::new(NominatorMode::HptOnly);
    }

    /// Software-only identification: scan the accessed bits of every PTE
    /// resident on CXL (billed like any other PTE scan). Granularity and
    /// cost match CPU-driven baselines — exactly the degradation the paper
    /// argues against, but correctness survives tracker loss.
    fn software_scan(&mut self, sys: &mut System) -> Vec<(Pfn, u64)> {
        let scanned: Vec<(Vpn, Pfn)> = sys
            .page_table()
            .pages_on(NodeId::Cxl)
            .map(|(vpn, pte)| (vpn, pte.pfn))
            .collect();
        sys.daemon_bill(
            CostKind::PteScan,
            Nanos(PTE_SCAN_PER_ENTRY.0.saturating_mul(scanned.len() as u64)),
        );
        scanned
            .into_iter()
            .filter(|&(vpn, _)| sys.page_table_mut().test_and_clear_accessed(vpn))
            .map(|(_, pfn)| (pfn, 1))
            .collect()
    }
}

impl MigrationDaemon for M5Manager {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, sys: &mut System) {
        for slot in &mut self.trackers {
            let g = slot.granularity;
            slot.handle = self
                .config
                .tracker(g)
                .map(|c| sys.attach_device(HotTracker::new(c, g)));
        }
        self.wake = Some(sys.now() + self.config.elector.min_period);
    }

    fn next_wake(&self) -> Option<Nanos> {
        self.wake
    }

    fn on_tick(&mut self, sys: &mut System) {
        self.epochs += 1;
        // Crash-recovery prologue: a controller reset mid-migration leaves
        // the engine fenced, and every migrate call would fail with
        // `NeedsRecovery` until the journal is replayed. Recover first so
        // the epoch proceeds on a consistent page table, and note the
        // degradation so the run report shows the reset was survived.
        if sys.needs_recovery() {
            let r = sys.recover();
            if sys.telemetry().is_enabled() {
                let now = sys.now().0;
                let t = sys.telemetry_mut();
                t.counter_add("m5.recovery", "replays", 1);
                t.event(now, "m5.recovery", "journal replayed");
            }
            sys.note_degradation(format!(
                "{}: controller reset recovered — {} txns scanned, \
                 {} aborted, {} rolled back, {} rolled forward",
                self.name, r.scanned, r.aborted, r.rolled_back, r.rolled_forward
            ));
        }
        // Return a few poisoned frames to circulation each epoch; the scrub
        // is bounded so one epoch never pays for a large backlog at once.
        sys.scrub_quarantine(8);
        // RAS prologue: patrol-scrub the CE trend, soft-offline failing
        // frames, and — while the CXL node is evacuating — drain a bounded
        // batch of pages to the survivor. The drain reuses the epoch's
        // promotion budget: promoting pages *toward* a dying tier is
        // pointless, so the budget reverses direction instead. Drain copies
        // ride the same congested link as demand traffic, so the previous
        // epoch's congestion sample halves the drain budget past the knee,
        // exactly as the backoff below halves the promotion batch.
        let mut drain_budget = self.config.promote_batch as u64;
        if self.last_congestion >= CONGESTION_KNEE {
            drain_budget = (drain_budget / 2).max(1);
            sys.telemetry_mut()
                .counter_add("m5.congestion", "drain-backoff", 1);
        }
        let ras = sys.ras_service(drain_budget);
        if ras.pages_drained > 0 {
            self.ras_drain_epochs += 1;
        }
        let evacuating = sys.ras().health(NodeId::Cxl) >= cxl_sim::ras::NodeHealth::Evacuating;
        let stats = monitor::sample(sys);
        self.last_congestion = stats.congestion(NodeId::Cxl);
        // Congestion backoff: page copies ride the same CXL link as demand
        // traffic, so when the Monitor sees the loaded latency past the
        // knee, halve this epoch's promotion batch rather than pile more
        // copy traffic onto an already-queueing link. With the contention
        // model disabled loaded == unloaded and this never fires.
        let mut batch = self.config.promote_batch;
        if stats.congestion(NodeId::Cxl) >= CONGESTION_KNEE {
            batch = (batch / 2).max(1);
            sys.telemetry_mut()
                .counter_add("m5.congestion", "backoff", 1);
        }
        let mut decision = self.elector.decide(&stats);
        if evacuating {
            // Suspend the promotion flow for the rest of the evacuation:
            // demotions would be rejected (`MigrateError::NodeOffline`) and
            // tracker output describes a node that is going away.
            decision.migrate = false;
            // Drain at the fastest epoch cadence. The elector's adaptive
            // period stretches toward `max_period` exactly when CXL looks
            // cold — which an evacuating node always does — and a stretched
            // period would starve the drain against the RAS deadline.
            decision.period = self.config.elector.min_period;
        }
        sys.telemetry_mut().counter_add(
            "m5.epochs",
            if decision.migrate { "migrate" } else { "hold" },
            1,
        );
        if decision.migrate {
            self.migrate_epochs += 1;
            let span = sys.telemetry().is_enabled().then(|| {
                let now = sys.now().0;
                sys.telemetry_mut().span_start(now, "m5.epoch", "migrate")
            });
            let (hot_pages, hot_words) = if self.in_software_fallback() {
                (Vec::new(), Vec::new())
            } else {
                self.query_trackers(sys)
            };
            // query_trackers may have just engaged the fallback.
            let hot_pages = if self.in_software_fallback() {
                self.software_scan(sys)
            } else {
                hot_pages
            };
            self.nominator.refresh(&hot_pages, &hot_words);
            // Oversample, then keep only candidates still resident on CXL:
            // tracker output is one epoch behind the page table, so some
            // reported frames have already moved or been freed.
            let mut nominated = Vec::with_capacity(batch);
            for e in self.nominator.nominate(batch * 4) {
                let live_on_cxl = sys
                    .page_table()
                    .vpn_of(e.pfn)
                    .and_then(|vpn| sys.page_table().get(vpn))
                    .is_some_and(|pte| pte.node() == NodeId::Cxl);
                if live_on_cxl {
                    nominated.push(e);
                    if nominated.len() >= batch {
                        break;
                    }
                } else {
                    self.nominator.retire(e.pfn);
                }
            }
            for e in &nominated {
                if let Some(vpn) = sys.page_table().vpn_of(e.pfn) {
                    self.log.record(vpn, e.pfn);
                }
            }
            // Time quota: truncate this epoch's batch to the allowance.
            nominated.truncate(sys.migration_allowance(self.config.migration_time_budget));
            if !self.config.record_only && !nominated.is_empty() {
                self.promoter.promote(sys, &nominated);
                for e in &nominated {
                    self.nominator.retire(e.pfn);
                }
            }
            if let Some(s) = span {
                let now = sys.now().0;
                sys.telemetry_mut().span_end(now, s);
            }
        }
        self.wake = Some(sys.now() + decision.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::memory::NodeId;
    use cxl_sim::prelude::*;
    use cxl_sim::system::run;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    struct SkewedStream {
        base: VirtAddr,
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
            let off = self.rng.gen_range(0u64..64) * 64;
            Some(Access::read(self.base.offset(page * 4096 + off)))
        }
    }

    fn setup(config: M5Config) -> (System, SkewedStream, M5Manager) {
        let mut sys = System::new(
            SystemConfig::small()
                .with_cxl_frames(1024)
                .with_ddr_frames(256),
        );
        let region = sys.alloc_region(512, Placement::AllOnCxl).unwrap();
        let wl = SkewedStream {
            base: region.base,
            pages: 512,
            hot: 16,
            rng: SmallRng::seed_from_u64(3),
            remaining: 300_000,
        };
        (sys, wl, M5Manager::new(config))
    }

    #[test]
    fn m5_hpt_promotes_the_hot_set() {
        let (mut sys, mut wl, mut m5) = setup(M5Config::default());
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        assert!(report.migrations.promotions > 0);
        assert!(m5.epochs() > 0);
        assert!(!m5.hot_log().is_empty());
        let hot_on_ddr = (0..16)
            .filter(|&p| sys.page_table().get(Vpn(p)).unwrap().node() == NodeId::Ddr)
            .count();
        assert!(hot_on_ddr >= 12, "only {hot_on_ddr}/16 hot pages on DDR");
        // M5 takes no hinting faults — that is the whole point.
        assert_eq!(report.hinting_faults, 0);
    }

    #[test]
    fn m5_identification_cost_is_tiny() {
        let (mut sys, mut wl, mut m5) = setup(M5Config::default());
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        let ident = report.kernel.identification_total();
        assert!(
            ident.0 < report.total_time.0 / 50,
            "manager overhead {} should be <2% of {}",
            ident,
            report.total_time
        );
    }

    #[test]
    fn hwt_driven_mode_runs_without_hpt() {
        let config = M5Config {
            hpt: None,
            hwt: Some(TrackerConfig::hwt()),
            mode: NominatorMode::HwtDriven,
            ..M5Config::default()
        };
        let (mut sys, mut wl, mut m5) = setup(config);
        assert_eq!(m5.name(), "m5-hwt");
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        assert!(
            report.migrations.promotions > 0,
            "hot words drive promotion"
        );
    }

    #[test]
    fn hpt_plus_hwt_mode_attaches_both_devices() {
        let config = M5Config {
            hpt: Some(TrackerConfig::hpt()),
            hwt: Some(TrackerConfig::hwt()),
            mode: NominatorMode::HptDriven,
            ..M5Config::default()
        };
        let (mut sys, mut wl, mut m5) = setup(config);
        let _ = run(&mut sys, &mut wl, &mut m5, 50_000);
        assert_eq!(m5.name(), "m5-hpt+hwt");
        assert!(m5.migrate_epochs() > 0);
    }

    #[test]
    fn record_only_never_migrates() {
        let config = M5Config {
            record_only: true,
            ..M5Config::default()
        };
        let (mut sys, mut wl, mut m5) = setup(config);
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        assert_eq!(report.migrations.promotions, 0);
        assert!(!m5.hot_log().is_empty());
        assert_eq!(m5.name(), "m5-hpt-record");
    }

    #[test]
    fn migration_budget_caps_migration_time() {
        let config = M5Config {
            migration_time_budget: 0.05,
            ..M5Config::default()
        };
        let (mut sys, mut wl, mut m5) = setup(config);
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        let spent = report.kernel.of(cxl_sim::kernel::CostKind::Migration).0 as f64;
        let elapsed = report.total_time.0 as f64;
        // One over-budget batch can overshoot slightly; 2x headroom.
        assert!(
            spent <= 0.05 * elapsed * 2.0,
            "migration {spent}ns exceeds 5% of {elapsed}ns"
        );
    }

    #[test]
    fn manager_telemetry_mirrors_component_stats() {
        let (mut sys, mut wl, mut m5) = setup(M5Config::default());
        let mut t = Telemetry::enabled();
        let (sink, buf) = MemorySink::new();
        t.add_sink(Box::new(sink));
        sys.install_telemetry(t);
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);

        let snap = sys.telemetry().snapshot();
        assert_eq!(snap.counter_total("m5.epochs"), m5.epochs());
        assert_eq!(
            snap.counter("m5.epochs", "migrate").unwrap_or(0),
            m5.migrate_epochs()
        );
        assert_eq!(
            snap.counter("m5.tracker.queries", "hpt").unwrap_or(0),
            m5.migrate_epochs(),
            "one HPT query per migrate epoch"
        );
        let stats = m5.promoter_stats();
        assert_eq!(
            snap.counter("m5.promoter", "promoted").unwrap_or(0),
            stats.promoted
        );
        assert_eq!(
            snap.counter("m5.promoter", "retried").unwrap_or(0),
            report.health.promoter_retried
        );
        assert_eq!(
            snap.counter("m5.promoter", "gave-up").unwrap_or(0),
            report.health.promoter_gave_up
        );
        assert_eq!(stats.promoted, report.migrations.promotions);
        assert!(
            snap.gauge("m5.tracker.observed", "hpt").is_some(),
            "occupancy gauge published"
        );
        assert!(snap.gauge("sim.bw.bytes_per_sec", "cxl").is_some());
        assert!(snap.gauge("sim.nr_pages", "ddr").is_some());

        // Migration epochs and tracker report batches trace as spans.
        let events = buf.lock().unwrap().events.clone();
        use cxl_sim::telemetry::EventKind;
        for name in ["m5.epoch", "m5.tracker.report"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.name == name && e.kind == EventKind::SpanStart),
                "missing span start for {name}"
            );
            assert!(
                events
                    .iter()
                    .any(|e| e.name == name && matches!(e.kind, EventKind::SpanEnd { .. })),
                "missing span end for {name}"
            );
        }
    }

    #[test]
    fn controller_reset_is_recovered_next_epoch() {
        use cxl_sim::faults::{FaultKind, FaultPlan};
        // Fence the engine mid-transaction (step 2 is the CopyInProgress
        // append of the very first migration): the manager must replay the
        // journal on its next epoch and keep promoting afterwards.
        let plan = FaultPlan::none().with(Nanos::ZERO, FaultKind::ControllerReset { at_step: 2 });
        let mut sys = System::with_fault_plan(
            SystemConfig::small()
                .with_cxl_frames(1024)
                .with_ddr_frames(256),
            &plan,
        );
        let region = sys.alloc_region(512, Placement::AllOnCxl).unwrap();
        let mut wl = SkewedStream {
            base: region.base,
            pages: 512,
            hot: 16,
            rng: SmallRng::seed_from_u64(3),
            remaining: 300_000,
        };
        let mut m5 = M5Manager::new(M5Config::default());
        let report = run(&mut sys, &mut wl, &mut m5, u64::MAX);
        assert!(!sys.needs_recovery(), "manager replayed the journal");
        assert!(
            report.migrations.promotions > 0,
            "migrations resumed after recovery"
        );
        assert!(
            report
                .health
                .degraded
                .iter()
                .any(|d| d.contains("controller reset recovered")),
            "recovery recorded as a degradation: {:?}",
            report.health.degraded
        );
        assert!(sys.check_invariants().is_empty());
    }

    #[test]
    fn misconfigured_mode_is_a_typed_error() {
        let bad = M5Config {
            hwt: None,
            mode: NominatorMode::HptDriven,
            ..M5Config::default()
        };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::MissingHwt(NominatorMode::HptDriven))
        );
        assert!(M5Manager::try_new(bad).is_err());
        assert!(M5Config::default().validate().is_ok());
        assert_eq!(
            M5Config {
                promote_batch: 0,
                ..M5Config::default()
            }
            .validate(),
            Err(ConfigError::ZeroPromoteBatch)
        );
        assert_eq!(
            M5Config {
                migration_time_budget: -1.0,
                ..M5Config::default()
            }
            .validate(),
            Err(ConfigError::BadMigrationBudget(-1.0))
        );
    }

    #[test]
    fn congestion_backoff_fires_only_under_contention() {
        // A heavily background-loaded CXL link pushes the loaded latency
        // past the 2.0x knee, and the manager records backoff epochs; the
        // identical run with contention disabled records none.
        for (background, expect_backoff) in [(0.95, true), (0.0, false)] {
            let contention = if expect_backoff {
                ContentionConfig::enabled_default().with_cxl_background(background)
            } else {
                ContentionConfig::disabled()
            };
            let mut sys = System::new(
                SystemConfig::small()
                    .with_cxl_frames(1024)
                    .with_ddr_frames(256)
                    .with_contention(contention),
            );
            sys.install_telemetry(Telemetry::enabled());
            let region = sys.alloc_region(512, Placement::AllOnCxl).unwrap();
            let mut wl = SkewedStream {
                base: region.base,
                pages: 512,
                hot: 16,
                rng: SmallRng::seed_from_u64(3),
                remaining: 100_000,
            };
            let mut m5 = M5Manager::new(M5Config::default());
            let _ = run(&mut sys, &mut wl, &mut m5, u64::MAX);
            let backoffs = sys
                .telemetry()
                .snapshot()
                .counter("m5.congestion", "backoff")
                .unwrap_or(0);
            if expect_backoff {
                assert!(backoffs > 0, "saturated link must trigger backoff");
            } else {
                assert_eq!(backoffs, 0, "fixed-cost path must never back off");
            }
        }
    }

    #[test]
    fn evacuation_drain_budget_is_shaped_by_congestion() {
        // ROADMAP item 4: the congestion backoff must shape the RAS
        // evacuation drain budget too, not just the promotion batch. The
        // drain runs before the epoch's Monitor sample, so the shaping uses
        // the previous epoch's congestion — a saturated link records
        // drain-backoff epochs from the second epoch on, and the identical
        // uncontended run records none.
        for expect_backoff in [true, false] {
            let contention = if expect_backoff {
                ContentionConfig::enabled_default().with_cxl_background(0.95)
            } else {
                ContentionConfig::disabled()
            };
            let mut sys = System::new(
                SystemConfig::small()
                    .with_cxl_frames(1024)
                    .with_ddr_frames(256)
                    .with_contention(contention),
            );
            sys.install_telemetry(Telemetry::enabled());
            let region = sys.alloc_region(512, Placement::AllOnCxl).unwrap();
            let mut wl = SkewedStream {
                base: region.base,
                pages: 512,
                hot: 16,
                rng: SmallRng::seed_from_u64(3),
                remaining: 100_000,
            };
            let mut m5 = M5Manager::new(M5Config::default());
            let _ = run(&mut sys, &mut wl, &mut m5, u64::MAX);
            let backoffs = sys
                .telemetry()
                .snapshot()
                .counter("m5.congestion", "drain-backoff")
                .unwrap_or(0);
            if expect_backoff {
                assert!(backoffs > 0, "saturated link must shape the drain");
                assert!(
                    backoffs < m5.epochs(),
                    "first epoch has no congestion sample yet"
                );
            } else {
                assert_eq!(backoffs, 0, "fixed-cost path must never shape");
            }
        }
    }

    fn checkpoint_all(
        sys: &mut System,
        m5: &M5Manager,
        run: &cxl_sim::system::ChunkedRun,
    ) -> cxl_sim::checkpoint::Checkpoint {
        let mut cp = sys.checkpoint();
        let mut w = cxl_sim::checkpoint::StateWriter::new();
        m5.save(sys, &mut w);
        cp.add_section("m5", w.finish());
        let mut w = cxl_sim::checkpoint::StateWriter::new();
        run.save(&mut w);
        cp.add_section("run", w.finish());
        cp
    }

    #[test]
    fn manager_restore_continues_identically() {
        // The default HPT, an HPT plus an HWT, and a Space-Saving HPT: every
        // tracker granularity and algorithm checkpoints its SRAM. The
        // HWT-only policy runs the HWT-driven Nominator, whose persistent
        // accumulation must encode in the same order on both runs.
        for m5cfg in [
            M5Config::default(),
            crate::policy::simple_hpt_hwt_policy(),
            crate::policy::space_saving_50_policy(),
            crate::policy::simple_hwt_policy(),
        ] {
            restore_continues_identically(m5cfg);
        }
    }

    fn restore_continues_identically(m5cfg: M5Config) {
        use cxl_sim::checkpoint::Checkpoint;
        use cxl_sim::faults::FaultPlan;
        use cxl_sim::system::ChunkedRun;
        let make_config = || {
            SystemConfig::small()
                .with_cxl_frames(1024)
                .with_ddr_frames(256)
        };
        let make_wl = |base: VirtAddr| SkewedStream {
            base,
            pages: 512,
            hot: 16,
            rng: SmallRng::seed_from_u64(3),
            remaining: 120_000,
        };
        let plan = FaultPlan::none();

        // A: the uninterrupted reference run.
        let mut sys_a = System::new(make_config());
        let region = sys_a.alloc_region(512, Placement::AllOnCxl).unwrap();
        let mut wl_a = make_wl(region.base);
        let mut m5_a = M5Manager::new(m5cfg);
        let mut run_a = ChunkedRun::begin(&mut sys_a, &mut m5_a);
        run_a.drive_to(&mut sys_a, &mut wl_a, &mut m5_a, 120_000, 512);
        let cp_a = checkpoint_all(&mut sys_a, &m5_a, &run_a);

        // B: same run, checkpointed at the midpoint and restored into an
        // entirely fresh System + manager + run driver.
        let mut sys_b = System::new(make_config());
        let region_b = sys_b.alloc_region(512, Placement::AllOnCxl).unwrap();
        let mut wl_b = make_wl(region_b.base);
        let mut m5_b = M5Manager::new(m5cfg);
        let mut run_b = ChunkedRun::begin(&mut sys_b, &mut m5_b);
        run_b.drive_to(&mut sys_b, &mut wl_b, &mut m5_b, 60_000, 512);
        let mid = checkpoint_all(&mut sys_b, &m5_b, &run_b);
        drop((sys_b, m5_b, run_b));

        let mid = Checkpoint::decode(&mid.encode()).unwrap();
        let mut sys_b2 = System::restore(make_config(), &plan, &mid).unwrap();
        let mut r = StateReader::new(mid.section("m5").unwrap());
        let mut m5_b2 = M5Manager::restore(m5cfg, &mut sys_b2, &mut r).unwrap();
        r.expect_end().unwrap();
        let mut r = StateReader::new(mid.section("run").unwrap());
        let mut run_b2 = ChunkedRun::resume(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(run_b2.accesses(), 60_000);

        run_b2.drive_to(&mut sys_b2, &mut wl_b, &mut m5_b2, 120_000, 512);
        let cp_b = checkpoint_all(&mut sys_b2, &m5_b2, &run_b2);

        // The full serialized state — system, manager, tracker SRAM, run
        // driver — must be byte-identical to the uninterrupted run's.
        assert_eq!(cp_a.encode(), cp_b.encode());
        assert!(sys_b2.check_invariants().is_empty());
        assert_eq!(m5_a.epochs(), m5_b2.epochs());
        assert_eq!(m5_a.promoter_stats(), m5_b2.promoter_stats());
        let report_a = run_a.finish(&mut sys_a, &m5_a);
        let report_b = run_b2.finish(&mut sys_b2, &m5_b2);
        assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));
        assert!(
            report_a.migrations.promotions > 0,
            "{}: the run did real work",
            m5_a.name()
        );
    }

    #[test]
    fn manager_restore_rejects_config_and_mode_skew() {
        let (mut sys, _wl, m5) = setup(M5Config::default());
        let mut w = StateWriter::new();
        m5.save(&sys, &mut w);
        let buf = w.finish();
        // A different promote batch is a different manager: rejected.
        let skewed = M5Config {
            promote_batch: 16,
            ..M5Config::default()
        };
        let mut r = StateReader::new(&buf);
        assert!(M5Manager::restore(skewed, &mut sys, &mut r).is_err());
        // The matching config restores cleanly.
        let mut sys2 = System::new(
            SystemConfig::small()
                .with_cxl_frames(1024)
                .with_ddr_frames(256),
        );
        let mut r = StateReader::new(&buf);
        let m5b = M5Manager::restore(M5Config::default(), &mut sys2, &mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(m5b.name(), m5.name());
        assert_eq!(m5b.epochs(), m5.epochs());
    }

    #[test]
    fn manager_restore_rejects_unreachable_strikes() {
        const LIMIT: u8 = TRACKER_STRIKE_LIMIT;
        // The default config drives an HPT and has no HWT.
        let (sys, _wl, mut m5) = setup(M5Config::default());
        // `Some(fallback)` for a reachable state, `None` for one restore
        // must reject.
        for (hpt, hwt, expect) in [
            (0, 0, Some(false)),
            (LIMIT - 1, 0, Some(false)),
            (LIMIT, 0, Some(true)),
            (LIMIT + 1, 0, None),
            (0, 1, None),
        ] {
            m5.trackers[0].strikes = hpt;
            m5.trackers[1].strikes = hwt;
            let mut w = StateWriter::new();
            m5.save(&sys, &mut w);
            let buf = w.finish();
            let mut sys2 = System::new(
                SystemConfig::small()
                    .with_cxl_frames(1024)
                    .with_ddr_frames(256),
            );
            let restored =
                M5Manager::restore(M5Config::default(), &mut sys2, &mut StateReader::new(&buf));
            match (restored, expect) {
                (Ok(m), Some(fallback)) => {
                    assert_eq!(m.in_software_fallback(), fallback);
                    assert_eq!(m.name().ends_with(FALLBACK_SUFFIX), fallback);
                }
                (Err(e), None) => assert!(matches!(e, CodecError::BadValue { .. }), "{e:?}"),
                (other, _) => panic!("strikes {hpt}/{hwt}: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires an HWT")]
    fn misconfigured_mode_panics() {
        let _ = M5Manager::new(M5Config {
            hwt: None,
            mode: NominatorMode::HptDriven,
            ..M5Config::default()
        });
    }
}
