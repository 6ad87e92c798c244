//! Chaos-soak harness for the memory RAS subsystem.
//!
//! Each **campaign** runs a skewed demand workload through the full M5
//! manager on a small two-tier machine while a seeded fault plan abuses
//! the CXL node: correctable-error bursts, link retrains, poisoned lines,
//! controller resets — and always at least one
//! [`DeviceFault::HotRemovePrepare`], so every campaign exercises a live
//! node evacuation end to end. After the run the campaign is judged on
//! the RAS contract:
//!
//! * the access budget completes — demand traffic never waits behind an
//!   evacuation (the drain is bounded per manager epoch),
//! * [`cxl_sim::system::System::check_invariants`] is clean,
//! * **zero pages lost or double-mapped**: the region's pages are all
//!   still mapped, split exactly between the two nodes,
//! * the evacuation concludes (the node reaches `Offline`) and its
//!   [`EvacuationReport`] is consistent with the page table, and
//! * the drain was genuinely incremental: pages moved never exceed
//!   `drain epochs × per-epoch budget`.
//!
//! Campaigns share nothing, so the parallel driver fans them across the
//! vendored work queue and merges in input order — byte-identical to the
//! sequential reference (`tests/soak.rs` asserts this). The `soak` binary
//! (`cargo run --release -p m5-bench --bin soak`) runs the default
//! campaign set; `--long` scales it up for nightly soaking.

use crate::parallel::par_indexed;
use crate::pipeline::run_overlapped;
use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan};
use cxl_sim::memory::NodeId;
use cxl_sim::prelude::*;
use cxl_sim::ras::{EvacuationReport, NodeHealth, RasConfig};
use m5_core::manager::{M5Config, M5Manager};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Pages in the soak region (all allocated on CXL).
pub const SOAK_PAGES: u64 = 512;
/// Hot subset receiving 90 % of the demand traffic.
pub const SOAK_HOT: u64 = 16;
/// CXL node frames (region plus headroom for shadow frames).
pub const SOAK_CXL_FRAMES: u64 = 1024;
/// Per-epoch drain budget the soak manager runs with (reversed promotion
/// budget; also bounds how long one epoch can stall demand traffic).
pub const SOAK_DRAIN_BUDGET: usize = 64;
/// Fault-plan horizon for chaos campaigns: early enough that every armed
/// fault fires well inside the run.
pub const SOAK_HORIZON: Nanos = Nanos(2_000_000);

/// The fault scenario a campaign runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakScenario {
    /// [`FaultPlan::chaos`]: a seeded mix of every fault class (always
    /// including a hot-remove, so the node evacuates mid-run).
    Chaos,
    /// A clean-room hot-remove with no other faults: the evacuation must
    /// fully drain the node before the deadline.
    Evacuate,
    /// Hot-remove with the survivor deliberately too small: the drain must
    /// stall gracefully (typed capacity exhaustion, not a panic) and the
    /// node must still conclude `Offline` at the deadline with residual
    /// pages that remain accessible.
    Squeeze,
}

impl SoakScenario {
    /// Stable name used in campaign labels and artifacts.
    pub const fn label(self) -> &'static str {
        match self {
            SoakScenario::Chaos => "chaos",
            SoakScenario::Evacuate => "evacuate",
            SoakScenario::Squeeze => "squeeze",
        }
    }
}

/// One soak campaign: a scenario pinned to a seed and budget.
#[derive(Clone, Copy, Debug)]
pub struct SoakSpec {
    /// The fault scenario.
    pub scenario: SoakScenario,
    /// Workload and fault-plan seed.
    pub seed: u64,
    /// Demand-access budget.
    pub accesses: u64,
    /// Survivor (DDR) frames.
    pub ddr_frames: u64,
}

impl SoakSpec {
    /// The campaign's display name, e.g. `chaos-3`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.scenario.label(), self.seed)
    }

    /// The evacuation deadline the campaign's machine runs with. Draining
    /// one page bills real migration time (~54 µs), so a full 512-page
    /// drain inherently costs ~30 ms; chaos and clean-room campaigns get a
    /// deadline proportionate to the node size, while the squeeze campaign
    /// keeps the tight default so its stalled drain is forced to conclude
    /// within the run.
    fn evac_deadline(&self) -> Nanos {
        match self.scenario {
            SoakScenario::Chaos | SoakScenario::Evacuate => Nanos::from_millis(150),
            SoakScenario::Squeeze => RasConfig::default().evac_deadline,
        }
    }

    fn plan(&self) -> FaultPlan {
        match self.scenario {
            SoakScenario::Chaos => FaultPlan::chaos(self.seed, SOAK_HORIZON),
            SoakScenario::Evacuate | SoakScenario::Squeeze => FaultPlan::none().with(
                Nanos(1_000_000),
                FaultKind::Device(DeviceFault::HotRemovePrepare),
            ),
        }
    }
}

/// The default campaign set: eight chaos seeds, two clean evacuations, and
/// one squeezed survivor. `long` multiplies the chaos seeds and budgets
/// for nightly soaking.
pub fn default_campaigns(long: bool) -> Vec<SoakSpec> {
    let (chaos_seeds, accesses) = if long { (32, 1_000_000) } else { (8, 400_000) };
    let mut specs: Vec<SoakSpec> = (0..chaos_seeds)
        .map(|seed| SoakSpec {
            scenario: SoakScenario::Chaos,
            seed,
            accesses,
            ddr_frames: 1024,
        })
        .collect();
    for seed in 0..2 {
        specs.push(SoakSpec {
            scenario: SoakScenario::Evacuate,
            seed,
            accesses,
            ddr_frames: 1024,
        });
    }
    // The squeeze campaign must outlive the evacuation deadline (50 ms of
    // simulated time) so the stalled drain is forced to conclude.
    specs.push(SoakSpec {
        scenario: SoakScenario::Squeeze,
        seed: 0,
        accesses: 600_000,
        ddr_frames: 256,
    });
    specs
}

/// The skewed demand stream: 90 % of accesses hit the hot subset.
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

impl crate::checkpoint::StreamCheckpoint for SkewedStream {
    // pages/hot are campaign constants the restoring side rebuilds; the
    // region base, RNG position, and remaining budget are cursor state
    // (the base so a resuming stream needs no region handle of its own).
    fn save_cursor(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        w.put_u64(self.base.0);
        w.put_u64_slice(&self.rng.state());
        w.put_u64(self.remaining);
    }

    fn load_cursor(
        &mut self,
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<(), cxl_sim::checkpoint::CodecError> {
        self.base = VirtAddr(r.get_u64()?);
        let raw = r.get_u64_vec()?;
        let state: [u64; 4] =
            raw.as_slice()
                .try_into()
                .map_err(|_| cxl_sim::checkpoint::CodecError::BadValue {
                    what: "soak rng state length",
                    value: raw.len() as u64,
                })?;
        self.rng = SmallRng::from_state(state);
        self.remaining = r.get_u64()?;
        Ok(())
    }
}

/// Everything observable about one finished campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name (`scenario-seed`).
    pub name: String,
    /// Accesses the run completed (must equal the budget).
    pub accesses: u64,
    /// Faults the injector delivered.
    pub faults_injected: u64,
    /// CXL node health at exit.
    pub health: NodeHealth,
    /// Correctable errors recorded on the CXL node.
    pub total_ce: u64,
    /// Frames permanently retired by predictive offlining.
    pub frames_offlined: u64,
    /// Region pages mapped on DDR at exit.
    pub mapped_ddr: u64,
    /// Region pages mapped on CXL at exit.
    pub mapped_cxl: u64,
    /// Manager epochs that performed a bounded evacuation drain.
    pub drain_epochs: u64,
    /// The concluded evacuation, if the node reached `Offline`.
    pub evacuation: Option<EvacuationReport>,
    /// Degradation notes recorded during the run.
    pub degraded: Vec<String>,
    /// Invariant violations at exit (must be empty).
    pub violations: Vec<String>,
}

/// The campaign machine configuration for `spec`.
fn campaign_config(spec: &SoakSpec) -> SystemConfig {
    SystemConfig::small()
        .with_cxl_frames(SOAK_CXL_FRAMES)
        .with_ddr_frames(spec.ddr_frames)
        .with_ras(RasConfig {
            evac_deadline: spec.evac_deadline(),
            ..RasConfig::default()
        })
}

/// The campaign demand stream bound to `base`.
fn campaign_stream(spec: &SoakSpec, base: VirtAddr) -> SkewedStream {
    SkewedStream {
        base,
        pages: SOAK_PAGES,
        hot: SOAK_HOT,
        rng: SmallRng::seed_from_u64(spec.seed ^ 0x50a1),
        remaining: spec.accesses,
    }
}

/// The campaign manager configuration.
fn campaign_m5_config() -> M5Config {
    M5Config {
        promote_batch: SOAK_DRAIN_BUDGET,
        ..M5Config::default()
    }
}

/// Judges a finished campaign run against the end state of its machine.
fn audit(spec: &SoakSpec, sys: &mut System, m5: &M5Manager, report: &RunReport) -> CampaignReport {
    // A controller reset striking after the manager's last epoch leaves
    // the engine fenced; replay the journal before auditing invariants
    // (mirrors the crash-sweep harness).
    if sys.needs_recovery() {
        sys.recover();
    }
    CampaignReport {
        name: spec.name(),
        accesses: report.accesses,
        faults_injected: report.health.faults_injected,
        health: sys.ras().health(NodeId::Cxl),
        total_ce: sys.ras().total_ce(NodeId::Cxl),
        frames_offlined: sys.offlined_frames(NodeId::Cxl),
        mapped_ddr: sys.nr_pages(NodeId::Ddr),
        mapped_cxl: sys.nr_pages(NodeId::Cxl),
        drain_epochs: m5.ras_drain_epochs(),
        evacuation: sys.ras().evacuation_report(NodeId::Cxl).copied(),
        degraded: report.health.degraded.clone(),
        violations: sys.check_invariants(),
    }
}

/// Runs one campaign to completion and audits the end state.
pub fn run_campaign(spec: SoakSpec) -> CampaignReport {
    let plan = spec.plan();
    let mut sys = System::with_fault_plan(campaign_config(&spec), &plan);
    let region = sys
        .alloc_region(SOAK_PAGES, Placement::AllOnCxl)
        .expect("CXL sized to fit the soak region");
    let mut wl = campaign_stream(&spec, region.base);
    let mut m5 = M5Manager::new(campaign_m5_config());
    let report = run_overlapped(&mut sys, &mut wl, &mut m5, spec.accesses);
    audit(&spec, &mut sys, &m5, &report)
}

/// Runs a fresh campaign to `upto` accesses with the sequential chunked
/// driver and commits a run checkpoint at that point — the "process was
/// killed mid-campaign" setup for [`run_campaign_resumable`].
pub fn checkpoint_campaign(spec: SoakSpec, ckpt: &std::path::Path, upto: u64) {
    use crate::checkpoint as ck;
    let plan = spec.plan();
    let mut sys = System::with_fault_plan(campaign_config(&spec), &plan);
    let region = sys
        .alloc_region(SOAK_PAGES, Placement::AllOnCxl)
        .expect("CXL sized to fit the soak region");
    let mut wl = campaign_stream(&spec, region.base);
    let mut m5 = M5Manager::new(campaign_m5_config());
    let mut run = cxl_sim::system::ChunkedRun::begin(&mut sys, &mut m5);
    ck::drive_to(
        &mut sys,
        &mut m5,
        &mut run,
        &mut wl,
        upto.min(spec.accesses),
    );
    let cp = ck::capture(&mut sys, &m5, &run, &wl);
    ck::commit(&mut sys, &cp, ckpt).expect("campaign checkpoint io");
}

/// Runs one campaign with the sequential chunked driver, committing a
/// run checkpoint to `ckpt` every `every` accesses. When `ckpt` already
/// holds a valid image (possibly via its `.prev` fallback) the campaign
/// resumes from it instead of starting over — the engine behind
/// `soak --resume`. The chunked driver is byte-identical to the
/// overlapped one, so an uninterrupted resumable campaign reports exactly
/// what [`run_campaign`] does.
pub fn run_campaign_resumable(
    spec: SoakSpec,
    ckpt: &std::path::Path,
    every: u64,
) -> CampaignReport {
    use crate::checkpoint as ck;
    let plan = spec.plan();
    let config = campaign_config(&spec);
    let resumed = cxl_sim::checkpoint::Checkpoint::load(ckpt)
        .ok()
        .and_then(|loaded| {
            // Placeholder base/cursor: load_cursor rebinds both.
            let mut wl = campaign_stream(&spec, VirtAddr(0));
            ck::resume(
                &loaded.checkpoint,
                config.clone(),
                &plan,
                campaign_m5_config(),
                &mut wl,
            )
            .ok()
            .map(|r| (r.sys, r.m5, r.run, wl))
        });
    let (mut sys, mut m5, mut run, mut wl) = match resumed {
        Some(parts) => parts,
        None => {
            let mut sys = System::with_fault_plan(config, &plan);
            let region = sys
                .alloc_region(SOAK_PAGES, Placement::AllOnCxl)
                .expect("CXL sized to fit the soak region");
            let wl = campaign_stream(&spec, region.base);
            let mut m5 = M5Manager::new(campaign_m5_config());
            let run = cxl_sim::system::ChunkedRun::begin(&mut sys, &mut m5);
            (sys, m5, run, wl)
        }
    };
    ck::drive_with_checkpoints(
        &mut sys,
        &mut m5,
        &mut run,
        &mut wl,
        spec.accesses,
        every,
        ckpt,
    )
    .expect("campaign checkpoint io");
    let report = run.finish(&mut sys, &m5);
    audit(&spec, &mut sys, &m5, &report)
}

impl CampaignReport {
    /// Violations of the soak contract for this campaign (empty = pass).
    pub fn failures(&self, spec: &SoakSpec) -> Vec<String> {
        let mut out = Vec::new();
        let mut fail = |msg: String| out.push(format!("{}: {msg}", self.name));
        if self.accesses != spec.accesses {
            fail(format!(
                "completed {} of {} accesses — evacuation blocked demand traffic",
                self.accesses, spec.accesses
            ));
        }
        if !self.violations.is_empty() {
            fail(format!(
                "invariants violated: {}",
                self.violations.join("; ")
            ));
        }
        if self.mapped_ddr + self.mapped_cxl != SOAK_PAGES {
            fail(format!(
                "page accounting broke: {} on DDR + {} on CXL != {} — pages lost or double-mapped",
                self.mapped_ddr, self.mapped_cxl, SOAK_PAGES
            ));
        }
        if self.faults_injected == 0 {
            fail("no faults fired — the campaign was vacuous".into());
        }
        match &self.evacuation {
            None => fail(format!(
                "evacuation never concluded (health {} at exit)",
                self.health
            )),
            Some(evac) => {
                if self.health != NodeHealth::Offline {
                    fail(format!("evacuated node not offline: {}", self.health));
                }
                if evac.residual != self.mapped_cxl {
                    fail(format!(
                        "report residual {} != {} pages still mapped on CXL",
                        evac.residual, self.mapped_cxl
                    ));
                }
                if evac.pages_moved == 0 {
                    fail("evacuation drained nothing".into());
                }
                if self.drain_epochs < 2 {
                    fail(format!(
                        "drain finished in {} epoch(s) — not incremental",
                        self.drain_epochs
                    ));
                }
                if evac.pages_moved > self.drain_epochs * SOAK_DRAIN_BUDGET as u64 {
                    fail(format!(
                        "{} pages drained in {} epochs exceeds the {}-page epoch budget",
                        evac.pages_moved, self.drain_epochs, SOAK_DRAIN_BUDGET
                    ));
                }
                match spec.scenario {
                    // A full-size survivor must absorb the whole node
                    // inside the deadline.
                    SoakScenario::Chaos | SoakScenario::Evacuate => {
                        if evac.residual != 0 {
                            fail(format!("{} pages stranded on the node", evac.residual));
                        }
                        if !evac.deadline_met {
                            fail("drain missed the evacuation deadline".into());
                        }
                    }
                    // A squeezed survivor must stall *gracefully*: typed
                    // exhaustion, deadline-expiry conclusion, residual
                    // pages still mapped (and counted above).
                    SoakScenario::Squeeze => {
                        if evac.residual == 0 {
                            fail("squeezed survivor absorbed everything — vacuous".into());
                        }
                        if evac.deadline_met {
                            fail("squeezed drain claims it met the deadline".into());
                        }
                        if !self
                            .degraded
                            .iter()
                            .any(|d| d.contains("capacity exhausted"))
                        {
                            fail("no capacity-exhaustion degradation note".into());
                        }
                    }
                }
            }
        }
        out
    }

    fn artifact_line(&self) -> String {
        format!(
            "campaign {}: accesses={} faults={} health={} ce={} offlined={} \
             mapped=ddr:{}+cxl:{} drain_epochs={} evac={} violations={}\n",
            self.name,
            self.accesses,
            self.faults_injected,
            self.health,
            self.total_ce,
            self.frames_offlined,
            self.mapped_ddr,
            self.mapped_cxl,
            self.drain_epochs,
            self.evacuation
                .map(|e| format!(
                    "moved:{}+residual:{},deadline_met:{},t:{}..{}",
                    e.pages_moved, e.residual, e.deadline_met, e.started.0, e.finished.0
                ))
                .unwrap_or_else(|| "none".into()),
            self.violations.join("; "),
        )
    }
}

/// Renders the canonical line-oriented artifact for a campaign set —
/// byte-comparable between the parallel and sequential drivers.
pub fn artifact(reports: &[CampaignReport]) -> String {
    let mut out = format!("# RAS chaos soak: {} campaigns\n", reports.len());
    for r in reports {
        out.push_str(&r.artifact_line());
    }
    out
}

/// Runs every campaign across the thread pool, merging reports in input
/// order. Campaigns share no state, so this is byte-identical to
/// [`soak_sequential`].
pub fn soak_parallel(specs: &[SoakSpec]) -> Vec<CampaignReport> {
    par_indexed(specs.to_vec(), run_campaign)
}

/// Sequential reference for [`soak_parallel`].
pub fn soak_sequential(specs: &[SoakSpec]) -> Vec<CampaignReport> {
    specs.iter().copied().map(run_campaign).collect()
}

/// All contract violations across a campaign set (empty = the soak passed).
pub fn all_failures(specs: &[SoakSpec], reports: &[CampaignReport]) -> Vec<String> {
    specs
        .iter()
        .zip(reports)
        .flat_map(|(s, r)| r.failures(s))
        .collect()
}
