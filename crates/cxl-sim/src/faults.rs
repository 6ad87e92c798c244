//! Deterministic fault injection for the CXL tier (robustness harness).
//!
//! Real CXL memory expansion is a *device*: it can run slow (thermal
//! throttling, link retraining), go mute (controller resets), hand back
//! poisoned cache lines (ECC), or corrupt its near-memory SRAM state
//! (PAC/WAC/HPT/HWT counters are not protected like host DRAM). A manager
//! that only works on a healthy device is not a manager. This module gives
//! the simulator a way to schedule those failures — reproducibly — so the
//! rest of the stack can prove it degrades instead of crashing.
//!
//! The design has three layers:
//!
//! * [`FaultPlan`] — *what* goes wrong and *when*, as a sorted schedule of
//!   [`ScheduledFault`]s. Plans are built explicitly ([`FaultPlan::with`])
//!   or pseudo-randomly from a seed ([`FaultPlan::chaos`]). A plan is pure
//!   data: two runs with the same workload seed and the same plan produce
//!   identical [`crate::report::RunReport`]s.
//! * [`FaultInjector`] — the runtime consulted by
//!   [`crate::system::System`] on every access and migration. It arms
//!   scheduled faults as simulated time passes, answers "is a stall window
//!   active?"-style queries, and keeps a per-class ledger for the report.
//! * [`DeviceFault`] — the command delivered to near-memory devices
//!   ([`crate::controller::CxlDevice::on_fault`]) so trackers and
//!   profilers can flip, saturate, or kill their SRAM counters.
//!
//! Everything is driven by the *simulated* clock, never wall time, and the
//! empty plan ([`FaultPlan::none`]) is the default everywhere — a run
//! without faults is byte-identical to a run on a build that predates this
//! module.

use crate::addr::VirtAddr;
use crate::memory::OutOfFrames;
use crate::migration::MigrateError;
use crate::time::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Range;

/// The taxonomy of injectable faults, used for counting and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// CXL access latency inflated for a window (link retraining, thermal
    /// throttling).
    LatencySpike,
    /// The controller stops forwarding snoops for a window: near-memory
    /// devices observe nothing (transient controller stall/reset).
    ControllerStall,
    /// A CXL DRAM read returns a poisoned cache line (uncorrectable ECC);
    /// the kernel's memory-failure handling recovers it.
    PoisonedLine,
    /// A single SRAM counter bit flips in every attached device.
    CounterBitFlip,
    /// Every SRAM counter in every attached device saturates at once.
    CounterSaturation,
    /// A near-memory device fails permanently and returns garbage.
    DeviceFailure,
    /// `migrate_pages()`' copy phase fails transiently (DMA error).
    MigrationCopyFail,
    /// DDR allocations fail artificially for a window (external memory
    /// pressure on the fast tier).
    DdrPressure,
    /// The CXL controller resets mid-migration: in-flight transactions are
    /// lost and the migration engine is fenced until
    /// [`crate::system::System::recover`] replays the journal.
    ControllerReset,
    /// A CXL DRAM read was corrected by ECC: harmless in isolation, but
    /// the RAS layer trends the per-frame count and soft-offlines frames
    /// that keep correcting.
    CorrectableEcc,
    /// The CXL link renegotiates to a degraded rate; accesses to the node
    /// slow down by a multiplicative factor until the node is retired.
    LinkDegrade,
    /// The operator (or fabric manager) announces an orderly hot-remove:
    /// the node must be evacuated live and taken offline.
    HotRemove,
    /// The next checkpoint commit crashes mid-write, leaving a torn
    /// snapshot on disk. Consumed by the checkpointing harness (not the
    /// `System` hot path): the commit is truncated at a manifest section
    /// boundary so restore must either reject it and fall back or — for a
    /// crash between the commit renames — find the previous snapshot
    /// still valid.
    TornCheckpoint,
}

impl FaultClass {
    /// All classes, in display order, which is declaration order: entry
    /// `i`'s discriminant is `i`. The RAS classes are appended *after*
    /// the original nine — and [`FaultClass::TornCheckpoint`] after those —
    /// so [`FaultPlan::chaos`]'s per-class RNG draws for the earlier
    /// classes are unchanged for a given seed.
    pub const ALL: [FaultClass; 13] = [
        FaultClass::LatencySpike,
        FaultClass::ControllerStall,
        FaultClass::PoisonedLine,
        FaultClass::CounterBitFlip,
        FaultClass::CounterSaturation,
        FaultClass::DeviceFailure,
        FaultClass::MigrationCopyFail,
        FaultClass::DdrPressure,
        FaultClass::ControllerReset,
        FaultClass::CorrectableEcc,
        FaultClass::LinkDegrade,
        FaultClass::HotRemove,
        FaultClass::TornCheckpoint,
    ];

    /// The class's position in [`FaultClass::ALL`].
    fn index(self) -> usize {
        self as usize
    }

    /// The class's stable kebab-case name (also used as a telemetry label).
    pub const fn label(self) -> &'static str {
        match self {
            FaultClass::LatencySpike => "latency-spike",
            FaultClass::ControllerStall => "controller-stall",
            FaultClass::PoisonedLine => "poisoned-line",
            FaultClass::CounterBitFlip => "counter-bit-flip",
            FaultClass::CounterSaturation => "counter-saturation",
            FaultClass::DeviceFailure => "device-failure",
            FaultClass::MigrationCopyFail => "migration-copy-fail",
            FaultClass::DdrPressure => "ddr-pressure",
            FaultClass::ControllerReset => "controller-reset",
            FaultClass::CorrectableEcc => "correctable-ecc",
            FaultClass::LinkDegrade => "link-degrade",
            FaultClass::HotRemove => "hot-remove",
            FaultClass::TornCheckpoint => "torn-checkpoint",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fault command delivered to attached [`crate::controller::CxlDevice`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFault {
    /// Flip bit `bit` of SRAM counter slot `slot` (devices reduce both
    /// modulo their own geometry).
    SramBitFlip {
        /// Counter slot index (device reduces modulo its SRAM size).
        slot: u64,
        /// Bit position to flip (device reduces modulo its counter width).
        bit: u32,
    },
    /// Saturate every SRAM counter to its maximum value.
    SramSaturate,
    /// Permanent failure: the device stops tracking and serves garbage.
    Fail,
    /// ECC corrected a read of CXL frame `pfn` (a raw frame index the RAS
    /// layer reduces modulo the node's capacity, like `SramBitFlip::slot`).
    /// Routed to [`crate::ras::RasState`], never to snoop devices.
    CorrectableEcc {
        /// Frame index on the CXL node (reduced modulo capacity).
        pfn: u64,
    },
    /// The CXL link retrained to `factor` percent of nominal latency
    /// (`factor >= 100`; 150 means reads take 1.5× as long). Persistent
    /// until the node is retired. Routed to the RAS layer.
    LinkDegrade {
        /// New access latency as a percentage of nominal (>= 100).
        factor: u32,
    },
    /// Orderly hot-remove announcement: the RAS layer must evacuate the
    /// node live and take it offline. Routed to the RAS layer.
    HotRemovePrepare,
}

impl DeviceFault {
    /// The report class of this device fault.
    pub fn class(self) -> FaultClass {
        match self {
            DeviceFault::SramBitFlip { .. } => FaultClass::CounterBitFlip,
            DeviceFault::SramSaturate => FaultClass::CounterSaturation,
            DeviceFault::Fail => FaultClass::DeviceFailure,
            DeviceFault::CorrectableEcc { .. } => FaultClass::CorrectableEcc,
            DeviceFault::LinkDegrade { .. } => FaultClass::LinkDegrade,
            DeviceFault::HotRemovePrepare => FaultClass::HotRemove,
        }
    }

    /// Whether this fault targets the memory device's RAS machinery (and is
    /// therefore delivered to [`crate::ras::RasState`]) rather than the
    /// attached near-memory snoop devices.
    pub fn is_ras(self) -> bool {
        matches!(
            self,
            DeviceFault::CorrectableEcc { .. }
                | DeviceFault::LinkDegrade { .. }
                | DeviceFault::HotRemovePrepare
        )
    }
}

/// What a [`ScheduledFault`] does when it triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Add `extra` to every CXL DRAM access for `duration`.
    LatencySpike {
        /// Additional latency per CXL access while active.
        extra: Nanos,
        /// Window length.
        duration: Nanos,
    },
    /// Drop all snoops for `duration` (devices observe nothing).
    ControllerStall {
        /// Window length.
        duration: Nanos,
    },
    /// Poison the next `reads` CXL miss fills.
    PoisonLine {
        /// Number of subsequent CXL reads that return poison.
        reads: u32,
    },
    /// Deliver a [`DeviceFault`] to every attached device.
    Device(DeviceFault),
    /// Fail the next `attempts` page-migration copies.
    MigrationCopyFail {
        /// Number of subsequent migration attempts that fail.
        attempts: u32,
    },
    /// Make DDR allocations fail for `duration`.
    DdrPressure {
        /// Window length.
        duration: Nanos,
    },
    /// Reset the CXL controller at migration-journal step `at_step` (the
    /// first append whose step counter reaches it after the fault arms):
    /// the in-flight migration dies at exactly that write-ahead boundary
    /// and the engine is fenced until [`crate::system::System::recover`]
    /// runs. Journal-step addressing — rather than a timestamp — is what
    /// lets the crash-point sweep hit *every* transaction state
    /// deterministically.
    ControllerReset {
        /// Journal step index at which the reset strikes.
        at_step: u64,
    },
    /// Tear the next checkpoint commit: the snapshot write crashes after
    /// `at_section` manifest sections have reached disk (an index `>=` the
    /// section count models a crash between the commit renames — the new
    /// snapshot is complete but never promoted into place). Consumed by
    /// the checkpointing harness via
    /// [`FaultInjector::take_torn_checkpoint`].
    TornCheckpoint {
        /// Manifest section index at which the commit is cut short.
        at_section: u64,
    },
}

impl FaultKind {
    /// The report class of this fault.
    pub fn class(self) -> FaultClass {
        match self {
            FaultKind::LatencySpike { .. } => FaultClass::LatencySpike,
            FaultKind::ControllerStall { .. } => FaultClass::ControllerStall,
            FaultKind::PoisonLine { .. } => FaultClass::PoisonedLine,
            FaultKind::Device(d) => d.class(),
            FaultKind::MigrationCopyFail { .. } => FaultClass::MigrationCopyFail,
            FaultKind::DdrPressure { .. } => FaultClass::DdrPressure,
            FaultKind::ControllerReset { .. } => FaultClass::ControllerReset,
            FaultKind::TornCheckpoint { .. } => FaultClass::TornCheckpoint,
        }
    }
}

/// One fault on the schedule: trigger at simulated instant `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Simulated instant at (or after) which the fault triggers.
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// One fault that actually triggered, for the run log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated instant at which the fault armed.
    pub at: Nanos,
    /// Its class.
    pub class: FaultClass,
}

/// A deterministic schedule of faults. Pure data: cloneable, comparable,
/// and reusable across systems.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The empty plan: nothing ever goes wrong. This is the default used by
    /// `System::new`, so fault-free runs are unchanged by this module.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from an explicit schedule (sorted by trigger time; ties keep
    /// insertion order).
    pub fn from_schedule(mut schedule: Vec<ScheduledFault>) -> FaultPlan {
        schedule.sort_by_key(|f| f.at);
        FaultPlan { schedule }
    }

    /// Builder-style: adds one fault and returns the plan.
    pub fn with(mut self, at: Nanos, kind: FaultKind) -> FaultPlan {
        self.schedule.push(ScheduledFault { at, kind });
        self.schedule.sort_by_key(|f| f.at);
        self
    }

    /// A seeded pseudo-random mix of every fault class spread over
    /// `[0, horizon)` — the chaos-harness workhorse. The same `seed` and
    /// `horizon` always produce the same plan.
    pub fn chaos(seed: u64, horizon: Nanos) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4d35_fa17);
        let mut schedule = Vec::new();
        let span = horizon.0.max(8);
        let window = Nanos(span / 20 + 1);
        for class in FaultClass::ALL {
            // Torn checkpoints are harness-level faults: they only matter to
            // runs that actually checkpoint, and scheduling them here would
            // change every existing chaos plan's RNG stream. Skipped before
            // any draw so plans for a given seed are unchanged.
            if class == FaultClass::TornCheckpoint {
                continue;
            }
            for _ in 0..rng.gen_range(1u32..=3) {
                let at = Nanos(rng.gen_range(0..span));
                let kind = match class {
                    FaultClass::LatencySpike => FaultKind::LatencySpike {
                        extra: Nanos(rng.gen_range(100u64..=1_000)),
                        duration: window,
                    },
                    FaultClass::ControllerStall => FaultKind::ControllerStall { duration: window },
                    FaultClass::PoisonedLine => FaultKind::PoisonLine {
                        reads: rng.gen_range(1u32..=4),
                    },
                    FaultClass::CounterBitFlip => FaultKind::Device(DeviceFault::SramBitFlip {
                        slot: rng.gen(),
                        bit: rng.gen_range(0u32..16),
                    }),
                    FaultClass::CounterSaturation => FaultKind::Device(DeviceFault::SramSaturate),
                    FaultClass::DeviceFailure => FaultKind::Device(DeviceFault::Fail),
                    FaultClass::MigrationCopyFail => FaultKind::MigrationCopyFail {
                        attempts: rng.gen_range(1u32..=8),
                    },
                    FaultClass::DdrPressure => FaultKind::DdrPressure { duration: window },
                    FaultClass::ControllerReset => FaultKind::ControllerReset {
                        at_step: rng.gen_range(1u64..=48),
                    },
                    // CE hits are drawn from a small "weak region" so the
                    // same frame can cross the offline threshold within one
                    // campaign — uniformly random frames almost never repeat.
                    FaultClass::CorrectableEcc => FaultKind::Device(DeviceFault::CorrectableEcc {
                        pfn: rng.gen_range(0u64..8),
                    }),
                    FaultClass::LinkDegrade => FaultKind::Device(DeviceFault::LinkDegrade {
                        factor: rng.gen_range(110u32..=300),
                    }),
                    FaultClass::HotRemove => FaultKind::Device(DeviceFault::HotRemovePrepare),
                    // Skipped above before any RNG draw.
                    FaultClass::TornCheckpoint => continue,
                };
                schedule.push(ScheduledFault { at, kind });
            }
        }
        FaultPlan::from_schedule(schedule)
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// The schedule, sorted by trigger time.
    pub fn schedule(&self) -> &[ScheduledFault] {
        &self.schedule
    }
}

/// The runtime that arms [`FaultPlan`] entries as simulated time passes and
/// answers the `System`'s "what is broken right now?" queries.
///
/// It keeps cursors into its schedule rather than copies of its entries:
/// the faults armed so far are the schedule's prefix as long as the log,
/// and device faults are not queued — the `System` delivers each one in
/// the pass that arms it.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    schedule: Vec<ScheduledFault>,
    spike_extra: Nanos,
    spike_until: Nanos,
    stall_until: Nanos,
    pressure_until: Nanos,
    poison_pending: u32,
    copy_fail_pending: u32,
    /// Journal steps of the armed controller resets that have not struck.
    reset_steps: Vec<u64>,
    /// Armed torn-checkpoint entries consumed so far, in schedule order.
    torn_taken: u64,
    /// The arming time of each armed fault: entry `i` is `schedule[i]`'s,
    /// so the length is the arming cursor.
    log: Vec<Nanos>,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// An injector that never injects.
    pub fn none() -> FaultInjector {
        FaultInjector::from_plan(&FaultPlan::none())
    }

    /// An injector executing `plan`.
    pub fn from_plan(plan: &FaultPlan) -> FaultInjector {
        FaultInjector {
            schedule: plan.schedule.clone(),
            spike_extra: Nanos::ZERO,
            spike_until: Nanos::ZERO,
            stall_until: Nanos::ZERO,
            pressure_until: Nanos::ZERO,
            poison_pending: 0,
            copy_fail_pending: 0,
            reset_steps: Vec::new(),
            torn_taken: 0,
            log: Vec::new(),
        }
    }

    /// Arms every scheduled fault whose trigger time has passed and returns
    /// the indices into [`schedule`](FaultInjector::schedule) it armed. The
    /// caller delivers the range's [`FaultKind::Device`] faults; nothing
    /// holds them afterwards, so the `System`'s fault service is the only
    /// caller. It runs once per access segment and before each migration;
    /// cheap when idle.
    #[inline]
    pub(crate) fn poll(&mut self, now: Nanos) -> Range<usize> {
        let first = self.log.len();
        while let Some(&f) = self.schedule.get(self.log.len()) {
            if f.at > now {
                break;
            }
            self.log.push(now);
            match f.kind {
                FaultKind::LatencySpike { .. }
                | FaultKind::ControllerStall { .. }
                | FaultKind::DdrPressure { .. } => self.arm_window(f.kind, now),
                FaultKind::PoisonLine { reads } => {
                    self.poison_pending += reads;
                }
                FaultKind::MigrationCopyFail { attempts } => {
                    self.copy_fail_pending += attempts;
                }
                FaultKind::ControllerReset { at_step } => {
                    self.reset_steps.push(at_step);
                }
                // Delivered by the caller, or read from the armed prefix.
                FaultKind::Device(_) | FaultKind::TornCheckpoint { .. } => {}
            }
        }
        first..self.log.len()
    }

    /// The plan's schedule, sorted by trigger time; the first
    /// `log().len()` entries have armed.
    pub(crate) fn schedule(&self) -> &[ScheduledFault] {
        &self.schedule
    }

    /// The kind of every fault armed so far, in schedule order.
    fn armed(&self) -> impl Iterator<Item = FaultKind> + '_ {
        self.schedule[..self.log.len()].iter().map(|f| f.kind)
    }

    /// Opens or extends the window a latency spike, controller stall or
    /// DDR-pressure fault armed at `now` opens; other kinds have no window.
    /// [`poll`](FaultInjector::poll) and [`restore`](FaultInjector::restore)
    /// share it, so a restored injector re-derives its windows from the log.
    fn arm_window(&mut self, kind: FaultKind, now: Nanos) {
        match kind {
            FaultKind::LatencySpike { extra, duration } => {
                // Overlapping spikes take the larger extra; a spike that
                // arms after the open window closed starts afresh.
                self.spike_extra = if now < self.spike_until {
                    self.spike_extra.max(extra)
                } else {
                    extra
                };
                self.spike_until = self.spike_until.max(now + duration);
            }
            FaultKind::ControllerStall { duration } => {
                self.stall_until = self.stall_until.max(now + duration);
            }
            FaultKind::DdrPressure { duration } => {
                self.pressure_until = self.pressure_until.max(now + duration);
            }
            _ => {}
        }
    }

    /// The earliest instant after `now` at which what an access observes
    /// can change without an intervening [`poll`]: the trigger time of the
    /// next scheduled fault, and the end of every latency-spike, stall and
    /// DDR-pressure window still open at `now`. `None` when the schedule
    /// is exhausted and no window is open.
    ///
    /// Only [`poll`] opens a window, arms a device or RAS fault for
    /// delivery, or arms a poisoned read, and it arms nothing before the
    /// next scheduled fault; an open window closes at its end. So between `now` and this
    /// edge [`cxl_extra_latency`] and [`controller_stalled`] are constant,
    /// and the batch driver reads them once per segment. Poisoned reads
    /// need no edge: each CXL fill consumes one in order. Neither do the
    /// consumables only migrations and checkpoints read (copy failures,
    /// reset steps, torn sections): those run between segments.
    ///
    /// [`poll`]: FaultInjector::poll
    /// [`cxl_extra_latency`]: FaultInjector::cxl_extra_latency
    /// [`controller_stalled`]: FaultInjector::controller_stalled
    #[inline]
    pub(crate) fn next_edge(&self, now: Nanos) -> Option<Nanos> {
        [self.spike_until, self.stall_until, self.pressure_until]
            .into_iter()
            .filter(|&end| end > now)
            .chain(self.schedule.get(self.log.len()).map(|f| f.at))
            .min()
    }

    /// Extra latency added to a CXL access at `now` (zero outside spikes).
    #[inline]
    pub fn cxl_extra_latency(&self, now: Nanos) -> Nanos {
        if now < self.spike_until {
            self.spike_extra
        } else {
            Nanos::ZERO
        }
    }

    /// Whether the controller is stalled (snoops dropped) at `now`.
    #[inline]
    pub fn controller_stalled(&self, now: Nanos) -> bool {
        now < self.stall_until
    }

    /// How much longer the current controller stall lasts at `now` (zero
    /// when no stall is active). The migration watchdog compares this to
    /// its deadline to decide between waiting out the stall and rolling
    /// the transaction back.
    pub fn stall_remaining(&self, now: Nanos) -> Nanos {
        if now < self.stall_until {
            Nanos(self.stall_until.0 - now.0)
        } else {
            Nanos::ZERO
        }
    }

    /// Consumes the controller reset armed for the lowest journal step
    /// index `<= step`, if any. Called by the `System` immediately after
    /// each journal append; `step` is the post-append step counter.
    pub fn take_reset(&mut self, step: u64) -> bool {
        let due = self
            .reset_steps
            .iter()
            .enumerate()
            .filter(|(_, &s)| s <= step)
            .min_by_key(|(_, &s)| s)
            .map(|(i, _)| i);
        match due {
            Some(i) => {
                self.reset_steps.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Whether any armed controller reset has not yet struck.
    pub fn reset_pending(&self) -> bool {
        !self.reset_steps.is_empty()
    }

    /// Consumes the next armed torn-checkpoint fault, if any, returning the
    /// manifest section index at which the commit must be cut short. Called
    /// by the checkpointing harness immediately before each commit.
    pub fn take_torn_checkpoint(&mut self) -> Option<u64> {
        let at = self.armed_torn_sections().nth(self.torn_taken as usize)?;
        self.torn_taken += 1;
        Some(at)
    }

    /// The section index of every armed torn-checkpoint fault, in schedule
    /// order.
    fn armed_torn_sections(&self) -> impl Iterator<Item = u64> + '_ {
        self.armed().filter_map(|k| match k {
            FaultKind::TornCheckpoint { at_section } => Some(at_section),
            _ => None,
        })
    }

    /// Whether DDR allocations are artificially failing at `now`.
    pub fn ddr_pressure(&self, now: Nanos) -> bool {
        now < self.pressure_until
    }

    /// Consumes one pending poisoned read, if armed. The memory-failure
    /// path repairs every poisoned read it takes, so this is also where a
    /// repair is counted (see [`FaultInjector::poison_repairs`]).
    pub fn take_poisoned_read(&mut self) -> bool {
        if self.poison_pending > 0 {
            self.poison_pending -= 1;
            true
        } else {
            false
        }
    }

    /// Consumes one pending migration copy failure, if armed.
    pub fn take_copy_failure(&mut self) -> bool {
        if self.copy_fail_pending > 0 {
            self.copy_fail_pending -= 1;
            true
        } else {
            false
        }
    }

    /// Poisoned lines recovered so far: the poisoned reads armed, less
    /// those still pending.
    pub fn poison_repairs(&self) -> u64 {
        self.poisoned_reads_armed() - u64::from(self.poison_pending)
    }

    /// Poisoned reads armed by the schedule so far.
    fn poisoned_reads_armed(&self) -> u64 {
        self.armed()
            .map(|k| match k {
                FaultKind::PoisonLine { reads } => u64::from(reads),
                _ => 0,
            })
            .sum()
    }

    /// Migration copy failures armed by the schedule so far.
    fn copy_failures_armed(&self) -> u64 {
        self.armed()
            .map(|k| match k {
                FaultKind::MigrationCopyFail { attempts } => u64::from(attempts),
                _ => 0,
            })
            .sum()
    }

    /// Every fault that has armed so far, in arming order. Entry `i` is
    /// `schedule[i]`, so its class is the schedule's.
    pub fn log(&self) -> impl ExactSizeIterator<Item = FaultEvent> + '_ {
        self.log
            .iter()
            .zip(&self.schedule)
            .map(|(&at, f)| FaultEvent {
                at,
                class: f.kind.class(),
            })
    }

    /// Faults armed so far per class, indexed like [`FaultClass::ALL`]:
    /// the per-class histogram of [`FaultInjector::log`], in one pass.
    pub(crate) fn class_counts(&self) -> [u64; FaultClass::ALL.len()] {
        let mut counts = [0; FaultClass::ALL.len()];
        for k in self.armed() {
            counts[k.class().index()] += 1;
        }
        counts
    }

    /// Serializes the injector's dynamic state for a checkpoint. The
    /// schedule itself is not written — it is pure plan data the restoring
    /// process supplies again — only the log of arming times (its length is
    /// the arming cursor), the consumables armed but not yet consumed, and
    /// the count of torn checkpoints taken. The spike, stall and pressure
    /// windows and the poison-repair count are not written: restore derives
    /// them from the log and the schedule.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64(self.log.len() as u64);
        for at in &self.log {
            w.put_u64(at.0);
        }
        w.put_u32(self.poison_pending);
        w.put_u32(self.copy_fail_pending);
        w.put_u64_slice(&self.reset_steps);
        w.put_u64(self.torn_taken);
    }

    /// Rebuilds an injector executing `plan` from a checkpoint section.
    /// The supplied plan must be the one the checkpointed run used; the
    /// log is validated against it. The fault windows are re-armed from
    /// the log by the routine `poll` uses.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, and
    /// rejects a state `poll` and the consumers cannot build:
    /// - a log longer than `plan`, whose times decrease, whose entry `i`
    ///   armed before `schedule[i]` was due, or whose last entry armed
    ///   when the next entry was already due (that poll would have armed
    ///   it too);
    /// - more pending poisoned reads or copy failures than the armed
    ///   entries add up to;
    /// - a pending reset step that is not the `at_step` of a distinct
    ///   armed controller reset;
    /// - more torn checkpoints taken than armed.
    pub fn restore(
        plan: &FaultPlan,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<FaultInjector, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let bad = |what, value| Err(CodecError::BadValue { what, value });
        let mut inj = FaultInjector::from_plan(plan);
        let armed = r.get_u64()?;
        if armed > inj.schedule.len() as u64 {
            return bad("fault-injector schedule cursor", armed);
        }
        let mut last = Nanos::ZERO;
        for i in 0..armed as usize {
            let f = inj.schedule[i];
            let at = Nanos(r.get_u64()?);
            if at < last || at < f.at {
                return bad("fault-event arming time", at.0);
            }
            last = at;
            inj.log.push(at);
            inj.arm_window(f.kind, at);
        }
        if armed > 0
            && inj
                .schedule
                .get(armed as usize)
                .is_some_and(|f| f.at <= last)
        {
            return bad("fault-event arming time", last.0);
        }
        inj.poison_pending = r.get_u32()?;
        if u64::from(inj.poison_pending) > inj.poisoned_reads_armed() {
            return bad(
                "fault-injector pending poisoned reads",
                inj.poison_pending.into(),
            );
        }
        inj.copy_fail_pending = r.get_u32()?;
        if u64::from(inj.copy_fail_pending) > inj.copy_failures_armed() {
            return bad(
                "fault-injector pending copy failures",
                inj.copy_fail_pending.into(),
            );
        }
        inj.reset_steps = r.get_u64_vec()?;
        let mut unmatched: Vec<u64> = inj
            .armed()
            .filter_map(|k| match k {
                FaultKind::ControllerReset { at_step } => Some(at_step),
                _ => None,
            })
            .collect();
        for &step in &inj.reset_steps {
            match unmatched.iter().position(|&s| s == step) {
                Some(i) => {
                    unmatched.swap_remove(i);
                }
                None => return bad("fault-injector pending reset step", step),
            }
        }
        inj.torn_taken = r.get_u64()?;
        if inj.torn_taken > inj.armed_torn_sections().count() as u64 {
            return bad("fault-injector torn checkpoints taken", inj.torn_taken);
        }
        Ok(inj)
    }
}

/// Unified simulator error taxonomy: things that can go wrong on the hot
/// paths and are *recoverable* by the caller (as opposed to invariant
/// violations, which remain `debug_assert!`s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An access touched an address no region maps.
    Unmapped(VirtAddr),
    /// A page migration failed.
    Migrate(MigrateError),
    /// A frame allocation failed.
    OutOfFrames(OutOfFrames),
    /// An allocation targeted a node the RAS layer has taken offline.
    NodeOffline(crate::memory::NodeId),
    /// No node in the tier can absorb the request: the survivor's free
    /// list is exhausted (e.g. mid-evacuation drain with a full fast tier).
    CapacityExhausted(crate::memory::NodeId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unmapped(a) => write!(f, "access to unmapped address {a:?}"),
            SimError::Migrate(e) => write!(f, "migration failed: {e}"),
            SimError::OutOfFrames(e) => write!(f, "allocation failed: {e}"),
            SimError::NodeOffline(n) => write!(f, "allocation on offline node {}", n.label()),
            SimError::CapacityExhausted(n) => {
                write!(f, "capacity exhausted on survivor node {}", n.label())
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Migrate(e) => Some(e),
            SimError::OutOfFrames(e) => Some(e),
            SimError::Unmapped(_) | SimError::NodeOffline(_) | SimError::CapacityExhausted(_) => {
                None
            }
        }
    }
}

impl From<MigrateError> for SimError {
    fn from(e: MigrateError) -> SimError {
        SimError::Migrate(e)
    }
}

impl From<OutOfFrames> for SimError {
    fn from(e: OutOfFrames) -> SimError {
        SimError::OutOfFrames(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Faults of `class` armed so far.
    fn count_of(inj: &FaultInjector, class: FaultClass) -> u64 {
        inj.class_counts()[class.index()]
    }

    #[test]
    fn empty_plan_never_arms() {
        let mut inj = FaultInjector::none();
        assert!(inj.poll(Nanos::from_secs(10)).is_empty());
        assert_eq!(inj.log().len(), 0);
        assert_eq!(inj.cxl_extra_latency(Nanos(5)), Nanos::ZERO);
        assert!(!inj.controller_stalled(Nanos(5)));
        assert!(!inj.ddr_pressure(Nanos(5)));
        assert!(!inj.take_poisoned_read());
        assert!(!inj.take_copy_failure());
    }

    #[test]
    fn all_lists_the_classes_in_discriminant_order() {
        for (i, class) in FaultClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class}");
        }
    }

    #[test]
    fn windows_open_and_close_on_the_simulated_clock() {
        let plan = FaultPlan::none()
            .with(
                Nanos(100),
                FaultKind::LatencySpike {
                    extra: Nanos(500),
                    duration: Nanos(50),
                },
            )
            .with(
                Nanos(100),
                FaultKind::ControllerStall {
                    duration: Nanos(30),
                },
            )
            .with(
                Nanos(100),
                FaultKind::DdrPressure {
                    duration: Nanos(70),
                },
            );
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(99));
        assert_eq!(inj.log().len(), 0, "nothing due yet");
        inj.poll(Nanos(100));
        assert_eq!(inj.log().len(), 3);
        assert_eq!(inj.cxl_extra_latency(Nanos(120)), Nanos(500));
        assert!(inj.controller_stalled(Nanos(120)));
        assert!(inj.ddr_pressure(Nanos(120)));
        // Windows close independently.
        assert!(!inj.controller_stalled(Nanos(130)));
        assert_eq!(inj.cxl_extra_latency(Nanos(150)), Nanos::ZERO);
        assert!(inj.ddr_pressure(Nanos(169)));
        assert!(!inj.ddr_pressure(Nanos(170)));
    }

    #[test]
    fn one_shot_faults_are_consumed() {
        let plan = FaultPlan::none()
            .with(Nanos::ZERO, FaultKind::PoisonLine { reads: 2 })
            .with(Nanos::ZERO, FaultKind::MigrationCopyFail { attempts: 1 })
            .with(Nanos::ZERO, FaultKind::Device(DeviceFault::Fail));
        let mut inj = FaultInjector::from_plan(&plan);
        // The device fault is returned for delivery once, in the poll that
        // arms it.
        assert_eq!(inj.poll(Nanos::ZERO), 0..3);
        assert_eq!(inj.schedule()[2].kind, FaultKind::Device(DeviceFault::Fail));
        assert!(inj.poll(Nanos::ZERO).is_empty());
        assert!(inj.take_poisoned_read());
        assert!(inj.take_poisoned_read());
        assert!(!inj.take_poisoned_read());
        assert!(inj.take_copy_failure());
        assert!(!inj.take_copy_failure());
        assert_eq!(count_of(&inj, FaultClass::PoisonedLine), 1);
        assert_eq!(count_of(&inj, FaultClass::DeviceFailure), 1);
    }

    #[test]
    fn chaos_plans_are_seed_deterministic_and_cover_all_classes() {
        let a = FaultPlan::chaos(7, Nanos::from_millis(10));
        let b = FaultPlan::chaos(7, Nanos::from_millis(10));
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::chaos(8, Nanos::from_millis(10));
        assert_ne!(a, c, "different seed, different plan");
        for class in FaultClass::ALL {
            if class == FaultClass::TornCheckpoint {
                // Harness-level fault: excluded from chaos plans so seeded
                // plans predating it are byte-identical.
                assert!(
                    !a.schedule().iter().any(|f| f.kind.class() == class),
                    "chaos plans must not schedule torn checkpoints"
                );
                continue;
            }
            assert!(
                a.schedule().iter().any(|f| f.kind.class() == class),
                "chaos plan misses {class}"
            );
        }
        // Sorted by trigger time.
        assert!(a.schedule().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn torn_checkpoints_arm_and_consume_in_order() {
        let plan = FaultPlan::none()
            .with(Nanos(10), FaultKind::TornCheckpoint { at_section: 3 })
            .with(Nanos(20), FaultKind::TornCheckpoint { at_section: 0 });
        let mut inj = FaultInjector::from_plan(&plan);
        assert!(inj.take_torn_checkpoint().is_none());
        inj.poll(Nanos(10));
        assert_eq!(inj.take_torn_checkpoint(), Some(3));
        assert!(inj.take_torn_checkpoint().is_none());
        inj.poll(Nanos(25));
        assert_eq!(inj.take_torn_checkpoint(), Some(0));
        assert!(inj.take_torn_checkpoint().is_none());
        assert_eq!(count_of(&inj, FaultClass::TornCheckpoint), 2);
    }

    #[test]
    fn the_next_scheduled_fault_is_an_edge_until_polled() {
        let plan = FaultPlan::none().with(Nanos(100), FaultKind::PoisonLine { reads: 1 });
        let mut inj = FaultInjector::from_plan(&plan);
        assert_eq!(inj.next_edge(Nanos(99)), Some(Nanos(100)));
        // Due but not yet polled: still the edge, so a segment opened now
        // ends after one access and the next prologue polls it.
        assert_eq!(inj.next_edge(Nanos(100)), Some(Nanos(100)));
        inj.poll(Nanos(100));
        // A pending poisoned read is consumed per fill and cuts nothing.
        assert_eq!(inj.next_edge(Nanos(100)), None);
        assert!(inj.take_poisoned_read());
        assert!(!inj.take_poisoned_read());
    }

    #[test]
    fn boundary_only_consumables_are_not_edges() {
        for kind in [
            FaultKind::MigrationCopyFail { attempts: 2 },
            FaultKind::ControllerReset { at_step: 1 << 40 },
            FaultKind::TornCheckpoint { at_section: 1 },
        ] {
            let mut inj = FaultInjector::from_plan(&FaultPlan::none().with(Nanos(10), kind));
            inj.poll(Nanos(10));
            assert_eq!(inj.next_edge(Nanos(10)), None, "{kind:?} pending");
            let armed = match kind {
                FaultKind::MigrationCopyFail { .. } => inj.take_copy_failure(),
                FaultKind::ControllerReset { .. } => inj.reset_pending(),
                _ => inj.take_torn_checkpoint().is_some(),
            };
            assert!(armed, "{kind:?} stays armed for its boundary");
        }
    }

    #[test]
    fn open_windows_end_at_an_edge_and_closed_ones_do_not() {
        let window = Nanos(50);
        for kind in [
            FaultKind::LatencySpike {
                extra: Nanos(300),
                duration: window,
            },
            FaultKind::ControllerStall { duration: window },
            FaultKind::DdrPressure { duration: window },
        ] {
            let plan = FaultPlan::none()
                .with(Nanos(10), kind)
                .with(Nanos(1_000), FaultKind::PoisonLine { reads: 1 });
            let mut inj = FaultInjector::from_plan(&plan);
            inj.poll(Nanos(10));
            assert_eq!(inj.next_edge(Nanos(10)), Some(Nanos(60)), "{kind:?} open");
            assert_eq!(inj.next_edge(Nanos(59)), Some(Nanos(60)), "{kind:?} open");
            assert_eq!(
                inj.next_edge(Nanos(60)),
                Some(Nanos(1_000)),
                "{kind:?} closed: only the schedule remains"
            );
        }
        // Device and RAS faults are delivered by the segment prologue whose
        // poll armed them; they add no later edge.
        for d in [
            DeviceFault::SramSaturate,
            DeviceFault::CorrectableEcc { pfn: 3 },
            DeviceFault::LinkDegrade { factor: 150 },
        ] {
            let plan = FaultPlan::none().with(Nanos(10), FaultKind::Device(d));
            let mut inj = FaultInjector::from_plan(&plan);
            assert_eq!(inj.poll(Nanos(10)), 0..1, "{d:?} armed for delivery");
            assert_eq!(inj.next_edge(Nanos(10)), None, "{d:?} delivered");
        }
    }

    #[test]
    fn injector_checkpoint_roundtrip_preserves_armed_state() {
        let plan = FaultPlan::none()
            .with(
                Nanos(50),
                FaultKind::LatencySpike {
                    extra: Nanos(700),
                    duration: Nanos(100),
                },
            )
            .with(Nanos(50), FaultKind::PoisonLine { reads: 3 })
            .with(Nanos(60), FaultKind::ControllerReset { at_step: 9 })
            .with(
                Nanos(60),
                FaultKind::Device(DeviceFault::SramBitFlip { slot: 12, bit: 5 }),
            )
            .with(
                Nanos(60),
                FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 4 }),
            )
            .with(Nanos(70), FaultKind::TornCheckpoint { at_section: 2 })
            .with(Nanos(500), FaultKind::Device(DeviceFault::Fail));
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(80));
        assert!(inj.take_poisoned_read());
        assert_eq!(inj.poison_repairs(), 1);

        let mut w = crate::checkpoint::StateWriter::new();
        inj.save(&mut w);
        let bytes = w.finish();
        let mut r = crate::checkpoint::StateReader::new(&bytes);
        let restored = FaultInjector::restore(&plan, &mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(format!("{inj:?}"), format!("{restored:?}"));
        // Only the unfired schedule entry arms after restore; the device
        // faults armed before the checkpoint were delivered then.
        let mut restored = restored;
        assert_eq!(restored.poll(Nanos(500)), 6..7);
        assert_eq!(restored.take_torn_checkpoint(), Some(2));
        assert!(restored.take_reset(9));
    }

    #[test]
    fn injector_restore_rejects_cursor_past_schedule() {
        let plan = FaultPlan::none().with(Nanos(1), FaultKind::PoisonLine { reads: 1 });
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(5));
        let mut w = crate::checkpoint::StateWriter::new();
        inj.save(&mut w);
        let bytes = w.finish();
        // Restoring against the empty plan: log length 1 > schedule length 0.
        let mut r = crate::checkpoint::StateReader::new(&bytes);
        let err = FaultInjector::restore(&FaultPlan::none(), &mut r).unwrap_err();
        assert!(matches!(
            err,
            crate::checkpoint::CodecError::BadValue {
                what: "fault-injector schedule cursor",
                ..
            }
        ));
    }

    #[test]
    fn injector_restore_rejects_logs_poll_cannot_build() {
        use crate::checkpoint::{CodecError, StateReader, StateWriter};
        // `poll` logs one arming time per armed schedule item, in order, no
        // earlier than the item was due, and arms every item due by the
        // time it logs. A log one entry shorter is a state an earlier poll
        // reached, so it is not among these.
        let plan = FaultPlan::none()
            .with(Nanos(10), FaultKind::PoisonLine { reads: 1 })
            .with(Nanos(20), FaultKind::Device(DeviceFault::SramSaturate))
            .with(Nanos(30), FaultKind::Device(DeviceFault::Fail));
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(15));
        inj.poll(Nanos(25));
        let [a, b] = [inj.log[0], inj.log[1]];
        let bad_logs = [
            ("longer than the schedule", vec![a, b, b, b]),
            ("times decrease", vec![b, a]),
            ("armed before due", vec![a, Nanos(19)]),
            ("armed when the cursor's entry was due", vec![a, Nanos(30)]),
        ];
        for (what, log) in bad_logs {
            let mut bad = inj.clone();
            bad.log = log;
            let mut w = StateWriter::new();
            bad.save(&mut w);
            let bytes = w.finish();
            let err = FaultInjector::restore(&plan, &mut StateReader::new(&bytes));
            assert!(
                matches!(err, Err(CodecError::BadValue { .. })),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn injector_restore_rejects_consumables_never_armed() {
        use crate::checkpoint::{CodecError, StateReader, StateWriter};
        let plan = FaultPlan::none()
            .with(Nanos(10), FaultKind::MigrationCopyFail { attempts: 2 })
            .with(Nanos(10), FaultKind::ControllerReset { at_step: 4 })
            .with(Nanos(10), FaultKind::TornCheckpoint { at_section: 1 })
            .with(Nanos(90), FaultKind::ControllerReset { at_step: 7 });
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(10));
        let restore = |inj: &FaultInjector| {
            let mut w = StateWriter::new();
            inj.save(&mut w);
            let bytes = w.finish();
            FaultInjector::restore(&plan, &mut StateReader::new(&bytes))
        };
        restore(&inj).expect("the armed state restores");

        let mut more_copy_failures = inj.clone();
        more_copy_failures.copy_fail_pending = 3;
        let mut unarmed_reset = inj.clone();
        unarmed_reset.reset_steps = vec![7];
        let mut repeated_reset = inj.clone();
        repeated_reset.reset_steps = vec![4, 4];
        let mut unarmed_torn = inj.clone();
        unarmed_torn.torn_taken = 2;
        for (what, bad) in [
            ("more copy failures than armed", more_copy_failures),
            ("a reset step no armed entry has", unarmed_reset),
            ("one armed reset pending twice", repeated_reset),
            ("more torn checkpoints taken than armed", unarmed_torn),
        ] {
            let err = restore(&bad);
            assert!(
                matches!(err, Err(CodecError::BadValue { .. })),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn controller_resets_fire_at_journal_steps() {
        let plan = FaultPlan::none()
            .with(Nanos::ZERO, FaultKind::ControllerReset { at_step: 3 })
            .with(Nanos::ZERO, FaultKind::ControllerReset { at_step: 7 });
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos::ZERO);
        assert_eq!(count_of(&inj, FaultClass::ControllerReset), 2);
        assert!(inj.reset_pending());
        assert!(!inj.take_reset(2), "step 2 is before both resets");
        assert!(inj.take_reset(5), "step 5 consumes the step-3 reset");
        assert!(inj.reset_pending());
        assert!(!inj.take_reset(5));
        assert!(inj.take_reset(7));
        assert!(!inj.reset_pending());
        assert!(!inj.take_reset(100));
    }

    #[test]
    fn stall_remaining_tracks_the_window() {
        let plan = FaultPlan::none().with(
            Nanos(100),
            FaultKind::ControllerStall {
                duration: Nanos(40),
            },
        );
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(100));
        assert_eq!(inj.stall_remaining(Nanos(110)), Nanos(30));
        assert_eq!(inj.stall_remaining(Nanos(140)), Nanos::ZERO);
        assert_eq!(inj.stall_remaining(Nanos(90)), Nanos(50));
    }

    #[test]
    fn sim_error_displays_and_chains() {
        let e = SimError::from(MigrateError::Pinned);
        assert!(e.to_string().contains("migration failed"));
        assert!(std::error::Error::source(&e).is_some());
        let u = SimError::Unmapped(VirtAddr(0x1000));
        assert!(std::error::Error::source(&u).is_none());
        let o = SimError::from(OutOfFrames {
            node: crate::memory::NodeId::Ddr,
        });
        assert!(o.to_string().contains("allocation failed"));
    }

    #[test]
    fn overlapping_spikes_take_the_max() {
        let plan = FaultPlan::none()
            .with(
                Nanos(0),
                FaultKind::LatencySpike {
                    extra: Nanos(200),
                    duration: Nanos(100),
                },
            )
            .with(
                Nanos(10),
                FaultKind::LatencySpike {
                    extra: Nanos(900),
                    duration: Nanos(20),
                },
            );
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(10));
        assert_eq!(inj.cxl_extra_latency(Nanos(15)), Nanos(900));
        assert_eq!(count_of(&inj, FaultClass::LatencySpike), 2);
    }

    #[test]
    fn a_closed_spike_does_not_leak_into_the_next() {
        let spike = |extra| FaultKind::LatencySpike {
            extra: Nanos(extra),
            duration: Nanos(100),
        };
        let plan = FaultPlan::none()
            .with(Nanos(0), spike(900))
            .with(Nanos(500), spike(200));
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(0));
        assert_eq!(inj.cxl_extra_latency(Nanos(50)), Nanos(900));
        inj.poll(Nanos(500));
        assert_eq!(inj.cxl_extra_latency(Nanos(550)), Nanos(200));

        // A restore re-arms the windows with the same rule.
        let mut w = crate::checkpoint::StateWriter::new();
        inj.save(&mut w);
        let bytes = w.finish();
        let mut r = crate::checkpoint::StateReader::new(&bytes);
        let restored = FaultInjector::restore(&plan, &mut r).unwrap();
        assert_eq!(restored.cxl_extra_latency(Nanos(550)), Nanos(200));
    }
}
