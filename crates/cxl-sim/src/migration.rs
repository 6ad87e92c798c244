//! Page-migration types: errors, statistics, and batching helpers.
//!
//! The migration *mechanics* live on [`crate::system::System`] (they need
//! the page table, TLB, LLC, frame allocators, and the kernel-cost ledger at
//! once); this module defines the shared vocabulary.

use crate::addr::CacheLineAddr;
use crate::addr::Vpn;
use crate::journal::TxnState;
use crate::memory::{NodeId, OutOfFrames};
use crate::time::Nanos;
use std::fmt;

/// Why a page could not be migrated, carrying the failing transaction
/// phase/frame where one exists so degradation stats can distinguish
/// rollback causes.
///
/// `Pinned` and `NodeBound` correspond to the Promoter's safety checks in
/// §5.2: pages pinned for DMA, or explicitly bound to the CXL device by the
/// user, must be rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MigrateError {
    /// The virtual page is not mapped.
    NotMapped,
    /// The page is already resident on the requested node.
    AlreadyThere,
    /// The page is pinned (e.g. for DMA).
    Pinned,
    /// The user explicitly bound the page to the CXL node.
    NodeBound,
    /// The destination node has no free frame for the shadow copy; the
    /// transaction aborted at `Intent`.
    NoFreeFrame(OutOfFrames),
    /// The destination node has no free frame, but only because frames sit
    /// in quarantine awaiting a scrub — the capacity will come back without
    /// demotion.
    Quarantined {
        /// The node whose free list is exhausted by quarantined frames.
        node: NodeId,
    },
    /// The copy engine faulted mid-copy; the shadow frame (first failing
    /// cache line recorded here) was quarantined and the transaction rolled
    /// back. The source page is intact and the attempt may be retried.
    Copy {
        /// First cache line of the quarantined shadow frame.
        line: CacheLineAddr,
    },
    /// A controller reset struck at a journal-append boundary: the engine
    /// is fenced and the transaction will be resolved by
    /// [`crate::system::System::recover`]. `phase` is the last journal
    /// state the transaction durably reached.
    Remap {
        /// Last durable transaction state before the reset.
        phase: TxnState,
    },
    /// The migration engine is fenced after a controller reset;
    /// [`crate::system::System::recover`] must replay the journal before
    /// new migrations start.
    NeedsRecovery,
    /// The watchdog rolled the transaction back rather than wait out a
    /// controller stall longer than the configured deadline.
    Stalled {
        /// How long the copy phase would have had to wait.
        waited: Nanos,
    },
    /// The destination node is being evacuated (or already offline) by the
    /// RAS layer: no new pages may land on it.
    NodeOffline {
        /// The evacuating/offline destination node.
        node: NodeId,
    },
}

impl MigrateError {
    /// Whether retrying the same migration later can plausibly succeed.
    /// Capacity (`NoFreeFrame`/`Quarantined`), transient device faults
    /// (`Copy`/`Stalled`), and reset recovery (`Remap`/`NeedsRecovery`)
    /// all clear on their own or via demotion/scrub/recovery. The
    /// safety-check rejections are permanent (until the caller changes the
    /// page's state).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MigrateError::NoFreeFrame(_)
                | MigrateError::Quarantined { .. }
                | MigrateError::Copy { .. }
                | MigrateError::Remap { .. }
                | MigrateError::NeedsRecovery
                | MigrateError::Stalled { .. }
        )
    }

    /// Stable kebab-case name of the rollback/rejection cause, used as a
    /// telemetry label by the promoter's degradation stats.
    pub const fn cause_label(&self) -> &'static str {
        match self {
            MigrateError::NotMapped => "not-mapped",
            MigrateError::AlreadyThere => "already-there",
            MigrateError::Pinned => "pinned",
            MigrateError::NodeBound => "node-bound",
            MigrateError::NoFreeFrame(_) => "no-free-frame",
            MigrateError::Quarantined { .. } => "quarantined",
            MigrateError::Copy { .. } => "copy-fault",
            MigrateError::Remap { .. } => "reset-fenced",
            MigrateError::NeedsRecovery => "needs-recovery",
            MigrateError::Stalled { .. } => "watchdog-stall",
            MigrateError::NodeOffline { .. } => "node-offline",
        }
    }
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::NotMapped => f.write_str("page is not mapped"),
            MigrateError::AlreadyThere => f.write_str("page already resides on the target node"),
            MigrateError::Pinned => f.write_str("page is pinned and cannot be migrated"),
            MigrateError::NodeBound => f.write_str("page is explicitly bound to its node"),
            MigrateError::NoFreeFrame(e) => write!(f, "no free frame for shadow copy: {e}"),
            MigrateError::Quarantined { node } => {
                write!(f, "node {node} frames are quarantined pending scrub")
            }
            MigrateError::Copy { line } => {
                write!(
                    f,
                    "copy engine faulted; shadow frame at {line:?} quarantined"
                )
            }
            MigrateError::Remap { phase } => {
                write!(
                    f,
                    "controller reset during {phase}; journal recovery pending"
                )
            }
            MigrateError::NeedsRecovery => {
                f.write_str("migration engine fenced; journal recovery required")
            }
            MigrateError::Stalled { waited } => {
                write!(f, "watchdog rolled back migration stalled for {waited}")
            }
            MigrateError::NodeOffline { node } => {
                write!(
                    f,
                    "node {node} is evacuating/offline; no new pages may land"
                )
            }
        }
    }
}

impl std::error::Error for MigrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MigrateError::NoFreeFrame(e) => Some(e),
            _ => None,
        }
    }
}

/// Cumulative migration statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Pages moved CXL → DDR.
    pub promotions: u64,
    /// Pages moved DDR → CXL.
    pub demotions: u64,
    /// Migration attempts rejected by safety checks or capacity.
    pub rejected: u64,
}

impl MigrationStats {
    /// Total pages moved in either direction.
    pub fn total_moved(&self) -> u64 {
        self.promotions + self.demotions
    }
}

/// The outcome of a batched `migrate_pages()`-style call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchOutcome {
    /// Pages successfully migrated.
    pub migrated: Vec<Vpn>,
    /// Pages rejected, with the reason.
    pub rejected: Vec<(Vpn, MigrateError)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = MigrateError::NoFreeFrame(OutOfFrames { node: NodeId::Ddr });
        assert!(e.to_string().contains("no free frame"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&MigrateError::Pinned).is_none());
        let c = MigrateError::Copy {
            line: CacheLineAddr(0x40),
        };
        assert!(c.to_string().contains("quarantined"));
        let r = MigrateError::Remap {
            phase: TxnState::CopyInProgress,
        };
        assert!(r.to_string().contains("copy-in-progress"));
    }

    #[test]
    fn transient_errors_are_classified() {
        for e in [
            MigrateError::NoFreeFrame(OutOfFrames { node: NodeId::Ddr }),
            MigrateError::Quarantined { node: NodeId::Ddr },
            MigrateError::Copy {
                line: CacheLineAddr(0),
            },
            MigrateError::Remap {
                phase: TxnState::Intent,
            },
            MigrateError::NeedsRecovery,
            MigrateError::Stalled { waited: Nanos(1) },
        ] {
            assert!(e.is_transient(), "{e} should be transient");
        }
        for e in [
            MigrateError::NotMapped,
            MigrateError::AlreadyThere,
            MigrateError::Pinned,
            MigrateError::NodeBound,
            MigrateError::NodeOffline { node: NodeId::Cxl },
        ] {
            assert!(!e.is_transient(), "{e} should be permanent");
        }
    }

    #[test]
    fn cause_labels_are_distinct() {
        let labels = [
            MigrateError::NotMapped.cause_label(),
            MigrateError::AlreadyThere.cause_label(),
            MigrateError::Pinned.cause_label(),
            MigrateError::NodeBound.cause_label(),
            MigrateError::NoFreeFrame(OutOfFrames { node: NodeId::Ddr }).cause_label(),
            MigrateError::Quarantined { node: NodeId::Ddr }.cause_label(),
            MigrateError::Copy {
                line: CacheLineAddr(0),
            }
            .cause_label(),
            MigrateError::Remap {
                phase: TxnState::Intent,
            }
            .cause_label(),
            MigrateError::NeedsRecovery.cause_label(),
            MigrateError::Stalled { waited: Nanos(1) }.cause_label(),
            MigrateError::NodeOffline { node: NodeId::Cxl }.cause_label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
