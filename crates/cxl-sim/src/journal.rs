//! Write-ahead migration journal: crash-consistent page-migration
//! transactions.
//!
//! Every page migration is a transaction walked through a fixed state
//! machine, with one journal record appended per transition (the journal
//! step counter is the crash-point index used by the sweep harness):
//!
//! ```text
//!            ┌────────┐     ┌────────────────┐     ┌──────────┐     ┌───────────┐
//!  begin ──▶ │ Intent │ ──▶ │ CopyInProgress │ ──▶ │ Remapped │ ──▶ │ Committed │
//!            └────────┘     └────────────────┘     └──────────┘     └───────────┘
//!                 │                  │                   │
//!                 ▼                  ▼                   ▼
//!            ┌─────────┐      ┌────────────┐      ┌────────────┐
//!            │ Aborted │      │ RolledBack │      │ RolledBack │
//!            └─────────┘      └────────────┘      └────────────┘
//! ```
//!
//! * `Intent` — the write-ahead promise: transaction opened, nothing
//!   mutated yet. Recovery aborts it.
//! * `CopyInProgress` — a shadow frame is allocated on the destination and
//!   the copy engine is running; the source mapping is untouched. Recovery
//!   frees the shadow frame and rolls back.
//! * `Remapped` — the page table now points at the shadow frame; the source
//!   frame is still allocated. Recovery inspects the page table: if the
//!   remap landed it rolls *forward* (frees the source, counts the
//!   migration), otherwise it rolls back.
//! * `Committed` / `Aborted` / `RolledBack` — terminal; the transaction is
//!   retired into [`JournalCounters`] immediately so counters and journal
//!   can never disagree.
//!
//! The journal is pure bookkeeping — the mutation mechanics (allocator,
//! page table, TLB, LLC) live on [`crate::system::System`], which also
//! bills each append as kernel time ([`crate::kernel::CostKind::JournalWrite`]):
//! a real write-ahead log costs a cacheline write plus a barrier per
//! record, and charging it keeps the simulator's §4.2-style overhead
//! accounting honest.

use crate::addr::Pfn;
use crate::addr::Vpn;
use crate::memory::NodeId;
use m5_telemetry::SpanId;
use std::fmt;

/// One state of the migration-transaction state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxnState {
    /// Transaction opened; nothing mutated yet.
    Intent,
    /// Shadow frame allocated, copy engine running.
    CopyInProgress,
    /// Page table switched to the shadow frame; source not yet freed.
    Remapped,
    /// Terminal: migration complete and counted.
    Committed,
    /// Terminal: gave up before mutating anything (e.g. no free frame).
    Aborted,
    /// Terminal: undone after a mid-flight failure (copy fault, watchdog,
    /// controller reset).
    RolledBack,
}

impl TxnState {
    /// Whether this state ends the transaction.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TxnState::Committed | TxnState::Aborted | TxnState::RolledBack
        )
    }

    /// The state's stable kebab-case name (also used as a telemetry label).
    pub const fn label(self) -> &'static str {
        match self {
            TxnState::Intent => "intent",
            TxnState::CopyInProgress => "copy-in-progress",
            TxnState::Remapped => "remapped",
            TxnState::Committed => "committed",
            TxnState::Aborted => "aborted",
            TxnState::RolledBack => "rolled-back",
        }
    }
}

impl fmt::Display for TxnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of one migration transaction (monotone per journal).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxnId(pub u64);

/// One migration transaction, as recorded in the journal.
#[derive(Clone, Copy, Debug)]
pub struct MigrationTxn {
    /// Transaction identifier.
    pub id: TxnId,
    /// The page being migrated.
    pub vpn: Vpn,
    /// The frame the page occupied when the transaction opened.
    pub src: Pfn,
    /// The destination node.
    pub dst: NodeId,
    /// The shadow frame, once allocated (set at `CopyInProgress`).
    pub shadow: Option<Pfn>,
    /// Current state.
    pub state: TxnState,
    /// The telemetry span opened for this transaction, ended at the
    /// terminal transition (or during recovery).
    pub span: Option<SpanId>,
}

/// Terminal-state tallies, retired from the journal as transactions close.
/// The committed counts are the machine's one ledger of completed
/// migrations: [`System::migration_stats`](crate::system::System::migration_stats)
/// reads its promotions and demotions from here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalCounters {
    /// Committed transactions that promoted a page (CXL → DDR).
    pub committed_promotions: u64,
    /// Committed transactions that demoted a page (DDR → CXL).
    pub committed_demotions: u64,
    /// Transactions aborted before mutating anything.
    pub aborted: u64,
    /// Transactions rolled back after a mid-flight failure.
    pub rolled_back: u64,
}

impl JournalCounters {
    /// Committed transactions in either direction.
    pub fn committed(&self) -> u64 {
        self.committed_promotions + self.committed_demotions
    }

    /// Transactions that reached any terminal state.
    pub fn terminal(&self) -> u64 {
        self.committed() + self.aborted + self.rolled_back
    }
}

/// What [`crate::system::System::recover`] did with the journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Open transactions inspected.
    pub scanned: u64,
    /// `Intent` transactions aborted (nothing was mutated).
    pub aborted: u64,
    /// Transactions rolled back (shadow frame freed).
    pub rolled_back: u64,
    /// `Remapped` transactions rolled forward to `Committed` (source frame
    /// freed, migration counted).
    pub rolled_forward: u64,
}

impl RecoveryReport {
    /// Whether recovery had nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.scanned == 0
    }
}

/// The write-ahead intent log. Holds the open (in-flight) transactions and
/// the terminal counters; every append bumps the step counter that the
/// crash-point sweep indexes.
#[derive(Clone, Debug, Default)]
pub struct MigrationJournal {
    open: Vec<MigrationTxn>,
    steps: u64,
    counters: JournalCounters,
    fenced: bool,
}

impl MigrationJournal {
    /// An empty journal.
    pub fn new() -> MigrationJournal {
        MigrationJournal::default()
    }

    /// Opens a transaction for moving `vpn` (currently on `src`) to `dst`,
    /// appending its `Intent` record. One journal step.
    pub fn begin(&mut self, vpn: Vpn, src: Pfn, dst: NodeId) -> TxnId {
        // Every transaction begun is open or counted in one terminal
        // state, so the next id needs no counter of its own.
        let id = TxnId(self.counters.terminal() + self.open.len() as u64);
        self.steps += 1;
        self.open.push(MigrationTxn {
            id,
            vpn,
            src,
            dst,
            shadow: None,
            state: TxnState::Intent,
            span: None,
        });
        id
    }

    /// Records the shadow frame allocated for `id` (no journal step: the
    /// frame is part of the following `CopyInProgress` record).
    pub fn set_shadow(&mut self, id: TxnId, shadow: Pfn) {
        if let Some(t) = self.open.iter_mut().find(|t| t.id == id) {
            t.shadow = Some(shadow);
        }
    }

    /// Attaches a telemetry span to `id`.
    pub fn set_span(&mut self, id: TxnId, span: SpanId) {
        if let Some(t) = self.open.iter_mut().find(|t| t.id == id) {
            t.span = Some(span);
        }
    }

    /// Appends a state-transition record for `id`. One journal step.
    /// Terminal transitions retire the transaction into the counters and
    /// return it (so the caller can close its span).
    pub fn transition(&mut self, id: TxnId, state: TxnState) -> Option<MigrationTxn> {
        self.steps += 1;
        let idx = self.open.iter().position(|t| t.id == id)?;
        debug_assert!(
            legal_transition(self.open[idx].state, state),
            "illegal journal transition {} -> {}",
            self.open[idx].state,
            state
        );
        if state.is_terminal() {
            let mut txn = self.open.remove(idx);
            txn.state = state;
            self.count(&txn);
            Some(txn)
        } else {
            self.open[idx].state = state;
            None
        }
    }

    /// Appends a terminal record for a transaction drained via
    /// [`MigrationJournal::take_open`] — the recovery path. One journal
    /// step. Returns the retired transaction.
    pub fn append_terminal(&mut self, mut txn: MigrationTxn, state: TxnState) -> MigrationTxn {
        debug_assert!(state.is_terminal());
        self.steps += 1;
        txn.state = state;
        self.count(&txn);
        txn
    }

    fn count(&mut self, txn: &MigrationTxn) {
        match txn.state {
            TxnState::Committed => match txn.dst {
                NodeId::Ddr => self.counters.committed_promotions += 1,
                NodeId::Cxl => self.counters.committed_demotions += 1,
            },
            TxnState::Aborted => self.counters.aborted += 1,
            TxnState::RolledBack => self.counters.rolled_back += 1,
            _ => unreachable!("count() only sees terminal states"),
        }
    }

    /// Total journal records appended — the crash-point index space.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The open (in-flight) transactions, oldest first.
    pub fn open(&self) -> &[MigrationTxn] {
        &self.open
    }

    /// Terminal-state tallies.
    pub fn counters(&self) -> JournalCounters {
        self.counters
    }

    /// Drains the open transactions for recovery replay.
    pub fn take_open(&mut self) -> Vec<MigrationTxn> {
        std::mem::take(&mut self.open)
    }

    /// Fences the migration engine: a controller reset struck and the
    /// journal must be replayed before the next migration.
    pub fn fence(&mut self) {
        self.fenced = true;
    }

    /// Lifts the fence after recovery.
    pub fn clear_fence(&mut self) {
        self.fenced = false;
    }

    /// Whether the engine is fenced pending recovery.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// Serializes the journal for a checkpoint: open transactions (oldest
    /// first), the id/step counters, terminal tallies, and the fence.
    /// Telemetry spans are process-local handles and restore as `None`.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64(self.open.len() as u64);
        for t in &self.open {
            w.put_u64(t.id.0);
            w.put_u64(t.vpn.0);
            w.put_u64(t.src.0);
            w.put_u8(match t.dst {
                NodeId::Ddr => 0,
                NodeId::Cxl => 1,
            });
            match t.shadow {
                Some(p) => {
                    w.put_bool(true);
                    w.put_u64(p.0);
                }
                None => w.put_bool(false),
            }
            w.put_u8(match t.state {
                TxnState::Intent => 0,
                TxnState::CopyInProgress => 1,
                TxnState::Remapped => 2,
                TxnState::Committed => 3,
                TxnState::Aborted => 4,
                TxnState::RolledBack => 5,
            });
        }
        w.put_u64(self.steps);
        w.put_u64(self.counters.committed_promotions);
        w.put_u64(self.counters.committed_demotions);
        w.put_u64(self.counters.aborted);
        w.put_u64(self.counters.rolled_back);
        w.put_bool(self.fenced);
    }

    /// Rebuilds a journal from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, and
    /// rejects with [`CodecError::BadValue`] an open transaction the
    /// journal cannot hold: one in a terminal state (terminal transitions
    /// retire it at once) or one whose id is already open.
    ///
    /// [`CodecError::BadValue`]: crate::checkpoint::CodecError::BadValue
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<MigrationJournal, crate::checkpoint::CodecError> {
        let n = r.get_u64()? as usize;
        let mut open = Vec::with_capacity(n.min(1 << 16));
        let mut ids = std::collections::HashSet::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = TxnId(r.get_u64()?);
            let vpn = Vpn(r.get_u64()?);
            let src = Pfn(r.get_u64()?);
            let dst = match r.get_u8()? {
                0 => NodeId::Ddr,
                1 => NodeId::Cxl,
                v => {
                    return Err(crate::checkpoint::CodecError::BadValue {
                        what: "journal dst node",
                        value: v as u64,
                    })
                }
            };
            let shadow = if r.get_bool()? {
                Some(Pfn(r.get_u64()?))
            } else {
                None
            };
            let state = match r.get_u8()? {
                0 => TxnState::Intent,
                1 => TxnState::CopyInProgress,
                2 => TxnState::Remapped,
                3 => TxnState::Committed,
                4 => TxnState::Aborted,
                5 => TxnState::RolledBack,
                v => {
                    return Err(crate::checkpoint::CodecError::BadValue {
                        what: "journal txn state",
                        value: v as u64,
                    })
                }
            };
            if state.is_terminal() {
                return Err(crate::checkpoint::CodecError::BadValue {
                    what: "open journal txn in a terminal state",
                    value: id.0,
                });
            }
            if !ids.insert(id.0) {
                return Err(crate::checkpoint::CodecError::BadValue {
                    what: "repeated open journal txn id",
                    value: id.0,
                });
            }
            open.push(MigrationTxn {
                id,
                vpn,
                src,
                dst,
                shadow,
                state,
                span: None,
            });
        }
        Ok(MigrationJournal {
            open,
            steps: r.get_u64()?,
            counters: JournalCounters {
                committed_promotions: r.get_u64()?,
                committed_demotions: r.get_u64()?,
                aborted: r.get_u64()?,
                rolled_back: r.get_u64()?,
            },
            fenced: r.get_bool()?,
        })
    }
}

/// The legal edges of the state machine (see the module diagram).
fn legal_transition(from: TxnState, to: TxnState) -> bool {
    matches!(
        (from, to),
        (TxnState::Intent, TxnState::CopyInProgress)
            | (TxnState::Intent, TxnState::Aborted)
            | (TxnState::CopyInProgress, TxnState::Remapped)
            | (TxnState::CopyInProgress, TxnState::RolledBack)
            | (TxnState::Remapped, TxnState::Committed)
            | (TxnState::Remapped, TxnState::RolledBack)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Pfn = Pfn(crate::memory::CXL_BASE_PFN);

    #[test]
    fn begin_and_commit_walk_the_state_machine() {
        let mut j = MigrationJournal::new();
        let id = j.begin(Vpn(1), SRC, NodeId::Ddr);
        assert_eq!(j.steps(), 1);
        assert_eq!(j.open().len(), 1);
        j.set_shadow(id, Pfn(7));
        assert!(j.transition(id, TxnState::CopyInProgress).is_none());
        assert!(j.transition(id, TxnState::Remapped).is_none());
        let done = j.transition(id, TxnState::Committed).unwrap();
        assert_eq!(done.shadow, Some(Pfn(7)));
        assert_eq!(j.steps(), 4);
        assert!(j.open().is_empty());
        assert_eq!(j.counters().committed_promotions, 1);
    }

    #[test]
    fn terminal_states_are_tallied_by_kind() {
        let mut j = MigrationJournal::new();
        let a = j.begin(Vpn(1), SRC, NodeId::Ddr);
        j.transition(a, TxnState::Aborted);
        let b = j.begin(Vpn(2), SRC, NodeId::Cxl);
        j.transition(b, TxnState::CopyInProgress);
        j.transition(b, TxnState::RolledBack);
        let c = j.begin(Vpn(3), SRC, NodeId::Cxl);
        j.transition(c, TxnState::CopyInProgress);
        j.transition(c, TxnState::Remapped);
        j.transition(c, TxnState::Committed);
        let counts = j.counters();
        assert_eq!(counts.aborted, 1);
        assert_eq!(counts.rolled_back, 1);
        assert_eq!(counts.committed_demotions, 1);
        assert_eq!(counts.committed(), 1);
        assert_eq!(counts.terminal(), 3);
    }

    #[test]
    fn fence_and_recovery_drain() {
        let mut j = MigrationJournal::new();
        let id = j.begin(Vpn(9), SRC, NodeId::Ddr);
        j.transition(id, TxnState::CopyInProgress);
        j.fence();
        assert!(j.is_fenced());
        let open = j.take_open();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].state, TxnState::CopyInProgress);
        let retired = j.append_terminal(open.into_iter().next().unwrap(), TxnState::RolledBack);
        assert_eq!(retired.state, TxnState::RolledBack);
        assert_eq!(j.counters().rolled_back, 1);
        j.clear_fence();
        assert!(!j.is_fenced());
    }

    #[test]
    fn states_know_their_terminality_and_labels() {
        for s in [TxnState::Committed, TxnState::Aborted, TxnState::RolledBack] {
            assert!(s.is_terminal());
        }
        for s in [
            TxnState::Intent,
            TxnState::CopyInProgress,
            TxnState::Remapped,
        ] {
            assert!(!s.is_terminal());
        }
        assert_eq!(TxnState::RolledBack.to_string(), "rolled-back");
    }
}
