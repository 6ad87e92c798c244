//! Kernel-time accounting.
//!
//! The paper's §4.2 quantifies the CPU cycles that page-migration solutions
//! burn inside the kernel — scanning PTEs (DAMON), invalidating TLBs and
//! handling hinting faults (ANB), and copying pages — by pinning the kernel
//! threads to the same core as the application and measuring the inflation.
//! This module reproduces that methodology with a ledger of simulated kernel
//! time per cost category; when the daemon is *co-located* (the default, as
//! in the paper), billed time also stalls the application clock.

use crate::time::Nanos;
use std::fmt;

/// Categories of kernel work, for the §4.2-style breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Handling a soft (hinting) page fault, including entering/leaving the
    /// fault handler (ANB, Solution 1).
    HintingFault,
    /// Unmapping a sampled page: PTE write + remote TLB invalidation (ANB).
    TlbShootdown,
    /// Scanning one PTE and testing/clearing its accessed bit (DAMON,
    /// Solution 2; also MGLRU aging).
    PteScan,
    /// `migrate_pages()` work: copy, remap, flush (≈54 µs per 4 KiB page in
    /// the paper's setup).
    Migration,
    /// M5-manager work: MMIO queries of HPT/HWT, nominator processing,
    /// monitor sampling.
    ManagerQuery,
    /// Any other daemon bookkeeping.
    DaemonOther,
    /// Appending one record to the migration write-ahead journal (a
    /// cacheline write plus an ordering barrier per state transition).
    JournalWrite,
    /// RAS patrol scrub: reading one frame to harvest latent correctable
    /// errors, plus the soft-offline bookkeeping it triggers.
    RasScrub,
}

impl CostKind {
    /// All categories, in display order.
    pub const ALL: [CostKind; 8] = [
        CostKind::HintingFault,
        CostKind::TlbShootdown,
        CostKind::PteScan,
        CostKind::Migration,
        CostKind::ManagerQuery,
        CostKind::DaemonOther,
        CostKind::JournalWrite,
        CostKind::RasScrub,
    ];

    fn index(self) -> usize {
        match self {
            CostKind::HintingFault => 0,
            CostKind::TlbShootdown => 1,
            CostKind::PteScan => 2,
            CostKind::Migration => 3,
            CostKind::ManagerQuery => 4,
            CostKind::DaemonOther => 5,
            CostKind::JournalWrite => 6,
            CostKind::RasScrub => 7,
        }
    }

    /// The category's stable kebab-case name (also used as a telemetry
    /// label).
    pub const fn label(self) -> &'static str {
        match self {
            CostKind::HintingFault => "hinting-fault",
            CostKind::TlbShootdown => "tlb-shootdown",
            CostKind::PteScan => "pte-scan",
            CostKind::Migration => "migration",
            CostKind::ManagerQuery => "manager-query",
            CostKind::DaemonOther => "daemon-other",
            CostKind::JournalWrite => "journal-write",
            CostKind::RasScrub => "ras-scrub",
        }
    }
}

impl fmt::Display for CostKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// Unit costs of kernel and hardware operations: one calibrated table,
// drawn from the paper where it reports numbers (migration ≈54 µs/page;
// DDR 100 ns vs CXL 270 ns loads) and from published micro-architectural
// measurements elsewhere.

/// LLC hit service time.
pub const LLC_HIT: Nanos = Nanos(20);
/// Hardware page-table walk on a TLB miss (added to the access latency).
pub const PAGE_WALK: Nanos = Nanos(60);
/// Handling one soft/hinting page fault.
pub const HINTING_FAULT: Nanos = Nanos(1_500);
/// One TLB shootdown (IPI + invalidation across cores).
pub const TLB_SHOOTDOWN: Nanos = Nanos(4_000);
/// Scanning one PTE in a bulk linear walk (test/clear accessed bit).
pub const PTE_SCAN_PER_ENTRY: Nanos = Nanos(15);
/// One *sampled* PTE check (DAMON-style): includes the software VMA lookup
/// and page-table walk to reach an arbitrary address, far more expensive
/// than the next entry of a linear scan.
pub const PTE_SAMPLE_WALK: Nanos = Nanos(70);
/// Migrating one 4 KiB page (copy + remap + flush), §7.2.
pub const MIGRATE_PER_PAGE: Nanos = Nanos::from_micros(54);
/// One MMIO register read/write over CXL.io.
pub const MMIO_REG_ACCESS: Nanos = Nanos(400);
/// Reading one top-K result batch from a tracker over MMIO.
pub const TRACKER_QUERY: Nanos = Nanos(2_000);
/// Recovering one poisoned cache line via the kernel's memory-failure path
/// (isolate the line, re-fetch/zero, resume). Billed only when the fault
/// injector poisons a CXL read.
pub const POISON_REPAIR: Nanos = Nanos::from_micros(50);
/// Appending one record to the migration write-ahead journal: a cacheline
/// store plus the ordering barrier that makes it durable before the next
/// migration step.
pub const JOURNAL_WRITE: Nanos = Nanos(250);
/// Scrubbing (zero-fill + verify) one quarantined 4 KiB frame before it
/// returns to the allocator.
pub const SCRUB_PER_FRAME: Nanos = Nanos::from_micros(5);
/// RAS patrol scrub of one 4 KiB frame: a streaming read that harvests
/// latent correctable errors (much cheaper than the quarantine zero-fill —
/// no write pass, no verify).
pub const RAS_PATROL_PER_FRAME: Nanos = Nanos(150);

/// The kernel-time ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelCosts {
    by_kind: [Nanos; CostKind::ALL.len()],
    events: [u64; CostKind::ALL.len()],
}

impl KernelCosts {
    /// An empty ledger.
    pub fn new() -> KernelCosts {
        KernelCosts::default()
    }

    /// Records `d` nanoseconds of kernel work of kind `kind`.
    pub fn bill(&mut self, kind: CostKind, d: Nanos) {
        self.by_kind[kind.index()] += d;
        self.events[kind.index()] += 1;
    }

    /// Total kernel time of one kind.
    pub fn of(&self, kind: CostKind) -> Nanos {
        self.by_kind[kind.index()]
    }

    /// Number of billed events of one kind.
    pub fn events_of(&self, kind: CostKind) -> u64 {
        self.events[kind.index()]
    }

    /// Total kernel time across all kinds.
    pub fn total(&self) -> Nanos {
        self.by_kind.iter().copied().sum()
    }

    /// The ledger accumulated since `earlier` (which must be a past snapshot
    /// of this ledger), enabling per-run deltas on a reused system.
    pub fn delta_since(&self, earlier: &KernelCosts) -> KernelCosts {
        let mut out = KernelCosts::new();
        for k in CostKind::ALL {
            let i = k.index();
            out.by_kind[i] = self.by_kind[i] - earlier.by_kind[i];
            out.events[i] = self.events[i] - earlier.events[i];
        }
        out
    }

    /// Serializes the ledger for a checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        for i in 0..CostKind::ALL.len() {
            w.put_u64(self.by_kind[i].0);
            w.put_u64(self.events[i]);
        }
    }

    /// Rebuilds a ledger from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<KernelCosts, crate::checkpoint::CodecError> {
        let mut out = KernelCosts::new();
        for i in 0..CostKind::ALL.len() {
            out.by_kind[i] = Nanos(r.get_u64()?);
            out.events[i] = r.get_u64()?;
        }
        Ok(out)
    }

    /// Total kernel time excluding migration itself — the paper's §4.2
    /// "identifying hot pages alone" metric (they disable `migrate_pages()`
    /// and measure what remains). Journal writes are part of the migration
    /// machinery, so they are excluded too: disabling `migrate_pages()`
    /// would eliminate them. RAS patrol scrubbing is maintenance, not
    /// identification, and is likewise excluded.
    pub fn identification_total(&self) -> Nanos {
        self.total()
            - self.of(CostKind::Migration)
            - self.of(CostKind::JournalWrite)
            - self.of(CostKind::RasScrub)
    }
}

impl fmt::Display for KernelCosts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel time: {} total (", self.total())?;
        let mut first = true;
        for kind in CostKind::ALL {
            if self.of(kind) > Nanos::ZERO {
                if !first {
                    f.write_str(", ")?;
                }
                write!(f, "{kind}: {}", self.of(kind))?;
                first = false;
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billing_accumulates_by_kind() {
        let mut k = KernelCosts::new();
        k.bill(CostKind::PteScan, Nanos(15));
        k.bill(CostKind::PteScan, Nanos(15));
        k.bill(CostKind::Migration, Nanos::from_micros(54));
        assert_eq!(k.of(CostKind::PteScan), Nanos(30));
        assert_eq!(k.events_of(CostKind::PteScan), 2);
        assert_eq!(k.total(), Nanos(54_030));
        assert_eq!(k.identification_total(), Nanos(30));
    }

    #[test]
    fn cost_table_matches_paper_anchors() {
        // 54 µs per migrated page, §7.2.
        assert_eq!(MIGRATE_PER_PAGE, Nanos(54_000));
        // Migration amortization: cost / (CXL - DDR latency) ≈ 318 accesses.
        let amortize = MIGRATE_PER_PAGE.0 / (270 - 100);
        assert!((315..=320).contains(&amortize));
    }

    #[test]
    fn journal_writes_count_as_migration_machinery() {
        let mut k = KernelCosts::new();
        k.bill(CostKind::JournalWrite, Nanos(250));
        k.bill(CostKind::PteScan, Nanos(15));
        assert_eq!(k.events_of(CostKind::JournalWrite), 1);
        assert_eq!(k.total(), Nanos(265));
        assert_eq!(
            k.identification_total(),
            Nanos(15),
            "journal appends vanish when migrate_pages() is disabled"
        );
    }

    #[test]
    fn display_reports_nonzero_kinds() {
        let mut k = KernelCosts::new();
        k.bill(CostKind::HintingFault, Nanos(1500));
        let s = k.to_string();
        assert!(s.contains("hinting-fault"));
        assert!(!s.contains("pte-scan"));
    }
}
