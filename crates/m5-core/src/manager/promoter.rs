//! Promoter — the in-kernel interface between the user-space Elector and
//! `migrate_pages()` (§5.2).
//!
//! Receives the Nominator's hot-page addresses (PFNs), translates them to
//! mappings via the reverse map, checks that each page can be safely
//! migrated — pages pinned for DMA or explicitly bound to the CXL node are
//! rejected — and invokes the batched migration.

use super::nominator::HpaEntry;
use cxl_sim::addr::Vpn;
use cxl_sim::kernel::CostKind;
use cxl_sim::migration::{BatchOutcome, MigrateError};
use cxl_sim::system::System;
use cxl_sim::time::Nanos;

/// Cold pages demoted per capacity miss (the paper demotes the same number
/// of pages as promoted once DDR fills, §7.2).
const DEMOTE_BATCH: usize = 32;

/// Retry rounds for transiently rejected pages (destination full, failed
/// copy) before giving up on them for this epoch.
const MAX_RETRIES: u32 = 2;

/// Daemon-side wait before the first retry round; doubles each round.
const RETRY_BACKOFF: Nanos = Nanos::from_micros(10);

/// Cumulative Promoter statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PromoterStats {
    /// Pages handed to `migrate_pages()` and moved.
    pub promoted: u64,
    /// Candidates dropped because their frame was no longer mapped (stale
    /// tracker output).
    pub stale: u64,
    /// Candidates rejected by the safety checks (pinned / node-bound).
    pub rejected_unsafe: u64,
    /// Candidates rejected for capacity or residency reasons.
    pub rejected_other: u64,
}

/// The Promoter component.
#[derive(Clone, Copy, Debug, Default)]
pub struct Promoter {
    stats: PromoterStats,
}

impl Promoter {
    /// Builds a Promoter.
    pub fn new() -> Promoter {
        Promoter::default()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> PromoterStats {
        self.stats
    }

    /// Serializes the cumulative statistics for a checkpoint.
    pub fn save(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        w.put_u64(self.stats.promoted);
        w.put_u64(self.stats.stale);
        w.put_u64(self.stats.rejected_unsafe);
        w.put_u64(self.stats.rejected_other);
    }

    /// Rebuilds a Promoter from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated payload.
    pub fn restore(
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<Promoter, cxl_sim::checkpoint::CodecError> {
        Ok(Promoter {
            stats: PromoterStats {
                promoted: r.get_u64()?,
                stale: r.get_u64()?,
                rejected_unsafe: r.get_u64()?,
                rejected_other: r.get_u64()?,
            },
        })
    }

    /// Promotes the nominated pages, returning the batch outcome. The proc
    /// write that hands the addresses into the kernel is billed as manager
    /// work.
    pub fn promote(&mut self, sys: &mut System, nominated: &[HpaEntry]) -> BatchOutcome {
        let cost = sys.config().costs.mmio_reg_access;
        sys.daemon_bill(CostKind::ManagerQuery, cost);

        // PFN → VPN translation; trackers may report frames whose mapping
        // changed since the epoch started.
        let mut vpns: Vec<Vpn> = Vec::with_capacity(nominated.len());
        for e in nominated {
            match sys.page_table().vpn_of(e.pfn) {
                Some(vpn) => vpns.push(vpn),
                None => self.stats.stale += 1,
            }
        }

        // Every round below runs through the *uncounted* migration path:
        // a page retried three times is still one migration request, and
        // must appear at most once in `MigrationStats::rejected` (and hence
        // in the RunReport/HealthReport merge). The final outcomes are
        // settled once, after the retry loop.
        let mut out = sys.promote_with_demotion_uncounted(&vpns, DEMOTE_BATCH);

        // Bounded retry with exponential backoff: transient rejections
        // (destination full under pressure, a flaky page copy) are worth a
        // second attempt this epoch; permanent ones (pinned, bound) are not.
        let mut backoff = RETRY_BACKOFF;
        let mut retried = 0u64;
        for _ in 0..MAX_RETRIES {
            let (transient, fatal): (Vec<_>, Vec<_>) = out
                .rejected
                .into_iter()
                .partition(|(_, e)| e.is_transient());
            out.rejected = fatal;
            if transient.is_empty() {
                break;
            }
            let again: Vec<Vpn> = transient.iter().map(|&(v, _)| v).collect();
            retried += again.len() as u64;
            sys.daemon_bill(CostKind::DaemonOther, backoff);
            backoff = Nanos(backoff.0.saturating_mul(2));
            let retry = sys.promote_with_demotion_uncounted(&again, DEMOTE_BATCH);
            out.migrated.extend(retry.migrated);
            out.rejected.extend(retry.rejected);
        }
        sys.note_rejected_migrations(out.rejected.len() as u64);
        let gave_up = out
            .rejected
            .iter()
            .filter(|(_, e)| e.is_transient())
            .count() as u64;

        let stale = (nominated.len() - vpns.len()) as u64;
        let mut rejected_unsafe = 0u64;
        let mut rejected_other = 0u64;
        for (_, err) in &out.rejected {
            match err {
                MigrateError::Pinned | MigrateError::NodeBound => rejected_unsafe += 1,
                _ => rejected_other += 1,
            }
        }
        self.stats.promoted += out.migrated.len() as u64;
        self.stats.rejected_unsafe += rejected_unsafe;
        self.stats.rejected_other += rejected_other;
        if retried > 0 || gave_up > 0 {
            sys.note_promoter_retries(retried, gave_up);
        }
        if sys.telemetry().is_enabled() {
            let t = sys.telemetry_mut();
            t.counter_add("m5.promoter", "promoted", out.migrated.len() as u64);
            t.counter_add("m5.promoter", "stale", stale);
            t.counter_add("m5.promoter", "rejected-unsafe", rejected_unsafe);
            t.counter_add("m5.promoter", "rejected-other", rejected_other);
            t.counter_add("m5.promoter", "retried", retried);
            t.counter_add("m5.promoter", "gave-up", gave_up);
            // Per-cause breakdown of the final rejections, so degradation
            // dashboards can tell a rollback (copy fault, watchdog stall,
            // reset fence) from a capacity miss or a safety check.
            for (_, err) in &out.rejected {
                t.counter_add("m5.promoter.cause", err.cause_label(), 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::Pfn;
    use cxl_sim::memory::NodeId;
    use cxl_sim::prelude::*;

    fn entry(pfn: Pfn) -> HpaEntry {
        HpaEntry {
            pfn,
            count: 10,
            mask: 0,
        }
    }

    #[test]
    fn promotes_mapped_candidates() {
        let mut sys = System::new(SystemConfig::small());
        let r = sys.alloc_region(4, Placement::AllOnCxl).unwrap();
        let pfns: Vec<Pfn> = r
            .vpns()
            .map(|v| sys.page_table().get(v).unwrap().pfn)
            .collect();
        let mut p = Promoter::new();
        let out = p.promote(&mut sys, &[entry(pfns[0]), entry(pfns[1])]);
        assert_eq!(out.migrated.len(), 2);
        assert_eq!(sys.nr_pages(NodeId::DDR), 2);
        assert_eq!(p.stats().promoted, 2);
    }

    #[test]
    fn rejects_pinned_and_bound_pages() {
        let mut sys = System::new(SystemConfig::small());
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        let a = r.base.vpn();
        let b = a.offset(1);
        let pfn_a = sys.page_table().get(a).unwrap().pfn;
        let pfn_b = sys.page_table().get(b).unwrap().pfn;
        sys.page_table_mut().set_pinned(a, true);
        sys.page_table_mut().set_cxl_bound(b, true);
        let mut p = Promoter::new();
        let out = p.promote(&mut sys, &[entry(pfn_a), entry(pfn_b)]);
        assert!(out.migrated.is_empty());
        assert_eq!(p.stats().rejected_unsafe, 2);
        assert_eq!(sys.nr_pages(NodeId::DDR), 0);
    }

    #[test]
    fn stale_pfns_are_dropped_not_fatal() {
        let mut sys = System::new(SystemConfig::small());
        let _ = sys.alloc_region(1, Placement::AllOnCxl).unwrap();
        let mut p = Promoter::new();
        // A frame nothing maps: e.g. an unallocated CXL frame.
        let out = p.promote(&mut sys, &[entry(Pfn(cxl_sim::memory::CXL_BASE_PFN + 99))]);
        assert!(out.migrated.is_empty());
        assert_eq!(p.stats().stale, 1);
    }

    #[test]
    fn transient_rejections_are_retried_then_surrendered() {
        // DDR holds one pinned page, so demotion can never make room:
        // every promotion attempt fails with DestinationFull (transient).
        let mut sys = System::new(SystemConfig::small().with_ddr_frames(1));
        let d = sys.alloc_region(1, Placement::AllOnDdr).unwrap();
        sys.page_table_mut().set_pinned(d.base.vpn(), true);
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        let pfns: Vec<Pfn> = r
            .vpns()
            .map(|v| sys.page_table().get(v).unwrap().pfn)
            .collect();
        let mut p = Promoter::new();
        let out = p.promote(&mut sys, &[entry(pfns[0]), entry(pfns[1])]);
        assert!(out.migrated.is_empty());
        let stats = sys.stats();
        assert!(stats.promoter_retried > 0, "transient rejects were retried");
        assert_eq!(
            stats.promoter_gave_up, 2,
            "both pages surrendered in the end"
        );
        assert_eq!(p.stats().promoted, 0);
    }

    #[test]
    fn overlapping_fault_window_counts_each_rejection_once() {
        // Regression test: when a DDR-pressure fault window overlaps a
        // migration epoch, every promotion attempt inside the window fails
        // with DestinationFull, and the Promoter retries each page
        // `MAX_RETRIES` times (each retry round calling the promote+demote
        // path, which itself re-attempts after demoting). Before the
        // migrate_page_uncounted/note_rejected_migrations split, every one
        // of those attempts bumped `MigrationStats::rejected`, so a single
        // rejected *request* could show up 6+ times in the RunReport /
        // HealthReport merge. The invariant: one nominated page == at most
        // one rejected migration.
        use cxl_sim::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::none().with(
            Nanos::ZERO,
            FaultKind::DdrPressure {
                duration: Nanos::from_secs(1),
            },
        );
        let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
        let r = sys.alloc_region(2, Placement::AllOnCxl).unwrap();
        let pfns: Vec<Pfn> = r
            .vpns()
            .map(|v| sys.page_table().get(v).unwrap().pfn)
            .collect();
        // Arm the pressure window.
        sys.access(r.base, false);
        let mut p = Promoter::new();
        let out = p.promote(&mut sys, &[entry(pfns[0]), entry(pfns[1])]);
        assert!(out.migrated.is_empty(), "pressure window blocks promotion");
        let stats = sys.stats();
        assert!(stats.promoter_retried > 0, "transient rejects were retried");
        assert_eq!(stats.promoter_gave_up, 2);
        assert_eq!(
            sys.migration_stats().rejected,
            2,
            "2 requests rejected must count exactly 2, not once per attempt"
        );
    }

    #[test]
    fn rejection_causes_are_broken_out_in_telemetry() {
        use cxl_sim::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::none().with(
            Nanos::ZERO,
            FaultKind::DdrPressure {
                duration: Nanos::from_secs(1),
            },
        );
        let mut sys = System::with_fault_plan(SystemConfig::small(), &plan);
        sys.install_telemetry(Telemetry::enabled());
        let r = sys.alloc_region(3, Placement::AllOnCxl).unwrap();
        sys.page_table_mut().set_pinned(r.base.vpn(), true);
        let pfns: Vec<Pfn> = r
            .vpns()
            .map(|v| sys.page_table().get(v).unwrap().pfn)
            .collect();
        // Arm the pressure window.
        sys.access(r.base, false);
        let mut p = Promoter::new();
        let entries: Vec<HpaEntry> = pfns.iter().map(|&f| entry(f)).collect();
        let out = p.promote(&mut sys, &entries);
        assert!(out.migrated.is_empty());
        let snap = sys.telemetry().snapshot();
        assert_eq!(snap.counter("m5.promoter.cause", "pinned"), Some(1));
        assert_eq!(snap.counter("m5.promoter.cause", "no-free-frame"), Some(2));
    }

    #[test]
    fn capacity_pressure_triggers_demotion() {
        let mut sys = System::new(SystemConfig::small().with_ddr_frames(2));
        let r = sys.alloc_region(4, Placement::AllOnCxl).unwrap();
        let pfns: Vec<Pfn> = r
            .vpns()
            .map(|v| sys.page_table().get(v).unwrap().pfn)
            .collect();
        let mut p = Promoter::new();
        let entries: Vec<HpaEntry> = pfns.iter().map(|&f| entry(f)).collect();
        let out = p.promote(&mut sys, &entries);
        // All four requested; DDR holds only 2, so demotions made room.
        assert!(out.migrated.len() >= 2);
        assert!(sys.migration_stats().demotions > 0 || out.migrated.len() == 4);
        assert_eq!(sys.nr_pages(NodeId::DDR), 2);
    }
}
