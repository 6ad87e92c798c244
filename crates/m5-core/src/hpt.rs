//! HPT — the Hot-Page Tracker (§5.1).
//!
//! A top-K tracker in the CXL controller fed by the same snooped address
//! stream as PAC, keyed by PFN. Tracking costs the host CPU nothing; a
//! query returns the top-K hot pages and resets both the sketch and the
//! CAM so the next epoch starts fresh.

use crate::tracker_impl::{TrackerAlgo, TrackerImpl};
use cxl_sim::addr::{CacheLineAddr, Pfn};
use cxl_sim::controller::CxlDevice;
use cxl_sim::faults::DeviceFault;
use cxl_sim::time::Nanos;
use m5_trackers::topk::TopKAlgorithm;
use std::any::Any;

/// HPT configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HptConfig {
    /// The streaming algorithm and its size.
    pub algo: TrackerAlgo,
    /// Number of hot pages reported per query.
    pub k: usize,
    /// Hash seed.
    pub seed: u64,
    /// Whether a query resets the sketch and CAM for a fresh epoch (§5.1
    /// says the units "can be reset immediately after the query"). Page
    /// streams are dense enough for per-epoch tracking, so the default is
    /// `true`.
    pub reset_on_query: bool,
}

impl Default for HptConfig {
    fn default() -> HptConfig {
        HptConfig {
            algo: TrackerAlgo::cm_sketch_32k(),
            k: 32,
            seed: 0x4897,
            reset_on_query: true,
        }
    }
}

/// The Hot-Page Tracker device.
#[derive(Clone, Debug)]
pub struct HotPageTracker {
    tracker: TrackerImpl,
    reset_on_query: bool,
    observed: u64,
    queries: u64,
    k: usize,
    dead: bool,
    saturated: bool,
    flip_mask: u64,
}

impl HotPageTracker {
    /// Builds an HPT.
    pub fn new(config: HptConfig) -> HotPageTracker {
        HotPageTracker {
            tracker: config.algo.build(config.k, config.seed),
            reset_on_query: config.reset_on_query,
            observed: 0,
            queries: 0,
            k: config.k,
            dead: false,
            saturated: false,
            flip_mask: 0,
        }
    }

    /// Whether an injected [`DeviceFault::Fail`] killed this tracker.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// What a wedged device's MMIO window reads back: all-ones entries. The
    /// manager's health check recognises these as garbage and falls back to
    /// software-only identification.
    fn garbage(&self) -> Vec<(Pfn, u64)> {
        (0..self.k)
            .map(|i| (Pfn(u64::MAX - i as u64), u64::MAX))
            .collect()
    }

    /// Accesses observed since the last query.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// The current top-K hot pages without resetting (debug/tests).
    pub fn peek(&self) -> Vec<(Pfn, u64)> {
        if self.dead {
            return self.garbage();
        }
        self.tracker
            .top_k()
            .into_iter()
            .map(|(a, c)| (Pfn(a), if self.saturated { u64::MAX } else { c }))
            .collect()
    }

    /// Serves a host query: returns the top-K hot pages and resets the
    /// tracker for the next epoch.
    pub fn query(&mut self) -> Vec<(Pfn, u64)> {
        self.queries += 1;
        self.observed = 0;
        if self.dead {
            return self.garbage();
        }
        let top = if self.reset_on_query {
            self.tracker.drain_top_k()
        } else {
            self.tracker.top_k()
        };
        let saturated = self.saturated;
        self.saturated = false;
        top.into_iter()
            .map(|(a, c)| (Pfn(a), if saturated { u64::MAX } else { c }))
            .collect()
    }

    /// The underlying algorithm's name.
    pub fn algo_name(&self) -> &'static str {
        self.tracker.name()
    }

    /// Serializes the device's dynamic state (tracker SRAM plus the fault
    /// flags) for a checkpoint. `k` and `reset_on_query` are configuration,
    /// rebuilt by the restoring side's [`HotPageTracker::new`].
    pub fn save(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        self.tracker.save(w);
        w.put_u64(self.observed);
        w.put_u64(self.queries);
        w.put_bool(self.dead);
        w.put_bool(self.saturated);
        w.put_u64(self.flip_mask);
    }

    /// Loads checkpointed state into a freshly constructed device.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated payload or a tracker state
    /// that fails geometry validation.
    pub fn load(
        &mut self,
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<(), cxl_sim::checkpoint::CodecError> {
        self.tracker.load(r)?;
        self.observed = r.get_u64()?;
        self.queries = r.get_u64()?;
        self.dead = r.get_bool()?;
        self.saturated = r.get_bool()?;
        self.flip_mask = r.get_u64()?;
        Ok(())
    }
}

impl CxlDevice for HotPageTracker {
    fn name(&self) -> &str {
        "hpt"
    }

    fn on_access(&mut self, line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        if self.dead {
            return;
        }
        self.observed += 1;
        self.tracker.record(line.pfn().0 ^ self.flip_mask);
    }

    fn on_fault(&mut self, fault: DeviceFault) {
        match fault {
            // Address-path corruption: every subsequent record lands on a
            // wrong key.
            DeviceFault::SramBitFlip { slot: _, bit } => self.flip_mask ^= 1 << (bit % 48),
            DeviceFault::SramSaturate => self.saturated = true,
            DeviceFault::Fail => self.dead = true,
            // RAS faults target the memory/link layer, not the tracker
            // SRAM; the injector routes them to the RAS queue, never here.
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::WordIndex;
    use cxl_sim::memory::CXL_BASE_PFN;

    fn touch(hpt: &mut HotPageTracker, page: u64, times: u64) {
        for i in 0..times {
            let w = WordIndex((i % 64) as u8);
            hpt.on_access(
                Pfn(CXL_BASE_PFN + page).word(w).cache_line(),
                false,
                Nanos::ZERO,
            );
        }
    }

    #[test]
    fn tracks_hot_pages_across_word_offsets() {
        let mut hpt = HotPageTracker::new(HptConfig::default());
        touch(&mut hpt, 1, 100);
        touch(&mut hpt, 2, 10);
        let top = hpt.peek();
        assert_eq!(top[0].0, Pfn(CXL_BASE_PFN + 1));
        assert!(top[0].1 >= 100);
        assert_eq!(hpt.observed(), 110);
    }

    #[test]
    fn query_resets_for_next_epoch() {
        let mut hpt = HotPageTracker::new(HptConfig::default());
        touch(&mut hpt, 3, 50);
        let first = hpt.query();
        assert_eq!(first[0].0, Pfn(CXL_BASE_PFN + 3));
        assert!(hpt.peek().is_empty());
        assert_eq!(hpt.observed(), 0);
        assert_eq!(hpt.queries(), 1);
        // A fresh epoch tracks fresh pages.
        touch(&mut hpt, 4, 5);
        assert_eq!(hpt.query()[0].0, Pfn(CXL_BASE_PFN + 4));
    }

    #[test]
    fn space_saving_variant_works() {
        let mut hpt = HotPageTracker::new(HptConfig {
            algo: TrackerAlgo::space_saving_50(),
            k: 5,
            seed: 0,
            reset_on_query: true,
        });
        touch(&mut hpt, 7, 30);
        assert_eq!(hpt.algo_name(), "space-saving");
        assert_eq!(hpt.peek()[0].0, Pfn(CXL_BASE_PFN + 7));
    }
}
