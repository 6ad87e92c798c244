//! HWT — the Hot-Word Tracker (§5.1).
//!
//! Identical to [`crate::hpt::HotPageTracker`] except that it tracks 64 B
//! word addresses (`PA[47:6]`) without the PFN conversion. Hot-word
//! addresses let the Nominator distinguish dense from sparse hot pages —
//! the capability CPU-driven solutions lack entirely (Observation 2).

use crate::tracker_impl::{TrackerAlgo, TrackerImpl};
use cxl_sim::addr::CacheLineAddr;
use cxl_sim::controller::CxlDevice;
use cxl_sim::faults::DeviceFault;
use cxl_sim::time::Nanos;
use m5_trackers::topk::TopKAlgorithm;
use std::any::Any;

/// HWT configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwtConfig {
    /// The streaming algorithm and its size.
    pub algo: TrackerAlgo,
    /// Number of hot words reported per query.
    pub k: usize,
    /// Hash seed.
    pub seed: u64,
    /// Whether a query resets the sketch and CAM for a fresh epoch
    /// (§5.1). Default `true`; cross-epoch accumulation happens in the
    /// manager's `_HWA` structure (see the Nominator), not in the device,
    /// so the CAM cannot be pinned by stale winners.
    pub reset_on_query: bool,
}

impl Default for HwtConfig {
    fn default() -> HwtConfig {
        HwtConfig {
            algo: TrackerAlgo::cm_sketch_32k(),
            k: 256,
            seed: 0x4a57,
            reset_on_query: true,
        }
    }
}

/// The Hot-Word Tracker device.
#[derive(Clone, Debug)]
pub struct HotWordTracker {
    tracker: TrackerImpl,
    reset_on_query: bool,
    observed: u64,
    queries: u64,
    k: usize,
    dead: bool,
    saturated: bool,
    flip_mask: u64,
}

impl HotWordTracker {
    /// Builds an HWT.
    pub fn new(config: HwtConfig) -> HotWordTracker {
        HotWordTracker {
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

    /// All-ones MMIO readback of a wedged device (see
    /// [`crate::hpt::HotPageTracker`]).
    fn garbage(&self) -> Vec<(CacheLineAddr, u64)> {
        (0..self.k)
            .map(|i| (CacheLineAddr(u64::MAX - i as u64), u64::MAX))
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

    /// The current top-K hot words without resetting.
    pub fn peek(&self) -> Vec<(CacheLineAddr, u64)> {
        if self.dead {
            return self.garbage();
        }
        self.tracker
            .top_k()
            .into_iter()
            .map(|(a, c)| (CacheLineAddr(a), if self.saturated { u64::MAX } else { c }))
            .collect()
    }

    /// Serves a host query: returns the top-K hot words and resets.
    pub fn query(&mut self) -> Vec<(CacheLineAddr, u64)> {
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
            .map(|(a, c)| (CacheLineAddr(a), if saturated { u64::MAX } else { c }))
            .collect()
    }

    /// The underlying algorithm's name.
    pub fn algo_name(&self) -> &'static str {
        self.tracker.name()
    }

    /// Serializes the device's dynamic state (tracker SRAM plus the fault
    /// flags) for a checkpoint; see [`crate::hpt::HotPageTracker::save`].
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

impl CxlDevice for HotWordTracker {
    fn name(&self) -> &str {
        "hwt"
    }

    fn on_access(&mut self, line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        if self.dead {
            return;
        }
        self.observed += 1;
        self.tracker.record(line.0 ^ self.flip_mask);
    }

    fn on_fault(&mut self, fault: DeviceFault) {
        match fault {
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
    use cxl_sim::addr::{Pfn, WordIndex};
    use cxl_sim::memory::CXL_BASE_PFN;

    #[test]
    fn distinguishes_words_within_a_page() {
        let mut hwt = HotWordTracker::new(HwtConfig::default());
        let pfn = Pfn(CXL_BASE_PFN);
        let hot_word = pfn.word(WordIndex(5)).cache_line();
        let cold_word = pfn.word(WordIndex(6)).cache_line();
        for _ in 0..50 {
            hwt.on_access(hot_word, false, Nanos::ZERO);
        }
        hwt.on_access(cold_word, false, Nanos::ZERO);
        let top = hwt.peek();
        assert_eq!(top[0].0, hot_word);
        assert!(top[0].1 >= 50);
        assert_eq!(hwt.observed(), 51);
    }

    #[test]
    fn query_drains() {
        let mut hwt = HotWordTracker::new(HwtConfig::default());
        hwt.on_access(CacheLineAddr(9), false, Nanos::ZERO);
        assert_eq!(hwt.query()[0].0, CacheLineAddr(9));
        assert!(hwt.peek().is_empty());
        assert_eq!(hwt.queries(), 1);
    }
}
