//! HPT and HWT — the Hot-Page and Hot-Word Trackers (§5.1).
//!
//! Both are one near-memory device in the CXL controller, fed by the same
//! snooped address stream as PAC, and both run one datapath (Fig. 5): an
//! address converter, the H sketch hashes, a min-count, and a sorted-CAM
//! insert. They differ only in the converter. HPT shifts `PA[47:6]` right
//! by 6 and tracks 4 KiB pages by PFN; HWT skips the shift and tracks 64 B
//! words by cache-line address. Hot-word addresses let the Nominator tell
//! dense from sparse hot pages, the capability CPU-driven solutions lack
//! entirely (Observation 2).
//!
//! Tracking costs the host CPU nothing. A query returns the top-K hot keys
//! and resets both the sketch and the CAM, so the next epoch starts fresh
//! (§5.1: the units "can be reset immediately after the query").
//! Cross-epoch accumulation happens in the manager's `_HWA` structure (see
//! the Nominator), not in the device, so stale winners cannot pin the CAM.

use cxl_sim::addr::{CacheLineAddr, Granularity};
use cxl_sim::checkpoint::{CodecError, StateReader, StateWriter};
use cxl_sim::controller::CxlDevice;
use cxl_sim::faults::DeviceFault;
use cxl_sim::time::Nanos;
use m5_trackers::topk::{CmSketchTopK, SpaceSavingTopK, TopKAlgorithm};

/// Which streaming algorithm backs a tracker (the Figure 7/8 design axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackerAlgo {
    /// CM-Sketch with `rows × (entries/rows)` counters plus a K-entry CAM.
    CmSketch {
        /// Hash rows `H` (the paper fixes 4; 2–16 is a secondary effect).
        rows: usize,
        /// Total counters `N = H × W`.
        entries: usize,
    },
    /// Space-Saving with `entries` monitored counters.
    SpaceSaving {
        /// Monitored counters `N`.
        entries: usize,
    },
}

impl TrackerAlgo {
    /// The paper's full-system configuration: CM-Sketch with N = 32K.
    pub fn cm_sketch_32k() -> TrackerAlgo {
        TrackerAlgo::CmSketch {
            rows: 4,
            entries: 32 * 1024,
        }
    }

    /// The FPGA-synthesizable Space-Saving configuration: N = 50.
    pub fn space_saving_50() -> TrackerAlgo {
        TrackerAlgo::SpaceSaving { entries: 50 }
    }

    /// Instantiates the tracker with `k` reported entries.
    pub fn build(self, k: usize, seed: u64) -> TrackerImpl {
        match self {
            TrackerAlgo::CmSketch { rows, entries } => {
                TrackerImpl::Cm(CmSketchTopK::with_total_entries(rows, entries, k, seed))
            }
            TrackerAlgo::SpaceSaving { entries } => {
                TrackerImpl::Ss(SpaceSavingTopK::new(entries, k))
            }
        }
    }
}

/// A concrete tracker instance.
#[derive(Clone, Debug)]
pub enum TrackerImpl {
    /// CM-Sketch-based.
    Cm(CmSketchTopK),
    /// Space-Saving-based.
    Ss(SpaceSavingTopK),
}

impl TrackerImpl {
    /// Serializes the tracker's SRAM contents — the sketch counter array
    /// plus the sorted CAM, or the Space-Saving monitored set — for a
    /// checkpoint. Construction parameters (geometry, seed, `k`) are not
    /// written, nor is the variant: the restoring side rebuilds the tracker
    /// from its own [`TrackerAlgo`], which the manager's config fingerprint
    /// has already matched, and loads only the dynamic state into it.
    pub fn save(&self, w: &mut StateWriter) {
        match self {
            TrackerImpl::Cm(t) => {
                w.put_u32_slice(t.sketch().counters());
                w.put_u64(t.sketch().updates());
                let cam = t.cam().entries();
                w.put_u64(cam.len() as u64);
                for e in cam {
                    w.put_u64(e.addr);
                    w.put_u64(e.count);
                }
            }
            TrackerImpl::Ss(t) => {
                let entries = t.inner().entries();
                w.put_u64(entries.len() as u64);
                for e in entries {
                    w.put_u64(e.addr);
                    w.put_u64(e.count);
                    w.put_u64(e.error);
                }
                w.put_u64(t.inner().total());
            }
        }
    }

    /// Loads checkpointed SRAM contents into a tracker rebuilt with the
    /// original construction parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the payload is truncated or fails the
    /// underlying geometry/ordering validation.
    pub fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        match self {
            TrackerImpl::Cm(t) => {
                let counters = r.get_u32_vec()?;
                let updates = r.get_u64()?;
                let n = r.get_u64()? as usize;
                let mut cam = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    cam.push(m5_trackers::cam::CamEntry {
                        addr: r.get_u64()?,
                        count: r.get_u64()?,
                    });
                }
                if !t.load_state(&counters, updates, &cam) {
                    return Err(CodecError::BadValue {
                        what: "cm-sketch tracker state",
                        value: counters.len() as u64,
                    });
                }
            }
            TrackerImpl::Ss(t) => {
                let n = r.get_u64()? as usize;
                let mut entries = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    entries.push(m5_trackers::spacesaving::SsEntry {
                        addr: r.get_u64()?,
                        count: r.get_u64()?,
                        error: r.get_u64()?,
                    });
                }
                let total = r.get_u64()?;
                if !t.load_state(&entries, total) {
                    return Err(CodecError::BadValue {
                        what: "space-saving tracker state",
                        value: entries.len() as u64,
                    });
                }
            }
        }
        Ok(())
    }
}

impl TopKAlgorithm for TrackerImpl {
    fn record(&mut self, addr: u64) {
        match self {
            TrackerImpl::Cm(t) => t.record(addr),
            TrackerImpl::Ss(t) => t.record(addr),
        }
    }

    fn top_k(&self) -> Vec<(u64, u64)> {
        match self {
            TrackerImpl::Cm(t) => t.top_k(),
            TrackerImpl::Ss(t) => t.top_k(),
        }
    }

    fn reset(&mut self) {
        match self {
            TrackerImpl::Cm(t) => t.reset(),
            TrackerImpl::Ss(t) => t.reset(),
        }
    }

    fn entries(&self) -> usize {
        match self {
            TrackerImpl::Cm(t) => t.entries(),
            TrackerImpl::Ss(t) => t.entries(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            TrackerImpl::Cm(t) => t.name(),
            TrackerImpl::Ss(t) => t.name(),
        }
    }
}

/// The device name of the tracker keyed at `granularity`, `hpt` or `hwt`;
/// also its telemetry label.
pub fn label(granularity: Granularity) -> &'static str {
    match granularity {
        Granularity::Page => "hpt",
        Granularity::Word => "hwt",
    }
}

/// Tracker configuration. The granularity is not part of it: it follows
/// from which [`crate::manager::M5Config`] field, `hpt` or `hwt`, holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackerConfig {
    /// The streaming algorithm and its size.
    pub algo: TrackerAlgo,
    /// Number of hot keys reported per query.
    pub k: usize,
    /// Hash seed.
    pub seed: u64,
}

impl TrackerConfig {
    /// The HPT defaults: CM-Sketch(32K), 32 hot pages per query.
    pub fn hpt() -> TrackerConfig {
        TrackerConfig {
            algo: TrackerAlgo::cm_sketch_32k(),
            k: 32,
            seed: 0x4897,
        }
    }

    /// The HWT defaults: CM-Sketch(32K), 256 hot words per query.
    pub fn hwt() -> TrackerConfig {
        TrackerConfig {
            algo: TrackerAlgo::cm_sketch_32k(),
            k: 256,
            seed: 0x4a57,
        }
    }
}

/// The hot-address tracker device: an HPT or an HWT, by [`Granularity`].
#[derive(Clone, Debug)]
pub struct HotTracker {
    tracker: TrackerImpl,
    granularity: Granularity,
    observed: u64,
    k: usize,
    dead: bool,
    saturated: bool,
    flip_mask: u64,
}

impl HotTracker {
    /// Builds a tracker keyed at `granularity`.
    pub fn new(config: TrackerConfig, granularity: Granularity) -> HotTracker {
        HotTracker {
            tracker: config.algo.build(config.k, config.seed),
            granularity,
            observed: 0,
            k: config.k,
            dead: false,
            saturated: false,
            flip_mask: 0,
        }
    }

    /// Accesses observed since the last query.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Serves a host query: returns the top-K `(key, count)` pairs and
    /// resets the tracker for the next epoch. Keys are PFNs for an HPT and
    /// cache-line addresses for an HWT.
    pub fn query(&mut self) -> Vec<(u64, u64)> {
        self.observed = 0;
        if self.dead {
            // A wedged device's MMIO window reads back all-ones entries;
            // the manager's health check recognises them as garbage.
            return (0..self.k as u64)
                .map(|i| (u64::MAX - i, u64::MAX))
                .collect();
        }
        let mut top = self.tracker.drain_top_k();
        // A saturated SRAM reads every count back as all-ones.
        if std::mem::take(&mut self.saturated) {
            top.iter_mut().for_each(|e| e.1 = u64::MAX);
        }
        top
    }

    /// Serializes the device's dynamic state (tracker SRAM plus the fault
    /// flags) for a checkpoint. `k` and the granularity are configuration,
    /// rebuilt by the restoring side's [`HotTracker::new`].
    pub fn save(&self, w: &mut StateWriter) {
        self.tracker.save(w);
        w.put_u64(self.observed);
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
    pub fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.tracker.load(r)?;
        self.observed = r.get_u64()?;
        self.dead = r.get_bool()?;
        self.saturated = r.get_bool()?;
        self.flip_mask = r.get_u64()?;
        Ok(())
    }
}

impl CxlDevice for HotTracker {
    fn name(&self) -> &str {
        label(self.granularity)
    }

    fn on_access(&mut self, line: CacheLineAddr, _is_write: bool, _now: Nanos) {
        if self.dead {
            return;
        }
        self.observed += 1;
        self.tracker
            .record(self.granularity.key(line) ^ self.flip_mask);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::{Pfn, WordIndex};
    use cxl_sim::memory::CXL_BASE_PFN;

    fn touch(t: &mut HotTracker, page: u64, times: u64) {
        for i in 0..times {
            let w = WordIndex((i % 64) as u8);
            let line = Pfn(CXL_BASE_PFN + page).word(w).cache_line();
            t.on_access(line, false, Nanos::ZERO);
        }
    }

    #[test]
    fn presets_build_the_paper_configurations() {
        let cm = TrackerAlgo::cm_sketch_32k().build(5, 0);
        assert_eq!(cm.entries(), 32 * 1024);
        assert_eq!(cm.name(), "cm-sketch");
        let ss = TrackerAlgo::space_saving_50().build(5, 0);
        assert_eq!(ss.entries(), 50);
        assert_eq!(ss.name(), "space-saving");
    }

    #[test]
    fn pages_merge_word_offsets_for_either_algorithm() {
        for algo in [TrackerAlgo::cm_sketch_32k(), TrackerAlgo::space_saving_50()] {
            let config = TrackerConfig {
                algo,
                k: 5,
                seed: 1,
            };
            let mut hpt = HotTracker::new(config, Granularity::Page);
            touch(&mut hpt, 1, 100);
            touch(&mut hpt, 2, 10);
            assert_eq!(hpt.observed(), 110);
            let top = hpt.query();
            assert_eq!(top[0].0, CXL_BASE_PFN + 1, "{algo:?}");
            assert!(top[0].1 >= 100);
            assert!(hpt.query().is_empty(), "{algo:?}");
            assert_eq!(hpt.name(), "hpt");
        }
    }

    #[test]
    fn words_within_a_page_stay_apart() {
        let mut hwt = HotTracker::new(TrackerConfig::hwt(), Granularity::Word);
        let pfn = Pfn(CXL_BASE_PFN);
        let hot_word = pfn.word(WordIndex(5)).cache_line();
        let cold_word = pfn.word(WordIndex(6)).cache_line();
        for _ in 0..50 {
            hwt.on_access(hot_word, false, Nanos::ZERO);
        }
        hwt.on_access(cold_word, false, Nanos::ZERO);
        assert_eq!(hwt.observed(), 51);
        let top = hwt.query();
        assert_eq!(top[0].0, hot_word.0);
        assert_eq!(Granularity::Word.pfn(top[0].0), pfn);
        assert!(top[0].1 >= 50);
        assert_eq!(hwt.name(), "hwt");
    }

    #[test]
    fn query_resets_for_next_epoch() {
        let mut hpt = HotTracker::new(TrackerConfig::hpt(), Granularity::Page);
        touch(&mut hpt, 3, 50);
        let first = hpt.query();
        assert_eq!(Granularity::Page.pfn(first[0].0), Pfn(CXL_BASE_PFN + 3));
        assert_eq!(hpt.observed(), 0);
        assert!(hpt.query().is_empty());
        // A fresh epoch tracks fresh pages.
        touch(&mut hpt, 4, 5);
        assert_eq!(hpt.query()[0].0, CXL_BASE_PFN + 4);
    }
}
