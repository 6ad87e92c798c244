//! The algorithm selection shared by HPT and HWT.

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
    /// The paper's full-system HPT configuration: CM-Sketch with N = 32K.
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
    /// written: the restoring side rebuilds the tracker from its own
    /// [`TrackerAlgo`] and loads only the dynamic state into it.
    pub fn save(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        match self {
            TrackerImpl::Cm(t) => {
                w.put_u8(0);
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
                w.put_u8(1);
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
    /// Returns a [`cxl_sim::checkpoint::CodecError`] when the payload is
    /// truncated, describes the other algorithm variant, or fails the
    /// underlying geometry/ordering validation.
    pub fn load(
        &mut self,
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<(), cxl_sim::checkpoint::CodecError> {
        use cxl_sim::checkpoint::CodecError;
        let tag = r.get_u8()?;
        match (tag, &mut *self) {
            (0, TrackerImpl::Cm(t)) => {
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
            (1, TrackerImpl::Ss(t)) => {
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
            (tag, _) => {
                return Err(CodecError::BadValue {
                    what: "tracker algorithm tag",
                    value: tag as u64,
                });
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn both_variants_track_through_the_trait() {
        for algo in [TrackerAlgo::cm_sketch_32k(), TrackerAlgo::space_saving_50()] {
            let mut t = algo.build(3, 1);
            for _ in 0..10 {
                t.record(42);
            }
            t.record(7);
            let top = t.top_k();
            assert_eq!(top[0].0, 42, "{}", t.name());
            t.reset();
            assert!(t.top_k().is_empty() || t.top_k()[0].1 == 0);
        }
    }
}
