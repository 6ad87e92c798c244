//! The unified top-K tracker interface and the composed trackers.
//!
//! [`CmSketchTopK`] is the paper's Figure 5 datapath: a CM-Sketch estimates
//! per-address counts and a [`SortedCam`] keeps the K hottest. The
//! Space-Saving and Sticky-Sampling trackers adapt the other two streaming
//! algorithm families to the same interface so the Figure 7 design-space
//! sweep treats all of them uniformly.

use crate::cam::SortedCam;
use crate::sketch::CmSketch;
use crate::spacesaving::SpaceSaving;
use crate::sticky::StickySampling;

/// A streaming top-K hot-address tracker.
pub trait TopKAlgorithm {
    /// Observes one access to `addr`.
    fn record(&mut self, addr: u64);

    /// The current top-K `(address, estimated count)` pairs, hottest first.
    fn top_k(&self) -> Vec<(u64, u64)>;

    /// Clears all state — the hardware resets both units immediately after
    /// serving a query so the next epoch starts fresh (§5.1).
    fn reset(&mut self);

    /// Number of tracked counters `N` (the design-space axis of Figure 7).
    fn entries(&self) -> usize;

    /// A short label for reports.
    fn name(&self) -> &'static str;

    /// Serves a query: returns the top-K and resets, as the hardware does.
    fn drain_top_k(&mut self) -> Vec<(u64, u64)> {
        let out = self.top_k();
        self.reset();
        out
    }
}

/// The CM-Sketch top-K tracker (Figure 5): sketch + sorted CAM.
#[derive(Clone, Debug)]
pub struct CmSketchTopK {
    sketch: CmSketch,
    cam: SortedCam,
}

impl CmSketchTopK {
    /// Builds a tracker with an `h × w` sketch and a `k`-entry CAM.
    pub fn new(h: usize, w: usize, k: usize, seed: u64) -> CmSketchTopK {
        CmSketchTopK {
            sketch: CmSketch::new(h, w, seed),
            cam: SortedCam::new(k),
        }
    }

    /// Builds a tracker parameterised by total sketch entries `n = h × w`.
    pub fn with_total_entries(h: usize, n: usize, k: usize, seed: u64) -> CmSketchTopK {
        CmSketchTopK {
            sketch: CmSketch::with_total_entries(h, n, seed),
            cam: SortedCam::new(k),
        }
    }

    /// The sketch unit.
    pub fn sketch(&self) -> &CmSketch {
        &self.sketch
    }

    /// The CAM unit.
    pub fn cam(&self) -> &SortedCam {
        &self.cam
    }

    /// Restores exported sketch counters and CAM entries into a tracker
    /// rebuilt with the original construction parameters. Returns `false`
    /// (leaving the tracker partially untouched only if the sketch load
    /// already failed) on any geometry or ordering mismatch.
    pub fn load_state(
        &mut self,
        counters: &[u32],
        updates: u64,
        cam: &[crate::cam::CamEntry],
    ) -> bool {
        self.sketch.load_state(counters, updates) && self.cam.load_entries(cam)
    }
}

impl TopKAlgorithm for CmSketchTopK {
    fn record(&mut self, addr: u64) {
        let est = self.sketch.update(addr);
        // Steps 4–6 of Figure 5: tag hit refreshes the entry, miss competes
        // against the CAM's minimum. An estimate that cannot beat the
        // minimum is a provable no-op — sketch counters only grow within
        // an epoch (sketch and CAM reset together), so a tracked address
        // always estimates at least its stored count, itself at least the
        // minimum: `est <= min` means either the address is absent and
        // replace-min would reject it, or its stored count already equals
        // `est` and the refresh changes nothing. Skipping the CAM's tag
        // scan for that case keeps the hot path O(1) per record.
        if est > self.cam.min_count() {
            self.cam.offer(addr, est);
        }
    }

    fn top_k(&self) -> Vec<(u64, u64)> {
        self.cam
            .entries()
            .iter()
            .map(|e| (e.addr, e.count))
            .collect()
    }

    fn reset(&mut self) {
        self.sketch.reset();
        self.cam.reset();
    }

    fn entries(&self) -> usize {
        self.sketch.total_entries()
    }

    fn name(&self) -> &'static str {
        "cm-sketch"
    }
}

/// The Space-Saving top-K tracker: an `N`-entry CAM monitored set from
/// which the hottest `K` are reported.
#[derive(Clone, Debug)]
pub struct SpaceSavingTopK {
    ss: SpaceSaving,
    k: usize,
}

impl SpaceSavingTopK {
    /// Builds a tracker with `n` monitored counters reporting `k` results.
    pub fn new(n: usize, k: usize) -> SpaceSavingTopK {
        SpaceSavingTopK {
            ss: SpaceSaving::new(n),
            k,
        }
    }

    /// The underlying Space-Saving state.
    pub fn inner(&self) -> &SpaceSaving {
        &self.ss
    }

    /// Restores exported Space-Saving entries; see
    /// [`SpaceSaving::load_state`].
    pub fn load_state(&mut self, entries: &[crate::spacesaving::SsEntry], total: u64) -> bool {
        self.ss.load_state(entries, total)
    }
}

impl TopKAlgorithm for SpaceSavingTopK {
    fn record(&mut self, addr: u64) {
        self.ss.update(addr);
    }

    fn top_k(&self) -> Vec<(u64, u64)> {
        self.ss
            .top_k(self.k)
            .into_iter()
            .map(|e| (e.addr, e.count))
            .collect()
    }

    fn reset(&mut self) {
        self.ss.reset();
    }

    fn entries(&self) -> usize {
        self.ss.capacity()
    }

    fn name(&self) -> &'static str {
        "space-saving"
    }
}

/// The Sticky-Sampling top-K tracker.
#[derive(Clone, Debug)]
pub struct StickySamplingTopK {
    sticky: StickySampling,
    k: usize,
    nominal_entries: usize,
}

impl StickySamplingTopK {
    /// Builds a tracker whose first window is `window` updates, reporting
    /// `k` results. `nominal_entries` is the design-space N it represents.
    pub fn new(window: u64, k: usize, nominal_entries: usize, seed: u64) -> StickySamplingTopK {
        StickySamplingTopK {
            sticky: StickySampling::new(window, seed),
            k,
            nominal_entries,
        }
    }
}

impl TopKAlgorithm for StickySamplingTopK {
    fn record(&mut self, addr: u64) {
        self.sticky.update(addr);
    }

    fn top_k(&self) -> Vec<(u64, u64)> {
        self.sticky.top_k(self.k)
    }

    fn reset(&mut self) {
        self.sticky.reset();
    }

    fn entries(&self) -> usize {
        self.nominal_entries
    }

    fn name(&self) -> &'static str {
        "sticky-sampling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A skewed synthetic stream: key `i` appears ~proportionally to
    /// `1/(i+1)`.
    fn zipf_stream(n_keys: u64, len: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n_keys).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        (0..len)
            .map(|_| {
                let mut x = rng.gen::<f64>() * total;
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        return i as u64;
                    }
                    x -= w;
                }
                n_keys - 1
            })
            .collect()
    }

    fn exact_top_k(stream: &[u64], k: usize) -> Vec<u64> {
        let mut counts = std::collections::HashMap::<u64, u64>::new();
        for &a in stream {
            *counts.entry(a).or_default() += 1;
        }
        let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(a, _)| a).collect()
    }

    fn run<T: TopKAlgorithm>(t: &mut T, stream: &[u64]) {
        for &a in stream {
            t.record(a);
        }
    }

    #[test]
    fn all_trackers_find_the_hottest_key_in_a_skewed_stream() {
        let stream = zipf_stream(500, 50_000, 11);
        let expect = exact_top_k(&stream, 1)[0];

        let mut cm = CmSketchTopK::with_total_entries(4, 8192, 5, 1);
        run(&mut cm, &stream);
        assert_eq!(cm.top_k()[0].0, expect, "cm-sketch");

        let mut ss = SpaceSavingTopK::new(256, 5);
        run(&mut ss, &stream);
        assert_eq!(ss.top_k()[0].0, expect, "space-saving");

        let mut st = StickySamplingTopK::new(4096, 5, 4096, 2);
        run(&mut st, &stream);
        assert_eq!(st.top_k()[0].0, expect, "sticky-sampling");
    }

    #[test]
    fn cm_sketch_precision_improves_with_n() {
        // The paper's core DSE finding: bigger N → fewer collisions → the
        // reported top-K overlaps the exact top-K more.
        let stream = zipf_stream(2000, 100_000, 5);
        let exact: std::collections::HashSet<u64> = exact_top_k(&stream, 5).into_iter().collect();

        let overlap = |n: usize| {
            let mut t = CmSketchTopK::with_total_entries(4, n, 5, 7);
            run(&mut t, &stream);
            t.top_k().iter().filter(|(a, _)| exact.contains(a)).count()
        };
        let small = overlap(64);
        let large = overlap(32 * 1024);
        assert!(large >= small, "N=32K ({large}) vs N=64 ({small})");
        assert!(large >= 4, "N=32K should find nearly all of the top 5");
    }

    #[test]
    fn drain_resets_state() {
        let mut t = CmSketchTopK::new(2, 64, 3, 0);
        t.record(9);
        t.record(9);
        let first = t.drain_top_k();
        assert_eq!(first[0], (9, 2));
        assert!(t.top_k().is_empty());
        assert_eq!(t.sketch().estimate(9), 0);
    }

    #[test]
    fn every_tracker_reports_the_same_top_k_when_run_twice() {
        // Two trackers built alike in one process get hash maps with
        // different iteration orders; nothing they report may depend on it.
        let mut rng = SmallRng::seed_from_u64(17);
        let stream: Vec<u64> = (0..200_000)
            .map(|_| rng.gen_range(0..4096u64).min(rng.gen_range(0..4096)))
            .collect();
        let build = || -> Vec<Box<dyn TopKAlgorithm>> {
            vec![
                Box::new(CmSketchTopK::with_total_entries(4, 2048, 64, 1)),
                Box::new(SpaceSavingTopK::new(2048, 64)),
                Box::new(StickySamplingTopK::new(2048, 64, 2048, 1)),
                Box::new(crate::mithril::MithrilTopK::new(2048, 64, 64, 1)),
            ]
        };
        for (mut a, mut b) in build().into_iter().zip(build()) {
            for &addr in &stream {
                a.record(addr);
                b.record(addr);
            }
            assert_eq!(a.top_k(), b.top_k(), "{}", a.name());
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        let mut trackers: Vec<Box<dyn TopKAlgorithm>> = vec![
            Box::new(CmSketchTopK::new(4, 128, 5, 0)),
            Box::new(SpaceSavingTopK::new(50, 5)),
            Box::new(StickySamplingTopK::new(128, 5, 128, 0)),
        ];
        for t in &mut trackers {
            for _ in 0..10 {
                t.record(1);
            }
            assert_eq!(t.top_k()[0].0, 1, "{}", t.name());
            assert!(t.entries() > 0);
        }
    }

    #[test]
    fn state_export_import_roundtrips_mid_epoch() {
        let stream = zipf_stream(200, 5_000, 3);
        let (head, tail) = stream.split_at(2_500);

        // CM-Sketch: rebuild from construction params, load mid-epoch
        // state, and the continued run must match the uninterrupted one.
        let mut a = CmSketchTopK::with_total_entries(4, 1024, 5, 9);
        run(&mut a, &stream);
        let mut b = CmSketchTopK::with_total_entries(4, 1024, 5, 9);
        run(&mut b, head);
        let (counters, updates, cam) = (
            b.sketch().counters().to_vec(),
            b.sketch().updates(),
            b.cam().entries().to_vec(),
        );
        let mut b2 = CmSketchTopK::with_total_entries(4, 1024, 5, 9);
        assert!(b2.load_state(&counters, updates, &cam));
        run(&mut b2, tail);
        assert_eq!(a.top_k(), b2.top_k());
        assert_eq!(a.sketch().updates(), b2.sketch().updates());

        // Space-Saving likewise.
        let mut sa = SpaceSavingTopK::new(64, 5);
        run(&mut sa, &stream);
        let mut sb = SpaceSavingTopK::new(64, 5);
        run(&mut sb, head);
        let (entries, total) = (sb.inner().entries().to_vec(), sb.inner().total());
        let mut sb2 = SpaceSavingTopK::new(64, 5);
        assert!(sb2.load_state(&entries, total));
        run(&mut sb2, tail);
        assert_eq!(sa.top_k(), sb2.top_k());

        // Geometry/ordering violations are rejected.
        let mut bad = CmSketchTopK::with_total_entries(4, 1024, 5, 9);
        assert!(!bad.load_state(&counters[..3], updates, &cam));
        let unsorted = vec![
            crate::cam::CamEntry { addr: 1, count: 1 },
            crate::cam::CamEntry { addr: 2, count: 9 },
        ];
        assert!(!bad.load_state(&counters, updates, &unsorted));
        let mut ss_bad = SpaceSavingTopK::new(1, 1);
        assert!(!ss_bad.load_state(&entries, total), "over capacity");
    }

    #[test]
    fn cam_counts_come_from_the_sketch() {
        let mut t = CmSketchTopK::new(4, 4096, 2, 3);
        for _ in 0..100 {
            t.record(1);
        }
        for _ in 0..50 {
            t.record(2);
        }
        let top = t.top_k();
        assert_eq!(top, vec![(1, 100), (2, 50)]);
    }
}
