//! # m5-trackers — streaming top-K hot-address trackers
//!
//! Behavioural models of the hardware trackers evaluated in the M5 paper's
//! design-space exploration (§5.1, §7.1):
//!
//! * [`sketch::CmSketch`] — a Count-Min sketch: `H` hash rows × `W` counters,
//!   returning the minimum of the incremented counters as the estimate,
//! * [`cam::SortedCam`] — the sorted Content-Addressable Memory that keeps
//!   the top-K `(address, count)` pairs,
//! * [`topk::CmSketchTopK`] — the composed CM-Sketch top-K tracker of the
//!   paper's Figure 5 (and of NeoMem),
//! * [`spacesaving::SpaceSaving`] — the Space-Saving / Mithril-style
//!   counter-based alternative,
//! * [`mithril::MithrilTopK`] — the grouped (Mithril-style) Space-Saving
//!   variant cited in §5.1,
//! * [`sticky::StickySampling`] — the sampling-based representative,
//! * [`cost::area_um2`] and [`cost::power_mw`] — an analytic area/power
//!   model calibrated against the paper's Table 4 (7 nm ASIC synthesis),
//!   plus the FPGA/ASIC timing limits on the number of entries `N`.
//!
//! All trackers implement the common [`topk::TopKAlgorithm`] trait, so the
//! design-space harness (`m5-bench/benches/fig07_tracker_dse.rs`) sweeps
//! them uniformly.
//!
//! ```
//! use m5_trackers::topk::{CmSketchTopK, TopKAlgorithm};
//!
//! let mut tracker = CmSketchTopK::new(4, 1024, 5, 0xC0FFEE);
//! for _ in 0..100 {
//!     tracker.record(0xAA);
//! }
//! tracker.record(0xBB);
//! let top = tracker.top_k();
//! assert_eq!(top[0].0, 0xAA);
//! assert!(top[0].1 >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cam;
pub mod cost;
pub mod hash;
pub mod mithril;
pub mod sketch;
pub mod spacesaving;
pub mod sticky;
pub mod topk;
