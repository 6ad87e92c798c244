//! # m5-core — the M5 platform (§5): Track, Filter, and Migrate
//!
//! The paper's contribution, reproduced on top of the `cxl-sim` substrate:
//!
//! * [`tracker::HotTracker`] — the near-memory HPT and HWT in the CXL
//!   controller: one device that cost-efficiently tracks the top-K hot
//!   4 KiB pages or 64 B words (by [`cxl_sim::addr::Granularity`]) using a
//!   CM-Sketch (or Space-Saving) top-K tracker. It observes every CXL DRAM
//!   access at zero host-CPU cost; only *querying* it costs the host an
//!   MMIO round trip.
//! * [`manager`] — the M5-manager, four user-space components plus a thin
//!   in-kernel Promoter:
//!   [`manager::monitor::sample`] (Table 1: `nr_pages`/`bw`/`bw_den`),
//!   [`manager::nominator::Nominator`] (`_HPA`/`_HWA`, HPT-only /
//!   HPT-driven / HWT-driven modes),
//!   [`manager::elector::Elector`] (Algorithm 1 with a pluggable
//!   `fscale`), and [`manager::promoter::Promoter`] (safety-checked
//!   `migrate_pages()`).
//! * [`manager::M5Manager`] — the composed migration daemon, pluggable
//!   into `cxl_sim::system::run` next to ANB and DAMON.
//! * [`policy`] — the §7.2 policy presets: the simple `y = xⁿ` fscale
//!   policy with CM-Sketch(32K) or Space-Saving(50) trackers, and the
//!   HPT-only / HPT-driven / HWT-driven nominator configurations of
//!   Figure 9.
//!
//! ```
//! use cxl_sim::prelude::*;
//! use m5_core::manager::{M5Config, M5Manager};
//! use m5_core::policy;
//!
//! let mut sys = System::new(SystemConfig::small());
//! let region = sys.alloc_region(32, Placement::AllOnCxl).unwrap();
//! let mut m5 = M5Manager::new(policy::simple_hpt_policy());
//! # let _ = (region, &mut m5);
//! // drive with cxl_sim::system::run(&mut sys, &mut workload, &mut m5, ..)
//! # let _: Option<M5Config> = None;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;
pub mod policy;
pub mod tracker;
