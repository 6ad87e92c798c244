//! # m5-workloads — the paper's twelve memory-intensive benchmarks
//!
//! Synthetic-but-faithful generators for every workload in the paper's
//! Table 3, plus the Memcached and CacheLib variants of Figure 4:
//!
//! * [`kv`] — a slab-allocated in-memory KV store driven by a YCSB-A
//!   client (50/50 read/update): the Redis / Memcached / CacheLib proxies.
//!   Small objects scattered across slab pages produce the sparse-page
//!   behaviour of Figure 4; uniform key popularity produces Redis's
//!   equilibrium behaviour of Figure 9.
//! * [`spec`] — proxies for the four most memory-intensive SPECrate 2017
//!   benchmarks: `mcf` (pointer chasing), `cactuBSSN` and `fotonik3d`
//!   (dense 3-D stencil sweeps), `roms` (an ocean-model grid with the
//!   heavily skewed plane-access distribution of Figure 10).
//! * [`graph`] — real implementations of the six GAP kernels (BFS, PR, CC,
//!   SSSP, BC, TC) over synthetic R-MAT graphs, instrumented so every
//!   data-structure touch becomes a simulated memory access.
//! * [`liblinear`] — sparse mini-batch SGD over a KDD-like design matrix.
//! * [`registry`] — the named benchmark table mapping the paper's twelve
//!   workloads to ready-to-run generators at simulator scale.
//! * [`access`] — the replayable trace container all generators produce:
//!   generate once, replay bit-identically under every migration daemon.
//!
//! ```
//! use cxl_sim::prelude::*;
//! use m5_workloads::registry::Benchmark;
//!
//! let spec = Benchmark::Redis.spec();
//! let mut sys = System::new(SystemConfig::scaled_default());
//! let region = sys
//!     .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
//!     .unwrap();
//! let mut workload = spec.build(region.base, 1_000, 42);
//! let report = cxl_sim::system::run(
//!     &mut sys,
//!     &mut workload,
//!     &mut cxl_sim::system::NoMigration,
//!     u64::MAX,
//! );
//! assert!(report.accesses >= 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod corun;
pub mod dist;
pub mod graph;
pub mod kv;
pub mod liblinear;
pub mod registry;
pub mod spec;
#[cfg(test)]
mod stats;
