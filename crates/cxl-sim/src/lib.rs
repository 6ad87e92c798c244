//! # cxl-sim — a tiered-memory (DDR + CXL) system simulator
//!
//! This crate is the substrate for the M5 reproduction. It models, in
//! software, every hardware and kernel component the ASPLOS'25 paper
//! *"M5: Mastering Page Migration and Memory Management for CXL-based
//! Tiered Memory Systems"* depends on:
//!
//! * a two-tier physical memory ([`memory`]): fast DDR DRAM and slow CXL DRAM,
//!   with per-node latency and read-bandwidth accounting,
//! * x86-style paging ([`paging`]) with present/accessed/dirty bits, page
//!   pinning, and NUMA placement,
//! * per-core TLBs ([`tlb`]) whose miss behaviour drives the accessed-bit
//!   semantics that DAMON and ANB rely on,
//! * a set-associative, write-allocate last-level cache ([`cache`]) that
//!   cache-filters application accesses so that profilers and trackers only
//!   observe true DRAM traffic,
//! * a CXL controller snoop bus ([`controller`]) where near-memory devices
//!   (PAC, WAC, HPT, HWT — implemented in the `m5-profilers` and `m5-core`
//!   crates) observe every access to CXL DRAM,
//! * a page-migration engine ([`migration`]) with the cost model of Linux
//!   `migrate_pages()`, made crash-consistent by a write-ahead migration
//!   journal ([`journal`]) whose transactions can be rolled back or
//!   replayed after a controller reset ([`system::System::recover`]),
//! * a Multi-Generational LRU ([`mglru`]) used to pick demotion victims,
//! * a deterministic fault injector ([`faults`]) that schedules CXL latency
//!   spikes, controller stalls, poisoned lines, SRAM counter corruption,
//!   migration copy failures and DDR pressure so robustness can be tested
//!   reproducibly,
//! * a kernel-time ledger ([`kernel`]) that bills PTE scans, TLB shootdowns,
//!   hinting faults, migrations and manager work against application time,
//!   reproducing the co-located-core interference methodology of the paper's
//!   §4.2, and
//! * a composed machine ([`system`]) with a run loop ([`system::run`]) that
//!   drives a workload through the whole stack and produces a
//!   [`report::RunReport`].
//!
//! ## Quick example
//!
//! ```
//! use cxl_sim::prelude::*;
//!
//! let mut system = System::new(SystemConfig::small());
//! let region = system.alloc_region(64, Placement::AllOnCxl).unwrap();
//! // Touch the first byte of every page.
//! for page in 0..64u64 {
//!     let outcome = system.access(region.base.offset(page * PAGE_SIZE as u64), false);
//!     assert!(outcome.latency > Nanos(0));
//! }
//! assert_eq!(system.nr_pages(NodeId::CXL), 64);
//! ```
//!
//! The [`system::run`] driver additionally understands
//! [`system::MigrationDaemon`]s (ANB, DAMON, or the M5-manager) and periodic
//! wakeups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod checkpoint;
pub mod chunk;
pub mod config;
pub mod contention;
pub mod controller;
pub mod faults;
pub mod hotlog;
pub mod journal;
pub mod kernel;
pub mod memory;
pub mod mglru;
pub mod migration;
pub mod paging;
pub mod perfmon;
pub mod ras;
mod recency;
pub mod report;
pub mod system;
pub mod time;
pub mod tlb;
pub mod trace;

pub use m5_telemetry as telemetry;

/// Convenience re-exports of the types needed to assemble and drive a system.
pub mod prelude {
    pub use crate::addr::{
        CacheLineAddr, Pfn, PhysAddr, VirtAddr, Vpn, WordIndex, PAGE_SIZE, WORDS_PER_PAGE,
        WORD_SIZE,
    };
    pub use crate::cache::LlcConfig;
    pub use crate::checkpoint::{
        Checkpoint, CheckpointError, CodecError, LoadedCheckpoint, RestoreError, StateReader,
        StateWriter,
    };
    pub use crate::chunk::AccessChunk;
    pub use crate::config::{Placement, SystemConfig};
    pub use crate::contention::{Contention, ContentionConfig, LinkParams, TrafficClass};
    pub use crate::controller::{CxlDevice, DeviceHandle};
    pub use crate::faults::{
        DeviceFault, FaultClass, FaultEvent, FaultKind, FaultPlan, ScheduledFault, SimError,
    };
    pub use crate::journal::{
        JournalCounters, MigrationJournal, MigrationTxn, RecoveryReport, TxnId, TxnState,
    };
    pub use crate::kernel::{CostKind, KernelCosts};
    pub use crate::memory::NodeId;
    pub use crate::perfmon::BandwidthStats;
    pub use crate::ras::{EvacuationReport, NodeHealth, RasState};
    pub use crate::report::{HealthReport, RunReport};
    pub use crate::system::{
        Access, AccessOutcome, AccessStream, BatchPause, ChunkedRun, MigrationDaemon,
        RasServiceReport, System, SystemStats,
    };
    pub use crate::time::Nanos;
    pub use m5_telemetry::{JsonlSink, MemorySink, MetricsSnapshot, SpanId, Telemetry};
}
