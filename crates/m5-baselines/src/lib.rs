//! # m5-baselines — the CPU-driven page-migration solutions
//!
//! Faithful behavioural models of the two baselines the paper evaluates
//! (§2.1, §4, §7):
//!
//! * [`anb::Anb`] — **Automatic NUMA Balancing** (Solution 1: hinting page
//!   faults). A scanner periodically unmaps batches of slow-tier pages
//!   (clearing present bits and shooting down TLB entries); the soft fault
//!   taken on the next touch identifies the page as hot and triggers
//!   promotion. The scan period adapts: it backs off when faults stop
//!   producing migrations, which is why ANB goes quiet at equilibrium
//!   (§7.2's Redis discussion).
//! * [`damon::Damon`] — **DAMON** (Solution 2: PTE scanning). Region-based
//!   monitoring with adaptive region split/merge; every sampling interval
//!   one page per region has its PTE accessed bit tested and cleared, and
//!   at each aggregation interval the hottest regions' slow-tier pages are
//!   promoted (a DAMOS `migrate_hot`-style scheme). DAMON keeps scanning
//!   and migrating at equilibrium — the behaviour that hurts Redis in the
//!   paper's Figure 9.
//!
//! Both daemons support a **record-only** mode implementing the paper's
//! §4.1 protocol (S1): identified hot pages are appended to a
//! [`daemon::HotPageLog`] *without* migrating them, so PAC can later score
//! how hot the identified pages really were.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anb;
pub mod daemon;
pub mod damon;
pub mod ifmm;
