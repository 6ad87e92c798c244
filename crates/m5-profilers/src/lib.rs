//! # m5-profilers — PAC and WAC, the exact CXL-side access profilers
//!
//! Behavioural models of the paper's §3 profiling hardware:
//!
//! * [`counter::AccessCounter`] — the **Page Access Counter** (PAC) and the
//!   **Word Access Counter** (WAC), one device that differs only in its
//!   address shift ([`cxl_sim::addr::Granularity`]). It snoops every access
//!   address from the CXL IP to the memory controllers and counts accesses
//!   per 4 KiB page (PAC right-shifts `PA[47:6]` by 6 to obtain the PFN) or
//!   per 64 B word (WAC skips the shift) in an SRAM unit of `L`-bit
//!   saturating counters. Saturated counters spill into a 64-bit
//!   access-count table (in host or device memory) and reset, so final
//!   counts are exact.
//! * [`counter_cache::CounterCache`] — scalability mode 1 (§3): the SRAM
//!   unit acts as a cache over the access-count table, evicting counters
//!   with D2H/D2D writebacks on misses.
//!
//! Both counters implement [`cxl_sim::controller::CxlDevice`], so they
//! attach directly to a simulated system:
//!
//! ```
//! use cxl_sim::prelude::*;
//! use m5_profilers::counter::{AccessCounter, CounterConfig};
//!
//! let mut sys = System::new(SystemConfig::small());
//! let region = sys.alloc_region(4, Placement::AllOnCxl).unwrap();
//! let pac = sys.attach_device(AccessCounter::new(CounterConfig::pac(&sys)));
//! let wac = sys.attach_device(AccessCounter::new(CounterConfig::wac(&sys)));
//!
//! sys.access(region.base, false);
//! let pac: &AccessCounter = sys.device(pac).unwrap();
//! let (pfn, count) = pac.hottest(1)[0];
//! assert_eq!(count, 1);
//! let wac: &AccessCounter = sys.device(wac).unwrap();
//! assert_eq!(wac.unique_words_per_page()[&pfn], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod count_table;
pub mod counter;
pub mod counter_cache;
