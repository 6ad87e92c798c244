//! Monitor — Table 1's utilization statistics.
//!
//! `nr_pages(node)` comes from the zone allocator (`/proc/zoneinfo`),
//! `bw(node)` from pcm-style uncore counters (read bandwidth only: with a
//! write-allocate hierarchy every LLC miss performs a DRAM read first), and
//! `bw_den(node) = bw(node) / nr_pages(node)` measures how densely hot a
//! node's resident pages are.

use cxl_sim::kernel::CostKind;
use cxl_sim::memory::NodeId;
use cxl_sim::system::System;

/// One sampled snapshot of the tiered system's utilization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierStats {
    nr_pages: [u64; 2],
    bw: [f64; 2],
    /// Configured unloaded access latency per node, ns (0 when unsampled).
    lat_unloaded: [f64; 2],
    /// Current loaded access latency per node, ns — equals the unloaded
    /// value when the contention model is disabled or the link is idle.
    lat_loaded: [f64; 2],
}

fn idx(node: NodeId) -> usize {
    match node {
        NodeId::Ddr => 0,
        NodeId::Cxl => 1,
    }
}

impl TierStats {
    /// Builds a snapshot from raw samples (`[DDR, CXL]` order). Latencies
    /// default to zero (no congestion signal); see
    /// [`TierStats::with_latency`].
    pub fn new(nr_pages: [u64; 2], bw: [f64; 2]) -> TierStats {
        TierStats {
            nr_pages,
            bw,
            lat_unloaded: [0.0; 2],
            lat_loaded: [0.0; 2],
        }
    }

    /// Returns this snapshot with per-node latency samples attached
    /// (`[DDR, CXL]` order, nanoseconds).
    pub fn with_latency(mut self, unloaded: [f64; 2], loaded: [f64; 2]) -> TierStats {
        self.lat_unloaded = unloaded;
        self.lat_loaded = loaded;
        self
    }

    /// Current loaded access latency of `node` in nanoseconds.
    pub fn loaded_latency(&self, node: NodeId) -> f64 {
        self.lat_loaded[idx(node)]
    }

    /// Congestion factor of `node`: loaded latency over unloaded latency.
    /// 1.0 means an idle link; 2.0 means queueing has doubled the access
    /// time. Returns 1.0 when no latency sample was attached, so consumers
    /// see "no congestion" rather than a division by zero.
    pub fn congestion(&self, node: NodeId) -> f64 {
        let unloaded = self.lat_unloaded[idx(node)];
        if unloaded == 0.0 {
            1.0
        } else {
            self.lat_loaded[idx(node)] / unloaded
        }
    }

    /// Pages allocated to `node`.
    pub fn nr_pages(&self, node: NodeId) -> u64 {
        self.nr_pages[idx(node)]
    }

    /// Consumed read bandwidth of `node` in bytes/second.
    pub fn bw(&self, node: NodeId) -> f64 {
        self.bw[idx(node)]
    }

    /// Bandwidth density: `bw(node)` per allocated page (0 when empty).
    pub fn bw_den(&self, node: NodeId) -> f64 {
        let pages = self.nr_pages(node);
        if pages == 0 {
            0.0
        } else {
            self.bw(node) / pages as f64
        }
    }

    /// Total consumed bandwidth, `bw(DDR) + bw(CXL)` — proportional to
    /// application performance for a given phase (§5.2).
    pub fn bw_tot(&self) -> f64 {
        self.bw[0] + self.bw[1]
    }

    /// `bw_den(node) / bw_tot` — normalised so that execution-phase changes
    /// in overall intensity do not masquerade as placement changes
    /// (Algorithm 1, line 5).
    pub fn rel_bw_den(&self, node: NodeId) -> f64 {
        let tot = self.bw_tot();
        if tot == 0.0 {
            0.0
        } else {
            self.bw_den(node) / tot
        }
    }
}

/// The Monitor component: samples the current window's [`TierStats`]
/// from the live system and starts a new window. Bills the host the cost
/// of reading the counters. It keeps no state of its own; the window lives
/// in the system.
pub fn sample(sys: &mut System) -> TierStats {
    // Reading pcm counters + /proc/zoneinfo.
    let cost = sys.config().costs.mmio_reg_access;
    sys.daemon_bill(CostKind::ManagerQuery, cost * 2);
    // `rollover_bandwidth` also publishes the per-node bandwidth and
    // occupancy gauges on the system's telemetry bus.
    let [ddr, cxl] = sys.rollover_bandwidth();
    let unloaded = [
        sys.config().ddr.access_latency.0 as f64,
        sys.config().cxl.access_latency.0 as f64,
    ];
    let loaded = [
        sys.loaded_latency(NodeId::Ddr).0 as f64,
        sys.loaded_latency(NodeId::Cxl).0 as f64,
    ];
    TierStats {
        nr_pages: [sys.nr_pages(NodeId::Ddr), sys.nr_pages(NodeId::Cxl)],
        bw: [ddr.bytes_per_sec(), cxl.bytes_per_sec()],
        lat_unloaded: unloaded,
        lat_loaded: loaded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        // 100 DDR pages at 2 GB/s, 400 CXL pages at 4 GB/s.
        let s = TierStats::new([100, 400], [2e9, 4e9]);
        assert_eq!(s.nr_pages(NodeId::Ddr), 100);
        assert!((s.bw(NodeId::Cxl) - 4e9).abs() < 1.0);
        assert!((s.bw_den(NodeId::Ddr) - 2e7).abs() < 1.0);
        assert!((s.bw_den(NodeId::Cxl) - 1e7).abs() < 1.0);
        assert!((s.bw_tot() - 6e9).abs() < 1.0);
        // DDR's pages are denser: rel_bw_den(DDR) > rel_bw_den(CXL).
        assert!(s.rel_bw_den(NodeId::Ddr) > s.rel_bw_den(NodeId::Cxl));
    }

    #[test]
    fn empty_nodes_do_not_divide_by_zero() {
        let s = TierStats::new([0, 0], [0.0, 0.0]);
        assert_eq!(s.bw_den(NodeId::Ddr), 0.0);
        assert_eq!(s.rel_bw_den(NodeId::Cxl), 0.0);
        assert_eq!(s.bw_tot(), 0.0);
        // No latency sample attached: congestion reads as "idle", not NaN.
        assert_eq!(s.congestion(NodeId::Cxl), 1.0);
    }

    #[test]
    fn congestion_is_loaded_over_unloaded() {
        let s = TierStats::new([10, 10], [1e9, 1e9]).with_latency([100.0, 400.0], [100.0, 900.0]);
        assert_eq!(s.congestion(NodeId::Ddr), 1.0);
        assert!((s.congestion(NodeId::Cxl) - 2.25).abs() < 1e-12);
        assert_eq!(s.loaded_latency(NodeId::Cxl), 900.0);
    }

    #[test]
    fn sampling_a_live_system_rolls_the_window() {
        use cxl_sim::prelude::*;
        let mut sys = System::new(SystemConfig::small());
        let r = sys.alloc_region(8, Placement::AllOnCxl).unwrap();
        for i in 0..512u64 {
            sys.access(r.base.offset(i * 64), false);
        }
        let s = sample(&mut sys);
        assert_eq!(s.nr_pages(NodeId::CXL), 8);
        assert!(
            s.bw(NodeId::CXL) > 0.0,
            "cold misses consumed CXL bandwidth"
        );
        assert_eq!(s.bw(NodeId::DDR), 0.0);
        // The next window starts empty.
        let s2 = sample(&mut sys);
        assert_eq!(s2.bw(NodeId::CXL), 0.0);
        assert!(sys.kernel_costs().of(CostKind::ManagerQuery) > Nanos::ZERO);
        // Fixed-cost path: loaded == unloaded, congestion factor 1.0.
        assert_eq!(s.congestion(NodeId::CXL), 1.0);
    }

    #[test]
    fn sampling_a_contended_system_reports_congestion() {
        use cxl_sim::prelude::*;
        let cfg = SystemConfig::small()
            .with_contention(ContentionConfig::enabled_default().with_cxl_background(0.9));
        let mut sys = System::new(cfg);
        let s = sample(&mut sys);
        assert!(
            s.congestion(NodeId::CXL) > 1.0,
            "a 90%-background-loaded CXL link must read as congested, got {}",
            s.congestion(NodeId::CXL)
        );
        assert_eq!(s.congestion(NodeId::DDR), 1.0);
    }
}
