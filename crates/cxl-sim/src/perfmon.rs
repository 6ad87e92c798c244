//! Performance-counter model: per-node read bandwidth and page counts.
//!
//! This is the substrate behind the M5-manager's `Monitor` (paper Table 1):
//!
//! | function          | description                              | real tool      |
//! |-------------------|------------------------------------------|----------------|
//! | `nr_pages(node)`  | pages allocated to `node`                | `/proc/zoneinfo` |
//! | `bw(node)`        | consumed *read* bandwidth of `node`      | `pcm`          |
//! | `bw_den(node)`    | `bw(node)` per allocated page            | derived        |
//!
//! Only read bandwidth is reported because with a write-allocate hierarchy
//! every LLC miss — load or store — first performs a DRAM read (§5.2).

use crate::memory::NodeId;
use crate::time::Nanos;

/// Per-node traffic counters for one measurement window plus cumulative
/// totals.
#[derive(Clone, Debug, Default)]
pub struct PerfMonitor {
    window_reads: [u64; 2],
    window_writebacks: [u64; 2],
    window_start: Nanos,
    total_reads: [u64; 2],
    total_writebacks: [u64; 2],
}

/// A bandwidth snapshot of one node over a closed window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthStats {
    /// 64 B read accesses observed in the window.
    pub reads: u64,
    /// 64 B dirty writebacks observed in the window. Not part of
    /// [`BandwidthStats::bytes_per_sec`] (the Monitor's `bw()` is a read
    /// signal, §5.2), but per-window write traffic is what read/write
    /// asymmetric consumers (the contention model's billing audit) need.
    pub writebacks: u64,
    /// Window duration.
    pub window: Nanos,
}

impl BandwidthStats {
    /// Read bandwidth in bytes per second. Returns 0 for an empty window —
    /// including the zero-width window produced when the window is read at
    /// the very instant it was opened (an access landing exactly on a
    /// rollover boundary belongs to the *new* window and becomes bandwidth
    /// only once the window has nonzero width). Computed in floating point
    /// so a saturated read counter cannot overflow the 64-byte scaling.
    pub fn bytes_per_sec(&self) -> f64 {
        if self.window == Nanos::ZERO {
            return 0.0;
        }
        self.reads as f64 * 64.0 / self.window.as_secs_f64()
    }

    /// Writeback bandwidth in bytes per second (0 for an empty window).
    pub fn write_bytes_per_sec(&self) -> f64 {
        if self.window == Nanos::ZERO {
            return 0.0;
        }
        self.writebacks as f64 * 64.0 / self.window.as_secs_f64()
    }
}

fn idx(node: NodeId) -> usize {
    match node {
        NodeId::Ddr => 0,
        NodeId::Cxl => 1,
    }
}

impl PerfMonitor {
    /// A monitor with an empty window starting at time zero.
    pub fn new() -> PerfMonitor {
        PerfMonitor::default()
    }

    /// Records one 64 B DRAM read (an LLC miss fill) on `node`.
    #[inline]
    pub fn record_read(&mut self, node: NodeId) {
        self.window_reads[idx(node)] += 1;
        self.total_reads[idx(node)] += 1;
    }

    /// Records one 64 B DRAM write (a dirty writeback) on `node`.
    ///
    /// Windowed as well as totalled: per-window write traffic used to be
    /// dropped on the floor (only cumulative totals existed), which made
    /// the window partition lossy for any consumer billing read and write
    /// traffic asymmetrically.
    #[inline]
    pub fn record_writeback(&mut self, node: NodeId) {
        self.window_writebacks[idx(node)] += 1;
        self.total_writebacks[idx(node)] += 1;
    }

    /// Reads the current window's stats for `node` as of `now` without
    /// closing the window.
    ///
    /// `now` earlier than the window start (a stale timestamp from before
    /// the last rollover) saturates to a zero-width window, which reports
    /// zero bandwidth rather than inventing a rate from a negative span.
    pub fn window(&self, node: NodeId, now: Nanos) -> BandwidthStats {
        BandwidthStats {
            reads: self.window_reads[idx(node)],
            writebacks: self.window_writebacks[idx(node)],
            window: now.saturating_sub(self.window_start),
        }
    }

    /// Closes the measurement window: returns both nodes' stats and starts a
    /// fresh window at `now`. An access recorded *at* `now` before the
    /// rollover call lands in the closed window; one recorded at the same
    /// instant after it lands in the new window — every access is counted
    /// in exactly one window.
    pub fn rollover(&mut self, now: Nanos) -> [BandwidthStats; 2] {
        let out = [self.window(NodeId::Ddr, now), self.window(NodeId::Cxl, now)];
        self.window_reads = [0; 2];
        self.window_writebacks = [0; 2];
        self.window_start = now;
        out
    }

    /// Cumulative 64 B reads served by `node` since construction.
    pub fn total_reads(&self, node: NodeId) -> u64 {
        self.total_reads[idx(node)]
    }

    /// Cumulative 64 B writebacks absorbed by `node` since construction.
    pub fn total_writebacks(&self, node: NodeId) -> u64 {
        self.total_writebacks[idx(node)]
    }

    /// Serializes the window and cumulative counters for a checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        for i in 0..2 {
            w.put_u64(self.window_reads[i]);
            w.put_u64(self.window_writebacks[i]);
            w.put_u64(self.total_reads[i]);
            w.put_u64(self.total_writebacks[i]);
        }
        w.put_u64(self.window_start.0);
    }

    /// Rebuilds a monitor from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<PerfMonitor, crate::checkpoint::CodecError> {
        let mut pm = PerfMonitor::new();
        for i in 0..2 {
            pm.window_reads[i] = r.get_u64()?;
            pm.window_writebacks[i] = r.get_u64()?;
            pm.total_reads[i] = r.get_u64()?;
            pm.total_writebacks[i] = r.get_u64()?;
        }
        pm.window_start = Nanos(r.get_u64()?);
        Ok(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bandwidth() {
        let mut pm = PerfMonitor::new();
        for _ in 0..1000 {
            pm.record_read(NodeId::Cxl);
        }
        let w = pm.window(NodeId::Cxl, Nanos::from_micros(64));
        assert_eq!(w.reads, 1000);
        // 64 kB in 64 µs = 1 GB/s.
        assert!((w.bytes_per_sec() - 1e9).abs() < 1.0);
    }

    #[test]
    fn rollover_resets_window_but_not_totals() {
        let mut pm = PerfMonitor::new();
        pm.record_read(NodeId::Ddr);
        pm.record_read(NodeId::Ddr);
        let [ddr, cxl] = pm.rollover(Nanos(100));
        assert_eq!(ddr.reads, 2);
        assert_eq!(cxl.reads, 0);
        assert_eq!(pm.window(NodeId::Ddr, Nanos(150)).reads, 0);
        assert_eq!(pm.window(NodeId::Ddr, Nanos(150)).window, Nanos(50));
        assert_eq!(pm.total_reads(NodeId::Ddr), 2);
    }

    #[test]
    fn empty_window_has_zero_bandwidth() {
        let s = BandwidthStats {
            reads: 5,
            writebacks: 3,
            window: Nanos::ZERO,
        };
        assert_eq!(s.bytes_per_sec(), 0.0);
        assert_eq!(s.write_bytes_per_sec(), 0.0);
    }

    #[test]
    fn writebacks_tracked_separately_from_reads() {
        let mut pm = PerfMonitor::new();
        pm.record_writeback(NodeId::Cxl);
        assert_eq!(pm.total_writebacks(NodeId::Cxl), 1);
        assert_eq!(pm.total_reads(NodeId::Cxl), 0);
        assert_eq!(pm.window(NodeId::Cxl, Nanos(10)).reads, 0);
        assert_eq!(pm.window(NodeId::Cxl, Nanos(10)).writebacks, 1);
    }

    #[test]
    fn writebacks_partition_across_windows_like_reads() {
        let mut pm = PerfMonitor::new();
        pm.record_writeback(NodeId::Ddr);
        pm.record_writeback(NodeId::Ddr);
        let [ddr, _] = pm.rollover(Nanos(100));
        assert_eq!(ddr.writebacks, 2);
        assert_eq!(pm.window(NodeId::Ddr, Nanos(150)).writebacks, 0);
        pm.record_writeback(NodeId::Ddr);
        let [ddr2, _] = pm.rollover(Nanos(200));
        assert_eq!(ddr2.writebacks, 1);
        assert_eq!(pm.total_writebacks(NodeId::Ddr), 3);
    }

    /// The window-edge regression: an access recorded at exactly the
    /// rollover instant must land in exactly one window — the closed one
    /// if recorded before the rollover call, the new one if after — and
    /// the zero-width view of the new window must report zero bandwidth,
    /// not NaN/inf or the closed window's traffic.
    #[test]
    fn access_on_the_rollover_boundary_lands_in_exactly_one_window() {
        let mut pm = PerfMonitor::new();
        let boundary = Nanos(1000);
        pm.record_read(NodeId::Cxl); // before the boundary
        pm.record_writeback(NodeId::Cxl);
        let [_, closed] = pm.rollover(boundary);
        assert_eq!((closed.reads, closed.writebacks), (1, 1));

        // Recorded at the boundary instant, after the rollover: new window.
        pm.record_read(NodeId::Cxl);
        let fresh = pm.window(NodeId::Cxl, boundary);
        assert_eq!(fresh.reads, 1);
        assert_eq!(fresh.window, Nanos::ZERO);
        assert_eq!(fresh.bytes_per_sec(), 0.0, "zero-width window: no rate");
        assert!(fresh.bytes_per_sec().is_finite());

        // A stale `now` from before the rollover also saturates to zero.
        let stale = pm.window(NodeId::Cxl, Nanos(500));
        assert_eq!(stale.window, Nanos::ZERO);
        assert_eq!(stale.bytes_per_sec(), 0.0);

        // Once the window has width, the boundary access becomes rate.
        let [_, next] = pm.rollover(Nanos(2000));
        assert_eq!(next.reads, 1);
        assert!(next.bytes_per_sec() > 0.0);
        // Nothing double-counted: totals reconcile with both windows.
        assert_eq!(pm.total_reads(NodeId::Cxl), closed.reads + next.reads);
    }
}
