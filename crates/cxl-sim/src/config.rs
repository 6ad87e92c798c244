//! System configuration and presets.

use crate::cache::LlcConfig;
use crate::contention::ContentionConfig;
use crate::memory::NodeConfig;
use crate::ras::DEFAULT_EVAC_DEADLINE;
use crate::time::Nanos;
use crate::tlb::TlbConfig;

/// Where a freshly allocated region's pages are placed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// Every page on the CXL node — the paper's starting condition (§7.2):
    /// all benchmark pages are cgroup-allocated to CXL DRAM.
    AllOnCxl,
    /// Every page on the DDR node.
    AllOnDdr,
    /// Pages placed on DDR with probability `ddr_fraction`, else CXL —
    /// random interleaving used by the §5.2 bandwidth-proportionality
    /// validation.
    Interleaved {
        /// Fraction of pages that land on DDR (0.0..=1.0).
        ddr_fraction: f64,
        /// Seed of the placement RNG, for reproducibility.
        seed: u64,
    },
}

/// Full configuration of a simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Fast-tier node.
    pub ddr: NodeConfig,
    /// Slow-tier node.
    pub cxl: NodeConfig,
    /// Last-level cache geometry.
    pub llc: LlcConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Whether daemon kernel work runs on the application's core and stalls
    /// it (the paper's measurement methodology). Default `true`.
    pub colocated_daemon: bool,
    /// Whether a page migration pulls the destination page's 64 lines
    /// through the LLC (cache pollution, §4.1). Default `true`.
    pub migration_pollutes_cache: bool,
    /// Period of full TLB flushes modelling context switches and other
    /// architectural events that passively invalidate translations (§2.1,
    /// Solution 2). `None` disables them. Default: one scheduler timeslice
    /// (1 ms).
    pub tlb_flush_interval: Option<Nanos>,
    /// Deadline for a live evacuation, measured from the node's
    /// transition into `Evacuating`; when it expires the node goes
    /// `Offline` with whatever residual pages remain. Default
    /// [`DEFAULT_EVAC_DEADLINE`].
    pub evac_deadline: Nanos,
    /// Contention-aware timing: per-node loaded-latency queueing over the
    /// epoch bandwidth window. Disabled by default — the fixed per-access
    /// cost path stays bit-for-bit intact.
    pub contention: ContentionConfig,
}

impl SystemConfig {
    /// The scaled default used by the figure harnesses: 48 MiB DDR,
    /// 192 MiB CXL (an 8 GiB CXL device scaled ~42×), a 1 MiB 16-way LLC.
    ///
    /// Latencies are *loaded* averages: DDR 100 ns; CXL 400 ns. The
    /// paper's device adds 140–170 ns unloaded (≈270 ns total), but its
    /// single DDR4-2666 channel behind a x16 link is shared by 8–20 cores
    /// and runs bandwidth-saturated when a whole footprint lives on it —
    /// the regime in which "no page migration" loses ~2× (§7.2). A
    /// single-stream simulator cannot produce that queueing, so the
    /// loaded latency carries it.
    pub fn scaled_default() -> SystemConfig {
        SystemConfig {
            ddr: NodeConfig {
                capacity_frames: 48 * 256, // 48 MiB
                access_latency: Nanos(100),
            },
            cxl: NodeConfig {
                capacity_frames: 192 * 256, // 192 MiB
                access_latency: Nanos(400),
            },
            llc: LlcConfig::scaled_default(),
            tlb: TlbConfig::scaled_default(),
            colocated_daemon: true,
            migration_pollutes_cache: true,
            tlb_flush_interval: Some(Nanos::from_millis(1)),
            evac_deadline: DEFAULT_EVAC_DEADLINE,
            contention: ContentionConfig::disabled(),
        }
    }

    /// A tiny machine for unit tests: 256 frames per node, small LLC/TLB.
    pub fn small() -> SystemConfig {
        SystemConfig {
            ddr: NodeConfig {
                capacity_frames: 256,
                access_latency: Nanos(100),
            },
            cxl: NodeConfig {
                capacity_frames: 256,
                access_latency: Nanos(270),
            },
            llc: LlcConfig {
                size_bytes: 64 << 10,
                ways: 4,
            },
            tlb: TlbConfig {
                entries: 64,
                ways: 4,
            },
            colocated_daemon: true,
            migration_pollutes_cache: true,
            tlb_flush_interval: Some(Nanos::from_millis(1)),
            evac_deadline: DEFAULT_EVAC_DEADLINE,
            contention: ContentionConfig::disabled(),
        }
    }

    /// Returns this config with DDR capacity overridden to `frames` (the
    /// paper caps DDR at ~50 % of each benchmark's footprint).
    pub fn with_ddr_frames(mut self, frames: u64) -> SystemConfig {
        self.ddr.capacity_frames = frames;
        self
    }

    /// Returns this config with CXL capacity overridden to `frames`.
    pub fn with_cxl_frames(mut self, frames: u64) -> SystemConfig {
        self.cxl.capacity_frames = frames;
        self
    }

    /// Returns this config with the daemon moved off the application core.
    pub fn with_isolated_daemon(mut self) -> SystemConfig {
        self.colocated_daemon = false;
        self
    }

    /// Returns this config with the live-evacuation deadline overridden.
    pub fn with_evac_deadline(mut self, deadline: Nanos) -> SystemConfig {
        self.evac_deadline = deadline;
        self
    }

    /// Returns this config with the contention model overridden.
    pub fn with_contention(mut self, contention: ContentionConfig) -> SystemConfig {
        self.contention = contention;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::NodeId;

    #[test]
    fn scaled_default_is_tiered() {
        let c = SystemConfig::scaled_default();
        assert!(c.cxl.access_latency > c.ddr.access_latency);
        assert!(c.cxl.capacity_frames > c.ddr.capacity_frames);
        assert!(c.colocated_daemon);
        let _ = NodeId::ALL;
    }

    #[test]
    fn builders_override_fields() {
        let c = SystemConfig::small()
            .with_ddr_frames(7)
            .with_cxl_frames(9)
            .with_isolated_daemon();
        assert_eq!(c.ddr.capacity_frames, 7);
        assert_eq!(c.cxl.capacity_frames, 9);
        assert!(!c.colocated_daemon);
    }

    #[test]
    fn debug_output_is_complete() {
        let c = SystemConfig::small();
        let dbg = format!("{c:?}");
        assert!(dbg.contains("capacity_frames"));
        assert!(dbg.contains("llc"));
    }
}
