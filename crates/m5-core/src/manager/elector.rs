//! Elector — the sample migration policy of Algorithm 1.
//!
//! Decides *how often* to act (scaling the default frequency by
//! `fscale(bw_den(CXL) / bw_den(DDR))`, Guideline 1) and *whether* to act
//! (migrate while `rel_bw_den(DDR)` keeps rising, Guideline 2 — previously
//! migrated pages are still paying off).

use super::monitor::TierStats;
use cxl_sim::memory::NodeId;
use cxl_sim::time::Nanos;

/// The monotonically increasing frequency-scaling function of Algorithm 1,
/// line 2 (`y = xⁿ` or `y = n·eˣ`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FScale {
    /// `y = xⁿ`.
    Power {
        /// The exponent `n` (the paper tries 3–6).
        n: f64,
    },
    /// `y = n · eˣ`.
    Exponential {
        /// The multiplier `n`.
        n: f64,
    },
}

impl FScale {
    /// Applies the scaling function to `x` (clamped at 0).
    pub fn apply(&self, x: f64) -> f64 {
        let x = x.max(0.0);
        match *self {
            FScale::Power { n } => x.powf(n),
            FScale::Exponential { n } => n * x.exp(),
        }
    }
}

/// Elector tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElectorConfig {
    /// The default migration frequency `f_default` in Hz (tunable; the
    /// paper simply tries a few reasonable values like 1).
    pub f_default_hz: f64,
    /// The frequency-scaling function.
    pub fscale: FScale,
    /// Shortest allowed period between manager wakeups.
    pub min_period: Nanos,
    /// Longest allowed period between manager wakeups.
    pub max_period: Nanos,
    /// Substitute ratio when `bw_den(DDR)` is zero (nothing resident or
    /// nothing hot on DDR yet — treat CXL as maximally denser).
    pub cold_start_ratio: f64,
    /// Congestion factor (the Monitor's loaded/unloaded CXL latency ratio)
    /// at or above which a sample counts toward the sustained-congestion
    /// period stretch. Matches the manager's promotion-backoff knee by
    /// default.
    pub congestion_knee: f64,
    /// Consecutive congested samples before the decided period starts
    /// stretching toward `max_period`. A short burst of queueing should not
    /// slow identification; a link that stays saturated for this many
    /// epochs will not be helped by more migration traffic.
    pub congestion_sustain: u32,
}

impl Default for ElectorConfig {
    fn default() -> ElectorConfig {
        ElectorConfig {
            f_default_hz: 100.0,
            fscale: FScale::Power { n: 4.0 },
            min_period: Nanos::from_millis(2),
            max_period: Nanos::from_millis(20),
            cold_start_ratio: 4.0,
            congestion_knee: 2.0,
            congestion_sustain: 3,
        }
    }
}

/// One Elector decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectorDecision {
    /// Whether to invoke the Promoter this period.
    pub migrate: bool,
    /// Time until the next wakeup.
    pub period: Nanos,
}

/// The Elector component (Algorithm 1 state).
#[derive(Clone, Copy, Debug)]
pub struct Elector {
    config: ElectorConfig,
    prev_rel_bw_den_ddr: Option<f64>,
    /// Consecutive samples with CXL congestion at or past the knee.
    congested_epochs: u32,
}

impl Elector {
    /// Builds an Elector.
    pub fn new(config: ElectorConfig) -> Elector {
        Elector {
            config,
            prev_rel_bw_den_ddr: None,
            congested_epochs: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ElectorConfig {
        &self.config
    }

    /// Runs one iteration of Algorithm 1's loop body on fresh stats.
    pub fn decide(&mut self, stats: &TierStats) -> ElectorDecision {
        // Line 2: T = 1 / (fscale(bw_den(CXL)/bw_den(DDR)) * f_default).
        let den_ddr = stats.bw_den(NodeId::Ddr);
        let den_cxl = stats.bw_den(NodeId::Cxl);
        let ratio = if den_ddr > 0.0 {
            den_cxl / den_ddr
        } else {
            self.config.cold_start_ratio
        };
        let f = (self.config.fscale.apply(ratio) * self.config.f_default_hz).max(1e-9);
        let mut period_ns = (1e9 / f).round().clamp(
            self.config.min_period.0 as f64,
            self.config.max_period.0 as f64,
        );

        // Sustained-congestion stretch: when the CXL link has queued past
        // the knee for `congestion_sustain` consecutive samples, double the
        // period once per further congested sample, saturating at
        // `max_period`. Page copies ride the same link as demand traffic,
        // so a link that stays saturated is not going to be improved by
        // waking the migration machinery more often — relax the cadence
        // until the congestion clears. A single calm sample resets the
        // curve, and with the contention model disabled the congestion
        // factor reads 1.0, below any valid knee, so this never fires.
        if stats.congestion(NodeId::Cxl) >= self.config.congestion_knee {
            self.congested_epochs = self.congested_epochs.saturating_add(1);
        } else {
            self.congested_epochs = 0;
        }
        let sustain = self.config.congestion_sustain.max(1);
        if self.congested_epochs >= sustain {
            let excess = (self.congested_epochs - sustain + 1).min(32);
            period_ns = (period_ns * 2f64.powi(excess as i32)).min(self.config.max_period.0 as f64);
        }

        // Lines 4–8: migrate while rel_bw_den(DDR) keeps increasing — the
        // previous batch contributed to DDR bandwidth (Guideline 2) — or
        // while CXL pages are denser than DDR pages (Guideline 1 says to
        // migrate as soon and aggressively as possible in that regime).
        let rel = stats.rel_bw_den(NodeId::Ddr);
        let improving = match self.prev_rel_bw_den_ddr {
            None => true,
            Some(prev) => rel > prev,
        };
        let migrate = improving || ratio > 1.0;
        self.prev_rel_bw_den_ddr = Some(rel);

        ElectorDecision {
            migrate,
            period: Nanos(period_ns as u64),
        }
    }

    /// Serializes the Algorithm 1 loop state (previous relative density
    /// sample and the sustained-congestion counter) for a checkpoint. The
    /// configuration is not written; the restoring side rebuilds it.
    pub fn save(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        match self.prev_rel_bw_den_ddr {
            Some(v) => {
                w.put_bool(true);
                w.put_f64(v);
            }
            None => w.put_bool(false),
        }
        w.put_u32(self.congested_epochs);
    }

    /// Rebuilds an Elector from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn restore(
        config: ElectorConfig,
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<Elector, cxl_sim::checkpoint::CodecError> {
        let prev = if r.get_bool()? {
            Some(r.get_f64()?)
        } else {
            None
        };
        Ok(Elector {
            config,
            prev_rel_bw_den_ddr: prev,
            congested_epochs: r.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ddr_pages: u64, cxl_pages: u64, bw_ddr: f64, bw_cxl: f64) -> TierStats {
        TierStats::new([ddr_pages, cxl_pages], [bw_ddr, bw_cxl])
    }

    #[test]
    fn fscale_functions() {
        assert!((FScale::Power { n: 3.0 }.apply(2.0) - 8.0).abs() < 1e-12);
        assert!((FScale::Exponential { n: 2.0 }.apply(0.0) - 2.0).abs() < 1e-12);
        assert_eq!(FScale::Power { n: 2.0 }.apply(-5.0), 0.0, "clamped at 0");
    }

    #[test]
    fn hotter_cxl_shortens_the_period() {
        let mut e = Elector::new(ElectorConfig::default());
        // CXL denser than DDR: ratio 4 -> very fast.
        let fast = e.decide(&stats(100, 100, 1e9, 4e9));
        // DDR denser: ratio 0.25 -> slow.
        let slow = e.decide(&stats(100, 100, 4e9, 1e9));
        assert!(fast.period < slow.period, "{:?} vs {:?}", fast, slow);
        assert!(fast.migrate, "Guideline 1: denser CXL must migrate");
    }

    #[test]
    fn first_decision_always_migrates() {
        let mut e = Elector::new(ElectorConfig::default());
        let d = e.decide(&stats(100, 100, 5e9, 1e9));
        assert!(d.migrate);
    }

    #[test]
    fn stops_when_ddr_density_share_declines_and_cxl_is_colder() {
        let mut e = Elector::new(ElectorConfig::default());
        // Start: DDR strongly denser (ratio < 1).
        e.decide(&stats(100, 100, 8e9, 1e9));
        // DDR's relative density *fell* and CXL is still colder: stop.
        let d = e.decide(&stats(100, 100, 4e9, 1e9));
        assert!(
            !d.migrate,
            "declining rel_bw_den(DDR) with cold CXL must pause"
        );
    }

    #[test]
    fn resumes_when_ddr_density_share_rises() {
        let mut e = Elector::new(ElectorConfig::default());
        e.decide(&stats(100, 100, 4e9, 1e9));
        e.decide(&stats(100, 100, 2e9, 1e9)); // declined -> pause
        let d = e.decide(&stats(100, 100, 6e9, 1e9)); // rose again
        assert!(d.migrate, "Guideline 2: rising rel_bw_den(DDR) resumes");
    }

    #[test]
    fn period_respects_bounds() {
        let cfg = ElectorConfig::default();
        let mut e = Elector::new(cfg);
        // Enormous ratio: clamped at min.
        let d = e.decide(&stats(1000, 10, 1.0, 1e12));
        assert_eq!(d.period, cfg.min_period);
        // Tiny ratio: clamped at max.
        let d = e.decide(&stats(10, 1000, 1e12, 1.0));
        assert_eq!(d.period, cfg.max_period);
    }

    #[test]
    fn sustained_congestion_stretches_the_period_toward_max() {
        let cfg = ElectorConfig {
            max_period: Nanos::from_millis(160),
            ..ElectorConfig::default()
        };
        let mut e = Elector::new(cfg);
        // Balanced tiers: ratio 1.0, base period 1/f_default = 10 ms —
        // interior, so the stretch (not the clamp) is what moves it.
        let calm = stats(100, 100, 2e9, 2e9);
        let congested = calm.with_latency([100.0, 400.0], [100.0, 1200.0]); // 3.0x
        let base = e.decide(&calm).period;
        assert_eq!(base, Nanos::from_millis(10));
        // Two congested samples: under the sustain threshold, no stretch.
        assert_eq!(e.decide(&congested).period, base);
        assert_eq!(e.decide(&congested).period, base);
        // From the third on, the period doubles per congested sample until
        // it saturates at max_period.
        assert_eq!(e.decide(&congested).period, Nanos::from_millis(20));
        assert_eq!(e.decide(&congested).period, Nanos::from_millis(40));
        assert_eq!(e.decide(&congested).period, Nanos::from_millis(80));
        assert_eq!(e.decide(&congested).period, Nanos::from_millis(160));
        assert_eq!(e.decide(&congested).period, Nanos::from_millis(160));
        // One calm sample resets the whole curve.
        assert_eq!(e.decide(&calm).period, base);
        assert_eq!(e.decide(&congested).period, base);
    }

    #[test]
    fn idle_link_never_stretches() {
        // congestion() == 1.0 (the disabled-contention reading) stays below
        // the 2.0 knee forever: the decided period is exactly the
        // pre-stretch value no matter how long the run.
        let mut e = Elector::new(ElectorConfig::default());
        let calm = stats(100, 100, 2e9, 2e9).with_latency([100.0, 400.0], [100.0, 400.0]);
        let base = e.decide(&calm).period;
        for _ in 0..20 {
            assert_eq!(e.decide(&calm).period, base);
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_the_stretch_curve() {
        let cfg = ElectorConfig {
            max_period: Nanos::from_millis(160),
            ..ElectorConfig::default()
        };
        let mut a = Elector::new(cfg);
        let congested = stats(100, 100, 2e9, 2e9).with_latency([100.0, 400.0], [100.0, 1200.0]);
        for _ in 0..4 {
            let _ = a.decide(&congested);
        }
        let mut w = cxl_sim::checkpoint::StateWriter::new();
        a.save(&mut w);
        let buf = w.finish();
        let mut r = cxl_sim::checkpoint::StateReader::new(&buf);
        let mut b = Elector::restore(cfg, &mut r).unwrap();
        r.expect_end().unwrap();
        // Both continue from the same point on the curve.
        assert_eq!(a.decide(&congested), b.decide(&congested));
        assert_eq!(a.decide(&congested), b.decide(&congested));
    }

    #[test]
    fn cold_start_with_empty_ddr_is_aggressive() {
        let mut e = Elector::new(ElectorConfig::default());
        let d = e.decide(&stats(0, 1000, 0.0, 3e9));
        assert!(d.migrate);
        assert_eq!(d.period, ElectorConfig::default().min_period);
    }
}
