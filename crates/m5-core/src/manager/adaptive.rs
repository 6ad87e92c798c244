//! Adaptive `f_default` tuning — the extension §7.2 leaves open.
//!
//! The paper picks `f_default` by trying a few values per benchmark and
//! keeping the best ("we do not use any adaptive algorithm to determine
//! f_default for a given benchmark (i.e., out of our intended scope)").
//! This module closes that gap with a multiplicative-increase /
//! multiplicative-decrease controller on the Monitor's own success
//! signal: if total consumed bandwidth (the performance proxy of §5.2)
//! grew since the last adjustment window, keep pushing `f_default` the
//! same direction; if it shrank, reverse direction. The controller
//! settles around the frequency where more migration stops paying.

/// Controller configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveFDefaultConfig {
    /// Initial `f_default` in Hz.
    pub initial_hz: f64,
    /// Multiplicative step per adjustment (e.g. 1.25).
    pub step: f64,
    /// Lower bound on `f_default`.
    pub min_hz: f64,
    /// Upper bound on `f_default`.
    pub max_hz: f64,
    /// Elector epochs per adjustment window.
    pub epochs_per_window: u32,
}

impl Default for AdaptiveFDefaultConfig {
    fn default() -> AdaptiveFDefaultConfig {
        AdaptiveFDefaultConfig {
            initial_hz: 100.0,
            step: 1.25,
            min_hz: 1.0,
            max_hz: 2_000.0,
            epochs_per_window: 8,
        }
    }
}

/// The MIMD controller state.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveFDefault {
    config: AdaptiveFDefaultConfig,
    current_hz: f64,
    direction_up: bool,
    epochs_in_window: u32,
    window_bw_sum: f64,
    prev_window_bw: Option<f64>,
    adjustments: u64,
}

impl AdaptiveFDefault {
    /// Builds a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (non-positive bounds or a
    /// step ≤ 1).
    pub fn new(config: AdaptiveFDefaultConfig) -> AdaptiveFDefault {
        assert!(config.step > 1.0, "step must exceed 1");
        assert!(
            0.0 < config.min_hz
                && config.min_hz <= config.initial_hz
                && config.initial_hz <= config.max_hz,
            "need 0 < min <= initial <= max"
        );
        assert!(config.epochs_per_window > 0);
        AdaptiveFDefault {
            current_hz: config.initial_hz,
            direction_up: true,
            epochs_in_window: 0,
            window_bw_sum: 0.0,
            prev_window_bw: None,
            adjustments: 0,
            config,
        }
    }

    /// The current `f_default` to feed the Elector.
    pub fn f_default_hz(&self) -> f64 {
        self.current_hz
    }

    /// Adjustments performed so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Feeds one Elector epoch's total consumed bandwidth (`bw_tot`,
    /// bytes/s). At each window boundary the controller compares windows
    /// and steers `f_default`. Returns `true` if an adjustment happened.
    pub fn observe_epoch(&mut self, bw_tot: f64) -> bool {
        self.window_bw_sum += bw_tot;
        self.epochs_in_window += 1;
        if self.epochs_in_window < self.config.epochs_per_window {
            return false;
        }
        let window_bw = self.window_bw_sum / self.epochs_in_window as f64;
        self.epochs_in_window = 0;
        self.window_bw_sum = 0.0;

        if let Some(prev) = self.prev_window_bw {
            // Performance ∝ bw_tot (§5.2): keep direction while improving.
            if window_bw < prev {
                self.direction_up = !self.direction_up;
            }
            let factor = if self.direction_up {
                self.config.step
            } else {
                1.0 / self.config.step
            };
            self.current_hz =
                (self.current_hz * factor).clamp(self.config.min_hz, self.config.max_hz);
            self.adjustments += 1;
        }
        self.prev_window_bw = Some(window_bw);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(epochs: u32) -> AdaptiveFDefault {
        AdaptiveFDefault::new(AdaptiveFDefaultConfig {
            epochs_per_window: epochs,
            ..AdaptiveFDefaultConfig::default()
        })
    }

    #[test]
    fn no_adjustment_mid_window() {
        let mut c = controller(4);
        for _ in 0..3 {
            assert!(!c.observe_epoch(1e9));
        }
        assert!(c.observe_epoch(1e9), "window boundary");
        assert_eq!(c.adjustments(), 0, "first window only sets the baseline");
    }

    #[test]
    fn rising_bandwidth_keeps_pushing_up() {
        let mut c = controller(1);
        let start = c.f_default_hz();
        c.observe_epoch(1e9); // baseline
        c.observe_epoch(2e9); // improved -> keep direction (up)
        assert!(c.f_default_hz() > start);
        c.observe_epoch(3e9);
        assert!(c.f_default_hz() > start * 1.5);
    }

    #[test]
    fn falling_bandwidth_reverses_direction() {
        let mut c = controller(1);
        c.observe_epoch(2e9); // baseline
        c.observe_epoch(3e9); // up
        let peak = c.f_default_hz();
        c.observe_epoch(1e9); // worse -> reverse (down)
        assert!(c.f_default_hz() < peak);
        c.observe_epoch(0.5e9); // still worse -> reverse again (up)
        assert!(c.f_default_hz() >= peak / c.config.step / c.config.step);
    }

    #[test]
    fn respects_bounds() {
        let mut c = AdaptiveFDefault::new(AdaptiveFDefaultConfig {
            initial_hz: 100.0,
            step: 10.0,
            min_hz: 50.0,
            max_hz: 200.0,
            epochs_per_window: 1,
        });
        c.observe_epoch(1e9);
        for i in 0..20 {
            // Monotonically "improving" keeps pushing up; clamp at max.
            c.observe_epoch(2e9 + i as f64);
        }
        assert!(c.f_default_hz() <= 200.0);
        for i in 0..20 {
            c.observe_epoch(1e9 - i as f64 * 1e7);
        }
        assert!(c.f_default_hz() >= 50.0);
    }

    #[test]
    #[should_panic(expected = "step must exceed 1")]
    fn degenerate_step_panics() {
        let _ = AdaptiveFDefault::new(AdaptiveFDefaultConfig {
            step: 1.0,
            ..AdaptiveFDefaultConfig::default()
        });
    }
}
