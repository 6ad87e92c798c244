//! Shared daemon scaffolding: hot-page logs and adaptive periods.

pub use cxl_sim::hotlog::HotPageLog;
use cxl_sim::time::Nanos;

/// An exponentially adaptive period between `min` and `max`: back off
/// (double) when work is unproductive, speed up (halve) when productive —
/// ANB's scan-rate adaptation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptivePeriod {
    current: Nanos,
    min: Nanos,
    max: Nanos,
}

impl AdaptivePeriod {
    /// Builds a period starting at `min`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max`.
    pub fn new(min: Nanos, max: Nanos) -> AdaptivePeriod {
        assert!(min > Nanos::ZERO && min <= max, "need 0 < min <= max");
        AdaptivePeriod {
            current: min,
            min,
            max,
        }
    }

    /// The current period.
    pub fn current(&self) -> Nanos {
        self.current
    }

    /// Signals that the last interval's work was productive (hot pages
    /// found and migrated): speed up.
    pub fn productive(&mut self) {
        self.current = (self.current / 2).max(self.min);
    }

    /// Signals that the last interval's work was wasted: back off.
    pub fn unproductive(&mut self) {
        self.current = (self.current * 2).min(self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_period_bounces_between_bounds() {
        let mut p = AdaptivePeriod::new(Nanos(100), Nanos(800));
        p.unproductive();
        p.unproductive();
        assert_eq!(p.current(), Nanos(400));
        p.unproductive();
        p.unproductive();
        assert_eq!(p.current(), Nanos(800), "clamped at max");
        p.productive();
        assert_eq!(p.current(), Nanos(400));
        for _ in 0..10 {
            p.productive();
        }
        assert_eq!(p.current(), Nanos(100), "clamped at min");
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn invalid_bounds_panic() {
        let _ = AdaptivePeriod::new(Nanos(10), Nanos(5));
    }
}
