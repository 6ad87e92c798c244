//! Simulated time.
//!
//! All latencies and costs in the simulator are expressed in nanoseconds of
//! simulated time, wrapped in the [`Nanos`] newtype. The [`Clock`] is owned
//! by the [`crate::system::System`] and advanced by memory-access latencies
//! and (when the daemon is co-located with the application core, as in the
//! paper's §6 methodology) by kernel work.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in simulated nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero nanoseconds.
    pub const ZERO: Nanos = Nanos(0);

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// This duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// The simulated wall clock.
///
/// A single monotonically increasing instant; the run loop advances it by
/// access latencies and billed kernel time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Clock {
    now: Nanos,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the clock by `d`.
    pub fn advance(&mut self, d: Nanos) {
        self.now += d;
    }

    /// A clock restored to a checkpointed instant.
    pub fn at(now: Nanos) -> Clock {
        Clock { now }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_micros(54), Nanos(54_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_secs(2), Nanos(2_000_000_000));
        assert!((Nanos::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100) + Nanos(170);
        assert_eq!(a, Nanos(270));
        assert_eq!(a - Nanos(70), Nanos(200));
        assert_eq!(a * 2, Nanos(540));
        assert_eq!(a / 2, Nanos(135));
        assert_eq!(Nanos(5).saturating_sub(Nanos(9)), Nanos::ZERO);
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), Nanos::ZERO);
        c.advance(Nanos(270));
        c.advance(Nanos::from_micros(54));
        assert_eq!(c.now(), Nanos(54_270));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Nanos(5)), "5ns");
        assert_eq!(format!("{}", Nanos(5_000)), "5.000us");
        assert_eq!(format!("{}", Nanos(5_000_000)), "5.000ms");
        assert_eq!(format!("{}", Nanos(5_000_000_000)), "5.000s");
    }
}
