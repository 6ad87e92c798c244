//! Order statistics for the benchmark's reported numbers.
//!
//! Every percentile here is nearest-rank over the raw samples. A tail
//! percentile is reported only when at least ten samples lie beyond it:
//! p99 needs 1000 samples, p90 needs 100, and below 100 only the median
//! is reported. The sample count always travels with the numbers.

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of `sorted`, or `None` if
/// it is empty.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` ascending (NaN-free input assumed: every sample is a
/// measured duration or count).
fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank median of `samples`, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5).unwrap_or(0.0)
}

/// The smallest sample count that supports percentile `p` (90 or 99): ten
/// samples must lie beyond it.
fn min_samples(p: u32) -> usize {
    10 * 100 / (100 - p as usize)
}

/// A sample set summarised as its median and tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    sorted: Vec<f64>,
}

impl Tail {
    /// Summarises `samples`.
    pub fn of(samples: Vec<f64>) -> Tail {
        Tail {
            sorted: sorted(samples),
        }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p` (50, 90 or 99) if the sample count supports it.
    pub fn at(&self, p: u32) -> Option<f64> {
        if p != 50 && self.n() < min_samples(p) {
            return None;
        }
        quantile(&self.sorted, p as f64 / 100.0)
    }

    /// The highest tail percentile the sample count supports, and its value.
    pub fn tail(&self) -> Option<(u32, f64)> {
        [99, 90]
            .into_iter()
            .find_map(|p| self.at(p).map(|v| (p, v)))
    }
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at(50) {
            Some(m) => write!(f, "p50 {m:.3}")?,
            None => write!(f, "p50 -")?,
        }
        if let Some((p, v)) = self.tail() {
            write!(f, " p{p} {v:.3}")?;
        }
        write!(f, " n={}", self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = one_to(1000);
        assert_eq!(quantile(&s, 0.5), Some(500.0));
        assert_eq!(quantile(&s, 0.9), Some(900.0));
        assert_eq!(quantile(&s, 0.99), Some(990.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(1000.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        let t = Tail::of(one_to(99));
        assert_eq!((t.n(), t.at(50), t.tail()), (99, Some(50.0), None));
        assert_eq!(t.at(90), None);
        let t = Tail::of(one_to(100));
        assert_eq!(t.tail(), Some((90, 90.0)));
        assert_eq!(t.at(99), None);
        let t = Tail::of(one_to(999));
        assert_eq!(t.tail().map(|(p, _)| p), Some(90));
        let t = Tail::of(one_to(1000));
        assert_eq!(t.tail(), Some((99, 990.0)));
        assert_eq!(t.at(90), Some(900.0));
    }

    #[test]
    fn tail_is_order_independent_and_prints_n() {
        let mut rev = one_to(150);
        rev.reverse();
        assert_eq!(Tail::of(rev), Tail::of(one_to(150)));
        let empty = Tail::of(Vec::new());
        assert_eq!((empty.n(), empty.at(50), empty.tail()), (0, None, None));
        assert_eq!(empty.to_string(), "p50 - n=0");
        assert_eq!(Tail::of(one_to(3)).to_string(), "p50 2.000 n=3");
        assert_eq!(
            Tail::of(one_to(100)).to_string(),
            "p50 50.000 p90 90.000 n=100"
        );
    }
}
