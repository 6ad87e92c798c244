//! Sticky Sampling (Manku & Motwani, 2002) — the sampling-based
//! representative in the paper's taxonomy of streaming algorithms (§5.1).
//!
//! Elements are admitted to the monitored set with a probability `1/r` that
//! halves each window (so the sampling rate adapts to stream length); at
//! each window boundary every monitored count is diminished by a geometric
//! coin flip, evicting entries that reach zero. Monitored counts
//! *under*-estimate (by at most the admission delay), unlike Space-Saving
//! and CM-Sketch which over-estimate — a property the tests pin down.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A Sticky-Sampling frequency tracker.
#[derive(Clone, Debug)]
pub struct StickySampling {
    counts: HashMap<u64, u64>,
    rng: SmallRng,
    /// Current sampling rate divisor (admit with probability `1/rate`).
    rate: u64,
    /// Updates remaining in the current window.
    window_left: u64,
    /// Base window length (`2t` in the original paper's terms).
    window_base: u64,
}

impl StickySampling {
    /// Builds a tracker whose first adaptation window is `window` updates
    /// long (all elements are admitted during it).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: u64, seed: u64) -> StickySampling {
        assert!(window > 0, "window must be positive");
        StickySampling {
            counts: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed),
            rate: 1,
            window_left: window,
            window_base: window,
        }
    }

    /// Number of monitored addresses.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing is monitored.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The current sampling-rate divisor.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Records one access to `addr`.
    #[inline]
    pub fn update(&mut self, addr: u64) {
        if self.window_left == 0 {
            self.advance_window();
        }
        self.window_left -= 1;

        if let Some(c) = self.counts.get_mut(&addr) {
            *c += 1;
            return;
        }
        if self.rate == 1 || self.rng.gen_range(0..self.rate) == 0 {
            self.counts.insert(addr, 1);
        }
    }

    /// Window boundary: double the rate and geometrically diminish counts.
    /// Addresses are visited in ascending order, so each one draws the same
    /// coin flips on every run with the same seed.
    fn advance_window(&mut self) {
        self.rate *= 2;
        self.window_left = self.window_base * self.rate;
        let mut addrs: Vec<u64> = self.counts.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            let c = self.counts.get_mut(&addr).expect("listed above");
            // Toss an unbiased coin until heads; diminish by the number of
            // tails.
            while *c > 0 && self.rng.gen::<bool>() {
                *c -= 1;
            }
            if *c == 0 {
                self.counts.remove(&addr);
            }
        }
    }

    /// Estimated count for `addr` (an *under*-estimate; `0` if unmonitored).
    pub fn estimate(&self, addr: u64) -> u64 {
        self.counts.get(&addr).copied().unwrap_or(0)
    }

    /// The `k` hottest monitored addresses, hottest first.
    pub fn top_k(&self, k: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(&a, &c)| (a, c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Clears all state (rate resets too).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.rate = 1;
        self.window_left = self.window_base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_during_first_window() {
        let mut s = StickySampling::new(1000, 1);
        for _ in 0..10 {
            s.update(7);
        }
        for _ in 0..3 {
            s.update(8);
        }
        assert_eq!(s.estimate(7), 10);
        assert_eq!(s.estimate(8), 3);
        assert_eq!(s.rate(), 1);
    }

    #[test]
    fn never_overestimates() {
        let mut s = StickySampling::new(64, 42);
        let mut truth = HashMap::<u64, u64>::new();
        let mut x: u64 = 1;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 50) % 40;
            s.update(key);
            *truth.entry(key).or_default() += 1;
        }
        for (&k, &c) in s.counts.iter() {
            assert!(c <= truth[&k], "key {k}: est {c} > true {}", truth[&k]);
        }
    }

    #[test]
    fn rate_doubles_across_windows() {
        let mut s = StickySampling::new(10, 0);
        for i in 0..10 {
            s.update(i);
        }
        assert_eq!(s.rate(), 1);
        s.update(100); // crosses the boundary
        assert_eq!(s.rate(), 2);
        // Next window is base * rate long.
        for i in 0..19 {
            s.update(i);
        }
        assert_eq!(s.rate(), 2);
        s.update(101);
        assert_eq!(s.rate(), 4);
    }

    #[test]
    fn heavy_hitters_survive_windows() {
        let mut s = StickySampling::new(128, 3);
        for round in 0..2000u64 {
            s.update(1); // in every round: very hot
            s.update(10 + round % 500); // long tail
        }
        let top = s.top_k(1);
        assert_eq!(top[0].0, 1, "the persistent heavy hitter leads");
        assert!(top[0].1 > 1000);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut s = StickySampling::new(4, 9);
        for i in 0..20 {
            s.update(i);
        }
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.rate(), 1);
    }
}
