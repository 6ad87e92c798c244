//! The Count-Min sketch (CM-Sketch) unit.
//!
//! An `H × W` SRAM array of counters. For each address, every row increments
//! the counter selected by its hash function, and a comparator tree takes
//! the minimum of the incremented counters as the estimated access count
//! (Figure 5, steps 1–3). The estimate never under-counts; hash collisions
//! only inflate it — the property the paper leans on when arguing that
//! small `N = H × W` hurts precision (§7.1).

use crate::hash::HashFamily;

/// An `H`-row, `W`-column Count-Min sketch with 32-bit counters.
#[derive(Clone, Debug)]
pub struct CmSketch {
    hashes: HashFamily,
    rows: usize,
    width: usize,
    counters: Vec<u32>,
    updates: u64,
}

impl CmSketch {
    /// Builds a sketch with `rows × width` counters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `width` is zero.
    pub fn new(rows: usize, width: usize, seed: u64) -> CmSketch {
        assert!(rows > 0 && width > 0, "sketch must have counters");
        CmSketch {
            hashes: HashFamily::new(rows, seed),
            rows,
            width,
            counters: vec![0; rows * width],
            updates: 0,
        }
    }

    /// Builds a sketch with `n` total counters spread over `rows` rows
    /// (the paper parameterises by `N = H × W`).
    ///
    /// # Panics
    ///
    /// Panics if `n < rows` or `rows == 0`.
    pub fn with_total_entries(rows: usize, n: usize, seed: u64) -> CmSketch {
        assert!(rows > 0 && n >= rows, "need at least one counter per row");
        CmSketch::new(rows, n / rows, seed)
    }

    /// Number of rows (`H`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Counters per row (`W`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total counters (`N = H × W`).
    pub fn total_entries(&self) -> usize {
        self.rows * self.width
    }

    /// Number of updates recorded since the last reset.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Records one access to `key` and returns the new estimate — the
    /// minimum of the `H` incremented counters, exactly as the hardware's
    /// comparator tree produces it.
    #[inline]
    pub fn update(&mut self, key: u64) -> u64 {
        self.updates += 1;
        let mut min = u32::MAX;
        for r in 0..self.rows {
            let idx = r * self.width + self.hashes.bucket(r, key, self.width);
            let c = self.counters[idx].saturating_add(1);
            self.counters[idx] = c;
            min = min.min(c);
        }
        min as u64
    }

    /// The current estimate for `key` without updating.
    pub fn estimate(&self, key: u64) -> u64 {
        let mut min = u32::MAX;
        for r in 0..self.rows {
            let idx = r * self.width + self.hashes.bucket(r, key, self.width);
            min = min.min(self.counters[idx]);
        }
        min as u64
    }

    /// Clears every counter (done after each top-K query epoch, §5.1).
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.updates = 0;
    }

    /// The raw counter array, row-major (`rows × width`), for state export.
    pub fn counters(&self) -> &[u32] {
        &self.counters
    }

    /// Restores previously exported counters and the update count. The
    /// hash family is deterministic from the construction seed, so a
    /// rebuilt-then-loaded sketch behaves identically to the exported one.
    /// Returns `false` (and leaves the sketch untouched) when the counter
    /// vector does not match this sketch's geometry.
    pub fn load_state(&mut self, counters: &[u32], updates: u64) -> bool {
        if counters.len() != self.counters.len() {
            return false;
        }
        self.counters.copy_from_slice(counters);
        self.updates = updates;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn update_returns_running_estimate() {
        let mut s = CmSketch::new(4, 64, 1);
        for i in 1..=10 {
            assert!(s.update(42) >= i);
        }
        assert!(s.estimate(42) >= 10);
        assert_eq!(s.updates(), 10);
    }

    #[test]
    fn never_underestimates() {
        let mut s = CmSketch::new(4, 32, 7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // Adversarially small sketch with 1000 keys: collisions guaranteed.
        for i in 0..10_000u64 {
            let key = i % 1000;
            s.update(key);
            *truth.entry(key).or_default() += 1;
        }
        for (&key, &count) in &truth {
            assert!(
                s.estimate(key) >= count,
                "key {key}: est {} < true {count}",
                s.estimate(key)
            );
        }
    }

    #[test]
    fn wide_sketch_is_nearly_exact_for_few_keys() {
        let mut s = CmSketch::new(4, 4096, 3);
        for _ in 0..500 {
            s.update(1);
        }
        for _ in 0..100 {
            s.update(2);
        }
        assert_eq!(s.estimate(1), 500);
        assert_eq!(s.estimate(2), 100);
        assert_eq!(s.estimate(3), 0);
    }

    #[test]
    fn with_total_entries_splits_evenly() {
        let s = CmSketch::with_total_entries(4, 32 * 1024, 0);
        assert_eq!(s.rows(), 4);
        assert_eq!(s.width(), 8192);
        assert_eq!(s.total_entries(), 32768);
    }

    #[test]
    fn reset_clears_state() {
        let mut s = CmSketch::new(2, 16, 9);
        s.update(5);
        s.reset();
        assert_eq!(s.estimate(5), 0);
        assert_eq!(s.updates(), 0);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = CmSketch::new(1, 1, 0);
        s.counters[0] = u32::MAX - 1;
        assert_eq!(s.update(0), u32::MAX as u64);
        assert_eq!(s.update(0), u32::MAX as u64, "saturated, no wrap");
    }

    #[test]
    #[should_panic(expected = "counters")]
    fn zero_geometry_panics() {
        let _ = CmSketch::new(0, 8, 0);
    }
}
