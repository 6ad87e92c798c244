//! A small family of fast, deterministic 64-bit hash functions.
//!
//! The CM-Sketch hardware applies `H` independent hash functions to each
//! address in parallel (Figure 5, step 1). We model them with finalizer-style
//! mixers parameterised by per-row seeds, which are cheap (a handful of
//! multiplies and shifts, matching what fits in an FPGA pipeline stage) and
//! have good avalanche behaviour.

/// A family of `H` independent hash functions derived from one master seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashFamily {
    seeds: Vec<u64>,
}

/// The 64-bit finalizer from SplitMix64 — a full-avalanche mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl HashFamily {
    /// Derives `h` independent functions from `master_seed`.
    pub fn new(h: usize, master_seed: u64) -> HashFamily {
        let seeds = (0..h as u64)
            .map(|i| mix64(master_seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        HashFamily { seeds }
    }

    /// Number of functions in the family.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Hashes `key` with function `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    #[inline]
    pub fn hash(&self, row: usize, key: u64) -> u64 {
        mix64(key ^ self.seeds[row])
    }

    /// Hashes `key` with function `row` into the range `0..bound`.
    #[inline]
    pub fn bucket(&self, row: usize, key: u64, bound: usize) -> usize {
        // Multiply-high range reduction: unbiased enough and division-free.
        ((self.hash(row, key) as u128 * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_independent() {
        let f = HashFamily::new(4, 1);
        let key = 0xdead_beef;
        let hs: Vec<u64> = (0..4).map(|r| f.hash(r, key)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(hs[i], hs[j], "rows {i} and {j} collide");
            }
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = HashFamily::new(2, 99);
        let b = HashFamily::new(2, 99);
        assert_eq!(a.hash(1, 42), b.hash(1, 42));
        assert_eq!(a, b);
    }

    #[test]
    fn buckets_stay_in_bounds_and_spread() {
        let f = HashFamily::new(1, 7);
        let bound = 37;
        let mut seen = vec![0u32; bound];
        for k in 0..10_000u64 {
            let b = f.bucket(0, k, bound);
            assert!(b < bound);
            seen[b] += 1;
        }
        // Roughly uniform: each bucket within 3x of the mean.
        let mean = 10_000 / bound as u32;
        for (i, &c) in seen.iter().enumerate() {
            assert!(c > mean / 3 && c < mean * 3, "bucket {i} has {c}");
        }
    }

    #[test]
    fn mix64_has_no_trivial_fixed_point_at_small_inputs() {
        for x in 1..100u64 {
            assert_ne!(mix64(x), x);
        }
    }
}
