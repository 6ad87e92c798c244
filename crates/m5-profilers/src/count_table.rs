//! The 64-bit access-count table.
//!
//! When an SRAM counter saturates (or is evicted in counter-cache mode),
//! PAC/WAC accumulate its value into a 64-bit counter in a table allocated
//! in host or device memory, written via D2H/D2D accesses (§3). The table
//! is sparse in practice, so it is modelled as a hash map; every spill is
//! counted so harnesses can reason about the writeback traffic.

use std::collections::HashMap;

/// A sparse table of 64-bit accumulated counts, keyed by an index (a PFN
/// for PAC, a cache-line address for WAC).
#[derive(Clone, Debug, Default)]
pub struct AccessCountTable {
    counts: HashMap<u64, u64>,
    spill_writes: u64,
}

impl AccessCountTable {
    /// An empty table.
    pub fn new() -> AccessCountTable {
        AccessCountTable::default()
    }

    /// Accumulates `amount` into the counter at `idx` (one D2H/D2D write).
    pub fn spill(&mut self, idx: u64, amount: u64) {
        if amount == 0 {
            return;
        }
        *self.counts.entry(idx).or_default() += amount;
        self.spill_writes += 1;
    }

    /// The accumulated count at `idx`.
    pub fn get(&self, idx: u64) -> u64 {
        self.counts.get(&idx).copied().unwrap_or(0)
    }

    /// Number of D2H/D2D spill writes performed.
    pub fn spill_writes(&self) -> u64 {
        self.spill_writes
    }

    /// Number of distinct indices with nonzero accumulated counts.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(index, accumulated count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&i, &c)| (i, c))
    }

    /// Clears the table.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.spill_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_accumulate() {
        let mut t = AccessCountTable::new();
        t.spill(7, 65_535);
        t.spill(7, 65_535);
        t.spill(9, 3);
        assert_eq!(t.get(7), 131_070);
        assert_eq!(t.get(9), 3);
        assert_eq!(t.get(8), 0);
        assert_eq!(t.spill_writes(), 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn zero_spills_are_free() {
        let mut t = AccessCountTable::new();
        t.spill(1, 0);
        assert!(t.is_empty());
        assert_eq!(t.spill_writes(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = AccessCountTable::new();
        t.spill(1, 5);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.spill_writes(), 0);
        assert_eq!(t.iter().count(), 0);
    }
}
