//! A Mithril-style grouped Space-Saving tracker (§5.1 cites Mithril, the
//! Row-Hammer defence, as the Space-Saving variant it compares against).
//!
//! Hardware Space-Saving needs to find the global minimum counter every
//! miss — the all-entries CAM comparison that caps `N` at ~50 on the FPGA
//! (Table 4). Mithril-class designs restore scalability by *grouping*:
//! counters are split into hash-indexed groups and the min search runs
//! only within the group the address maps to. The trade-off is accuracy —
//! the per-group error bound is `group_total / group_size`, worse than
//! the global `total / N` when the hash skews — exactly the kind of
//! design-space point the paper's Figure 7 sweep explores.

use crate::hash::HashFamily;
use crate::spacesaving::SsEntry;
use crate::topk::TopKAlgorithm;

/// Space-Saving with group-local minimum search.
#[derive(Clone, Debug)]
pub struct GroupedSpaceSaving {
    /// Flat storage: `groups × group_size` entries.
    entries: Vec<Option<SsEntry>>,
    group_size: usize,
    hash: HashFamily,
    total: u64,
}

impl GroupedSpaceSaving {
    /// Builds a tracker with `groups` groups of `group_size` counters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(groups: usize, group_size: usize, seed: u64) -> GroupedSpaceSaving {
        assert!(groups > 0 && group_size > 0, "need counters");
        GroupedSpaceSaving {
            entries: vec![None; groups * group_size],
            group_size,
            hash: HashFamily::new(1, seed),
            total: 0,
        }
    }

    /// Total counters (`N = groups × group_size`).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Total updates since the last reset.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn group_range(&self, addr: u64) -> std::ops::Range<usize> {
        let groups = self.entries.len() / self.group_size;
        let g = self.hash.bucket(0, addr, groups);
        g * self.group_size..(g + 1) * self.group_size
    }

    /// Records one access to `addr`.
    #[inline]
    pub fn update(&mut self, addr: u64) {
        self.total += 1;
        let range = self.group_range(addr);
        let group = &mut self.entries[range];
        // Tag hit?
        if let Some(e) = group.iter_mut().flatten().find(|e| e.addr == addr) {
            e.count += 1;
            return;
        }
        // Free slot?
        if let Some(slot) = group.iter_mut().find(|s| s.is_none()) {
            *slot = Some(SsEntry {
                addr,
                count: 1,
                error: 0,
            });
            return;
        }
        // Group-local min replacement.
        let victim = group
            .iter_mut()
            .flatten()
            .min_by_key(|e| e.count)
            .expect("group is full");
        *victim = SsEntry {
            addr,
            count: victim.count + 1,
            error: victim.count,
        };
    }

    /// Estimated count for `addr` (`0` if unmonitored).
    pub fn estimate(&self, addr: u64) -> u64 {
        let range = self.group_range(addr);
        self.entries[range]
            .iter()
            .flatten()
            .find(|e| e.addr == addr)
            .map_or(0, |e| e.count)
    }

    /// All monitored entries, hottest first.
    pub fn entries_sorted(&self) -> Vec<SsEntry> {
        let mut v: Vec<SsEntry> = self.entries.iter().flatten().copied().collect();
        v.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.addr.cmp(&b.addr)));
        v
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.entries.fill(None);
        self.total = 0;
    }
}

/// [`GroupedSpaceSaving`] adapted to the unified top-K interface.
#[derive(Clone, Debug)]
pub struct MithrilTopK {
    inner: GroupedSpaceSaving,
    k: usize,
}

impl MithrilTopK {
    /// Builds a tracker with `n` total counters in groups of `group_size`,
    /// reporting `k` results.
    pub fn new(n: usize, group_size: usize, k: usize, seed: u64) -> MithrilTopK {
        let group_size = group_size.min(n).max(1);
        MithrilTopK {
            inner: GroupedSpaceSaving::new(n.div_ceil(group_size), group_size, seed),
            k,
        }
    }
}

impl TopKAlgorithm for MithrilTopK {
    fn record(&mut self, addr: u64) {
        self.inner.update(addr);
    }

    fn top_k(&self) -> Vec<(u64, u64)> {
        self.inner
            .entries_sorted()
            .into_iter()
            .take(self.k)
            .map(|e| (e.addr, e.count))
            .collect()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn entries(&self) -> usize {
        self.inner.capacity()
    }

    fn name(&self) -> &'static str {
        "mithril"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exact_under_group_capacity() {
        let mut t = GroupedSpaceSaving::new(4, 4, 1);
        for _ in 0..9 {
            t.update(7);
        }
        for _ in 0..4 {
            t.update(8);
        }
        assert_eq!(t.estimate(7), 9);
        assert_eq!(t.estimate(8), 4);
        assert_eq!(t.total(), 13);
    }

    #[test]
    fn never_underestimates() {
        let mut t = GroupedSpaceSaving::new(2, 4, 3);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x: u64 = 99;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 48) % 64;
            t.update(key);
            *truth.entry(key).or_default() += 1;
        }
        for e in t.entries_sorted() {
            let true_count = truth[&e.addr];
            assert!(
                e.count >= true_count,
                "{}: {} < {}",
                e.addr,
                e.count,
                true_count
            );
            assert!(e.count - true_count <= e.error);
        }
    }

    #[test]
    fn finds_a_dominant_heavy_hitter() {
        let mut t = MithrilTopK::new(32, 8, 3, 5);
        let mut x: u64 = 5;
        for i in 0..30_000u64 {
            if i % 3 != 0 {
                t.record(0xAAAA); // dominant
            } else {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(1);
                t.record((x >> 50) % 500);
            }
        }
        assert_eq!(t.top_k()[0].0, 0xAAAA, "{:?}", t.top_k());
        assert_eq!(t.name(), "mithril");
        assert_eq!(t.entries(), 32);
    }

    #[test]
    fn grouping_trades_accuracy_for_scalability() {
        // With a single group the structure IS Space-Saving; with many
        // tiny groups the per-group error bound is looser. Both keep the
        // overestimate property; the grouped one evicts more.
        let stream: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 200).collect();
        let run = |groups: usize, size: usize| {
            let mut t = GroupedSpaceSaving::new(groups, size, 7);
            for &a in &stream {
                t.update(a);
            }
            t.entries_sorted()
                .iter()
                .map(|e| e.error)
                .max()
                .unwrap_or(0)
        };
        let grouped_err = run(16, 2);
        let flat_err = run(1, 32);
        assert!(
            grouped_err >= flat_err,
            "grouped {grouped_err} < flat {flat_err}"
        );
    }

    #[test]
    fn reset_clears() {
        let mut t = MithrilTopK::new(8, 4, 2, 0);
        t.record(1);
        t.reset();
        assert!(t.top_k().is_empty());
    }
}
