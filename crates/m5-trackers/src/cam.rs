//! The sorted top-K Content-Addressable Memory.
//!
//! `K` entries, each a `(address, count)` pair kept sorted by count
//! (Figure 5, step 4–6): on a tag hit the entry's count is refreshed from
//! the CM-Sketch estimate; on a miss the candidate replaces the minimum
//! entry if its estimate is larger. The host queries the whole unit in one
//! MMIO burst.

/// One CAM entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CamEntry {
    /// The tracked address (the tag).
    pub addr: u64,
    /// The (estimated) access count (the value).
    pub count: u64,
}

/// A sorted, K-entry CAM tracking the hottest addresses seen so far.
///
/// Entries are kept sorted descending by count, so `entries()[0]` is the
/// hottest and the last entry is the replacement candidate.
#[derive(Clone, Debug)]
pub struct SortedCam {
    k: usize,
    entries: Vec<CamEntry>,
}

impl SortedCam {
    /// Builds an empty CAM with `k` entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> SortedCam {
        assert!(k > 0, "CAM needs at least one entry");
        SortedCam {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// The capacity `K`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the CAM is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum tracked count (`0` while not full — any candidate is
    /// admitted until all `K` entries are live).
    pub fn min_count(&self) -> u64 {
        if self.entries.len() < self.k {
            0
        } else {
            self.entries.last().map_or(0, |e| e.count)
        }
    }

    /// Offers `(addr, count)` to the CAM: refresh on hit, replace-min on
    /// miss if `count` beats the minimum. Returns `true` if the CAM now
    /// tracks `addr`.
    #[inline]
    pub fn offer(&mut self, addr: u64, count: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.addr == addr) {
            self.entries[pos].count = self.entries[pos].count.max(count);
            self.resift(pos);
            return true;
        }
        if self.entries.len() < self.k {
            self.entries.push(CamEntry { addr, count });
            self.resift(self.entries.len() - 1);
            return true;
        }
        let last = self.entries.len() - 1;
        if count > self.entries[last].count {
            self.entries[last] = CamEntry { addr, count };
            self.resift(last);
            return true;
        }
        false
    }

    /// Restores descending order after `pos`'s count grew.
    fn resift(&mut self, mut pos: usize) {
        while pos > 0 && self.entries[pos - 1].count < self.entries[pos].count {
            self.entries.swap(pos - 1, pos);
            pos -= 1;
        }
    }

    /// The tracked entries, hottest first.
    pub fn entries(&self) -> &[CamEntry] {
        &self.entries
    }

    /// Clears the CAM (after a top-K query, §5.1).
    pub fn reset(&mut self) {
        self.entries.clear();
    }

    /// Restores previously exported entries (hottest first). Returns
    /// `false` (and leaves the CAM untouched) when `entries` exceeds the
    /// capacity `K` or is not sorted descending by count — loading an
    /// unsorted CAM would silently break the replace-min invariant.
    pub fn load_entries(&mut self, entries: &[CamEntry]) -> bool {
        if entries.len() > self.k || entries.windows(2).any(|w| w[0].count < w[1].count) {
            return false;
        }
        self.entries.clear();
        self.entries.extend_from_slice(entries);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_replaces_minimum() {
        let mut cam = SortedCam::new(3);
        assert!(cam.offer(1, 10));
        assert!(cam.offer(2, 20));
        assert!(cam.offer(3, 5));
        assert_eq!(cam.len(), 3);
        assert_eq!(cam.min_count(), 5);
        // 4 with count 6 replaces 3 (count 5).
        assert!(cam.offer(4, 6));
        assert!(!cam.entries().iter().any(|e| e.addr == 3));
        // 5 with count 6 does NOT replace (must be strictly larger).
        assert!(!cam.offer(5, 6));
        assert_eq!(cam.min_count(), 6);
    }

    #[test]
    fn hit_refreshes_and_resorts() {
        let mut cam = SortedCam::new(3);
        cam.offer(1, 10);
        cam.offer(2, 20);
        cam.offer(1, 50);
        let e = cam.entries();
        assert_eq!(e[0], CamEntry { addr: 1, count: 50 });
        assert_eq!(e[1], CamEntry { addr: 2, count: 20 });
    }

    #[test]
    fn stays_sorted_descending_always() {
        let mut cam = SortedCam::new(5);
        for (i, c) in [
            (10, 3),
            (11, 9),
            (12, 1),
            (13, 7),
            (14, 5),
            (15, 8),
            (10, 12),
        ] {
            cam.offer(i, c);
            let counts: Vec<u64> = cam.entries().iter().map(|e| e.count).collect();
            let mut sorted = counts.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(counts, sorted);
        }
    }

    #[test]
    fn min_count_is_zero_until_full() {
        let mut cam = SortedCam::new(2);
        assert_eq!(cam.min_count(), 0);
        cam.offer(1, 100);
        assert_eq!(cam.min_count(), 0, "still a free slot");
        cam.offer(2, 200);
        assert_eq!(cam.min_count(), 100);
    }

    #[test]
    fn reset_empties() {
        let mut cam = SortedCam::new(2);
        cam.offer(1, 1);
        cam.reset();
        assert!(cam.is_empty());
        assert_eq!(cam.capacity(), 2);
    }

    #[test]
    fn hit_never_lowers_a_count() {
        let mut cam = SortedCam::new(2);
        cam.offer(1, 10);
        cam.offer(1, 4);
        assert_eq!(cam.entries()[0].count, 10);
    }
}
