//! A set-associative TLB.
//!
//! The TLB determines when the hardware page walker runs and therefore when
//! PTE accessed bits get set — the signal DAMON samples. It is also the
//! target of shootdowns: ANB's hinting-fault protocol and every page
//! migration must invalidate translations, which is a large part of their
//! CPU cost (§2.1, §4.2).
//!
//! # Layout
//!
//! Like the LLC, the TLB is one contiguous `Vec<u64>` of `sets × ways`
//! VPN entries in fixed ways, with `u64::MAX` as the empty sentinel, and
//! one recency word (the private `recency` module) per set holding its exact-LRU
//! order. Decisions are bit-identical to a recency-ordered array whose
//! valid entries form a prefix, which is what checkpoints store.

use crate::addr::Vpn;
use crate::checkpoint::{CodecError, StateReader, StateWriter};
use crate::recency;

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbConfig {
    /// A geometry similar to a modern x86 second-level TLB, scaled to the
    /// simulator's reduced footprints.
    pub fn scaled_default() -> TlbConfig {
        TlbConfig {
            entries: 512,
            ways: 8,
        }
    }

    /// A tiny TLB for unit tests.
    pub fn tiny() -> TlbConfig {
        TlbConfig {
            entries: 8,
            ways: 2,
        }
    }
}

/// Empty-slot sentinel (a VPN never reaches 2^64 − 1: virtual addresses
/// top out 12 shift bits earlier).
const EMPTY: u64 = u64::MAX;

/// A single-core, set-associative TLB with per-set exact-LRU
/// replacement, stored as a single flat entry array plus one recency word
/// per set.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// `n_sets × ways` VPN slots in fixed ways; see module docs.
    entries: Vec<u64>,
    /// Per-set recency words ordering the set's ways, MRU first.
    order: Vec<u64>,
    n_sets: usize,
    /// `n_sets − 1` when `n_sets` is a power of two (mask indexing), else 0.
    set_mask: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or if
    /// `ways` exceeds 16.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.ways > 0 && config.entries > 0);
        assert_eq!(
            config.entries % config.ways,
            0,
            "entries must be a multiple of ways"
        );
        let n_sets = config.entries / config.ways;
        Tlb {
            entries: vec![EMPTY; config.entries],
            order: vec![recency::identity(config.ways); n_sets],
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                0
            },
            ways: config.ways,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Serializes the entries in recency order (each set MRU first, empty
    /// slots last) and the hit/miss/invalidation counters for a
    /// checkpoint. Geometry is rebuilt from configuration on restore.
    pub fn save(&self, w: &mut StateWriter) {
        recency::save_ordered(w, &self.entries, &self.order, self.ways);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.invalidations);
    }

    /// Rebuilds a TLB from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects an array that does not match the
    /// geometry implied by `config`, and any set holding an empty slot
    /// before a valid VPN, a VPN twice, or a VPN of another set.
    pub fn restore(config: TlbConfig, r: &mut StateReader<'_>) -> Result<Tlb, CodecError> {
        let mut tlb = Tlb::new(config);
        let entries = recency::restore_ordered(r, tlb.entries.len(), tlb.ways, |e| {
            Some((e, tlb.set_index(Vpn(e))))
        })?;
        tlb.entries = entries;
        tlb.hits = r.get_u64()?;
        tlb.misses = r.get_u64()?;
        tlb.invalidations = r.get_u64()?;
        Ok(tlb)
    }

    #[inline]
    fn set_index(&self, vpn: Vpn) -> usize {
        if self.set_mask != 0 {
            (vpn.0 as usize) & self.set_mask
        } else {
            (vpn.0 as usize) % self.n_sets
        }
    }

    /// The way of `set` holding `vpn`, if cached.
    #[inline]
    fn find(&self, set: usize, vpn: Vpn) -> Option<usize> {
        let base = set * self.ways;
        self.entries[base..base + self.ways]
            .iter()
            .position(|&e| e == vpn.0)
    }

    /// Looks up `vpn`. On a hit the entry becomes most-recently-used and the
    /// method returns `true`. On a miss it returns `false`; the caller is
    /// expected to walk the page table and then [`Tlb::insert`].
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        let set = self.set_index(vpn);
        match self.find(set, vpn) {
            Some(way) => {
                let word = self.order[set];
                if recency::way_at(word, 0) != way {
                    self.order[set] = recency::to_front(word, recency::position_of(word, way));
                }
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Counts a lookup hit on a translation already at its set's MRU
    /// position, which such a lookup would leave unchanged.
    #[inline]
    pub(crate) fn count_mru_hit(&mut self) {
        self.hits += 1;
    }

    /// Inserts a translation as its set's MRU, evicting the LRU entry if
    /// the set is full. A translation already cached keeps its position.
    #[inline]
    pub fn insert(&mut self, vpn: Vpn) {
        let set = self.set_index(vpn);
        if self.find(set, vpn).is_some() {
            return;
        }
        let word = self.order[set];
        let tail = self.ways - 1;
        self.entries[set * self.ways + recency::way_at(word, tail)] = vpn.0;
        self.order[set] = recency::to_front(word, tail);
    }

    /// Invalidates the translation for `vpn`, if cached (a shootdown for one
    /// page). Returns `true` if an entry was removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set_index(vpn);
        let Some(way) = self.find(set, vpn) else {
            return false;
        };
        self.entries[set * self.ways + way] = EMPTY;
        let word = self.order[set];
        self.order[set] = recency::to_back(word, recency::position_of(word, way), self.ways);
        self.invalidations += 1;
        true
    }

    /// Flushes the whole TLB (context switch / full shootdown).
    pub fn flush(&mut self) {
        self.invalidations += self.occupancy() as u64;
        self.entries.fill(EMPTY);
        self.order.fill(recency::identity(self.ways));
    }

    /// Number of lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries invalidated so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of valid entries currently cached.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|&&e| e != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        assert!(!tlb.lookup(Vpn(1)));
        tlb.insert(Vpn(1));
        assert!(tlb.lookup(Vpn(1)));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // tiny: 8 entries, 2 ways -> 4 sets. VPNs 0, 4, 8 all map to set 0.
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(0));
        tlb.insert(Vpn(4));
        assert!(tlb.lookup(Vpn(0))); // 0 becomes MRU; 4 is LRU
        tlb.insert(Vpn(8)); // evicts 4
        assert!(tlb.lookup(Vpn(0)));
        assert!(tlb.lookup(Vpn(8)));
        assert!(!tlb.lookup(Vpn(4)), "LRU way was evicted");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(1));
        tlb.insert(Vpn(2));
        assert!(tlb.invalidate(Vpn(1)));
        assert!(!tlb.invalidate(Vpn(1)));
        assert!(!tlb.lookup(Vpn(1)));
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.lookup(Vpn(2)));
        assert_eq!(tlb.invalidations(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(3));
        tlb.insert(Vpn(3));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn invalidate_middle_entry_keeps_order() {
        // Set 0 holds {8 (MRU), 4, 0 (LRU)} in a 4-way set... tiny is
        // 2-way, so use {4 (MRU), 0 (LRU)}, drop the MRU, insert two more
        // and check the survivor ages out correctly.
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(0));
        tlb.insert(Vpn(4));
        assert!(tlb.invalidate(Vpn(4)));
        tlb.insert(Vpn(8)); // set now {8 (MRU), 0}
        tlb.insert(Vpn(12)); // evicts 0 (LRU)
        assert!(!tlb.lookup(Vpn(0)));
        assert!(tlb.lookup(Vpn(8)));
        assert!(tlb.lookup(Vpn(12)));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 7,
            ways: 2,
        });
    }
}
