//! A set-associative, write-allocate last-level cache (LLC).
//!
//! Profilers and trackers in a CXL controller only ever see *cache-filtered*
//! traffic: the stream of LLC miss fills and writebacks. This module supplies
//! that filter. It also models the cache pollution caused by page migration
//! (§4.1): migrating a page drags all 64 of its lines through the hierarchy,
//! evicting useful data — one of the reasons migrating sparse pages is
//! harmful.
//!
//! # Layout
//!
//! The cache is one contiguous `Vec<u64>` of `sets × ways` packed entries —
//! no per-set allocation, no pointer chasing. An entry packs the line
//! address in bits 0..63 and the dirty flag in bit 63; `u64::MAX` is the
//! empty sentinel (a real line address never reaches 2^63 − 1). Entries
//! stay in the way they were filled into; each set's exact-LRU order is a
//! separate recency word (the private `recency` module), so a hit
//! rewrites one `u64` instead of shifting the set. Replacement decisions
//! are bit-identical to a recency-ordered array whose valid entries form
//! a prefix, and checkpoints store exactly that array.

use crate::addr::CacheLineAddr;
use crate::checkpoint::{CodecError, StateReader, StateWriter};
use crate::recency;

/// LLC geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl LlcConfig {
    /// Scaled default: 1 MiB, 16-way. The paper CAT-partitions a 60 MB LLC
    /// proportionally to cores (≈37 MB for 5–7 GB footprints, a ~0.6 %
    /// LLC:footprint ratio); with ~32 MiB scaled footprints, 1 MiB keeps
    /// the ratio within the same regime (~3 %).
    pub fn scaled_default() -> LlcConfig {
        LlcConfig {
            size_bytes: 1 << 20,
            ways: 16,
        }
    }

    /// A tiny cache for unit tests.
    pub fn tiny() -> LlcConfig {
        LlcConfig {
            size_bytes: 4096,
            ways: 2,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / 64 / self.ways
    }
}

/// The outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// A dirty line evicted to make room, which must be written back to DRAM.
    pub writeback: Option<CacheLineAddr>,
}

/// Empty-slot sentinel: all ones. Its address bits (2^63 − 1) match no
/// real line, so the tag compare alone rules an empty slot out.
const EMPTY: u64 = u64::MAX;
/// Dirty flag, packed above the 63 usable address bits.
const DIRTY: u64 = 1 << 63;
const ADDR_MASK: u64 = !DIRTY;

/// A set-associative LLC with per-set exact-LRU replacement and
/// write-allocate, writeback semantics, stored as a single flat array of
/// packed entries plus one recency word per set.
#[derive(Clone, Debug)]
pub struct Llc {
    /// `n_sets × ways` packed entries in fixed ways; see module docs.
    entries: Vec<u64>,
    /// Per-set recency words ordering the set's ways, MRU first.
    order: Vec<u64>,
    n_sets: usize,
    /// `n_sets − 1` when `n_sets` is a power of two (mask indexing), else 0.
    set_mask: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

#[inline]
fn pack(addr: CacheLineAddr, dirty: bool) -> u64 {
    debug_assert!(addr.0 < ADDR_MASK, "line address overflows packed entry");
    addr.0 | if dirty { DIRTY } else { 0 }
}

impl Llc {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets or more than 16 ways.
    pub fn new(config: LlcConfig) -> Llc {
        let n_sets = config.sets();
        assert!(n_sets > 0, "LLC too small for its associativity");
        Llc {
            entries: vec![EMPTY; n_sets * config.ways],
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
            writebacks: 0,
        }
    }

    /// Serializes the entries in recency order (each set MRU first, empty
    /// slots last) and the hit/miss/writeback counters for a checkpoint.
    /// Geometry is rebuilt from configuration on restore.
    pub fn save(&self, w: &mut StateWriter) {
        recency::save_ordered(w, &self.entries, &self.order, self.ways);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }

    /// Rebuilds a cache from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects an array that does not match the
    /// geometry implied by `config`, and any set holding an empty slot
    /// before a valid line, a line twice, or a line of another set.
    pub fn restore(config: LlcConfig, r: &mut StateReader<'_>) -> Result<Llc, CodecError> {
        let mut llc = Llc::new(config);
        let entries = recency::restore_ordered(r, llc.entries.len(), llc.ways, |e| {
            let addr = e & ADDR_MASK;
            // A line aliasing the sentinel would match empty slots.
            (addr != ADDR_MASK).then(|| (addr, llc.set_index(CacheLineAddr(addr))))
        })?;
        llc.entries = entries;
        llc.hits = r.get_u64()?;
        llc.misses = r.get_u64()?;
        llc.writebacks = r.get_u64()?;
        Ok(llc)
    }

    #[inline]
    fn set_index(&self, line: CacheLineAddr) -> usize {
        if self.set_mask != 0 {
            (line.0 as usize) & self.set_mask
        } else {
            (line.0 as usize) % self.n_sets
        }
    }

    /// The way of `set` holding `line`, if resident. The MRU way is
    /// probed first: most hits land there.
    #[inline]
    fn find(&self, set: usize, line: CacheLineAddr) -> Option<usize> {
        let base = set * self.ways;
        let ways = &self.entries[base..base + self.ways];
        let mru = recency::way_at(self.order[set], 0);
        if ways[mru] & ADDR_MASK == line.0 {
            return Some(mru);
        }
        ways.iter().position(|&e| e & ADDR_MASK == line.0)
    }

    /// Marks `way` of `set` most recently used, OR-ing `dirty` into it.
    #[inline]
    fn touch(&mut self, set: usize, way: usize, dirty: bool) {
        self.entries[set * self.ways + way] |= if dirty { DIRTY } else { 0 };
        let word = self.order[set];
        if recency::way_at(word, 0) != way {
            self.order[set] = recency::to_front(word, recency::position_of(word, way));
        }
    }

    /// Puts `entry` into `set`'s victim way (an empty way, else the LRU)
    /// as the new MRU, returning the evicted line if it was dirty.
    #[inline]
    fn replace(&mut self, set: usize, entry: u64) -> Option<CacheLineAddr> {
        let word = self.order[set];
        let tail = self.ways - 1;
        let slot = &mut self.entries[set * self.ways + recency::way_at(word, tail)];
        let victim = std::mem::replace(slot, entry);
        self.order[set] = recency::to_front(word, tail);
        if victim != EMPTY && victim & DIRTY != 0 {
            self.writebacks += 1;
            Some(CacheLineAddr(victim & ADDR_MASK))
        } else {
            None
        }
    }

    /// Performs a demand access to `line`. On a miss the line is allocated
    /// (write-allocate: even stores first fill the line).
    #[inline]
    pub fn access(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        let set = self.set_index(line);
        match self.find(set, line) {
            Some(way) => {
                self.touch(set, way, is_write);
                self.hits += 1;
                CacheAccess {
                    hit: true,
                    writeback: None,
                }
            }
            None => {
                self.misses += 1;
                CacheAccess {
                    hit: false,
                    writeback: self.replace(set, pack(line, is_write)),
                }
            }
        }
    }

    /// Fills `line` without a demand access (page-migration pollution: the
    /// copy engine pulls the line through the hierarchy). Returns a dirty
    /// victim needing writeback, if any.
    pub fn fill(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        let set = self.set_index(line);
        match self.find(set, line) {
            Some(way) => {
                self.touch(set, way, dirty);
                None
            }
            None => self.replace(set, pack(line, dirty)),
        }
    }

    /// Invalidates `line` if resident, returning it if it was dirty.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let set = self.set_index(line);
        let way = self.find(set, line)?;
        let e = std::mem::replace(&mut self.entries[set * self.ways + way], EMPTY);
        let word = self.order[set];
        self.order[set] = recency::to_back(word, recency::position_of(word, way), self.ways);
        if e & DIRTY != 0 {
            self.writebacks += 1;
            return Some(CacheLineAddr(e & ADDR_MASK));
        }
        None
    }

    /// Whether `line` is currently resident (does not touch LRU state).
    #[inline]
    pub fn contains(&self, line: CacheLineAddr) -> bool {
        let base = self.set_index(line) * self.ways;
        self.entries[base..base + self.ways]
            .iter()
            .any(|&e| e & ADDR_MASK == line.0)
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|&&e| e != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = LlcConfig::tiny();
        assert_eq!(c.sets(), 32);
        assert_eq!(LlcConfig::scaled_default().sets(), 1024);
    }

    #[test]
    fn miss_then_hit() {
        let mut llc = Llc::new(LlcConfig::tiny());
        let a = CacheLineAddr(100);
        assert!(!llc.access(a, false).hit);
        assert!(llc.access(a, false).hit);
        assert_eq!(llc.hits(), 1);
        assert_eq!(llc.misses(), 1);
    }

    #[test]
    fn write_allocate_and_writeback() {
        // tiny: 32 sets, 2 ways. Lines 0, 32, 64 collide in set 0.
        let mut llc = Llc::new(LlcConfig::tiny());
        let (a, b, c) = (CacheLineAddr(0), CacheLineAddr(32), CacheLineAddr(64));
        llc.access(a, true); // dirty
        llc.access(b, false);
        let r = llc.access(c, false); // evicts a (LRU), which is dirty
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(a));
        assert_eq!(llc.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), false);
        llc.access(CacheLineAddr(32), false);
        let r = llc.access(CacheLineAddr(64), false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), false); // clean fill
        llc.access(CacheLineAddr(0), true); // dirtied by write hit
        llc.access(CacheLineAddr(32), false);
        llc.access(CacheLineAddr(0), false); // make 32 the LRU
        let r = llc.access(CacheLineAddr(64), false); // evicts 32 (clean)
        assert_eq!(r.writeback, None);
        let r = llc.access(CacheLineAddr(96), false); // evicts 0 (dirty)
        assert_eq!(r.writeback, Some(CacheLineAddr(0)));
    }

    #[test]
    fn fill_pollutes_and_can_evict() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), true);
        llc.access(CacheLineAddr(32), false);
        // Migration-style fill evicts the dirty LRU line 0.
        llc.access(CacheLineAddr(32), false); // make 0 LRU
        let wb = llc.fill(CacheLineAddr(64), false);
        assert_eq!(wb, Some(CacheLineAddr(0)));
        assert!(llc.contains(CacheLineAddr(64)));
    }

    #[test]
    fn invalidate_returns_dirty_line() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(5), true);
        assert_eq!(llc.invalidate(CacheLineAddr(5)), Some(CacheLineAddr(5)));
        assert!(!llc.contains(CacheLineAddr(5)));
        assert_eq!(llc.invalidate(CacheLineAddr(5)), None);
    }

    #[test]
    fn invalidate_middle_of_full_set_keeps_lru_order() {
        // 2-way tiny cache: fill set 0 with {32 (MRU), 0 (LRU)}, then
        // invalidate the MRU and check the survivor still evicts last.
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), false);
        llc.access(CacheLineAddr(32), false);
        llc.invalidate(CacheLineAddr(32));
        assert!(llc.contains(CacheLineAddr(0)));
        assert_eq!(llc.occupancy(), 1);
        llc.access(CacheLineAddr(64), false); // fills the freed way
        assert!(llc.contains(CacheLineAddr(0)));
        assert!(llc.contains(CacheLineAddr(64)));
    }
}
