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
//! empty sentinel (a real line address never reaches 2^63 − 1). Under the
//! default [`ReplacementPolicy::ExactLru`] each set's slice is
//! recency-ordered (way 0 = MRU, valid entries form a prefix), which
//! reproduces the original nested-`Vec` LRU decisions bit for bit. The
//! opt-in [`ReplacementPolicy::TreeLru`] keeps entries in stable ways and
//! drives victim selection from a per-set pseudo-LRU bit tree instead —
//! cheaper per touch, but it approximates LRU, so it is *not* the default:
//! golden traces are pinned to exact LRU.

use crate::addr::CacheLineAddr;

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

/// Victim-selection policy for [`Llc`] (and the TLB, which shares the
/// flat-array design).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// True LRU, order-encoded within each set's contiguous slice. The
    /// default: byte-compatible with the original nested-`Vec`
    /// implementation and with every checked-in golden trace.
    #[default]
    ExactLru,
    /// Tree pseudo-LRU: a per-set binary bit tree points at the
    /// approximately-least-recent way. O(log ways) bit flips per touch
    /// instead of an O(ways) shift, at the cost of approximating LRU.
    /// Requires power-of-two associativity.
    TreeLru,
}

/// The outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// A dirty line evicted to make room, which must be written back to DRAM.
    pub writeback: Option<CacheLineAddr>,
}

/// Empty-slot sentinel: all ones (dirty bit set *and* an impossible
/// address), so a single compare rules a slot out.
const EMPTY: u64 = u64::MAX;
/// Dirty flag, packed above the 63 usable address bits.
const DIRTY: u64 = 1 << 63;
const ADDR_MASK: u64 = !DIRTY;

/// A set-associative LLC with per-set LRU replacement and write-allocate,
/// writeback semantics, stored as a single flat array of packed entries.
#[derive(Clone, Debug)]
pub struct Llc {
    /// `n_sets × ways` packed entries; see module docs for the layout.
    entries: Vec<u64>,
    /// Per-set pseudo-LRU bit trees; empty unless `policy` is `TreeLru`.
    plru: Vec<u64>,
    policy: ReplacementPolicy,
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
    debug_assert!(addr.0 < DIRTY, "line address overflows packed entry");
    addr.0 | if dirty { DIRTY } else { 0 }
}

/// Marks `way` most-recently-used: each tree bit on the root→leaf path is
/// pointed *away* from the way just touched.
#[inline]
pub(crate) fn plru_touch(tree: &mut u64, levels: u32, way: usize) {
    let mut node = 1usize;
    for level in (0..levels).rev() {
        let took_right = (way >> level) & 1;
        if took_right == 1 {
            *tree &= !(1u64 << node);
        } else {
            *tree |= 1u64 << node;
        }
        node = node * 2 + took_right;
    }
}

/// Follows the tree bits root→leaf to the pseudo-least-recent way.
#[inline]
pub(crate) fn plru_victim(tree: u64, levels: u32) -> usize {
    let mut node = 1usize;
    let mut way = 0usize;
    for _ in 0..levels {
        let bit = ((tree >> node) & 1) as usize;
        way = way * 2 + bit;
        node = node * 2 + bit;
    }
    way
}

impl Llc {
    /// Builds an empty cache with the default exact-LRU policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(config: LlcConfig) -> Llc {
        Llc::with_policy(config, ReplacementPolicy::ExactLru)
    }

    /// Builds an empty cache under an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets, or if `TreeLru` is asked
    /// for with a non-power-of-two associativity.
    pub fn with_policy(config: LlcConfig, policy: ReplacementPolicy) -> Llc {
        let n_sets = config.sets();
        assert!(n_sets > 0, "LLC too small for its associativity");
        if policy == ReplacementPolicy::TreeLru {
            assert!(
                config.ways.is_power_of_two() && config.ways <= 64,
                "tree pseudo-LRU needs power-of-two associativity ≤ 64"
            );
        }
        Llc {
            entries: vec![EMPTY; n_sets * config.ways],
            plru: if policy == ReplacementPolicy::TreeLru {
                vec![0; n_sets]
            } else {
                Vec::new()
            },
            policy,
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

    /// The replacement policy this cache was built with.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Serializes the packed entry array (LRU order included), pseudo-LRU
    /// trees, and hit/miss/writeback counters for a checkpoint. Geometry
    /// and policy are rebuilt from configuration on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.entries);
        w.put_u64_slice(&self.plru);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }

    /// Rebuilds a cache from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects arrays that do not match the
    /// geometry implied by `config`/`policy`.
    pub fn restore(
        config: LlcConfig,
        policy: ReplacementPolicy,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Llc, crate::checkpoint::CodecError> {
        let mut llc = Llc::with_policy(config, policy);
        let entries = r.get_u64_vec()?;
        if entries.len() != llc.entries.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "llc entry count",
                value: entries.len() as u64,
            });
        }
        let plru = r.get_u64_vec()?;
        if plru.len() != llc.plru.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "llc plru tree count",
                value: plru.len() as u64,
            });
        }
        llc.entries = entries;
        llc.plru = plru;
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

    #[inline]
    fn levels(&self) -> u32 {
        self.ways.trailing_zeros()
    }

    /// Performs a demand access to `line`. On a miss the line is allocated
    /// (write-allocate: even stores first fill the line).
    #[inline]
    pub fn access(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        match self.policy {
            ReplacementPolicy::ExactLru => self.access_lru(line, is_write),
            ReplacementPolicy::TreeLru => self.access_plru(line, is_write),
        }
    }

    fn access_lru(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        let base = self.set_index(line) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        // Valid entries form a recency-ordered prefix (way 0 = MRU).
        let mut len = set.len();
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY {
                len = i;
                break;
            }
            if e & ADDR_MASK == line.0 {
                let promoted = e | if is_write { DIRTY } else { 0 };
                set.copy_within(0..i, 1);
                set[0] = promoted;
                self.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
        }
        self.misses += 1;
        let writeback = if len == set.len() {
            let victim = set[len - 1];
            if victim & DIRTY != 0 {
                self.writebacks += 1;
                Some(CacheLineAddr(victim & ADDR_MASK))
            } else {
                None
            }
        } else {
            len += 1;
            None
        };
        set.copy_within(0..len - 1, 1);
        set[0] = pack(line, is_write);
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    fn access_plru(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        let idx = self.set_index(line);
        let base = idx * self.ways;
        let levels = self.levels();
        let set = &mut self.entries[base..base + self.ways];
        let mut empty_way = None;
        for (w, &e) in set.iter().enumerate() {
            if e == EMPTY {
                if empty_way.is_none() {
                    empty_way = Some(w);
                }
                continue;
            }
            if e & ADDR_MASK == line.0 {
                set[w] = e | if is_write { DIRTY } else { 0 };
                plru_touch(&mut self.plru[idx], levels, w);
                self.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
        }
        self.misses += 1;
        let (way, writeback) = match empty_way {
            Some(w) => (w, None),
            None => {
                let w = plru_victim(self.plru[idx], levels);
                let victim = set[w];
                if victim & DIRTY != 0 {
                    self.writebacks += 1;
                    (w, Some(CacheLineAddr(victim & ADDR_MASK)))
                } else {
                    (w, None)
                }
            }
        };
        set[way] = pack(line, is_write);
        plru_touch(&mut self.plru[idx], levels, way);
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Fills `line` without a demand access (page-migration pollution: the
    /// copy engine pulls the line through the hierarchy). Returns a dirty
    /// victim needing writeback, if any.
    pub fn fill(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        match self.policy {
            ReplacementPolicy::ExactLru => self.fill_lru(line, dirty),
            ReplacementPolicy::TreeLru => self.fill_plru(line, dirty),
        }
    }

    fn fill_lru(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        let base = self.set_index(line) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        let mut len = set.len();
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY {
                len = i;
                break;
            }
            if e & ADDR_MASK == line.0 {
                let promoted = e | if dirty { DIRTY } else { 0 };
                set.copy_within(0..i, 1);
                set[0] = promoted;
                return None;
            }
        }
        let writeback = if len == set.len() {
            let victim = set[len - 1];
            if victim & DIRTY != 0 {
                self.writebacks += 1;
                Some(CacheLineAddr(victim & ADDR_MASK))
            } else {
                None
            }
        } else {
            len += 1;
            None
        };
        set.copy_within(0..len - 1, 1);
        set[0] = pack(line, dirty);
        writeback
    }

    fn fill_plru(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        let idx = self.set_index(line);
        let base = idx * self.ways;
        let levels = self.levels();
        let set = &mut self.entries[base..base + self.ways];
        let mut empty_way = None;
        for (w, &e) in set.iter().enumerate() {
            if e == EMPTY {
                if empty_way.is_none() {
                    empty_way = Some(w);
                }
                continue;
            }
            if e & ADDR_MASK == line.0 {
                set[w] = e | if dirty { DIRTY } else { 0 };
                plru_touch(&mut self.plru[idx], levels, w);
                return None;
            }
        }
        let (way, writeback) = match empty_way {
            Some(w) => (w, None),
            None => {
                let w = plru_victim(self.plru[idx], levels);
                let victim = set[w];
                if victim & DIRTY != 0 {
                    self.writebacks += 1;
                    (w, Some(CacheLineAddr(victim & ADDR_MASK)))
                } else {
                    (w, None)
                }
            }
        };
        set[way] = pack(line, dirty);
        plru_touch(&mut self.plru[idx], levels, way);
        writeback
    }

    /// Invalidates `line` if resident, returning it if it was dirty.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let base = self.set_index(line) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY {
                break;
            }
            if e & ADDR_MASK == line.0 {
                match self.policy {
                    ReplacementPolicy::ExactLru => {
                        // Close the gap to keep the valid prefix contiguous.
                        set.copy_within(i + 1.., i);
                        set[self.ways - 1] = EMPTY;
                    }
                    ReplacementPolicy::TreeLru => set[i] = EMPTY,
                }
                if e & DIRTY != 0 {
                    self.writebacks += 1;
                    return Some(CacheLineAddr(e & ADDR_MASK));
                }
                return None;
            }
        }
        None
    }

    /// Whether `line` is currently resident (does not touch LRU state).
    #[inline]
    pub fn contains(&self, line: CacheLineAddr) -> bool {
        let base = self.set_index(line) * self.ways;
        self.entries[base..base + self.ways]
            .iter()
            .any(|&e| e != EMPTY && e & ADDR_MASK == line.0)
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

    #[test]
    fn tree_plru_basic_hit_miss_and_full_set_eviction() {
        let mut llc = Llc::with_policy(LlcConfig::tiny(), ReplacementPolicy::TreeLru);
        assert_eq!(llc.policy(), ReplacementPolicy::TreeLru);
        let (a, b) = (CacheLineAddr(0), CacheLineAddr(32));
        assert!(!llc.access(a, true).hit);
        assert!(!llc.access(b, false).hit);
        assert!(llc.access(a, false).hit);
        assert_eq!(llc.occupancy(), 2);
        // Set 0 is full; b was touched least recently, so the pLRU tree
        // must pick it (for 2 ways pLRU *is* exact LRU).
        let r = llc.access(CacheLineAddr(64), false);
        assert!(!r.hit);
        assert!(llc.contains(a));
        assert!(!llc.contains(b));
        assert_eq!(r.writeback, None, "b was clean");
        // a is dirty; evicting it must write back.
        let r = llc.access(CacheLineAddr(96), false);
        assert_eq!(r.writeback, Some(a));
    }

    #[test]
    fn tree_plru_invalidate_frees_the_way() {
        let mut llc = Llc::with_policy(LlcConfig::tiny(), ReplacementPolicy::TreeLru);
        llc.access(CacheLineAddr(0), true);
        assert_eq!(llc.invalidate(CacheLineAddr(0)), Some(CacheLineAddr(0)));
        assert_eq!(llc.occupancy(), 0);
        assert!(!llc.contains(CacheLineAddr(0)));
    }

    #[test]
    fn plru_tree_victim_walks_touch_history() {
        // 8 ways, 3 levels: touching every way in order leaves way 0 as
        // the pseudo-LRU victim (it was touched longest ago and no other
        // touch redirected the tree back toward it... verify against a
        // brute-force expectation for this specific sequence).
        let mut tree = 0u64;
        for w in 0..8 {
            plru_touch(&mut tree, 3, w);
        }
        assert_eq!(plru_victim(tree, 3), 0);
        plru_touch(&mut tree, 3, 0);
        assert_ne!(plru_victim(tree, 3), 0);
    }
}
