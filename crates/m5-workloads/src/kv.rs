//! A slab-allocated in-memory KV store driven by a YCSB-style client —
//! the Redis, Memcached, and CacheLib proxies.
//!
//! ## Why this reproduces the paper's fingerprints
//!
//! * **Sparse pages (Figure 4).** Values are small objects placed at
//!   scattered word offsets inside slab pages, with allocator metadata and
//!   fragmentation leaving most of each page's 64 words untouched — so a
//!   page typically has ≤16 unique words accessed even after millions of
//!   ops (86 % / 76 % / 74 % of pages for Redis / Memcached / CacheLib in
//!   the paper; the presets differ in slab density to land in those
//!   bands).
//! * **Uniform equilibrium (Figure 9).** YCSB-A over a uniform key
//!   distribution means no page stays hotter than another for long, so a
//!   migration solution that keeps scanning/migrating at equilibrium
//!   (DAMON) only pays costs — while per-op latency accounting exposes the
//!   p99 damage (§4.2).
//! * **A few dense hot structures.** The hash index is touched on every
//!   op, forming a small set of genuinely hot, dense pages — the part of
//!   the footprint worth promoting.

use crate::access::{AccessRecorder, ReplayWorkload};
use crate::dist::{Scatter, ZipfSampler};
use cxl_sim::addr::{VirtAddr, PAGE_SIZE, WORD_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key-popularity distribution of the client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely (the paper's Redis/YCSB-A observation of
    /// uniform random memory accesses).
    Uniform,
    /// Zipfian with exponent `theta` (classic YCSB default 0.99).
    Zipf(f64),
}

/// Maximum 64 B words per object (sizes vary 1..=max per key, like a real
/// object store's mixed value sizes).
const OBJ_WORDS: u64 = 3;
/// Fraction of reads (YCSB-A: 0.5 read / 0.5 update).
const READ_FRACTION: f64 = 0.5;

/// KV store + client configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvConfig {
    /// Number of stored objects.
    pub n_keys: u64,
    /// Objects resident per slab page (lower = sparser pages).
    pub objs_per_page: u64,
    /// Key popularity.
    pub key_dist: KeyDist,
    /// RNG seed.
    pub seed: u64,
}

impl KvConfig {
    /// Redis-like: ~7 slots/page × 1–3 words ⇒ typically ≤16 unique words
    /// per page, with uniform key popularity — the paper observes Redis's
    /// memory accesses as uniform random (§7.2). The uniform object tier
    /// makes the dense hash-index pages the only true hot set, which is
    /// why HWT-driven nomination (hot index *words*) shines here
    /// (Guideline 4) and why migration reaches an equilibrium where
    /// further effort is pure overhead.
    pub fn redis(n_keys: u64) -> KvConfig {
        KvConfig {
            n_keys,
            objs_per_page: 7,
            key_dist: KeyDist::Uniform,
            seed: 0x4ed1,
        }
    }

    /// Memcached-like: slightly denser slabs (≤16 words typical).
    pub fn memcached(n_keys: u64) -> KvConfig {
        KvConfig {
            n_keys,
            objs_per_page: 8,
            key_dist: KeyDist::Uniform,
            seed: 0x4ed2,
        }
    }

    /// CacheLib-like: denser still, mildly skewed trace.
    pub fn cachelib(n_keys: u64) -> KvConfig {
        KvConfig {
            n_keys,
            objs_per_page: 9,
            key_dist: KeyDist::Zipf(0.6),
            seed: 0x4ed3,
        }
    }

    /// Slab pages needed for the objects.
    pub fn data_pages(&self) -> u64 {
        self.n_keys.div_ceil(self.objs_per_page)
    }

    /// Hash-index pages (one 8 B bucket per key, 512 buckets/page).
    pub fn index_pages(&self) -> u64 {
        self.n_keys.div_ceil(512)
    }

    /// Total region pages the store occupies.
    pub fn footprint_pages(&self) -> u64 {
        self.data_pages() + self.index_pages()
    }
}

/// Generates a YCSB-A trace of approximately `target_accesses` accesses.
pub fn generate(config: &KvConfig, base: VirtAddr, target_accesses: u64) -> ReplayWorkload {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let zipf = match config.key_dist {
        KeyDist::Zipf(theta) => Some(ZipfSampler::new(config.n_keys, theta)),
        KeyDist::Uniform => None,
    };
    // Popular ranks scattered over object slots, like a real allocator.
    let scatter = Scatter::new(config.n_keys, config.seed ^ 0x5eed);
    let index_base = config.data_pages() * PAGE_SIZE as u64;

    let mut rec = AccessRecorder::with_capacity(target_accesses as usize + 8);
    while (rec.len() as u64) < target_accesses {
        let rank = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..config.n_keys),
        };
        let key = scatter.map(rank);
        let is_read = rng.gen::<f64>() < READ_FRACTION;

        // 1. Hash-index probe: one bucket read.
        rec.read(index_base + key * 8);

        // 2. Object access: this object's words at its slab slot. Object
        // sizes vary per key (1..=OBJ_WORDS), like mixed value sizes.
        let page = key / config.objs_per_page;
        let slot = key % config.objs_per_page;
        let this_obj_words =
            1 + crate::dist::hash_slot(page, slot, config.seed ^ 0x0b1) % OBJ_WORDS;
        // Deterministic scattered word offset for this slot within the page.
        let word0 = crate::dist::hash_slot(page, slot, config.seed) % (64 - OBJ_WORDS + 1);
        for w in 0..this_obj_words {
            let rel = page * PAGE_SIZE as u64 + (word0 + w) * WORD_SIZE as u64;
            if is_read {
                rec.read(rel);
            } else {
                rec.write(rel);
            }
        }
        rec.mark_op_end();
    }
    let name = format!(
        "kv-{}",
        match config.key_dist {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf(_) => "zipf",
        }
    );
    rec.into_workload(name, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::system::AccessStream;
    use std::collections::HashMap;

    #[test]
    fn footprint_accounts_for_data_and_index() {
        let c = KvConfig::redis(7 * 1000);
        assert_eq!(c.data_pages(), 1000);
        assert_eq!(c.index_pages(), 14);
        assert_eq!(c.footprint_pages(), 1014);
    }

    #[test]
    fn trace_stays_within_the_footprint() {
        let c = KvConfig::redis(600);
        let wl = generate(&c, VirtAddr(0), 10_000);
        assert!(wl.len() >= 10_000);
        let extent_pages = wl.max_extent().div_ceil(PAGE_SIZE as u64);
        assert!(
            extent_pages <= c.footprint_pages(),
            "{extent_pages} > {}",
            c.footprint_pages()
        );
    }

    #[test]
    fn ops_are_marked_and_balanced() {
        let c = KvConfig::redis(600);
        let mut wl = generate(&c, VirtAddr(0), 30_000);
        let mut ops = 0u64;
        let mut writes = 0u64;
        let mut total = 0u64;
        while let Some(a) = wl.next_access() {
            total += 1;
            if a.op_end {
                ops += 1;
            }
            if a.is_write {
                writes += 1;
            }
        }
        assert!(ops > 9_000, "one op per ~3 accesses, got {ops}");
        // YCSB-A: half the ops write their 1..=OBJ_WORDS words.
        let wf = writes as f64 / total as f64;
        assert!((0.25..0.45).contains(&wf), "write fraction {wf}");
    }

    /// The headline sparsity property: most slab pages have few unique
    /// words accessed (Figure 4's Redis shape).
    #[test]
    fn redis_slab_pages_are_sparse() {
        let c = KvConfig::redis(6 * 500);
        let mut wl = generate(&c, VirtAddr(0), 200_000);
        let data_bytes = c.data_pages() * PAGE_SIZE as u64;
        let mut words: HashMap<u64, std::collections::HashSet<u64>> = HashMap::new();
        while let Some(a) = wl.next_access() {
            let rel = a.vaddr.0;
            if rel < data_bytes {
                words
                    .entry(rel / PAGE_SIZE as u64)
                    .or_default()
                    .insert((rel / WORD_SIZE as u64) % 64);
            }
        }
        let sparse = words.values().filter(|w| w.len() <= 16).count();
        let frac = sparse as f64 / words.len() as f64;
        assert!(frac > 0.8, "only {frac:.2} of pages are ≤16-word sparse");
    }

    #[test]
    fn presets_differ_in_density() {
        assert!(KvConfig::memcached(1000).objs_per_page > KvConfig::redis(1000).objs_per_page);
        assert_eq!(KvConfig::cachelib(1000).key_dist, KeyDist::Zipf(0.6));
        assert_eq!(KvConfig::redis(1000).key_dist, KeyDist::Uniform);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = KvConfig::redis(600);
        let mut a = generate(&c, VirtAddr(0), 1000);
        let mut b = generate(&c, VirtAddr(0), 1000);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
