//! Liblinear proxy: sparse mini-batch SGD for linear classification over
//! a KDD-2012-like design matrix.
//!
//! Access structure per training sample:
//!
//! * a **sequential** pass over the sample's feature-index list (the CSR
//!   data region — large, streamed once per epoch, cold),
//! * **random** reads of `w[f]` for each nonzero feature — feature
//!   popularity is heavily Zipf-distributed in KDD-style data, so a small
//!   set of weight pages is very hot (the skew that makes Liblinear one of
//!   M5's biggest Figure 9 wins), and
//! * periodic weight updates (writes) at the end of each mini-batch.
//!
//! Only a fraction of the feature space ever occurs, so weight pages have
//! a moderate number of distinct words touched — the paper's Figure 4
//! reports 15 % of Liblinear pages with ≤25 % of words accessed.

use crate::access::{AccessRecorder, ReplayWorkload};
use crate::dist::ZipfSampler;
use cxl_sim::addr::{VirtAddr, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PAGE: u64 = PAGE_SIZE as u64;

/// Nonzero features per sample.
const NNZ_PER_SAMPLE: usize = 24;
/// Samples per mini-batch (weights written once per batch).
const BATCH: usize = 16;
/// Feature-popularity skew.
const ZIPF_THETA: f64 = 0.9;
/// Bytes of sample data per nonzero (index + value).
const BYTES_PER_NNZ: u64 = 8;

/// Liblinear workload configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiblinearConfig {
    /// Feature-space size (weight vector length).
    pub n_features: u64,
    /// Sample-data region pages.
    pub data_pages: u64,
    /// RNG seed.
    pub seed: u64,
}

impl LiblinearConfig {
    /// A KDD-2012-flavoured preset sized to `weight_pages` of weights plus
    /// `data_pages` of streamed sample data.
    pub fn kdd(weight_pages: u64, data_pages: u64) -> LiblinearConfig {
        LiblinearConfig {
            n_features: weight_pages * PAGE / 8,
            data_pages,
            seed: 0x11b1,
        }
    }

    /// Pages of the weight vector.
    pub fn weight_pages(&self) -> u64 {
        (self.n_features * 8).div_ceil(PAGE)
    }

    /// Total region pages.
    pub fn footprint_pages(&self) -> u64 {
        self.weight_pages() + self.data_pages
    }
}

/// Generates a training trace of ~`target_accesses` accesses.
///
/// Feature ids in KDD-style data correlate with frequency (common
/// features have low ids), so hot weights *cluster in the leading weight
/// pages* — that clustering is what produces the strong page-level skew
/// the paper measures with PAC (Figure 10), and it must survive cache
/// filtering: the hot page set (hundreds of pages) is deliberately larger
/// than the LLC. Within a page, only a per-page subset of words is ever
/// an active feature, giving the moderate sparsity of Figure 4.
pub fn generate(config: &LiblinearConfig, base: VirtAddr, target_accesses: u64) -> ReplayWorkload {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let weight_pages = config.weight_pages();
    let page_zipf = ZipfSampler::new(weight_pages, ZIPF_THETA);
    let weights_bytes = weight_pages * PAGE;
    let data_bytes = config.data_pages * PAGE;
    // Words per page that ever hold an active feature: 12..=63.
    let active_words = |page: u64| 12 + crate::dist::hash_slot(page, 1, config.seed) % 52;

    let mut rec = AccessRecorder::with_capacity(target_accesses as usize + 64);
    let mut data_cursor = 0u64;
    'outer: while (rec.len() as u64) < target_accesses {
        // One mini-batch.
        let mut touched: Vec<u64> = Vec::with_capacity(BATCH * NNZ_PER_SAMPLE);
        for _ in 0..BATCH {
            for _ in 0..NNZ_PER_SAMPLE {
                // Stream the sample's (index, value) pair.
                rec.read(weights_bytes + data_cursor);
                data_cursor = (data_cursor + BYTES_PER_NNZ) % data_bytes;
                // Gather the weight: hot pages are the low-id ones.
                let page = page_zipf.sample(&mut rng);
                let n_words = active_words(page);
                let word_slot = rng.gen_range(0..n_words);
                // Spread the active slots over the page deterministically.
                let word = crate::dist::hash_slot(page, word_slot, config.seed ^ 0x17) % 64;
                let w_addr = page * PAGE + word * 64;
                rec.read(w_addr);
                touched.push(w_addr);
            }
            rec.mark_op_end();
            if rec.len() as u64 >= target_accesses {
                break 'outer;
            }
        }
        // Gradient step: scatter the updates back.
        for &w_addr in &touched {
            rec.write(w_addr);
        }
    }
    rec.into_workload("liblinear", base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::system::AccessStream;
    use std::collections::HashMap;

    #[test]
    fn footprint_composition() {
        let c = LiblinearConfig::kdd(100, 400);
        assert_eq!(c.weight_pages(), 100);
        assert_eq!(c.footprint_pages(), 500);
    }

    #[test]
    fn trace_stays_in_bounds() {
        let c = LiblinearConfig::kdd(50, 100);
        let wl = generate(&c, VirtAddr(0), 50_000);
        assert!(wl.len() >= 50_000);
        assert!(wl.max_extent() <= c.footprint_pages() * PAGE);
    }

    #[test]
    fn weight_pages_are_hot_and_skewed_data_pages_cold() {
        let c = LiblinearConfig::kdd(50, 200);
        let mut wl = generate(&c, VirtAddr(0), 400_000);
        let weights_bytes = c.weight_pages() * PAGE;
        let mut weight_counts: HashMap<u64, u64> = HashMap::new();
        let mut data_accesses = 0u64;
        let mut weight_accesses = 0u64;
        while let Some(a) = wl.next_access() {
            if a.vaddr.0 < weights_bytes {
                weight_accesses += 1;
                *weight_counts.entry(a.vaddr.0 / PAGE).or_default() += 1;
            } else {
                data_accesses += 1;
            }
        }
        assert!(weight_accesses > data_accesses, "gathers dominate streams");
        // Zipf features: the hottest weight page should far exceed the
        // median one.
        let mut v: Vec<u64> = weight_counts.values().copied().collect();
        v.sort_unstable();
        assert!(v[v.len() - 1] > v[v.len() / 2] * 3, "{v:?}");
    }

    #[test]
    fn has_write_phase_and_op_markers() {
        let c = LiblinearConfig::kdd(20, 50);
        let mut wl = generate(&c, VirtAddr(0), 100_000);
        let mut writes = 0;
        let mut ops = 0;
        while let Some(a) = wl.next_access() {
            if a.is_write {
                writes += 1;
            }
            if a.op_end {
                ops += 1;
            }
        }
        assert!(writes > 0);
        assert!(ops > 100);
    }
}
