//! Pins the access stream the engine sees for every registered workload.
//!
//! The engine reads an access only through its page (`vpn`), its 64-B
//! word within the page (`word_index`) and its two flags; the bytes below
//! the line are never consulted. Each pin is an FNV-1a hash of exactly
//! those four fields over the first [`ACCESSES`] accesses of
//! `spec.build(..)` at seed 42, so a change to how traces are stored
//! passes here only if the engine cannot tell it apart.
//!
//! Both replay paths are hashed: `next_access` and `fill_chunk`.

use cxl_sim::addr::VirtAddr;
use cxl_sim::checkpoint::fnv64;
use cxl_sim::chunk::AccessChunk;
use cxl_sim::system::{Access, AccessStream};
use m5_workloads::registry::Benchmark;

const ACCESSES: u64 = 200_000;
const SEED: u64 = 42;
const BASE: VirtAddr = VirtAddr(0x40_0000);

const PINS: [(Benchmark, u64); 14] = [
    (Benchmark::Liblinear, 0x104b_3518_bd15_4cd6),
    (Benchmark::Bc, 0x1d29_7cf3_3bea_fa9f),
    (Benchmark::Bfs, 0xb988_50ea_9e9b_c569),
    (Benchmark::Cc, 0xb976_1d21_1dcb_ca97),
    (Benchmark::Pr, 0x316f_472d_cd53_dc95),
    (Benchmark::Sssp, 0x7f7e_8131_5447_dac4),
    (Benchmark::Tc, 0xb354_25f0_f644_f8a0),
    (Benchmark::CactuBssn, 0xcc7c_eaa9_6022_5305),
    (Benchmark::Fotonik3d, 0x768d_33d5_56b3_a5d1),
    (Benchmark::Mcf, 0x7b02_0f7c_b65a_6e06),
    (Benchmark::Roms, 0xc557_c3a2_0b86_fe15),
    (Benchmark::Redis, 0x76c2_caa0_0a06_5bf8),
    (Benchmark::Memcached, 0x1f63_c6c6_2c97_6669),
    (Benchmark::CacheLib, 0x6a40_4a80_cd27_8a29),
];

/// The engine-visible fields of the first `ACCESSES` accesses.
fn fingerprint(accesses: impl Iterator<Item = Access>) -> u64 {
    let mut bytes = Vec::new();
    for a in accesses.take(ACCESSES as usize) {
        bytes.extend_from_slice(&a.vaddr.vpn().0.to_le_bytes());
        bytes.push(a.vaddr.word_index().0);
        bytes.push(a.is_write as u8);
        bytes.push(a.op_end as u8);
    }
    fnv64(&bytes)
}

fn drain_chunks<S: AccessStream>(s: &mut S) -> Vec<Access> {
    let mut chunk = AccessChunk::with_capacity(4096);
    let mut out = Vec::new();
    loop {
        chunk.clear();
        if s.fill_chunk(&mut chunk) == 0 {
            return out;
        }
        out.extend(chunk.iter());
    }
}

#[test]
fn every_workload_streams_its_pinned_lines_and_flags() {
    assert_eq!(PINS.len(), Benchmark::FIGURE4.len());
    for (b, pin) in PINS {
        let mut wl = b.spec().build(BASE, ACCESSES, SEED);
        let mut bulk = wl.fresh();
        let per_access = fingerprint(std::iter::from_fn(|| wl.next_access()));
        let chunked = fingerprint(drain_chunks(&mut bulk).into_iter());
        assert_eq!(
            per_access, chunked,
            "{b:?}: fill_chunk differs from next_access"
        );
        assert_eq!(
            per_access, pin,
            "{b:?}: stream fingerprint {per_access:#018x} moved"
        );
    }
}
