//! The replayable access trace all workload generators produce.
//!
//! Generators record *region-relative* accesses once; a [`ReplayWorkload`]
//! binds the trace to a concrete region base at run time. Because the trace
//! is immutable and cheaply cloneable (`Arc`), the same access stream can
//! be replayed under every migration daemon — removing workload noise from
//! cross-daemon comparisons, exactly like replaying a recorded trace on
//! real hardware.
//!
//! The trace keeps what the engine consumes and no more: one 4-byte word
//! per access holding the region-relative 64-B line index and the two
//! flags. The engine reads an address only through its page and its word
//! within the page, so the bytes below the line are dropped at recording
//! time. Replay widens each word into the 8-byte [`AccessChunk`] layout
//! (absolute, line-aligned address; flags in bits 63/62) in one pass per
//! chunk.

use cxl_sim::addr::{VirtAddr, WORD_SHIFT};
use cxl_sim::chunk::{self, AccessChunk, CHUNK_ADDR_MASK, CHUNK_OP_END_BIT, CHUNK_WRITE_BIT};
use cxl_sim::system::{Access, AccessStream};
use std::sync::Arc;

/// Bit 31 of a trace word: the access is a store.
const WRITE_BIT: u32 = 1 << 31;
/// Bit 30 of a trace word: the access completes an operation.
const OP_END_BIT: u32 = 1 << 30;
/// Bits 0–29 of a trace word: the region-relative 64-B line index.
const LINE_MASK: u32 = (1 << 30) - 1;

/// The first region-relative byte offset a trace word cannot hold: 2^30
/// lines of 64 B, 64 GiB.
const TRACE_REACH: u64 = (LINE_MASK as u64 + 1) << WORD_SHIFT;

// Shifting a trace word's flag bits up by 32 lands them on the chunk
// word's flag bits.
const FLAG_SHIFT: u32 = 32;
const _: () = assert!((WRITE_BIT as u64) << FLAG_SHIFT == CHUNK_WRITE_BIT);
const _: () = assert!((OP_END_BIT as u64) << FLAG_SHIFT == CHUNK_OP_END_BIT);

/// Widens trace word `w` into a chunk word for a region at `base`.
#[inline]
fn widen(w: u32, base: u64) -> u64 {
    let w = u64::from(w);
    let addr = ((w & LINE_MASK as u64) << WORD_SHIFT) + base;
    debug_assert!(addr <= CHUNK_ADDR_MASK, "rebased address overflows 48 bits");
    addr | (w & !(LINE_MASK as u64)) << FLAG_SHIFT
}

/// Records region-relative accesses during workload generation.
#[derive(Clone, Debug, Default)]
pub struct AccessRecorder {
    buf: Vec<u32>,
}

impl AccessRecorder {
    /// An empty recorder.
    pub fn new() -> AccessRecorder {
        AccessRecorder::default()
    }

    /// A recorder pre-sized for `n` accesses.
    pub fn with_capacity(n: usize) -> AccessRecorder {
        AccessRecorder {
            buf: Vec::with_capacity(n),
        }
    }

    /// Records one access at region-relative byte offset `rel`. Only the
    /// offset's 64-B line is kept.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `rel` is 64 GiB (2^36 B) or more:
    /// a wider offset must never wrap onto a mapped line.
    #[inline]
    pub fn push(&mut self, rel: u64, is_write: bool, op_end: bool) {
        assert!(
            rel < TRACE_REACH,
            "region-relative offset {rel:#x} is past the 64 GiB a trace word reaches"
        );
        let mut w = (rel >> WORD_SHIFT) as u32;
        if is_write {
            w |= WRITE_BIT;
        }
        if op_end {
            w |= OP_END_BIT;
        }
        self.buf.push(w);
    }

    /// Records a read.
    #[inline]
    pub fn read(&mut self, rel: u64) {
        self.push(rel, false, false);
    }

    /// Records a write.
    #[inline]
    pub fn write(&mut self, rel: u64) {
        self.push(rel, true, false);
    }

    /// Number of accesses recorded.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Marks the most recent access as the end of an operation.
    pub fn mark_op_end(&mut self) {
        if let Some(last) = self.buf.last_mut() {
            *last |= OP_END_BIT;
        }
    }

    /// Finalises the trace into a replayable workload named `name`.
    pub fn into_workload(self, name: impl Into<String>, base: VirtAddr) -> ReplayWorkload {
        ReplayWorkload {
            name: name.into(),
            trace: Arc::new(self.buf),
            base,
            pos: 0,
        }
    }
}

/// An immutable recorded trace bound to a region base.
#[derive(Clone, Debug)]
pub struct ReplayWorkload {
    name: String,
    trace: Arc<Vec<u32>>,
    base: VirtAddr,
    pos: usize,
}

impl ReplayWorkload {
    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total accesses in the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// A fresh replay of the same trace from the start (cheap: the trace is
    /// shared).
    pub fn fresh(&self) -> ReplayWorkload {
        ReplayWorkload {
            name: self.name.clone(),
            trace: Arc::clone(&self.trace),
            base: self.base,
            pos: 0,
        }
    }

    /// The same trace re-bound to a different region base.
    pub fn rebased(&self, base: VirtAddr) -> ReplayWorkload {
        ReplayWorkload {
            name: self.name.clone(),
            trace: Arc::clone(&self.trace),
            base,
            pos: 0,
        }
    }

    /// The replay cursor: accesses consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Moves the replay cursor, clamped to the trace length. A run
    /// checkpoint records [`ReplayWorkload::pos`]; the restoring side
    /// regenerates the same trace from its spec and seeks back here.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos.min(self.trace.len());
    }

    /// The region-relative end of the highest line touched (the region
    /// size the trace needs, to line granularity).
    #[cfg(test)]
    pub fn max_extent(&self) -> u64 {
        self.trace
            .iter()
            .map(|&w| u64::from((w & LINE_MASK) + 1) << WORD_SHIFT)
            .max()
            .unwrap_or(0)
    }
}

impl AccessStream for ReplayWorkload {
    #[inline]
    fn next_access(&mut self) -> Option<Access> {
        let w = *self.trace.get(self.pos)?;
        self.pos += 1;
        Some(chunk::decode(widen(w, self.base.0)))
    }

    /// Bulk path: one widen-and-rebase pass over the next slice of the
    /// trace, straight into the chunk's words.
    fn fill_chunk(&mut self, chunk: &mut AccessChunk) -> usize {
        let base = self.base.0;
        let n = chunk.extend_words(self.trace[self.pos..].iter().map(|&w| widen(w, base)));
        self.pos += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_flags_and_offsets() {
        let mut rec = AccessRecorder::new();
        rec.read(0);
        rec.write(4096 + 64);
        rec.push(8192, false, true);
        let mut wl = rec.into_workload("t", VirtAddr(1 << 20));
        assert_eq!(wl.len(), 3);
        let a = wl.next_access().unwrap();
        assert_eq!(a.vaddr, VirtAddr(1 << 20));
        assert!(!a.is_write && !a.op_end);
        let b = wl.next_access().unwrap();
        assert_eq!(b.vaddr, VirtAddr((1 << 20) + 4160));
        assert!(b.is_write);
        let c = wl.next_access().unwrap();
        assert!(c.op_end);
        assert!(wl.next_access().is_none());
    }

    #[test]
    fn fresh_replays_identically() {
        let mut rec = AccessRecorder::new();
        for i in 0..10 {
            rec.read(i * 64);
        }
        let mut a = rec.into_workload("t", VirtAddr(0));
        let mut b = a.fresh();
        while let (Some(x), Some(y)) = (a.next_access(), b.next_access()) {
            assert_eq!(x, y);
        }
        let mut c = b.fresh();
        assert!(c.next_access().is_some(), "fresh resets the cursor");
    }

    #[test]
    fn mark_op_end_applies_to_last() {
        let mut rec = AccessRecorder::new();
        rec.read(0);
        rec.read(64);
        rec.mark_op_end();
        let mut wl = rec.into_workload("t", VirtAddr(0));
        assert!(!wl.next_access().unwrap().op_end);
        assert!(wl.next_access().unwrap().op_end);
    }

    #[test]
    fn seek_resumes_exactly_where_pos_left_off() {
        let mut rec = AccessRecorder::new();
        for i in 0..20 {
            rec.read(i * 64);
        }
        let mut a = rec.into_workload("t", VirtAddr(0));
        for _ in 0..7 {
            a.next_access();
        }
        let mut b = a.fresh();
        b.seek(a.pos());
        assert_eq!(b.pos(), 7);
        while let (Some(x), Some(y)) = (a.next_access(), b.next_access()) {
            assert_eq!(x, y);
        }
        assert!(a.next_access().is_none() && b.next_access().is_none());
        // Seeking past the end clamps: the stream is exhausted, not UB.
        let mut c = b.fresh();
        c.seek(usize::MAX);
        assert!(c.next_access().is_none());
    }

    #[test]
    fn rebase_and_extent_keep_the_line_and_flags() {
        let mut rec = AccessRecorder::new();
        // 12345 = line 192 (byte 12288) + 57: the low 6 bits are dropped.
        rec.push(12345, true, true);
        let wl = rec.into_workload("t", VirtAddr(0));
        assert_eq!(wl.max_extent(), 12288 + 64, "end of the highest line");
        let mut moved = wl.rebased(VirtAddr(4096));
        let a = moved.next_access().unwrap();
        assert_eq!(a.vaddr, VirtAddr(4096 + 12288));
        assert_eq!(a.vaddr.word_index(), VirtAddr(4096 + 12345).word_index());
        assert!(a.is_write && a.op_end);
    }

    #[test]
    fn push_reaches_the_last_line_below_64_gib() {
        let mut rec = AccessRecorder::new();
        rec.push(TRACE_REACH - 1, true, false);
        let mut wl = rec.into_workload("t", VirtAddr(1 << 40));
        let a = wl.next_access().unwrap();
        assert_eq!(a.vaddr, VirtAddr((1 << 40) + TRACE_REACH - 64));
        assert!(a.is_write && !a.op_end);
    }

    #[test]
    #[should_panic(expected = "past the 64 GiB")]
    fn push_rejects_an_offset_at_64_gib() {
        AccessRecorder::new().push(1 << 36, false, false);
    }
}
