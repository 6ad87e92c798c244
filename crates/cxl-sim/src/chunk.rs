//! SoA access chunks: the batch currency of the chunked run pipeline.
//!
//! An [`AccessChunk`] stores a short burst of accesses as packed `u64`
//! words — 48 bits of virtual address plus write/op-end flag bits — in one
//! contiguous buffer. Workloads fill chunks (see
//! [`AccessStream::fill_chunk`](crate::system::AccessStream::fill_chunk)),
//! the [`System`](crate::system::System) consumes them in a tight batch
//! loop ([`System::access_batch`](crate::system::System::access_batch)),
//! and [`ChunkedRun::drive_to`](crate::system::ChunkedRun::drive_to)
//! alternates the two, one chunk at a time.
//!
//! Streams with a compact storage format of their own append words
//! directly with [`AccessChunk::extend_words`]: the recorded trace in
//! `m5-workloads` keeps a 4-byte line word per access and widens it into
//! this layout in one pass per chunk, with no per-access [`Access`]
//! round trip.

use crate::addr::VirtAddr;
use crate::system::Access;

/// Bit 63 of a packed access word: the access is a store.
pub const CHUNK_WRITE_BIT: u64 = 1 << 63;
/// Bit 62 of a packed access word: the access completes a client-visible
/// operation (per-op latency percentiles).
pub const CHUNK_OP_END_BIT: u64 = 1 << 62;
/// Low 48 bits of a packed access word: the virtual byte address.
pub const CHUNK_ADDR_MASK: u64 = (1 << 48) - 1;

/// A fixed-capacity batch of packed accesses.
///
/// Besides its allocation capacity, a chunk carries a *soft limit*
/// (`limit() <= capacity()`): filling stops at the limit, which lets
/// callers cap a fill at an access budget or a co-run quantum boundary
/// without reallocating. [`AccessChunk::clear`] resets the limit to the
/// full capacity.
#[derive(Clone, Debug)]
pub struct AccessChunk {
    words: Vec<u64>,
    cap: usize,
    limit: usize,
}

impl AccessChunk {
    /// An empty chunk holding at most `cap` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_capacity(cap: usize) -> AccessChunk {
        assert!(cap > 0, "chunk capacity must be positive");
        AccessChunk {
            words: Vec::with_capacity(cap),
            cap,
            limit: cap,
        }
    }

    /// Empties the chunk and restores the fill limit to the capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.words.clear();
        self.limit = self.cap;
    }

    /// Allocation capacity in accesses.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Accesses currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the chunk holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The current soft fill limit.
    #[inline]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Caps filling at `limit` accesses total (clamped to the capacity,
    /// never below the current length).
    #[inline]
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit.clamp(self.words.len(), self.cap);
    }

    /// How many more accesses fit before the limit.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.limit - self.words.len()
    }

    /// Whether the fill limit has been reached.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.words.len() >= self.limit
    }

    /// Appends one access.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the chunk is full or the address does not
    /// fit in 48 bits.
    #[inline]
    pub fn push(&mut self, a: Access) {
        debug_assert!(!self.is_full(), "chunk overfilled");
        debug_assert!(a.vaddr.0 <= CHUNK_ADDR_MASK, "vaddr overflows 48 bits");
        let mut w = a.vaddr.0;
        if a.is_write {
            w |= CHUNK_WRITE_BIT;
        }
        if a.op_end {
            w |= CHUNK_OP_END_BIT;
        }
        self.words.push(w);
    }

    /// The packed words stored so far.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Decodes the access at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Access {
        decode(self.words[i])
    }

    /// Iterates over the stored accesses in order.
    pub fn iter(&self) -> impl Iterator<Item = Access> + '_ {
        self.words.iter().map(|&w| decode(w))
    }

    /// Appends packed words from `words` until the fill limit, returning
    /// how many were appended. This is the bulk path for streams that
    /// store accesses in a compact form of their own and widen them into
    /// this layout in one pass.
    #[inline]
    pub fn extend_words(&mut self, words: impl IntoIterator<Item = u64>) -> usize {
        let before = self.words.len();
        self.words.extend(words.into_iter().take(self.remaining()));
        self.words.len() - before
    }
}

/// Decodes one packed access word.
#[inline]
pub fn decode(w: u64) -> Access {
    Access {
        vaddr: VirtAddr(w & CHUNK_ADDR_MASK),
        is_write: w & CHUNK_WRITE_BIT != 0,
        op_end: w & CHUNK_OP_END_BIT != 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AccessStream;

    #[test]
    fn push_get_roundtrip_preserves_flags() {
        let mut c = AccessChunk::with_capacity(4);
        c.push(Access::read(VirtAddr(0x1000)));
        c.push(Access::write(VirtAddr(0x2040)));
        c.push(Access::read(VirtAddr(0x3080)).end_op());
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Access::read(VirtAddr(0x1000)));
        assert_eq!(c.get(1), Access::write(VirtAddr(0x2040)));
        assert_eq!(c.get(2), Access::read(VirtAddr(0x3080)).end_op());
        let all: Vec<Access> = c.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1], c.get(1));
    }

    #[test]
    fn limit_caps_fill_and_clear_restores() {
        let mut c = AccessChunk::with_capacity(8);
        c.set_limit(2);
        assert_eq!(c.remaining(), 2);
        c.push(Access::read(VirtAddr(0)));
        c.push(Access::read(VirtAddr(64)));
        assert!(c.is_full());
        assert_eq!(c.capacity(), 8);
        c.clear();
        assert_eq!(c.limit(), 8);
        assert!(c.is_empty());
        // The limit never drops below the current length.
        c.push(Access::read(VirtAddr(0)));
        c.push(Access::read(VirtAddr(64)));
        c.set_limit(1);
        assert_eq!(c.limit(), 2);
    }

    #[test]
    fn extend_words_stops_at_the_limit() {
        let packed = [
            (1 << 20) + 64,
            ((1 << 20) + 4096) | CHUNK_WRITE_BIT,
            8192 | CHUNK_OP_END_BIT,
        ];
        let mut c = AccessChunk::with_capacity(4);
        c.set_limit(2);
        assert_eq!(c.extend_words(packed), 2, "fill stops at the limit");
        assert_eq!(c.get(0), Access::read(VirtAddr((1 << 20) + 64)));
        assert_eq!(c.get(1), Access::write(VirtAddr((1 << 20) + 4096)));
        assert_eq!(c.extend_words(packed), 0, "a full chunk takes nothing");
    }

    #[test]
    fn default_fill_chunk_matches_next_access() {
        struct Counting(u64);
        impl AccessStream for Counting {
            fn next_access(&mut self) -> Option<Access> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(Access::read(VirtAddr(self.0 * 64)))
            }
        }
        let mut s = Counting(10);
        let mut c = AccessChunk::with_capacity(4);
        assert_eq!(s.fill_chunk(&mut c), 4);
        assert_eq!(c.get(0), Access::read(VirtAddr(9 * 64)));
        c.clear();
        assert_eq!(s.fill_chunk(&mut c), 4);
        c.clear();
        assert_eq!(s.fill_chunk(&mut c), 2, "stream drains to its end");
        c.clear();
        assert_eq!(s.fill_chunk(&mut c), 0);
    }
}
