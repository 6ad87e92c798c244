//! Per-set recency words: the exact-LRU order of the [`Llc`] and [`Tlb`].
//!
//! Tags stay in fixed ways; each set's recency order is one `u64` whose
//! nibble `p` holds the way at recency position `p` (position 0 = MRU).
//! Empty ways are kept at the tail, so position `ways − 1` is always the
//! replacement victim: an empty way if the set has one, else the LRU —
//! the same choice as a recency-ordered array whose valid entries form a
//! prefix. A touch is a mask-and-shift on one word instead of moving up to
//! `ways` tags. Nibbles at positions `ways..16` stay zero.
//!
//! Checkpoints store each set in recency order instead, with `u64::MAX`
//! marking empty slots. Restore puts that array into fixed ways under
//! [`identity`] words.
//!
//! [`Llc`]: crate::cache::Llc
//! [`Tlb`]: crate::tlb::Tlb

use crate::checkpoint::{CodecError, StateReader, StateWriter};

/// Most ways one recency word can order.
pub(crate) const MAX_WAYS: usize = 16;

const NIBBLE_LOWS: u64 = 0x1111_1111_1111_1111;
const NIBBLE_HIGHS: u64 = 0x8888_8888_8888_8888;

/// The word placing way `p` at position `p` for every `p < ways`.
pub(crate) fn identity(ways: usize) -> u64 {
    assert!(
        (1..=MAX_WAYS).contains(&ways),
        "recency words order 1..=16 ways, not {ways}"
    );
    (0..ways as u64).fold(0, |word, p| word | p << (4 * p))
}

/// The way at recency position `pos`.
#[inline]
pub(crate) fn way_at(word: u64, pos: usize) -> usize {
    ((word >> (4 * pos)) & 0xF) as usize
}

/// The recency position of `way`, which must be one of the word's ways.
#[inline]
pub(crate) fn position_of(word: u64, way: usize) -> usize {
    // Zero-nibble search: a borrow can only flag nibbles *above* a true
    // zero, so the lowest flagged nibble is the match.
    let x = word ^ (way as u64).wrapping_mul(NIBBLE_LOWS);
    let zeros = x.wrapping_sub(NIBBLE_LOWS) & !x & NIBBLE_HIGHS;
    debug_assert!(zeros != 0, "way {way} missing from recency word {word:#x}");
    (zeros.trailing_zeros() / 4) as usize
}

/// Moves the way at position `pos` to the front (MRU); positions
/// `0..pos` each step back one.
#[inline]
pub(crate) fn to_front(word: u64, pos: usize) -> u64 {
    // Positions 0..=pos; the double shift keeps pos = 15 in range.
    let through = (1u64 << (4 * pos) << 4).wrapping_sub(1);
    (word & !through) | ((word << 4) & through) | ((word >> (4 * pos)) & 0xF)
}

/// Moves the way at position `pos` to the tail (position `ways − 1`);
/// positions `pos + 1..ways` each step forward one.
#[inline]
pub(crate) fn to_back(word: u64, pos: usize, ways: usize) -> u64 {
    let below = (1u64 << (4 * pos)) - 1;
    let upto = (1u64 << (4 * (ways - 1)) << 4).wrapping_sub(1);
    let way = (word >> (4 * pos)) & 0xF;
    (word & below) | ((word >> 4) & upto & !below) | way << (4 * (ways - 1))
}

/// Empty-slot sentinel of both the LLC and the TLB entry arrays.
const EMPTY: u64 = u64::MAX;

/// Writes the `entries` of every set of a cache section in recency order.
pub(crate) fn save_ordered(w: &mut StateWriter, entries: &[u64], order: &[u64], ways: usize) {
    w.put_u64(entries.len() as u64);
    for (set, &word) in order.iter().enumerate() {
        for pos in 0..ways {
            w.put_u64(entries[set * ways + way_at(word, pos)]);
        }
    }
}

/// Reads what [`save_ordered`] wrote, as fixed-way entries ordered by
/// [`identity`] words. `key_set` maps a non-empty entry to its tag and
/// set, or to `None` if no valid entry has that encoding.
///
/// # Errors
///
/// Propagates codec errors. [`CodecError::BadValue`] for an array whose
/// length is not `len`, and any set with an empty slot before a valid
/// entry, an entry `key_set` rejects or places in another set, or a
/// repeated tag.
pub(crate) fn restore_ordered(
    r: &mut StateReader<'_>,
    len: usize,
    ways: usize,
    key_set: impl Fn(u64) -> Option<(u64, usize)>,
) -> Result<Vec<u64>, CodecError> {
    let bad = |what, value| CodecError::BadValue { what, value };
    let entries = r.get_u64_vec()?;
    if entries.len() != len {
        return Err(bad("set entry count", entries.len() as u64));
    }
    let mut keys = [0u64; MAX_WAYS];
    for (set, slots) in entries.chunks_exact(ways).enumerate() {
        let valid = slots.iter().take_while(|&&e| e != EMPTY).count();
        if let Some(&e) = slots[valid..].iter().find(|&&e| e != EMPTY) {
            return Err(bad("set entry after an empty slot", e));
        }
        for (i, &e) in slots[..valid].iter().enumerate() {
            let (key, home) = key_set(e).ok_or_else(|| bad("set entry", e))?;
            if home != set {
                return Err(bad("set entry from another set", e));
            }
            if keys[..i].contains(&key) {
                return Err(bad("repeated set entry", e));
            }
            keys[i] = key;
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(word: u64, ways: usize) -> Vec<usize> {
        (0..ways).map(|p| way_at(word, p)).collect()
    }

    #[test]
    fn helpers_match_a_vec_model_for_every_associativity() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        for ways in 1..=MAX_WAYS {
            let mut word = identity(ways);
            let mut model: Vec<usize> = (0..ways).collect();
            assert_eq!(decode(word, ways), model);
            for _ in 0..4000 {
                let pos = next(ways);
                let way = model[pos];
                assert_eq!(way_at(word, pos), way);
                assert_eq!(position_of(word, way), pos, "ways {ways}");
                if next(4) == 0 {
                    word = to_back(word, pos, ways);
                    model.remove(pos);
                    model.push(way);
                } else {
                    word = to_front(word, pos);
                    model.remove(pos);
                    model.insert(0, way);
                }
                assert_eq!(decode(word, ways), model, "ways {ways}");
                if ways < MAX_WAYS {
                    assert_eq!(word >> (4 * ways), 0, "unused nibbles stay zero");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=16 ways")]
    fn more_than_sixteen_ways_is_rejected() {
        identity(17);
    }
}
