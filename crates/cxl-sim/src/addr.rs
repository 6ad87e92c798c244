//! Address-space newtypes shared by the whole stack.
//!
//! The simulated machine follows the paper's hardware assumptions (§3): a
//! 48-bit physical address space, 4 KiB pages, and 64 B words (cache lines).
//! DRAM is therefore accessed with `PA[47:6]` and the page frame number of a
//! 4 KiB page is `PA[47:12]`.
//!
//! Every distinct interpretation of an address gets its own newtype so that
//! page numbers, word addresses, and byte addresses cannot be confused
//! (C-NEWTYPE). Conversions are explicit.

use std::fmt;

/// Size of a page in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// Size of a word (cache line) in bytes (64 B).
pub const WORD_SIZE: usize = 64;
/// Number of 64 B words in a 4 KiB page.
pub const WORDS_PER_PAGE: usize = PAGE_SIZE / WORD_SIZE;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// log2 of [`WORD_SIZE`].
pub const WORD_SHIFT: u32 = 6;

/// A byte address in a workload's virtual address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A byte address in the simulated physical address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual page number (`VirtAddr >> 12`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

/// A page frame number (`PhysAddr >> 12`), i.e. `PA[47:12]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

/// A cache-line (word) address, i.e. `PA[47:6]`. This is exactly what the
/// CXL controller's address-to-PFN converter snoops in the paper's Figure 2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheLineAddr(pub u64);

/// The index of a 64 B word within its 4 KiB page (0..=63).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordIndex(pub u8);

impl VirtAddr {
    /// The virtual page number containing this address.
    #[inline]
    pub fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// The word index of this address within its page.
    #[inline]
    pub fn word_index(self) -> WordIndex {
        WordIndex(((self.0 >> WORD_SHIFT) & (WORDS_PER_PAGE as u64 - 1)) as u8)
    }

    /// Returns this address displaced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl PhysAddr {
    /// The page frame number containing this address (`PA[47:12]`).
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }

    /// The cache-line address of this address (`PA[47:6]`).
    #[inline]
    pub fn cache_line(self) -> CacheLineAddr {
        CacheLineAddr(self.0 >> WORD_SHIFT)
    }

    /// The word index of this address within its page.
    #[inline]
    pub fn word_index(self) -> WordIndex {
        WordIndex(((self.0 >> WORD_SHIFT) & (WORDS_PER_PAGE as u64 - 1)) as u8)
    }
}

impl Vpn {
    /// The base virtual address of this page.
    #[inline]
    pub fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the page `n` pages after this one.
    #[inline]
    pub fn offset(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }
}

impl Pfn {
    /// The base physical address of this frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// The physical address of word `word` within this frame.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `word` is out of range (≥ 64).
    #[inline]
    pub fn word(self, word: WordIndex) -> PhysAddr {
        debug_assert!((word.0 as usize) < WORDS_PER_PAGE);
        PhysAddr((self.0 << PAGE_SHIFT) | ((word.0 as u64) << WORD_SHIFT))
    }
}

impl CacheLineAddr {
    /// The page frame number containing this cache line. This is the
    /// right-shift-by-6 performed by PAC's address-to-PFN converter.
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> (PAGE_SHIFT - WORD_SHIFT))
    }

    /// The byte address of the first byte of this cache line.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << WORD_SHIFT)
    }

    /// The word index of this cache line within its page.
    #[inline]
    pub fn word_index(self) -> WordIndex {
        WordIndex((self.0 & (WORDS_PER_PAGE as u64 - 1)) as u8)
    }
}

/// What a near-memory device keys a snooped access by: the address
/// converter of the paper's profilers and trackers. The discriminant is the
/// right shift from a cache-line address to the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// 4 KiB pages, keyed by PFN (`PA[47:6] >> 6`).
    Page = 6,
    /// 64 B words, keyed by cache-line address (`PA[47:6]`).
    Word = 0,
}

impl Granularity {
    /// The key of `line`: its PFN or its own cache-line address.
    #[inline]
    pub fn key(self, line: CacheLineAddr) -> u64 {
        line.0 >> self as u32
    }

    /// The frame that holds key `key`.
    pub fn pfn(self, key: u64) -> Pfn {
        match self {
            Granularity::Page => Pfn(key),
            Granularity::Word => CacheLineAddr(key).pfn(),
        }
    }
}

impl From<VirtAddr> for u64 {
    fn from(a: VirtAddr) -> u64 {
        a.0
    }
}

impl From<PhysAddr> for u64 {
    fn from(a: PhysAddr) -> u64 {
        a.0
    }
}

macro_rules! impl_addr_fmt {
    ($($t:ident),*) => {$(
        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($t), "({:#x})"), self.0)
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
        impl fmt::UpperHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }
    )*};
}

impl_addr_fmt!(VirtAddr, PhysAddr, Vpn, Pfn, CacheLineAddr, WordIndex);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_decomposition() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.vpn(), Vpn(0x12345));
        assert_eq!(a.word_index(), WordIndex((0x678 >> 6) as u8));
    }

    #[test]
    fn phys_addr_decomposition() {
        let a = PhysAddr(0xdead_beef);
        assert_eq!(a.pfn(), Pfn(0xdead_beef >> 12));
        assert_eq!(a.cache_line(), CacheLineAddr(0xdead_beef >> 6));
        assert_eq!(a.word_index().0 as u64, (0xdead_beefu64 >> 6) & 63);
    }

    #[test]
    fn pfn_word_roundtrip() {
        let pfn = Pfn(42);
        for w in 0..WORDS_PER_PAGE as u8 {
            let pa = pfn.word(WordIndex(w));
            assert_eq!(pa.pfn(), pfn);
            assert_eq!(pa.word_index(), WordIndex(w));
        }
    }

    #[test]
    fn cache_line_to_pfn_is_right_shift_by_six() {
        // PAC converts PA[47:6] to a PFN by shifting right 6 bits (§3).
        let pa = PhysAddr(7 * PAGE_SIZE as u64 + 5 * WORD_SIZE as u64);
        let line = pa.cache_line();
        assert_eq!(line.pfn(), Pfn(7));
        assert_eq!(line.word_index(), WordIndex(5));
        assert_eq!(line.base(), PhysAddr(pa.0 & !(WORD_SIZE as u64 - 1)));
    }

    #[test]
    fn vpn_pfn_base_roundtrip() {
        assert_eq!(Vpn(9).base(), VirtAddr(9 * PAGE_SIZE as u64));
        assert_eq!(Pfn(9).base().pfn(), Pfn(9));
        assert_eq!(Vpn(3).offset(4), Vpn(7));
    }

    #[test]
    fn words_per_page_is_64() {
        assert_eq!(WORDS_PER_PAGE, 64);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert!(!format!("{:?}", VirtAddr(0)).is_empty());
        assert!(!format!("{:?}", Pfn(0)).is_empty());
        assert_eq!(format!("{:x}", PhysAddr(0xff)), "ff");
    }
}
