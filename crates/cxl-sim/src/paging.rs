//! Page tables: virtual-to-physical mappings with x86-style PTE flags.
//!
//! The flag semantics matter for fidelity:
//!
//! * **present** — cleared by ANB's hinting-fault sampling; an access to a
//!   non-present page takes a soft page fault.
//! * **accessed** — set by the hardware page walker *only on a TLB miss*;
//!   DAMON samples and clears it. This is why PTE scanning undercounts hot
//!   pages whose translations stay TLB-resident (§2.1, Solution 2).
//! * **dirty** — set on write; a dirty page costs a writeback when migrated.
//! * **pinned** — pages pinned for DMA etc.; the Promoter must refuse to
//!   migrate them (§5.2).
//! * **cxl-bound** — the user explicitly requested CXL placement; the
//!   Promoter must refuse promotion (§5.2).

use crate::addr::{Pfn, Vpn};
use crate::memory::{NodeId, CXL_BASE_PFN};
use std::fmt;

/// PTE flag bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PteFlags(u8);

impl PteFlags {
    const PRESENT: u8 = 1 << 0;
    const ACCESSED: u8 = 1 << 1;
    const DIRTY: u8 = 1 << 2;
    const PINNED: u8 = 1 << 3;
    const CXL_BOUND: u8 = 1 << 4;

    /// A freshly mapped page: present, not accessed, clean.
    pub fn new_mapped() -> PteFlags {
        PteFlags(Self::PRESENT)
    }

    /// Whether the present bit is set.
    pub fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }
    /// Whether the accessed bit is set.
    pub fn accessed(self) -> bool {
        self.0 & Self::ACCESSED != 0
    }
    /// Whether the dirty bit is set.
    pub fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }
    /// Whether the page is pinned (not migratable).
    pub fn pinned(self) -> bool {
        self.0 & Self::PINNED != 0
    }
    /// Whether the user bound this page to the CXL node.
    pub fn cxl_bound(self) -> bool {
        self.0 & Self::CXL_BOUND != 0
    }

    /// A copy with the present bit set.
    pub fn with_present(self) -> PteFlags {
        PteFlags(self.0 | Self::PRESENT)
    }
    /// A copy with the accessed bit set.
    pub fn with_accessed(self) -> PteFlags {
        PteFlags(self.0 | Self::ACCESSED)
    }
    /// A copy with the dirty bit set.
    pub fn with_dirty(self) -> PteFlags {
        PteFlags(self.0 | Self::DIRTY)
    }

    /// The raw flag byte, for checkpoint serialization.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds flags from a checkpointed byte.
    pub fn from_bits(bits: u8) -> PteFlags {
        PteFlags(bits)
    }

    fn set(&mut self, bit: u8, v: bool) {
        if v {
            self.0 |= bit;
        } else {
            self.0 &= !bit;
        }
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PteFlags({}{}{}{}{})",
            if self.present() { 'P' } else { '-' },
            if self.accessed() { 'A' } else { '-' },
            if self.dirty() { 'D' } else { '-' },
            if self.pinned() { 'N' } else { '-' },
            if self.cxl_bound() { 'X' } else { '-' },
        )
    }
}

/// One page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical frame.
    pub pfn: Pfn,
    /// Flag bits.
    pub flags: PteFlags,
}

impl Pte {
    /// The node that currently backs this page.
    pub fn node(&self) -> NodeId {
        NodeId::of_pfn(self.pfn)
    }

    /// The unmapped-slot sentinel (see [`NO_PFN`]).
    const UNMAPPED: Pte = Pte {
        pfn: Pfn(NO_PFN),
        flags: PteFlags(0),
    };

    #[inline]
    fn is_mapped(&self) -> bool {
        self.pfn.0 != NO_PFN
    }
}

/// Sentinel for "frame backs no page" in [`FrameMap`] (a VPN never reaches
/// 2^64 − 1: virtual addresses top out `PAGE_SHIFT` bits earlier).
const NO_VPN: u64 = u64::MAX;

/// Unmapped-slot sentinel PFN: `Option<Pte>` has no niche (all flag-byte
/// values are inhabited), so storing options would pad every slot to
/// 24 bytes. A sentinel keeps the table at 16 bytes/entry — a third less
/// random-lookup footprint on the access hot path.
const NO_PFN: u64 = u64::MAX;

/// The kernel's rmap as two direct-indexed arrays, one per memory node.
///
/// Both allocators hand out frames densely — DDR from PFN 0 upward, CXL
/// from [`CXL_BASE_PFN`] upward — so `pfn - node_base` is a small dense
/// index and the reverse lookup is a single array read instead of a
/// `HashMap` probe on the migration/tracker path.
#[derive(Clone, Debug, Default)]
struct FrameMap {
    ddr: Vec<u64>,
    cxl: Vec<u64>,
}

impl FrameMap {
    /// The per-node array and dense index for `pfn`.
    #[inline]
    fn slot(&self, pfn: Pfn) -> (&Vec<u64>, usize) {
        match NodeId::of_pfn(pfn) {
            NodeId::Ddr => (&self.ddr, pfn.0 as usize),
            NodeId::Cxl => (&self.cxl, (pfn.0 - CXL_BASE_PFN) as usize),
        }
    }

    #[inline]
    fn slot_mut(&mut self, pfn: Pfn) -> (&mut Vec<u64>, usize) {
        match NodeId::of_pfn(pfn) {
            NodeId::Ddr => (&mut self.ddr, pfn.0 as usize),
            NodeId::Cxl => (&mut self.cxl, (pfn.0 - CXL_BASE_PFN) as usize),
        }
    }

    #[inline]
    fn insert(&mut self, pfn: Pfn, vpn: Vpn) {
        let (arr, i) = self.slot_mut(pfn);
        if i >= arr.len() {
            arr.resize(i + 1, NO_VPN);
        }
        arr[i] = vpn.0;
    }

    #[inline]
    fn remove(&mut self, pfn: Pfn) {
        let (arr, i) = self.slot_mut(pfn);
        if let Some(slot) = arr.get_mut(i) {
            *slot = NO_VPN;
        }
    }

    #[inline]
    fn get(&self, pfn: Pfn) -> Option<Vpn> {
        let (arr, i) = self.slot(pfn);
        match arr.get(i) {
            Some(&v) if v != NO_VPN => Some(Vpn(v)),
            _ => None,
        }
    }
}

/// A flat page table covering a dense virtual address range starting at VPN 0.
///
/// Workload regions are handed out sequentially, so a `Vec` keeps lookups at
/// array-index cost even for multi-hundred-thousand-page footprints.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    entries: Vec<Pte>,
    /// Reverse map (the kernel's rmap): which VPN a frame currently backs.
    /// Needed by components that identify pages physically — the CXL-side
    /// trackers report PFNs, and the Promoter must find the mapping to
    /// migrate.
    rmap: FrameMap,
    mapped: u64,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Highest VPN ever mapped, plus one (the table's extent).
    pub fn extent(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Maps `vpn` to `pfn` with fresh flags.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is already mapped: double-mapping is a simulator
    /// bug, not a recoverable runtime condition.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn) {
        let idx = vpn.0 as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, Pte::UNMAPPED);
        }
        assert!(!self.entries[idx].is_mapped(), "{vpn:?} already mapped");
        self.entries[idx] = Pte {
            pfn,
            flags: PteFlags::new_mapped(),
        };
        self.rmap.insert(pfn, vpn);
        self.mapped += 1;
    }

    /// Removes the mapping for `vpn`, returning the old entry.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let slot = self.entries.get_mut(vpn.0 as usize)?;
        if !slot.is_mapped() {
            return None;
        }
        let pte = std::mem::replace(slot, Pte::UNMAPPED);
        self.rmap.remove(pte.pfn);
        self.mapped -= 1;
        Some(pte)
    }

    /// The VPN currently mapped to `pfn` (reverse lookup), if any.
    #[inline]
    pub fn vpn_of(&self, pfn: Pfn) -> Option<Vpn> {
        self.rmap.get(pfn)
    }

    /// Looks up the entry for `vpn`.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<&Pte> {
        self.entries.get(vpn.0 as usize).filter(|p| p.is_mapped())
    }

    /// Mutably looks up the entry for `vpn`.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.entries
            .get_mut(vpn.0 as usize)
            .filter(|p| p.is_mapped())
    }

    /// Repoints `vpn` at a new frame (used by migration). Flags other than
    /// dirty are preserved; the dirty bit is cleared because the copy wrote
    /// the destination frame back to a clean state.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not mapped.
    pub fn remap(&mut self, vpn: Vpn, new_pfn: Pfn) -> Pfn {
        let pte = self.get_mut(vpn).expect("remap of unmapped page");
        let old = pte.pfn;
        pte.pfn = new_pfn;
        pte.flags.set(PteFlags::DIRTY, false);
        self.rmap.remove(old);
        self.rmap.insert(new_pfn, vpn);
        old
    }

    /// Clears the present bit (ANB's unmap-for-hinting). Returns `true` if
    /// the page was mapped and present.
    pub fn clear_present(&mut self, vpn: Vpn) -> bool {
        match self.get_mut(vpn) {
            Some(pte) if pte.flags.present() => {
                pte.flags.set(PteFlags::PRESENT, false);
                true
            }
            _ => false,
        }
    }

    /// Sets the accessed bit (hardware page walk on TLB miss).
    pub fn set_accessed(&mut self, vpn: Vpn) {
        if let Some(pte) = self.get_mut(vpn) {
            pte.flags.set(PteFlags::ACCESSED, true);
        }
    }

    /// Reads and clears the accessed bit, returning the old value (DAMON's
    /// per-epoch sample).
    pub fn test_and_clear_accessed(&mut self, vpn: Vpn) -> bool {
        match self.get_mut(vpn) {
            Some(pte) => {
                let was = pte.flags.accessed();
                pte.flags.set(PteFlags::ACCESSED, false);
                was
            }
            None => false,
        }
    }

    /// Overwrites the flag byte for `vpn` in one lookup. The access hot
    /// path reads the PTE once, accumulates its present/accessed/dirty
    /// updates locally, and stores them here only when something actually
    /// changed — the table is large enough that every lookup is a likely
    /// cache miss, and in steady state most flag updates are redundant.
    #[inline]
    pub fn store_flags(&mut self, vpn: Vpn, flags: PteFlags) {
        if let Some(pte) = self.get_mut(vpn) {
            pte.flags = flags;
        }
    }

    /// Marks `vpn` pinned or unpinned.
    pub fn set_pinned(&mut self, vpn: Vpn, pinned: bool) {
        if let Some(pte) = self.get_mut(vpn) {
            pte.flags.set(PteFlags::PINNED, pinned);
        }
    }

    /// Marks `vpn` as explicitly bound to the CXL node (or not).
    pub fn set_cxl_bound(&mut self, vpn: Vpn, bound: bool) {
        if let Some(pte) = self.get_mut(vpn) {
            pte.flags.set(PteFlags::CXL_BOUND, bound);
        }
    }

    /// Serializes the table (every slot, including unmapped sentinels —
    /// the table's extent is behavior-bearing) for a checkpoint. The rmap
    /// and mapped count are derived state and are rebuilt on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64(self.entries.len() as u64);
        for pte in &self.entries {
            w.put_u64(pte.pfn.0);
            w.put_u8(pte.flags.bits());
        }
    }

    /// Rebuilds a table from a checkpoint section, for a machine with
    /// `ddr_frames` DDR and `cxl_frames` CXL frames.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, and
    /// returns [`CodecError::BadValue`](crate::checkpoint::CodecError::BadValue)
    /// for a PTE whose frame lies outside both nodes or backs an earlier PTE.
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
        ddr_frames: u64,
        cxl_frames: u64,
    ) -> Result<PageTable, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let n = r.get_u64()? as usize;
        let mut pt = PageTable::new();
        pt.entries.reserve(n.min(1 << 24));
        for _ in 0..n {
            let pfn = Pfn(r.get_u64()?);
            let flags = PteFlags::from_bits(r.get_u8()?);
            pt.entries.push(Pte { pfn, flags });
        }
        for (i, pte) in pt.entries.iter().enumerate() {
            if !pte.is_mapped() {
                continue;
            }
            let in_node = match NodeId::of_pfn(pte.pfn) {
                NodeId::Ddr => pte.pfn.0 < ddr_frames,
                NodeId::Cxl => pte.pfn.0 - CXL_BASE_PFN < cxl_frames,
            };
            if !in_node || pt.rmap.get(pte.pfn).is_some() {
                return Err(CodecError::BadValue {
                    what: if in_node {
                        "PTE frame mapped twice"
                    } else {
                        "PTE frame outside both nodes"
                    },
                    value: pte.pfn.0,
                });
            }
            pt.rmap.insert(pte.pfn, Vpn(i as u64));
            pt.mapped += 1;
        }
        Ok(pt)
    }

    /// Iterates over all mapped pages.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Vpn, &Pte)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_mapped())
            .map(|(i, e)| (Vpn(i as u64), e))
    }

    /// Iterates over mapped pages currently resident on `node`.
    pub fn pages_on(&self, node: NodeId) -> impl Iterator<Item = (Vpn, &Pte)> + '_ {
        self.iter_mapped()
            .filter(move |(_, pte)| pte.node() == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::CXL_BASE_PFN;

    #[test]
    fn map_get_unmap() {
        let mut pt = PageTable::new();
        pt.map(Vpn(3), Pfn(7));
        assert_eq!(pt.mapped_pages(), 1);
        let pte = pt.get(Vpn(3)).unwrap();
        assert_eq!(pte.pfn, Pfn(7));
        assert!(pte.flags.present());
        assert!(!pte.flags.accessed());
        assert!(pt.get(Vpn(2)).is_none());
        let old = pt.unmap(Vpn(3)).unwrap();
        assert_eq!(old.pfn, Pfn(7));
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(Vpn(0), Pfn(0));
        pt.map(Vpn(0), Pfn(1));
    }

    #[test]
    fn present_bit_cycle_models_anb_hinting() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(9));
        assert!(pt.clear_present(Vpn(1)));
        assert!(!pt.get(Vpn(1)).unwrap().flags.present());
        // Clearing again reports false: the page is already unmapped.
        assert!(!pt.clear_present(Vpn(1)));
    }

    #[test]
    fn accessed_bit_test_and_clear_models_damon() {
        let mut pt = PageTable::new();
        pt.map(Vpn(5), Pfn(2));
        assert!(!pt.test_and_clear_accessed(Vpn(5)));
        pt.set_accessed(Vpn(5));
        assert!(pt.test_and_clear_accessed(Vpn(5)));
        assert!(!pt.test_and_clear_accessed(Vpn(5)), "bit was cleared");
    }

    #[test]
    fn remap_clears_dirty_and_returns_old_frame() {
        let mut pt = PageTable::new();
        pt.map(Vpn(0), Pfn(CXL_BASE_PFN));
        pt.get_mut(Vpn(0)).unwrap().flags.set(PteFlags::DIRTY, true);
        pt.set_pinned(Vpn(0), true);
        let old = pt.remap(Vpn(0), Pfn(4));
        assert_eq!(old, Pfn(CXL_BASE_PFN));
        let pte = pt.get(Vpn(0)).unwrap();
        assert_eq!(pte.pfn, Pfn(4));
        assert_eq!(pte.node(), NodeId::Ddr);
        assert!(!pte.flags.dirty(), "copy leaves destination clean");
        assert!(pte.flags.pinned(), "other flags preserved");
    }

    #[test]
    fn pages_on_filters_by_node() {
        let mut pt = PageTable::new();
        pt.map(Vpn(0), Pfn(1));
        pt.map(Vpn(1), Pfn(CXL_BASE_PFN + 1));
        pt.map(Vpn(2), Pfn(2));
        let ddr: Vec<_> = pt.pages_on(NodeId::Ddr).map(|(v, _)| v).collect();
        let cxl: Vec<_> = pt.pages_on(NodeId::Cxl).map(|(v, _)| v).collect();
        assert_eq!(ddr, vec![Vpn(0), Vpn(2)]);
        assert_eq!(cxl, vec![Vpn(1)]);
    }

    #[test]
    fn reverse_map_follows_map_remap_unmap() {
        let mut pt = PageTable::new();
        pt.map(Vpn(4), Pfn(7));
        assert_eq!(pt.vpn_of(Pfn(7)), Some(Vpn(4)));
        pt.remap(Vpn(4), Pfn(9));
        assert_eq!(pt.vpn_of(Pfn(7)), None);
        assert_eq!(pt.vpn_of(Pfn(9)), Some(Vpn(4)));
        pt.unmap(Vpn(4));
        assert_eq!(pt.vpn_of(Pfn(9)), None);
    }

    #[test]
    fn flags_debug_is_informative() {
        let mut f = PteFlags::new_mapped();
        f.set(PteFlags::ACCESSED, true);
        assert_eq!(format!("{f:?}"), "PteFlags(PA---)");
    }
}
