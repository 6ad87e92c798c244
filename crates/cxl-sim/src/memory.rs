//! Physical memory: the two NUMA nodes (DDR and CXL DRAM) and their frame
//! allocators.
//!
//! DDR frames live at the bottom of the 48-bit physical address space and
//! CXL frames start at [`CXL_BASE_PFN`], so a [`Pfn`] alone identifies its
//! node — mirroring a real system where the CXL memory window is a distinct
//! physical range exposed as a remote NUMA node.

use crate::addr::Pfn;
use crate::time::Nanos;
use std::fmt;

/// First PFN of the CXL DRAM node (PA `1 << 46`, inside the 48-bit space).
pub const CXL_BASE_PFN: u64 = 1 << 34;

/// Identifier of a memory node in the tiered system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// The fast tier: locally attached DDR DRAM.
    Ddr,
    /// The slow tier: CXL-attached DRAM (~170 ns extra load latency).
    Cxl,
}

impl NodeId {
    /// Alias for [`NodeId::Ddr`], matching the paper's `bw(DDR)` notation.
    pub const DDR: NodeId = NodeId::Ddr;
    /// Alias for [`NodeId::Cxl`], matching the paper's `bw(CXL)` notation.
    pub const CXL: NodeId = NodeId::Cxl;

    /// Both nodes, fast tier first.
    pub const ALL: [NodeId; 2] = [NodeId::Ddr, NodeId::Cxl];

    /// The node's stable lowercase name (also used as a telemetry label).
    pub const fn label(self) -> &'static str {
        match self {
            NodeId::Ddr => "ddr",
            NodeId::Cxl => "cxl",
        }
    }

    /// The other node of the pair.
    pub fn other(self) -> NodeId {
        match self {
            NodeId::Ddr => NodeId::Cxl,
            NodeId::Cxl => NodeId::Ddr,
        }
    }

    /// The node that owns `pfn`, based on the physical layout.
    pub fn of_pfn(pfn: Pfn) -> NodeId {
        if pfn.0 >= CXL_BASE_PFN {
            NodeId::Cxl
        } else {
            NodeId::Ddr
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Ddr => f.write_str("DDR"),
            NodeId::Cxl => f.write_str("CXL"),
        }
    }
}

/// Static properties of one memory node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// Capacity in 4 KiB frames.
    pub capacity_frames: u64,
    /// Loaded read latency of one 64 B access from this node.
    pub access_latency: Nanos,
}

/// Error returned when a node has no free frames left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfFrames {
    /// The node that was full.
    pub node: NodeId,
}

impl fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory node {} has no free frames", self.node)
    }
}

impl std::error::Error for OutOfFrames {}

/// One memory node: a frame allocator plus its latency parameters.
#[derive(Clone, Debug)]
pub struct MemoryNode {
    id: NodeId,
    base_pfn: u64,
    config: NodeConfig,
    /// Stack of free frame indices (relative to `base_pfn`).
    free: Vec<u64>,
    /// Frame indices pulled out of circulation after a fault mid-copy;
    /// they return to `free` only via [`MemoryNode::scrub`].
    quarantined: Vec<u64>,
    /// Frame indices the RAS layer retired permanently (correctable-error
    /// trending crossed the offline threshold). Unlike quarantine, there is
    /// no way back: scrubbing never touches this set.
    offlined: Vec<u64>,
}

impl MemoryNode {
    /// Creates a node with all frames free.
    pub fn new(id: NodeId, config: NodeConfig) -> MemoryNode {
        let base_pfn = match id {
            NodeId::Ddr => 0,
            NodeId::Cxl => CXL_BASE_PFN,
        };
        // Pop order: lowest frame index first.
        let free = (0..config.capacity_frames).rev().collect();
        MemoryNode {
            id,
            base_pfn,
            config,
            free,
            quarantined: Vec::new(),
            offlined: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Loaded read latency of one 64 B access.
    pub fn access_latency(&self) -> Nanos {
        self.config.access_latency
    }

    /// Capacity in frames.
    pub fn capacity_frames(&self) -> u64 {
        self.config.capacity_frames
    }

    /// Number of frames currently allocated: the capacity less the free,
    /// quarantined and offlined frames.
    pub fn allocated_frames(&self) -> u64 {
        self.config.capacity_frames
            - self.free.len() as u64
            - self.quarantined.len() as u64
            - self.offlined.len() as u64
    }

    /// Number of frames currently free (quarantined and offlined frames are
    /// *not* free: capacity = free + allocated + quarantined + offlined).
    pub fn free_frames(&self) -> u64 {
        self.free.len() as u64
    }

    /// Number of frames currently quarantined.
    pub fn quarantined_frames(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Number of frames permanently retired by the RAS layer.
    pub fn offlined_frames(&self) -> u64 {
        self.offlined.len() as u64
    }

    /// The free frames, as absolute PFNs (invariant-checker support).
    pub fn free_pfns(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.free.iter().map(move |&idx| Pfn(self.base_pfn + idx))
    }

    /// The quarantined frames, as absolute PFNs.
    pub fn quarantined_pfns(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.quarantined
            .iter()
            .map(move |&idx| Pfn(self.base_pfn + idx))
    }

    /// The permanently offlined frames, as absolute PFNs.
    pub fn offlined_pfns(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.offlined
            .iter()
            .map(move |&idx| Pfn(self.base_pfn + idx))
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] if the node is full.
    pub fn alloc(&mut self) -> Result<Pfn, OutOfFrames> {
        match self.free.pop() {
            Some(idx) => Ok(Pfn(self.base_pfn + idx)),
            None => Err(OutOfFrames { node: self.id }),
        }
    }

    /// Frees a previously allocated frame.
    ///
    /// # Panics
    ///
    /// Freeing a frame that is not an allocated frame of this node (wrong
    /// node, out of range, quarantined or offlined) is a simulator bug,
    /// not a recoverable runtime condition, and panics in every build:
    /// pushing the index would later hand out a frame that does not exist
    /// or is already handed out.
    pub fn free(&mut self, pfn: Pfn) {
        assert_eq!(
            NodeId::of_pfn(pfn),
            self.id,
            "freeing {pfn:?} on wrong node"
        );
        let idx = pfn.0.wrapping_sub(self.base_pfn);
        assert!(idx < self.config.capacity_frames, "{pfn:?} out of range");
        // A frame in quarantine (or retired by RAS) is not allocated: a
        // stale free of it must not push a second copy of the index onto
        // the free stack — that would double-hand-out the frame.
        assert!(
            !self.quarantined.contains(&idx),
            "freeing quarantined {pfn:?}"
        );
        assert!(!self.offlined.contains(&idx), "freeing offlined {pfn:?}");
        self.free.push(idx);
    }

    /// Moves an *allocated* frame into quarantine instead of freeing it:
    /// the copy engine faulted on it and its contents are suspect, so it
    /// must not be handed out again until a scrub pass clears it.
    ///
    /// # Panics
    ///
    /// Same bogus-input policy as [`MemoryNode::free`]: a wrong-node,
    /// out-of-range, already quarantined or offlined frame panics.
    pub fn quarantine(&mut self, pfn: Pfn) {
        assert_eq!(
            NodeId::of_pfn(pfn),
            self.id,
            "quarantining {pfn:?} on wrong node"
        );
        let idx = pfn.0.wrapping_sub(self.base_pfn);
        assert!(idx < self.config.capacity_frames, "{pfn:?} out of range");
        // Same double-accounting hazard as `free`: a frame already in
        // quarantine or retired is not allocated, so re-quarantining it
        // would duplicate the index.
        assert!(!self.quarantined.contains(&idx), "re-quarantining {pfn:?}");
        assert!(
            !self.offlined.contains(&idx),
            "quarantining offlined {pfn:?}"
        );
        self.quarantined.push(idx);
    }

    /// Scrubs up to `max` quarantined frames, returning them to the free
    /// list. Returns how many frames were scrubbed. Oldest quarantined
    /// frames are scrubbed first. Frames the RAS layer offlined are a
    /// disjoint set and are never resurrected by scrubbing.
    pub fn scrub(&mut self, max: u64) -> u64 {
        let n = (max as usize).min(self.quarantined.len());
        for idx in self.quarantined.drain(..n) {
            self.free.push(idx);
        }
        n as u64
    }

    /// Serializes the allocator state (free stack, quarantine FIFO,
    /// offlined set) for a checkpoint. Stack/queue order is preserved
    /// exactly — frame hand-out order is behavior-bearing. The allocated
    /// count is not written: it is what the three lists leave of the
    /// capacity.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.free);
        w.put_u64_slice(&self.quarantined);
        w.put_u64_slice(&self.offlined);
    }

    /// Rebuilds a node from a checkpoint section, given its static identity
    /// and configuration (which are not serialized — the restoring process
    /// supplies the same `SystemConfig`).
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, and
    /// rejects with [`CodecError::BadValue`] lists the allocator cannot
    /// build: a frame index past the node's capacity, or one listed twice
    /// in one list or in two lists. Lists that pass leave a non-negative
    /// allocated count, so free + quarantined + offlined + allocated is the
    /// capacity.
    ///
    /// [`CodecError::BadValue`]: crate::checkpoint::CodecError::BadValue
    pub fn restore(
        id: NodeId,
        config: NodeConfig,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<MemoryNode, crate::checkpoint::CodecError> {
        let base_pfn = match id {
            NodeId::Ddr => 0,
            NodeId::Cxl => CXL_BASE_PFN,
        };
        let node = MemoryNode {
            id,
            base_pfn,
            free: r.get_u64_vec()?,
            quarantined: r.get_u64_vec()?,
            offlined: r.get_u64_vec()?,
            config,
        };
        let mut listed = vec![false; node.config.capacity_frames as usize];
        for &idx in node
            .free
            .iter()
            .chain(&node.quarantined)
            .chain(&node.offlined)
        {
            match listed.get_mut(idx as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => {
                    return Err(crate::checkpoint::CodecError::BadValue {
                        what: "memory frame index out of node or listed twice",
                        value: idx,
                    })
                }
            }
        }
        Ok(node)
    }

    /// Permanently retires a frame that is currently *free* or
    /// *quarantined*: it leaves circulation for good (no scrub brings it
    /// back). Returns `false` — and does nothing — if the frame is
    /// allocated or in flight; the caller must migrate its page off first
    /// and retry once the frame has been freed.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is not a frame of this node.
    pub fn offline_frame(&mut self, pfn: Pfn) -> bool {
        assert_eq!(
            NodeId::of_pfn(pfn),
            self.id,
            "offlining {pfn:?} on wrong node"
        );
        let idx = pfn.0.wrapping_sub(self.base_pfn);
        assert!(idx < self.config.capacity_frames, "{pfn:?} out of range");
        if self.offlined.contains(&idx) {
            return true;
        }
        if let Some(pos) = self.free.iter().position(|&i| i == idx) {
            self.free.swap_remove(pos);
            self.offlined.push(idx);
            return true;
        }
        if let Some(pos) = self.quarantined.iter().position(|&i| i == idx) {
            self.quarantined.swap_remove(pos);
            self.offlined.push(idx);
            return true;
        }
        false
    }
}

/// The two-tier physical memory.
#[derive(Clone, Debug)]
pub struct TieredMemory {
    ddr: MemoryNode,
    cxl: MemoryNode,
}

impl TieredMemory {
    /// Builds the tiered memory from per-node configurations.
    pub fn new(ddr: NodeConfig, cxl: NodeConfig) -> TieredMemory {
        TieredMemory {
            ddr: MemoryNode::new(NodeId::Ddr, ddr),
            cxl: MemoryNode::new(NodeId::Cxl, cxl),
        }
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> &MemoryNode {
        match id {
            NodeId::Ddr => &self.ddr,
            NodeId::Cxl => &self.cxl,
        }
    }

    /// Mutably borrows a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut MemoryNode {
        match id {
            NodeId::Ddr => &mut self.ddr,
            NodeId::Cxl => &mut self.cxl,
        }
    }

    /// Allocates a frame on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] if that node is full.
    pub fn alloc_on(&mut self, node: NodeId) -> Result<Pfn, OutOfFrames> {
        self.node_mut(node).alloc()
    }

    /// Frees `pfn` on whichever node owns it.
    pub fn free(&mut self, pfn: Pfn) {
        self.node_mut(NodeId::of_pfn(pfn)).free(pfn);
    }

    /// Quarantines `pfn` on whichever node owns it.
    pub fn quarantine(&mut self, pfn: Pfn) {
        self.node_mut(NodeId::of_pfn(pfn)).quarantine(pfn);
    }

    /// Serializes both nodes for a checkpoint.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        self.ddr.save(w);
        self.cxl.save(w);
    }

    /// Rebuilds the tiered memory from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload.
    pub fn restore(
        ddr: NodeConfig,
        cxl: NodeConfig,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<TieredMemory, crate::checkpoint::CodecError> {
        Ok(TieredMemory {
            ddr: MemoryNode::restore(NodeId::Ddr, ddr, r)?,
            cxl: MemoryNode::restore(NodeId::Cxl, cxl, r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(frames: u64, lat: u64) -> NodeConfig {
        NodeConfig {
            capacity_frames: frames,
            access_latency: Nanos(lat),
        }
    }

    #[test]
    fn pfn_node_partition() {
        assert_eq!(NodeId::of_pfn(Pfn(0)), NodeId::Ddr);
        assert_eq!(NodeId::of_pfn(Pfn(CXL_BASE_PFN - 1)), NodeId::Ddr);
        assert_eq!(NodeId::of_pfn(Pfn(CXL_BASE_PFN)), NodeId::Cxl);
        assert_eq!(NodeId::Ddr.other(), NodeId::Cxl);
        assert_eq!(NodeId::Cxl.other(), NodeId::Ddr);
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut node = MemoryNode::new(NodeId::Cxl, cfg(2, 270));
        let a = node.alloc().unwrap();
        let b = node.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(NodeId::of_pfn(a), NodeId::Cxl);
        assert!(node.alloc().is_err());
        node.free(a);
        assert_eq!(node.free_frames(), 1);
        let c = node.alloc().unwrap();
        assert_eq!(c, a, "freed frame is reused");
    }

    #[test]
    fn out_of_frames_error_is_reportable() {
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(0, 100));
        let err = node.alloc().unwrap_err();
        assert_eq!(err.node, NodeId::Ddr);
        assert!(err.to_string().contains("DDR"));
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn freeing_on_wrong_node_panics() {
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(4, 100));
        node.free(Pfn(CXL_BASE_PFN));
    }

    #[test]
    fn tiered_latency_depends_on_node() {
        let mut mem = TieredMemory::new(cfg(4, 100), cfg(4, 270));
        let d = mem.alloc_on(NodeId::Ddr).unwrap();
        let c = mem.alloc_on(NodeId::Cxl).unwrap();
        assert_eq!(mem.node(NodeId::of_pfn(d)).access_latency(), Nanos(100));
        assert_eq!(mem.node(NodeId::of_pfn(c)).access_latency(), Nanos(270));
        mem.free(d);
        mem.free(c);
        assert_eq!(mem.node(NodeId::Ddr).allocated_frames(), 0);
        assert_eq!(mem.node(NodeId::Cxl).allocated_frames(), 0);
    }

    #[test]
    fn quarantined_frames_leave_circulation_until_scrubbed() {
        let mut node = MemoryNode::new(NodeId::Cxl, cfg(2, 270));
        let a = node.alloc().unwrap();
        let _b = node.alloc().unwrap();
        node.quarantine(a);
        assert_eq!(node.quarantined_frames(), 1);
        assert_eq!(node.allocated_frames(), 1);
        assert_eq!(node.free_frames(), 0);
        assert!(
            node.alloc().is_err(),
            "quarantined frame must not be handed out"
        );
        assert_eq!(node.quarantined_pfns().collect::<Vec<_>>(), vec![a]);
        assert_eq!(node.scrub(8), 1);
        assert_eq!(node.quarantined_frames(), 0);
        assert_eq!(node.free_frames(), 1);
        assert_eq!(node.alloc().unwrap(), a, "scrubbed frame is reusable");
    }

    #[test]
    fn scrub_is_bounded_and_oldest_first() {
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(4, 100));
        let a = node.alloc().unwrap();
        let b = node.alloc().unwrap();
        let c = node.alloc().unwrap();
        node.quarantine(a);
        node.quarantine(b);
        node.quarantine(c);
        assert_eq!(node.scrub(2), 2);
        assert_eq!(node.quarantined_pfns().collect::<Vec<_>>(), vec![c]);
        assert_eq!(node.scrub(2), 1);
        assert_eq!(node.scrub(2), 0);
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn quarantining_on_wrong_node_panics() {
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(4, 100));
        node.quarantine(Pfn(CXL_BASE_PFN));
    }

    #[test]
    fn allocation_order_is_dense_from_zero() {
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(3, 100));
        assert_eq!(node.alloc().unwrap(), Pfn(0));
        assert_eq!(node.alloc().unwrap(), Pfn(1));
        assert_eq!(node.alloc().unwrap(), Pfn(2));
    }

    #[test]
    #[should_panic(expected = "freeing quarantined")]
    fn freeing_a_quarantined_frame_is_rejected() {
        // Regression: a stale free of a quarantined frame used to push the
        // index straight back onto the free stack, handing the suspect
        // frame out again and corrupting the allocated count.
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(4, 100));
        let a = node.alloc().unwrap();
        node.quarantine(a);
        node.free(a);
    }

    #[test]
    #[should_panic(expected = "re-quarantining")]
    fn double_quarantine_is_rejected() {
        let mut node = MemoryNode::new(NodeId::Ddr, cfg(4, 100));
        let a = node.alloc().unwrap();
        node.quarantine(a);
        node.quarantine(a);
    }

    #[test]
    fn offlined_frames_leave_circulation_permanently() {
        let mut node = MemoryNode::new(NodeId::Cxl, cfg(2, 270));
        let a = node.alloc().unwrap();
        node.free(a);
        assert!(node.offline_frame(a), "free frame can be retired");
        assert_eq!(node.offlined_frames(), 1);
        assert_eq!(node.free_frames(), 1);
        // Regression: scrubbing must never resurrect a RAS-offlined frame.
        assert_eq!(node.scrub(u64::MAX), 0);
        assert_eq!(node.offlined_frames(), 1);
        let b = node.alloc().unwrap();
        assert_ne!(b, a, "offlined frame is never handed out again");
        assert!(node.alloc().is_err(), "only the surviving frame remains");
        assert_eq!(node.offlined_pfns().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn offlining_a_quarantined_frame_skips_scrub_forever() {
        let mut node = MemoryNode::new(NodeId::Cxl, cfg(2, 270));
        let a = node.alloc().unwrap();
        node.quarantine(a);
        assert!(node.offline_frame(a), "quarantined frame can be retired");
        assert_eq!(node.quarantined_frames(), 0);
        assert_eq!(node.scrub(u64::MAX), 0, "nothing left to scrub");
        assert_eq!(node.offlined_frames(), 1);
    }

    #[test]
    fn offlining_an_allocated_frame_is_refused() {
        let mut node = MemoryNode::new(NodeId::Cxl, cfg(2, 270));
        let a = node.alloc().unwrap();
        assert!(
            !node.offline_frame(a),
            "in-use frame must be migrated off first"
        );
        assert_eq!(node.offlined_frames(), 0);
        node.free(a);
        assert!(node.offline_frame(a));
        assert!(node.offline_frame(a), "idempotent once retired");
        assert_eq!(node.offlined_frames(), 1);
    }
}
