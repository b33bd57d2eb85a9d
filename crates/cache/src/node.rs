//! Nodes of the per-process cached global tree.
//!
//! A [`CacheNode`] lives in its cache's append-only node store and is
//! named by a [`NodeHandle`]. It is immutable after publication except
//! for two atomic fields: the `requested` flag on placeholders and the
//! child handle slots on internal nodes (which transition placeholder →
//! expanded node exactly once). Everything else is written before the
//! node becomes reachable. A leaf's particles are not in the node: its
//! bucket is a range of a particle array the cache holds beside the
//! nodes ([`crate::CacheTree::particles`]).

use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_tree::node::NO_NODE;
use paratreet_tree::Data;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// What a cached node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Interior node whose children (local or placeholder) are linked.
    Internal,
    /// Leaf whose bucket of particles is present in the cache.
    Leaf,
    /// A region with no particles.
    Empty,
    /// Summary-only stand-in for remote data: `data`, `bbox`, and
    /// `n_particles` are valid, but children/particles require a fetch.
    Placeholder,
}

/// One node of the cached global tree.
pub struct CacheNode<D> {
    /// Path key in the global tree.
    pub key: NodeKey,
    /// Spatial footprint.
    pub bbox: BoundingBox,
    /// Particles beneath this node.
    pub n_particles: u32,
    /// Accumulated application state (valid for placeholders too — the
    /// summary travels with the share/fill that announced the node).
    pub data: D,
    /// Rank that owns the authoritative copy of this subtree.
    pub home_rank: u32,
    /// Node kind (fixed at construction; placeholders are *replaced*,
    /// never mutated, when their data arrives).
    pub kind: NodeKind,
    /// This node's own handle, set when it is appended to a store.
    pub(crate) handle: u32,
    /// The particle array a leaf's bucket lies in.
    pub(crate) array: u32,
    /// A leaf's bucket: `start..end` of its particle array.
    pub(crate) bucket: Range<u32>,
    /// Whether a fetch for this placeholder is already in flight.
    pub requested: AtomicBool,
    /// Child handles. Only the first `branch_factor` slots are used;
    /// `u32::MAX` means the child does not exist (empty octant). Slots
    /// are written `Relaxed` before publication and overwritten at most
    /// once afterwards (placeholder → expanded), always with `Release`.
    pub children: [AtomicU32; 8],
}

impl<D: Data> CacheNode<D> {
    /// A node with no children linked yet and an empty bucket.
    pub(crate) fn new(
        key: NodeKey,
        bbox: BoundingBox,
        n_particles: u32,
        data: D,
        home_rank: u32,
        kind: NodeKind,
    ) -> CacheNode<D> {
        CacheNode {
            key,
            bbox,
            n_particles,
            data,
            home_rank,
            kind,
            handle: NO_NODE,
            array: 0,
            bucket: 0..0,
            requested: AtomicBool::new(false),
            children: std::array::from_fn(|_| AtomicU32::new(NO_NODE)),
        }
    }

    /// Reads child slot `i` with `Acquire`; resolve it with
    /// [`crate::CacheTree::node`].
    #[inline]
    pub fn child(&self, i: usize) -> Option<NodeHandle<D>> {
        let h = self.children[i].load(Ordering::Acquire);
        (h != NO_NODE).then_some(NodeHandle(h, PhantomData))
    }

    /// This node's handle in the cache that holds it.
    #[inline]
    pub fn handle(&self) -> NodeHandle<D> {
        NodeHandle(self.handle, PhantomData)
    }

    /// A leaf's stretch of its particle array (empty for other kinds).
    pub fn bucket(&self) -> Range<usize> {
        self.bucket.start as usize..self.bucket.end as usize
    }

    /// Shifts every present child by `base`: a run's node indices become
    /// the handles of a store the run was appended to at `base`.
    pub(crate) fn rebase(&mut self, base: u32) {
        for c in &mut self.children {
            let c = c.get_mut();
            if *c != NO_NODE {
                *c += base;
            }
        }
    }

    /// True when this node is a summary-only placeholder.
    #[inline]
    pub fn is_placeholder(&self) -> bool {
        self.kind == NodeKind::Placeholder
    }

    /// True when this node is a materialised leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.kind == NodeKind::Leaf
    }
}

/// The name of a node of some [`crate::CacheTree`]: an index into its
/// append-only node store, which only [`crate::CacheTree::node`]
/// resolves.
///
/// Traversal engines park work items across pause/resume boundaries, so
/// they cannot hold borrows; a handle defers the borrow to the moment of
/// use. A handle used against the wrong cache names some other node or
/// fails the bounds check; it never dangles.
pub struct NodeHandle<D>(pub(crate) u32, PhantomData<fn() -> D>);

impl<D> NodeHandle<D> {
    pub(crate) fn new(index: u32) -> NodeHandle<D> {
        NodeHandle(index, PhantomData)
    }
}

impl<D> Clone for NodeHandle<D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<D> Copy for NodeHandle<D> {}

impl<D> std::fmt::Debug for NodeHandle<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeHandle({})", self.0)
    }
}

impl<D> std::fmt::Debug for CacheNode<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheNode")
            .field("key", &self.key)
            .field("kind", &self.kind)
            .field("n_particles", &self.n_particles)
            .field("home_rank", &self.home_rank)
            .finish()
    }
}
