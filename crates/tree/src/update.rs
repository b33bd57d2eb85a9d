//! Incremental tree maintenance: patch a built Subtree across iterations
//! instead of rebuilding it from scratch.
//!
//! ParaTreeT pays the full decomposition + build + leaf-sharing pipeline
//! every iteration even though particles move only slightly between
//! timesteps. An [`UpdatableTree`] is the mutable twin of a
//! [`BuiltTree`]: nodes live in a slab with a free list, leaves own
//! their buckets directly, and the update cycle is *batch-first*:
//!
//! 1. [`UpdatableTree::classify`] — one pass over the leaves in DFS
//!    order that copies the integrated particle state back in, marks a
//!    leaf *dirty* only when a position or mass actually changed, and
//!    evicts every particle that left its leaf's spatial footprint.
//!    The caller groups the escapees by destination subtree and sorts
//!    each group by entry key, forming insert batches.
//! 2. [`UpdatableTree::insert_batch`] — sieves a whole sorted batch
//!    from the subtree root down in one recursive group pass: at each
//!    interior node the split geometry is computed once and the batch
//!    is stable-partitioned across the child slots, materialising
//!    missing children with the same child-box/child-key rules the
//!    builder uses. The result is bit-identical to inserting the same
//!    particles one at a time in the same order (the per-particle
//!    [`UpdatableTree::insert`] is kept as the reference path).
//! 3. [`UpdatableTree::repair`] — one bottom-up pass that splits
//!    overfull leaves (with the builder's own split rule), collapses
//!    underfull interiors, prunes emptied regions, re-accumulates
//!    `Data` along dirty root paths only, and checks the α
//!    weight-balance criterion on refreshed interiors of median-split
//!    trees (k-d / longest-dim). Position-determined trees (octree,
//!    binary-oct) never report imbalance: their split planes are fixed
//!    by geometry, so the maintained structure already matches what a
//!    fresh build would produce and a rebuild cannot improve it.
//!
//! [`UpdatableTree::flatten`] then reproduces the exact arena layout
//! [`crate::TreeBuilder`] emits (pre-order, children in ascending slot
//! order, buckets tiling the particle array in DFS order), so a
//! maintained tree drops into the cache/traversal pipeline unchanged —
//! and a zero-motion update round-trips bit-identically.
//!
//! All structural operations return [`UpdateError`] instead of
//! panicking when the slab is inconsistent (a stale index or a shape
//! that contradicts itself), so an engine can log the error and fall
//! back to a full rebuild rather than aborting the run.

use crate::cut::{self, Cut};
use crate::node::{BuildNode, BuiltTree, NodeShape, NO_NODE};
use crate::{Data, TreeType};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;

/// A structural inconsistency detected while patching a maintained
/// subtree. These are recoverable: the engine logs the error and falls
/// back to a fresh build of the affected forest (mirroring the cache
/// crate's `CacheError` pattern) instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// A node referenced a slab index that is not live (freed or out of
    /// range) — the maintained structure can no longer be trusted.
    StaleSlab { index: u32 },
    /// A node's shape changed underneath an operation that had just
    /// observed a different shape at the same index.
    ShapeCorrupt { index: u32 },
    /// The master particle slice handed to [`UpdatableTree::classify`]
    /// does not match the subtree's population.
    PopulationMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::StaleSlab { index } => {
                write!(f, "stale slab index {index} in maintained subtree")
            }
            UpdateError::ShapeCorrupt { index } => {
                write!(f, "node {index} changed shape mid-operation")
            }
            UpdateError::PopulationMismatch { expected, got } => {
                write!(f, "master slice holds {got} particles, subtree expects {expected}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Counters describing one update round of a single subtree. Summed by
/// the engine layer into the `tree.update.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Particles whose position or mass changed since the last sync.
    pub n_moved: u64,
    /// Particles that left their leaf's bbox and were evicted.
    pub n_escaped: u64,
    /// Particles sieved into a leaf of this subtree.
    pub n_inserted: u64,
    /// Overfull leaves split by the repair pass.
    pub n_splits: u64,
    /// Underfull interior nodes collapsed back into leaves.
    pub n_merges: u64,
    /// Emptied child regions pruned from their parents.
    pub n_pruned: u64,
    /// Nodes whose `Data` summary was re-accumulated.
    pub n_refreshed: u64,
}

impl std::ops::AddAssign for UpdateStats {
    fn add_assign(&mut self, o: UpdateStats) {
        self.n_moved += o.n_moved;
        self.n_escaped += o.n_escaped;
        self.n_inserted += o.n_inserted;
        self.n_splits += o.n_splits;
        self.n_merges += o.n_merges;
        self.n_pruned += o.n_pruned;
        self.n_refreshed += o.n_refreshed;
    }
}

/// Result of [`UpdatableTree::classify`]: the moved count plus every
/// particle that left its leaf's footprint, in DFS leaf order.
#[derive(Debug, Default, PartialEq)]
pub struct Classified {
    /// Particles whose position or mass changed since the last sync.
    pub n_moved: u64,
    /// Evicted particles the caller must re-route (into this subtree,
    /// a sibling subtree, or a full rebuild).
    pub escapees: Vec<Particle>,
}

/// Outcome of one [`UpdatableTree::repair`] pass.
#[derive(Debug, Default)]
pub struct RepairReport {
    /// Structural counters for this pass.
    pub stats: UpdateStats,
    /// Some refreshed interior node of a median-split tree violates the
    /// α weight-balance criterion — the subtree has drifted far enough
    /// from its build-time medians that a rebuild pays for itself.
    /// Always `false` for position-determined tree types.
    pub unbalanced: bool,
}

/// Structural kind of a maintained node. Unlike [`NodeShape`], leaves
/// own their bucket directly so membership edits are local.
enum UpdateShape {
    /// Interior node; `NO_NODE` marks absent children.
    Internal { children: [u32; 8] },
    /// Leaf owning its bucket.
    Leaf { particles: Vec<Particle> },
    /// A region with no particles.
    Empty,
}

/// One slab node of an [`UpdatableTree`].
struct UpdateNode<D> {
    key: NodeKey,
    bbox: BoundingBox,
    shape: UpdateShape,
    /// Depth below the subtree root (matches [`BuildNode::depth`]).
    depth: u32,
    data: D,
    n_particles: u32,
    /// Set when the bucket membership, particle state, or child set
    /// changed since the last repair; cleared by [`UpdatableTree::repair`].
    dirty: bool,
}

/// A mutable Subtree maintained across iterations. The root is always
/// slab index 0; freed slots are recycled through a free list.
pub struct UpdatableTree<D: Data> {
    tree_type: TreeType,
    bucket_size: usize,
    root_key: NodeKey,
    root_depth: u32,
    max_local_depth: u32,
    nodes: Vec<Option<UpdateNode<D>>>,
    free: Vec<u32>,
}

impl<D: Data> UpdatableTree<D> {
    /// Adopts a freshly built subtree. `root_depth` is the subtree
    /// root's depth below the global root (it drives k-d axis cycling,
    /// exactly as in [`crate::TreeBuilder::root_depth`]).
    pub fn from_built(
        tree: &BuiltTree<D>,
        tree_type: TreeType,
        bucket_size: usize,
        root_depth: u32,
    ) -> UpdatableTree<D> {
        let bits = tree_type.bits_per_level();
        let root_key = tree.root().key;
        // The builder's arena is pre-order with children in ascending
        // slot order — exactly the slab order a DFS adoption would
        // allocate — so nodes map over index-for-index.
        let nodes = tree
            .nodes
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let shape = match src.shape {
                    NodeShape::Leaf { .. } => {
                        UpdateShape::Leaf { particles: tree.bucket(i as u32).to_vec() }
                    }
                    NodeShape::Empty => UpdateShape::Empty,
                    NodeShape::Internal => UpdateShape::Internal { children: src.children },
                };
                Some(UpdateNode {
                    key: src.key,
                    bbox: src.bbox,
                    shape,
                    depth: src.depth,
                    data: src.data.clone(),
                    n_particles: src.n_particles,
                    dirty: false,
                })
            })
            .collect();
        UpdatableTree {
            tree_type,
            bucket_size,
            root_key,
            root_depth,
            // Same digit-capacity cap as the builder's `max_depth`.
            max_local_depth: (63 - root_key.level(bits) * bits) / bits,
            nodes,
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, n: UpdateNode<D>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Some(n);
                i
            }
            None => {
                self.nodes.push(Some(n));
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, i: u32) {
        self.nodes[i as usize] = None;
        self.free.push(i);
    }

    /// The root slab slot is allocated first and never released, so
    /// these two accessors cannot observe a dead slot; every other
    /// index goes through [`Self::try_node`] / [`Self::try_node_mut`].
    fn root(&self) -> &UpdateNode<D> {
        self.nodes[0].as_ref().expect("subtree root is never released")
    }

    fn try_node(&self, i: u32) -> Result<&UpdateNode<D>, UpdateError> {
        self.nodes
            .get(i as usize)
            .and_then(|n| n.as_ref())
            .ok_or(UpdateError::StaleSlab { index: i })
    }

    fn try_node_mut(&mut self, i: u32) -> Result<&mut UpdateNode<D>, UpdateError> {
        self.nodes
            .get_mut(i as usize)
            .and_then(|n| n.as_mut())
            .ok_or(UpdateError::StaleSlab { index: i })
    }

    /// The subtree root's spatial footprint (the Subtree piece's region).
    pub fn root_bbox(&self) -> BoundingBox {
        self.root().bbox
    }

    /// The subtree root's path key.
    pub fn root_key(&self) -> NodeKey {
        self.root_key
    }

    /// Total particles currently held.
    pub fn n_particles(&self) -> u32 {
        self.root().n_particles
    }

    /// Live node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Maximum node depth below the subtree root.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().flatten().map(|n| n.depth).max().unwrap_or(0)
    }

    /// All particles in DFS bucket order (what [`Self::flatten`] emits).
    pub fn all_particles(&self) -> Result<Vec<Particle>, UpdateError> {
        let mut out = Vec::with_capacity(self.n_particles() as usize);
        self.collect(0, &mut out)?;
        Ok(out)
    }

    fn collect(&self, i: u32, out: &mut Vec<Particle>) -> Result<(), UpdateError> {
        match &self.try_node(i)?.shape {
            UpdateShape::Leaf { particles } => out.extend_from_slice(particles),
            UpdateShape::Internal { children } => {
                let children = *children;
                for c in children {
                    if c != NO_NODE {
                        self.collect(c, out)?;
                    }
                }
            }
            UpdateShape::Empty => {}
        }
        Ok(())
    }

    /// The batch classification pass: copies integrated particle state
    /// back into the leaves *and* evicts everything that left its
    /// leaf's bbox, in one walk over the leaves in DFS order. `master`
    /// must hold this subtree's particles in the order the last
    /// [`Self::flatten`] emitted them. Only leaves where a position or
    /// mass actually changed go dirty (and only those are scanned for
    /// escapees — clean leaves cannot have movers), so a zero-motion
    /// classify leaves every summary untouched and returns no escapees.
    pub fn classify(&mut self, master: &[Particle]) -> Result<Classified, UpdateError> {
        let expected = self.n_particles() as usize;
        if expected != master.len() {
            return Err(UpdateError::PopulationMismatch { expected, got: master.len() });
        }
        let mut out = Classified::default();
        let mut off = 0usize;
        self.classify_walk(0, master, &mut off, &mut out)?;
        if off != master.len() {
            return Err(UpdateError::PopulationMismatch { expected: off, got: master.len() });
        }
        Ok(out)
    }

    /// DFS over the leaves in bucket-tiling order, copying, comparing,
    /// and evicting in a single pass per leaf. Only a moved particle
    /// can have left its leaf's box (unmoved ones are inside by
    /// invariant), so the containment test runs only on movers.
    fn classify_walk(
        &mut self,
        i: u32,
        master: &[Particle],
        off: &mut usize,
        out: &mut Classified,
    ) -> Result<(), UpdateError> {
        let children = match &self.try_node(i)?.shape {
            UpdateShape::Internal { children } => *children,
            UpdateShape::Empty => return Ok(()),
            UpdateShape::Leaf { .. } => {
                let node = self.try_node_mut(i)?;
                let bbox = node.bbox;
                let UpdateShape::Leaf { particles } = &mut node.shape else {
                    return Err(UpdateError::ShapeCorrupt { index: i });
                };
                let len = particles.len();
                if *off + len > master.len() {
                    return Err(UpdateError::PopulationMismatch {
                        expected: *off + len,
                        got: master.len(),
                    });
                }
                let slice = &master[*off..*off + len];
                *off += len;
                let mut dirty = node.dirty;
                let mut w = 0usize;
                for (r, src) in slice.iter().enumerate() {
                    let moved = particles[r].pos != src.pos || particles[r].mass != src.mass;
                    if moved {
                        dirty = true;
                        out.n_moved += 1;
                        if !bbox.contains(src.pos) {
                            out.escapees.push(*src);
                            continue;
                        }
                    }
                    particles[w] = *src;
                    w += 1;
                }
                particles.truncate(w);
                node.dirty = dirty;
                return Ok(());
            }
        };
        for c in children {
            if c != NO_NODE {
                self.classify_walk(c, master, off, out)?;
            }
        }
        Ok(())
    }

    /// Sieves one particle from the subtree root to its leaf, creating
    /// a missing child (builder child-box/child-key rules) on the way.
    /// This is the sequential reference path; batched callers use
    /// [`Self::insert_batch`], which is bit-identical for the same
    /// insertion order.
    pub fn insert(&mut self, p: Particle) -> Result<(), UpdateError> {
        let mut i = 0u32;
        loop {
            let children = match &self.try_node(i)?.shape {
                UpdateShape::Empty => {
                    let node = self.try_node_mut(i)?;
                    node.shape = UpdateShape::Leaf { particles: vec![p] };
                    node.dirty = true;
                    return Ok(());
                }
                UpdateShape::Leaf { .. } => {
                    let node = self.try_node_mut(i)?;
                    let UpdateShape::Leaf { particles } = &mut node.shape else {
                        return Err(UpdateError::ShapeCorrupt { index: i });
                    };
                    particles.push(p);
                    node.dirty = true;
                    return Ok(());
                }
                UpdateShape::Internal { children } => *children,
            };
            let cut = self.cut(i, &children)?;
            let slot = cut.slot_of(p.pos);
            match children[slot] {
                NO_NODE => {
                    let (child_bbox, child_key) = cut.child(slot);
                    let depth = self.try_node(i)?.depth + 1;
                    let ci = self.alloc(UpdateNode {
                        key: child_key,
                        bbox: child_bbox,
                        shape: UpdateShape::Leaf { particles: vec![p] },
                        depth,
                        data: D::default(),
                        n_particles: 0,
                        dirty: true,
                    });
                    let node = self.try_node_mut(i)?;
                    let UpdateShape::Internal { children } = &mut node.shape else {
                        return Err(UpdateError::ShapeCorrupt { index: i });
                    };
                    children[slot] = ci;
                    node.dirty = true;
                    return Ok(());
                }
                c => i = c,
            }
        }
    }

    /// Sieves a whole batch down from the subtree root in one recursive
    /// group pass. At each interior node the split geometry is computed
    /// once and the batch is stable-partitioned across the child slots;
    /// groups landing on a missing child materialise it as a single new
    /// leaf. Relative particle order is preserved all the way down, so
    /// the resulting buckets — and the flattened arena — are
    /// bit-identical to calling [`Self::insert`] on each particle in
    /// batch order. Returns the number of particles inserted.
    pub fn insert_batch(&mut self, batch: Vec<Particle>) -> Result<u64, UpdateError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let n = batch.len() as u64;
        // The recursion partitions *indices* into `batch` — particles
        // are only copied once, out of the batch into their destination
        // leaf, instead of being re-grouped into fresh vectors at every
        // level of the sieve.
        let mut idx: Vec<u32> = (0..batch.len() as u32).collect();
        let mut scratch: Vec<u32> = vec![0; batch.len()];
        self.sieve_batch(0, &batch, &mut idx, &mut scratch)?;
        Ok(n)
    }

    fn sieve_batch(
        &mut self,
        i: u32,
        batch: &[Particle],
        idx: &mut [u32],
        scratch: &mut [u32],
    ) -> Result<(), UpdateError> {
        fn gather<'a>(
            batch: &'a [Particle],
            idx: &'a [u32],
        ) -> impl Iterator<Item = Particle> + 'a {
            idx.iter().map(|&k| batch[k as usize])
        }
        let children = match &self.try_node(i)?.shape {
            UpdateShape::Empty => {
                let node = self.try_node_mut(i)?;
                node.shape = UpdateShape::Leaf { particles: gather(batch, idx).collect() };
                node.dirty = true;
                return Ok(());
            }
            UpdateShape::Leaf { .. } => {
                let node = self.try_node_mut(i)?;
                let UpdateShape::Leaf { particles } = &mut node.shape else {
                    return Err(UpdateError::ShapeCorrupt { index: i });
                };
                particles.extend(gather(batch, idx));
                node.dirty = true;
                return Ok(());
            }
            UpdateShape::Internal { children } => *children,
        };
        // Stable-partition the index range by child slot (two cheap
        // passes: count, then scatter through the scratch range). The
        // cut is stable for the whole batch: octant/midpoint planes are
        // fixed by the node's box, and a recovered k-d plane cannot
        // change mid-batch (children created during the batch inherit
        // their boxes from that same plane).
        let depth = self.try_node(i)?.depth;
        let cut = self.cut(i, &children)?;
        let mut counts = [0usize; 8];
        for &k in idx.iter() {
            counts[cut.slot_of(batch[k as usize].pos)] += 1;
        }
        let mut offs = [0usize; 8];
        let mut acc = 0;
        for (slot, &c) in counts.iter().enumerate() {
            offs[slot] = acc;
            acc += c;
        }
        for &k in idx.iter() {
            let s = cut.slot_of(batch[k as usize].pos);
            scratch[offs[s]] = k;
            offs[s] += 1;
        }
        idx.copy_from_slice(scratch);
        let (mut idx_rest, mut scratch_rest) = (idx, scratch);
        for (slot, &len) in counts.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let (group, ir) = std::mem::take(&mut idx_rest).split_at_mut(len);
            let (sub_scratch, sr) = std::mem::take(&mut scratch_rest).split_at_mut(len);
            (idx_rest, scratch_rest) = (ir, sr);
            // Re-read the child slot: an earlier group may have
            // materialised a sibling (never this slot).
            let child = match &self.try_node(i)?.shape {
                UpdateShape::Internal { children } => children[slot],
                _ => return Err(UpdateError::ShapeCorrupt { index: i }),
            };
            match child {
                NO_NODE => {
                    let (child_bbox, child_key) = cut.child(slot);
                    let ci = self.alloc(UpdateNode {
                        key: child_key,
                        bbox: child_bbox,
                        shape: UpdateShape::Leaf { particles: gather(batch, group).collect() },
                        depth: depth + 1,
                        data: D::default(),
                        n_particles: 0,
                        dirty: true,
                    });
                    let node = self.try_node_mut(i)?;
                    let UpdateShape::Internal { children } = &mut node.shape else {
                        return Err(UpdateError::ShapeCorrupt { index: i });
                    };
                    children[slot] = ci;
                    node.dirty = true;
                }
                c => self.sieve_batch(c, batch, group, sub_scratch)?,
            }
        }
        Ok(())
    }

    /// How interior node `i` divides space, by the builder's cut rule.
    /// A k-d plane is read back from a child's region box: the builder
    /// made child 0's high face — equivalently child 1's low face — the
    /// plane.
    fn cut(&self, i: u32, children: &[u32; 8]) -> Result<Cut, UpdateError> {
        let node = self.try_node(i)?;
        let face = match (self.tree_type.is_median_split(), children[0], children[1]) {
            (false, ..) | (true, NO_NODE, NO_NODE) => None,
            (true, NO_NODE, c) => Some(self.try_node(c)?.bbox.lo),
            (true, c, _) => Some(self.try_node(c)?.bbox.hi),
        };
        Ok(Cut::of(self.tree_type, node.bbox, node.key, self.root_depth + node.depth, face))
    }

    /// One bottom-up repair pass: splits overfull leaves, prunes
    /// emptied children, collapses underfull interiors, and
    /// re-accumulates `Data` and particle counts along dirty root paths
    /// only. Untouched subtrees are skipped entirely (and keep their
    /// summaries bit-for-bit).
    ///
    /// `balance_alpha` is the BB[α] weight-balance factor: a refreshed
    /// interior node of a median-split tree whose heaviest child holds
    /// more than `α · total` particles marks the subtree unbalanced
    /// (the caller rebuilds it). Nodes holding at most two buckets'
    /// worth of particles are exempt — at that size integer bucket
    /// granularity makes the ratio meaningless and a rebuild cannot
    /// help.
    pub fn repair(&mut self, balance_alpha: f64) -> Result<RepairReport, UpdateError> {
        let mut report = RepairReport::default();
        let mut unbalanced = false;
        self.refresh(0, balance_alpha, &mut report.stats, &mut unbalanced)?;
        report.unbalanced = unbalanced;
        Ok(report)
    }

    /// Returns whether anything beneath (or at) `i` changed.
    fn refresh(
        &mut self,
        i: u32,
        alpha: f64,
        stats: &mut UpdateStats,
        unbalanced: &mut bool,
    ) -> Result<bool, UpdateError> {
        enum Kind {
            Empty,
            Leaf(usize),
            Internal([u32; 8]),
        }
        let kind = match &self.try_node(i)?.shape {
            UpdateShape::Empty => Kind::Empty,
            UpdateShape::Leaf { particles } => Kind::Leaf(particles.len()),
            UpdateShape::Internal { children } => Kind::Internal(*children),
        };
        match kind {
            Kind::Empty => {
                let node = self.try_node_mut(i)?;
                let was = node.dirty;
                node.dirty = false;
                Ok(was)
            }
            Kind::Leaf(len) => {
                if !self.try_node(i)?.dirty {
                    return Ok(false);
                }
                if len > self.bucket_size && self.try_node(i)?.depth < self.max_local_depth {
                    self.split_leaf(i, stats)?;
                    return self.refresh(i, alpha, stats, unbalanced);
                }
                // A leaf at the depth cap may stay oversize, exactly as
                // the builder leaves it for coincident particles.
                let (data, n) = {
                    let node = self.try_node(i)?;
                    let UpdateShape::Leaf { particles } = &node.shape else {
                        return Err(UpdateError::ShapeCorrupt { index: i });
                    };
                    (D::from_leaf(particles, &node.bbox), particles.len() as u32)
                };
                let node = self.try_node_mut(i)?;
                if n == 0 {
                    node.shape = UpdateShape::Empty;
                    node.data = D::default();
                } else {
                    node.data = data;
                }
                node.n_particles = n;
                node.dirty = false;
                stats.n_refreshed += 1;
                Ok(true)
            }
            Kind::Internal(mut children) => {
                let mut any = self.try_node(i)?.dirty;
                for &c in &children {
                    if c != NO_NODE {
                        any |= self.refresh(c, alpha, stats, unbalanced)?;
                    }
                }
                if !any {
                    return Ok(false);
                }
                for ch in children.iter_mut() {
                    if *ch != NO_NODE && matches!(self.try_node(*ch)?.shape, UpdateShape::Empty) {
                        self.release(*ch);
                        *ch = NO_NODE;
                        stats.n_pruned += 1;
                    }
                }
                let mut total = 0u32;
                let mut max_child = 0u32;
                for &c in &children {
                    if c != NO_NODE {
                        let n = self.try_node(c)?.n_particles;
                        total += n;
                        max_child = max_child.max(n);
                    }
                }
                if total == 0 {
                    let node = self.try_node_mut(i)?;
                    node.shape = UpdateShape::Empty;
                    node.data = D::default();
                    node.n_particles = 0;
                    node.dirty = false;
                } else if (total as usize) <= self.bucket_size {
                    // Underfull interior: gather descendants (DFS slot
                    // order) back into one bucket.
                    let mut bucket = Vec::with_capacity(total as usize);
                    for &c in &children {
                        if c != NO_NODE {
                            self.collect(c, &mut bucket)?;
                            self.release_subtree(c)?;
                        }
                    }
                    let bbox = self.try_node(i)?.bbox;
                    let data = D::from_leaf(&bucket, &bbox);
                    let node = self.try_node_mut(i)?;
                    node.shape = UpdateShape::Leaf { particles: bucket };
                    node.data = data;
                    node.n_particles = total;
                    node.dirty = false;
                    stats.n_merges += 1;
                } else {
                    // Weight balance only matters for median-split
                    // trees: octree/binary-oct planes are fixed by
                    // geometry, so their maintained structure already
                    // equals a fresh build's.
                    if self.tree_type.is_median_split()
                        && total as usize > 2 * self.bucket_size
                        && max_child as f64 > alpha * total as f64
                    {
                        *unbalanced = true;
                    }
                    let mut data = D::default();
                    for &c in &children {
                        if c != NO_NODE {
                            data.merge(&self.try_node(c)?.data);
                        }
                    }
                    let node = self.try_node_mut(i)?;
                    node.shape = UpdateShape::Internal { children };
                    node.data = data;
                    node.n_particles = total;
                    node.dirty = false;
                }
                stats.n_refreshed += 1;
                Ok(true)
            }
        }
    }

    /// Splits an overfull leaf by the builder's own cut rule, so
    /// maintained structure matches what a fresh build would produce.
    fn split_leaf(&mut self, i: u32, stats: &mut UpdateStats) -> Result<(), UpdateError> {
        let (mut particles, bbox, key, depth) = {
            let node = self.try_node_mut(i)?;
            let UpdateShape::Leaf { particles } = &mut node.shape else {
                return Err(UpdateError::ShapeCorrupt { index: i });
            };
            (std::mem::take(particles), node.bbox, node.key, node.depth)
        };
        let global_depth = self.root_depth + depth;
        let groups =
            cut::split(self.tree_type, &mut particles, |p| p.pos, &bbox, key, global_depth);
        let mut children = [NO_NODE; 8];
        let mut rest = particles;
        for c in groups {
            let tail = rest.split_off(c.len);
            let bucket = std::mem::replace(&mut rest, tail);
            let n = bucket.len() as u32;
            children[c.slot] = self.alloc(UpdateNode {
                key: c.key,
                bbox: c.bbox,
                shape: UpdateShape::Leaf { particles: bucket },
                depth: depth + 1,
                data: D::default(),
                n_particles: n,
                dirty: true,
            });
        }
        debug_assert!(rest.is_empty());
        let node = self.try_node_mut(i)?;
        node.shape = UpdateShape::Internal { children };
        node.dirty = true;
        stats.n_splits += 1;
        Ok(())
    }

    fn release_subtree(&mut self, i: u32) -> Result<(), UpdateError> {
        if let UpdateShape::Internal { children } = &self.try_node(i)?.shape {
            let children = *children;
            for c in children {
                if c != NO_NODE {
                    self.release_subtree(c)?;
                }
            }
        }
        self.release(i);
        Ok(())
    }

    /// Emits the arena form for the cache/traversal pipeline,
    /// reproducing [`crate::TreeBuilder`]'s exact layout: pre-order with
    /// children in ascending slot order and leaf buckets tiling the
    /// particle array in DFS order. A zero-motion
    /// classify→repair→flatten round trip is bit-identical to the
    /// original build.
    pub fn flatten(&self) -> Result<BuiltTree<D>, UpdateError> {
        let mut nodes = Vec::with_capacity(self.n_nodes());
        let mut particles = Vec::with_capacity(self.n_particles() as usize);
        self.flatten_rec(0, &mut nodes, &mut particles)?;
        Ok(BuiltTree { nodes, particles, bits_per_level: self.tree_type.bits_per_level() })
    }

    fn flatten_rec(
        &self,
        i: u32,
        out: &mut Vec<BuildNode<D>>,
        parts: &mut Vec<Particle>,
    ) -> Result<u32, UpdateError> {
        let n = self.try_node(i)?;
        let idx = out.len();
        out.push(BuildNode {
            key: n.key,
            bbox: n.bbox,
            shape: NodeShape::Empty,
            children: [NO_NODE; 8],
            data: n.data.clone(),
            n_particles: n.n_particles,
            depth: n.depth,
        });
        match &n.shape {
            UpdateShape::Leaf { particles } => {
                let start = parts.len() as u32;
                parts.extend_from_slice(particles);
                out[idx].shape = NodeShape::Leaf { start, end: start + particles.len() as u32 };
            }
            UpdateShape::Internal { children } => {
                let children = *children;
                out[idx].shape = NodeShape::Internal;
                for (slot, c) in children.into_iter().enumerate() {
                    if c != NO_NODE {
                        let ci = self.flatten_rec(c, out, parts)?;
                        out[idx].children[slot] = ci;
                    }
                }
            }
            UpdateShape::Empty => {}
        }
        Ok(idx as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountData, TreeBuilder};
    use paratreet_geometry::Vec3;
    use paratreet_particles::{gen, ParticleVec};

    const ALPHA: f64 = 0.7;

    fn built(tree_type: TreeType, n: usize, bucket: usize) -> BuiltTree<CountData> {
        let ps = gen::uniform_cube(n, 42, 1.0, 1.0);
        let bbox = ps.bounding_box().padded(1e-9);
        let bbox = if tree_type == TreeType::Octree { bbox.bounding_cube() } else { bbox };
        TreeBuilder::new(tree_type).bucket_size(bucket).build(ps, bbox)
    }

    fn assert_arena_identical(a: &BuiltTree<CountData>, b: &BuiltTree<CountData>) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.shape, y.shape);
            assert_eq!(x.children, y.children);
            assert_eq!(x.n_particles, y.n_particles);
            assert_eq!(x.depth, y.depth);
            assert_eq!(x.data, y.data);
            assert_eq!(x.bbox.lo, y.bbox.lo);
            assert_eq!(x.bbox.hi, y.bbox.hi);
        }
        assert_eq!(a.particles, b.particles);
    }

    /// Swirl the master copy around the box centre, clamped inside the
    /// given universe.
    fn swirl(master: &mut [Particle], universe: &BoundingBox, shrink: f64, grow: f64) {
        let c = universe.center();
        for (i, p) in master.iter_mut().enumerate() {
            let r = p.pos - c;
            let scale = if i % 3 == 0 { shrink } else { grow };
            p.pos = c + r * scale;
            for a in 0..3 {
                let lo = universe.lo.component(a);
                let hi = universe.hi.component(a);
                let v = p.pos.component(a).clamp(lo, hi);
                match a {
                    0 => p.pos.x = v,
                    1 => p.pos.y = v,
                    _ => p.pos.z = v,
                }
            }
        }
    }

    #[test]
    fn adopt_flatten_round_trips_bit_identically() {
        for tt in [TreeType::Octree, TreeType::KdTree, TreeType::BinaryOct, TreeType::LongestDim] {
            let t = built(tt, 700, 8);
            let u = UpdatableTree::from_built(&t, tt, 8, 0);
            assert_arena_identical(&t, &u.flatten().unwrap());
        }
    }

    #[test]
    fn zero_motion_update_is_bit_identical() {
        let t = built(TreeType::Octree, 900, 8);
        let mut u = UpdatableTree::from_built(&t, TreeType::Octree, 8, 0);
        let mut master = t.particles.clone();
        // Accumulator churn (forces written back) must not dirty anything.
        for p in &mut master {
            p.acc = Vec3::new(1.0, 2.0, 3.0);
            p.potential = -4.0;
        }
        let cls = u.classify(&master).unwrap();
        assert_eq!(cls.n_moved, 0);
        assert!(cls.escapees.is_empty());
        let rep = u.repair(ALPHA).unwrap();
        assert_eq!(rep.stats, UpdateStats::default());
        assert!(!rep.unbalanced);
        let flat = u.flatten().unwrap();
        assert_eq!(flat.particles, master);
        assert_eq!(flat.nodes.len(), t.nodes.len());
        for (x, y) in flat.nodes.iter().zip(&t.nodes) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.shape, y.shape);
            assert_eq!(x.data, y.data);
        }
    }

    #[test]
    fn motion_update_keeps_tree_valid_and_conserves_particles() {
        let t = built(TreeType::Octree, 1200, 8);
        let universe = t.root().bbox;
        let mut u = UpdatableTree::from_built(&t, TreeType::Octree, 8, 0);
        let mut master = t.particles.clone();
        swirl(&mut master, &universe, 0.9, 1.04);
        let cls = u.classify(&master).unwrap();
        assert!(cls.n_moved > 0);
        assert!(!cls.escapees.is_empty(), "swirl should evict some particles");
        for p in &cls.escapees {
            assert!(universe.contains(p.pos));
        }
        let n = u.insert_batch(cls.escapees).unwrap();
        assert!(n > 0);
        let rep = u.repair(ALPHA).unwrap();
        assert!(rep.stats.n_refreshed > 0);
        let flat = u.flatten().unwrap();
        assert_eq!(flat.particles.len(), master.len());
        flat.validate(8).unwrap();
        // Every node's count doubles as CountData: still consistent.
        for n in &flat.nodes {
            assert_eq!(n.data.count, n.n_particles as u64);
        }
    }

    #[test]
    fn batch_insert_matches_sequential_insert_bit_identically() {
        for tt in [TreeType::Octree, TreeType::KdTree, TreeType::BinaryOct, TreeType::LongestDim] {
            let t = built(tt, 800, 8);
            let universe = t.root().bbox;
            let mut seq = UpdatableTree::from_built(&t, tt, 8, 0);
            let mut bat = UpdatableTree::from_built(&t, tt, 8, 0);
            let mut master = t.particles.clone();
            swirl(&mut master, &universe, 0.85, 1.06);
            let mut escapees = seq.classify(&master).unwrap().escapees;
            let escapees_b = bat.classify(&master).unwrap().escapees;
            assert_eq!(escapees.len(), escapees_b.len());
            // Both paths apply the same sorted batch order.
            escapees.sort_by_key(|p| p.id);
            let mut sorted_b = escapees_b;
            sorted_b.sort_by_key(|p| p.id);
            for p in escapees.iter() {
                seq.insert(*p).unwrap();
            }
            bat.insert_batch(sorted_b).unwrap();
            let rs = seq.repair(ALPHA).unwrap();
            let rb = bat.repair(ALPHA).unwrap();
            assert_eq!(rs.stats, rb.stats, "{tt:?}");
            assert_eq!(rs.unbalanced, rb.unbalanced, "{tt:?}");
            assert_arena_identical(&seq.flatten().unwrap(), &bat.flatten().unwrap());
        }
    }

    #[test]
    fn inserts_split_overfull_leaves() {
        let ps = gen::uniform_cube(64, 7, 1.0, 1.0);
        let bbox = ps.bounding_box().padded(1e-9).bounding_cube();
        let t: BuiltTree<CountData> =
            TreeBuilder::new(TreeType::Octree).bucket_size(8).build(ps, bbox);
        let mut u = UpdatableTree::from_built(&t, TreeType::Octree, 8, 0);
        let extra = gen::uniform_cube(64, 9, 1.0, 1.0);
        let root = u.root_bbox();
        let mut batch = Vec::new();
        for mut p in extra {
            p.id += 10_000;
            p.pos.x = p.pos.x.clamp(root.lo.x, root.hi.x);
            p.pos.y = p.pos.y.clamp(root.lo.y, root.hi.y);
            p.pos.z = p.pos.z.clamp(root.lo.z, root.hi.z);
            batch.push(p);
        }
        assert_eq!(u.insert_batch(batch).unwrap(), 64);
        let rep = u.repair(ALPHA).unwrap();
        assert!(rep.stats.n_splits > 0, "doubling the population must split leaves");
        let flat = u.flatten().unwrap();
        assert_eq!(flat.particles.len(), 128);
        flat.validate(8).unwrap();
    }

    #[test]
    fn evictions_merge_underfull_interiors() {
        let t = built(TreeType::KdTree, 512, 8);
        let mut u = UpdatableTree::from_built(&t, TreeType::KdTree, 8, 0);
        // Move 7 of every 8 particles to one corner: most of the tree
        // drains and interiors collapse.
        let corner = t.root().bbox.lo;
        let mut master = t.particles.clone();
        for (i, p) in master.iter_mut().enumerate() {
            if i % 8 != 0 {
                p.pos = corner + Vec3::splat(1e-6 * (i as f64 + 1.0));
            }
        }
        let cls = u.classify(&master).unwrap();
        u.insert_batch(cls.escapees).unwrap();
        let rep = u.repair(ALPHA).unwrap();
        assert!(rep.stats.n_merges + rep.stats.n_pruned > 0, "drained regions must collapse");
        // Cramming 7/8ths of a k-d tree's particles into one corner is
        // exactly the drift the α criterion exists to catch.
        assert!(rep.unbalanced, "corner collapse must trip the weight-balance check");
        let flat = u.flatten().unwrap();
        assert_eq!(flat.particles.len(), 512);
        flat.validate(8).unwrap();
    }

    #[test]
    fn octree_never_reports_imbalance() {
        let t = built(TreeType::Octree, 512, 8);
        let mut u = UpdatableTree::from_built(&t, TreeType::Octree, 8, 0);
        let corner = t.root().bbox.lo;
        let mut master = t.particles.clone();
        for (i, p) in master.iter_mut().enumerate() {
            if i % 8 != 0 {
                p.pos = corner + Vec3::splat(1e-4 * (i as f64 + 1.0));
            }
        }
        let cls = u.classify(&master).unwrap();
        u.insert_batch(cls.escapees).unwrap();
        let rep = u.repair(ALPHA).unwrap();
        // Octree structure is position-determined: a rebuild would
        // reproduce the maintained shape, so imbalance is never raised.
        assert!(!rep.unbalanced);
        u.flatten().unwrap().validate(8).unwrap();
    }

    #[test]
    fn stale_slab_index_is_an_error_not_a_panic() {
        let t = built(TreeType::Octree, 300, 8);
        let mut u = UpdatableTree::from_built(&t, TreeType::Octree, 8, 0);
        // Kill a non-root slab slot out from under the tree.
        let victim = (1..u.nodes.len()).find(|&i| u.nodes[i].is_some()).unwrap();
        u.nodes[victim] = None;
        for p in u.nodes.iter_mut().flatten() {
            p.dirty = true;
        }
        assert!(matches!(u.flatten(), Err(UpdateError::StaleSlab { .. })));
        assert!(matches!(u.repair(ALPHA), Err(UpdateError::StaleSlab { .. })));
        assert!(matches!(u.all_particles(), Err(UpdateError::StaleSlab { .. })));
        let master = t.particles.clone();
        assert!(matches!(u.classify(&master), Err(UpdateError::StaleSlab { .. })));
    }

    #[test]
    fn population_mismatch_is_an_error_not_a_panic() {
        let t = built(TreeType::Octree, 100, 8);
        let mut u = UpdatableTree::from_built(&t, TreeType::Octree, 8, 0);
        let master = t.particles[..50].to_vec();
        assert_eq!(
            u.classify(&master),
            Err(UpdateError::PopulationMismatch { expected: 100, got: 50 })
        );
    }
}
