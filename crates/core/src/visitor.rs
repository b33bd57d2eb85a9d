//! The `Visitor` abstraction and the traversal-facing views (§II-A-2).
//!
//! A visitor "helps the user perform actions at each step of the
//! traversal, including telling the library when to prune": `open`
//! decides whether to descend under a source node, `node` consumes the
//! node's summary when pruned, and `leaf` computes exact interactions
//! when the traversal bottoms out. The split between `node` and `leaf`
//! exists "so that compilers can freely generate vectorized instructions
//! in node() without restriction from the control flow in leaf()" —
//! in Rust terms: both are static calls on a monomorphised visitor type,
//! no virtual dispatch on the hot path.
//!
//! The traversal is transposed — one source node meets many target
//! buckets — so whatever the callbacks derive from the source node alone
//! is computed once per node by [`Visitor::prepare`] and handed to every
//! `open`/`node`/`leaf` call of that node (the `Score`/`BaseCase` split
//! of Curtin et al., *Tree-Independent Dual-Tree Algorithms*).

use paratreet_cache::{CacheNode, NodeKind};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_tree::Data;

/// Read-only view of a source tree node handed to visitor callbacks —
/// the paper's `SpatialNode<Data>`.
pub struct SpatialNodeView<'a, D> {
    /// Node key in the global tree.
    pub key: NodeKey,
    /// Spatial footprint.
    pub bbox: &'a BoundingBox,
    /// Particles beneath the node.
    pub n_particles: u32,
    /// Accumulated `Data`.
    pub data: &'a D,
    /// Bucket particles — non-empty only for materialised leaves.
    pub particles: &'a [Particle],
}

impl<'a, D: Data> SpatialNodeView<'a, D> {
    /// Builds a view over a cache node.
    pub fn of(node: &'a CacheNode<D>) -> SpatialNodeView<'a, D> {
        SpatialNodeView {
            key: node.key,
            bbox: &node.bbox,
            n_particles: node.n_particles,
            data: &node.data,
            particles: if node.kind == NodeKind::Leaf { &node.particles } else { &[] },
        }
    }
}

/// One target bucket owned by a Partition: writable copies of its
/// particles plus visitor-defined per-bucket scratch state.
///
/// Buckets are handed to Partitions during the leaf-sharing step; a
/// bucket whose particles span two Partitions is *split* into local
/// buckets (Fig. 5), so a target bucket may be a strict subset of a tree
/// leaf.
#[derive(Clone, Debug)]
pub struct TargetBucket<S> {
    /// Key of the tree leaf this bucket came from.
    pub leaf_key: NodeKey,
    /// Writable particle copies; accumulators (acc, density, ...) are
    /// written here and merged back after the traversal.
    pub particles: Vec<Particle>,
    /// Tight bounding box of the bucket's particles.
    pub bbox: BoundingBox,
    /// Visitor-defined per-bucket state (e.g. k-NN candidate heaps).
    pub state: S,
}

impl<S> TargetBucket<S> {
    /// Number of particles in the bucket.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// True when the bucket is empty (never produced by leaf sharing).
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }
}

/// The traversal-step callbacks (see module docs). All methods take
/// `&self`: visitors are stateless recipes — per-bucket mutable state
/// lives in [`TargetBucket::state`], which keeps parallel execution
/// race-free by construction ("program state is well-protected through
/// read-only semantics enforced on functions executed in parallel").
pub trait Visitor: Send + Sync {
    /// The tree `Data` this visitor interprets.
    type Data: Data;
    /// Per-target-bucket scratch state.
    type State: Default + Clone + Send + Sync + 'static;
    /// What the callbacks derive from a source node alone (`()` when
    /// there is nothing worth hoisting).
    type Prepared;

    /// Derives the per-node values. Must be a pure function of `source`
    /// (and `self`): the traversal calls it once per work item and
    /// passes the result to every `open`/`node`/`leaf` of that item.
    fn prepare(&self, source: &SpatialNodeView<'_, Self::Data>) -> Self::Prepared;

    /// Should the traversal descend below `source` for this target?
    fn open(
        &self,
        source: &SpatialNodeView<'_, Self::Data>,
        prepared: &Self::Prepared,
        target: &TargetBucket<Self::State>,
    ) -> bool;

    /// Consume `source`'s summary for this target (pruned path).
    fn node(
        &self,
        source: &SpatialNodeView<'_, Self::Data>,
        prepared: &Self::Prepared,
        target: &mut TargetBucket<Self::State>,
    );

    /// Exact interaction of a source leaf with this target.
    fn leaf(
        &self,
        source: &SpatialNodeView<'_, Self::Data>,
        prepared: &Self::Prepared,
        target: &mut TargetBucket<Self::State>,
    );

    /// Dual-tree hook: when evaluating node–node interactions, `true`
    /// opens both target and source (B² child interactions), `false`
    /// keeps the target and opens only the source (B interactions).
    /// Single-tree traversals ignore this.
    fn cell(
        &self,
        _source: &SpatialNodeView<'_, Self::Data>,
        _target: &SpatialNodeView<'_, Self::Data>,
    ) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_geometry::{Vec3, ROOT_KEY};
    use paratreet_tree::CountData;

    /// A visitor that counts callback invocations in its bucket state.
    struct CountingVisitor;

    #[derive(Clone, Default)]
    struct Calls {
        nodes: usize,
        leaves: usize,
    }

    impl Visitor for CountingVisitor {
        type Data = CountData;
        type State = Calls;
        type Prepared = bool;
        fn prepare(&self, source: &SpatialNodeView<'_, CountData>) -> bool {
            source.n_particles > 1
        }
        fn open(
            &self,
            _s: &SpatialNodeView<'_, CountData>,
            crowded: &bool,
            _t: &TargetBucket<Calls>,
        ) -> bool {
            *crowded
        }
        fn node(&self, _s: &SpatialNodeView<'_, CountData>, _: &bool, t: &mut TargetBucket<Calls>) {
            t.state.nodes += 1;
        }
        fn leaf(&self, _s: &SpatialNodeView<'_, CountData>, _: &bool, t: &mut TargetBucket<Calls>) {
            t.state.leaves += 1;
        }
    }

    #[test]
    fn view_exposes_leaf_particles_only_for_leaves() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let ps = vec![Particle::point_mass(0, 1.0, Vec3::splat(0.5))];
        let leaf = CacheNode::new(ROOT_KEY, b, 1, CountData { count: 1 }, 0, NodeKind::Leaf, ps);
        let internal =
            CacheNode::new(ROOT_KEY, b, 5, CountData { count: 5 }, 0, NodeKind::Internal, vec![]);
        assert_eq!(SpatialNodeView::of(&leaf).particles.len(), 1);
        assert!(SpatialNodeView::of(&internal).particles.is_empty());
    }

    #[test]
    fn visitor_state_lives_in_bucket() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let node =
            CacheNode::new(ROOT_KEY, b, 3, CountData { count: 3 }, 0, NodeKind::Internal, vec![]);
        let v = CountingVisitor;
        let mut bucket = TargetBucket {
            leaf_key: ROOT_KEY,
            particles: vec![Particle::point_mass(0, 1.0, Vec3::ZERO)],
            bbox: b,
            state: Calls::default(),
        };
        let view = SpatialNodeView::of(&node);
        let prepared = v.prepare(&view);
        assert!(v.open(&view, &prepared, &bucket));
        v.node(&view, &prepared, &mut bucket);
        v.leaf(&view, &prepared, &mut bucket);
        assert_eq!(bucket.state.nodes, 1);
        assert_eq!(bucket.state.leaves, 1);
        assert_eq!(bucket.len(), 1);
        assert!(!bucket.is_empty());
        assert!(v.cell(&view, &view), "default cell opens both");
    }
}
