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
//! of Curtin et al., *Tree-Independent Dual-Tree Algorithms*), and what
//! they derive from a target bucket alone once per bucket by
//! [`Visitor::prepare_target`]. `open` is asked bucket by bucket, but the
//! buckets that give one node the same answer are neighbours in SFC
//! order, so `node` and `leaf` take a [`TargetSpan`]: a run of adjacent
//! buckets of one Partition, applied in one call.

use paratreet_cache::{CacheNode, CacheTree};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_tree::Data;
use std::ops::Range;

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
    /// Builds a view over a node of `cache`.
    pub fn of(cache: &'a CacheTree<D>, node: &'a CacheNode<D>) -> SpatialNodeView<'a, D> {
        SpatialNodeView {
            key: node.key,
            bbox: &node.bbox,
            n_particles: node.n_particles,
            data: &node.data,
            particles: cache.particles(node),
        }
    }
}

/// A target-particle field a visitor can ask for as a *lane*: one
/// contiguous `f64` column per field over a Partition's targets, in
/// bucket order, instead of 152-byte [`Particle`] records
/// ([`Visitor::LANES`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// `pos.x`.
    PosX,
    /// `pos.y`.
    PosY,
    /// `pos.z`.
    PosZ,
    /// `mass`.
    Mass,
    /// `softening`.
    Softening,
    /// `id`, its 64 bits carried in an `f64` (`f64::from_bits`).
    Id,
    /// `acc.x`.
    AccX,
    /// `acc.y`.
    AccY,
    /// `acc.z`.
    AccZ,
    /// `potential`.
    Potential,
}

impl Lane {
    /// The lane's value for `p`.
    pub fn get(self, p: &Particle) -> f64 {
        match self {
            Lane::PosX => p.pos.x,
            Lane::PosY => p.pos.y,
            Lane::PosZ => p.pos.z,
            Lane::Mass => p.mass,
            Lane::Softening => p.softening,
            Lane::Id => f64::from_bits(p.id),
            Lane::AccX => p.acc.x,
            Lane::AccY => p.acc.y,
            Lane::AccZ => p.acc.z,
            Lane::Potential => p.potential,
        }
    }

    /// Stores the lane's value `v` into `p`.
    pub fn set(self, p: &mut Particle, v: f64) {
        match self {
            Lane::PosX => p.pos.x = v,
            Lane::PosY => p.pos.y = v,
            Lane::PosZ => p.pos.z = v,
            Lane::Mass => p.mass = v,
            Lane::Softening => p.softening = v,
            Lane::Id => p.id = v.to_bits(),
            Lane::AccX => p.acc.x = v,
            Lane::AccY => p.acc.y = v,
            Lane::AccZ => p.acc.z = v,
            Lane::Potential => p.potential = v,
        }
    }
}

/// The lanes a visitor's `node` and `leaf` see their targets through. A
/// visitor that declares any lane gets columns and no records.
#[derive(Clone, Copy, Debug)]
pub struct TargetLanes {
    /// Fields read as lanes.
    pub reads: &'static [Lane],
    /// Fields accumulated into as lanes: gathered before the traversal,
    /// returned to the particles after it.
    pub writes: &'static [Lane],
}

impl TargetLanes {
    /// No lanes: the targets are [`Particle`] records.
    pub const NONE: TargetLanes = TargetLanes { reads: &[], writes: &[] };
}

/// Lane slices reach to a whole number of groups of this many values, so
/// a kernel may load and compute full-width over a span's short last
/// group ([`TargetSpan::lanes`]).
pub const LANE_GROUP: usize = 8;

/// One target bucket of a Partition: where its particles lie in the
/// Partition's target arrays ([`crate::Targets`]), their tight box, and
/// the visitor's per-bucket values.
///
/// Buckets are handed to Partitions during the leaf-sharing step; a
/// bucket whose particles span two Partitions is *split* into local
/// buckets (Fig. 5), so a target bucket may be a strict subset of a tree
/// leaf.
#[derive(Clone, Debug)]
pub struct TargetBucket<S, T = ()> {
    /// Key of the tree leaf this bucket came from.
    pub leaf_key: NodeKey,
    /// Tight bounding box of the bucket's particles.
    pub bbox: BoundingBox,
    /// The bucket's stretch of its Partition's target arrays. Adjacent
    /// buckets have adjacent stretches.
    pub range: Range<usize>,
    /// Visitor-defined per-bucket state (e.g. k-NN candidate heaps).
    pub state: S,
    /// What [`Visitor::prepare_target`] derived from the bucket's
    /// particles.
    pub prepared: T,
}

impl<S, T> TargetBucket<S, T> {
    /// Number of particles in the bucket.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True when the bucket holds no particles (no assembled bucket does).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// A run of adjacent target buckets of one Partition — what `node` and
/// `leaf` are applied to. The traversal extends a run while consecutive
/// buckets give a work item the same outcome; a single-bucket item makes
/// spans of one.
///
/// A visitor that declares no lanes sees the span's particles as one
/// slice of the Partition's flat array ([`TargetSpan::particles_mut`])
/// or, where it keeps per-bucket state, bucket by bucket
/// ([`TargetSpan::buckets`]). One that declares lanes
/// sees columns ([`TargetSpan::lanes`]) and no records.
pub struct TargetSpan<'a, S, T = ()> {
    pub(crate) buckets: &'a mut [TargetBucket<S, T>],
    /// The span's records (empty when lanes are declared).
    pub(crate) particles: &'a mut [Particle],
    /// Whole read columns of the Partition.
    pub(crate) reads: &'a [Vec<f64>],
    /// Whole write columns of the Partition.
    pub(crate) writes: &'a mut [Vec<f64>],
    /// The span's stretch of the Partition's target arrays.
    pub(crate) range: Range<usize>,
    /// Set when records are handed out mutably: write-back copies them.
    pub(crate) dirty: &'a mut bool,
}

impl<S, T> TargetSpan<'_, S, T> {
    /// The span's particles, writable: what a visitor accumulates here
    /// returns to the master array after the traversal.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        *self.dirty = true;
        self.particles
    }

    /// The span bucket by bucket: each bucket's particles beside its box,
    /// state and prepared value.
    pub fn buckets(&mut self) -> impl Iterator<Item = (&[Particle], &mut TargetBucket<S, T>)> {
        let (start, particles) = (self.range.start, &*self.particles);
        self.buckets.iter_mut().map(move |b| {
            let own = particles.get(b.range.start - start..b.range.end - start);
            (own.unwrap_or_default(), b)
        })
    }

    /// The span's stretch of the `R` read and `W` write lanes the visitor
    /// declared, in declaration order, and the number of live values.
    /// Every slice reaches past them to a whole number of
    /// [`LANE_GROUP`]s: what lies there is the next bucket's values (or
    /// zeros at the end of the Partition), free to load and compute on;
    /// a kernel stores back live values only.
    pub fn lanes<const R: usize, const W: usize>(
        &mut self,
    ) -> ([&[f64]; R], [&mut [f64]; W], usize) {
        assert!(
            self.reads.len() == R && self.writes.len() == W,
            "the visitor declares {} read and {} write lanes",
            self.reads.len(),
            self.writes.len()
        );
        let live = self.range.len();
        let padded = self.range.start..self.range.start + live.next_multiple_of(LANE_GROUP);
        let reads = std::array::from_fn(|i| &self.reads[i][padded.clone()]);
        let mut writes = self.writes.iter_mut();
        let writes = std::array::from_fn(|_| {
            &mut writes.next().expect("W columns, checked above")[padded.clone()]
        });
        (reads, writes, live)
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
    /// What the callbacks derive from a target bucket alone (`()` when
    /// there is nothing worth hoisting).
    type PerTarget: Default + Clone + Send + Sync + 'static;

    /// The target fields `node` and `leaf` see as lanes.
    const LANES: TargetLanes = TargetLanes::NONE;

    /// Derives the per-node values. Must be a pure function of `source`
    /// (and `self`): the traversal calls it once per work item and
    /// passes the result to every `open`/`node`/`leaf` of that item.
    fn prepare(&self, source: &SpatialNodeView<'_, Self::Data>) -> Self::Prepared;

    /// Derives the per-target values from a bucket's particles, once,
    /// when the Partition's targets are assembled; every callback that
    /// meets the bucket reads them in [`TargetBucket::prepared`].
    fn prepare_target(&self, _particles: &[Particle]) -> Self::PerTarget {
        Self::PerTarget::default()
    }

    /// Should the traversal descend below `source` for this target?
    fn open(
        &self,
        source: &SpatialNodeView<'_, Self::Data>,
        prepared: &Self::Prepared,
        target: &TargetBucket<Self::State, Self::PerTarget>,
    ) -> bool;

    /// Consume `source`'s summary for these targets (pruned path).
    fn node(
        &self,
        source: &SpatialNodeView<'_, Self::Data>,
        prepared: &Self::Prepared,
        targets: &mut TargetSpan<'_, Self::State, Self::PerTarget>,
    );

    /// Exact interaction of a source leaf with these targets.
    fn leaf(
        &self,
        source: &SpatialNodeView<'_, Self::Data>,
        prepared: &Self::Prepared,
        targets: &mut TargetSpan<'_, Self::State, Self::PerTarget>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Targets;
    use paratreet_cache::SubtreeSummary;
    use paratreet_geometry::{Vec3, ROOT_KEY};
    use paratreet_tree::{CountData, TreeBuilder, TreeType};

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
        type PerTarget = ();
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
        fn node(
            &self,
            _s: &SpatialNodeView<'_, CountData>,
            _: &bool,
            t: &mut TargetSpan<'_, Calls>,
        ) {
            t.buckets().for_each(|(_, b)| b.state.nodes += 1);
        }
        fn leaf(
            &self,
            _s: &SpatialNodeView<'_, CountData>,
            _: &bool,
            t: &mut TargetSpan<'_, Calls>,
        ) {
            t.buckets().for_each(|(_, b)| b.state.leaves += 1);
        }
    }

    /// A cache over two particles in opposite octants of the unit cube:
    /// an internal root over two one-particle leaves.
    fn two_leaf_cache() -> CacheTree<CountData> {
        let ps = [0.25, 0.75].map(|x| Particle::point_mass(0, 1.0, Vec3::splat(x)));
        let builder = TreeBuilder::new(TreeType::Octree).bucket_size(1).parallel(false);
        let tree = builder.build(ps.into(), BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0)));
        let (root, cache) = (tree.root(), CacheTree::new(0, 3));
        let (key, bbox, n_particles, data) = (root.key, root.bbox, root.n_particles, root.data);
        cache.init(&[SubtreeSummary { key, bbox, n_particles, data, home_rank: 0 }], vec![tree]);
        cache
    }

    #[test]
    fn view_exposes_leaf_particles_only_for_leaves() {
        let cache = two_leaf_cache();
        let internal = cache.root().unwrap();
        let leaf = cache.children(internal, 8).next().unwrap();
        assert!(leaf.is_leaf());
        assert_eq!(SpatialNodeView::of(&cache, leaf).particles.len(), 1);
        assert!(SpatialNodeView::of(&cache, internal).particles.is_empty());
    }

    #[test]
    fn visitor_state_lives_in_bucket() {
        let cache = two_leaf_cache();
        let node = cache.root().unwrap();
        let v = CountingVisitor;
        let mut targets =
            Targets::assemble(&v, [(ROOT_KEY, [Particle::point_mass(0, 1.0, Vec3::ZERO)])]);
        let view = SpatialNodeView::of(&cache, node);
        let prepared = v.prepare(&view);
        assert!(v.open(&view, &prepared, &targets.buckets()[0]));
        v.node(&view, &prepared, &mut targets.span(0..1));
        v.leaf(&view, &prepared, &mut targets.span(0..1));
        let bucket = &targets.buckets()[0];
        assert_eq!(bucket.state.nodes, 1);
        assert_eq!(bucket.state.leaves, 1);
        assert_eq!(bucket.len(), 1);
        assert!(!bucket.is_empty());
    }
}
