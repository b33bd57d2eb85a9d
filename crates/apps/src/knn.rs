//! k-nearest-neighbour search.
//!
//! The second headline workload of the paper's introduction. kNN prefers
//! the *up-and-down* traversal: each bucket starts at its own leaf, so
//! candidate radii shrink before distant subtrees are considered, and
//! the `open` test prunes against the current k-th distance — "pruning
//! criteria that can change during the traversal" (§II-A-2).

use paratreet_core::{SpatialNodeView, TargetBucket, TargetSpan, Visitor};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_tree::data::wire;
use paratreet_tree::Data;

// The candidate set is `tree::query`'s (the serving layer's kNN uses
// the same one); re-exported here so application code keeps its import
// paths.
pub use paratreet_tree::query::{Candidate, KnnHeap, Neighbor};

/// Tree `Data` for kNN: the tight box of the subtree (for distance
/// pruning) and the particle count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KnnData {
    /// Tight bounding box of the subtree's particles.
    pub tight_box: BoundingBox,
    /// Particles beneath the node.
    pub count: u64,
}

impl Data for KnnData {
    fn from_leaf(particles: &[Particle], _bbox: &BoundingBox) -> Self {
        KnnData {
            tight_box: BoundingBox::around(particles.iter().map(|p| p.pos)),
            count: particles.len() as u64,
        }
    }

    fn merge(&mut self, child: &Self) {
        self.tight_box.merge(&child.tight_box);
        self.count += child.count;
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_vec3(out, self.tight_box.lo);
        wire::put_vec3(out, self.tight_box.hi);
        out.extend_from_slice(&self.count.to_le_bytes());
    }

    fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let mut off = 0;
        let lo = wire::get_vec3(input, &mut off)?;
        let hi = wire::get_vec3(input, &mut off)?;
        let bytes: [u8; 8] = input.get(off..off + 8)?.try_into().ok()?;
        off += 8;
        Some((KnnData { tight_box: BoundingBox { lo, hi }, count: u64::from_le_bytes(bytes) }, off))
    }
}

/// Per-bucket kNN state: one heap per bucket particle (lazily sized on
/// first use, since `Default` cannot know the bucket length or k), and
/// the bucket's pruning bound, kept rather than recomputed: heaps change
/// only in `leaf()`, which leaves `bound` equal to the largest of their
/// bounds.
#[derive(Clone, Debug)]
pub struct KnnState {
    /// One candidate heap per target particle, in bucket order.
    pub heaps: Vec<KnnHeap>,
    bound: f64,
}

impl Default for KnnState {
    /// No candidates yet, so nothing may be pruned: the bound is ∞ (a
    /// derived `0.0` would prune every bucket before its first leaf).
    fn default() -> KnnState {
        KnnState { heaps: Vec::new(), bound: f64::INFINITY }
    }
}

impl KnnState {
    /// The bucket-level pruning radius, squared: the largest k-th
    /// distance over the bucket's particles (∞ until every heap is full).
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// The kNN visitor: exact candidates at leaves, pruning by the bucket's
/// worst current k-th distance everywhere else.
pub struct KnnVisitor {
    /// Number of neighbours to find per particle.
    pub k: usize,
}

impl Visitor for KnnVisitor {
    type Data = KnnData;
    type State = KnnState;
    type Prepared = ();
    type PerTarget = ();

    fn prepare(&self, _source: &SpatialNodeView<'_, KnnData>) {}

    fn open(
        &self,
        source: &SpatialNodeView<'_, KnnData>,
        _: &(),
        target: &TargetBucket<KnnState>,
    ) -> bool {
        if source.data.count == 0 || self.k == 0 {
            return false;
        }
        // Open when the source could contain a particle nearer than the
        // bucket's current worst k-th distance. Distances are measured
        // from the bucket's own box, which lower-bounds every particle's
        // distance to the source region.
        source.data.tight_box.dist_sq_to_box(&target.bbox) < target.state.bound
    }

    fn node(
        &self,
        _source: &SpatialNodeView<'_, KnnData>,
        _: &(),
        _targets: &mut TargetSpan<'_, KnnState>,
    ) {
        // Pruned subtrees contribute no candidates.
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, KnnData>,
        _: &(),
        targets: &mut TargetSpan<'_, KnnState>,
    ) {
        for (particles, target) in targets.buckets() {
            let state = &mut target.state;
            if state.heaps.len() != particles.len() {
                // Built one by one: cloning an empty heap drops its capacity.
                state.heaps = (0..particles.len()).map(|_| KnnHeap::new(self.k)).collect();
            }
            let mut worst = 0.0f64;
            for (tp, heap) in particles.iter().zip(&mut state.heaps) {
                // The bound moves only when an offer is taken. The source
                // box's distance rounds no higher than any of its
                // particles' (the same operations on smaller operands),
                // so a target it does not beat could take no offer.
                let mut bound = heap.bound();
                if source.data.tight_box.dist_sq_to(tp.pos) < bound {
                    for sp in source.particles {
                        if sp.id == tp.id {
                            continue;
                        }
                        let d2 = sp.pos.dist_sq(tp.pos);
                        if d2 < bound {
                            heap.offer(d2, sp.id, ());
                            bound = heap.bound();
                        }
                    }
                }
                worst = worst.max(bound);
            }
            state.bound = worst;
        }
    }
}

/// Convenience: exact k nearest neighbours for every particle via a
/// framework traversal. Returns, per particle id, the ascending-distance
/// neighbour list.
pub fn knn_search(
    particles: Vec<Particle>,
    k: usize,
    config: paratreet_core::Configuration,
    kind: paratreet_core::TraversalKind,
) -> std::collections::HashMap<u64, Vec<Candidate>> {
    let mut fw: paratreet_core::Framework<KnnData> =
        paratreet_core::Framework::new(config, particles);
    let visitor = KnnVisitor { k };
    let ((states, ids), _) = fw.step(|step| {
        let (states, _) = step.traverse(&visitor, kind);
        (states, step.bucket_particle_ids())
    });
    let mut out = std::collections::HashMap::new();
    for (state, bucket_ids) in states.into_iter().zip(ids) {
        for (heap, id) in state.heaps.into_iter().zip(bucket_ids) {
            out.insert(id, heap.into_sorted());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_core::{Configuration, TraversalKind};
    use paratreet_geometry::Vec3;
    use paratreet_particles::gen;
    use paratreet_tree::TreeType;

    #[test]
    fn heap_keeps_k_nearest() {
        let mut h: KnnHeap = KnnHeap::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            h.offer(*d, i as u64, ());
        }
        assert_eq!(h.len(), 3);
        let sorted = h.into_sorted();
        let dists: Vec<f64> = sorted.iter().map(|n| n.dist_sq).collect();
        assert_eq!(dists, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn heap_bound_is_infinite_until_full() {
        let mut h: KnnHeap = KnnHeap::new(2);
        assert_eq!(h.bound(), f64::INFINITY);
        h.offer(1.0, 0, ());
        assert_eq!(h.bound(), f64::INFINITY);
        h.offer(2.0, 1, ());
        assert_eq!(h.bound(), 2.0);
        assert!(!h.is_empty());
    }

    /// Brute-force kNN for validation.
    fn brute_knn(ps: &[Particle], k: usize) -> std::collections::HashMap<u64, Vec<u64>> {
        let mut out = std::collections::HashMap::new();
        for p in ps {
            let mut d: Vec<(f64, u64)> =
                ps.iter().filter(|q| q.id != p.id).map(|q| (q.pos.dist_sq(p.pos), q.id)).collect();
            d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            out.insert(p.id, d.into_iter().take(k).map(|(_, id)| id).collect());
        }
        out
    }

    fn check_knn_matches_brute(kind: TraversalKind, tree: TreeType) {
        let ps = gen::uniform_cube(300, 17, 1.0, 1.0);
        let config = Configuration {
            tree_type: tree,
            bucket_size: 8,
            n_subtrees: 6,
            n_partitions: 5,
            ..Default::default()
        };
        let expected = brute_knn(&ps, 8);
        let got = knn_search(ps, 8, config, kind);
        assert_eq!(got.len(), expected.len());
        for (id, nbrs) in &got {
            let got_ids: Vec<u64> = nbrs.iter().map(|n| n.id).collect();
            assert_eq!(&got_ids, &expected[id], "particle {id} ({kind:?}, {tree:?})");
        }
    }

    #[test]
    fn knn_topdown_octree_matches_brute_force() {
        check_knn_matches_brute(TraversalKind::TopDown, TreeType::Octree);
    }

    #[test]
    fn knn_up_and_down_octree_matches_brute_force() {
        check_knn_matches_brute(TraversalKind::UpAndDown, TreeType::Octree);
    }

    #[test]
    fn knn_up_and_down_kd_matches_brute_force() {
        check_knn_matches_brute(TraversalKind::UpAndDown, TreeType::KdTree);
    }

    #[test]
    fn knn_basic_dfs_matches_brute_force() {
        check_knn_matches_brute(TraversalKind::BasicDfs, TreeType::Octree);
    }

    fn framework(n: usize, seed: u64) -> paratreet_core::Framework<KnnData> {
        let config =
            Configuration { bucket_size: 8, n_subtrees: 6, n_partitions: 5, ..Default::default() };
        paratreet_core::Framework::new(config, gen::clustered(n, 3, seed, 1.0, 1.0))
    }

    #[test]
    fn kept_bound_is_the_largest_heap_bound() {
        assert_eq!(KnnState::default().bound(), f64::INFINITY);
        for kind in [TraversalKind::TopDown, TraversalKind::BasicDfs, TraversalKind::UpAndDown] {
            let (states, _) =
                framework(600, 7).step(|step| step.traverse(&KnnVisitor { k: 8 }, kind).0);
            assert!(!states.is_empty());
            for state in &states {
                assert!(!state.heaps.is_empty(), "{kind:?}: every bucket met its own leaf");
                let largest = state.heaps.iter().map(|h| h.bound()).fold(0.0, f64::max);
                assert_eq!(state.bound().to_bits(), largest.to_bits(), "{kind:?}");
            }
        }
    }

    /// A visitor that only reads its targets writes nothing back: every
    /// byte of every particle record is what it was before the traversal.
    #[test]
    fn traversal_leaves_the_particles_byte_identical() {
        use paratreet_particles::io::to_bytes;
        for kind in [TraversalKind::UpAndDown, TraversalKind::TopDown] {
            framework(600, 11).step(|step| {
                let before = to_bytes(step.particles());
                let (states, _) = step.traverse(&KnnVisitor { k: 8 }, kind);
                assert!(states.iter().all(|s| !s.heaps.is_empty()), "{kind:?}: neighbours found");
                assert!(to_bytes(step.particles()) == before, "{kind:?}");
            });
        }
    }

    /// `leaf` skips a target its source box does not beat, and keeps
    /// what offering every pair kept: sources coincident at exactly the
    /// target's bound (a box distance equal to it) add nothing, as their
    /// offers would have been refused, while coincident sources inside
    /// it are all taken, the bound tightening after each.
    #[test]
    fn leaf_keeps_what_every_pair_offered_kept() {
        use paratreet_core::Targets;
        use paratreet_geometry::ROOT_KEY;
        let target = Particle::point_mass(0, 1.0, Vec3::ZERO);
        let leaf = |id: u64, pos: [f64; 3]| -> Vec<Particle> {
            let pos = Vec3::new(pos[0], pos[1], pos[2]);
            (id..id + 2).map(|id| Particle::point_mass(id, 1.0, pos)).collect()
        };
        // Fills k = 2 at distance² 1, then meets the bound, then beats it.
        let leaves = [leaf(10, [1.0, 0.0, 0.0]), leaf(20, [0.0, 0.0, -1.0]), leaf(30, [0.5; 3])];
        let visitor = KnnVisitor { k: 2 };
        let mut targets = Targets::assemble(&visitor, [(ROOT_KEY, vec![target])]);
        let mut offered: KnnHeap = KnnHeap::new(visitor.k);
        for sources in &leaves {
            let data = KnnData::from_leaf(sources, &BoundingBox::empty());
            let view = SpatialNodeView {
                key: ROOT_KEY,
                bbox: &data.tight_box,
                n_particles: sources.len() as u32,
                data: &data,
                particles: sources,
            };
            visitor.leaf(&view, &(), &mut targets.span(0..1));
            for sp in sources {
                let d2 = sp.pos.dist_sq(target.pos);
                if d2 < offered.bound() {
                    offered.offer(d2, sp.id, ());
                }
            }
            let state = &targets.buckets()[0].state;
            let kept: Vec<u64> =
                state.heaps[0].clone().into_sorted().iter().map(|c| c.id).collect();
            let want: Vec<u64> = offered.clone().into_sorted().iter().map(|c| c.id).collect();
            assert_eq!(kept, want, "after leaf {}", sources[0].id);
            assert_eq!(state.bound().to_bits(), offered.bound().to_bits());
        }
        assert_eq!(offered.bound(), 0.75);
    }

    /// Opens nothing: a traversal with it visits exactly what it seeds.
    struct RefuseAll;

    impl Visitor for RefuseAll {
        type Data = KnnData;
        type State = ();
        type Prepared = ();
        type PerTarget = ();
        fn prepare(&self, _: &SpatialNodeView<'_, KnnData>) {}
        fn open(&self, _: &SpatialNodeView<'_, KnnData>, _: &(), _: &TargetBucket<()>) -> bool {
            false
        }
        fn node(&self, _: &SpatialNodeView<'_, KnnData>, _: &(), _: &mut TargetSpan<'_, ()>) {}
        fn leaf(&self, _: &SpatialNodeView<'_, KnnData>, _: &(), _: &mut TargetSpan<'_, ()>) {}
    }

    #[test]
    fn k_zero_visits_only_its_seeds() {
        for kind in [TraversalKind::UpAndDown, TraversalKind::TopDown] {
            let (seeded, _) = framework(500, 3).step(|step| step.traverse(&RefuseAll, kind).1);
            let ((states, stats), _) =
                framework(500, 3).step(|step| step.traverse(&KnnVisitor { k: 0 }, kind));
            assert!(stats.counts.nodes_visited <= seeded.counts.nodes_visited, "{kind:?}");
            assert_eq!(stats.counts.leaf_interactions, 0, "{kind:?}: leaf() was called");
            assert_eq!(states.iter().flat_map(|s| &s.heaps).map(|h| h.len()).sum::<usize>(), 0);
            let sph = crate::sph::SphSimulation { k: 0, kind, ..Default::default() };
            assert_eq!(sph.step(&mut framework(500, 3)).neighbor_entries, 0);
        }
    }

    #[test]
    fn query_neighbors_carry_their_particles_payload() {
        use paratreet_core::{IncrementalConfig, TreeMaintainer};
        use paratreet_tree::query::knn_query;
        let config = Configuration {
            bucket_size: 8,
            n_subtrees: 6,
            n_partitions: 4,
            incremental: IncrementalConfig { enabled: true, ..Default::default() },
            ..Default::default()
        };
        let mut ps = gen::clustered(900, 3, 29, 1.0, 1.0);
        for p in &mut ps {
            // Distinct payloads, so a handle one slot off is caught.
            p.mass = 1.0 + p.id as f64;
            p.vel = Vec3::new(p.id as f64, -(p.id as f64), 0.5);
        }
        let check = |trees: &[paratreet_tree::BuiltTree<KnnData>]| {
            assert!(trees.iter().filter(|t| !t.particles.is_empty()).count() >= 2);
            let forest: std::collections::HashMap<u64, &Particle> =
                trees.iter().flat_map(|t| &t.particles).map(|p| (p.id, p)).collect();
            for q in forest.values().step_by(17) {
                let found = knn_query(trees, q.pos + Vec3::splat(1e-3), 12);
                assert_eq!(found.len(), 12);
                for n in found {
                    let p = forest[&n.id];
                    assert_eq!((n.pos, n.mass, n.vel), (p.pos, p.mass, p.vel), "id {}", n.id);
                }
            }
        };
        let (mut maintainer, seeded) = TreeMaintainer::<KnnData>::seed(&config, ps, false);
        check(&seeded);
        // Drift far enough that buckets are patched and particles migrate.
        let mut master: Vec<Particle> =
            seeded.iter().flat_map(|t| t.particles.iter().copied()).collect();
        for p in &mut master {
            p.pos += Vec3::new(0.05, -0.03, 0.02) * (1.0 + (p.id % 5) as f64);
        }
        let (patched, round) = maintainer.advance(master);
        assert!(round.stats.n_moved > 0);
        check(&patched);
    }

    #[test]
    fn knn_data_wire_roundtrip() {
        let ps = gen::uniform_cube(10, 3, 1.0, 1.0);
        let d = KnnData::from_leaf(&ps, &BoundingBox::empty());
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let (back, used) = KnnData::decode(&buf).unwrap();
        assert_eq!(back, d);
        assert_eq!(used, buf.len());
    }
}
