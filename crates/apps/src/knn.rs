//! k-nearest-neighbour search.
//!
//! The second headline workload of the paper's introduction. kNN prefers
//! the *up-and-down* traversal: each bucket starts at its own leaf, so
//! candidate radii shrink before distant subtrees are considered, and
//! the `open` test prunes against the current k-th distance — "pruning
//! criteria that can change during the traversal" (§II-A-2).

use paratreet_core::{SpatialNodeView, TargetBucket, Visitor};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_tree::data::wire;
use paratreet_tree::Data;

// The candidate types and the bounded heap moved to the shared
// `tree::query` kernel module (the serving layer uses them too);
// re-exported here so application code keeps its import paths.
pub use paratreet_tree::query::{KnnHeap, Neighbor};

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
/// first use, since `Default` cannot know the bucket length or k).
#[derive(Clone, Debug, Default)]
pub struct KnnState {
    /// One candidate heap per target particle, in bucket order.
    pub heaps: Vec<KnnHeap>,
}

/// The kNN visitor: exact candidates at leaves, pruning by the bucket's
/// worst current k-th distance everywhere else.
pub struct KnnVisitor {
    /// Number of neighbours to find per particle.
    pub k: usize,
}

impl KnnVisitor {
    fn ensure_state(&self, target: &mut TargetBucket<KnnState>) {
        if target.state.heaps.len() != target.particles.len() {
            target.state.heaps = vec![KnnHeap::new(self.k); target.particles.len()];
        }
    }

    /// The bucket-level pruning radius: the largest k-th-distance bound
    /// over the bucket's particles (infinite until every heap is full).
    fn bucket_bound(target: &TargetBucket<KnnState>) -> f64 {
        if target.state.heaps.is_empty() {
            return f64::INFINITY;
        }
        target.state.heaps.iter().map(|h| h.bound()).fold(0.0, f64::max)
    }
}

impl Visitor for KnnVisitor {
    type Data = KnnData;
    type State = KnnState;
    type Prepared = ();

    fn prepare(&self, _source: &SpatialNodeView<'_, KnnData>) {}

    fn open(
        &self,
        source: &SpatialNodeView<'_, KnnData>,
        _: &(),
        target: &TargetBucket<KnnState>,
    ) -> bool {
        if source.data.count == 0 {
            return false;
        }
        // Open when the source could contain a particle nearer than the
        // bucket's current worst k-th distance. Distances are measured
        // from the bucket's own box, which lower-bounds every particle's
        // distance to the source region.
        source.data.tight_box.dist_sq_to_box(&target.bbox) < Self::bucket_bound(target)
    }

    fn node(
        &self,
        _source: &SpatialNodeView<'_, KnnData>,
        _: &(),
        _target: &mut TargetBucket<KnnState>,
    ) {
        // Pruned subtrees contribute no candidates.
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, KnnData>,
        _: &(),
        target: &mut TargetBucket<KnnState>,
    ) {
        self.ensure_state(target);
        let state = &mut target.state;
        for (ti, tp) in target.particles.iter().enumerate() {
            let heap = &mut state.heaps[ti];
            for sp in source.particles {
                if sp.id == tp.id {
                    continue;
                }
                let d2 = sp.pos.dist_sq(tp.pos);
                if d2 < heap.bound() {
                    heap.offer(Neighbor {
                        dist_sq: d2,
                        id: sp.id,
                        pos: sp.pos,
                        mass: sp.mass,
                        vel: sp.vel,
                    });
                }
            }
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
) -> std::collections::HashMap<u64, Vec<Neighbor>> {
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
        let mut h = KnnHeap::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            h.offer(Neighbor {
                dist_sq: *d,
                id: i as u64,
                pos: Vec3::ZERO,
                mass: 1.0,
                vel: Vec3::ZERO,
            });
        }
        assert_eq!(h.len(), 3);
        let sorted = h.into_sorted();
        let dists: Vec<f64> = sorted.iter().map(|n| n.dist_sq).collect();
        assert_eq!(dists, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn heap_bound_is_infinite_until_full() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.bound(), f64::INFINITY);
        h.offer(Neighbor { dist_sq: 1.0, id: 0, pos: Vec3::ZERO, mass: 1.0, vel: Vec3::ZERO });
        assert_eq!(h.bound(), f64::INFINITY);
        h.offer(Neighbor { dist_sq: 2.0, id: 1, pos: Vec3::ZERO, mass: 1.0, vel: Vec3::ZERO });
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
