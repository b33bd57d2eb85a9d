//! Top-down tree construction with bottom-up `Data` accumulation.
//!
//! "Starting with a set of assigned particles and an artificial root
//! node, each processor recursively creates node children and assigns
//! them particles until each leaf represents a bucket" (paper §I). The
//! builder reorders its particle array in place so that every leaf owns a
//! contiguous range, then fills `Data` from the leaves toward the root.
//!
//! Large nodes split in parallel with rayon; each child subtree builds
//! into its own local arena and the parent stitches the arenas together,
//! so no synchronisation is needed during the build itself — the same
//! "limits synchronization during tree build" property the paper gets
//! from building Subtrees independently.

use crate::node::{BuildNode, BuiltTree, NodeIdx, NodeShape, NO_NODE};
use crate::{cut, Data, TreeType};
use paratreet_geometry::{BoundingBox, NodeKey, ROOT_KEY};
use paratreet_particles::Particle;
use rayon::prelude::*;

/// Below this many particles a node always splits sequentially.
const PARALLEL_THRESHOLD: usize = 4096;

/// Configuration for building one (sub)tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeBuilder {
    /// Which split rule to apply.
    pub tree_type: TreeType,
    /// Maximum particles per leaf bucket (the paper's `max_bucket_size`).
    pub bucket_size: usize,
    /// Split large nodes with rayon.
    pub parallel: bool,
    /// Key of the subtree root in the global tree ([`ROOT_KEY`] when
    /// building a whole tree).
    pub root_key: NodeKey,
    /// Depth of the subtree root below the global root (drives k-d axis
    /// cycling so a subtree splits the same way the global tree would).
    pub root_depth: u32,
}

impl TreeBuilder {
    /// A builder for a whole tree with the paper-ish default bucket size.
    pub fn new(tree_type: TreeType) -> TreeBuilder {
        TreeBuilder {
            tree_type,
            bucket_size: 16,
            parallel: true,
            root_key: ROOT_KEY,
            root_depth: 0,
        }
    }

    /// Sets the bucket size.
    pub fn bucket_size(mut self, b: usize) -> TreeBuilder {
        assert!(b > 0, "bucket size must be positive");
        self.bucket_size = b;
        self
    }

    /// Enables or disables rayon splitting.
    pub fn parallel(mut self, p: bool) -> TreeBuilder {
        self.parallel = p;
        self
    }

    /// Builds this subtree rooted at `root_key` covering `root_bbox`.
    ///
    /// Takes ownership of the particles, reorders them, and returns the
    /// arena plus the reordered array. For octrees, `root_bbox` should be
    /// (an octant of) a cube so octants stay cubical.
    pub fn build<D: Data>(
        &self,
        mut particles: Vec<Particle>,
        root_bbox: BoundingBox,
    ) -> BuiltTree<D> {
        let bits = self.tree_type.bits_per_level();
        // Stop splitting when the key cannot hold another digit.
        let max_depth = (63 - self.root_key.level(bits) * bits) / bits;
        let arena = self.node_arena(
            &mut particles,
            0,
            root_bbox,
            self.root_key,
            self.root_depth,
            0,
            max_depth,
        );
        BuiltTree { nodes: arena, particles, bits_per_level: bits }
    }

    /// Recursively builds the node for `particles` into a local arena
    /// whose root is index 0. Bucket ranges are absolute (offset by
    /// `offset`); child arena indices are stitched by the caller's frame.
    #[allow(clippy::too_many_arguments)]
    fn node_arena<D: Data>(
        &self,
        particles: &mut [Particle],
        offset: u32,
        bbox: BoundingBox,
        key: NodeKey,
        global_depth: u32,
        local_depth: u32,
        max_local_depth: u32,
    ) -> Vec<BuildNode<D>> {
        let n = particles.len() as u32;
        if particles.is_empty() {
            return vec![BuildNode {
                key,
                bbox,
                shape: NodeShape::Empty,
                children: [NO_NODE; 8],
                data: D::default(),
                n_particles: 0,
                depth: local_depth,
            }];
        }
        if particles.len() <= self.bucket_size || local_depth >= max_local_depth {
            // `local_depth == max_local_depth` forces a (possibly oversize)
            // leaf when key bits run out — only reachable with many
            // coincident particles.
            // The leaf keeps the region box; `Data` sees the bucket.
            return vec![BuildNode {
                key,
                bbox,
                shape: NodeShape::Leaf { start: offset, end: offset + n },
                children: [NO_NODE; 8],
                data: D::from_leaf(particles, &bbox),
                n_particles: n,
                depth: local_depth,
            }];
        }

        // Split the slice into per-child groups plus their boxes/keys.
        let groups = cut::split(self.tree_type, particles, |p| p.pos, &bbox, key, global_depth);

        // Recurse — in parallel when the node is big enough.
        let mut tasks: Vec<(cut::Child, &mut [Particle], u32)> = Vec::with_capacity(groups.len());
        let (mut rest, mut running) = (particles, offset);
        for c in groups {
            let (head, tail) = rest.split_at_mut(c.len);
            tasks.push((c, head, running));
            (rest, running) = (tail, running + c.len as u32);
        }
        let build_child = |(c, slice, off): (cut::Child, &mut [Particle], u32)| {
            let arena = self.node_arena::<D>(
                slice,
                off,
                c.bbox,
                c.key,
                global_depth + 1,
                local_depth + 1,
                max_local_depth,
            );
            (c.slot, arena)
        };
        let child_arenas: Vec<(usize, Vec<BuildNode<D>>)> =
            if self.parallel && n as usize >= PARALLEL_THRESHOLD {
                tasks.into_par_iter().map(build_child).collect()
            } else {
                tasks.into_iter().map(build_child).collect()
            };

        // Stitch: parent at index 0, then each child arena with indices
        // shifted by its base.
        let total: usize = 1 + child_arenas.iter().map(|(_, a)| a.len()).sum::<usize>();
        let mut arena = Vec::with_capacity(total);
        let mut parent = BuildNode {
            key,
            bbox,
            shape: NodeShape::Internal,
            children: [NO_NODE; 8],
            data: D::default(),
            n_particles: n,
            depth: local_depth,
        };
        // Reserve slot 0 for the parent; fill after children are placed.
        arena.push(parent.clone());
        for (slot, child_arena) in child_arenas {
            let base = arena.len() as NodeIdx;
            parent.children[slot] = base;
            parent.data.merge(&child_arena[0].data);
            for mut node in child_arena {
                for c in node.children.iter_mut() {
                    if *c != NO_NODE {
                        *c += base;
                    }
                }
                arena.push(node);
            }
        }
        arena[0] = parent;
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::count_reachable;
    use crate::CountData;
    use paratreet_particles::gen;
    use paratreet_particles::ParticleVec;

    fn build(tree_type: TreeType, n: usize, bucket: usize) -> BuiltTree<CountData> {
        let ps = gen::uniform_cube(n, 42, 1.0, 1.0);
        let bbox = ps.bounding_box().padded(1e-9);
        let bbox = if tree_type == TreeType::Octree { bbox.bounding_cube() } else { bbox };
        TreeBuilder::new(tree_type).bucket_size(bucket).build(ps, bbox)
    }

    #[test]
    fn octree_build_is_valid() {
        let t = build(TreeType::Octree, 2000, 16);
        t.validate(16).unwrap();
        assert_eq!(t.root().n_particles, 2000);
        assert_eq!(t.root().data.count, 2000);
        assert_eq!(count_reachable(&t), t.nodes.len());
    }

    #[test]
    fn kd_build_is_valid_and_balanced() {
        let t = build(TreeType::KdTree, 1024, 8);
        t.validate(8).unwrap();
        // Median splits: depth is exactly ceil(log2(1024/8)) = 7.
        assert_eq!(t.max_depth(), 7);
        // All leaves within one level of each other in size.
        for &l in &t.leaf_indices() {
            let n = t.node(l).n_particles;
            assert!(n == 8, "kd leaf of {n} particles");
        }
    }

    #[test]
    fn longest_dim_prefers_long_axis() {
        // A pancake distribution: x spans 100, y and z span 1. The first
        // several splits must all be along x.
        let mut ps = gen::uniform_cube(512, 7, 0.5, 1.0);
        for p in &mut ps {
            p.pos.x *= 100.0;
        }
        let bbox = ps.bounding_box().padded(1e-9);
        let t: BuiltTree<CountData> =
            TreeBuilder::new(TreeType::LongestDim).bucket_size(16).build(ps, bbox);
        t.validate(16).unwrap();
        // Root's children split along x: their boxes tile in x.
        let root = t.root();
        let c0 = t.node(root.children[0]);
        let c1 = t.node(root.children[1]);
        assert_eq!(c0.bbox.hi.x, c1.bbox.lo.x);
        assert_eq!(c0.bbox.lo.y, c1.bbox.lo.y);
    }

    #[test]
    fn buckets_tile_particle_array() {
        let t = build(TreeType::Octree, 500, 10);
        let leaves = t.leaf_indices();
        let mut covered = 0;
        for &l in &leaves {
            let r = t.node(l).bucket_range().unwrap();
            assert_eq!(r.start, covered, "buckets must be contiguous in DFS order");
            covered = r.end;
        }
        assert_eq!(covered, t.particles.len());
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let ps = gen::clustered(6000, 3, 5, 1.0, 1.0);
        let bbox = ps.bounding_box().padded(1e-9).bounding_cube();
        let seq: BuiltTree<CountData> =
            TreeBuilder::new(TreeType::Octree).parallel(false).build(ps.clone(), bbox);
        // The root is above the parallel threshold, so its children
        // build as one region: the same arena at any thread count.
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let par: BuiltTree<CountData> = pool.install(|| {
                TreeBuilder::new(TreeType::Octree).parallel(true).build(ps.clone(), bbox)
            });
            assert_eq!(seq.nodes.len(), par.nodes.len());
            for (a, b) in seq.nodes.iter().zip(&par.nodes) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.shape, b.shape);
                assert_eq!(a.children, b.children);
                assert_eq!(a.data, b.data);
            }
            assert_eq!(seq.particles, par.particles, "{threads} threads");
        }
    }

    #[test]
    fn coincident_particles_terminate() {
        // 100 particles at the same point: octree cannot separate them;
        // the build must cap depth and emit one oversize leaf.
        let ps: Vec<_> = (0..100)
            .map(|i| {
                paratreet_particles::Particle::point_mass(
                    i,
                    1.0,
                    paratreet_geometry::Vec3::splat(0.5),
                )
            })
            .collect();
        let bbox =
            BoundingBox::new(paratreet_geometry::Vec3::ZERO, paratreet_geometry::Vec3::splat(1.0));
        let t: BuiltTree<CountData> =
            TreeBuilder::new(TreeType::Octree).bucket_size(4).build(ps, bbox);
        assert_eq!(t.root().n_particles, 100);
        let leaves = t.leaf_indices();
        assert_eq!(leaves.len(), 1);
        assert_eq!(t.node(leaves[0]).n_particles, 100);
    }

    #[test]
    fn subtree_root_key_prefixes_all_nodes() {
        let sub_key = ROOT_KEY.child(5, 3);
        let ps = gen::uniform_cube(300, 3, 1.0, 1.0);
        let bbox = ps.bounding_box().padded(1e-9).bounding_cube();
        let builder =
            TreeBuilder { root_key: sub_key, root_depth: 1, ..TreeBuilder::new(TreeType::Octree) };
        let t: BuiltTree<CountData> = builder.build(ps, bbox.octant(5));
        for n in &t.nodes {
            assert!(n.key == sub_key || sub_key.is_ancestor_of(n.key, 3));
        }
    }

    #[test]
    fn single_particle_tree() {
        let t = build(TreeType::Octree, 1, 16);
        t.validate(16).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert!(t.root().is_leaf());
    }

    #[test]
    fn empty_particle_set_yields_empty_root() {
        let bbox =
            BoundingBox::new(paratreet_geometry::Vec3::ZERO, paratreet_geometry::Vec3::splat(1.0));
        let t: BuiltTree<CountData> = TreeBuilder::new(TreeType::Octree).build(vec![], bbox);
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.root().shape, NodeShape::Empty);
    }

    #[test]
    fn data_counts_match_everywhere() {
        let t = build(TreeType::KdTree, 777, 12);
        for n in &t.nodes {
            assert_eq!(n.data.count, n.n_particles as u64);
        }
    }

    #[test]
    fn clustered_octree_is_deeper_than_uniform() {
        let mk = |ps: Vec<paratreet_particles::Particle>| {
            let bbox = ps.bounding_box().padded(1e-9).bounding_cube();
            TreeBuilder::new(TreeType::Octree).bucket_size(8).build::<CountData>(ps, bbox)
        };
        let uni = mk(gen::uniform_cube(4000, 9, 1.0, 1.0));
        let clu = mk(gen::clustered(4000, 3, 9, 1.0, 1.0));
        assert!(
            clu.max_depth() > uni.max_depth(),
            "clustered {} vs uniform {}",
            clu.max_depth(),
            uni.max_depth()
        );
    }
}
