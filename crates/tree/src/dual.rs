//! One dual-tree walk over two built arenas, with what it does at a
//! node pair left to a rule set — the split of Curtin et al.,
//! *Tree-Independent Dual-Tree Algorithms*: the tree, the traversal and
//! the rules are independent parts. The walk owns the order: it skips
//! empty nodes, takes a same-tree walk's diagonal as ordered child pairs
//! (so each off-diagonal pair is met once) down to a leaf's pair with
//! itself, and opens the fatter cell of two internal nodes. The
//! [`Rules`] own the rest: whether a node pair is worth descending into
//! ([`Rules::score`], which may credit the pair as a whole before it
//! prunes it) and the leaf pairs the walk bottoms out at
//! ([`Rules::base_case`]).
//!
//! Friends-of-friends linking (`apps::fof`) and two-point pair counting
//! (`apps::correlation`) are the rule sets. Both prune on the tight
//! boxes of their nodes' particles ([`tight_boxes`]), not on the nodes'
//! cells, which in sparse regions are far larger than what they hold.

use crate::node::{BuiltTree, NodeIdx, NodeShape};
use crate::Data;
use paratreet_geometry::BoundingBox;

/// What a dual-tree walk does at the node pairs it meets.
pub trait Rules {
    /// Whether the walk descends below the node pair `(ai, bi)`: `false`
    /// prunes it, after crediting whatever the pair contributes as a
    /// whole. In a same-tree walk the diagonal pair `(i, i)` is scored
    /// too.
    fn score(&mut self, ai: NodeIdx, bi: NodeIdx) -> bool;

    /// The leaf pair `(ai, bi)`. `diagonal` marks a same-tree walk's leaf
    /// paired with itself, whose particle pairs are its `i < j` ones; a
    /// walk over two trees never sets it, even where both trees number a
    /// leaf alike.
    fn base_case(&mut self, ai: NodeIdx, bi: NodeIdx, diagonal: bool);
}

/// Walks the node pairs of trees `a` and `b` from their roots under
/// `rules`. With `same_tree` (`a` and `b` are one tree), a node pair
/// below the diagonal is never met, so each unordered pair of distinct
/// particles reaches a base case once; otherwise every pair across the
/// two trees does. The trees may carry different `Data`.
pub fn walk<A: Data, B: Data, R: Rules>(
    a: &BuiltTree<A>,
    b: &BuiltTree<B>,
    same_tree: bool,
    rules: &mut R,
) {
    descend(a, 0, b, 0, same_tree, rules);
}

fn descend<A: Data, B: Data, R: Rules>(
    a: &BuiltTree<A>,
    ai: NodeIdx,
    b: &BuiltTree<B>,
    bi: NodeIdx,
    same_tree: bool,
    rules: &mut R,
) {
    let na = &a.nodes[ai as usize];
    let nb = &b.nodes[bi as usize];
    if na.n_particles == 0 || nb.n_particles == 0 || !rules.score(ai, bi) {
        return;
    }
    // A same-tree walk's node against itself: both sides are one node.
    let diagonal = same_tree && ai == bi;
    match (na.shape, nb.shape) {
        (NodeShape::Leaf { .. }, NodeShape::Leaf { .. }) => rules.base_case(ai, bi, diagonal),
        (NodeShape::Internal, NodeShape::Internal) if diagonal => {
            // Expand both sides together, keeping child pairs ordered so
            // each off-diagonal pair is visited exactly once.
            let (mut kids, mut n_kids) = ([0 as NodeIdx; 8], 0);
            for c in na.child_indices() {
                kids[n_kids] = c;
                n_kids += 1;
            }
            let kids = &kids[..n_kids];
            for (i, &ca) in kids.iter().enumerate() {
                for &cb in &kids[i..] {
                    descend(a, ca, b, cb, same_tree, rules);
                }
            }
        }
        (NodeShape::Internal, NodeShape::Leaf { .. }) => {
            for ca in na.child_indices() {
                descend(a, ca, b, bi, same_tree, rules);
            }
        }
        (NodeShape::Leaf { .. }, NodeShape::Internal) => {
            for cb in nb.child_indices() {
                descend(a, ai, b, cb, same_tree, rules);
            }
        }
        (NodeShape::Internal, NodeShape::Internal) => {
            // Open the fatter cell: fewer pair visits for skewed depths.
            if na.bbox.size().max_component() >= nb.bbox.size().max_component() {
                for ca in na.child_indices() {
                    descend(a, ca, b, bi, same_tree, rules);
                }
            } else {
                for cb in nb.child_indices() {
                    descend(a, ai, b, cb, same_tree, rules);
                }
            }
        }
        _ => {}
    }
}

/// The tight box of each node's particles, by node index: a leaf's grows
/// over its bucket, an internal node's merges its children's, an empty
/// node's is empty. Builds and seam splits both emit nodes in pre-order,
/// so one pass in reverse node order meets every child before its
/// parent.
pub fn tight_boxes<D: Data>(tree: &BuiltTree<D>) -> Vec<BoundingBox> {
    let mut tight = vec![BoundingBox::empty(); tree.nodes.len()];
    for (i, node) in tree.nodes.iter().enumerate().rev() {
        match node.shape {
            NodeShape::Leaf { start, end } => {
                let bucket = &tree.particles[start as usize..end as usize];
                tight[i] = BoundingBox::around(bucket.iter().map(|p| p.pos));
            }
            NodeShape::Internal => {
                for c in node.child_indices() {
                    assert!(c as usize > i, "node {c} is a child of the later node {i}");
                    let child = tight[c as usize];
                    tight[i].merge(&child);
                }
            }
            NodeShape::Empty => {}
        }
    }
    tight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountData, TreeBuilder, TreeType};
    use paratreet_geometry::{Vec3, ROOT_KEY};
    use paratreet_particles::Particle;

    /// Prunes nothing and records every particle pair its base cases see,
    /// by particle id.
    struct AllPairs<'a> {
        a: &'a BuiltTree<CountData>,
        b: &'a BuiltTree<CountData>,
        pairs: Vec<(u64, u64)>,
    }

    impl Rules for AllPairs<'_> {
        fn score(&mut self, _: NodeIdx, _: NodeIdx) -> bool {
            true
        }

        fn base_case(&mut self, ai: NodeIdx, bi: NodeIdx, diagonal: bool) {
            let (pa, pb) = (self.a.bucket(ai), self.b.bucket(bi));
            assert!(!pa.is_empty() && !pb.is_empty(), "a base case meets two leaves");
            for (i, p) in pa.iter().enumerate() {
                let partners = if diagonal { &pb[i + 1..] } else { pb };
                self.pairs.extend(partners.iter().map(|q| (p.id, q.id)));
            }
        }
    }

    fn cloud(ids: std::ops::Range<u64>, shift: f64) -> Vec<Particle> {
        ids.map(|id| {
            let t = id as f64 * 0.754877666;
            let u = id as f64 * 0.569840296;
            let pos = Vec3::new(t.fract() * 0.5 + shift, u.fract(), (t + u).fract());
            Particle { id, mass: 1.0, pos, ..Particle::default() }
        })
        .collect()
    }

    /// With nothing pruned, a same-tree walk meets every unordered pair of
    /// distinct particles once and a walk over two trees every pair across
    /// them once, on every tree type — the diagonal's ordered child pairs
    /// and the fatter-cell split lose and repeat nothing.
    #[test]
    fn every_pair_is_met_exactly_once() {
        let unit = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let (left, right) = (cloud(0..300, 0.0), cloud(300..420, 0.5));
        for tree_type in
            [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct]
        {
            for bucket_size in [1, 8] {
                let builder = TreeBuilder {
                    tree_type,
                    bucket_size,
                    parallel: false,
                    root_key: ROOT_KEY,
                    root_depth: 0,
                };
                let (ta, tb) = (
                    builder.build::<CountData>(left.clone(), unit),
                    builder.build::<CountData>(right.clone(), unit),
                );
                let what = format!("{tree_type:?}, bucket {bucket_size}");

                let mut rules = AllPairs { a: &ta, b: &ta, pairs: Vec::new() };
                walk(&ta, &ta, true, &mut rules);
                let mut got: Vec<(u64, u64)> =
                    rules.pairs.iter().map(|&(p, q)| (p.min(q), p.max(q))).collect();
                got.sort_unstable();
                let want: Vec<(u64, u64)> =
                    (0..300).flat_map(|p| (p + 1..300).map(move |q| (p, q))).collect();
                assert_eq!(got, want, "{what}: same tree");

                let mut rules = AllPairs { a: &ta, b: &tb, pairs: Vec::new() };
                walk(&ta, &tb, false, &mut rules);
                rules.pairs.sort_unstable();
                let want: Vec<(u64, u64)> =
                    (0..300).flat_map(|p| (300..420).map(move |q| (p, q))).collect();
                assert_eq!(rules.pairs, want, "{what}: two trees");
            }
        }
    }
}
