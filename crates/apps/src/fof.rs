//! Friends-of-friends (FoF) halo finding — the first multi-box workload.
//!
//! FoF is the standard halo definition in cosmology: two particles are
//! *friends* when they sit within a linking length `b` of each other,
//! and a halo is a connected component of the friendship graph with at
//! least `min_members` members. It is the natural first consumer of the
//! forest decomposition because the graph does not respect box
//! boundaries: a halo can straddle a seam (or wrap through a periodic
//! face), so the finder must see its neighbors' boundary particles.
//!
//! The pipeline here is exactly the forest story:
//!
//! 1. decompose over a [`DomainSpec`] (`paratreet_core::decompose_forest`),
//! 2. build per-box trees, enforce 2:1 seam balance,
//! 3. exchange ghost layers with radius = linking length — this is what
//!    guarantees every cross-seam friendship is locally visible: if
//!    `q`'s (image) distance to `p`'s box is ≤ `b`, `q`'s shifted copy
//!    is materialized in `p`'s ghost layer,
//! 4. a **dual-tree linking pass** — [`paratreet_tree::dual`]'s walk
//!    under FoF's rules — in one parallel region over every Subtree of
//!    every box (local×local over subtree pairs, plus local×ghost
//!    against a tree built over the box's ghost layer), pruning node
//!    pairs whose particles' tight boxes are farther apart than `b` —
//!    not their cells, which in sparse outskirts are far larger than
//!    what they hold,
//! 5. a **union-find over dense particle indices**: each Subtree links
//!    into its own disjoint stretch of one parent array inside the
//!    region, links that leave a Subtree are applied afterwards in a
//!    fixed order, and the halo id — the minimum member id — is computed
//!    when the catalog is assembled, by a counting sort on the
//!    components' roots. A graph's components do not depend
//!    on the order its edges arrive in, so the catalog is bit-identical
//!    across thread counts and across how the boxes happened to find
//!    the links.
//!
//! Distances in the linking pass are plain Euclidean: periodic images
//! are handled *geometrically* (ghost copies arrive pre-shifted into
//! the receiving box's frame), which is why the same pass serves open,
//! tiled, and periodic domains. The brute-force reference
//! ([`brute_force_fof`]) instead uses minimum-image distances directly
//! and is what the property tests compare against.

use paratreet_core::{Forest, GhostLayer};
use paratreet_geometry::{BoundingBox, PeriodicBox, Vec3};
use paratreet_particles::Particle;
use paratreet_telemetry::{MetricSource, MetricsRegistry};
use paratreet_tree::dual::{tight_boxes, walk, Rules};
use paratreet_tree::{BuiltTree, CountData, Data, NodeIdx, NodeShape, TreeBuilder, TreeType};
use rayon::prelude::*;

/// Friends-of-friends parameters.
#[derive(Clone, Copy, Debug)]
pub struct FofParams {
    /// Linking length `b`: two particles closer than this are friends.
    pub link: f64,
    /// Minimum component size that counts as a halo.
    pub min_members: usize,
}

/// One halo: a connected component of the friendship graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Halo {
    /// Halo id = the minimum member particle id (stable across runs).
    pub id: u64,
    /// Member particle ids, ascending.
    pub members: Vec<u64>,
    /// Mass-weighted center (periodic-aware: accumulated by minimum
    /// image around the first member, then wrapped).
    pub center: Vec3,
    /// Total halo mass.
    pub mass: f64,
}

/// The halo catalog plus the counters exported as `fof.*` metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FofCatalog {
    /// Halos sorted by (size descending, id ascending).
    pub halos: Vec<Halo>,
    /// Particles examined.
    pub n_particles: u64,
    /// Particles belonging to some halo.
    pub n_grouped: u64,
    /// Spanning links applied (`n_particles − components`); identical
    /// for every edge-discovery order.
    pub n_links: u64,
}

impl MetricSource for FofCatalog {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.halos"), self.halos.len() as u64);
        registry.set_u64(format!("{prefix}.grouped"), self.n_grouped);
        registry.set_u64(format!("{prefix}.links"), self.n_links);
        registry.set_u64(
            format!("{prefix}.largest"),
            self.halos.first().map(|h| h.members.len() as u64).unwrap_or(0),
        );
    }
}

// ---------------------------------------------------------------------
// Union-find over dense particle indices.
// ---------------------------------------------------------------------

/// Union-find over the dense indices `base .. base + parent.len()`. The
/// slice holds those indices' parents, themselves dense indices, so a
/// stretch of a larger array is a union-find of its own for as long as
/// it is only asked about its own indices. A union hangs the larger
/// root under the smaller, so `parent[i] <= i` throughout. Only the
/// *partition* is read downstream, and the components of a graph do not
/// depend on the order its edges arrive in.
struct UnionFind<'a> {
    base: u32,
    parent: &'a mut [u32],
    /// Unions that joined two components.
    n_links: u64,
}

impl UnionFind<'_> {
    fn find(&mut self, mut i: u32) -> u32 {
        loop {
            let p = self.parent[(i - self.base) as usize];
            if p == i {
                return i;
            }
            let gp = self.parent[(p - self.base) as usize];
            self.parent[(i - self.base) as usize] = gp;
            i = gp;
        }
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[(hi - self.base) as usize] = lo;
        self.n_links += 1;
    }
}

// ---------------------------------------------------------------------
// Dual-tree linking: FoF's rule set for `tree::dual`'s walk.
// ---------------------------------------------------------------------

/// A tree beside the tight boxes of its nodes ([`tight_boxes`]).
struct Bounded<'a, D> {
    tree: &'a BuiltTree<D>,
    tight: &'a [BoundingBox],
}

/// FoF's rules: every friendship between tree `a` and tree `b` goes to
/// `sink` as `(position in a.particles, position in b.particles)`. A node
/// pair whose particles' tight boxes are farther apart than the linking
/// length is pruned, and in a leaf pair a particle of `a` farther than
/// that from the tight box of `b`'s leaf skips its row. A box distance is
/// a floating-point lower bound of every pair distance it covers — the
/// same per-axis differences, squares and x, y, z sum, on operands no
/// larger — so no friendship is pruned away. The trees may carry
/// different `Data` (a box's own trees against its ghost tree).
struct Friends<'a, A, B, S> {
    a: Bounded<'a, A>,
    b: Bounded<'a, B>,
    /// The squared linking length.
    r2: f64,
    sink: S,
}

impl<A: Data, B: Data, S: FnMut(u32, u32)> Rules for Friends<'_, A, B, S> {
    #[inline]
    fn score(&mut self, ai: NodeIdx, bi: NodeIdx) -> bool {
        self.a.tight[ai as usize].dist_sq_to_box(&self.b.tight[bi as usize]) <= self.r2
    }

    #[inline]
    fn base_case(&mut self, ai: NodeIdx, bi: NodeIdx, diagonal: bool) {
        let (r2, (sa, bucket)) = (self.r2, leaf(self.a.tree, ai));
        if diagonal {
            for (i, p) in (sa..).zip(bucket) {
                for (j, q) in (i + 1..).zip(&bucket[(i + 1 - sa) as usize..]) {
                    if p.pos.dist_sq(q.pos) <= r2 {
                        (self.sink)(i, j);
                    }
                }
            }
            return;
        }
        let (near, (sb, other)) = (&self.b.tight[bi as usize], leaf(self.b.tree, bi));
        for (i, p) in (sa..).zip(bucket) {
            if near.dist_sq_to(p.pos) > r2 {
                continue;
            }
            for (j, q) in (sb..).zip(other) {
                if p.pos.dist_sq(q.pos) <= r2 {
                    (self.sink)(i, j);
                }
            }
        }
    }
}

/// Leaf `i`'s first position in `tree.particles`, and its bucket.
fn leaf<D>(tree: &BuiltTree<D>, i: NodeIdx) -> (u32, &[Particle]) {
    match tree.nodes[i as usize].shape {
        NodeShape::Leaf { start, end } => (start, &tree.particles[start as usize..end as usize]),
        _ => unreachable!("a base case pairs two leaves"),
    }
}

/// Walks trees `a` and `b` (with `same_tree`, one tree against itself)
/// under FoF's rules, reporting each friendship to `sink`.
fn link_pairs<A: Data, B: Data>(
    a: Bounded<'_, A>,
    b: Bounded<'_, B>,
    same_tree: bool,
    r2: f64,
    sink: impl FnMut(u32, u32),
) {
    walk(a.tree, b.tree, same_tree, &mut Friends { a, b, r2, sink });
}

/// Builds a throwaway tree over a box's ghost particles so the
/// local×ghost pass can prune spatially. Ghosts sit in the receiving
/// box's frame (possibly in the radius ring outside it), so the root
/// box is derived from the ghosts themselves.
fn ghost_tree(
    ghosts: Vec<Particle>,
    tree_type: TreeType,
    bucket_size: usize,
) -> BuiltTree<CountData> {
    let tight = BoundingBox::around(ghosts.iter().map(|p| p.pos)).padded(1e-9);
    let root = tree_type.root_region(tight);
    TreeBuilder::new(tree_type).bucket_size(bucket_size).parallel(false).build(ghosts, root)
}

/// One box's Subtrees' tight boxes, and the throwaway tree over its
/// ghosts with that tree's.
struct BoxBounds {
    own: Vec<Vec<BoundingBox>>,
    ghost: Option<(BuiltTree<CountData>, Vec<BoundingBox>)>,
}

/// The dual-tree linking pass over a whole forest. A particle *is* its
/// dense index — its place when the boxes' trees are laid end to end,
/// box by box and Subtree by Subtree — so nothing is looked up by id.
///
/// One region runs every Subtree at once. A Subtree links its own
/// particles straight into its own stretch of the parent array, which no
/// other Subtree touches; friendships that leave the Subtree — to a
/// later Subtree of the same box, or to a ghost, whose
/// [`GhostZone::origins`](paratreet_core::GhostZone) name the original —
/// come back as index pairs and are applied afterwards in (box, Subtree)
/// order. The components of a graph do not depend on the order its
/// edges arrive in, and neither does the number of unions that joined
/// two of them, so the catalog is a pure function of the particle state
/// at any thread count and under any tiling.
pub fn link_forest<D: Data>(
    forest: &Forest,
    trees: &[Vec<BuiltTree<D>>],
    layer: &GhostLayer,
    params: &FofParams,
    tree_type: TreeType,
    bucket_size: usize,
) -> FofCatalog {
    let (parent, n_links) = link_dense(trees, layer, params.link, tree_type, bucket_size);
    let particles = trees.iter().flatten().flat_map(|t| &t.particles);
    assemble_catalog(parent, particles, n_links, params, &forest.period)
}

/// [`link_forest`]'s walk: the finished union-find over the forest's
/// dense indices, and the number of unions that joined two components.
fn link_dense<D: Data>(
    trees: &[Vec<BuiltTree<D>>],
    layer: &GhostLayer,
    link: f64,
    tree_type: TreeType,
    bucket_size: usize,
) -> (Vec<u32>, u64) {
    let r2 = link * link;
    // Dense index of each Subtree's first particle, and of each box's.
    let mut n = 0usize;
    let tree_base: Vec<Vec<u32>> = trees
        .iter()
        .map(|box_trees| {
            let bases = box_trees.iter().map(|t| {
                let base = n as u32;
                n += t.particles.len();
                base
            });
            bases.collect()
        })
        .collect();
    assert!(n <= u32::MAX as usize, "dense particle indices are 32-bit");
    let box_base = |b: usize| tree_base[b].first().copied().unwrap_or(0);

    // One region over the boxes derives every tree's tight boxes and
    // puts each box's ghosts under one throwaway tree, each ghost
    // relabelled with its original's dense index (a ghost tree is never
    // looked at by id).
    let bounds: Vec<BoxBounds> = (0..trees.len())
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|b| {
            let mut ghosts = Vec::new();
            for zone in layer.zones_for(b) {
                let base = box_base(zone.src);
                ghosts.extend(
                    zone.particles
                        .iter()
                        .zip(&zone.origins)
                        .map(|(g, &origin)| Particle { id: (base + origin) as u64, ..*g }),
                );
            }
            let ghost = (!ghosts.is_empty()).then(|| {
                let gt = ghost_tree(ghosts, tree_type, bucket_size);
                let tight = tight_boxes(&gt);
                (gt, tight)
            });
            BoxBounds { own: trees[b].iter().map(tight_boxes).collect(), ghost }
        })
        .collect();

    let mut parent: Vec<u32> = (0..n as u32).collect();
    // One work item per Subtree, holding its own stretch of `parent`.
    let mut stretches = Vec::new();
    let mut rest = parent.as_mut_slice();
    for (b, box_trees) in trees.iter().enumerate() {
        for (t, tree) in box_trees.iter().enumerate() {
            let (own, tail) = rest.split_at_mut(tree.particles.len());
            rest = tail;
            stretches.push((b, t, own));
        }
    }
    let linked: Vec<(u64, Vec<(u32, u32)>)> = stretches
        .into_par_iter()
        .map(|(b, t, own)| {
            let bounded = |u: usize| Bounded { tree: &trees[b][u], tight: &bounds[b].own[u] };
            let base = tree_base[b][t];
            let mut uf = UnionFind { base, parent: own, n_links: 0 };
            link_pairs(bounded(t), bounded(t), true, r2, |i, j| uf.union(base + i, base + j));
            let mut leaving = Vec::new();
            for (u, &other) in tree_base[b].iter().enumerate().skip(t + 1) {
                link_pairs(bounded(t), bounded(u), false, r2, |i, j| {
                    leaving.push((base + i, other + j))
                });
            }
            if let Some((gt, tight)) = &bounds[b].ghost {
                link_pairs(bounded(t), Bounded { tree: gt, tight }, false, r2, |i, j| {
                    // A ghost can be an image of the particle itself
                    // (periodic self-route); that is not a friendship.
                    let origin = gt.particles[j as usize].id as u32;
                    if origin != base + i {
                        leaving.push((base + i, origin));
                    }
                });
            }
            (uf.n_links, leaving)
        })
        .collect();
    let mut uf = UnionFind { base: 0, parent: &mut parent, n_links: 0 };
    for (n_links, leaving) in linked {
        uf.n_links += n_links;
        for (a, b) in leaving {
            uf.union(a, b);
        }
    }
    let n_links = uf.n_links;
    (parent, n_links)
}

// ---------------------------------------------------------------------
// Catalog assembly and the brute-force reference.
// ---------------------------------------------------------------------

/// Materializes the catalog from a finished union-find over the dense
/// indices of `particles` (`parent[i] <= i`, as [`UnionFind`] keeps it):
/// components are sized by counting, those of size ≥ `min_members`
/// become halos — id = the minimum member id, members ascending, halos
/// sorted by (size descending, id ascending). Centers accumulate by
/// minimum image around the first (minimum-id) member in member order,
/// then wrap — correct for halos hugging a periodic seam.
fn assemble_catalog<'a>(
    mut parent: Vec<u32>,
    particles: impl Iterator<Item = &'a Particle> + Clone,
    n_links: u64,
    params: &FofParams,
    period: &PeriodicBox,
) -> FofCatalog {
    debug_assert!(
        {
            let mut ids: Vec<u64> = particles.clone().map(|p| p.id).collect();
            ids.sort_unstable();
            ids.windows(2).all(|w| w[0] != w[1])
        },
        "particle ids must be unique within a snapshot"
    );
    // Parents point downwards, so one ascending pass leaves every entry
    // at its root.
    let mut size = vec![0u32; parent.len()];
    for i in 0..parent.len() {
        parent[i] = parent[parent[i] as usize];
        size[parent[i] as usize] += 1;
    }
    let min_members = params.min_members.max(2) as u32;
    // A counting sort by root: each halo gets a stretch of `grouped`, in
    // ascending root order, and `next[root]` is where its next member
    // goes (`u32::MAX` for a root of no halo).
    let mut next = size;
    let mut halo_stretches = Vec::new();
    let mut n_grouped = 0u32;
    for slot in &mut next {
        if *slot >= min_members {
            halo_stretches.push(n_grouped as usize..(n_grouped + *slot) as usize);
            (*slot, n_grouped) = (n_grouped, n_grouped + *slot);
        } else {
            *slot = u32::MAX;
        }
    }
    // (id, position, mass) of every halo member, scattered in storage
    // order; sorted, a stretch has its members ascending.
    let mut grouped = vec![(0u64, Vec3::ZERO, 0.0f64); n_grouped as usize];
    for (&root, p) in parent.iter().zip(particles) {
        let slot = &mut next[root as usize];
        if *slot != u32::MAX {
            grouped[*slot as usize] = (p.id, p.pos, p.mass);
            *slot += 1;
        }
    }
    let mut halos: Vec<Halo> = halo_stretches
        .into_iter()
        .map(|stretch| {
            let component = &mut grouped[stretch];
            component.sort_unstable_by_key(|&(id, ..)| id);
            let anchor = component[0].1;
            let mut mass = 0.0;
            let mut weighted = Vec3::ZERO;
            for &(_, pos, m) in &*component {
                weighted += period.min_image(anchor, pos) * m;
                mass += m;
            }
            let center =
                if mass > 0.0 { period.wrap(anchor + weighted / mass, Vec3::ZERO) } else { anchor };
            let members: Vec<u64> = component.iter().map(|&(id, ..)| id).collect();
            Halo { id: members[0], members, center, mass }
        })
        .collect();
    halos.sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.id.cmp(&b.id)));
    FofCatalog { halos, n_particles: parent.len() as u64, n_grouped: n_grouped as u64, n_links }
}

/// The O(n²) reference: every pair, minimum-image distances, same
/// union-find and catalog assembly. Small-N ground truth for tests.
pub fn brute_force_fof(
    particles: &[Particle],
    period: &PeriodicBox,
    params: &FofParams,
) -> FofCatalog {
    assert!(particles.len() <= u32::MAX as usize, "dense particle indices are 32-bit");
    let r2 = params.link * params.link;
    let mut parent: Vec<u32> = (0..particles.len() as u32).collect();
    let mut uf = UnionFind { base: 0, parent: &mut parent, n_links: 0 };
    for (i, p) in particles.iter().enumerate() {
        for (j, q) in particles.iter().enumerate().skip(i + 1) {
            if period.dist_sq(p.pos, q.pos) <= r2 {
                uf.union(i as u32, j as u32);
            }
        }
    }
    let n_links = uf.n_links;
    assemble_catalog(parent, particles.iter(), n_links, params, period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_core::{
        decompose_forest, enforce_seam_balance, exchange_ghosts, Configuration, DomainSpec,
    };
    use paratreet_geometry::ROOT_KEY;
    use paratreet_particles::gen;
    use paratreet_telemetry::Telemetry;

    fn config() -> Configuration {
        Configuration {
            tree_type: TreeType::Octree,
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Configuration::default()
        }
    }

    /// A seam-balanced forest of `tree_type` trees over `particles` cut by
    /// `spec`, and the number of seam splits it took.
    fn balanced_forest(
        tree_type: TreeType,
        particles: Vec<Particle>,
        spec: &DomainSpec,
    ) -> (Forest, Vec<Vec<BuiltTree<CountData>>>, u64) {
        let cfg = Configuration { tree_type, ..config() };
        let forest = decompose_forest(particles, &cfg, spec);
        let mut trees = forest.build_trees::<CountData>(&cfg, false);
        let splits = enforce_seam_balance(
            &mut trees,
            &forest.boxes,
            &forest.routes,
            cfg.tree_type,
            cfg.bucket_size,
        );
        (forest, trees, splits)
    }

    /// Full forest-FoF pipeline over the given particles and spec.
    fn run_fof(particles: Vec<Particle>, spec: &DomainSpec, params: &FofParams) -> FofCatalog {
        let (forest, trees, _) = balanced_forest(TreeType::Octree, particles, spec);
        let layer = exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled());
        link_forest(&forest, &trees, &layer, params, TreeType::Octree, config().bucket_size)
    }

    /// A tight blob of `n` particles around `c` (radius ≪ link length).
    fn blob(ids: std::ops::Range<u64>, c: Vec3, spread: f64) -> Vec<Particle> {
        ids.map(|id| {
            // Deterministic low-discrepancy offsets.
            let t = id as f64 * 0.754877666;
            let u = id as f64 * 0.569840296;
            let off = Vec3::new(
                (t.fract() - 0.5) * spread,
                (u.fract() - 0.5) * spread,
                ((t + u).fract() - 0.5) * spread,
            );
            Particle { id, mass: 1.0, pos: c + off, ..Particle::default() }
        })
        .collect()
    }

    /// The finder as it ran before particles became dense indices: a
    /// union-find keyed by particle id through a `HashMap`, links applied
    /// one box after another as the walk finds them, the catalog grouped
    /// through a `HashMap` and a `BTreeMap` over a clone of the owned
    /// particles. Kept as the reference the dense version must reproduce.
    mod id_keyed {
        use super::super::*;
        use std::collections::HashMap;

        /// Union-find over a fixed id universe. Roots are always the minimum id
        /// of their component (unions attach the larger root under the
        /// smaller), so the final forest — and everything derived from it — is
        /// independent of the order links were discovered in.
        struct UnionFind {
            /// Sorted ascending, so dense index order is id order.
            ids: Vec<u64>,
            index: HashMap<u64, u32>,
            parent: Vec<u32>,
            n_links: u64,
        }

        impl UnionFind {
            fn new(mut ids: Vec<u64>) -> UnionFind {
                ids.sort_unstable();
                ids.dedup();
                let index = ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
                let parent = (0..ids.len() as u32).collect();
                UnionFind { ids, index, parent, n_links: 0 }
            }

            fn find(&mut self, mut i: u32) -> u32 {
                while self.parent[i as usize] != i {
                    let gp = self.parent[self.parent[i as usize] as usize];
                    self.parent[i as usize] = gp;
                    i = gp;
                }
                i
            }

            /// Links two particle ids (ids not in the universe are ignored —
            /// defensive, ghosts always identify owned originals).
            fn union_ids(&mut self, a: u64, b: u64) {
                let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
                    return;
                };
                let (ra, rb) = (self.find(ia), self.find(ib));
                if ra == rb {
                    return;
                }
                // Smaller index = smaller id stays the root.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                self.parent[hi as usize] = lo;
                self.n_links += 1;
            }
        }

        /// Recursive dual-tree pass: applies every friendship between tree `a`
        /// and tree `b` to the union-find, pruning node pairs separated by more
        /// than the linking length. With `same_tree`, node pairs below the
        /// diagonal are skipped and leaf self-pairs iterate `i < j`.
        #[allow(clippy::too_many_arguments)]
        fn dual_link<D: Data>(
            a: &BuiltTree<D>,
            ai: NodeIdx,
            b: &BuiltTree<D>,
            bi: NodeIdx,
            same_tree: bool,
            r2: f64,
            uf: &mut UnionFind,
        ) {
            let na = &a.nodes[ai as usize];
            let nb = &b.nodes[bi as usize];
            if na.n_particles == 0 || nb.n_particles == 0 {
                return;
            }
            if na.bbox.dist_sq_to_box(&nb.bbox) > r2 {
                return;
            }
            if same_tree && ai == bi {
                if let NodeShape::Leaf { start, end } = na.shape {
                    let bucket = &a.particles[start as usize..end as usize];
                    for (i, p) in bucket.iter().enumerate() {
                        for q in &bucket[i + 1..] {
                            if p.pos.dist_sq(q.pos) <= r2 {
                                uf.union_ids(p.id, q.id);
                            }
                        }
                    }
                    return;
                }
                // Expand both sides together, keeping child pairs ordered so
                // each off-diagonal pair is visited exactly once.
                let kids: Vec<NodeIdx> = na.child_indices().collect();
                for (i, &ca) in kids.iter().enumerate() {
                    for &cb in &kids[i..] {
                        dual_link(a, ca, b, cb, same_tree, r2, uf);
                    }
                }
                return;
            }
            match (na.shape, nb.shape) {
                (
                    NodeShape::Leaf { start: sa, end: ea },
                    NodeShape::Leaf { start: sb, end: eb },
                ) => {
                    for p in &a.particles[sa as usize..ea as usize] {
                        for q in &b.particles[sb as usize..eb as usize] {
                            if p.id != q.id && p.pos.dist_sq(q.pos) <= r2 {
                                uf.union_ids(p.id, q.id);
                            }
                        }
                    }
                }
                (NodeShape::Internal, NodeShape::Leaf { .. }) => {
                    for ca in na.child_indices() {
                        dual_link(a, ca, b, bi, same_tree, r2, uf);
                    }
                }
                (NodeShape::Leaf { .. }, NodeShape::Internal) => {
                    for cb in nb.child_indices() {
                        dual_link(a, ai, b, cb, same_tree, r2, uf);
                    }
                }
                (NodeShape::Internal, NodeShape::Internal) => {
                    // Open the fatter node: fewer pair visits for skewed depths.
                    if na.bbox.size().max_component() >= nb.bbox.size().max_component() {
                        for ca in na.child_indices() {
                            dual_link(a, ca, b, bi, same_tree, r2, uf);
                        }
                    } else {
                        for cb in nb.child_indices() {
                            dual_link(a, ai, b, cb, same_tree, r2, uf);
                        }
                    }
                }
                _ => {}
            }
        }

        /// Materializes the catalog from a finished union-find: components of
        /// size ≥ `min_members` become halos, members ascending, halos sorted
        /// by (size descending, id ascending). Centers accumulate by minimum
        /// image around the first (minimum-id) member, then wrap — correct for
        /// halos hugging a periodic seam.
        fn catalog_from(
            particles: &[Particle],
            mut uf: UnionFind,
            params: &FofParams,
            period: &PeriodicBox,
        ) -> FofCatalog {
            let mut by_id: HashMap<u64, &Particle> = HashMap::with_capacity(particles.len());
            for p in particles {
                by_id.insert(p.id, p);
            }
            // Component members, grouped by root id (BTreeMap for stable order).
            let mut groups: std::collections::BTreeMap<u64, Vec<u64>> =
                std::collections::BTreeMap::new();
            let n = uf.ids.len();
            for i in 0..n as u32 {
                let root = uf.find(i);
                let root_id = uf.ids[root as usize];
                groups.entry(root_id).or_default().push(uf.ids[i as usize]);
            }
            let mut n_grouped = 0u64;
            let mut halos = Vec::new();
            for (root_id, mut members) in groups {
                if members.len() < params.min_members.max(1) || members.len() < 2 {
                    continue;
                }
                members.sort_unstable();
                n_grouped += members.len() as u64;
                let anchor = by_id[&members[0]].pos;
                let mut mass = 0.0;
                let mut weighted = Vec3::ZERO;
                for id in &members {
                    let p = by_id[id];
                    weighted += period.min_image(anchor, p.pos) * p.mass;
                    mass += p.mass;
                }
                let center = if mass > 0.0 {
                    period.wrap(anchor + weighted / mass, Vec3::ZERO)
                } else {
                    anchor
                };
                halos.push(Halo { id: root_id, members, center, mass });
            }
            halos.sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.id.cmp(&b.id)));
            FofCatalog { halos, n_particles: n as u64, n_grouped, n_links: uf.n_links }
        }

        pub fn link_forest(
            forest: &Forest,
            trees: &[Vec<BuiltTree<CountData>>],
            layer: &GhostLayer,
            params: &FofParams,
            tree_type: TreeType,
            bucket_size: usize,
        ) -> FofCatalog {
            let r2 = params.link * params.link;
            let owned: Vec<Particle> = trees
                .iter()
                .flat_map(|ts| ts.iter().flat_map(|t| t.particles.iter().copied()))
                .collect();
            let mut uf = UnionFind::new(owned.iter().map(|p| p.id).collect());
            for (bi, box_trees) in trees.iter().enumerate() {
                for (ti, ta) in box_trees.iter().enumerate() {
                    dual_link(ta, 0, ta, 0, true, r2, &mut uf);
                    for tb in &box_trees[ti + 1..] {
                        dual_link(ta, 0, tb, 0, false, r2, &mut uf);
                    }
                }
                let ghosts: Vec<Particle> =
                    layer.zones_for(bi).flat_map(|z| z.particles.iter().copied()).collect();
                if !ghosts.is_empty() {
                    let gt = ghost_tree(ghosts, tree_type, bucket_size);
                    for ta in box_trees {
                        dual_link(ta, 0, &gt, 0, false, r2, &mut uf);
                    }
                }
            }
            catalog_from(&owned, uf, params, &forest.period)
        }
    }

    /// Dense `link_forest` ≡ the id-keyed finder ≡ `brute_force_fof` on
    /// `particles` cut by `spec` (whole catalogs: ids, members, centre and
    /// mass bits, link counts).
    fn assert_matches_references(particles: Vec<Particle>, spec: &DomainSpec, what: &str) {
        let cfg = config();
        let params = FofParams { link: 0.06, min_members: 3 };
        let forest = decompose_forest(particles.clone(), &cfg, spec);
        let mut trees = forest.build_trees::<CountData>(&cfg, true);
        enforce_seam_balance(
            &mut trees,
            &forest.boxes,
            &forest.routes,
            cfg.tree_type,
            cfg.bucket_size,
        );
        let layer = exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled());
        let dense = link_forest(&forest, &trees, &layer, &params, cfg.tree_type, cfg.bucket_size);
        let keyed =
            id_keyed::link_forest(&forest, &trees, &layer, &params, cfg.tree_type, cfg.bucket_size);
        assert_eq!(dense, keyed, "{what}: dense vs id-keyed");
        // The brute force sees the particles as the forest owns them
        // (wrapped, in tree order), so the centre sums run alike.
        let owned: Vec<Particle> =
            trees.iter().flatten().flat_map(|t| t.particles.iter().copied()).collect();
        assert_eq!(owned.len(), particles.len(), "{what}");
        let truth = brute_force_fof(&owned, &forest.period, &params);
        assert_eq!(dense, truth, "{what}: dense vs brute force");
    }

    #[test]
    fn dense_linking_matches_the_id_keyed_and_brute_force_finders() {
        let field = gen::tiled_plummer(900, [2, 2, 1], 23, 1.0, 1.0);
        for (dims, tile, periodic) in [
            ([2, 2, 1], 1.0, true),
            ([2, 2, 1], 1.0, false),
            ([4, 2, 1], 0.5, true),
            // One periodic box: every ghost is an image of a particle of
            // the box itself, some of them of the very particle tested.
            ([1, 1, 1], 2.0, true),
        ] {
            let spec = DomainSpec::tiled(dims, tile, periodic);
            assert_matches_references(field.clone(), &spec, &format!("{dims:?} {periodic}"));
        }
        // A tight blob astride a periodic face meets its own images.
        let blob = blob(0..60, Vec3::new(0.01, 0.5, 0.99), 0.05);
        let spec = DomainSpec::tiled([1, 1, 1], 1.0, true);
        assert_matches_references(blob.clone(), &spec, "self images");
        // A box narrower than the linking length: a particle is within
        // reach of its own image.
        let spec = DomainSpec::tiled([1, 1, 1], 0.05, true);
        assert_matches_references(blob.clone(), &spec, "narrow box");
        // A forest with empty boxes, and one with no particles at all.
        let spec = DomainSpec::tiled([3, 1, 1], 1.0, true);
        assert_matches_references(blob, &spec, "empty boxes");
        assert_matches_references(Vec::new(), &spec, "no particles");
    }

    #[test]
    fn halo_spanning_an_open_seam_merges() {
        // Two half-blobs on either side of the x = 1 seam of a 2×1×1
        // grid: one halo, found only through the ghost layer.
        let mut ps = blob(0..20, Vec3::new(0.98, 0.5, 0.5), 0.01);
        ps.extend(blob(20..40, Vec3::new(1.02, 0.5, 0.5), 0.01));
        ps.extend(blob(40..60, Vec3::new(0.3, 0.3, 0.3), 0.01)); // separate halo
        let params = FofParams { link: 0.05, min_members: 5 };
        let cat = run_fof(ps, &DomainSpec::tiled([2, 1, 1], 1.0, false), &params);
        assert_eq!(cat.halos.len(), 2);
        assert_eq!(cat.halos[0].members.len(), 40, "seam halo must merge across boxes");
        assert_eq!(cat.halos[0].id, 0);
        assert_eq!(cat.halos[1].members.len(), 20);
    }

    #[test]
    fn halo_spanning_a_periodic_seam_merges() {
        // Half-blobs hugging opposite outer faces of a periodic 2×1×1
        // grid: friends only through the wrap-around image.
        let mut ps = blob(0..15, Vec3::new(0.01, 0.5, 0.5), 0.008);
        ps.extend(blob(15..30, Vec3::new(1.99, 0.5, 0.5), 0.008));
        let params = FofParams { link: 0.05, min_members: 5 };
        let open = run_fof(ps.clone(), &DomainSpec::tiled([2, 1, 1], 1.0, false), &params);
        assert_eq!(open.halos.len(), 2, "open domain keeps the blobs apart");
        let per = run_fof(ps, &DomainSpec::tiled([2, 1, 1], 1.0, true), &params);
        assert_eq!(per.halos.len(), 1, "periodic wrap links them");
        assert_eq!(per.halos[0].members.len(), 30);
    }

    #[test]
    fn matches_brute_force_on_clustered_particles() {
        let ps = gen::tiled_plummer(400, [2, 2, 1], 23, 1.0, 1.0);
        let params = FofParams { link: 0.06, min_members: 3 };
        let spec = DomainSpec::tiled([2, 2, 1], 1.0, true);
        let cat = run_fof(ps.clone(), &spec, &params);
        // Reference: wrap positions the same way the forest does.
        let period = spec.period();
        let wrapped: Vec<Particle> =
            ps.iter().map(|p| Particle { pos: period.wrap(p.pos, Vec3::ZERO), ..*p }).collect();
        let truth = brute_force_fof(&wrapped, &period, &params);
        assert_eq!(cat.n_links, truth.n_links);
        assert_eq!(cat.halos.len(), truth.halos.len());
        for (a, b) in cat.halos.iter().zip(&truth.halos) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.members, b.members);
            assert!((a.mass - b.mass).abs() < 1e-9);
        }
    }

    #[test]
    fn catalog_is_deterministic_and_thread_independent() {
        let ps = gen::tiled_plummer(500, [2, 1, 1], 41, 1.0, 1.0);
        let params = FofParams { link: 0.05, min_members: 2 };
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, true);
        let a = run_fof(ps.clone(), &spec, &params);
        let b = run_fof(ps.clone(), &spec, &params);
        assert_eq!(a, b, "same seed, same catalog");
        // Parallel tree build must not change the catalog either.
        let cfg = config();
        let forest = decompose_forest(ps, &cfg, &spec);
        let mut trees = forest.build_trees::<CountData>(&cfg, true);
        enforce_seam_balance(
            &mut trees,
            &forest.boxes,
            &forest.routes,
            cfg.tree_type,
            cfg.bucket_size,
        );
        let layer = exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled());
        let c = link_forest(&forest, &trees, &layer, &params, cfg.tree_type, cfg.bucket_size);
        assert_eq!(a, c, "parallel build, same catalog");
    }

    #[test]
    fn min_members_filters_small_components() {
        let mut ps = blob(0..10, Vec3::new(0.5, 0.5, 0.5), 0.01);
        ps.extend(blob(10..12, Vec3::new(0.2, 0.2, 0.2), 0.001)); // pair
        let params = FofParams { link: 0.05, min_members: 5 };
        let cat = run_fof(ps.clone(), &DomainSpec::tiled([1, 1, 1], 1.0, false), &params);
        assert_eq!(cat.halos.len(), 1);
        assert_eq!(cat.n_grouped, 10);
        let loose = FofParams { link: 0.05, min_members: 2 };
        let cat2 = run_fof(ps, &DomainSpec::tiled([1, 1, 1], 1.0, false), &loose);
        assert_eq!(cat2.halos.len(), 2);
    }

    /// The catalog assembly as it ran before it became a counting sort:
    /// `(root, id, position, mass)` of every halo member gathered in
    /// storage order and sorted once. Kept verbatim as the reference the
    /// counting sort must equal.
    mod sorted {
        use super::super::*;

        pub fn assemble_catalog<'a>(
            mut parent: Vec<u32>,
            particles: impl Iterator<Item = &'a Particle> + Clone,
            n_links: u64,
            params: &FofParams,
            period: &PeriodicBox,
        ) -> FofCatalog {
            debug_assert!(
                {
                    let mut ids: Vec<u64> = particles.clone().map(|p| p.id).collect();
                    ids.sort_unstable();
                    ids.windows(2).all(|w| w[0] != w[1])
                },
                "particle ids must be unique within a snapshot"
            );
            // Parents point downwards, so one ascending pass leaves every entry
            // at its root.
            let mut size = vec![0u32; parent.len()];
            for i in 0..parent.len() {
                parent[i] = parent[parent[i] as usize];
                size[parent[i] as usize] += 1;
            }
            let min_members = params.min_members.max(2) as u32;
            // (root, id, position, mass) of everything in a halo, read off the
            // particles in storage order; sorted, a halo is one run with its
            // members ascending.
            let mut grouped: Vec<(u32, u64, Vec3, f64)> = parent
                .iter()
                .zip(particles)
                .filter(|(&root, _)| size[root as usize] >= min_members)
                .map(|(&root, p)| (root, p.id, p.pos, p.mass))
                .collect();
            grouped.sort_unstable_by_key(|&(root, id, ..)| (root, id));
            let mut halos: Vec<Halo> = grouped
                .chunk_by(|a, b| a.0 == b.0)
                .map(|component| {
                    let anchor = component[0].2;
                    let mut mass = 0.0;
                    let mut weighted = Vec3::ZERO;
                    for &(_, _, pos, m) in component {
                        weighted += period.min_image(anchor, pos) * m;
                        mass += m;
                    }
                    let center = if mass > 0.0 {
                        period.wrap(anchor + weighted / mass, Vec3::ZERO)
                    } else {
                        anchor
                    };
                    let members: Vec<u64> = component.iter().map(|&(_, id, ..)| id).collect();
                    Halo { id: members[0], members, center, mass }
                })
                .collect();
            halos.sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.id.cmp(&b.id)));
            FofCatalog {
                halos,
                n_particles: parent.len() as u64,
                n_grouped: grouped.len() as u64,
                n_links,
            }
        }
    }

    const TREE_TYPES: [TreeType; 4] =
        [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct];

    /// The one range of `tree.particles` the leaves under node `i` tile.
    fn node_range(tree: &BuiltTree<CountData>, i: NodeIdx) -> std::ops::Range<usize> {
        let node = &tree.nodes[i as usize];
        let range = match node.shape {
            NodeShape::Leaf { start, end } => start as usize..end as usize,
            NodeShape::Empty => 0..0,
            NodeShape::Internal => node
                .child_indices()
                .map(|c| node_range(tree, c))
                .filter(|r| !r.is_empty())
                .reduce(|a, b| {
                    assert_eq!(a.end, b.start, "node {i}: children's particles are not adjacent");
                    a.start..b.end
                })
                .unwrap_or(0..0),
        };
        assert_eq!(range.len(), node.n_particles as usize, "node {i}");
        range
    }

    #[test]
    fn tight_boxes_are_the_boxes_around_each_nodes_particles() {
        // A periodic 3³ cut through 2³ Plummer spheres: the octree forest
        // has to split seam leaves, which appends nodes to the arenas.
        let field = gen::tiled_plummer(4000, [2, 2, 2], 31, 1.0, 1.0);
        let spec = DomainSpec::tiled([3; 3], 2.0 / 3.0, true);
        for tree_type in TREE_TYPES {
            let (_, trees, splits) = balanced_forest(tree_type, field.clone(), &spec);
            assert!(tree_type != TreeType::Octree || splits > 0, "no seam leaf was split");
            for (b, tree) in trees.iter().flatten().enumerate() {
                let tight = tight_boxes(tree);
                assert_eq!(tight.len(), tree.nodes.len());
                for (i, got) in tight.iter().enumerate() {
                    let range = node_range(tree, i as NodeIdx);
                    let want = BoundingBox::around(tree.particles[range].iter().map(|p| p.pos));
                    assert_eq!(*got, want, "{tree_type:?} tree {b} node {i}");
                }
            }
        }
    }

    #[test]
    fn particles_exactly_one_linking_length_apart_link() {
        // Two chains along x, 1/8 apart inside each and 1/4 = `link`
        // apart across: every coordinate is dyadic, so the one crossing
        // pair (3/8 and 5/8) is at squared distance exactly `link²`, and
        // so are the tight boxes of the two leaves holding it. A prune or
        // row skip that drops a box *at* the linking length loses it.
        let link = 0.25;
        let chain = |ids: std::ops::Range<u64>, x0: f64| -> Vec<Particle> {
            ids.map(|id| Particle {
                id,
                mass: 1.0,
                pos: Vec3::new(x0 + 0.125 * (id % 3) as f64, 0.5, 0.5),
                ..Particle::default()
            })
            .collect()
        };
        let (left, right) = (chain(0..3, 0.125), chain(3..6, 0.625));
        let both: Vec<Particle> = left.iter().chain(&right).copied().collect();
        let r2 = link * link;
        assert_eq!(left[2].pos.dist_sq(right[0].pos), r2);
        let unit = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        for tree_type in TREE_TYPES {
            let builder = TreeBuilder {
                tree_type,
                bucket_size: 2,
                parallel: false,
                root_key: ROOT_KEY,
                root_depth: 0,
            };
            let build = |ps: &[Particle]| builder.build::<CountData>(ps.to_vec(), unit);
            let friends = |a: &BuiltTree<CountData>, b: &BuiltTree<CountData>, same| {
                let (ta, tb) = (tight_boxes(a), tight_boxes(b));
                let mut ids = Vec::new();
                link_pairs(
                    Bounded { tree: a, tight: &ta },
                    Bounded { tree: b, tight: &tb },
                    same,
                    r2,
                    |i, j| {
                        let (p, q) = (a.particles[i as usize].id, b.particles[j as usize].id);
                        ids.push((p.min(q), p.max(q)));
                    },
                );
                ids.sort_unstable();
                ids
            };
            let chains = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)];
            let mut want = vec![(2, 3)];
            let tree = build(&both);
            let leaf_of = |id: u64| {
                let at = tree.particles.iter().position(|p| p.id == id).unwrap();
                tree.nodes.iter().position(|n| n.bucket_range().is_some_and(|r| r.contains(&at)))
            };
            assert_ne!(leaf_of(2), leaf_of(3), "{tree_type:?}: the pair must straddle two leaves");
            // Across two trees only the crossing pair is a friendship.
            assert_eq!(friends(&build(&left), &build(&right), false), want, "{tree_type:?}");
            want.extend(chains);
            want.sort_unstable();
            assert_eq!(friends(&tree, &tree, true), want, "{tree_type:?}");
        }
        // Through the forest, with the crossing pair split between two
        // boxes and found by the local×ghost walk.
        let params = FofParams { link, min_members: 2 };
        let cat = run_fof(both, &DomainSpec::tiled([2, 1, 1], 0.5, false), &params);
        assert_eq!(cat.halos.len(), 1, "the two chains are one halo");
        assert_eq!(cat.halos[0].members, (0..6).collect::<Vec<u64>>());
        assert_eq!(cat.n_links, 5);
    }

    #[test]
    fn counting_sort_catalog_matches_the_sorted_reference() {
        for (n, dims, seed, periodic) in
            [(3000, [2, 2, 1], 23, true), (2000, [2, 1, 1], 41, false), (0, [1, 1, 1], 5, true)]
        {
            let field = gen::tiled_plummer(n, dims, seed, 1.0, 1.0);
            let (forest, trees, _) =
                balanced_forest(TreeType::Octree, field, &DomainSpec::tiled(dims, 1.0, periodic));
            let link = 0.06;
            let layer = exchange_ghosts(&forest, &trees, link, &Telemetry::disabled());
            let (parent, n_links) =
                link_dense(&trees, &layer, link, TreeType::Octree, config().bucket_size);
            let particles = || trees.iter().flatten().flat_map(|t| &t.particles);
            let catalog = |min_members| {
                let params = FofParams { link, min_members };
                let got =
                    assemble_catalog(parent.clone(), particles(), n_links, &params, &forest.period);
                let want = sorted::assemble_catalog(
                    parent.clone(),
                    particles(),
                    n_links,
                    &params,
                    &forest.period,
                );
                assert_eq!(got, want, "n = {n}, min_members = {min_members}");
                got
            };
            let pairs = catalog(2);
            assert!(n == 0 || pairs.halos.len() > 10, "n = {n}: too few halos to compare");
            catalog(8);
            let largest = pairs.halos.first().map_or(0, |h| h.members.len());
            assert!(catalog(largest + 1).halos.is_empty());
        }
    }

    #[test]
    fn catalogs_agree_across_tree_types_and_with_brute_force() {
        let field = gen::tiled_plummer(1200, [2, 2, 1], 29, 1.0, 1.0);
        let spec = DomainSpec::tiled([2, 2, 1], 1.0, true);
        let params = FofParams { link: 0.06, min_members: 3 };
        let mut first: Option<FofCatalog> = None;
        for tree_type in TREE_TYPES {
            let (forest, trees, _) = balanced_forest(tree_type, field.clone(), &spec);
            let layer = exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled());
            let cat =
                link_forest(&forest, &trees, &layer, &params, tree_type, config().bucket_size);
            let owned: Vec<Particle> =
                trees.iter().flatten().flat_map(|t| t.particles.iter().copied()).collect();
            let truth = brute_force_fof(&owned, &forest.period, &params);
            assert_eq!(cat, truth, "{tree_type:?} vs brute force");
            assert!(cat.halos.len() > 5, "{tree_type:?}: too few halos to compare");
            match &first {
                Some(octree) => assert_eq!(&cat, octree, "{tree_type:?} vs octree"),
                None => first = Some(cat),
            }
        }
    }
}
