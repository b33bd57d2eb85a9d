//! Forest-of-trees decomposition with ghost-layer exchange.
//!
//! Everything else in this crate assumes *one* global box with one
//! decomposition inside it. This module generalizes the domain to a
//! **forest**: a set of boxes ([`DomainSpec`] — a single cube or a
//! periodic/tiled grid), each hosting its own [`Decomposition`] and
//! tree set, stitched together by
//!
//! * **inter-box adjacency** ([`GhostRoute`]) — which box abuts which,
//!   including wrap-around routes through periodic seams,
//! * **2:1 seam balance** ([`enforce_seam_balance`]) — octree leaves on
//!   one side of a seam are refined until they are no more than twice
//!   the edge length of the leaves they touch on the other side, the
//!   classic forest-of-octrees smoothness constraint,
//! * **ghost-layer exchange** ([`exchange_ghosts`]) — boundary buckets
//!   within a ghost radius of a neighboring box are materialized as
//!   shifted particle copies, so multi-box workloads (the
//!   friends-of-friends finder, SPH at seams) see their full
//!   neighborhoods without global communication.
//!
//! Seam balance and the exchange both *descend* each tree from its root
//! and drop a node — with everything beneath it — as soon as its
//! (shifted) box is farther from the other side than the tolerance or
//! the ghost radius, so a route costs what its seam holds, not what its
//! box holds; [`GhostStats::nodes_visited`] counts the box tests. Box
//! assignment, the per-box decompositions, the piece copies of
//! [`Forest::build_trees`] and the routes of an exchange each run as one
//! parallel region whose results come back in box / route order, so
//! every output is the same at any thread count.
//!
//! The exchange is a plain copy: the forest runs on the shared-memory
//! engine only.

use std::collections::BTreeSet;
use std::mem::size_of;

use paratreet_geometry::{BoundingBox, NodeKey, PeriodicBox, Vec3};
use paratreet_particles::Particle;
use paratreet_telemetry::{MetricSource, MetricsRegistry, Telemetry};
use paratreet_tree::node::NO_NODE;
use paratreet_tree::{cut, BuildNode, BuiltTree, Data, NodeIdx, NodeShape, TreeType};

use crate::config::Configuration;
use crate::decomp::{decompose_within, universe_for, Decomposition, Partitioner, SubtreePiece};
use crate::pipeline::build_pieces;
use rayon::prelude::*;

// ---------------------------------------------------------------------
// Domain specification.
// ---------------------------------------------------------------------

/// How the simulation domain is carved into boxes.
#[derive(Clone, Debug, PartialEq)]
pub enum DomainSpec {
    /// The classic single global cube (derived from the particles, as
    /// [`universe_for`] does). One box, no seams, no ghosts.
    SingleCube,
    /// A regular grid of `dims[0] × dims[1] × dims[2]` cubical tiles of
    /// side `tile`, anchored at `origin`. With `periodic` the grid
    /// wraps: opposite outer faces are identified and ghost routes run
    /// through the seam.
    TiledGrid {
        /// Tiles per axis (each at least 1).
        dims: [usize; 3],
        /// Lower corner of tile `(0, 0, 0)`.
        origin: Vec3,
        /// Side length of one (cubical) tile.
        tile: f64,
        /// Identify opposite outer faces of the grid.
        periodic: bool,
    },
}

impl DomainSpec {
    /// A tiled-grid spec with the conventional origin at zero.
    pub fn tiled(dims: [usize; 3], tile: f64, periodic: bool) -> DomainSpec {
        DomainSpec::TiledGrid { dims, origin: Vec3::ZERO, tile, periodic }
    }

    /// The periodic wrapping of this domain ([`PeriodicBox::OPEN`] when
    /// nothing wraps).
    pub fn period(&self) -> PeriodicBox {
        match self {
            DomainSpec::SingleCube => PeriodicBox::OPEN,
            DomainSpec::TiledGrid { dims, tile, periodic, .. } => {
                if *periodic {
                    PeriodicBox {
                        period: Vec3::new(
                            dims[0].max(1) as f64 * tile,
                            dims[1].max(1) as f64 * tile,
                            dims[2].max(1) as f64 * tile,
                        ),
                    }
                } else {
                    PeriodicBox::OPEN
                }
            }
        }
    }

    /// The domain boxes. `SingleCube` derives its one box from the
    /// particles exactly as the single-domain pipeline does, so a
    /// one-box forest decomposes identically to [`crate::decompose`].
    pub fn boxes(&self, particles: &[Particle], config: &Configuration) -> Vec<BoundingBox> {
        match self {
            DomainSpec::SingleCube => vec![universe_for(particles, config, 0.0)],
            DomainSpec::TiledGrid { dims, origin, tile, .. } => {
                let d = [dims[0].max(1), dims[1].max(1), dims[2].max(1)];
                let mut out = Vec::with_capacity(d[0] * d[1] * d[2]);
                for k in 0..d[2] {
                    for j in 0..d[1] {
                        for i in 0..d[0] {
                            let lo = *origin
                                + Vec3::new(i as f64 * tile, j as f64 * tile, k as f64 * tile);
                            let hi = *origin
                                + Vec3::new(
                                    (i + 1) as f64 * tile,
                                    (j + 1) as f64 * tile,
                                    (k + 1) as f64 * tile,
                                );
                            out.push(BoundingBox::new(lo, hi));
                        }
                    }
                }
                out
            }
        }
    }

    /// The owning box index for a position (already wrapped into the
    /// primary cell when the domain is periodic). Total: every position
    /// maps to exactly one box, and a position outside the grid clamps
    /// to the nearest tile.
    pub fn assign(&self, pos: Vec3) -> usize {
        match self {
            DomainSpec::SingleCube => 0,
            DomainSpec::TiledGrid { dims, origin, tile, .. } => {
                let d = [dims[0].max(1), dims[1].max(1), dims[2].max(1)];
                let mut idx = [0usize; 3];
                for a in 0..3 {
                    let t = ((pos.component(a) - origin.component(a)) / tile).floor();
                    idx[a] = (t.max(0.0) as usize).min(d[a] - 1);
                }
                idx[0] + d[0] * (idx[1] + d[1] * idx[2])
            }
        }
    }
}

// ---------------------------------------------------------------------
// Forest decomposition.
// ---------------------------------------------------------------------

/// One directed seam: box `src`, translated by the lattice vector
/// `shift`, abuts box `dst` — ghosts flow `src → dst` along it. Open
/// domains only have zero shifts; periodic domains add wrap-around
/// routes (including a box abutting itself through the seam).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GhostRoute {
    /// Source box index.
    pub src: usize,
    /// Destination box index.
    pub dst: usize,
    /// Whole-period translation applied to `src` content.
    pub shift: Vec3,
}

/// A decomposed forest: one [`Decomposition`] per domain box plus the
/// adjacency that stitches the boxes together.
pub struct Forest {
    /// The domain specification the forest was built from.
    pub spec: DomainSpec,
    /// The domain boxes (ownership regions).
    pub boxes: Vec<BoundingBox>,
    /// The periodic wrapping ([`PeriodicBox::OPEN`] when open).
    pub period: PeriodicBox,
    /// Per-box decompositions (empty subtree list for empty boxes).
    pub decomps: Vec<Decomposition>,
    /// Particles owned per box.
    pub n_owned: Vec<usize>,
    /// Directed seams, in deterministic `(src, dst, shift)` order.
    pub routes: Vec<GhostRoute>,
}

/// Summary counters for `forest.*` metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForestStats {
    /// Number of domain boxes.
    pub boxes: u64,
    /// Number of directed ghost routes.
    pub routes: u64,
    /// Total owned particles across boxes.
    pub owned: u64,
    /// Largest per-box ownership count.
    pub owned_max: u64,
    /// Total subtree pieces across boxes.
    pub subtrees: u64,
    /// Leaf splits performed by seam balancing (filled by the caller
    /// from [`enforce_seam_balance`]'s return value).
    pub seam_splits: u64,
}

impl MetricSource for ForestStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.boxes"), self.boxes);
        registry.set_u64(format!("{prefix}.routes"), self.routes);
        registry.set_u64(format!("{prefix}.owned"), self.owned);
        registry.set_u64(format!("{prefix}.owned_max"), self.owned_max);
        registry.set_u64(format!("{prefix}.subtrees"), self.subtrees);
        registry.set_u64(format!("{prefix}.seam_splits"), self.seam_splits);
    }
}

impl Forest {
    /// Summary counters (without `seam_splits`, which the caller owns).
    pub fn stats(&self) -> ForestStats {
        ForestStats {
            boxes: self.boxes.len() as u64,
            routes: self.routes.len() as u64,
            owned: self.n_owned.iter().map(|&n| n as u64).sum(),
            owned_max: self.n_owned.iter().map(|&n| n as u64).max().unwrap_or(0),
            subtrees: self.decomps.iter().map(|d| d.subtrees.len() as u64).sum(),
            seam_splits: 0,
        }
    }

    /// Builds every box's trees from its decomposition. Returns one
    /// tree list per box, in box order (an empty list for empty boxes).
    pub fn build_trees<D: Data>(
        &self,
        config: &Configuration,
        parallel: bool,
    ) -> Vec<Vec<BuiltTree<D>>> {
        // One region over every (box, piece) pair, regrouped by box. The
        // forest keeps its pieces, so each build copies its own.
        let pieces: Vec<&SubtreePiece> = self.decomps.iter().flat_map(|d| &d.subtrees).collect();
        let mut built = build_pieces(pieces, config, parallel).into_iter();
        self.decomps.iter().map(|d| built.by_ref().take(d.subtrees.len()).collect()).collect()
    }
}

/// The per-box configuration: the global Subtree / Partition budgets
/// are divided across boxes (each box keeps at least one of each).
pub fn per_box_config(config: &Configuration, n_boxes: usize) -> Configuration {
    let mut cfg = config.clone();
    let n = n_boxes.max(1);
    cfg.n_subtrees = (config.n_subtrees / n).max(1);
    cfg.n_partitions = (config.n_partitions / n).max(1);
    cfg
}

/// Which box owns which particle: the realized boxes, the wrapping, the
/// particles (wrapped into the primary cell when the domain is periodic)
/// and, box after box, the input indices each box owns in input order.
struct BoxRouting {
    boxes: Vec<BoundingBox>,
    period: PeriodicBox,
    particles: Vec<Particle>,
    /// Particle indices grouped by owning box.
    order: Vec<u32>,
    /// Box `b` owns `order[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
}

impl BoxRouting {
    /// Wraps and assigns every particle in one region, then groups the
    /// indices by owner with a counting sort.
    fn new(mut particles: Vec<Particle>, config: &Configuration, spec: &DomainSpec) -> BoxRouting {
        assert!(particles.len() <= u32::MAX as usize, "particle indices are 32-bit");
        let period = spec.period();
        let origin = match spec {
            DomainSpec::TiledGrid { origin, .. } => *origin,
            _ => Vec3::ZERO,
        };
        // Only a `SingleCube` derives its box from the particles, and it
        // never wraps, so the boxes can be fixed before the wrap.
        let boxes = spec.boxes(&particles, config);
        let wraps = period.is_periodic();
        let owner: Vec<u32> = particles
            .par_iter_mut()
            .map(|p| {
                if wraps {
                    p.pos = period.wrap(p.pos, origin);
                }
                spec.assign(p.pos) as u32
            })
            .collect();
        let mut starts = vec![0usize; boxes.len() + 1];
        for &b in &owner {
            starts[b as usize + 1] += 1;
        }
        for b in 0..boxes.len() {
            starts[b + 1] += starts[b];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; particles.len()];
        for (i, &b) in owner.iter().enumerate() {
            order[next[b as usize]] = i as u32;
            next[b as usize] += 1;
        }
        BoxRouting { boxes, period, particles, order, starts }
    }

    /// Box `b`'s particles, input order preserved, in a vector of exactly
    /// their number.
    fn gather(&self, b: usize) -> Vec<Particle> {
        let owned = &self.order[self.starts[b]..self.starts[b + 1]];
        owned.iter().map(|&i| self.particles[i as usize]).collect()
    }
}

/// The universe a box's own decomposition runs in: the domain box grown
/// over any clamped-in stragglers, cubed for octree-family trees (the
/// same rule as [`universe_for`]). Neighboring universes may overlap
/// slightly after cubing; ownership is decided by [`DomainSpec::assign`],
/// not by the universes.
fn box_universe(bbox: BoundingBox, particles: &[Particle], config: &Configuration) -> BoundingBox {
    let mut u = bbox;
    for p in particles {
        u.grow(p.pos);
    }
    config.tree_type.root_region(u)
}

/// Decomposes `particles` over the domain `spec`: particles are bucketed
/// into their owning boxes, each box runs the standard
/// [`decompose_within`] with the per-box Subtree / Partition budget, and
/// the inter-box adjacency is derived from box geometry (plus periodic
/// images). A `SingleCube` spec reproduces the single-domain pipeline
/// exactly.
pub fn decompose_forest(
    particles: Vec<Particle>,
    config: &Configuration,
    spec: &DomainSpec,
) -> Forest {
    let routing = BoxRouting::new(particles, config, spec);
    let cfg = per_box_config(config, routing.boxes.len());
    // Boxes are independent: each gathers its own particles and
    // decomposes them; results come back in box order.
    let decomps: Vec<Decomposition> = routing
        .boxes
        .par_iter()
        .enumerate()
        .map(|(b, &bbox)| {
            let bucket = routing.gather(b);
            if bucket.is_empty() {
                Decomposition {
                    universe: bbox,
                    subtrees: Vec::new(),
                    partitioner: Partitioner::default(),
                    n_partitions: cfg.n_partitions,
                }
            } else {
                let universe = box_universe(bbox, &bucket, config);
                decompose_within(bucket, &cfg, universe)
            }
        })
        .collect();
    let n_owned = routing.starts.windows(2).map(|w| w[1] - w[0]).collect();
    let BoxRouting { boxes, period, .. } = routing;
    let routes = compute_routes(&boxes, &period);
    Forest { spec: spec.clone(), boxes, period, decomps, n_owned, routes }
}

/// A box translated by a lattice shift.
fn shifted_box(b: &BoundingBox, shift: Vec3) -> BoundingBox {
    BoundingBox::new(b.lo + shift, b.hi + shift)
}

/// The box-geometry tolerance: grid arithmetic can leave last-ulp gaps
/// between abutting faces, so "touching" means within a relative sliver.
fn touch_eps(boxes: &[BoundingBox]) -> f64 {
    let scale = boxes.iter().map(|b| b.size().max_component()).fold(0.0f64, f64::max);
    1e-7 * scale.max(1e-30)
}

/// Enumerates the directed seams: `(src, dst, shift)` such that `src`
/// translated by the lattice vector `shift` touches `dst`. Deterministic
/// `(src, dst, lexicographic shift)` order.
fn compute_routes(boxes: &[BoundingBox], period: &PeriodicBox) -> Vec<GhostRoute> {
    let shifts = period.image_shifts(true);
    let eps2 = {
        let e = touch_eps(boxes);
        e * e
    };
    let mut out = Vec::new();
    for src in 0..boxes.len() {
        for dst in 0..boxes.len() {
            for &shift in &shifts {
                if src == dst && shift == Vec3::ZERO {
                    continue;
                }
                if shifted_box(&boxes[src], shift).dist_sq_to_box(&boxes[dst]) <= eps2 {
                    out.push(GhostRoute { src, dst, shift });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// 2:1 seam balance.
// ---------------------------------------------------------------------

/// Refines octree leaves at box seams until no leaf touching a seam is
/// more than twice the edge length of a leaf it touches on the other
/// side (the forest-of-octrees 2:1 constraint, applied across boxes).
/// Only `TreeType::Octree` forests are refined — median-split trees
/// have no octant structure to subdivide, and `BinaryOct` levels split
/// one axis at a time; both are left untouched. Returns the number of
/// leaf splits performed.
pub fn enforce_seam_balance<D: Data>(
    trees: &mut [Vec<BuiltTree<D>>],
    boxes: &[BoundingBox],
    routes: &[GhostRoute],
    tree_type: TreeType,
    bucket_size: usize,
) -> u64 {
    if tree_type != TreeType::Octree || routes.is_empty() {
        return 0;
    }
    let bits = tree_type.bits_per_level();
    let eps = touch_eps(boxes);
    let eps2 = eps * eps;
    let mut total_splits = 0u64;
    // Each pass halves the offending leaves; edge ratios shrink
    // geometrically, so the fixpoint arrives long before the cap.
    for _pass in 0..32 {
        // (box, subtree) → keys of leaves to split this pass.
        let mut marks: Vec<Vec<BTreeSet<NodeKey>>> =
            trees.iter().map(|ts| vec![BTreeSet::new(); ts.len()]).collect();
        let mut marked = 0u64;
        for route in routes {
            // Leaves of src (shifted into dst's frame) near the seam.
            let near_src = seam_leaves(&trees[route.src], route.shift, &boxes[route.dst], eps);
            if near_src.is_empty() {
                continue;
            }
            let near_dst = seam_leaves(
                &trees[route.dst],
                Vec3::ZERO,
                &shifted_box(&boxes[route.src], route.shift),
                eps,
            );
            for &(ti, ni, sb, se) in &near_src {
                for &(tj, nj, db, de) in &near_dst {
                    if sb.dist_sq_to_box(&db) > eps2 {
                        continue;
                    }
                    // The 2:1 rule, both directions across this contact.
                    if se > 2.0 * de * (1.0 + 1e-12)
                        && splittable(&trees[route.src][ti], ni, bits)
                        && marks[route.src][ti].insert(trees[route.src][ti].nodes[ni as usize].key)
                    {
                        marked += 1;
                    }
                    if de > 2.0 * se * (1.0 + 1e-12)
                        && splittable(&trees[route.dst][tj], nj, bits)
                        && marks[route.dst][tj].insert(trees[route.dst][tj].nodes[nj as usize].key)
                    {
                        marked += 1;
                    }
                }
            }
        }
        if marked == 0 {
            break;
        }
        total_splits += marked;
        for (bi, box_marks) in marks.iter().enumerate() {
            for (ti, keys) in box_marks.iter().enumerate() {
                if !keys.is_empty() {
                    trees[bi][ti] = split_marked(&trees[bi][ti], keys, bucket_size);
                }
            }
        }
    }
    total_splits
}

/// Visits the leaves of `tree` whose box, translated by `shift`, lies
/// within `sqrt(r2)` of `target` — in DFS order, as
/// `visit(node index, node, shifted box)` — and returns how many nodes it
/// box-tested. The walk descends from the root and drops a node with
/// everything beneath it when the node fails the test: a child's box
/// lies inside its parent's, and translation and the box distance are
/// monotone in floating point too, so no leaf beneath it could pass.
fn leaves_near<D: Data>(
    tree: &BuiltTree<D>,
    shift: Vec3,
    target: &BoundingBox,
    r2: f64,
    mut visit: impl FnMut(NodeIdx, &BuildNode<D>, BoundingBox),
) -> u64 {
    let mut tested = 0u64;
    let mut stack = vec![0 as NodeIdx];
    while let Some(ni) = stack.pop() {
        let n = &tree.nodes[ni as usize];
        tested += 1;
        let sb = shifted_box(&n.bbox, shift);
        if sb.dist_sq_to_box(target) > r2 {
            continue;
        }
        if n.is_leaf() {
            visit(ni, n, sb);
        }
        // Reversed, so children pop in slot order.
        stack.extend(n.children.iter().rev().filter(|&&c| c != NO_NODE));
    }
    tested
}

/// Leaves of a box's trees whose (shifted) region touches `target`:
/// `(subtree, node, shifted bbox, edge length)` in deterministic order.
fn seam_leaves<D: Data>(
    trees: &[BuiltTree<D>],
    shift: Vec3,
    target: &BoundingBox,
    eps: f64,
) -> Vec<(usize, NodeIdx, BoundingBox, f64)> {
    let mut out = Vec::new();
    for (ti, tree) in trees.iter().enumerate() {
        leaves_near(tree, shift, target, eps * eps, |ni, n, sb| {
            out.push((ti, ni, sb, n.bbox.size().max_component()));
        });
    }
    out
}

/// True when the leaf at `ni` can take one more octree level (its key
/// has digits left).
fn splittable<D: Data>(tree: &BuiltTree<D>, ni: NodeIdx, bits: u32) -> bool {
    let n = &tree.nodes[ni as usize];
    matches!(n.shape, NodeShape::Leaf { .. }) && n.key.level(bits) < 63 / bits
}

/// Rebuilds a tree with the marked leaves split one octant level. The
/// whole arena is re-emitted in pre-order (buckets must tile the
/// particle array in arena order, so splicing in place is not an
/// option); untouched leaves keep their particles and `Data` exactly,
/// internal `Data` is re-merged bottom-up in slot order like the
/// builder does.
fn split_marked<D: Data>(
    tree: &BuiltTree<D>,
    marks: &BTreeSet<NodeKey>,
    bucket_size: usize,
) -> BuiltTree<D> {
    let mut nodes: Vec<BuildNode<D>> = Vec::with_capacity(tree.nodes.len() + marks.len() * 8);
    let mut particles: Vec<Particle> = Vec::with_capacity(tree.particles.len());
    copy_split(tree, 0, marks, &mut nodes, &mut particles);
    let out = BuiltTree { nodes, particles, bits_per_level: tree.bits_per_level };
    debug_assert!(out.validate(bucket_size).is_ok(), "seam split broke tree invariants");
    out
}

/// Pre-order re-emit of `old[idx]` into the new arena. Returns the new
/// index of the node.
fn copy_split<D: Data>(
    old: &BuiltTree<D>,
    idx: NodeIdx,
    marks: &BTreeSet<NodeKey>,
    nodes: &mut Vec<BuildNode<D>>,
    particles: &mut Vec<Particle>,
) -> NodeIdx {
    let n = &old.nodes[idx as usize];
    let me = nodes.len() as NodeIdx;
    match n.shape {
        NodeShape::Empty => {
            nodes.push(BuildNode {
                key: n.key,
                bbox: n.bbox,
                shape: NodeShape::Empty,
                children: [NO_NODE; 8],
                data: D::default(),
                n_particles: 0,
                depth: n.depth,
            });
        }
        NodeShape::Internal => {
            nodes.push(BuildNode {
                key: n.key,
                bbox: n.bbox,
                shape: NodeShape::Internal,
                children: [NO_NODE; 8],
                data: D::default(),
                n_particles: n.n_particles,
                depth: n.depth,
            });
            let mut children = [NO_NODE; 8];
            let mut data = D::default();
            for (slot, &c) in n.children.iter().enumerate() {
                if c == NO_NODE {
                    continue;
                }
                let ci = copy_split(old, c, marks, nodes, particles);
                children[slot] = ci;
                let child_data = nodes[ci as usize].data.clone();
                data.merge(&child_data);
            }
            nodes[me as usize].children = children;
            nodes[me as usize].data = data;
        }
        NodeShape::Leaf { start, end } => {
            let bucket = &old.particles[start as usize..end as usize];
            if marks.contains(&n.key) {
                // Promote the leaf to an internal node: cut its bucket by
                // the octree rule (which reads no depth), in place at the
                // end of the new array, and emit one child leaf per
                // non-empty octant, exactly as the builder would.
                let mut start = particles.len();
                particles.extend_from_slice(bucket);
                let kids = cut::split(
                    TreeType::Octree,
                    &mut particles[start..],
                    |p| p.pos,
                    &n.bbox,
                    n.key,
                    n.depth,
                );
                nodes.push(BuildNode {
                    key: n.key,
                    bbox: n.bbox,
                    shape: NodeShape::Internal,
                    children: [NO_NODE; 8],
                    data: D::default(),
                    n_particles: n.n_particles,
                    depth: n.depth,
                });
                let mut children = [NO_NODE; 8];
                let mut data = D::default();
                for c in kids {
                    let end = start + c.len;
                    let child_data = D::from_leaf(&particles[start..end], &c.bbox);
                    data.merge(&child_data);
                    children[c.slot] = nodes.len() as NodeIdx;
                    nodes.push(BuildNode {
                        key: c.key,
                        bbox: c.bbox,
                        shape: NodeShape::Leaf { start: start as u32, end: end as u32 },
                        children: [NO_NODE; 8],
                        data: child_data,
                        n_particles: c.len as u32,
                        depth: n.depth + 1,
                    });
                    start = end;
                }
                nodes[me as usize].children = children;
                nodes[me as usize].data = data;
            } else {
                let s = particles.len() as u32;
                particles.extend_from_slice(bucket);
                nodes.push(BuildNode {
                    key: n.key,
                    bbox: n.bbox,
                    shape: NodeShape::Leaf { start: s, end: s + n.n_particles },
                    children: [NO_NODE; 8],
                    data: n.data.clone(),
                    n_particles: n.n_particles,
                    depth: n.depth,
                });
            }
        }
    }
    me
}

// ---------------------------------------------------------------------
// Ghost-layer exchange.
// ---------------------------------------------------------------------

/// Ghost particles one route materialized: copies of `src` boundary
/// particles, positions already translated into `dst`'s frame.
#[derive(Clone, Debug, PartialEq)]
pub struct GhostZone {
    /// Source box.
    pub src: usize,
    /// Destination box.
    pub dst: usize,
    /// Translation applied to the copies.
    pub shift: Vec3,
    /// The shifted particle copies (ids preserved from the originals —
    /// a ghost is identified, never owned).
    pub particles: Vec<Particle>,
    /// Where each copy came from: the original's position in the source
    /// box's particles, counted through that box's trees in Subtree
    /// order. Aligned with `particles`; with it a consumer finds the
    /// original without looking an id up.
    pub origins: Vec<u32>,
    /// Source leaf buckets that contributed at least one particle.
    pub n_buckets: u64,
}

impl GhostZone {
    /// Wire size of this zone's payload (the particle records).
    pub fn bytes(&self) -> u64 {
        (self.particles.len() * size_of::<Particle>()) as u64
    }
}

/// `ghost.*` counters for one exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhostStats {
    /// Routes considered.
    pub routes: u64,
    /// Zones that carried at least one particle.
    pub zones: u64,
    /// Ghost particle copies materialized.
    pub particles: u64,
    /// Source buckets that contributed.
    pub buckets: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Tree nodes the exchange walk box-tested, over all routes — the
    /// work the exchange did, to set against the forest's node count.
    pub nodes_visited: u64,
}

impl MetricSource for GhostStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.routes"), self.routes);
        registry.set_u64(format!("{prefix}.zones"), self.zones);
        registry.set_u64(format!("{prefix}.particles"), self.particles);
        registry.set_u64(format!("{prefix}.buckets"), self.buckets);
        registry.set_u64(format!("{prefix}.bytes"), self.bytes);
        registry.set_u64(format!("{prefix}.nodes_visited"), self.nodes_visited);
    }
}

/// The materialized ghost layers of one exchange.
#[derive(Clone, Debug, Default)]
pub struct GhostLayer {
    /// Non-empty zones in route order.
    pub zones: Vec<GhostZone>,
    /// Counters for `ghost.*` metrics.
    pub stats: GhostStats,
}

impl GhostLayer {
    /// The zones destined for one box, in route order.
    pub fn zones_for(&self, dst: usize) -> impl Iterator<Item = &GhostZone> {
        self.zones.iter().filter(move |z| z.dst == dst)
    }
}

/// Where each box's particles actually are: the nominal box grown over
/// stragglers clamped in from outside an open grid (the un-cubed
/// `box_universe`). Routing by nominal bounds would never exchange two
/// out-of-grid neighbours clamped into adjacent boxes. Only a tree whose
/// root region sticks out of the box can hold such particles, so periodic
/// domains — which wrap everything inside — pay no particle pass and
/// keep their reach.
fn reach_boxes<D: Data>(forest: &Forest, trees: &[Vec<BuiltTree<D>>]) -> Vec<BoundingBox> {
    forest
        .boxes
        .iter()
        .zip(trees)
        .map(|(b, box_trees)| {
            let mut grown = *b;
            for t in box_trees.iter().filter(|t| !b.contains_box(&t.root().bbox)) {
                t.particles.iter().for_each(|p| grown.grow(p.pos));
            }
            grown
        })
        .collect()
}

/// Materializes the ghost layer: for every route, the source box's leaf
/// buckets within `radius` of the (shifted) destination box — grown over
/// its clamped-in population — contribute
/// shifted copies of their particles that actually fall within the
/// radius. This is the shared-memory exchange — one region over the
/// routes, each a pruned descent of the source box's trees
/// ([`GhostStats::nodes_visited`]), zones kept in route order — wrapped
/// in a `"ghost exchange"` telemetry span.
pub fn exchange_ghosts<D: Data>(
    forest: &Forest,
    trees: &[Vec<BuiltTree<D>>],
    radius: f64,
    telemetry: &Telemetry,
) -> GhostLayer {
    telemetry.wall_span(0, "ghost exchange", None, || {
        let r2 = radius * radius;
        let reach = reach_boxes(forest, trees);
        let walked: Vec<(GhostZone, u64)> = forest
            .routes
            .par_iter()
            .map(|route| {
                let dst_box = &reach[route.dst];
                let mut zone = GhostZone {
                    src: route.src,
                    dst: route.dst,
                    shift: route.shift,
                    particles: Vec::new(),
                    origins: Vec::new(),
                    n_buckets: 0,
                };
                let mut nodes_visited = 0u64;
                let mut tree_base = 0usize;
                for tree in &trees[route.src] {
                    let tree_end = tree_base + tree.particles.len();
                    assert!(tree_end <= u32::MAX as usize, "origins are 32-bit");
                    nodes_visited += leaves_near(tree, route.shift, dst_box, r2, |_, n, _| {
                        let before = zone.particles.len();
                        for i in n.bucket_range().expect("a leaf") {
                            let p = &tree.particles[i];
                            let pos = p.pos + route.shift;
                            if dst_box.dist_sq_to(pos) <= r2 {
                                zone.particles.push(Particle { pos, ..*p });
                                zone.origins.push((tree_base + i) as u32);
                            }
                        }
                        if zone.particles.len() > before {
                            zone.n_buckets += 1;
                        }
                    });
                    tree_base = tree_end;
                }
                (zone, nodes_visited)
            })
            .collect();
        let mut layer = GhostLayer::default();
        layer.stats.routes = forest.routes.len() as u64;
        for (zone, nodes_visited) in walked {
            layer.stats.nodes_visited += nodes_visited;
            if !zone.particles.is_empty() {
                layer.stats.zones += 1;
                layer.stats.particles += zone.particles.len() as u64;
                layer.stats.buckets += zone.n_buckets;
                layer.stats.bytes += zone.bytes();
                layer.zones.push(zone);
            }
        }
        layer
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Configuration, DecompType};
    use paratreet_particles::gen;
    use paratreet_telemetry::Telemetry;
    use paratreet_tree::CountData;

    fn config(tree: TreeType) -> Configuration {
        Configuration {
            tree_type: tree,
            decomp_type: DecompType::Sfc,
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Configuration::default()
        }
    }

    fn owned_ids(f: &Forest) -> Vec<u64> {
        let mut ids: Vec<u64> = f
            .decomps
            .iter()
            .flat_map(|d| d.subtrees.iter().flat_map(|s| s.particles.iter().map(|p| p.id)))
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn tiled_grid_boxes_and_assignment() {
        let spec = DomainSpec::tiled([2, 2, 1], 1.0, true);
        let boxes = spec.boxes(&[], &config(TreeType::Octree));
        assert_eq!(boxes.len(), 4);
        // Box 0 is the tile at the origin; linear order is x-fastest.
        assert_eq!(boxes[0].lo, Vec3::ZERO);
        assert_eq!(boxes[1].lo, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(boxes[2].lo, Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(spec.assign(Vec3::new(0.5, 0.5, 0.5)), 0);
        assert_eq!(spec.assign(Vec3::new(1.5, 0.5, 0.5)), 1);
        assert_eq!(spec.assign(Vec3::new(0.5, 1.5, 0.5)), 2);
        assert_eq!(spec.assign(Vec3::new(1.5, 1.5, 0.5)), 3);
        // Out-of-grid positions clamp to the nearest tile.
        assert_eq!(spec.assign(Vec3::new(-3.0, 0.5, 0.5)), 0);
        assert_eq!(spec.assign(Vec3::new(9.0, 9.0, 0.5)), 3);
    }

    #[test]
    fn forest_partitions_particles_exactly() {
        let ps = gen::tiled_plummer(600, [2, 1, 1], 7, 1.0, 1.0);
        let n = ps.len();
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, false);
        let f = decompose_forest(ps, &config(TreeType::Octree), &spec);
        assert_eq!(f.boxes.len(), 2);
        assert_eq!(f.n_owned.iter().sum::<usize>(), n);
        let ids = owned_ids(&f);
        assert_eq!(ids.len(), n);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id, i as u64, "ids must be owned exactly once");
        }
    }

    #[test]
    fn single_cube_matches_single_domain_decompose() {
        let ps = gen::plummer(400, 11, 1.0, 1.0);
        let cfg = config(TreeType::Octree);
        let f = decompose_forest(ps.clone(), &cfg, &DomainSpec::SingleCube);
        let d = crate::decompose(ps, &cfg);
        assert_eq!(f.boxes.len(), 1);
        assert!(f.routes.is_empty());
        assert_eq!(f.decomps[0].subtrees.len(), d.subtrees.len());
        for (a, b) in f.decomps[0].subtrees.iter().zip(&d.subtrees) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.particles.len(), b.particles.len());
        }
    }

    #[test]
    fn routes_cover_open_and_periodic_seams() {
        let cfg = config(TreeType::Octree);
        // Open 2×1×1 grid: one seam, two directed routes, zero shifts.
        let open = decompose_forest(
            gen::tiled_plummer(200, [2, 1, 1], 3, 1.0, 1.0),
            &cfg,
            &DomainSpec::tiled([2, 1, 1], 1.0, false),
        );
        assert_eq!(open.routes.len(), 2);
        assert!(open.routes.iter().all(|r| r.shift == Vec3::ZERO));
        // Periodic 2×1×1 grid: the same seam plus wrap-around images on
        // x, and self-routes through the periodic y/z faces.
        let per = decompose_forest(
            gen::tiled_plummer(200, [2, 1, 1], 3, 1.0, 1.0),
            &cfg,
            &DomainSpec::tiled([2, 1, 1], 1.0, true),
        );
        assert!(per.routes.len() > open.routes.len());
        assert!(per.routes.iter().any(|r| r.src == 0 && r.dst == 1 && r.shift.x != 0.0));
        assert!(per.routes.iter().any(|r| r.src == r.dst && r.shift != Vec3::ZERO));
    }

    #[test]
    fn ghost_exchange_materializes_seam_particles() {
        let cfg = config(TreeType::Octree);
        let ps = gen::tiled_plummer(800, [2, 1, 1], 5, 1.0, 1.0);
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, false);
        let f = decompose_forest(ps, &cfg, &spec);
        let trees = f.build_trees::<CountData>(&cfg, false);
        let radius = 0.1;
        let layer = exchange_ghosts(&f, &trees, radius, &Telemetry::disabled());
        assert!(layer.stats.particles > 0, "seam particles must become ghosts");
        assert_eq!(layer.stats.bytes, layer.stats.particles * size_of::<Particle>() as u64);
        // Every ghost for box 1 sits within the radius of box 1 and is a
        // copy of a particle owned by box 0 (open domain: zero shift).
        let owned0: std::collections::HashSet<u64> =
            f.decomps[0].subtrees.iter().flat_map(|s| s.particles.iter().map(|p| p.id)).collect();
        let ghosts1: Vec<&Particle> = layer.zones_for(1).flat_map(|z| &z.particles).collect();
        assert!(!ghosts1.is_empty());
        for g in ghosts1 {
            assert!(f.boxes[1].dist_sq_to(g.pos) <= radius * radius + 1e-12);
            assert!(owned0.contains(&g.id), "ghost ids identify owned originals");
        }
        // Determinism: the same inputs produce the same layer.
        let trees2 = f.build_trees::<CountData>(&cfg, false);
        let layer2 = exchange_ghosts(&f, &trees2, radius, &Telemetry::disabled());
        assert_eq!(layer.stats.particles, layer2.stats.particles);
        assert_eq!(layer.stats.bytes, layer2.stats.bytes);
    }

    #[test]
    fn periodic_ghosts_wrap_across_the_seam() {
        let cfg = config(TreeType::Octree);
        let ps = gen::tiled_plummer(600, [2, 1, 1], 9, 1.0, 1.0);
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, true);
        let f = decompose_forest(ps, &cfg, &spec);
        let trees = f.build_trees::<CountData>(&cfg, false);
        let layer = exchange_ghosts(&f, &trees, 0.1, &Telemetry::disabled());
        // Some zone must carry a nonzero shift: content wrapped through
        // the periodic boundary.
        assert!(layer.zones.iter().any(|z| z.shift != Vec3::ZERO));
    }

    #[test]
    fn seam_balance_enforces_two_to_one() {
        let cfg = config(TreeType::Octree);
        // Box 0 dense (deep leaves at the seam), box 1 sparse (one fat
        // leaf covering its whole tile).
        let mut ps = gen::plummer(700, 13, 0.05, 1.0);
        for p in ps.iter_mut() {
            // Park the cluster against the seam at x = 1.
            p.pos = Vec3::new(
                0.9 + 0.1 * (p.pos.x.rem_euclid(1.0)),
                p.pos.y.rem_euclid(1.0),
                p.pos.z.rem_euclid(1.0),
            );
        }
        let mut sparse = gen::uniform_cube(5, 29, 1.0, 1.0);
        let base = ps.len() as u64;
        for (i, p) in sparse.iter_mut().enumerate() {
            p.id = base + i as u64;
            p.pos = Vec3::new(1.0 + p.pos.x.rem_euclid(1.0) * 0.999, p.pos.y, p.pos.z);
        }
        ps.extend(sparse);
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, false);
        let f = decompose_forest(ps, &cfg, &spec);
        let mut trees = f.build_trees::<CountData>(&cfg, false);
        let before: u64 = trees[1].iter().map(|t| t.root().data.count).sum();
        let splits =
            enforce_seam_balance(&mut trees, &f.boxes, &f.routes, cfg.tree_type, cfg.bucket_size);
        assert!(splits > 0, "the sparse side must refine at the seam");
        // Structure stays valid and no particles are lost.
        for ts in &trees {
            for t in ts {
                t.validate(cfg.bucket_size).unwrap();
            }
        }
        let after: u64 = trees[1].iter().map(|t| t.root().data.count).sum();
        assert_eq!(before, after);
        // The 2:1 constraint actually holds at the seam now.
        let eps = touch_eps(&f.boxes);
        for route in &f.routes {
            let a = seam_leaves(&trees[route.src], route.shift, &f.boxes[route.dst], eps);
            let b = seam_leaves(
                &trees[route.dst],
                Vec3::ZERO,
                &shifted_box(&f.boxes[route.src], route.shift),
                eps,
            );
            for &(_, _, sb, se) in &a {
                for &(_, _, db, de) in &b {
                    if sb.dist_sq_to_box(&db) <= eps * eps {
                        assert!(
                            se <= 2.0 * de * (1.0 + 1e-9) && de <= 2.0 * se * (1.0 + 1e-9),
                            "leaf edges {se} vs {de} violate 2:1 at the seam"
                        );
                    }
                }
            }
        }
    }

    /// Every leaf of a tree in DFS order, the way the scans below used to
    /// enumerate them (a fresh build's arena is pre-order, so arena order
    /// is DFS order; seam splits re-emit in pre-order too).
    fn all_leaves<D: Data>(
        tree: &BuiltTree<D>,
    ) -> impl Iterator<Item = (NodeIdx, &BuildNode<D>)> + '_ {
        tree.nodes.iter().enumerate().filter(|(_, n)| n.is_leaf()).map(|(i, n)| (i as NodeIdx, n))
    }

    /// `seam_leaves` as it ran before it descended: box-test every leaf.
    fn full_scan_seam_leaves<D: Data>(
        trees: &[BuiltTree<D>],
        shift: Vec3,
        target: &BoundingBox,
        eps: f64,
    ) -> Vec<(usize, NodeIdx, BoundingBox, f64)> {
        let mut out = Vec::new();
        for (ti, tree) in trees.iter().enumerate() {
            for (ni, n) in all_leaves(tree) {
                let sb = shifted_box(&n.bbox, shift);
                if sb.dist_sq_to_box(target) <= eps * eps {
                    out.push((ti, ni, sb, n.bbox.size().max_component()));
                }
            }
        }
        out
    }

    /// `exchange_ghosts` as it ran before it descended: per route, every
    /// leaf of every source tree. Zones as `(src, dst, shift, particles,
    /// buckets)` plus the stats the scan kept.
    #[allow(clippy::type_complexity)]
    fn full_scan_exchange<D: Data>(
        forest: &Forest,
        trees: &[Vec<BuiltTree<D>>],
        radius: f64,
    ) -> (Vec<(usize, usize, Vec3, Vec<Particle>, u64)>, GhostStats) {
        let r2 = radius * radius;
        let reach = reach_boxes(forest, trees);
        let mut zones = Vec::new();
        let mut stats = GhostStats { routes: forest.routes.len() as u64, ..Default::default() };
        for route in &forest.routes {
            let dst_box = &reach[route.dst];
            let mut particles = Vec::new();
            let mut n_buckets = 0u64;
            for tree in &trees[route.src] {
                for (_, n) in all_leaves(tree) {
                    if shifted_box(&n.bbox, route.shift).dist_sq_to_box(dst_box) > r2 {
                        continue;
                    }
                    let before = particles.len();
                    for p in &tree.particles[n.bucket_range().unwrap()] {
                        let pos = p.pos + route.shift;
                        if dst_box.dist_sq_to(pos) <= r2 {
                            particles.push(Particle { pos, ..*p });
                        }
                    }
                    if particles.len() > before {
                        n_buckets += 1;
                    }
                }
            }
            if !particles.is_empty() {
                stats.zones += 1;
                stats.particles += particles.len() as u64;
                stats.buckets += n_buckets;
                stats.bytes += (particles.len() * size_of::<Particle>()) as u64;
                zones.push((route.src, route.dst, route.shift, particles, n_buckets));
            }
        }
        (zones, stats)
    }

    /// Seam leaves on both sides of every route, and the whole exchange,
    /// against the full scans.
    fn assert_walks_match_full_scans(
        forest: &Forest,
        trees: &[Vec<BuiltTree<CountData>>],
        radius: f64,
        what: &str,
    ) {
        let eps = touch_eps(&forest.boxes);
        for route in &forest.routes {
            let toward_src = shifted_box(&forest.boxes[route.src], route.shift);
            for (side, shift, target) in [
                (route.src, route.shift, &forest.boxes[route.dst]),
                (route.dst, Vec3::ZERO, &toward_src),
            ] {
                assert_eq!(
                    seam_leaves(&trees[side], shift, target, eps),
                    full_scan_seam_leaves(&trees[side], shift, target, eps),
                    "{what}: seam leaves of {route:?}"
                );
            }
        }
        let layer = exchange_ghosts(forest, trees, radius, &Telemetry::disabled());
        let (zones, stats) = full_scan_exchange(forest, trees, radius);
        assert_eq!(layer.zones.len(), zones.len(), "{what}");
        for (z, (src, dst, shift, particles, n_buckets)) in layer.zones.iter().zip(&zones) {
            assert_eq!((z.src, z.dst, z.shift, z.n_buckets), (*src, *dst, *shift, *n_buckets));
            assert_eq!(&z.particles, particles, "{what}: zone {src} -> {dst}");
            // An origin is the original's place in the source box.
            let originals: Vec<&Particle> =
                trees[z.src].iter().flat_map(|t| &t.particles).collect();
            assert_eq!(z.origins.len(), z.particles.len());
            for (g, &o) in z.particles.iter().zip(&z.origins) {
                let original = originals[o as usize];
                assert_eq!((g.id, g.pos), (original.id, original.pos + z.shift), "{what}");
            }
        }
        let kept = |s: &GhostStats| (s.routes, s.zones, s.particles, s.buckets, s.bytes);
        assert_eq!(kept(&layer.stats), kept(&stats), "{what}");
        assert!(layer.stats.nodes_visited >= layer.stats.routes, "every route tests a root");
    }

    #[test]
    fn pruned_walks_match_the_full_leaf_scans() {
        let cfg = config(TreeType::Octree);
        // Periodic 2³ and 3³ tilings, before and after seam balance, at
        // a thin radius and at one wider than a box.
        for tiles in [2usize, 3] {
            let tile = 2.0 / tiles as f64;
            let ps = gen::tiled_plummer(4000, [2, 2, 2], 31, 1.0, 1.0);
            let spec = DomainSpec::tiled([tiles; 3], tile, true);
            let f = decompose_forest(ps, &cfg, &spec);
            let mut trees = f.build_trees::<CountData>(&cfg, false);
            assert_walks_match_full_scans(&f, &trees, 0.03, &format!("{tiles}^3 unbalanced"));
            let splits = enforce_seam_balance(
                &mut trees,
                &f.boxes,
                &f.routes,
                cfg.tree_type,
                cfg.bucket_size,
            );
            // Spheres centred in 2³ tiles meet their seams evenly; the 3³
            // cut runs through them and has to refine.
            assert!(tiles == 2 || splits > 0, "the 3^3 tiling must exercise seam splits");
            assert_walks_match_full_scans(&f, &trees, 0.03, &format!("{tiles}^3 balanced"));
            assert_walks_match_full_scans(&f, &trees, 1.3 * tile, &format!("{tiles}^3 wide"));
        }
        // An open grid with stragglers outside it, clamped into the edge
        // boxes: the exchange targets the grown `reach` box.
        for tree_type in [TreeType::Octree, TreeType::KdTree] {
            let cfg = config(tree_type);
            let mut ps = gen::tiled_plummer(1500, [2, 1, 1], 9, 1.0, 1.0);
            let base = ps.len() as u64;
            for (i, x) in [-0.4, -0.07, 2.05, 2.6].into_iter().enumerate() {
                let pos = Vec3::new(x, 0.45 + 0.02 * i as f64, 0.5);
                ps.push(Particle::point_mass(base + i as u64, 1.0, pos));
            }
            let f = decompose_forest(ps, &cfg, &DomainSpec::tiled([2, 1, 1], 1.0, false));
            let mut trees = f.build_trees::<CountData>(&cfg, false);
            enforce_seam_balance(&mut trees, &f.boxes, &f.routes, cfg.tree_type, cfg.bucket_size);
            assert!(trees.iter().flatten().any(|t| !f.boxes[0].contains_box(&t.root().bbox)));
            assert_walks_match_full_scans(&f, &trees, 0.1, &format!("{tree_type:?} stragglers"));
            assert_walks_match_full_scans(&f, &trees, 1.5, &format!("{tree_type:?} wide"));
        }
    }

    #[test]
    fn exchange_work_follows_the_seam_not_the_forest() {
        // The benchmark's shape: a periodic 2³ forest over one Plummer
        // sphere per tile, ghost radius = a linking length.
        let cfg = Configuration { bucket_size: 16, n_subtrees: 16, ..config(TreeType::Octree) };
        let n = 40_000;
        let ps = gen::tiled_plummer(n, [2, 2, 2], 17, 1.0, 1.0);
        let f = decompose_forest(ps, &cfg, &DomainSpec::tiled([2; 3], 1.0, true));
        let mut trees = f.build_trees::<CountData>(&cfg, true);
        enforce_seam_balance(&mut trees, &f.boxes, &f.routes, cfg.tree_type, cfg.bucket_size);
        let radius = 0.2 * (8.0 / n as f64).cbrt();
        let exchange = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            pool.install(|| exchange_ghosts(&f, &trees, radius, &Telemetry::disabled())).stats
        };
        let stats = exchange(1);
        assert!(stats.particles > 0);
        let forest_nodes: usize = trees.iter().flatten().map(|t| t.nodes.len()).sum();
        let per_route = stats.nodes_visited as f64 / stats.routes as f64;
        assert!(
            per_route < 0.10 * forest_nodes as f64 / f.boxes.len() as f64,
            "{per_route:.0} nodes per route of {forest_nodes} in {} boxes",
            f.boxes.len()
        );
        for threads in [2, 8] {
            let again = exchange(threads);
            assert_eq!(again.nodes_visited, stats.nodes_visited, "{threads} threads");
            assert_eq!((again.particles, again.buckets), (stats.particles, stats.buckets));
        }
    }

    #[test]
    #[should_panic(expected = "(id 11) has a non-finite position")]
    fn a_nan_position_panics_naming_its_particle() {
        let mut ps = gen::tiled_plummer(400, [2, 1, 1], 3, 1.0, 1.0);
        let i = ps.iter().position(|p| p.id == 11).expect("id 11 exists");
        ps[i].pos.y = f64::NAN;
        decompose_forest(ps, &config(TreeType::Octree), &DomainSpec::tiled([2, 1, 1], 1.0, true));
    }

    #[test]
    fn forest_stats_register_forest_metrics() {
        let cfg = config(TreeType::Octree);
        let f = decompose_forest(
            gen::tiled_plummer(300, [2, 1, 1], 3, 1.0, 1.0),
            &cfg,
            &DomainSpec::tiled([2, 1, 1], 1.0, false),
        );
        let mut reg = MetricsRegistry::new();
        reg.absorb("forest", &f.stats());
        assert_eq!(reg.get_u64("forest.boxes"), 2);
        assert!(reg.get_u64("forest.routes") >= 2);
        assert_eq!(reg.get_u64("forest.owned"), 300);
    }
}
