//! Traversal-agnostic point-query kernels over built tree arenas.
//!
//! These are the query kernels the serving layer (`paratreet-serve`)
//! answers external requests with, extracted from the kNN application
//! so every consumer — the apps crate, the query service, the
//! benchmarks — shares one implementation. They operate directly on a
//! *forest* of [`BuiltTree`] arenas (the per-Subtree pieces a build or
//! an incremental advance produces) with no cache, visitor, or engine
//! machinery: a query descends the entry subtree first so its pruning
//! bound tightens before the remaining subtrees are considered.
//!
//! Determinism: every kernel breaks distance ties by particle id and
//! sorts its output canonically, so the same forest and query always
//! produce bit-identical results — the property the serving layer's
//! pinned-snapshot replay tests assert.

use crate::node::{BuiltTree, NodeIdx};
use crate::Data;
use paratreet_geometry::{BoundingBox, Vec3};
use paratreet_particles::Particle;
use std::collections::BinaryHeap;

/// One neighbour of a query point, as the kernels *return* it: the
/// payload fields are read from the particle once per result, never
/// while a search is still sorting candidates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Squared distance to the query point.
    pub dist_sq: f64,
    /// Neighbour's particle id.
    pub id: u64,
    /// Neighbour's position.
    pub pos: Vec3,
    /// Neighbour's mass.
    pub mass: f64,
    /// Neighbour's velocity (used by SPH pressure forces).
    pub vel: Vec3,
}

impl Neighbor {
    fn of(p: &Particle, dist_sq: f64) -> Neighbor {
        Neighbor { dist_sq, id: p.id, pos: p.pos, mass: p.mass, vel: p.vel }
    }
}

/// One kNN candidate: the key a search orders by, plus an opaque handle
/// the caller resolves to the particle's payload after the search
/// (`()` when the id is all it needs).
///
/// Candidates compare as the integer pair `(dist_sq.to_bits(), id)`,
/// packed into one `u128`; the handle takes no part. For a squared
/// distance — a sum of squares, never negative, never `-0.0`, never NaN
/// — the bit pattern orders as the number does, so this is "nearer
/// first, ties by id" at the cost of one branch-free integer compare
/// where `total_cmp(..).then(id.cmp(..))` puts two branches in the sift.
#[derive(Clone, Copy, Debug)]
pub struct Candidate<H = ()> {
    /// Squared distance to the query point (`>= +0.0`).
    pub dist_sq: f64,
    /// Candidate's particle id.
    pub id: u64,
    /// Whatever finds the particle again.
    pub handle: H,
}

impl<H> Candidate<H> {
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.dist_sq.to_bits()) << 64) | u128::from(self.id)
    }
}

impl<H> PartialEq for Candidate<H> {
    fn eq(&self, o: &Self) -> bool {
        self.key() == o.key()
    }
}
impl<H> Eq for Candidate<H> {}
impl<H> PartialOrd for Candidate<H> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<H> Ord for Candidate<H> {
    #[inline]
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.key().cmp(&o.key())
    }
}

/// A bounded max-heap holding the k best candidates seen so far.
#[derive(Clone, Debug, Default)]
pub struct KnnHeap<H = ()> {
    k: usize,
    heap: BinaryHeap<Candidate<H>>,
}

impl<H> KnnHeap<H> {
    /// An empty heap with capacity `k`.
    pub fn new(k: usize) -> KnnHeap<H> {
        KnnHeap { k, heap: BinaryHeap::with_capacity(k) }
    }

    /// Offers a candidate; keeps only the k nearest. One nearer than
    /// the current k-th replaces it in place (one sift).
    #[inline]
    pub fn offer(&mut self, dist_sq: f64, id: u64, handle: H) {
        debug_assert!(
            dist_sq >= 0.0 && dist_sq.is_sign_positive(),
            "candidate keys order by bit pattern: {dist_sq} is not a squared distance"
        );
        let candidate = Candidate { dist_sq, id, handle };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut top) = self.heap.peek_mut() {
            if dist_sq < top.dist_sq {
                *top = candidate;
            }
        }
    }

    /// The current pruning bound: the k-th best squared distance, or
    /// infinity while fewer than k candidates are known. A zero-capacity
    /// heap reads 0 — nothing can be nearer than that.
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(0.0, |c| c.dist_sq)
        }
    }

    /// Number of candidates held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidates are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The candidates held, in no particular order.
    pub fn candidates(&self) -> &[Candidate<H>] {
        self.heap.as_slice()
    }

    /// Drains into ascending-distance order (ties broken by id).
    pub fn into_sorted(self) -> Vec<Candidate<H>> {
        let mut sorted = self.heap.into_vec();
        sorted.sort_unstable();
        sorted
    }
}

/// The first particle a ray meets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RayHit {
    /// Distance along the (normalized) ray direction.
    pub t: f64,
    /// Squared perpendicular distance from the ray to the particle.
    pub dist_sq: f64,
    /// Particle id.
    pub id: u64,
    /// Particle position.
    pub pos: Vec3,
}

/// Where `knn_query_with` finds a candidate's particle again:
/// `(tree index, index into that tree's particle arena)`.
type ArenaSlot = (u32, u32);

/// Reusable traversal scratch: workers answering query streams keep one
/// per thread, so a stream of queries allocates only its results.
#[derive(Debug, Default)]
pub struct QueryScratch {
    stack: Vec<NodeIdx>,
    /// kNN: non-empty subtrees as `(root-region distance, index)`.
    order: Vec<(f64, usize)>,
    /// kNN: the candidate heap's buffer between queries.
    candidates: Vec<Candidate<ArenaSlot>>,
}

/// The subtree whose root region a point falls in (nearest root region
/// when no region covers it — possible after incremental drift). This
/// is the batching key the serving layer groups requests by: queries
/// entering the same subtree share their first descent's cache
/// footprint. Returns 0 for an empty forest.
pub fn entry_subtree<D: Data>(trees: &[BuiltTree<D>], pos: Vec3) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, t) in trees.iter().enumerate() {
        if t.nodes.is_empty() || t.root().n_particles == 0 {
            continue;
        }
        let d = t.root().bbox.dist_sq_to(pos);
        if d == 0.0 {
            return i;
        }
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// The k nearest particles to `pos` across the forest, ascending by
/// distance (ties by id). Unlike the simulation-internal kNN visitor,
/// the query point is external: no particle is excluded.
pub fn knn_query<D: Data>(trees: &[BuiltTree<D>], pos: Vec3, k: usize) -> Vec<Neighbor> {
    knn_query_with(trees, pos, k, &mut QueryScratch::default())
}

/// [`knn_query`] with caller-owned scratch (batch amortization).
pub fn knn_query_with<D: Data>(
    trees: &[BuiltTree<D>],
    pos: Vec3,
    k: usize,
    scratch: &mut QueryScratch,
) -> Vec<Neighbor> {
    // Subtree visit order: ascending root-region distance (ties by
    // index), which puts the entry subtree first.
    let QueryScratch { stack, order, candidates } = scratch;
    order.clear();
    let mut population = 0usize;
    for (ti, tree) in trees.iter().enumerate() {
        if !tree.nodes.is_empty() && tree.root().n_particles > 0 {
            order.push((tree.root().bbox.dist_sq_to(pos), ti));
            population += tree.root().n_particles as usize;
        }
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut buffer = std::mem::take(candidates);
    buffer.clear();
    // A caller's k is not a size to trust: no answer is longer than the forest.
    buffer.reserve(k.min(population));
    let mut heap = KnnHeap { k, heap: BinaryHeap::from(buffer) };
    for &(root_dist_sq, ti) in order.iter() {
        if root_dist_sq >= heap.bound() {
            continue;
        }
        let tree = &trees[ti];
        stack.clear();
        stack.push(0);
        while let Some(i) = stack.pop() {
            let node = tree.node(i);
            if node.n_particles == 0 || node.bbox.dist_sq_to(pos) >= heap.bound() {
                continue;
            }
            if let Some(range) = node.bucket_range() {
                for (pi, p) in range.clone().zip(&tree.particles[range]) {
                    let d2 = p.pos.dist_sq(pos);
                    if d2 < heap.bound() {
                        heap.offer(d2, p.id, (ti as u32, pi as u32));
                    }
                }
                continue;
            }
            // Descend nearest child first: push in descending-distance
            // order so the closest pops first and tightens the bound.
            let mut kids: [(f64, NodeIdx); 8] = [(0.0, 0); 8];
            let mut n_kids = 0;
            for c in node.child_indices() {
                let child = tree.node(c);
                if child.n_particles > 0 {
                    kids[n_kids] = (child.bbox.dist_sq_to(pos), c);
                    n_kids += 1;
                }
            }
            kids[..n_kids].sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
            for (_, c) in &kids[..n_kids] {
                stack.push(*c);
            }
        }
    }
    // Payloads are read once per result, from the arenas the handles name.
    let sorted = heap.into_sorted();
    let found = sorted
        .iter()
        .map(|c| {
            Neighbor::of(&trees[c.handle.0 as usize].particles[c.handle.1 as usize], c.dist_sq)
        })
        .collect();
    *candidates = sorted;
    found
}

/// Every particle within `radius` of `center`, ascending by distance
/// (ties by id).
pub fn ball_query<D: Data>(trees: &[BuiltTree<D>], center: Vec3, radius: f64) -> Vec<Neighbor> {
    ball_query_with(trees, center, radius, &mut QueryScratch::default())
}

/// [`ball_query`] with caller-owned scratch (batch amortization).
pub fn ball_query_with<D: Data>(
    trees: &[BuiltTree<D>],
    center: Vec3,
    radius: f64,
    scratch: &mut QueryScratch,
) -> Vec<Neighbor> {
    let r2 = radius * radius;
    let mut out = Vec::new();
    for tree in trees {
        if tree.nodes.is_empty() || tree.root().n_particles == 0 {
            continue;
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(0);
        while let Some(i) = stack.pop() {
            let node = tree.node(i);
            if node.n_particles == 0 || node.bbox.dist_sq_to(center) > r2 {
                continue;
            }
            if node.is_leaf() {
                for p in tree.bucket(i) {
                    let d2 = p.pos.dist_sq(center);
                    if d2 <= r2 {
                        out.push(Neighbor::of(p, d2));
                    }
                }
            } else {
                for c in node.child_indices() {
                    stack.push(c);
                }
            }
        }
    }
    out.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.id.cmp(&b.id)));
    out
}

/// Ids of every particle inside `query` (closed-interval containment),
/// ascending by id.
pub fn range_query<D: Data>(trees: &[BuiltTree<D>], query: &BoundingBox) -> Vec<u64> {
    range_query_with(trees, query, &mut QueryScratch::default())
}

/// [`range_query`] with caller-owned scratch (batch amortization).
pub fn range_query_with<D: Data>(
    trees: &[BuiltTree<D>],
    query: &BoundingBox,
    scratch: &mut QueryScratch,
) -> Vec<u64> {
    let mut out = Vec::new();
    for tree in trees {
        if tree.nodes.is_empty() || tree.root().n_particles == 0 {
            continue;
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(0);
        while let Some(i) = stack.pop() {
            let node = tree.node(i);
            if node.n_particles == 0 || !query.intersects(&node.bbox) {
                continue;
            }
            if node.is_leaf() {
                for p in tree.bucket(i) {
                    if query.contains(p.pos) {
                        out.push(p.id);
                    }
                }
            } else {
                for c in node.child_indices() {
                    stack.push(c);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Entry distance of a ray into `bbox` inflated by `radius`, or `None`
/// when the ray misses it within `[0, t_max]`. `dir` must be normalized.
fn ray_box_entry(
    bbox: &BoundingBox,
    origin: Vec3,
    dir: Vec3,
    radius: f64,
    t_max: f64,
) -> Option<f64> {
    let mut t0 = 0.0f64;
    let mut t1 = t_max;
    for i in 0..3 {
        let o = origin.component(i);
        let d = dir.component(i);
        let lo = bbox.lo.component(i) - radius;
        let hi = bbox.hi.component(i) + radius;
        if d == 0.0 {
            if o < lo || o > hi {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d;
        let (near, far) = if inv >= 0.0 {
            ((lo - o) * inv, (hi - o) * inv)
        } else {
            ((hi - o) * inv, (lo - o) * inv)
        };
        t0 = t0.max(near);
        t1 = t1.min(far);
        if t0 > t1 {
            return None;
        }
    }
    Some(t0)
}

/// The first particle within perpendicular distance `radius` of the ray
/// `origin + t * dir` for `t` in `[0, t_max]` — smallest `t`, ties by
/// id. `dir` is normalized internally; a zero direction finds nothing.
pub fn raycast<D: Data>(
    trees: &[BuiltTree<D>],
    origin: Vec3,
    dir: Vec3,
    radius: f64,
    t_max: f64,
) -> Option<RayHit> {
    raycast_with(trees, origin, dir, radius, t_max, &mut QueryScratch::default())
}

/// [`raycast`] with caller-owned scratch (batch amortization).
pub fn raycast_with<D: Data>(
    trees: &[BuiltTree<D>],
    origin: Vec3,
    dir: Vec3,
    radius: f64,
    t_max: f64,
    scratch: &mut QueryScratch,
) -> Option<RayHit> {
    if dir.norm_sq() == 0.0 {
        return None;
    }
    let dir = dir.normalized();
    let r2 = radius * radius;
    let mut best: Option<RayHit> = None;
    for tree in trees {
        if tree.nodes.is_empty() || tree.root().n_particles == 0 {
            continue;
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(0);
        while let Some(i) = stack.pop() {
            let node = tree.node(i);
            if node.n_particles == 0 {
                continue;
            }
            let cutoff = best.map_or(t_max, |h| h.t);
            match ray_box_entry(&node.bbox, origin, dir, radius, t_max) {
                Some(entry) if entry <= cutoff => {}
                _ => continue,
            }
            if node.is_leaf() {
                for p in tree.bucket(i) {
                    let t = (p.pos - origin).dot(dir).clamp(0.0, t_max);
                    let d2 = (origin + dir * t).dist_sq(p.pos);
                    if d2 <= r2 {
                        let hit = RayHit { t, dist_sq: d2, id: p.id, pos: p.pos };
                        let better = match &best {
                            None => true,
                            Some(b) => t < b.t || (t == b.t && p.id < b.id),
                        };
                        if better {
                            best = Some(hit);
                        }
                    }
                }
            } else {
                for c in node.child_indices() {
                    stack.push(c);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountData, TreeBuilder, TreeType};
    use paratreet_particles::{gen, Particle};

    fn forest(n: usize, seed: u64) -> (Vec<BuiltTree<CountData>>, Vec<Particle>) {
        let ps = gen::clustered(n, 3, seed, 1.0, 1.0);
        // Split into two builds to exercise the forest paths.
        let mid = ps.len() / 2;
        let builder = TreeBuilder::new(TreeType::Octree).bucket_size(8);
        let a = builder.build::<CountData>(
            ps[..mid].to_vec(),
            BoundingBox::around(ps[..mid].iter().map(|p| p.pos)),
        );
        let builder = TreeBuilder::new(TreeType::Octree).bucket_size(8);
        let b = builder.build::<CountData>(
            ps[mid..].to_vec(),
            BoundingBox::around(ps[mid..].iter().map(|p| p.pos)),
        );
        (vec![a, b], ps)
    }

    #[test]
    fn knn_matches_brute_force() {
        let (trees, ps) = forest(400, 11);
        for (qi, q) in ps.iter().step_by(37).enumerate() {
            let pos = q.pos + Vec3::splat(1e-3 * (qi as f64 + 1.0));
            let got = knn_query(&trees, pos, 6);
            let mut brute: Vec<(f64, u64)> =
                ps.iter().map(|p| (p.pos.dist_sq(pos), p.id)).collect();
            brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<u64> = brute.iter().take(6).map(|(_, id)| *id).collect();
            let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            assert_eq!(got_ids, want, "query {qi}");
            assert!(got.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq));
        }
    }

    /// The candidate set as it was while candidates were records: full
    /// entries ordered by `total_cmp` then id, `pop` + `push` to replace.
    struct ModelEntry(Neighbor);
    impl PartialEq for ModelEntry {
        fn eq(&self, o: &Self) -> bool {
            self.cmp(o).is_eq()
        }
    }
    impl Eq for ModelEntry {}
    impl PartialOrd for ModelEntry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for ModelEntry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.dist_sq.total_cmp(&o.0.dist_sq).then(self.0.id.cmp(&o.0.id))
        }
    }
    struct ModelHeap {
        k: usize,
        heap: BinaryHeap<ModelEntry>,
    }
    impl ModelHeap {
        fn offer(&mut self, n: Neighbor) {
            if self.heap.len() < self.k {
                self.heap.push(ModelEntry(n));
            } else if let Some(top) = self.heap.peek() {
                if n.dist_sq < top.0.dist_sq {
                    self.heap.pop();
                    self.heap.push(ModelEntry(n));
                }
            }
        }
        /// As the record heap answered, but for k = 0, where nothing
        /// can be nearer than "no neighbours": 0, not ∞.
        fn bound(&self) -> f64 {
            if self.k == 0 {
                0.0
            } else if self.heap.len() < self.k {
                f64::INFINITY
            } else {
                self.heap.peek().map_or(f64::INFINITY, |e| e.0.dist_sq)
            }
        }
        fn into_sorted(self) -> Vec<Neighbor> {
            let mut v: Vec<Neighbor> = self.heap.into_iter().map(|e| e.0).collect();
            v.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.id.cmp(&b.id)));
            v
        }
    }

    #[test]
    fn key_heap_matches_record_heap_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2022);
        for k in [0usize, 1, 2, 8, 32] {
            // Streams shorter than k, about k, and several times k.
            for len in [0, k / 2, k, k + 1, 3 * k + 5, 200] {
                for ids_ascending in [true, false] {
                    let mut heap: KnnHeap = KnnHeap::new(k);
                    let mut model = ModelHeap { k, heap: BinaryHeap::new() };
                    for i in 0..len as u64 {
                        // A dozen distinct distances (0 among them), so
                        // ties meet ids in both orders.
                        let dist_sq = rng.random_range(0u32..12) as f64 * 0.25;
                        let id = if ids_ascending { i } else { len as u64 - i };
                        heap.offer(dist_sq, id, ());
                        model.offer(Neighbor {
                            dist_sq,
                            id,
                            pos: Vec3::ZERO,
                            mass: 1.0,
                            vel: Vec3::ZERO,
                        });
                        assert_eq!(heap.bound().to_bits(), model.bound().to_bits(), "k {k} #{i}");
                        assert_eq!(heap.len(), model.heap.len());
                    }
                    let got: Vec<(u64, u64)> =
                        heap.into_sorted().iter().map(|c| (c.dist_sq.to_bits(), c.id)).collect();
                    let want: Vec<(u64, u64)> =
                        model.into_sorted().iter().map(|n| (n.dist_sq.to_bits(), n.id)).collect();
                    assert_eq!(got, want, "k {k}, {len} offers, ascending ids {ids_ascending}");
                }
            }
        }
    }

    #[test]
    fn knn_with_reused_scratch_matches_fresh_queries() {
        let (trees, ps) = forest(400, 23);
        let mut scratch = QueryScratch::default();
        // k = 0, k beyond the forest and an absurd k all share the scratch.
        for (qi, k) in [6usize, 0, 40, 3, 1000, usize::MAX, 1].into_iter().enumerate() {
            let pos = ps[qi * 31].pos + Vec3::splat(1e-3);
            let got = knn_query_with(&trees, pos, k, &mut scratch);
            assert_eq!(got, knn_query(&trees, pos, k), "k {k}");
            assert_eq!(got.len(), k.min(ps.len()));
        }
    }

    #[test]
    fn ball_matches_brute_force() {
        let (trees, ps) = forest(300, 5);
        let center = ps[17].pos;
        for radius in [0.05, 0.2, 0.7] {
            let got = ball_query(&trees, center, radius);
            let mut want: Vec<u64> = ps
                .iter()
                .filter(|p| p.pos.dist_sq(center) <= radius * radius)
                .map(|p| p.id)
                .collect();
            want.sort_unstable();
            let mut got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            got_ids.sort_unstable();
            assert_eq!(got_ids, want, "radius {radius}");
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let (trees, ps) = forest(300, 7);
        let query = BoundingBox::cube(ps[3].pos, 0.3);
        let got = range_query(&trees, &query);
        let mut want: Vec<u64> =
            ps.iter().filter(|p| query.contains(p.pos)).map(|p| p.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "query box around a particle finds at least it");
    }

    #[test]
    fn raycast_matches_brute_force() {
        let (trees, ps) = forest(300, 13);
        let origin = Vec3::splat(-2.0);
        for (i, aim) in ps.iter().step_by(41).enumerate() {
            // The kernel normalizes internally; hand the brute force the
            // identical normalized vector so results match bit-for-bit.
            let dir = (aim.pos - origin).normalized();
            let radius = 0.05;
            let got = raycast(&trees, origin, aim.pos - origin, radius, 10.0);
            let mut want: Option<RayHit> = None;
            for p in &ps {
                let t = (p.pos - origin).dot(dir).clamp(0.0, 10.0);
                let d2 = (origin + dir * t).dist_sq(p.pos);
                if d2 <= radius * radius {
                    let better = match &want {
                        None => true,
                        Some(b) => t < b.t || (t == b.t && p.id < b.id),
                    };
                    if better {
                        want = Some(RayHit { t, dist_sq: d2, id: p.id, pos: p.pos });
                    }
                }
            }
            assert_eq!(got, want, "ray {i}");
        }
    }

    #[test]
    fn queries_on_empty_forest_are_empty() {
        let trees: Vec<BuiltTree<CountData>> = Vec::new();
        assert!(knn_query(&trees, Vec3::ZERO, 4).is_empty());
        assert!(ball_query(&trees, Vec3::ZERO, 1.0).is_empty());
        assert!(range_query(&trees, &BoundingBox::cube(Vec3::ZERO, 1.0)).is_empty());
        assert!(raycast(&trees, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 0.1, 5.0).is_none());
        assert_eq!(entry_subtree(&trees, Vec3::ZERO), 0);
    }

    #[test]
    fn entry_subtree_picks_containing_root() {
        let (trees, ps) = forest(200, 19);
        for p in ps.iter().step_by(29) {
            let e = entry_subtree(&trees, p.pos);
            // The chosen root region must be at least as close as any other.
            let d = trees[e].root().bbox.dist_sq_to(p.pos);
            for t in &trees {
                assert!(d <= t.root().bbox.dist_sq_to(p.pos) + 1e-12);
            }
        }
    }
}
