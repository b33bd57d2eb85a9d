//! Cross-iteration tree maintenance: the engine-facing half of the
//! incremental update subsystem.
//!
//! A [`TreeMaintainer`] keeps, per Subtree, the leaves of the tree it
//! emitted last round and — unless that tree was rebuilt for churn — an
//! [`UpdatableTree`], plus the decomposition they were seeded from
//! (universe, piece regions, partitioner). Each iteration,
//! [`TreeMaintainer::advance`] runs the *batch* update cycle over
//! disjoint Subtrees:
//!
//! 1. **Classify** — one pass per patchable Subtree (in parallel)
//!    resyncs the integrated particle state and evicts everything that
//!    left its leaf's footprint. A Subtree whose escapees pass
//!    `CHURN_REBUILD_FRACTION` of its particles *churns* and takes
//!    the rebuild path, as does one whose tree was rebuilt last round.
//! 2. **Route** — escapees are grouped by destination Subtree. A
//!    patched destination's insert batch is sorted by (SFC key, id) so
//!    application order is a canonical function of the particle state;
//!    a rebuilt destination takes every master particle that lands in
//!    it, in master order.
//! 3. **Apply** — each churned Subtree is built afresh from its input
//!    (`build_piece`); each other destination sieves its whole batch
//!    down in one group pass and repairs (split/merge/prune + `Data`
//!    re-accumulation along dirty paths), in one parallel region over
//!    the disjoint Subtrees.
//! 4. **Rebalance** — weight-balance invariants, recomputed from the
//!    current patched trees every round, decide rebuilds: a
//!    median-split Subtree is rebuilt alone when an interior node
//!    violates the BB[α] criterion or its depth exceeds the α-balance
//!    bound; position-determined trees (octree, binary-oct) are never
//!    structurally rebuilt, because maintenance already reproduces
//!    exactly the structure a fresh build would.
//! 5. **Flatten** — each patched Subtree emits the canonical pre-order
//!    arena (in parallel); a rebuilt one hands over its tree as built.
//!    Both drop into the unchanged leaf-sharing / cache / traversal
//!    pipeline.
//!
//! The whole tree is rebuilt and re-decomposed (fresh universe, pieces,
//! partitioner) when a particle leaves the universe box, the population
//! changes, or the max/mean Partition load exceeds
//! `imbalance_rebuild`. A structural [`UpdateError`] (stale slab,
//! population mismatch) is never fatal: the maintainer falls back to
//! the same full rebuild and hands the error out in
//! [`MaintainRound::error`].
//!
//! All decisions are deterministic functions of the particle state —
//! parallel phases collect results in Subtree index order, so thread
//! count never changes the output.

use crate::config::{Configuration, DecompType, SfcCurve};
use crate::decomp::{decompose_within, universe_for, Partitioner};
use crate::pipeline::{build_piece, build_pieces};
use paratreet_geometry::{BoundingBox, NodeKey, Vec3};
use paratreet_particles::Particle;
use paratreet_telemetry::metrics::{MetricSource, MetricsRegistry};
use paratreet_tree::{
    BuiltTree, Data, NodeShape, RepairReport, UpdatableTree, UpdateError, UpdateStats,
};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// A Subtree whose leaf escapees number more than this fraction of its
/// particles is rebuilt, not patched — unless it holds at most one
/// bucket, where one escapee is a large fraction of nothing and the
/// patch is a one-leaf copy anyway. Patching pays per particle (the
/// classify copy, the flatten copy) plus per escapee (the sieve, the
/// repair); a build pays per particle only. On the disk benchmark
/// (30 k bodies, LongestDim) a patch round costs ≈ 15.6 ms at ≈ 30 %
/// escapes against 12.7 ms for a fresh decompose + build, while serve's
/// Subtrees, at 3–4 %, patch faster than they rebuild (DESIGN §10).
pub(crate) const CHURN_REBUILD_FRACTION: f64 = 0.1;

/// Cumulative `tree.update.*` counters over the life of a maintainer.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateTotals {
    /// Incremental advances performed (seeding not included).
    pub steps: u64,
    /// Particles known to have moved across all advances: every mover
    /// of a patched Subtree, and the escapees of a rebuilt one (which
    /// keeps no earlier positions to compare against).
    pub moved: u64,
    /// Particles patched in place (moved but stayed in their leaf).
    pub patched: u64,
    /// Particles that escaped their leaf bbox.
    pub escaped: u64,
    /// Escapees that crossed into a different Subtree.
    pub migrated: u64,
    /// Non-empty per-Subtree insert batches applied (a batch absorbed
    /// by a rebuild included).
    pub batches: u64,
    /// Leaf splits performed by repair passes.
    pub splits: u64,
    /// Interior collapses performed by repair passes.
    pub merges: u64,
    /// Emptied regions pruned.
    pub pruned: u64,
    /// Nodes whose `Data` summary was re-accumulated.
    pub refreshed: u64,
    /// Subtrees rebuilt from their master slice because they churned
    /// (or had churned the round before, and had no patchable form).
    pub churn_rebuilds: u64,
    /// Single-Subtree rebuilds of patched Subtrees (weight-balance
    /// violations or uncovered adoptions).
    pub subtree_rebuilds: u64,
    /// Whole-tree rebuild + re-decomposition fallbacks.
    pub full_rebuilds: u64,
    /// Structural update errors recovered via full rebuild.
    pub update_errors: u64,
    /// Max/mean partition load after the most recent advance.
    pub last_imbalance: f64,
}

impl MetricSource for UpdateTotals {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.steps"), self.steps);
        registry.set_u64(format!("{prefix}.moved"), self.moved);
        registry.set_u64(format!("{prefix}.patched"), self.patched);
        registry.set_u64(format!("{prefix}.escaped"), self.escaped);
        registry.set_u64(format!("{prefix}.migrated"), self.migrated);
        registry.set_u64(format!("{prefix}.batches"), self.batches);
        registry.set_u64(format!("{prefix}.splits"), self.splits);
        registry.set_u64(format!("{prefix}.merges"), self.merges);
        registry.set_u64(format!("{prefix}.pruned"), self.pruned);
        registry.set_u64(format!("{prefix}.refreshed"), self.refreshed);
        registry.set_u64(format!("{prefix}.churn_rebuilds"), self.churn_rebuilds);
        registry.set_u64(format!("{prefix}.subtree_rebuilds"), self.subtree_rebuilds);
        registry.set_u64(format!("{prefix}.full_rebuilds"), self.full_rebuilds);
        registry.set_u64(format!("{prefix}.update_errors"), self.update_errors);
        registry.set_f64(format!("{prefix}.last_imbalance"), self.last_imbalance);
    }
}

/// What one [`TreeMaintainer::advance`] did — consumed by the
/// shared-memory engine's step report and the serving writer.
#[derive(Clone, Debug, Default)]
pub struct MaintainRound {
    /// Summed per-subtree update counters for this round.
    pub stats: UpdateStats,
    /// Escapees that crossed Subtree boundaries.
    pub n_migrated: u64,
    /// Non-empty per-Subtree insert batches applied this round.
    pub n_batches: u64,
    /// Subtrees rebuilt from their master slice this round (churn).
    pub churn_rebuilt: Vec<u32>,
    /// Patched Subtrees rebuilt alone this round (weight balance or
    /// adoption).
    pub rebuilt_subtrees: Vec<u32>,
    /// The whole-tree fallback fired (universe escape, imbalance, or
    /// [`Self::error`]).
    pub full_rebuild: bool,
    /// The structural inconsistency the whole-tree fallback recovered
    /// from, if that is why it fired.
    pub error: Option<UpdateError>,
    /// Max/mean partition load measured this round.
    pub imbalance: f64,
}

/// Piece metadata retained after the builds consume the decomposition.
#[derive(Clone, Copy, Debug)]
struct PieceMeta {
    key: NodeKey,
    bbox: BoundingBox,
    depth: u32,
}

/// One leaf of the tree a Subtree emitted last round: how many master
/// particles its bucket holds, and the box they must stay inside.
#[derive(Clone, Copy, Debug)]
struct LeafTile {
    len: u32,
    bbox: BoundingBox,
}

/// What the maintainer keeps of one Subtree between rounds.
enum Maintained<D: Data> {
    /// Calm last round: the tree it patches in place.
    Patched(UpdatableTree<D>),
    /// Churned last round: its tree went to the pipeline as built, and
    /// only its leaves are kept, in bucket order, for this round's
    /// churn count.
    Rebuilt(Vec<LeafTile>),
}

/// The leaves of an emitted tree, in bucket order.
fn leaf_tiles<D>(emitted: &BuiltTree<D>) -> Vec<LeafTile> {
    emitted
        .nodes
        .iter()
        .filter_map(|n| match n.shape {
            NodeShape::Leaf { start, end } => Some(LeafTile { len: end - start, bbox: n.bbox }),
            _ => None,
        })
        .collect()
}

impl<D: Data> Maintained<D> {
    fn n_particles(&self) -> usize {
        match self {
            Maintained::Patched(t) => t.n_particles() as usize,
            Maintained::Rebuilt(leaves) => leaves.iter().map(|l| l.len as usize).sum(),
        }
    }
}

/// The churn rule: a Subtree of `n` particles, `escaped` of which left
/// their leaf, is rebuilt rather than patched.
fn churns(escaped: usize, n: usize, bucket_size: usize) -> bool {
    n > bucket_size && escaped as f64 > CHURN_REBUILD_FRACTION * n as f64
}

/// What phase 3 did to one Subtree.
enum Applied<D> {
    Patched(RepairReport),
    Built(BuiltTree<D>),
}

/// Max/mean particle load across Partitions. Degenerate inputs — no
/// partitions at all (a rank owning zero Subtrees after a
/// shrinking-population fallback) or zero total load — report perfect
/// balance rather than panicking on an empty `max()`.
pub(crate) fn partition_imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    *loads.iter().max().expect("non-empty loads") as f64 / mean
}

/// Runs `f(item, arg)` over the zipped items: one parallel region on
/// the ambient pool when `parallel`, a plain loop when not.
/// Results come back in item order, so the output — and everything
/// downstream — is independent of thread count.
fn par_map_mut<T, U, R>(
    parallel: bool,
    items: &mut [T],
    args: Vec<U>,
    f: impl Fn(&mut T, U) -> R + Sync + Send,
) -> Vec<R>
where
    T: Send,
    U: Send,
    R: Send,
{
    debug_assert_eq!(items.len(), args.len());
    let pairs = items.iter_mut().zip(args);
    if parallel {
        pairs.collect::<Vec<_>>().into_par_iter().map(|(item, arg)| f(item, arg)).collect()
    } else {
        pairs.map(|(item, arg)| f(item, arg)).collect()
    }
}

/// The Subtree whose region contains `pos`, preferring the source
/// Subtree on shared faces (avoids spurious boundary migrations).
/// Pieces tile the universe, so the nearest-region fallback only
/// guards float edge cases.
fn route(pieces: &[PieceMeta], pos: Vec3, src: usize) -> (usize, bool) {
    if pieces[src].bbox.contains(pos) {
        return (src, true);
    }
    for (i, piece) in pieces.iter().enumerate() {
        if piece.bbox.contains(pos) {
            return (i, true);
        }
    }
    // The position fell into a region no piece covers (an octant
    // that held no particles at decomposition time): the nearest
    // piece adopts it, growing its region box.
    let mut best = src;
    let mut best_d = f64::INFINITY;
    for (i, piece) in pieces.iter().enumerate() {
        let d = piece.bbox.dist_sq_to(pos);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, false)
}

/// Maintains the global tree across iterations (for the shared-memory
/// engine and the serving writer). Seeded
/// once with a full decompose + build; advanced once per iteration with
/// the integrated particle state.
pub struct TreeMaintainer<D: Data> {
    config: Configuration,
    universe: BoundingBox,
    pieces: Vec<PieceMeta>,
    subtrees: Vec<Maintained<D>>,
    partitioner: Partitioner,
    n_partitions: usize,
    totals: UpdateTotals,
    /// Parallel regions for the seed/rebuild builder paths and the
    /// batch count/classify/apply/flatten phases.
    parallel: bool,
}

impl<D: Data> TreeMaintainer<D> {
    /// Full decompose + build, retaining everything needed to maintain
    /// the result. `config` must already carry any engine-raised
    /// `n_subtrees` / `n_partitions` minimums. With
    /// `incremental.universe_pad == 0` the returned trees are
    /// bit-identical to a fresh [`crate::decompose`] + build pass.
    /// `parallel = false` also runs the batch phases as plain loops.
    pub fn seed(
        config: &Configuration,
        particles: Vec<Particle>,
        parallel: bool,
    ) -> (TreeMaintainer<D>, Vec<BuiltTree<D>>) {
        let mut m = TreeMaintainer {
            config: config.clone(),
            universe: BoundingBox::empty(),
            pieces: Vec::new(),
            subtrees: Vec::new(),
            partitioner: Partitioner::default(),
            n_partitions: config.n_partitions,
            totals: UpdateTotals::default(),
            parallel,
        };
        let built = m.reseed(particles);
        (m, built)
    }

    /// The Partition assignment for the maintained decomposition.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Number of Partitions the maintained partitioner produces.
    pub fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    /// Number of Subtrees (stable between full rebuilds).
    pub fn n_subtrees(&self) -> usize {
        self.subtrees.len()
    }

    /// The maintained universe box.
    pub fn universe(&self) -> BoundingBox {
        self.universe
    }

    /// Cumulative `tree.update.*` counters.
    pub fn totals(&self) -> &UpdateTotals {
        &self.totals
    }

    /// Full decompose + build from scratch (seed and fallback path).
    fn reseed(&mut self, particles: Vec<Particle>) -> Vec<BuiltTree<D>> {
        let cfg = &self.config;
        let universe = universe_for(&particles, cfg, cfg.incremental.universe_pad);
        let decomp = decompose_within(particles, cfg, universe);
        self.universe = decomp.universe;
        self.partitioner = decomp.partitioner;
        self.n_partitions = decomp.n_partitions;
        self.pieces = decomp
            .subtrees
            .iter()
            .map(|p| PieceMeta { key: p.key, bbox: p.bbox, depth: p.depth })
            .collect();
        let (tree_type, bucket_size) = (cfg.tree_type, cfg.bucket_size);
        let built: Vec<BuiltTree<D>> = build_pieces(decomp.subtrees, cfg, self.parallel);
        self.subtrees = built
            .iter()
            .zip(&self.pieces)
            .map(|(t, p)| {
                Maintained::Patched(UpdatableTree::from_built(t, tree_type, bucket_size, p.depth))
            })
            .collect();
        built
    }

    /// One incremental iteration. `master` is the integrated particle
    /// state in the order the previous trees' buckets tiled it (i.e.
    /// the concatenation of the returned trees' particle arrays).
    /// Returns the trees for this iteration plus what was done to
    /// produce them. Falls back to a transparent whole-tree rebuild
    /// when a particle leaves the universe, the partition load
    /// imbalance crosses its threshold, or the maintained structure
    /// reports an [`UpdateError`] (carried in [`MaintainRound::error`]).
    pub fn advance(&mut self, mut master: Vec<Particle>) -> (Vec<BuiltTree<D>>, MaintainRound) {
        let inc = self.config.incremental;
        self.totals.steps += 1;
        let mut round = MaintainRound::default();

        // Population change (e.g. collisional merges or accretion): the
        // maintained bucket slices no longer tile the master array, so
        // patching is meaningless — re-decompose over the new set.
        let maintained: usize = self.subtrees.iter().map(Maintained::n_particles).sum();
        if master.len() != maintained {
            return self.fall_back(master, round);
        }

        // One fused pass over the integrated state: detect universe
        // escape (the maintained root regions no longer cover the
        // particle set — re-decompose over a fresh padded box) and
        // refresh SFC keys in place (same keying rule as decompose) so
        // the retained partitioner, leaf sharing, and batch sort order
        // stay meaningful.
        let hilbert =
            self.config.sfc == SfcCurve::Hilbert && self.config.decomp_type == DecompType::Sfc;
        let mut escaped_universe = false;
        for p in master.iter_mut() {
            if !self.universe.contains(p.pos) {
                // Keys are reassigned against the fresh universe inside
                // the fallback's decompose, so stop refreshing here.
                escaped_universe = true;
                break;
            }
            p.key = if hilbert {
                paratreet_geometry::hilbert_key(p.pos, &self.universe)
            } else {
                paratreet_geometry::morton_key(p.pos, &self.universe)
            };
        }
        if escaped_universe {
            return self.fall_back(master, round);
        }

        // `master` stays alive through the update phases: if the
        // maintained structure turns out to be inconsistent we recover
        // by rebuilding from it instead of aborting the run.
        match self.advance_subtrees(&master, &mut round) {
            Ok((trees, loads)) => {
                drop(master);
                let imbalance = partition_imbalance(&loads);
                round.imbalance = imbalance;
                self.totals.last_imbalance = imbalance;
                self.accumulate(&round);
                if imbalance > inc.imbalance_rebuild {
                    let master: Vec<Particle> =
                        trees.into_iter().flat_map(|f| f.particles).collect();
                    return self.fall_back(master, round);
                }
                (trees, round)
            }
            Err(e) => {
                round.error = Some(e);
                self.totals.update_errors += 1;
                self.fall_back(master, round)
            }
        }
    }

    /// The batch update phases (count/classify → route → apply or
    /// build → rebalance → flatten). Any structural error aborts
    /// cleanly back to the caller, which still owns the master particle
    /// state. Also returns the per-Partition loads, counted while the
    /// emitted particles are still warm in cache.
    fn advance_subtrees(
        &mut self,
        master: &[Particle],
        round: &mut MaintainRound,
    ) -> Result<(Vec<BuiltTree<D>>, Vec<u64>), UpdateError> {
        let n_trees = self.subtrees.len();
        let mut slices: Vec<&[Particle]> = Vec::with_capacity(n_trees);
        let mut off = 0usize;
        for s in &self.subtrees {
            let c = s.n_particles();
            slices.push(&master[off..off + c]);
            off += c;
        }
        debug_assert_eq!(off, master.len());

        // Phase 1 — classify the patched Subtrees, in parallel over the
        // disjoint slabs. One whose escapees pass the churn fraction is
        // rebuilt instead: its classify copy is wasted this one round,
        // and from the next it has no patchable form to copy into. A
        // Subtree without one is rebuilt every round; its churn count
        // is taken while it is routed (below), and if it is calm it is
        // adopted for patching.
        let classified =
            par_map_mut(self.parallel, &mut self.subtrees, slices.clone(), |s, slice| match s {
                Maintained::Patched(t) => t.classify(slice).map(Some),
                Maintained::Rebuilt(_) => Ok(None),
            });
        let bucket_size = self.config.bucket_size;
        let mut churned = vec![false; n_trees];
        let mut escapees_per_tree = Vec::with_capacity(n_trees);
        let mut n_escaped = vec![0usize; n_trees];
        for (si, c) in classified.into_iter().enumerate() {
            let Some(c) = c? else {
                escapees_per_tree.push(None);
                continue;
            };
            n_escaped[si] = c.escapees.len();
            if churns(n_escaped[si], slices[si].len(), bucket_size) {
                churned[si] = true;
                escapees_per_tree.push(None);
            } else {
                round.stats.n_moved += c.n_moved;
                escapees_per_tree.push(Some(c.escapees));
            }
        }
        let rebuild: Vec<bool> = escapees_per_tree.iter().map(Option::is_none).collect();

        // Phase 2 — route: group escapees by the Subtree whose region
        // now contains them (most stay home; boundary crossers
        // migrate). A rebuilt Subtree's input is every master particle
        // that lands in it, in master order: its own particles that
        // stayed home and the escapees routed to it, whose uncovered
        // positions grow its region box. A patched destination's batch
        // is sorted by (SFC key, id) so its application order is a
        // canonical function of the particle state, not of which
        // leaves the escapees came from.
        let mut inputs: Vec<Vec<Particle>> = slices
            .iter()
            .zip(&rebuild)
            .map(|(s, &r)| if r { Vec::with_capacity(s.len()) } else { Vec::new() })
            .collect();
        let mut landed = vec![false; n_trees];
        let mut homeless: BTreeMap<usize, Vec<Particle>> = BTreeMap::new();
        let pieces = &mut self.pieces;
        // Sends `p` from `src` to the Subtree that now holds it and
        // says whether it migrated; an escapee (a body known to have
        // left its leaf) joins its destination's batch.
        let mut send = |p: Particle, src: usize, escapee: bool, inputs: &mut [Vec<Particle>]| {
            let (dest, covered) = route(pieces, p.pos, src);
            let migrated = dest != src;
            if rebuild[dest] || covered {
                if !covered {
                    pieces[dest].bbox.grow(p.pos);
                }
                inputs[dest].push(p);
                landed[dest] |= escapee || migrated;
            } else {
                // A region no piece covers: the patched destination
                // grows its box over these and rebuilds (below).
                homeless.entry(dest).or_default().push(p);
            }
            migrated
        };
        let (mut n_migrated, mut kept_home) = (0, vec![false; n_trees]);
        for (si, escaped) in escapees_per_tree.into_iter().enumerate() {
            match (escaped, &self.subtrees[si]) {
                (Some(escaped), _) => {
                    n_migrated +=
                        escaped.into_iter().filter(|&p| send(p, si, true, &mut inputs)).count();
                }
                (None, Maintained::Rebuilt(leaves)) => {
                    // The churn count, taken in the pass that routes.
                    let mut rest = slices[si];
                    for leaf in leaves {
                        let (bucket, tail) = rest.split_at(leaf.len as usize);
                        rest = tail;
                        for p in bucket {
                            if leaf.bbox.contains(p.pos) {
                                inputs[si].push(*p);
                            } else {
                                n_escaped[si] += 1;
                                n_migrated += usize::from(send(*p, si, true, &mut inputs));
                            }
                        }
                    }
                    churned[si] = churns(n_escaped[si], slices[si].len(), bucket_size);
                }
                (None, Maintained::Patched(_)) => {
                    // Churned this round. Routing every body keeps
                    // master order; only escapees can leave the piece,
                    // so the batch it absorbs is the rest of them.
                    let out =
                        slices[si].iter().filter(|&&p| send(p, si, false, &mut inputs)).count();
                    n_migrated += out;
                    kept_home[si] = n_escaped[si] > out;
                }
            }
        }
        for (l, k) in landed.iter_mut().zip(kept_home) {
            *l |= k;
        }
        round.n_migrated += n_migrated as u64;
        let escaped_total: usize = n_escaped.iter().sum();
        round.stats.n_escaped += escaped_total as u64;
        round.stats.n_inserted += escaped_total as u64;
        // A rebuilt Subtree keeps no earlier positions to compare: its
        // escapees are the movers it reports.
        round.stats.n_moved +=
            n_escaped.iter().zip(&rebuild).filter(|(_, &r)| r).map(|(&e, _)| e as u64).sum::<u64>();
        for (b, &r) in inputs.iter_mut().zip(&rebuild) {
            if !r {
                // Unstable sort is deterministic here: (key, id) is a
                // total order because ids are unique.
                b.sort_unstable_by_key(|p| (p.key, p.id));
            }
        }
        round.n_batches = landed.iter().filter(|&&l| l).count() as u64;
        self.totals.batches += round.n_batches;

        // Phase 3 — apply, in parallel over disjoint Subtrees: a
        // rebuilt Subtree goes straight through `build_piece`; a
        // patched one sieves its batch down in one group pass, then
        // repairs.
        let alpha = self.config.incremental.balance_alpha;
        let (config, pieces, parallel) = (&self.config, &self.pieces, self.parallel);
        let jobs: Vec<_> = inputs.into_iter().enumerate().collect();
        let applied = par_map_mut(parallel, &mut self.subtrees, jobs, |s, (si, input)| {
            match (rebuild[si], s) {
                (false, Maintained::Patched(t)) => {
                    t.insert_batch(input)?;
                    Ok(Applied::Patched(t.repair(alpha)?))
                }
                _ => {
                    let p = pieces[si];
                    Ok(Applied::Built(build_piece(p.key, p.depth, p.bbox, input, config, parallel)))
                }
            }
        });
        let mut built: Vec<Option<BuiltTree<D>>> = Vec::with_capacity(n_trees);
        let mut unbalanced = vec![false; n_trees];
        for (si, a) in applied.into_iter().enumerate() {
            match a? {
                Applied::Patched(rep) => {
                    round.stats += rep.stats;
                    unbalanced[si] = rep.unbalanced;
                    built.push(None);
                }
                Applied::Built(t) => {
                    round.churn_rebuilt.push(si as u32);
                    built.push(Some(t));
                }
            }
        }
        // Escapees whose positions no piece covers cannot be sieved
        // (every leaf box must contain its particles): the adopting
        // Subtree grows its region box over them and rebuilds — after
        // batch apply, so the rebuild captures this round's inserts.
        for (dest, extra) in homeless {
            self.rebuild_subtree(dest, extra)?;
            unbalanced[dest] = false;
            round.rebuilt_subtrees.push(dest as u32);
        }

        // Phase 4 — weight-balance rebuilds of patched Subtrees. Both
        // criteria are recomputed from the current tree every round
        // (never carried in as-built counters, which go stale after a
        // large absorbed batch): the α child-weight check from this
        // repair pass, and the α depth bound against the current
        // population.
        for si in 0..n_trees {
            if rebuild[si] || round.rebuilt_subtrees.contains(&(si as u32)) {
                continue;
            }
            if unbalanced[si] || self.depth_unbalanced(si) {
                self.rebuild_subtree(si, Vec::new())?;
                round.rebuilt_subtrees.push(si as u32);
            }
        }
        self.totals.subtree_rebuilds += round.rebuilt_subtrees.len() as u64;

        // Phase 5 — emit, in parallel: a patched Subtree flattens, a
        // rebuilt one hands over its tree as built and keeps only its
        // leaves (or, calm, is adopted for patching next round).
        // Partition loads are counted in the same pass, while the
        // particles are still warm in cache.
        let partitioner = &self.partitioner;
        let n_partitions = self.n_partitions;
        let (tree_type, bucket_size) = (self.config.tree_type, self.config.bucket_size);
        let pieces = &self.pieces;
        let jobs: Vec<_> = built.into_iter().enumerate().collect();
        let emitted = par_map_mut(self.parallel, &mut self.subtrees, jobs, |s, (si, built)| {
            let tree = match (built, &*s) {
                (Some(t), _) => {
                    *s = if churned[si] {
                        Maintained::Rebuilt(leaf_tiles(&t))
                    } else {
                        let depth = pieces[si].depth;
                        Maintained::Patched(UpdatableTree::from_built(
                            &t,
                            tree_type,
                            bucket_size,
                            depth,
                        ))
                    };
                    t
                }
                (None, Maintained::Patched(t)) => t.flatten()?,
                // Phase 3 built every Subtree without a patchable form.
                (None, Maintained::Rebuilt(_)) => return Err(UpdateError::StaleSlab { index: 0 }),
            };
            let mut loads = vec![0u64; n_partitions];
            for p in &tree.particles {
                loads[partitioner.assign(p) as usize] += 1;
            }
            Ok((tree, loads))
        });
        let mut out = Vec::with_capacity(n_trees);
        let mut loads = vec![0u64; n_partitions];
        for r in emitted {
            let (tree, l) = r?;
            for (dst, v) in loads.iter_mut().zip(l) {
                *dst += v;
            }
            out.push(tree);
        }
        Ok((out, loads))
    }

    /// Whether a median-split Subtree's depth exceeds the α-balance
    /// bound `log(n/bucket) / log(1/α)` by more than the configured
    /// slack. Position-determined trees never qualify: their depth
    /// follows local density by construction.
    fn depth_unbalanced(&self, si: usize) -> bool {
        let Maintained::Patched(tree) = &self.subtrees[si] else { return false };
        if !self.config.tree_type.is_median_split() {
            return false;
        }
        let inc = self.config.incremental;
        let n = tree.n_particles() as f64;
        let bucket = self.config.bucket_size.max(1) as f64;
        let ideal = (n / bucket).max(1.0).log2() / (1.0 / inc.balance_alpha).log2().max(1e-9);
        (tree.max_depth() as f64) > ideal + inc.balance_depth_slack as f64
    }

    /// Whole-tree rebuild + re-decomposition fallback, transparent to
    /// the caller (the returned trees slot into the pipeline as usual).
    fn fall_back(
        &mut self,
        particles: Vec<Particle>,
        mut round: MaintainRound,
    ) -> (Vec<BuiltTree<D>>, MaintainRound) {
        let built = self.reseed(particles);
        round.full_rebuild = true;
        round.churn_rebuilt.clear();
        round.rebuilt_subtrees.clear();
        self.totals.full_rebuilds += 1;
        (built, round)
    }

    /// Folds a round's per-step counters into the cumulative totals.
    fn accumulate(&mut self, round: &MaintainRound) {
        let s = &round.stats;
        self.totals.moved += s.n_moved;
        self.totals.patched += s.n_moved.saturating_sub(s.n_escaped);
        self.totals.escaped += s.n_escaped;
        self.totals.migrated += round.n_migrated;
        self.totals.splits += s.n_splits;
        self.totals.merges += s.n_merges;
        self.totals.pruned += s.n_pruned;
        self.totals.refreshed += s.n_refreshed;
        self.totals.churn_rebuilds += round.churn_rebuilt.len() as u64;
    }

    /// Rebuilds one patched Subtree from its current particles
    /// (balance policy), plus `outsiders` — escapees whose positions no
    /// piece covers; the region box grows over them first so every leaf
    /// box still contains its particles.
    fn rebuild_subtree(&mut self, si: usize, outsiders: Vec<Particle>) -> Result<(), UpdateError> {
        for p in &outsiders {
            self.pieces[si].bbox.grow(p.pos);
        }
        let piece = self.pieces[si];
        // Only a patched Subtree comes here; one without a patchable
        // form absorbed its outsiders in its own build.
        let Maintained::Patched(tree) = &self.subtrees[si] else {
            return Err(UpdateError::StaleSlab { index: 0 });
        };
        let mut particles = tree.all_particles()?;
        particles.extend(outsiders);
        let built: BuiltTree<D> =
            build_piece(piece.key, piece.depth, piece.bbox, particles, &self.config, self.parallel);
        self.subtrees[si] = Maintained::Patched(UpdatableTree::from_built(
            &built,
            self.config.tree_type,
            self.config.bucket_size,
            piece.depth,
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IncrementalConfig;
    use paratreet_particles::gen;
    use paratreet_tree::{CountData, TreeType};

    fn config() -> Configuration {
        Configuration {
            n_subtrees: 6,
            n_partitions: 4,
            bucket_size: 8,
            incremental: IncrementalConfig { enabled: true, ..Default::default() },
            ..Default::default()
        }
    }

    fn masters(trees: &[BuiltTree<CountData>]) -> Vec<Particle> {
        trees.iter().flat_map(|t| t.particles.iter().copied()).collect()
    }

    #[test]
    fn seed_then_zero_motion_advance_is_identical() {
        let mut cfg = config();
        cfg.incremental.universe_pad = 0.0;
        let ps = gen::uniform_cube(800, 5, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let master = masters(&seeded);
        let (trees, round) = m.advance(master.clone());
        assert!(!round.full_rebuild);
        assert_eq!(round.stats.n_moved, 0);
        assert_eq!(round.stats.n_escaped, 0);
        assert_eq!(round.n_batches, 0);
        assert_eq!(trees.len(), seeded.len());
        for (a, b) in trees.iter().zip(&seeded) {
            assert_eq!(a.nodes.len(), b.nodes.len());
            for (x, y) in a.nodes.iter().zip(&b.nodes) {
                assert_eq!(x.key, y.key);
                assert_eq!(x.shape, y.shape);
                assert_eq!(x.data, y.data);
            }
            assert_eq!(a.particles, b.particles);
        }
    }

    #[test]
    fn motion_advance_conserves_and_validates() {
        let cfg = config();
        let ps = gen::clustered(1500, 3, 11, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        let n0 = master.len();
        let mut rounds_with_migration = 0;
        let mut rounds_with_batches = 0;
        for step in 0..4 {
            // Drift everything along +x: particles cross leaf and
            // Subtree boundaries; the universe pad absorbs the first
            // steps, then the full-rebuild fallback re-decomposes.
            let extent = m.universe().hi.x - m.universe().lo.x;
            for p in master.iter_mut() {
                p.pos.x += 0.015 * extent;
            }
            let (trees, round) = m.advance(master);
            assert_eq!(
                trees.iter().map(|t| t.particles.len()).sum::<usize>(),
                n0,
                "step {step} lost particles"
            );
            for t in &trees {
                t.validate(cfg.bucket_size).unwrap();
            }
            if round.n_migrated > 0 {
                rounds_with_migration += 1;
            }
            if round.n_batches > 0 {
                rounds_with_batches += 1;
            }
            master = masters(&trees);
        }
        assert!(rounds_with_migration > 0, "drift should migrate particles");
        assert!(rounds_with_batches > 0, "drift should produce insert batches");
        assert_eq!(m.totals().steps, 4);
        assert!(m.totals().moved > 0);
        assert!(m.totals().batches > 0);
    }

    #[test]
    fn universe_escape_falls_back_to_full_rebuild() {
        let mut cfg = config();
        cfg.incremental.universe_pad = 0.0;
        let ps = gen::uniform_cube(400, 7, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        // Fling one particle far outside the box.
        master[0].pos += Vec3::splat(50.0);
        let (trees, round) = m.advance(master);
        assert!(round.full_rebuild);
        assert_eq!(m.totals().full_rebuilds, 1);
        assert_eq!(trees.iter().map(|t| t.particles.len()).sum::<usize>(), 400);
        for t in &trees {
            t.validate(cfg.bucket_size).unwrap();
        }
    }

    #[test]
    fn kd_corner_collapse_triggers_balance_rebuilds() {
        let mut cfg = config();
        cfg.tree_type = TreeType::KdTree;
        let ps = gen::uniform_cube(2000, 13, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        for _ in 0..3 {
            // Contract hard toward the box centre: median planes frozen
            // at build time drift badly out of balance.
            let c = m.universe().center();
            for p in master.iter_mut() {
                let r = p.pos - c;
                p.pos = c + r * 0.55;
            }
            let (trees, _round) = m.advance(master);
            master = masters(&trees);
        }
        // A contraction this hard churns every Subtree, so the churn
        // rebuild answers it before the α test can fire.
        let t = m.totals();
        assert!(
            t.churn_rebuilds > 0 || t.subtree_rebuilds > 0 || t.full_rebuilds > 0,
            "median-split drift must trip some rebuild: {t:?}"
        );
    }

    #[test]
    fn octree_churn_never_structurally_rebuilds() {
        // Octree structure is position-determined, so no amount of
        // in-universe churn should trigger a structural rebuild — this
        // is exactly what eliminates the old escape-fraction cascades
        // on the disk distribution.
        let cfg = config();
        let ps = gen::uniform_cube(1500, 13, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        for step in 0..4 {
            let c = m.universe().center();
            let uni = m.universe();
            for (i, p) in master.iter_mut().enumerate() {
                let r = p.pos - c;
                let s = if (i + step) % 2 == 0 { 0.93 } else { 1.05 };
                p.pos = c + r * s;
                p.pos.x = p.pos.x.clamp(uni.lo.x, uni.hi.x);
                p.pos.y = p.pos.y.clamp(uni.lo.y, uni.hi.y);
                p.pos.z = p.pos.z.clamp(uni.lo.z, uni.hi.z);
            }
            let (trees, round) = m.advance(master);
            assert!(!round.full_rebuild, "in-universe churn must not full-rebuild");
            master = masters(&trees);
        }
        assert_eq!(
            m.totals().subtree_rebuilds,
            0,
            "position-determined octree must never rebuild for balance: {:?}",
            m.totals()
        );
        assert!(m.totals().escaped > 0, "churn should evict particles");
        assert!(m.totals().batches > 0, "evictions should form batches");
    }

    #[test]
    fn absorbed_batch_does_not_trigger_spurious_rebuild_next_round() {
        // Regression: the old drift counters kept a stale as-built
        // depth after a large absorbed insert batch, firing the skew
        // trigger on the *next* (motionless) round. Balance criteria
        // are now recomputed from the current tree each round.
        let cfg = config();
        let ps = gen::uniform_cube(1200, 17, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        // Cram a third of the particles into one small off-centre blob:
        // one Subtree absorbs a large batch and deepens locally.
        let uni = m.universe();
        let blob = uni.lo + (uni.hi - uni.lo) * 0.25;
        for (i, p) in master.iter_mut().enumerate() {
            if i % 3 == 0 {
                let j = (i / 3) as f64;
                p.pos = blob
                    + Vec3::new(
                        (j * 0.37).fract() * 1e-3,
                        (j * 0.59).fract() * 1e-3,
                        (j * 0.73).fract() * 1e-3,
                    );
            }
        }
        let (trees, first) = m.advance(master);
        assert!(first.stats.n_inserted > 0, "blob must produce inserts");
        if first.full_rebuild {
            return; // imbalance fallback is legitimate for this blob
        }
        // Second, motionless advance: nothing may rebuild.
        let master = masters(&trees);
        let (_trees, second) = m.advance(master);
        assert!(!second.full_rebuild, "zero motion must not full-rebuild");
        assert!(
            second.rebuilt_subtrees.is_empty(),
            "zero motion after an absorbed batch must not rebuild: {:?}",
            second.rebuilt_subtrees
        );
        assert_eq!(second.stats.n_moved, 0);
    }

    fn assert_same_tree(a: &BuiltTree<CountData>, b: &BuiltTree<CountData>) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.key, y.key);
            assert_eq!((x.bbox.lo, x.bbox.hi), (y.bbox.lo, y.bbox.hi));
            assert_eq!(x.shape, y.shape);
            assert_eq!(x.children, y.children);
            assert_eq!(x.data, y.data);
            assert_eq!(x.n_particles, y.n_particles);
            assert_eq!(x.depth, y.depth);
        }
        assert_eq!(a.particles, b.particles);
    }

    /// Reverses the positions of `bodies` among themselves: nearly every
    /// one leaves its leaf, and the set of positions stays the same.
    fn trade_places(bodies: &mut [Particle]) {
        let reversed: Vec<Vec3> = bodies.iter().rev().map(|p| p.pos).collect();
        for (p, pos) in bodies.iter_mut().zip(reversed) {
            p.pos = pos;
        }
    }

    #[test]
    fn a_churned_subtree_is_built_afresh_and_a_calm_one_patched() {
        let cfg = config();
        let ps = gen::uniform_cube(1500, 31, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        let n0 = seeded[0].particles.len();
        // Subtree 0 churns without losing a body to another piece.
        trade_places(&mut master[..n0]);
        // Subtree 1 stays calm: one body moves halfway to its leaf's
        // centre, inside the leaf.
        let leaf = seeded[1].nodes.iter().find(|n| n.is_leaf()).expect("a leaf");
        let k = n0 + leaf.bucket_range().expect("a bucket").start;
        master[k].pos = master[k].pos + (leaf.bbox.center() - master[k].pos) * 0.5;
        // What the round must build subtree 0 from: its bodies in
        // master order, keyed against the maintained universe.
        let universe = m.universe();
        let input: Vec<Particle> = master[..n0]
            .iter()
            .map(|p| Particle { key: paratreet_geometry::morton_key(p.pos, &universe), ..*p })
            .collect();
        let piece = m.pieces[0];

        let (trees, round) = m.advance(master);
        assert!(!round.full_rebuild);
        assert_eq!(round.churn_rebuilt, vec![0]);
        assert!(round.rebuilt_subtrees.is_empty());
        let fresh: BuiltTree<CountData> =
            build_piece(piece.key, piece.depth, piece.bbox, input, &cfg, false);
        assert_same_tree(&trees[0], &fresh);
        assert!(
            matches!(m.subtrees[0], Maintained::Rebuilt(_)),
            "a churned Subtree keeps no patchable form"
        );
        assert!(matches!(m.subtrees[1], Maintained::Patched(_)), "a calm Subtree stays patchable");
        assert_eq!(m.totals().churn_rebuilds, 1);
        assert_eq!(m.totals().patched, 1, "the calm body is patched in place");
        assert_eq!(round.stats.n_moved, round.stats.n_escaped + 1);
        assert!(round.stats.n_escaped as f64 > CHURN_REBUILD_FRACTION * n0 as f64);
        for t in &trees {
            t.validate(cfg.bucket_size).unwrap();
        }
    }

    #[test]
    fn thread_count_does_not_change_output_under_churn() {
        let run_steps = || {
            let cfg = config();
            let ps = gen::uniform_cube(1200, 37, 1.0, 1.0);
            let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, true);
            let mut master = masters(&seeded);
            let mut out = Vec::new();
            for _ in 0..3 {
                // A third of the bodies trade places (their Subtrees
                // churn, and some bodies migrate); the rest creep.
                let third = master.len() / 3;
                trade_places(&mut master[..third]);
                let c = m.universe().center();
                for p in &mut master[third..] {
                    p.pos = c + (p.pos - c) * 0.999;
                }
                let (trees, round) = m.advance(master);
                master = masters(&trees);
                out.push((trees, round));
            }
            (out, *m.totals())
        };
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(run_steps)
        };
        let (a, totals) = run(1);
        assert!(totals.churn_rebuilds > 0, "the trade must churn: {totals:?}");
        assert!(totals.patched > 0, "the creep must patch: {totals:?}");
        assert_eq!(totals.full_rebuilds, 0);
        for (b, _) in [run(2), run(8)] {
            for ((ta, ra), (tb, rb)) in a.iter().zip(&b) {
                assert_eq!(ra.churn_rebuilt, rb.churn_rebuilt);
                assert_eq!(ra.rebuilt_subtrees, rb.rebuilt_subtrees);
                assert_eq!((ra.n_batches, ra.n_migrated), (rb.n_batches, rb.n_migrated));
                assert_eq!(ra.stats, rb.stats);
                assert_eq!(ta.len(), tb.len());
                for (x, y) in ta.iter().zip(tb) {
                    assert_same_tree(x, y);
                }
            }
        }
    }

    #[test]
    fn partition_imbalance_handles_degenerate_loads() {
        // Regression: an empty load vector (a rank owning zero
        // Subtrees after a shrinking-population fallback) panicked on
        // `max().unwrap()`.
        assert_eq!(partition_imbalance(&[]), 1.0);
        assert_eq!(partition_imbalance(&[0, 0, 0]), 1.0);
        assert_eq!(partition_imbalance(&[4, 4, 4, 4]), 1.0);
        assert_eq!(partition_imbalance(&[8, 0]), 2.0);
    }

    #[test]
    fn shrinking_population_falls_back_then_advances_cleanly() {
        let cfg = config();
        let ps = gen::uniform_cube(600, 23, 1.0, 1.0);
        let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, false);
        let mut master = masters(&seeded);
        // Population shrinks (collisional merger): full fallback.
        master.truncate(500);
        let (trees, round) = m.advance(master);
        assert!(round.full_rebuild);
        assert_eq!(trees.iter().map(|t| t.particles.len()).sum::<usize>(), 500);
        // The next zero-motion advance over the re-decomposed forest
        // must succeed and report perfect balance handling.
        let master = masters(&trees);
        let (_trees, round) = m.advance(master);
        assert!(!round.full_rebuild);
        assert!(round.imbalance >= 1.0);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let drift = |master: &mut Vec<Particle>, uni: BoundingBox| {
            let c = uni.center();
            for (i, p) in master.iter_mut().enumerate() {
                let r = p.pos - c;
                let s = if i % 2 == 0 { 0.95 } else { 1.03 };
                p.pos = c + r * s;
                p.pos.x = p.pos.x.clamp(uni.lo.x, uni.hi.x);
                p.pos.y = p.pos.y.clamp(uni.lo.y, uni.hi.y);
                p.pos.z = p.pos.z.clamp(uni.lo.z, uni.hi.z);
            }
        };
        let run_steps = || {
            let cfg = config();
            let ps = gen::uniform_cube(1000, 29, 1.0, 1.0);
            let (mut m, seeded) = TreeMaintainer::<CountData>::seed(&cfg, ps, true);
            let mut master = masters(&seeded);
            let mut out = Vec::new();
            for _ in 0..3 {
                drift(&mut master, m.universe());
                let (trees, round) = m.advance(master);
                out.push((trees, round.n_batches, round.stats));
                master = masters(&out.last().unwrap().0);
            }
            out
        };
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(run_steps)
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        for (x, y) in a.iter().zip(&b).chain(a.iter().zip(&c)) {
            assert_eq!(x.1, y.1, "batch counts must match across thread counts");
            assert_eq!(x.2, y.2, "stats must match across thread counts");
            assert_eq!(x.0.len(), y.0.len());
            for (ta, tb) in x.0.iter().zip(&y.0) {
                assert_eq!(ta.particles, tb.particles);
                assert_eq!(ta.nodes.len(), tb.nodes.len());
                for (na, nb) in ta.nodes.iter().zip(&tb.nodes) {
                    assert_eq!(na.key, nb.key);
                    assert_eq!(na.shape, nb.shape);
                    assert_eq!(na.data, nb.data);
                }
            }
        }
    }
}
