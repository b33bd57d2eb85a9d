//! Cross-iteration tree maintenance: the engine-facing half of the
//! incremental update subsystem.
//!
//! A [`TreeMaintainer`] owns one [`UpdatableTree`] per Subtree plus the
//! decomposition they were seeded from (universe, piece regions,
//! partitioner). Each iteration, [`TreeMaintainer::advance`] runs the
//! *batch* update cycle over disjoint Subtrees:
//!
//! 1. **Classify** — one pass per Subtree (in parallel) resyncs the
//!    integrated particle state and evicts everything that left its
//!    leaf's footprint.
//! 2. **Route** — escapees are grouped by destination Subtree into
//!    insert batches, each sorted by (SFC key, id) so application
//!    order is a canonical function of the particle state.
//! 3. **Apply** — each destination sieves its whole batch down in one
//!    group pass and repairs (split/merge/prune + `Data`
//!    re-accumulation along dirty paths), again in parallel over the
//!    disjoint Subtree slabs.
//! 4. **Rebalance** — weight-balance invariants, recomputed from the
//!    current trees every round, decide rebuilds: a median-split
//!    Subtree is rebuilt alone when an interior node violates the
//!    BB[α] criterion or its depth exceeds the α-balance bound;
//!    position-determined trees (octree, binary-oct) are never
//!    structurally rebuilt, because maintenance already reproduces
//!    exactly the structure a fresh build would.
//! 5. **Flatten** — each Subtree emits the canonical pre-order arena
//!    (in parallel), which drops into the unchanged leaf-sharing /
//!    cache / traversal pipeline.
//!
//! The whole tree is rebuilt and re-decomposed (fresh universe, pieces,
//! partitioner) when a particle leaves the universe box, the population
//! changes, or the max/mean Partition load exceeds
//! `imbalance_rebuild`. A structural [`UpdateError`] (stale slab,
//! population mismatch) is never fatal: the maintainer logs it and
//! falls back to the same full rebuild.
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
use paratreet_tree::{BuiltTree, Data, UpdatableTree, UpdateError, UpdateStats};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Cumulative `tree.update.*` counters over the life of a maintainer.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateTotals {
    /// Incremental advances performed (seeding not included).
    pub steps: u64,
    /// Particles whose position or mass changed across all advances.
    pub moved: u64,
    /// Particles patched in place (moved but stayed in their leaf).
    pub patched: u64,
    /// Particles that escaped their leaf bbox.
    pub escaped: u64,
    /// Escapees that crossed into a different Subtree.
    pub migrated: u64,
    /// Non-empty per-Subtree insert batches applied.
    pub batches: u64,
    /// Leaf splits performed by repair passes.
    pub splits: u64,
    /// Interior collapses performed by repair passes.
    pub merges: u64,
    /// Emptied regions pruned.
    pub pruned: u64,
    /// Nodes whose `Data` summary was re-accumulated.
    pub refreshed: u64,
    /// Single-Subtree rebuilds (weight-balance violations or uncovered
    /// adoptions).
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
    /// Subtrees rebuilt alone this round (weight balance or adoption).
    pub rebuilt_subtrees: Vec<u32>,
    /// The whole-tree fallback fired (universe escape or imbalance).
    pub full_rebuild: bool,
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

/// Maintains the global tree across iterations (for the shared-memory
/// engine and the serving writer). Seeded
/// once with a full decompose + build; advanced once per iteration with
/// the integrated particle state.
pub struct TreeMaintainer<D: Data> {
    config: Configuration,
    universe: BoundingBox,
    pieces: Vec<PieceMeta>,
    trees: Vec<UpdatableTree<D>>,
    partitioner: Partitioner,
    n_partitions: usize,
    totals: UpdateTotals,
    /// Parallel regions for the seed/rebuild builder paths and the
    /// batch classify/apply/flatten phases.
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
            trees: Vec::new(),
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
        self.trees.len()
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
        self.trees = built
            .iter()
            .zip(&self.pieces)
            .map(|(t, p)| UpdatableTree::from_built(t, tree_type, bucket_size, p.depth))
            .collect();
        built
    }

    /// One incremental iteration. `master` is the integrated particle
    /// state in the order the previous trees' buckets tiled it (i.e.
    /// the concatenation of the returned trees' particle arrays).
    /// Returns the flattened trees for this iteration plus what was
    /// done to produce them. Falls back to a transparent whole-tree
    /// rebuild when a particle leaves the universe, the partition load
    /// imbalance crosses its threshold, or the maintained structure
    /// reports an [`UpdateError`].
    pub fn advance(&mut self, mut master: Vec<Particle>) -> (Vec<BuiltTree<D>>, MaintainRound) {
        let inc = self.config.incremental;
        self.totals.steps += 1;
        let mut round = MaintainRound::default();

        // Population change (e.g. collisional merges or accretion): the
        // maintained bucket slices no longer tile the master array, so
        // patching is meaningless — re-decompose over the new set.
        let maintained: usize = self.trees.iter().map(|t| t.n_particles() as usize).sum();
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

        // `master` stays alive through the patch phases: if the
        // maintained structure turns out to be inconsistent we recover
        // by rebuilding from it instead of aborting the run.
        match self.advance_patched(&master, &mut round) {
            Ok((flats, loads)) => {
                drop(master);
                let imbalance = partition_imbalance(&loads);
                round.imbalance = imbalance;
                self.totals.last_imbalance = imbalance;
                self.accumulate(&round);
                if imbalance > inc.imbalance_rebuild {
                    let master: Vec<Particle> =
                        flats.into_iter().flat_map(|f| f.particles).collect();
                    return self.fall_back(master, round);
                }
                (flats, round)
            }
            Err(e) => {
                eprintln!("tree update error ({e}); falling back to a full rebuild");
                self.totals.update_errors += 1;
                self.fall_back(master, round)
            }
        }
    }

    /// The batch patch phases (classify → route → apply → rebalance →
    /// flatten). Any structural error aborts cleanly back to the
    /// caller, which still owns the master particle state. Also returns
    /// the per-Partition loads, counted while the flattened particles
    /// are still warm in cache.
    fn advance_patched(
        &mut self,
        master: &[Particle],
        round: &mut MaintainRound,
    ) -> Result<(Vec<BuiltTree<D>>, Vec<u64>), UpdateError> {
        let inc = self.config.incremental;
        let n_trees = self.trees.len();
        // Phase 1 — classify: resync + evict in one pass per Subtree,
        // in parallel over the disjoint slabs.
        let counts: Vec<usize> = self.trees.iter().map(|t| t.n_particles() as usize).collect();
        let mut slices: Vec<&[Particle]> = Vec::with_capacity(n_trees);
        let mut off = 0usize;
        for &c in &counts {
            slices.push(&master[off..off + c]);
            off += c;
        }
        debug_assert_eq!(off, master.len());
        let classified = par_map_mut(self.parallel, &mut self.trees, slices, |t, s| t.classify(s));
        let mut escapees_per_tree = Vec::with_capacity(n_trees);
        for c in classified {
            let c = c?;
            round.stats.n_moved += c.n_moved;
            round.stats.n_escaped += c.escapees.len() as u64;
            escapees_per_tree.push(c.escapees);
        }
        // Phase 2 — route: group escapees by the Subtree whose region
        // now contains them (most stay home; boundary crossers
        // migrate). Each destination batch is sorted by (SFC key, id)
        // so its application order is a canonical function of the
        // particle state, not of which leaves the escapees came from.
        let mut batches: Vec<Vec<Particle>> = vec![Vec::new(); n_trees];
        let mut homeless: BTreeMap<usize, Vec<Particle>> = BTreeMap::new();
        for (si, escaped) in escapees_per_tree.into_iter().enumerate() {
            for p in escaped {
                let (dest, covered) = self.route(p.pos, si);
                if dest != si {
                    round.n_migrated += 1;
                }
                round.stats.n_inserted += 1;
                if covered {
                    batches[dest].push(p);
                } else {
                    // A region no piece covers: the destination grows
                    // its box over these and rebuilds (below).
                    homeless.entry(dest).or_default().push(p);
                }
            }
        }
        for b in batches.iter_mut() {
            // Unstable sort is deterministic here: (key, id) is a total
            // order because ids are unique.
            b.sort_unstable_by_key(|p| (p.key, p.id));
        }
        round.n_batches = batches.iter().filter(|b| !b.is_empty()).count() as u64;
        self.totals.batches += round.n_batches;
        // Phase 3 — apply: sieve each destination's batch down in one
        // group pass, then repair, in parallel over disjoint Subtrees.
        let alpha = inc.balance_alpha;
        let applied = par_map_mut(self.parallel, &mut self.trees, batches, |t, b| {
            t.insert_batch(b)?;
            t.repair(alpha)
        });
        let mut unbalanced = vec![false; n_trees];
        for (si, rep) in applied.into_iter().enumerate() {
            let rep = rep?;
            round.stats += rep.stats;
            unbalanced[si] = rep.unbalanced;
        }
        // Escapees whose positions no piece covers cannot be sieved
        // (every leaf box must contain its particles): the adopting
        // Subtree grows its region box over them and rebuilds — after
        // batch apply, so the rebuild captures this round's inserts.
        for (dest, extra) in homeless {
            self.rebuild_subtree(dest, extra)?;
            unbalanced[dest] = false;
            round.rebuilt_subtrees.push(dest as u32);
            self.totals.subtree_rebuilds += 1;
        }

        // Phase 4 — weight-balance rebuilds. Both criteria are
        // recomputed from the current tree every round (never carried
        // in as-built counters, which go stale after a large absorbed
        // batch): the α child-weight check from this repair pass, and
        // the α depth bound against the current population.
        for (si, &unb) in unbalanced.iter().enumerate() {
            if round.rebuilt_subtrees.contains(&(si as u32)) {
                continue;
            }
            if unb || self.depth_unbalanced(si) {
                self.rebuild_subtree(si, Vec::new())?;
                round.rebuilt_subtrees.push(si as u32);
                self.totals.subtree_rebuilds += 1;
            }
        }

        // Phase 5 — flatten for the pipeline, in parallel, counting
        // Partition loads in the same pass (the flattened particles are
        // still warm in cache).
        let partitioner = &self.partitioner;
        let n_partitions = self.n_partitions;
        let flats = par_map_mut(self.parallel, &mut self.trees, vec![(); n_trees], |t, ()| {
            let flat = t.flatten()?;
            let mut loads = vec![0u64; n_partitions];
            for p in &flat.particles {
                loads[partitioner.assign(p) as usize] += 1;
            }
            Ok((flat, loads))
        });
        let mut out = Vec::with_capacity(n_trees);
        let mut loads = vec![0u64; n_partitions];
        for r in flats {
            let (flat, l) = r?;
            for (dst, v) in loads.iter_mut().zip(l) {
                *dst += v;
            }
            out.push(flat);
        }
        Ok((out, loads))
    }

    /// Whether a median-split Subtree's depth exceeds the α-balance
    /// bound `log(n/bucket) / log(1/α)` by more than the configured
    /// slack. Position-determined trees never qualify: their depth
    /// follows local density by construction.
    fn depth_unbalanced(&self, si: usize) -> bool {
        if !self.config.tree_type.is_median_split() {
            return false;
        }
        let inc = self.config.incremental;
        let n = self.trees[si].n_particles() as f64;
        let bucket = self.config.bucket_size.max(1) as f64;
        let ideal = (n / bucket).max(1.0).log2() / (1.0 / inc.balance_alpha).log2().max(1e-9);
        (self.trees[si].max_depth() as f64) > ideal + inc.balance_depth_slack as f64
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
    }

    /// The Subtree whose region contains `pos`, preferring the source
    /// Subtree on shared faces (avoids spurious boundary migrations).
    /// Pieces tile the universe, so the nearest-region fallback only
    /// guards float edge cases.
    fn route(&self, pos: Vec3, src: usize) -> (usize, bool) {
        if self.pieces[src].bbox.contains(pos) {
            return (src, true);
        }
        for (i, piece) in self.pieces.iter().enumerate() {
            if piece.bbox.contains(pos) {
                return (i, true);
            }
        }
        // The position fell into a region no piece covers (an octant
        // that held no particles at decomposition time): the nearest
        // piece adopts it, growing its region box.
        let mut best = src;
        let mut best_d = f64::INFINITY;
        for (i, piece) in self.pieces.iter().enumerate() {
            let d = piece.bbox.dist_sq_to(pos);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        (best, false)
    }

    /// Rebuilds one Subtree from its current particles (balance
    /// policy), plus `outsiders` — escapees whose positions no piece
    /// covers; the region box grows over them first so every leaf box
    /// still contains its particles.
    fn rebuild_subtree(&mut self, si: usize, outsiders: Vec<Particle>) -> Result<(), UpdateError> {
        for p in &outsiders {
            self.pieces[si].bbox.grow(p.pos);
        }
        let piece = self.pieces[si];
        let mut particles = self.trees[si].all_particles()?;
        particles.extend(outsiders);
        let built: BuiltTree<D> =
            build_piece(piece.key, piece.depth, piece.bbox, particles, &self.config, self.parallel);
        self.trees[si] = UpdatableTree::from_built(
            &built,
            self.config.tree_type,
            self.config.bucket_size,
            piece.depth,
        );
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
        assert!(
            m.totals().subtree_rebuilds > 0 || m.totals().full_rebuilds > 0,
            "median-split drift must trip the weight-balance policy: {:?}",
            m.totals()
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
