//! The iteration front-end every engine shares.
//!
//! The Partitions–Subtrees pipeline is one algorithm whatever machine
//! executes the traversal: obtain the Subtrees (fresh decomposition +
//! build, or a seeded / advanced [`TreeMaintainer`]) → leaf sharing with
//! bucket splitting (Fig. 5) → per-rank cache init → per-Partition
//! target buckets → *traversal* → write-back. Everything except the
//! traversal is data preparation and lives here, once, as phases over
//! one [`Iteration`] state; an engine keeps only what genuinely differs
//! between executors — its over-decomposition floors, the Subtree /
//! Partition → rank placement, and the executor itself (rayon over
//! partitions, real threads and channels, or the discrete-event loop).
//!
//! A Partition's targets are one [`Targets`] whichever engine traverses
//! them: assembled from the master array by [`Iteration::targets`]
//! (read-only, so engines call it inside their per-Partition region; a
//! crashed Partition is reset by assembling again) and returned to it by
//! [`Iteration::write_back`].

use crate::config::Configuration;
use crate::decomp::{decompose, Partitioner, SubtreePiece};
use crate::maintain::{MaintainRound, TreeMaintainer, UpdateTotals};
use crate::traversal::WorkCounts;
use crate::visitor::{Lane, TargetBucket, TargetSpan, Visitor, LANE_GROUP};
use paratreet_cache::stats::CacheStatsSnapshot;
use paratreet_cache::{CacheTree, SubtreeSummary};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use paratreet_tree::{BuiltTree, Data, TreeBuilder};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Columns the wall-clock engines' flight recorders sample at each phase
/// boundary (one row after setup, one after traversal, per step).
/// `stage` is 0 for setup (decompose + build or incremental update) and
/// 1 for leaf sharing + traversal.
pub const FLIGHT_SERIES: &[&str] =
    &["epoch", "stage", "seconds", "n_subtrees", "n_buckets", "update_migrated"];

/// The maintained-run report entries: cumulative `tree.update.*`
/// counters plus this round's batch / migration counts, and the
/// wall-clock `time.update_s`.
pub(crate) fn record_update(
    metrics: &mut MetricsRegistry,
    totals: &UpdateTotals,
    round_batches: u64,
    round_migrated: u64,
    seconds_update: f64,
) {
    metrics.set_f64("time.update_s", seconds_update);
    metrics.absorb("tree.update", totals);
    metrics.set_u64("tree.update.round_batches", round_batches);
    metrics.set_u64("tree.update.round_migrated", round_migrated);
}

/// Builds one Subtree piece — the single piece → tree recipe. The root
/// key and depth place the subtree in the global tree, so it splits the
/// way the global tree would.
pub(crate) fn build_piece<D: Data>(
    key: NodeKey,
    depth: u32,
    bbox: BoundingBox,
    particles: Vec<Particle>,
    config: &Configuration,
    parallel: bool,
) -> BuiltTree<D> {
    TreeBuilder { root_key: key, root_depth: depth, parallel, ..TreeBuilder::new(config.tree_type) }
        .bucket_size(config.bucket_size)
        .build::<D>(particles, bbox)
}

/// Builds every piece. Pieces are independent (the paper's
/// synchronization-free tree build); results come back in piece order,
/// so the output does not depend on `parallel`. A borrowed piece is
/// copied by the build that consumes it, inside the region.
pub(crate) fn build_pieces<D: Data, P: Into<SubtreePiece> + Send>(
    pieces: Vec<P>,
    config: &Configuration,
    parallel: bool,
) -> Vec<BuiltTree<D>> {
    let one = |p: P| {
        let p: SubtreePiece = p.into();
        build_piece(p.key, p.depth, p.bbox, p.particles, config, parallel)
    };
    if parallel {
        pieces.into_par_iter().map(one).collect()
    } else {
        pieces.into_iter().map(one).collect()
    }
}

/// Where one target bucket's particles live in the master array.
#[derive(Clone, Debug)]
pub(crate) struct BucketMeta {
    /// Key of the tree leaf the bucket came from.
    pub leaf_key: NodeKey,
    /// The Partition that owns (traverses) the bucket.
    pub partition: u32,
    /// Index of the Subtree that holds the leaf.
    pub subtree: u32,
    /// Master-array indices of this bucket's particles.
    pub indices: Vec<u32>,
}

/// One Partition's targets, as a traversal reads and writes them: the
/// buckets in Partition order and, laid end to end in that order, their
/// particles — [`Particle`] records in one flat array, or, for a visitor
/// that declares lanes, one `f64` column per declared field and no
/// records. A run of adjacent buckets is therefore one stretch of every
/// array ([`Targets::span`]).
#[derive(Clone, Debug)]
pub struct Targets<S, T = ()> {
    buckets: Vec<TargetBucket<S, T>>,
    particles: Vec<Particle>,
    /// One column per read lane of [`Visitor::LANES`], each
    /// `LANE_GROUP - 1` zeros longer than the Partition.
    reads: Vec<Vec<f64>>,
    /// One column per write lane (`write_lanes`), padded alike.
    writes: Vec<Vec<f64>>,
    write_lanes: &'static [Lane],
    /// A visitor took the records mutably.
    dirty: bool,
}

impl<S: Default, T> Targets<S, T> {
    /// Assembles a Partition's targets from its buckets' leaf keys and
    /// particles, in order: tight boxes, `visitor`'s per-target values
    /// and default states, then either the records or `visitor`'s lanes.
    pub fn assemble<V, B>(
        visitor: &V,
        buckets: impl IntoIterator<Item = (NodeKey, B)>,
    ) -> Targets<S, T>
    where
        V: Visitor<State = S, PerTarget = T>,
        B: IntoIterator<Item = Particle, IntoIter: ExactSizeIterator>,
    {
        // Sized before it is filled: growing by doubling would leave
        // twice the Partition behind in freed blocks.
        let buckets: Vec<(NodeKey, B::IntoIter)> =
            buckets.into_iter().map(|(key, own)| (key, own.into_iter())).collect();
        let mut particles: Vec<Particle> =
            Vec::with_capacity(buckets.iter().map(|(_, own)| own.len()).sum());
        let buckets = buckets
            .into_iter()
            .map(|(leaf_key, own)| {
                let start = particles.len();
                particles.extend(own);
                let own = &particles[start..];
                debug_assert!(!own.is_empty(), "leaf sharing never produces an empty bucket");
                TargetBucket {
                    leaf_key,
                    bbox: BoundingBox::around(own.iter().map(|p| p.pos)),
                    range: start..particles.len(),
                    state: S::default(),
                    prepared: visitor.prepare_target(own),
                }
            })
            .collect();
        let column = |lane: &Lane| {
            let mut column = Vec::with_capacity(particles.len() + LANE_GROUP - 1);
            column.extend(particles.iter().map(|p| lane.get(p)));
            column.resize(particles.len() + LANE_GROUP - 1, 0.0);
            column
        };
        let reads: Vec<Vec<f64>> = V::LANES.reads.iter().map(column).collect();
        let writes: Vec<Vec<f64>> = V::LANES.writes.iter().map(column).collect();
        if !reads.is_empty() || !writes.is_empty() {
            particles = Vec::new();
        }
        Targets { buckets, particles, reads, writes, write_lanes: V::LANES.writes, dirty: false }
    }
}

impl<S, T> Targets<S, T> {
    /// The buckets, in Partition order.
    pub fn buckets(&self) -> &[TargetBucket<S, T>] {
        &self.buckets
    }

    /// Target particles in the Partition.
    pub fn n_particles(&self) -> usize {
        self.buckets.last().map_or(0, |b| b.range.end)
    }

    /// The run of adjacent buckets `run`, as `node` and `leaf` take it.
    pub fn span(&mut self, run: Range<usize>) -> TargetSpan<'_, S, T> {
        let buckets = &mut self.buckets[run];
        let range = match (buckets.first(), buckets.last()) {
            (Some(first), Some(last)) => first.range.start..last.range.end,
            _ => 0..0,
        };
        TargetSpan {
            buckets,
            particles: self.particles.get_mut(range.clone()).unwrap_or_default(),
            reads: &self.reads,
            writes: &mut self.writes,
            range,
            dirty: &mut self.dirty,
        }
    }

    /// Returns what the traversal wrote to the particles it was gathered
    /// from — `homes` names each target's place in `master`, in Partition
    /// order: the write lanes where the visitor declared lanes, whole
    /// records where it took them mutably, nothing otherwise.
    pub fn write_back(&self, master: &mut [Particle], homes: impl Iterator<Item = usize>) {
        if !self.write_lanes.is_empty() {
            for (slot, home) in homes.enumerate() {
                for (lane, column) in self.write_lanes.iter().zip(&self.writes) {
                    lane.set(&mut master[home], column[slot]);
                }
            }
        } else if self.dirty {
            for (p, home) in self.particles.iter().zip(homes) {
                master[home] = *p;
            }
        }
    }

    /// The per-bucket states, in Partition order.
    pub fn into_states(self) -> impl Iterator<Item = S> {
        self.buckets.into_iter().map(|b| b.state)
    }
}

/// One iteration's state, filled phase by phase: [`Iteration::obtain`]
/// sets the first group of fields, [`Iteration::prepare`] consumes
/// `trees` and fills the second.
#[derive(Default)]
pub(crate) struct Iteration<D: Data> {
    /// Built Subtrees in piece (SFC) order (moved into the caches by
    /// `prepare`).
    pub trees: Vec<BuiltTree<D>>,
    /// Particle → Partition assignment.
    pub partitioner: Partitioner,
    /// Number of Partitions the partitioner produces.
    pub n_partitions: usize,
    /// The global root's region.
    pub universe: BoundingBox,
    /// What the maintainer did — `Some` only on an incremental advance
    /// (not a fresh build, not the seed).
    pub round: Option<MaintainRound>,
    /// Cumulative maintenance counters, once a maintainer is live.
    pub update: Option<UpdateTotals>,
    /// Wall-clock seconds spent decomposing.
    pub seconds_decompose: f64,
    /// Wall-clock seconds spent building.
    pub seconds_build: f64,
    /// Wall-clock seconds spent in the incremental update.
    pub seconds_update: f64,

    /// Number of Subtrees.
    pub n_subtrees: usize,
    /// One summary per Subtree, homed by the engine's placement.
    pub summaries: Vec<SubtreeSummary<D>>,
    /// Cache `rank * caches_per_rank + i` belongs to `rank`.
    pub caches: Vec<CacheTree<D>>,
    /// Subtree particle arrays concatenated in piece order; leaf buckets
    /// are contiguous master ranges.
    pub master: Vec<Particle>,
    /// Target buckets in (Subtree, leaf DFS, first-appearance Partition)
    /// order.
    pub buckets: Vec<BucketMeta>,
    /// Each Partition's buckets (indices into `buckets`, ascending):
    /// Partition-then-bucket is the deterministic order every engine
    /// reports states in.
    pub by_partition: Vec<Vec<u32>>,
    /// Tree leaves whose particles spanned >1 Partition (Fig. 5).
    pub n_split_leaves: usize,
    /// Wall-clock seconds leaf sharing took.
    pub seconds_share: f64,
}

impl<D: Data> Iteration<D> {
    /// Obtains this iteration's trees. With `maintained == None` that is
    /// a fresh decomposition + build. Otherwise the first call seeds a
    /// [`TreeMaintainer`] into the slot (a normal decomposition + build)
    /// and every later call patches the maintained tree in place under
    /// the "incremental update" phase. Either way the result feeds the
    /// same leaf-sharing / cache / traversal tail, so traversal
    /// semantics are identical to a full rebuild. `config` must already
    /// carry the engine's over-decomposition floors.
    pub fn obtain(
        config: &Configuration,
        telemetry: &Telemetry,
        particles: Vec<Particle>,
        maintained: Option<&mut Option<TreeMaintainer<D>>>,
        parallel: bool,
    ) -> Iteration<D> {
        let t0 = Instant::now();
        let Some(slot) = maintained else {
            let d = telemetry.wall_span(0, "decomposition", None, || decompose(particles, config));
            let seconds_decompose = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let trees = telemetry
                .wall_span(0, "tree build", None, || build_pieces(d.subtrees, config, parallel));
            return Iteration {
                n_subtrees: trees.len(),
                trees,
                partitioner: d.partitioner,
                n_partitions: d.n_partitions,
                universe: d.universe,
                seconds_decompose,
                seconds_build: t0.elapsed().as_secs_f64(),
                ..Default::default()
            };
        };
        let (trees, round) = match slot.as_mut() {
            None => {
                let (maintainer, trees) = telemetry.wall_span(0, "tree build", None, || {
                    TreeMaintainer::seed(config, particles, parallel)
                });
                *slot = Some(maintainer);
                (trees, None)
            }
            Some(m) => {
                let (trees, round) =
                    telemetry.wall_span(0, "incremental update", None, || m.advance(particles));
                (trees, Some(round))
            }
        };
        let seconds = t0.elapsed().as_secs_f64();
        let m = slot.as_ref().expect("seeded above");
        // The seed is a decompose + build: charge it to build time, like
        // the full pipeline's dominant stage.
        let (seconds_build, seconds_update) =
            if round.is_some() { (0.0, seconds) } else { (seconds, 0.0) };
        Iteration {
            n_subtrees: trees.len(),
            trees,
            partitioner: m.partitioner().clone(),
            n_partitions: m.n_partitions(),
            universe: m.universe(),
            round,
            update: Some(*m.totals()),
            seconds_build,
            seconds_update,
            ..Default::default()
        }
    }

    /// Non-empty per-Subtree insert batches this round applied.
    pub fn round_batches(&self) -> u64 {
        self.round.as_ref().map_or(0, |r| r.n_batches)
    }

    /// Particles that crossed Subtree boundaries this round.
    pub fn round_migrated(&self) -> u64 {
        self.round.as_ref().map_or(0, |r| r.n_migrated)
    }

    /// Setup seconds (decompose + build, or the incremental update):
    /// the stage-0 flight row's `seconds`.
    pub fn seconds_setup(&self) -> f64 {
        self.seconds_decompose + self.seconds_build + self.seconds_update
    }

    /// Leaf sharing, then cache init with Subtree `i` homed on rank
    /// `home[i]` and `caches_per_rank` caches per rank (only the DES
    /// `PerThread` model asks for more than one, and pays a tree clone
    /// for each extra instance).
    pub fn prepare(
        &mut self,
        home: &[u32],
        n_ranks: usize,
        caches_per_rank: usize,
        config: &Configuration,
        telemetry: &Telemetry,
    ) {
        let t0 = Instant::now();
        telemetry.wall_span(0, "leaf sharing", None, || self.share_leaves());
        self.seconds_share = t0.elapsed().as_secs_f64();

        self.summaries = self
            .trees
            .iter()
            .zip(home)
            .map(|(t, &home_rank)| SubtreeSummary {
                key: t.root().key,
                bbox: t.root().bbox,
                n_particles: t.root().n_particles,
                data: t.root().data.clone(),
                home_rank,
            })
            .collect();
        let mut per_rank: Vec<Vec<BuiltTree<D>>> = (0..n_ranks).map(|_| Vec::new()).collect();
        for (tree, &rank) in std::mem::take(&mut self.trees).into_iter().zip(home) {
            per_rank[rank as usize].push(tree);
        }
        let bits = config.tree_type.bits_per_level();
        for (rank, local) in per_rank.into_iter().enumerate() {
            let mut local = Some(local);
            for i in 0..caches_per_rank {
                let mut cache = CacheTree::new(rank as u32, bits);
                cache.telemetry = telemetry.clone();
                // Each cache instance needs its own grafted copy.
                let own = if i + 1 == caches_per_rank { local.take() } else { local.clone() };
                cache.init(&self.summaries, own.expect("taken by the rank's last cache only"));
                self.caches.push(cache);
            }
        }
        #[cfg(debug_assertions)]
        self.audit(config, "after init");
    }

    /// Debug builds sweep every cache's structural invariants at phase
    /// boundaries; release builds skip the O(cache) walk. On a
    /// maintained tree the extended audit also validates what a fresh
    /// build guarantees by construction (bucket bounds, summary sums,
    /// orphan placeholders): patched trees must satisfy every invariant
    /// a fresh build does.
    #[cfg(debug_assertions)]
    pub fn audit(&self, config: &Configuration, when: &str) {
        for (ci, c) in self.caches.iter().enumerate() {
            let res =
                if self.update.is_some() { c.audit_patched(config.bucket_size) } else { c.audit() };
            if let Err(e) = res {
                panic!("cache {ci} audit failed {when}: {e}");
            }
        }
    }

    /// Groups every leaf's particles by Partition assignment, splitting
    /// the bucket where a leaf spans several Partitions.
    fn share_leaves(&mut self) {
        self.master.reserve(self.trees.iter().map(|t| t.particles.len()).sum());
        self.by_partition = vec![Vec::new(); self.n_partitions.max(1)];
        // Grouping scratch, reused across leaves (inner index vectors
        // move into BucketMeta; only the spine's capacity persists).
        let mut per_part: Vec<(u32, Vec<u32>)> = Vec::new();
        for (si, tree) in self.trees.iter().enumerate() {
            let offset = self.master.len() as u32;
            // The arena is pre-order, so a linear node scan visits
            // leaves in DFS order without a traversal stack.
            for node in &tree.nodes {
                let Some(range) = node.bucket_range() else { continue };
                // Assignments run in SFC-contiguous streaks, so memoize
                // the previous particle's slot.
                let mut last_part = u32::MAX;
                let mut last_slot = usize::MAX;
                for i in range {
                    let part = self.partitioner.assign(&tree.particles[i]);
                    if part != last_part {
                        last_slot = match per_part.iter().position(|(p, _)| *p == part) {
                            Some(s) => s,
                            None => {
                                per_part.push((part, Vec::new()));
                                per_part.len() - 1
                            }
                        };
                        last_part = part;
                    }
                    per_part[last_slot].1.push(offset + i as u32);
                }
                if per_part.len() > 1 {
                    self.n_split_leaves += 1;
                }
                let (leaf_key, subtree) = (node.key, si as u32);
                for (partition, indices) in per_part.drain(..) {
                    self.by_partition[partition as usize].push(self.buckets.len() as u32);
                    self.buckets.push(BucketMeta { leaf_key, partition, subtree, indices });
                }
            }
            self.master.extend_from_slice(&tree.particles);
        }
    }

    /// Assembles Partition `p`'s targets for `visitor` from the master
    /// array.
    pub fn targets<V: Visitor<Data = D>>(
        &self,
        visitor: &V,
        p: usize,
    ) -> Targets<V::State, V::PerTarget> {
        Targets::assemble(
            visitor,
            self.by_partition[p].iter().map(|&b| {
                let meta = &self.buckets[b as usize];
                (meta.leaf_key, meta.indices.iter().map(|&i| self.master[i as usize]))
            }),
        )
    }

    /// Write-back: what Partition `p`'s traversal wrote returns to the
    /// master array.
    pub fn write_back<S, T>(&mut self, p: usize, targets: &Targets<S, T>) {
        let buckets = &self.buckets;
        let homes = self.by_partition[p]
            .iter()
            .flat_map(|&b| buckets[b as usize].indices.iter().map(|&i| i as usize));
        targets.write_back(&mut self.master, homes);
    }

    /// How a message engine's iteration ends: every Partition's targets
    /// — `(partition, targets, its interaction counts)` — return to the
    /// master array, counts and the `caches`' statistics are summed, and
    /// the report's registry starts with what both engines record:
    /// `cache.*`, `counts.*` and `decomp.n_split_leaves`.
    pub fn finish<'t, S: 't, T: 't>(
        &mut self,
        caches: impl IntoIterator<Item = &'t CacheTree<D>>,
        parts: impl IntoIterator<Item = (usize, &'t Targets<S, T>, WorkCounts)>,
    ) -> (WorkCounts, CacheStatsSnapshot, MetricsRegistry) {
        let mut counts = WorkCounts::default();
        for (p, targets, own) in parts {
            counts += own;
            self.write_back(p, targets);
        }
        let mut cache = CacheStatsSnapshot::default();
        for c in caches {
            cache.merge(&c.stats.snapshot());
        }
        let mut metrics = MetricsRegistry::new();
        metrics.absorb("cache", &cache);
        metrics.absorb("counts", &counts);
        metrics.set_u64("decomp.n_split_leaves", self.n_split_leaves as u64);
        (counts, cache, metrics)
    }

    /// Writes one [`FLIGHT_SERIES`] row (a no-op on a disabled recorder).
    pub fn sample_flight(&self, flight: &FlightRecorder, epoch: u64, stage: u8, seconds: f64) {
        if flight.is_enabled() {
            flight.sample(&[
                epoch as f64,
                stage as f64,
                seconds,
                self.n_subtrees as f64,
                self.buckets.len() as f64,
                self.round_migrated() as f64,
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecompType;
    use paratreet_particles::gen;
    use paratreet_tree::{CountData, TreeType};

    /// The leaf sharing two engines used to carry privately — a stack
    /// walk via `leaf_indices()` with a fresh grouping per leaf — kept as
    /// the reference: `(leaf_key, partition, particle ids)` per bucket.
    fn reference(
        trees: &[BuiltTree<CountData>],
        partitioner: &Partitioner,
    ) -> Vec<(NodeKey, u32, Vec<u64>)> {
        let mut out = Vec::new();
        for tree in trees {
            for li in tree.leaf_indices() {
                let node = tree.node(li);
                let mut per_part: Vec<(u32, Vec<u64>)> = Vec::new();
                for p in &tree.particles[node.bucket_range().expect("leaf")] {
                    let part = partitioner.assign(p);
                    match per_part.iter_mut().find(|(q, _)| *q == part) {
                        Some((_, ids)) => ids.push(p.id),
                        None => per_part.push((part, vec![p.id])),
                    }
                }
                out.extend(per_part.into_iter().map(|(part, ids)| (node.key, part, ids)));
            }
        }
        out
    }

    #[test]
    fn leaf_sharing_matches_the_leaf_indices_walk() {
        let quiet = Telemetry::disabled();
        let particles = gen::clustered(1500, 3, 41, 1.0, 1.0);
        for tree_type in
            [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct]
        {
            for decomp_type in
                [DecompType::Sfc, DecompType::Oct, DecompType::Kd, DecompType::LongestDim]
            {
                let config = Configuration {
                    tree_type,
                    decomp_type,
                    bucket_size: 8,
                    n_subtrees: 8,
                    n_partitions: 12,
                    ..Default::default()
                };
                let mut it =
                    Iteration::<CountData>::obtain(&config, &quiet, particles.clone(), None, false);
                let want = reference(&it.trees, &it.partitioner);
                it.prepare(&vec![0; it.n_subtrees], 1, 1, &config, &quiet);
                let have: Vec<(NodeKey, u32, Vec<u64>)> = it
                    .buckets
                    .iter()
                    .map(|b| {
                        let ids = b.indices.iter().map(|&i| it.master[i as usize].id);
                        (b.leaf_key, b.partition, ids.collect())
                    })
                    .collect();
                assert_eq!(have, want, "{tree_type:?} × {decomp_type:?}");
                let split = want.chunk_by(|a, b| a.0 == b.0).filter(|leaf| leaf.len() > 1);
                assert_eq!(it.n_split_leaves, split.count());
            }
        }
    }

    /// `build_pieces`' promise: piece order, whatever `parallel` says
    /// and however many threads the region gets. 40 k particles over 4
    /// pieces, so the builder's own node splits are above its parallel
    /// threshold as well.
    #[test]
    fn build_pieces_ignores_parallel_and_thread_count() {
        let config = Configuration { bucket_size: 8, n_subtrees: 4, ..Default::default() };
        let pieces = crate::decomp::decompose(gen::clustered(40_000, 4, 7, 1.0, 1.0), &config);
        let build = |parallel: bool, threads: usize| -> Vec<BuiltTree<CountData>> {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| build_pieces(pieces.subtrees.clone(), &config, parallel))
        };
        let sequential = build(false, 1);
        assert!(sequential.iter().any(|t| t.particles.len() >= 4096), "a piece splits in parallel");
        for threads in [1, 2, 8] {
            let parallel = build(true, threads);
            assert_eq!(parallel.len(), sequential.len());
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(a.particles, b.particles, "{threads} threads");
                assert_eq!(a.nodes.len(), b.nodes.len());
                for (na, nb) in a.nodes.iter().zip(&b.nodes) {
                    assert_eq!((na.key, &na.shape, &na.data), (nb.key, &nb.shape, &nb.data));
                    assert_eq!(na.children, nb.children);
                }
            }
        }
    }

    /// Patched trees must satisfy every invariant a fresh build does: a
    /// maintained arena with a particle outside its leaf's region trips
    /// the debug audit at the end of `prepare`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its region box")]
    fn prepare_audits_a_patched_arena() {
        let config =
            Configuration { bucket_size: 8, n_subtrees: 8, n_partitions: 4, ..Default::default() };
        let quiet = Telemetry::disabled();
        let mut slot = None;
        let particles = gen::uniform_cube(300, 9, 1.0, 1.0);
        let mut it =
            Iteration::<CountData>::obtain(&config, &quiet, particles, Some(&mut slot), true);
        it.trees[0].particles[0].pos = paratreet_geometry::Vec3::splat(1e3);
        let home: Vec<u32> = (0..it.n_subtrees).map(|si| (si * 2 / it.n_subtrees) as u32).collect();
        it.prepare(&home, 2, 1, &config, &quiet);
    }
}
