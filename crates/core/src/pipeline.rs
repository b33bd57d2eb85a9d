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

use crate::config::Configuration;
use crate::decomp::{decompose, Partitioner, SubtreePiece};
use crate::maintain::{MaintainRound, TreeMaintainer, UpdateTotals};
use crate::visitor::TargetBucket;
use paratreet_cache::{CacheTree, SubtreeSummary};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use paratreet_tree::{BuiltTree, Data, TreeBuilder};
use rayon::prelude::*;
use std::time::Instant;

/// Columns the wall-clock engines' flight recorders sample at each phase
/// boundary (one row after setup, one after traversal, per step).
/// `stage` is 0 for setup (decompose + build or incremental update) and
/// 1 for leaf sharing + traversal.
pub const FLIGHT_SERIES: &[&str] =
    &["epoch", "stage", "seconds", "n_subtrees", "n_buckets", "update_migrated"];

/// The maintained-run report entries: cumulative `tree.update.*`
/// counters plus this round's batch / migration counts, and the
/// wall-clock `time.update_s` where the engine measures one (the DES
/// engine charges virtual time instead and passes `None`).
pub(crate) fn record_update(
    metrics: &mut MetricsRegistry,
    totals: &UpdateTotals,
    round_batches: u64,
    round_migrated: u64,
    seconds_update: Option<f64>,
) {
    if let Some(s) = seconds_update {
        metrics.set_f64("time.update_s", s);
    }
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

/// One Partition's target buckets: the global bucket ids (indices into
/// [`Iteration::buckets`]) and the owned copies a traversal mutates.
pub(crate) struct PartitionBuckets<S> {
    /// Global bucket ids, ascending.
    pub ids: Vec<usize>,
    /// The buckets, aligned with `ids`.
    pub buckets: Vec<TargetBucket<S>>,
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
    /// order — the deterministic bucket order every engine reports in.
    pub buckets: Vec<BucketMeta>,
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
                self.buckets.extend(per_part.drain(..).map(|(partition, indices)| BucketMeta {
                    leaf_key,
                    partition,
                    subtree,
                    indices,
                }));
            }
            self.master.extend_from_slice(&tree.particles);
        }
    }

    /// Assembles every Partition's target buckets: owned particle copies
    /// with their tight bounding box and a default visitor state.
    pub fn partitions<S: Default>(&self) -> Vec<PartitionBuckets<S>> {
        let mut out: Vec<PartitionBuckets<S>> = (0..self.n_partitions.max(1))
            .map(|_| PartitionBuckets { ids: Vec::new(), buckets: Vec::new() })
            .collect();
        for (bi, meta) in self.buckets.iter().enumerate() {
            let particles: Vec<Particle> =
                meta.indices.iter().map(|&i| self.master[i as usize]).collect();
            let bbox = BoundingBox::around(particles.iter().map(|p| p.pos));
            let slot = &mut out[meta.partition as usize];
            slot.ids.push(bi);
            slot.buckets.push(TargetBucket {
                leaf_key: meta.leaf_key,
                particles,
                bbox,
                state: S::default(),
            });
        }
        out
    }

    /// Write-back: one Partition's bucket particle copies return to the
    /// master array.
    pub fn write_back<S>(&mut self, ids: &[usize], buckets: &[TargetBucket<S>]) {
        for (&bi, bucket) in ids.iter().zip(buckets) {
            for (&mi, p) in self.buckets[bi].indices.iter().zip(&bucket.particles) {
                self.master[mi as usize] = *p;
            }
        }
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
}
