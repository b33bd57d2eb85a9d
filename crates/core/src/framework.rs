//! The shared-memory execution engine.
//!
//! [`Framework`] runs the full ParaTreeT pipeline on one process:
//! decomposition → parallel Subtree build → cache init → leaf sharing →
//! parallel traversal per Partition → write-back. It is the engine the
//! examples and applications use directly, and the reference semantics
//! the distributed engine must agree with (see the cross-engine tests).
//!
//! Within a [`Framework::step`], every traversal sees the same
//! start-of-step particle snapshot as *sources* (the built tree), while
//! target accumulators (acceleration, density, …) and visitor states are
//! written into each Partition's own [`Targets`](crate::Targets) and
//! merged back after each traversal — the paper's
//! race-freedom-by-construction.

use crate::config::{Configuration, TraversalKind};
use crate::maintain::{TreeMaintainer, UpdateTotals};
use crate::pipeline::{self, Iteration};
use crate::traversal::{traverse_local, TraversalStats, WorkCounts};
use crate::visitor::Visitor;
use paratreet_cache::{CacheTree, NodeKind};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use paratreet_tree::{BuiltTree, Data};
use rayon::prelude::*;

pub use crate::pipeline::FLIGHT_SERIES;

/// Measurements for one step.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Subtree pieces built.
    pub n_subtrees: usize,
    /// Partitions used.
    pub n_partitions: usize,
    /// Target buckets after leaf sharing.
    pub n_buckets: usize,
    /// Tree leaves whose particles spanned >1 Partition (split buckets,
    /// Fig. 5).
    pub n_split_leaves: usize,
    /// Aggregated interaction counts over all traversals this step.
    pub counts: WorkCounts,
    /// Wall-clock seconds per pipeline stage: decompose, build, share,
    /// traverse (summed over traversals).
    pub seconds_decompose: f64,
    /// Tree build seconds.
    pub seconds_build: f64,
    /// Leaf-sharing seconds.
    pub seconds_share: f64,
    /// Traversal seconds.
    pub seconds_traverse: f64,
    /// Incremental tree-update seconds (zero when maintenance is off or
    /// this step seeded the maintainer).
    pub seconds_update: f64,
    /// Cumulative incremental-maintenance counters, present once a
    /// maintainer is live (`tree.update.*` in [`StepReport::metrics`]).
    pub update: Option<UpdateTotals>,
    /// Non-empty per-Subtree insert batches applied by this step's
    /// incremental advance (zero on seed/full-rebuild steps).
    pub round_batches: u64,
    /// Particles that crossed Subtree boundaries in this step's advance.
    pub round_migrated: u64,
}

impl StepReport {
    /// The report under the stable dotted names the distributed engines
    /// use where the statistics overlap (`counts.*`, `time.*`), plus
    /// shared-memory decomposition sizes under `decomp.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.absorb("counts", &self.counts);
        m.set_u64("decomp.n_subtrees", self.n_subtrees as u64);
        m.set_u64("decomp.n_partitions", self.n_partitions as u64);
        m.set_u64("decomp.n_buckets", self.n_buckets as u64);
        m.set_u64("decomp.n_split_leaves", self.n_split_leaves as u64);
        m.set_f64("time.decompose_s", self.seconds_decompose);
        m.set_f64("time.build_s", self.seconds_build);
        m.set_f64("time.share_s", self.seconds_share);
        m.set_f64("time.traverse_s", self.seconds_traverse);
        if let Some(update) = &self.update {
            pipeline::record_update(
                &mut m,
                update,
                self.round_batches,
                self.round_migrated,
                Some(self.seconds_update),
            );
        }
        m
    }
}

/// One in-flight step: the built cache plus bucket bookkeeping.
pub struct Step<D: Data> {
    /// The per-process cached global tree (all subtrees local here).
    pub cache: CacheTree<D>,
    /// The universe box this step was built in.
    pub universe: BoundingBox,
    /// Step measurements, updated by each traversal.
    pub report: StepReport,
    /// The iteration state behind the step: master array and buckets.
    front: Iteration<D>,
}

/// Observer for every step's freshly built forest, called as
/// `(epoch, trees, universe)` before leaf sharing consumes the trees.
/// Epochs count steps from zero. This is the serving layer's
/// publication point: a `paratreet-serve` snapshot ring subscribes
/// here to expose a live simulation to external queries.
pub type SnapshotHook<D> = Box<dyn FnMut(u64, &[BuiltTree<D>], BoundingBox) + Send>;

impl<D: Data> Step<D> {
    /// Finishes a step from this iteration's Subtrees — fresh or
    /// maintained alike: leaf sharing against the partitioner, then
    /// cache init (single rank: everything is local).
    fn prepare(config: &Configuration, telemetry: &Telemetry, mut front: Iteration<D>) -> Step<D> {
        front.prepare(&vec![0; front.n_subtrees], 1, 1, config, telemetry);
        let report = StepReport {
            n_subtrees: front.n_subtrees,
            n_partitions: front.n_partitions,
            n_buckets: front.buckets.len(),
            n_split_leaves: front.n_split_leaves,
            seconds_decompose: front.seconds_decompose,
            seconds_build: front.seconds_build,
            seconds_share: front.seconds_share,
            seconds_update: front.seconds_update,
            update: front.update,
            round_batches: front.round_batches(),
            round_migrated: front.round_migrated(),
            ..Default::default()
        };
        let cache = front.caches.pop().expect("one rank, one cache");
        Step { cache, universe: front.universe, report, front }
    }

    /// Runs one traversal of `kind` with `visitor` over every Partition
    /// in parallel — each assembles its own targets, then walks — merges
    /// what the visitor wrote back into the particles, and returns the
    /// per-bucket visitor states (Partition by Partition, the order
    /// [`Step::bucket_particle_ids`] reports in) plus this traversal's
    /// statistics.
    pub fn traverse<V: Visitor<Data = D>>(
        &mut self,
        visitor: &V,
        kind: TraversalKind,
    ) -> (Vec<V::State>, TraversalStats) {
        let t0 = std::time::Instant::now();

        // Partitions are independent; the cache and the master array
        // are read-only (all local) until every Partition is done.
        let (cache, front) = (&self.cache, &self.front);
        let traversed: Vec<_> =
            cache.telemetry.clone().wall_span(0, "local traversal", None, || {
                front
                    .by_partition
                    .par_iter()
                    .enumerate()
                    .map(|(p, _)| {
                        let mut targets = front.targets(visitor, p);
                        let counts = traverse_local(cache, visitor, kind, &mut targets);
                        (targets, counts)
                    })
                    .collect()
            });

        let mut counts_total = WorkCounts::default();
        let mut states = Vec::with_capacity(self.front.buckets.len());
        for (p, (targets, counts)) in traversed.into_iter().enumerate() {
            counts_total += counts;
            self.front.write_back(p, &targets);
            states.extend(targets.into_states());
        }

        self.report.counts += counts_total;
        self.report.seconds_traverse += t0.elapsed().as_secs_f64();
        (states, TraversalStats { counts: counts_total, fetches: 0 })
    }

    /// Read access to the step's current particle state (sources remain
    /// the start-of-step snapshot; this reflects traversal write-backs).
    pub fn particles(&self) -> &[Particle] {
        &self.front.master
    }

    /// The particle ids of each bucket, aligned with the state vector
    /// [`Step::traverse`] returns — for applications whose states refer
    /// to bucket-local particle positions.
    pub fn bucket_particle_ids(&self) -> Vec<Vec<u64>> {
        let front = &self.front;
        front
            .by_partition
            .iter()
            .flatten()
            .map(|&b| &front.buckets[b as usize])
            .map(|m| m.indices.iter().map(|&i| front.master[i as usize].id).collect())
            .collect()
    }

    /// Number of leaves in the cached tree (sanity/debug).
    pub fn n_leaves(&self) -> usize {
        let mut n = 0;
        let mut stack = vec![self.cache.root().expect("init")];
        while let Some(node) = stack.pop() {
            if node.kind == NodeKind::Leaf {
                n += 1;
            }
            for c in self.cache.children(node, 8) {
                stack.push(c);
            }
        }
        n
    }
}

/// The shared-memory ParaTreeT engine: owns the particle set and the
/// configuration, and runs steps.
pub struct Framework<D: Data> {
    /// Run configuration.
    pub config: Configuration,
    /// Span sink (wall clock); the default disabled handle costs nothing.
    pub telemetry: Telemetry,
    /// Flight-recorder sink sampled at phase boundaries
    /// ([`FLIGHT_SERIES`] rows, wall clock); disabled by default.
    pub flight: FlightRecorder,
    master: Vec<Particle>,
    /// The live maintained tree, once `config.incremental.enabled` has
    /// seeded it (first step).
    maintainer: Option<TreeMaintainer<D>>,
    /// Per-step forest observer (serving-layer publication point).
    snapshot_hook: Option<SnapshotHook<D>>,
    /// Steps run so far — the epoch the hook is stamped with.
    steps_run: u64,
}

impl<D: Data> Framework<D> {
    /// A framework over `particles` with `config`.
    pub fn new(config: Configuration, particles: Vec<Particle>) -> Framework<D> {
        Framework {
            config,
            telemetry: Telemetry::disabled(),
            flight: FlightRecorder::disabled(),
            master: particles,
            maintainer: None,
            snapshot_hook: None,
            steps_run: 0,
        }
    }

    /// Attaches a telemetry handle recording wall-clock phase spans.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a flight recorder sampled at every phase boundary
    /// (one [`FLIGHT_SERIES`] row after setup, one after traversal).
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Attaches a snapshot hook: called once per step with
    /// `(epoch, trees, universe)` right after the forest is built (or
    /// incrementally advanced), before leaf sharing consumes it. Both
    /// pipelines fire it, so a query service subscribed here serves
    /// exactly the forest each step traverses.
    pub fn with_snapshot_hook(
        mut self,
        hook: impl FnMut(u64, &[BuiltTree<D>], BoundingBox) + Send + 'static,
    ) -> Self {
        self.snapshot_hook = Some(Box::new(hook));
        self
    }

    /// Current particle state.
    pub fn particles(&self) -> &[Particle] {
        &self.master
    }

    /// Mutable particle state — for integration (drift/kick) between steps.
    pub fn particles_mut(&mut self) -> &mut Vec<Particle> {
        &mut self.master
    }

    /// Runs one step: builds the trees, hands the [`Step`] to `f` so the
    /// application can launch traversals (the paper's `traversal()`
    /// callback), then absorbs the updated particles. Returns `f`'s
    /// result and the step report.
    pub fn step<R>(&mut self, f: impl FnOnce(&mut Step<D>) -> R) -> (R, StepReport) {
        let particles = std::mem::take(&mut self.master);
        let epoch = self.steps_run;
        let maintained =
            if self.config.incremental.enabled { Some(&mut self.maintainer) } else { None };
        let front = Iteration::obtain(&self.config, &self.telemetry, particles, maintained, true);
        if let Some(h) = self.snapshot_hook.as_mut() {
            h(epoch, &front.trees, front.universe);
        }
        let mut step = Step::prepare(&self.config, &self.telemetry, front);
        self.steps_run += 1;
        step.front.sample_flight(&self.flight, epoch, 0, step.front.seconds_setup());
        let r = f(&mut step);
        let rep = &step.report;
        step.front.sample_flight(&self.flight, epoch, 1, rep.seconds_share + rep.seconds_traverse);
        self.master = step.front.master;
        (r, step.report)
    }
}
