//! The distributed execution engine on the discrete-event machine model.
//!
//! This engine runs the *same* pipeline as [`crate::Framework`] — real
//! decomposition, real trees, real cache fills, identical interaction
//! counts — but places Subtrees and Partitions on the ranks of a
//! [`MachineSpec`] and charges virtual time for every task and message.
//! It is the stand-in for ParaTreeT's Charm++ execution, and the engine
//! behind the paper's scaling figures (3, 9, 10, 11, 13).
//!
//! Charm++ semantics are preserved where they matter:
//!
//! * a Partition is a chare — its traversal work items are processed by
//!   run-to-completion tasks serialised per partition (an exclusive
//!   resource), overlapping freely with other partitions on the rank;
//! * fill messages go to "the currently least busy worker thread on the
//!   process" (the simulator's scheduling rule);
//! * the three cache models of Fig. 3 differ only in how fills are
//!   handled: any-worker insertion (WaitFree), one-lock-per-rank
//!   insertion (XWrite), or per-thread caches with duplicated fetches
//!   (PerThread/"Sequential").
//!
//! # Fault tolerance
//!
//! With a [`CrashConfig`] in the fault configuration the engine also
//! models rank crash-stop failures. At iteration start every rank
//! checkpoints its owned subtree particles and partition assignments to
//! stable storage (a [`Phase::Checkpoint`] task whose bytes are charged
//! as communication). A crash kills one rank at a chosen phase or
//! virtual time: its in-flight messages are invalidated by a per-rank
//! epoch stamp, its partitions lose all volatile state, and after the
//! retry timeout the survivors detect the failure, bump the global cache
//! epoch (stale fills are rejected at insertion), and either wait for
//! the rank to restart from its checkpoint or re-shard its subtrees and
//! partitions onto the survivors. Only the crashed rank's subtrees are
//! rebuilt; survivors' trees, caches, and traversal progress are kept.
//!
//! Physics stays exactly-once: traversals whose `open()` ignores bucket
//! state (TopDown, BasicDfs) run *dry* inside the simulation — same
//! opens, same fetches, same virtual time, no visitor side effects —
//! and the visitor is applied once per partition after the simulated
//! timeline completes, over the fully-materialised cache, in canonical
//! depth-first order. The result is bit-identical whether or not a
//! crash occurred. Stateful traversals (UpAndDown) apply during the
//! simulation and reset a crashed partition's bucket state and
//! particles to their pre-iteration values before re-running.

use crate::config::{Configuration, TraversalKind};
use crate::maintain::TreeMaintainer;
use crate::pipeline::{self, Iteration};
use crate::traversal::{
    process_item, process_item_dry, seed_items, traverse_local, CacheModel, PendingFetch,
    TargetsOf, WorkCounts, WorkStack,
};
use crate::visitor::Visitor;
use paratreet_cache::stats::CacheStatsSnapshot;
use paratreet_cache::{CacheError, CacheTree, NodeHandle, RequestOutcome};
use paratreet_geometry::NodeKey;
use paratreet_particles::io::PARTICLE_WIRE_BYTES;
use paratreet_particles::Particle;
use paratreet_runtime::sim::CommStats;
use paratreet_runtime::{
    CrashConfig, CrashPhase, CrashTrigger, FaultAction, FaultConfig, FaultInjector, FaultStats,
    Ledger, MachineSpec, Phase, Sim,
};
use paratreet_telemetry::{FlightRecorder, MetricSource, MetricsRegistry, Telemetry, Track};
use paratreet_tree::BuiltTree;
use std::collections::{BTreeMap, HashMap};

pub use paratreet_cache::stats::CacheStatsSnapshot as CacheSnapshot;

/// Fixed envelope per migration batch message (counts, subtree ids,
/// epoch stamp). Escapees bound for the same destination rank share
/// one such envelope instead of paying per-particle message overhead.
const MIGRATION_BATCH_HEADER_BYTES: u64 = 32;

/// Calibrated per-unit costs (seconds on the Stampede2 Skylake baseline).
/// The absolute values set the scale; the *shapes* of the scaling curves
/// come from the algorithmic counts they multiply.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// One particle–particle exact interaction.
    pub pp: f64,
    /// One particle–node approximation.
    pub pn: f64,
    /// One `open()` test.
    pub open: f64,
    /// Fixed overhead per work item processed.
    pub visit: f64,
    /// Decomposition cost per particle per log2(n) (key + sort).
    pub sort_per_particle_log: f64,
    /// Tree build cost per particle per log2 level.
    pub build_per_particle_log: f64,
    /// Fill serialisation per byte (home side).
    pub serialize_per_byte: f64,
    /// Fill insertion per byte (requesting side).
    pub insert_per_byte: f64,
    /// Fixed cost per fill insertion.
    pub insert_fixed: f64,
    /// Fixed cost to resume one paused traversal (metadata fetch).
    pub resume: f64,
    /// Wire size of one fetch request.
    pub request_bytes: u64,
    /// Wire size of one subtree summary in the share step.
    pub summary_bytes: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            pp: 1.1e-8,
            pn: 1.6e-8,
            open: 6.0e-9,
            visit: 2.5e-8,
            sort_per_particle_log: 8.0e-9,
            build_per_particle_log: 4.0e-8,
            serialize_per_byte: 2.5e-10,
            insert_per_byte: 6.0e-10,
            insert_fixed: 1.5e-6,
            resume: 1.2e-6,
            request_bytes: 64,
            summary_bytes: 96,
        }
    }
}

impl CostModel {
    /// Cost of a batch of traversal work.
    fn work(&self, c: &WorkCounts) -> f64 {
        c.leaf_interactions as f64 * self.pp
            + c.node_interactions as f64 * self.pn
            + c.opens as f64 * self.open
            + c.nodes_visited as f64 * self.visit
    }
}

/// What one crash-recovery episode did (all zero when no crash was
/// configured or the crash never fired). `completed_s` marks the virtual
/// time when the recovery protocol finished re-injecting every piece of
/// owed work; re-executed tasks themselves are charged to
/// [`Phase::Recovery`]/[`Phase::TreeBuild`] in the ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Crashes that fired (0 or 1).
    pub count: u64,
    /// Virtual time of the crash.
    pub crash_time_s: f64,
    /// Virtual time the survivors detected it (crash + retry timeout).
    pub detected_s: f64,
    /// Virtual time recovery finished orchestrating.
    pub completed_s: f64,
    /// Pipeline phase at the crash: 0 decomposition, 1 tree build,
    /// 2 sharing, 3 traversal.
    pub phase_idx: u64,
    /// 1 when the rank restarted from its checkpoint, 0 on re-shard.
    pub restarted: u64,
    /// Subtrees reassigned to survivors (re-shard mode).
    pub resharded_subtrees: u64,
    /// Partitions moved to survivors (re-shard mode).
    pub moved_partitions: u64,
    /// Fills rejected because they were serialised before the crash
    /// (cache-epoch mismatch).
    pub stale_fills: u64,
    /// Fetch requests dropped at a dead or not-yet-recovered home rank.
    pub dead_requests: u64,
    /// Events discarded by the per-rank/per-partition epoch stamps.
    pub discarded_events: u64,
    /// Placeholder keys re-armed against the dead owner.
    pub rearmed_keys: u64,
    /// Bytes written to stable storage at checkpoint time.
    pub checkpoint_bytes: u64,
    /// Bytes read back from stable storage during recovery.
    pub restored_bytes: u64,
}

impl MetricSource for RecoveryStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.count"), self.count);
        registry.set_f64(format!("{prefix}.crash_time_s"), self.crash_time_s);
        registry.set_f64(format!("{prefix}.detected_s"), self.detected_s);
        registry.set_f64(format!("{prefix}.completed_s"), self.completed_s);
        registry.set_u64(format!("{prefix}.phase_idx"), self.phase_idx);
        registry.set_u64(format!("{prefix}.restarted"), self.restarted);
        registry.set_u64(format!("{prefix}.resharded_subtrees"), self.resharded_subtrees);
        registry.set_u64(format!("{prefix}.moved_partitions"), self.moved_partitions);
        registry.set_u64(format!("{prefix}.stale_fills"), self.stale_fills);
        registry.set_u64(format!("{prefix}.dead_requests"), self.dead_requests);
        registry.set_u64(format!("{prefix}.discarded_events"), self.discarded_events);
        registry.set_u64(format!("{prefix}.rearmed_keys"), self.rearmed_keys);
        registry.set_u64(format!("{prefix}.checkpoint_bytes"), self.checkpoint_bytes);
        registry.set_u64(format!("{prefix}.restored_bytes"), self.restored_bytes);
    }
}

/// What one simulated iteration measured. The named fields remain for
/// direct access; they are assembled from [`IterationReport::metrics`],
/// which carries every statistic under a stable dotted name (e.g.
/// `cache.requests_sent`, `phase_busy_s.local_traversal`).
#[derive(Clone, Debug)]
pub struct IterationReport {
    /// Virtual end-to-end time of the iteration (seconds).
    pub makespan: f64,
    /// Virtual time when setup (decompose+build+share) finished and
    /// traversal began.
    pub traversal_start: f64,
    /// Busy seconds per phase.
    pub phase_busy: [f64; paratreet_runtime::phase::N_PHASES],
    /// Network traffic.
    pub comm: CommStats,
    /// Exact interaction counts (engine-independent).
    pub counts: WorkCounts,
    /// Cache traffic aggregated over all cache instances.
    pub cache: CacheStatsSnapshot,
    /// Worker utilisation over the iteration (0..=1).
    pub utilization: f64,
    /// The per-phase ledger (for Fig. 9 profiles).
    pub ledger: Ledger,
    /// Buckets that crossed rank boundaries during leaf sharing.
    pub n_shared_buckets: usize,
    /// Measured traversal cost per partition (calibrated seconds) — the
    /// load measurement the SFC re-balancer consumes.
    pub partition_costs: Vec<f64>,
    /// Final particle state (for physics validation against the
    /// shared-memory engine).
    pub particles: Vec<Particle>,
    /// Faults injected into fetch/fill messages this iteration (all
    /// zero unless the engine was configured with
    /// [`DistributedEngine::with_faults`]).
    pub faults: FaultStats,
    /// Fetches re-sent after a retry timeout expired.
    pub fetch_retries: u64,
    /// Fills the cache rejected ([`paratreet_cache::CacheError`]); each
    /// was logged and degraded to a re-request instead of aborting.
    /// Stale-epoch rejections after a crash are counted separately in
    /// [`RecoveryStats::stale_fills`].
    pub fill_errors: u64,
    /// What the crash-recovery protocol did (all zero without a crash).
    pub recovery: RecoveryStats,
    /// Every statistic above under a stable dotted name, plus derived
    /// timings — query with [`MetricsRegistry::get_u64`] /
    /// [`MetricsRegistry::get_f64`], or dump via `--metrics-out`.
    pub metrics: MetricsRegistry,
}

/// Event payloads of the engine's simulation. `Clone` because the fault
/// layer may deliver a message twice. Barrier events carry the rank they
/// count toward plus that rank's epoch at send time (`re`); a crash
/// bumps the epoch, so the dead rank's in-flight events are discarded at
/// delivery and recovery re-posts them under the new epoch. Partition
/// events carry the partition epoch (`pe`) the same way.
#[derive(Clone)]
enum Ev {
    /// A rank finished writing its checkpoint (no barrier: checkpoints
    /// overlap decomposition).
    CheckpointDone,
    DecompDone {
        rank: u32,
        re: u32,
    },
    /// One subtree build finished on `rank`. `si` is `u32::MAX` unless
    /// the subtree was re-sharded and must be grafted into its new
    /// owner's caches on completion.
    BuildDone {
        rank: u32,
        re: u32,
        si: u32,
    },
    ShareArrive {
        to: u32,
        re: u32,
    },
    /// `skel` distinguishes the per-rank skeleton-build task from a
    /// leaf-share message (they share one barrier but different pending
    /// counters).
    LeafShareArrive {
        to: u32,
        re: u32,
        skel: bool,
    },
    /// The configured rank dies now.
    Crash,
    /// The retry timeout elapsed since the crash: survivors react.
    CrashDetected,
    /// Restart-mode recovery chain; stages run in order 0..=3.
    RecoverStep {
        stage: u8,
    },
    /// A re-sharded subtree's checkpoint finished reading at its new
    /// owner (re-shard mode).
    SubtreeRestored {
        si: u32,
    },
    /// A crashed rank's subtree finished rebuilding.
    SubtreeRebuilt {
        si: u32,
    },
    /// (Re)process a partition's work list.
    PartRun {
        part: u32,
        pe: u32,
    },
    /// A partition's processing batch finished; release its effects.
    PartWorkDone {
        part: u32,
        pe: u32,
        fetches: Vec<(NodeKey, Vec<u32>)>,
    },
    /// A fetch request arrived at the home rank.
    RequestArrive {
        key: NodeKey,
        home_rank: u32,
        to_cache: u32,
        requester_rank: u32,
    },
    /// The home rank finished serialising a fill.
    FillServeDone {
        home_rank: u32,
        to_cache: u32,
        requester_rank: u32,
        bytes: Vec<u8>,
    },
    /// A fill arrived at the requesting rank.
    FillArrive {
        to_cache: u32,
        bytes: Vec<u8>,
    },
    /// An insertion task completed: splice and resume.
    InsertDone {
        to_cache: u32,
        bytes: Vec<u8>,
    },
    /// A paused partition's resumption task completed.
    Resumed {
        part: u32,
        pe: u32,
        key: NodeKey,
    },
    /// A fetch's retry timer expired; re-request if the fill never came.
    /// Only scheduled when fault injection is on.
    FetchTimeout {
        key: NodeKey,
        home_rank: u32,
        to_cache: u32,
        requester_rank: u32,
        attempt: u32,
    },
}

/// Routes one engine message through the fault layer: deliver, drop,
/// duplicate, or delay it per the injector's seeded decision stream.
/// With no injector this is exactly [`Sim::send`].
fn send_faulty(
    sim: &mut Sim<Ev>,
    injector: &mut Option<FaultInjector>,
    from: u32,
    to: u32,
    bytes: u64,
    ev: Ev,
) {
    match injector.as_mut().map(FaultInjector::decide) {
        None | Some(FaultAction::Deliver) => sim.send(from, to, bytes, ev),
        Some(FaultAction::Drop) => {}
        Some(FaultAction::Duplicate) => {
            sim.send(from, to, bytes, ev.clone());
            sim.send(from, to, bytes, ev);
        }
        Some(FaultAction::Delay(extra)) => sim.send_delayed(from, to, bytes, extra, ev),
    }
}

/// The crashed rank's owed barrier deliveries, snapshotted once at
/// detection. Epoch discards freeze the pending counters between crash
/// and detection (no barrier can release while the dead rank owes it),
/// so this snapshot equals the state at the instant of the crash.
#[derive(Clone, Copy, Default)]
struct Stuck {
    decomp: usize,
    build: usize,
    share: usize,
    skel: usize,
    leaf: usize,
}

/// Resolves the *current* owner of `key`: walk ancestors up to the
/// enclosing subtree root and read the (possibly re-sharded) owner
/// table. Falls back to the cache's baked-in home rank for keys above
/// every subtree root (the shared top levels).
fn owner_of(
    index: &HashMap<NodeKey, usize>,
    owner: &[u32],
    bits: u32,
    key: NodeKey,
    fallback: u32,
) -> u32 {
    let mut k = key;
    loop {
        if let Some(&si) = index.get(&k) {
            return owner[si];
        }
        let p = k.parent(bits);
        if p == k {
            return fallback;
        }
        k = p;
    }
}

/// Per-partition chare state.
struct PartState<V: Visitor> {
    rank: u32,
    cache_idx: u32,
    targets: TargetsOf<V>,
    stack: WorkStack<V::Data>,
    /// Bucket sets of the items parked on a fetch, by awaited key. A
    /// parked item owns its copy; resumption re-finds the node.
    paused: HashMap<NodeKey, Vec<Vec<u32>>>,
    outstanding: usize,
    /// Work batches spawned whose `PartWorkDone` has not fired yet.
    in_flight: usize,
    /// Accumulated traversal cost (the chare's measured load).
    cost: f64,
    /// Interaction counts this partition has accumulated; discarded on
    /// crash reset so re-executed work is never double-counted.
    counts: WorkCounts,
    seeded: bool,
    resumed_once: bool,
    finished: bool,
}

/// Wipes a partition's volatile traversal state after its rank crashed:
/// bump the epoch (in-flight events become stale), clear the stack and
/// parked fetches, restore bucket state *and particles* to their
/// pre-iteration values (`fresh`: the Partition's targets assembled
/// again) so re-running applies every effect exactly once.
fn reset_part<V: Visitor>(
    ps: &mut PartState<V>,
    pe: &mut u32,
    parts_done: &mut usize,
    fresh: TargetsOf<V>,
) {
    *pe += 1;
    ps.stack = WorkStack::new();
    ps.paused.clear();
    ps.outstanding = 0;
    ps.in_flight = 0;
    ps.counts = WorkCounts::default();
    ps.seeded = false;
    ps.resumed_once = false;
    if ps.finished {
        ps.finished = false;
        *parts_done -= 1;
    }
    ps.targets = fresh;
}

/// Grafts a rebuilt subtree into every cache instance of its (new) home
/// rank and resumes any traversals parked on its root placeholder.
#[allow(clippy::too_many_arguments)]
fn graft_subtree<V: Visitor>(
    sim: &mut Sim<Ev>,
    tree: BuiltTree<V::Data>,
    home: u32,
    caches_per_rank: u32,
    caches: &[CacheTree<V::Data>],
    parts: &[PartState<V>],
    part_epoch: &[u32],
    resume_cost: f64,
    fill_errors: &mut u64,
) {
    let mut tree = Some(tree);
    for i in 0..caches_per_rank {
        let ci = (home * caches_per_rank + i) as usize;
        let t = if i + 1 == caches_per_rank {
            tree.take().expect("graft tree consumed once")
        } else {
            tree.as_ref().expect("graft tree alive").clone()
        };
        match caches[ci].insert_subtree(t, home) {
            Ok(outcome) => {
                for (key, waiter) in outcome.resumed {
                    let part = waiter as u32;
                    let rank = parts[part as usize].rank;
                    sim.spawn(
                        rank,
                        Phase::TraversalResumption,
                        resume_cost,
                        Ev::Resumed { part, pe: part_epoch[part as usize], key },
                    );
                }
            }
            Err(_) => *fill_errors += 1,
        }
    }
}

/// Columns the distributed engine's flight recorder samples at each
/// phase boundary (one row at traversal start, one at iteration end).
/// `stage` is 0 for setup complete (decompose + build + sharing) and 1
/// for the finished iteration; timestamps are virtual microseconds, so
/// a given workload and seed produce a byte-identical series.
pub const DES_FLIGHT_SERIES: &[&str] = &[
    "stage",
    "busy_s",
    "busy_frac",
    "comm_messages",
    "comm_bytes",
    "fetch_retries",
    "update_migrated",
];

/// The distributed engine. See module docs.
pub struct DistributedEngine<'v, V: Visitor> {
    /// Machine to simulate.
    pub machine: MachineSpec,
    /// Framework configuration.
    pub config: Configuration,
    /// Cache model under test.
    pub cache_model: CacheModel,
    /// Cost calibration.
    pub costs: CostModel,
    /// Traversal schedule.
    pub kind: TraversalKind,
    /// Optional deterministic fault injection on fetch/fill messages.
    /// Enables the retry-timeout path; `None` means a perfect network.
    /// A [`CrashConfig`] inside additionally arms checkpointing and the
    /// rank crash-stop recovery protocol (module docs).
    pub faults: Option<FaultConfig>,
    /// Span/counter sink. Attach an enabled virtual-time handle (see
    /// [`Telemetry::virtual_time`]) to get one span per simulated task on
    /// its `(rank, worker)` track; the default disabled handle records
    /// nothing.
    pub telemetry: Telemetry,
    /// Flight-recorder sink sampled at phase boundaries
    /// ([`DES_FLIGHT_SERIES`] rows, virtual time); disabled by default.
    pub flight: FlightRecorder,
    visitor: &'v V,
}

impl<'v, V: Visitor> DistributedEngine<'v, V> {
    /// A new engine; `config.n_subtrees`/`n_partitions` are raised to at
    /// least the machine's rank count so every rank has work.
    pub fn new(
        machine: MachineSpec,
        config: Configuration,
        cache_model: CacheModel,
        kind: TraversalKind,
        visitor: &'v V,
    ) -> DistributedEngine<'v, V> {
        DistributedEngine {
            machine,
            config,
            cache_model,
            costs: CostModel::default(),
            kind,
            faults: None,
            telemetry: Telemetry::disabled(),
            flight: FlightRecorder::disabled(),
            visitor,
        }
    }

    /// Injects seeded message faults (drops, duplicates, delays) into
    /// the fetch/fill traffic and arms the retry timeout.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a telemetry handle; spans are stamped in virtual time,
    /// so a given workload and seed produce a byte-identical trace.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a flight recorder; rows are stamped in virtual time (use
    /// [`FlightRecorder::virtual_time`]), so a given workload and seed
    /// produce a byte-identical series.
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Runs one full iteration over `particles` and reports.
    pub fn run_iteration(&self, particles: Vec<Particle>) -> IterationReport {
        self.run_inner(particles, None, None).0
    }

    /// Like [`DistributedEngine::run_iteration`], but also returns every
    /// bucket's final visitor state in `(partition, bucket)` order —
    /// the per-leaf results of state-carrying traversals (SPH densities,
    /// collision partners, kNN sets), for validation.
    pub fn run_iteration_states(
        &self,
        particles: Vec<Particle>,
    ) -> (IterationReport, Vec<(NodeKey, V::State)>) {
        self.run_inner(particles, None, None)
    }

    /// Like [`DistributedEngine::run_iteration`], but with an explicit
    /// partition → rank assignment (same length as the effective
    /// partition count of an identical previous run). This is the hook
    /// the measured-load SFC re-balancer uses: run once, feed the
    /// measured [`IterationReport::partition_costs`] through
    /// [`sfc_balanced_assignment`], run again.
    pub fn run_iteration_with_assignment(
        &self,
        particles: Vec<Particle>,
        assignment: Option<&[u32]>,
    ) -> IterationReport {
        self.run_inner(particles, assignment, None).0
    }

    /// Like [`DistributedEngine::run_iteration`], but against a tree
    /// maintained across calls: the first call seeds the
    /// [`TreeMaintainer`] into `slot` and charges a normal
    /// decomposition + build; every later call patches the maintained
    /// tree and charges [`Phase::TreeUpdate`] tasks instead — a linear
    /// classify/re-sieve sweep per rank, a per-Subtree patch task sized
    /// by the structural work actually done, full
    /// [`Phase::TreeBuild`] cost only for Subtrees the drift thresholds
    /// rebuilt, and wire bytes for particles that migrated across rank
    /// boundaries. The whole-tree fallback (and the seed) charge the
    /// full pipeline. Composes with crash recovery: the checkpoint
    /// captures the maintained trees, so a crashed rank's subtrees are
    /// restored bit-identical to the maintained state and the update
    /// sequence replays deterministically. Pass the same `slot` every
    /// iteration; cumulative counters land under `tree.update.*`.
    pub fn run_maintained(
        &self,
        slot: &mut Option<TreeMaintainer<V::Data>>,
        particles: Vec<Particle>,
    ) -> IterationReport {
        self.run_inner(particles, None, Some(slot)).0
    }

    fn run_inner(
        &self,
        particles: Vec<Particle>,
        assignment: Option<&[u32]>,
        maintained: Option<&mut Option<TreeMaintainer<V::Data>>>,
    ) -> (IterationReport, Vec<(NodeKey, V::State)>) {
        let n_total = particles.len().max(2);
        let log_n = (n_total as f64).log2();
        let ranks = self.machine.nodes as u32;
        let workers = self.machine.workers_per_rank as u32;

        // Fault layer (None ⇒ perfect network, no timers). Constructed
        // first so an invalid configuration fails before any work.
        let mut injector =
            self.faults.map(|f| FaultInjector::new(f).expect("invalid fault configuration"));
        let retry_timeout = self.faults.map(|f| f.retry_timeout_s).unwrap_or(0.0);
        let crash: Option<CrashConfig> = self.faults.and_then(|f| f.crash);
        if let Some(c) = crash {
            assert!(ranks >= 2, "rank crash-stop recovery needs at least two ranks");
            assert!(c.rank < ranks, "crash rank {} out of range for {} ranks", c.rank, ranks);
        }

        // Overdecomposition: the configured counts are minimums. Every
        // rank needs several Subtrees, and enough Partitions to keep its
        // workers busy across fetch stalls (Charm++'s "more partitions
        // than processors") — bounded by bucket granularity so
        // partitions keep enough buckets for the loop transposition.
        let mut config = self.config.clone();
        config.n_subtrees = config.n_subtrees.max(self.machine.nodes * 4);
        let by_granularity = (n_total / (config.bucket_size * 4)).max(1);
        let by_machine = self.machine.nodes * self.machine.workers_per_rank * 2;
        config.n_partitions =
            config.n_partitions.max(by_machine.min(by_granularity).max(self.machine.nodes * 2));

        // ---- Decomposition or incremental update (centrally executed,
        // per-rank charged) ----
        // `round` is `Some` only on an incremental advance (not the
        // seed), and drives the Phase::TreeUpdate cost accounting below.
        // The front-end runs untraced: this engine's spans are stamped
        // in virtual time, and wall-clock ones would break the
        // byte-identical trace a seed guarantees.
        let untraced = Telemetry::disabled();
        let mut front =
            Iteration::<V::Data>::obtain(&config, &untraced, particles, maintained, false);
        let n_subtrees = front.n_subtrees;

        // Subtrees to ranks: contiguous blocks in piece (SFC) order.
        let subtree_rank =
            |si: usize| -> u32 { (si as u64 * ranks as u64 / n_subtrees as u64) as u32 };
        // Partitions to ranks: contiguous id blocks by default (the SFC
        // placement), or the caller's measured-load assignment.
        let n_partitions = front.n_partitions.max(1);
        if let Some(a) = assignment {
            assert_eq!(a.len(), n_partitions, "assignment must cover every partition");
        }
        let partition_rank = |pi: usize| -> u32 {
            match assignment {
                Some(a) => a[pi],
                None => (pi as u64 * ranks as u64 / n_partitions as u64) as u32,
            }
        };

        // Checkpoint: clone the built trees — the engine's stable
        // storage. Recovery restores a dead rank's subtrees from exactly
        // these bytes; builds are deterministic, so this is
        // bit-identical to rebuilding from the decomposition pieces, and
        // in maintained mode it captures the incrementally patched tree
        // so restart replays the update sequence deterministically.
        let checkpoint: Option<Vec<BuiltTree<V::Data>>> =
            crash.is_some().then(|| front.trees.clone());

        // The live owner table: starts at the SFC placement and is
        // rewritten when a crash re-shards the dead rank's subtrees.
        let mut owner: Vec<u32> = (0..n_subtrees).map(subtree_rank).collect();

        // ---- Master array + leaf sharing, cache instances ----
        // WaitFree/XWrite: one cache per rank. PerThread: one per
        // worker; a partition binds to cache (rank, local_part % workers).
        let bits = config.tree_type.bits_per_level();
        let caches_per_rank: u32 =
            if self.cache_model == CacheModel::PerThread { workers } else { 1 };
        front.prepare(&owner, ranks as usize, caches_per_rank as usize, &config, &untraced);
        let (summaries, caches, metas) = (&front.summaries, &front.caches, &front.buckets);
        let subtree_index: HashMap<NodeKey, usize> =
            summaries.iter().enumerate().map(|(si, s)| (s.key, si)).collect();

        // Restores one subtree from the checkpoint (bit-identical to the
        // tree that was built — or maintained — this iteration).
        let rebuild = |si: usize| -> BuiltTree<V::Data> {
            checkpoint.as_ref().expect("checkpoint exists when a crash is configured")[si].clone()
        };

        // XWrite lock resource ids (one per rank), partition resources.
        const LOCK_BASE: u64 = 1 << 48;
        let part_resource = |p: u32| -> u64 { p as u64 + 1 };

        // ---- Partition states ----
        let mut parts: Vec<PartState<V>> = (0..front.by_partition.len())
            .map(|p| {
                let rank = partition_rank(p);
                PartState {
                    rank,
                    cache_idx: rank * caches_per_rank + p as u32 % caches_per_rank,
                    targets: front.targets(self.visitor, p),
                    stack: WorkStack::new(),
                    paused: HashMap::new(),
                    outstanding: 0,
                    in_flight: 0,
                    cost: 0.0,
                    counts: WorkCounts::default(),
                    seeded: false,
                    resumed_once: false,
                    finished: false,
                }
            })
            .collect();
        // Every (subtree, partition) leaf-share pair with its wire size;
        // sender and receiver are resolved at send time from the live
        // owner table and partition placement, so recovery can replay
        // exactly the messages a re-shard redirects.
        let leaf_pairs: Vec<(u32, u32, u64)> = metas
            .iter()
            .map(|m| (m.subtree, m.partition, (m.indices.len() * PARTICLE_WIRE_BYTES) as u64))
            .collect();
        let n_shared_buckets = metas
            .iter()
            .filter(|m| owner[m.subtree as usize] != parts[m.partition as usize].rank)
            .count();

        // Checkpoint sizes: per-subtree particle payloads plus a small
        // header, and one partition-assignment record per partition.
        let (ckpt_subtree_bytes, ckpt_rank_bytes) = match &checkpoint {
            Some(trees) => {
                let sb: Vec<u64> = trees
                    .iter()
                    .map(|t| (t.particles.len() * PARTICLE_WIRE_BYTES + 32) as u64)
                    .collect();
                let mut rb = vec![0u64; ranks as usize];
                for (si, b) in sb.iter().enumerate() {
                    rb[owner[si] as usize] += b;
                }
                for p in 0..n_partitions {
                    rb[partition_rank(p) as usize] += 8;
                }
                (sb, rb)
            }
            None => (Vec::new(), Vec::new()),
        };

        // ---- Simulate ----
        let mut sim: Sim<Ev> = Sim::new(self.machine.clone());
        sim.telemetry = self.telemetry.clone();
        let costs = self.costs;
        let fetch_depth = config.fetch_depth;
        let cache_model = self.cache_model;
        let visitor = self.visitor;
        let kind = self.kind;
        // Geometry-only traversals run dry in the simulation and apply
        // the visitor once post-sim in canonical order (module docs), so
        // their physics is independent of message timing and crashes.
        let dry = matches!(kind, TraversalKind::TopDown | TraversalKind::BasicDfs);

        let mut rec = RecoveryStats::default();

        // Phase 0 (crash runs only): every rank checkpoints its owned
        // particles and partition table to stable storage, overlapping
        // the decomposition sort.
        if crash.is_some() {
            for r in 0..ranks {
                let bytes = ckpt_rank_bytes[r as usize];
                sim.comm.messages += 1;
                sim.comm.bytes += bytes;
                rec.checkpoint_bytes += bytes;
                sim.spawn(
                    r,
                    Phase::Checkpoint,
                    costs.serialize_per_byte * bytes as f64 + costs.insert_fixed,
                    Ev::CheckpointDone,
                );
            }
        }

        // Incremental advance: particles that crossed Subtree boundaries
        // moved between the owning ranks. The maintainer hands them over
        // as per-destination batches, so the comm model charges one
        // message per (source rank, destination rank) pair — all
        // escapees travelling that edge share a single batch envelope —
        // rather than one per subtree migration edge.
        let incremental_update = front.round.as_ref().is_some_and(|r| !r.full_rebuild);
        if let Some(r) = front.round.as_ref().filter(|r| !r.full_rebuild) {
            let mut rank_batches: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for &(from_si, to_si, n) in &r.migrations {
                let from = owner[from_si as usize];
                let to = owner[to_si as usize];
                if from == to {
                    continue;
                }
                *rank_batches.entry((from, to)).or_default() += n as u64;
            }
            for ((from, _to), n) in rank_batches {
                let bytes = n * PARTICLE_WIRE_BYTES as u64 + MIGRATION_BATCH_HEADER_BYTES;
                sim.comm.messages += 1;
                sim.comm.bytes += bytes;
                sim.spawn(
                    from,
                    Phase::TreeUpdate,
                    costs.serialize_per_byte * bytes as f64 + costs.insert_fixed,
                    Ev::CheckpointDone,
                );
            }
        }

        // Phase 1: decomposition tasks — the model spreads the per-rank
        // sort over the rank's workers (the real engines' decomposition
        // sort is one serial `sort_by_sfc_key`, not a region). On an
        // incremental advance the sort is replaced by the maintainer's
        // classify/resync sweep: linear in the rank's particles, charged
        // to the incremental-update phase.
        let per_rank_particles = (n_total as f64 / ranks as f64).max(1.0);
        let decomp_tasks_per_rank = workers.min(8);
        let front_phase = if incremental_update { Phase::TreeUpdate } else { Phase::Decomposition };
        let decomp_task_cost = if incremental_update {
            costs.sort_per_particle_log * per_rank_particles / decomp_tasks_per_rank as f64
        } else {
            costs.sort_per_particle_log * per_rank_particles * log_n / decomp_tasks_per_rank as f64
        };
        let mut pending_decomp = vec![0usize; ranks as usize];
        for r in 0..ranks {
            for _ in 0..decomp_tasks_per_rank {
                pending_decomp[r as usize] += 1;
                sim.spawn(r, front_phase, decomp_task_cost, Ev::DecompDone { rank: r, re: 0 });
            }
        }

        // Arm the crash trigger. Phase triggers other than decomposition
        // fire inside the matching barrier-release arm below.
        let phase_trigger = crash.and_then(|c| match c.trigger {
            CrashTrigger::AtPhase(p) => Some(p),
            CrashTrigger::AtTime(_) => None,
        });
        if let Some(c) = crash {
            match c.trigger {
                CrashTrigger::AtPhase(CrashPhase::Decomposition) => sim.post(Ev::Crash),
                CrashTrigger::AtTime(t) => sim.post_after(t, Ev::Crash),
                CrashTrigger::AtPhase(_) => {}
            }
        }

        // Counters used by the barrier logic inside the handler.
        let mut decomp_left = (ranks * decomp_tasks_per_rank) as usize;
        let mut build_left = 0usize;
        let mut share_left = 0usize;
        let mut leaf_share_left = 0usize;
        let mut traversal_start = 0.0f64;
        let mut traversal_begun = false;
        let mut parts_done = 0usize;
        let mut fetch_retries = 0u64;
        let mut fill_errors = 0u64;

        // Crash-recovery state: epochs, liveness, per-rank owed-delivery
        // counters (incremented at spawn/send, decremented at valid
        // delivery — so a crash leaves the dead rank's counters frozen
        // at exactly what recovery must re-inject).
        let mut rank_epoch = vec![0u32; ranks as usize];
        let mut part_epoch = vec![0u32; n_partitions];
        let mut down = vec![false; ranks as usize];
        let mut pending_build = vec![0usize; ranks as usize];
        let mut pending_share_in = vec![0usize; ranks as usize];
        let mut pending_skel = vec![0usize; ranks as usize];
        let mut pending_leaf_in = vec![0usize; ranks as usize];
        let mut needs_graft = vec![false; n_subtrees];
        let mut recovered_trees: Vec<Option<BuiltTree<V::Data>>> =
            (0..n_subtrees).map(|_| None).collect();
        let mut stuck = Stuck::default();
        let mut crash_fired = false;
        let mut cache_epoch_now = 0u32;
        let mut owed_build = 0usize;
        let mut rec_left = 0usize;
        let mut graft_left = 0usize;

        // Per-subtree build costs: Subtrees build independently, in
        // parallel across each rank's workers (the model's
        // synchronisation-free build).
        let subtree_build_cost: Vec<f64> = summaries
            .iter()
            .map(|s| {
                let n_i = s.n_particles.max(1) as f64;
                costs.build_per_particle_log * n_i * (n_i.log2().max(1.0))
            })
            .collect();

        // What each Subtree's *this-iteration* task costs. A full build
        // (seed, fallback, and rebalanced Subtrees) keeps the
        // Phase::TreeBuild cost above — which recovery also charges when
        // it restores from checkpoint. An incremental patch applies one
        // sorted batch per Subtree, so the sieve work amortises: b
        // touched particles share prefix paths, costing b·log(n/b)
        // rather than b·log n, plus a linear term for the dirty-path
        // summary re-accumulation.
        let subtree_task: Vec<(Phase, f64)> = (0..n_subtrees)
            .map(|si| match front.round.as_ref() {
                Some(r) if !r.full_rebuild && !r.rebuilt_subtrees.contains(&(si as u32)) => {
                    let n_i = summaries[si].n_particles.max(1) as f64;
                    let touched = r.per_subtree_work.get(si).copied().unwrap_or(0) as f64;
                    let amortized = (n_i / touched.max(1.0)).max(2.0).log2();
                    let cost = costs.build_per_particle_log * (touched * amortized + 0.25 * n_i);
                    (Phase::TreeUpdate, cost.max(1e-9))
                }
                _ => (Phase::TreeBuild, subtree_build_cost[si]),
            })
            .collect();

        let flight = self.flight.clone();
        sim.run(|sim, ev| match ev {
            Ev::CheckpointDone => {}
            Ev::DecompDone { rank, re } => {
                if re != rank_epoch[rank as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                pending_decomp[rank as usize] -= 1;
                decomp_left -= 1;
                if decomp_left == 0 {
                    if phase_trigger == Some(CrashPhase::TreeBuild) && !crash_fired {
                        sim.post(Ev::Crash);
                    }
                    // Phase 2: tree builds — or incremental patches —
                    // one task per Subtree, on the subtree's current
                    // owner.
                    for (si, &(phase, cost)) in subtree_task.iter().enumerate() {
                        let r = owner[si];
                        let stamp = if needs_graft[si] { si as u32 } else { u32::MAX };
                        build_left += 1;
                        pending_build[r as usize] += 1;
                        sim.spawn(
                            r,
                            phase,
                            cost,
                            Ev::BuildDone { rank: r, re: rank_epoch[r as usize], si: stamp },
                        );
                    }
                }
            }
            Ev::BuildDone { rank, re, si } => {
                if re != rank_epoch[rank as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                pending_build[rank as usize] -= 1;
                build_left -= 1;
                if si != u32::MAX && needs_graft[si as usize] {
                    // A re-sharded subtree finished building at its new
                    // owner: graft it so fetches can be served there.
                    let tree = rebuild(si as usize);
                    graft_subtree::<V>(
                        sim,
                        tree,
                        owner[si as usize],
                        caches_per_rank,
                        caches,
                        &parts,
                        &part_epoch,
                        costs.resume,
                        &mut fill_errors,
                    );
                    needs_graft[si as usize] = false;
                }
                if build_left == 0 {
                    // Phase 3: share summaries all-to-all among the
                    // living. With one rank left (or one rank total) the
                    // barrier is satisfied by a single local event.
                    let payload = summaries.len() as u64 * costs.summary_bytes;
                    let mut sent = 0usize;
                    for from in 0..ranks {
                        if down[from as usize] {
                            continue;
                        }
                        for to in 0..ranks {
                            if to == from || down[to as usize] {
                                continue;
                            }
                            share_left += 1;
                            pending_share_in[to as usize] += 1;
                            sent += 1;
                            sim.send(
                                from,
                                to,
                                payload / ranks as u64,
                                Ev::ShareArrive { to, re: rank_epoch[to as usize] },
                            );
                        }
                    }
                    if sent == 0 {
                        let to = (0..ranks).find(|&r| !down[r as usize]).unwrap_or(0);
                        share_left += 1;
                        pending_share_in[to as usize] += 1;
                        sim.post(Ev::ShareArrive { to, re: rank_epoch[to as usize] });
                    }
                }
            }
            Ev::ShareArrive { to, re } => {
                if re != rank_epoch[to as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                pending_share_in[to as usize] -= 1;
                share_left -= 1;
                if share_left == 0 {
                    if phase_trigger == Some(CrashPhase::LeafSharing) && !crash_fired {
                        sim.post(Ev::Crash);
                    }
                    // Small skeleton-build task per living rank, then
                    // leaf buckets flow from each subtree's current
                    // owner to its partition's current rank.
                    for r in 0..ranks {
                        if down[r as usize] {
                            continue;
                        }
                        leaf_share_left += 1;
                        pending_skel[r as usize] += 1;
                        sim.spawn(
                            r,
                            Phase::ShareTopLevels,
                            costs.insert_fixed + summaries.len() as f64 * 1e-7,
                            Ev::LeafShareArrive { to: r, re: rank_epoch[r as usize], skel: true },
                        );
                    }
                    for &(si, part, bytes) in leaf_pairs.iter() {
                        let from = owner[si as usize];
                        let to2 = parts[part as usize].rank;
                        if from == to2 {
                            continue;
                        }
                        leaf_share_left += 1;
                        pending_leaf_in[to2 as usize] += 1;
                        sim.send(
                            from,
                            to2,
                            bytes,
                            Ev::LeafShareArrive {
                                to: to2,
                                re: rank_epoch[to2 as usize],
                                skel: false,
                            },
                        );
                    }
                }
            }
            Ev::LeafShareArrive { to, re, skel } => {
                if re != rank_epoch[to as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                if skel {
                    pending_skel[to as usize] -= 1;
                } else {
                    pending_leaf_in[to as usize] -= 1;
                }
                leaf_share_left -= 1;
                if leaf_share_left == 0 {
                    #[cfg(debug_assertions)]
                    front.audit(&config, "at traversal start");
                    traversal_start = sim.now();
                    traversal_begun = true;
                    if flight.is_enabled() {
                        // Stage-0 row: setup (decompose + build + both
                        // sharing rounds) is complete. Virtual time and
                        // deterministic sim state only, so the series
                        // stays byte-identical for a given seed.
                        flight.sample_at(
                            sim.now() * 1e6,
                            &[
                                0.0,
                                sim.ledger.total_busy(),
                                sim.utilization(),
                                sim.comm.messages as f64,
                                sim.comm.bytes as f64,
                                fetch_retries as f64,
                                0.0,
                            ],
                        );
                    }
                    if phase_trigger == Some(CrashPhase::Traversal) && !crash_fired {
                        sim.post(Ev::Crash);
                    }
                    // Seed every partition's traversal.
                    for p in 0..parts.len() as u32 {
                        sim.post(Ev::PartRun { part: p, pe: part_epoch[p as usize] });
                    }
                }
            }
            Ev::Crash => {
                if crash_fired {
                    return;
                }
                crash_fired = true;
                let c = crash.expect("crash event only posted when configured");
                let cr = c.rank as usize;
                rec.count += 1;
                rec.crash_time_s = sim.now();
                rec.phase_idx = if decomp_left > 0 {
                    0
                } else if build_left > 0 {
                    1
                } else if !traversal_begun {
                    2
                } else {
                    3
                };
                down[cr] = true;
                // Everything in flight to or from this rank is now void.
                rank_epoch[cr] += 1;
                for p in 0..parts.len() {
                    if parts[p].rank == c.rank {
                        reset_part::<V>(
                            &mut parts[p],
                            &mut part_epoch[p],
                            &mut parts_done,
                            front.targets(visitor, p),
                        );
                    }
                }
                sim.telemetry.count("fault.crash", 1);
                // Survivors notice when the rank stops answering — the
                // same timeout that drives fetch retries.
                sim.post_after(retry_timeout, Ev::CrashDetected);
            }
            Ev::CrashDetected => {
                let c = crash.expect("detection follows a configured crash");
                let cr = c.rank as usize;
                rec.detected_s = sim.now();
                // The dead rank's owed deliveries, frozen since the
                // crash (epoch discards stop the counters moving).
                stuck = Stuck {
                    decomp: pending_decomp[cr],
                    build: pending_build[cr],
                    share: pending_share_in[cr],
                    skel: pending_skel[cr],
                    leaf: pending_leaf_in[cr],
                };
                // Globally invalidate fills serialised before the crash.
                cache_epoch_now += 1;
                for cache in caches.iter() {
                    cache.set_epoch(cache_epoch_now);
                }
                // Re-arm placeholders whose fetches died with the rank.
                for cache in caches.iter() {
                    rec.rearmed_keys += cache.on_owner_crash(c.rank) as u64;
                }
                if c.restart {
                    sim.post_after(c.restart_delay_s, Ev::RecoverStep { stage: 0 });
                } else {
                    // ---- Re-shard onto the survivors ----
                    let alive: Vec<u32> = (0..ranks).filter(|&r| !down[r as usize]).collect();
                    let mut rr = 0usize;
                    let mut resharded: Vec<usize> = Vec::new();
                    for si in 0..n_subtrees {
                        if owner[si] == c.rank {
                            owner[si] = alive[rr % alive.len()];
                            rr += 1;
                            needs_graft[si] = true;
                            resharded.push(si);
                        }
                    }
                    rec.resharded_subtrees = resharded.len() as u64;
                    for i in 0..caches_per_rank {
                        caches[(c.rank * caches_per_rank + i) as usize].mark_dead();
                    }
                    // Adopt the dead rank's partitions (already reset at
                    // the crash); their buckets re-load from the
                    // checkpointed particles.
                    let mut moved = 0usize;
                    for p in 0..parts.len() {
                        if parts[p].rank == c.rank {
                            let new_rank = alive[moved % alive.len()];
                            moved += 1;
                            parts[p].rank = new_rank;
                            parts[p].cache_idx =
                                new_rank * caches_per_rank + (p as u32 % caches_per_rank);
                            let bytes =
                                (parts[p].targets.n_particles() * PARTICLE_WIRE_BYTES) as u64 + 8;
                            sim.comm.messages += 1;
                            sim.comm.bytes += bytes;
                            rec.restored_bytes += bytes;
                            if traversal_begun {
                                sim.post(Ev::PartRun { part: p as u32, pe: part_epoch[p] });
                            }
                        }
                    }
                    rec.moved_partitions = moved as u64;
                    if stuck.decomp > 0 {
                        // Survivors redo the dead rank's share of the
                        // sort; the build barrier then spawns on the new
                        // owners and grafts ride the normal path.
                        for i in 0..stuck.decomp {
                            let r = alive[i % alive.len()];
                            sim.spawn(
                                r,
                                Phase::Decomposition,
                                decomp_task_cost,
                                Ev::DecompDone { rank: c.rank, re: rank_epoch[cr] },
                            );
                        }
                        rec.completed_s = sim.now();
                    } else {
                        // Read each lost subtree's checkpoint at its new
                        // owner, rebuild, graft; owed build-barrier
                        // deliveries are re-posted as rebuilds land.
                        owed_build = stuck.build;
                        graft_left = resharded.len();
                        for &si in &resharded {
                            let bytes = ckpt_subtree_bytes[si];
                            sim.comm.messages += 1;
                            sim.comm.bytes += bytes;
                            rec.restored_bytes += bytes;
                            sim.spawn(
                                owner[si],
                                Phase::Recovery,
                                costs.serialize_per_byte * bytes as f64 + costs.insert_fixed,
                                Ev::SubtreeRestored { si: si as u32 },
                            );
                        }
                        if graft_left == 0 {
                            rec.completed_s = sim.now();
                        }
                    }
                    // Absorb the dead rank's stuck barrier shares so the
                    // pipeline can release without it.
                    for _ in 0..stuck.share {
                        sim.post(Ev::ShareArrive { to: c.rank, re: rank_epoch[cr] });
                    }
                    for _ in 0..stuck.skel {
                        sim.post(Ev::LeafShareArrive {
                            to: c.rank,
                            re: rank_epoch[cr],
                            skel: true,
                        });
                    }
                    for _ in 0..stuck.leaf {
                        sim.post(Ev::LeafShareArrive {
                            to: c.rank,
                            re: rank_epoch[cr],
                            skel: false,
                        });
                    }
                }
            }
            Ev::RecoverStep { stage } => {
                let c = crash.expect("recovery follows a configured crash");
                let cr = c.rank as usize;
                match stage {
                    0 => {
                        // The rank is back: read its checkpoint.
                        rec.restarted = 1;
                        let bytes = ckpt_rank_bytes[cr];
                        sim.comm.messages += 1;
                        sim.comm.bytes += bytes;
                        rec.restored_bytes += bytes;
                        sim.spawn(
                            c.rank,
                            Phase::Recovery,
                            costs.serialize_per_byte * bytes as f64 + costs.insert_fixed,
                            Ev::RecoverStep { stage: 1 },
                        );
                    }
                    1 => {
                        if stuck.decomp > 0 {
                            // Crash hit the sort: redo the owed share
                            // locally; the rest of the pipeline follows
                            // from the barriers.
                            down[cr] = false;
                            for _ in 0..stuck.decomp {
                                sim.spawn(
                                    c.rank,
                                    Phase::Decomposition,
                                    decomp_task_cost,
                                    Ev::DecompDone { rank: c.rank, re: rank_epoch[cr] },
                                );
                            }
                            rec.completed_s = sim.now();
                        } else {
                            // All of this rank's subtrees rebuild from
                            // the checkpoint (its memory is gone, even
                            // for builds that had finished).
                            if rec.phase_idx < 3 {
                                down[cr] = false;
                            }
                            owed_build = stuck.build;
                            let owned: Vec<usize> =
                                (0..n_subtrees).filter(|&si| owner[si] == c.rank).collect();
                            rec_left = owned.len();
                            if rec_left == 0 {
                                sim.post(Ev::RecoverStep { stage: 2 });
                            } else {
                                for si in owned {
                                    sim.spawn(
                                        c.rank,
                                        Phase::TreeBuild,
                                        subtree_build_cost[si],
                                        Ev::SubtreeRebuilt { si: si as u32 },
                                    );
                                }
                            }
                        }
                    }
                    2 => {
                        if stuck.share > 0 {
                            // Survivors re-send the summaries the rank
                            // lost; the share barrier then releases with
                            // everyone alive.
                            let payload =
                                summaries.len() as u64 * costs.summary_bytes / ranks as u64;
                            let alive: Vec<u32> =
                                (0..ranks).filter(|&r| r != c.rank && !down[r as usize]).collect();
                            for i in 0..stuck.share {
                                let from = alive[i % alive.len()];
                                sim.send(
                                    from,
                                    c.rank,
                                    payload,
                                    Ev::ShareArrive { to: c.rank, re: rank_epoch[cr] },
                                );
                            }
                            rec.completed_s = sim.now();
                        } else if stuck.skel + stuck.leaf > 0 || rec.phase_idx == 3 {
                            // Redo the skeleton build before rejoining
                            // the leaf-share barrier or traversal.
                            sim.spawn(
                                c.rank,
                                Phase::ShareTopLevels,
                                costs.insert_fixed + summaries.len() as f64 * 1e-7,
                                Ev::RecoverStep { stage: 3 },
                            );
                        } else {
                            // Crash hit decomposition or build: the
                            // barriers already carry the redone work.
                            rec.completed_s = sim.now();
                        }
                    }
                    _ => {
                        if stuck.skel + stuck.leaf > 0 {
                            // Crash hit leaf sharing: absorb the redone
                            // skeleton and re-send the lost leaf buckets
                            // from their current owners.
                            for _ in 0..stuck.skel {
                                sim.post(Ev::LeafShareArrive {
                                    to: c.rank,
                                    re: rank_epoch[cr],
                                    skel: true,
                                });
                            }
                            let mut need = stuck.leaf;
                            for &(si, part, bytes) in leaf_pairs.iter() {
                                if need == 0 {
                                    break;
                                }
                                let from = owner[si as usize];
                                if parts[part as usize].rank == c.rank && from != c.rank {
                                    need -= 1;
                                    sim.send(
                                        from,
                                        c.rank,
                                        bytes,
                                        Ev::LeafShareArrive {
                                            to: c.rank,
                                            re: rank_epoch[cr],
                                            skel: false,
                                        },
                                    );
                                }
                            }
                            for _ in 0..need {
                                sim.post(Ev::LeafShareArrive {
                                    to: c.rank,
                                    re: rank_epoch[cr],
                                    skel: false,
                                });
                            }
                            rec.completed_s = sim.now();
                        } else {
                            // Traversal-phase restart: re-initialise the
                            // rank's caches from the rebuilt subtrees
                            // (remote fills are gone; placeholders
                            // re-fetch on demand) and relaunch its
                            // partitions from their reset state.
                            let owned: Vec<usize> =
                                (0..n_subtrees).filter(|&si| owner[si] == c.rank).collect();
                            for i in 0..caches_per_rank {
                                let ci = (c.rank * caches_per_rank + i) as usize;
                                let local: Vec<BuiltTree<V::Data>> = if i + 1 == caches_per_rank {
                                    owned
                                        .iter()
                                        .map(|&si| {
                                            recovered_trees[si].take().expect("subtree rebuilt")
                                        })
                                        .collect()
                                } else {
                                    owned
                                        .iter()
                                        .map(|&si| {
                                            recovered_trees[si].clone().expect("subtree rebuilt")
                                        })
                                        .collect()
                                };
                                caches[ci].reinit(summaries, local);
                            }
                            down[cr] = false;
                            for p in 0..parts.len() {
                                if parts[p].rank == c.rank {
                                    sim.post(Ev::PartRun { part: p as u32, pe: part_epoch[p] });
                                }
                            }
                            rec.completed_s = sim.now();
                        }
                    }
                }
            }
            Ev::SubtreeRestored { si } => {
                // Checkpoint read done at the new owner: rebuild there.
                let s = si as usize;
                sim.spawn(
                    owner[s],
                    Phase::TreeBuild,
                    subtree_build_cost[s],
                    Ev::SubtreeRebuilt { si },
                );
            }
            Ev::SubtreeRebuilt { si } => {
                let s = si as usize;
                let c = crash.expect("rebuild follows a configured crash");
                if c.restart {
                    // Keep the tree for the cache re-init (only needed
                    // when remote state was lost mid-traversal); satisfy
                    // one owed build-barrier delivery per rebuild.
                    if rec.phase_idx == 3 {
                        recovered_trees[s] = Some(rebuild(s));
                    }
                    if owed_build > 0 {
                        owed_build -= 1;
                        sim.post(Ev::BuildDone {
                            rank: c.rank,
                            re: rank_epoch[c.rank as usize],
                            si: u32::MAX,
                        });
                    }
                    rec_left -= 1;
                    if rec_left == 0 {
                        sim.post(Ev::RecoverStep { stage: 2 });
                    }
                } else {
                    let tree = rebuild(s);
                    graft_subtree::<V>(
                        sim,
                        tree,
                        owner[s],
                        caches_per_rank,
                        caches,
                        &parts,
                        &part_epoch,
                        costs.resume,
                        &mut fill_errors,
                    );
                    needs_graft[s] = false;
                    if owed_build > 0 {
                        owed_build -= 1;
                        sim.post(Ev::BuildDone {
                            rank: c.rank,
                            re: rank_epoch[c.rank as usize],
                            si: u32::MAX,
                        });
                    }
                    graft_left -= 1;
                    if graft_left == 0 {
                        rec.completed_s = sim.now();
                    }
                }
            }
            Ev::PartRun { part, pe } => {
                if pe != part_epoch[part as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                let ps = &mut parts[part as usize];
                if down[ps.rank as usize] {
                    return;
                }
                let cache = &caches[ps.cache_idx as usize];
                if !ps.seeded {
                    ps.seeded = true;
                    ps.stack = seed_items::<V>(cache, kind, &ps.targets);
                }
                // Run-to-completion: drain the stack, surrendering
                // placeholder hits. Up-and-down traversals stop at the
                // *first* pending fetch instead: their pruning bounds
                // tighten as items complete in order, so racing ahead
                // with untightened bounds would fetch (and evaluate) far
                // more remote data than the sequential schedule — the
                // partition waits, while other partitions on the rank
                // keep the workers busy.
                let ordered = kind == TraversalKind::UpAndDown;
                let mut batch = WorkCounts::default();
                let mut fetches: Vec<PendingFetch<V::Data>> = Vec::new();
                let mut fetch_list: Vec<(NodeKey, Vec<u32>)> = Vec::new();
                while let Some(item) = ps.stack.pop() {
                    if dry {
                        process_item_dry(
                            cache,
                            visitor,
                            &mut ps.targets,
                            item,
                            &mut ps.stack,
                            &mut fetches,
                            &mut batch,
                        );
                    } else {
                        process_item(
                            cache,
                            visitor,
                            &mut ps.targets,
                            item,
                            &mut ps.stack,
                            &mut fetches,
                            &mut batch,
                        );
                    }
                    // A surrendered range is reclaimed by the next pop:
                    // the event that parks the fetch carries its copy.
                    for f in fetches.drain(..) {
                        fetch_list.push((f.key, ps.stack.buckets(f.buckets).to_vec()));
                    }
                    if ordered && !fetch_list.is_empty() {
                        break;
                    }
                }
                ps.counts += batch;
                let phase =
                    if ps.resumed_once { Phase::RemoteTraversal } else { Phase::LocalTraversal };
                ps.in_flight += 1;
                let batch_cost = costs.work(&batch).max(1e-9);
                ps.cost += batch_cost;
                sim.spawn_exclusive(
                    ps.rank,
                    part_resource(part),
                    phase,
                    batch_cost,
                    Ev::PartWorkDone { part, pe, fetches: fetch_list },
                );
            }
            Ev::PartWorkDone { part, pe, fetches } => {
                if pe != part_epoch[part as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                let ps = &mut parts[part as usize];
                let cache = &caches[ps.cache_idx as usize];
                ps.in_flight -= 1;
                let mut rerun = false;
                for (key, buckets) in fetches {
                    // Re-find the placeholder (it may have been swapped).
                    // The skeleton guarantees the key exists; a miss is
                    // an engine bug, not a recoverable message fault.
                    let Some(node) = cache.find(key) else {
                        debug_assert!(false, "fetch target {key} missing from skeleton");
                        fill_errors += 1;
                        sim.telemetry.count("des.fill_errors", 1);
                        continue;
                    };
                    if !node.is_placeholder() {
                        // Fill landed while we were busy: traverse on.
                        ps.stack.push(NodeHandle::new(node), &buckets);
                        rerun = true;
                        continue;
                    }
                    match cache.request(node, part as u64) {
                        RequestOutcome::Ready(n) => {
                            ps.stack.push(NodeHandle::new(n), &buckets);
                            rerun = true;
                        }
                        RequestOutcome::SendFetch { home_rank } => {
                            // After a re-shard the cached home rank may
                            // be stale: route to the current owner.
                            let home = if crash.is_some() {
                                owner_of(&subtree_index, &owner, bits, key, home_rank)
                            } else {
                                home_rank
                            };
                            ps.paused.entry(key).or_default().push(buckets);
                            ps.outstanding += 1;
                            // Small CPU cost to issue the request.
                            sim.ledger.record(sim.now(), sim.now(), Phase::CacheRequest);
                            sim.telemetry.span_at(
                                Track { rank: ps.rank, worker: 0 },
                                "cache request",
                                sim.now() * 1e6,
                                0.0,
                                Some(key.raw()),
                            );
                            if !down[home as usize] {
                                send_faulty(
                                    sim,
                                    &mut injector,
                                    ps.rank,
                                    home,
                                    costs.request_bytes,
                                    Ev::RequestArrive {
                                        key,
                                        home_rank: home,
                                        to_cache: ps.cache_idx,
                                        requester_rank: ps.rank,
                                    },
                                );
                            }
                            if injector.is_some() {
                                sim.post_after(
                                    retry_timeout,
                                    Ev::FetchTimeout {
                                        key,
                                        home_rank: home,
                                        to_cache: ps.cache_idx,
                                        requester_rank: ps.rank,
                                        attempt: 1,
                                    },
                                );
                            }
                        }
                        RequestOutcome::InFlight => {
                            ps.paused.entry(key).or_default().push(buckets);
                            ps.outstanding += 1;
                        }
                    }
                }
                if rerun {
                    sim.post(Ev::PartRun { part, pe });
                } else if ps.stack.is_empty()
                    && ps.outstanding == 0
                    && ps.in_flight == 0
                    && !ps.finished
                {
                    ps.finished = true;
                    parts_done += 1;
                }
            }
            Ev::RequestArrive { key, home_rank: home, to_cache, requester_rank } => {
                // Serve at the home rank: the authoritative copy lives in
                // every cache instance of that rank (with PerThread they
                // all graft the local trees), so its first cache serves.
                if down[home as usize] {
                    rec.dead_requests += 1;
                    return;
                }
                let home_cache = (home * caches_per_rank) as usize;
                if caches[home_cache].is_dead() {
                    rec.dead_requests += 1;
                    return;
                }
                if crash.is_some() {
                    // A re-sharded subtree may not be grafted at its new
                    // owner yet; drop and let the retry timer re-ask.
                    match caches[home_cache].find(key) {
                        Some(n) if !n.is_placeholder() => {}
                        _ => {
                            rec.dead_requests += 1;
                            return;
                        }
                    }
                }
                match caches[home_cache].serialize_fragment(key, fetch_depth) {
                    Ok(bytes) => {
                        let cost = costs.serialize_per_byte * bytes.len() as f64
                            + costs.insert_fixed / 2.0;
                        sim.spawn(
                            home,
                            Phase::FillServe,
                            cost,
                            Ev::FillServeDone { home_rank: home, to_cache, requester_rank, bytes },
                        );
                    }
                    Err(e) => {
                        // The home rank cannot serve this key. Drop the
                        // request; the requester's retry timer re-issues
                        // it rather than aborting the simulation.
                        fill_errors += 1;
                        sim.telemetry.count("des.fill_errors", 1);
                        eprintln!("des: fetch for {key} failed at home rank {home}: {e}");
                    }
                }
            }
            Ev::FillServeDone { home_rank, to_cache, requester_rank, bytes } => {
                if down[requester_rank as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                let nbytes = bytes.len() as u64;
                send_faulty(
                    sim,
                    &mut injector,
                    home_rank,
                    requester_rank,
                    nbytes,
                    Ev::FillArrive { to_cache, bytes },
                );
            }
            Ev::FillArrive { to_cache, bytes } => {
                let rank = caches[to_cache as usize].rank;
                if down[rank as usize] || caches[to_cache as usize].is_dead() {
                    rec.discarded_events += 1;
                    return;
                }
                let cost = costs.insert_fixed + costs.insert_per_byte * bytes.len() as f64;
                match cache_model {
                    CacheModel::XWrite => sim.spawn_exclusive(
                        rank,
                        LOCK_BASE + rank as u64,
                        Phase::CacheInsertion,
                        cost,
                        Ev::InsertDone { to_cache, bytes },
                    ),
                    _ => sim.spawn(
                        rank,
                        Phase::CacheInsertion,
                        cost,
                        Ev::InsertDone { to_cache, bytes },
                    ),
                }
            }
            Ev::InsertDone { to_cache, bytes } => {
                let cache = &caches[to_cache as usize];
                if down[cache.rank as usize] || cache.is_dead() {
                    rec.discarded_events += 1;
                    return;
                }
                match cache.insert_fragment(&bytes) {
                    Ok(outcome) => {
                        // A fill may materialise several keys at once (a
                        // deep fragment covering earlier shallow waits);
                        // every (key, waiter) pair resumes independently.
                        for (key, waiter) in outcome.resumed {
                            let part = waiter as u32;
                            let rank = parts[part as usize].rank;
                            sim.spawn(
                                rank,
                                Phase::TraversalResumption,
                                costs.resume,
                                Ev::Resumed { part, pe: part_epoch[part as usize], key },
                            );
                        }
                    }
                    Err(CacheError::StaleEpoch { .. }) => {
                        // A fill serialised before the crash: reject it
                        // silently — the retry machinery re-fetches
                        // under the new epoch.
                        rec.stale_fills += 1;
                    }
                    Err(e) => {
                        // A bad fill degrades to a logged drop; the
                        // placeholder stays pending and the retry timer
                        // re-requests it.
                        fill_errors += 1;
                        sim.telemetry.count("des.fill_errors", 1);
                        eprintln!("des: fill rejected by cache {to_cache}: {e}");
                    }
                }
            }
            Ev::Resumed { part, pe, key } => {
                if pe != part_epoch[part as usize] {
                    rec.discarded_events += 1;
                    return;
                }
                let ps = &mut parts[part as usize];
                let cache = &caches[ps.cache_idx as usize];
                if let Some(items) = ps.paused.remove(&key) {
                    let Some(node) = cache.find(key) else {
                        // Resumption implies the key was just spliced;
                        // losing it again is an engine bug.
                        debug_assert!(false, "resumed key {key} missing from cache");
                        ps.paused.insert(key, items);
                        return;
                    };
                    for buckets in items {
                        ps.outstanding -= 1;
                        ps.stack.push(NodeHandle::new(node), &buckets);
                    }
                    ps.resumed_once = true;
                    sim.post(Ev::PartRun { part, pe });
                }
            }
            Ev::FetchTimeout { key, home_rank, to_cache, requester_rank, attempt } => {
                // Re-request only if the fill never landed (the fetch or
                // the fill was dropped, or both are still delayed — a
                // duplicate fill is idempotent, so over-asking is safe).
                if down[requester_rank as usize] || caches[to_cache as usize].is_dead() {
                    return;
                }
                let still_pending =
                    caches[to_cache as usize].find(key).is_some_and(|n| n.is_placeholder());
                if !still_pending || injector.is_none() {
                    return;
                }
                let home = if crash.is_some() {
                    owner_of(&subtree_index, &owner, bits, key, home_rank)
                } else {
                    home_rank
                };
                if down[home as usize] {
                    // The owner is down (crashed, not yet restarted or
                    // re-sharded): keep the timer alive and try again.
                    sim.post_after(
                        retry_timeout,
                        Ev::FetchTimeout {
                            key,
                            home_rank: home,
                            to_cache,
                            requester_rank,
                            attempt: attempt + 1,
                        },
                    );
                    return;
                }
                fetch_retries += 1;
                sim.telemetry.count("des.fetch_retries", 1);
                send_faulty(
                    sim,
                    &mut injector,
                    requester_rank,
                    home,
                    costs.request_bytes,
                    Ev::RequestArrive { key, home_rank: home, to_cache, requester_rank },
                );
                sim.post_after(
                    retry_timeout,
                    Ev::FetchTimeout {
                        key,
                        home_rank: home,
                        to_cache,
                        requester_rank,
                        attempt: attempt + 1,
                    },
                );
            }
        });

        assert_eq!(parts_done, parts.len(), "all partitions must finish");
        #[cfg(debug_assertions)]
        front.audit(&config, "after traversal");

        // ---- Canonical visitor application (dry traversals) ----
        // The simulation established timing, communication, and a fully
        // materialised cache per partition; the physics is applied once,
        // in depth-first order, so the result is bit-identical with or
        // without crashes and message faults.
        if dry {
            for ps in &mut parts {
                let cache = &caches[ps.cache_idx as usize];
                let _ = traverse_local(cache, visitor, kind, &mut ps.targets);
            }
        }

        if rec.count > 0 {
            let c = crash.expect("recovery stats only accumulate with a crash");
            self.telemetry.span_at(
                Track { rank: c.rank, worker: 0 },
                "recovery",
                rec.detected_s * 1e6,
                (rec.completed_s - rec.detected_s).max(0.0) * 1e6,
                None,
            );
        }

        // ---- Write-back and reporting ----
        for (p, ps) in parts.iter().enumerate() {
            front.write_back(p, &ps.targets);
        }
        let states: Vec<(NodeKey, V::State)> = parts
            .iter()
            .flat_map(|ps| ps.targets.buckets().iter().map(|b| (b.leaf_key, b.state.clone())))
            .collect();
        let mut cache_stats = CacheStatsSnapshot::default();
        for c in &front.caches {
            cache_stats.merge(&c.stats.snapshot());
        }
        let partition_costs: Vec<f64> = parts.iter().map(|p| p.cost).collect();
        let mut counts_total = WorkCounts::default();
        for ps in &parts {
            counts_total += ps.counts;
        }
        let fault_stats = injector.map(|f| f.stats).unwrap_or_default();

        if self.flight.is_enabled() {
            // Stage-1 row: the iteration is over. Stamped at the
            // (virtual) makespan from deterministic sim state.
            self.flight.sample_at(
                sim.makespan() * 1e6,
                &[
                    1.0,
                    sim.ledger.total_busy(),
                    sim.utilization(),
                    sim.comm.messages as f64,
                    sim.comm.bytes as f64,
                    fetch_retries as f64,
                    front.round_migrated() as f64,
                ],
            );
        }

        // Assemble the registry first; the report's named fields read
        // back from it, so the two can never disagree.
        let mut metrics = MetricsRegistry::new();
        metrics.absorb("comm", &sim.comm);
        metrics.absorb("cache", &cache_stats);
        metrics.absorb("counts", &counts_total);
        metrics.absorb("faults", &fault_stats);
        // The same counters again under the stable `fault.*` prefix,
        // alongside the engine-level fault handling totals.
        metrics.absorb("fault", &fault_stats);
        metrics.set_u64("fault.fetch_retries", fetch_retries);
        metrics.set_u64("fault.fill_errors", fill_errors);
        metrics.absorb("phase_busy_s", &sim.ledger);
        metrics.set_f64("time.makespan_s", sim.makespan());
        metrics.set_f64("time.traversal_start_s", traversal_start);
        metrics.set_f64("time.traversal_s", sim.makespan() - traversal_start);
        metrics.set_f64("util.workers", sim.utilization());
        metrics.set_u64("des.fetch_retries", fetch_retries);
        metrics.set_u64("des.fill_errors", fill_errors);
        metrics.set_u64("des.n_shared_buckets", n_shared_buckets as u64);
        metrics.set_u64("des.n_partitions", partition_costs.len() as u64);
        metrics.set_u64("decomp.n_split_leaves", front.n_split_leaves as u64);
        if let Some(totals) = &front.update {
            let (batches, migrated) = (front.round_batches(), front.round_migrated());
            pipeline::record_update(&mut metrics, totals, batches, migrated, None);
        }
        if let Some(c) = crash {
            metrics.absorb("recovery", &rec);
            metrics.set_u64("fault.crash.count", rec.count);
            metrics.set_u64("fault.crash.rank", c.rank as u64);
            metrics.set_f64("fault.crash.time_s", rec.crash_time_s);
            metrics.set_u64("fault.crash.phase_idx", rec.phase_idx);
            metrics.set_u64("fault.crash.restarted", rec.restarted);
        }
        let report = IterationReport {
            makespan: metrics.get_f64("time.makespan_s"),
            traversal_start: metrics.get_f64("time.traversal_start_s"),
            phase_busy: sim.ledger.busy_per_phase(),
            comm: sim.comm,
            counts: counts_total,
            cache: cache_stats,
            utilization: metrics.get_f64("util.workers"),
            ledger: sim.ledger.clone(),
            n_shared_buckets,
            partition_costs,
            particles: front.master,
            faults: fault_stats,
            fetch_retries: metrics.get_u64("des.fetch_retries"),
            fill_errors: metrics.get_u64("des.fill_errors"),
            recovery: rec,
            metrics,
        };
        (report, states)
    }
}

/// The measured-load SFC re-balancing the paper adopts from ChaNGa:
/// partitions keep their space-filling-curve order but rank boundaries
/// move so each rank receives (approximately) equal measured load.
/// "Weighted sections of this curve can be used to remap processor
/// assignments to achieve better load balance" (§V).
pub fn sfc_balanced_assignment(costs: &[f64], ranks: usize) -> Vec<u32> {
    let ranks = ranks.max(1);
    let total: f64 = costs.iter().sum();
    if total <= 0.0 {
        return (0..costs.len()).map(|i| (i * ranks / costs.len().max(1)) as u32).collect();
    }
    let per_rank = total / ranks as f64;
    let mut out = Vec::with_capacity(costs.len());
    let mut acc = 0.0;
    let mut rank = 0u32;
    for &c in costs {
        // Close the chunk when adding this partition would overshoot the
        // target more than leaving it out undershoots.
        if rank as usize + 1 < ranks && acc + c / 2.0 > per_rank * (rank as f64 + 1.0) {
            rank += 1;
        }
        acc += c;
        out.push(rank);
    }
    out
}
