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

#![warn(clippy::too_many_lines)]

mod phases;
mod recovery;
mod walk;

use crate::config::{Configuration, TraversalKind};
use crate::maintain::TreeMaintainer;
use crate::pipeline::Iteration;
use crate::traversal::{traverse_local, Apply, CacheModel, WorkCounts};
use crate::visitor::Visitor;
use paratreet_cache::stats::CacheStatsSnapshot;
use paratreet_cache::NodeHandle;
use paratreet_geometry::NodeKey;
use paratreet_particles::io::PARTICLE_WIRE_BYTES;
use paratreet_particles::Particle;
use paratreet_runtime::sim::CommStats;
use paratreet_runtime::{
    CrashConfig, CrashTrigger, FaultConfig, FaultInjector, FaultStats, Ledger, MachineSpec, Phase,
};
use paratreet_telemetry::{FlightRecorder, MetricSource, MetricsRegistry, Telemetry, Track};
use paratreet_tree::{BuiltTree, Data};
use phases::{Barriers, Gate, Stage, N_GATES};
use std::collections::{BTreeMap, HashMap};
use walk::{Fetch, PartState};

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
/// layer may deliver a message twice. Front-end deliveries carry the
/// rank they count toward plus that rank's epoch at send time (`re`); a
/// crash bumps the epoch, so the dead rank's in-flight events are
/// discarded at delivery and recovery re-posts them under the new epoch.
/// Partition events carry the partition epoch (`pe`) the same way.
#[derive(Clone)]
enum Ev<D> {
    /// A charged copy nothing waits on finished (a checkpoint write —
    /// checkpoints overlap decomposition — or a migration batch).
    CopyDone,
    /// One front-end task or message reached `rank`, counted by `gate`'s
    /// barrier. `si` is [`NO_SUBTREE`] unless a build is of a re-sharded
    /// subtree that must be grafted into its new owner's caches.
    Arrive { gate: Gate, rank: u32, re: u32, si: u32 },
    /// The configured rank dies now.
    Crash,
    /// The retry timeout elapsed since the crash: survivors react.
    CrashDetected,
    /// Restart-mode recovery chain; stages run in order 0..=3.
    RecoverStep { stage: u8 },
    /// A re-sharded subtree's checkpoint finished reading at its new
    /// owner (re-shard mode).
    SubtreeRestored { si: u32 },
    /// A crashed rank's subtree finished rebuilding.
    SubtreeRebuilt { si: u32 },
    /// (Re)process a partition's work list.
    PartRun { part: u32, pe: u32 },
    /// A partition's processing batch finished; release its effects.
    PartWorkDone { part: u32, pe: u32, fetches: Vec<(NodeKey, Vec<u32>)> },
    /// A fetch request arrived at the home rank.
    RequestArrive(Fetch),
    /// The home rank finished serialising a fill.
    FillServeDone { fetch: Fetch, bytes: Vec<u8> },
    /// A fill arrived at the requesting rank.
    FillArrive { to_cache: u32, bytes: Vec<u8> },
    /// An insertion task completed: splice and resume.
    InsertDone { to_cache: u32, bytes: Vec<u8> },
    /// A paused partition's resumption task completed: its items parked
    /// on `node`'s key resume at `node`, the node a fill put there.
    Resumed { part: u32, pe: u32, node: NodeHandle<D> },
    /// A fetch's retry timer expired; re-request if the fill never came.
    /// Only scheduled when fault injection is on.
    FetchTimeout(Fetch),
}

/// The runtime's simulation over this engine's events, for visitor `V`.
type Sim<V> = paratreet_runtime::Sim<Ev<<V as Visitor>::Data>>;

/// `Ev::Arrive::si` of a delivery that grafts nothing.
const NO_SUBTREE: u32 = u32::MAX;

/// What the front-end's tasks cost, fixed at set-up.
struct TaskCosts {
    /// Decomposition (or, on an incremental advance, classify/resync
    /// sweep) tasks per rank, their phase and the cost of one.
    decomp_per_rank: u32,
    decomp_phase: Phase,
    decomp: f64,
    /// A full build of each Subtree: Subtrees build independently, in
    /// parallel across each rank's workers (the model's
    /// synchronisation-free build). Recovery charges this when it
    /// restores from the checkpoint.
    subtree_build: Vec<f64>,
    /// What each Subtree's *this-iteration* task is: the full build
    /// (seed, fallback, and rebalanced Subtrees), or an incremental
    /// patch.
    subtree: Vec<(Phase, f64)>,
    /// One rank's skeleton build over the shared summaries.
    skeleton: f64,
}

impl TaskCosts {
    fn new<D: Data>(
        costs: &CostModel,
        front: &Iteration<D>,
        n_total: usize,
        machine: &MachineSpec,
    ) -> TaskCosts {
        let log_n = (n_total as f64).log2();
        let per_rank_particles = (n_total as f64 / machine.nodes as f64).max(1.0);
        let decomp_per_rank = (machine.workers_per_rank as u32).min(8);
        let update = front.round.as_ref().filter(|r| !r.full_rebuild);
        let sort = costs.sort_per_particle_log * per_rank_particles / decomp_per_rank as f64;
        let subtree_build: Vec<f64> = front
            .summaries
            .iter()
            .map(|s| {
                let n_i = s.n_particles.max(1) as f64;
                costs.build_per_particle_log * n_i * (n_i.log2().max(1.0))
            })
            .collect();
        // An incremental patch applies one sorted batch per Subtree, so
        // the sieve work amortises: b touched particles share prefix
        // paths, costing b·log(n/b) rather than b·log n, plus a linear
        // term for the dirty-path summary re-accumulation.
        let subtree = (0..front.n_subtrees)
            .map(|si| match update {
                Some(r) if !r.rebuilt_subtrees.contains(&(si as u32)) => {
                    let n_i = front.summaries[si].n_particles.max(1) as f64;
                    let touched = r.per_subtree_work.get(si).copied().unwrap_or(0) as f64;
                    let amortized = (n_i / touched.max(1.0)).max(2.0).log2();
                    let cost = costs.build_per_particle_log * (touched * amortized + 0.25 * n_i);
                    (Phase::TreeUpdate, cost.max(1e-9))
                }
                _ => (Phase::TreeBuild, subtree_build[si]),
            })
            .collect();
        TaskCosts {
            decomp_per_rank,
            decomp_phase: if update.is_some() { Phase::TreeUpdate } else { Phase::Decomposition },
            decomp: if update.is_some() { sort } else { sort * log_n },
            subtree_build,
            subtree,
            skeleton: costs.insert_fixed + front.summaries.len() as f64 * 1e-7,
        }
    }
}

/// One iteration's simulation state; [`Run::on`] advances it one event
/// at a time. Grouped by what owns each part: `phases` the barriers and
/// stage, `walk` the partitions and the fetch/fill pipeline, `recovery`
/// everything from `crash` down to `launch_missed`.
struct Run<'a, V: Visitor> {
    // ---- Fixed for the run ----
    engine: &'a DistributedEngine<'a, V>,
    /// The engine's configuration with the over-decomposition floors.
    config: &'a Configuration,
    front: &'a Iteration<V::Data>,
    tasks: TaskCosts,
    /// Geometry-only traversals run dry in the simulation and apply the
    /// visitor once post-sim in canonical order (module docs), so their
    /// physics is independent of message timing and crashes.
    apply: Apply,
    ranks: u32,
    /// WaitFree/XWrite: one cache per rank. PerThread: one per worker; a
    /// partition binds to cache `(rank, partition % workers)`.
    caches_per_rank: u32,
    /// Fault layer (`None` ⇒ perfect network, no timers).
    injector: Option<FaultInjector>,
    retry_timeout: f64,

    // ---- Placement ----
    /// The live owner table: starts at the SFC placement and is
    /// rewritten when a crash re-shards the dead rank's subtrees.
    owner: Vec<u32>,
    subtree_index: HashMap<NodeKey, usize>,
    parts: Vec<PartState<V>>,
    /// Every (subtree, partition) leaf-share pair with its wire size;
    /// sender and receiver are resolved at send time from the live owner
    /// table and partition placement, so recovery can replay exactly the
    /// messages a re-shard redirects.
    leaf_pairs: Vec<(u32, u32, u64)>,

    // ---- Front-end ----
    barriers: Barriers,
    stage: Stage,

    // ---- Crash + recovery ----
    crash: Option<CrashConfig>,
    /// The stage whose start fires the crash (`None`: at a time, or never).
    crash_at: Option<Stage>,
    crash_fired: bool,
    /// The built trees, cloned at iteration start — the engine's stable
    /// storage. Recovery restores a dead rank's subtrees from exactly
    /// these bytes; builds are deterministic, so this is bit-identical to
    /// rebuilding from the decomposition pieces, and in maintained mode
    /// it captures the incrementally patched tree so restart replays the
    /// update sequence deterministically.
    checkpoint: Option<Vec<BuiltTree<V::Data>>>,
    /// Checkpoint sizes: per-subtree particle payloads plus a small
    /// header; per rank, its subtrees plus one partition-assignment
    /// record per partition.
    ckpt_subtree_bytes: Vec<u64>,
    ckpt_rank_bytes: Vec<u64>,
    down: Vec<bool>,
    part_epoch: Vec<u32>,
    cache_epoch: u32,
    needs_graft: Vec<bool>,
    /// What each barrier was owed by way of the crashed rank, read at
    /// detection (see [`Barriers`]).
    lost: [usize; N_GATES],
    /// Build-barrier deliveries recovery still has to re-post, one per
    /// landed rebuild, and rebuilds still running.
    owed_build: usize,
    rebuilds_left: usize,
    /// A partition launch was dropped because its rank was down.
    launch_missed: bool,

    // ---- What the report reads ----
    tally: Tally,
}

/// A run's results, besides its partitions.
#[derive(Default)]
struct Tally {
    /// Virtual time when setup finished and traversal began.
    traversal_start: f64,
    /// Buckets that crossed rank boundaries during leaf sharing (under
    /// the initial placement).
    n_shared_buckets: usize,
    parts_done: usize,
    fetch_retries: u64,
    fill_errors: u64,
    rec: RecoveryStats,
}

impl<'a, V: Visitor> Run<'a, V> {
    /// Places Partitions (contiguous id blocks by default — the SFC
    /// placement — or the caller's measured-load `assignment`) and sizes
    /// the checkpoint. `owner` is the Subtree placement `front` was
    /// prepared with.
    fn new(
        engine: &'a DistributedEngine<'a, V>,
        config: &'a Configuration,
        front: &'a Iteration<V::Data>,
        owner: Vec<u32>,
        assignment: Option<&[u32]>,
        checkpoint: Option<Vec<BuiltTree<V::Data>>>,
        injector: Option<FaultInjector>,
    ) -> Run<'a, V> {
        let ranks = engine.machine.nodes as u32;
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
        let caches_per_rank = front.caches.len() as u32 / ranks;
        let parts: Vec<PartState<V>> = (0..front.by_partition.len())
            .map(|p| {
                let rank = partition_rank(p);
                let cache_idx = rank * caches_per_rank + p as u32 % caches_per_rank;
                PartState::new(rank, cache_idx, front.targets(engine.visitor, p))
            })
            .collect();
        let ckpt_subtree_bytes: Vec<u64> = checkpoint
            .iter()
            .flatten()
            .map(|t| (t.particles.len() * PARTICLE_WIRE_BYTES + 32) as u64)
            .collect();
        let mut ckpt_rank_bytes = vec![0u64; if checkpoint.is_some() { ranks as usize } else { 0 }];
        for (si, bytes) in ckpt_subtree_bytes.iter().enumerate() {
            ckpt_rank_bytes[owner[si] as usize] += bytes;
        }
        if checkpoint.is_some() {
            for p in 0..n_partitions {
                ckpt_rank_bytes[partition_rank(p) as usize] += 8;
            }
        }
        let n_shared_buckets = (front.buckets.iter())
            .filter(|m| owner[m.subtree as usize] != parts[m.partition as usize].rank)
            .count();
        let n_total = front.master.len().max(2);
        let crash = engine.faults.and_then(|f| f.crash);
        Run {
            engine,
            config,
            front,
            tasks: TaskCosts::new(&engine.costs, front, n_total, &engine.machine),
            apply: match engine.kind {
                TraversalKind::TopDown | TraversalKind::BasicDfs => Apply::Dry,
                _ => Apply::Runs,
            },
            ranks,
            caches_per_rank,
            injector,
            retry_timeout: engine.faults.map_or(0.0, |f| f.retry_timeout_s),
            subtree_index: front.summaries.iter().enumerate().map(|(si, s)| (s.key, si)).collect(),
            leaf_pairs: front
                .buckets
                .iter()
                .map(|m| (m.subtree, m.partition, (m.indices.len() * PARTICLE_WIRE_BYTES) as u64))
                .collect(),
            barriers: Barriers::new(ranks as usize),
            stage: Stage::Decomposition,
            crash,
            crash_at: crash.and_then(|c| match c.trigger {
                CrashTrigger::AtPhase(p) => Some(Stage::of(p)),
                CrashTrigger::AtTime(_) => None,
            }),
            crash_fired: false,
            checkpoint,
            ckpt_subtree_bytes,
            ckpt_rank_bytes,
            down: vec![false; ranks as usize],
            part_epoch: vec![0; parts.len()],
            cache_epoch: 0,
            needs_graft: vec![false; owner.len()],
            lost: [0; N_GATES],
            owed_build: 0,
            rebuilds_left: 0,
            launch_missed: false,
            tally: Tally { n_shared_buckets, ..Default::default() },
            owner,
            parts,
        }
    }

    /// Charges one transfer of `bytes` to the communication totals.
    fn charge(sim: &mut Sim<V>, bytes: u64) {
        sim.comm.messages += 1;
        sim.comm.bytes += bytes;
    }

    /// Charges `bytes` as communication and runs the copy as a `phase`
    /// task on `rank`.
    fn copy_task(&self, sim: &mut Sim<V>, rank: u32, phase: Phase, bytes: u64, done: Ev<V::Data>) {
        Self::charge(sim, bytes);
        let costs = &self.engine.costs;
        sim.spawn(rank, phase, costs.serialize_per_byte * bytes as f64 + costs.insert_fixed, done);
    }

    /// An event stamped before a crash voided it.
    fn discard(&mut self) {
        self.tally.rec.discarded_events += 1;
    }

    /// Everything that happens at virtual time zero.
    fn start(&mut self, sim: &mut Sim<V>) {
        // Crash runs only: every rank checkpoints its owned particles
        // and partition table to stable storage, overlapping the
        // decomposition sort.
        for r in 0..self.ckpt_rank_bytes.len() {
            let bytes = self.ckpt_rank_bytes[r];
            self.tally.rec.checkpoint_bytes += bytes;
            self.copy_task(sim, r as u32, Phase::Checkpoint, bytes, Ev::CopyDone);
        }
        // Incremental advance: particles that crossed Subtree boundaries
        // moved between the owning ranks. The maintainer hands them over
        // as per-destination batches, so the comm model charges one
        // message per (source rank, destination rank) pair — all
        // escapees travelling that edge share a single batch envelope —
        // rather than one per subtree migration edge.
        if let Some(r) = self.front.round.as_ref().filter(|r| !r.full_rebuild) {
            let mut rank_batches: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for &(from_si, to_si, n) in &r.migrations {
                let (from, to) = (self.owner[from_si as usize], self.owner[to_si as usize]);
                if from != to {
                    *rank_batches.entry((from, to)).or_default() += n as u64;
                }
            }
            for ((from, _to), n) in rank_batches {
                let bytes = n * PARTICLE_WIRE_BYTES as u64 + MIGRATION_BATCH_HEADER_BYTES;
                self.copy_task(sim, from, Phase::TreeUpdate, bytes, Ev::CopyDone);
            }
        }
        self.begin(sim, Stage::Decomposition);
        if let Some(CrashTrigger::AtTime(t)) = self.crash.map(|c| c.trigger) {
            sim.post_after(t, Ev::Crash);
        }
    }

    /// Advances the run by one event.
    fn on(&mut self, sim: &mut Sim<V>, ev: Ev<V::Data>) {
        match ev {
            Ev::CopyDone => {}
            Ev::Arrive { gate, rank, re, si } => self.on_arrive(sim, gate, rank, re, si),
            Ev::Crash => self.on_crash(sim),
            Ev::CrashDetected => self.on_crash_detected(sim),
            Ev::RecoverStep { stage } => self.on_recover_step(sim, stage),
            Ev::SubtreeRestored { si } => self.on_subtree_restored(sim, si),
            Ev::SubtreeRebuilt { si } => self.on_subtree_rebuilt(sim, si),
            Ev::PartRun { part, pe } => self.on_part_run(sim, part, pe),
            Ev::PartWorkDone { part, pe, fetches } => {
                self.on_part_work_done(sim, part, pe, fetches)
            }
            Ev::RequestArrive(fetch) => self.on_request(sim, fetch),
            Ev::FillServeDone { fetch, bytes } => self.on_fill_served(sim, fetch, bytes),
            Ev::FillArrive { to_cache, bytes } => self.on_fill_arrive(sim, to_cache, bytes),
            Ev::InsertDone { to_cache, bytes } => self.on_insert_done(sim, to_cache, &bytes),
            Ev::Resumed { part, pe, node } => self.on_resumed(sim, part, pe, node),
            Ev::FetchTimeout(fetch) => self.on_fetch_timeout(sim, fetch),
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
        self.simulate(particles, None, None).0
    }

    /// Like [`DistributedEngine::run_iteration`], but also returns every
    /// bucket's final visitor state in `(partition, bucket)` order —
    /// the per-leaf results of state-carrying traversals (SPH densities,
    /// collision partners, kNN sets), for validation.
    pub fn run_iteration_states(
        &self,
        particles: Vec<Particle>,
    ) -> (IterationReport, Vec<(NodeKey, V::State)>) {
        self.simulate(particles, None, None)
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
        self.simulate(particles, assignment, None).0
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
        self.simulate(particles, None, Some(slot)).0
    }

    /// The engine's configuration with its over-decomposition floors:
    /// the configured counts are minimums. Every rank needs several
    /// Subtrees, and enough Partitions to keep its workers busy across
    /// fetch stalls (Charm++'s "more partitions than processors") —
    /// bounded by bucket granularity so partitions keep enough buckets
    /// for the loop transposition.
    fn floored_config(&self, n_total: usize) -> Configuration {
        let mut config = self.config.clone();
        config.n_subtrees = config.n_subtrees.max(self.machine.nodes * 4);
        let by_granularity = (n_total / (config.bucket_size * 4)).max(1);
        let by_machine = self.machine.nodes * self.machine.workers_per_rank * 2;
        config.n_partitions =
            config.n_partitions.max(by_machine.min(by_granularity).max(self.machine.nodes * 2));
        config
    }

    /// Set-up, the event loop, and the report.
    fn simulate(
        &self,
        particles: Vec<Particle>,
        assignment: Option<&[u32]>,
        maintained: Option<&mut Option<TreeMaintainer<V::Data>>>,
    ) -> (IterationReport, Vec<(NodeKey, V::State)>) {
        // Constructed first so an invalid configuration fails before any
        // work.
        let injector =
            self.faults.map(|f| FaultInjector::new(f).expect("invalid fault configuration"));
        let ranks = self.machine.nodes as u32;
        let crash = self.faults.and_then(|f| f.crash);
        if let Some(c) = crash {
            assert!(ranks >= 2, "rank crash-stop recovery needs at least two ranks");
            assert!(c.rank < ranks, "crash rank {} out of range for {} ranks", c.rank, ranks);
        }
        let config = self.floored_config(particles.len().max(2));

        // Decomposition or incremental update: centrally executed,
        // per-rank charged. The front-end runs untraced: this engine's
        // spans are stamped in virtual time, and wall-clock ones would
        // break the byte-identical trace a seed guarantees.
        let untraced = Telemetry::disabled();
        let mut front =
            Iteration::<V::Data>::obtain(&config, &untraced, particles, maintained, false);
        // Subtrees to ranks: contiguous blocks in piece (SFC) order.
        let n_subtrees = front.n_subtrees as u64;
        let owner: Vec<u32> =
            (0..n_subtrees).map(|si| (si * ranks as u64 / n_subtrees) as u32).collect();
        let checkpoint = crash.is_some().then(|| front.trees.clone());
        let per_thread = self.cache_model == CacheModel::PerThread;
        let caches_per_rank = if per_thread { self.machine.workers_per_rank } else { 1 };
        front.prepare(&owner, ranks as usize, caches_per_rank, &config, &untraced);

        let mut sim: Sim<V> = paratreet_runtime::Sim::new(self.machine.clone());
        sim.telemetry = self.telemetry.clone();
        let mut run = Run::new(self, &config, &front, owner, assignment, checkpoint, injector);
        run.start(&mut sim);
        sim.run(|sim, ev| run.on(sim, ev));

        assert_eq!(run.tally.parts_done, run.parts.len(), "all partitions must finish");
        #[cfg(debug_assertions)]
        front.audit(&config, "after traversal");
        let Run { mut parts, injector, tally, apply, .. } = run;
        // The simulation established timing, communication, and a fully
        // materialised cache per partition; a dry traversal's physics is
        // applied once, in depth-first order, so the result is
        // bit-identical with or without crashes and message faults.
        if apply == Apply::Dry {
            for ps in &mut parts {
                let cache = &front.caches[ps.cache_idx as usize];
                traverse_local(cache, self.visitor, self.kind, &mut ps.targets);
            }
        }
        let faults = injector.map(|f| f.stats).unwrap_or_default();
        self.report(&sim, front, parts, faults, tally)
    }

    /// Writes one [`DES_FLIGHT_SERIES`] row from deterministic sim state
    /// (a no-op on a disabled recorder).
    fn sample_flight(&self, sim: &Sim<V>, at_s: f64, stage: u8, fetch_retries: u64, migrated: u64) {
        if self.flight.is_enabled() {
            self.flight.sample_at(
                at_s * 1e6,
                &[
                    stage as f64,
                    sim.ledger.total_busy(),
                    sim.utilization(),
                    sim.comm.messages as f64,
                    sim.comm.bytes as f64,
                    fetch_retries as f64,
                    migrated as f64,
                ],
            );
        }
    }

    /// Write-back and reporting. The registry is assembled first; the
    /// report's named fields read back from it, so the two can never
    /// disagree.
    fn report(
        &self,
        sim: &Sim<V>,
        mut front: Iteration<V::Data>,
        parts: Vec<PartState<V>>,
        faults: FaultStats,
        tally: Tally,
    ) -> (IterationReport, Vec<(NodeKey, V::State)>) {
        let rec = tally.rec;
        if let Some(c) = self.faults.and_then(|f| f.crash).filter(|_| rec.count > 0) {
            self.telemetry.span_at(
                Track { rank: c.rank, worker: 0 },
                "recovery",
                rec.detected_s * 1e6,
                (rec.completed_s - rec.detected_s).max(0.0) * 1e6,
                None,
            );
        }
        let caches = std::mem::take(&mut front.caches);
        let done = parts.iter().enumerate().map(|(p, ps)| (p, &ps.targets, ps.counts));
        let (counts, cache, mut metrics) = front.finish(&caches, done, None);
        let states: Vec<(NodeKey, V::State)> = parts
            .iter()
            .flat_map(|ps| ps.targets.buckets().iter().map(|b| (b.leaf_key, b.state.clone())))
            .collect();
        let partition_costs: Vec<f64> = parts.iter().map(|p| p.cost).collect();
        self.sample_flight(sim, sim.makespan(), 1, tally.fetch_retries, front.round_migrated());

        metrics.absorb("comm", &sim.comm);
        metrics.absorb("fault", &faults);
        metrics.set_u64("fault.fetch_retries", tally.fetch_retries);
        metrics.set_u64("fault.fill_errors", tally.fill_errors);
        metrics.absorb("phase_busy_s", &sim.ledger);
        metrics.set_f64("time.makespan_s", sim.makespan());
        metrics.set_f64("time.traversal_start_s", tally.traversal_start);
        metrics.set_f64("time.traversal_s", sim.makespan() - tally.traversal_start);
        metrics.set_f64("util.workers", sim.utilization());
        metrics.set_u64("des.n_shared_buckets", tally.n_shared_buckets as u64);
        metrics.set_u64("des.n_partitions", partition_costs.len() as u64);
        if let Some(c) = self.faults.and_then(|f| f.crash) {
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
            counts,
            cache,
            utilization: metrics.get_f64("util.workers"),
            ledger: sim.ledger.clone(),
            n_shared_buckets: tally.n_shared_buckets,
            partition_costs,
            particles: front.master,
            faults,
            fetch_retries: metrics.get_u64("fault.fetch_retries"),
            fill_errors: metrics.get_u64("fault.fill_errors"),
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
