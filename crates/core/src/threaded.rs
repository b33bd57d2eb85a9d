//! A real multi-threaded distributed executor.
//!
//! Where [`crate::DistributedEngine`] *models* a distributed machine in
//! virtual time, this engine *runs* one on real OS threads: each
//! simulated rank is a thread group (one message pump + worker threads),
//! inter-rank traffic is crossbeam channels carrying the same serialized
//! fills as the wire protocol, and — the point of the exercise — the
//! wait-free cache is exercised exactly as designed: traversal workers
//! keep reading the cached tree while fills are deserialised and spliced
//! in concurrently by whichever worker picks the insert task up.
//!
//! On a many-core host this is a usable shared/distributed-memory hybrid
//! engine; in this repository it is primarily the strongest correctness
//! test of the concurrency design (forces must match the deterministic
//! engines bit-for-bit up to floating-point summation order).
//!
//! Execution structure per rank:
//!
//! * a **task channel** (MPMC): `RunPartition` and `InsertFill` tasks,
//!   consumed by the rank's workers — fills go to "the currently least
//!   busy worker" by construction, since any idle worker takes them;
//! * a **message pump** thread owning the rank's inbox: `Request`s are
//!   served from the local cache (serialise + reply), `Fill`s become
//!   insert tasks;
//! * partitions are chare-like: a partition task runs to completion or
//!   until every remaining item waits on a fetch; its state then parks
//!   in the rank's shared table until a fill re-enqueues it.

use crate::config::{Configuration, TraversalKind};
use crate::maintain::TreeMaintainer;
use crate::pipeline::Iteration;
use crate::traversal::{drain, seed_items, Apply, PendingFetch, TargetsOf, WorkCounts, WorkStack};
use crate::visitor::Visitor;
use crossbeam::channel::{unbounded, Receiver, Sender};
use paratreet_cache::stats::CacheStatsSnapshot;
use paratreet_cache::{CacheTree, NodeHandle, RequestOutcome};
use paratreet_geometry::NodeKey;
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Inter-rank messages (the "network").
enum Msg {
    /// Fetch the subtree under `key`; reply to `reply_to`.
    Request { key: NodeKey, reply_to: u32 },
    /// A serialized fill fragment.
    Fill { bytes: Vec<u8> },
    /// Drain and exit.
    Shutdown,
}

/// Intra-rank work.
enum Task<V: Visitor> {
    RunPartition(Box<PartState<V>>),
    InsertFill(Vec<u8>),
    Stop,
}

/// One partition's private traversal state (moves with its task).
struct PartState<V: Visitor> {
    id: u32,
    targets: TargetsOf<V>,
    stack: WorkStack<V::Data>,
    counts: WorkCounts,
    outstanding: usize,
    seeded: bool,
}

/// Items a parked partition waits on, plus the handoff flags.
struct Parked<V: Visitor> {
    /// The partition state while it is not running.
    state: Option<Box<PartState<V>>>,
    /// Items keyed by the fetch that will release them.
    waiting: HashMap<NodeKey, Vec<Vec<u32>>>,
    /// Items released by fills while the partition was running/parked.
    ready: Vec<(NodeKey, Vec<u32>)>,
}

impl<V: Visitor> Default for Parked<V> {
    fn default() -> Self {
        Parked { state: None, waiting: HashMap::new(), ready: Vec::new() }
    }
}

/// Everything a rank's threads share.
struct RankShared<V: Visitor> {
    rank: u32,
    cache: CacheTree<V::Data>,
    tasks: Sender<Task<V>>,
    /// Outboxes to every rank (including self).
    net: Vec<Sender<Msg>>,
    /// Parked partitions, by partition id.
    parked: Mutex<HashMap<u32, Parked<V>>>,
    /// Partitions not yet finished, across the whole machine.
    remaining: Arc<AtomicUsize>,
    fetch_depth: u32,
}

/// Outcome of a threaded iteration.
pub struct ThreadedReport {
    /// Final particle state (bucket write-backs merged).
    pub particles: Vec<Particle>,
    /// Total interaction counts (exact, engine-independent).
    pub counts: WorkCounts,
    /// Cache traffic aggregated over ranks.
    pub cache: CacheStatsSnapshot,
    /// Number of fills that crossed rank boundaries.
    pub remote_fills: u64,
    /// Every statistic above under a stable dotted name, plus the
    /// measured wall time of the iteration.
    pub metrics: MetricsRegistry,
}

/// The real-threads engine. See module docs.
pub struct ThreadedEngine<'v, V: Visitor> {
    /// Framework configuration.
    pub config: Configuration,
    /// Number of rank thread-groups.
    pub n_ranks: usize,
    /// Worker threads per rank (in addition to the message pump).
    pub workers_per_rank: usize,
    /// Span/counter sink (wall clock). An enabled handle records setup
    /// phases, every partition run, and — through the per-rank caches —
    /// fill serving and cache insertion, one track per real thread.
    pub telemetry: Telemetry,
    /// Flight-recorder sink sampled at phase boundaries (the same
    /// [`crate::framework::FLIGHT_SERIES`] rows as the shared-memory
    /// engine, wall clock); disabled by default.
    pub flight: FlightRecorder,
    /// Iterations completed — the `epoch` column of flight rows.
    iterations: std::sync::atomic::AtomicU64,
    visitor: &'v V,
}

impl<'v, V: Visitor> ThreadedEngine<'v, V> {
    /// A new engine over `n_ranks × workers_per_rank` real threads.
    pub fn new(
        config: Configuration,
        n_ranks: usize,
        workers_per_rank: usize,
        visitor: &'v V,
    ) -> ThreadedEngine<'v, V> {
        ThreadedEngine {
            config,
            n_ranks: n_ranks.max(1),
            workers_per_rank: workers_per_rank.max(1),
            telemetry: Telemetry::disabled(),
            flight: FlightRecorder::disabled(),
            iterations: std::sync::atomic::AtomicU64::new(0),
            visitor,
        }
    }

    /// Attaches a flight recorder sampled at phase boundaries (one
    /// setup row per iteration from the callers, one traversal row at
    /// iteration end).
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Attaches a telemetry handle (use [`Telemetry::wall`], sized to
    /// `n_ranks × (workers_per_rank + 1)` threads).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs one full iteration: decompose, build, exchange, traverse —
    /// with fetches and fills crossing real channels between real
    /// threads. `kind` must not be [`TraversalKind::DualTree`].
    pub fn run_iteration(&self, particles: Vec<Particle>, kind: TraversalKind) -> ThreadedReport {
        self.run(particles, kind, None)
    }

    /// Runs one iteration against a tree maintained across calls: the
    /// first call seeds the [`TreeMaintainer`] into `slot` (a normal
    /// decomposition + build), every later call patches the maintained
    /// tree in place under the "incremental update" phase and traverses
    /// the flattened result through the exact machinery of
    /// [`ThreadedEngine::run_iteration`]. Pass the same `slot` every
    /// iteration; its tree-update counters land under `tree.update.*`
    /// in the report's metrics.
    pub fn run_maintained(
        &self,
        slot: &mut Option<TreeMaintainer<V::Data>>,
        particles: Vec<Particle>,
        kind: TraversalKind,
    ) -> ThreadedReport {
        self.run(particles, kind, Some(slot))
    }

    fn run(
        &self,
        particles: Vec<Particle>,
        kind: TraversalKind,
        maintained: Option<&mut Option<TreeMaintainer<V::Data>>>,
    ) -> ThreadedReport {
        let started = std::time::Instant::now();
        let ranks = self.n_ranks;
        // Over-decomposition floors: several Subtrees per rank, and
        // enough Partitions to keep every worker busy across stalls.
        let mut config = self.config.clone();
        config.n_subtrees = config.n_subtrees.max(ranks * 4);
        config.n_partitions = config.n_partitions.max(ranks * self.workers_per_rank * 2);
        // Built centrally; the per-Subtree builds run as one parallel region.
        let front = Iteration::obtain(&config, &self.telemetry, particles, maintained, true);
        self.run_obtained(&config, front, kind, started)
    }

    /// The engine proper: places this iteration's Subtrees and
    /// Partitions on ranks in contiguous (SFC) blocks, prepares the
    /// shared front-end state, and runs the real-threads traversal.
    fn run_obtained(
        &self,
        config: &Configuration,
        mut front: Iteration<V::Data>,
        kind: TraversalKind,
        started: std::time::Instant,
    ) -> ThreadedReport {
        let ranks = self.n_ranks;
        let n_subtrees = front.n_subtrees;
        let home: Vec<u32> = (0..n_subtrees).map(|si| (si * ranks / n_subtrees) as u32).collect();
        front.prepare(&home, ranks, 1, config, &self.telemetry);
        let epoch = self.iterations.fetch_add(1, Ordering::Relaxed);
        front.sample_flight(&self.flight, epoch, 0, front.seconds_setup());

        // ---- Partition states ----
        let mut part_states: Vec<Option<Box<PartState<V>>>> = (0..front.by_partition.len())
            .map(|p| {
                Some(Box::new(PartState {
                    id: p as u32,
                    targets: front.targets(self.visitor, p),
                    stack: WorkStack::new(),
                    counts: WorkCounts::default(),
                    outstanding: 0,
                    seeded: false,
                }))
            })
            .collect();
        let n_partitions = part_states.len();
        let partition_rank = |pi: usize| -> u32 { (pi * ranks / n_partitions) as u32 };

        // ---- Channels ----
        let mut net_senders: Vec<Sender<Msg>> = Vec::with_capacity(ranks);
        let mut net_receivers: Vec<Receiver<Msg>> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = unbounded::<Msg>();
            net_senders.push(tx);
            net_receivers.push(rx);
        }
        let mut task_senders: Vec<Sender<Task<V>>> = Vec::with_capacity(ranks);
        let mut task_receivers: Vec<Receiver<Task<V>>> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = unbounded::<Task<V>>();
            task_senders.push(tx);
            task_receivers.push(rx);
        }

        let remaining = Arc::new(AtomicUsize::new(n_partitions));
        let remote_fills = Arc::new(AtomicUsize::new(0));
        let shared: Vec<Arc<RankShared<V>>> = std::mem::take(&mut front.caches)
            .into_iter()
            .enumerate()
            .map(|(r, cache)| {
                Arc::new(RankShared {
                    rank: r as u32,
                    cache,
                    tasks: task_senders[r].clone(),
                    net: net_senders.clone(),
                    parked: Mutex::new(HashMap::new()),
                    remaining: remaining.clone(),
                    fetch_depth: config.fetch_depth,
                })
            })
            .collect();

        // Seed partition tasks on their home ranks.
        for (p, state) in part_states.iter_mut().enumerate() {
            let rank = partition_rank(p) as usize;
            task_senders[rank]
                .send(Task::RunPartition(state.take().expect("seeded once")))
                .expect("rank alive");
        }

        // ---- Run ----
        let visitor = self.visitor;
        let workers = self.workers_per_rank;
        let collected: Mutex<Vec<Box<PartState<V>>>> = Mutex::new(Vec::new());
        // What the coordinator sleeps on: the worker that finishes the
        // last partition sends once, and so does every worker or pump
        // on its way out, however it leaves.
        let (wake_tx, wake_rx) = unbounded::<()>();
        std::thread::scope(|scope| {
            // Message pumps.
            let mut pump_handles = Vec::new();
            for (r, rx) in net_receivers.into_iter().enumerate() {
                let shared = shared[r].clone();
                let remote_fills = remote_fills.clone();
                let leaving = WakeOnExit(wake_tx.clone());
                pump_handles.push(scope.spawn(move || {
                    let _leaving = leaving;
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Request { key, reply_to } => {
                                match shared.cache.serialize_fragment(key, shared.fetch_depth) {
                                    Ok(bytes) => {
                                        if reply_to != shared.rank {
                                            remote_fills.fetch_add(1, Ordering::Relaxed);
                                        }
                                        if shared.net[reply_to as usize]
                                            .send(Msg::Fill { bytes })
                                            .is_err()
                                        {
                                            debug_assert!(false, "rank {reply_to} hung up early");
                                        }
                                    }
                                    Err(e) => eprintln!(
                                        "threaded: fetch for {key} failed on rank {}: {e}",
                                        shared.rank
                                    ),
                                }
                            }
                            Msg::Fill { bytes } => {
                                // Hand the insert to the least busy
                                // worker: any idle one takes it next.
                                if shared.tasks.send(Task::InsertFill(bytes)).is_err() {
                                    debug_assert!(false, "workers gone before fill handled");
                                }
                            }
                            Msg::Shutdown => break,
                        }
                    }
                }));
            }

            // Workers.
            let mut worker_handles = Vec::new();
            for r in 0..ranks {
                for _ in 0..workers {
                    let shared = shared[r].clone();
                    let rx = task_receivers[r].clone();
                    let collected = &collected;
                    let leaving = WakeOnExit(wake_tx.clone());
                    worker_handles.push(scope.spawn(move || {
                        while let Ok(task) = rx.recv() {
                            match task {
                                Task::Stop => break,
                                Task::InsertFill(bytes) => handle_fill(&shared, &bytes),
                                Task::RunPartition(ps) => {
                                    let part = ps.id as u64;
                                    let done = shared.cache.telemetry.wall_span(
                                        shared.rank,
                                        "local traversal",
                                        Some(part),
                                        || run_partition(&shared, visitor, kind, ps),
                                    );
                                    if let Some(done) = done {
                                        collected.lock().push(done);
                                        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                            leaving.wake();
                                        }
                                    }
                                }
                            }
                        }
                    }));
                }
            }

            // Sleep until global completion, then shut everything
            // down. Workers and pumps only return once told to, so a
            // wake-up while partitions remain is a thread that died —
            // and took its partition with it: `remaining` would never
            // reach zero. Stop waiting; the joins below surface it.
            if remaining.load(Ordering::Acquire) > 0 {
                let _ = wake_rx.recv();
            }
            for tx in &net_senders {
                let _ = tx.send(Msg::Shutdown);
            }
            for tx in task_senders.iter().take(ranks) {
                for _ in 0..workers {
                    let _ = tx.send(Task::Stop);
                }
            }
            let mut died: Option<String> = None;
            for h in worker_handles.into_iter().chain(pump_handles) {
                if let Err(payload) = h.join() {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    died.get_or_insert_with(|| msg.to_owned());
                }
            }
            if let Some(msg) = died {
                panic!(
                    "threaded engine thread panicked with {} of {n_partitions} partitions \
                     unfinished: {msg}\n{}",
                    remaining.load(Ordering::Acquire),
                    dump_parked(&shared),
                );
            }
        });

        // ---- Write-back and report ----
        let collected = collected.into_inner();
        let done = collected.iter().map(|ps| (ps.id as usize, &ps.targets, ps.counts));
        let caches = shared.iter().map(|s| &s.cache);
        let (counts, cache_stats, mut metrics) =
            front.finish(caches, done, Some(front.seconds_update));
        let remote_fills = remote_fills.load(Ordering::Relaxed) as u64;
        metrics.set_u64("net.remote_fills", remote_fills);
        metrics.set_f64("time.iteration_s", started.elapsed().as_secs_f64());
        front.sample_flight(&self.flight, epoch, 1, started.elapsed().as_secs_f64());
        ThreadedReport {
            particles: front.master,
            counts,
            cache: cache_stats,
            remote_fills,
            metrics,
        }
    }
}

/// Wakes the coordinator when the thread holding it ends — by return
/// or by panic — so a dead thread cannot leave it asleep.
struct WakeOnExit(Sender<()>);

impl WakeOnExit {
    fn wake(&self) {
        // The coordinator may already be past its wait; nothing to do.
        let _ = self.0.send(());
    }
}

impl Drop for WakeOnExit {
    fn drop(&mut self) {
        self.wake();
    }
}

/// Inserts a fill and re-enqueues every partition it unblocks. A fill
/// may materialise several keys at once; each (key, partition) pair
/// from the outcome releases its own waiting entry.
fn handle_fill<V: Visitor>(shared: &RankShared<V>, bytes: &[u8]) {
    let outcome = match shared.cache.insert_fragment(bytes) {
        Ok(o) => o,
        Err(e) => {
            // Rejected fills mutate nothing; log and drop, the
            // placeholder stays requestable.
            eprintln!("threaded: fill rejected on rank {}: {e}", shared.rank);
            return;
        }
    };
    let mut parked = shared.parked.lock();
    for (key, waiter) in outcome.resumed {
        let entry = parked.entry(waiter as u32).or_default();
        if let Some(bucket_sets) = entry.waiting.remove(&key) {
            for buckets in bucket_sets {
                entry.ready.push((key, buckets));
            }
        }
        // If the partition is parked (not running), hand it back to the
        // workers; if it is running, it will collect `ready` itself.
        if let Some(mut state) = entry.state.take() {
            drain_ready(shared, &mut state, entry);
            if shared.tasks.send(Task::RunPartition(state)).is_err() {
                debug_assert!(false, "workers gone while partitions still parked");
            }
        }
    }
}

/// Moves released items into the partition's stack.
fn drain_ready<V: Visitor>(
    shared: &RankShared<V>,
    state: &mut PartState<V>,
    entry: &mut Parked<V>,
) {
    for (key, buckets) in entry.ready.drain(..) {
        let Some(node) = shared.cache.find(key) else {
            debug_assert!(false, "released key {key} missing from cache");
            continue;
        };
        state.outstanding -= 1;
        state.stack.push(NodeHandle::new(node), &buckets);
    }
}

/// Registers a surrendered fetch's bucket set — the copy the parked
/// item owns — as a waiter on `key`. This happens *before* the request
/// is issued (and before the partition is released), so a racing fill
/// always finds either the waiting entry or the parked state.
fn register_wait<V: Visitor>(
    shared: &RankShared<V>,
    ps: &mut PartState<V>,
    key: NodeKey,
    buckets: Vec<u32>,
) {
    let mut parked = shared.parked.lock();
    let entry = parked.entry(ps.id).or_default();
    entry.waiting.entry(key).or_default().push(buckets);
    ps.outstanding += 1;
}

/// Issues the cache request for a fetch [`register_wait`] registered.
fn issue_request<V: Visitor>(
    shared: &RankShared<V>,
    ps: &mut PartState<V>,
    key: NodeKey,
    placeholder: NodeHandle<V::Data>,
) {
    let node = placeholder.get(&shared.cache);
    match shared.cache.request(node, ps.id as u64) {
        RequestOutcome::Ready(n) => {
            // Fill won the race: reclaim the waiting entry — if it is
            // still there. When the partition already waited on this key
            // from an earlier item, the fill's `handle_fill` may have
            // moved *every* set on the key, this one included, to
            // `ready` between the registration and the request; then
            // `drain_ready` resumes it, and releasing it here as well
            // would resume it twice and drive `outstanding` negative.
            let mut parked = shared.parked.lock();
            let entry = parked.entry(ps.id).or_default();
            if let Some(mut sets) = entry.waiting.remove(&key) {
                let buckets = sets.pop().expect("a waiting entry holds at least one set");
                if !sets.is_empty() {
                    entry.waiting.insert(key, sets);
                }
                ps.outstanding -= 1;
                ps.stack.push(NodeHandle::new(n), &buckets);
            }
        }
        RequestOutcome::SendFetch { home_rank } => {
            if shared.net[home_rank as usize]
                .send(Msg::Request { key, reply_to: shared.rank })
                .is_err()
            {
                debug_assert!(false, "home rank {home_rank} hung up early");
            }
        }
        RequestOutcome::InFlight => {}
    }
}

/// What every rank's partition table holds — the explanation attached
/// to a dead thread's panic: which partitions sit parked or waiting, on
/// which keys, with how many fetches outstanding.
fn dump_parked<V: Visitor>(shared: &[Arc<RankShared<V>>]) -> String {
    let mut out = String::new();
    for s in shared {
        let parked = s.parked.lock();
        let mut ids: Vec<&u32> = parked.keys().collect();
        ids.sort();
        for id in ids {
            let e = &parked[id];
            if e.state.is_none() && e.waiting.is_empty() {
                continue;
            }
            let mut keys: Vec<String> = e.waiting.keys().map(|k| k.to_string()).collect();
            keys.sort();
            let outstanding = match &e.state {
                Some(state) => state.outstanding.to_string(),
                None => "? (running or lost)".to_owned(),
            };
            out.push_str(&format!(
                "  rank {} partition {id}: outstanding {outstanding}, waiting on [{}]\n",
                s.rank,
                keys.join(", ")
            ));
        }
    }
    if out.is_empty() {
        out.push_str("  no partition parked or waiting\n");
    }
    out
}

/// Runs a partition until it finishes (returned) or parks (None).
fn run_partition<V: Visitor>(
    shared: &RankShared<V>,
    visitor: &V,
    kind: TraversalKind,
    mut ps: Box<PartState<V>>,
) -> Option<Box<PartState<V>>> {
    if !ps.seeded {
        ps.seeded = true;
        ps.stack = seed_items::<V>(&shared.cache, kind, &ps.targets);
    }
    loop {
        // Drain local work; each surrendered fetch parks with its copy
        // of the buckets. Every wait is registered before any request
        // goes out, and the requests go out when the stack has run dry.
        let mut fetches: Vec<(PendingFetch<V::Data>, Vec<u32>)> = Vec::new();
        let state = &mut *ps;
        state.counts += drain(
            &shared.cache,
            visitor,
            kind,
            Apply::Runs,
            &mut state.targets,
            &mut state.stack,
            |fetch, buckets| fetches.push((fetch, buckets.to_vec())),
        );
        for (fetch, buckets) in &mut fetches {
            register_wait(shared, &mut ps, fetch.key, std::mem::take(buckets));
        }
        for (fetch, _) in fetches {
            issue_request(shared, &mut ps, fetch.key, fetch.node);
        }

        // Collect anything fills released while we were working.
        {
            let mut parked = shared.parked.lock();
            if let Some(entry) = parked.get_mut(&ps.id) {
                drain_ready(shared, &mut ps, entry);
            }
        }
        if !ps.stack.is_empty() {
            continue;
        }
        if ps.outstanding == 0 {
            return Some(ps);
        }
        // Park: publish the state; if something raced in, take it back.
        let mut parked = shared.parked.lock();
        let entry = parked.entry(ps.id).or_default();
        if entry.ready.is_empty() {
            entry.state = Some(ps);
            return None;
        }
        drain_ready(shared, &mut ps, entry);
        drop(parked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visitor::{SpatialNodeView, TargetBucket, TargetSpan};
    use paratreet_particles::gen;
    use paratreet_tree::CountData;

    /// Opens everything, computes nothing.
    struct OpenAll;

    impl Visitor for OpenAll {
        type Data = CountData;
        type State = ();
        type Prepared = ();
        type PerTarget = ();
        fn prepare(&self, _: &SpatialNodeView<'_, CountData>) {}
        fn open(&self, _: &SpatialNodeView<'_, CountData>, _: &(), _: &TargetBucket<()>) -> bool {
            true
        }
        fn node(&self, _: &SpatialNodeView<'_, CountData>, _: &(), _: &mut TargetSpan<'_, ()>) {}
        fn leaf(&self, _: &SpatialNodeView<'_, CountData>, _: &(), _: &mut TargetSpan<'_, ()>) {}
    }

    fn config() -> Configuration {
        Configuration { bucket_size: 8, n_subtrees: 8, n_partitions: 4, ..Default::default() }
    }

    /// The threaded kNN livelock, replayed deterministically: a partition
    /// already waits on a key from an earlier item, registers a second
    /// item on it, and the fill lands *between* that registration and the
    /// request. `handle_fill` moves both sets to `ready`; the request then
    /// answers `Ready`, and must not release the second item again.
    #[test]
    fn fill_between_registration_and_request_releases_each_item_once() {
        let quiet = Telemetry::disabled();
        let particles = gen::uniform_cube(400, 5, 1.0, 1.0);
        let mut front = Iteration::<CountData>::obtain(&config(), &quiet, particles, None, false);
        let n = front.n_subtrees;
        let home: Vec<u32> = (0..n).map(|si| (si * 2 / n) as u32).collect();
        front.prepare(&home, 2, 1, &config(), &quiet);
        let remote =
            front.summaries.iter().find(|s| s.home_rank == 1).expect("rank 1 owns some").key;
        let owner = front.caches.pop().expect("rank 1");
        let (tasks, _task_rx) = unbounded();
        let (net, _net_rx) = unbounded();
        let shared = RankShared::<OpenAll> {
            rank: 0,
            cache: front.caches.pop().expect("rank 0"),
            tasks,
            net: vec![net.clone(), net],
            parked: Mutex::new(HashMap::new()),
            remaining: Arc::new(AtomicUsize::new(1)),
            fetch_depth: config().fetch_depth,
        };
        let mut ps = PartState::<OpenAll> {
            id: 0,
            targets: front.targets(&OpenAll, 0),
            stack: WorkStack::new(),
            counts: WorkCounts::default(),
            outstanding: 0,
            seeded: true,
        };
        let placeholder = shared.cache.find(remote).expect("skeleton holds every subtree root");
        assert!(placeholder.is_placeholder());
        let node = NodeHandle::new(placeholder);

        register_wait(&shared, &mut ps, remote, vec![0]);
        issue_request(&shared, &mut ps, remote, node); // goes out; the partition now waits on the key
        register_wait(&shared, &mut ps, remote, vec![1]);
        let fill = owner.serialize_fragment(remote, shared.fetch_depth).expect("owner serves it");
        handle_fill(&shared, &fill); // both sets move to `ready`
        issue_request(&shared, &mut ps, remote, node); // answers Ready

        let mut parked = shared.parked.lock();
        drain_ready(&shared, &mut ps, parked.get_mut(&0).expect("the partition registered"));
        assert_eq!(ps.outstanding, 0, "every registered wait is released exactly once");
        assert_eq!(ps.stack.len(), 2, "and each item resumes exactly once");
    }

    /// Patched trees must satisfy every invariant a fresh build does, and
    /// this engine checks it like the other two: a maintained arena with
    /// a particle outside its leaf's region trips the debug audit before
    /// any thread starts.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its region box")]
    fn maintained_run_audits_the_patched_arena() {
        let mut slot = None;
        let particles = gen::uniform_cube(300, 9, 1.0, 1.0);
        let quiet = Telemetry::disabled();
        let mut front =
            Iteration::<CountData>::obtain(&config(), &quiet, particles, Some(&mut slot), true);
        front.trees[0].particles[0].pos = paratreet_geometry::Vec3::splat(1e3);
        ThreadedEngine::new(config(), 2, 1, &OpenAll).run_obtained(
            &config(),
            front,
            TraversalKind::TopDown,
            std::time::Instant::now(),
        );
    }
}
