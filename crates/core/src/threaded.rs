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
//! test of the concurrency design: its forces must match the
//! deterministic engines' bit for bit.
//!
//! Execution structure per rank:
//!
//! * a **task channel** (MPMC): `RunPartition` and `InsertFill` tasks,
//!   consumed by the rank's workers — fills go to "the currently least
//!   busy worker" by construction, since any idle worker takes them;
//! * a **message pump** thread owning the rank's inbox: `Request`s are
//!   served from the local cache (serialise + reply), `Fill`s become
//!   insert tasks;
//! * partitions are chares: a partition task runs until it finishes or
//!   reaches its first unmaterialised node. It then parks whole on that
//!   one key, the item that hit the placeholder left on top of its
//!   stack, while the rank's workers turn to its other Partitions; the
//!   fill re-enqueues it, and it [`resume`]s that item at the node the
//!   fill brought — so every bucket meets its nodes in the shared-memory
//!   engine's order.

use crate::config::{Configuration, TraversalKind};
use crate::pipeline::Iteration;
use crate::traversal::{drain, resume, seed_items, Apply, TargetsOf, WorkCounts, WorkStack};
use crate::visitor::Visitor;
use crossbeam::channel::{unbounded, Receiver, Sender};
use paratreet_cache::stats::CacheStatsSnapshot;
use paratreet_cache::{CacheTree, NodeHandle, RequestOutcome};
use paratreet_geometry::NodeKey;
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::ControlFlow;
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
}

/// A partition's entry in its rank's table: the state it parked with and
/// the one key whose fill releases it. The item that hit the key's
/// placeholder waits on top of the parked state's stack.
struct Parked<V: Visitor> {
    /// The partition state while it is parked.
    state: Option<Box<PartState<V>>>,
    /// The awaited key, from parking until the re-enqueued partition runs.
    waiting: Option<NodeKey>,
}

impl<V: Visitor> Default for Parked<V> {
    fn default() -> Self {
        Parked { state: None, waiting: None }
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
    kind: TraversalKind,
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
    /// threads.
    pub fn run_iteration(&self, particles: Vec<Particle>, kind: TraversalKind) -> ThreadedReport {
        let started = std::time::Instant::now();
        let ranks = self.n_ranks;
        // Over-decomposition floors: several Subtrees per rank, and
        // enough Partitions to keep every worker busy across stalls.
        let mut config = self.config.clone();
        config.n_subtrees = config.n_subtrees.max(ranks * 4);
        config.n_partitions = config.n_partitions.max(ranks * self.workers_per_rank * 2);
        // Built centrally; the per-Subtree builds run as one parallel region.
        let front = Iteration::obtain(&config, &self.telemetry, particles, None, true);
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

        // ---- Partition states, seeded against their home rank's cache ----
        let n_partitions = front.by_partition.len();
        let partition_rank = |pi: usize| pi * ranks / n_partitions;
        let part_states: Vec<Box<PartState<V>>> = (0..n_partitions)
            .map(|p| {
                let targets = front.targets(self.visitor, p);
                let stack = seed_items::<V>(&front.caches[partition_rank(p)], kind, &targets);
                Box::new(PartState { id: p as u32, targets, stack, counts: WorkCounts::default() })
            })
            .collect();

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
                    kind,
                })
            })
            .collect();

        // Enqueue every partition on its home rank.
        for (p, state) in part_states.into_iter().enumerate() {
            task_senders[partition_rank(p)].send(Task::RunPartition(state)).expect("rank alive");
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
                                        || run_partition(&shared, visitor, ps),
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
        let (counts, cache_stats, mut metrics) = front.finish(caches, done);
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

/// Inserts a fill and re-enqueues every partition it unblocks. A fill may
/// materialise several keys at once, and a partition waits on at most
/// one of them. A partition parks before it asks the cache, so every
/// waiter the cache names is parked.
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
    for (_, waiter) in outcome.resumed {
        let Some(state) = parked.get_mut(&(waiter as u32)).and_then(|e| e.state.take()) else {
            debug_assert!(false, "partition {waiter} was named a waiter before it parked");
            continue;
        };
        if shared.tasks.send(Task::RunPartition(state)).is_err() {
            debug_assert!(false, "workers gone while partitions still parked");
        }
    }
}

/// Parks `ps` on `key`: the table holds its state before the cache can
/// name it a waiter.
fn park<V: Visitor>(shared: &RankShared<V>, ps: Box<PartState<V>>, key: NodeKey) {
    let id = ps.id;
    shared.parked.lock().insert(id, Parked { state: Some(ps), waiting: Some(key) });
}

/// Asks the cache for the placeholder the parked partition `id` stopped
/// at. If a fill got there first, hands back the partition's whole entry
/// (its state and awaited key) to run on; otherwise `id` is now a waiter
/// on `key`, the fetch is on its way, and the fill re-enqueues it.
fn request<V: Visitor>(
    shared: &RankShared<V>,
    id: u32,
    key: NodeKey,
    placeholder: NodeHandle<V::Data>,
) -> Option<Parked<V>> {
    match shared.cache.request(shared.cache.node(placeholder), id as u64) {
        RequestOutcome::Ready(_) => return shared.parked.lock().get_mut(&id).map(std::mem::take),
        RequestOutcome::SendFetch { home_rank } => {
            let request = Msg::Request { key, reply_to: shared.rank };
            if shared.net[home_rank as usize].send(request).is_err() {
                debug_assert!(false, "home rank {home_rank} hung up early");
            }
        }
        RequestOutcome::InFlight => {}
    }
    None
}

/// Resumes the item `ps` left on top of its stack at the node now
/// standing at `key`.
fn resume_at<V: Visitor>(shared: &RankShared<V>, ps: &mut PartState<V>, key: NodeKey) {
    let node = shared.cache.find(key).expect("the skeleton holds every awaited key");
    resume::<V>(&shared.cache, shared.kind, &ps.targets, &mut ps.stack, node.handle());
}

/// What every rank's partition table holds — the explanation attached
/// to a dead thread's panic: which partition waits on which key.
fn dump_parked<V: Visitor>(shared: &[Arc<RankShared<V>>]) -> String {
    let mut out = String::new();
    for s in shared {
        let parked = s.parked.lock();
        let mut ids: Vec<&u32> = parked.keys().collect();
        ids.sort();
        for id in ids {
            if let Some(key) = &parked[id].waiting {
                out.push_str(&format!("  rank {} partition {id}: waiting on {key}\n", s.rank));
            }
        }
    }
    if out.is_empty() {
        out.push_str("  no partition parked or waiting\n");
    }
    out
}

/// Runs a partition until it finishes (returned) or parks (None). The
/// walk stops at the partition's first surrendered fetch, so nothing
/// overtakes the item that fetch belongs to; a partition a fill
/// re-enqueued resumes that item first.
fn run_partition<V: Visitor>(
    shared: &RankShared<V>,
    visitor: &V,
    mut ps: Box<PartState<V>>,
) -> Option<Box<PartState<V>>> {
    let mut waited = shared.parked.lock().get_mut(&ps.id).and_then(|e| e.waiting.take());
    loop {
        if let Some(key) = waited {
            resume_at(shared, &mut ps, key);
        }
        let mut stopped = None;
        let state = &mut *ps;
        state.counts += drain(
            &shared.cache,
            visitor,
            Apply::Runs,
            &mut state.targets,
            &mut state.stack,
            |fetch, _| {
                stopped = Some(fetch);
                ControlFlow::Break(())
            },
        );
        let Some(fetch) = stopped else { return Some(ps) };
        let (id, key, placeholder) = (ps.id, fetch.key, fetch.node);
        ps.stack.park(fetch);
        park(shared, ps, key);
        let Parked { state, waiting } = request(shared, id, key, placeholder)?;
        (ps, waited) = (state?, waiting);
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

    /// Rank 0 of two, where partition 0 (returned alongside) stopped at
    /// the placeholder of a Subtree rank 1 owns — and the fill rank 1
    /// answers with.
    struct HandOff {
        shared: RankShared<OpenAll>,
        tasks: Receiver<Task<OpenAll>>,
        net: Receiver<Msg>,
        key: NodeKey,
        placeholder: NodeHandle<CountData>,
        fill: Vec<u8>,
    }

    fn hand_off() -> (HandOff, Box<PartState<OpenAll>>) {
        let quiet = Telemetry::disabled();
        let particles = gen::uniform_cube(400, 5, 1.0, 1.0);
        let mut front = Iteration::<CountData>::obtain(&config(), &quiet, particles, None, false);
        let n = front.n_subtrees;
        let home: Vec<u32> = (0..n).map(|si| (si * 2 / n) as u32).collect();
        front.prepare(&home, 2, 1, &config(), &quiet);
        let key = front.summaries.iter().find(|s| s.home_rank == 1).expect("rank 1 owns some").key;
        let owner = front.caches.pop().expect("rank 1");
        let fill = owner.serialize_fragment(key, config().fetch_depth).expect("owner serves it");
        let (task_tx, tasks) = unbounded();
        let (net_tx, net) = unbounded();
        let shared = RankShared::<OpenAll> {
            rank: 0,
            cache: front.caches.pop().expect("rank 0"),
            tasks: task_tx,
            net: vec![net_tx.clone(), net_tx],
            parked: Mutex::new(HashMap::new()),
            remaining: Arc::new(AtomicUsize::new(1)),
            fetch_depth: config().fetch_depth,
            kind: TraversalKind::TopDown,
        };
        let placeholder = shared.cache.find(key).expect("skeleton holds every subtree root");
        assert!(placeholder.is_placeholder());
        let placeholder = placeholder.handle();
        let mut ps = Box::new(PartState::<OpenAll> {
            id: 0,
            targets: front.targets(&OpenAll, 0),
            stack: WorkStack::new(),
            counts: WorkCounts::default(),
        });
        // Buckets 0 and 1 opened the placeholder: their item waits there.
        ps.stack.push(placeholder, &[0, 1]);
        (HandOff { shared, tasks, net, key, placeholder, fill }, ps)
    }

    impl HandOff {
        /// The partition's request goes out, registering it as a waiter.
        fn request(&self) {
            assert!(request(&self.shared, 0, self.key, self.placeholder).is_none());
            let sent = self.net.try_recv();
            assert!(matches!(sent, Ok(Msg::Request { key, reply_to: 0 }) if key == self.key));
        }

        /// The partition resumes its parked item at the fill's node,
        /// with the buckets it parked with, and leaves its table entry
        /// empty.
        fn assert_resumed(&self, mut ps: Box<PartState<OpenAll>>) {
            resume_at(&self.shared, &mut ps, self.key);
            assert_eq!(ps.stack.len(), 1, "one item resumes");
            let item = ps.stack.pop().expect("one item");
            let node = self.shared.cache.node(item.node);
            assert_eq!(node.key, self.key);
            assert!(!node.is_placeholder());
            assert_eq!(ps.stack.buckets(item.buckets), [0, 1]);
            let parked = self.shared.parked.lock();
            let entry = &parked[&0];
            assert!(entry.state.is_none() && entry.waiting.is_none());
        }
    }

    /// The fill lands after the partition parked but before it asked
    /// the cache: the request finds the node materialised, the partition
    /// takes its whole entry back and runs on, no fetch goes out, and
    /// nothing is re-enqueued.
    #[test]
    fn fill_before_the_request_resumes_it_in_place() {
        let (h, ps) = hand_off();
        park(&h.shared, ps, h.key);
        handle_fill(&h.shared, &h.fill);
        assert!(h.tasks.try_recv().is_err(), "not a waiter yet: nothing to re-enqueue");
        let Some(Parked { state: Some(ps), waiting }) = request(&h.shared, 0, h.key, h.placeholder)
        else {
            panic!("ready: the partition takes its entry back")
        };
        assert_eq!(waiting, Some(h.key));
        assert!(h.net.try_recv().is_err(), "a materialised node is not fetched");
        assert!(h.tasks.try_recv().is_err(), "a running partition is not re-enqueued");
        h.assert_resumed(ps);
    }

    /// The fill lands after the partition parked: it is re-enqueued
    /// exactly once, and a duplicate fill releases nothing.
    #[test]
    fn fill_after_the_partition_parks_re_enqueues_it_once() {
        let (h, ps) = hand_off();
        park(&h.shared, ps, h.key);
        h.request();
        assert!(h.tasks.try_recv().is_err(), "nothing re-enqueued before the fill");
        handle_fill(&h.shared, &h.fill);
        handle_fill(&h.shared, &h.fill);
        let Ok(Task::RunPartition(ps)) = h.tasks.try_recv() else { panic!("not re-enqueued") };
        assert!(h.tasks.try_recv().is_err(), "re-enqueued exactly once");
        // What the re-enqueued run takes first: the key it waited on.
        let waited = h.shared.parked.lock().get_mut(&0).and_then(|e| e.waiting.take());
        assert_eq!(waited, Some(h.key));
        h.assert_resumed(ps);
    }
}
