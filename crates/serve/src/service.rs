//! The query service: a single writer advancing the live tree, a
//! reader pool answering query batches against pinned snapshots.
//!
//! Wiring:
//!
//! ```text
//!  clients --submit--> BoundedQueue --pop--> worker pool (catch_unwind per batch)
//!     |         |          |                    |  pin()
//!     |  Overloaded        +- blocks (Defer)  SnapshotRing <--publish-- writer
//!     +<---- (Shed)
//! ```
//!
//! Latency is measured from `Request::submitted_at` to completion, so
//! queue wait is charged to the service — the histograms' p99/p999 are
//! end-to-end numbers.
//!
//! What a request can meet on the way:
//!
//! 1. **Admission** ([`QueryService::submit`]): `Shed` refuses a batch
//!    with [`ServeError::Overloaded`] when the queue is full; `Defer`
//!    blocks the submitter until space frees — unless no worker exists
//!    to free it, in which case it sheds too.
//! 2. **Queue** — deadline-aware at pop time: a worker drops requests
//!    whose deadline already passed, answering
//!    [`ServeError::DeadlineExceeded`] instead of executing uselessly.
//! 3. **Execution** — the batch runs under `catch_unwind`; a panic
//!    answers it with [`ServeError::WorkerPanicked`] and the same
//!    worker carries on with fresh scratch, so every reply channel a
//!    client waits on still gets its answer. A panicked writer needs no
//!    code: readers keep answering from the ring, and
//!    [`QueryService::shutdown`] reports the panic.

use crate::error::ServeError;
use crate::health::{JoinOutcome, ShutdownReport, WorkerJoinStats};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{execute_batch_observed, ExecObserver, QueryClass, Request, Response};
use crate::snapshot::{PinnedSnapshot, SnapshotRing};
use crossbeam::channel::Sender;
use paratreet_core::TreeMaintainer;
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, Histogram, MetricsRegistry, SpanLink, Telemetry, Track};
use paratreet_tree::{BuiltTree, Data, QueryScratch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What happens when work arrives at submission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject the batch with [`ServeError::Overloaded`] when the queue
    /// is full (load shedding).
    Shed,
    /// Block the submitter until space frees (backpressure). With zero
    /// workers nothing would ever free it, so the batch sheds instead.
    Defer,
}

/// Service sizing and policy.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Reader (worker) threads. Zero is allowed — nothing drains the
    /// queue, which the tests use to exercise shedding
    /// deterministically.
    pub workers: usize,
    /// Work queue capacity, in batches.
    pub queue_capacity: usize,
    /// Snapshot ring capacity — the snapshot-lag budget granted to the
    /// slowest reader before the writer stalls.
    pub ring_capacity: usize,
    /// Admission behaviour.
    pub admission: AdmissionPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            ring_capacity: 8,
            admission: AdmissionPolicy::Shed,
        }
    }
}

/// How a spawned writer paces tree advances.
#[derive(Clone, Copy, Debug)]
pub struct WriterConfig {
    /// Advances to run before the writer retires (the service keeps
    /// answering against the last snapshot afterwards).
    pub iterations: u64,
    /// Optional sleep between advances (throttles publication churn).
    pub pace: Option<Duration>,
}

/// The writer's motion model: integrates `particles` between advances
/// (`iteration` counts from 1).
pub type MotionModel = Box<dyn FnMut(&mut [Particle], u64) + Send>;

/// One queued unit of work: a batch of requests and where to send the
/// answers. `reply: None` is fire-and-forget (metrics only).
struct WorkItem {
    requests: Vec<Request>,
    reply: Option<Sender<Vec<Response>>>,
    /// When the batch entered [`QueryService::submit`] — the boundary
    /// between client-side batch formation and queue wait.
    submitted_to_queue: Instant,
}

/// The per-class latency histograms: the end-to-end total plus its
/// stage components, all nanoseconds. `total` keeps exemplars so
/// `serve.latency.<class>.p999` links to a concrete traced request.
struct LatencySet {
    /// Submit → accounted.
    total: Histogram,
    /// Submit → popped by a worker (batch formation + queue wait;
    /// under [`AdmissionPolicy::Defer`] this includes the backpressure
    /// block).
    queue_wait: Histogram,
    /// Popped → snapshot pinned (snapshot contention).
    pin_wait: Histogram,
    /// Pinned → batch executed (service time, whole batch).
    exec: Histogram,
    /// Requests of this class dropped for deadline expiry in queue.
    deadline_exceeded: AtomicU64,
}

impl LatencySet {
    fn new() -> LatencySet {
        LatencySet {
            total: Histogram::with_exemplars(),
            queue_wait: Histogram::new(),
            pin_wait: Histogram::new(),
            exec: Histogram::new(),
            deadline_exceeded: AtomicU64::new(0),
        }
    }
}

/// Sentinel for "no writer epoch recorded yet".
const NO_WRITER_EPOCH: u64 = u64::MAX;

/// State shared by submitters, workers, and the writer.
struct Shared<D: Data> {
    ring: Arc<SnapshotRing<D>>,
    queue: BoundedQueue<WorkItem>,
    /// Per-class latency (indexed by [`QueryClass::index`]).
    latency: [LatencySet; 4],
    /// Request tracing sink: disabled by default, attached via
    /// [`QueryService::with_telemetry`]. When enabled, workers emit a
    /// linked span chain (request → admitted/queued/pinned/executed/
    /// responded) for every request.
    telemetry: Telemetry,
    submitted: AtomicU64,
    completed: AtomicU64,
    /// Completed with the deadline still unexpired (deadline-free
    /// requests count; this over submitted is the bench's in-deadline
    /// fraction).
    completed_in_deadline: AtomicU64,
    /// Queries refused at admission (the queue was at capacity).
    shed: AtomicU64,
    /// Requests dropped at pop time for deadline expiry.
    deadline_exceeded: AtomicU64,
    batches: AtomicU64,
    /// Batches whose execution panicked (each answered
    /// [`ServeError::WorkerPanicked`]).
    worker_panics: AtomicU64,
    /// Last epoch the writer published ([`NO_WRITER_EPOCH`] = none).
    writer_last_epoch: AtomicU64,
    /// Test seam: the 1-based pop-order number of the batch whose
    /// execution panics (0 = none), and the pop counter it is read
    /// against.
    #[cfg(test)]
    panic_at_batch: AtomicU64,
    #[cfg(test)]
    batches_popped: AtomicU64,
}

/// The concurrent spatial query service. Owns the worker pool and
/// (optionally) the writer thread; dropping it shuts everything down.
pub struct QueryService<D: Data> {
    shared: Arc<Shared<D>>,
    admission: AdmissionPolicy,
    workers: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    stop_writer: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    stop_sampler: Arc<AtomicBool>,
}

/// The columns [`QueryService::spawn_flight_sampler`] records, in row
/// order. `qps` is the completed-query rate over the last interval.
pub const FLIGHT_SERIES: &[&str] = &[
    "queue_depth",
    "qps",
    "completed",
    "shed",
    "epochs_published",
    "pin_retries",
    "writer_stalls",
    "deadline_exceeded",
];

impl<D: Data> QueryService<D> {
    /// Starts the worker pool. No snapshot exists yet: publish one (or
    /// spawn a writer) before submitting.
    pub fn new(config: ServeConfig) -> QueryService<D> {
        QueryService::with_telemetry(config, Telemetry::disabled())
    }

    /// [`QueryService::new`] with request tracing attached: when
    /// `telemetry` is enabled, every completed request leaves a causal
    /// span chain (root `request` span + admitted/queued/pinned/
    /// executed/responded children) on its worker's track, and latency
    /// exemplars carry the root span id.
    pub fn with_telemetry(config: ServeConfig, telemetry: Telemetry) -> QueryService<D> {
        let shared = Arc::new(Shared {
            ring: SnapshotRing::new(config.ring_capacity),
            queue: BoundedQueue::new(config.queue_capacity),
            latency: [LatencySet::new(), LatencySet::new(), LatencySet::new(), LatencySet::new()],
            telemetry,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            completed_in_deadline: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            writer_last_epoch: AtomicU64::new(NO_WRITER_EPOCH),
            #[cfg(test)]
            panic_at_batch: AtomicU64::new(0),
            #[cfg(test)]
            batches_popped: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        QueryService {
            shared,
            admission: config.admission,
            workers,
            writer: None,
            stop_writer: Arc::new(AtomicBool::new(false)),
            sampler: None,
            stop_sampler: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Spawns the flight-recorder sampler: every `interval` it pushes
    /// one [`FLIGHT_SERIES`] row into `recorder`, plus a final row at
    /// shutdown. No-op wiring when the recorder is disabled — the
    /// thread still runs but samples vanish.
    ///
    /// # Panics
    /// If a sampler was already spawned.
    pub fn spawn_flight_sampler(&mut self, recorder: FlightRecorder, interval: Duration) {
        assert!(self.sampler.is_none(), "flight sampler already spawned");
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop_sampler);
        self.sampler = Some(std::thread::spawn(move || {
            let mut last = Instant::now();
            let mut last_completed = shared.completed.load(Relaxed);
            loop {
                let stopping = stop.load(Relaxed);
                let completed = shared.completed.load(Relaxed);
                let dt = last.elapsed().as_secs_f64();
                let qps = if dt > 0.0 { (completed - last_completed) as f64 / dt } else { 0.0 };
                last = Instant::now();
                last_completed = completed;
                let ring = shared.ring.stats();
                recorder.sample(&[
                    shared.queue.len() as f64,
                    qps,
                    completed as f64,
                    shared.shed.load(Relaxed) as f64,
                    ring.published as f64,
                    ring.pin_retries as f64,
                    ring.writer_stalls as f64,
                    shared.deadline_exceeded.load(Relaxed) as f64,
                ]);
                if stopping {
                    return;
                }
                std::thread::sleep(interval);
            }
        }));
    }

    /// The snapshot ring (for direct pinning, e.g. replay audits).
    pub fn ring(&self) -> &Arc<SnapshotRing<D>> {
        &self.shared.ring
    }

    /// Publishes a snapshot directly (no writer thread); returns its
    /// epoch. This is also how an embedding simulation feeds the
    /// service the trees its own `TreeMaintainer` advances.
    pub fn publish(&self, trees: Vec<BuiltTree<D>>, universe: BoundingBox) -> u64 {
        self.shared.ring.publish(trees, universe)
    }

    /// The epoch queries are currently answered against.
    pub fn current_epoch(&self) -> Option<u64> {
        self.shared.ring.head_epoch()
    }

    /// Pins the current snapshot (replay audits, ad-hoc queries).
    pub fn pin(&self) -> Option<PinnedSnapshot<D>> {
        self.shared.ring.pin()
    }

    /// Submits a batch. Answers arrive on `reply` (or nowhere, for
    /// fire-and-forget). Fails fast with [`ServeError::NotReady`]
    /// before the first snapshot, [`ServeError::Overloaded`] when the
    /// queue is full under `Shed` (or under `Defer` with no worker to
    /// drain it), and [`ServeError::ShuttingDown`] after shutdown.
    pub fn submit(
        &self,
        requests: Vec<Request>,
        reply: Option<Sender<Vec<Response>>>,
    ) -> Result<(), ServeError> {
        if self.shared.ring.head_epoch().is_none() {
            return Err(ServeError::NotReady);
        }
        let n = requests.len() as u64;
        let item = WorkItem { requests, reply, submitted_to_queue: Instant::now() };
        let outcome = match self.admission {
            AdmissionPolicy::Defer if !self.workers.is_empty() => self.shared.queue.push_wait(item),
            _ => self.shared.queue.try_push(item),
        };
        match outcome {
            Ok(()) => {
                self.shared.submitted.fetch_add(n, Relaxed);
                Ok(())
            }
            Err(PushError::Full(_)) => {
                self.shared.shed.fetch_add(n, Relaxed);
                Err(ServeError::Overloaded {
                    depth: self.shared.queue.len(),
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Spawns the single writer: seeds a master particle array from
    /// `seed_trees`, publishes them as the first snapshot, then runs
    /// `config.iterations` advances — `motion(particles, iteration)`
    /// integrates between advances — publishing each result. A writer
    /// that panics leaves readers answering from the ring; its panic
    /// comes back as [`JoinOutcome::Panicked`] in the
    /// [`ShutdownReport`], beside its final epoch. Returns immediately.
    ///
    /// # Panics
    /// If a writer was already spawned.
    pub fn spawn_writer(
        &mut self,
        mut maintainer: TreeMaintainer<D>,
        seed_trees: Vec<BuiltTree<D>>,
        mut motion: MotionModel,
        config: WriterConfig,
    ) {
        assert!(self.writer.is_none(), "writer already spawned");
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop_writer);
        // Publish the seed synchronously so `submit` is ready the
        // moment this returns.
        let mut master: Vec<Particle> =
            seed_trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
        let seed_epoch = shared.ring.publish(seed_trees, maintainer.universe());
        shared.writer_last_epoch.store(seed_epoch, Relaxed);
        self.writer = Some(std::thread::spawn(move || {
            for iteration in 1..=config.iterations {
                if stop.load(Relaxed) {
                    break;
                }
                motion(&mut master, iteration);
                let (trees, _round) = maintainer.advance(std::mem::take(&mut master));
                master = trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
                let epoch = shared.ring.publish(trees, maintainer.universe());
                shared.writer_last_epoch.store(epoch, Relaxed);
                if let Some(pace) = config.pace {
                    std::thread::sleep(pace);
                }
            }
        }));
    }

    /// True while the writer thread is still advancing.
    pub fn writer_running(&self) -> bool {
        self.writer.as_ref().is_some_and(|w| !w.is_finished())
    }

    /// Current service metrics under `serve.*` names: queue and
    /// snapshot counters, failure counters (`serve.deadline_exceeded`,
    /// `serve.shed.depth`, `serve.worker.panics`), and per-class
    /// latency summaries
    /// (`serve.latency.<class>.{count,mean,p50,p99,p999,max}`, ns) with
    /// their stage components
    /// (`serve.latency.<class>.{queue_wait,pin_wait,exec}.*`), p999
    /// exemplars, and per-class deadline counters
    /// (`serve.latency.<class>.deadline_exceeded`). Every
    /// key is present on every run — classes with no traffic export
    /// zero-count snapshots, so the schema is stable for downstream
    /// tooling.
    pub fn metrics(&self) -> MetricsRegistry {
        let s = &self.shared;
        let mut m = MetricsRegistry::new();
        m.set_u64("serve.queries.submitted", s.submitted.load(Relaxed));
        m.set_u64("serve.queries.completed", s.completed.load(Relaxed));
        m.set_u64("serve.queries.completed_in_deadline", s.completed_in_deadline.load(Relaxed));
        m.set_u64("serve.queries.shed", s.shed.load(Relaxed));
        m.set_u64("serve.shed.depth", s.shed.load(Relaxed));
        m.set_u64("serve.deadline_exceeded", s.deadline_exceeded.load(Relaxed));
        m.set_u64("serve.worker.panics", s.worker_panics.load(Relaxed));
        m.set_u64("serve.batches", s.batches.load(Relaxed));
        m.set_u64("serve.queue.depth", s.queue.len() as u64);
        m.set_u64("serve.queue.capacity", s.queue.capacity() as u64);
        m.set_u64("serve.epoch", s.ring.head_epoch().unwrap_or(0));
        m.absorb("serve.snapshots", &s.ring.stats());
        for class in QueryClass::ALL {
            let lat = &s.latency[class.index()];
            let prefix = format!("serve.latency.{}", class.label());
            m.absorb(&prefix, &lat.total.snapshot());
            m.absorb(&format!("{prefix}.queue_wait"), &lat.queue_wait.snapshot());
            m.absorb(&format!("{prefix}.pin_wait"), &lat.pin_wait.snapshot());
            m.absorb(&format!("{prefix}.exec"), &lat.exec.snapshot());
            m.set_u64(format!("{prefix}.deadline_exceeded"), lat.deadline_exceeded.load(Relaxed));
        }
        m
    }

    /// Stops the writer (if any), drains and closes the queue, and
    /// joins every thread — returning how each one ended as a
    /// [`ShutdownReport`] instead of aborting on a late panic.
    /// Idempotent (a second call reports `NotSpawned` everywhere);
    /// also runs on drop.
    pub fn shutdown(&mut self) -> ShutdownReport {
        self.stop_writer.store(true, Relaxed);
        let writer = join(self.writer.take());
        self.shared.queue.close();
        let mut workers =
            WorkerJoinStats { spawned: self.workers.len(), ..WorkerJoinStats::default() };
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(()) => workers.clean += 1,
                Err(_) => workers.panicked += 1,
            }
        }
        // Stop the sampler last so its final row reflects the drained
        // end state.
        self.stop_sampler.store(true, Relaxed);
        let sampler = join(self.sampler.take());
        let last_epoch = match self.shared.writer_last_epoch.load(Relaxed) {
            NO_WRITER_EPOCH => None,
            e => Some(e),
        };
        ShutdownReport { last_epoch, writer, workers, sampler }
    }
}

/// How a thread's join ended ([`JoinOutcome::NotSpawned`] for none).
fn join(handle: Option<JoinHandle<()>>) -> JoinOutcome {
    match handle.map(JoinHandle::join) {
        None => JoinOutcome::NotSpawned,
        Some(Ok(())) => JoinOutcome::Clean,
        Some(Err(_)) => JoinOutcome::Panicked,
    }
}

impl<D: Data> Drop for QueryService<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker: pop a batch, drop expired requests, pin the freshest
/// snapshot, answer under `catch_unwind`, account. A batch that panics
/// is answered [`ServeError::WorkerPanicked`] and the worker carries on
/// with fresh scratch — a client blocked on its reply channel gets an
/// answer either way. With tracing enabled, every stage is timestamped
/// and every request leaves a linked span chain on this worker's track.
fn worker_loop<D: Data>(shared: &Shared<D>) {
    let mut scratch = QueryScratch::default();
    let tel = shared.telemetry.clone();
    let traced = tel.is_enabled();
    // Per-request `(entry subtree, exec start, exec end)` slots, filled
    // by the execution observer while tracing is on.
    let mut exec_obs: Vec<Option<(usize, Instant, Instant)>> = Vec::new();
    while let Some(item) = shared.queue.pop() {
        let popped = Instant::now();

        // Deadline check before doing any work: expired requests are
        // answered with a structured error, not executed uselessly.
        let mut live: Vec<Request> = Vec::with_capacity(item.requests.len());
        let mut expired: Vec<Response> = Vec::new();
        for req in &item.requests {
            match req.deadline {
                Some(d) if popped >= d => {
                    let late_ns = popped.saturating_duration_since(d).as_nanos() as u64;
                    shared.deadline_exceeded.fetch_add(1, Relaxed);
                    shared.latency[req.query.class().index()]
                        .deadline_exceeded
                        .fetch_add(1, Relaxed);
                    expired.push(Response {
                        client: req.client,
                        seq: req.seq,
                        epoch: 0,
                        result: Err(ServeError::DeadlineExceeded { late_ns }),
                    });
                }
                _ => live.push(*req),
            }
        }
        if live.is_empty() {
            shared.batches.fetch_add(1, Relaxed);
            if let Some(reply) = item.reply {
                let _ = reply.send(expired);
            }
            continue;
        }

        // `submit` refuses work before the first publish, so a pin is
        // always available here.
        let Some(pin) = shared.ring.pin() else { continue };
        let pinned = Instant::now();

        exec_obs.clear();
        exec_obs.resize(live.len(), None);
        let executed = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            shared.poison_point();
            let mut observe = |i: usize, subtree: usize, t0: Instant, t1: Instant| {
                exec_obs[i] = Some((subtree, t0, t1))
            };
            let observer: Option<ExecObserver<'_>> = if traced { Some(&mut observe) } else { None };
            execute_batch_observed(&pin, &live, &mut scratch, observer)
        }));
        drop(pin); // release the slot before reply/accounting

        let responses = match executed {
            Ok(responses) => responses,
            Err(_) => {
                // The batch panicked: answer every live request with a
                // structured internal error and carry on with fresh
                // scratch — the old one may have been left mid-update.
                shared.worker_panics.fetch_add(1, Relaxed);
                shared.batches.fetch_add(1, Relaxed);
                scratch = QueryScratch::default();
                let mut answers = expired;
                answers.extend(live.iter().map(|req| Response {
                    client: req.client,
                    seq: req.seq,
                    epoch: 0,
                    result: Err(ServeError::WorkerPanicked),
                }));
                if let Some(reply) = item.reply {
                    let _ = reply.send(answers);
                }
                continue;
            }
        };

        let executed_at = Instant::now();
        let now = Instant::now();
        let track = Track { rank: 0, worker: tel.thread_slot() };
        let mut in_deadline = 0u64;
        for (i, req) in live.iter().enumerate() {
            if req.deadline.is_none_or(|d| now <= d) {
                in_deadline += 1;
            }
            let total = now.saturating_duration_since(req.submitted_at);
            let queue_wait = popped.saturating_duration_since(req.submitted_at);
            let pin_wait = pinned.saturating_duration_since(popped);
            let exec = executed_at.saturating_duration_since(pinned);
            let lat = &shared.latency[req.query.class().index()];
            let rid = req.id();
            let mut root_span = 0u64;
            if traced {
                // Root span plus one child per stage, all linked by id —
                // the queued→admitted→pinned→executed→responded chain
                // `paratreet-analyze` rebuilds per request.
                root_span = tel.next_span_id();
                let submitted = tel.us_of(req.submitted_at);
                let entered = tel.us_of(item.submitted_to_queue);
                let popped_us = tel.us_of(popped);
                let pinned_us = tel.us_of(pinned);
                let executed_us = tel.us_of(executed_at);
                let now_us = tel.us_of(now);
                let root = SpanLink { id: Some(root_span), parent: None, request: Some(rid) };
                let child = |id: u64| SpanLink {
                    id: Some(id),
                    parent: Some(root_span),
                    request: Some(rid),
                };
                tel.span_linked(track, "request", submitted, now_us - submitted, None, root);
                tel.span_linked(
                    track,
                    "admitted",
                    submitted,
                    entered - submitted,
                    None,
                    child(tel.next_span_id()),
                );
                tel.span_linked(
                    track,
                    "queued",
                    entered,
                    popped_us - entered,
                    None,
                    child(tel.next_span_id()),
                );
                tel.span_linked(
                    track,
                    "pinned",
                    popped_us,
                    pinned_us - popped_us,
                    None,
                    child(tel.next_span_id()),
                );
                if let Some((subtree, t0, t1)) = exec_obs[i] {
                    tel.span_linked(
                        track,
                        "executed",
                        tel.us_of(t0),
                        tel.us_of(t1) - tel.us_of(t0),
                        Some(subtree as u64),
                        child(tel.next_span_id()),
                    );
                }
                tel.span_linked(
                    track,
                    "responded",
                    executed_us,
                    now_us - executed_us,
                    None,
                    child(tel.next_span_id()),
                );
            }
            lat.total.record_traced(total.as_nanos() as u64, rid, root_span);
            lat.queue_wait.record(queue_wait.as_nanos() as u64);
            lat.pin_wait.record(pin_wait.as_nanos() as u64);
            lat.exec.record(exec.as_nanos() as u64);
        }
        shared.batches.fetch_add(1, Relaxed);
        shared.completed.fetch_add(live.len() as u64, Relaxed);
        shared.completed_in_deadline.fetch_add(in_deadline, Relaxed);
        if let Some(reply) = item.reply {
            let mut answers = expired;
            answers.extend(responses);
            // The client may have gone away (load generator finished);
            // that is not the worker's problem.
            let _ = reply.send(answers);
        }
    }
}

#[cfg(test)]
impl<D: Data> Shared<D> {
    /// Test seam: panics inside the batch that reaches execution as
    /// number `panic_at_batch`.
    fn poison_point(&self) {
        let n = self.batches_popped.fetch_add(1, Relaxed) + 1;
        if n == self.panic_at_batch.load(Relaxed) {
            panic!("poisoned batch {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::random_query;
    use paratreet_core::Configuration;
    use paratreet_particles::gen;
    use paratreet_tree::CountData;
    use rand::{SeedableRng, StdRng};
    use std::collections::BTreeMap;

    /// 40 batches of 8 seeded queries (client = batch index, seq =
    /// position) against a fresh single-worker service whose
    /// `poison`-th batch panics (0 = none). Returns every response keyed
    /// by `(client, seq)`, and the service.
    fn run(poison: u64) -> (BTreeMap<(u32, u32), Response>, QueryService<CountData>) {
        let mut config =
            Configuration { n_subtrees: 6, n_partitions: 4, bucket_size: 16, ..Default::default() };
        config.incremental.enabled = true;
        let particles = gen::clustered(2000, 3, 21, 1.0, 1.0);
        let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&config, particles, false);
        let universe = maintainer.universe();
        let service: QueryService<CountData> = QueryService::new(ServeConfig {
            workers: 1, // single worker: batch pop order == submit order
            admission: AdmissionPolicy::Defer,
            ..ServeConfig::default()
        });
        service.shared.panic_at_batch.store(poison, Relaxed);
        service.publish(seed_trees, universe);
        let (tx, rx) = crossbeam::channel::unbounded::<Vec<Response>>();
        for b in 0..40u32 {
            let batch = (0..8u32)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(977 ^ ((b as u64) << 8 | s as u64));
                    Request::new(b, s, random_query(&mut rng, &universe, 5, &[1, 1, 1, 1]))
                })
                .collect();
            service.submit(batch, Some(tx.clone())).unwrap();
        }
        // Polled with a bound, so a worker that died with batches still
        // queued fails the test instead of hanging it.
        let (mut responses, mut answered, t0) = (BTreeMap::new(), 0, Instant::now());
        while answered < 40 {
            let Ok(batch) = rx.try_recv() else {
                assert!(t0.elapsed() < Duration::from_secs(20), "{answered}/40 batches answered");
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            answered += 1;
            for resp in batch {
                responses.insert((resp.client, resp.seq), resp);
            }
        }
        (responses, service)
    }

    /// A panicking batch is answered `WorkerPanicked`, every other
    /// answer is bit-equal to a clean same-seed run, and the one worker
    /// carried on to serve every later batch.
    #[test]
    fn worker_panic_is_answered_and_the_same_worker_carries_on() {
        let (clean, mut clean_service) = run(0);
        let (poisoned, mut service) = run(5);
        assert_eq!(poisoned.len(), 320, "every request answered despite the panic");
        for (key, resp) in &poisoned {
            if key.0 == 4 {
                // The 5th popped batch (client index 4) panicked.
                assert_eq!(resp.result, Err(ServeError::WorkerPanicked), "{key:?}");
            } else {
                let (a, b) = (resp.result.as_ref().unwrap(), clean[key].result.as_ref().unwrap());
                assert_eq!(a.checksum(), b.checksum(), "{key:?} diverged from the clean run");
            }
        }
        assert_eq!(service.metrics().get_u64("serve.worker.panics"), 1);
        let report = service.shutdown();
        let one_worker = WorkerJoinStats { spawned: 1, clean: 1, panicked: 0 };
        assert_eq!(report.workers, one_worker, "one worker served every batch");
        assert!(report.is_clean(), "{report:?}");
        assert!(clean_service.shutdown().is_clean());
    }
}
