//! Seeded load generation: thousands of simulated clients
//! multiplexed over a few driver threads, issuing a mixed query stream
//! against a [`QueryService`](crate::service::QueryService).
//!
//! Every client's query stream is a pure function of
//! `(seed, client id)`, so two runs against the *same pinned snapshot*
//! produce bit-identical result checksums — the replay property — while
//! runs against a live writer legitimately differ only in which epoch
//! answered each query.
//!
//! Overload is *measured*, never fatal: a refused submit is charged
//! to the report as shed, and error *responses* (deadline expiry in
//! queue, a panicked worker) are tallied per kind in the [`LoadReport`].

use crate::request::{Query, QueryClass, Request, Response};
use crate::service::QueryService;
use crate::ServeError;
use paratreet_geometry::{BoundingBox, Vec3};
use paratreet_tree::Data;
use rand::{Rng, SeedableRng, StdRng};
use std::time::Duration;

/// Folds one response into the order-independent run checksum: the XOR
/// over responses of a per-response mix of client, sequence number, and
/// result checksum. Epochs are deliberately excluded — they vary under
/// a live writer; the *results per request* are what replays compare.
/// Error responses contribute 0.
fn checksum_fold(resp: &Response) -> u64 {
    let Ok(result) = &resp.result else { return 0 };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [resp.client as u64, resp.seq as u64, result.checksum()] {
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Traffic shape for one load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Simulated clients.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// OS threads driving the clients.
    pub threads: usize,
    /// Queries per submitted batch.
    pub batch: usize,
    /// Neighbour count for kNN queries.
    pub k: usize,
    /// Stream seed: same seed, same query streams.
    pub seed: u64,
    /// Relative class weights, [`QueryClass::ALL`] order
    /// (knn, ball, range, ray).
    pub mix: [u32; 4],
    /// Per-request completion deadline (`None` = no deadlines).
    pub deadline: Option<Duration>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 1000,
            queries_per_client: 100,
            threads: 8,
            batch: 32,
            k: 8,
            seed: 42,
            mix: [4, 3, 2, 1],
            deadline: None,
        }
    }
}

/// What a load run did.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// Queries accepted by the service.
    pub submitted: u64,
    /// Queries answered with an `Ok` result.
    pub completed: u64,
    /// Queries in refused submits (shed, not ready, shutting down).
    pub shed: u64,
    /// Queries answered `Err(DeadlineExceeded)` — expired in queue.
    pub deadline_exceeded: u64,
    /// Queries answered with any other structured error (e.g.
    /// `WorkerPanicked`).
    pub failed: u64,
    /// Queries generated per class ([`QueryClass::ALL`] order).
    pub per_class: [u64; 4],
    /// Wall seconds from first submit to last response.
    pub elapsed_s: f64,
    /// Completed queries per second.
    pub throughput: f64,
    /// Lowest snapshot epoch observed in an `Ok` response.
    pub min_epoch: u64,
    /// Highest snapshot epoch observed in an `Ok` response.
    pub max_epoch: u64,
    /// Order-independent XOR of `Ok` response checksums (see
    /// `checksum_fold`).
    pub checksum: u64,
}

/// One seeded random query with anchors inside `universe`.
pub fn random_query(rng: &mut StdRng, universe: &BoundingBox, k: usize, mix: &[u32; 4]) -> Query {
    let size = universe.size();
    let extent = size.x.max(size.y).max(size.z).max(1e-9);
    let point = |rng: &mut StdRng| {
        Vec3::new(
            universe.lo.x + rng.random_range(0.0..1.0) * size.x.max(1e-9),
            universe.lo.y + rng.random_range(0.0..1.0) * size.y.max(1e-9),
            universe.lo.z + rng.random_range(0.0..1.0) * size.z.max(1e-9),
        )
    };
    let total: u32 = mix.iter().sum::<u32>().max(1);
    let mut pick = rng.random_range(0..total);
    let mut class = QueryClass::Knn;
    for c in QueryClass::ALL {
        let w = mix[c.index()];
        if pick < w {
            class = c;
            break;
        }
        pick -= w;
    }
    match class {
        QueryClass::Knn => Query::Knn { pos: point(rng), k },
        QueryClass::Ball => {
            Query::Ball { center: point(rng), radius: extent * rng.random_range(0.02..0.1) }
        }
        QueryClass::Range => Query::Range {
            bbox: BoundingBox::cube(point(rng), extent * rng.random_range(0.02..0.08)),
        },
        QueryClass::Ray => {
            let origin = point(rng);
            let through = point(rng);
            Query::Ray { origin, dir: through - origin, radius: extent * 0.02, t_max: extent * 4.0 }
        }
    }
}

/// Drives `config.clients` simulated clients against `service` and
/// blocks until every accepted query is answered. Refused submits are
/// charged to the report — overload experiments measure behaviour
/// instead of crashing the load generator.
pub fn run_load<D: Data>(
    service: &QueryService<D>,
    universe: BoundingBox,
    config: &LoadConfig,
) -> LoadReport {
    let threads = config.threads.clamp(1, config.clients.max(1));
    let t0 = std::time::Instant::now();
    let mut report = LoadReport { min_epoch: u64::MAX, ..LoadReport::default() };

    let partials: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|ti| {
                let config = *config;
                scope.spawn(move || drive_clients(service, &universe, &config, ti, threads))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load driver panicked")).collect()
    });

    for p in partials {
        report.submitted += p.submitted;
        report.completed += p.completed;
        report.shed += p.shed;
        report.deadline_exceeded += p.deadline_exceeded;
        report.failed += p.failed;
        for i in 0..4 {
            report.per_class[i] += p.per_class[i];
        }
        report.min_epoch = report.min_epoch.min(p.min_epoch);
        report.max_epoch = report.max_epoch.max(p.max_epoch);
        report.checksum ^= p.checksum;
    }
    if report.completed == 0 {
        report.min_epoch = 0;
    }
    report.elapsed_s = t0.elapsed().as_secs_f64();
    report.throughput =
        if report.elapsed_s > 0.0 { report.completed as f64 / report.elapsed_s } else { 0.0 };
    report
}

/// One driver thread: its share of the clients, one reply channel.
fn drive_clients<D: Data>(
    service: &QueryService<D>,
    universe: &BoundingBox,
    config: &LoadConfig,
    thread_index: usize,
    threads: usize,
) -> LoadReport {
    let (tx, rx) = crossbeam::channel::unbounded::<Vec<Response>>();
    let mut report = LoadReport { min_epoch: u64::MAX, ..LoadReport::default() };
    let mut accepted_batches = 0u64;
    let mut received_batches = 0u64;
    let batch_len = config.batch.max(1);

    let absorb = |report: &mut LoadReport, responses: Vec<Response>| {
        for resp in &responses {
            match &resp.result {
                Ok(_) => {
                    report.completed += 1;
                    report.min_epoch = report.min_epoch.min(resp.epoch);
                    report.max_epoch = report.max_epoch.max(resp.epoch);
                    report.checksum ^= checksum_fold(resp);
                }
                Err(ServeError::DeadlineExceeded { .. }) => report.deadline_exceeded += 1,
                Err(_) => report.failed += 1,
            }
        }
    };

    let mut submit = |report: &mut LoadReport, batch: Vec<Request>| {
        let n = batch.len() as u64;
        match service.submit(batch, Some(tx.clone())) {
            Ok(()) => {
                report.submitted += n;
                accepted_batches += 1;
            }
            Err(_) => report.shed += n,
        }
    };

    let mut client = thread_index;
    while client < config.clients {
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut pending: Vec<Request> = Vec::with_capacity(batch_len);
        for seq in 0..config.queries_per_client {
            let query = random_query(&mut rng, universe, config.k, &config.mix);
            report.per_class[query.class().index()] += 1;
            let request = match config.deadline {
                Some(d) => Request::with_deadline(client as u32, seq as u32, query, d),
                None => Request::new(client as u32, seq as u32, query),
            };
            pending.push(request);
            if pending.len() == batch_len {
                submit(&mut report, std::mem::take(&mut pending));
                // Keep memory bounded: absorb whatever already came back.
                while let Ok(responses) = rx.try_recv() {
                    received_batches += 1;
                    absorb(&mut report, responses);
                }
            }
        }
        if !pending.is_empty() {
            submit(&mut report, pending);
        }
        client += threads;
    }

    // Every accepted batch eventually answers exactly once.
    while received_batches < accepted_batches {
        let responses = rx.recv().expect("service dropped a reply channel");
        received_batches += 1;
        absorb(&mut report, responses);
    }
    report
}
