//! `serve_mixed`: reads beside writes on the same arenas.
//!
//! A `QueryService` (1 worker, `Defer` admission, ring 8) over a
//! maintained forest. **Closed loop, 1 client thread, 1 outstanding
//! batch** of 32 mixed queries, so a batch's latency is service time
//! plus dispatch, not a load generator's backlog. Beside it a
//! harness-owned writer thread drifts the particles, advances the
//! `TreeMaintainer` and publishes the result on a **fixed schedule, one
//! epoch due every 25 ms**, so a cheaper publish shortens the writer's
//! epochs without changing how often the reader is disturbed.

use super::{clustered, measure_setup, report_process, timed_loop_with, Opts, Outcome};
use crate::schedule::{FixedRate, Tick};
use crate::stats::{median, percentile, sorted};
use crate::trace::{SpanLog, MAIN, WRITER};
use crossbeam::channel::{unbounded, Receiver, Sender};
use paratreet_core::{Configuration, TreeMaintainer};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_serve::load::random_query;
use paratreet_serve::{
    execute_batch, AdmissionPolicy, Query, QueryResult, QueryService, Request, Response,
    ServeConfig,
};
use paratreet_tree::query::{ball_query_with, knn_query_with, range_query_with, raycast_with};
use paratreet_tree::{BuildNode, BuiltTree, CountData, QueryScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

pub const N_FULL: usize = 50_000;
const BATCH: usize = 32;
const K: usize = 8;
/// kNN : ball : range : ray.
const MIX: [u32; 4] = [4, 3, 2, 1];
const EPOCH_PERIOD: Duration = Duration::from_millis(25);
/// Batches checked against a linear scan before the writer starts.
const CHECKED_BATCHES: usize = 8;
/// Batches of the `execute_batch` probe, and direct calls per kernel.
const PROBE_BATCHES: usize = 2_000;
const PROBE_CALLS: usize = 10_000;

fn config() -> Configuration {
    let mut config =
        Configuration { bucket_size: 16, n_subtrees: 16, n_partitions: 32, ..Default::default() };
    config.incremental.enabled = true;
    config
}

fn flatten(trees: &[BuiltTree<CountData>]) -> Vec<Particle> {
    trees.iter().flat_map(|t| t.particles.iter().copied()).collect()
}

/// `bench_serve`'s motion model: an id-hashed direction, 2e-3 per
/// epoch — every advance patches buckets, nothing leaves the universe.
fn drift(particles: &mut [Particle], epoch: u64) {
    for p in particles.iter_mut() {
        let h = p.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch;
        p.pos.x += ((h & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.y += ((h >> 8 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.z += ((h >> 16 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
    }
}

/// The seeded query stream, cut into batches.
struct Stream {
    rng: StdRng,
    universe: BoundingBox,
    mix: [u32; 4],
    next_seq: u32,
}

impl Stream {
    fn new(seed: u64, universe: BoundingBox, mix: [u32; 4]) -> Stream {
        Stream { rng: StdRng::seed_from_u64(seed), universe, mix, next_seq: 0 }
    }

    fn query(&mut self) -> Query {
        random_query(&mut self.rng, &self.universe, K, &self.mix)
    }

    fn batch(&mut self) -> Vec<Request> {
        (0..BATCH)
            .map(|_| {
                self.next_seq += 1;
                Request::new(0, self.next_seq, self.query())
            })
            .collect()
    }
}

/// What the one client holds: the service and its reply channel.
struct Client<'s> {
    service: &'s QueryService<CountData>,
    tx: Sender<Vec<Response>>,
    rx: Receiver<Vec<Response>>,
}

impl Client<'_> {
    /// Submits one batch and waits for its answers; `None` when the
    /// service refused it or hung up.
    fn call(&self, batch: Vec<Request>) -> Option<Vec<Response>> {
        self.service.submit(batch, Some(self.tx.clone())).ok()?;
        self.rx.recv().ok()
    }
}

/// The answer a linear scan of `particles` gives to `query`, in the
/// shape `same_answer` compares: ids in the kernels' result order.
fn linear_scan(particles: &[Particle], query: &Query) -> Vec<u64> {
    let by_distance = |mut found: Vec<(f64, u64)>| {
        found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        found
    };
    match *query {
        Query::Knn { pos, k } => {
            let all = by_distance(particles.iter().map(|p| (p.pos.dist_sq(pos), p.id)).collect());
            all.into_iter().take(k).map(|(_, id)| id).collect()
        }
        Query::Ball { center, radius } => {
            let inside = particles
                .iter()
                .map(|p| (p.pos.dist_sq(center), p.id))
                .filter(|(d2, _)| *d2 <= radius * radius)
                .collect();
            by_distance(inside).into_iter().map(|(_, id)| id).collect()
        }
        Query::Range { bbox, .. } => {
            let mut ids: Vec<u64> =
                particles.iter().filter(|p| bbox.contains(p.pos)).map(|p| p.id).collect();
            ids.sort_unstable();
            ids
        }
        Query::Ray { origin, dir, radius, t_max } => {
            let dir = dir.normalized();
            let mut best: Option<(f64, u64)> = None;
            for p in particles {
                let t = (p.pos - origin).dot(dir).clamp(0.0, t_max);
                if (origin + dir * t).dist_sq(p.pos) <= radius * radius
                    && best.is_none_or(|(bt, bid)| t < bt || (t == bt && p.id < bid))
                {
                    best = Some((t, p.id));
                }
            }
            best.into_iter().map(|(_, id)| id).collect()
        }
    }
}

fn answer_ids(result: &QueryResult) -> Vec<u64> {
    match result {
        QueryResult::Neighbors(found) => found.iter().map(|n| n.id).collect(),
        QueryResult::Ids(ids) => ids.clone(),
        QueryResult::Hit(hit) => hit.iter().map(|h| h.id).collect(),
    }
}

/// What the writer thread hands back when it is stopped.
struct WriterLog {
    /// Per epoch: when `advance` started, when it ended (and `publish`
    /// started), when `publish` ended.
    epochs: Vec<[Instant; 3]>,
    late: u64,
}

fn run_writer(
    service: &QueryService<CountData>,
    mut maintainer: TreeMaintainer<CountData>,
    mut master: Vec<Particle>,
    stop: &AtomicBool,
) -> WriterLog {
    let mut schedule = FixedRate::new(Instant::now() + EPOCH_PERIOD, EPOCH_PERIOD);
    let mut epochs = Vec::new();
    while !stop.load(SeqCst) {
        if let Tick::Wait(wait) = schedule.poll(Instant::now()) {
            std::thread::sleep(wait.min(Duration::from_millis(5))); // stay responsive to `stop`
            continue;
        }
        drift(&mut master, u64::from(schedule.issued()));
        let t0 = Instant::now();
        let (trees, _) = maintainer.advance(std::mem::take(&mut master));
        let t1 = Instant::now();
        master = flatten(&trees);
        let t2 = Instant::now();
        service.publish(trees, maintainer.universe());
        let t3 = Instant::now();
        // The copy back into `master` is the harness's, not the
        // system's: close the gap it leaves between the two spans.
        epochs.push([t0, t1, t1 + (t3 - t2)]);
    }
    WriterLog { epochs, late: schedule.late() }
}

/// What set-up hands on: the service with the seed snapshot published,
/// and everything the writer needs to carry on from it.
struct Ready {
    service: QueryService<CountData>,
    maintainer: TreeMaintainer<CountData>,
    master: Vec<Particle>,
    publish_bytes: usize,
    gen_s: f64,
}

fn set_up(n: usize, seed: u64) -> Ready {
    let t0 = Instant::now();
    let particles = clustered(n, seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let (maintainer, trees) = TreeMaintainer::<CountData>::seed(&config(), particles, true);
    let service = QueryService::new(ServeConfig {
        workers: 1,
        ring_capacity: 8,
        admission: AdmissionPolicy::Defer,
        ..ServeConfig::default()
    });
    let master = flatten(&trees);
    // Computed from the arena sizes: what one publish hands over.
    let publish_bytes = trees
        .iter()
        .map(|t| {
            t.nodes.len() * size_of::<BuildNode<CountData>>()
                + t.particles.len() * size_of::<Particle>()
        })
        .sum();
    service.publish(trees, maintainer.universe());
    Ready { service, maintainer, master, publish_bytes, gen_s }
}

pub fn run(opts: &Opts, log: &mut SpanLog) -> Outcome {
    let n = opts.scaled(N_FULL);
    let mut out = Outcome::new(opts);
    out.note("particles", n as f64);
    out.note("batch", BATCH as f64);
    out.note("epoch_period_ms", EPOCH_PERIOD.as_secs_f64() * 1e3);

    let (ready, setup_s) = measure_setup(opts, || set_up(n, opts.seed));
    let Ready { mut service, maintainer, master, publish_bytes, gen_s } = ready;
    let universe = maintainer.universe();
    let (tx, rx) = unbounded();
    let client = Client { service: &service, tx, rx };

    // Before any write: sampled queries through the service must match
    // a linear scan of the particles.
    let mut stream = Stream::new(opts.seed ^ 0x5A17_AB1E, universe, MIX);
    let mut mismatches = 0;
    for _ in 0..CHECKED_BATCHES {
        let batch = stream.batch();
        let queries: Vec<(u32, Query)> = batch.iter().map(|r| (r.seq, r.query)).collect();
        let answers = client.call(batch).unwrap_or_default();
        for (seq, query) in &queries {
            let got = answers.iter().find(|a| a.seq == *seq).and_then(|a| a.result.as_ref().ok());
            if got.map(answer_ids) != Some(linear_scan(&master, query)) {
                mismatches += 1;
            }
        }
    }
    out.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} sampled queries differ from a linear scan",
            CHECKED_BATCHES * BATCH
        )
    });

    // The traced pass times the same batches with no service in between,
    // and each kernel alone, on the seed snapshot.
    let execute_us =
        if opts.traced { kernel_probes(&mut out, opts, &service, universe) } else { 0.0 };

    let mut stream = Stream::new(opts.seed, universe, MIX);
    let (mut ok, mut errors, mut refused) = (0u64, 0u64, 0u64);
    let stop = AtomicBool::new(false);
    let (timed, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| run_writer(&service, maintainer, master, &stop));
        let timed = timed_loop_with(
            opts,
            opts.min_ops(10_000),
            || stream.batch(),
            |_, traced, batch| {
                let start = Instant::now();
                match client.call(batch) {
                    Some(answers) => {
                        let good = answers.iter().filter(|a| a.result.is_ok()).count() as u64;
                        ok += good;
                        errors += BATCH as u64 - good;
                    }
                    None => refused += BATCH as u64,
                }
                if traced {
                    log.record(MAIN, "serve.service.batch", start, Instant::now(), None);
                }
            },
        );
        stop.store(true, SeqCst);
        (timed, writer.join().expect("the writer thread panicked"))
    });
    report_process(&mut out, setup_s, gen_s * 1e3, &timed);

    let epoch_s: Vec<f64> = writer.epochs.iter().map(|e| (e[2] - e[0]).as_secs_f64()).collect();
    let n_epochs = epoch_s.len().max(1) as f64;
    out.note("epochs", epoch_s.len() as f64);
    out.note("late_epochs", writer.late as f64);
    out.attempted += ok + errors + refused;
    out.fail(errors, "a query was answered with an error".to_string());
    out.fail(refused, "a query was refused at submit".to_string());
    out.check(!epoch_s.is_empty(), || "the writer published no epoch".to_string());

    // End to end: the writer's epoch is this workload's step, the
    // reader's answered queries its items.
    out.set("step_s_p50", median(&epoch_s));
    out.set("items_per_s", ok as f64 / timed.wall_s);
    out.set("cpu_s_per_step", timed.cpu_s / n_epochs);

    if opts.traced {
        let latency_us = sorted(&timed.ops.iter().map(|(_, s)| s * 1e6).collect::<Vec<_>>());
        let p50 = percentile(&latency_us, 50.0);
        out.set("serve.service.batch_latency_p50_us", p50);
        out.set("serve.service.batch_latency_p99_us", percentile(&latency_us, 99.0));
        out.set("serve.service.batch_latency_p999_us", percentile(&latency_us, 99.9));
        out.set("serve.service.dispatch_us_p50", p50 - execute_us);
        out.set("serve.service.errors", (errors + refused) as f64);

        let advance_s: Vec<f64> =
            writer.epochs.iter().map(|e| (e[1] - e[0]).as_secs_f64()).collect();
        let publish_s: Vec<f64> =
            writer.epochs.iter().map(|e| (e[2] - e[1]).as_secs_f64()).collect();
        out.set("core.maintain.advance_ms_p50", median(&advance_s) * 1e3);
        out.set("serve.snapshot.publish_ms_p50", median(&publish_s) * 1e3);
        out.set("serve.snapshot.publish_bytes", publish_bytes as f64);
        out.set("serve.load.late_epochs", writer.late as f64);
        let ring = service.ring().stats();
        out.set("serve.snapshot.epochs_published", ring.published as f64);
        out.set("serve.snapshot.pin_retries", ring.pin_retries as f64);
        out.set("serve.snapshot.writer_stalls", ring.writer_stalls as f64);

        let spans = writer
            .epochs
            .iter()
            .flat_map(|e| {
                [("core.maintain.advance", e[0], e[1]), ("serve.snapshot.publish", e[1], e[2])]
            })
            .collect();
        log.absorb(WRITER, spans);
    }
    service.shutdown();
    out
}

/// Probes on the seed snapshot, before any write: the timed loop's
/// first batches through `execute_batch` on a pinned snapshot (no
/// queue, no wake-up, no reply), and each `tree::query` kernel alone.
/// Returns the median µs of one `execute_batch`.
fn kernel_probes(
    out: &mut Outcome,
    opts: &Opts,
    service: &QueryService<CountData>,
    universe: BoundingBox,
) -> f64 {
    let pin = service.pin().expect("the seed snapshot is published");
    let mut scratch = QueryScratch::default();

    let mut stream = Stream::new(opts.seed, universe, MIX);
    let execute_us: Vec<f64> = (0..opts.scaled(PROBE_BATCHES))
        .map(|_| {
            let batch = stream.batch();
            let t0 = Instant::now();
            black_box(execute_batch(&pin, &batch, &mut scratch));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let execute_us = median(&execute_us);
    out.set("serve.request.execute_batch_us_p50", execute_us);

    let calls = opts.scaled(PROBE_CALLS);
    let trees = &pin.trees;
    for (class, name) in
        ["tree.query.knn_ns", "tree.query.ball_ns", "tree.query.range_ns", "tree.query.ray_ns"]
            .into_iter()
            .enumerate()
    {
        let mut only = [0; 4];
        only[class] = 1;
        let mut stream = Stream::new(opts.seed, universe, only);
        let queries: Vec<Query> = (0..calls).map(|_| stream.query()).collect();
        let t0 = Instant::now();
        for query in &queries {
            match *query {
                Query::Knn { pos, k } => {
                    black_box(knn_query_with(trees, pos, k, &mut scratch));
                }
                Query::Ball { center, radius } => {
                    black_box(ball_query_with(trees, center, radius, &mut scratch));
                }
                Query::Range { bbox, .. } => {
                    black_box(range_query_with(trees, &bbox, &mut scratch));
                }
                Query::Ray { origin, dir, radius, t_max } => {
                    black_box(raycast_with(trees, origin, dir, radius, t_max, &mut scratch));
                }
            }
        }
        out.set(name, t0.elapsed().as_secs_f64() / calls as f64 * 1e9);
    }
    execute_us
}
