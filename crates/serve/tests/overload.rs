//! Overload tests: deadline expiry in queue, same-seed overload replay,
//! `Defer` with no worker to drain the queue, and a writer kill that
//! must leave the service answering from the ring. (A panicking batch
//! is tested in `service.rs`, behind a test-only seam.)

use paratreet_core::{Configuration, TreeMaintainer};
use paratreet_particles::{gen, Particle};
use paratreet_serve::{
    run_load, AdmissionPolicy, JoinOutcome, LoadConfig, Query, QueryService, Request, Response,
    ServeConfig, ServeError, WriterConfig,
};
use paratreet_tree::CountData;
use std::collections::BTreeMap;
use std::time::Duration;

fn config() -> Configuration {
    let mut config =
        Configuration { n_subtrees: 6, n_partitions: 4, bucket_size: 16, ..Default::default() };
    config.incremental.enabled = true;
    config
}

/// Deterministic small drift, same shape as the service tests.
fn drift(particles: &mut [Particle], iteration: u64) {
    for p in particles.iter_mut() {
        let h = p.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ iteration;
        p.pos.x += ((h & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.y += ((h >> 8 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.z += ((h >> 16 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
    }
}

/// A request whose deadline passed while it sat in the queue is
/// answered with a structured `DeadlineExceeded`, never executed; live
/// requests in the same batch still get full answers.
#[test]
fn expired_in_queue_requests_get_structured_errors() {
    let cfg = config();
    let particles = gen::uniform_cube(500, 3, 1.0, 1.0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
    let universe = maintainer.universe();
    let mut service: QueryService<CountData> = QueryService::new(ServeConfig {
        workers: 1,
        admission: AdmissionPolicy::Defer,
        ..ServeConfig::default()
    });
    service.publish(seed_trees, universe);

    let query = Query::Knn { pos: universe.center(), k: 4 };
    let batch = vec![
        // Already expired at submission: the pop-time check must catch it.
        Request::with_deadline(0, 0, query, Duration::ZERO),
        Request::with_deadline(0, 1, query, Duration::from_secs(60)),
    ];
    let (tx, rx) = crossbeam::channel::unbounded::<Vec<Response>>();
    service.submit(batch, Some(tx)).unwrap();
    let responses = rx.recv().expect("batch answered");
    assert_eq!(responses.len(), 2);
    let by_seq: BTreeMap<u32, &Response> = responses.iter().map(|r| (r.seq, r)).collect();
    match &by_seq[&0].result {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expired request: expected DeadlineExceeded, got {other:?}"),
    }
    assert!(by_seq[&1].result.is_ok(), "live request in the same batch still answered");

    let report = service.shutdown();
    assert!(report.is_clean(), "{report:?}");
    let m = service.metrics();
    assert_eq!(m.get_u64("serve.deadline_exceeded"), 1);
    assert_eq!(m.get_u64("serve.latency.knn.deadline_exceeded"), 1);
    assert_eq!(m.get_u64("serve.queries.completed"), 1);
}

/// Sustained overload replays deterministically: two same-seed
/// all-expired-deadline runs report identical deadline counts.
#[test]
fn same_seed_overload_runs_report_identical_counts() {
    // Every request expires in queue (zero deadline) — answered, but as
    // structured deadline errors.
    let deadline_run = || {
        let cfg = config();
        let particles = gen::uniform_cube(400, 11, 1.0, 1.0);
        let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
        let universe = maintainer.universe();
        let mut service: QueryService<CountData> = QueryService::new(ServeConfig {
            workers: 1,
            admission: AdmissionPolicy::Defer,
            ..ServeConfig::default()
        });
        service.publish(seed_trees, universe);
        let load = LoadConfig {
            clients: 60,
            queries_per_client: 10,
            threads: 3,
            batch: 8,
            k: 4,
            seed: 31,
            deadline: Some(Duration::ZERO),
            ..LoadConfig::default()
        };
        let r = run_load(&service, universe, &load);
        service.shutdown();
        (r.submitted, r.completed, r.deadline_exceeded, r.checksum)
    };
    let b = deadline_run();
    assert_eq!(b, (600, 0, 600, 0), "every query expired in queue");
    assert_eq!(b, deadline_run(), "same seed, same deadline counts");
}

/// `Defer` with no worker to drain the queue sheds at capacity instead
/// of blocking the submitter forever.
#[test]
fn defer_with_no_workers_refuses_instead_of_hanging() {
    let cfg = config();
    let particles = gen::uniform_cube(500, 3, 1.0, 1.0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
    let universe = maintainer.universe();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let service: QueryService<CountData> = QueryService::new(ServeConfig {
            workers: 0,
            queue_capacity: 4,
            admission: AdmissionPolicy::Defer,
            ..ServeConfig::default()
        });
        service.publish(seed_trees, universe);
        let outcomes: Vec<Result<(), ServeError>> = (0..10u32)
            .map(|i| {
                let batch = vec![Request::new(i, 0, Query::Knn { pos: universe.center(), k: 4 })];
                service.submit(batch, None)
            })
            .collect();
        let _ = done_tx.send(outcomes);
    });
    let outcomes =
        done_rx.recv_timeout(Duration::from_secs(5)).expect("every submit answered within 5 s");
    assert!(outcomes[..4].iter().all(Result::is_ok), "{outcomes:?}");
    for outcome in &outcomes[4..] {
        assert_eq!(*outcome, Err(ServeError::Overloaded { depth: 4, capacity: 4 }));
    }
}

/// The writer dies mid-run. Readers keep answering from the last
/// published snapshot, and shutdown surfaces the panic as data.
#[test]
fn writer_kill_enters_stale_serving_and_readers_keep_answering() {
    let cfg = config();
    let particles = gen::clustered(1500, 3, 29, 1.0, 1.0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
    let universe = maintainer.universe();
    let mut service: QueryService<CountData> = QueryService::new(ServeConfig {
        workers: 1,
        admission: AdmissionPolicy::Defer,
        ..ServeConfig::default()
    });
    service.spawn_writer(
        maintainer,
        seed_trees,
        Box::new(|particles: &mut [Particle], iteration: u64| {
            if iteration == 2 {
                panic!("writer killed at iteration 2");
            }
            drift(particles, iteration);
        }),
        WriterConfig { iterations: u64::MAX, pace: None },
    );

    // Wait (bounded) for the writer's death.
    let t0 = std::time::Instant::now();
    while service.writer_running() {
        assert!(t0.elapsed() < Duration::from_secs(20), "writer never died");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.current_epoch(), Some(1), "epoch 2 was never published");

    // Readers still answer from the last snapshot.
    let (tx, rx) = crossbeam::channel::unbounded::<Vec<Response>>();
    let batch = vec![Request::new(0, 0, Query::Knn { pos: universe.center(), k: 4 })];
    service.submit(batch, Some(tx)).unwrap();
    let responses = rx.recv().expect("a dead writer leaves readers answering");
    assert!(responses[0].result.is_ok());
    assert_eq!(responses[0].epoch, 1);

    let report = service.shutdown();
    assert_eq!(report.writer, JoinOutcome::Panicked);
    assert_eq!(report.last_epoch, Some(1));
    assert_eq!(report.workers.panicked, 0, "workers were untouched");
}
