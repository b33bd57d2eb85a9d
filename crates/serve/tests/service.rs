//! End-to-end service tests: live writer + reader pool + load
//! generator, deterministic overload shedding, pinned-epoch replay,
//! and the `Framework` snapshot-hook publication path.

use paratreet_core::{Configuration, TreeMaintainer};
use paratreet_geometry::Vec3;
use paratreet_particles::{gen, Particle};
use paratreet_serve::{
    execute_batch, run_load, AdmissionPolicy, LoadConfig, Query, QueryService, Request,
    ServeConfig, ServeError, SnapshotRing, WriterConfig,
};
use paratreet_tree::{CountData, QueryScratch};
use rand::{SeedableRng, StdRng};
use std::sync::Arc;

fn config() -> Configuration {
    let mut config =
        Configuration { n_subtrees: 6, n_partitions: 4, bucket_size: 16, ..Default::default() };
    config.incremental.enabled = true;
    config
}

/// Deterministic small drift: id-hashed direction, fixed magnitude.
fn drift(particles: &mut [Particle], iteration: u64) {
    for p in particles.iter_mut() {
        let h = p.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ iteration;
        p.pos.x += ((h & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.y += ((h >> 8 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.z += ((h >> 16 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
    }
}

#[test]
fn live_service_answers_everything_under_defer() {
    let cfg = config();
    let particles = gen::clustered(3000, 3, 17, 1.0, 1.0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
    let universe = maintainer.universe();

    let mut service: QueryService<CountData> = QueryService::new(ServeConfig {
        workers: 3,
        queue_capacity: 64,
        ring_capacity: 8,
        admission: AdmissionPolicy::Defer,
    });
    service.spawn_writer(
        maintainer,
        seed_trees,
        Box::new(drift),
        WriterConfig { iterations: 40, pace: None },
    );

    let load = LoadConfig {
        clients: 120,
        queries_per_client: 25,
        threads: 4,
        batch: 16,
        k: 6,
        seed: 9,
        ..LoadConfig::default()
    };
    let report = run_load(&service, universe, &load);
    let expected = (load.clients * load.queries_per_client) as u64;
    assert_eq!(report.submitted, expected, "defer admission accepts everything");
    assert_eq!(report.completed, expected, "every accepted query is answered");
    assert_eq!(report.shed, 0);
    assert_eq!(report.per_class.iter().sum::<u64>(), expected);
    assert!(
        report.per_class.iter().all(|&n| n > 0),
        "mix hits every class: {:?}",
        report.per_class
    );

    let shutdown = service.shutdown();
    assert!(shutdown.is_clean(), "clean run joins cleanly: {shutdown:?}");
    let last = shutdown.last_epoch.expect("writer ran");
    assert!(last >= 1, "writer advanced at least once");
    let m = service.metrics();
    assert_eq!(m.get_u64("serve.queries.completed"), expected);
    assert_eq!(m.get_u64("serve.queries.shed"), 0);
    assert!(m.get_u64("serve.batches") > 0);
    assert!(m.get_u64("serve.snapshots.published") >= 2);
    // Latency summaries exist and are ordered for every class that saw
    // traffic.
    for class in ["knn", "ball", "range", "ray"] {
        let p50 = m.get_u64(&format!("serve.latency.{class}.p50"));
        let p99 = m.get_u64(&format!("serve.latency.{class}.p99"));
        let p999 = m.get_u64(&format!("serve.latency.{class}.p999"));
        assert!(p50 > 0, "{class} p50");
        assert!(p50 <= p99 && p99 <= p999, "{class} percentiles ordered");
    }
}

#[test]
fn shed_policy_rejects_deterministically_when_nothing_drains() {
    // Zero workers: the queue can only fill, so the first
    // `queue_capacity` batches are accepted and every later one must
    // come back Overloaded — no timing involved.
    let cfg = config();
    let particles = gen::uniform_cube(500, 3, 1.0, 1.0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
    let universe = maintainer.universe();

    let service: QueryService<CountData> = QueryService::new(ServeConfig {
        workers: 0,
        queue_capacity: 4,
        ring_capacity: 4,
        admission: AdmissionPolicy::Shed,
    });
    service.publish(seed_trees, universe);

    let mk = |i: u32| vec![Request::new(i, 0, Query::Knn { pos: universe.center(), k: 4 })];
    for i in 0..4 {
        assert!(service.submit(mk(i), None).is_ok(), "batch {i} fits");
    }
    for i in 4..10 {
        match service.submit(mk(i), None) {
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert_eq!(capacity, 4);
                assert_eq!(depth, 4);
            }
            other => panic!("batch {i}: expected Overloaded, got {other:?}"),
        }
    }
    let m = service.metrics();
    assert_eq!(m.get_u64("serve.queries.submitted"), 4);
    assert_eq!(m.get_u64("serve.queries.shed"), 6);
}

#[test]
fn submit_before_first_snapshot_is_not_ready() {
    let service: QueryService<CountData> =
        QueryService::new(ServeConfig { workers: 0, ..ServeConfig::default() });
    let req = vec![Request::new(0, 0, Query::Knn { pos: Vec3::ZERO, k: 1 })];
    assert_eq!(service.submit(req, None), Err(ServeError::NotReady));
}

/// Pinned-epoch replay: the same seeded request stream executed twice
/// against independently rebuilt (same-seed) snapshots is
/// bit-identical — across maintainers, services, and runs.
#[test]
fn pinned_epoch_replay_is_bit_identical_across_runs() {
    let run = || {
        let cfg = config();
        let particles = gen::clustered(2000, 3, 23, 1.0, 1.0);
        let (mut maintainer, seed_trees) =
            TreeMaintainer::<CountData>::seed(&cfg, particles, false);
        let universe = maintainer.universe();
        let ring: Arc<SnapshotRing<CountData>> = SnapshotRing::new(4);
        ring.publish(seed_trees, universe);
        // Advance a few epochs so the pin is on a maintained tree, not
        // the fresh seed.
        let mut master: Vec<Particle> = {
            let pin = ring.pin().unwrap();
            pin.trees.iter().flat_map(|t| t.particles.iter().copied()).collect()
        };
        for iteration in 1..=3u64 {
            drift(&mut master, iteration);
            let (trees, _) = maintainer.advance(std::mem::take(&mut master));
            master = trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
            ring.publish(trees, maintainer.universe());
        }
        let pin = ring.pin().unwrap();
        assert_eq!(pin.epoch(), 3);
        let requests: Vec<Request> = (0..200)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(77 + i);
                Request::new(
                    i as u32,
                    0,
                    paratreet_serve::load::random_query(&mut rng, &universe, 5, &[1, 1, 1, 1]),
                )
            })
            .collect();
        let responses = execute_batch(&pin, &requests, &mut QueryScratch::default());
        responses
            .iter()
            .map(|r| (r.client, r.result.as_ref().expect("pure execution").checksum()))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same snapshot, same bits");
}

/// Satellite: the metrics schema is stable — every
/// `serve.latency.<class>` key (total, stage components, p999 exemplar)
/// is exported even for classes that received no traffic.
#[test]
fn metrics_schema_is_stable_with_zero_traffic() {
    let service: QueryService<CountData> =
        QueryService::new(ServeConfig { workers: 0, ..ServeConfig::default() });
    let m = service.metrics();
    for class in ["knn", "ball", "range", "ray"] {
        for stat in ["count", "mean", "p50", "p99", "p999", "max"] {
            assert!(
                m.contains(&format!("serve.latency.{class}.{stat}")),
                "missing serve.latency.{class}.{stat}"
            );
            for component in ["queue_wait", "pin_wait", "exec"] {
                assert!(
                    m.contains(&format!("serve.latency.{class}.{component}.{stat}")),
                    "missing serve.latency.{class}.{component}.{stat}"
                );
            }
        }
        for field in ["value", "request", "span"] {
            assert!(
                m.contains(&format!("serve.latency.{class}.p999_exemplar.{field}")),
                "missing serve.latency.{class}.p999_exemplar.{field}"
            );
        }
        assert_eq!(m.get_u64(&format!("serve.latency.{class}.count")), 0);
        // ISSUE 9 per-class overload counters and cost estimates.
        assert!(m.contains(&format!("serve.latency.{class}.deadline_exceeded")));
    }
    // ISSUE 9 global overload / supervision keys are always exported,
    // zero or not, so dashboards and `--check` comparisons never miss.
    for key in [
        "serve.queries.completed_in_deadline",
        "serve.shed.depth",
        "serve.deadline_exceeded",
        "serve.worker.panics",
    ] {
        assert!(m.contains(key), "missing {key}");
    }
}

/// Tentpole acceptance: with tracing attached, a p999 exemplar read off
/// the metrics resolves to a complete queued→admitted→pinned→executed→
/// responded span chain for a real request, and the stage component
/// histograms cover every completed query.
#[test]
fn traced_requests_leave_complete_span_chains() {
    use paratreet_telemetry::Telemetry;

    let cfg = config();
    let particles = gen::clustered(2000, 3, 21, 1.0, 1.0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&cfg, particles, false);
    let universe = maintainer.universe();

    let telemetry = Telemetry::wall(4);
    let mut service: QueryService<CountData> = QueryService::with_telemetry(
        ServeConfig { workers: 2, ..ServeConfig::default() },
        telemetry.clone(),
    );
    service.publish(seed_trees, universe);

    let load = LoadConfig {
        clients: 30,
        queries_per_client: 10,
        threads: 2,
        batch: 8,
        k: 4,
        seed: 5,
        ..LoadConfig::default()
    };
    let report = run_load(&service, universe, &load);
    assert_eq!(report.completed, 300);
    service.shutdown();

    let m = service.metrics();
    let trace = telemetry.drain();

    // Every completed query recorded a total and all three components.
    let mut totals = 0u64;
    for class in ["knn", "ball", "range", "ray"] {
        let count = m.get_u64(&format!("serve.latency.{class}.count"));
        totals += count;
        for component in ["queue_wait", "pin_wait", "exec"] {
            assert_eq!(
                m.get_u64(&format!("serve.latency.{class}.{component}.count")),
                count,
                "{class}.{component} covers every query"
            );
        }
    }
    assert_eq!(totals, 300);

    // Pick a class with traffic and resolve its p999 exemplar.
    let class = ["knn", "ball", "range", "ray"]
        .into_iter()
        .find(|c| m.get_u64(&format!("serve.latency.{c}.count")) > 0)
        .unwrap();
    let rid = m.get_u64(&format!("serve.latency.{class}.p999_exemplar.request"));
    let sid = m.get_u64(&format!("serve.latency.{class}.p999_exemplar.span"));
    assert!(sid > 0, "exemplar carries the root span id");

    let root = trace
        .spans
        .iter()
        .find(|s| s.link.id == Some(sid))
        .expect("exemplar span id resolves in the trace");
    assert_eq!(root.name, "request");
    assert_eq!(root.link.request, Some(rid));

    let children: Vec<&str> =
        trace.spans.iter().filter(|s| s.link.parent == Some(sid)).map(|s| s.name).collect();
    for stage in ["queued", "admitted", "pinned", "executed", "responded"] {
        assert!(children.contains(&stage), "chain missing {stage}: {children:?}");
    }
    // Stage spans nest inside the root (small slack for clock reads).
    for s in trace.spans.iter().filter(|s| s.link.parent == Some(sid)) {
        assert!(s.start_us + 1.0 >= root.start_us, "{} starts before root", s.name);
        assert!(
            s.start_us + s.dur_us <= root.start_us + root.dur_us + 1.0,
            "{} ends after root",
            s.name
        );
        assert_eq!(s.link.request, Some(rid));
    }
    // Every request left a chain, not just the exemplar.
    let roots = trace.spans.iter().filter(|s| s.name == "request").count();
    assert_eq!(roots, 300);
}
