//! Telemetry on the discrete-event engine: the trace is stamped in
//! virtual time, so the same workload and seed must yield a
//! byte-identical Chrome trace — and that trace must validate against
//! the trace-event schema with one track per simulated worker.

use paratreet_core::{
    CacheModel, Configuration, DistributedEngine, IterationReport, SpatialNodeView, TargetBucket,
    TargetSpan, TraversalKind, Visitor, DES_FLIGHT_SERIES,
};
use paratreet_particles::gen;
use paratreet_runtime::MachineSpec;
use paratreet_telemetry::{
    chrome_trace_json, validate_chrome_trace, FlightRecorder, Telemetry, Trace,
};
use paratreet_tree::CountData;

/// Minimal mass-count visitor: descends until buckets, so multi-rank
/// runs generate genuine remote fetches and fills.
struct CountVisitor;

impl Visitor for CountVisitor {
    type Data = CountData;
    type State = u64;
    type Prepared = ();
    type PerTarget = ();
    fn prepare(&self, _: &SpatialNodeView<'_, CountData>) {}
    fn open(&self, s: &SpatialNodeView<'_, CountData>, _: &(), _t: &TargetBucket<u64>) -> bool {
        s.n_particles > 8
    }
    fn node(&self, s: &SpatialNodeView<'_, CountData>, _: &(), t: &mut TargetSpan<'_, u64>) {
        t.buckets().for_each(|(_, t)| t.state += s.data.count);
    }
    fn leaf(&self, s: &SpatialNodeView<'_, CountData>, _: &(), t: &mut TargetSpan<'_, u64>) {
        t.buckets().for_each(|(_, t)| t.state += s.particles.len() as u64 * s.data.count);
    }
}

const RANKS: usize = 3;
const WORKERS: usize = 2;

fn run_traced() -> (IterationReport, Trace) {
    let particles = gen::uniform_cube(3_000, 42, 1.0, 1.0);
    let visitor = CountVisitor;
    let machine = MachineSpec::test(RANKS, WORKERS);
    let engine = DistributedEngine::new(
        machine,
        Configuration { bucket_size: 8, ..Default::default() },
        CacheModel::WaitFree,
        TraversalKind::TopDown,
        &visitor,
    )
    .with_telemetry(Telemetry::virtual_time(1));
    let telemetry = engine.telemetry.clone();
    let rep = engine.run_iteration(particles);
    (rep, telemetry.drain())
}

fn run_flight() -> String {
    let particles = gen::uniform_cube(3_000, 42, 1.0, 1.0);
    let visitor = CountVisitor;
    let machine = MachineSpec::test(RANKS, WORKERS);
    let engine = DistributedEngine::new(
        machine,
        Configuration { bucket_size: 8, ..Default::default() },
        CacheModel::WaitFree,
        TraversalKind::TopDown,
        &visitor,
    )
    .with_flight_recorder(FlightRecorder::virtual_time(DES_FLIGHT_SERIES, 64));
    let flight = engine.flight.clone();
    engine.run_iteration(particles);
    flight.snapshot().to_json().to_string()
}

#[test]
fn same_seed_yields_byte_identical_trace() {
    let (rep_a, trace_a) = run_traced();
    let (rep_b, trace_b) = run_traced();
    let json_a = chrome_trace_json(&trace_a);
    let json_b = chrome_trace_json(&trace_b);
    assert!(!trace_a.spans.is_empty(), "the engine must record spans");
    assert_eq!(json_a, json_b, "virtual-time traces must be byte-identical across runs");
    assert_eq!(rep_a.makespan, rep_b.makespan);
    assert_eq!(rep_a.metrics, rep_b.metrics);
}

#[test]
fn trace_validates_and_covers_every_worker() {
    let (rep, trace) = run_traced();
    let json = chrome_trace_json(&trace);
    let n_events = validate_chrome_trace(&json).expect("schema-valid Chrome trace");
    assert!(n_events > 0);

    // One track per simulated worker: the traversal phase keeps every
    // worker of every rank busy, so all RANKS × WORKERS tracks appear.
    let tracks = trace.tracks();
    for rank in 0..RANKS as u32 {
        for worker in 0..WORKERS as u32 {
            assert!(
                tracks.iter().any(|t| t.rank == rank && t.worker == worker),
                "missing track for rank {rank} worker {worker}"
            );
        }
    }

    // Spans cover the whole pipeline, labelled with the phase names.
    for name in ["decomposition", "tree build", "local traversal", "cache insertion"] {
        assert!(trace.spans.iter().any(|s| s.name == name), "no {name} span");
    }
    // Cache fetch spans carry the requested key.
    assert!(trace.spans.iter().any(|s| s.name == "cache request" && s.key.is_some()));

    // The registry agrees with the report's named fields.
    assert_eq!(rep.metrics.get_u64("cache.requests_sent"), rep.cache.requests_sent);
    assert_eq!(rep.metrics.get_u64("comm.messages"), rep.comm.messages);
    assert_eq!(rep.metrics.get_f64("time.makespan_s"), rep.makespan);
    assert!(rep.metrics.get_u64("counts.nodes_visited") > 0);
    assert!(rep.cache.requests_sent > 0, "multi-rank run must fetch remotely");
}

#[test]
fn same_seed_yields_byte_identical_flight_series() {
    let a = run_flight();
    let b = run_flight();
    assert_eq!(a, b, "virtual-time flight series must be byte-identical across runs");
    assert!(a.contains("\"clock\":\"virtual\""), "series is stamped in virtual time: {a}");
    // Two phase-boundary rows: stage 0 at traversal start, stage 1 at
    // the makespan, each with the full DES_FLIGHT_SERIES width.
    let rows = a.matches('[').count();
    assert!(rows >= 3, "expected at least two sample rows in {a}");
    assert!(a.contains("\"busy_frac\""), "series names the sampled columns: {a}");
}
