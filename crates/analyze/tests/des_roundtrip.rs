//! End-to-end: run the discrete-event engine with telemetry and a
//! flight recorder, feed the artifacts through the analyzer, and check
//! that (a) the analysis passes the CI invariants and reproduces the
//! Fig. 9 views, and (b) two same-seed runs analyze to byte-identical
//! JSON — the determinism story carried all the way to the report.

use paratreet_analyze::{analyze, critical_path, parse_trace, utilization};
use paratreet_core::{
    CacheModel, Configuration, DistributedEngine, SpatialNodeView, TargetBucket, TargetSpan,
    TraversalKind, Visitor, DES_FLIGHT_SERIES,
};
use paratreet_particles::gen;
use paratreet_runtime::MachineSpec;
use paratreet_telemetry::{chrome_trace_json, json, FlightRecorder, Telemetry};
use paratreet_tree::CountData;

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

const RANKS: usize = 2;
const WORKERS: usize = 2;

/// Runs one DES iteration and returns (chrome trace json, metrics
/// json, flight series json).
fn record_artifacts() -> (String, String, String) {
    let particles = gen::uniform_cube(2_000, 11, 1.0, 1.0);
    let visitor = CountVisitor;
    let engine = DistributedEngine::new(
        MachineSpec::test(RANKS, WORKERS),
        Configuration { bucket_size: 8, ..Default::default() },
        CacheModel::WaitFree,
        TraversalKind::TopDown,
        &visitor,
    )
    .with_telemetry(Telemetry::virtual_time(1))
    .with_flight_recorder(FlightRecorder::virtual_time(DES_FLIGHT_SERIES, 64));
    let telemetry = engine.telemetry.clone();
    let flight = engine.flight.clone();
    let report = engine.run_iteration(particles);
    (
        chrome_trace_json(&telemetry.drain()),
        format!("{}", report.metrics.to_json()),
        flight.snapshot().to_json().to_string(),
    )
}

fn analysis_json(artifacts: &(String, String, String)) -> String {
    let trace = parse_trace(&artifacts.0).expect("engine trace parses");
    let metrics = json::parse(&artifacts.1).expect("metrics parse");
    let series = json::parse(&artifacts.2).expect("series parse");
    let analysis = analyze(Some(trace), Some(&metrics), Some(&series), 16).expect("analyze");
    analysis.check().expect("DES artifacts pass the CI invariants");
    format!("{}\n", analysis.to_json())
}

#[test]
fn des_artifacts_analyze_deterministically() {
    let a = record_artifacts();
    let b = record_artifacts();
    let ja = analysis_json(&a);
    let jb = analysis_json(&b);
    assert_eq!(ja, jb, "same-seed DES runs must analyze to byte-identical JSON");
    // The report carries each of the headline views.
    for section in ["\"utilization\"", "\"critical_path\"", "\"grains\"", "\"timeseries\""] {
        assert!(ja.contains(section), "missing {section} in {ja}");
    }
}

#[test]
fn des_critical_path_and_profile_are_nontrivial() {
    let artifacts = record_artifacts();
    let trace = parse_trace(&artifacts.0).unwrap();

    // Utilization: every simulated worker track gets a busy row — the
    // Fig. 9 analog has one lane per worker per rank.
    let util = utilization(&trace, 16);
    assert_eq!(util.tracks.len(), RANKS * WORKERS);
    for tp in &util.tracks {
        assert!(tp.busy_us > 0.0, "rank {} worker {} never busy", tp.rank, tp.worker);
        assert!(tp.busy_frac <= 1.0 + 1e-9);
        assert_eq!(tp.bins.len(), 16);
    }

    // Critical path: reaches back from the makespan through the phase
    // pipeline; traversal dominates, and the path covers most of the
    // extent (gaps only where the sim genuinely waited).
    let cp = critical_path(&trace);
    assert!(cp.steps.len() > 2, "path should chain through phases: {:?}", cp.by_name);
    assert!(cp.work_us > 0.0);
    let names: Vec<&str> = cp.by_name.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        names.iter().any(|n| n.contains("traversal")),
        "critical path misses traversal: {names:?}"
    );
    let (t0, t1) = trace.extent_us().unwrap();
    assert!(cp.extent_us > 0.5 * (t1 - t0), "path spans the bulk of the iteration");
}
