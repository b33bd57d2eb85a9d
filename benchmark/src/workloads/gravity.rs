//! `gravity_shared` and `gravity_threaded`: Barnes-Hut gravity on the
//! shared-memory `Framework` and on `ThreadedEngine` (2 ranks × 1
//! worker), same particles, same visitor, same leapfrog.

use super::{
    clustered, measure_setup, probe_seconds, report_common, report_counts, sample_ids, timed_loop,
    Opts, Outcome,
};
use crate::stats::{median, percentile, sorted};
use crate::trace::{SpanLog, MAIN};
use paratreet_apps::gravity::{
    grav_approx, grav_exact, leapfrog_kick, leapfrog_kick_drift, CentroidData, GravityVisitor,
};
use paratreet_cache::{CacheTree, SubtreeSummary};
use paratreet_core::{
    decompose, Configuration, Framework, StepReport, ThreadedEngine, ThreadedReport, TraversalKind,
    WorkCounts,
};
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;
use paratreet_telemetry::Telemetry;
use paratreet_tree::{BuiltTree, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Particles at full size: 50 k × 152 B ≈ 7.6 MB, past the 4 MiB L2.
pub const N_FULL: usize = 50_000;
const THETA: f64 = 0.7;
const SOFTENING: f64 = 0.01;
const DT: f64 = 1.0 / 128.0;
/// Sample targets of the accuracy check.
const N_SAMPLES: usize = 256;
/// Relative acceleration error allowed against the direct sum. At this
/// commit θ = 0.7 on the clustered set measures median 0.009–0.014 and
/// 90th percentile 0.03–0.06 over the sample targets; their RMS is
/// 0.03–0.16, whatever the one or two worst targets (near a cluster
/// core, or with a near-zero net force) make it. So the gate is on the
/// two order statistics, at about 2.5× what is measured — it catches
/// wrong forces — and the traced pass reports the RMS for anyone
/// trading accuracy for speed.
const MAX_MEDIAN_ERR: f64 = 3e-2;
const MAX_P90_ERR: f64 = 1.2e-1;
/// RMS relative difference allowed between the two engines at step 0.
const MAX_ENGINE_DIFF: f64 = 1e-12;

/// The tree/decomposition settings both gravity rows and `sph_knn` use
/// (the ones the repo's other harnesses run with).
pub fn config() -> Configuration {
    Configuration { bucket_size: 16, n_subtrees: 16, n_partitions: 32, ..Default::default() }
}

fn visitor() -> GravityVisitor {
    GravityVisitor { theta: THETA, g: 1.0 }
}

fn input(n: usize, seed: u64) -> Vec<Particle> {
    let mut particles = clustered(n, seed);
    for p in &mut particles {
        p.softening = SOFTENING;
    }
    particles
}

/// Kick-drift from the last step's accelerations (not before step 0,
/// which evaluates the forces at the generated positions), then clear
/// the accumulators the traversal adds into.
fn integrate_before(particles: &mut [Particle], first: bool) {
    if !first {
        leapfrog_kick_drift(particles, DT);
    }
    for p in particles.iter_mut() {
        p.acc = Vec3::ZERO;
        p.potential = 0.0;
    }
}

/// One shared-memory step as seen from outside: when `Framework::step`
/// and, inside its closure, `Step::traverse` started and ended.
struct SharedStep {
    report: StepReport,
    framework: (Instant, Instant),
    traverse: (Instant, Instant),
}

impl SharedStep {
    fn traverse_s(&self) -> f64 {
        (self.traverse.1 - self.traverse.0).as_secs_f64()
    }

    /// `Framework::step` minus its closure: decompose, build, share.
    fn pre_traverse_s(&self) -> f64 {
        (self.framework.1 - self.framework.0).as_secs_f64() - self.traverse_s()
    }
}

/// One leapfrog step on the shared-memory engine.
fn shared_step(
    fw: &mut Framework<CentroidData>,
    visitor: &GravityVisitor,
    first: bool,
) -> SharedStep {
    integrate_before(fw.particles_mut(), first);
    let start = Instant::now();
    let (traverse, report) = fw.step(|step| {
        let start = Instant::now();
        step.traverse(visitor, TraversalKind::TopDown);
        (start, Instant::now())
    });
    let framework = (start, Instant::now());
    leapfrog_kick(fw.particles_mut(), DT);
    SharedStep { report, framework, traverse }
}

/// Seconds one whole shared-memory step takes, integration included.
fn shared_step_seconds(fw: &mut Framework<CentroidData>, visitor: &GravityVisitor) -> f64 {
    let t0 = Instant::now();
    shared_step(fw, visitor, false);
    t0.elapsed().as_secs_f64()
}

fn acc_by_id(particles: &[Particle]) -> HashMap<u64, Vec3> {
    particles.iter().map(|p| (p.id, p.acc)).collect()
}

/// Relative acceleration errors |a_tree − a_direct| / |a_direct| of the
/// sample targets, where a_direct is a `grav_exact` sum over every other
/// particle of the generated set: their RMS, median and 90th percentile.
struct AccError {
    rms: f64,
    median: f64,
    p90: f64,
}

fn acc_error(initial: &[Particle], step0: &HashMap<u64, Vec3>, seed: u64) -> AccError {
    let rel: Vec<f64> = sample_ids(initial.len(), N_SAMPLES, seed)
        .iter()
        .map(|id| {
            let target = &initial[*id as usize]; // ids are positions in the generated set
            let mut direct = Vec3::ZERO;
            for s in initial.iter().filter(|s| s.id != target.id) {
                let softening = target.softening.max(s.softening);
                direct += grav_exact(target.pos, s.pos, s.mass, softening).0;
            }
            (step0[id] - direct).norm() / direct.norm()
        })
        .collect();
    let mean_sq = rel.iter().map(|r| r * r).sum::<f64>() / rel.len() as f64;
    AccError { rms: mean_sq.sqrt(), median: median(&rel), p90: percentile(&sorted(&rel), 90.0) }
}

/// The accuracy gate both gravity rows apply after step 0.
fn check_accuracy(out: &mut Outcome, err: &AccError) {
    out.note("acc_err_median", err.median);
    out.note("acc_err_p90", err.p90);
    out.note("acc_err_rms", err.rms);
    out.check(err.median <= MAX_MEDIAN_ERR && err.p90 <= MAX_P90_ERR, || {
        format!(
            "relative acceleration error after step 0: median {:.3e} (limit {MAX_MEDIAN_ERR:e}), \
             p90 {:.3e} (limit {MAX_P90_ERR:e})",
            err.median, err.p90
        )
    });
}

/// What the traced steps of either engine record, one entry per step.
#[derive(Default)]
struct Layers {
    pre_traverse_s: Vec<f64>,
    traverse_s: Vec<f64>,
}

/// Step 0's counts at the rate of the traced steps, and what one
/// interaction then costs.
fn report_interactions(out: &mut Outcome, step0: &WorkCounts, traverse_s: f64) {
    report_counts(out, step0, traverse_s);
    let interactions = (step0.node_interactions + step0.leaf_interactions) as f64;
    out.set("apps.gravity.ns_per_interaction", traverse_s / interactions * 1e9);
}

/// ns per call of the two gravity kernels, over a fixed seeded array.
fn kernel_probes(out: &mut Outcome, opts: &Opts) {
    let side = if opts.smoke { 256 } else { 1024 }; // side² direct calls per probe
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let points: Vec<(Vec3, f64)> = (0..side)
        .map(|_| {
            let mut c = || rng.random_range(-1.0..1.0);
            (Vec3::new(c(), c(), c()), 1.0 / side as f64)
        })
        .collect();
    let quad = [0.01, 0.002, -0.001, 0.02, 0.003, 0.015];
    let calls = (side * side) as f64;

    let exact_s = probe_seconds(opts.probe_reps(), || {
        let mut acc = Vec3::ZERO;
        for (target, _) in &points {
            for (src, mass) in &points {
                acc += grav_exact(black_box(*target), *src, *mass, SOFTENING).0;
            }
        }
        black_box(acc);
    });
    let approx_s = probe_seconds(opts.probe_reps(), || {
        let mut acc = Vec3::ZERO;
        for (target, _) in &points {
            for (centroid, mass) in &points {
                acc += grav_approx(black_box(*target), *centroid, *mass, &quad).0;
            }
        }
        black_box(acc);
    });
    out.set("apps.gravity.grav_exact_ns", exact_s / calls * 1e9);
    out.set("apps.gravity.grav_approx_ns", approx_s / calls * 1e9);
}

/// `TreeBuilder::build` over every piece of a decomposition.
fn build_pieces<D: paratreet_tree::Data>(
    config: &Configuration,
    pieces: Vec<paratreet_core::SubtreePiece>,
) -> Vec<BuiltTree<D>> {
    pieces
        .into_iter()
        .map(|piece| {
            TreeBuilder {
                root_key: piece.key,
                root_depth: piece.depth,
                ..TreeBuilder::new(config.tree_type)
            }
            .bucket_size(config.bucket_size)
            .build::<D>(piece.particles, piece.bbox)
        })
        .collect()
}

/// The forest `Framework::step` would build over `particles`.
pub fn build_forest<D: paratreet_tree::Data>(
    config: &Configuration,
    particles: Vec<Particle>,
) -> Vec<BuiltTree<D>> {
    build_pieces(config, decompose(particles, config).subtrees)
}

/// Direct probes of decompose → build → cache init on `particles`,
/// generic over the tree's `Data` so `sph_knn` shares them.
pub fn build_pipeline_probes<D: paratreet_tree::Data>(
    out: &mut Outcome,
    opts: &Opts,
    config: &Configuration,
    particles: &[Particle],
) {
    let (mut decompose_s, mut build_s, mut init_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut nodes = 0;
    for _ in 0..opts.probe_reps() {
        let input = particles.to_vec();
        let t0 = Instant::now();
        let decomp = decompose(input, config);
        decompose_s.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let trees: Vec<BuiltTree<D>> = build_pieces(config, decomp.subtrees);
        build_s.push(t0.elapsed().as_secs_f64());
        nodes = trees.iter().map(|t| t.nodes.len()).sum();

        let summaries: Vec<SubtreeSummary<D>> = trees
            .iter()
            .map(|t| SubtreeSummary {
                key: t.root().key,
                bbox: t.root().bbox,
                n_particles: t.root().n_particles,
                data: t.root().data.clone(),
                home_rank: 0,
            })
            .collect();
        let cache: CacheTree<D> = CacheTree::new(0, config.tree_type.bits_per_level());
        let t0 = Instant::now();
        cache.init(&summaries, trees);
        init_s.push(t0.elapsed().as_secs_f64());
    }
    out.set("core.decomp.decompose_ms", median(&decompose_s) * 1e3);
    out.set("tree.build.build_ms", median(&build_s) * 1e3);
    out.set("tree.build.nodes", nodes as f64);
    out.set("cache.tree.init_ms", median(&init_s) * 1e3);
}

/// What set-up hands to the timed loop: the engine state after step 0,
/// step 0's report, and how long generation took.
struct Ready<S, R> {
    state: S,
    step0: R,
    gen_s: f64,
}

pub fn run_shared(opts: &Opts, log: &mut SpanLog) -> Outcome {
    let n = opts.scaled(N_FULL);
    let visitor = visitor();
    let mut out = Outcome::new(opts);
    out.note("particles", n as f64);

    let (ready, setup_s) = measure_setup(opts, || {
        let t0 = Instant::now();
        let particles = input(n, opts.seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let mut fw = Framework::new(config(), particles);
        let step0 = shared_step(&mut fw, &visitor, true).report;
        Ready { state: fw, step0, gen_s }
    });
    let Ready { state: mut fw, step0, gen_s } = ready;
    let step0_acc = acc_by_id(fw.particles());

    // The traced pass spends part of its time on the recorder probe.
    let loop_opts = Opts { seconds: opts.seconds * if opts.traced { 0.6 } else { 1.0 }, ..*opts };
    let mut layers = Layers::default();
    let timed =
        timed_loop(&loop_opts, opts.min_ops(if opts.traced { 6 } else { 10 }), |_, traced| {
            let start = Instant::now();
            let step = shared_step(&mut fw, &visitor, false);
            if traced {
                let whole = log.record(MAIN, "gravity step", start, Instant::now(), None);
                let (t0, t1) = step.framework;
                let inner = log.record(MAIN, "core.framework.step", t0, t1, Some(whole));
                let (t0, t1) = step.traverse;
                log.record(MAIN, "core.framework.traverse", t0, t1, Some(inner));
                layers.pre_traverse_s.push(step.pre_traverse_s());
                layers.traverse_s.push(step.traverse_s());
            }
        });
    report_common(&mut out, setup_s, gen_s * 1e3, &timed, n as f64);

    let initial = input(n, opts.seed);
    let err = acc_error(&initial, &step0_acc, opts.seed);
    check_accuracy(&mut out, &err);

    if opts.traced {
        let pre = median(&layers.pre_traverse_s);
        let traverse = median(&layers.traverse_s);
        out.set("core.framework.pre_traverse_ms_p50", pre * 1e3);
        out.set("core.framework.traverse_ms_p50", traverse * 1e3);
        out.set("core.framework.traverse_share", traverse / (pre + traverse));
        report_interactions(&mut out, &step0.counts, traverse);
        out.set("apps.gravity.rms_acc_err", err.rms);
        kernel_probes(&mut out, opts);
        build_pipeline_probes::<CentroidData>(&mut out, opts, &config(), &initial);
        recorder_probe(&mut out, opts, &mut fw, &visitor, opts.seconds * 0.4);
    }
    out
}

/// Steps with `Telemetry::wall` attached against steps without, taken
/// alternately on the running simulation for about `seconds`.
fn recorder_probe(
    out: &mut Outcome,
    opts: &Opts,
    fw: &mut Framework<CentroidData>,
    visitor: &GravityVisitor,
    seconds: f64,
) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while on.len() < opts.min_ops(2) || start.elapsed().as_secs_f64() < seconds {
        fw.telemetry = Telemetry::wall(4);
        on.push(shared_step_seconds(fw, visitor));
        fw.telemetry = Telemetry::disabled(); // drops the recorded spans
        off.push(shared_step_seconds(fw, visitor));
    }
    out.note("recorder_probe_pairs", on.len() as f64);
    out.set("telemetry.recorder_overhead_pct", (median(&on) / median(&off) - 1.0) * 100.0);
}

/// One leapfrog step on the threaded engine.
fn threaded_step(
    engine: &ThreadedEngine<'_, GravityVisitor>,
    particles: &mut Vec<Particle>,
    first: bool,
) -> ThreadedReport {
    integrate_before(particles, first);
    let mut report = engine.run_iteration(std::mem::take(particles), TraversalKind::TopDown);
    *particles = std::mem::take(&mut report.particles);
    leapfrog_kick(particles, DT);
    report
}

pub fn run_threaded(opts: &Opts, log: &mut SpanLog) -> Outcome {
    let n = opts.scaled(N_FULL);
    let visitor = visitor();
    let engine = ThreadedEngine::new(config(), 2, 1, &visitor);
    let mut out = Outcome::new(opts);
    out.note("particles", n as f64);
    out.note("ranks", 2.0);
    out.note("workers_per_rank", 1.0);

    let (ready, setup_s) = measure_setup(opts, || {
        let t0 = Instant::now();
        let mut particles = input(n, opts.seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let step0 = threaded_step(&engine, &mut particles, true);
        Ready { state: particles, step0, gen_s }
    });
    let Ready { state: mut particles, step0, gen_s } = ready;
    let step0_acc = acc_by_id(&particles);

    // The traced pass also steps the shared engine, for the speed-up.
    let loop_opts = Opts { seconds: opts.seconds * if opts.traced { 0.7 } else { 1.0 }, ..*opts };
    let timed = timed_loop(&loop_opts, opts.min_ops(10), |_, traced| {
        let start = Instant::now();
        threaded_step(&engine, &mut particles, false);
        if traced {
            log.record(MAIN, "gravity step", start, Instant::now(), None);
        }
    });
    report_common(&mut out, setup_s, gen_s * 1e3, &timed, n as f64);

    let initial = input(n, opts.seed);
    let err = acc_error(&initial, &step0_acc, opts.seed);
    check_accuracy(&mut out, &err);

    // The same step 0 on the shared-memory engine must give the same
    // accelerations up to summation order.
    let mut fw = Framework::new(config(), initial);
    shared_step(&mut fw, &visitor, true);
    let mut diff = 0.0;
    for p in fw.particles() {
        diff += (step0_acc[&p.id] - p.acc).norm_sq() / p.acc.norm_sq();
    }
    let diff = (diff / n as f64).sqrt();
    out.check(diff <= MAX_ENGINE_DIFF, || {
        format!("step-0 accelerations differ from gravity_shared by {diff:.3e} RMS")
    });

    if opts.traced {
        // A few more shared steps from the same start: the single-thread
        // baseline this engine is compared with.
        let shared_s: Vec<f64> = {
            let start = Instant::now();
            let mut steps = Vec::new();
            while steps.len() < opts.min_ops(3)
                || start.elapsed().as_secs_f64() < opts.seconds * 0.3
            {
                steps.push(shared_step_seconds(&mut fw, &visitor));
            }
            steps
        };
        out.note("shared_baseline_steps", shared_s.len() as f64);
        let threaded_s = median(&timed.plain());
        out.set("core.threaded.speedup_vs_shared", median(&shared_s) / threaded_s);
        out.set("core.threaded.cpu_s_per_step", timed.cpu_s / timed.ops.len() as f64);
        // Counts of step 0, so the same seed reads the same.
        out.set("core.threaded.remote_fills", step0.remote_fills as f64);
        out.set("cache.requests_sent", step0.cache.requests_sent as f64);
        out.set("cache.requests_deduped", step0.cache.requests_deduped as f64);
        out.set("cache.fills_inserted", step0.cache.fills_inserted as f64);
        out.set("cache.fills_duplicate", step0.cache.fills_duplicate as f64);
        out.set("cache.bytes_received", step0.cache.bytes_received as f64);
        out.set("cache.waiters_parked", step0.cache.waiters_parked as f64);
        // The engine is opaque from outside: its rate is over the whole
        // iteration, build included.
        report_interactions(&mut out, &step0.counts, median(&timed.traced()));
        out.set("apps.gravity.rms_acc_err", err.rms);
        kernel_probes(&mut out, opts);
    }
    out
}
