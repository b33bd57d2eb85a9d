//! `sph_knn`: `SphSimulation::step` — an up-and-down kNN traversal
//! (k = 32) plus the density and pressure passes over the neighbour
//! lists — on the clustered particle set, standing still.

use super::gravity::{build_forest, build_pipeline_probes, config};
use super::{
    clustered, measure_setup, probe_seconds, report_common, report_counts, sample_ids, timed_loop,
    Opts, Outcome,
};
use crate::stats::median;
use crate::trace::{SpanLog, MAIN};
use paratreet_apps::knn::{KnnData, KnnVisitor};
use paratreet_apps::sph::{sph_framework, SphSimulation};
use paratreet_core::{Framework, StepReport, TraversalKind};
use paratreet_particles::Particle;
use paratreet_tree::query::knn_query_with;
use paratreet_tree::QueryScratch;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

pub const N_FULL: usize = 50_000;
/// Particles whose neighbour sets are compared with a brute-force scan.
const N_SAMPLES: usize = 64;
/// Query points of the `tree::query` kNN probe at full size.
const N_QUERY_PROBE: usize = 20_000;

fn input(n: usize, seed: u64) -> Vec<Particle> {
    let mut particles = clustered(n, seed);
    for p in &mut particles {
        p.internal_energy = 1.0;
    }
    particles
}

/// A bare `Framework::step` with one `KnnVisitor` traversal: the part
/// of an SPH step that is the tree's, timed from outside.
struct BareStep {
    report: StepReport,
    framework: (Instant, Instant),
    traverse: (Instant, Instant),
    /// Neighbour ids found for each of `wanted`, ascending by id.
    neighbors: HashMap<u64, Vec<u64>>,
}

fn bare_knn_step(fw: &mut Framework<KnnData>, k: usize, wanted: &[u64]) -> BareStep {
    let visitor = KnnVisitor { k };
    let start = Instant::now();
    let ((states, ids, traverse), report) = fw.step(|step| {
        let start = Instant::now();
        let (states, _) = step.traverse(&visitor, TraversalKind::UpAndDown);
        let traverse = (start, Instant::now());
        (states, step.bucket_particle_ids(), traverse)
    });
    let framework = (start, Instant::now());
    let mut neighbors = HashMap::new();
    for (state, bucket_ids) in states.into_iter().zip(ids) {
        for (heap, id) in state.heaps.into_iter().zip(bucket_ids) {
            if wanted.binary_search(&id).is_ok() {
                let mut found: Vec<u64> = heap.into_sorted().iter().map(|n| n.id).collect();
                found.sort_unstable();
                neighbors.insert(id, found);
            }
        }
    }
    BareStep { report, framework, traverse, neighbors }
}

/// The `k` nearest other particles of `target` by linear scan: their
/// ids ascending, and the distance of the farthest.
fn brute_force_knn(particles: &[Particle], target: &Particle, k: usize) -> (Vec<u64>, f64) {
    let mut all: Vec<(f64, u64)> = particles
        .iter()
        .filter(|p| p.id != target.id)
        .map(|p| (p.pos.dist_sq(target.pos), p.id))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    let r_k = all.last().map_or(0.0, |(d2, _)| d2.sqrt());
    let mut ids: Vec<u64> = all.into_iter().map(|(_, id)| id).collect();
    ids.sort_unstable();
    (ids, r_k)
}

pub fn run(opts: &Opts, log: &mut SpanLog) -> Outcome {
    let n = opts.scaled(N_FULL);
    let sim = SphSimulation::default();
    let k = sim.k;
    let mut out = Outcome::new(opts);
    out.note("particles", n as f64);
    out.note("k", k as f64);

    let ((mut fw, gen_s), setup_s) = measure_setup(opts, || {
        let t0 = Instant::now();
        let particles = input(n, opts.seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let mut fw = sph_framework(config(), particles);
        sim.step(&mut fw);
        (fw, gen_s)
    });

    // The traced pass spends part of its time on bare framework steps.
    let loop_opts = Opts { seconds: opts.seconds * if opts.traced { 0.6 } else { 1.0 }, ..*opts };
    let mut short_steps = 0u64;
    let timed =
        timed_loop(&loop_opts, opts.min_ops(if opts.traced { 6 } else { 10 }), |_, traced| {
            let start = Instant::now();
            let stats = sim.step(&mut fw);
            if traced {
                log.record(MAIN, "apps.sph.step", start, Instant::now(), None);
            }
            if stats.neighbor_entries != (n * k) as u64 {
                short_steps += 1;
            }
        });
    report_common(&mut out, setup_s, gen_s * 1e3, &timed, n as f64);
    out.fail(short_steps, format!("a step gathered other than N·k = {} neighbours", n * k));

    let positive = fw.particles().iter().filter(|p| p.density > 0.0).count();
    out.check(positive == n, || format!("{} of {n} densities are not positive", n - positive));

    // Neighbour sets of sampled particles against a linear scan; the
    // sets come from a bare KnnVisitor step, and the SPH step's own
    // smoothing length must be half the scan's k-th distance.
    let initial = input(n, opts.seed);
    let wanted = sample_ids(n, N_SAMPLES, opts.seed);
    let mut bare_fw: Framework<KnnData> = Framework::new(config(), initial.clone());
    let first_bare = bare_knn_step(&mut bare_fw, k, &wanted);
    let smoothing: HashMap<u64, f64> = fw.particles().iter().map(|p| (p.id, p.smoothing)).collect();
    let mut wrong_sets = 0;
    let mut wrong_h = 0;
    for id in &wanted {
        let (ids, r_k) = brute_force_knn(&initial, &initial[*id as usize], k);
        if first_bare.neighbors.get(id) != Some(&ids) {
            wrong_sets += 1;
        }
        if (smoothing[id] - 0.5 * r_k).abs() > 1e-12 * r_k {
            wrong_h += 1;
        }
    }
    out.check(wrong_sets == 0, || {
        format!("{wrong_sets} of {} sampled kNN id sets differ from a linear scan", wanted.len())
    });
    out.check(wrong_h == 0, || {
        format!("{wrong_h} of {} sampled smoothing lengths are not r_k / 2", wanted.len())
    });

    if opts.traced {
        let (mut pre, mut traverse, mut whole) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while whole.len() < opts.min_ops(3) || start.elapsed().as_secs_f64() < opts.seconds * 0.35 {
            let t0 = Instant::now();
            let step = bare_knn_step(&mut bare_fw, k, &[]);
            let id = log.record(MAIN, "bare knn step", t0, Instant::now(), None);
            let inner = log.record(
                MAIN,
                "core.framework.step",
                step.framework.0,
                step.framework.1,
                Some(id),
            );
            let (t0, t1) = step.traverse;
            log.record(MAIN, "core.framework.traverse", t0, t1, Some(inner));
            let traverse_s = (t1 - t0).as_secs_f64();
            let framework_s = (step.framework.1 - step.framework.0).as_secs_f64();
            pre.push(framework_s - traverse_s);
            traverse.push(traverse_s);
            whole.push(framework_s);
        }
        out.note("bare_steps", whole.len() as f64);
        let (pre, traverse) = (median(&pre), median(&traverse));
        out.set("core.framework.pre_traverse_ms_p50", pre * 1e3);
        out.set("core.framework.traverse_ms_p50", traverse * 1e3);
        out.set("core.framework.traverse_share", traverse / (pre + traverse));
        out.set("apps.sph.glue_ms_p50", (median(&timed.traced()) - median(&whole)) * 1e3);
        out.set("apps.knn.ns_per_neighbor", traverse / (n * k) as f64 * 1e9);

        report_counts(&mut out, &first_bare.report.counts, traverse);

        build_pipeline_probes::<KnnData>(&mut out, opts, &config(), &initial);

        // The twin kernel: `tree::query`'s kNN at the particles' own
        // positions, over the same trees the framework builds.
        let forest = build_forest::<KnnData>(&config(), initial.clone());
        let n_queries = opts.scaled(N_QUERY_PROBE);
        let mut scratch = QueryScratch::default();
        let seconds = probe_seconds(opts.probe_reps(), || {
            for p in initial.iter().step_by((n / n_queries).max(1)).take(n_queries) {
                black_box(knn_query_with(&forest, p.pos, k, &mut scratch));
            }
        });
        out.set("tree.query.knn_k32_ns", seconds / n_queries as f64 * 1e9);
    }
    out
}
