//! `disk_maintained`: `DiskSimulation::step` (a gravity and a collision
//! traversal per step) on a Keplerian planetesimal disk whose tree is
//! kept across steps and patched by `TreeMaintainer::advance` — the
//! tree as a *written* structure.

use super::{measure_setup, report_common, report_counts, timed_loop, Opts, Outcome};
use crate::stats::median;
use crate::trace::{SpanLog, MAIN};
use paratreet_apps::collision::{
    orbital_period, CollisionVisitor, DiskGravityVisitor, DiskSimulation,
};
use paratreet_core::{Configuration, DecompType, StepReport, TraversalKind};
use paratreet_geometry::Vec3;
use paratreet_particles::gen::{self, DiskParams};
use paratreet_tree::TreeType;
use std::time::Instant;

pub const N_FULL: usize = 30_000;
/// Steps per orbit at the disk's inner edge (r = 2).
const STEPS_PER_INNER_ORBIT: f64 = 200.0;
/// Timed step after which the cumulative `tree.update.*` counters are
/// read, so the same seed reads the same counts however long the run.
const COUNTERS_AFTER_OP: usize = 8;

fn config(maintained: bool) -> Configuration {
    let mut config = Configuration {
        tree_type: TreeType::LongestDim,
        decomp_type: DecompType::LongestDim,
        bucket_size: 16,
        ..Default::default()
    };
    config.incremental.enabled = maintained;
    config
}

fn simulation(n: usize, seed: u64, maintained: bool) -> (DiskSimulation, f64) {
    let params = DiskParams::default();
    let t0 = Instant::now();
    let particles = gen::keplerian_disk(n, seed, params);
    let gen_s = t0.elapsed().as_secs_f64();
    let dt = orbital_period(params.r_in, params.star_mass) / STEPS_PER_INNER_ORBIT;
    let mut sim = DiskSimulation::new(config(maintained), particles, dt);
    sim.step(); // seeds the maintainer (or is just the first rebuild)
    (sim, gen_s)
}

/// One step driven from the harness: the same leapfrog and the same two
/// traversals `DiskSimulation::step` issues, with a timer around each.
/// It cannot resolve mergers (that is private to the simulation); a
/// detected pair stays in place and the next plain step merges it.
struct DrivenStep {
    report: StepReport,
    framework: (Instant, Instant),
    gravity: (Instant, Instant),
    collide: (Instant, Instant),
    events: usize,
}

impl DrivenStep {
    /// `Framework::step`, traversals included.
    fn framework_s(&self) -> f64 {
        (self.framework.1 - self.framework.0).as_secs_f64()
    }

    fn pre_traverse_s(&self) -> f64 {
        self.framework_s() - (self.collide.1 - self.gravity.0).as_secs_f64()
    }
}

fn driven_step(sim: &mut DiskSimulation) -> DrivenStep {
    let dt = sim.dt;
    for p in sim.framework.particles_mut().iter_mut() {
        p.vel += p.acc * (0.5 * dt);
        p.pos += p.vel * dt;
        p.acc = Vec3::ZERO;
        p.potential = 0.0;
    }
    let gravity = DiskGravityVisitor { theta: sim.theta };
    let collisions = CollisionVisitor { dt };
    let start = Instant::now();
    let ((gravity, collide, events), report) = sim.framework.step(|step| {
        let t0 = Instant::now();
        step.traverse(&gravity, TraversalKind::TopDown);
        let t1 = Instant::now();
        let (states, _) = step.traverse(&collisions, TraversalKind::TopDown);
        let t2 = Instant::now();
        let mut pairs: Vec<(u64, u64)> = states.iter().flatten().map(|e| (e.a, e.b)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        ((t0, t1), (t1, t2), pairs.len())
    });
    let framework = (start, Instant::now());
    for p in sim.framework.particles_mut().iter_mut() {
        p.vel += p.acc * (0.5 * dt);
    }
    DrivenStep { report, framework, gravity, collide, events }
}

pub fn run(opts: &Opts, log: &mut SpanLog) -> Outcome {
    let n = opts.scaled(N_FULL);
    let mut out = Outcome::new(opts);
    out.note("particles", (n + 2) as f64);

    let ((mut sim, gen_s), setup_s) = measure_setup(opts, || simulation(n, opts.seed, true));

    let (mut pre, mut gravity_s, mut collide_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut framework_s = Vec::new();
    let mut counts = None;
    let mut update_at_mark = None;
    let mut events = 0;
    let mark = if opts.smoke { 0 } else { COUNTERS_AFTER_OP };
    let timed = timed_loop(opts, opts.min_ops(10), |i, traced| {
        if !traced {
            sim.step();
            return;
        }
        let start = Instant::now();
        let step = driven_step(&mut sim);
        let whole = log.record(MAIN, "disk step", start, Instant::now(), None);
        let inner = log.record(
            MAIN,
            "core.framework.step",
            step.framework.0,
            step.framework.1,
            Some(whole),
        );
        log.record(MAIN, "apps.collision.gravity", step.gravity.0, step.gravity.1, Some(inner));
        log.record(MAIN, "apps.collision.collide", step.collide.0, step.collide.1, Some(inner));
        pre.push(step.pre_traverse_s());
        framework_s.push(step.framework_s());
        gravity_s.push((step.gravity.1 - step.gravity.0).as_secs_f64());
        collide_s.push((step.collide.1 - step.collide.0).as_secs_f64());
        events += step.events;
        counts.get_or_insert(step.report.counts);
        if i == mark {
            update_at_mark = step.report.update;
        }
    });
    report_common(&mut out, setup_s, gen_s * 1e3, &timed, (n + 2) as f64);

    // One more driven step hands out the maintainer's cumulative totals,
    // which `DiskSimulation::step` keeps to itself.
    let totals = driven_step(&mut sim).report.update.unwrap_or_default();
    let remaining = sim.framework.particles().len();
    let mergers = sim.events.len();
    out.note("mergers", mergers as f64);
    out.check(remaining + mergers == n + 2, || {
        format!("{remaining} bodies remain after {mergers} mergers of {}", n + 2)
    });
    out.check(totals.full_rebuilds == 0, || {
        format!("{} full rebuilds of the maintained tree", totals.full_rebuilds)
    });
    out.check(totals.update_errors == 0, || format!("{} update errors", totals.update_errors));

    if opts.traced {
        let pre = median(&pre);
        let traverse = median(&gravity_s) + median(&collide_s);
        out.set("core.framework.pre_traverse_ms_p50", pre * 1e3);
        out.set("core.framework.traverse_ms_p50", traverse * 1e3);
        out.set("core.framework.traverse_share", traverse / (pre + traverse));
        out.set("apps.collision.gravity_traverse_ms_p50", median(&gravity_s) * 1e3);
        out.set("apps.collision.collide_traverse_ms_p50", median(&collide_s) * 1e3);
        out.set("apps.collision.events", events as f64);
        if let Some(counts) = counts {
            report_counts(&mut out, &counts, traverse);
        }
        if let Some(u) = update_at_mark {
            out.set("tree.update.moved", u.moved as f64);
            out.set("tree.update.patched", u.patched as f64);
            out.set("tree.update.migrated", u.migrated as f64);
            out.set("tree.update.batches", u.batches as f64);
            out.set("tree.update.subtree_rebuilds", u.subtree_rebuilds as f64);
            out.set("tree.update.full_rebuilds", u.full_rebuilds as f64);
            out.set("tree.update.update_errors", u.update_errors as f64);
        }

        // The same disk with a full rebuild every step: what keeping
        // the tree costs or saves before the traversals start, and over
        // the whole `Framework::step` (a patched tree is not a fresh
        // one: its traversals may cost more).
        let (mut rebuilt, _) = simulation(n, opts.seed, false);
        let rebuilt: Vec<DrivenStep> =
            (0..opts.min_ops(10)).map(|_| driven_step(&mut rebuilt)).collect();
        let rebuilt_pre: Vec<f64> = rebuilt.iter().map(DrivenStep::pre_traverse_s).collect();
        let rebuilt_whole: Vec<f64> = rebuilt.iter().map(DrivenStep::framework_s).collect();
        out.set("core.maintain.vs_rebuild_ratio", pre / median(&rebuilt_pre));
        out.set(
            "core.maintain.step_vs_rebuild_ratio",
            median(&framework_s) / median(&rebuilt_whole),
        );
    }
    out
}
