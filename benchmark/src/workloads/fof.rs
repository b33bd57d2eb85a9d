//! `fof_tiled`: one friends-of-friends halo catalog per operation over a
//! periodic 2×2×2 forest — decompose, per-box builds, seam balance,
//! ghost exchange, dual-tree linking. The one workload where building
//! the trees costs as much as walking them.

use super::{measure_setup, report_common, timed_loop_with, Opts, Outcome};
use crate::stats::median;
use crate::trace::{SpanLog, MAIN};
use paratreet_apps::fof::{link_forest, FofParams};
use paratreet_core::{
    decompose_forest, enforce_seam_balance, exchange_ghosts, Configuration, DomainSpec,
};
use paratreet_particles::{gen, Particle};
use paratreet_telemetry::Telemetry;
use paratreet_tree::CountData;
use std::time::Instant;

pub const N_FULL: usize = 200_000;
/// One Plummer sphere per unit tile of the [0, 2)³ periodic domain.
const FIELD_TILES: [usize; 3] = [2, 2, 2];
const MIN_MEMBERS: usize = 8;

fn config() -> Configuration {
    Configuration { bucket_size: 16, n_subtrees: 16, n_partitions: 32, ..Default::default() }
}

/// b = 0.2 mean inter-particle separations of the volume-8 domain.
fn linking_length(n: usize) -> f64 {
    0.2 * (8.0 / n as f64).cbrt()
}

/// One catalog and when each of its five stages started and ended.
struct Catalog {
    stages: [(&'static str, Instant, Instant); 5],
    seam_splits: u64,
    ghost_particles: u64,
    ghost_bytes: u64,
    n_links: u64,
    halos: usize,
}

impl Catalog {
    fn stage_s(&self, i: usize) -> f64 {
        (self.stages[i].2 - self.stages[i].1).as_secs_f64()
    }
}

/// Cuts the domain into `boxes` per axis and finds the halos of `field`.
fn catalog(field: Vec<Particle>, boxes: usize, link: f64) -> Catalog {
    let config = config();
    let spec = DomainSpec::tiled([boxes; 3], 2.0 / boxes as f64, true);
    let t0 = Instant::now();
    let forest = decompose_forest(field, &config, &spec);
    let t1 = Instant::now();
    let mut trees = forest.build_trees::<CountData>(&config, true);
    let t2 = Instant::now();
    let seam_splits = enforce_seam_balance(
        &mut trees,
        &forest.boxes,
        &forest.routes,
        config.tree_type,
        config.bucket_size,
    );
    let t3 = Instant::now();
    let layer = exchange_ghosts(&forest, &trees, link, &Telemetry::disabled());
    let t4 = Instant::now();
    let params = FofParams { link, min_members: MIN_MEMBERS };
    let cat = link_forest(&forest, &trees, &layer, &params, config.tree_type, config.bucket_size);
    let t5 = Instant::now();
    Catalog {
        stages: [
            ("core.forest.decompose", t0, t1),
            ("core.forest.build_trees", t1, t2),
            ("core.forest.seam_balance", t2, t3),
            ("core.forest.exchange_ghosts", t3, t4),
            ("apps.fof.link_forest", t4, t5),
        ],
        seam_splits,
        ghost_particles: layer.stats.particles,
        ghost_bytes: layer.stats.bytes,
        n_links: cat.n_links,
        halos: cat.halos.len(),
    }
}

pub fn run(opts: &Opts, log: &mut SpanLog) -> Outcome {
    let n = opts.scaled(N_FULL);
    let link = linking_length(n);
    let mut out = Outcome::new(opts);
    out.note("particles", n as f64);
    out.note("boxes", 8.0);
    out.note("link", link);

    let ((field, first, gen_s), setup_s) = measure_setup(opts, || {
        let t0 = Instant::now();
        let field = gen::tiled_plummer(n, FIELD_TILES, opts.seed, 1.0, 1.0);
        let gen_s = t0.elapsed().as_secs_f64();
        let first = catalog(field.clone(), 2, link);
        (field, first, gen_s)
    });

    let mut stage_s: [Vec<f64>; 5] = Default::default();
    let mut changed = 0u64;
    // The input is copied between operations, outside their timers.
    let timed = timed_loop_with(
        opts,
        opts.min_ops(10),
        || field.clone(),
        |_, traced, input| {
            let cat = catalog(input, 2, link);
            if traced {
                let whole = log.record(MAIN, "fof catalog", cat.stages[0].1, cat.stages[4].2, None);
                for (i, (name, start, end)) in cat.stages.iter().enumerate() {
                    log.record(MAIN, name, *start, *end, Some(whole));
                    stage_s[i].push(cat.stage_s(i));
                }
            }
            if (cat.halos, cat.n_links) != (first.halos, first.n_links) {
                changed += 1;
            }
        },
    );
    report_common(&mut out, setup_s, gen_s * 1e3, &timed, n as f64);
    out.fail(changed, "a catalog of the same field came out different".to_string());

    // Cutting the same periodic field into one box instead of eight
    // must not change the physics.
    let whole = catalog(field, 1, link);
    out.check((whole.halos, whole.n_links) == (first.halos, first.n_links), || {
        format!(
            "2x2x2 found {} halos / {} links, 1x1x1 {} / {}",
            first.halos, first.n_links, whole.halos, whole.n_links
        )
    });

    if opts.traced {
        out.set("core.forest.decompose_ms_p50", median(&stage_s[0]) * 1e3);
        out.set("core.forest.build_ms_p50", median(&stage_s[1]) * 1e3);
        out.set("core.forest.seam_balance_ms_p50", median(&stage_s[2]) * 1e3);
        out.set("core.forest.exchange_ms_p50", median(&stage_s[3]) * 1e3);
        out.set("apps.fof.link_ms_p50", median(&stage_s[4]) * 1e3);
        out.set("apps.fof.ns_per_link", median(&stage_s[4]) / first.n_links as f64 * 1e9);
        out.set("core.forest.seam_splits", first.seam_splits as f64);
        out.set("core.forest.ghost_particles", first.ghost_particles as f64);
        out.set("core.forest.ghost_bytes", first.ghost_bytes as f64);
        out.set("apps.fof.n_links", first.n_links as f64);
        out.set("apps.fof.halos", first.halos as f64);
    }
    out
}
