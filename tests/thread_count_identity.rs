//! Parallel regions return results in item order and fold them in item
//! order, so a step's output must not depend on how many threads ran
//! it: the particle arrays after one gravity step and one SPH step are
//! compared bit for bit under 1, 2 and 8 threads; so are the ghost layer
//! and the halo catalog of the forest pipeline, the catalog also across
//! how many boxes the domain was cut into.

use paratreet_apps::fof::{link_forest, FofCatalog, FofParams};
use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_apps::sph::{sph_framework, SphSimulation};
use paratreet_core::{
    decompose_forest, enforce_seam_balance, exchange_ghosts, Configuration, DomainSpec, Framework,
    GhostLayer, TraversalKind,
};
use paratreet_particles::{gen, Particle};
use paratreet_telemetry::Telemetry;
use paratreet_tree::CountData;

/// Runs `step` with the pool pinned to `threads` threads.
fn with_threads<R: Send>(threads: usize, step: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(step)
}

/// Every field of every particle, as bits (`-0.0 != 0.0`, NaN == NaN).
fn bits(particles: &[Particle]) -> Vec<[u64; 12]> {
    particles
        .iter()
        .map(|p| {
            [
                p.id,
                p.pos.x.to_bits(),
                p.pos.y.to_bits(),
                p.pos.z.to_bits(),
                p.acc.x.to_bits(),
                p.acc.y.to_bits(),
                p.acc.z.to_bits(),
                p.potential.to_bits(),
                p.smoothing.to_bits(),
                p.density.to_bits(),
                p.pressure.to_bits(),
                p.mass.to_bits(),
            ]
        })
        .collect()
}

fn assert_same_at_1_2_8(run: impl Fn() -> Vec<Particle> + Sync) {
    let one = bits(&with_threads(1, &run));
    for threads in [2, 8] {
        assert!(one == bits(&with_threads(threads, &run)), "{threads} threads changed the output");
    }
}

#[test]
fn gravity_step_is_bit_identical_at_1_2_8_threads() {
    // Enough particles that the per-Subtree builds split nodes in
    // parallel too (20 k > the builder's threshold).
    let particles = gen::clustered(20_000, 4, 17, 1.0, 1.0);
    let config =
        Configuration { bucket_size: 16, n_subtrees: 8, n_partitions: 32, ..Default::default() };
    assert_same_at_1_2_8(|| {
        let mut fw: Framework<CentroidData> = Framework::new(config.clone(), particles.clone());
        let ((), report) = fw.step(|step| {
            step.traverse(&GravityVisitor { theta: 0.6, g: 1.0 }, TraversalKind::TopDown);
        });
        assert!(report.counts.leaf_interactions > 0);
        fw.particles().to_vec()
    });
}

#[test]
fn sph_step_is_bit_identical_at_1_2_8_threads() {
    let mut particles = gen::perturbed_lattice(4000, 3, 0.5, 0.02);
    for p in &mut particles {
        if p.pos.norm() < 0.2 {
            p.internal_energy = 5.0;
        }
    }
    let config =
        Configuration { bucket_size: 16, n_subtrees: 4, n_partitions: 16, ..Default::default() };
    let sph = SphSimulation { k: 24, ..Default::default() };
    assert_same_at_1_2_8(|| {
        let mut fw = sph_framework(config.clone(), particles.clone());
        let stats = sph.step(&mut fw);
        assert!(stats.mean_density > 0.0);
        fw.particles().to_vec()
    });
}

/// Decompose → build → seam balance → ghost exchange → link, the
/// periodic [0, 2)³ domain cut into `tiles`³ boxes.
fn forest_catalog(field: &[Particle], tiles: usize, link: f64) -> (GhostLayer, u64, FofCatalog) {
    let config =
        Configuration { bucket_size: 16, n_subtrees: 16, n_partitions: 32, ..Default::default() };
    let spec = DomainSpec::tiled([tiles; 3], 2.0 / tiles as f64, true);
    let forest = decompose_forest(field.to_vec(), &config, &spec);
    let mut trees = forest.build_trees::<CountData>(&config, true);
    let splits = enforce_seam_balance(
        &mut trees,
        &forest.boxes,
        &forest.routes,
        config.tree_type,
        config.bucket_size,
    );
    let layer = exchange_ghosts(&forest, &trees, link, &Telemetry::disabled());
    let params = FofParams { link, min_members: 8 };
    let catalog =
        link_forest(&forest, &trees, &layer, &params, config.tree_type, config.bucket_size);
    (layer, splits, catalog)
}

#[test]
fn forest_catalog_is_identical_at_1_2_8_threads_and_under_any_tiling() {
    // One Plummer sphere per unit cell of the domain, enough particles
    // that Subtree builds split nodes in parallel; the linking length is
    // 0.2 mean separations, as the benchmark's `fof_tiled` has it.
    let n = 24_000;
    let field = gen::tiled_plummer(n, [2, 2, 2], 17, 1.0, 1.0);
    let link = 0.2 * (8.0 / n as f64).cbrt();
    let mut first: Option<FofCatalog> = None;
    for tiles in [1, 2, 3] {
        let (layer, splits, catalog) = with_threads(1, || forest_catalog(&field, tiles, link));
        assert!(layer.stats.particles > 0, "{tiles}^3: the seams must carry ghosts");
        assert!(catalog.halos.len() > 1 && catalog.n_links > 0);
        for threads in [2, 8] {
            let (l, s, c) = with_threads(threads, || forest_catalog(&field, tiles, link));
            assert!(l.zones == layer.zones, "{tiles}^3: {threads} threads changed the ghost zones");
            assert_eq!(l.stats, layer.stats, "{tiles}^3 at {threads} threads");
            assert_eq!(s, splits, "{tiles}^3 at {threads} threads");
            assert!(c == catalog, "{tiles}^3: {threads} threads changed the catalog");
        }
        // Cutting the same periodic field differently is not physics.
        let first = first.get_or_insert_with(|| catalog.clone());
        assert!(catalog == *first, "the {tiles}^3 tiling changed the catalog");
    }
}
