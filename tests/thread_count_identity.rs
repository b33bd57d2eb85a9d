//! Parallel regions return results in item order and fold them in item
//! order, so a step's output must not depend on how many threads ran
//! it: the particle arrays after one gravity step and one SPH step are
//! compared bit for bit under 1, 2 and 8 threads.

use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_apps::sph::{sph_framework, SphSimulation};
use paratreet_core::{Configuration, Framework, TraversalKind};
use paratreet_particles::{gen, Particle};

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
