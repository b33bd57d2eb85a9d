//! End-to-end physics validation: the Barnes-Hut traversal through the
//! full framework (decomposition → Partitions–Subtrees → cache →
//! traversal) must reproduce direct-summation forces to the accuracy
//! the opening angle implies, for every tree type and decomposition.

use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_baselines::direct::{direct_gravity, rms_acc_error};
use paratreet_core::{
    Configuration, DecompType, Framework, SpatialNodeView, TargetBucket, TargetSpan, TraversalKind,
    Visitor,
};
use paratreet_geometry::{Sphere, Vec3};
use paratreet_particles::gen;
use paratreet_particles::Particle;
use paratreet_tree::TreeType;

fn traverse_with<V: Visitor<Data = CentroidData>>(
    visitor: &V,
    particles: Vec<Particle>,
    config: Configuration,
    kind: TraversalKind,
) -> Vec<Particle> {
    let mut fw: Framework<CentroidData> = Framework::new(config, particles);
    fw.step(|step| {
        step.traverse(visitor, kind);
    });
    fw.particles().to_vec()
}

fn tree_gravity(
    particles: Vec<Particle>,
    config: Configuration,
    theta: f64,
    kind: TraversalKind,
) -> Vec<Particle> {
    traverse_with(&GravityVisitor { theta, g: 1.0 }, particles, config, kind)
}

fn check_accuracy(config: Configuration, theta: f64, kind: TraversalKind, tol: f64) {
    let mut ps = gen::plummer(1500, 42, 1.0, 1.0);
    for p in &mut ps {
        p.softening = 0.01;
    }
    let tree = tree_gravity(ps.clone(), config, theta, kind);
    direct_gravity(&mut ps, 1.0);
    let err = rms_acc_error(&tree, &ps);
    assert!(err < tol, "rms acceleration error {err} exceeds {tol}");
}

#[test]
fn octree_sfc_matches_direct() {
    let config = Configuration { bucket_size: 16, ..Default::default() };
    check_accuracy(config, 0.6, TraversalKind::TopDown, 0.02);
}

#[test]
fn kd_tree_matches_direct() {
    let config = Configuration {
        tree_type: TreeType::KdTree,
        decomp_type: DecompType::Kd,
        bucket_size: 16,
        ..Default::default()
    };
    check_accuracy(config, 0.6, TraversalKind::TopDown, 0.02);
}

#[test]
fn longest_dim_tree_matches_direct() {
    let config = Configuration {
        tree_type: TreeType::LongestDim,
        decomp_type: DecompType::LongestDim,
        bucket_size: 16,
        ..Default::default()
    };
    check_accuracy(config, 0.6, TraversalKind::TopDown, 0.02);
}

#[test]
fn binary_oct_tree_matches_direct() {
    let config =
        Configuration { tree_type: TreeType::BinaryOct, bucket_size: 16, ..Default::default() };
    check_accuracy(config, 0.6, TraversalKind::TopDown, 0.02);
}

#[test]
fn oct_decomposition_matches_direct() {
    let config =
        Configuration { decomp_type: DecompType::Oct, bucket_size: 16, ..Default::default() };
    check_accuracy(config, 0.6, TraversalKind::TopDown, 0.02);
}

#[test]
fn basic_dfs_gives_identical_forces_to_transposed() {
    // BasicTrav and the transposed traversal must produce *identical*
    // interactions, not merely close ones (same opens, same kernels).
    let ps = gen::clustered(800, 3, 7, 1.0, 1.0);
    let config = Configuration { bucket_size: 8, ..Default::default() };
    let a = tree_gravity(ps.clone(), config.clone(), 0.7, TraversalKind::TopDown);
    let b = tree_gravity(ps, config, 0.7, TraversalKind::BasicDfs);
    let err = rms_acc_error(&a, &b);
    assert!(err < 1e-12, "traversal styles disagree: {err}");
}

#[test]
fn smaller_theta_is_more_accurate() {
    let mut ps = gen::plummer(1200, 11, 1.0, 1.0);
    for p in &mut ps {
        p.softening = 0.01;
    }
    let config = Configuration { bucket_size: 16, ..Default::default() };
    let loose = tree_gravity(ps.clone(), config.clone(), 1.0, TraversalKind::TopDown);
    let tight = tree_gravity(ps.clone(), config, 0.3, TraversalKind::TopDown);
    direct_gravity(&mut ps, 1.0);
    let err_loose = rms_acc_error(&loose, &ps);
    let err_tight = rms_acc_error(&tight, &ps);
    assert!(
        err_tight < err_loose / 3.0,
        "θ=0.3 error {err_tight} not much better than θ=1.0 error {err_loose}"
    );
}

#[test]
fn partitions_subtrees_split_buckets_do_not_change_forces() {
    // Mismatched partition/subtree counts force split buckets (Fig. 5);
    // physics must be unaffected.
    let ps = gen::uniform_cube(700, 5, 1.0, 1.0);
    let aligned = Configuration {
        decomp_type: DecompType::Oct,
        n_subtrees: 8,
        n_partitions: 8,
        bucket_size: 8,
        ..Default::default()
    };
    let skewed = Configuration {
        decomp_type: DecompType::Kd,
        n_subtrees: 13,
        n_partitions: 7,
        bucket_size: 8,
        ..Default::default()
    };
    let a = tree_gravity(ps.clone(), aligned, 0.7, TraversalKind::TopDown);
    let b = tree_gravity(ps, skewed, 0.7, TraversalKind::TopDown);
    // The tree (octree) is identical, so forces agree up to the effect
    // of bucket splitting: split buckets have tighter target boxes,
    // which can flip borderline opening decisions. That changes which
    // *valid* Barnes-Hut approximation is applied, never the physics
    // beyond the θ error bound.
    let err = rms_acc_error(&a, &b);
    assert!(err < 2e-2, "decomposition changed forces beyond BH noise: {err}");
}

/// Gravity as it stood before the bucket kernels, kept as their
/// reference: the opening sphere rebuilt for every bucket, and plain
/// per-particle loops over the original per-pair kernels.
struct PerPairGravity {
    theta: f64,
    g: f64,
}

impl PerPairGravity {
    fn exact(target: Vec3, src_pos: Vec3, src_mass: f64, softening: f64) -> (Vec3, f64) {
        let dr = src_pos - target;
        let r2 = dr.norm_sq() + softening * softening;
        if r2 == 0.0 {
            return (Vec3::ZERO, 0.0);
        }
        let r = r2.sqrt();
        let inv_r3 = 1.0 / (r2 * r);
        (dr * (src_mass * inv_r3), -src_mass / r)
    }

    fn approx(target: Vec3, centroid: Vec3, mass: f64, quad: &[f64; 6]) -> (Vec3, f64) {
        let dr = target - centroid;
        let r2 = dr.norm_sq();
        if r2 == 0.0 {
            return (Vec3::ZERO, 0.0);
        }
        let r = r2.sqrt();
        let inv_r = 1.0 / r;
        let inv_r2 = inv_r * inv_r;
        let inv_r3 = inv_r2 * inv_r;
        let inv_r5 = inv_r3 * inv_r2;
        let inv_r7 = inv_r5 * inv_r2;
        let mut acc = -dr * (mass * inv_r3);
        let mut pot = -mass * inv_r;
        let tr = quad[0] + quad[3] + quad[5];
        let qr = Vec3::new(
            quad[0] * dr.x + quad[1] * dr.y + quad[2] * dr.z,
            quad[1] * dr.x + quad[3] * dr.y + quad[4] * dr.z,
            quad[2] * dr.x + quad[4] * dr.y + quad[5] * dr.z,
        );
        let rqr = dr.dot(qr);
        pot -= (3.0 * rqr - r2 * tr) * 0.5 * inv_r5;
        acc += qr * (3.0 * inv_r5);
        acc -= dr * (7.5 * rqr * inv_r7);
        acc += dr * (1.5 * tr * inv_r5);
        (acc, pot)
    }
}

impl Visitor for PerPairGravity {
    type Data = CentroidData;
    type State = ();
    type Prepared = ();
    type PerTarget = ();

    fn prepare(&self, _: &SpatialNodeView<'_, CentroidData>) {}

    fn open(&self, s: &SpatialNodeView<'_, CentroidData>, _: &(), t: &TargetBucket<()>) -> bool {
        if s.data.sum_mass == 0.0 {
            return false;
        }
        let sphere = Sphere::new(s.data.centroid(), s.data.opening_radius(self.theta));
        t.bbox.intersects_sphere(&sphere)
    }

    fn node(&self, s: &SpatialNodeView<'_, CentroidData>, _: &(), t: &mut TargetSpan<'_, ()>) {
        let centroid = s.data.centroid();
        let mass = s.data.sum_mass;
        let quad = s.data.quad_about_centroid();
        for p in t.particles_mut() {
            let (acc, pot) = Self::approx(p.pos, centroid, mass, &quad);
            p.acc += acc * self.g;
            p.potential += pot * self.g * p.mass;
        }
    }

    fn leaf(&self, s: &SpatialNodeView<'_, CentroidData>, _: &(), t: &mut TargetSpan<'_, ()>) {
        for p in t.particles_mut() {
            for src in s.particles {
                if src.id == p.id {
                    continue;
                }
                let (acc, pot) =
                    Self::exact(p.pos, src.pos, src.mass, p.softening.max(src.softening));
                p.acc += acc * self.g;
                p.potential += pot * self.g * p.mass;
            }
        }
    }
}

#[test]
fn bucket_kernels_keep_every_bit_of_the_per_pair_step() {
    // Hoisting the per-node moments and applying them eight (or four)
    // targets at a time reorders nothing a particle can see: a whole
    // framework step leaves the bits the per-pair loops leave, in both
    // schedules.
    let mut ps = gen::clustered(3000, 4, 29, 1.0, 1.0);
    for (i, p) in ps.iter_mut().enumerate() {
        p.softening = [0.0, 0.01, 0.05][i % 3];
    }
    ps[7].pos = ps[8].pos; // an unsoftened coincident pair: r² = 0 in a leaf
    let config = Configuration { bucket_size: 12, ..Default::default() };
    for kind in [TraversalKind::TopDown, TraversalKind::BasicDfs] {
        let kernels =
            traverse_with(&GravityVisitor { theta: 0.6, g: 2.5 }, ps.clone(), config.clone(), kind);
        let per_pair =
            traverse_with(&PerPairGravity { theta: 0.6, g: 2.5 }, ps.clone(), config.clone(), kind);
        assert_eq!(kernels.len(), per_pair.len());
        for (a, b) in kernels.iter().zip(&per_pair) {
            assert_eq!(a.id, b.id);
            let bits = |p: &Particle| [p.acc.x, p.acc.y, p.acc.z, p.potential].map(f64::to_bits);
            assert_eq!(bits(a), bits(b), "particle {} under {kind:?}", a.id);
        }
    }
}

/// A non-finite position stops the step naming the particle; it never
/// comes back as non-finite forces over a collapsed tree.
#[test]
#[should_panic(expected = "particle 7 (id 7) has a non-finite position")]
fn a_nan_position_panics_naming_its_index() {
    let mut ps = gen::uniform_cube(2000, 3, 1.0, 1.0);
    ps[7].pos.x = f64::NAN;
    tree_gravity(ps, Configuration::default(), 0.7, TraversalKind::TopDown);
}
