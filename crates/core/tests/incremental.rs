//! Incremental tree maintenance vs. fresh rebuilds.
//!
//! Three guarantees, matched to the subsystem's contract:
//!
//! * **Zero-motion identity** — with `universe_pad = 0` and particles
//!   that do not move, a maintained tree flattens to the exact layout a
//!   fresh build produces, so traversal results are *bit-identical*
//!   (not merely close) to the full-rebuild run, step after step.
//! * **K-step cross-check** — under real motion the maintained tree's
//!   shape may legitimately differ from a fresh build's (patched
//!   buckets, kept decomposition), but shape-independent queries must
//!   agree exactly and Barnes-Hut forces must agree within the
//!   approximation's own tolerance.
//! * **Invariants under random drift** — a property test: particle
//!   conservation and exact neighbour-count agreement for arbitrary
//!   motion; the debug-build cache audit (`audit_patched`) runs inside
//!   every incremental step and panics on any structural violation.

use paratreet_core::{
    Configuration, Framework, SpatialNodeView, TargetBucket, TargetSpan, TraversalKind,
    TreeMaintainer, Visitor,
};
use paratreet_geometry::{BoundingBox, Sphere, Vec3};
use paratreet_particles::{gen, Particle};
use paratreet_tree::data::wire;
use paratreet_tree::Data;
use proptest::prelude::*;

/// Monopole mass moments — a trimmed-down gravity `Data` so these tests
/// exercise a float-accumulating visitor without depending on the apps
/// crate.
#[derive(Clone, Debug, Default, PartialEq)]
struct MonoData {
    moment: Vec3,
    sum_mass: f64,
    tight_box: BoundingBox,
}

impl MonoData {
    fn centroid(&self) -> Vec3 {
        if self.sum_mass == 0.0 {
            Vec3::ZERO
        } else {
            self.moment / self.sum_mass
        }
    }
}

impl Data for MonoData {
    fn from_leaf(particles: &[Particle], _bbox: &BoundingBox) -> Self {
        let mut d = MonoData::default();
        for p in particles {
            d.moment += p.pos * p.mass;
            d.sum_mass += p.mass;
            d.tight_box.grow(p.pos);
        }
        d
    }

    fn merge(&mut self, child: &Self) {
        self.moment += child.moment;
        self.sum_mass += child.sum_mass;
        self.tight_box.merge(&child.tight_box);
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_vec3(out, self.moment);
        wire::put_f64(out, self.sum_mass);
        wire::put_vec3(out, self.tight_box.lo);
        wire::put_vec3(out, self.tight_box.hi);
    }

    fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let mut off = 0;
        let moment = wire::get_vec3(input, &mut off)?;
        let sum_mass = wire::get_f64(input, &mut off)?;
        let lo = wire::get_vec3(input, &mut off)?;
        let hi = wire::get_vec3(input, &mut off)?;
        Some((MonoData { moment, sum_mass, tight_box: BoundingBox { lo, hi } }, off))
    }
}

/// Barnes-Hut with monopole-only node approximation.
struct MonoGravity {
    theta: f64,
}

impl Visitor for MonoGravity {
    type Data = MonoData;
    type State = ();
    type Prepared = ();
    type PerTarget = ();
    fn prepare(&self, _: &SpatialNodeView<'_, MonoData>) {}
    fn open(
        &self,
        source: &SpatialNodeView<'_, MonoData>,
        _: &(),
        target: &TargetBucket<()>,
    ) -> bool {
        if source.data.sum_mass == 0.0 {
            return false;
        }
        let c = source.data.centroid();
        let radius = if source.data.tight_box.is_empty() {
            0.0
        } else {
            source.data.tight_box.max_dist_sq_to(c).sqrt() / self.theta
        };
        target.bbox.intersects_sphere(&Sphere::new(c, radius))
    }

    fn node(
        &self,
        source: &SpatialNodeView<'_, MonoData>,
        _: &(),
        target: &mut TargetSpan<'_, ()>,
    ) {
        let c = source.data.centroid();
        let m = source.data.sum_mass;
        for p in target.particles_mut() {
            let dr = c - p.pos;
            let r2 = dr.norm_sq();
            if r2 > 0.0 {
                p.acc += dr * (m / (r2 * r2.sqrt()));
                p.potential -= m / r2.sqrt() * p.mass;
            }
        }
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, MonoData>,
        _: &(),
        target: &mut TargetSpan<'_, ()>,
    ) {
        for p in target.particles_mut() {
            for s in source.particles {
                if s.id == p.id {
                    continue;
                }
                let dr = s.pos - p.pos;
                let soft = p.softening.max(s.softening);
                let r2 = dr.norm_sq() + soft * soft;
                if r2 > 0.0 {
                    p.acc += dr * (s.mass / (r2 * r2.sqrt()));
                    p.potential -= s.mass / r2.sqrt() * p.mass;
                }
            }
        }
    }
}

/// Counts (target, source) particle pairs within `radius`. Each target
/// particle lives in exactly one bucket and each source particle in
/// exactly one leaf, so the total over all buckets is a pure function
/// of the particle set — independent of tree shape — and a maintained
/// tree must reproduce a fresh build's total *exactly*, even under
/// heavy motion.
struct RadiusCount {
    radius: f64,
}

impl Visitor for RadiusCount {
    type Data = MonoData;
    type State = u64;
    type Prepared = ();
    type PerTarget = ();
    fn prepare(&self, _: &SpatialNodeView<'_, MonoData>) {}
    fn open(
        &self,
        source: &SpatialNodeView<'_, MonoData>,
        _: &(),
        target: &TargetBucket<u64>,
    ) -> bool {
        if source.particles.is_empty() {
            // Internal node: always descend (counting is leaf-only).
            return true;
        }
        let mut reach = target.bbox;
        reach.lo -= Vec3::splat(self.radius);
        reach.hi += Vec3::splat(self.radius);
        source.particles.iter().any(|p| reach.contains(p.pos))
    }

    fn node(
        &self,
        _source: &SpatialNodeView<'_, MonoData>,
        _: &(),
        _target: &mut TargetSpan<'_, u64>,
    ) {
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, MonoData>,
        _: &(),
        targets: &mut TargetSpan<'_, u64>,
    ) {
        let r2 = self.radius * self.radius;
        for (particles, target) in targets.buckets() {
            for s in source.particles {
                for p in particles {
                    if (p.pos - s.pos).norm_sq() <= r2 {
                        target.state += 1;
                    }
                }
            }
        }
    }
}

fn config(incremental: bool, universe_pad: f64) -> Configuration {
    let mut config =
        Configuration { bucket_size: 8, n_subtrees: 8, n_partitions: 16, ..Default::default() };
    config.incremental.enabled = incremental;
    config.incremental.universe_pad = universe_pad;
    config
}

/// Runs `steps` gravity steps on a shared-memory framework, drifting
/// particles by `dt` between steps, and returns the final particle
/// state (accelerations included).
fn run_gravity(
    particles: Vec<Particle>,
    incremental: bool,
    universe_pad: f64,
    steps: usize,
    dt: f64,
) -> Vec<Particle> {
    let mut fw: Framework<MonoData> = Framework::new(config(incremental, universe_pad), particles);
    let visitor = MonoGravity { theta: 0.6 };
    for _ in 0..steps {
        for p in fw.particles_mut().iter_mut() {
            p.pos += p.vel * dt;
            p.acc = Vec3::ZERO;
            p.potential = 0.0;
        }
        fw.step(|s| {
            s.traverse(&visitor, TraversalKind::TopDown);
        });
    }
    let mut out = fw.particles().to_vec();
    out.sort_by_key(|p| p.id);
    out
}

#[test]
fn zero_motion_traversal_is_bit_identical() {
    let particles = gen::plummer(1_500, 7, 1.0, 1.0);
    // dt = 0: nothing moves, so a maintained tree (with no universe
    // padding) must flatten to exactly the layout a fresh build makes.
    let fresh = run_gravity(particles.clone(), false, 0.0, 3, 0.0);
    let maintained = run_gravity(particles, true, 0.0, 3, 0.0);
    assert_eq!(fresh.len(), maintained.len());
    for (a, b) in fresh.iter().zip(&maintained) {
        assert_eq!(a.id, b.id);
        for (x, y) in [(a.acc.x, b.acc.x), (a.acc.y, b.acc.y), (a.acc.z, b.acc.z)] {
            assert_eq!(x.to_bits(), y.to_bits(), "acc mismatch on particle {}", a.id);
        }
        assert_eq!(a.potential.to_bits(), b.potential.to_bits(), "potential on {}", a.id);
    }
}

#[test]
fn k_step_gravity_matches_full_rebuild() {
    let particles = gen::clustered(1_200, 3, 11, 1.0, 1.0);
    let dt = 1.0 / 128.0;
    let steps = 4;
    let fresh = run_gravity(particles.clone(), false, 0.0, steps, dt);
    let maintained = run_gravity(particles, true, 0.05, steps, dt);
    assert_eq!(fresh.len(), maintained.len());

    // The maintained tree may group particles into different buckets
    // than a fresh build after drift, so its Barnes-Hut approximation
    // differs — but both must sit within the opening-angle tolerance of
    // the exact O(n²) force. Positions never depend on tree shape here
    // (same drift rule), so both runs see identical final positions.
    let exact: Vec<Vec3> = fresh
        .iter()
        .map(|p| {
            let mut acc = Vec3::ZERO;
            for s in &fresh {
                if s.id == p.id {
                    continue;
                }
                let dr = s.pos - p.pos;
                let soft = p.softening.max(s.softening);
                let r2 = dr.norm_sq() + soft * soft;
                acc += dr * (s.mass / (r2 * r2.sqrt()));
            }
            acc
        })
        .collect();
    let rms_err = |run: &[Particle]| {
        let sum: f64 = run
            .iter()
            .zip(&exact)
            .map(|(p, e)| ((p.acc - *e).norm() / e.norm().max(1e-12)).powi(2))
            .sum();
        (sum / run.len() as f64).sqrt()
    };
    for (a, b) in fresh.iter().zip(&maintained) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
    }
    let err_fresh = rms_err(&fresh);
    let err_inc = rms_err(&maintained);
    assert!(err_fresh < 5e-2, "fresh-build BH error {err_fresh} out of tolerance");
    assert!(
        err_inc < (2.0 * err_fresh).max(err_fresh + 1e-2),
        "maintained-tree BH error {err_inc} exceeds fresh-build error {err_fresh} band"
    );
}

#[test]
fn k_step_neighbour_counts_match_exactly() {
    // Radius queries are tree-shape independent: incremental and fresh
    // runs must agree *exactly* at every step, including after drift.
    let particles = gen::plummer(800, 3, 1.0, 1.0);
    let dt = 1.0 / 64.0;
    let visitor = RadiusCount { radius: 0.15 };

    let mut fresh: Framework<MonoData> = Framework::new(config(false, 0.0), particles.clone());
    let mut inc: Framework<MonoData> = Framework::new(config(true, 0.05), particles);
    for step in 0..4 {
        for fw in [&mut fresh, &mut inc] {
            for p in fw.particles_mut().iter_mut() {
                p.pos += p.vel * dt;
            }
        }
        let (state_a, _) = fresh.step(|s| s.traverse(&visitor, TraversalKind::TopDown));
        let (state_b, _) = inc.step(|s| s.traverse(&visitor, TraversalKind::TopDown));
        let total_a: u64 = state_a.0.iter().sum();
        let total_b: u64 = state_b.0.iter().sum();
        assert_eq!(total_a, total_b, "neighbour totals diverged at step {step}");
    }
}

/// A position that turns non-finite between steps is not maintained:
/// the universe box does not contain NaN, so `advance` falls back to a
/// full re-decomposition, and that rejects the particle by name.
#[test]
#[should_panic(expected = ") has a non-finite position")]
fn a_position_turned_non_finite_is_rejected_by_the_fallback() {
    let cfg = config(true, 0.05);
    let (mut m, seeded) =
        TreeMaintainer::<MonoData>::seed(&cfg, gen::plummer(300, 5, 1.0, 1.0), true);
    let mut master: Vec<Particle> =
        seeded.iter().flat_map(|t| t.particles.iter().copied()).collect();
    master[7].pos.y = f64::NAN;
    m.advance(master);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random particle clouds with random per-step drift: the
    // maintained framework conserves particles, keeps ids unique, and
    // agrees exactly with a fresh build on shape-independent neighbour
    // counts after every step. The debug-build `audit_patched` runs
    // inside each incremental step, so structural violations (overfull
    // buckets, broken summaries, orphan placeholders) panic rather
    // than pass silently.
    // Batch apply is deterministic across worker counts: the same
    // random drift maintained with 1, 2, and 8 batch threads yields
    // bit-identical flattened trees, batch counts, and update stats at
    // every step.
    #[test]
    fn thread_sweep_is_bit_identical(
        seed in 0u64..1_000,
        n in 100usize..600,
        drift in 0.0f64..0.2,
        steps in 1usize..4,
    ) {
        let run_steps = || {
            let cfg = config(true, 0.05);
            let ps = gen::uniform_cube(n, seed, 1.0, 1.0);
            let (mut m, seeded) = TreeMaintainer::<MonoData>::seed(&cfg, ps, true);
            let mut master: Vec<Particle> =
                seeded.iter().flat_map(|t| t.particles.iter().copied()).collect();
            let mut out = Vec::new();
            for step in 0..steps {
                let uni = m.universe();
                for (i, p) in master.iter_mut().enumerate() {
                    let h = (seed ^ (i as u64) ^ (step as u64) << 32)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    p.pos.x = (p.pos.x + ((h >> 1 & 0xFFFF) as f64 / 65_535.0 - 0.5) * drift)
                        .clamp(uni.lo.x, uni.hi.x);
                    p.pos.y = (p.pos.y + ((h >> 17 & 0xFFFF) as f64 / 65_535.0 - 0.5) * drift)
                        .clamp(uni.lo.y, uni.hi.y);
                    p.pos.z = (p.pos.z + ((h >> 33 & 0xFFFF) as f64 / 65_535.0 - 0.5) * drift)
                        .clamp(uni.lo.z, uni.hi.z);
                }
                let (trees, round) = m.advance(master);
                master = trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
                out.push((trees, round.n_batches, round.stats));
            }
            out
        };
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(run_steps)
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        for (x, y) in a.iter().zip(&b).chain(a.iter().zip(&c)) {
            prop_assert_eq!(x.1, y.1, "batch counts diverged across thread counts");
            prop_assert_eq!(&x.2, &y.2, "update stats diverged across thread counts");
            prop_assert_eq!(x.0.len(), y.0.len());
            for (ta, tb) in x.0.iter().zip(&y.0) {
                prop_assert_eq!(&ta.particles, &tb.particles);
                prop_assert_eq!(ta.nodes.len(), tb.nodes.len());
                for (na, nb) in ta.nodes.iter().zip(&tb.nodes) {
                    prop_assert_eq!(na.key, nb.key);
                    prop_assert_eq!(&na.shape, &nb.shape);
                    prop_assert_eq!(&na.data, &nb.data);
                }
            }
        }
    }

    #[test]
    fn maintained_tree_preserves_invariants_under_drift(
        seed in 0u64..1_000,
        n in 50usize..250,
        drift in 0.0f64..0.3,
        steps in 1usize..4,
    ) {
        let mut particles = gen::uniform_cube(n, seed, 1.0, 1.0);
        // Deterministic pseudo-random velocities so drift varies by
        // particle and direction.
        for (i, p) in particles.iter_mut().enumerate() {
            let h = (seed ^ (i as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            p.vel = Vec3::new(
                ((h >> 1 & 0xFFFF) as f64 / 65_535.0 - 0.5) * drift,
                ((h >> 17 & 0xFFFF) as f64 / 65_535.0 - 0.5) * drift,
                ((h >> 33 & 0xFFFF) as f64 / 65_535.0 - 0.5) * drift,
            );
        }
        let visitor = RadiusCount { radius: 0.2 };
        let mut fresh: Framework<MonoData> = Framework::new(config(false, 0.0), particles.clone());
        let mut inc: Framework<MonoData> = Framework::new(config(true, 0.05), particles);
        for step in 0..steps {
            for fw in [&mut fresh, &mut inc] {
                for p in fw.particles_mut().iter_mut() {
                    p.pos += p.vel;
                }
            }
            let (state_a, _) = fresh.step(|s| s.traverse(&visitor, TraversalKind::TopDown));
            let (state_b, _) = inc.step(|s| s.traverse(&visitor, TraversalKind::TopDown));
            let total_a: u64 = state_a.0.iter().sum();
            let total_b: u64 = state_b.0.iter().sum();
            prop_assert_eq!(total_a, total_b, "neighbour totals diverged at step {}", step);

            prop_assert_eq!(inc.particles().len(), n);
            let mut ids: Vec<u64> = inc.particles().iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), n, "particle ids must stay unique");
        }
    }
}
