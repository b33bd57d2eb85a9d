//! Planetesimal collision detection and the protoplanetary-disk case
//! study (paper §IV).
//!
//! The disk simulation tracks gravity between all bodies *and* tests
//! solid finite-radius planetesimals for collisions each step. Following
//! the ParaTreeT model, the application defines one combined `Data`
//! ([`DiskData`]) and two visitors over it — gravity and collision — and
//! runs both traversals in a single framework step.
//!
//! The case study's scientific output (Fig. 12) is the radial collision
//! profile of a disk perturbed by a giant planet, with mean-motion
//! resonances (3:1, 2:1, 5:3) marked; [`resonance_radius`] computes
//! those locations and [`CollisionProfile`] accumulates the histogram.

use crate::gravity::{self, apply_leaf, apply_node, CentroidData, NodeMoments};
use paratreet_core::{
    Configuration, Framework, SpatialNodeView, TargetBucket, TargetLanes, TargetSpan,
    TraversalKind, Visitor,
};
use paratreet_geometry::{BoundingBox, Vec3};
use paratreet_particles::gen::G;
use paratreet_particles::Particle;
use paratreet_tree::data::wire;
use paratreet_tree::Data;
use std::collections::HashMap;

/// Combined per-node state for the disk application: gravity moments
/// plus the bounds collision sweeps need.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskData {
    /// Mass moments for Barnes-Hut gravity.
    pub centroid: CentroidData,
    /// Largest body radius in the subtree.
    pub max_radius: f64,
    /// Largest speed in the subtree (bounds swept volumes).
    pub max_speed: f64,
}

impl Data for DiskData {
    fn from_leaf(particles: &[Particle], bbox: &BoundingBox) -> Self {
        DiskData {
            centroid: CentroidData::from_leaf(particles, bbox),
            max_radius: particles.iter().map(|p| p.radius).fold(0.0, f64::max),
            max_speed: particles.iter().map(|p| p.vel.norm()).fold(0.0, f64::max),
        }
    }

    fn merge(&mut self, child: &Self) {
        self.centroid.merge(&child.centroid);
        self.max_radius = self.max_radius.max(child.max_radius);
        self.max_speed = self.max_speed.max(child.max_speed);
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.centroid.encode(out);
        wire::put_f64(out, self.max_radius);
        wire::put_f64(out, self.max_speed);
    }

    fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let (centroid, mut off) = CentroidData::decode(input)?;
        let max_radius = wire::get_f64(input, &mut off)?;
        let max_speed = wire::get_f64(input, &mut off)?;
        Some((DiskData { centroid, max_radius, max_speed }, off))
    }
}

/// Barnes-Hut gravity over [`DiskData`] (the gravity application's
/// opening test and bucket kernels; the disk's own visitor because the
/// `Data` type differs).
pub struct DiskGravityVisitor {
    /// Opening angle.
    pub theta: f64,
}

impl Visitor for DiskGravityVisitor {
    type Data = DiskData;
    type State = ();
    type Prepared = NodeMoments;
    type PerTarget = ();
    const LANES: TargetLanes = gravity::LANES;

    fn prepare(&self, source: &SpatialNodeView<'_, DiskData>) -> NodeMoments {
        NodeMoments::of(&source.data.centroid, self.theta)
    }

    fn open(
        &self,
        _source: &SpatialNodeView<'_, DiskData>,
        node: &NodeMoments,
        target: &TargetBucket<()>,
    ) -> bool {
        node.opens(&target.bbox)
    }

    fn node(
        &self,
        _source: &SpatialNodeView<'_, DiskData>,
        node: &NodeMoments,
        targets: &mut TargetSpan<'_, ()>,
    ) {
        apply_node(node, targets, G)
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, DiskData>,
        _node: &NodeMoments,
        targets: &mut TargetSpan<'_, ()>,
    ) {
        apply_leaf(source.particles, targets, G)
    }
}

/// One detected collision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollisionEvent {
    /// Lower particle id of the pair.
    pub a: u64,
    /// Higher particle id of the pair.
    pub b: u64,
    /// Time of closest approach within the step, in `[0, dt]`.
    pub t: f64,
    /// Heliocentric distance of the pair at impact.
    pub radius: f64,
}

/// Collision-detection visitor: swept-sphere pair tests at leaves,
/// swept-box overlap pruning above (the "finite radius" test of §IV-A)
/// and, inside a leaf pair, per target body (DESIGN §5d).
pub struct CollisionVisitor {
    /// Timestep over which motion is swept.
    pub dt: f64,
}

impl CollisionVisitor {
    /// Closest-approach test for one pair over `[0, dt]`.
    fn pair_collides(a: &Particle, b: &Particle, dt: f64) -> Option<(f64, f64)> {
        let rsum = a.radius + b.radius;
        if rsum <= 0.0 {
            return None;
        }
        let dr = b.pos - a.pos;
        let dv = b.vel - a.vel;
        let dv2 = dv.norm_sq();
        let t_star = if dv2 == 0.0 { 0.0 } else { (-dr.dot(dv) / dv2).clamp(0.0, dt) };
        let closest = dr + dv * t_star;
        if closest.norm_sq() <= rsum * rsum {
            let impact = a.pos + a.vel * t_star;
            Some((t_star, impact.norm()))
        } else {
            None
        }
    }

    /// One body's swept, radius-inflated box. A bucket's box is the
    /// min/max of its bodies' boxes, so each lies bitwise inside it.
    /// Rounding is monotone, so taking min/max before `± radius` gives
    /// the bits taking it after would.
    fn body_box(p: &Particle, dt: f64) -> BoundingBox {
        let margin = Vec3::splat(p.radius);
        let moved = p.pos + p.vel * dt;
        BoundingBox { lo: p.pos.min(moved) - margin, hi: p.pos.max(moved) + margin }
    }

    /// A bucket's swept, radius-inflated bounding box.
    fn swept_box(particles: &[Particle], dt: f64) -> BoundingBox {
        let mut b = BoundingBox::empty();
        for p in particles {
            b.merge(&Self::body_box(p, dt));
        }
        b
    }
}

impl Visitor for CollisionVisitor {
    type Data = DiskData;
    type State = Vec<CollisionEvent>;
    /// The source's tight box grown by its worst-case sweep and body
    /// radius: every `open` and `leaf` of the source tests it.
    type Prepared = BoundingBox;
    /// The bucket's swept box: every `open` of the bucket tests it.
    type PerTarget = BoundingBox;

    fn prepare(&self, source: &SpatialNodeView<'_, DiskData>) -> BoundingBox {
        if source.data.centroid.sum_mass == 0.0 {
            return BoundingBox::empty(); // intersects nothing: never opened
        }
        let margin = source.data.max_radius + source.data.max_speed * self.dt;
        let mut src = source.data.centroid.tight_box;
        src.lo -= Vec3::splat(margin);
        src.hi += Vec3::splat(margin);
        src
    }

    fn prepare_target(&self, particles: &[Particle]) -> BoundingBox {
        Self::swept_box(particles, self.dt)
    }

    fn open(
        &self,
        _source: &SpatialNodeView<'_, DiskData>,
        inflated: &BoundingBox,
        target: &TargetBucket<Vec<CollisionEvent>, BoundingBox>,
    ) -> bool {
        inflated.intersects(&target.prepared)
    }

    fn node(
        &self,
        _s: &SpatialNodeView<'_, DiskData>,
        _: &BoundingBox,
        _t: &mut TargetSpan<'_, Vec<CollisionEvent>, BoundingBox>,
    ) {
        // A pruned subtree cannot collide with these buckets.
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, DiskData>,
        inflated: &BoundingBox,
        targets: &mut TargetSpan<'_, Vec<CollisionEvent>, BoundingBox>,
    ) {
        // `open`'s box test, applied to single target bodies: a body whose
        // swept box misses the source's inflated box is in no colliding
        // pair here.
        for (particles, target) in targets.buckets() {
            for tp in particles {
                if !inflated.intersects(&Self::body_box(tp, self.dt)) {
                    continue;
                }
                for sp in source.particles {
                    // Each unordered pair is reported once (by its lower id).
                    if sp.id <= tp.id {
                        continue;
                    }
                    if let Some((t, radius)) = Self::pair_collides(tp, sp, self.dt) {
                        target.state.push(CollisionEvent { a: tp.id, b: sp.id, t, radius });
                    }
                }
            }
        }
    }
}

/// Orbital period around a central mass at semi-major axis `a`.
pub fn orbital_period(a: f64, central_mass: f64) -> f64 {
    std::f64::consts::TAU * (a * a * a / (G * central_mass)).sqrt()
}

/// Radius of the inner `j:k` mean-motion resonance with a planet at
/// `a_planet` (a body there orbits `j` times per `k` planet orbits):
/// `a = a_p (k/j)^(2/3)`. The paper's markers: 3:1 → 2.50 AU,
/// 2:1 → 3.27 AU, 5:3 → 3.70 AU for a planet at 5.2 AU.
pub fn resonance_radius(j: u32, k: u32, a_planet: f64) -> f64 {
    a_planet * (k as f64 / j as f64).powf(2.0 / 3.0)
}

/// Histogram of collisions against heliocentric distance (Fig. 12).
#[derive(Clone, Debug)]
pub struct CollisionProfile {
    /// Inner edge of the histogram.
    pub r_min: f64,
    /// Outer edge of the histogram.
    pub r_max: f64,
    /// Per-bin collision counts.
    pub bins: Vec<u64>,
    /// Total collisions recorded.
    pub total: u64,
}

impl CollisionProfile {
    /// An empty profile with `n_bins` radial bins.
    pub fn new(r_min: f64, r_max: f64, n_bins: usize) -> CollisionProfile {
        CollisionProfile { r_min, r_max, bins: vec![0; n_bins], total: 0 }
    }

    /// Records one collision at heliocentric distance `r`.
    pub fn record(&mut self, r: f64) {
        self.total += 1;
        if r < self.r_min || r >= self.r_max || self.bins.is_empty() {
            return;
        }
        let t = (r - self.r_min) / (self.r_max - self.r_min);
        let idx = ((t * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Bin centres, for plotting.
    pub fn bin_centers(&self) -> Vec<f64> {
        let w = (self.r_max - self.r_min) / self.bins.len().max(1) as f64;
        (0..self.bins.len()).map(|i| self.r_min + (i as f64 + 0.5) * w).collect()
    }
}

/// The disk-evolution driver: per step, one gravity traversal + one
/// collision traversal in the same framework step, leapfrog integration,
/// and perfect-merger resolution of detected collisions.
pub struct DiskSimulation {
    /// Framework over the disk particles.
    pub framework: Framework<DiskData>,
    /// Timestep.
    pub dt: f64,
    /// Opening angle for gravity.
    pub theta: f64,
    /// Mass of the central star (particle 0), for orbital periods.
    pub star_mass: f64,
    /// All collisions recorded so far.
    pub events: Vec<CollisionEvent>,
    first_step: bool,
}

impl DiskSimulation {
    /// A simulation over `particles` (particle 0 must be the star).
    pub fn new(config: Configuration, particles: Vec<Particle>, dt: f64) -> DiskSimulation {
        let star_mass = particles.first().map(|p| p.mass).unwrap_or(1.0);
        DiskSimulation {
            framework: Framework::new(config, particles),
            dt,
            theta: 0.7,
            star_mass,
            events: Vec::new(),
            first_step: true,
        }
    }

    /// Advances one step; returns the collisions detected in it.
    pub fn step(&mut self) -> Vec<CollisionEvent> {
        let dt = self.dt;
        let theta = self.theta;
        // Leapfrog: complete the previous step's kick, drift, then
        // compute new accelerations and kick again.
        if !self.first_step {
            for p in self.framework.particles_mut().iter_mut() {
                p.vel += p.acc * (0.5 * dt);
                p.pos += p.vel * dt;
            }
        }
        self.first_step = false;
        for p in self.framework.particles_mut().iter_mut() {
            p.acc = Vec3::ZERO;
            p.potential = 0.0;
        }

        let gravity = DiskGravityVisitor { theta };
        let collisions = CollisionVisitor { dt };
        let (step_events, _report) = self.framework.step(|step| {
            step.traverse(&gravity, TraversalKind::TopDown);
            let (states, _) = step.traverse(&collisions, TraversalKind::TopDown);
            let mut evs: Vec<CollisionEvent> = states.into_iter().flatten().collect();
            evs.sort_by(|x, y| x.a.cmp(&y.a).then(x.b.cmp(&y.b)));
            evs.dedup_by(|x, y| x.a == y.a && x.b == y.b);
            evs
        });

        for p in self.framework.particles_mut().iter_mut() {
            p.vel += p.acc * (0.5 * dt);
        }

        // Resolve collisions by perfect merger (momentum conserving).
        // Only *resolved* events are recorded and returned: a detected
        // pair whose body already merged this step is skipped, and the
        // survivors are re-detected next step if they still overlap.
        let step_events = if step_events.is_empty() {
            step_events
        } else {
            merge(self.framework.particles_mut(), &step_events)
        };
        self.events.extend(step_events.iter().copied());
        step_events
    }

    /// The collision profile over the recorded events.
    pub fn profile(&self, r_min: f64, r_max: f64, bins: usize) -> CollisionProfile {
        let mut prof = CollisionProfile::new(r_min, r_max, bins);
        for ev in &self.events {
            prof.record(ev.radius);
        }
        prof
    }
}

/// Resolves `events` in order by perfect merger: `b` joins `a` unless
/// either was absorbed earlier in the list (one merger per absorbed body
/// per step; a body that absorbs may absorb again). Returns the events
/// resolved and drops the absorbed bodies, in O(bodies + events).
fn merge(particles: &mut Vec<Particle>, events: &[CollisionEvent]) -> Vec<CollisionEvent> {
    let index: HashMap<u64, usize> = particles.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
    let mut absorbed = vec![false; particles.len()];
    let mut resolved = Vec::with_capacity(events.len());
    for ev in events {
        let (Some(&ia), Some(&ib)) = (index.get(&ev.a), index.get(&ev.b)) else { continue };
        if absorbed[ia] || absorbed[ib] {
            continue;
        }
        let b = particles[ib];
        let a = &mut particles[ia];
        let m = a.mass + b.mass;
        a.vel = (a.vel * a.mass + b.vel * b.mass) / m;
        a.pos = (a.pos * a.mass + b.pos * b.mass) / m;
        a.radius = (a.radius.powi(3) + b.radius.powi(3)).cbrt();
        a.mass = m;
        absorbed[ib] = true;
        resolved.push(*ev);
    }
    let mut kept = absorbed.iter().map(|&gone| !gone);
    particles.retain(|_| kept.next().expect("one flag per body"));
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::gen::{self, DiskParams};
    use paratreet_tree::TreeType;

    #[test]
    fn resonances_match_paper_locations() {
        // Planet at 5.2 AU: 2:1 resonance "at 3.27 AU" (§IV-A).
        assert!((resonance_radius(2, 1, 5.2) - 3.27).abs() < 0.01);
        assert!((resonance_radius(3, 1, 5.2) - 2.50).abs() < 0.01);
        assert!((resonance_radius(5, 3, 5.2) - 3.70).abs() < 0.01);
    }

    #[test]
    fn pair_collision_detection() {
        let mut a = Particle::point_mass(0, 1.0, Vec3::ZERO);
        let mut b = Particle::point_mass(1, 1.0, Vec3::new(1.0, 0.0, 0.0));
        a.radius = 0.1;
        b.radius = 0.1;
        // Static and apart: no collision.
        assert!(CollisionVisitor::pair_collides(&a, &b, 1.0).is_none());
        // Approaching head-on: collides within the step.
        b.vel = Vec3::new(-1.0, 0.0, 0.0);
        let (t, _r) = CollisionVisitor::pair_collides(&a, &b, 1.0).unwrap();
        assert!(t > 0.0 && t <= 1.0);
        // Approaching but step too short: no collision yet.
        assert!(CollisionVisitor::pair_collides(&a, &b, 0.1).is_none());
        // Already overlapping: collides at t = 0.
        let c = Particle { pos: Vec3::new(0.15, 0.0, 0.0), radius: 0.1, ..a };
        let (t0, _) = CollisionVisitor::pair_collides(&a, &c, 1.0).unwrap();
        assert_eq!(t0, 0.0);
    }

    #[test]
    fn traversal_finds_all_crossing_pairs() {
        // A ring of co-orbital particles with two deliberately
        // overlapping pairs; the traversal must find exactly those.
        let mut ps = gen::keplerian_disk(400, 21, DiskParams::default());
        // Create two overlapping pairs with huge radii.
        ps[10].radius = 0.2;
        ps[11].pos = ps[10].pos + Vec3::new(0.05, 0.0, 0.0);
        ps[11].vel = ps[10].vel;
        ps[11].radius = 0.2;
        ps[50].radius = 0.15;
        ps[51].pos = ps[50].pos + Vec3::new(0.01, 0.0, 0.0);
        ps[51].vel = ps[50].vel;
        ps[51].radius = 0.15;
        let expect: Vec<(u64, u64)> = vec![
            (ps[10].id.min(ps[11].id), ps[10].id.max(ps[11].id)),
            (ps[50].id.min(ps[51].id), ps[50].id.max(ps[51].id)),
        ];

        // Brute-force reference over all pairs.
        let dt = 1e-3;
        let mut brute: Vec<(u64, u64)> = Vec::new();
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                if CollisionVisitor::pair_collides(&ps[i], &ps[j], dt).is_some() {
                    brute.push((ps[i].id.min(ps[j].id), ps[i].id.max(ps[j].id)));
                }
            }
        }
        brute.sort_unstable();

        let config = Configuration {
            tree_type: TreeType::LongestDim,
            decomp_type: paratreet_core::DecompType::LongestDim,
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Default::default()
        };
        let mut fw: Framework<DiskData> = Framework::new(config, ps);
        let v = CollisionVisitor { dt };
        let (mut found, _) = fw.step(|step| {
            let (states, _) = step.traverse(&v, TraversalKind::TopDown);
            let evs: Vec<(u64, u64)> =
                states.into_iter().flatten().map(|e| (e.a.min(e.b), e.a.max(e.b))).collect();
            evs
        });
        found.sort_unstable();
        found.dedup();
        assert_eq!(found, brute);
        for pair in expect {
            assert!(found.contains(&pair), "missing expected pair {pair:?}");
        }
    }

    #[test]
    fn incremental_maintenance_survives_mergers() {
        // The collision driver *removes* particles on merger, so the
        // maintained tree's population changes under it; the maintainer
        // must fall back to a rebuild instead of patching (or dying).
        let mut ps = gen::keplerian_disk(300, 21, DiskParams::default());
        for (i, j) in [(10usize, 11usize), (50, 51), (120, 121)] {
            ps[i].radius = 0.2;
            ps[j].pos = ps[i].pos + Vec3::new(0.03, 0.0, 0.0);
            ps[j].vel = ps[i].vel;
            ps[j].radius = 0.2;
        }
        let total_mass: f64 = ps.iter().map(|p| p.mass).sum();
        let n0 = ps.len();
        let mut config = Configuration {
            tree_type: TreeType::LongestDim,
            decomp_type: paratreet_core::DecompType::LongestDim,
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Default::default()
        };
        config.incremental.enabled = true;
        let dt = orbital_period(2.0, ps[0].mass) / 100.0;
        let mut sim = DiskSimulation::new(config, ps, dt);
        for _ in 0..4 {
            sim.step();
        }
        assert!(!sim.events.is_empty(), "engineered overlaps must merge");
        assert_eq!(sim.framework.particles().len(), n0 - sim.events.len());
        let mass_after: f64 = sim.framework.particles().iter().map(|p| p.mass).sum();
        assert!((mass_after - total_mass).abs() < 1e-9 * total_mass, "mergers conserve mass");
    }

    #[test]
    fn disk_data_wire_roundtrip() {
        let ps = gen::keplerian_disk(50, 3, DiskParams::default());
        let d = DiskData::from_leaf(&ps, &BoundingBox::empty());
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let (back, used) = DiskData::decode(&buf).unwrap();
        assert_eq!(back, d);
        assert_eq!(used, buf.len());
        assert!(d.max_radius > 0.0);
        assert!(d.max_speed > 0.0);
    }

    #[test]
    fn merger_conserves_mass_and_momentum() {
        let params = DiskParams::default();
        let ps = gen::keplerian_disk(100, 9, params);
        let config = Configuration {
            tree_type: TreeType::LongestDim,
            decomp_type: paratreet_core::DecompType::LongestDim,
            bucket_size: 8,
            ..Default::default()
        };
        let mut sim = DiskSimulation::new(config, ps, 1e-3);
        // Force a merger by overlapping two planetesimals.
        {
            let parts = sim.framework.particles_mut();
            let p5 = parts[5];
            parts[6].pos = p5.pos;
            parts[6].vel = p5.vel;
        }
        let mass_before: f64 = sim.framework.particles().iter().map(|p| p.mass).sum();
        let mom_before: Vec3 =
            sim.framework.particles().iter().map(|p| p.vel * p.mass).fold(Vec3::ZERO, |a, v| a + v);
        let n_before = sim.framework.particles().len();
        let events = sim.step();
        assert!(!events.is_empty(), "overlapping bodies must collide");
        let n_after = sim.framework.particles().len();
        assert!(n_after < n_before);
        let mass_after: f64 = sim.framework.particles().iter().map(|p| p.mass).sum();
        assert!((mass_after - mass_before).abs() < 1e-12);
        // Momentum changes only by the gravity kick, which is equal and
        // opposite pairwise; compare against a fresh momentum sum with
        // generous tolerance (the star dominates).
        let mom_after: Vec3 =
            sim.framework.particles().iter().map(|p| p.vel * p.mass).fold(Vec3::ZERO, |a, v| a + v);
        assert!((mom_after - mom_before).norm() < 1e-2 * mom_before.norm().max(1.0));
    }

    #[test]
    fn profile_bins_collisions() {
        let mut prof = CollisionProfile::new(2.0, 4.0, 4);
        prof.record(2.1);
        prof.record(2.4);
        prof.record(3.9);
        prof.record(5.0); // outside: counted in total only
        assert_eq!(prof.total, 4);
        assert_eq!(prof.bins, vec![2, 0, 0, 1]);
        assert_eq!(prof.bin_centers().len(), 4);
        assert!((prof.bin_centers()[0] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn disk_orbits_remain_bound_over_steps() {
        let params = DiskParams::default();
        let ps = gen::keplerian_disk(200, 13, params);
        let config = Configuration {
            tree_type: TreeType::LongestDim,
            decomp_type: paratreet_core::DecompType::LongestDim,
            bucket_size: 16,
            n_subtrees: 4,
            n_partitions: 4,
            ..Default::default()
        };
        // dt ~ 1/100 of the inner orbital period.
        let dt = orbital_period(params.r_in, params.star_mass) / 100.0;
        let mut sim = DiskSimulation::new(config, ps, dt);
        for _ in 0..20 {
            sim.step();
        }
        // No planetesimal should have been ejected or fallen into the
        // star over 20 small steps. (The framework reorders particles
        // into tree order, so select planetesimals by id, not position.)
        for p in sim.framework.particles().iter().filter(|p| p.id >= 2) {
            let r = (p.pos.x * p.pos.x + p.pos.y * p.pos.y).sqrt();
            assert!(r > 1.0 && r < 10.0, "planetesimal at r = {r}");
        }
    }

    /// The leaf before per-body pruning, kept as the reference the pruned
    /// one must equal bucket by bucket: every (target, source) pair of an
    /// opened bucket reaches the closest-approach test.
    struct UnprunedCollision {
        dt: f64,
    }

    impl Visitor for UnprunedCollision {
        type Data = DiskData;
        type State = Vec<CollisionEvent>;
        type Prepared = ();
        type PerTarget = BoundingBox;

        fn prepare(&self, _source: &SpatialNodeView<'_, DiskData>) {}

        fn prepare_target(&self, particles: &[Particle]) -> BoundingBox {
            let mut b = BoundingBox::empty();
            for p in particles {
                let margin = Vec3::splat(p.radius);
                b.merge(&BoundingBox::new(p.pos - margin, p.pos + margin));
                let moved = p.pos + p.vel * self.dt;
                b.merge(&BoundingBox::new(moved - margin, moved + margin));
            }
            b
        }

        fn open(
            &self,
            source: &SpatialNodeView<'_, DiskData>,
            _: &(),
            target: &TargetBucket<Vec<CollisionEvent>, BoundingBox>,
        ) -> bool {
            if source.data.centroid.sum_mass == 0.0 {
                return false;
            }
            let margin = source.data.max_radius + source.data.max_speed * self.dt;
            let mut src = source.data.centroid.tight_box;
            src.lo -= Vec3::splat(margin);
            src.hi += Vec3::splat(margin);
            src.intersects(&target.prepared)
        }

        fn node(
            &self,
            _s: &SpatialNodeView<'_, DiskData>,
            _: &(),
            _t: &mut TargetSpan<'_, Vec<CollisionEvent>, BoundingBox>,
        ) {
        }

        fn leaf(
            &self,
            source: &SpatialNodeView<'_, DiskData>,
            _: &(),
            targets: &mut TargetSpan<'_, Vec<CollisionEvent>, BoundingBox>,
        ) {
            for (particles, target) in targets.buckets() {
                for tp in particles {
                    for sp in source.particles {
                        if sp.id <= tp.id {
                            continue;
                        }
                        if let Some((t, radius)) = CollisionVisitor::pair_collides(tp, sp, self.dt)
                        {
                            target.state.push(CollisionEvent { a: tp.id, b: sp.id, t, radius });
                        }
                    }
                }
            }
        }
    }

    /// A disk whose bodies are `scale` times their physical size, so
    /// neighbouring orbits overlap and a step detects many collisions.
    fn inflated_disk(n: usize, seed: u64, scale: f64) -> Vec<Particle> {
        let mut params = DiskParams::default();
        params.body_radius *= scale;
        gen::keplerian_disk(n, seed, params)
    }

    fn disk_config(tree_type: TreeType, bucket_size: usize) -> Configuration {
        Configuration {
            tree_type,
            decomp_type: paratreet_core::DecompType::LongestDim,
            bucket_size,
            n_subtrees: 8,
            n_partitions: 8,
            ..Default::default()
        }
    }

    /// Every event of one collision traversal, in (a, b) order.
    fn traversal_events(fw: &mut Framework<DiskData>, dt: f64) -> Vec<CollisionEvent> {
        let (mut evs, _) = fw.step(|step| {
            let (states, _) = step.traverse(&CollisionVisitor { dt }, TraversalKind::TopDown);
            states.into_iter().flatten().collect::<Vec<_>>()
        });
        evs.sort_by_key(|e| (e.a, e.b));
        evs
    }

    /// Every colliding pair by brute force, tested as the leaf tests it
    /// (lower id first), in (a, b) order.
    fn brute_force_events(ps: &[Particle], dt: f64) -> Vec<CollisionEvent> {
        let mut by_id = ps.to_vec();
        by_id.sort_by_key(|p| p.id);
        let mut evs = Vec::new();
        for (i, a) in by_id.iter().enumerate() {
            for b in &by_id[i + 1..] {
                if let Some((t, radius)) = CollisionVisitor::pair_collides(a, b, dt) {
                    evs.push(CollisionEvent { a: a.id, b: b.id, t, radius });
                }
            }
        }
        evs
    }

    #[test]
    fn pruned_leaf_matches_brute_force_on_every_tree() {
        let ps = inflated_disk(1500, 5, 2e5);
        let period = orbital_period(2.0, 1.0);
        for tree_type in [TreeType::LongestDim, TreeType::Octree, TreeType::KdTree] {
            for dt in [period / 200.0, period / 20.0] {
                let expect = brute_force_events(&ps, dt);
                assert!(expect.len() > 20, "too few collisions to test: {}", expect.len());
                let mut fw = Framework::new(disk_config(tree_type, 16), ps.clone());
                assert_eq!(traversal_events(&mut fw, dt), expect, "{tree_type:?}, dt {dt}");
            }
        }
        // A maintained tree patched over a few drifts: buckets no longer
        // tight around their bodies, leaves of uneven size.
        let mut config = disk_config(TreeType::LongestDim, 16);
        config.incremental.enabled = true;
        let dt = period / 100.0;
        let mut fw = Framework::new(config, ps);
        for _ in 0..4 {
            for p in fw.particles_mut().iter_mut() {
                p.pos += p.vel * dt;
            }
            let expect = brute_force_events(fw.particles(), dt);
            assert_eq!(traversal_events(&mut fw, dt), expect, "maintained tree");
        }
    }

    #[test]
    fn pruned_leaf_keeps_each_buckets_event_order() {
        // Small and large leaves: the kept source list is rebuilt per bucket.
        let ps = inflated_disk(2000, 8, 1e5);
        let dt = orbital_period(2.0, 1.0) / 50.0;
        for bucket_size in [16, 150] {
            let mut fw = Framework::new(disk_config(TreeType::LongestDim, bucket_size), ps.clone());
            let (pruned, unpruned) = fw
                .step(|step| {
                    let kind = TraversalKind::TopDown;
                    let (pruned, _) = step.traverse(&CollisionVisitor { dt }, kind);
                    let (unpruned, _) = step.traverse(&UnprunedCollision { dt }, kind);
                    (pruned, unpruned)
                })
                .0;
            assert!(pruned.iter().filter(|evs| evs.len() > 1).count() > 10);
            assert_eq!(pruned, unpruned, "bucket size {bucket_size}");
        }
    }

    #[test]
    fn bodies_touching_at_a_face_are_pair_tested() {
        // Two leaves of two bodies along x, radius 1/2, at rest: every
        // coordinate is dyadic. Body 1 (x = 0) and body 2 (x = 1) are
        // exactly `rsum` apart, body 1's box [-1/2, 1/2] shares the face
        // x = 1/2 with the source leaf's inflated box [1/2, 9/2]. A strict
        // comparison in the target skip loses the pair.
        let body = |id: u64, x: f64| Particle {
            id,
            mass: 1.0,
            pos: Vec3::new(x, 0.0, 0.0),
            radius: 0.5,
            ..Particle::default()
        };
        let ps = vec![body(0, -3.0), body(1, 0.0), body(2, 1.0), body(3, 4.0)];
        let config =
            Configuration { n_subtrees: 1, n_partitions: 1, ..disk_config(TreeType::KdTree, 2) };
        let mut fw = Framework::new(config, ps);
        assert_eq!(fw.step(|step| step.bucket_particle_ids()).0, vec![vec![0, 1], vec![2, 3]]);
        let evs = traversal_events(&mut fw, 1.0);
        assert_eq!(evs, vec![CollisionEvent { a: 1, b: 2, t: 0.0, radius: 0.0 }]);
    }

    /// `merge` as it was: a linear scan per id and per absorbed check.
    fn quadratic_merge(
        particles: &mut Vec<Particle>,
        events: &[CollisionEvent],
    ) -> Vec<CollisionEvent> {
        let mut absorbed: Vec<u64> = Vec::new();
        let mut resolved = Vec::with_capacity(events.len());
        for ev in events {
            if absorbed.contains(&ev.a) || absorbed.contains(&ev.b) {
                continue;
            }
            let ib = particles.iter().position(|p| p.id == ev.b);
            let ia = particles.iter().position(|p| p.id == ev.a);
            if let (Some(ia), Some(ib)) = (ia, ib) {
                let b = particles[ib];
                let a = &mut particles[ia];
                let m = a.mass + b.mass;
                a.vel = (a.vel * a.mass + b.vel * b.mass) / m;
                a.pos = (a.pos * a.mass + b.pos * b.mass) / m;
                a.radius = (a.radius.powi(3) + b.radius.powi(3)).cbrt();
                a.mass = m;
                absorbed.push(ev.b);
                resolved.push(*ev);
            }
        }
        particles.retain(|p| !absorbed.contains(&p.id));
        resolved
    }

    #[test]
    fn linear_merge_matches_the_quadratic_reference() {
        let ps = inflated_disk(600, 3, 3e5);
        let ev = |a: u64, b: u64| CollisionEvent { a, b, t: 0.0, radius: 0.0 };
        // A chain: 2 absorbs 3, so (3, 4) and (3, 5) are skipped; 2 goes
        // on to absorb 4; 5 absorbs 6, then (4, 5) is skipped; an id no
        // body has is skipped; 7 absorbs 8 after 8 absorbed 9.
        let chain = vec![
            ev(2, 3),
            ev(3, 4),
            ev(3, 5),
            ev(2, 4),
            ev(5, 6),
            ev(4, 5),
            ev(5, 9999),
            ev(8, 9),
            ev(7, 8),
        ];
        // Merger-heavy: every pair of the inflated disk that collides
        // over a long step, in (a, b) order.
        let heavy = brute_force_events(&ps, orbital_period(2.0, 1.0) / 5.0);
        assert!(heavy.len() > 100, "{} events", heavy.len());
        for events in [chain, heavy] {
            let (mut linear, mut quadratic) = (ps.clone(), ps.clone());
            let resolved = merge(&mut linear, &events);
            assert_eq!(resolved, quadratic_merge(&mut quadratic, &events));
            assert!(resolved.len() < events.len(), "some events must be skipped");
            assert_eq!(linear, quadratic);
        }
    }
}
