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
/// swept-box overlap pruning above (the "finite radius" test of §IV-A).
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

    /// A bucket's swept, radius-inflated bounding box.
    fn swept_box(particles: &[Particle], dt: f64) -> BoundingBox {
        let mut b = BoundingBox::empty();
        for p in particles {
            let margin = Vec3::splat(p.radius);
            b.merge(&BoundingBox::new(p.pos - margin, p.pos + margin));
            let moved = p.pos + p.vel * dt;
            b.merge(&BoundingBox::new(moved - margin, moved + margin));
        }
        b
    }
}

impl Visitor for CollisionVisitor {
    type Data = DiskData;
    type State = Vec<CollisionEvent>;
    type Prepared = ();
    /// The bucket's swept box: every `open` of the bucket tests it.
    type PerTarget = BoundingBox;

    fn prepare(&self, _source: &SpatialNodeView<'_, DiskData>) {}

    fn prepare_target(&self, particles: &[Particle]) -> BoundingBox {
        Self::swept_box(particles, self.dt)
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
        // Inflate the source's tight box by its worst-case sweep and
        // body radius; test against the target's swept box.
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
        // A pruned subtree cannot collide with these buckets.
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
        let step_events =
            if step_events.is_empty() { step_events } else { self.merge(&step_events) };
        self.events.extend(step_events.iter().copied());
        step_events
    }

    fn merge(&mut self, events: &[CollisionEvent]) -> Vec<CollisionEvent> {
        let particles = self.framework.particles_mut();
        let mut absorbed: Vec<u64> = Vec::new();
        let mut resolved = Vec::with_capacity(events.len());
        for ev in events {
            if absorbed.contains(&ev.a) || absorbed.contains(&ev.b) {
                continue; // one merger per body per step
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

    /// The collision profile over the recorded events.
    pub fn profile(&self, r_min: f64, r_max: f64, bins: usize) -> CollisionProfile {
        let mut prof = CollisionProfile::new(r_min, r_max, bins);
        for ev in &self.events {
            prof.record(ev.radius);
        }
        prof
    }
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
}
