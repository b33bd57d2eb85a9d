//! Barnes-Hut gravity — the paper's flagship application (Figs. 6–8).
//!
//! `CentroidData` accumulates mass moments from the leaves to the root
//! (the paper's Fig. 6, extended with the quadrupole term its "more
//! sophisticated gravity solver" tracks); `GravityVisitor` opens nodes by
//! sphere–box intersection against the node's opening radius and applies
//! `gravApprox`/`gravExact` kernels (Fig. 7). A complete N-body step is
//! ~100 lines of user code — that is the productivity claim of Table III.

use crate::lanes::{width, X1};
use paratreet_core::{Lane, SpatialNodeView, TargetBucket, TargetLanes, TargetSpan, Visitor};
use paratreet_geometry::{BoundingBox, Sphere, Vec3};
use paratreet_particles::Particle;
use paratreet_tree::data::wire;
use paratreet_tree::Data;

/// Mass moments of a subtree: monopole (centroid) plus raw quadrupole,
/// and the tight box of the subtree's particles.
///
/// Second moments are accumulated about the coordinate origin
/// (`quad[ij] = Σ m xᵢ xⱼ`) so that child states merge by plain
/// addition; the traversal shifts them to the centroid on use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CentroidData {
    /// Σ m·x — first mass moment.
    pub moment: Vec3,
    /// Σ m.
    pub sum_mass: f64,
    /// Raw second moments about the origin, packed
    /// `[xx, xy, xz, yy, yz, zz]`.
    pub quad: [f64; 6],
    /// Tight bounding box of the subtree's particles.
    pub tight_box: BoundingBox,
}

impl CentroidData {
    /// Mass-weighted centroid (origin for an empty subtree).
    pub fn centroid(&self) -> Vec3 {
        if self.sum_mass == 0.0 {
            Vec3::ZERO
        } else {
            self.moment / self.sum_mass
        }
    }

    /// Quadrupole tensor about the centroid, packed like `quad`.
    pub fn quad_about_centroid(&self) -> [f64; 6] {
        let c = self.centroid();
        let m = self.sum_mass;
        [
            self.quad[0] - m * c.x * c.x,
            self.quad[1] - m * c.x * c.y,
            self.quad[2] - m * c.x * c.z,
            self.quad[3] - m * c.y * c.y,
            self.quad[4] - m * c.y * c.z,
            self.quad[5] - m * c.z * c.z,
        ]
    }

    /// The opening radius: the farthest distance from the centroid to a
    /// corner of the subtree's tight box, divided by θ. A target bucket
    /// inside this sphere must open the node (ChaNGa's criterion).
    pub fn opening_radius(&self, theta: f64) -> f64 {
        if self.tight_box.is_empty() {
            return 0.0;
        }
        let rmax = self.tight_box.max_dist_sq_to(self.centroid()).sqrt();
        rmax / theta
    }
}

impl Data for CentroidData {
    fn from_leaf(particles: &[Particle], _bbox: &BoundingBox) -> Self {
        let mut d = CentroidData::default();
        for p in particles {
            d.moment += p.pos * p.mass;
            d.sum_mass += p.mass;
            d.quad[0] += p.mass * p.pos.x * p.pos.x;
            d.quad[1] += p.mass * p.pos.x * p.pos.y;
            d.quad[2] += p.mass * p.pos.x * p.pos.z;
            d.quad[3] += p.mass * p.pos.y * p.pos.y;
            d.quad[4] += p.mass * p.pos.y * p.pos.z;
            d.quad[5] += p.mass * p.pos.z * p.pos.z;
            d.tight_box.grow(p.pos);
        }
        d
    }

    fn merge(&mut self, child: &Self) {
        self.moment += child.moment;
        self.sum_mass += child.sum_mass;
        for i in 0..6 {
            self.quad[i] += child.quad[i];
        }
        self.tight_box.merge(&child.tight_box);
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_vec3(out, self.moment);
        wire::put_f64(out, self.sum_mass);
        for q in self.quad {
            wire::put_f64(out, q);
        }
        wire::put_vec3(out, self.tight_box.lo);
        wire::put_vec3(out, self.tight_box.hi);
    }

    fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let mut off = 0;
        let moment = wire::get_vec3(input, &mut off)?;
        let sum_mass = wire::get_f64(input, &mut off)?;
        let mut quad = [0.0; 6];
        for q in &mut quad {
            *q = wire::get_f64(input, &mut off)?;
        }
        let lo = wire::get_vec3(input, &mut off)?;
        let hi = wire::get_vec3(input, &mut off)?;
        Some((CentroidData { moment, sum_mass, quad, tight_box: BoundingBox { lo, hi } }, off))
    }
}

/// What the gravity callbacks derive from a source node alone: the
/// traversal computes it once per work item ([`Visitor::prepare`]) and
/// every bucket that meets the node reads it.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMoments {
    /// The opening sphere: centred on the centroid, reaching
    /// [`CentroidData::opening_radius`].
    pub opening: Sphere,
    /// Σ m.
    pub mass: f64,
    /// Quadrupole tensor about the centroid, packed `[xx,xy,xz,yy,yz,zz]`.
    pub quad: [f64; 6],
}

impl NodeMoments {
    /// The moments of `data` as a traversal with opening angle `theta`
    /// uses them.
    pub fn of(data: &CentroidData, theta: f64) -> NodeMoments {
        NodeMoments {
            opening: Sphere::new(data.centroid(), data.opening_radius(theta)),
            mass: data.sum_mass,
            quad: data.quad_about_centroid(),
        }
    }

    /// The Barnes-Hut opening criterion: a target whose box reaches into
    /// the opening sphere must descend below the node.
    pub fn opens(&self, target: &BoundingBox) -> bool {
        self.mass != 0.0 && target.intersects_sphere(&self.opening)
    }
}

/// Exact Newtonian attraction of a source point on a target position,
/// Plummer-softened: returns (acceleration, potential) per unit G.
#[inline]
pub fn grav_exact(target: Vec3, src_pos: Vec3, src_mass: f64, softening: f64) -> (Vec3, f64) {
    let target = [target.x, target.y, target.z].map(X1::splat);
    let (acc, pot) = x1::exact(target, src_pos, src_mass, X1::splat(softening));
    let ([[x], [y], [z]], [pot]) = (acc.map(X1::to_array), pot.to_array());
    (Vec3::new(x, y, z), pot)
}

/// Monopole + quadrupole approximation of a node's attraction on a
/// target position: returns (acceleration, potential) per unit G.
/// `quad` is the tensor about `centroid`, packed `[xx,xy,xz,yy,yz,zz]`.
#[inline]
pub fn grav_approx(target: Vec3, centroid: Vec3, mass: f64, quad: &[f64; 6]) -> (Vec3, f64) {
    let target = [target.x, target.y, target.z].map(X1::splat);
    let (acc, pot) = x1::approx(target, centroid, mass, quad);
    let ([[x], [y], [z]], [pot]) = (acc.map(X1::to_array), pot.to_array());
    (Vec3::new(x, y, z), pot)
}

/// The target lanes the gravity kernels read and accumulate into:
/// [`Visitor::LANES`] of a visitor that calls [`apply_node`] /
/// [`apply_leaf`].
pub const LANES: TargetLanes = TargetLanes {
    reads: &[Lane::PosX, Lane::PosY, Lane::PosZ, Lane::Mass, Lane::Softening, Lane::Id],
    writes: &[Lane::AccX, Lane::AccY, Lane::AccZ, Lane::Potential],
};

/// A span's stretch of the gravity lanes, each slice reaching to a whole
/// group past the `live` targets.
struct SpanLanes<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    mass: &'a [f64],
    softening: &'a [f64],
    id: &'a [f64],
    ax: &'a mut [f64],
    ay: &'a mut [f64],
    az: &'a mut [f64],
    pot: &'a mut [f64],
    live: usize,
}

impl<'a> SpanLanes<'a> {
    fn of<S, T>(targets: &'a mut TargetSpan<'_, S, T>) -> SpanLanes<'a> {
        let ([x, y, z, mass, softening, id], [ax, ay, az, pot], live) = targets.lanes();
        SpanLanes { x, y, z, mass, softening, id, ax, ay, az, pot, live }
    }
}

/// Adds a pruned node's attraction to every particle of a span of
/// targets: `acc += a·g`, `potential += φ·g·m` with `(a, φ)` from
/// [`grav_approx`], eight or four targets per instruction where the CPU
/// has AVX-512F or AVX2 ([`width`]).
pub fn apply_node<S, T>(node: &NodeMoments, targets: &mut TargetSpan<'_, S, T>, g: f64) {
    node_span_at(width(), node, SpanLanes::of(targets), g)
}

/// Adds the exact attraction of every source particle to every particle
/// of a span of targets, skipping a particle's attraction on itself:
/// `acc += a·g`, `potential += φ·g·m` with `(a, φ)` from [`grav_exact`]
/// under the larger of the pair's softenings. Each target sees the
/// sources in slice order; eight or four targets per instruction where
/// the CPU has AVX-512F or AVX2 ([`width`]).
pub fn apply_leaf<S, T>(sources: &[Particle], targets: &mut TargetSpan<'_, S, T>, g: f64) {
    leaf_span_at(width(), sources, SpanLanes::of(targets), g)
}

/// [`apply_node`]'s kernel on `lanes` lanes: the CPU's [`width`], or in
/// the identity tests any width up to it.
fn node_span_at(lanes: usize, node: &NodeMoments, t: SpanLanes<'_>, g: f64) {
    assert!(lanes <= width(), "{lanes} lanes on a CPU that runs {}", width());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `lanes` is at most `width()` (asserted above), which is 8
    // only where the CPU has AVX-512F and AVX2, and 4 only where it has
    // AVX2.
    unsafe {
        match lanes {
            8 => return x8::node_span(node, t, g),
            4 => return x4::node_span(node, t, g),
            _ => {}
        }
    }
    x1::node_span(node, t, g)
}

/// [`apply_leaf`]'s kernel on `lanes` lanes, as [`node_span_at`].
fn leaf_span_at(lanes: usize, sources: &[Particle], t: SpanLanes<'_>, g: f64) {
    assert!(lanes <= width(), "{lanes} lanes on a CPU that runs {}", width());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `lanes` is at most `width()` (asserted above), which is 8
    // only where the CPU has AVX-512F and AVX2, and 4 only where it has
    // AVX2.
    unsafe {
        match lanes {
            8 => return x8::leaf_span(sources, t, g),
            4 => return x4::leaf_span(sources, t, g),
            _ => {}
        }
    }
    x1::leaf_span(sources, t, g)
}

/// The gravity kernels, written once over a lane type of
/// [`crate::lanes`] and instantiated per type below. The lanes are
/// target particles: consecutive values of a span's columns, group by
/// group, whichever bucket they belong to. Every operation is spelled as
/// a lane method, in the order the per-pair kernels always evaluated
/// them, so each lane of each instantiation carries the same bits (the
/// contract in `lanes`); `r² = 0` and "source is the target" are blends,
/// with a shortcut to the same zeros when `r² = 0` in every lane. A
/// short last group is computed full-width — its dead lanes hold
/// whatever follows the span — and stored back in its live lanes only.
macro_rules! bucket_kernels {
    ($X:ident, $Ids:ident $(, #[$attr:meta])?) => {
        use super::{NodeMoments, SpanLanes};

        // A group of lanes must fit the padding a span's slices carry.
        const _: () = assert!($X::LANES <= paratreet_core::LANE_GROUP);
        use crate::lanes::{$Ids, $X};
        use paratreet_geometry::Vec3;
        use paratreet_particles::Particle;

        /// `grav_exact` per lane.
        #[inline]
        $(#[$attr])?
        pub(super) fn exact(
            target: [$X; 3],
            src_pos: Vec3,
            src_mass: f64,
            softening: $X,
        ) -> ([$X; 3], $X) {
            let mass = $X::splat(src_mass);
            let dx = $X::splat(src_pos.x).sub(target[0]);
            let dy = $X::splat(src_pos.y).sub(target[1]);
            let dz = $X::splat(src_pos.z).sub(target[2]);
            let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz)).add(softening.mul(softening));
            if r2.all_zero() {
                return ([$X::splat(0.0); 3], $X::splat(0.0));
            }
            let r = r2.sqrt();
            let inv_r3 = $X::splat(1.0).div(r2.mul(r));
            let s = mass.mul(inv_r3);
            let acc = [dx.mul(s), dy.mul(s), dz.mul(s)];
            let pot = mass.neg().div(r);
            (acc.map(|a| a.zero_where_zero(r2)), pot.zero_where_zero(r2))
        }

        /// `grav_approx` per lane.
        #[inline]
        $(#[$attr])?
        pub(super) fn approx(
            target: [$X; 3],
            centroid: Vec3,
            mass: f64,
            quad: &[f64; 6],
        ) -> ([$X; 3], $X) {
            let mass = $X::splat(mass);
            let q = quad.map(|q| $X::splat(q));
            let dx = target[0].sub($X::splat(centroid.x));
            let dy = target[1].sub($X::splat(centroid.y));
            let dz = target[2].sub($X::splat(centroid.z));
            let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
            if r2.all_zero() {
                return ([$X::splat(0.0); 3], $X::splat(0.0));
            }
            let r = r2.sqrt();
            let inv_r = $X::splat(1.0).div(r);
            let inv_r2 = inv_r.mul(inv_r);
            let inv_r3 = inv_r2.mul(inv_r);
            let inv_r5 = inv_r3.mul(inv_r2);
            let inv_r7 = inv_r5.mul(inv_r2);

            // Monopole.
            let s = mass.mul(inv_r3);
            let mono = [dx.neg().mul(s), dy.neg().mul(s), dz.neg().mul(s)];
            let mut pot = mass.neg().mul(inv_r);

            // Quadrupole (Hernquist 1987 form with the raw second-moment
            // tensor Q about the centroid): φ₂ = −[3 rᵀQr − r² trQ] / (2 r⁵).
            let tr = q[0].add(q[3]).add(q[5]);
            let qx = q[0].mul(dx).add(q[1].mul(dy)).add(q[2].mul(dz));
            let qy = q[1].mul(dx).add(q[3].mul(dy)).add(q[4].mul(dz));
            let qz = q[2].mul(dx).add(q[4].mul(dy)).add(q[5].mul(dz));
            let rqr = dx.mul(qx).add(dy.mul(qy)).add(dz.mul(qz));
            let half = $X::splat(0.5);
            pot = pot.sub($X::splat(3.0).mul(rqr).sub(r2.mul(tr)).mul(half).mul(inv_r5));
            // a = −∇φ₂ = 3Qr/r⁵ − 7.5 (rᵀQr) r/r⁷ + 1.5 trQ r/r⁵.
            let a = $X::splat(3.0).mul(inv_r5);
            let b = $X::splat(7.5).mul(rqr).mul(inv_r7);
            let c = $X::splat(1.5).mul(tr).mul(inv_r5);
            let acc = [
                mono[0].add(qx.mul(a)).sub(dx.mul(b)).add(dx.mul(c)),
                mono[1].add(qy.mul(a)).sub(dy.mul(b)).add(dy.mul(c)),
                mono[2].add(qz.mul(a)).sub(dz.mul(b)).add(dz.mul(c)),
            ];
            (acc.map(|a| a.zero_where_zero(r2)), pot.zero_where_zero(r2))
        }

        /// [`super::apply_node`] on this lane type.
        $(#[$attr])?
        pub(super) fn node_span(node: &NodeMoments, t: SpanLanes<'_>, g: f64) {
            let g = $X::splat(g);
            for i in (0..t.live).step_by($X::LANES) {
                let live = (t.live - i).min($X::LANES);
                let pos = [$X::load(&t.x[i..]), $X::load(&t.y[i..]), $X::load(&t.z[i..])];
                let ([ax, ay, az], pot) = approx(pos, node.opening.center, node.mass, &node.quad);
                let pot = pot.mul(g).mul($X::load(&t.mass[i..]));
                $X::load(&t.ax[i..]).add(ax.mul(g)).store(&mut t.ax[i..], live);
                $X::load(&t.ay[i..]).add(ay.mul(g)).store(&mut t.ay[i..], live);
                $X::load(&t.az[i..]).add(az.mul(g)).store(&mut t.az[i..], live);
                $X::load(&t.pot[i..]).add(pot).store(&mut t.pot[i..], live);
            }
        }

        /// [`super::apply_leaf`] on this lane type: the accumulators of
        /// a group of targets stay in lanes while the sources stream by
        /// in order.
        $(#[$attr])?
        pub(super) fn leaf_span(sources: &[Particle], t: SpanLanes<'_>, g: f64) {
            let g = $X::splat(g);
            for i in (0..t.live).step_by($X::LANES) {
                let live = (t.live - i).min($X::LANES);
                let pos = [$X::load(&t.x[i..]), $X::load(&t.y[i..]), $X::load(&t.z[i..])];
                let softening = $X::load(&t.softening[i..]);
                let mass = $X::load(&t.mass[i..]);
                let ids = $Ids::load(&t.id[i..]);
                let mut ax = $X::load(&t.ax[i..]);
                let mut ay = $X::load(&t.ay[i..]);
                let mut az = $X::load(&t.az[i..]);
                let mut pot = $X::load(&t.pot[i..]);
                for s in sources {
                    let softening = softening.max($X::splat(s.softening));
                    let ([sx, sy, sz], sp) = exact(pos, s.pos, s.mass, softening);
                    // No self-interaction: a target's own lane keeps its sums.
                    ax = ids.select_eq(s.id, ax, ax.add(sx.mul(g)));
                    ay = ids.select_eq(s.id, ay, ay.add(sy.mul(g)));
                    az = ids.select_eq(s.id, az, az.add(sz.mul(g)));
                    pot = ids.select_eq(s.id, pot, pot.add(sp.mul(g).mul(mass)));
                }
                ax.store(&mut t.ax[i..], live);
                ay.store(&mut t.ay[i..], live);
                az.store(&mut t.az[i..], live);
                pot.store(&mut t.pot[i..], live);
            }
        }
    };
}

mod x1 {
    bucket_kernels!(X1, Ids1);
}

#[cfg(target_arch = "x86_64")]
mod x4 {
    bucket_kernels!(X4, Ids4, #[target_feature(enable = "avx2")]);
}

#[cfg(target_arch = "x86_64")]
mod x8 {
    bucket_kernels!(X8, Ids8, #[target_feature(enable = "avx512f")]);
}

/// The Barnes-Hut visitor (paper Fig. 7): sphere–box opening criterion,
/// `grav_approx` on pruned nodes, `grav_exact` on leaves.
pub struct GravityVisitor {
    /// Barnes-Hut opening angle θ (smaller = more accurate, more work).
    pub theta: f64,
    /// Gravitational constant.
    pub g: f64,
}

impl Default for GravityVisitor {
    fn default() -> Self {
        GravityVisitor { theta: 0.7, g: 1.0 }
    }
}

impl Visitor for GravityVisitor {
    type Data = CentroidData;
    type State = ();
    type Prepared = NodeMoments;
    type PerTarget = ();
    const LANES: TargetLanes = LANES;

    fn prepare(&self, source: &SpatialNodeView<'_, CentroidData>) -> NodeMoments {
        NodeMoments::of(source.data, self.theta)
    }

    fn open(
        &self,
        _source: &SpatialNodeView<'_, CentroidData>,
        node: &NodeMoments,
        target: &TargetBucket<()>,
    ) -> bool {
        node.opens(&target.bbox)
    }

    fn node(
        &self,
        _source: &SpatialNodeView<'_, CentroidData>,
        node: &NodeMoments,
        targets: &mut TargetSpan<'_, ()>,
    ) {
        apply_node(node, targets, self.g)
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, CentroidData>,
        _node: &NodeMoments,
        targets: &mut TargetSpan<'_, ()>,
    ) {
        apply_leaf(source.particles, targets, self.g)
    }
}

/// Kick-drift-kick leapfrog integration of accelerations computed by a
/// gravity traversal. `accs_fresh` must hold the accelerations at the
/// *current* positions.
pub fn leapfrog_kick_drift(particles: &mut [Particle], dt: f64) {
    for p in particles.iter_mut() {
        p.vel += p.acc * (0.5 * dt);
        p.pos += p.vel * dt;
    }
}

/// The closing half-kick once new accelerations are known.
pub fn leapfrog_kick(particles: &mut [Particle], dt: f64) {
    for p in particles.iter_mut() {
        p.vel += p.acc * (0.5 * dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_core::Targets;
    use paratreet_geometry::ROOT_KEY;

    fn particle(id: u64, mass: f64, pos: Vec3) -> Particle {
        Particle::point_mass(id, mass, pos)
    }

    #[test]
    fn centroid_accumulates_correctly() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(4.0));
        let ps = vec![particle(0, 1.0, Vec3::ZERO), particle(1, 3.0, Vec3::new(4.0, 0.0, 0.0))];
        let d = CentroidData::from_leaf(&ps, &b);
        assert_eq!(d.sum_mass, 4.0);
        assert_eq!(d.centroid(), Vec3::new(3.0, 0.0, 0.0));
        // Merge matches from_leaf over the concatenation.
        let d1 = CentroidData::from_leaf(&ps[..1], &b);
        let d2 = CentroidData::from_leaf(&ps[1..], &b);
        let mut m = CentroidData::default();
        m.merge(&d1);
        m.merge(&d2);
        assert!((m.centroid() - d.centroid()).norm() < 1e-12);
        assert!((m.sum_mass - d.sum_mass).abs() < 1e-12);
        for i in 0..6 {
            assert!((m.quad[i] - d.quad[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn quad_about_centroid_is_translation_invariant() {
        let b = BoundingBox::empty();
        let shift = Vec3::new(100.0, -50.0, 25.0);
        let ps: Vec<Particle> = (0..5)
            .map(|i| {
                particle(i, 1.0 + i as f64, Vec3::new(i as f64, (i * i) as f64 * 0.1, -(i as f64)))
            })
            .collect();
        let shifted: Vec<Particle> =
            ps.iter().map(|p| particle(p.id, p.mass, p.pos + shift)).collect();
        let q1 = CentroidData::from_leaf(&ps, &b).quad_about_centroid();
        let q2 = CentroidData::from_leaf(&shifted, &b).quad_about_centroid();
        for i in 0..6 {
            assert!((q1[i] - q2[i]).abs() < 1e-6, "component {i}: {} vs {}", q1[i], q2[i]);
        }
    }

    #[test]
    fn wire_roundtrip() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let ps = vec![particle(0, 2.0, Vec3::splat(0.3)), particle(1, 1.0, Vec3::splat(0.9))];
        let d = CentroidData::from_leaf(&ps, &b);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let (back, used) = CentroidData::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, d);
        assert!(CentroidData::decode(&buf[..10]).is_none());
    }

    #[test]
    fn exact_kernel_matches_newton() {
        // Unit masses 2 apart: |a| = 1/4 toward the source.
        let (acc, pot) = grav_exact(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 1.0, 0.0);
        assert!((acc.x - 0.25).abs() < 1e-15);
        assert_eq!(acc.y, 0.0);
        assert!((pot + 0.5).abs() < 1e-15);
        // Softening bounds the force at zero separation.
        let (acc, _) = grav_exact(Vec3::ZERO, Vec3::ZERO, 1.0, 0.1);
        assert_eq!(acc, Vec3::ZERO);
        let (acc, _) = grav_exact(Vec3::ZERO, Vec3::new(1e-8, 0.0, 0.0), 1.0, 0.1);
        assert!(acc.norm() < 1e-4 / (0.1f64).powi(2));
    }

    #[test]
    fn quadrupole_improves_on_monopole() {
        // A dumbbell source seen from afar: quadrupole must reduce the
        // error relative to the exact pairwise force.
        let b = BoundingBox::empty();
        let srcs = vec![
            particle(0, 1.0, Vec3::new(0.0, 1.0, 0.0)),
            particle(1, 1.0, Vec3::new(0.0, -1.0, 0.0)),
        ];
        let d = CentroidData::from_leaf(&srcs, &b);
        let target = Vec3::new(6.0, 2.0, 1.0);
        let exact: Vec3 = srcs
            .iter()
            .map(|s| grav_exact(target, s.pos, s.mass, 0.0).0)
            .fold(Vec3::ZERO, |a, v| a + v);
        let mono = grav_approx(target, d.centroid(), d.sum_mass, &[0.0; 6]).0;
        let quad = grav_approx(target, d.centroid(), d.sum_mass, &d.quad_about_centroid()).0;
        let err_mono = (mono - exact).norm() / exact.norm();
        let err_quad = (quad - exact).norm() / exact.norm();
        assert!(err_quad < err_mono / 3.0, "mono {err_mono}, quad {err_quad}");
    }

    #[test]
    fn visitor_opens_near_nodes_and_prunes_far_ones() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let srcs = vec![particle(0, 1.0, Vec3::splat(0.25)), particle(1, 1.0, Vec3::splat(0.75))];
        let data = CentroidData::from_leaf(&srcs, &b);
        let view = SpatialNodeView {
            key: ROOT_KEY,
            bbox: &b,
            n_particles: 2,
            data: &data,
            particles: &srcs,
        };
        let v = GravityVisitor { theta: 0.5, g: 1.0 };
        let bucket_at = |centre: f64| TargetBucket {
            leaf_key: ROOT_KEY,
            bbox: BoundingBox::cube(Vec3::splat(centre), 0.05),
            range: 0..1,
            state: (),
            prepared: (),
        };
        let (near, far) = (bucket_at(0.9), bucket_at(50.0));
        let node = v.prepare(&view);
        assert!(v.open(&view, &node, &near));
        assert!(!v.open(&view, &node, &far));
    }

    #[test]
    fn leaf_skips_self_interaction() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let p = particle(7, 1.0, Vec3::splat(0.5));
        let data = CentroidData::from_leaf(std::slice::from_ref(&p), &b);
        let view = SpatialNodeView {
            key: ROOT_KEY,
            bbox: &b,
            n_particles: 1,
            data: &data,
            particles: std::slice::from_ref(&p),
        };
        let v = GravityVisitor::default();
        let after = through(&[p], &[1], |targets| {
            v.leaf(&view, &v.prepare(&view), &mut targets.span(0..1));
        });
        assert_eq!(after[0].acc, Vec3::ZERO);
    }

    /// Deterministic coordinates in (-1, 1) with full mantissas.
    fn coord(i: u64) -> f64 {
        let bits = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        bits as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `n` targets with ids `0..n`, mixed softenings and accumulators
    /// that already hold something.
    fn lane_targets(n: u64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let mut p = particle(
                    i,
                    0.5 + coord(7 * i).abs(),
                    Vec3::new(coord(3 * i), coord(3 * i + 1), coord(3 * i + 2)),
                );
                p.softening = [0.0, 0.01, 0.25][i as usize % 3];
                p.acc = Vec3::new(coord(90 + i), -0.0, coord(190 + i));
                p.potential = coord(290 + i);
                p
            })
            .collect()
    }

    fn bits(ps: &[Particle]) -> Vec<[u64; 4]> {
        ps.iter().map(|p| [p.acc.x, p.acc.y, p.acc.z, p.potential].map(f64::to_bits)).collect()
    }

    /// `particles` as one Partition's targets in buckets of `sizes`, after
    /// `kernel` and write-back.
    fn through(
        particles: &[Particle],
        sizes: &[usize],
        kernel: impl FnOnce(&mut Targets<()>),
    ) -> Vec<Particle> {
        let mut rest = particles;
        let buckets = sizes.iter().map(|&n| {
            let (own, tail) = rest.split_at(n);
            rest = tail;
            (ROOT_KEY, own.to_vec())
        });
        let mut targets = Targets::assemble(&GravityVisitor::default(), buckets);
        kernel(&mut targets);
        let mut out = particles.to_vec();
        targets.write_back(&mut out, 0..particles.len());
        out
    }

    /// The lane kernels are the per-pair loops, bit for bit, on every
    /// lane of every group and tail, however the targets are cut into
    /// buckets and spans: each instantiation this CPU runs (one lane
    /// everywhere, four with AVX2, eight with AVX-512F — called by width,
    /// not only the dispatched one) over a whole span, whatever
    /// `apply_node` / `apply_leaf` dispatch to here over the whole span
    /// and over its buckets one by one, and a plain loop over the public
    /// per-pair kernels all agree — with a target on the node's centroid
    /// (r² = 0), a source coincident with an unsoftened target, and
    /// sources that are themselves targets, one in each lane position of
    /// an eight-lane group. A span is 1–4 buckets, the first of 1–19
    /// targets (every tail length; most runs end mid-group), and is
    /// followed by a bucket the kernels are not given: its accumulators,
    /// which a full-width tail group reads, hold sentinels that must come
    /// back untouched.
    #[test]
    fn lane_kernels_keep_every_bit_of_the_per_pair_loops() {
        let widths: Vec<usize> = [1, 4, 8].into_iter().filter(|&w| w <= width()).collect();
        let g = 6.5;
        let quad = [0.011, 0.002, -0.001, 0.023, 0.003, 0.017];
        let sentinel = f64::from_bits(0x7ff8_5e17_15e1_0001);
        for (n, run) in (1..=19usize).flat_map(|n| (1..=4usize).map(move |run| (n, run))) {
            let mut sizes: Vec<usize> =
                (0..run).map(|b| if b == 0 { n } else { (n + 2 * b) % 7 + 1 }).collect();
            let live: usize = sizes.iter().sum();
            sizes.push(3);
            let mut targets = lane_targets(live as u64 + 3);
            for p in &mut targets[live..] {
                (p.acc, p.potential) = (Vec3::splat(sentinel), sentinel);
            }
            let guard = bits(&targets[live..]);
            let what = format!("{n} targets first of {sizes:?}");
            let centre = targets[n / 2].pos;
            let node = NodeMoments { opening: Sphere::new(centre, 0.3), mass: 2.75, quad };

            let mut looped = targets.clone();
            for p in &mut looped[..live] {
                let (acc, pot) = grav_approx(p.pos, centre, node.mass, &node.quad);
                p.acc += acc * g;
                p.potential += pot * g * p.mass;
            }
            for &w in &widths {
                let at = through(&targets, &sizes, |t| {
                    node_span_at(w, &node, SpanLanes::of(&mut t.span(0..run)), g)
                });
                assert_eq!(bits(&at), bits(&looped), "node kernel, {w} lanes, {what}");
            }
            let bucketed = through(&targets, &sizes, |t| {
                (0..run).for_each(|b| apply_node(&node, &mut t.span(b..b + 1), g))
            });
            targets = through(&targets, &sizes, |t| apply_node(&node, &mut t.span(0..run), g));
            assert_eq!(bits(&bucketed), bits(&looped), "node kernel, bucket by bucket, {what}");
            assert_eq!(bits(&targets), bits(&looped), "node kernel, dispatched, {what}");
            assert_eq!(targets[n / 2].acc.y.to_bits(), 0.0f64.to_bits(), "-0 + 0·g");
            assert_eq!(bits(&targets[live..]), guard, "node kernel, past the span, {what}");

            // Sources: the first eight targets themselves (same ids, so
            // every lane of a first group meets its own), a twin of
            // target 0 under another id (r² = 0 at zero softening), and
            // strangers with softenings of their own.
            let mut sources: Vec<Particle> = targets.iter().take(8.min(live)).copied().collect();
            sources.push(Particle { id: 1000, ..targets[0] });
            sources.extend((0..6).map(|i| {
                let mut s = particle(
                    2000 + i,
                    0.1 + coord(400 + i).abs(),
                    Vec3::new(coord(500 + i), coord(600 + i), coord(700 + i)),
                );
                s.softening = [0.0, 0.05][i as usize % 2];
                s
            }));
            let mut looped = targets.clone();
            for p in &mut looped[..live] {
                for s in &sources {
                    if s.id == p.id {
                        continue;
                    }
                    let (acc, pot) = grav_exact(p.pos, s.pos, s.mass, p.softening.max(s.softening));
                    p.acc += acc * g;
                    p.potential += pot * g * p.mass;
                }
            }
            for &w in &widths {
                let at = through(&targets, &sizes, |t| {
                    leaf_span_at(w, &sources, SpanLanes::of(&mut t.span(0..run)), g)
                });
                assert_eq!(bits(&at), bits(&looped), "leaf kernel, {w} lanes, {what}");
            }
            let bucketed = through(&targets, &sizes, |t| {
                (0..run).for_each(|b| apply_leaf(&sources, &mut t.span(b..b + 1), g))
            });
            targets = through(&targets, &sizes, |t| apply_leaf(&sources, &mut t.span(0..run), g));
            assert_eq!(bits(&bucketed), bits(&looped), "leaf kernel, bucket by bucket, {what}");
            assert_eq!(bits(&targets), bits(&looped), "leaf kernel, dispatched, {what}");
            assert_eq!(bits(&targets[live..]), guard, "leaf kernel, past the span, {what}");
        }
    }

    /// A kernel run on more lanes than the CPU was found to have stops
    /// before it reaches an instruction the CPU may lack.
    #[test]
    #[should_panic(expected = "lanes on a CPU that runs")]
    fn a_width_past_the_cpus_is_refused() {
        let mut targets = Targets::assemble(
            &GravityVisitor::default(),
            [(ROOT_KEY, vec![particle(0, 1.0, Vec3::ZERO)])],
        );
        let node = NodeMoments { opening: Sphere::new(Vec3::ZERO, 1.0), mass: 1.0, quad: [0.0; 6] };
        node_span_at(width() + 1, &node, SpanLanes::of(&mut targets.span(0..1)), 1.0);
    }

    #[test]
    fn leapfrog_moves_particles() {
        let mut ps = vec![particle(0, 1.0, Vec3::ZERO)];
        ps[0].acc = Vec3::new(1.0, 0.0, 0.0);
        leapfrog_kick_drift(&mut ps, 1.0);
        assert_eq!(ps[0].vel, Vec3::new(0.5, 0.0, 0.0));
        assert_eq!(ps[0].pos, Vec3::new(0.5, 0.0, 0.0));
        leapfrog_kick(&mut ps, 1.0);
        assert_eq!(ps[0].vel, Vec3::new(1.0, 0.0, 0.0));
    }
}
