//! Axis-aligned bounding boxes.
//!
//! Boxes are the spatial footprint of every tree node. An *empty* box (one
//! that has absorbed no points) is represented with inverted bounds so that
//! `grow` works without a separate "initialised" flag.

use crate::{Axis, Sphere, Vec3};

/// An axis-aligned bounding box, possibly empty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner.
    pub lo: Vec3,
    /// Maximum corner.
    pub hi: Vec3,
}

impl Default for BoundingBox {
    fn default() -> Self {
        BoundingBox::empty()
    }
}

impl BoundingBox {
    /// The empty box: `lo = +inf`, `hi = -inf`, absorbs any point on `grow`.
    #[inline]
    pub fn empty() -> BoundingBox {
        BoundingBox { lo: Vec3::splat(f64::INFINITY), hi: Vec3::splat(f64::NEG_INFINITY) }
    }

    /// A box from explicit corners. Corners are sorted component-wise so
    /// callers cannot construct an inverted (accidentally-empty) box.
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> BoundingBox {
        BoundingBox { lo: a.min(b), hi: a.max(b) }
    }

    /// A cube centred at `c` with half-width `h`.
    #[inline]
    pub fn cube(c: Vec3, h: f64) -> BoundingBox {
        BoundingBox { lo: c - Vec3::splat(h), hi: c + Vec3::splat(h) }
    }

    /// The tight box around a set of points; empty for an empty slice.
    pub fn around(points: impl IntoIterator<Item = Vec3>) -> BoundingBox {
        let mut b = BoundingBox::empty();
        for p in points {
            b.grow(p);
        }
        b
    }

    /// True when the box has absorbed no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y || self.lo.z > self.hi.z
    }

    /// Expands the box to contain point `p`.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Expands the box to contain another box.
    #[inline]
    pub fn merge(&mut self, o: &BoundingBox) {
        if !o.is_empty() {
            self.lo = self.lo.min(o.lo);
            self.hi = self.hi.max(o.hi);
        }
    }

    /// The union of two boxes.
    #[inline]
    pub fn union(&self, o: &BoundingBox) -> BoundingBox {
        let mut b = *self;
        b.merge(o);
        b
    }

    /// Geometric centre. Meaningless for an empty box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    /// Edge lengths (zero vector for an empty box).
    #[inline]
    pub fn size(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            self.hi - self.lo
        }
    }

    /// Volume; zero for empty or degenerate boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// The axis along which the box is longest.
    #[inline]
    pub fn longest_axis(&self) -> Axis {
        Axis::from_index(self.size().argmax())
    }

    /// Half of the squared diagonal — the square of the radius of the
    /// smallest sphere centred at `center()` containing the box.
    #[inline]
    pub fn radius_sq(&self) -> f64 {
        (self.size() * 0.5).norm_sq()
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }

    /// True when the other box is fully inside this one.
    #[inline]
    pub fn contains_box(&self, o: &BoundingBox) -> bool {
        o.is_empty() || (self.contains(o.lo) && self.contains(o.hi))
    }

    /// True when the boxes overlap (closed-interval semantics).
    #[inline]
    pub fn intersects(&self, o: &BoundingBox) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.lo.x <= o.hi.x
            && o.lo.x <= self.hi.x
            && self.lo.y <= o.hi.y
            && o.lo.y <= self.hi.y
            && self.lo.z <= o.hi.z
            && o.lo.z <= self.hi.z
    }

    /// Squared distance from `p` to the nearest point of the box
    /// (zero when `p` is inside).
    ///
    /// Branch-free: per axis the gap is `max(lo − v, v − hi, 0)`. On a
    /// non-empty box at most one of the two differences is positive, and
    /// it is the one a "below / above / inside" branch would pick; an
    /// inside axis adds `+0.0`, which leaves a non-negative sum's bits
    /// alone; a NaN coordinate drops out (`f64::max` returns the other
    /// operand), as it does from both comparisons of the branch; the
    /// empty box is `+∞` either way.
    #[inline]
    pub fn dist_sq_to(&self, p: Vec3) -> f64 {
        let gap = |lo: f64, v: f64, hi: f64| (lo - v).max(v - hi).max(0.0);
        let gx = gap(self.lo.x, p.x, self.hi.x);
        let gy = gap(self.lo.y, p.y, self.hi.y);
        let gz = gap(self.lo.z, p.z, self.hi.z);
        gx * gx + gy * gy + gz * gz
    }

    /// Squared distance between the closest points of two boxes (zero
    /// when they overlap). Used by k-NN pruning.
    #[inline]
    pub fn dist_sq_to_box(&self, o: &BoundingBox) -> f64 {
        let mut d = 0.0;
        for i in 0..3 {
            let gap = (o.lo.component(i) - self.hi.component(i))
                .max(self.lo.component(i) - o.hi.component(i))
                .max(0.0);
            d += gap * gap;
        }
        d
    }

    /// Squared distance from `p` to the farthest point of the box.
    #[inline]
    pub fn max_dist_sq_to(&self, p: Vec3) -> f64 {
        let mut d = 0.0;
        for i in 0..3 {
            let v = p.component(i);
            let lo = self.lo.component(i);
            let hi = self.hi.component(i);
            let far = (v - lo).abs().max((v - hi).abs());
            d += far * far;
        }
        d
    }

    /// True when the box intersects sphere `s` — the test used by the
    /// Barnes-Hut opening criterion in the paper's `GravityVisitor`.
    #[inline]
    pub fn intersects_sphere(&self, s: &Sphere) -> bool {
        !self.is_empty() && self.dist_sq_to(s.center) <= s.radius_sq()
    }

    /// Splits the box into two halves at `plane` along `axis`.
    /// `plane` must lie within the box's extent on that axis.
    #[inline]
    pub fn split_at(&self, axis: Axis, plane: f64) -> (BoundingBox, BoundingBox) {
        let mut left = *self;
        let mut right = *self;
        left.hi.set_component(axis.index(), plane);
        right.lo.set_component(axis.index(), plane);
        (left, right)
    }

    /// The `i`-th (0..8) octant of the box, ordered by Morton child index:
    /// bit 2 = x-high, bit 1 = y-high, bit 0 = z-high.
    #[inline]
    pub fn octant(&self, i: usize) -> BoundingBox {
        debug_assert!(i < 8);
        let c = self.center();
        let mut lo = self.lo;
        let mut hi = c;
        if i & 4 != 0 {
            lo.x = c.x;
            hi.x = self.hi.x;
        }
        if i & 2 != 0 {
            lo.y = c.y;
            hi.y = self.hi.y;
        }
        if i & 1 != 0 {
            lo.z = c.z;
            hi.z = self.hi.z;
        }
        BoundingBox { lo, hi }
    }

    /// Which octant (0..8) of this box point `p` falls in, using the same
    /// bit layout as [`BoundingBox::octant`]. Points exactly on the centre
    /// plane go to the high side.
    #[inline]
    pub fn octant_of(&self, p: Vec3) -> usize {
        let c = self.center();
        ((p.x >= c.x) as usize) << 2 | ((p.y >= c.y) as usize) << 1 | (p.z >= c.z) as usize
    }

    /// The smallest cube containing this box, centred at the box centre.
    /// Octree builds start from a cube so octants stay cubical.
    #[inline]
    pub fn bounding_cube(&self) -> BoundingBox {
        let h = self.size().max_component() * 0.5;
        BoundingBox::cube(self.center(), h)
    }

    /// Pads the box by a relative `eps` of its size on every side, so
    /// particles on the boundary stay strictly inside after rounding.
    #[inline]
    pub fn padded(&self, eps: f64) -> BoundingBox {
        let pad = self.size() * eps + Vec3::splat(f64::MIN_POSITIVE);
        BoundingBox { lo: self.lo - pad, hi: self.hi + pad }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BoundingBox {
        BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn empty_box_properties() {
        let b = BoundingBox::empty();
        assert!(b.is_empty());
        assert_eq!(b.size(), Vec3::ZERO);
        assert_eq!(b.volume(), 0.0);
        assert!(!b.intersects(&unit()));
        assert!(!unit().intersects(&b));
    }

    #[test]
    fn grow_absorbs_points() {
        let mut b = BoundingBox::empty();
        b.grow(Vec3::new(1.0, -2.0, 3.0));
        assert!(!b.is_empty());
        assert!(b.contains(Vec3::new(1.0, -2.0, 3.0)));
        b.grow(Vec3::new(-1.0, 2.0, 0.0));
        assert_eq!(b.lo, Vec3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.hi, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn new_sorts_corners() {
        let b = BoundingBox::new(Vec3::splat(1.0), Vec3::ZERO);
        assert_eq!(b.lo, Vec3::ZERO);
        assert_eq!(b.hi, Vec3::splat(1.0));
    }

    #[test]
    fn containment_and_intersection() {
        let b = unit();
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(b.contains(Vec3::ZERO)); // boundary is inside
        assert!(!b.contains(Vec3::splat(1.5)));
        let shifted = BoundingBox::new(Vec3::splat(0.5), Vec3::splat(2.0));
        assert!(b.intersects(&shifted));
        assert!(shifted.intersects(&b));
        let disjoint = BoundingBox::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(!b.intersects(&disjoint));
        assert!(b.contains_box(&BoundingBox::new(Vec3::splat(0.25), Vec3::splat(0.75))));
        assert!(!b.contains_box(&shifted));
    }

    #[test]
    fn octants_partition_the_box() {
        let b = unit();
        let total: f64 = (0..8).map(|i| b.octant(i).volume()).sum();
        assert!((total - b.volume()).abs() < 1e-12);
        for i in 0..8 {
            let o = b.octant(i);
            assert!(b.contains_box(&o));
            assert_eq!(b.octant_of(o.center()), i);
        }
    }

    #[test]
    fn octant_of_boundary_goes_high() {
        let b = unit();
        assert_eq!(b.octant_of(Vec3::splat(0.5)), 7);
        assert_eq!(b.octant_of(Vec3::ZERO), 0);
    }

    #[test]
    fn split_covers_box() {
        let b = unit();
        let (l, r) = b.split_at(Axis::X, 0.25);
        assert_eq!(l.hi.x, 0.25);
        assert_eq!(r.lo.x, 0.25);
        assert!((l.volume() + r.volume() - b.volume()).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        let b = unit();
        assert_eq!(b.dist_sq_to(Vec3::splat(0.5)), 0.0);
        assert_eq!(b.dist_sq_to(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.max_dist_sq_to(Vec3::ZERO), 3.0);
    }

    #[test]
    fn box_box_distance() {
        let a = unit();
        let b = BoundingBox::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 1.0));
        assert_eq!(a.dist_sq_to_box(&b), 1.0);
        assert_eq!(b.dist_sq_to_box(&a), 1.0);
        let overlapping = BoundingBox::new(Vec3::splat(0.5), Vec3::splat(2.0));
        assert_eq!(a.dist_sq_to_box(&overlapping), 0.0);
        let diag = BoundingBox::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert_eq!(a.dist_sq_to_box(&diag), 3.0);
    }

    #[test]
    fn sphere_intersection() {
        let b = unit();
        assert!(b.intersects_sphere(&Sphere::new(Vec3::splat(0.5), 0.1)));
        assert!(b.intersects_sphere(&Sphere::new(Vec3::new(2.0, 0.5, 0.5), 1.0)));
        assert!(!b.intersects_sphere(&Sphere::new(Vec3::new(2.0, 0.5, 0.5), 0.5)));
    }

    #[test]
    fn longest_axis_and_cube() {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::new(1.0, 4.0, 2.0));
        assert_eq!(b.longest_axis(), Axis::Y);
        let c = b.bounding_cube();
        assert!(c.contains_box(&b));
        let s = c.size();
        assert_eq!(s.x, s.y);
        assert_eq!(s.y, s.z);
    }

    #[test]
    fn merge_ignores_empty() {
        let mut b = unit();
        let before = b;
        b.merge(&BoundingBox::empty());
        assert_eq!(b, before);
        let mut e = BoundingBox::empty();
        e.merge(&unit());
        assert_eq!(e, unit());
    }

    #[test]
    fn padded_strictly_contains() {
        let b = unit();
        let p = b.padded(1e-9);
        assert!(p.contains_box(&b));
        assert!(p.lo.x < 0.0 && p.hi.x > 1.0);
    }
}
