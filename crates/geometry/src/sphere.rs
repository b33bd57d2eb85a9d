//! Bounding spheres.
//!
//! Opening criteria in Barnes-Hut-style traversals test whether a node's
//! box intersects a sphere around the source's centroid (see the paper's
//! `GravityVisitor::open`). The sphere type here is that object.

use crate::Vec3;

/// A sphere given by centre and radius.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sphere {
    /// Centre of the sphere.
    pub center: Vec3,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Sphere {
    /// Builds a sphere; the radius is clamped to be non-negative.
    #[inline]
    pub fn new(center: Vec3, radius: f64) -> Sphere {
        Sphere { center, radius: radius.max(0.0) }
    }

    /// Squared radius.
    #[inline]
    pub fn radius_sq(&self) -> f64 {
        self.radius * self.radius
    }

    /// True when `p` is inside or on the sphere.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        self.center.dist_sq(p) <= self.radius_sq()
    }

    /// True when the two spheres touch or overlap.
    #[inline]
    pub fn intersects(&self, o: &Sphere) -> bool {
        let r = self.radius + o.radius;
        self.center.dist_sq(o.center) <= r * r
    }

    /// Grows the radius so that `p` is contained.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        let d = self.center.dist(p);
        if d > self.radius {
            self.radius = d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_boundary_and_inside() {
        let s = Sphere::new(Vec3::ZERO, 2.0);
        assert!(s.contains(Vec3::new(2.0, 0.0, 0.0)));
        assert!(s.contains(Vec3::splat(1.0)));
        assert!(!s.contains(Vec3::splat(2.0)));
    }

    #[test]
    fn sphere_sphere_intersection() {
        let a = Sphere::new(Vec3::ZERO, 1.0);
        let b = Sphere::new(Vec3::new(2.0, 0.0, 0.0), 1.0);
        assert!(a.intersects(&b)); // tangent
        let c = Sphere::new(Vec3::new(2.1, 0.0, 0.0), 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn negative_radius_clamped() {
        let s = Sphere::new(Vec3::ZERO, -1.0);
        assert_eq!(s.radius, 0.0);
        assert!(s.contains(Vec3::ZERO));
    }

    #[test]
    fn grow_extends_radius() {
        let mut s = Sphere::new(Vec3::ZERO, 1.0);
        s.grow(Vec3::new(3.0, 0.0, 0.0));
        assert_eq!(s.radius, 3.0);
        s.grow(Vec3::new(1.0, 0.0, 0.0)); // already inside: no change
        assert_eq!(s.radius, 3.0);
    }
}
