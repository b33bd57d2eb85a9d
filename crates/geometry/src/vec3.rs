//! A minimal 3-component vector.
//!
//! The physics kernels are bandwidth-bound; keeping the vector a plain
//! `#[repr(C)]` triple of `f64` keeps particle arrays dense and lets the
//! compiler vectorise the inner interaction loops.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-component `f64` vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

/// The zero vector.
pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = ZERO;

    /// Builds a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// A vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Vec3 {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Squared Euclidean norm. Preferred in hot loops — no `sqrt`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn dist_sq(self, o: Vec3) -> f64 {
        (self - o).norm_sq()
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        self.dist_sq(o).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// The value of the largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// The index (0..3) of the largest component; ties break toward x.
    #[inline]
    pub fn argmax(self) -> usize {
        if self.x >= self.y && self.x >= self.z {
            0
        } else if self.y >= self.z {
            1
        } else {
            2
        }
    }

    /// Reads component `i` (0, 1, or 2).
    #[inline]
    pub fn component(self, i: usize) -> f64 {
        match i {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("vector component out of range: {i}"),
        }
    }

    /// Writes component `i` (0, 1, or 2).
    #[inline]
    pub fn set_component(&mut self, i: usize, v: f64) {
        match i {
            0 => self.x = v,
            1 => self.y = v,
            2 => self.z = v,
            _ => panic!("vector component out of range: {i}"),
        }
    }

    /// Unit vector in the same direction; the zero vector is returned
    /// unchanged rather than producing NaNs.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            self / n
        }
    }

    /// True when all components are finite (no NaN or infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        self.x *= s;
        self.y *= s;
        self.z *= s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        self.x /= s;
        self.y /= s;
        self.z /= s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("vector component out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    #[inline]
    fn from(v: Vec3) -> [f64; 3] {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.5, 0.25);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0, a + a);
        assert_eq!(a / 2.0 + a / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.dot(x), 1.0);
    }

    #[test]
    fn norms_and_distances() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dist(Vec3::ZERO), 5.0);
        assert_eq!(v.normalized().norm(), 1.0);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn component_access() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v.component(0), 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.component(2), 3.0);
        v.set_component(1, 9.0);
        assert_eq!(v.y, 9.0);
        assert_eq!(v.argmax(), 1);
        assert_eq!(Vec3::splat(2.0).argmax(), 0);
        assert_eq!(v.max_component(), 9.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, -3.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, -3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 0.0));
    }

    #[test]
    fn sum_folds_from_zero() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }

    #[test]
    fn finite_detection() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    #[should_panic]
    fn component_out_of_range_panics() {
        Vec3::ZERO.component(3);
    }
}
