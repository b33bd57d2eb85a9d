//! The particle record shared by every application.
//!
//! ParaTreeT's applications (gravity, SPH, collisions) all operate on one
//! particle set, so — like the reference implementation — we keep a single
//! flat record with the union of per-application fields. The record is
//! `#[repr(C)]` and `Copy` so bucket slices serialise to the wire with a
//! straight memcpy and traversal kernels stream it efficiently.

use paratreet_geometry::{BoundingBox, MortonKey, Vec3};

/// One simulation particle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Particle {
    /// Stable identifier, unique within a snapshot.
    pub id: u64,
    /// Gravitational / inertial mass.
    pub mass: f64,
    /// Position.
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
    /// Acceleration accumulated by the current traversal.
    pub acc: Vec3,
    /// Gravitational potential accumulated by the current traversal.
    pub potential: f64,
    /// Gravitational softening length.
    pub softening: f64,
    /// Physical radius (collision detection; zero for point masses).
    pub radius: f64,
    /// SPH smoothing length.
    pub smoothing: f64,
    /// SPH mass density.
    pub density: f64,
    /// SPH pressure.
    pub pressure: f64,
    /// SPH specific internal energy.
    pub internal_energy: f64,
    /// Morton key within the current universe box (set by decomposition).
    pub key: MortonKey,
}

impl Particle {
    /// A point mass at `pos` — the minimal particle gravity needs.
    pub fn point_mass(id: u64, mass: f64, pos: Vec3) -> Particle {
        Particle { id, mass, pos, ..Particle::default() }
    }

    /// Kinetic energy `m v² / 2`.
    #[inline]
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self.mass * self.vel.norm_sq()
    }

    /// Specific orbital angular momentum about the origin.
    #[inline]
    pub fn angular_momentum(&self) -> Vec3 {
        self.pos.cross(self.vel) * self.mass
    }

    /// Resets the per-iteration accumulators (acceleration, potential,
    /// density, pressure) before a new traversal.
    #[inline]
    pub fn reset_accumulators(&mut self) {
        self.acc = Vec3::ZERO;
        self.potential = 0.0;
        self.density = 0.0;
        self.pressure = 0.0;
    }
}

/// Extension helpers over a flat particle vector.
pub trait ParticleVec {
    /// Tight bounding box of all particle positions.
    fn bounding_box(&self) -> BoundingBox;
    /// Total mass.
    fn total_mass(&self) -> f64;
    /// Mass-weighted centre of mass; the origin for an empty set.
    fn center_of_mass(&self) -> Vec3;
    /// Assigns Morton keys in `universe` to every particle.
    fn assign_keys(&mut self, universe: &BoundingBox);
    /// Sorts by Morton key, ties by id, ties of both in input order (the
    /// SFC order decomposition relies on).
    fn sort_by_sfc_key(&mut self);
    /// Sum of kinetic energies.
    fn kinetic_energy(&self) -> f64;
}

impl ParticleVec for [Particle] {
    fn bounding_box(&self) -> BoundingBox {
        BoundingBox::around(self.iter().map(|p| p.pos))
    }

    fn total_mass(&self) -> f64 {
        self.iter().map(|p| p.mass).sum()
    }

    fn center_of_mass(&self) -> Vec3 {
        let m = self.total_mass();
        if m == 0.0 {
            return Vec3::ZERO;
        }
        let weighted: Vec3 = self.iter().map(|p| p.pos * p.mass).sum();
        weighted / m
    }

    fn assign_keys(&mut self, universe: &BoundingBox) {
        for p in self.iter_mut() {
            p.key = paratreet_geometry::morton_key(p.pos, universe);
        }
    }

    fn sort_by_sfc_key(&mut self) {
        assert!(self.len() <= u32::MAX as usize, "particle indices are 32-bit");
        let sfc = |p: &Particle| (p.key, p.id);
        if self.is_sorted_by_key(sfc) {
            return;
        }
        // Order 24-byte `(key, id, index)` entries, not 152-byte
        // records. The index keeps equal `(key, id)` pairs in input
        // order — the stable order — and makes every entry distinct, so
        // the faster unstable sort has no ties to scramble.
        let mut entries: Vec<(MortonKey, u64, u32)> =
            self.iter().enumerate().map(|(i, p)| (p.key, p.id, i as u32)).collect();
        entries.sort_unstable();
        // Gather in place along the permutation's cycles: every
        // displaced record moves once, records already in place — most
        // of them, on the nearly sorted order a step after the first
        // arrives in — not at all, and no second array is allocated.
        let mut source: Vec<u32> = entries.into_iter().map(|e| e.2).collect();
        for first in 0..source.len() {
            if source[first] as usize == first {
                continue;
            }
            let lifted = self[first];
            let mut slot = first;
            loop {
                let from = source[slot] as usize;
                source[slot] = slot as u32;
                if from == first {
                    self[slot] = lifted;
                    break;
                }
                self[slot] = self[from];
                slot = from;
            }
        }
    }

    fn kinetic_energy(&self) -> f64 {
        self.iter().map(|p| p.kinetic_energy()).sum()
    }
}

impl ParticleVec for Vec<Particle> {
    fn bounding_box(&self) -> BoundingBox {
        self.as_slice().bounding_box()
    }
    fn total_mass(&self) -> f64 {
        self.as_slice().total_mass()
    }
    fn center_of_mass(&self) -> Vec3 {
        self.as_slice().center_of_mass()
    }
    fn assign_keys(&mut self, universe: &BoundingBox) {
        self.as_mut_slice().assign_keys(universe)
    }
    fn sort_by_sfc_key(&mut self) {
        self.as_mut_slice().sort_by_sfc_key()
    }
    fn kinetic_energy(&self) -> f64 {
        self.as_slice().kinetic_energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_particles() -> Vec<Particle> {
        vec![
            Particle::point_mass(0, 1.0, Vec3::new(0.0, 0.0, 0.0)),
            Particle::point_mass(1, 2.0, Vec3::new(3.0, 0.0, 0.0)),
            Particle::point_mass(2, 1.0, Vec3::new(0.0, 4.0, 0.0)),
        ]
    }

    #[test]
    fn center_of_mass_weights_by_mass() {
        let ps = three_particles();
        let com = ps.center_of_mass();
        assert_eq!(com, Vec3::new(6.0 / 4.0, 4.0 / 4.0, 0.0));
        assert_eq!(ps.total_mass(), 4.0);
    }

    #[test]
    fn empty_set_is_well_defined() {
        let ps: Vec<Particle> = vec![];
        assert_eq!(ps.center_of_mass(), Vec3::ZERO);
        assert_eq!(ps.total_mass(), 0.0);
        assert!(ps.bounding_box().is_empty());
    }

    #[test]
    fn bounding_box_covers_all() {
        let ps = three_particles();
        let b = ps.bounding_box();
        for p in &ps {
            assert!(b.contains(p.pos));
        }
    }

    #[test]
    fn key_assignment_then_sort_is_sfc_order() {
        let mut ps = three_particles();
        let u = ps.bounding_box().padded(1e-9);
        ps.assign_keys(&u);
        ps.sort_by_sfc_key();
        for w in ps.windows(2) {
            assert!(w[0].key <= w[1].key);
        }
    }

    /// The sort this module used to run on the records themselves.
    fn stable_record_sort(ps: &mut [Particle]) {
        ps.sort_by(|a, b| a.key.cmp(&b.key).then(a.id.cmp(&b.id)));
    }

    #[test]
    fn sfc_sort_matches_the_stable_record_sort() {
        // `mass` tells apart records that tie on (key, id).
        let make = |n: usize, keys: u64, ids: u64| -> Vec<Particle> {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            (0..n)
                .map(|i| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let mut p = Particle::point_mass((state >> 20) % ids, i as f64, Vec3::ZERO);
                    p.key = (state >> 40) % keys;
                    p
                })
                .collect()
        };
        let mut cases = vec![
            make(0, 1, 1),
            make(1, 1, 1),
            make(500, u64::MAX, u64::MAX), // all distinct
            make(500, 7, u64::MAX),        // equal keys, tie broken by id
            make(500, 7, 3),               // equal (key, id): input order decides
        ];
        let mut sorted = make(400, 1000, u64::MAX);
        stable_record_sort(&mut sorted);
        cases.push(sorted.clone());
        sorted.swap(10, 300);
        sorted[200].key = 0;
        cases.push(sorted); // nearly sorted
        for mut ps in cases {
            let mut want = ps.clone();
            stable_record_sort(&mut want);
            ps.sort_by_sfc_key();
            assert_eq!(ps, want);
        }
    }

    #[test]
    fn accumulator_reset() {
        let mut p = Particle::point_mass(0, 1.0, Vec3::ZERO);
        p.acc = Vec3::splat(5.0);
        p.potential = -1.0;
        p.density = 2.0;
        p.reset_accumulators();
        assert_eq!(p.acc, Vec3::ZERO);
        assert_eq!(p.potential, 0.0);
        assert_eq!(p.density, 0.0);
    }

    #[test]
    fn energies() {
        let mut p = Particle::point_mass(0, 2.0, Vec3::ZERO);
        p.vel = Vec3::new(3.0, 0.0, 0.0);
        assert_eq!(p.kinetic_energy(), 9.0);
        p.pos = Vec3::new(1.0, 0.0, 0.0);
        p.vel = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(p.angular_momentum(), Vec3::new(0.0, 0.0, 2.0));
    }
}
