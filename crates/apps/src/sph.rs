//! Smoothed-particle hydrodynamics (paper §III-B).
//!
//! "Each iteration of SPH starts with a k-nearest neighbors traversal
//! for each particle to find its principal contributors of density. Each
//! neighbor's mass and distance is summed and weighted with a smoothing
//! kernel to determine the density of the target. This neighbor list is
//! then used to model the pressure field surrounding each particle."
//!
//! ParaTreeT's SPH gets its speedup over Gadget-2 by *fetching a fixed
//! number of neighbours once* with kNN instead of iterating fixed-ball
//! searches to converge a smoothing length (the baseline in
//! `paratreet-baselines` implements that slower scheme for Fig. 11).

use crate::knn::{KnnData, KnnState, KnnVisitor, Neighbor};
use paratreet_core::{Configuration, Framework, StepReport, TraversalKind};
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cubic-spline (M4) kernel value `W(r, h)` with compact support `2h`
/// (Monaghan & Lattanzio 1985). Normalised so ∫W dV = 1.
#[inline]
pub fn kernel_w(r: f64, h: f64) -> f64 {
    if h <= 0.0 {
        return 0.0;
    }
    let q = r / h;
    let sigma = 1.0 / (std::f64::consts::PI * h * h * h);
    if q < 1.0 {
        sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q)
    } else if q < 2.0 {
        let t = 2.0 - q;
        sigma * 0.25 * t * t * t
    } else {
        0.0
    }
}

/// Magnitude factor of ∇W: returns `dW/dr` (negative within the
/// support). The vector gradient is `(dW/dr) · r̂`.
#[inline]
pub fn kernel_dw_dr(r: f64, h: f64) -> f64 {
    if h <= 0.0 {
        return 0.0;
    }
    let q = r / h;
    let sigma = 1.0 / (std::f64::consts::PI * h * h * h);
    if q < 1.0 {
        sigma / h * (-3.0 * q + 2.25 * q * q)
    } else if q < 2.0 {
        let t = 2.0 - q;
        sigma / h * (-0.75 * t * t)
    } else {
        0.0
    }
}

/// Per-particle SPH quantities computed from a neighbour list.
#[derive(Clone, Debug, Default)]
pub struct SphQuantities {
    /// Smoothing length (half the k-th neighbour distance).
    pub smoothing: f64,
    /// Mass density.
    pub density: f64,
    /// Pressure from the ideal-gas equation of state.
    pub pressure: f64,
    /// Hydrodynamic acceleration.
    pub acc: Vec3,
}

/// Density estimate from a fixed-k neighbour list: `h = r_k / 2` so the
/// kernel support exactly encloses the k neighbours, then
/// `ρ = Σⱼ mⱼ W(rᵢⱼ, h) + mᵢ W(0, h)` (self-contribution included).
pub fn density_from_neighbors(
    mass: f64,
    neighbors: &[Neighbor],
    h_override: Option<f64>,
) -> (f64, f64) {
    let h = h_override.unwrap_or_else(|| smoothing_from(neighbors.last().map(|n| n.dist_sq)));
    density_sum(mass, h, neighbors.iter().map(|n| (n.mass, n.dist_sq)))
}

/// `h = r_k / 2` from the farthest neighbour's squared distance.
fn smoothing_from(farthest_dist_sq: Option<f64>) -> f64 {
    farthest_dist_sq.map(|d2| d2.sqrt() * 0.5).unwrap_or(0.0)
}

/// `(h, ρ)` over `(mass, dist_sq)` neighbours in list order.
fn density_sum(mass: f64, h: f64, neighbors: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    if h <= 0.0 {
        return (0.0, 0.0);
    }
    let mut rho = mass * kernel_w(0.0, h);
    for (m, dist_sq) in neighbors {
        rho += m * kernel_w(dist_sq.sqrt(), h);
    }
    (h, rho)
}

/// Hashes a particle id with one multiply (Fibonacci hashing). The keys
/// are the simulation's own particle ids, not input an adversary
/// shapes; the rotation moves the product's well-mixed high half to the
/// low bits the table indexes by, so strided ids spread too.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// Every particle's neighbour list in one allocation: a neighbour is
/// `(dist_sq, j)` with `j` its index in the particle array the table was
/// gathered against, so mass, position, density and pressure are read
/// through `j` when a pass needs them.
#[derive(Clone, Debug, Default)]
pub struct NeighborTable {
    /// The lists end to end in bucket order — particle-array order but
    /// for split leaves — each ascending by `(dist_sq, id)`.
    entries: Vec<(f64, u32)>,
    /// `(start, len)` of each particle's list, by particle-array index.
    runs: Vec<(usize, usize)>,
}

impl NeighborTable {
    /// Gathers a kNN traversal's per-bucket states (with the bucket ids
    /// `Step::bucket_particle_ids` aligned to them) against `particles`.
    pub fn gather(
        states: Vec<KnnState>,
        bucket_ids: Vec<Vec<u64>>,
        particles: &[Particle],
    ) -> NeighborTable {
        assert!(u32::try_from(particles.len()).is_ok(), "neighbour indices are u32");
        let index_of: HashMap<u64, u32, BuildHasherDefault<IdHasher>> =
            particles.iter().enumerate().map(|(i, p)| (p.id, i as u32)).collect();
        // The lists lie end to end in bucket order, so every run and the
        // stretch of `entries` each bucket fills are known up front.
        let held = states.iter().flat_map(|s| &s.heaps).map(|h| h.len()).sum();
        let mut entries = vec![(0.0, 0u32); held];
        let mut runs = vec![(0, 0); particles.len()];
        let mut stretches: Vec<(&KnnState, &mut [(f64, u32)])> = Vec::with_capacity(states.len());
        let mut unfilled = entries.as_mut_slice();
        let mut start = 0;
        for (state, ids) in states.iter().zip(&bucket_ids) {
            let bucket_start = start;
            for (heap, id) in state.heaps.iter().zip(ids) {
                runs[index_of[id] as usize] = (start, heap.len());
                start += heap.len();
            }
            let (stretch, rest) = std::mem::take(&mut unfilled).split_at_mut(start - bucket_start);
            unfilled = rest;
            stretches.push((state, stretch));
        }
        // Buckets sort and resolve their lists in parallel, each into its
        // own stretch. The heaps are read, not consumed: two threads
        // freeing 50 000 of them at once spend longer in the allocator
        // than sorting, so they are freed afterwards, on this thread,
        // when `states` drops at the end of `gather`.
        stretches.into_par_iter().for_each(|(state, stretch)| {
            let mut sorted = Vec::new();
            let mut filled = 0;
            for heap in &state.heaps {
                sorted.clear();
                sorted.extend_from_slice(heap.candidates());
                sorted.sort_unstable();
                for (slot, c) in stretch[filled..].iter_mut().zip(&sorted) {
                    *slot = (c.dist_sq, index_of[&c.id]);
                }
                filled += sorted.len();
            }
        });
        NeighborTable { entries, runs }
    }

    /// Total neighbour entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no particle has a neighbour.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Particle `i`'s neighbours as `(dist_sq, particle index)`, nearest
    /// first.
    pub fn of(&self, i: usize) -> &[(f64, u32)] {
        let (start, len) = self.runs[i];
        &self.entries[start..start + len]
    }
}

/// The SPH application driver: kNN density pass plus a pressure-force
/// pass over the stored neighbour lists.
pub struct SphSimulation {
    /// Neighbours per particle (the paper's SPH uses a fixed count).
    pub k: usize,
    /// Adiabatic index of the ideal-gas equation of state.
    pub gamma: f64,
    /// Traversal schedule for the kNN pass.
    pub kind: TraversalKind,
}

impl Default for SphSimulation {
    fn default() -> SphSimulation {
        SphSimulation { k: 32, gamma: 5.0 / 3.0, kind: TraversalKind::UpAndDown }
    }
}

/// Outcome of one SPH step.
#[derive(Clone, Debug, Default)]
pub struct SphStepStats {
    /// Framework step report (tree build + traversal measurements).
    pub step: StepReport,
    /// Total neighbour-list entries gathered.
    pub neighbor_entries: u64,
    /// Mean density over all particles.
    pub mean_density: f64,
}

impl SphSimulation {
    /// Runs one density + pressure-force step, writing `smoothing`,
    /// `density`, `pressure`, and hydrodynamic `acc` into the particles.
    pub fn step(&self, fw: &mut Framework<KnnData>) -> SphStepStats {
        let (table, report) = self.neighbor_table(fw);
        let particles = fw.particles_mut();
        self.density_pass(&table, particles);
        let mean_density = self.pressure_pass(&table, particles);
        SphStepStats { step: report, neighbor_entries: table.len() as u64, mean_density }
    }

    /// The kNN traversal of a step, gathered against the framework's
    /// particles as the step leaves them.
    pub fn neighbor_table(&self, fw: &mut Framework<KnnData>) -> (NeighborTable, StepReport) {
        let visitor = KnnVisitor { k: self.k };
        let kind = self.kind;
        let ((states, ids), report) = fw.step(|step| {
            let (states, _) = step.traverse(&visitor, kind);
            (states, step.bucket_particle_ids())
        });
        (NeighborTable::gather(states, ids, fw.particles()), report)
    }

    /// Pass 1: smoothing length, density and pressure per particle —
    /// computed in parallel from the masses, applied in index order.
    pub fn density_pass(&self, table: &NeighborTable, particles: &mut [Particle]) {
        let read: &[Particle] = particles;
        let computed: Vec<(f64, f64)> = read
            .par_iter()
            .enumerate()
            .map(|(i, p)| {
                let nbrs = table.of(i);
                let h = smoothing_from(nbrs.last().map(|&(dist_sq, _)| dist_sq));
                let with_mass = nbrs.iter().map(|&(dist_sq, j)| (read[j as usize].mass, dist_sq));
                density_sum(p.mass, h, with_mass)
            })
            .collect();
        for (p, (h, rho)) in particles.iter_mut().zip(computed) {
            p.smoothing = h;
            p.density = rho;
            p.pressure = (self.gamma - 1.0) * rho * p.internal_energy;
        }
    }

    /// Pass 2: pressure force from the stored neighbour lists (gather
    /// formulation with the target's own h):
    /// aᵢ = −Σⱼ mⱼ (Pᵢ/ρᵢ² + Pⱼ/ρⱼ²) ∇W(rᵢⱼ, hᵢ), computed in parallel
    /// and added in index order. Returns the mean density.
    fn pressure_pass(&self, table: &NeighborTable, particles: &mut [Particle]) -> f64 {
        let read: &[Particle] = particles;
        // `None` for a particle without density: its `acc` is not touched.
        let computed: Vec<Option<Vec3>> = read
            .par_iter()
            .enumerate()
            .map(|(i, p)| {
                if p.density <= 0.0 {
                    return None;
                }
                let pi_term = p.pressure / (p.density * p.density);
                let mut acc = Vec3::ZERO;
                for &(_, j) in table.of(i) {
                    let n = match &read[j as usize] {
                        n if n.density > 0.0 => n,
                        _ => continue,
                    };
                    let dr = p.pos - n.pos;
                    let r = dr.norm();
                    if r == 0.0 {
                        continue;
                    }
                    let dw = kernel_dw_dr(r, p.smoothing);
                    let pj_term = n.pressure / (n.density * n.density);
                    acc -= dr * (n.mass * (pi_term + pj_term) * dw / r);
                }
                Some(acc)
            })
            .collect();
        let mut mean_density = 0.0;
        for (p, acc) in particles.iter_mut().zip(computed) {
            mean_density += p.density;
            if let Some(acc) = acc {
                p.acc += acc;
            }
        }
        mean_density / particles.len().max(1) as f64
    }
}

/// Builds an SPH-ready framework over gas particles.
pub fn sph_framework(config: Configuration, particles: Vec<Particle>) -> Framework<KnnData> {
    Framework::new(config, particles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::gen;
    use paratreet_tree::TreeType;

    #[test]
    fn kernel_normalises() {
        // ∫ W dV over the support ≈ 1 (midpoint rule on a radial grid).
        let h = 0.7;
        let steps = 4000;
        let dr = 2.0 * h / steps as f64;
        let mut integral = 0.0;
        for i in 0..steps {
            let r = (i as f64 + 0.5) * dr;
            integral += kernel_w(r, h) * 4.0 * std::f64::consts::PI * r * r * dr;
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn kernel_gradient_matches_finite_difference() {
        let h = 0.5;
        for r in [0.1, 0.3, 0.6, 0.9] {
            let eps = 1e-7;
            let fd = (kernel_w(r + eps, h) - kernel_w(r - eps, h)) / (2.0 * eps);
            let an = kernel_dw_dr(r, h);
            assert!((fd - an).abs() < 1e-5, "r={r}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn kernel_has_compact_support() {
        assert_eq!(kernel_w(2.1 * 0.5, 0.5), 0.0);
        assert_eq!(kernel_dw_dr(1.1, 0.5), 0.0);
        assert!(kernel_w(0.0, 0.5) > 0.0);
        assert_eq!(kernel_w(1.0, 0.0), 0.0);
    }

    #[test]
    fn uniform_lattice_density_is_near_uniform() {
        // A near-uniform gas: SPH density should match mass/volume within
        // kernel noise and be nearly equal everywhere.
        let n = 512;
        let half = 0.5;
        let ps = gen::perturbed_lattice(n, 5, half, 0.01);
        let config = Configuration {
            tree_type: TreeType::Octree,
            bucket_size: 16,
            n_subtrees: 4,
            n_partitions: 4,
            ..Default::default()
        };
        let mut fw = sph_framework(config, ps);
        let sph = SphSimulation { k: 32, ..Default::default() };
        let stats = sph.step(&mut fw);
        let volume = 2.0 * half;
        let expected = 1.0 / (volume * volume * volume); // total mass 1
                                                         // Interior particles (away from the free boundary) carry the
                                                         // expected density.
        let interior: Vec<f64> = fw
            .particles()
            .iter()
            .filter(|p| p.pos.x.abs() < 0.25 && p.pos.y.abs() < 0.25 && p.pos.z.abs() < 0.25)
            .map(|p| p.density)
            .collect();
        assert!(!interior.is_empty());
        let mean: f64 = interior.iter().sum::<f64>() / interior.len() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.2,
            "mean interior density {mean} vs expected {expected}"
        );
        assert!(stats.neighbor_entries >= (n * 32) as u64 * 9 / 10);
    }

    #[test]
    fn pressure_gradient_pushes_outward_from_overdensity() {
        // Compress the central region: pressure forces must point away
        // from the centre for particles near the blob edge.
        let mut ps = gen::perturbed_lattice(729, 7, 0.5, 0.0);
        for p in &mut ps {
            // Pull everything toward the origin to create an overdensity.
            p.pos = p.pos * (0.4 + 0.6 * p.pos.norm());
        }
        let config =
            Configuration { bucket_size: 16, n_subtrees: 4, n_partitions: 4, ..Default::default() };
        let mut fw = sph_framework(config, ps);
        let sph = SphSimulation { k: 24, ..Default::default() };
        sph.step(&mut fw);
        // Density must peak centrally.
        let inner_rho: f64 =
            fw.particles().iter().filter(|p| p.pos.norm() < 0.15).map(|p| p.density).sum::<f64>();
        let outer_rho: f64 =
            fw.particles().iter().filter(|p| p.pos.norm() > 0.35).map(|p| p.density).sum::<f64>();
        assert!(inner_rho > 0.0 && outer_rho > 0.0);
        // Mean radial acceleration of mid-shell particles points outward.
        let mid: Vec<&Particle> =
            fw.particles().iter().filter(|p| (0.15..0.3).contains(&p.pos.norm())).collect();
        assert!(!mid.is_empty());
        let radial: f64 =
            mid.iter().map(|p| p.acc.dot(p.pos.normalized())).sum::<f64>() / mid.len() as f64;
        assert!(radial > 0.0, "mean radial acceleration {radial} should point outward");
    }

    /// One SPH step as it ran while every neighbour was a 72-byte
    /// record: per-id `Vec<Neighbor>` lists and `(ρ, P)` in default
    /// `HashMap`s. Kept verbatim as the reference `step` must match bit
    /// for bit; only the records' payloads are now read from the
    /// particles here, since the heaps no longer carry them.
    fn reference_step(sim: &SphSimulation, fw: &mut Framework<KnnData>) {
        let visitor = KnnVisitor { k: sim.k };
        let kind = sim.kind;
        let ((states, ids), _) = fw.step(|step| {
            let (states, _) = step.traverse(&visitor, kind);
            (states, step.bucket_particle_ids())
        });
        let by_id: HashMap<u64, Particle> = fw.particles().iter().map(|p| (p.id, *p)).collect();

        let mut lists: HashMap<u64, Vec<Neighbor>> = HashMap::new();
        for (state, bucket_ids) in states.into_iter().zip(ids) {
            for (heap, id) in state.heaps.into_iter().zip(bucket_ids) {
                let sorted = heap
                    .into_sorted()
                    .iter()
                    .map(|c| {
                        let p = &by_id[&c.id];
                        Neighbor {
                            dist_sq: c.dist_sq,
                            id: c.id,
                            pos: p.pos,
                            mass: p.mass,
                            vel: p.vel,
                        }
                    })
                    .collect();
                lists.insert(id, sorted);
            }
        }

        let particles = fw.particles_mut();
        let mut rho_of: HashMap<u64, (f64, f64)> = HashMap::new(); // id -> (rho, P)
        for p in particles.iter_mut() {
            let empty = Vec::new();
            let nbrs = lists.get(&p.id).unwrap_or(&empty);
            let (h, rho) = density_from_neighbors(p.mass, nbrs, None);
            p.smoothing = h;
            p.density = rho;
            p.pressure = (sim.gamma - 1.0) * rho * p.internal_energy;
            rho_of.insert(p.id, (rho, p.pressure));
        }

        for p in particles.iter_mut() {
            let empty = Vec::new();
            let nbrs = lists.get(&p.id).unwrap_or(&empty);
            if p.density <= 0.0 {
                continue;
            }
            let pi_term = p.pressure / (p.density * p.density);
            let mut acc = Vec3::ZERO;
            for n in nbrs {
                let (rho_j, p_j) = match rho_of.get(&n.id) {
                    Some(&v) if v.0 > 0.0 => v,
                    _ => continue,
                };
                let dr = p.pos - n.pos;
                let r = dr.norm();
                if r == 0.0 {
                    continue;
                }
                let dw = kernel_dw_dr(r, p.smoothing);
                let pj_term = p_j / (rho_j * rho_j);
                acc -= dr * (n.mass * (pi_term + pj_term) * dw / r);
            }
            p.acc += acc;
        }
    }

    #[test]
    fn step_matches_the_record_list_reference_bit_for_bit() {
        let mut coincident = gen::clustered(300, 3, 41, 1.0, 1.0);
        coincident[1].pos = coincident[0].pos;
        let cases = [
            ("clustered", gen::clustered(2000, 3, 17, 1.0, 1.0), 32),
            ("exact lattice, tied distances", gen::perturbed_lattice(729, 7, 0.5, 0.0), 32),
            ("fewer particles than k", gen::uniform_cube(20, 5, 1.0, 1.0), 32),
            ("two coincident particles", coincident, 16),
        ];
        for (name, mut particles, k) in cases {
            for (i, p) in particles.iter_mut().enumerate() {
                p.internal_energy = 1.0 + (i % 3) as f64;
            }
            let config = Configuration {
                bucket_size: 12,
                n_subtrees: 4,
                n_partitions: 3,
                ..Default::default()
            };
            let sim = SphSimulation { k, ..Default::default() };
            let mut fw = sph_framework(config.clone(), particles.clone());
            let mut reference = sph_framework(config, particles);
            let stats = sim.step(&mut fw);
            reference_step(&sim, &mut reference);
            let n = fw.particles().len();
            assert_eq!(stats.neighbor_entries, (n * k.min(n - 1)) as u64, "{name}");
            for (got, want) in fw.particles().iter().zip(reference.particles()) {
                assert_eq!(got.id, want.id, "{name}");
                let bits = |p: &Particle| {
                    [p.smoothing, p.density, p.pressure, p.acc.x, p.acc.y, p.acc.z]
                        .map(f64::to_bits)
                };
                assert_eq!(bits(got), bits(want), "{name}: particle {}", got.id);
            }
            assert!(fw.particles().iter().any(|p| p.acc != Vec3::ZERO), "{name}: forces acted");
        }
    }

    #[test]
    fn density_from_neighbors_handles_empty() {
        assert_eq!(density_from_neighbors(1.0, &[], None), (0.0, 0.0));
    }
}
