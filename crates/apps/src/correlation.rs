//! Two-point correlation functions — the "n-point correlation" workload
//! the paper's evaluation section names among cosmology's algorithms
//! (§III), and the classic dual-tree application (Gray & Moore, the
//! paper's ref. 15, which SPIRIT also targets).
//!
//! The estimator needs *pair counts by separation bin*: `DD(r)` over the
//! data and `RR(r)` over a random catalogue, giving
//! `ξ(r) = DD(r)/RR(r) − 1` (Peebles–Hauser). Pair counting is a rule
//! set for [`paratreet_tree::dual`]'s walk of one tree against itself,
//! and tree pruning shines twice over on the tight boxes of a node
//! pair's particles:
//!
//! * a node pair whose separation range lies entirely *outside*
//!   `[r_min, r_max)` contributes nothing — prune;
//! * a node pair whose range lies entirely inside *one bin* contributes
//!   `2·|A|·|B|` ordered pairs to that bin — credit in O(1), no descent;
//! * a leaf pair counts its particle pairs one by one.

use paratreet_core::{universe_for, Configuration};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_tree::dual::{tight_boxes, walk, Rules};
use paratreet_tree::{BuiltTree, CountData, NodeIdx, TreeBuilder};

/// Logarithmic (or linear) separation bins over `[r_min, r_max)`.
#[derive(Clone, Debug)]
pub struct SeparationBins {
    /// Inner edge of the first bin.
    pub r_min: f64,
    /// Outer edge of the last bin.
    pub r_max: f64,
    /// Bin edges, ascending, `n_bins + 1` entries.
    pub edges: Vec<f64>,
}

impl SeparationBins {
    /// `n` logarithmically spaced bins over `[r_min, r_max)`.
    pub fn logarithmic(r_min: f64, r_max: f64, n: usize) -> SeparationBins {
        assert!(r_min > 0.0 && r_max > r_min && n > 0);
        let lmin = r_min.ln();
        let step = (r_max.ln() - lmin) / n as f64;
        let mut edges: Vec<f64> = (0..=n).map(|i| (lmin + i as f64 * step).exp()).collect();
        // Pin the end edges exactly so `bin_of(r_min)` and range checks
        // agree bit-for-bit with `r_min`/`r_max`.
        edges[0] = r_min;
        edges[n] = r_max;
        SeparationBins { r_min, r_max, edges }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.edges.len() - 1
    }

    /// True when there are no bins (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bin containing separation `r`, if within range.
    #[inline]
    pub fn bin_of(&self, r: f64) -> Option<usize> {
        if r < self.r_min || r >= self.r_max {
            return None;
        }
        // Binary search on edges (few bins: partition_point is fine).
        let i = self.edges.partition_point(|e| *e <= r);
        Some(i.saturating_sub(1).min(self.len() - 1))
    }

    /// Geometric bin centres, for plotting.
    pub fn centers(&self) -> Vec<f64> {
        self.edges.windows(2).map(|w| (w[0] * w[1]).sqrt()).collect()
    }
}

/// Pair counting's rules over one tree beside its nodes' tight boxes:
/// `counts[k]` gathers the ordered pairs whose separation falls in bin
/// `k`.
struct PairCount<'a> {
    tree: &'a BuiltTree<CountData>,
    tight: &'a [BoundingBox],
    bins: &'a SeparationBins,
    counts: Vec<u64>,
}

/// The separation range between the particles of two tight boxes: the
/// box distance below, the farthest corner-to-corner distance above.
/// Both bound every pair distance in floating point too — the same
/// per-axis differences, squares and sums, on operands no larger or no
/// smaller.
fn range(a: &BoundingBox, b: &BoundingBox) -> (f64, f64) {
    let lo = a.dist_sq_to_box(b).sqrt();
    let mut hi2 = 0.0f64;
    for i in 0..3 {
        let d = (b.hi.component(i) - a.lo.component(i))
            .abs()
            .max((a.hi.component(i) - b.lo.component(i)).abs());
        hi2 += d * d;
    }
    (lo, hi2.sqrt())
}

impl Rules for PairCount<'_> {
    fn score(&mut self, ai: NodeIdx, bi: NodeIdx) -> bool {
        let bins = self.bins;
        let (lo, hi) = range(&self.tight[ai as usize], &self.tight[bi as usize]);
        if hi < bins.r_min || lo >= bins.r_max {
            return false; // no pair in range
        }
        // Past the prune `hi >= r_min` and `lo < r_max`, so ends with the
        // same number `k` of edges at or below them put every pair in bin
        // `k − 1`. A node against itself holds n·(n − 1) ordered pairs,
        // not n²: it descends.
        let edges_below = |r: f64| bins.edges.partition_point(|e| *e <= r);
        let k = edges_below(lo);
        if ai == bi || k != edges_below(hi) {
            return true;
        }
        let n = |i: NodeIdx| u64::from(self.tree.nodes[i as usize].n_particles);
        self.counts[k - 1] += 2 * n(ai) * n(bi);
        false
    }

    fn base_case(&mut self, ai: NodeIdx, bi: NodeIdx, diagonal: bool) {
        let (a, b) = (self.tree.bucket(ai), self.tree.bucket(bi));
        for (i, p) in a.iter().enumerate() {
            for q in if diagonal { &a[i + 1..] } else { b } {
                if let Some(k) = self.bins.bin_of(p.pos.dist(q.pos)) {
                    self.counts[k] += 2;
                }
            }
        }
    }
}

/// Counts ordered pairs of `particles` by separation bin: one tree of
/// `config`'s tree type and bucket size, walked against itself.
pub fn pair_counts(
    particles: Vec<Particle>,
    bins: &SeparationBins,
    config: Configuration,
) -> Vec<u64> {
    let universe = universe_for(&particles, &config, 0.0);
    let builder = TreeBuilder::new(config.tree_type).bucket_size(config.bucket_size);
    let tree: BuiltTree<CountData> = builder.build(particles, universe);
    let tight = tight_boxes(&tree);
    let mut rules = PairCount { tree: &tree, tight: &tight, bins, counts: vec![0; bins.len()] };
    walk(&tree, &tree, true, &mut rules);
    rules.counts
}

/// The Peebles–Hauser estimator `ξ(r) = (DD/n_d²) / (RR/n_r²) − 1`,
/// using a uniform random catalogue of `random.len()` points in the same
/// volume. Bins with empty `RR` yield `f64::NAN`.
pub fn two_point_correlation(
    data: Vec<Particle>,
    random: Vec<Particle>,
    bins: &SeparationBins,
    config: Configuration,
) -> Vec<f64> {
    let n_d = data.len() as f64;
    let n_r = random.len() as f64;
    let dd = pair_counts(data, bins, config.clone());
    let rr = pair_counts(random, bins, config);
    dd.iter()
        .zip(&rr)
        .map(|(&dd, &rr)| {
            if rr == 0 {
                f64::NAN
            } else {
                (dd as f64 / (n_d * n_d)) / (rr as f64 / (n_r * n_r)) - 1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_geometry::Vec3;
    use paratreet_particles::gen;
    use paratreet_tree::TreeType;

    fn brute_counts(ps: &[Particle], bins: &SeparationBins) -> Vec<u64> {
        let mut out = vec![0u64; bins.len()];
        for a in ps {
            for b in ps {
                if a.id == b.id {
                    continue;
                }
                if let Some(i) = bins.bin_of(a.pos.dist(b.pos)) {
                    out[i] += 1;
                }
            }
        }
        out
    }

    fn config() -> Configuration {
        Configuration { bucket_size: 8, n_subtrees: 6, n_partitions: 5, ..Default::default() }
    }

    const TREE_TYPES: [TreeType; 4] =
        [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct];

    #[test]
    fn bins_cover_range_without_gaps() {
        let bins = SeparationBins::logarithmic(0.01, 1.0, 10);
        assert_eq!(bins.len(), 10);
        assert_eq!(bins.bin_of(0.009), None);
        assert_eq!(bins.bin_of(1.0), None);
        assert_eq!(bins.bin_of(0.01), Some(0));
        // Every edge belongs to the bin it opens.
        for (i, w) in bins.edges.windows(2).enumerate() {
            assert_eq!(bins.bin_of(w[0]), Some(i));
            let mid = (w[0] * w[1]).sqrt();
            assert_eq!(bins.bin_of(mid), Some(i));
        }
        assert!(!bins.is_empty());
        assert_eq!(bins.centers().len(), 10);
    }

    #[test]
    fn tree_counts_match_brute_force() {
        let ps = gen::clustered(400, 3, 7, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.01, 1.5, 8);
        let want = brute_counts(&ps, &bins);
        for tree_type in TREE_TYPES {
            for bucket_size in [1, 8] {
                let config = Configuration { tree_type, bucket_size, ..config() };
                let got = pair_counts(ps.clone(), &bins, config);
                assert_eq!(got, want, "{tree_type:?}, bucket {bucket_size}");
            }
        }
    }

    /// Three pairs far apart from each other, one each exactly at `r_min`,
    /// at the inner bin edge and at `r_max`, every coordinate dyadic so
    /// each separation — and the range of the two one-particle leaves
    /// holding it — is the edge itself. A prune that drops a range ending
    /// *at* `r_min`, one that keeps a range starting at `r_max`, or a
    /// credit that puts an edge in the bin below it miscounts; with bins
    /// from 0, so does a credit of a leaf against itself.
    #[test]
    fn pairs_exactly_at_the_bin_edges_count_as_brute_force() {
        let mut ps = Vec::new();
        for (id, corner, gap) in
            [(0, [0.5, 0.5, 0.5], 0.125), (2, [3.0, 0.5, 0.5], 0.25), (4, [0.5, 3.0, 0.5], 0.5)]
        {
            let p = Vec3::new(corner[0], corner[1], corner[2]);
            ps.push(Particle { id, mass: 1.0, pos: p, ..Particle::default() });
            let q = Vec3::new(p.x + gap, p.y, p.z);
            ps.push(Particle { id: id + 1, mass: 1.0, pos: q, ..Particle::default() });
        }
        for r_min in [0.125, 0.0] {
            let bins = SeparationBins { r_min, r_max: 0.5, edges: vec![r_min, 0.25, 0.5] };
            let want = brute_counts(&ps, &bins);
            assert_eq!(want, vec![2, 2], "the r_max pair is out of range");
            for tree_type in TREE_TYPES {
                let config = Configuration { tree_type, bucket_size: 1, ..config() };
                let got = pair_counts(ps.clone(), &bins, config);
                assert_eq!(got, want, "{tree_type:?}, r_min {r_min}");
            }
        }
    }

    #[test]
    fn empty_and_one_particle_catalogues_count_nothing() {
        let bins = SeparationBins::logarithmic(0.01, 1.0, 4);
        let one = gen::uniform_cube(1, 3, 1.0, 1.0);
        for ps in [Vec::new(), one.clone()] {
            assert_eq!(pair_counts(ps, &bins, config()), vec![0; 4]);
        }
        let data = gen::uniform_cube(50, 5, 1.0, 1.0);
        for random in [Vec::new(), one] {
            let xi = two_point_correlation(data.clone(), random, &bins, config());
            assert!(xi.iter().all(|v| v.is_nan()), "RR = 0 gives NaN: {xi:?}");
        }
    }

    #[test]
    fn uniform_field_has_near_zero_correlation() {
        let data = gen::uniform_cube(2000, 3, 1.0, 1.0);
        let random = gen::uniform_cube(2000, 991, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.1, 0.8, 5);
        let xi = two_point_correlation(data, random, &bins, config());
        for (i, v) in xi.iter().enumerate() {
            assert!(v.abs() < 0.2, "bin {i}: ξ = {v} should be ~0 for uniform data");
        }
    }

    #[test]
    fn clustered_field_is_positively_correlated_at_small_r() {
        let data = gen::clustered(2000, 5, 11, 1.0, 1.0);
        let random = gen::uniform_cube(2000, 993, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.02, 1.0, 6);
        let xi = two_point_correlation(data, random, &bins, config());
        assert!(
            xi[0] > 1.0,
            "clustered data must correlate strongly at small separations: ξ = {:?}",
            xi
        );
        // Correlation decays with separation.
        assert!(xi[0] > xi[bins.len() - 1]);
    }
}
