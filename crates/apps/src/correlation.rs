//! Two-point correlation functions — the "n-point correlation" workload
//! the paper's evaluation section names among cosmology's algorithms
//! (§III), and the classic dual-tree application (Gray & Moore, the
//! paper's ref. 15, which SPIRIT also targets).
//!
//! The estimator needs *pair counts by separation bin*: `DD(r)` over the
//! data and `RR(r)` over a random catalogue, giving
//! `ξ(r) = DD(r)/RR(r) − 1` (Peebles–Hauser). Pair counting is where
//! tree pruning shines twice over:
//!
//! * a node pair whose separation range lies entirely *outside*
//!   `[r_min, r_max)` contributes nothing — prune;
//! * a node pair whose range lies entirely inside *one bin* contributes
//!   `|A|·|B|` to that bin — prune and credit in O(1), no descent.
//!
//! Both rules are one `open()` implementation here, so the same visitor
//! runs under the single-tree and the dual-tree traversals; the
//! dual-tree schedule additionally credits whole buckets below a target
//! node at once through `node()`.

use paratreet_core::{SpatialNodeView, TargetBucket, TargetSpan, Visitor};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_tree::data::wire;
use paratreet_tree::Data;

/// Tree `Data` for pair counting: tight box and particle count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PairData {
    /// Tight bounding box of the subtree's particles.
    pub tight_box: BoundingBox,
    /// Particles beneath the node.
    pub count: u64,
}

impl Data for PairData {
    fn from_leaf(particles: &[Particle], _bbox: &BoundingBox) -> Self {
        PairData {
            tight_box: BoundingBox::around(particles.iter().map(|p| p.pos)),
            count: particles.len() as u64,
        }
    }

    fn merge(&mut self, child: &Self) {
        self.tight_box.merge(&child.tight_box);
        self.count += child.count;
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_vec3(out, self.tight_box.lo);
        wire::put_vec3(out, self.tight_box.hi);
        out.extend_from_slice(&self.count.to_le_bytes());
    }

    fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let mut off = 0;
        let lo = wire::get_vec3(input, &mut off)?;
        let hi = wire::get_vec3(input, &mut off)?;
        let bytes: [u8; 8] = input.get(off..off + 8)?.try_into().ok()?;
        off += 8;
        Some((
            PairData { tight_box: BoundingBox { lo, hi }, count: u64::from_le_bytes(bytes) },
            off,
        ))
    }
}

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

    /// If the whole closed range `[lo, hi]` falls in one bin, its index.
    #[inline]
    pub fn single_bin(&self, lo: f64, hi: f64) -> Option<usize> {
        let a = self.bin_of(lo)?;
        let b = self.bin_of(hi)?;
        (a == b).then_some(a)
    }

    /// Geometric bin centres, for plotting.
    pub fn centers(&self) -> Vec<f64> {
        self.edges.windows(2).map(|w| (w[0] * w[1]).sqrt()).collect()
    }
}

/// Per-bucket pair-count state: one histogram per bucket (merged after
/// the traversal), counting *ordered* pairs (target, source).
#[derive(Clone, Debug, Default)]
pub struct PairCounts {
    /// Ordered pair counts per bin.
    pub bins: Vec<u64>,
}

/// The pair-counting visitor.
pub struct PairCountVisitor {
    /// Separation binning.
    pub bins: SeparationBins,
}

impl PairCountVisitor {
    fn ensure(&self, target: &mut TargetBucket<PairCounts>) {
        if target.state.bins.len() != self.bins.len() {
            target.state.bins = vec![0; self.bins.len()];
        }
    }

    /// The separation range between a source region and a target region.
    fn range(src: &BoundingBox, tgt: &BoundingBox) -> (f64, f64) {
        let lo = src.dist_sq_to_box(tgt).sqrt();
        // Upper bound: farthest corner-to-corner distance.
        let hi2 = {
            let mut m = 0.0f64;
            for i in 0..3 {
                let a = (tgt.hi.component(i) - src.lo.component(i)).abs();
                let b = (src.hi.component(i) - tgt.lo.component(i)).abs();
                let d = a.max(b);
                m += d * d;
            }
            m
        };
        (lo, hi2.sqrt())
    }
}

impl Visitor for PairCountVisitor {
    type Data = PairData;
    type State = PairCounts;
    type Prepared = ();
    type PerTarget = ();

    fn prepare(&self, _source: &SpatialNodeView<'_, PairData>) {}

    fn open(
        &self,
        source: &SpatialNodeView<'_, PairData>,
        _: &(),
        target: &TargetBucket<PairCounts>,
    ) -> bool {
        if source.data.count == 0 {
            return false;
        }
        let (lo, hi) = Self::range(&source.data.tight_box, &target.bbox);
        if hi < self.bins.r_min || lo >= self.bins.r_max {
            return false; // entirely out of range: contributes nothing
        }
        // Entirely inside one bin: node() credits it in O(1).
        self.bins.single_bin(lo, hi).is_none()
    }

    fn node(
        &self,
        source: &SpatialNodeView<'_, PairData>,
        _: &(),
        targets: &mut TargetSpan<'_, PairCounts>,
    ) {
        for (_, target) in targets.buckets() {
            self.ensure(target);
            let (lo, hi) = Self::range(&source.data.tight_box, &target.bbox);
            if let Some(bin) = self.bins.single_bin(lo, hi) {
                target.state.bins[bin] += source.data.count * target.len() as u64;
            }
            // Out-of-range prunes contribute nothing (hi < r_min or lo >= r_max).
        }
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, PairData>,
        _: &(),
        targets: &mut TargetSpan<'_, PairCounts>,
    ) {
        for (particles, target) in targets.buckets() {
            self.ensure(target);
            for tp in particles {
                for sp in source.particles {
                    if sp.id == tp.id {
                        continue;
                    }
                    if let Some(bin) = self.bins.bin_of(sp.pos.dist(tp.pos)) {
                        target.state.bins[bin] += 1;
                    }
                }
            }
        }
    }

    fn cell(
        &self,
        source: &SpatialNodeView<'_, PairData>,
        target: &SpatialNodeView<'_, PairData>,
    ) -> bool {
        // Open both sides only while the target is *much* larger than
        // the source; otherwise keep the target whole so out-of-range
        // and single-bin prunes credit entire target subtrees at once
        // (B instead of B² child pairs).
        target.data.tight_box.radius_sq() > 4.0 * source.data.tight_box.radius_sq()
    }
}

/// Counts ordered pairs of `particles` by separation bin with a tree
/// traversal (`kind` may be any schedule; `DualTree` is the natural one).
pub fn pair_counts(
    particles: Vec<Particle>,
    bins: &SeparationBins,
    config: paratreet_core::Configuration,
    kind: paratreet_core::TraversalKind,
) -> Vec<u64> {
    let visitor = PairCountVisitor { bins: bins.clone() };
    let mut fw: paratreet_core::Framework<PairData> =
        paratreet_core::Framework::new(config, particles);
    let (states, _) = fw.step(|step| {
        let (states, _) = step.traverse(&visitor, kind);
        states
    });
    let mut total = vec![0u64; bins.len()];
    for s in states {
        for (t, b) in total.iter_mut().zip(s.bins.iter().chain(std::iter::repeat(&0))) {
            *t += *b;
        }
    }
    total
}

/// The Peebles–Hauser estimator `ξ(r) = (DD/n_d²) / (RR/n_r²) − 1`,
/// using a uniform random catalogue of `random.len()` points in the same
/// volume. Bins with empty `RR` yield `f64::NAN`.
pub fn two_point_correlation(
    data: Vec<Particle>,
    random: Vec<Particle>,
    bins: &SeparationBins,
    config: paratreet_core::Configuration,
    kind: paratreet_core::TraversalKind,
) -> Vec<f64> {
    let n_d = data.len() as f64;
    let n_r = random.len() as f64;
    let dd = pair_counts(data, bins, config.clone(), kind);
    let rr = pair_counts(random, bins, config, kind);
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
    use paratreet_core::{Configuration, TraversalKind};
    use paratreet_particles::gen;

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
        assert_eq!(bins.single_bin(0.011, 0.0111), Some(0));
        assert_eq!(bins.single_bin(0.011, 0.9), None);
        assert!(!bins.is_empty());
        assert_eq!(bins.centers().len(), 10);
    }

    #[test]
    fn tree_counts_match_brute_force_all_traversals() {
        let ps = gen::clustered(400, 3, 7, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.01, 1.5, 8);
        let want = brute_counts(&ps, &bins);
        for kind in [TraversalKind::TopDown, TraversalKind::BasicDfs, TraversalKind::DualTree] {
            let got = pair_counts(ps.clone(), &bins, config(), kind);
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn traversal_schedules_trade_visits_for_identical_counts() {
        // All three schedules apply the same source-side bulk credits
        // (open() already collapses single-bin node pairs), so exact
        // pair evaluations are identical; what differs is scheduling
        // overhead. The transposed TopDown amortises node visits across
        // every interested bucket — an order of magnitude fewer visits
        // than walking the tree once per bucket, with the dual-tree
        // schedule in between (its per-(node,node) pair walk still
        // re-visits sources per target subtree).
        let ps = gen::uniform_cube(1500, 5, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.02, 0.25, 6);
        let visitor = PairCountVisitor { bins };
        let run = |kind| {
            let mut fw: paratreet_core::Framework<PairData> =
                paratreet_core::Framework::new(config(), ps.clone());
            let (_, report) = fw.step(|s| {
                s.traverse(&visitor, kind);
            });
            report.counts
        };
        let dual = run(TraversalKind::DualTree);
        let basic = run(TraversalKind::BasicDfs);
        let transposed = run(TraversalKind::TopDown);
        assert_eq!(dual.leaf_interactions, basic.leaf_interactions);
        assert_eq!(transposed.leaf_interactions, basic.leaf_interactions);
        assert!(
            transposed.nodes_visited * 10 < basic.nodes_visited,
            "transposition must amortise visits: {} vs {}",
            transposed.nodes_visited,
            basic.nodes_visited
        );
        assert!(transposed.nodes_visited < dual.nodes_visited);
    }

    #[test]
    fn uniform_field_has_near_zero_correlation() {
        let data = gen::uniform_cube(2000, 3, 1.0, 1.0);
        let random = gen::uniform_cube(2000, 991, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.1, 0.8, 5);
        let xi = two_point_correlation(data, random, &bins, config(), TraversalKind::TopDown);
        for (i, v) in xi.iter().enumerate() {
            assert!(v.abs() < 0.2, "bin {i}: ξ = {v} should be ~0 for uniform data");
        }
    }

    #[test]
    fn clustered_field_is_positively_correlated_at_small_r() {
        let data = gen::clustered(2000, 5, 11, 1.0, 1.0);
        let random = gen::uniform_cube(2000, 993, 1.0, 1.0);
        let bins = SeparationBins::logarithmic(0.02, 1.0, 6);
        let xi = two_point_correlation(data, random, &bins, config(), TraversalKind::DualTree);
        assert!(
            xi[0] > 1.0,
            "clustered data must correlate strongly at small separations: ξ = {:?}",
            xi
        );
        // Correlation decays with separation.
        assert!(xi[0] > xi[bins.len() - 1]);
    }

    #[test]
    fn pair_data_wire_roundtrip() {
        let ps = gen::uniform_cube(20, 3, 1.0, 1.0);
        let d = PairData::from_leaf(&ps, &BoundingBox::empty());
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let (back, used) = PairData::decode(&buf).unwrap();
        assert_eq!(back, d);
        assert_eq!(used, buf.len());
    }
}
