//! Run configuration — the paper's `Configuration` object (§II-D-2).
//!
//! "The user specifies various run and performance parameters. These
//! include input file name, number of iterations, load balancing period,
//! minimum number of Subtrees and Partitions, decomposition type, tree
//! type, among others. Users can also tune other performance-specific
//! hyperparameters: number of nodes fetched per request, number of
//! branch nodes shared across all processors."

use paratreet_tree::TreeType;

/// The built-in decomposition types for Partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecompType {
    /// Space-filling-curve slices uniform in particle count — the classic
    /// load-balanced decomposition.
    Sfc,
    /// Octree-node-aligned decomposition (partitions are octree regions;
    /// load can imbalance for non-uniform inputs — the Fig. 13 effect).
    Oct,
    /// Binary median splits cycling axes (k-d style), uniform in count.
    Kd,
    /// Binary median splits along the longest axis — the disk case
    /// study's custom decomposition.
    LongestDim,
}

impl DecompType {
    /// Harness-output name.
    pub fn name(self) -> &'static str {
        match self {
            DecompType::Sfc => "sfc",
            DecompType::Oct => "oct",
            DecompType::Kd => "kd",
            DecompType::LongestDim => "longest-dim",
        }
    }
}

/// Which space-filling curve keys particles for SFC decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SfcCurve {
    /// Morton / Z-order: cheap, and its keys double as octree digits.
    Morton,
    /// Hilbert: consecutive keys are always adjacent cells, so
    /// equal-count slices have smaller surface area — less
    /// cross-partition communication (what ChaNGa's Peano–Hilbert
    /// decomposition buys). Only affects `DecompType::Sfc`; octree
    /// decomposition needs Morton's digit structure.
    Hilbert,
}

impl SfcCurve {
    /// Harness-output name.
    pub fn name(self) -> &'static str {
        match self {
            SfcCurve::Morton => "morton",
            SfcCurve::Hilbert => "hilbert",
        }
    }
}

/// The built-in traversal schedules (§II-A-2). The paper's dual-tree
/// traversal is not one of them: it is `paratreet_tree::dual`'s walk of
/// two trees under a rule set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// ParaTreeT's default: node-frontier order, evaluating every
    /// interested bucket against each tree node ("processes each bucket
    /// for each tree node" — the locality-enhancing loop transposition).
    TopDown,
    /// The standard per-bucket depth-first walk — "BasicTrav" in
    /// Fig. 10. Same interactions, one full tree walk per bucket.
    BasicDfs,
    /// Up-and-down: each bucket starts at its own leaf and expands
    /// outward toward the root, visiting nearer data first. Preferred
    /// when pruning criteria tighten during the traversal (k-nearest
    /// neighbours).
    UpAndDown,
}

/// Incremental tree maintenance knobs. With `enabled`, the engines keep
/// the global tree alive across iterations — classifying all movers in
/// one pass, applying escapees as sorted per-Subtree batches, and
/// re-accumulating `Data` along dirty paths — instead of rebuilding
/// from scratch. Structural drift is bounded by weight-balance
/// invariants rather than ad-hoc churn counters: a median-split Subtree
/// is rebuilt alone when some interior node's heaviest child exceeds
/// `balance_alpha` of its weight or its depth exceeds the α-balance
/// depth bound by `balance_depth_slack` levels; when the partition-cost
/// imbalance of the maintained tree exceeds `imbalance_rebuild`, the
/// whole tree is rebuilt and re-decomposed.
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// Maintain the tree across iterations instead of rebuilding. Read
    /// by the shared-memory [`crate::Framework`]; the message engines
    /// rebuild every iteration.
    pub enabled: bool,
    /// BB[α] weight-balance factor: rebuild a median-split Subtree when
    /// an interior node's heaviest child holds more than this fraction
    /// of the node's particles. Position-determined trees (octree,
    /// binary-oct) are exempt — their maintained structure already
    /// equals a fresh build's, so a rebuild cannot improve them.
    pub balance_alpha: f64,
    /// Extra levels a median-split Subtree may exceed the α-balance
    /// depth bound (`log(n/bucket) / log(1/α)`) before being rebuilt.
    pub balance_depth_slack: u32,
    /// Fall back to a whole-tree rebuild + re-decomposition when the
    /// max/mean particle load across Partitions exceeds this factor.
    pub imbalance_rebuild: f64,
    /// Fractional padding applied to the universe box at seed time so
    /// slowly drifting hull particles stay inside the maintained root
    /// regions. Zero keeps the seed bit-identical to a fresh build (the
    /// zero-motion identity), at the cost of more full-rebuild
    /// fallbacks for expanding systems.
    pub universe_pad: f64,
}

impl Default for IncrementalConfig {
    fn default() -> IncrementalConfig {
        IncrementalConfig {
            enabled: false,
            balance_alpha: 0.7,
            balance_depth_slack: 2,
            imbalance_rebuild: 2.5,
            universe_pad: 0.05,
        }
    }
}

/// Framework configuration.
#[derive(Clone, Debug)]
pub struct Configuration {
    /// Spatial tree type for Subtrees.
    pub tree_type: TreeType,
    /// Decomposition type for Partitions.
    pub decomp_type: DecompType,
    /// Maximum particles per leaf bucket.
    pub bucket_size: usize,
    /// Minimum number of Subtrees (tree pieces).
    pub n_subtrees: usize,
    /// Minimum number of Partitions (work pieces).
    pub n_partitions: usize,
    /// Levels of descendants shipped per fill ("number of nodes fetched
    /// per request").
    pub fetch_depth: u32,
    /// Space-filling curve used by SFC decomposition.
    pub sfc: SfcCurve,
    /// Incremental tree maintenance (off by default: full rebuild per
    /// iteration, the paper's pipeline).
    pub incremental: IncrementalConfig,
}

impl Default for Configuration {
    fn default() -> Configuration {
        Configuration {
            tree_type: TreeType::Octree,
            decomp_type: DecompType::Sfc,
            bucket_size: 16,
            n_subtrees: 8,
            n_partitions: 8,
            fetch_depth: 3,
            sfc: SfcCurve::Morton,
            incremental: IncrementalConfig::default(),
        }
    }
}

impl Configuration {
    /// True when Partitions and Subtrees use the same splitters, letting
    /// the framework bind them by location so buckets never split
    /// (the optimisation noted at the end of §II-C-1).
    pub fn partitions_match_subtrees(&self) -> bool {
        self.n_partitions == self.n_subtrees
            && matches!(
                (self.decomp_type, self.tree_type),
                (DecompType::Oct, TreeType::Octree)
                    | (DecompType::Kd, TreeType::KdTree)
                    | (DecompType::LongestDim, TreeType::LongestDim)
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sfc_octree() {
        let c = Configuration::default();
        assert_eq!(c.tree_type, TreeType::Octree);
        assert_eq!(c.decomp_type, DecompType::Sfc);
        assert!(!c.partitions_match_subtrees()); // sfc != oct splitters
    }

    #[test]
    fn matching_splitters_detected() {
        let c = Configuration {
            decomp_type: DecompType::Oct,
            tree_type: TreeType::Octree,
            ..Default::default()
        };
        assert!(c.partitions_match_subtrees());
        let c2 = Configuration { n_partitions: 9, ..c };
        assert!(!c2.partitions_match_subtrees());
        let c3 = Configuration {
            decomp_type: DecompType::LongestDim,
            tree_type: TreeType::LongestDim,
            ..Configuration::default()
        };
        assert!(c3.partitions_match_subtrees());
    }
}
