//! Built-in tree types.
//!
//! A tree type is "the strategy used to subdivide the spatial regions"
//! (paper §I). ParaTreeT ships an octree, a k-d tree, and — from the
//! planetary-disk case study — a longest-dimension tree; users can add
//! their own by choosing a branch factor and a split rule (§IV-B exposes
//! `findChildsLastParticle`; here the equivalent hook is
//! the one cut rule in [`crate::cut`]).

use paratreet_geometry::Axis;

/// The built-in spatial tree types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeType {
    /// Split each node at its centre into 8 equal-volume octants.
    /// Bounding boxes keep aspect ratios near one — preferred by
    /// Barnes-Hut opening criteria — but the tree can become deep and
    /// imbalanced for non-uniform distributions.
    Octree,
    /// Binary splits at the particle median, cycling the split axis with
    /// depth (x, y, z, x, ...). Guaranteed balanced; node aspect ratios
    /// are unconstrained.
    KdTree,
    /// Binary splits at the particle median, always along the longest
    /// axis of the current subspace — the custom type built for
    /// mostly-2D planetesimal disks in the paper's case study, where
    /// splitting all three dimensions equally "makes for useless tree
    /// branching and poor decomposition".
    LongestDim,
    /// Binary splits at the *spatial midpoint*, cycling axes with depth
    /// — an octree unrolled one dimension at a time (reference
    /// ParaTreeT's "binary oct" type). Space-driven like the octree
    /// (children can be empty, depth follows density), but with branch
    /// factor 2: finer-grained subtree pieces and cheaper node state.
    BinaryOct,
}

impl TreeType {
    /// Number of children per internal node.
    #[inline]
    pub fn branch_factor(self) -> usize {
        match self {
            TreeType::Octree => 8,
            TreeType::KdTree | TreeType::LongestDim | TreeType::BinaryOct => 2,
        }
    }

    /// Bits per [`paratreet_geometry::NodeKey`] digit.
    #[inline]
    pub fn bits_per_level(self) -> u32 {
        match self {
            TreeType::Octree => 3,
            TreeType::KdTree | TreeType::LongestDim | TreeType::BinaryOct => 1,
        }
    }

    /// The split axis used at `depth` for axis-cycling types; `None` for
    /// types that pick the axis from geometry (octree splits all three,
    /// longest-dim inspects the box).
    #[inline]
    pub fn cycling_axis(self, depth: u32) -> Option<Axis> {
        match self {
            TreeType::KdTree | TreeType::BinaryOct => Some(Axis::from_index(depth as usize % 3)),
            _ => None,
        }
    }

    /// Whether internal nodes split at the *particle median* (frozen at
    /// build time) rather than at a position-determined plane. Only
    /// median-split trees can drift out of balance as particles move —
    /// octree/binary-oct structure is a pure function of positions, so
    /// a rebuild reproduces the maintained shape exactly.
    #[inline]
    pub fn is_median_split(self) -> bool {
        matches!(self, TreeType::KdTree | TreeType::LongestDim)
    }

    /// Human-readable name used by harness output.
    pub fn name(self) -> &'static str {
        match self {
            TreeType::Octree => "oct",
            TreeType::KdTree => "kd",
            TreeType::LongestDim => "longest-dim",
            TreeType::BinaryOct => "binary-oct",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_factors_match_bits() {
        for t in [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct] {
            assert_eq!(t.branch_factor(), 1 << t.bits_per_level());
        }
    }

    #[test]
    fn kd_axes_cycle() {
        assert_eq!(TreeType::KdTree.cycling_axis(0), Some(Axis::X));
        assert_eq!(TreeType::KdTree.cycling_axis(1), Some(Axis::Y));
        assert_eq!(TreeType::KdTree.cycling_axis(2), Some(Axis::Z));
        assert_eq!(TreeType::KdTree.cycling_axis(3), Some(Axis::X));
        assert_eq!(TreeType::Octree.cycling_axis(5), None);
        assert_eq!(TreeType::LongestDim.cycling_axis(5), None);
    }
}
