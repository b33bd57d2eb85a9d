//! Prefix keys for tree nodes.
//!
//! Following the hashed oct-tree convention (Warren & Salmon, ref. 6 of
//! the paper), every node of the global tree is named by an integer whose
//! binary digits spell the path from the root: a leading 1 "sentinel" bit
//! followed by one fixed-width digit per level. Octrees use 3-bit digits,
//! binary trees (k-d, longest-dimension) 1-bit digits.
//!
//! Keys give the layers above a location-independent way to talk about
//! nodes: the software cache's process-level hash table is keyed by
//! `NodeKey`, remote requests carry a `NodeKey`, and ancestor/descendant
//! checks are bit operations.

/// The key of the global root node (just the sentinel bit).
pub const ROOT_KEY: NodeKey = NodeKey(1);

/// A node's path-prefix key. Wraps a `u64`: sentinel `1` bit followed by
/// `level` digits of `bits_per_level` bits each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeKey(pub u64);

impl NodeKey {
    /// The root key.
    #[inline]
    pub const fn root() -> NodeKey {
        ROOT_KEY
    }

    /// The key of this node's `i`-th child in a tree with `bits_per_level`
    /// bits per digit (3 for octrees, 1 for binary trees).
    ///
    /// Panics in debug builds if the child index does not fit the digit or
    /// the key would overflow 64 bits.
    #[inline]
    pub fn child(self, i: usize, bits_per_level: u32) -> NodeKey {
        debug_assert!((i as u64) < (1u64 << bits_per_level));
        debug_assert!(self.0.leading_zeros() >= bits_per_level, "node key depth overflow");
        NodeKey((self.0 << bits_per_level) | i as u64)
    }

    /// The parent key; the root is its own parent.
    #[inline]
    pub fn parent(self, bits_per_level: u32) -> NodeKey {
        if self == ROOT_KEY {
            ROOT_KEY
        } else {
            NodeKey(self.0 >> bits_per_level)
        }
    }

    /// This node's index among its siblings (the last digit).
    #[inline]
    pub fn child_index(self, bits_per_level: u32) -> usize {
        (self.0 & ((1u64 << bits_per_level) - 1)) as usize
    }

    /// Depth below the root (root is level 0).
    #[inline]
    pub fn level(self, bits_per_level: u32) -> u32 {
        debug_assert!(self.0 != 0, "invalid zero key");
        (63 - self.0.leading_zeros()) / bits_per_level
    }

    /// True when `self` is an ancestor of `other` (strict: a node is not
    /// its own ancestor).
    #[inline]
    pub fn is_ancestor_of(self, other: NodeKey, bits_per_level: u32) -> bool {
        let la = self.level(bits_per_level);
        let lb = other.level(bits_per_level);
        lb > la && (other.0 >> ((lb - la) * bits_per_level)) == self.0
    }

    /// The ancestor of this node at `level`; panics in debug builds if the
    /// node is above that level.
    #[inline]
    pub fn ancestor_at(self, level: u32, bits_per_level: u32) -> NodeKey {
        let l = self.level(bits_per_level);
        debug_assert!(level <= l);
        NodeKey(self.0 >> ((l - level) * bits_per_level))
    }

    /// Converts the node key into the smallest particle Morton key that
    /// can fall inside this node, for octree keys (3-bit digits) against
    /// 63-bit Morton particle keys. Used to locate SFC splitters in the
    /// tree. The result has the node's digits as its leading octree
    /// digits and zeros below.
    #[inline]
    pub fn to_morton_floor(self, morton_levels: u32) -> u64 {
        let l = self.level(3);
        debug_assert!(l <= morton_levels);
        (self.0 & !(1u64 << (3 * l))) << (3 * (morton_levels - l))
    }

    /// First key of the half-open Morton interval covered by this octree
    /// node — alias of [`NodeKey::to_morton_floor`].
    #[inline]
    pub fn morton_range(self, morton_levels: u32) -> (u64, u64) {
        let l = self.level(3);
        let lo = self.to_morton_floor(morton_levels);
        let width = 1u64 << (3 * (morton_levels - l));
        (lo, lo + width)
    }

    /// The raw integer value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for NodeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        assert_eq!(ROOT_KEY.level(3), 0);
        assert_eq!(ROOT_KEY.level(1), 0);
        assert_eq!(ROOT_KEY.parent(3), ROOT_KEY);
    }

    #[test]
    fn child_parent_roundtrip_octree() {
        for i in 0..8 {
            let c = ROOT_KEY.child(i, 3);
            assert_eq!(c.parent(3), ROOT_KEY);
            assert_eq!(c.child_index(3), i);
            assert_eq!(c.level(3), 1);
        }
    }

    #[test]
    fn child_parent_roundtrip_binary() {
        let a = ROOT_KEY.child(1, 1).child(0, 1).child(1, 1);
        assert_eq!(a.level(1), 3);
        assert_eq!(a.child_index(1), 1);
        assert_eq!(a.parent(1).child_index(1), 0);
        assert_eq!(a.parent(1).parent(1).parent(1), ROOT_KEY);
    }

    #[test]
    fn ancestor_checks() {
        let a = ROOT_KEY.child(3, 3);
        let b = a.child(5, 3).child(7, 3);
        assert!(ROOT_KEY.is_ancestor_of(b, 3));
        assert!(a.is_ancestor_of(b, 3));
        assert!(!b.is_ancestor_of(a, 3));
        assert!(!a.is_ancestor_of(a, 3)); // strict
        let sibling = ROOT_KEY.child(4, 3);
        assert!(!sibling.is_ancestor_of(b, 3));
        assert_eq!(b.ancestor_at(1, 3), a);
        assert_eq!(b.ancestor_at(0, 3), ROOT_KEY);
    }

    #[test]
    fn morton_interval_of_node() {
        // Octant 7 of the root covers the top 1/8 of the Morton line.
        let k = ROOT_KEY.child(7, 3);
        let (lo, hi) = k.morton_range(21);
        assert_eq!(lo, 7u64 << 60);
        assert_eq!(hi - lo, 1u64 << 60);
        // Root covers everything.
        let (lo, hi) = ROOT_KEY.morton_range(21);
        assert_eq!(lo, 0);
        assert_eq!(hi, 1u64 << 63);
    }

    #[test]
    fn keys_are_unique_per_path() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        // Enumerate a two-level octree: 1 + 8 + 64 keys, all distinct.
        seen.insert(ROOT_KEY);
        for i in 0..8 {
            let c = ROOT_KEY.child(i, 3);
            assert!(seen.insert(c));
            for j in 0..8 {
                assert!(seen.insert(c.child(j, 3)));
            }
        }
        assert_eq!(seen.len(), 73);
    }

    #[test]
    fn display_is_binary() {
        assert_eq!(format!("{}", ROOT_KEY.child(5, 3)), "0b1101");
    }
}
