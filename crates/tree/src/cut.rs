//! The cut rule: how each tree type divides a node.
//!
//! A Subtree is a node of the global tree (§II-C) only because every
//! part of the system divides space the same way. This module is that
//! one way. The builder splits with it, decomposition carves Subtree
//! pieces with it, incremental maintenance sieves particles and splits
//! overfull leaves with it, seam balance refines leaves with it, and
//! every tree that starts from a tight box takes its root region from it.
//!
//! * the octree cuts a node into the eight octants of its box;
//! * binary-oct cuts at the box's midpoint along the cycling axis;
//! * the k-d tree cuts at the particle median along the cycling axis;
//! * the longest-dimension tree cuts at the particle median along the
//!   box's longest axis.

use crate::TreeType;
use paratreet_geometry::{Axis, BoundingBox, NodeKey, Vec3};
use std::cmp::Ordering;

impl TreeType {
    /// The root region a tree of this type grows from `tight`: its
    /// bounding cube for the octree and binary-oct, so their cuts stay
    /// cubical; `tight` itself for the median-split types.
    pub fn root_region(self, tight: BoundingBox) -> BoundingBox {
        match self {
            TreeType::Octree | TreeType::BinaryOct => tight.bounding_cube(),
            TreeType::KdTree | TreeType::LongestDim => tight,
        }
    }

    /// The axis a binary cut of `bbox` at `depth` runs across: the
    /// cycling axis where the type cycles, the box's longest otherwise.
    pub fn split_axis(self, depth: u32, bbox: &BoundingBox) -> Axis {
        match self.cycling_axis(depth) {
            Some(a) => a,
            None => bbox.longest_axis(),
        }
    }
}

/// One node's division of space: which child a position falls into, and
/// each child's region and key.
#[derive(Clone, Copy, Debug)]
pub struct Cut {
    bbox: BoundingBox,
    key: NodeKey,
    bits: u32,
    /// `None` cuts into the octants of `bbox`.
    plane: Option<(Axis, f64)>,
}

impl Cut {
    /// The cut of an existing node of `tree_type` with region `bbox` and
    /// key `key` at global `depth`. A median-split node's plane is where
    /// its particles put it: `face` is a corner of a child's box on that
    /// plane, and without one the plane falls at the box's midpoint.
    pub fn of(
        tree_type: TreeType,
        bbox: BoundingBox,
        key: NodeKey,
        depth: u32,
        face: Option<Vec3>,
    ) -> Cut {
        let plane = (tree_type != TreeType::Octree).then(|| {
            let axis = tree_type.split_axis(depth, &bbox);
            let at = match face {
                Some(f) if tree_type.is_median_split() => f,
                _ => bbox.center(),
            };
            (axis, at.component(axis.index()))
        });
        Cut { bbox, key, bits: tree_type.bits_per_level(), plane }
    }

    /// The child slot `pos` falls into: octants tie toward the high side,
    /// a plane sends `pos < plane` low.
    #[inline]
    pub fn slot_of(&self, pos: Vec3) -> usize {
        match self.plane {
            None => self.bbox.octant_of(pos),
            Some((axis, plane)) => {
                if pos.component(axis.index()) < plane {
                    0
                } else {
                    1
                }
            }
        }
    }

    /// Child `slot`'s region and key.
    pub fn child(&self, slot: usize) -> (BoundingBox, NodeKey) {
        let bbox = match self.plane {
            None => self.bbox.octant(slot),
            Some((axis, plane)) => {
                let (lo, hi) = self.bbox.split_at(axis, plane);
                if slot == 0 {
                    lo
                } else {
                    hi
                }
            }
        };
        (bbox, self.key.child(slot, self.bits))
    }
}

/// One non-empty child of a [`split`]: its slot, how many items it took,
/// and its region and key.
#[derive(Clone, Copy, Debug)]
pub struct Child {
    /// Child slot under the parent.
    pub slot: usize,
    /// Number of items, the next `len` of the regrouped slice.
    pub len: usize,
    /// The child's region.
    pub bbox: BoundingBox,
    /// The child's key.
    pub key: NodeKey,
}

/// Orders two items along `axis` (incomparable coordinates tie).
fn along<T>(axis: Axis, pos: impl Fn(&T) -> Vec3) -> impl Fn(&T, &T) -> Ordering {
    move |a, b| {
        pos(a)
            .component(axis.index())
            .partial_cmp(&pos(b).component(axis.index()))
            .unwrap_or(Ordering::Equal)
    }
}

/// Reorders `items` so the `k`-th smallest coordinate along `axis` stands
/// at `k`, and returns that coordinate: the median plane of a median cut.
pub fn kth_plane<T>(items: &mut [T], k: usize, axis: Axis, pos: impl Fn(&T) -> Vec3) -> f64 {
    items.select_nth_unstable_by(k, along(axis, &pos));
    pos(&items[k]).component(axis.index())
}

/// Splits the node `(bbox, key)` at global `depth` holding `items` by
/// `tree_type`'s rule. `items` is regrouped in place into its children's
/// runs, and the non-empty children come back in slot order. Only `pos`
/// of an item is read, so the one rule serves particle records and bare
/// position lists alike.
///
/// An octree slice already grouped by octant, as a Morton-sorted one is,
/// is left as it is: a sort of a sorted slice is the identity (DESIGN
/// §5e), so skipping it changes no bit.
pub fn split<T>(
    tree_type: TreeType,
    items: &mut [T],
    pos: impl Fn(&T) -> Vec3 + Copy,
    bbox: &BoundingBox,
    key: NodeKey,
    depth: u32,
) -> Vec<Child> {
    let cut_at = |plane| Cut { bbox: *bbox, key, bits: tree_type.bits_per_level(), plane };
    let child = |cut: &Cut, slot: usize, len: usize| {
        let (bbox, key) = cut.child(slot);
        Child { slot, len, bbox, key }
    };
    if tree_type == TreeType::Octree {
        let octant = |t: &T| bbox.octant_of(pos(t));
        if !items.is_sorted_by_key(octant) {
            items.sort_unstable_by_key(octant);
        }
        let cut = cut_at(None);
        return items
            .chunk_by(|a, b| octant(a) == octant(b))
            .map(|run| child(&cut, octant(&run[0]), run.len()))
            .collect();
    }
    let axis = tree_type.split_axis(depth, bbox);
    let (mid, plane) = if tree_type.is_median_split() {
        let mid = items.len() / 2;
        (mid, kth_plane(items, mid, axis, pos))
    } else {
        let plane = bbox.center().component(axis.index());
        items.sort_unstable_by(along(axis, pos));
        (items.partition_point(|t| pos(t).component(axis.index()) < plane), plane)
    };
    let cut = cut_at(Some((axis, plane)));
    [(0, mid), (1, items.len() - mid)]
        .into_iter()
        .filter(|&(_, len)| len > 0)
        .map(|(slot, len)| child(&cut, slot, len))
        .collect()
}
