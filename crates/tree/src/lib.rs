//! Spatial tree construction and the `Data` accumulation abstraction.
//!
//! This crate implements the lowest layer of the paper's abstraction
//! stack: *trees* and their *Data*. It provides
//!
//! * the [`Data`] trait — the paper's three-function interface
//!   (`Data(particles, n)`, `Data()`, `operator+=`) that extracts
//!   application state from the particle set into tree nodes and
//!   accumulates it from the leaves to the root (§II-A-1),
//! * [`TreeType`] — the built-in tree types: octree, k-d
//!   (axis-cycling median splits), and the longest-dimension tree from
//!   the planetary-disk case study (§IV-B),
//! * [`cut`] — the one rule by which each tree type divides a node,
//!   which the builder, decomposition, incremental maintenance and seam
//!   balance all call,
//! * [`build::TreeBuilder`] — sequential and rayon-parallel top-down
//!   builds that reorder particles so every leaf owns a contiguous
//!   bucket, then accumulate `Data` bottom-up,
//! * [`node::BuiltTree`] — the arena the build produces, which the cache
//!   layer grafts into the per-process global tree,
//! * [`query`] — traversal-agnostic point-query kernels (kNN / ball /
//!   range / raycast) over a forest of built arenas, shared by the kNN
//!   application and the `paratreet-serve` query service,
//! * [`dual`] — the one dual-tree walk over two arenas, whose rule sets
//!   are friends-of-friends linking and two-point pair counting.

pub mod build;
pub mod cut;
pub mod data;
pub mod dual;
pub mod node;
pub mod query;
pub mod types;
pub mod update;

pub use build::TreeBuilder;
pub use data::{CountData, Data};
pub use node::{BuildNode, BuiltTree, NodeIdx, NodeShape};
pub use query::{Candidate, KnnHeap, Neighbor, QueryScratch, RayHit};
pub use types::TreeType;
pub use update::{Classified, RepairReport, UpdatableTree, UpdateError, UpdateStats};
