//! The ParaTreeT framework: the paper's public API.
//!
//! This crate ties the substrates together into the programming model of
//! §II: an application supplies a [`Data`](paratreet_tree::Data)
//! implementation and a [`Visitor`]; the framework handles
//! decomposition, tree build, caching of remote data, traversal
//! scheduling, and write-back.
//!
//! Three execution engines share all of that logic — everything before
//! and after the traversal is one front-end (`pipeline`), and an engine
//! is only its placement policy and its executor:
//!
//! * [`Framework`] — the shared-memory engine: one process, rayon
//!   workers, everything local (used by the examples, the unit tests,
//!   and the cache simulator),
//! * [`DistributedEngine`] — the same pipeline on the discrete-event
//!   machine model, with Partitions and Subtrees placed on ranks,
//!   fetches and fills crossing the simulated network, and per-phase
//!   virtual-time accounting. This is what regenerates the paper's
//!   scaling figures.
//! * [`ThreadedEngine`] — the same pipeline on *real* OS threads and
//!   channels: rank thread-groups exchange genuine serialized fills
//!   while traversal workers read the wait-free cache concurrently —
//!   the strongest exercise of the concurrency design.
//!
//! The Partitions–Subtrees model (§II-C) lives in [`decomp`]: particles
//! are decomposed twice — once by the *decomposition type* into
//! Partitions (load) and once consistently with the *tree type* into
//! Subtrees (memory) — and only leaf buckets are split where the two
//! disagree.

pub mod config;
pub mod decomp;
pub mod des_engine;
pub mod forest;
pub mod framework;
pub mod maintain;
mod pipeline;
pub mod threaded;
pub mod traversal;
pub mod visitor;

pub use config::{Configuration, DecompType, IncrementalConfig, SfcCurve, TraversalKind};
pub use decomp::{
    decompose, decompose_within, universe_for, Decomposition, Partitioner, SubtreePiece,
};
pub use des_engine::{
    sfc_balanced_assignment, DistributedEngine, IterationReport, RecoveryStats, DES_FLIGHT_SERIES,
};
pub use forest::{
    decompose_forest, enforce_seam_balance, exchange_ghosts, DomainSpec, Forest, ForestStats,
    GhostLayer, GhostRoute, GhostStats, GhostZone,
};
pub use framework::{Framework, StepReport};
pub use maintain::{MaintainRound, TreeMaintainer, UpdateTotals};
pub use pipeline::Targets;
pub use threaded::{ThreadedEngine, ThreadedReport};
pub use traversal::{CacheModel, TraversalStats, WorkCounts};
pub use visitor::{
    Lane, SpatialNodeView, TargetBucket, TargetLanes, TargetSpan, Visitor, LANE_GROUP,
};
