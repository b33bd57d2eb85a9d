//! ParaTreeT applications (paper §II-D-3, §III, §IV).
//!
//! Each application is exactly what the paper's productivity argument
//! says it should be: a `Data` implementation, a `Visitor`, and a thin
//! driver — the framework does the rest.
//!
//! * [`gravity`] — Barnes-Hut gravity with monopole + quadrupole moments
//!   (`CentroidData`, `GravityVisitor`; Figs. 6–8),
//! * [`knn`] — k-nearest-neighbour search with the up-and-down traversal,
//! * [`sph`] — smoothed-particle hydrodynamics: kNN density estimation
//!   and pressure forces from neighbour lists (§III-B),
//! * [`collision`] — planetesimal collision detection and the
//!   protoplanetary-disk case study (§IV),
//! * [`correlation`] — two-point correlation functions by dual-tree
//!   pair counting (the "n-point correlation" workload of §III),
//! * [`fof`] — friends-of-friends halo finding over a forest of boxes
//!   with ghost-layer exchange (the first multi-box workload).

pub mod collision;
pub mod correlation;
pub mod fof;
pub mod gravity;
pub mod knn;
mod lanes;
pub mod sph;
