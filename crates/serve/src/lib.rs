//! `paratreet-serve` — a concurrent spatial query service over live
//! maintained trees (ISSUE 6; ROADMAP north-star item 3).
//!
//! The paper's framework builds a tree, traverses it, and moves on.
//! This crate keeps the tree *alive*: a single writer thread advances
//! it with the incremental maintenance subsystem
//! ([`paratreet_core::TreeMaintainer`], PR 5) while a pool of reader
//! threads answers kNN / ball / range / raycast query streams from
//! simulated clients. The pieces:
//!
//! * [`snapshot`] — epoch-stamped publication: the writer swaps
//!   freshly flattened arenas into a fixed [`SnapshotRing`] of
//!   mutex-guarded slots; readers pin an epoch by cloning its `Arc`
//!   under the slot's lock and never observe a torn or freed snapshot
//!   (the `Arc` count gates slot reuse and memory lifetime).
//! * [`request`] — the query/response vocabulary and the pure
//!   [`execute_batch`] kernel, batched by entry subtree so queries
//!   descending the same Subtree run back-to-back.
//! * [`queue`] + [`error`] — bounded admission with a structured
//!   [`ServeError::Overloaded`] (shed) or blocking backpressure
//!   (defer).
//! * [`service`] — [`QueryService`]: worker pool, writer thread,
//!   per-class latency histograms (p50/p99/p999 through the telemetry
//!   [`paratreet_telemetry::Histogram`]).
//! * [`load`] — seeded load generation ([`run_load`]): thousands of
//!   simulated clients over a few client threads.
//!
//! Determinism: query *results* are a pure function of (snapshot,
//! query) — replaying a request stream against a pinned epoch is
//! bit-identical across runs. Under a live writer only the epoch each
//! query lands on varies.
//!
//! Failure answers: requests carry optional deadlines
//! ([`Request::with_deadline`]) that are enforced at pop time; a batch
//! that panics is answered [`ServeError::WorkerPanicked`] and its
//! worker carries on; a writer that dies leaves readers answering from
//! the ring, and [`QueryService::shutdown`] reports how every thread
//! ended ([`ShutdownReport`]).

pub mod error;
pub mod health;
pub mod load;
pub mod queue;
pub mod request;
pub mod service;
pub mod snapshot;

pub use error::ServeError;
pub use health::{JoinOutcome, ShutdownReport, WorkerJoinStats};
pub use load::{run_load, LoadConfig, LoadReport};
pub use request::{
    execute, execute_batch, execute_batch_observed, Query, QueryClass, QueryResult, Request,
    Response,
};
pub use service::{AdmissionPolicy, MotionModel, QueryService, ServeConfig, WriterConfig};
pub use snapshot::{PinnedSnapshot, RingStats, SnapshotData, SnapshotRing};
