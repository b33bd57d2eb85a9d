//! The shared-memory software cache for distributed tree traversal
//! (paper §II-B).
//!
//! Distributed spatial traversals fetch large numbers of remote tree
//! nodes every iteration; caching them cuts communication volume, but the
//! cache is written *during* the traversal by whichever worker handles a
//! fill message, so its structure must tolerate parallel readers and
//! writers. Prior codes used hash tables of node data; this crate
//! implements the paper's alternative: **the cache is a single tree per
//! process**, where
//!
//! * placeholder nodes stand in for remote data and carry an atomic
//!   "requested" flag,
//! * a received fragment is materialised by any worker, appended to the
//!   cache's node store privately, and then published by a single atomic
//!   store of the parent's child handle (Steps 2–4 of Fig. 2),
//! * a process-level hash table maps node keys to materialised nodes; it
//!   takes a short lock only on insertion, never during traversal reads,
//! * paused traversals are parked per-key and handed back to the caller
//!   when the fill that unblocks them is spliced in (Step 5).
//!
//! The paper publishes with relaxed atomics; in Rust that would be a data
//! race on the freshly built subtree, so [`CacheTree`] publishes with
//! `Release` and reads with `Acquire` — on x86 both compile to plain MOVs,
//! so the substitution costs nothing on the evaluated architectures.
//!
//! The two baseline models of Fig. 3 are built from the same type: the
//! *per-thread* model ("Sequential") instantiates one `CacheTree` per
//! worker so fetches duplicate, and the *exclusive-write* model
//! ("XWrite") routes every insertion through one [`parking_lot::Mutex`]
//! (see [`xwrite::XWriteCache`]).
//!
//! # Error model
//!
//! Anything a *message* can get wrong is a recoverable [`CacheError`]:
//! [`serialize_fragment`](CacheTree::serialize_fragment) and
//! [`insert_fragment`](CacheTree::insert_fragment) return `Result`, and a
//! rejected fill (garbage bytes, an orphan whose splice point has not
//! arrived yet, an unknown key) must leave the cache unchanged — the
//! executors log the error and rely on retry, they never abort.
//! Programming errors — violated engine invariants — stay debug
//! assertions. [`insert_fragment`](CacheTree::insert_fragment) returns a
//! [`FillOutcome`]: the canonical root, one `(key, waiter)` pair per
//! parked traversal unblocked by *any* key the fragment materialised, and
//! a `duplicate` flag for idempotently absorbed re-deliveries.
//! [`CacheTree::audit`] checks the full structural invariant set and is
//! run at phase boundaries by the DES engine in debug builds.

pub mod error;
pub mod node;
pub mod stats;
mod store;
pub mod tree;
pub mod wire;
pub mod xwrite;

pub use error::CacheError;
pub use node::{CacheNode, NodeHandle, NodeKind};
pub use stats::CacheStats;
pub use tree::{CacheTree, FillOutcome, RequestOutcome, SubtreeSummary};
pub use wire::Fragment;
pub use xwrite::XWriteCache;
