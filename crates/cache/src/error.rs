//! Structured errors for the fetch → serialize → fill → resume pipeline.
//!
//! The error-handling contract of this crate (see also DESIGN.md):
//!
//! * **Recoverable conditions return [`CacheError`]** — malformed or
//!   truncated fill payloads, fills whose splice point is not
//!   materialised yet (orphans), and fetches for keys the home rank
//!   cannot locate. Engines log these and degrade to a re-request; they
//!   must never abort a simulation.
//! * **Programming errors panic** — API misuse that no message can
//!   trigger, such as calling [`crate::CacheTree::init`] with duplicate
//!   subtree summaries. These stay `assert!`/`debug_assert!`.
//!
//! Every variant carries enough context to be logged without access to
//! the failing payload.

use paratreet_geometry::NodeKey;

/// Why a cache operation was rejected. All variants are recoverable:
/// the cache's state is unchanged (failed operations are atomic — they
/// validate before they mutate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A fill payload failed to decode (truncated, bad magic) or its
    /// nodes do not fit together (child keys, leaf particle counts).
    MalformedFragment {
        /// Payload size, for log correlation.
        len: usize,
    },
    /// A fill payload decoded to zero nodes.
    EmptyFragment,
    /// A fill arrived for a key this rank never registered (a local
    /// Subtree's interior, say) or under a parent not materialised here,
    /// so there is nowhere to splice it. Seen when faults reorder a fill
    /// ahead of the fill that creates its splice point.
    OrphanFill {
        /// Root key of the orphaned fragment.
        key: NodeKey,
    },
    /// A fetch asked this rank to serialise a key it cannot locate
    /// (not in the hash table and not reachable from the root).
    UnknownKey {
        /// The key the requester asked for.
        key: NodeKey,
    },
    /// The cache has no root yet ([`crate::CacheTree::init`] has not
    /// run), so nothing can be located or spliced.
    NotInitialized,
    /// A fill was encoded under an older recovery epoch than the cache
    /// is currently in: its contents may predate a rank crash, so it is
    /// rejected before any splice and the requester re-fetches.
    StaleEpoch {
        /// Epoch stamped into the fill's wire header.
        fill_epoch: u32,
        /// The receiving cache's current epoch.
        cache_epoch: u32,
    },
    /// The operation targeted a cache whose rank has crashed and will
    /// not return (crash-stop, re-shard recovery). Requests must be
    /// re-routed to the subtree's new owner.
    OwnerDead {
        /// The dead rank.
        rank: u32,
    },
    /// A fill payload carried no epoch header (pre-epoch wire format).
    /// Legacy payloads cannot be proven fresh, so they are rejected
    /// with a structured error rather than decoded as garbage.
    LegacyFragment {
        /// Payload size, for log correlation.
        len: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::MalformedFragment { len } => {
                write!(f, "malformed fill fragment ({len} bytes)")
            }
            CacheError::EmptyFragment => write!(f, "empty fill fragment"),
            CacheError::OrphanFill { key } => {
                write!(f, "fill for {key} has no materialised parent to splice into")
            }
            CacheError::UnknownKey { key } => {
                write!(f, "no node for key {key} on this rank")
            }
            CacheError::NotInitialized => write!(f, "cache has no root (init not called)"),
            CacheError::StaleEpoch { fill_epoch, cache_epoch } => {
                write!(f, "stale fill from epoch {fill_epoch} rejected in epoch {cache_epoch}")
            }
            CacheError::OwnerDead { rank } => {
                write!(f, "rank {rank} has crashed and will not return")
            }
            CacheError::LegacyFragment { len } => {
                write!(f, "legacy (pre-epoch) fill fragment ({len} bytes) rejected")
            }
        }
    }
}

impl std::error::Error for CacheError {}
