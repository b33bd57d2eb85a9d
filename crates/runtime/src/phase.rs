//! Activity phases — the categories of the Fig. 9 utilisation profile.

/// What a worker is doing during a busy interval. The variants mirror
/// the labels of the paper's *Projections* timeline for a traversal
/// iteration, plus the pre-traversal steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Finding splitters and flushing particles to their owners.
    Decomposition = 0,
    /// Building local Subtrees and accumulating `Data`.
    TreeBuild = 1,
    /// Subtrees handing leaf buckets to Partitions.
    LeafSharing = 2,
    /// Distributing the global root and top levels to every process.
    ShareTopLevels = 3,
    /// Traversal over node-local subtrees.
    LocalTraversal = 4,
    /// Issuing remote fetches at cache misses.
    CacheRequest = 5,
    /// Serving a fetch at the home rank (serialisation).
    FillServe = 6,
    /// Materialising received fills into the cache.
    CacheInsertion = 7,
    /// Waking paused traversals and fetching their metadata.
    TraversalResumption = 8,
    /// The resumed traversal work over remote data.
    RemoteTraversal = 9,
    /// Everything else (post-traversal user work, integration, ...).
    Other = 10,
    /// Writing per-rank particle/partition checkpoints to stable
    /// storage at iteration start (fault tolerance).
    Checkpoint = 11,
    /// Crash recovery: reading checkpoints, rebuilding the dead rank's
    /// subtrees, re-initialising its cache.
    Recovery = 12,
}

/// Number of phase categories.
pub const N_PHASES: usize = 13;

impl Phase {
    /// All phases in index order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Decomposition,
        Phase::TreeBuild,
        Phase::LeafSharing,
        Phase::ShareTopLevels,
        Phase::LocalTraversal,
        Phase::CacheRequest,
        Phase::FillServe,
        Phase::CacheInsertion,
        Phase::TraversalResumption,
        Phase::RemoteTraversal,
        Phase::Other,
        Phase::Checkpoint,
        Phase::Recovery,
    ];

    /// Stable index (0..[`N_PHASES`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The label used by Fig. 9-style output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Decomposition => "decomposition",
            Phase::TreeBuild => "tree build",
            Phase::LeafSharing => "leaf sharing",
            Phase::ShareTopLevels => "share top levels",
            Phase::LocalTraversal => "local traversal",
            Phase::CacheRequest => "cache request",
            Phase::FillServe => "fill serve",
            Phase::CacheInsertion => "cache insertion",
            Phase::TraversalResumption => "traversal resumption",
            Phase::RemoteTraversal => "remote traversal",
            Phase::Other => "other",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), N_PHASES);
    }
}
