//! Cache traffic counters.
//!
//! These counters are the raw material for the scaling analyses: the
//! discrete-event machine model charges communication cost per request
//! and per byte, and Fig. 3's three cache models differ exactly in how
//! many requests they send and how insertions serialise.

use paratreet_telemetry::{MetricSource, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing one cache's traffic. All methods are
/// thread-safe; relaxed ordering suffices because the counters carry no
/// synchronisation responsibility.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Remote fetch requests actually sent.
    pub requests_sent: AtomicU64,
    /// Requests for keys that were already in flight (absorbed by the
    /// `requested` flag — the dedup that per-thread caches lose).
    pub requests_deduped: AtomicU64,
    /// Fill fragments inserted.
    pub fills_inserted: AtomicU64,
    /// Fills whose root was already materialised (idempotent duplicate
    /// deliveries, e.g. under fault injection).
    pub fills_duplicate: AtomicU64,
    /// Total bytes of fill payloads received.
    pub bytes_received: AtomicU64,
    /// Nodes materialised from fills.
    pub nodes_inserted: AtomicU64,
    /// Particles materialised from fills.
    pub particles_inserted: AtomicU64,
    /// Traversal continuations parked waiting for remote data.
    pub waiters_parked: AtomicU64,
    /// Continuations resumed by fills.
    pub waiters_resumed: AtomicU64,
}

impl CacheStats {
    /// A zeroed counter block.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A plain-value snapshot for reporting.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            requests_sent: Self::get(&self.requests_sent),
            requests_deduped: Self::get(&self.requests_deduped),
            fills_inserted: Self::get(&self.fills_inserted),
            fills_duplicate: Self::get(&self.fills_duplicate),
            bytes_received: Self::get(&self.bytes_received),
            nodes_inserted: Self::get(&self.nodes_inserted),
            particles_inserted: Self::get(&self.particles_inserted),
            waiters_parked: Self::get(&self.waiters_parked),
            waiters_resumed: Self::get(&self.waiters_resumed),
        }
    }
}

/// Plain-value copy of [`CacheStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// See [`CacheStats::requests_sent`].
    pub requests_sent: u64,
    /// See [`CacheStats::requests_deduped`].
    pub requests_deduped: u64,
    /// See [`CacheStats::fills_inserted`].
    pub fills_inserted: u64,
    /// See [`CacheStats::fills_duplicate`].
    pub fills_duplicate: u64,
    /// See [`CacheStats::bytes_received`].
    pub bytes_received: u64,
    /// See [`CacheStats::nodes_inserted`].
    pub nodes_inserted: u64,
    /// See [`CacheStats::particles_inserted`].
    pub particles_inserted: u64,
    /// See [`CacheStats::waiters_parked`].
    pub waiters_parked: u64,
    /// See [`CacheStats::waiters_resumed`].
    pub waiters_resumed: u64,
}

impl CacheStatsSnapshot {
    /// Element-wise sum, for aggregating across ranks.
    pub fn merge(&mut self, o: &CacheStatsSnapshot) {
        self.requests_sent += o.requests_sent;
        self.requests_deduped += o.requests_deduped;
        self.fills_inserted += o.fills_inserted;
        self.fills_duplicate += o.fills_duplicate;
        self.bytes_received += o.bytes_received;
        self.nodes_inserted += o.nodes_inserted;
        self.particles_inserted += o.particles_inserted;
        self.waiters_parked += o.waiters_parked;
        self.waiters_resumed += o.waiters_resumed;
    }
}

impl MetricSource for CacheStatsSnapshot {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.requests_sent"), self.requests_sent);
        registry.set_u64(format!("{prefix}.requests_deduped"), self.requests_deduped);
        registry.set_u64(format!("{prefix}.fills_inserted"), self.fills_inserted);
        registry.set_u64(format!("{prefix}.fills_duplicate"), self.fills_duplicate);
        registry.set_u64(format!("{prefix}.bytes_received"), self.bytes_received);
        registry.set_u64(format!("{prefix}.nodes_inserted"), self.nodes_inserted);
        registry.set_u64(format!("{prefix}.particles_inserted"), self.particles_inserted);
        registry.set_u64(format!("{prefix}.waiters_parked"), self.waiters_parked);
        registry.set_u64(format!("{prefix}.waiters_resumed"), self.waiters_resumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = CacheStats::new();
        CacheStats::add(&s.requests_sent, 3);
        CacheStats::add(&s.bytes_received, 100);
        let snap = s.snapshot();
        assert_eq!(snap.requests_sent, 3);
        assert_eq!(snap.bytes_received, 100);
        assert_eq!(snap.fills_inserted, 0);
    }

    #[test]
    fn snapshots_merge() {
        let mut a =
            CacheStatsSnapshot { requests_sent: 1, bytes_received: 10, ..Default::default() };
        let b = CacheStatsSnapshot { requests_sent: 2, waiters_parked: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.requests_sent, 3);
        assert_eq!(a.bytes_received, 10);
        assert_eq!(a.waiters_parked, 5);
    }
}
