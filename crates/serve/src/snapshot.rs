//! Epoch-stamped snapshot publication.
//!
//! The serving layer's writer thread advances the live tree and hands
//! each iteration's flattened forest to a [`SnapshotRing`]; reader
//! (worker) threads answer queries against [`PinnedSnapshot`]s. Each
//! ring slot is a mutex around an `Arc<SnapshotData>`, and a reader
//! clones that `Arc` only under the slot's lock, so the `Arc`'s strong
//! count minus the ring's own reference is the number of live pins:
//!
//! * **publish** (single writer): lock the next slot round-robin; while
//!   a reader still holds its snapshot, unlock, yield and re-lock; then
//!   replace the payload, unlock, and advance the published head.
//! * **pin** (any reader): load the head epoch, lock that epoch's slot,
//!   and clone its `Arc` if the snapshot there carries the head epoch.
//!   On a mismatch (the writer lapped us) retry.
//!
//! The `Arc` also bounds *memory lifetime*: a pinned snapshot's arenas
//! cannot be freed under its reader. The drop-probe tests assert both.
//!
//! Backpressure: a reader that holds a pin for longer than
//! `capacity - 1` publications forces the writer to stall at the
//! wrap-around (`writer_stalls` counts those episodes). Ring capacity
//! is therefore the snapshot-lag budget granted to slow readers.

use paratreet_geometry::BoundingBox;
use paratreet_telemetry::metrics::{MetricSource, MetricsRegistry};
use paratreet_tree::{BuiltTree, Data};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Sentinel for "no epoch": the head before the first publication.
const NO_EPOCH: u64 = u64::MAX;

/// One published forest: everything a query needs, immutable once
/// published. Queries against the same `SnapshotData` are bit-identical
/// no matter when they run — the replay property the tests pin down.
pub struct SnapshotData<D: Data> {
    /// Publication sequence number (0, 1, 2, … per ring).
    pub epoch: u64,
    /// The flattened per-Subtree arenas of this iteration.
    pub trees: Vec<BuiltTree<D>>,
    /// The universe box the forest was maintained in.
    pub universe: BoundingBox,
    /// Test hook: incremented when this snapshot is dropped (i.e. its
    /// arenas are actually freed), so tests can assert reclamation
    /// never outruns the pins.
    drop_probe: Option<Arc<AtomicU64>>,
}

impl<D: Data> SnapshotData<D> {
    /// A snapshot carrying `trees` for `epoch`.
    pub fn new(epoch: u64, trees: Vec<BuiltTree<D>>, universe: BoundingBox) -> SnapshotData<D> {
        SnapshotData { epoch, trees, universe, drop_probe: None }
    }

    /// Attaches a drop probe (tests): `probe` is incremented exactly
    /// once, when the snapshot — and with it the tree arenas — is freed.
    pub fn with_drop_probe(mut self, probe: Arc<AtomicU64>) -> Self {
        self.drop_probe = Some(probe);
        self
    }

    /// Total particles across the forest.
    pub fn n_particles(&self) -> usize {
        self.trees.iter().map(|t| t.particles.len()).sum()
    }
}

impl<D: Data> Drop for SnapshotData<D> {
    fn drop(&mut self) {
        if let Some(p) = &self.drop_probe {
            p.fetch_add(1, SeqCst);
        }
    }
}

/// One ring slot: the snapshot it holds, if any. Readers clone the
/// `Arc` only under the lock (module docs).
type Slot<D> = Mutex<Option<Arc<SnapshotData<D>>>>;

/// Counters describing a ring's life so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Snapshots published.
    pub published: u64,
    /// Slot overwrites: retired snapshots whose *ring* reference was
    /// released (the arenas free once the last pinned reader lets go).
    pub reclaimed: u64,
    /// Reader pin attempts that lost the race to a concurrent publish
    /// and retried.
    pub pin_retries: u64,
    /// Publish calls that had to wait for a lagging reader to unpin
    /// the wrap-around slot.
    pub writer_stalls: u64,
}

impl MetricSource for RingStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.published"), self.published);
        registry.set_u64(format!("{prefix}.reclaimed"), self.reclaimed);
        registry.set_u64(format!("{prefix}.pin_retries"), self.pin_retries);
        registry.set_u64(format!("{prefix}.writer_stalls"), self.writer_stalls);
    }
}

/// Fixed-capacity single-writer multi-reader snapshot ring.
pub struct SnapshotRing<D: Data> {
    slots: Box<[Slot<D>]>,
    /// The latest fully published epoch ([`NO_EPOCH`] before the first).
    head: AtomicU64,
    /// Serialises publishers; publish is designed single-writer, the
    /// lock turns an accidental second writer into a wait, not a race.
    writer: Mutex<()>,
    published: AtomicU64,
    reclaimed: AtomicU64,
    pin_retries: AtomicU64,
    writer_stalls: AtomicU64,
}

impl<D: Data> SnapshotRing<D> {
    /// An empty ring with `capacity` slots (min 2: the head slot plus
    /// one the writer can prepare).
    pub fn new(capacity: usize) -> Arc<SnapshotRing<D>> {
        Arc::new(SnapshotRing {
            slots: (0..capacity.max(2)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(NO_EPOCH),
            writer: Mutex::new(()),
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            pin_retries: AtomicU64::new(0),
            writer_stalls: AtomicU64::new(0),
        })
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The latest published epoch, or `None` before the first publish.
    pub fn head_epoch(&self) -> Option<u64> {
        match self.head.load(SeqCst) {
            NO_EPOCH => None,
            e => Some(e),
        }
    }

    /// Locks the slot `epoch` maps to. A panic while holding a slot
    /// lock cannot leave the `Option` half-written, so poison is moot.
    fn slot(&self, epoch: u64) -> MutexGuard<'_, Option<Arc<SnapshotData<D>>>> {
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the next snapshot; returns its epoch. See
    /// [`SnapshotRing::publish_with`] for the protocol.
    pub fn publish(&self, trees: Vec<BuiltTree<D>>, universe: BoundingBox) -> u64 {
        self.publish_with(|epoch| SnapshotData::new(epoch, trees, universe))
    }

    /// Publishes the snapshot `make(next_epoch)` builds. Blocks while a
    /// lagging reader still pins the slot being recycled (wrap-around
    /// backpressure).
    pub fn publish_with(&self, make: impl FnOnce(u64) -> SnapshotData<D>) -> u64 {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let head = self.head.load(SeqCst);
        let epoch = if head == NO_EPOCH { 0 } else { head + 1 };
        let fresh = Arc::new(make(epoch));
        assert_eq!(fresh.epoch, epoch, "a snapshot must carry the epoch it is published at");

        // New clones happen only under the slot lock, so while we hold
        // it the strong count can only fall; above 1 a reader pins it.
        let mut slot = self.slot(epoch);
        let mut stalled = false;
        while slot.as_ref().is_some_and(|old| Arc::strong_count(old) > 1) {
            if !stalled {
                stalled = true;
                self.writer_stalls.fetch_add(1, SeqCst);
            }
            drop(slot);
            std::thread::yield_now();
            slot = self.slot(epoch);
        }
        let old = slot.replace(fresh);
        drop(slot);
        if old.is_some() {
            self.reclaimed.fetch_add(1, SeqCst);
        }
        drop(old); // the arenas free here: no reader held a clone

        self.head.store(epoch, SeqCst);
        self.published.fetch_add(1, SeqCst);
        epoch
    }

    /// Pins the latest published snapshot, or `None` before the first
    /// publish. The returned guard keeps the snapshot's slot from being
    /// recycled (and, via its `Arc`, the arenas alive) until dropped.
    pub fn pin(&self) -> Option<PinnedSnapshot<D>> {
        loop {
            let epoch = self.head.load(SeqCst);
            if epoch == NO_EPOCH {
                return None;
            }
            if let Some(data) = self.slot(epoch).as_ref().filter(|d| d.epoch == epoch) {
                return Some(PinnedSnapshot(Arc::clone(data)));
            }
            self.pin_retries.fetch_add(1, SeqCst);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> RingStats {
        RingStats {
            published: self.published.load(SeqCst),
            reclaimed: self.reclaimed.load(SeqCst),
            pin_retries: self.pin_retries.load(SeqCst),
            writer_stalls: self.writer_stalls.load(SeqCst),
        }
    }
}

/// A reader's lease on one snapshot. Dereferences to [`SnapshotData`];
/// while it lives, the ring cannot recycle the snapshot's slot.
pub struct PinnedSnapshot<D: Data>(Arc<SnapshotData<D>>);

impl<D: Data> PinnedSnapshot<D> {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.0.epoch
    }
}

impl<D: Data> Deref for PinnedSnapshot<D> {
    type Target = SnapshotData<D>;
    fn deref(&self) -> &SnapshotData<D> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_geometry::Vec3;
    use paratreet_tree::CountData;

    fn ring() -> Arc<SnapshotRing<CountData>> {
        SnapshotRing::new(4)
    }

    /// A universe box whose lower corner encodes the epoch, so readers
    /// can check the snapshot they pinned is internally consistent.
    fn stamped_box(epoch: u64) -> BoundingBox {
        BoundingBox::cube(Vec3::splat(epoch as f64), 0.5)
    }

    #[test]
    fn pin_before_first_publish_is_none() {
        let r = ring();
        assert!(r.pin().is_none());
        assert_eq!(r.head_epoch(), None);
    }

    #[test]
    fn epochs_increment_and_head_tracks() {
        let r = ring();
        for want in 0..10u64 {
            let got = r.publish(Vec::new(), stamped_box(want));
            assert_eq!(got, want);
            assert_eq!(r.head_epoch(), Some(want));
            let pin = r.pin().unwrap();
            assert_eq!(pin.epoch(), want);
            assert_eq!(pin.universe.lo, stamped_box(want).lo);
        }
        let s = r.stats();
        assert_eq!(s.published, 10);
        // Capacity 4: epochs 4..9 each overwrote an older slot.
        assert_eq!(s.reclaimed, 6);
    }

    #[test]
    fn pinned_snapshot_is_not_freed_until_unpinned() {
        let r = ring();
        let probe = Arc::new(AtomicU64::new(0));
        let p0 = probe.clone();
        r.publish_with(move |e| {
            SnapshotData::new(e, Vec::new(), stamped_box(e)).with_drop_probe(p0)
        });
        let pin = r.pin().unwrap();
        assert_eq!(pin.epoch(), 0);

        // Fill the rest of the ring: slot 0 is not yet recycled.
        for _ in 1..4 {
            r.publish(Vec::new(), BoundingBox::cube(Vec3::ZERO, 1.0));
        }
        assert_eq!(probe.load(SeqCst), 0, "epoch 0 freed while pinned");

        // Epoch 4 wants slot 0: the writer must wait for the pin, so
        // publish from another thread, release the pin, then join.
        let r2 = Arc::clone(&r);
        let publisher =
            std::thread::spawn(move || r2.publish(Vec::new(), BoundingBox::cube(Vec3::ZERO, 1.0)));
        // Give the publisher a chance to reach the drain loop.
        while r.stats().writer_stalls == 0 {
            std::thread::yield_now();
        }
        assert_eq!(probe.load(SeqCst), 0, "epoch 0 freed while the writer stalls");
        drop(pin);
        assert_eq!(publisher.join().unwrap(), 4);
        assert_eq!(probe.load(SeqCst), 1, "epoch 0 frees once unpinned and recycled");
        assert!(r.stats().writer_stalls >= 1);
    }

    #[test]
    fn unpinned_retired_snapshots_reclaim_eagerly() {
        let r = ring();
        let probe = Arc::new(AtomicU64::new(0));
        let p0 = probe.clone();
        r.publish_with(move |e| {
            SnapshotData::new(e, Vec::new(), stamped_box(e)).with_drop_probe(p0)
        });
        for _ in 1..=4 {
            r.publish(Vec::new(), BoundingBox::cube(Vec3::ZERO, 1.0));
        }
        // Epoch 4 reused slot 0 with nobody pinning: freed immediately.
        assert_eq!(probe.load(SeqCst), 1);
    }

    #[test]
    fn concurrent_readers_always_see_coherent_snapshots() {
        let r: Arc<SnapshotRing<CountData>> = SnapshotRing::new(3);
        let stop = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let n_readers = 4;
        let mut readers = Vec::new();
        for _ in 0..n_readers {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            let seen = Arc::clone(&seen);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while stop.load(SeqCst) == 0 {
                    if let Some(pin) = r.pin() {
                        // The epoch stamp and the payload must agree —
                        // a torn slot would break this.
                        assert_eq!(pin.universe.lo, stamped_box(pin.epoch()).lo);
                        assert!(pin.epoch() >= last, "head went backwards");
                        last = pin.epoch();
                        seen.fetch_add(1, SeqCst);
                    }
                }
            }));
        }
        for e in 0..500u64 {
            assert_eq!(r.publish(Vec::new(), stamped_box(e)), e);
        }
        // Keep the head live until every reader has had a chance to
        // observe something (the publishes can outrun thread startup).
        while seen.load(SeqCst) < 100 {
            std::thread::yield_now();
        }
        stop.store(1, SeqCst);
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(r.stats().published, 500);
    }
}
