//! Recorders: where instrumented code deposits spans and counts.
//!
//! [`ShardedRecorder`] keeps one mutex-guarded buffer per worker shard.
//! A writer locks its own shard and pushes; a drain takes each shard's
//! buffer under that shard's lock. The first `n_shards` writer threads
//! get a shard each, so the record path's lock is uncontended. No event
//! is lost, and one writer's events stay in push order.

use crate::span::{ClockDomain, Span, Trace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded item. Counters ride the same shard buffers as spans so
/// the record path stays a single push.
#[derive(Clone, Copy, Debug)]
enum Event {
    Span(Span),
    Count(&'static str, u64),
}

/// Distinguishes recorder instances in the thread-local slot cache.
static NEXT_RECORDER_ID: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// `(recorder id, slot)` pairs for every recorder this thread has
    /// written to. Tiny (a handful of recorders per process), so a
    /// linear scan beats a map.
    static SLOTS: std::cell::RefCell<Vec<(usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Sharded recorder. See module docs for the discipline.
#[derive(Debug)]
pub struct ShardedRecorder {
    /// This instance's id in the thread-local slot cache.
    id: usize,
    /// Hands out dense per-recorder thread slots (0, 1, 2, …).
    next_slot: AtomicUsize,
    /// Per-shard buffers.
    shards: Vec<Mutex<Vec<Event>>>,
    /// Wall-clock epoch for `now_us`.
    epoch: Instant,
    clock: ClockDomain,
    /// Hands out span ids for request tracing (1, 2, …; 0 is reserved
    /// as "no id" so disabled handles can return it).
    next_span_id: AtomicU64,
}

impl ShardedRecorder {
    /// A recorder with `n_shards` buffers stamping `clock` timestamps.
    pub fn new(n_shards: usize, clock: ClockDomain) -> ShardedRecorder {
        ShardedRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            next_slot: AtomicUsize::new(0),
            shards: (0..n_shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            epoch: Instant::now(),
            clock,
            next_span_id: AtomicU64::new(1),
        }
    }

    /// A fresh span id, unique within this recorder (never 0).
    pub fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The wall-clock instant `now_us` measures from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The calling thread's dense slot for this recorder, assigned on
    /// first use. The first `n_shards` writer threads get exclusive
    /// shards; later threads wrap around and share a shard's lock.
    pub fn thread_slot(&self) -> usize {
        SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some((_, slot)) = slots.iter().find(|(id, _)| *id == self.id) {
                return *slot;
            }
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
            slots.push((self.id, slot));
            slot
        })
    }

    /// The recorder's clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Microseconds since the recorder was created (wall clock).
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn record(&self, ev: Event) {
        let shard = &self.shards[self.thread_slot() % self.shards.len()];
        shard.lock().expect("recorder shard lock").push(ev);
    }

    /// Records a completed span.
    pub fn record_span(&self, span: Span) {
        self.record(Event::Span(span));
    }

    /// Adds `delta` to the named counter.
    pub fn add_count(&self, name: &'static str, delta: u64) {
        self.record(Event::Count(name, delta));
    }

    /// Takes everything recorded so far, leaving the recorder empty.
    pub fn drain(&self) -> Trace {
        let mut spans = Vec::new();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        for shard in &self.shards {
            let buf = std::mem::take(&mut *shard.lock().expect("recorder shard lock"));
            for ev in buf {
                match ev {
                    Event::Span(s) => spans.push(s),
                    Event::Count(name, d) => *counters.entry(name).or_insert(0) += d,
                }
            }
        }
        Trace { clock: self.clock, spans, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Track;

    fn span(t: f64) -> Span {
        Span {
            track: Track { rank: 0, worker: 0 },
            name: "x",
            start_us: t,
            dur_us: 1.0,
            key: None,
            link: crate::span::SpanLink::NONE,
        }
    }

    #[test]
    fn records_and_drains() {
        let r = ShardedRecorder::new(4, ClockDomain::Virtual);
        r.record_span(span(1.0));
        r.record_span(span(2.0));
        r.add_count("hits", 3);
        r.add_count("hits", 4);
        let trace = r.drain();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.counters["hits"], 7);
        assert!(r.drain().spans.is_empty(), "drain leaves the recorder empty");
    }

    #[test]
    fn same_thread_preserves_order() {
        let r = ShardedRecorder::new(1, ClockDomain::Virtual);
        for i in 0..100 {
            r.record_span(span(i as f64));
        }
        let trace = r.drain();
        let starts: Vec<f64> = trace.spans.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }
}
