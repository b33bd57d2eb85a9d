//! Recorders: where instrumented code deposits spans and counts.
//!
//! The workhorse is [`ShardedRecorder`]: one buffer per worker shard,
//! single swap-in/swap-out on the record path, atomic-swap drain — the
//! same wait-free discipline as the software cache itself. A writer
//! never blocks on another writer or on a drain; a drain never blocks a
//! writer. The rare race (a drain swapping a fresh buffer in while a
//! writer holds the shard's buffer) is resolved by moving the displaced
//! buffer to a mutex-protected overflow list, touched only on that
//! race.

use crate::span::{ClockDomain, Span, Trace};
use std::collections::BTreeMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded item. Counters ride the same shard buffers as spans so
/// the record path stays a single push.
#[derive(Clone, Copy, Debug)]
enum Event {
    Span(Span),
    Count(&'static str, u64),
}

/// Anything that can absorb telemetry events. The sharded recorder is
/// the real implementation; tests may substitute their own.
pub trait Recorder: Send + Sync {
    /// Records a completed span.
    fn record_span(&self, span: Span);
    /// Adds `delta` to the named counter.
    fn add_count(&self, name: &'static str, delta: u64);
    /// Takes everything recorded so far, leaving the recorder empty.
    fn drain(&self) -> Trace;
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

type Buffer = Vec<Event>;

/// Lock-free sharded recorder. See module docs for the discipline.
#[derive(Debug)]
pub struct ShardedRecorder {
    /// This instance's id in the thread-local slot cache.
    id: usize,
    /// Hands out dense per-recorder thread slots (0, 1, 2, …).
    next_slot: AtomicUsize,
    /// Per-shard buffers. A null slot means the owning writer is
    /// momentarily holding the buffer to push into it.
    shards: Vec<AtomicPtr<Buffer>>,
    /// Buffers displaced by a drain racing a writer.
    overflow: Mutex<Vec<Buffer>>,
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
        let n = n_shards.max(1);
        ShardedRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            next_slot: AtomicUsize::new(0),
            shards: (0..n)
                .map(|_| AtomicPtr::new(Box::into_raw(Box::new(Buffer::new()))))
                .collect(),
            overflow: Mutex::new(Vec::new()),
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
    /// shards (the single-writer case the ordering guarantee needs);
    /// later threads wrap around, which stays correct but may interleave
    /// buffers.
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
        let slot = &self.shards[self.thread_slot() % self.shards.len()];
        // Take the shard's buffer (or start a fresh one if a concurrent
        // writer on the same shard holds it).
        let taken = slot.swap(ptr::null_mut(), Ordering::AcqRel);
        let mut buf = if taken.is_null() {
            Box::new(Buffer::new())
        } else {
            // Safety: a non-null pointer in a slot is exclusively owned
            // by whoever swapped it out; it originated in Box::into_raw.
            unsafe { Box::from_raw(taken) }
        };
        buf.push(ev);
        // Put it back. If a drain (or a same-shard writer) installed a
        // buffer meanwhile, move the displaced one to overflow so no
        // event is ever lost.
        let displaced = slot.swap(Box::into_raw(buf), Ordering::AcqRel);
        if !displaced.is_null() {
            // Safety: same ownership argument as above.
            let displaced = unsafe { Box::from_raw(displaced) };
            if !displaced.is_empty() {
                self.overflow.lock().expect("overflow lock").push(*displaced);
            }
        }
    }
}

impl Recorder for ShardedRecorder {
    fn record_span(&self, span: Span) {
        self.record(Event::Span(span));
    }

    fn add_count(&self, name: &'static str, delta: u64) {
        self.record(Event::Count(name, delta));
    }

    fn drain(&self) -> Trace {
        let mut buffers: Vec<Buffer> =
            std::mem::take(&mut *self.overflow.lock().expect("overflow lock"));
        for slot in &self.shards {
            let fresh = Box::into_raw(Box::new(Buffer::new()));
            let taken = slot.swap(fresh, Ordering::AcqRel);
            if !taken.is_null() {
                // Safety: exclusively owned once swapped out.
                buffers.push(*unsafe { Box::from_raw(taken) });
            }
            // A null slot means a writer holds that buffer right now; its
            // events surface in the next drain (callers drain at quiesce
            // points, where every slot is populated).
        }
        let mut spans = Vec::new();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        for buf in buffers {
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

impl Drop for ShardedRecorder {
    fn drop(&mut self) {
        for slot in &self.shards {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // Safety: drop has exclusive access to self.
                drop(unsafe { Box::from_raw(p) });
            }
        }
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
