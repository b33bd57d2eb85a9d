//! Projections-style telemetry for the ParaTreeT reproduction.
//!
//! The paper's whole performance story (Fig. 3 cache models, the Fig. 9
//! time profile, the scaling figures) was read off Charm++ *Projections*
//! timelines. This crate is the unified layer that lets every engine in
//! the workspace produce the same artifacts:
//!
//! * [`Telemetry`] — the cheap cloneable handle engines carry. Enabled,
//!   it records spans and counts into a [`recorder::ShardedRecorder`]
//!   (one mutex-guarded buffer per worker shard, so writers on
//!   different shards never contend). Disabled, every call is an
//!   inlined branch on a `None`.
//! * [`MetricsRegistry`] — named counters/gauges that absorb the
//!   workspace's stats structs ([`MetricSource`]), so reports are
//!   queried by metric name instead of hand-plumbed fields.
//! * [`chrome`] — Chrome trace-event JSON export (loadable in Perfetto
//!   or chrome://tracing: one track per worker per rank) plus a schema
//!   validator; [`export`] writes traces and metric dumps to files.
//!
//! Clock domains: the discrete-event engine stamps spans in *virtual*
//! microseconds (deterministic — same seed, byte-identical trace); the
//! threaded executor and shared-memory framework stamp *wall* time.

pub mod chrome;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod timeseries;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use hist::{Exemplar, Histogram, HistogramSnapshot};
pub use json::Json;
pub use metrics::{MetricSource, MetricValue, MetricsRegistry};
pub use span::{ClockDomain, Span, SpanLink, Trace, Track};
pub use timeseries::{FlightRecorder, TimeSeries};

use recorder::ShardedRecorder;
use std::sync::Arc;

/// The handle instrumented code holds. Cloning is cheap (an `Arc` when
/// enabled, a null pointer otherwise); the disabled handle makes every
/// method a no-op.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<ShardedRecorder>>,
}

impl Telemetry {
    /// A disabled handle: records nothing, costs (almost) nothing.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An enabled handle stamping virtual-time spans (the DES engine).
    /// Callers supply explicit timestamps through [`Telemetry::span_at`].
    pub fn virtual_time(n_shards: usize) -> Telemetry {
        Telemetry { inner: Some(Arc::new(ShardedRecorder::new(n_shards, ClockDomain::Virtual))) }
    }

    /// An enabled handle stamping wall-clock spans (threaded executor,
    /// shared-memory framework). `n_shards` should be sized to the
    /// expected thread count; undersizing is safe, just more contended.
    pub fn wall(n_shards: usize) -> Telemetry {
        Telemetry { inner: Some(Arc::new(ShardedRecorder::new(n_shards, ClockDomain::Wall))) }
    }

    /// Whether spans are actually being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a completed span with explicit timestamps (microseconds
    /// in the recorder's clock domain). This is the DES path: the engine
    /// knows virtual start/duration exactly.
    #[inline]
    pub fn span_at(
        &self,
        track: Track,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
        key: Option<u64>,
    ) {
        if let Some(r) = &self.inner {
            r.record_span(Span { track, name, start_us, dur_us, key, link: SpanLink::NONE });
        }
    }

    /// Records a completed span with explicit timestamps *and* causal
    /// context (span id / parent / request). This is the request-tracing
    /// path: `serve` stamps every stage of a request's life with the
    /// request id and a parent link to the per-request root span.
    #[inline]
    pub fn span_linked(
        &self,
        track: Track,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
        key: Option<u64>,
        link: SpanLink,
    ) {
        if let Some(r) = &self.inner {
            r.record_span(Span { track, name, start_us, dur_us, key, link });
        }
    }

    /// A fresh span id for linking (unique within this handle's
    /// recorder, never 0). Returns 0 on a disabled handle — callers
    /// should gate tracing on [`Telemetry::is_enabled`] anyway.
    #[inline]
    pub fn next_span_id(&self) -> u64 {
        if let Some(r) = &self.inner {
            return r.next_span_id();
        }
        0
    }

    /// Microseconds since the recorder was created (wall clock).
    /// Returns 0.0 on a disabled handle.
    #[inline]
    pub fn now_us(&self) -> f64 {
        if let Some(r) = &self.inner {
            return r.now_us();
        }
        0.0
    }

    /// Converts an [`std::time::Instant`] captured elsewhere (e.g. a
    /// request's submit time on a client thread) to microseconds on this
    /// recorder's clock, saturating at 0 for instants before the
    /// recorder epoch. Returns 0.0 on a disabled handle.
    #[inline]
    pub fn us_of(&self, t: std::time::Instant) -> f64 {
        if let Some(r) = &self.inner {
            return t.saturating_duration_since(r.epoch()).as_secs_f64() * 1e6;
        }
        0.0
    }

    /// The calling thread's dense worker slot on this recorder (0 on a
    /// disabled handle). Used as the `worker` half of a [`Track`].
    #[inline]
    pub fn thread_slot(&self) -> u32 {
        if let Some(r) = &self.inner {
            return r.thread_slot() as u32;
        }
        0
    }

    /// Runs `f`, recording a wall-clock span around it on the calling
    /// thread's track (`tid` = the thread's recorder id). This is the
    /// real-threads path: the executor and the cache don't know virtual
    /// time, they measure it.
    #[inline]
    pub fn wall_span<R>(
        &self,
        rank: u32,
        name: &'static str,
        key: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if let Some(r) = &self.inner {
            let start_us = r.now_us();
            let out = f();
            let dur_us = r.now_us() - start_us;
            let track = Track { rank, worker: r.thread_slot() as u32 };
            r.record_span(Span { track, name, start_us, dur_us, key, link: SpanLink::NONE });
            return out;
        }
        f()
    }

    /// Adds `delta` to a named counter (merged across shards at drain).
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.inner {
            r.add_count(name, delta);
        }
    }

    /// Takes everything recorded so far. Returns an empty trace on a
    /// disabled handle.
    pub fn drain(&self) -> Trace {
        if let Some(r) = &self.inner {
            return r.drain();
        }
        Trace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert_eq!(std::mem::size_of::<Telemetry>(), std::mem::size_of::<usize>());
        assert!(!t.is_enabled());
        t.span_at(Track { rank: 0, worker: 0 }, "x", 0.0, 1.0, None);
        t.count("c", 5);
        let out = t.wall_span(0, "y", None, || 42);
        assert_eq!(out, 42);
        let trace = t.drain();
        assert!(trace.spans.is_empty() && trace.counters.is_empty());
    }

    #[test]
    fn enabled_handle_records() {
        let t = Telemetry::virtual_time(2);
        t.span_at(Track { rank: 1, worker: 0 }, "build", 10.0, 5.0, Some(7));
        t.count("fills", 2);
        assert!(t.is_enabled());
        let trace = t.drain();
        assert_eq!(trace.clock, ClockDomain::Virtual);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "build");
        assert_eq!(trace.counters["fills"], 2);
    }

    #[test]
    fn wall_span_measures_and_returns() {
        let t = Telemetry::wall(1);
        let out = t.wall_span(3, "work", None, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            "done"
        });
        assert_eq!(out, "done");
        let trace = t.drain();
        assert_eq!(trace.clock, ClockDomain::Wall);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].track.rank, 3);
        assert!(trace.spans[0].dur_us >= 1000.0, "slept ≥2ms");
    }
}
