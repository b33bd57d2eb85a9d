//! Harness-side spans.
//!
//! The traced pass wraps each call into a layer in a span recorded
//! *here*, in the benchmark's own memory — nothing is attached to the
//! engines. The log is written once, when the run ends, through the
//! telemetry crate's Chrome trace-event exporter.

use paratreet_telemetry::span::{ClockDomain, Span, SpanLink, Trace, Track};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Track of the thread that drives the workload (and is its one client).
pub const MAIN: Track = Track { rank: 0, worker: 0 };
/// Track of the harness-owned writer thread (`serve_mixed`).
pub const WRITER: Track = Track { rank: 0, worker: 1 };

/// Spans recorded since the log was created. Span ids count from 1 in
/// recording order; a child names its parent's id.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records one finished span; returns its id for children to name.
    pub fn record(
        &mut self,
        track: Track,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            track,
            name,
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            key: None,
            link: SpanLink { id: Some(id), parent, request: None },
        });
        id
    }

    /// Moves another thread's spans into this log, re-numbering them
    /// (they carry no parents).
    pub fn absorb(&mut self, track: Track, spans: Vec<(&'static str, Instant, Instant)>) {
        for (name, start, end) in spans {
            self.record(track, name, start, end, None);
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as Chrome trace-event JSON.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let trace = Trace {
            clock: ClockDomain::Wall,
            spans: self.spans.clone(),
            counters: Default::default(),
        };
        paratreet_telemetry::export::write_chrome_trace(path, &trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_telemetry::chrome::{chrome_trace_json, validate_chrome_trace};
    use std::time::Duration;

    #[test]
    fn spans_link_to_their_parent_and_export_as_chrome_trace() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let step = log.record(MAIN, "step", t0, t0 + Duration::from_millis(5), None);
        let child = log.record(MAIN, "traverse", t0, t0 + Duration::from_millis(3), Some(step));
        log.absorb(WRITER, vec![("publish", t0, t0 + Duration::from_millis(1))]);
        assert_eq!((step, child, log.len()), (1, 2, 3));

        let trace = Trace {
            clock: ClockDomain::Wall,
            spans: log.spans.clone(),
            counters: Default::default(),
        };
        let text = chrome_trace_json(&trace);
        assert_eq!(validate_chrome_trace(&text), Ok(3));
        assert!(text.contains("\"parent\":1"));
    }
}
