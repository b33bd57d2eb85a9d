//! Concurrency tests for the sharded recorder: 8 real threads recording
//! spans and counters, with and without concurrent drains.

use paratreet_telemetry::{Span, Telemetry, Track};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const THREADS: usize = 8;
const SPANS_PER_THREAD: usize = 2_000;

fn record_burst(t: &Telemetry, rank: u32) {
    for i in 0..SPANS_PER_THREAD {
        t.span_at(Track { rank, worker: 0 }, "work", i as f64, 1.0, Some(rank as u64));
        t.count("spans", 1);
    }
}

#[test]
fn eight_threads_lose_nothing() {
    let t = Telemetry::wall(THREADS);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for rank in 0..THREADS as u32 {
            let t = &t;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                record_burst(t, rank);
            });
        }
    });
    let trace = t.drain();
    assert_eq!(trace.spans.len(), THREADS * SPANS_PER_THREAD);
    assert_eq!(trace.counters["spans"], (THREADS * SPANS_PER_THREAD) as u64);

    // Per-rank spans keep their recorded order: each writer's starts
    // were monotone, and shard buffers preserve push order.
    for rank in 0..THREADS as u32 {
        let starts: Vec<f64> =
            trace.spans.iter().filter(|s| s.track.rank == rank).map(|s| s.start_us).collect();
        assert_eq!(starts.len(), SPANS_PER_THREAD);
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "rank {rank} spans out of order");
    }
}

#[test]
fn concurrent_drains_partition_the_stream() {
    let t = Telemetry::wall(THREADS);
    let stop = AtomicBool::new(false);
    let mut drained: Vec<Span> = Vec::new();
    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for rank in 0..THREADS as u32 {
            let t = &t;
            let stop = &stop;
            writers.push(s.spawn(move || {
                let mut n = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    t.span_at(Track { rank, worker: 0 }, "w", n as f64, 1.0, None);
                    n += 1;
                    if n >= SPANS_PER_THREAD {
                        break;
                    }
                }
                n
            }));
        }
        // Drain aggressively while writers run.
        let mut rounds = 0;
        while writers.iter().any(|w| !w.is_finished()) || rounds < 2 {
            drained.extend(t.drain().spans);
            rounds += 1;
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let written: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        drained.extend(t.drain().spans);
        assert_eq!(drained.len(), written, "every span lands in exactly one drain");
    });

    // Even split across interleaved drains, each writer's spans stay in
    // order and complete.
    for rank in 0..THREADS as u32 {
        let starts: Vec<f64> =
            drained.iter().filter(|s| s.track.rank == rank).map(|s| s.start_us).collect();
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "rank {rank} spans reordered across drains"
        );
        assert_eq!(starts.len(), SPANS_PER_THREAD);
    }
}

#[test]
fn nested_wall_spans_order_by_start() {
    // Span nesting: an outer wall_span encloses two inner ones. The
    // recorder stores completion order; sorting recovers start order
    // with the outer span first (Perfetto renders the containment).
    let t = Telemetry::wall(1);
    t.wall_span(0, "outer", None, || {
        t.wall_span(0, "inner a", None, || std::thread::sleep(std::time::Duration::from_millis(1)));
        t.wall_span(0, "inner b", None, || std::thread::sleep(std::time::Duration::from_millis(1)));
    });
    let mut trace = t.drain();
    trace.sort();
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, vec!["outer", "inner a", "inner b"]);
    let outer = trace.spans[0];
    for inner in &trace.spans[1..] {
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1.0);
    }
}
