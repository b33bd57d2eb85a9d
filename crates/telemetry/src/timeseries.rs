//! Time-series flight recorder: a lock-free ring of periodic samples.
//!
//! A [`FlightRecorder`] holds the last `capacity` rows of a fixed set of
//! named series (queue depth, q/s, epochs published, pin retries, phase
//! busy fraction, …). Producers call [`FlightRecorder::sample`] (wall
//! clock) or [`FlightRecorder::sample_at`] (virtual clock — the DES
//! stamps simulated time, so same seed ⇒ byte-identical series) from any
//! thread; the ring overwrites the oldest rows, so after a long run the
//! newest window is always retained — the "flight recorder" discipline.
//!
//! Concurrency: a producer claims a slot with one `fetch_add`, marks it
//! dirty (odd tag), writes the row as relaxed per-word atomics, then
//! marks it clean (even tag carrying the claim number). A snapshot
//! validates each slot's tag before and after copying; a torn row (two
//! producers lapping each other onto the same slot mid-write) is simply
//! skipped. With capacity ≥ rows written, sampling is loss-free.
//!
//! Like [`crate::Telemetry`], the handle is cheap to clone and a
//! disabled one is a null pointer whose every call is a no-op.

use crate::json::Json;
use crate::span::ClockDomain;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One drained window of samples: the series names plus `(t_us, values)`
/// rows in recording order (oldest retained row first).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    /// The clock the timestamps were taken on.
    pub clock: ClockDomain,
    /// Column names, one per value in each row.
    pub names: Vec<&'static str>,
    /// `(t_us, values)` rows; `values.len() == names.len()`.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl TimeSeries {
    /// Deterministic JSON: `{clock, series, samples}` where each sample
    /// is `[t_us, v0, v1, …]`. Floats use shortest round-trip formatting
    /// via [`Json`], so identical rows always serialise identically.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.push("clock", Json::Str(self.clock.label().to_string()));
        obj.push(
            "series",
            Json::Arr(self.names.iter().map(|n| Json::Str(n.to_string())).collect()),
        );
        let mut samples = Vec::with_capacity(self.rows.len());
        for (t, values) in &self.rows {
            let mut row = Vec::with_capacity(values.len() + 1);
            row.push(Json::F64(*t));
            row.extend(values.iter().map(|v| Json::F64(*v)));
            samples.push(Json::Arr(row));
        }
        obj.push("samples", Json::Arr(samples));
        obj
    }

    /// Deterministic CSV: a `t_us,<name>,…` header then one row per
    /// sample (shortest round-trip float formatting).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for name in &self.names {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (t, values) in &self.rows {
            out.push_str(&Json::F64(*t).to_string());
            for v in values {
                out.push(',');
                out.push_str(&Json::F64(*v).to_string());
            }
            out.push('\n');
        }
        out
    }
}

/// One ring slot: a seqlock-style tag (`0` empty, odd = being written,
/// even = complete, `tag / 2 - 1` = claim number) plus the row stored as
/// per-word atomics (`words[0]` = `t_us` bits, the rest = value bits).
#[derive(Debug)]
struct Slot {
    tag: AtomicU64,
    words: Box<[AtomicU64]>,
}

#[derive(Debug)]
struct RingSampler {
    names: Vec<&'static str>,
    clock: ClockDomain,
    epoch: Instant,
    /// Claims issued so far; claim `n` (1-based) lands in slot
    /// `(n - 1) % capacity`.
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl RingSampler {
    fn new(names: &[&'static str], capacity: usize, clock: ClockDomain) -> RingSampler {
        let width = names.len() + 1;
        RingSampler {
            names: names.to_vec(),
            clock,
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    tag: AtomicU64::new(0),
                    words: (0..width).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
        }
    }

    fn push(&self, t_us: f64, values: &[f64]) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[((claim - 1) % self.slots.len() as u64) as usize];
        slot.tag.store(claim * 2 + 1, Ordering::Release);
        slot.words[0].store(t_us.to_bits(), Ordering::Relaxed);
        for (i, w) in slot.words[1..].iter().enumerate() {
            // Missing trailing values sample as 0 so every row is full width.
            w.store(values.get(i).copied().unwrap_or(0.0).to_bits(), Ordering::Relaxed);
        }
        slot.tag.store(claim * 2 + 2, Ordering::Release);
    }

    fn snapshot(&self) -> TimeSeries {
        let mut rows: Vec<(u64, f64, Vec<f64>)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let before = slot.tag.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // empty, or a producer is mid-write
            }
            let t = f64::from_bits(slot.words[0].load(Ordering::Relaxed));
            let values: Vec<f64> =
                slot.words[1..].iter().map(|w| f64::from_bits(w.load(Ordering::Relaxed))).collect();
            if slot.tag.load(Ordering::Acquire) != before {
                continue; // lapped mid-copy: torn row, skip it
            }
            rows.push((before / 2 - 1, t, values));
        }
        rows.sort_by_key(|(claim, _, _)| *claim);
        TimeSeries {
            clock: self.clock,
            names: self.names.clone(),
            rows: rows.into_iter().map(|(_, t, v)| (t, v)).collect(),
        }
    }
}

/// The cloneable sampler handle engines carry. Disabled, every call is
/// a no-op and [`FlightRecorder::snapshot`] returns an empty series.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<RingSampler>>,
}

impl FlightRecorder {
    /// A disabled handle: samples nothing, costs (almost) nothing.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// An enabled recorder whose producers stamp wall-clock time via
    /// [`FlightRecorder::sample`].
    pub fn wall(names: &[&'static str], capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Some(Arc::new(RingSampler::new(names, capacity, ClockDomain::Wall))),
        }
    }

    /// An enabled recorder whose producers stamp virtual time via
    /// [`FlightRecorder::sample_at`] — the DES path; same seed produces
    /// a byte-identical series.
    pub fn virtual_time(names: &[&'static str], capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Some(Arc::new(RingSampler::new(names, capacity, ClockDomain::Virtual))),
        }
    }

    /// Whether samples are actually being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one row at an explicit timestamp (microseconds in the
    /// recorder's clock domain — the DES passes virtual time).
    #[inline]
    pub fn sample_at(&self, t_us: f64, values: &[f64]) {
        if let Some(r) = &self.inner {
            r.push(t_us, values);
        }
    }

    /// Records one row stamped with wall-clock microseconds since the
    /// recorder was created.
    #[inline]
    pub fn sample(&self, values: &[f64]) {
        if let Some(r) = &self.inner {
            r.push(r.epoch.elapsed().as_secs_f64() * 1e6, values);
        }
    }

    /// The retained window, oldest retained row first. Empty on a
    /// disabled handle. Non-destructive: sampling may continue.
    pub fn snapshot(&self) -> TimeSeries {
        if let Some(r) = &self.inner {
            return r.snapshot();
        }
        TimeSeries::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        assert_eq!(std::mem::size_of::<FlightRecorder>(), std::mem::size_of::<usize>());
        assert!(!fr.is_enabled());
        fr.sample(&[1.0]);
        fr.sample_at(5.0, &[2.0]);
        assert_eq!(fr.snapshot(), TimeSeries::default());
    }

    #[test]
    fn records_rows_in_order() {
        let fr = FlightRecorder::virtual_time(&["depth", "qps"], 16);
        assert!(fr.is_enabled());
        fr.sample_at(1.0, &[3.0, 100.0]);
        fr.sample_at(2.0, &[4.0, 200.0]);
        let ts = fr.snapshot();
        assert_eq!(ts.clock, ClockDomain::Virtual);
        assert_eq!(ts.names, vec!["depth", "qps"]);
        assert_eq!(ts.rows, vec![(1.0, vec![3.0, 100.0]), (2.0, vec![4.0, 200.0])]);
        // Short rows pad with zeros; long rows truncate.
        fr.sample_at(3.0, &[9.0]);
        fr.sample_at(4.0, &[1.0, 2.0, 3.0]);
        let ts = fr.snapshot();
        assert_eq!(ts.rows[2], (3.0, vec![9.0, 0.0]));
        assert_eq!(ts.rows[3], (4.0, vec![1.0, 2.0]));
    }

    #[test]
    fn wraparound_keeps_newest_window() {
        let fr = FlightRecorder::virtual_time(&["v"], 8);
        for i in 0..100u64 {
            fr.sample_at(i as f64, &[i as f64 * 10.0]);
        }
        let ts = fr.snapshot();
        assert_eq!(ts.rows.len(), 8);
        let ts_col: Vec<f64> = ts.rows.iter().map(|(t, _)| *t).collect();
        assert_eq!(ts_col, (92..100).map(|i| i as f64).collect::<Vec<_>>());
        for (t, v) in &ts.rows {
            assert_eq!(v[0], t * 10.0);
        }
    }

    #[test]
    fn concurrent_sampling_is_loss_free() {
        let threads = 8usize;
        let per_thread = 2_000u64;
        let fr = FlightRecorder::wall(&["tid", "i"], threads * per_thread as usize);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fr = fr.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        fr.sample(&[t as f64, i as f64]);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let ts = fr.snapshot();
        assert_eq!(ts.rows.len(), threads * per_thread as usize, "no sample lost");
        // Every (thread, i) pair present exactly once.
        let mut seen = vec![0u32; threads * per_thread as usize];
        for (_, v) in &ts.rows {
            let (t, i) = (v[0] as usize, v[1] as u64);
            seen[t * per_thread as usize + i as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn export_is_deterministic() {
        let fr = FlightRecorder::virtual_time(&["a", "b"], 4);
        fr.sample_at(0.5, &[1.0, 2.25]);
        fr.sample_at(1.5, &[3.0, 4.0]);
        let ts = fr.snapshot();
        let json = ts.to_json().to_string();
        assert_eq!(json, fr.snapshot().to_json().to_string());
        assert_eq!(
            json,
            r#"{"clock":"virtual","series":["a","b"],"samples":[[0.5,1,2.25],[1.5,3,4]]}"#
        );
        assert_eq!(ts.to_csv(), "t_us,a,b\n0.5,1,2.25\n1.5,3,4\n");
    }
}
