//! Assembly: run every analysis, render the report, emit deterministic
//! JSON, and evaluate the `--check` assertions.

use crate::critical::{critical_path, CriticalPath};
use crate::profile::{grain_sizes, utilization, GrainRow, Utilization};
use crate::requests::{request_chains, resolve_exemplar, RequestChain};
use crate::trace::TraceData;
use paratreet_telemetry::Json;
use std::fmt::Write as _;

/// The query classes the service exports latency histograms for.
const CLASSES: [&str; 4] = ["knn", "ball", "range", "ray"];

/// One query class's latency breakdown, read from the metrics dump.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyRow {
    /// Class label (`knn`/`ball`/`range`/`ray`).
    pub class: String,
    /// Requests recorded.
    pub count: u64,
    /// Mean end-to-end latency (ns).
    pub mean_ns: f64,
    /// p999 end-to-end latency (ns).
    pub p999_ns: u64,
    /// Mean time from submit to worker pop (ns).
    pub queue_wait_mean_ns: f64,
    /// Mean time from pop to snapshot pin (ns).
    pub pin_wait_mean_ns: f64,
    /// Mean kernel execution time (ns).
    pub exec_mean_ns: f64,
    /// Requests answered `DeadlineExceeded` after expiring in queue
    /// (0 when the dump predates the overload counters or the run was
    /// clean).
    pub deadline_exceeded: u64,
}

/// A resolved p999 exemplar: the class, its chain, and completeness.
#[derive(Clone, Debug, PartialEq)]
pub struct ExemplarRow {
    /// Class label.
    pub class: String,
    /// The resolved chain.
    pub chain: RequestChain,
    /// True when all five stage spans are present.
    pub complete: bool,
}

/// Per-column summary of a flight-recorder series.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStat {
    /// Column name.
    pub name: String,
    /// Minimum sampled value.
    pub min: f64,
    /// Maximum sampled value.
    pub max: f64,
    /// Mean sampled value.
    pub mean: f64,
    /// Final sampled value.
    pub last: f64,
}

/// Summary of an ingested flight-recorder time series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesSummary {
    /// Clock domain label.
    pub clock: String,
    /// Rows in the window.
    pub n_samples: usize,
    /// First sample timestamp (µs).
    pub t0_us: f64,
    /// Last sample timestamp (µs).
    pub t1_us: f64,
    /// One summary per column.
    pub columns: Vec<ColumnStat>,
}

/// Everything the analyzer computed for one set of artifacts.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// The parsed trace, when one was given.
    pub trace: Option<TraceData>,
    /// Per-track utilization (requires a trace).
    pub utilization: Option<Utilization>,
    /// Critical path (requires a trace).
    pub critical: Option<CriticalPath>,
    /// Grain-size rows (requires a trace).
    pub grains: Vec<GrainRow>,
    /// Re-assembled request chains (requires a trace with links).
    pub chains: Vec<RequestChain>,
    /// Resolved p999 exemplars (requires trace + metrics).
    pub exemplars: Vec<ExemplarRow>,
    /// Per-class latency breakdown (requires metrics).
    pub latency: Vec<LatencyRow>,
    /// Flight-recorder summary, when a series was given.
    pub series: Option<SeriesSummary>,
}

fn summarize_series(doc: &Json) -> Result<SeriesSummary, String> {
    let clock = match doc.get("clock") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err("timeseries: missing clock".into()),
    };
    let names: Vec<String> = doc
        .get("series")
        .and_then(Json::as_arr)
        .ok_or("timeseries: missing series names")?
        .iter()
        .map(|n| match n {
            Json::Str(s) => Ok(s.clone()),
            _ => Err("timeseries: non-string series name".to_string()),
        })
        .collect::<Result<_, _>>()?;
    let samples = doc.get("samples").and_then(Json::as_arr).ok_or("timeseries: missing samples")?;
    let mut t0 = f64::INFINITY;
    let mut t1 = f64::NEG_INFINITY;
    let mut cols: Vec<(f64, f64, f64, f64)> =
        names.iter().map(|_| (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0)).collect();
    for row in samples {
        let row = row.as_arr().ok_or("timeseries: non-array sample")?;
        let t = row.first().and_then(Json::as_f64).ok_or("timeseries: sample without t")?;
        t0 = t0.min(t);
        t1 = t1.max(t);
        for (c, stat) in cols.iter_mut().enumerate() {
            let v = row.get(c + 1).and_then(Json::as_f64).unwrap_or(0.0);
            stat.0 = stat.0.min(v);
            stat.1 = stat.1.max(v);
            stat.2 += v;
            stat.3 = v;
        }
    }
    let n = samples.len();
    Ok(SeriesSummary {
        clock,
        n_samples: n,
        t0_us: if n > 0 { t0 } else { 0.0 },
        t1_us: if n > 0 { t1 } else { 0.0 },
        columns: names
            .into_iter()
            .zip(cols)
            .map(|(name, (min, max, sum, last))| ColumnStat {
                name,
                min: if n > 0 { min } else { 0.0 },
                max: if n > 0 { max } else { 0.0 },
                mean: if n > 0 { sum / n as f64 } else { 0.0 },
                last,
            })
            .collect(),
    })
}

fn latency_rows(metrics: &Json) -> Vec<LatencyRow> {
    let f = |key: String| metrics.get(&key).and_then(Json::as_f64);
    CLASSES
        .iter()
        .filter_map(|class| {
            let count = f(format!("serve.latency.{class}.count"))?;
            Some(LatencyRow {
                class: class.to_string(),
                count: count as u64,
                mean_ns: f(format!("serve.latency.{class}.mean")).unwrap_or(0.0),
                p999_ns: f(format!("serve.latency.{class}.p999")).unwrap_or(0.0) as u64,
                queue_wait_mean_ns: f(format!("serve.latency.{class}.queue_wait.mean"))
                    .unwrap_or(0.0),
                pin_wait_mean_ns: f(format!("serve.latency.{class}.pin_wait.mean")).unwrap_or(0.0),
                exec_mean_ns: f(format!("serve.latency.{class}.exec.mean")).unwrap_or(0.0),
                // The deadline counter is absent in older dumps and
                // zero on clean runs; both read as 0 so `--check` and
                // old artifacts keep working.
                deadline_exceeded: f(format!("serve.latency.{class}.deadline_exceeded"))
                    .unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

/// Runs every applicable analysis over the given artifacts.
pub fn analyze(
    trace: Option<TraceData>,
    metrics: Option<&Json>,
    series: Option<&Json>,
    bins: usize,
) -> Result<Analysis, String> {
    let mut out = Analysis::default();
    if let Some(trace) = trace {
        out.utilization = Some(utilization(&trace, bins));
        out.critical = Some(critical_path(&trace));
        out.grains = grain_sizes(&trace);
        out.chains = request_chains(&trace);
        if let Some(metrics) = metrics {
            for class in CLASSES {
                if let Some(chain) = resolve_exemplar(&trace, metrics, class) {
                    let complete = chain.is_complete(&trace);
                    out.exemplars.push(ExemplarRow { class: class.to_string(), chain, complete });
                }
            }
        }
        out.trace = Some(trace);
    }
    if let Some(metrics) = metrics {
        out.latency = latency_rows(metrics);
    }
    if let Some(series) = series {
        out.series = Some(summarize_series(series)?);
    }
    Ok(out)
}

impl Analysis {
    /// Number of request chains carrying all five stages.
    pub fn n_complete_chains(&self) -> usize {
        match &self.trace {
            Some(t) => self.chains.iter().filter(|c| c.is_complete(t)).count(),
            None => 0,
        }
    }

    /// The deterministic JSON form: same artifacts in, same bytes out.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        if let Some(trace) = &self.trace {
            let mut t = Json::obj();
            t.push("clock", Json::Str(trace.clock.clone()));
            t.push("n_spans", Json::U64(trace.spans.len() as u64));
            t.push("n_tracks", Json::U64(trace.tracks().len() as u64));
            let (lo, hi) = trace.extent_us().unwrap_or((0.0, 0.0));
            t.push("extent_us", Json::Arr(vec![Json::F64(lo), Json::F64(hi)]));
            doc.push("trace", t);
        }
        if let Some(util) = &self.utilization {
            let mut u = Json::obj();
            u.push("t0_us", Json::F64(util.t0_us));
            u.push("t1_us", Json::F64(util.t1_us));
            let rows = util
                .tracks
                .iter()
                .map(|tp| {
                    let mut row = Json::obj();
                    row.push("rank", Json::U64(tp.rank));
                    row.push("worker", Json::U64(tp.worker));
                    row.push("n_spans", Json::U64(tp.n_spans as u64));
                    row.push("busy_us", Json::F64(tp.busy_us));
                    row.push("busy_frac", Json::F64(tp.busy_frac));
                    row.push("bins", Json::Arr(tp.bins.iter().map(|&b| Json::F64(b)).collect()));
                    row
                })
                .collect();
            u.push("tracks", Json::Arr(rows));
            doc.push("utilization", u);
        }
        if let (Some(cp), Some(trace)) = (&self.critical, &self.trace) {
            let mut c = Json::obj();
            c.push("work_us", Json::F64(cp.work_us));
            c.push("extent_us", Json::F64(cp.extent_us));
            c.push("gap_us", Json::F64(cp.gap_us));
            c.push("n_steps", Json::U64(cp.steps.len() as u64));
            let steps = cp
                .steps
                .iter()
                .map(|&i| {
                    let s = &trace.spans[i];
                    let mut step = Json::obj();
                    step.push("name", Json::Str(s.name.clone()));
                    step.push("start_us", Json::F64(s.start_us));
                    step.push("dur_us", Json::F64(s.dur_us));
                    step.push("rank", Json::U64(s.rank));
                    step.push("worker", Json::U64(s.worker));
                    step
                })
                .collect();
            c.push("steps", Json::Arr(steps));
            let by_name = cp
                .by_name
                .iter()
                .map(|(n, us)| Json::Arr(vec![Json::Str(n.clone()), Json::F64(*us)]))
                .collect();
            c.push("by_name", Json::Arr(by_name));
            doc.push("critical_path", c);
        }
        if !self.grains.is_empty() {
            let rows = self
                .grains
                .iter()
                .map(|g| {
                    let mut row = Json::obj();
                    row.push("name", Json::Str(g.name.clone()));
                    row.push("count", Json::U64(g.count as u64));
                    row.push("total_us", Json::F64(g.total_us));
                    row.push("mean_us", Json::F64(g.mean_us));
                    row.push("p50_us", Json::F64(g.p50_us));
                    row.push("p99_us", Json::F64(g.p99_us));
                    row.push("max_us", Json::F64(g.max_us));
                    row
                })
                .collect();
            doc.push("grains", Json::Arr(rows));
        }
        if self.trace.is_some() {
            let mut r = Json::obj();
            r.push("n_chains", Json::U64(self.chains.len() as u64));
            r.push("n_complete", Json::U64(self.n_complete_chains() as u64));
            doc.push("requests", r);
        }
        if let Some(trace) = &self.trace {
            let rows = self
                .exemplars
                .iter()
                .map(|ex| {
                    let mut row = Json::obj();
                    row.push("class", Json::Str(ex.class.clone()));
                    row.push("request", Json::U64(ex.chain.request));
                    row.push("complete", Json::Bool(ex.complete));
                    row.push("total_us", Json::F64(ex.chain.total_us(trace)));
                    let stages = ex
                        .chain
                        .stages
                        .iter()
                        .map(|&i| {
                            let s = &trace.spans[i];
                            let mut stage = Json::obj();
                            stage.push("name", Json::Str(s.name.clone()));
                            stage.push("dur_us", Json::F64(s.dur_us));
                            stage
                        })
                        .collect();
                    row.push("stages", Json::Arr(stages));
                    row
                })
                .collect();
            if !self.exemplars.is_empty() {
                doc.push("exemplars", Json::Arr(rows));
            }
        }
        if !self.latency.is_empty() {
            let rows = self
                .latency
                .iter()
                .map(|l| {
                    let mut row = Json::obj();
                    row.push("class", Json::Str(l.class.clone()));
                    row.push("count", Json::U64(l.count));
                    row.push("mean_ns", Json::F64(l.mean_ns));
                    row.push("p999_ns", Json::U64(l.p999_ns));
                    row.push("queue_wait_mean_ns", Json::F64(l.queue_wait_mean_ns));
                    row.push("pin_wait_mean_ns", Json::F64(l.pin_wait_mean_ns));
                    row.push("exec_mean_ns", Json::F64(l.exec_mean_ns));
                    row.push("deadline_exceeded", Json::U64(l.deadline_exceeded));
                    row
                })
                .collect();
            doc.push("latency", Json::Arr(rows));
        }
        if let Some(series) = &self.series {
            let mut s = Json::obj();
            s.push("clock", Json::Str(series.clock.clone()));
            s.push("n_samples", Json::U64(series.n_samples as u64));
            s.push("t0_us", Json::F64(series.t0_us));
            s.push("t1_us", Json::F64(series.t1_us));
            let cols = series
                .columns
                .iter()
                .map(|c| {
                    let mut col = Json::obj();
                    col.push("name", Json::Str(c.name.clone()));
                    col.push("min", Json::F64(c.min));
                    col.push("max", Json::F64(c.max));
                    col.push("mean", Json::F64(c.mean));
                    col.push("last", Json::F64(c.last));
                    col
                })
                .collect();
            s.push("columns", Json::Arr(cols));
            doc.push("timeseries", s);
        }
        doc
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "paratreet-analyze report");
        let _ = writeln!(out, "========================");
        if let Some(trace) = &self.trace {
            let (lo, hi) = trace.extent_us().unwrap_or((0.0, 0.0));
            let _ = writeln!(
                out,
                "\ntrace: {} spans on {} tracks, {:.1} us extent ({} clock)",
                trace.spans.len(),
                trace.tracks().len(),
                hi - lo,
                trace.clock
            );
        }
        if let Some(util) = &self.utilization {
            let _ = writeln!(out, "\nutilization (busy fraction per track)");
            for tp in &util.tracks {
                let sparkline: String = tp
                    .bins
                    .iter()
                    .map(|&b| {
                        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
                        glyphs[((b * 7.0).round() as usize).min(7)]
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "  rank {} worker {}: {:5.1}% busy, {} spans |{}|",
                    tp.rank,
                    tp.worker,
                    tp.busy_frac * 100.0,
                    tp.n_spans,
                    sparkline
                );
            }
        }
        if let Some(cp) = &self.critical {
            let _ = writeln!(
                out,
                "\ncritical path: {} steps, {:.1} us work + {:.1} us gaps over {:.1} us",
                cp.steps.len(),
                cp.work_us,
                cp.gap_us,
                cp.extent_us
            );
            for (name, us) in &cp.by_name {
                let pct = if cp.work_us > 0.0 { 100.0 * us / cp.work_us } else { 0.0 };
                let _ = writeln!(out, "  {name:<24} {us:>12.1} us  {pct:5.1}%");
            }
        }
        if !self.grains.is_empty() {
            let _ = writeln!(out, "\ngrain sizes (us): name, count, mean, p50, p99, max");
            for g in self.grains.iter().take(12) {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    g.name, g.count, g.mean_us, g.p50_us, g.p99_us, g.max_us
                );
            }
        }
        if self.trace.is_some() && !self.chains.is_empty() {
            let _ = writeln!(
                out,
                "\nrequests: {} traced chains, {} complete",
                self.chains.len(),
                self.n_complete_chains()
            );
        }
        if let Some(trace) = &self.trace {
            for ex in &self.exemplars {
                let _ = writeln!(
                    out,
                    "\np999 exemplar [{}]: request {:#x}, {:.1} us total{}",
                    ex.class,
                    ex.chain.request,
                    ex.chain.total_us(trace),
                    if ex.complete { "" } else { " (INCOMPLETE CHAIN)" }
                );
                for &i in &ex.chain.stages {
                    let s = &trace.spans[i];
                    let _ = writeln!(out, "    {:<12} {:>12.1} us", s.name, s.dur_us);
                }
            }
        }
        if !self.latency.is_empty() {
            let _ = writeln!(
                out,
                "\nlatency (ns): class, count, mean, p999, queue_wait, pin_wait, exec, \
                 deadline_exceeded"
            );
            for l in &self.latency {
                let _ = writeln!(
                    out,
                    "  {:<6} {:>8} {:>12.0} {:>12} {:>12.0} {:>12.0} {:>12.0} {:>8}",
                    l.class,
                    l.count,
                    l.mean_ns,
                    l.p999_ns,
                    l.queue_wait_mean_ns,
                    l.pin_wait_mean_ns,
                    l.exec_mean_ns,
                    l.deadline_exceeded
                );
            }
        }
        if let Some(series) = &self.series {
            let _ = writeln!(
                out,
                "\nflight recorder: {} samples over {:.1} us ({} clock)",
                series.n_samples,
                series.t1_us - series.t0_us,
                series.clock
            );
            for c in &series.columns {
                let _ = writeln!(
                    out,
                    "  {:<18} min {:>12.2}  max {:>12.2}  mean {:>12.2}  last {:>12.2}",
                    c.name, c.min, c.max, c.mean, c.last
                );
            }
        }
        out
    }

    /// The `--check` assertions, in CI-friendly form: an error message
    /// describing the first failed invariant, or `Ok`.
    pub fn check(&self) -> Result<(), String> {
        let trace = self.trace.as_ref().ok_or("check: no trace was ingested")?;
        let cp = self.critical.as_ref().ok_or("check: no critical path")?;
        if cp.work_us.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("check: critical path has zero work".into());
        }
        let util = self.utilization.as_ref().ok_or("check: no utilization profile")?;
        if util.tracks.is_empty() {
            return Err("check: no worker tracks in the trace".into());
        }
        for (rank, worker) in trace.tracks() {
            let row = util
                .tracks
                .iter()
                .find(|tp| tp.rank == rank && tp.worker == worker)
                .ok_or(format!("check: no utilization row for rank {rank} worker {worker}"))?;
            if row.busy_us.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!(
                    "check: rank {rank} worker {worker} has a zero-busy utilization row"
                ));
            }
        }
        // Serve artifacts: when the metrics dump carries latency
        // histograms with traffic, at least one class's p999 exemplar
        // must resolve to a complete stage chain in the trace.
        let served: Vec<&LatencyRow> = self.latency.iter().filter(|l| l.count > 0).collect();
        if !served.is_empty() && !self.exemplars.iter().any(|ex| ex.complete) {
            return Err(
                "check: latency histograms carry traffic but no p999 exemplar resolves to a \
                 complete request chain"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_telemetry::json::parse;

    #[test]
    fn series_summary_reads_the_recorder_export() {
        let doc =
            parse(r#"{"clock":"virtual","series":["a","b"],"samples":[[1,2,3],[2,4,1]]}"#).unwrap();
        let s = summarize_series(&doc).unwrap();
        assert_eq!(s.clock, "virtual");
        assert_eq!(s.n_samples, 2);
        assert_eq!((s.t0_us, s.t1_us), (1.0, 2.0));
        assert_eq!(s.columns[0].min, 2.0);
        assert_eq!(s.columns[0].max, 4.0);
        assert_eq!(s.columns[0].mean, 3.0);
        assert_eq!(s.columns[1].last, 1.0);
    }

    #[test]
    fn analysis_json_is_deterministic_and_check_gates() {
        let trace_json = paratreet_telemetry::chrome_trace_json(&{
            use paratreet_telemetry::{Span, SpanLink, Trace, Track};
            let mut t = Trace::default();
            t.spans.push(Span {
                name: "tree build",
                start_us: 0.0,
                dur_us: 10.0,
                track: Track { rank: 0, worker: 0 },
                key: None,
                link: SpanLink::NONE,
            });
            t
        });
        let a = analyze(Some(crate::parse_trace(&trace_json).unwrap()), None, None, 4).unwrap();
        let b = analyze(Some(crate::parse_trace(&trace_json).unwrap()), None, None, 4).unwrap();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert!(a.check().is_ok(), "{:?}", a.check());
        assert!(a.render().contains("critical path"));

        let empty = analyze(None, None, None, 4).unwrap();
        assert!(empty.check().is_err(), "check requires a trace");
    }

    #[test]
    fn check_tolerates_forest_and_ghost_metric_keys() {
        // Forest runs export `forest.*` / `ghost.*` / `fof.*` families that
        // predate-this-crate dumps never carried; `--check` must treat them
        // as inert extras, not schema violations.
        let trace_json = paratreet_telemetry::chrome_trace_json(&{
            use paratreet_telemetry::{Span, SpanLink, Trace, Track};
            let mut t = Trace::default();
            t.spans.push(Span {
                name: "ghost exchange",
                start_us: 0.0,
                dur_us: 5.0,
                track: Track { rank: 0, worker: 0 },
                key: None,
                link: SpanLink::NONE,
            });
            t
        });
        let metrics = parse(
            r#"{"forest.boxes":4,"forest.routes":104,"forest.owned":8000,
                "forest.seam_splits":0,"ghost.zones":22,"ghost.particles":51,
                "ghost.bytes":7752,"ghost.des.comm.bytes":3040,
                "ghost.des.makespan_s":2.1e-6,"fof.halos":26,"fof.grouped":3237,
                "fof.links":3211,"fof.largest":810}"#,
        )
        .unwrap();
        let a = analyze(Some(crate::parse_trace(&trace_json).unwrap()), Some(&metrics), None, 4)
            .unwrap();
        assert!(a.check().is_ok(), "{:?}", a.check());
        // The unknown keys carry no serve latency, so no rows materialize
        // and no exemplar is demanded.
        assert!(a.latency.is_empty());
        assert!(a.exemplars.is_empty());
    }
}
