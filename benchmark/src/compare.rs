//! `compare A.json B.json`: two `run` reports, metric by metric.
//!
//! For every end-to-end metric × workload: both medians, how much worse
//! B is than A as a share of A (negative = better), and the bound from
//! `BENCHMARK.json`. A pair beyond its bound is marked, and the command
//! fails if there is one — the repeatability criterion, and the
//! no-regression check of later changes.

use crate::spec::Spec;
use paratreet_telemetry::json::{parse, Json};
use std::path::Path;

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn median_of(report: &Json, workload: &str, metric: &str) -> Option<f64> {
    report.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get("median")?.as_f64()
}

/// One compared pair.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub worse_by: f64,
    pub bound: f64,
}

impl Row {
    pub fn beyond(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Every pair both reports carry; a pair one of them lacks is an error.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let bound = m.bound.ok_or(format!("{} has no bound", m.name))?;
            match (median_of(a, workload, &m.name), median_of(b, workload, &m.name)) {
                (Some(va), Some(vb)) => rows.push(Row {
                    workload: workload.clone(),
                    metric: m.name.clone(),
                    a: va,
                    b: vb,
                    worse_by: worsening(va, vb, m.higher_is_better),
                    bound,
                }),
                (None, None) => {} // a report of fewer workloads
                _ => return Err(format!("only one report has {workload} · {}", m.name)),
            }
        }
    }
    if rows.is_empty() {
        return Err("the reports share no end-to-end metric".to_string());
    }
    Ok(rows)
}

/// `Ok(true)` when no pair is beyond its bound.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let rows = compare(&spec, &load(a_path)?, &load(b_path)?)?;
    println!(
        "{:<18}{:<18}{:>16}{:>16}{:>10}{:>8}",
        "workload", "metric", "A median", "B median", "B worse", "bound"
    );
    for r in &rows {
        println!(
            "{:<18}{:<18}{:>16.6}{:>16.6}{:>9.2}%{:>7.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.beyond() { "  BEYOND" } else { "" }
        );
    }
    let beyond = rows.iter().filter(|r| r.beyond()).count();
    println!("{beyond} of {} pairs beyond their bound", rows.len());
    Ok(beyond == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricSpec;

    fn spec() -> Spec {
        let metric = |name: &str, higher_is_better, bound| MetricSpec {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better,
            bound: Some(bound),
        };
        Spec {
            run_seconds: 10.0,
            workloads: vec!["w".to_string()],
            end_to_end: vec![metric("step_s_p50", false, 0.05), metric("items_per_s", true, 0.05)],
            per_layer: Vec::new(),
        }
    }

    fn report(step: f64, items: f64) -> Json {
        parse(&format!(
            "{{\"workloads\":{{\"w\":{{\"end_to_end\":{{\
             \"step_s_p50\":{{\"median\":{step}}},\"items_per_s\":{{\"median\":{items}}}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn worse_is_positive_whichever_way_is_better() {
        assert!((worsening(1.0, 1.1, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!(worsening(1.0, 0.9, false) < 0.0);
    }

    #[test]
    fn pairs_beyond_their_bound_are_marked() {
        let rows = compare(&spec(), &report(1.0, 100.0), &report(1.04, 90.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].beyond(), "4 % slower is within 5 %");
        assert!(rows[1].beyond(), "10 % less throughput is not");
    }

    #[test]
    fn a_metric_in_one_report_only_is_an_error() {
        let partial = parse(
            "{\"workloads\":{\"w\":{\"end_to_end\":{\
                             \"step_s_p50\":{\"median\":1}}}}}",
        )
        .unwrap();
        assert!(compare(&spec(), &report(1.0, 1.0), &partial).is_err());
        assert!(compare(&spec(), &Json::obj(), &Json::obj()).is_err());
    }
}
