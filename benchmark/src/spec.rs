//! `BENCHMARK.json`, as far as the harness reads it: which metrics each
//! pass must print, in which unit, which way is better, and by how much
//! an end-to-end metric may worsen before it counts as a regression.

use crate::report::RunResult;
use paratreet_telemetry::json::{parse, Json};
use std::path::Path;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(entry: &Json, key: &str) -> Result<String, String> {
    match entry.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("an entry lacks a string `{key}`")),
    }
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let entries = doc.get(key).and_then(Json::as_arr).ok_or(format!("no `{key}` list"))?;
    entries
        .iter()
        .map(|m| {
            let higher_is_better = match text(m, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("`better` is `{other}`")),
            };
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(source: &str) -> Result<Spec, String> {
        let doc = parse(source)?;
        let workloads = doc.get("workloads").and_then(Json::as_arr).ok_or("no `workloads` list")?;
        Ok(Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no `run_seconds`")?,
            workloads: workloads.iter().map(|w| text(w, "name")).collect::<Result<_, _>>()?,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Spec, String> {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&source).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The metrics a pass must print.
    pub fn pass(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Everything wrong with the metrics `result` printed for a pass:
    /// each name of the pass exactly once, nothing else, well-formed
    /// names, and the unit the file gives.
    pub fn violations(&self, traced: bool, result: &RunResult) -> Vec<String> {
        let mut wrong = Vec::new();
        for spec in self.pass(traced) {
            let printed: Vec<_> =
                result.metrics.iter().filter(|(name, _, _)| *name == spec.name).collect();
            match printed.as_slice() {
                [] => wrong.push(format!("{} is not printed", spec.name)),
                [(_, _, unit)] if *unit != spec.unit => {
                    wrong.push(format!("{} has unit `{unit}`, not `{}`", spec.name, spec.unit));
                }
                [_] => {}
                _ => wrong.push(format!("{} is printed {} times", spec.name, printed.len())),
            }
        }
        for (name, _, unit) in &result.metrics {
            if !self.pass(traced).iter().any(|s| s.name == *name) {
                wrong.push(format!("{name} is not in BENCHMARK.json"));
            }
            let plain = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            if name.is_empty() || !name.chars().all(plain) {
                wrong.push(format!("`{name}` is not a well-formed name"));
            }
            if unit.is_empty() {
                wrong.push(format!("{name} carries no unit"));
            }
        }
        wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MetricSet, END_TO_END, PER_LAYER};
    use crate::workloads::Workload;

    fn committed() -> Spec {
        Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue_and_the_workloads() {
        let spec = committed();
        for (listed, catalogue) in [(&spec.end_to_end, END_TO_END), (&spec.per_layer, PER_LAYER)] {
            let listed: Vec<_> =
                listed.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
            assert_eq!(listed, catalogue);
        }
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn a_full_metric_set_has_no_violations_and_a_broken_one_is_explained() {
        let spec = committed();
        for traced in [false, true] {
            let set = MetricSet::for_pass(traced);
            let mut result = RunResult::new(1, 0, set.metrics());
            assert_eq!(spec.violations(traced, &result), Vec::<String>::new());

            let (name, _, unit) = result.metrics.remove(0);
            result.metrics.push(("bad name".to_string(), 1.0, String::new()));
            result.metrics.push((result.metrics[0].0.clone(), 1.0, result.metrics[0].2.clone()));
            result.metrics[1].2 = "furlong".to_string();
            let wrong = spec.violations(traced, &result);
            assert!(wrong.contains(&format!("{name} is not printed")), "{wrong:?} ({unit})");
            assert!(wrong.iter().any(|w| w.ends_with("is printed 2 times")), "{wrong:?}");
            assert!(wrong.iter().any(|w| w.contains("has unit `furlong`")), "{wrong:?}");
            assert!(wrong.contains(&"bad name is not in BENCHMARK.json".to_string()));
            assert!(wrong.contains(&"`bad name` is not a well-formed name".to_string()));
            assert!(wrong.contains(&"bad name carries no unit".to_string()));
        }
    }
}
