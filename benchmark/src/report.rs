//! The result a run prints, and reading it back.
//!
//! The last line of a run's standard output is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`;
//! everything above it is for people.

use crate::catalog::Metric;
use paratreet_telemetry::json::{parse, Json};

/// One run's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The result of a finished run. A value that is not a finite
    /// number cannot be printed as one: it reads 0 and fails the run.
    pub fn new(attempted: u64, failed: u64, metrics: &[Metric]) -> RunResult {
        let broken = metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
        let failed = failed + broken;
        RunResult {
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics: metrics
                .iter()
                .map(|m| {
                    let value = if m.value.is_finite() { m.value } else { 0.0 };
                    (m.name.to_string(), value, m.unit.to_string())
                })
                .collect(),
        }
    }

    /// The result of a run that never finished: one operation, failed,
    /// and no metrics.
    pub fn killed() -> RunResult {
        RunResult { correct: false, attempted: 1, failed: 1, metrics: Vec::new() }
    }

    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            let mut m = Json::obj();
            m.push("value", Json::F64(*value));
            m.push("unit", Json::Str(unit.clone()));
            metrics.push(name, m);
        }
        let mut doc = Json::obj();
        doc.push("correct", Json::Bool(self.correct));
        doc.push("attempted", Json::U64(self.attempted));
        doc.push("failed", Json::U64(self.failed));
        doc.push("metrics", metrics);
        doc
    }

    /// Reads a result line back.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let field = |key: &str| doc.get(key).ok_or(format!("result has no `{key}`"));
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("`correct` is not a boolean".to_string()),
        };
        let whole = |key: &str| match field(key)? {
            Json::U64(n) => Ok(*n),
            _ => Err(format!("`{key}` is not a whole number")),
        };
        let Json::Obj(entries) = field("metrics")? else {
            return Err("`metrics` is not an object".to_string());
        };
        let mut metrics = Vec::new();
        for (name, m) in entries {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = match m.get("unit") {
                Some(Json::Str(u)) => Some(u.clone()),
                _ => None,
            };
            match (value, unit) {
                (Some(value), Some(unit)) => metrics.push((name.clone(), value, unit)),
                _ => return Err(format!("metric `{name}` lacks a value or a unit")),
            }
        }
        Ok(RunResult { correct, attempted: whole("attempted")?, failed: whole("failed")?, metrics })
    }

    /// The result on the last line of `stdout`, if there is one.
    pub fn from_stdout(stdout: &str) -> Result<RunResult, String> {
        let last = stdout.lines().next_back().ok_or("the run printed nothing")?;
        RunResult::from_json(&parse(last)?)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, value: f64) -> Metric {
        Metric { name, unit: "s", value }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_reads_back() {
        let result =
            RunResult::new(13, 0, &[metric("setup_s", 0.8127), metric("step_s_p50", 1.2034e-4)]);
        let line = result.to_json().to_string();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":13,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
             \"step_s_p50\":{\"value\":0.00012034,\"unit\":\"s\"}}}"
        );
        let stdout = format!("setup_s 0.8127 s\n{line}\n");
        assert_eq!(RunResult::from_stdout(&stdout), Ok(result));
    }

    #[test]
    fn failures_and_unprintable_values_make_a_run_incorrect() {
        assert!(!RunResult::new(10, 1, &[]).correct);
        let nan = RunResult::new(10, 0, &[metric("setup_s", f64::NAN)]);
        assert_eq!((nan.correct, nan.failed, nan.value("setup_s")), (false, 1, Some(0.0)));
        assert_eq!(RunResult::new(0, 0, &[]).attempted, 1);
        let killed = RunResult::killed();
        assert_eq!((killed.correct, killed.attempted, killed.failed), (false, 1, 1));
    }

    #[test]
    fn malformed_results_are_refused() {
        assert!(RunResult::from_stdout("").is_err());
        assert!(RunResult::from_stdout("not json").is_err());
        assert!(RunResult::from_stdout("{\"correct\":true}").is_err());
        let no_unit = "{\"correct\":true,\"attempted\":1,\"failed\":0,\
                       \"metrics\":{\"x\":{\"value\":1}}}";
        assert!(RunResult::from_stdout(no_unit).is_err());
    }
}
