//! `run`: every workload, both passes, one report.

use crate::cli::Args;
use crate::procfs;
use crate::report::RunResult;
use crate::spec::Spec;
use crate::stats::{median, quartiles};
use crate::supervise::{run_child, time_limit};
use crate::workloads::{Opts, Workload};
use paratreet_telemetry::json::{parse, Json};
use std::path::Path;
use std::process::Command;

/// The first line a command prints, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_facts() -> Json {
    let mut host = Json::obj();
    host.push("nproc", Json::U64(procfs::nproc() as u64));
    host.push("cpu_model", Json::Str(procfs::cpu_model()));
    host.push("rustc", Json::Str(first_line_of("rustc", &["-V"])));
    host.push("commit", Json::Str(first_line_of("git", &["rev-parse", "HEAD"])));
    host
}

/// The `notes {...}` line a child prints above its result.
fn notes_of(stdout: &str) -> Json {
    stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("notes "))
        .and_then(|j| parse(j).ok())
        .unwrap_or_else(Json::obj)
}

/// All runs of one workload.
struct WorkloadRuns {
    workload: Workload,
    untraced: Vec<RunResult>,
    traced: RunResult,
    notes: Json,
    /// Why a run did not count, workload named.
    problems: Vec<String>,
}

impl WorkloadRuns {
    fn attempted(&self) -> u64 {
        self.untraced.iter().chain([&self.traced]).map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.untraced.iter().chain([&self.traced]).map(|r| r.failed).sum()
    }

    /// The values an end-to-end metric took over the untraced runs that
    /// finished.
    fn values(&self, name: &str) -> Vec<f64> {
        self.untraced.iter().filter_map(|r| r.value(name)).collect()
    }

    fn to_json(&self, spec: &Spec) -> Json {
        let mut end_to_end = Json::obj();
        for m in &spec.end_to_end {
            let values = self.values(&m.name);
            let mut entry = Json::obj();
            entry.push("unit", Json::Str(m.unit.clone()));
            entry.push("median", Json::F64(median(&values)));
            if let Some([q1, _, q3]) = quartiles(&values) {
                entry.push("q1", Json::F64(q1));
                entry.push("q3", Json::F64(q3));
            }
            entry.push("values", Json::Arr(values.into_iter().map(Json::F64).collect()));
            end_to_end.push(&m.name, entry);
        }
        let mut per_layer = Json::obj();
        for (name, value, unit) in &self.traced.metrics {
            let mut entry = Json::obj();
            entry.push("unit", Json::Str(unit.clone()));
            entry.push("value", Json::F64(*value));
            per_layer.push(name, entry);
        }
        let mut doc = Json::obj();
        doc.push("attempted", Json::U64(self.attempted()));
        doc.push("failed", Json::U64(self.failed()));
        doc.push("failed_frac", Json::F64(self.failed() as f64 / self.attempted() as f64));
        doc.push("sizes", self.notes.clone());
        doc.push("end_to_end", end_to_end);
        doc.push("per_layer", per_layer);
        doc
    }
}

fn run_workload(
    workload: Workload,
    base: &Opts,
    repeats: usize,
    hang: bool,
    spec: &Spec,
) -> WorkloadRuns {
    let mut runs = WorkloadRuns {
        workload,
        untraced: Vec::new(),
        traced: RunResult::killed(),
        notes: Json::obj(),
        problems: Vec::new(),
    };
    for pass in 0..=repeats {
        let traced = pass == repeats;
        let opts = Opts { traced, hang, ..*base };
        println!(
            "--- {} · {} pass · seed {} ---",
            workload.name(),
            if traced { "traced" } else { "untraced" },
            opts.seed
        );
        let child = run_child(workload, &opts, time_limit(&opts));
        print!("{}", child.stdout);
        if let Err(why) = &child.result {
            println!("FAILED {why}");
            runs.problems.push(why.clone());
        }
        let result = child.result_or_killed();
        if child.result.is_ok() {
            if !result.correct {
                runs.problems.push(format!(
                    "{}: {} of {} operations failed",
                    workload.name(),
                    result.failed,
                    result.attempted
                ));
            }
            for wrong in spec.violations(traced, &result) {
                println!("FAILED {}: {wrong}", workload.name());
                runs.problems.push(format!("{}: {wrong}", workload.name()));
            }
            if !traced && runs.untraced.is_empty() {
                runs.notes = notes_of(&child.stdout);
            }
        }
        if traced {
            runs.traced = result;
        } else {
            runs.untraced.push(result);
        }
    }
    runs
}

/// Runs everything; `Ok(true)` when no operation failed and every
/// metric was printed as `BENCHMARK.json` lists it.
pub fn main(args: &[String]) -> Result<bool, String> {
    let args =
        Args::parse(args, &["seed", "seconds", "repeats", "inject-timeout", "out"], &["smoke"])?;
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let smoke = args.switch("smoke");
    let base = Opts {
        seed: args.get("seed", 17)?,
        seconds: args.get("seconds", if smoke { 0.25 } else { spec.run_seconds })?,
        traced: false,
        smoke,
        hang: false,
    };
    let repeats: usize = args.get("repeats", 1)?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    let hung = match args.text("inject-timeout") {
        None => None,
        Some(name) => Some(
            Workload::from_name(name).ok_or(format!("--inject-timeout: no workload `{name}`"))?,
        ),
    };
    let out = args.text("out").unwrap_or(if smoke {
        "benchmark/out/smoke.json"
    } else {
        "benchmark/out/report.json"
    });

    let all: Vec<WorkloadRuns> = Workload::ALL
        .into_iter()
        .map(|w| run_workload(w, &base, repeats, hung == Some(w), &spec))
        .collect();

    let mut doc = Json::obj();
    doc.push("benchmark", Json::Str("paratreet wall-clock benchmark".to_string()));
    doc.push("seed", Json::U64(base.seed));
    doc.push("seconds", Json::F64(base.seconds));
    doc.push("repeats", Json::U64(repeats as u64));
    doc.push("smoke", Json::Bool(smoke));
    doc.push("host", host_facts());
    let mut workloads = Json::obj();
    for runs in &all {
        workloads.push(runs.workload.name(), runs.to_json(&spec));
    }
    doc.push("workloads", workloads);
    if let Some(dir) = Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("{out}: {e}"))?;

    println!("\n=== end-to-end medians over {repeats} untraced run(s), seed {} ===", base.seed);
    print!("{:<18}", "workload");
    for m in &spec.end_to_end {
        print!("{:>22}", format!("{} [{}]", m.name, m.unit));
    }
    println!("{:>14}", "failed_frac");
    for runs in &all {
        print!("{:<18}", runs.workload.name());
        for m in &spec.end_to_end {
            print!("{:>22.6}", median(&runs.values(&m.name)));
        }
        println!("{:>14.6}", runs.failed() as f64 / runs.attempted() as f64);
    }
    println!("report written to {out}");

    let problems: Vec<&String> = all.iter().flat_map(|r| &r.problems).collect();
    for p in &problems {
        println!("FAILED {p}");
    }
    Ok(problems.is_empty())
}
