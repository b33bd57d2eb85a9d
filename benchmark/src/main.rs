//! The repo's wall-clock benchmark: six workloads on the real engines,
//! end-to-end metrics from an untraced pass, per-layer metrics from a
//! traced one whose spans live in this harness. See README.md.
//!
//! ```text
//! paratreet-benchmark --workload W --seed N --seconds S --trace 0|1
//! paratreet-benchmark run [--seed N] [--seconds S] [--repeats R] [--smoke]
//!                         [--inject-timeout W] [--out FILE]
//! paratreet-benchmark compare A.json B.json
//! ```

mod alloc;
mod catalog;
mod cli;
mod compare;
mod procfs;
mod report;
mod run;
mod schedule;
mod spec;
mod stats;
mod supervise;
mod trace;
mod workloads;

use cli::Args;
use paratreet_telemetry::json::Json;
use report::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Opts, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  paratreet-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
  paratreet-benchmark run [--seed N] [--seconds S] [--repeats R] [--smoke] [--inject-timeout W] [--out FILE]
  paratreet-benchmark compare A.json B.json
workloads: gravity_shared gravity_threaded sph_knn disk_maintained fof_tiled serve_mixed";

/// The options of one run, shared by the contract's command line and
/// the `child` it re-executes.
fn run_options(args: &Args) -> Result<(Workload, Opts), String> {
    let name: String = args.require("workload")?;
    let workload = Workload::from_name(&name).ok_or(format!("no workload `{name}`"))?;
    let seconds: f64 = args.require("seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let traced = match args.require::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let opts = Opts {
        seed: args.require("seed")?,
        seconds,
        traced,
        smoke: args.switch("smoke"),
        hang: args.switch("inject-hang"),
    };
    Ok((workload, opts))
}

const RUN_KEYS: [&str; 4] = ["workload", "seed", "seconds", "trace"];

/// The contract's command line: one workload, one pass, in a supervised
/// child; its output is passed through, result line last.
fn supervised(args: &[String]) -> Result<bool, String> {
    let (workload, opts) = run_options(&Args::parse(args, &RUN_KEYS, &[])?)?;
    let child = supervise::run_child(workload, &opts, supervise::time_limit(&opts));
    print!("{}", child.stdout);
    match child.result {
        Ok(result) => Ok(result.correct),
        Err(why) => {
            // Killed or crashed: every operation it still owed counts
            // as failed, and the run says which workload it was.
            println!("FAILED {why}");
            println!("{}", RunResult::killed().to_json());
            Ok(false)
        }
    }
}

/// The workload itself, in this process.
fn child(args: &[String]) -> Result<bool, String> {
    let (workload, opts) = run_options(&Args::parse(args, &RUN_KEYS, &["smoke", "inject-hang"])?)?;
    let mut log = trace::SpanLog::new();
    let outcome = workload.run(&opts, &mut log);

    for m in outcome.metrics.metrics() {
        println!("{:<44}{:>20.6} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        println!("FAILED {}: {failure}", workload.name());
    }
    if opts.traced {
        let path = PathBuf::from(format!("benchmark/out/{}.trace.json", workload.name()));
        log.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} harness spans written to {}", log.len(), path.display());
    }
    let mut notes = Json::obj();
    for (key, value) in &outcome.notes {
        notes.push(key, Json::F64(*value));
    }
    println!("notes {notes}");
    let result = RunResult::new(outcome.attempted, outcome.failed, outcome.metrics.metrics());
    println!("{}", result.to_json());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child(&args[1..]),
        Some(option) if option.starts_with("--") => supervised(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
