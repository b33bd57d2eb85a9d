//! Each workload runs in a child process — this same executable,
//! re-executed with `child` — under a wall-clock limit. A hang (the
//! threaded engine has a known livelock) is killed and reported as a
//! failed run with the workload named; it never stalls the caller. The
//! child is also what gives each workload its own `VmHWM`.

use crate::report::RunResult;
use crate::workloads::{Opts, Workload};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Seconds a full-size run spends outside its timed loop: repeated
/// set-up, probes and output checks.
const OVERHEAD_S: f64 = 8.0;
/// The contract's own limit is 180 s per run.
const HARD_LIMIT_S: f64 = 170.0;

/// Four times what the run is expected to take.
pub fn time_limit(opts: &Opts) -> Duration {
    let overhead = if opts.smoke { 1.0 } else { OVERHEAD_S };
    Duration::from_secs_f64((4.0 * (opts.seconds + overhead)).min(HARD_LIMIT_S))
}

/// How a child ended.
pub struct ChildRun {
    /// Everything it printed.
    pub stdout: String,
    /// Its result line — or why there is none.
    pub result: Result<RunResult, String>,
}

impl ChildRun {
    /// The result, with a killed or crashed child counted as one failed
    /// operation.
    pub fn result_or_killed(&self) -> RunResult {
        self.result.clone().unwrap_or_else(|_| RunResult::killed())
    }
}

/// Runs `workload` in a child process and waits for it, at most
/// `limit`; past that the child is killed (and reaped).
pub fn run_child(workload: Workload, opts: &Opts, limit: Duration) -> ChildRun {
    let started = Instant::now();
    let spawned = std::env::current_exe().and_then(|exe| {
        let mut command = Command::new(exe);
        command
            .arg("child")
            .args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }]);
        if opts.smoke {
            command.arg("--smoke");
        }
        if opts.hang {
            command.arg("--inject-hang");
        }
        command.stdout(Stdio::piped()).spawn()
    });
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            let why = format!("{}: cannot start the child process: {e}", workload.name());
            return ChildRun { stdout: String::new(), result: Err(why) };
        }
    };
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        // A child killed mid-line leaves invalid UTF-8 at worst: keep
        // what was read.
        let _ = pipe.read_to_string(&mut text);
        text
    });

    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < limit => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                // Over the limit (or unwaitable): kill, then reap.
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let stdout = reader.join().unwrap_or_default();
    let wall_s = started.elapsed().as_secs_f64();
    let result = match status {
        None => Err(format!(
            "{}: killed after {wall_s:.1} s (limit {:.1} s)",
            workload.name(),
            limit.as_secs_f64()
        )),
        Some(status) => RunResult::from_stdout(&stdout)
            .map_err(|e| format!("{}: no result ({e}); child {status}", workload.name())),
    };
    ChildRun { stdout, result }
}
