//! The `paratreet` binary's argument handling, driven from outside: a
//! misspelt option must stop the run, not fall back to a default.

use std::process::{Command, Output};

fn paratreet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paratreet")).args(args).output().expect("the binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_option_is_rejected_by_name() {
    for (flag, value) in [("--particals", "500000"), ("--engin", "machine")] {
        let out = paratreet(&["gravity", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = stderr(&out);
        assert!(err.contains(flag), "stderr names {flag}: {err}");
        assert!(err.contains("USAGE: paratreet <APP> [OPTIONS]"), "stderr carries the usage text");
        assert!(out.stdout.is_empty(), "nothing ran before the rejection");
    }
}

#[test]
fn missing_value_is_rejected() {
    let out = paratreet(&["gravity", "--particles"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--particles"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = paratreet(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE: paratreet <APP> [OPTIONS]"));
}

#[test]
fn small_gravity_run_succeeds() {
    let out = paratreet(&["gravity", "--particles", "200"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

/// Options are per app and per engine: one the chosen app does not read
/// stops the run, naming the option and the app, before anything runs.
#[test]
fn option_the_app_does_not_read_is_rejected_by_name() {
    for (args, named) in [
        (&["sph", "--theta", "0.1"][..], "--theta"),
        (&["gravity", "--particles", "200", "--crash-rank", "1"], "--crash-rank"),
        (&["gravity", "--engine", "machine", "--workers", "3"], "--workers"),
        (&["fof", "--iterations", "2"], "--iterations"),
        (&["sph", "--engine", "machine", "--theta", "0.1", "--crash-rank", "1"], "machine"),
        (&["fof", "--particles", "200", "--engine", "machine"], "machine"),
        (&["gravity", "--engine", "machine", "--incremental", "true"], "--incremental"),
        (&["gravity", "--engine", "threaded", "--inc-alpha", "0.6"], "--inc-alpha"),
    ] {
        let out = paratreet(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(named) && err.contains(args[0]), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "nothing ran before the rejection");
    }
}

/// The query service's overload flags are gone with the machinery
/// they drove: each one, and the `cost` admission policy, stops the run
/// naming the flag.
#[test]
fn removed_serve_flags_are_refused_by_name() {
    for (flag, value) in [
        ("--max-backlog-ms", "5"),
        ("--retries", "3"),
        ("--pace-us", "10"),
        ("--degrade", "1"),
        ("--respawn-limit", "8"),
        ("--inject-worker-panic", "3"),
        ("--inject-writer-panic", "2"),
        ("--admission", "cost"),
    ] {
        let out = paratreet(&["serve-bench", "--particles", "200", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = stderr(&out);
        assert!(err.contains(flag), "stderr names {flag}: {err}");
        assert!(out.stdout.is_empty(), "nothing ran before the rejection");
    }
}

/// `--iterations N` is N leapfrog steps on every engine, and on the
/// shared engine whether the tree is maintained or rebuilt: one line per
/// step.
#[test]
fn iterations_count_on_every_engine() {
    let runs: [&[&str]; 4] = [
        &["--engine", "shared", "--incremental", "false"],
        &["--engine", "shared", "--incremental", "true"],
        &["--engine", "threaded"],
        &["--engine", "machine"],
    ];
    for run in runs {
        let mut args = vec!["gravity", "--particles", "300", "--iterations", "3"];
        args.extend(run);
        let out = paratreet(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let steps = stdout.lines().filter(|l| l.starts_with("step ")).count();
        assert_eq!(steps, 3, "{run:?}: {stdout}");
    }
}

/// Gravity has no dual-tree traversal on any engine: the value is
/// refused by name before any particle is generated or loaded — a
/// snapshot that does not exist is never opened.
#[test]
fn dual_tree_traversal_is_rejected_by_name_on_every_engine() {
    let missing = std::env::temp_dir().join(format!("paratreet_cli_{}.ptrt", std::process::id()));
    let missing = missing.to_str().expect("a UTF-8 temp path");
    for engine in ["shared", "threaded", "machine"] {
        for input in [&["--particles", "200"][..], &["--input", missing]] {
            let mut args = vec!["gravity", "--engine", engine, "--traversal", "dual-tree"];
            args.extend(input);
            let out = paratreet(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            let err = stderr(&out);
            assert!(err.contains("bad value for --traversal: dual-tree"), "{args:?}: {err}");
            assert!(out.stdout.is_empty(), "nothing ran before the rejection");
        }
    }
}

/// The threaded engine applies in the shared-memory engine's order and
/// both integrate with one leapfrog: with the decomposition pinned above
/// the threaded floors, their CSVs are byte for byte the same.
#[test]
fn threaded_csv_equals_shared() {
    let csv = |engine: &[&str]| {
        let path = std::env::temp_dir().join(format!(
            "paratreet_cli_{}_{}.csv",
            engine.join("_"),
            std::process::id()
        ));
        let path_arg = path.to_str().expect("a UTF-8 temp path");
        let mut args = vec!["gravity", "--particles", "2000", "--iterations", "2"];
        args.extend(["--subtrees", "16", "--partitions", "32", "--csv", path_arg]);
        args.extend(engine);
        let out = paratreet(&args);
        assert_eq!(out.status.code(), Some(0), "{engine:?}: {}", stderr(&out));
        let bytes = std::fs::read(&path).expect("the CSV was written");
        std::fs::remove_file(&path).expect("the CSV is ours to remove");
        bytes
    };
    let shared = csv(&["--engine", "shared"]);
    for (ranks, workers) in [("2", "1"), ("3", "2")] {
        let threaded = csv(&["--engine", "threaded", "--ranks", ranks, "--workers", workers]);
        assert!(threaded == shared, "threaded {ranks}x{workers} CSV differs from shared");
    }
}

/// Every `--name` the usage text mentions gets past the parser (`help`
/// parses its options like any app, then prints instead of running).
/// The binary's own unit test holds the list to the text the other way.
#[test]
fn every_option_in_usage_is_accepted() {
    let usage = String::from_utf8(paratreet(&["help"]).stdout).expect("usage is UTF-8");
    let mut names: Vec<&str> = usage
        .split("--")
        .skip(1)
        .map(|rest| rest.split(|c: char| c != '-' && !c.is_ascii_lowercase()).next().unwrap())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert!(names.len() > 50, "the scan found the option table: {names:?}");
    for name in names {
        let out = paratreet(&["help", &format!("--{name}"), "1"]);
        assert_eq!(out.status.code(), Some(0), "--{name}: {}", stderr(&out));
    }
}
