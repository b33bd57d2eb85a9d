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
    ] {
        let out = paratreet(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(named) && err.contains(args[0]), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "nothing ran before the rejection");
    }
}

/// `--iterations N` is N iterations on every engine, maintained tree or
/// not: the message engines print one line per iteration after the
/// first.
#[test]
fn iterations_count_on_every_engine() {
    for engine in ["threaded", "machine"] {
        for incremental in ["false", "true"] {
            let out = paratreet(&[
                "gravity",
                "--particles",
                "300",
                "--engine",
                engine,
                "--iterations",
                "3",
                "--incremental",
                incremental,
            ]);
            assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let steps = stdout.lines().filter(|l| l.starts_with("step ")).count();
            assert_eq!(steps, 2, "{engine}, incremental {incremental}: {stdout}");
        }
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
