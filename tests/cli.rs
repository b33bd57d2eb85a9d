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
