//! `repro`'s front door: bad arguments end in a message and a nonzero exit
//! before any simulation runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_unknown_benchmark_exits_1() {
    let out = repro(&["inspect=nosuch", "--quick"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown benchmark nosuch"));
    assert!(out.stdout.is_empty(), "nothing runs");
}

#[test]
fn an_option_the_experiment_does_not_read_is_a_usage_error() {
    for args in [
        &["perf-gate", "--min-speedup=abc"][..],
        &["perf-gate", "--quick"],
        &["fig8", "--qiuck"],
        &["run", "hotspot", "--matrix"],
        &["trace", "--out"],
        &["hwcost", "--quick"],
        &["--quik"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("unknown option"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
    let out = repro(&["perf-gate", "--min-speedup=abc"]);
    assert!(
        stderr(&out).contains("perf-gate takes no options"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn an_unknown_experiment_exits_2() {
    for what in ["nonsense", "sweep"] {
        let out = repro(&[what]);
        assert_eq!(out.status.code(), Some(2), "{what}: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("unknown experiment: {what}")));
        assert!(out.stdout.is_empty(), "{what}: nothing runs");
    }
}

#[test]
fn known_options_are_accepted() {
    let out = repro(&["hwcost"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = repro(&["inspect=hotspot", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("inspect: hotspot"));
}
