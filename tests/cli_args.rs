//! `cpelide-repro` argument handling, driven through the built binary:
//! a malformed number or an out-of-range chiplet count gets the usage
//! message and exit code 2, never a silent default or a panic.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpelide-repro"))
        .args(args)
        .output()
        .expect("cpelide-repro runs")
}

fn assert_usage(args: &[&str]) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn oracle_rejects_malformed_numbers() {
    assert_usage(&["oracle", "--workload", "btree", "--chiplets", "four"]);
    assert_usage(&["oracle", "--workload", "btree", "--sample", "x17"]);
    assert_usage(&["oracle", "--workload", "btree", "--chiplets", "-1"]);
}

#[test]
fn oracle_rejects_chiplet_counts_outside_the_supported_range() {
    assert_usage(&["oracle", "--workload", "btree", "--chiplets", "0"]);
    assert_usage(&["oracle", "--workload", "btree", "--chiplets", "17"]);
}

#[test]
fn oracle_rejects_incomplete_or_unknown_arguments() {
    assert_usage(&["oracle"]);
    assert_usage(&["oracle", "--workload"]);
    assert_usage(&["oracle", "--workload", "btree", "--chiplet", "4"]);
    assert_usage(&["run", "--workload", "btree"]);
    assert_usage(&["compare", "--workload", "btree"]);
}

#[test]
fn oracle_names_an_unknown_workload_and_checks_a_known_one() {
    let out = cli(&["oracle", "--workload", "no-such-app"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-app"));

    let out = cli(&[
        "oracle",
        "--workload",
        "btree",
        "--chiplets",
        "2",
        "--sample",
        "997",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("coherent"), "{stdout}");
}
