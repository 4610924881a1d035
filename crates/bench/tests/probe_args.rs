//! `probe` argument handling, driven through the built binary: a
//! malformed or out-of-range chiplet count gets the usage line and exit
//! code 2, an unknown workload exit code 1, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn probe(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("probe-args");
    Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .env_remove("CPELIDE_SMOKE")
        .env_remove("CPELIDE_TRACE")
        .env("CPELIDE_RESULTS_DIR", &dir)
        .output()
        .expect("probe runs")
}

/// Asserts `probe args` exits with `code` before running anything, and
/// returns its standard error.
fn assert_refused(args: &[&str], code: i32) -> String {
    let out = probe(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    stderr
}

#[test]
fn probe_rejects_chiplet_counts_outside_the_supported_range() {
    for args in [["square", "0"], ["square", "17"]] {
        let stderr = assert_refused(&args, 2);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains("1..=16"), "{args:?}: {stderr}");
    }
}

#[test]
fn probe_rejects_malformed_arguments() {
    assert_refused(&["square", "four"], 2);
    assert_refused(&["square", "4", "extra"], 2);
    assert_refused(&["square", "--trace"], 2);
    assert_refused(&["--chiplets", "4"], 2);
}

#[test]
fn probe_names_an_unknown_workload() {
    let stderr = assert_refused(&["nosuch"], 1);
    assert!(stderr.contains("unknown workload 'nosuch'"), "{stderr}");
}

#[test]
fn probe_runs_a_known_workload() {
    let out = probe(&["btree", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("btree"), "{stdout}");
    assert!(stdout.contains("2 chiplets"), "{stdout}");
}
