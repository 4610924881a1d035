//! `probe` argument handling, driven through the built binary: a
//! malformed or out-of-range chiplet count gets the usage line and exit
//! code 2, an unknown workload exit code 1, never a panic; a known
//! workload writes a valid timeline and report.

use std::path::PathBuf;
use std::process::{Command, Output};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("probe-args")
}

fn probe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .env_remove("CPELIDE_SMOKE")
        .env("CPELIDE_RESULTS_DIR", results_dir())
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
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("probe-args-trace.json");
    let _ = std::fs::remove_file(&trace);
    let out = probe(&["btree", "2", "--trace", &trace.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("btree"), "{stdout}");
    assert!(stdout.contains("2 chiplets"), "{stdout}");
    let json = std::fs::read_to_string(&trace).expect("--trace writes the timeline");
    chiplet_harness::json::parse(&json).expect("the timeline is valid JSON");
    assert!(json.contains("\"traceEvents\""), "{json}");
    // The report carries the CPElide run's events, each one labelled.
    let report =
        std::fs::read_to_string(results_dir().join("probe.json")).expect("probe.json written");
    let report = chiplet_harness::json::parse(&report).expect("probe.json is valid JSON");
    let runs = report.get("runs").and_then(|r| r.as_arr()).expect("runs");
    let cpe = runs
        .iter()
        .find(|r| r.get("protocol").and_then(|p| p.as_str()) == Some("CPElide"))
        .expect("a CPElide run");
    let events = cpe.get("events").and_then(|e| e.as_arr()).expect("events");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.get("label").and_then(|l| l.as_str()).is_some()));
}
