//! Smoke-runs the artifact binaries in the tiny `CPELIDE_SMOKE`
//! configuration and checks that each exits cleanly and drops a
//! well-formed JSON report into its results directory.

use chiplet_harness::json;
use std::path::PathBuf;
use std::process::Command;

/// Runs one binary under smoke mode with an isolated results directory
/// and returns the rendered JSON report.
fn smoke_run(exe: &str, artifact: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{artifact}"));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(exe)
        .env("CPELIDE_SMOKE", "1")
        .env("CPELIDE_RESULTS_DIR", &dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {artifact}: {e}"));
    assert!(
        output.status.success(),
        "{artifact} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let path = dir.join(format!("{artifact}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{artifact} wrote no report at {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{artifact} report is malformed JSON: {e}"));
    text
}

/// Every off-grid study must land in `studies.json` under its own key.
#[test]
fn studies() {
    let text = smoke_run(env!("CARGO_BIN_EXE_studies"), "studies");
    for key in [
        "\"table1\"",
        "\"table2\"",
        "\"table3\"",
        "\"hmg_writeback\"",
        "\"scaling\"",
        "\"driver\"",
        "\"beyond7\"",
        "\"sensitivity\"",
    ] {
        assert!(text.contains(key), "studies report lacks {key}");
    }
}

/// The deep-dive binary must export the full per-run sync counters and
/// the CPElide run's labelled events.
#[test]
fn probe() {
    let text = smoke_run(env!("CARGO_BIN_EXE_probe"), "probe");
    for key in [
        "\"acquires_performed\"",
        "\"acquires_elided\"",
        "\"releases_elided\"",
        "\"invalidated_lines\"",
        "\"remote_bytes\"",
        "\"events\"",
        "\"label\"",
    ] {
        assert!(text.contains(key), "probe report lacks {key}");
    }
}
