//! Integration tests for the linter: the known-bad fixture corpus under
//! `tests/lint_fixtures/` must trip exactly one rule per file at the
//! documented span, and the real workspace tree must lint clean.
//!
//! The fixtures are laid out as a miniature workspace
//! (`crates/<name>/src/<rule>.rs`) so crate-scoped rules resolve exactly
//! as they do on the real tree; the workspace walker never descends into
//! `lint_fixtures`, so the corpus cannot pollute the clean-tree check.

use chiplet_check::walk::{lint_tree, workspace_root};
use std::path::PathBuf;
use std::process::Command;

/// `(file, rule, line)` — one entry per rule in the catalogue, sorted the
/// way `lint_tree` sorts its findings.
const EXPECTED: &[(&str, &str, u32)] = &[
    ("crates/harness/src/banned_import.rs", "banned-import", 3),
    ("crates/harness/src/fleet_capture.rs", "fleet-capture", 7),
    ("crates/harness/src/unused_allow.rs", "unused-allow", 4),
    ("crates/mem/src/no_panic.rs", "no-panic", 4),
    ("crates/obs/src/stale_todo.rs", "stale-todo", 4),
    ("crates/sim/src/hash_iter.rs", "hash-iter", 7),
    ("crates/sim/src/sim_env.rs", "sim-env", 4),
    ("crates/sim/src/sim_thread.rs", "sim-thread", 4),
    ("crates/sim/src/wall_clock.rs", "wall-clock", 4),
];

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

#[test]
fn every_rule_fires_on_its_fixture_with_the_right_span() {
    let report = lint_tree(&fixture_root()).expect("walk the fixture corpus");
    assert_eq!(
        report.files_scanned,
        EXPECTED.len(),
        "one fixture file per rule"
    );
    let got: Vec<(String, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.rule, f.line))
        .collect();
    let want: Vec<(String, &str, u32)> = EXPECTED
        .iter()
        .map(|&(file, rule, line)| (file.to_owned(), rule, line))
        .collect();
    assert_eq!(got, want, "full report:\n{:#?}", report.findings);
}

#[test]
fn the_fixture_corpus_covers_the_whole_rule_catalogue() {
    let fired: Vec<&str> = EXPECTED.iter().map(|&(_, rule, _)| rule).collect();
    for rule in chiplet_check::rules::RULES {
        assert!(
            fired.contains(&rule.id),
            "rule `{}` has no fixture exercising it",
            rule.id
        );
    }
}

#[test]
fn the_workspace_tree_lints_clean() {
    let report = lint_tree(&workspace_root()).expect("walk the workspace");
    assert!(report.files_scanned > 50, "walker must see the real tree");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn cli_exit_codes_distinguish_clean_from_dirty() {
    let bin = env!("CARGO_BIN_EXE_chiplet-check");
    let dirty = Command::new(bin)
        .arg("--workspace")
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run chiplet-check on the fixture corpus");
    assert_eq!(
        dirty.status.code(),
        Some(1),
        "fixture corpus must fail the lint; stdout:\n{}",
        String::from_utf8_lossy(&dirty.stdout)
    );

    let clean = Command::new(bin)
        .args(["--workspace", "--json"])
        .output()
        .expect("run chiplet-check on the workspace");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "workspace must lint clean; stdout:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let text = String::from_utf8_lossy(&clean.stdout);
    chiplet_harness::json::parse(text.trim()).expect("--json output must be valid JSON");
}
