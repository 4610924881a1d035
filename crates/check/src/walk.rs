//! Workspace traversal and lint report assembly.

use crate::rules::{lint_source, Finding, RULES};
use chiplet_harness::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `lint_fixtures` holds the
/// linter's own known-bad corpus; `results` and `target` hold artifacts.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "lint_fixtures"];

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    p.canonicalize().unwrap_or(p)
}

/// All `.rs` files under `root`, sorted, skipping `SKIP_DIRS`.
pub fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The outcome of linting a tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// True when no rule fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints every Rust file under `root` (paths reported relative to it).
pub fn lint_tree(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for path in rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        report.findings.extend(lint_source(&rel, &src));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// The JSON lint document (validated by the caller before writing).
pub fn lint_report_json(report: &LintReport) -> Json {
    let findings: Vec<Json> = report
        .findings
        .iter()
        .map(|f| {
            Json::object()
                .with("rule", f.rule)
                .with("file", f.file.clone())
                .with("line", f.line as u64)
                .with("message", f.message.clone())
        })
        .collect();
    let rules: Vec<Json> = RULES
        .iter()
        .map(|r| {
            Json::object()
                .with("id", r.id)
                .with("scope", r.scope)
                .with("summary", r.summary)
        })
        .collect();
    Json::object()
        .with("tool", "chiplet-check")
        .with("mode", "lint")
        .with("files_scanned", report.files_scanned as u64)
        .with("finding_count", report.findings.len() as u64)
        .with("findings", findings)
        .with("rules", rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_holds_the_workspace_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root().join("crates/check").is_dir());
    }

    #[test]
    fn walker_skips_fixture_and_artifact_dirs() {
        let files = rust_files(&workspace_root()).expect("walk workspace");
        assert!(!files.is_empty());
        for f in &files {
            let s = f.to_string_lossy();
            for skip in SKIP_DIRS {
                assert!(!s.contains(&format!("/{skip}/")), "walked into {s}");
            }
        }
    }

    #[test]
    fn lint_report_json_validates() {
        let report = LintReport {
            files_scanned: 1,
            findings: vec![Finding {
                rule: "no-panic",
                file: "crates/x/src/lib.rs".to_owned(),
                line: 3,
                message: "quote \"test\" and backslash \\".to_owned(),
            }],
        };
        let text = lint_report_json(&report).render();
        chiplet_harness::json::parse(&text).expect("lint report JSON must validate");
    }
}
