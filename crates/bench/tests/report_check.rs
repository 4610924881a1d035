//! The docs-drift gate end to end: `report --check` passes on scratch
//! copies of the committed `campaign.json`, `figures.txt` and
//! EXPERIMENTS.md, and exits 1 once a single `cycles` value in the
//! campaign copy is edited — a per-workload figure row drifts, and the
//! stored summary no longer matches the one the rows derive, even though
//! every EXPERIMENTS.md block (rendered from the stored summary) is
//! unchanged.

use std::path::{Path, PathBuf};
use std::process::Output;

fn scratch_copy() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("report_check");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let root = cpelide_bench::workspace_root();
    for (from, to) in [
        ("results/campaign.json", "campaign.json"),
        ("results/figures.txt", "figures.txt"),
        ("EXPERIMENTS.md", "EXPERIMENTS.md"),
    ] {
        std::fs::copy(root.join(from), dir.join(to))
            .unwrap_or_else(|e| panic!("copy committed {from}: {e}"));
    }
    dir
}

fn check(dir: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--check")
        .env("CPELIDE_RESULTS_DIR", dir)
        .env("CPELIDE_EXPERIMENTS", dir.join("EXPERIMENTS.md"))
        .output()
        .expect("run the report binary")
}

#[test]
fn check_fails_when_one_cycles_value_drifts() {
    let dir = scratch_copy();
    let clean = check(&dir);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "the committed artifacts must be in sync:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let path = dir.join("campaign.json");
    let text = std::fs::read_to_string(&path).expect("read campaign copy");
    let key = "\"cycles\": ";
    let start = text.find(key).expect("a cycles field") + key.len();
    let end = start + text[start..].find(',').expect("cycles ends with a comma");
    let edited = format!("{}1{}", &text[..start], &text[end..]);
    assert_ne!(edited, text);
    std::fs::write(&path, edited).expect("write edited campaign copy");

    let drift = check(&dir);
    let stderr = String::from_utf8_lossy(&drift.stderr);
    assert_eq!(drift.status.code(), Some(1), "drift must fail: {stderr}");
    assert!(stderr.contains("figures.txt is OUT OF SYNC"), "{stderr}");
    assert!(stderr.contains("summary in"), "{stderr}");
    assert!(stderr.contains("is OUT OF SYNC with its rows"), "{stderr}");
    assert!(
        !stderr.contains("EXPERIMENTS.md is OUT OF SYNC"),
        "{stderr}"
    );
}
