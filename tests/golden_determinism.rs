//! Golden determinism snapshots: the full `RunMetrics::to_json()` output of
//! a small fixed sweep must be **byte-identical** across commits, and so
//! must the Perfetto timeline and the Prometheus exposition
//! (`RunMetrics::metrics_text()`: histograms, phases, link utilisation,
//! CCT audit) of a smaller one.
//!
//! This is the gate behind every hot-path rework: a storage or indexing
//! change that alters even one counter in one run shows up here as a byte
//! diff, and a recording change that moves one timeline event does too.
//! The snapshots live in `tests/golden/` and are committed; to re-bless
//! them after an *intentional* metrics change, run
//!
//! ```text
//! CPELIDE_BLESS=1 cargo test --release --test golden_determinism
//! ```
//!
//! and commit the resulting files together with the change that explains
//! them.

use cpelide_repro::prelude::*;
use cpelide_repro::sim::event::timeline;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The smoke sweep: one streaming-reuse app, one dependent-sparse app, one
/// dense multi-kernel app — all three paper protocol families, at the
/// paper's smallest and default chiplet counts.
const WORKLOADS: &[&str] = &["square", "bfs", "fw"];
const PROTOCOLS: &[(&str, ProtocolKind)] = &[
    ("baseline", ProtocolKind::Baseline),
    ("hmg", ProtocolKind::Hmg),
    ("cpelide", ProtocolKind::CpElide),
];
const CHIPLETS: &[usize] = &[2, 4];

/// The timeline sweep: every event kind the engine records (bulk syncs,
/// elided launches, per-chiplet acquires/releases, the final drain, link
/// windows) shows up in one of these six runs at the default chiplet
/// count.
const TIMELINE_WORKLOADS: &[&str] = &["square", "bfs"];
const TIMELINE_CHIPLETS: usize = 4;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn run_metrics_json_is_byte_identical_to_golden() {
    let bless = std::env::var("CPELIDE_BLESS").is_ok();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }

    let mut diffs = String::new();
    for name in WORKLOADS {
        let w = cpelide_repro::workloads::by_name(name).expect("smoke workload in suite");
        for (pname, protocol) in PROTOCOLS {
            for &chiplets in CHIPLETS {
                let m = Simulator::new(SimConfig::table1(chiplets, *protocol)).run(&w);
                let file = format!("{name}_{pname}_{chiplets}.json");
                compare(bless, &dir.join(file), &m.to_json().render(), &mut diffs);
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "RunMetrics::to_json drifted from the golden snapshots:\n{diffs}\
         If the change is intentional, re-bless with CPELIDE_BLESS=1."
    );
}

#[test]
fn timeline_and_metrics_text_are_byte_identical_to_golden() {
    let bless = std::env::var("CPELIDE_BLESS").is_ok();
    let dir = golden_dir();
    let mut diffs = String::new();
    for name in TIMELINE_WORKLOADS {
        let w = cpelide_repro::workloads::by_name(name).expect("smoke workload in suite");
        for (pname, protocol) in PROTOCOLS {
            let n = TIMELINE_CHIPLETS;
            let sim = Simulator::new(SimConfig::table1(n, *protocol));
            let mut events = Vec::new();
            let m = sim.run_observed(&w, &mut events);
            let stem = format!("{name}_{pname}_{n}");
            let trace = timeline(&events, sim.config(), &w).to_chrome_json();
            compare(
                bless,
                &dir.join(format!("{stem}.trace.json")),
                &trace,
                &mut diffs,
            );
            compare(
                bless,
                &dir.join(format!("{stem}.prom")),
                &m.metrics_text(),
                &mut diffs,
            );
        }
    }
    assert!(
        diffs.is_empty(),
        "the timeline or the metrics text drifted from the golden snapshots:\n{diffs}\
         If the change is intentional, re-bless with CPELIDE_BLESS=1."
    );
}

/// Writes `rendered` to `path` when blessing; otherwise appends the first
/// difference from the committed snapshot to `diffs`.
fn compare(bless: bool, path: &Path, rendered: &str, diffs: &mut String) {
    if bless {
        std::fs::write(path, rendered.as_bytes()).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless with \
             CPELIDE_BLESS=1 cargo test --release --test golden_determinism",
            path.display()
        )
    });
    if want == rendered {
        return;
    }
    // Report the first differing line (or, for one-line JSON, the first
    // differing byte) so the diff is actionable without external tooling.
    let name = path
        .file_name()
        .map(|f| f.to_string_lossy())
        .unwrap_or_default();
    let at = want
        .bytes()
        .zip(rendered.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(rendered.len()));
    let line = want[..at].matches('\n').count() + 1;
    let context = |s: &str| s[at.saturating_sub(40)..(at + 40).min(s.len())].to_owned();
    let _ = writeln!(
        diffs,
        "{name}: line {line}, byte {at}: golden `{}` vs got `{}` ({} vs {} bytes)",
        context(&want),
        context(rendered),
        want.len(),
        rendered.len()
    );
}

#[test]
fn golden_sweep_is_stable_within_a_process() {
    // The snapshot test above catches drift across commits; this one
    // catches nondeterminism within a build (iteration order, uninitialized
    // state) by running the same configuration twice.
    let w = cpelide_repro::workloads::by_name("bfs").expect("bfs in suite");
    let a = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide))
        .run(&w)
        .to_json()
        .render();
    let b = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide))
        .run(&w)
        .to_json()
        .render();
    assert_eq!(a, b, "same config, same process, different metrics JSON");
}
