//! Shared reporting helpers for the artifact binaries.
//!
//! The evaluation sweep runs in one of two modes:
//!
//! * **Batch** ([`campaign`], `--bin campaign`): one process owns the
//!   whole cell list, fans it out across the `chiplet_harness::fleet`
//!   worker pool with content-hash caching, writes
//!   `results/campaign.json`, and exits. [`report`] (`--bin report`)
//!   renders every grid-shaped figure into `results/figures.txt` and
//!   regenerates the paper-vs-measured tables in EXPERIMENTS.md from
//!   that document.
//! * **Service** ([`serve`], `--bin serve`): a long-running multi-tenant
//!   daemon that keeps the fleet warm and accepts sweep requests over a
//!   hand-rolled HTTP/1.1 protocol (DESIGN.md §16), streaming each
//!   cell's row — byte-identical to the batch row — as it completes.
//!   Both modes share the `results/cache/` `DiskCache`, so cells run in
//!   one mode are cache hits in the other.
//!
//! The work outside the grid — Tables I–III, the §IV-C write-back
//! ablation, the §VI scaling, driver and beyond-7-chiplet studies and
//! the sensitivity sweeps — is `--bin studies`, which writes
//! `results/studies.txt` and `results/studies.json`; every cell it needs,
//! config-variant ones included, goes through the same [`campaign::run`]
//! and cache. Every binary honours
//! these environment variables (the full table lives in README.md):
//!
//! - `CPELIDE_SMOKE=1` shrinks the run to a tiny configuration (two
//!   workloads, fewer chiplet counts) so CI can smoke-run every artifact.
//! - `CPELIDE_RESULTS_DIR` redirects the JSON reports (default
//!   `results/`).
//! - `CPELIDE_JOBS` sets the fleet worker count (default: available
//!   parallelism; forced to 1 under smoke). Reports are byte-identical
//!   at every setting.
//! - `CPELIDE_CACHE=0` disables the campaign's `results/cache/` result
//!   cache.
//!
//! The `probe` binary additionally takes `--trace <path>` to export a
//! Chrome/Perfetto timeline of its CPElide run, loadable at
//! <https://ui.perfetto.dev>.

// chiplet-check: allow-file(no-panic) — artifact writers abort by contract:
// a malformed or unwritable report must kill the artifact run loudly rather
// than let a silent skip masquerade as regenerated results.

pub mod campaign;
pub mod report;
pub mod serve;
pub mod telemetry;

use chiplet_harness::json::{self, Json};
use chiplet_workloads::Workload;
use std::path::PathBuf;

/// True when `CPELIDE_SMOKE=1`: binaries run a tiny configuration.
pub fn smoke() -> bool {
    std::env::var("CPELIDE_SMOKE").is_ok_and(|v| v == "1")
}

fn shrink(mut s: Vec<Workload>) -> Vec<Workload> {
    if smoke() {
        // Simulation cost scales with kernels × footprint (each kernel
        // walks a trace over its arrays), so rank by that product rather
        // than footprint alone — the smallest-footprint suite members are
        // the most kernel-heavy.
        s.sort_by_key(|w| w.kernel_count() as u64 * w.footprint_bytes());
        s.truncate(2);
    }
    s
}

/// The paper suite, truncated to the two cheapest-to-simulate members in
/// smoke mode so debug-build smoke runs stay fast.
pub fn effective_suite() -> Vec<Workload> {
    shrink(chiplet_workloads::suite())
}

/// The multi-stream suite, truncated the same way in smoke mode.
pub fn effective_multistream_suite() -> Vec<Workload> {
    shrink(chiplet_workloads::multi_stream_suite())
}

/// Picks `full` for a real run and `tiny` under smoke.
pub fn pick<T>(full: Vec<T>, tiny: Vec<T>) -> Vec<T> {
    if smoke() {
        tiny
    } else {
        full
    }
}

/// The cargo workspace root, resolved at compile time from this crate's
/// manifest directory (`crates/bench` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Where JSON reports land: `CPELIDE_RESULTS_DIR`, default `results/`.
///
/// Relative paths (including the default) are resolved against the
/// *workspace root*, not the process cwd: `cargo test` runs its binaries
/// with the package directory as cwd, and a cwd-relative default would
/// scatter stray `crates/*/results/` directories. Absolute paths are
/// honoured verbatim.
pub fn results_dir() -> PathBuf {
    let raw = std::env::var_os("CPELIDE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    if raw.is_absolute() {
        raw
    } else {
        workspace_root().join(raw)
    }
}

/// Validates `report` and writes it to `<results_dir>/<artifact>.json`,
/// returning the path. Every artifact binary funnels its machine-readable
/// output through here, so a malformed document can never land on disk.
pub fn write_report(artifact: &str, report: &Json) -> PathBuf {
    let rendered = report.render();
    json::parse(&rendered).expect("report must render as well-formed JSON");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{artifact}.json"));
    std::fs::write(&path, rendered).expect("write report");
    path
}

/// Validates and writes a Chrome/Perfetto trace to `path`: spans must
/// balance and the rendered document must be well-formed JSON, so a
/// half-broken trace can never land on disk.
pub fn write_trace(tracer: &chiplet_harness::trace::Tracer, path: &std::path::Path) {
    tracer.balanced().expect("trace spans must pair up");
    let rendered = tracer.to_chrome_json();
    json::parse(&rendered).expect("trace must render as well-formed JSON");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trace dir");
        }
    }
    std::fs::write(path, rendered).expect("write trace");
}

/// Writes a plain-text artifact (e.g. a Prometheus exposition) into the
/// results directory, returning the path.
pub fn write_text(artifact: &str, content: &str) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(artifact);
    std::fs::write(&path, content).expect("write text artifact");
    path
}

/// Renders a horizontal rule sized for the report tables.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_holds_the_workspace_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root().join("crates/bench/Cargo.toml").is_file());
    }

    #[test]
    fn default_results_dir_is_workspace_rooted() {
        // `cargo test` runs binaries with the package dir as
        // cwd; the default must still land in the workspace's results/.
        if std::env::var_os("CPELIDE_RESULTS_DIR").is_some() {
            return; // honour an explicit override in the environment
        }
        let d = results_dir();
        assert!(d.is_absolute());
        assert_eq!(d, workspace_root().join("results"));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(rule(3), "---");
    }
}
