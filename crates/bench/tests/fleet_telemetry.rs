//! End-to-end checks for the host-side fleet telemetry (DESIGN.md §13):
//! the deterministic prefix of `campaign.prom` is byte-identical across
//! `CPELIDE_JOBS` settings, the whole file is valid Prometheus exposition
//! with exactly one `# HELP`/`# TYPE` pair per metric family, the fleet
//! trace is a balanced wall-clock timeline, cache counters track
//! hit/miss/corrupt outcomes, and a poisoned cell's failure carries its
//! cell label.

use chiplet_harness::fleet::DiskCache;
use chiplet_harness::trace::prom;
use chiplet_sim::Cell;
use chiplet_workloads::spec::parse_workload;
use cpelide_bench::campaign::{self, CellSpec, SuiteTag, PROTOCOLS};
use cpelide_bench::telemetry;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GAMMA: &str = r#"
name gamma
input "tiny"
class low
array g 64KiB
kernel k
  wgs 64
  load g shared
sequence repeat 2 { k }
"#;

fn tmp(sub: &str) -> PathBuf {
    let p = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("fleet_telemetry")
        .join(sub);
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create tmp results dir");
    p
}

/// Runs the campaign binary in smoke mode with the cache disabled so every
/// cell simulates and the fleet is actually exercised.
fn run_campaign(results: &Path, jobs: &str, progress: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    if progress {
        cmd.arg("--progress");
    }
    cmd.env("CPELIDE_SMOKE", "1")
        .env("CPELIDE_RESULTS_DIR", results)
        .env("CPELIDE_JOBS", jobs)
        .env("CPELIDE_CACHE", "0")
        .env_remove("CPELIDE_FAIL_CELL");
    cmd.output().expect("run the campaign binary")
}

fn prom_text(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("campaign.prom")).expect("campaign.prom written")
}

#[test]
fn campaign_prom_prefix_is_jobs_invariant_and_the_ticker_changes_nothing() {
    let d1 = tmp("jobs1");
    let d8 = tmp("jobs8");
    // The jobs=1 run also turns the stderr ticker on: it must not leak
    // into any artifact.
    let o1 = run_campaign(&d1, "1", true);
    assert!(
        o1.status.success(),
        "jobs=1 campaign failed:\n{}",
        String::from_utf8_lossy(&o1.stderr)
    );
    let o8 = run_campaign(&d8, "8", false);
    assert!(
        o8.status.success(),
        "jobs=8 campaign failed:\n{}",
        String::from_utf8_lossy(&o8.stderr)
    );

    let p1 = prom_text(&d1);
    let p8 = prom_text(&d8);
    assert!(
        telemetry::deterministic_prefix(&p1) == telemetry::deterministic_prefix(&p8),
        "deterministic campaign.prom prefix differs between CPELIDE_JOBS=1 \
         and CPELIDE_JOBS=8"
    );
    assert!(
        p1.contains(telemetry::NONDET_MARKER) && p8.contains(telemetry::NONDET_MARKER),
        "campaign.prom must separate its clock domains with the marker"
    );

    // The ticker is stderr-only and counts every cell exactly once.
    let stderr = String::from_utf8_lossy(&o1.stderr);
    let ticks = stderr
        .lines()
        .filter(|l| l.starts_with("campaign: ") && l.contains("cells ("))
        .count();
    let cells: f64 = prom::parse(&p1)
        .expect("valid exposition")
        .iter()
        .find(|s| s.name == "cpelide_campaign_cells_total")
        .map(|s| s.value)
        .expect("cells_total present");
    assert_eq!(ticks, cells as usize, "one ticker line per finished cell");
    assert!(
        !p1.contains("cells ("),
        "ticker output leaked into campaign.prom"
    );
}

#[test]
fn campaign_prom_is_valid_exposition_and_fleet_sums_reconcile() {
    let dir = tmp("sums");
    let out = run_campaign(&dir, "4", false);
    assert!(out.status.success());
    let text = prom_text(&dir);
    // `prom::parse` rejects duplicate `# HELP`/`# TYPE` headers, so a
    // successful parse proves one header pair per family.
    let samples = prom::parse(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}"));

    let value = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let sum_over = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    let cells = value("cpelide_campaign_cells_total");
    assert!(cells > 0.0);
    assert_eq!(
        sum_over("cpelide_fleet_worker_jobs"),
        cells,
        "per-worker executed counts must sum to the job count"
    );
    assert_eq!(value("cpelide_fleet_job_wall_us_count"), cells);
    // Phase fractions over the merged profile sum to 1.
    let frac = sum_over("cpelide_campaign_phase_fraction");
    assert!((frac - 1.0).abs() < 1e-3, "phase fractions sum to {frac}");
}

#[test]
fn host_trace_artifact_is_a_wall_clock_timeline() {
    let dir = tmp("trace");
    let out = run_campaign(&dir, "2", false);
    assert!(out.status.success());
    let json = std::fs::read_to_string(dir.join("campaign.trace.json"))
        .expect("campaign.trace.json written");
    chiplet_harness::json::parse(&json).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));
    assert!(
        json.contains("\"clockDomain\":\"wall\""),
        "host trace must be stamped with the wall clock domain"
    );
    assert!(json.contains("campaign fleet"));
    assert!(json.contains("worker 0"));
    assert!(json.contains("\"cat\":\"cell\""));
}

#[test]
fn cache_counters_track_hit_miss_and_corrupt_lookups() {
    let gamma = parse_workload(GAMMA).expect("gamma spec parses");
    let specs: Vec<CellSpec> = PROTOCOLS
        .iter()
        .map(|&p| CellSpec::new(Cell::new(gamma.clone(), p, 2), SuiteTag::Main))
        .collect();
    let dir = tmp("cache");

    // Cold: every lookup misses.
    let cold_cache = DiskCache::new(dir.clone());
    let cold = campaign::run(&specs, 2, Some(&cold_cache), None, false);
    assert_eq!(cold.cache_counts.misses, specs.len() as u64);
    assert_eq!(cold.cache_counts.hits, 0);
    assert_eq!(cold.cache_counts.hit_rate(), 0.0);

    // Warm (fresh handle, same directory): every lookup hits.
    let warm_cache = DiskCache::new(dir.clone());
    let warm = campaign::run(&specs, 2, Some(&warm_cache), None, false);
    assert_eq!(warm.cache_counts.hits, specs.len() as u64);
    assert_eq!(warm.cache_counts.misses, 0);
    assert_eq!(warm.cache_counts.corrupt, 0);
    assert!((warm.cache_counts.hit_rate() - 1.0).abs() < 1e-12);
    assert!(warm.cell_cached.iter().all(|&c| c));

    // Clobber one entry: it still *hits* (the file is there) but the parse
    // failure is counted as corrupt and excluded from the usable hit rate.
    warm_cache
        .store(&specs[0].fingerprint(), "not json at all")
        .expect("overwrite a cache entry");
    let third_cache = DiskCache::new(dir);
    let third = campaign::run(&specs, 2, Some(&third_cache), None, false);
    assert_eq!(third.cache_counts.corrupt, 1);
    assert_eq!(third.cache_counts.hits, specs.len() as u64);
    let want = (specs.len() as f64 - 1.0) / specs.len() as f64;
    assert!((third.cache_counts.hit_rate() - want).abs() < 1e-12);

    // The counters flow into the exposition's deterministic section.
    let prom = telemetry::campaign_prom(&third);
    let det = telemetry::deterministic_prefix(&prom);
    assert!(det.contains("cpelide_campaign_cache_lookups{result=\"corrupt\"} 1"));
}

#[test]
fn a_poisoned_cell_failure_carries_its_label() {
    let gamma = parse_workload(GAMMA).expect("gamma spec parses");
    let specs: Vec<CellSpec> = PROTOCOLS
        .iter()
        .map(|&p| CellSpec::new(Cell::new(gamma.clone(), p, 2), SuiteTag::Main))
        .collect();
    let poisoned = specs[0].id();
    let outcome = campaign::run(&specs, 2, None, Some(poisoned.as_str()), false);
    assert_eq!(outcome.failed, 1);
    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!(f.label, poisoned, "the failure names the poisoned cell");
    assert!(
        f.to_string().contains(&poisoned),
        "the label appears in the rendered failure: {f}"
    );
}
