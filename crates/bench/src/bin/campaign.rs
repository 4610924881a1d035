//! Runs the full evaluation sweep — every (workload, protocol,
//! chiplet-count) cell of the paper's figures — across the
//! `chiplet_harness::fleet` worker pool, and writes
//! `results/campaign.json`, the machine-readable source of truth the
//! `report` binary regenerates EXPERIMENTS.md from, plus the host
//! telemetry artifacts `results/campaign.prom` (Prometheus exposition)
//! and `results/campaign.trace.json` (wall-clock Perfetto fleet trace).
//!
//! Usage: `cargo run --release -p cpelide-bench --bin campaign [-- --progress]`
//!
//! Flags:
//! - `--progress`  print a done/total ticker to stderr after every cell.
//!   stdout and every artifact stay byte-identical with the ticker on or
//!   off.
//!
//! Environment:
//! - `CPELIDE_JOBS=<n>`   worker threads (default: available parallelism;
//!   1 under `CPELIDE_SMOKE=1`). The report is byte-identical at every
//!   setting.
//! - `CPELIDE_CACHE=0`    disable the `results/cache/` content-hash cache.
//! - `CPELIDE_FAIL_CELL=<workload>:<protocol>:<chiplets>` poison one cell
//!   (test hook for the fleet's panic containment).
//!
//! Exits nonzero when any cell failed; the report then carries the failed
//! cells and an `{"incomplete": true}` summary instead of headline stats.

use chiplet_harness::fleet;
use cpelide_bench::campaign;
use cpelide_bench::telemetry;
use cpelide_bench::{results_dir, write_report, write_text, write_trace};

fn main() {
    let start = std::time::Instant::now();
    let progress = std::env::args().skip(1).any(|a| a == "--progress");
    let specs = campaign::cells();
    let workers = fleet::workers();
    let cache = campaign::cache_from_env();
    let fail_cell = campaign::fail_cell_from_env();

    println!(
        "campaign: {} cells, {workers} worker{}, cache {}",
        specs.len(),
        if workers == 1 { "" } else { "s" },
        match &cache {
            Some(c) => format!("at {}", c.dir().display()),
            None => "disabled".to_owned(),
        }
    );

    let outcome = campaign::run(
        &specs,
        workers,
        cache.as_ref(),
        fail_cell.as_deref(),
        progress,
    );
    let path = write_report("campaign", &outcome.report);
    let prom_path = write_text("campaign.prom", &telemetry::campaign_prom(&outcome));
    let trace = telemetry::host_trace(&specs, &outcome);
    let trace_path = results_dir().join("campaign.trace.json");
    write_trace(&trace, &trace_path);

    println!(
        "cells: {} simulated, {} cached, {} failed in {:.1}s",
        outcome.simulated,
        outcome.cached,
        outcome.failed,
        start.elapsed().as_secs_f64()
    );
    if outcome.simulated > 0 {
        println!("merged distributions over simulated cells:");
        println!("  {}", outcome.hist.kernel_cycles);
        println!("  {}", outcome.hist.boundary_stall_cycles);
        println!("  {}", outcome.hist.boundary_flushed_lines);
    }
    let t = &outcome.telemetry;
    println!(
        "fleet: {} jobs on {} worker(s), {} stolen, wall p50/p99 {}/{} us",
        t.jobs,
        t.workers,
        t.stolen_total(),
        t.job_latency_us.p50(),
        t.job_latency_us.p99(),
    );
    println!("report: {}", path.display());
    println!("telemetry: {}", prom_path.display());
    println!("host trace: {}", trace_path.display());

    if outcome.failed > 0 {
        for f in &outcome.failures {
            eprintln!("campaign: failed cell: {f}");
        }
        eprintln!("campaign incomplete: {} cell(s) failed", outcome.failed);
        std::process::exit(1);
    }
}
