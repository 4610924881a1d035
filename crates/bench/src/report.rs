//! The docs generator: turns `results/campaign.json` into the
//! paper-vs-measured blocks of EXPERIMENTS.md and the per-workload figure
//! tables of `results/figures.txt`.
//!
//! Generated content lives between `<!-- generated: NAME -->` /
//! `<!-- /generated: NAME -->` marker pairs; everything outside the
//! markers (analysis, deviations, per-app spot checks) is hand-written
//! and untouched. `--bin report` rewrites the blocks in place and
//! re-renders `figures.txt`; `--bin report -- --check` fails when either
//! committed file no longer matches the committed campaign results — the
//! CI docs-drift gate.
//!
//! Every per-workload number in `figures.txt` is read from a campaign
//! row, and every geomean from the `summary` that
//! [`crate::campaign::run`] wrote, so the aggregation exists once.
//!
//! Verdicts are mechanical so they cannot editorialize: a measured delta
//! within five percentage points of the paper's is a `match`; otherwise
//! the verdict reports the sign agreement and whether the effect came out
//! stronger or weaker than published.

use crate::campaign::{distinct, Grid, SCHEMA};
use chiplet_coherence::ProtocolKind;
use chiplet_harness::json::Json;
use std::path::PathBuf;

/// Tolerance (in absolute fractional delta, i.e. five percentage points)
/// inside which a measured headline value counts as a `match`.
pub const MATCH_TOLERANCE: f64 = 0.05;

/// Where EXPERIMENTS.md lives: `CPELIDE_EXPERIMENTS` when set (tests), or
/// the workspace copy next to this crate.
pub fn experiments_path() -> PathBuf {
    std::env::var_os("CPELIDE_EXPERIMENTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("EXPERIMENTS.md")
        })
}

/// Where the campaign report lives: `<results_dir>/campaign.json`.
pub fn campaign_path() -> PathBuf {
    crate::results_dir().join("campaign.json")
}

/// Where the rendered figure tables live: `<results_dir>/figures.txt`.
pub fn figures_path() -> PathBuf {
    crate::results_dir().join("figures.txt")
}

fn get<'a>(j: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = j;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("campaign.json is missing `{}`", path.join(".")))?;
    }
    Ok(cur)
}

fn getf(j: &Json, path: &[&str]) -> Result<f64, String> {
    get(j, path)?
        .as_f64()
        .ok_or_else(|| format!("campaign.json `{}` is not a number", path.join(".")))
}

/// `+13.3 %` — signed percentage with one decimal, from a fraction.
pub fn pct(x: f64) -> String {
    format!("{:+.1} %", x * 100.0)
}

/// `81 %` — unsigned whole percentage, from a fraction.
fn pct0(x: f64) -> String {
    format!("{:.0} %", x * 100.0)
}

fn verdict(paper: f64, measured: f64) -> &'static str {
    if (measured - paper).abs() <= MATCH_TOLERANCE {
        "match"
    } else if paper.signum() != measured.signum() {
        "opposite sign"
    } else if measured.abs() > paper.abs() {
        "same sign, stronger"
    } else {
        "same sign, weaker"
    }
}

/// Validates the document header and returns its summary object. Refuses
/// unknown schemas and incomplete (failed-cell) campaigns.
pub fn summary_of(campaign: &Json) -> Result<&Json, String> {
    let schema = get(campaign, &["schema"])?
        .as_str()
        .unwrap_or("<not a string>");
    if schema != SCHEMA {
        return Err(format!(
            "campaign.json has schema `{schema}`, this report generator expects `{SCHEMA}`"
        ));
    }
    let summary = get(campaign, &["summary"])?;
    if summary.get("incomplete").and_then(Json::as_bool) == Some(true) {
        return Err("campaign.json is incomplete (failed cells); re-run the campaign".to_owned());
    }
    Ok(summary)
}

/// Generates every `(block name, markdown content)` pair from a parsed
/// `campaign.json`.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn generate_blocks(campaign: &Json) -> Result<Vec<(String, String)>, String> {
    let summary = summary_of(campaign)?;
    let grid = &grid_of(campaign)?;
    let fig8 = fig8_entries(summary)?;
    let at4 = fig8_entry(summary, FIG_CHIPLETS)?;

    let mut blocks = Vec::new();

    // ---- headline table ------------------------------------------------
    let perf = getf(at4, &["cpelide_vs_baseline"])? - 1.0;
    let perf_reuse = getf(at4, &["cpelide_vs_baseline_reuse"])? - 1.0;
    let perf_hmg = getf(at4, &["cpelide_vs_hmg"])? - 1.0;
    let low_min = getf(at4, &["low_reuse_min_speedup"])?;
    let e_base = getf(summary, &["energy", "cpelide_vs_baseline"])? - 1.0;
    let e_hmg = getf(summary, &["energy", "cpelide_vs_hmg"])? - 1.0;
    let t_base = getf(summary, &["traffic", "cpelide_vs_baseline"])? - 1.0;
    let t_hmg = getf(summary, &["traffic", "cpelide_vs_hmg"])? - 1.0;
    let l2l3 = getf(summary, &["traffic", "l2l3_cpelide_vs_hmg"])? - 1.0;
    let rows: [(&str, f64, f64); 8] = [
        ("CPElide performance vs Baseline", 0.13, perf),
        (
            "CPElide vs Baseline, moderate/high-reuse apps",
            0.17,
            perf_reuse,
        ),
        ("CPElide performance vs HMG", 0.19, perf_hmg),
        ("CPElide energy vs Baseline", -0.14, e_base),
        ("CPElide energy vs HMG", -0.11, e_hmg),
        ("CPElide traffic vs Baseline", -0.14, t_base),
        ("CPElide traffic vs HMG", -0.17, t_hmg),
        ("CPElide L2-L3 traffic vs HMG", -0.37, l2l3),
    ];
    let mut table = String::from("| Metric | Paper | Measured | Verdict |\n|---|---|---|---|\n");
    for (metric, paper, measured) in rows {
        table.push_str(&format!(
            "| {metric} | {} | **{}** | {} |\n",
            pct(paper),
            pct(measured),
            verdict(paper, measured)
        ));
    }
    let low_ok = low_min >= 0.97;
    table.push_str(&format!(
        "| CPElide never hurts low-reuse apps | yes | {} (min {low_min:.2}×) | {} |",
        if low_ok { "yes" } else { "no" },
        if low_ok { "match" } else { "opposite sign" }
    ));
    blocks.push(("headline".to_owned(), table));

    // ---- Figure 2 ------------------------------------------------------
    let avg = getf(summary, &["fig2", "avg_loss"])?;
    let min = getf(summary, &["fig2", "min_loss"])?;
    let max = getf(summary, &["fig2", "max_loss"])?;
    blocks.push((
        "fig2".to_owned(),
        format!(
            "Paper: 54 % average performance loss (prior work: 29–45 %). Measured:\n\
             **{} average**, per-app spread {}–{}.",
            pct0(avg),
            pct0(min),
            pct0(max)
        ),
    ));

    // ---- Figure 8 chiplet-count trend ----------------------------------
    let trend = |key: &str| -> Result<String, String> {
        let parts: Result<Vec<String>, String> = fig8
            .iter()
            .map(|e| {
                Ok(format!(
                    "{} ({})",
                    pct(getf(e, &[key])? - 1.0),
                    getf(e, &["chiplets"])? as u64
                ))
            })
            .collect();
        Ok(parts?.join(", "))
    };
    blocks.push((
        "fig8-trend".to_owned(),
        format!(
            "Chiplet-count trend, geomean over the suite — CPElide vs Baseline:\n\
             measured {}; CPElide vs HMG: {}. The paper\n\
             reports the Baseline gap roughly flat (13 % at 4, 17 % at 7).",
            trend("cpelide_vs_baseline")?,
            trend("cpelide_vs_hmg")?
        ),
    ));

    // ---- Figure 10 remote traffic ---------------------------------------
    let (hmg_more, cpelide_more, apps) = remote_counts(grid)?;
    blocks.push((
        "fig10".to_owned(),
        format!(
            "Paper: HMG carries +23 % more remote traffic than CPElide (directory\n\
             invalidations plus remote caching). Measured: HMG carries more remote\n\
             traffic than CPElide on **{hmg_more} of {apps}** apps and CPElide more on\n\
             {cpelide_more} ({} equal), so {}.",
            apps - hmg_more - cpelide_more,
            if hmg_more > cpelide_more {
                "the direction matches"
            } else {
                "the paper's remote-traffic claim does not reproduce"
            }
        ),
    ));

    // ---- §III-A table occupancy ----------------------------------------
    let live = getf(summary, &["occupancy", "max_live_entries"])? as u64;
    let evictions = getf(summary, &["occupancy", "evictions"])? as u64;
    blocks.push((
        "occupancy".to_owned(),
        format!(
            "Paper: workloads use up to 11 live entries and never overflow the\n\
             64-entry table. Measured: maximum **{live} live entries** across the\n\
             suite, {evictions} capacity evictions."
        ),
    ));

    // ---- §VI multi-stream ----------------------------------------------
    let ms = getf(summary, &["multistream", "cpelide_vs_hmg"])? - 1.0;
    let ms_n = getf(summary, &["multistream", "workloads"])? as u64;
    blocks.push((
        "multistream".to_owned(),
        format!(
            "Paper: CPElide outperforms HMG by ~12 % on multi-stream workloads\n\
             (`streams` + multi-stream extensions of Table II apps). Measured:\n\
             **{}** geomean over a {ms_n}-workload multi-stream suite.",
            pct(ms)
        ),
    ));

    Ok(blocks)
}

/// The suite every paper figure aggregates (the multi-stream suite is
/// its own §VI section).
const MAIN: &str = "main";

/// The chiplet count of the single-count figures (2, 9, 10, §III-A, §VI).
const FIG_CHIPLETS: u64 = 4;

/// The `summary.fig8` entries, one per enumerated chiplet count.
fn fig8_entries(summary: &Json) -> Result<&[Json], String> {
    get(summary, &["fig8"])?
        .as_arr()
        .ok_or_else(|| "campaign.json `summary.fig8` is not an array".to_owned())
}

/// The `summary.fig8` entry for `chiplets`.
fn fig8_entry(summary: &Json, chiplets: u64) -> Result<&Json, String> {
    fig8_entries(summary)?
        .iter()
        .find(|e| e.get("chiplets").and_then(Json::as_f64) == Some(chiplets as f64))
        .ok_or_else(|| format!("campaign.json has no fig8 entry for {chiplets} chiplets"))
}

/// The Table 1 rows of a campaign document's `cells` array.
fn grid_of(campaign: &Json) -> Result<Grid<'_>, String> {
    let cells = get(campaign, &["cells"])?
        .as_arr()
        .ok_or("campaign.json `cells` is not an array")?;
    Grid::of(cells)
}

/// The metric at `path` (e.g. `["traffic", "remote_flits"]`) of one cell.
fn cell_num(
    grid: &Grid,
    suite: &str,
    workload: &str,
    protocol: ProtocolKind,
    chiplets: u64,
    path: &[&str],
) -> Result<f64, String> {
    let metrics = grid
        .get(suite, workload, protocol, chiplets)
        .ok_or_else(|| {
            format!("campaign.json has no {suite} cell {workload}:{protocol}:{chiplets}")
        })?;
    getf(metrics, path)
}

/// Figure 10's remote-traffic comparison at 4 chiplets: on how many main
/// workloads HMG carries more remote flits than CPElide, on how many
/// CPElide carries more, and how many workloads there are.
fn remote_counts(grid: &Grid) -> Result<(usize, usize, usize), String> {
    let main = grid.workloads(MAIN);
    let (mut hmg_more, mut cpelide_more) = (0, 0);
    for &(w, _) in &main {
        let remote = |p| cell_num(grid, MAIN, w, p, FIG_CHIPLETS, &["traffic", "remote_flits"]);
        let (c, h) = (remote(ProtocolKind::CpElide)?, remote(ProtocolKind::Hmg)?);
        if h > c {
            hmg_more += 1;
        } else if c > h {
            cpelide_more += 1;
        }
    }
    Ok((hmg_more, cpelide_more, main.len()))
}

/// `label` padded to the geomean column, then `value` as a signed delta.
fn geo_line(label: &str, value: f64) -> String {
    format!("{label:<44} {}\n", pct(value - 1.0))
}

/// A figure title followed by its column header and rule.
fn table_head(title: &str, columns: &str) -> String {
    format!("{title}\n{columns}\n{}\n", crate::rule(columns.len()))
}

/// Per-workload CPElide and HMG speedups over Baseline for one suite at
/// one chiplet count, grouped by reuse class in row order.
fn speedup_table(grid: &Grid, suite: &str, chiplets: u64, title: &str) -> Result<String, String> {
    let mut out = table_head(
        title,
        &format!("{:<16} {:>9} {:>9}", "workload", "CPElide", "HMG"),
    );
    let workloads = grid.workloads(suite);
    for class in distinct(workloads.iter().map(|&(_, class)| class)) {
        out.push_str(&format!("[{class} inter-kernel reuse]\n"));
        for &(w, _) in workloads.iter().filter(|(_, c)| *c == class) {
            let cycles = |p| cell_num(grid, suite, w, p, chiplets, &["cycles"]);
            let base = cycles(ProtocolKind::Baseline)?;
            out.push_str(&format!(
                "{w:<16} {:>9.2} {:>9.2}\n",
                base / cycles(ProtocolKind::CpElide)?,
                base / cycles(ProtocolKind::Hmg)?
            ));
        }
    }
    Ok(out)
}

/// Figure 8 for one `summary.fig8` entry: the per-workload table, then
/// that entry's geomeans.
fn fig8_section(grid: &Grid, entry: &Json) -> Result<String, String> {
    let chiplets = getf(entry, &["chiplets"])? as u64;
    let mut out = speedup_table(
        grid,
        MAIN,
        chiplets,
        &format!("Figure 8 — performance vs Baseline ({chiplets} chiplets)"),
    )?;
    for (label, key) in [
        ("geomean CPElide vs Baseline", "cpelide_vs_baseline"),
        (
            "geomean CPElide vs Baseline (mod/high reuse)",
            "cpelide_vs_baseline_reuse",
        ),
        ("geomean HMG vs Baseline", "hmg_vs_baseline"),
        ("geomean CPElide vs HMG", "cpelide_vs_hmg"),
    ] {
        out.push_str(&geo_line(label, getf(entry, &[key])?));
    }
    Ok(out)
}

/// Renders Figure 8 at `chiplets` from any campaign-format document (the
/// committed campaign, or the `studies` binary's beyond-7 run).
///
/// # Errors
///
/// Returns a description of the first missing cell or field.
pub fn render_fig8(campaign: &Json, chiplets: u64) -> Result<String, String> {
    let summary = summary_of(campaign)?;
    fig8_section(&grid_of(campaign)?, fig8_entry(summary, chiplets)?)
}

/// Renders `results/figures.txt`: the per-workload tables of Figure 2,
/// Figure 8 at every enumerated chiplet count, Figures 9 and 10, §III-A
/// table occupancy and the §VI multi-stream study.
///
/// # Errors
///
/// Returns a description of the first missing cell or field.
pub fn render_figures(campaign: &Json) -> Result<String, String> {
    let summary = summary_of(campaign)?;
    let grid = &grid_of(campaign)?;
    let main = grid.workloads(MAIN);
    let n = FIG_CHIPLETS;
    let mut out = String::from(
        "Paper figures rendered from results/campaign.json by `report`.\n\
         Per-workload values come from the campaign rows; every geomean is the\n\
         campaign summary's.\n\n",
    );

    out.push_str(&table_head(
        &format!("Figure 2 — performance loss vs an equivalent monolithic GPU ({n} chiplets)"),
        &format!("{:<16} {:>9}", "workload", "loss"),
    ));
    for &(w, _) in &main {
        let cycles = |p| cell_num(grid, MAIN, w, p, n, &["cycles"]);
        let loss = cycles(ProtocolKind::Baseline)? / cycles(ProtocolKind::Monolithic)? - 1.0;
        out.push_str(&format!("{w:<16} {:>7.1} %\n", loss * 100.0));
    }
    out.push_str(&format!(
        "{:<16} {:>7.1} %  (paper: 54 %)\n\n",
        "average",
        getf(summary, &["fig2", "avg_loss"])? * 100.0
    ));

    for entry in fig8_entries(summary)? {
        out.push_str(&fig8_section(grid, entry)?);
        out.push('\n');
    }

    out.push_str(&table_head(
        &format!(
            "Figure 9 — memory-subsystem energy vs Baseline ({n} chiplets; \
             per-component split: `probe <workload>`)"
        ),
        &format!("{:<16} {:>9} {:>9}", "workload", "CPElide", "HMG"),
    ));
    for &(w, _) in &main {
        let energy = |p| cell_num(grid, MAIN, w, p, n, &["energy_total_uj"]);
        let base = energy(ProtocolKind::Baseline)?;
        out.push_str(&format!(
            "{w:<16} {:>9.3} {:>9.3}\n",
            energy(ProtocolKind::CpElide)? / base,
            energy(ProtocolKind::Hmg)? / base
        ));
    }
    for (label, key) in [
        ("geomean CPElide vs Baseline", "cpelide_vs_baseline"),
        ("geomean HMG vs Baseline", "hmg_vs_baseline"),
        ("geomean CPElide vs HMG", "cpelide_vs_hmg"),
    ] {
        out.push_str(&geo_line(label, getf(summary, &["energy", key])?));
    }
    out.push('\n');

    out.push_str(&table_head(
        &format!(
            "Figure 10 — interconnect traffic vs Baseline ({n} chiplets; \
             split L1-L2/L2-L3/remote)"
        ),
        &format!(
            "{:<16} {:>9} {:>9}  {:<14}  {}",
            "workload", "CPElide", "HMG", "CPElide split", "HMG split"
        ),
    ));
    for &(w, _) in &main {
        let flits = |p| -> Result<[f64; 3], String> {
            let f = |k| cell_num(grid, MAIN, w, p, n, &["traffic", k]);
            Ok([f("l1_l2_flits")?, f("l2_l3_flits")?, f("remote_flits")?])
        };
        let base: f64 = flits(ProtocolKind::Baseline)?.iter().sum();
        let [c, h] =
            [flits(ProtocolKind::CpElide)?, flits(ProtocolKind::Hmg)?].map(|f| f.map(|x| x / base));
        let split = |f: [f64; 3]| format!("{:.2}/{:.2}/{:.2}", f[0], f[1], f[2]);
        out.push_str(&format!(
            "{w:<16} {:>9.3} {:>9.3}  {:<14}  {}\n",
            c.iter().sum::<f64>(),
            h.iter().sum::<f64>(),
            split(c),
            split(h)
        ));
    }
    for (label, key) in [
        ("geomean CPElide vs Baseline", "cpelide_vs_baseline"),
        ("geomean HMG vs Baseline", "hmg_vs_baseline"),
        ("geomean CPElide vs HMG", "cpelide_vs_hmg"),
        ("geomean CPElide L2-L3 vs HMG", "l2l3_cpelide_vs_hmg"),
    ] {
        out.push_str(&geo_line(label, getf(summary, &["traffic", key])?));
    }
    let (hmg_more, cpelide_more, apps) = remote_counts(grid)?;
    out.push_str(&format!(
        "remote flits: HMG > CPElide on {hmg_more} of {apps} apps, \
         CPElide > HMG on {cpelide_more}\n\n"
    ));

    out.push_str(&table_head(
        &format!("§III-A — Chiplet Coherence Table occupancy (CPElide, {n} chiplets)"),
        &format!("{:<16} {:>9} {:>10}", "workload", "max live", "evictions"),
    ));
    for &(w, _) in &main {
        let table = |k| cell_num(grid, MAIN, w, ProtocolKind::CpElide, n, &["table", k]);
        out.push_str(&format!(
            "{w:<16} {:>9} {:>10}\n",
            table("max_live_entries")?,
            table("evictions")?
        ));
    }
    out.push_str(&format!(
        "suite: at most {} live entries, {} evictions (64-entry table; paper: up to 11)\n\n",
        getf(summary, &["occupancy", "max_live_entries"])?,
        getf(summary, &["occupancy", "evictions"])?
    ));

    out.push_str(&speedup_table(
        grid,
        "multistream",
        n,
        &format!("§VI — multi-stream performance vs Baseline ({n} chiplets)"),
    )?);
    out.push_str(&geo_line(
        "geomean CPElide vs HMG",
        getf(summary, &["multistream", "cpelide_vs_hmg"])?,
    ));
    Ok(out)
}

/// Renders the `report --obs` summary from a `campaign.prom` exposition:
/// the per-phase cycle breakdown, the cache counters, and the wall-clock
/// fleet utilization table. Printed to stdout only — never spliced into
/// EXPERIMENTS.md, since the fleet section is host-specific.
///
/// # Errors
///
/// Returns an error when the exposition is malformed or missing the
/// campaign metric families.
pub fn obs_section(prom: &str) -> Result<String, String> {
    let samples =
        chiplet_harness::trace::prom::parse(prom).map_err(|e| format!("campaign.prom: {e}"))?;
    let find = |name: &str, label: &str| -> Option<f64> {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.contains(label))
            .map(|s| s.value)
    };
    let need = |name: &str, label: &str| -> Result<f64, String> {
        find(name, label).ok_or_else(|| {
            format!("campaign.prom is missing `{name}{{{label}}}`; re-run `--bin campaign`")
        })
    };

    let mut out = String::new();
    out.push_str("Campaign cells\n");
    for state in ["simulated", "cached", "failed"] {
        let n = need("cpelide_campaign_cells", &format!("state=\"{state}\""))?;
        out.push_str(&format!("  {state:<10} {n:>8.0}\n"));
    }
    out.push_str(&format!(
        "  cache      {:.0} hit / {:.0} miss / {:.0} corrupt (hit rate {:.0} %)\n",
        need("cpelide_campaign_cache_lookups", "result=\"hit\"")?,
        need("cpelide_campaign_cache_lookups", "result=\"miss\"")?,
        need("cpelide_campaign_cache_lookups", "result=\"corrupt\"")?,
        need("cpelide_campaign_cache_hit_rate", "")? * 100.0,
    ));

    out.push('\n');
    out.push_str("Engine phase breakdown (simulated cells, deterministic)\n");
    out.push_str(&format!(
        "  {:<16} {:>16} {:>12} {:>7}\n",
        "phase", "cycles", "ops", "share"
    ));
    out.push_str(&format!("  {}\n", crate::rule(54)));
    for p in chiplet_sim::phase::SimPhase::ALL {
        let labels = format!("phase=\"{}\"", p.label());
        out.push_str(&format!(
            "  {:<16} {:>16.0} {:>12.0} {:>6.1}%\n",
            p.label(),
            need("cpelide_campaign_phase_cycles", &labels)?,
            need("cpelide_campaign_phase_ops", &labels)?,
            need("cpelide_campaign_phase_fraction", &labels)? * 100.0,
        ));
    }

    out.push('\n');
    out.push_str("Fleet (wall clock, this host — not reproducible)\n");
    let workers = need("cpelide_fleet_workers", "")? as usize;
    out.push_str(&format!(
        "  {} worker(s), {:.1} ms wall\n",
        workers,
        need("cpelide_fleet_elapsed_us", "")? / 1000.0,
    ));
    if let (Some(p50), Some(p99)) = (
        find("cpelide_fleet_job_wall_us_p50", ""),
        find("cpelide_fleet_job_wall_us_p99", ""),
    ) {
        out.push_str(&format!("  job latency p50/p99: {p50:.0}/{p99:.0} us\n"));
    }
    out.push_str(&format!(
        "  {:<8} {:>6} {:>12}\n",
        "worker", "jobs", "utilization"
    ));
    out.push_str(&format!("  {}\n", crate::rule(28)));
    for w in 0..workers {
        let labels = format!("worker=\"{w}\"");
        out.push_str(&format!(
            "  {:<8} {:>6.0} {:>11.1}%\n",
            w,
            need("cpelide_fleet_worker_jobs", &labels)?,
            need("cpelide_fleet_worker_utilization", &labels)? * 100.0,
        ));
    }
    Ok(out)
}

/// Renders the elision-headroom summary from the static oracle's census
/// (`chiplet-check --oracle`, `results/CHECK_oracle.json`): per-protocol
/// sync/elide totals aggregated over every workload × chiplet count, plus
/// the largest CPElide headroom cells — boundaries the oracle proves
/// elidable that the engine synced anyway. Stdout-only, like the rest of
/// `--obs`; the census itself is drift-gated separately in CI.
///
/// # Errors
///
/// Returns an error naming the first field missing from the census (a
/// hand-edited or truncated artifact), or an unknown protocol name.
pub fn oracle_headroom_section(doc: &Json) -> Result<String, String> {
    let miss = |what: &str| {
        format!("CHECK_oracle.json is missing `{what}`; re-run `chiplet-check -- --oracle`")
    };
    let num = |j: &Json, key: &str| -> Result<f64, String> {
        j.get(key).and_then(Json::as_f64).ok_or_else(|| miss(key))
    };
    let protocols: Vec<&str> = doc
        .get("protocols")
        .and_then(Json::as_arr)
        .ok_or_else(|| miss("protocols"))?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| miss("workloads"))?;

    // Per-protocol running sums over every workload × chiplet-count cell:
    // boundaries, synced, elided, headroom boundaries, headroom cycles.
    let mut totals: Vec<(&str, [f64; 5])> = protocols.iter().map(|p| (*p, [0.0; 5])).collect();
    let mut cpelide_cells: Vec<(String, u64, f64, f64)> = Vec::new();
    for w in workloads {
        let name = w
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| miss("workload"))?;
        let cells = w
            .get("differential")
            .and_then(Json::as_arr)
            .ok_or_else(|| miss("differential"))?;
        for c in cells {
            let proto = c
                .get("protocol")
                .and_then(Json::as_str)
                .ok_or_else(|| miss("protocol"))?;
            let row = totals
                .iter_mut()
                .find(|(p, _)| *p == proto)
                .ok_or_else(|| format!("CHECK_oracle.json names unknown protocol `{proto}`"))?;
            let vals = [
                num(c, "boundaries")?,
                num(c, "synced")?,
                num(c, "elided")?,
                num(c, "headroom_boundaries")?,
                num(c, "headroom_sync_cycles")?,
            ];
            for (t, v) in row.1.iter_mut().zip(vals) {
                *t += v;
            }
            if proto == "CPElide" && vals[3] > 0.0 {
                cpelide_cells.push((
                    name.to_owned(),
                    num(c, "chiplets")? as u64,
                    vals[3],
                    vals[4],
                ));
            }
        }
    }

    let mut out = String::new();
    out.push_str("Elision headroom (static oracle vs engine replay, CHECK_oracle.json)\n");
    out.push_str(&format!(
        "  {} workload(s), {:.0} soundness violation(s)\n",
        workloads.len(),
        num(doc, "soundness_violations")?,
    ));
    out.push_str(&format!(
        "  {:<9} {:>10} {:>8} {:>8} {:>9} {:>14}\n",
        "protocol", "boundaries", "synced", "elided", "headroom", "wasted cycles"
    ));
    out.push_str(&format!("  {}\n", crate::rule(63)));
    for (p, [b, s, e, hb, hc]) in &totals {
        out.push_str(&format!(
            "  {p:<9} {b:>10.0} {s:>8.0} {e:>8.0} {hb:>9.0} {hc:>14.0}\n"
        ));
    }
    cpelide_cells.sort_by(|a, b| {
        b.3.total_cmp(&a.3)
            .then_with(|| a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    if !cpelide_cells.is_empty() {
        out.push_str("  largest CPElide headroom cells (provably elidable, still synced):\n");
        for (name, n, hb, hc) in cpelide_cells.iter().take(3) {
            out.push_str(&format!(
                "    {name:<14} n={n}  {hb:>3.0} boundaries  {hc:>12.0} sync cycles\n"
            ));
        }
    }
    Ok(out)
}

/// Splices each block between its marker pair in `doc`, leaving the
/// markers and all hand-written text intact.
///
/// # Errors
///
/// Returns an error naming the first block whose markers are missing or
/// out of order — a deleted marker would otherwise silently orphan the
/// block.
pub fn splice(doc: &str, blocks: &[(String, String)]) -> Result<String, String> {
    let mut out = doc.to_owned();
    for (name, content) in blocks {
        let open = format!("<!-- generated: {name} -->");
        let close = format!("<!-- /generated: {name} -->");
        let start = out
            .find(&open)
            .ok_or_else(|| format!("EXPERIMENTS.md is missing the `{open}` marker"))?
            + open.len();
        let end = out[start..]
            .find(&close)
            .ok_or_else(|| format!("EXPERIMENTS.md is missing the `{close}` marker"))?
            + start;
        out.replace_range(start..end, &format!("\n{content}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig8_entry(chiplets: u64) -> Json {
        Json::object()
            .with("chiplets", chiplets)
            .with("cpelide_vs_baseline", 1.133)
            .with("hmg_vs_baseline", 1.037)
            .with("cpelide_vs_hmg", 1.092)
            .with("cpelide_vs_baseline_reuse", 1.173)
            .with("low_reuse_min_speedup", 0.98)
    }

    fn row(suite: &str, workload: &str, class: &str, protocol: &str, n: u64, cycles: f64) -> Json {
        let remote: u64 = match (workload, protocol) {
            ("alpha", "HMG") | ("beta", "CPElide") => 20,
            _ => 0,
        };
        let mut metrics = Json::object()
            .with("cycles", cycles)
            .with("energy_total_uj", cycles / 100.0)
            .with(
                "traffic",
                Json::object()
                    .with("l1_l2_flits", 50u64)
                    .with("l2_l3_flits", 30u64)
                    .with("remote_flits", remote),
            );
        if protocol == "CPElide" {
            metrics.set(
                "table",
                Json::object()
                    .with("max_live_entries", 3u64)
                    .with("evictions", 0u64),
            );
        }
        Json::object()
            .with("workload", workload)
            .with("class", class)
            .with("suite", suite)
            .with("protocol", protocol)
            .with("chiplets", n)
            .with("metrics", metrics)
    }

    /// Two main workloads (one per reuse class) at 2 and 4 chiplets, their
    /// monolithic cells, and one multi-stream workload. HMG carries more
    /// remote traffic on alpha, CPElide on beta.
    fn sample_cells() -> Vec<Json> {
        let protocols = ["Baseline", "CPElide", "HMG"];
        let mut cells = Vec::new();
        for n in [2, 4] {
            for (w, class, cycles) in [
                ("alpha", "moderate-high", [130.0, 100.0, 125.0]),
                ("beta", "low", [100.0, 100.0, 110.0]),
            ] {
                for (p, c) in protocols.into_iter().zip(cycles) {
                    cells.push(row("main", w, class, p, n, c));
                }
            }
        }
        cells.push(row("main", "alpha", "moderate-high", "Monolithic", 4, 65.0));
        cells.push(row("main", "beta", "low", "Monolithic", 4, 80.0));
        for (p, c) in protocols.into_iter().zip([120.0, 100.0, 108.0]) {
            cells.push(row("multistream", "gamma-2s", "moderate-high", p, 4, c));
        }
        cells
    }

    fn sample_campaign() -> Json {
        Json::object()
            .with("schema", SCHEMA)
            .with("model_revision", "test")
            .with("mode", "full")
            .with("cells", Json::Arr(sample_cells()))
            .with(
                "summary",
                Json::object()
                    .with(
                        "fig2",
                        Json::object()
                            .with("avg_loss", 0.81)
                            .with("min_loss", 0.03)
                            .with("max_loss", 1.59),
                    )
                    .with("fig8", Json::Arr(vec![fig8_entry(2), fig8_entry(4)]))
                    .with(
                        "energy",
                        Json::object()
                            .with("cpelide_vs_baseline", 0.66)
                            .with("cpelide_vs_hmg", 0.84)
                            .with("hmg_vs_baseline", 0.79),
                    )
                    .with(
                        "traffic",
                        Json::object()
                            .with("cpelide_vs_baseline", 0.76)
                            .with("cpelide_vs_hmg", 0.92)
                            .with("hmg_vs_baseline", 0.83)
                            .with("l2l3_cpelide_vs_hmg", 0.51),
                    )
                    .with(
                        "occupancy",
                        Json::object()
                            .with("max_live_entries", 7u64)
                            .with("evictions", 0u64),
                    )
                    .with(
                        "multistream",
                        Json::object()
                            .with("workloads", 4u64)
                            .with("cpelide_vs_hmg", 1.078),
                    ),
            )
    }

    #[test]
    fn verdicts_are_mechanical() {
        assert_eq!(verdict(0.13, 0.133), "match");
        assert_eq!(verdict(0.19, 0.092), "same sign, weaker");
        assert_eq!(verdict(-0.14, -0.34), "same sign, stronger");
        assert_eq!(verdict(-0.11, -0.16), "match");
        assert_eq!(verdict(0.10, -0.10), "opposite sign");
    }

    #[test]
    fn blocks_render_expected_values() {
        let blocks = generate_blocks(&sample_campaign()).expect("generates");
        let names: Vec<&str> = blocks.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "headline",
                "fig2",
                "fig8-trend",
                "fig10",
                "occupancy",
                "multistream"
            ]
        );
        let headline = &blocks[0].1;
        assert!(headline.contains("**+13.3 %** | match"), "{headline}");
        assert!(headline.contains("**+9.2 %** | same sign, weaker"));
        assert!(headline.contains("min 0.98×) | match"));
        assert!(blocks[1].1.contains("**81 % average**"));
        assert!(blocks[2].1.contains("+13.3 % (4)"));
        assert!(
            blocks[3]
                .1
                .contains("on **1 of 2** apps and CPElide more on\n1 (0 equal)"),
            "{}",
            blocks[3].1
        );
        assert!(blocks[3].1.contains("does not reproduce"));
        assert!(blocks[4].1.contains("**7 live entries**"));
        assert!(blocks[5].1.contains("**+7.8 %**"));
    }

    #[test]
    fn figures_render_rows_and_summary_geomeans() {
        let out = render_figures(&sample_campaign()).expect("renders");
        for line in [
            "alpha              100.0 %",
            "beta                25.0 %",
            "average             81.0 %  (paper: 54 %)",
            "Figure 8 — performance vs Baseline (2 chiplets)",
            "alpha                 1.30      1.04",
            "beta                  1.00      0.91",
            "geomean CPElide vs HMG                       +9.2 %",
            "alpha                0.769     0.962",
            "alpha                1.000     1.250  0.62/0.38/0.00  0.62/0.38/0.25",
            "geomean CPElide L2-L3 vs HMG                 -49.0 %",
            "remote flits: HMG > CPElide on 1 of 2 apps, CPElide > HMG on 1",
            "alpha                    3          0",
            "suite: at most 7 live entries, 0 evictions",
            "gamma-2s              1.20      1.11",
            "geomean CPElide vs HMG                       +7.8 %",
        ] {
            assert!(out.contains(line), "missing {line:?} in\n{out}");
        }
        let high = out
            .find("[moderate-high inter-kernel reuse]")
            .expect("high");
        let low = out.find("[low inter-kernel reuse]").expect("low");
        assert!(high < low, "classes render in row order");
        assert!(out.contains("Figure 8 — performance vs Baseline (4 chiplets)"));
        let fig8 = render_fig8(&sample_campaign(), 2).expect("renders");
        assert!(fig8.starts_with("Figure 8 — performance vs Baseline (2 chiplets)\n"));
        assert!(out.contains(&fig8), "figures.txt embeds the same table");
        let err = render_fig8(&sample_campaign(), 8).expect_err("no 8-chiplet entry");
        assert!(err.contains("8 chiplets"), "{err}");
    }

    #[test]
    fn figures_name_the_missing_cell() {
        let mut cells = sample_cells();
        cells.retain(|c| c.get("protocol").and_then(Json::as_str) != Some("Monolithic"));
        let doc = sample_campaign().with("cells", Json::Arr(cells));
        let err = render_figures(&doc).expect_err("must fail");
        assert!(err.contains("alpha:Monolithic:4"), "{err}");
    }

    #[test]
    fn a_malformed_grid_row_fails_the_summary_and_the_figures_alike() {
        for key in [
            "suite", "workload", "class", "protocol", "chiplets", "metrics",
        ] {
            let mut cells = sample_cells();
            if let Json::Obj(fields) = &mut cells[3] {
                fields.retain(|(k, _)| k != key);
            }
            let doc = sample_campaign().with("cells", Json::Arr(cells.clone()));
            let from_summary = crate::campaign::summarize(&cells).expect_err("summary refuses");
            let from_figures = render_figures(&doc).expect_err("figures refuse");
            assert_eq!(from_summary, from_figures, "{key}");
            assert!(from_summary.contains("cell 3"), "{key}: {from_summary}");
            assert!(from_summary.contains(&format!("`{key}`")), "{from_summary}");
        }
        // A config-variant row is skipped by both, whatever it lacks.
        let mut cells = sample_cells();
        cells.insert(3, Json::object().with("variant", "driver"));
        let doc = sample_campaign().with("cells", Json::Arr(cells.clone()));
        crate::campaign::summarize(&cells).expect("variant rows are skipped");
        render_figures(&doc).expect("variant rows are skipped");
    }

    #[test]
    fn figures_render_the_committed_campaign() {
        // `results/figures.txt` is derived from `results/campaign.json`
        // alone: a stale render or a hand edit fails here, as in CI's
        // `report --check`.
        let dir = crate::workspace_root().join("results");
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .unwrap_or_else(|e| panic!("committed results/{name}: {e}"))
        };
        let doc = chiplet_harness::json::parse(&read("campaign.json")).expect("campaign parses");
        assert_eq!(render_figures(&doc).expect("renders"), read("figures.txt"));
    }

    #[test]
    fn generate_refuses_wrong_schema_and_incomplete_runs() {
        let wrong = sample_campaign().with("schema", "other-v9");
        assert!(generate_blocks(&wrong).is_err());
        let incomplete = sample_campaign().with("summary", Json::object().with("incomplete", true));
        assert!(generate_blocks(&incomplete).is_err());
    }

    #[test]
    fn splice_replaces_only_marked_regions() {
        let doc = "intro\n<!-- generated: a -->\nstale\n<!-- /generated: a -->\nmiddle\n\
                   <!-- generated: b -->old<!-- /generated: b -->\ntail\n";
        let blocks = vec![
            ("a".to_owned(), "fresh A".to_owned()),
            ("b".to_owned(), "fresh B".to_owned()),
        ];
        let out = splice(doc, &blocks).expect("splices");
        assert!(out.contains("intro\n<!-- generated: a -->\nfresh A\n<!-- /generated: a -->"));
        assert!(out.contains("<!-- generated: b -->\nfresh B\n<!-- /generated: b -->"));
        assert!(out.contains("middle"), "hand-written text survives");
        assert!(!out.contains("stale"));
        // Idempotent: splicing the same blocks again changes nothing.
        assert_eq!(splice(&out, &blocks).expect("re-splices"), out);
    }

    #[test]
    fn splice_errors_on_missing_markers() {
        let err =
            splice("no markers here", &[("a".to_owned(), "x".to_owned())]).expect_err("must fail");
        assert!(err.contains("generated: a"), "{err}");
    }

    fn diff_cell(protocol: &str, chiplets: u64, synced: u64, headroom: u64, cycles: f64) -> Json {
        Json::object()
            .with("protocol", protocol)
            .with("chiplets", chiplets)
            .with("boundaries", 10u64)
            .with("synced", synced)
            .with("elided", 10 - synced)
            .with("violations", 0u64)
            .with("headroom_boundaries", headroom)
            .with("headroom_sync_cycles", cycles)
    }

    fn sample_oracle_census() -> Json {
        let w = |name: &str, cpelide_headroom: u64, cycles: f64| {
            Json::object().with("workload", name).with(
                "differential",
                vec![
                    diff_cell("Baseline", 2, 9, 9, 900.0),
                    diff_cell("HMG", 2, 0, 0, 0.0),
                    diff_cell("CPElide", 2, 3, cpelide_headroom, cycles),
                ],
            )
        };
        Json::object()
            .with("soundness_violations", 0u64)
            .with(
                "protocols",
                vec![Json::from("Baseline"), "HMG".into(), "CPElide".into()],
            )
            .with("workloads", vec![w("alpha", 2, 250.0), w("beta", 0, 0.0)])
    }

    #[test]
    fn oracle_headroom_aggregates_per_protocol_and_ranks_cells() {
        let out = oracle_headroom_section(&sample_oracle_census()).expect("renders");
        assert!(
            out.contains("2 workload(s), 0 soundness violation(s)"),
            "{out}"
        );
        // Baseline: 2 workloads × 10 boundaries, 18 synced, 18 headroom.
        assert!(out.contains("Baseline          20       18        2        18           1800"));
        assert!(out.contains("HMG               20        0       20         0              0"));
        assert!(out.contains("CPElide           20        6       14         2            250"));
        // Only alpha has CPElide headroom; beta must not be listed.
        assert!(out.contains("alpha          n=2    2 boundaries           250 sync cycles"));
        assert!(!out.contains("beta           n="), "{out}");
    }

    #[test]
    fn oracle_headroom_errors_name_the_missing_field() {
        let truncated = sample_oracle_census().with("workloads", Json::Arr(vec![Json::object()]));
        let err = oracle_headroom_section(&truncated).expect_err("must fail");
        assert!(err.contains("`workload`"), "{err}");
        let unknown = sample_oracle_census().with(
            "workloads",
            vec![Json::object()
                .with("workload", "x")
                .with("differential", vec![diff_cell("Mystery", 2, 0, 0, 0.0)])],
        );
        let err = oracle_headroom_section(&unknown).expect_err("must fail");
        assert!(err.contains("Mystery"), "{err}");
    }

    #[test]
    fn oracle_headroom_renders_the_committed_census() {
        // The committed artifact must stay renderable — this is what
        // `report -- --obs` prints in CI when the census is present.
        let path = crate::results_dir().join("CHECK_oracle.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return; // scratch results dir (CPELIDE_RESULTS_DIR) — nothing to check
        };
        let doc = chiplet_harness::json::parse(&text).expect("census parses");
        let out = oracle_headroom_section(&doc).expect("renders");
        assert!(out.contains("0 soundness violation(s)"), "{out}");
        assert!(out.contains("Baseline"), "{out}");
    }

    #[test]
    fn generated_blocks_splice_into_the_committed_doc() {
        // The real EXPERIMENTS.md must carry a marker pair for every block
        // the generator emits, in splice-able positions.
        let doc = std::fs::read_to_string(experiments_path()).expect("EXPERIMENTS.md readable");
        let blocks = generate_blocks(&sample_campaign()).expect("generates");
        splice(&doc, &blocks).expect("all markers present in EXPERIMENTS.md");
    }
}
