//! Runs every study outside the campaign grid and writes
//! `results/studies.txt` plus `results/studies.json`:
//!
//! - Tables I–III (configuration, workload inventory, prior-work matrix)
//! - the §IV-C HMG write-back ablation
//! - the §VI scaling mimic and the §VI driver-managed study
//! - real 8/12/16-chiplet runs, beyond the paper's ROCm limit of 7
//! - the table-capacity, crossbar-latency and link-bandwidth sweeps
//!
//! Every simulation is a campaign cell: the studies enumerate their cells
//! (config-variant ones carry a `chiplet_sim::cell::Variant`), run them
//! all in one `campaign::run` over the shared `results/cache/`, and
//! reduce the rows into the tables. A cell's key covers what it computes,
//! so the Table 1 cells a study compares against (and a variant that
//! resolves to Table 1, such as a 64-entry table) are cache hits after a
//! campaign, and a second `studies` run simulates nothing. The beyond-7
//! tables come from the same Figure 8 renderer and summary as
//! `results/figures.txt`.
//!
//! Usage: `cargo run --release -p cpelide-bench --bin studies`
//!
//! Prints one `studies: <n> simulated, <m> cached` line, then the tables.
//! Honours `CPELIDE_SMOKE`, `CPELIDE_RESULTS_DIR`, `CPELIDE_JOBS` and
//! `CPELIDE_CACHE` like the campaign. Exits 1 when a cell failed.

use chiplet_coherence::ProtocolKind::{self, Baseline, CpElide, Hmg, HmgWriteBack};
use chiplet_harness::fleet;
use chiplet_harness::json::Json;
use chiplet_sim::cell::Variant::{
    self, DriverManaged, LinkBandwidth, RoundTrip, SyncReplication, Table1, TableCapacity,
};
use chiplet_sim::metrics::geomean;
use chiplet_sim::{Cell, SimConfig};
use chiplet_workloads::{ReuseClass, Workload};
use cpelide_bench::campaign::{self, CellSpec, SuiteTag, PROTOCOLS, SCHEMA};
use cpelide_bench::report::{pct, render_fig8};
use cpelide_bench::{effective_suite, pick, rule, smoke, write_report, write_text};
use std::fmt::Write as _;

/// The chiplet count of Table I and of every 4-chiplet study.
const CHIPLETS: usize = 4;

/// The workload the sensitivity sweeps run on (LUD: the largest gain).
const SWEEP_WORKLOAD: &str = "lud";

/// §VI scaling mimic: (mimicked chiplet count, sync replication).
const MIMICS: [(usize, u32); 2] = [(8, 2), (16, 4)];

/// Adds a cell to `specs` unless one with its fingerprint is there (a
/// cell two studies share, or a variant that resolves to Table 1), so it
/// runs and is cached once; returns its index, which is its row's.
fn cell(specs: &mut Vec<CellSpec>, w: &Workload, p: ProtocolKind, n: usize, v: Variant) -> usize {
    let spec = CellSpec::new(Cell::new(w.clone(), p, n).with_variant(v), SuiteTag::Main);
    let key = spec.fingerprint();
    specs
        .iter()
        .position(|s| s.fingerprint() == key)
        .unwrap_or_else(|| {
            specs.push(spec);
            specs.len() - 1
        })
}

/// Runs `specs` through the campaign runner and cache, exiting 1 on any
/// failed cell; returns the rows, indexed like `specs`.
fn run_cells(specs: &[CellSpec]) -> Vec<Json> {
    let cache = campaign::cache_from_env();
    let outcome = campaign::run(specs, fleet::workers(), cache.as_ref(), None, false);
    if outcome.failed > 0 {
        for f in &outcome.failures {
            eprintln!("studies: failed cell: {f}");
        }
        std::process::exit(1);
    }
    let (simulated, cached) = (outcome.simulated, outcome.cached);
    println!("studies: {simulated} simulated, {cached} cached");
    let rows = outcome.report.get("cells").and_then(Json::as_arr);
    rows.expect("a campaign document carries its cells")
        .to_vec()
}

fn metric(row: &Json, key: &str) -> f64 {
    row.get("metrics")
        .and_then(|m| m.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("a completed campaign row carries {key}"))
}

/// The §VI scaling cells of `w`: CPElide under Table 1, then one per
/// entry of [`MIMICS`].
fn scaling_cells(specs: &mut Vec<CellSpec>, w: &Workload) -> [usize; 3] {
    let [k2, k4] = MIMICS.map(|(_, k)| SyncReplication(k));
    [Table1, k2, k4].map(|v| cell(specs, w, CpElide, CHIPLETS, v))
}

/// Per mimicked chiplet count, the geomean slowdown of the serialised
/// runs over Table 1 (paper: ≈1 % at 8 chiplets, ≈2 % at 16).
fn scaling_overheads(rows: &[Json], cells: &[[usize; 3]]) -> Vec<(usize, f64)> {
    let cycles = |i: usize| metric(&rows[i], "cycles");
    MIMICS
        .iter()
        .enumerate()
        .map(|(i, &(mimicked, _))| {
            let slowdowns = cells.iter().map(|c| cycles(c[i + 1]) / cycles(c[0]));
            (mimicked, geomean(slowdowns) - 1.0)
        })
        .collect()
}

fn table2(text: &mut String) -> Json {
    writeln!(text, "Table II — evaluated benchmarks").unwrap();
    let head = format!(
        "{:<16} {:<34} {:>8} {:>12} {:>8}",
        "application", "input", "kernels", "footprint", "arrays"
    );
    writeln!(text, "{head}\n{}", rule(head.len())).unwrap();
    let mut rows = Vec::new();
    for class in [ReuseClass::ModerateHigh, ReuseClass::Low] {
        writeln!(text, "[{class} inter-kernel reuse]").unwrap();
        for w in chiplet_workloads::suite()
            .iter()
            .filter(|w| w.class() == class)
        {
            writeln!(
                text,
                "{:<16} {:<34} {:>8} {:>9.1} MB {:>8}",
                w.name(),
                w.input(),
                w.kernel_count(),
                w.footprint_bytes() as f64 / (1 << 20) as f64,
                w.arrays().len()
            )
            .unwrap();
            rows.push(
                Json::object()
                    .with("workload", w.name())
                    .with("input", w.input())
                    .with("class", class.to_string())
                    .with("kernels", w.kernel_count())
                    .with("footprint_bytes", w.footprint_bytes())
                    .with("arrays", w.arrays().len()),
            );
        }
    }
    Json::Arr(rows)
}

fn table3(text: &mut String) -> Json {
    let features = [
        "No coherence protocol changes",
        "No L2 cache structure changes",
        "Reduces kernel-boundary synchronization overhead",
        "Avoids remote coherence traffic",
        "Designed for chiplet-based systems",
        "Access to scheduling information to reduce overhead",
    ];
    let schemes = [
        "HMG", "Spandex", "hLRC", "Halcone", "SW-DSM", "HW-DSM", "CPElide",
    ];
    // Columns follow the paper: HMG, Spandex, hLRC, Halcone, SW DSM, HW DSM, CPElide.
    let marks: [[bool; 7]; 6] = [
        [false, false, false, false, false, false, true],
        [false, false, false, false, true, false, true],
        [true, true, true, true, true, true, true],
        [false, false, false, true, false, false, true],
        [true, false, false, false, false, false, true],
        [false, false, false, false, false, false, true],
    ];
    writeln!(text, "Table III — comparing CPElide to prior work").unwrap();
    let mut head = format!("{:<52}", "feature");
    for s in schemes {
        write!(head, " {s:>8}").unwrap();
    }
    writeln!(text, "{head}\n{}", rule(head.len())).unwrap();
    let mut rows = Vec::new();
    for (feature, row) in features.iter().zip(marks) {
        let mut line = format!("{feature:<52}");
        let mut json = Json::object().with("feature", *feature);
        for (scheme, has) in schemes.iter().zip(row) {
            write!(line, " {:>8}", if has { "yes" } else { "no" }).unwrap();
            json.set(scheme, has);
        }
        writeln!(text, "{line}").unwrap();
        rows.push(json);
    }
    Json::Arr(rows)
}

/// Renders one sensitivity sweep from its points: the swept value, then
/// the Baseline and CPElide cells it compares.
fn sweep(
    text: &mut String,
    title: &str,
    unit: &str,
    rows: &[Json],
    points: &[(f64, usize, usize)],
) -> Json {
    writeln!(text, "{title}").unwrap();
    writeln!(text, "{unit:<10} {:>10} {:>10}", "speedup", "sync ops").unwrap();
    let mut out = Vec::new();
    for &(value, base, cp) in points {
        let (base, cp) = (&rows[base], &rows[cp]);
        let speedup = metric(base, "cycles") / metric(cp, "cycles");
        let sync_ops = metric(cp, "sync_ops") as u64;
        writeln!(text, "{value:<10} {speedup:>9.3}x {sync_ops:>10}").unwrap();
        out.push(
            Json::object()
                .with("value", value)
                .with("cpelide_speedup", speedup)
                .with("sync_ops", sync_ops),
        );
    }
    text.push('\n');
    Json::Arr(out)
}

fn main() {
    let suite = effective_suite();
    let mut text = String::new();
    let mut report = Json::object()
        .with("artifact", "studies")
        .with("mode", if smoke() { "smoke" } else { "full" });

    // ---- The cells of every study ---------------------------------------
    let mut specs = Vec::new();
    let hmg_wb: Vec<[usize; 2]> = suite
        .iter()
        .map(|w| [Hmg, HmgWriteBack].map(|p| cell(&mut specs, w, p, CHIPLETS, Table1)))
        .collect();
    let scaling: Vec<[usize; 3]> = suite.iter().map(|w| scaling_cells(&mut specs, w)).collect();
    let driver_cells = [
        (Baseline, Table1),
        (CpElide, Table1),
        (CpElide, DriverManaged),
    ];
    let driver: Vec<[usize; 3]> = suite
        .iter()
        .map(|w| driver_cells.map(|(p, v)| cell(&mut specs, w, p, CHIPLETS, v)))
        .collect();
    let counts = pick(vec![8usize, 12, 16], vec![8]);
    let beyond7: Vec<usize> = counts
        .iter()
        .flat_map(|&n| suite.iter().flat_map(move |w| PROTOCOLS.map(|p| (w, p, n))))
        .map(|(w, p, n)| cell(&mut specs, w, p, n, Table1))
        .collect();
    let name = if smoke() {
        suite[0].name()
    } else {
        SWEEP_WORKLOAD
    };
    let w = chiplet_workloads::lookup(name).unwrap_or_else(|e| panic!("{e}"));
    // A sweep point compares CPElide under `v` with the Baseline under
    // `base_v`: Table 1, except that both sides pay a slower link.
    let mut point = |value: f64, v: Variant, base_v: Variant| {
        let base = cell(&mut specs, &w, Baseline, CHIPLETS, base_v);
        (value, base, cell(&mut specs, &w, CpElide, CHIPLETS, v))
    };
    let capacities: Vec<(f64, usize, usize)> = pick(vec![2usize, 4, 8, 16, 32, 64], vec![2, 64])
        .into_iter()
        .map(|n| point(n as f64, TableCapacity(n), Table1))
        .collect();
    let latencies: Vec<(f64, usize, usize)> =
        pick(vec![115.0, 230.0, 460.0, 920.0, 1840.0], vec![230.0])
            .into_iter()
            .map(|c| point(c, RoundTrip(c), Table1))
            .collect();
    let bandwidths: Vec<(f64, usize, usize)> = pick(vec![192.0, 384.0, 768.0, 1536.0], vec![768.0])
        .into_iter()
        .map(|g| point(g, LinkBandwidth(g), LinkBandwidth(g)))
        .collect();
    let rows = run_cells(&specs);
    let cycles = |i: usize| metric(&rows[i], "cycles");

    // ---- Tables I–III ---------------------------------------------------
    let table1 = SimConfig::table1_text(CHIPLETS);
    writeln!(
        text,
        "Table I — simulated baseline GPU parameters ({CHIPLETS} chiplets)\n{table1}"
    )
    .unwrap();
    report.set(
        "table1",
        Json::object()
            .with("chiplets", CHIPLETS)
            .with("text", table1),
    );
    report.set("table2", table2(&mut text));
    text.push('\n');
    report.set("table3", table3(&mut text));
    text.push('\n');

    // ---- §IV-C HMG write-back ablation ----------------------------------
    let slowdown = geomean(hmg_wb.iter().map(|&[wt, wb]| cycles(wb) / cycles(wt))) - 1.0;
    writeln!(
        text,
        "§IV-C — HMG write-back vs write-through L2s ({CHIPLETS} chiplets)\n\
         geomean slowdown of the write-back variant: {}  (paper: ~13 %)\n",
        pct(slowdown)
    )
    .unwrap();
    report.set(
        "hmg_writeback",
        Json::object().with("geomean_slowdown", slowdown),
    );

    // ---- §VI scaling mimic ----------------------------------------------
    writeln!(
        text,
        "§VI — scaling mimic: serialized sync sets on {CHIPLETS}-chiplet CPElide"
    )
    .unwrap();
    let mut scaling_json = Vec::new();
    for (mimicked, overhead) in scaling_overheads(&rows, &scaling) {
        writeln!(
            text,
            "mimicked {mimicked:>2}-chiplet system: {} average slowdown",
            pct(overhead)
        )
        .unwrap();
        scaling_json.push(
            Json::object()
                .with("mimicked_chiplets", mimicked)
                .with("average_slowdown", overhead),
        );
    }
    text.push_str("(paper: ~1 % at 8 chiplets, ~2 % at 16)\n\n");
    report.set("scaling", Json::Arr(scaling_json));

    // ---- §VI driver-managed study ---------------------------------------
    let head = format!("{:<16} {:>10} {:>10}", "workload", "CP", "driver");
    writeln!(
        text,
        "§VI — driver-managed elision ({CHIPLETS} chiplets, speedup vs Baseline)\n{head}\n{}",
        rule(head.len())
    )
    .unwrap();
    let driver: Vec<(&str, f64, f64)> = suite
        .iter()
        .zip(&driver)
        .map(|(w, &[base, cp, drv])| {
            (
                w.name(),
                cycles(base) / cycles(cp),
                cycles(base) / cycles(drv),
            )
        })
        .collect();
    for (name, cp, drv) in &driver {
        writeln!(text, "{name:<16} {cp:>9.2}x {drv:>9.2}x").unwrap();
    }
    let geo_cp = geomean(driver.iter().map(|r| r.1));
    let geo_driver = geomean(driver.iter().map(|r| r.2));
    writeln!(
        text,
        "geomean: CP {} vs Baseline, driver {} vs Baseline\n",
        pct(geo_cp - 1.0),
        pct(geo_driver - 1.0)
    )
    .unwrap();
    report.set(
        "driver",
        Json::object()
            .with("geomean_cp_speedup", geo_cp)
            .with("geomean_driver_speedup", geo_driver)
            .with(
                "rows",
                driver
                    .iter()
                    .map(|&(name, cp, drv)| {
                        Json::object()
                            .with("workload", name)
                            .with("cp_speedup", cp)
                            .with("driver_speedup", drv)
                    })
                    .collect::<Vec<_>>(),
            ),
    );

    // ---- Beyond 7 chiplets ----------------------------------------------
    let beyond7: Vec<Json> = beyond7.iter().map(|&i| rows[i].clone()).collect();
    let summary = campaign::summarize(&beyond7).unwrap_or_else(|e| panic!("{e}"));
    let fig8 = summary.get("fig8").cloned().unwrap_or(Json::Null);
    let doc = Json::object()
        .with("schema", SCHEMA)
        .with("cells", Json::Arr(beyond7))
        .with("summary", summary);
    text.push_str("Beyond the ROCm limit: real runs under strong scaling\n");
    for &n in &counts {
        let table = render_fig8(&doc, n as u64).unwrap_or_else(|e| panic!("{e}"));
        writeln!(text, "{table}").unwrap();
    }
    report.set("beyond7", fig8);

    // ---- Sensitivity sweeps ---------------------------------------------
    writeln!(text, "Sensitivity sweeps on {name} ({CHIPLETS} chiplets)").unwrap();
    let sensitivity = Json::object()
        .with("workload", name)
        .with(
            "table_capacity",
            sweep(
                &mut text,
                "Chiplet Coherence Table capacity (paper sizing: 64 entries)",
                "entries",
                &rows,
                &capacities,
            ),
        )
        .with(
            "crossbar_latency",
            sweep(
                &mut text,
                "CP crossbar round-trip latency (paper: 230 cycles)",
                "cycles",
                &rows,
                &latencies,
            ),
        )
        .with(
            "link_bandwidth",
            sweep(
                &mut text,
                "inter-chiplet link bandwidth (Table I: 768 GB/s)",
                "GB/s",
                &rows,
                &bandwidths,
            ),
        );
    report.set("sensitivity", sensitivity);

    let text = text.trim_end().to_owned() + "\n";
    print!("{text}");
    let text_path = write_text("studies.txt", &text);
    let json_path = write_report("studies", &report);
    println!("studies: {}", text_path.display());
    println!("report: {}", json_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §VI scaling mimic stays a small overhead on a two-workload
    /// suite, reduced from rows exactly as `main` reduces them.
    #[test]
    fn scaling_mimic_overhead_is_small() {
        let mut specs = Vec::new();
        let cells: Vec<[usize; 3]> = ["square", "btree"]
            .iter()
            .map(|n| {
                let w = chiplet_workloads::lookup(n).unwrap_or_else(|e| panic!("{e}"));
                scaling_cells(&mut specs, &w)
            })
            .collect();
        let outcome = campaign::run(&specs, 2, None, None, false);
        assert_eq!(outcome.failed, 0);
        let rows = outcome.report.get("cells").and_then(Json::as_arr).unwrap();
        let results = scaling_overheads(rows, &cells);
        assert_eq!(results.len(), 2);
        for (n, overhead) in results {
            assert!(overhead >= -0.01, "mimicked {n}-chiplet overhead negative");
            assert!(
                overhead < 0.25,
                "mimicked {n}-chiplet overhead too large: {overhead}"
            );
        }
    }
}
