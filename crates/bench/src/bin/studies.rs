//! Runs every study outside the campaign grid and writes
//! `results/studies.txt` plus `results/studies.json`:
//!
//! - Tables I–III (configuration, workload inventory, prior-work matrix)
//! - the §IV-C HMG write-back ablation
//! - the §VI scaling mimic and the §VI driver-managed study
//! - real 8/12/16-chiplet runs, beyond the paper's ROCm limit of 7
//! - the table-capacity, crossbar-latency and link-bandwidth sweeps
//!
//! Cells under the Table 1 configuration (the beyond-7 runs, and HMG vs
//! HMG-WB at 4 chiplets) go through `campaign::run` with the shared
//! `results/cache/`, so the HMG cells are cache hits after a campaign and
//! the beyond-7 tables come from the same Figure 8 renderer and summary
//! as `results/figures.txt`. The config-variant studies change the
//! configuration itself and run `chiplet_sim::experiments`.
//!
//! Usage: `cargo run --release -p cpelide-bench --bin studies`
//!
//! Honours `CPELIDE_SMOKE`, `CPELIDE_RESULTS_DIR`, `CPELIDE_JOBS` and
//! `CPELIDE_CACHE` like the campaign. Exits 1 when a cell failed.

use chiplet_coherence::ProtocolKind;
use chiplet_harness::fleet;
use chiplet_harness::json::Json;
use chiplet_sim::experiments::{self as ex, SweepPoint};
use chiplet_sim::metrics::geomean;
use chiplet_sim::{Cell, SimConfig};
use chiplet_workloads::{ReuseClass, Workload};
use cpelide_bench::campaign::{self, CellSpec, SuiteTag, PROTOCOLS};
use cpelide_bench::report::{pct, render_fig8};
use cpelide_bench::{effective_suite, pick, rule, smoke, write_report, write_text};
use std::fmt::Write as _;

/// The chiplet count of Table I and of every 4-chiplet study.
const CHIPLETS: usize = 4;

/// The workload the sensitivity sweeps run on (LUD: the largest gain).
const SWEEP_WORKLOAD: &str = "lud";

/// Runs Table 1 cells through the campaign runner and cache, exiting 1
/// on any failed cell; returns the campaign-format document.
fn run_cells(specs: &[CellSpec]) -> Json {
    let cache = campaign::cache_from_env();
    let outcome = campaign::run(specs, fleet::workers(), cache.as_ref(), None, false);
    if outcome.failed > 0 {
        for f in &outcome.failures {
            eprintln!("studies: failed cell: {f}");
        }
        std::process::exit(1);
    }
    outcome.report
}

fn main_specs(suite: &[Workload], protocols: &[ProtocolKind], counts: &[usize]) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for &n in counts {
        for w in suite {
            for &p in protocols {
                specs.push(CellSpec::new(Cell::new(w.clone(), p, n), SuiteTag::Main));
            }
        }
    }
    specs
}

fn cycles(row: &Json) -> f64 {
    row.get("metrics")
        .and_then(|m| m.get("cycles"))
        .and_then(Json::as_f64)
        .expect("a completed campaign row carries cycles")
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

fn sweep(text: &mut String, title: &str, unit: &str, points: &[SweepPoint]) -> Json {
    writeln!(text, "{title}").unwrap();
    writeln!(text, "{unit:<10} {:>10} {:>10}", "speedup", "sync ops").unwrap();
    for p in points {
        writeln!(
            text,
            "{:<10} {:>9.3}x {:>10}",
            p.value, p.cpelide_speedup, p.sync_ops
        )
        .unwrap();
    }
    text.push('\n');
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::object()
                    .with("value", p.value)
                    .with("cpelide_speedup", p.cpelide_speedup)
                    .with("sync_ops", p.sync_ops)
            })
            .collect(),
    )
}

fn main() {
    let suite = effective_suite();
    let mut text = String::new();
    let mut report = Json::object()
        .with("artifact", "studies")
        .with("mode", if smoke() { "smoke" } else { "full" });

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
    let doc = run_cells(&main_specs(
        &suite,
        &[ProtocolKind::Hmg, ProtocolKind::HmgWriteBack],
        &[CHIPLETS],
    ));
    let rows = doc
        .get("cells")
        .and_then(Json::as_arr)
        .expect("a campaign document carries its cells");
    let slowdown = geomean(
        rows.chunks_exact(2)
            .map(|pair| cycles(&pair[1]) / cycles(&pair[0])),
    ) - 1.0;
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
    let mut scaling = Vec::new();
    for (mimicked, overhead) in ex::scaling_study(&suite) {
        writeln!(
            text,
            "mimicked {mimicked:>2}-chiplet system: {} average slowdown",
            pct(overhead)
        )
        .unwrap();
        scaling.push(
            Json::object()
                .with("mimicked_chiplets", mimicked)
                .with("average_slowdown", overhead),
        );
    }
    text.push_str("(paper: ~1 % at 8 chiplets, ~2 % at 16)\n\n");
    report.set("scaling", Json::Arr(scaling));

    // ---- §VI driver-managed study ---------------------------------------
    let driver = ex::driver_study(&suite);
    let head = format!("{:<16} {:>10} {:>10}", "workload", "CP", "driver");
    writeln!(
        text,
        "§VI — driver-managed elision ({CHIPLETS} chiplets, speedup vs Baseline)\n{head}\n{}",
        rule(head.len())
    )
    .unwrap();
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
                    .map(|(name, cp, drv)| {
                        Json::object()
                            .with("workload", name.as_str())
                            .with("cp_speedup", *cp)
                            .with("driver_speedup", *drv)
                    })
                    .collect::<Vec<_>>(),
            ),
    );

    // ---- Beyond 7 chiplets ----------------------------------------------
    let counts = pick(vec![8usize, 12, 16], vec![8]);
    let doc = run_cells(&main_specs(&suite, &PROTOCOLS, &counts));
    text.push_str("Beyond the ROCm limit: real runs under strong scaling\n");
    for &n in &counts {
        let table = render_fig8(&doc, n as u64).unwrap_or_else(|e| panic!("{e}"));
        writeln!(text, "{table}").unwrap();
    }
    let fig8 = doc
        .get("summary")
        .and_then(|s| s.get("fig8"))
        .cloned()
        .unwrap_or(Json::Null);
    report.set("beyond7", fig8);

    // ---- Sensitivity sweeps ---------------------------------------------
    let name = if smoke() {
        suite[0].name()
    } else {
        SWEEP_WORKLOAD
    };
    let w = chiplet_workloads::lookup(name).unwrap_or_else(|e| panic!("{e}"));
    writeln!(text, "Sensitivity sweeps on {name} ({CHIPLETS} chiplets)").unwrap();
    let capacities = pick(vec![2usize, 4, 8, 16, 32, 64], vec![2, 64]);
    let latencies = pick(vec![115.0, 230.0, 460.0, 920.0, 1840.0], vec![230.0]);
    let bandwidths = pick(vec![192.0, 384.0, 768.0, 1536.0], vec![768.0]);
    let sensitivity = Json::object()
        .with("workload", name)
        .with(
            "table_capacity",
            sweep(
                &mut text,
                "Chiplet Coherence Table capacity (paper sizing: 64 entries)",
                "entries",
                &ex::table_capacity_sweep(&w, &capacities),
            ),
        )
        .with(
            "crossbar_latency",
            sweep(
                &mut text,
                "CP crossbar round-trip latency (paper: 230 cycles)",
                "cycles",
                &ex::crossbar_latency_sweep(&w, &latencies),
            ),
        )
        .with(
            "link_bandwidth",
            sweep(
                &mut text,
                "inter-chiplet link bandwidth (Table I: 768 GB/s)",
                "GB/s",
                &ex::link_bandwidth_sweep(&w, &bandwidths),
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
