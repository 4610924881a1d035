//! The `chiplet-check` CLI.
//!
//! ```text
//! cargo run --release -p chiplet-check -- --workspace            # lint the tree
//! cargo run --release -p chiplet-check -- --model-check          # full census (both engines)
//! cargo run --release -p chiplet-check -- --model-check --engine dpor
//! cargo run --release -p chiplet-check -- --model-check --check  # census drift gate
//! cargo run --release -p chiplet-check -- --oracle               # static elision oracle
//! cargo run --release -p chiplet-check -- --oracle --check       # oracle drift gate
//! cargo run --release -p chiplet-check                           # all three engines
//! ```
//!
//! Exits 0 when clean, 1 on any finding, invariant violation, soundness
//! violation, or artifact drift, 2 on usage or I/O errors. `--json`
//! prints the lint report as validated JSON instead of human-readable
//! lines; the model checker writes its census to
//! `results/CHECK_model.json` and the elision oracle writes its census
//! to `results/CHECK_oracle.json` (override the directory with
//! `CPELIDE_RESULTS_DIR`). `--engine {bfs,dpor}` restricts the
//! model-check plan to one engine and prints without writing (a partial
//! census must never overwrite the committed artifact); `--check`
//! regenerates the selected censuses and fails if they differ
//! byte-for-byte from the committed artifacts instead of overwriting
//! them (`--check` and `--engine` are mutually exclusive).

use chiplet_check::model;
use chiplet_check::oracle;
use chiplet_check::rules::RULES;
use chiplet_check::walk;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: chiplet-check [--workspace] [--model-check] [--oracle] \
                     [--engine bfs|dpor] [--check] [--json] [--root <dir>] [--rules]";

fn main() -> ExitCode {
    let mut lint = false;
    let mut model_check = false;
    let mut oracle_check = false;
    let mut json = false;
    let mut drift_check = false;
    let mut engine: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => lint = true,
            "--model-check" => model_check = true,
            "--oracle" => oracle_check = true,
            "--json" => json = true,
            "--check" => drift_check = true,
            "--engine" => match args.next().as_deref() {
                Some(e @ ("bfs" | "dpor")) => engine = Some(e.to_string()),
                Some(other) => {
                    eprintln!("unknown engine `{other}` (expected bfs or dpor)\n{USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--engine needs a name (bfs or dpor)\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--rules" => {
                for r in RULES {
                    println!("{:<14} {:<44} {}", r.id, r.scope, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !lint && !model_check && !oracle_check {
        lint = true;
        model_check = true;
        oracle_check = true;
    }
    if drift_check && engine.is_some() {
        eprintln!("--check compares the full census; it cannot be combined with --engine\n{USAGE}");
        return ExitCode::from(2);
    }
    if oracle_check && engine.is_some() {
        eprintln!(
            "--engine restricts the model checker; it cannot be combined with --oracle\n{USAGE}"
        );
        return ExitCode::from(2);
    }

    let mut failed = false;

    if lint {
        let root = root.unwrap_or_else(walk::workspace_root);
        let report = match walk::lint_tree(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("chiplet-check: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        if json {
            let text = walk::lint_report_json(&report).render();
            if let Err(e) = chiplet_harness::json::parse(&text) {
                eprintln!("chiplet-check: internal error: report JSON invalid: {e}");
                return ExitCode::from(2);
            }
            println!("{text}");
        } else {
            for f in &report.findings {
                println!("{f}");
            }
            println!(
                "chiplet-check: {} file(s) scanned, {} finding(s)",
                report.files_scanned,
                report.findings.len()
            );
        }
        failed |= !report.clean();
    }

    if model_check {
        let (censuses, census) = model::run(engine.as_deref());
        for c in &censuses {
            println!(
                "model-check [{}] n={} arrays={}{}: {} states, {} transitions \
                 ({} actions), depth {}{}, {} fully elided, {} acquires, \
                 {} releases, {} sleep-set prune(s), {} violation(s)",
                c.engine,
                c.chiplets,
                c.arrays,
                if c.racy { " racy" } else { "" },
                c.states,
                c.transitions,
                c.actions,
                c.max_depth,
                if c.depth_cap > 0 {
                    format!(" (cap {})", c.depth_cap)
                } else {
                    String::new()
                },
                c.elided_transitions,
                c.acquires_issued,
                c.releases_issued,
                c.sleep_skips + c.node_prunes,
                c.violation_count
            );
            for v in &c.violations {
                eprintln!("  violation: {v}");
            }
            failed |= c.violation_count != 0;
        }
        let text = census.render();
        if let Err(e) = chiplet_harness::json::parse(&text) {
            eprintln!("chiplet-check: internal error: census JSON invalid: {e}");
            return ExitCode::from(2);
        }
        let dir = std::env::var_os("CPELIDE_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| walk::workspace_root().join("results"));
        let path = dir.join("CHECK_model.json");
        if engine.is_some() {
            // A single-engine run is a partial census: never overwrite
            // the committed full artifact.
            println!("model-check: partial census (--engine) not written");
        } else if drift_check {
            // Drift gate: the regenerated census must match the committed
            // artifact byte-for-byte (re-bless by rerunning without
            // --check and committing the result).
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == text => {
                    println!("model-check: census matches {}", path.display());
                }
                Ok(_) => {
                    eprintln!(
                        "chiplet-check: census drift: regenerated census differs \
                         from {}; rerun --model-check and commit the new artifact",
                        path.display()
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("chiplet-check: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("chiplet-check: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("chiplet-check: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("model-check: census written to {}", path.display());
        }
    }

    if oracle_check {
        let report = oracle::run();
        for w in &report.workloads {
            for s in &w.static_cells {
                println!(
                    "oracle [{}] n={}: {} boundaries: {} must-sync, {} may-elide, {} unknown",
                    w.name, s.chiplets, s.boundaries, s.must_sync, s.may_elide, s.unknown
                );
                for d in &s.diagnostics {
                    println!("  {d}");
                }
            }
            for d in &w.diff_cells {
                println!(
                    "oracle [{}] {} n={}: {} boundaries, {} synced, {} elided, \
                     {} violation(s), {} elidable-but-synced ({:.0} sync cycles headroom)",
                    w.name,
                    d.protocol.label(),
                    d.chiplets,
                    d.boundaries,
                    d.synced,
                    d.elided,
                    d.violations.len(),
                    d.headroom_boundaries,
                    d.headroom_sync_cycles
                );
                for v in &d.violations {
                    eprintln!("  violation: {v}");
                }
            }
        }
        failed |= report.violation_count() != 0;
        let text = report.to_json().render();
        if let Err(e) = chiplet_harness::json::parse(&text) {
            eprintln!("chiplet-check: internal error: oracle JSON invalid: {e}");
            return ExitCode::from(2);
        }
        let dir = std::env::var_os("CPELIDE_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| walk::workspace_root().join("results"));
        let path = dir.join("CHECK_oracle.json");
        if drift_check {
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == text => {
                    println!("oracle: census matches {}", path.display());
                }
                Ok(_) => {
                    eprintln!(
                        "chiplet-check: oracle drift: regenerated census differs \
                         from {}; rerun --oracle and commit the new artifact",
                        path.display()
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("chiplet-check: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("chiplet-check: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("chiplet-check: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("oracle: census written to {}", path.display());
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
