//! Regenerates the paper-vs-measured blocks of EXPERIMENTS.md and the
//! per-workload figure tables of `results/figures.txt` from
//! `results/campaign.json` (see `cpelide_bench::report` for the block
//! definitions and marker syntax).
//!
//! Usage:
//! - `cargo run --release -p cpelide-bench --bin report` — rewrite the
//!   generated blocks in place and re-render `figures.txt`.
//! - `cargo run --release -p cpelide-bench --bin report -- --check` — exit
//!   1 if the committed document or `figures.txt` is out of sync with the
//!   committed campaign results, or the campaign's stored `summary` is not
//!   the one `campaign::summarize` derives from its rows (the CI
//!   docs-drift gate), touching nothing. Without `--check`, a summary
//!   that disagrees with the rows fails the run before anything is
//!   written.
//! - `cargo run --release -p cpelide-bench --bin report -- --obs` — print
//!   the host-observability summary (phase breakdown, cache counters,
//!   fleet utilization) from `results/campaign.prom` to stdout, plus the
//!   elision-headroom summary when `results/CHECK_oracle.json` exists
//!   (silently skipped otherwise). Nothing is written: the fleet half is
//!   wall-clock and host-specific, so it never lands in EXPERIMENTS.md.
//!
//! Environment: `CPELIDE_RESULTS_DIR` locates `campaign.json`,
//! `campaign.prom`, `CHECK_oracle.json` and `figures.txt`;
//! `CPELIDE_EXPERIMENTS` overrides the EXPERIMENTS.md path (tests).
//! Exit codes: 0 in sync / regenerated, 1 drift detected, 2 usage or I/O.

use chiplet_harness::json;
use cpelide_bench::campaign::summarize;
use cpelide_bench::report::{
    campaign_path, experiments_path, figures_path, generate_blocks, obs_section,
    oracle_headroom_section, render_figures, splice,
};
use std::path::PathBuf;

fn fail(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--obs") {
        let prom_path = cpelide_bench::results_dir().join("campaign.prom");
        let prom = std::fs::read_to_string(&prom_path).unwrap_or_else(|e| {
            fail(&format!(
                "cannot read {} ({e}); run `--bin campaign` first",
                prom_path.display()
            ))
        });
        let section = obs_section(&prom).unwrap_or_else(|e| fail(&e));
        print!("{section}");
        // The oracle census comes from chiplet-check, not the campaign:
        // summarize it when present, stay silent when absent (the CI
        // telemetry smoke runs --obs in a scratch results dir that only
        // the campaign populated).
        let oracle_path = cpelide_bench::results_dir().join("CHECK_oracle.json");
        if let Ok(text) = std::fs::read_to_string(&oracle_path) {
            let doc = json::parse(&text).unwrap_or_else(|e| {
                fail(&format!("{} is not valid JSON: {e}", oracle_path.display()))
            });
            let section = oracle_headroom_section(&doc).unwrap_or_else(|e| fail(&e));
            print!("\n{section}");
        }
        std::process::exit(0);
    }
    let check = args.iter().any(|a| a == "--check");

    let campaign_file = campaign_path();
    let campaign_text = std::fs::read_to_string(&campaign_file).unwrap_or_else(|e| {
        fail(&format!(
            "cannot read {} ({e}); run `--bin campaign` first",
            campaign_file.display()
        ))
    });
    let campaign = json::parse(&campaign_text).unwrap_or_else(|e| {
        fail(&format!(
            "{} is not valid JSON: {e}",
            campaign_file.display()
        ))
    });
    let blocks = generate_blocks(&campaign).unwrap_or_else(|e| fail(&e));
    let doc_path = experiments_path();
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {} ({e})", doc_path.display())));
    let updated_doc = splice(&doc, &blocks).unwrap_or_else(|e| fail(&e));
    let figures = render_figures(&campaign).unwrap_or_else(|e| fail(&e));

    // Every block above reads the stored summary, so it must be the one
    // the rows derive.
    let rows = campaign
        .get("cells")
        .and_then(json::Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{} has no cells array", campaign_file.display())));
    let derived = summarize(rows).unwrap_or_else(|e| fail(&e)).render();
    let mut drifted = campaign.get("summary").map(json::Json::render) != Some(derived);
    if drifted {
        eprintln!(
            "report: the summary in {} is OUT OF SYNC with its rows; \
             re-run `cargo run --release -p cpelide-bench --bin campaign`",
            campaign_file.display()
        );
        if !check {
            std::process::exit(1);
        }
    } else {
        println!(
            "report: the summary in {} is in sync with its rows",
            campaign_file.display()
        );
    }

    // Each generated file with its fresh content; a missing figures.txt
    // reads as empty, so it counts as drift.
    let outputs: [(PathBuf, String, String); 2] = [
        (doc_path, doc, updated_doc),
        (
            figures_path(),
            std::fs::read_to_string(figures_path()).unwrap_or_default(),
            figures,
        ),
    ];
    for (path, committed, fresh) in &outputs {
        if committed == fresh {
            println!(
                "report: {} is in sync with {}",
                path.display(),
                campaign_file.display()
            );
        } else if check {
            eprintln!(
                "report: {} is OUT OF SYNC with {}; \
                 run `cargo run --release -p cpelide-bench --bin report` and commit",
                path.display(),
                campaign_file.display()
            );
            drifted = true;
        } else {
            std::fs::write(path, fresh)
                .unwrap_or_else(|e| fail(&format!("cannot write {} ({e})", path.display())));
            println!("report: regenerated {}", path.display());
        }
    }
    if drifted {
        std::process::exit(1);
    }
}
