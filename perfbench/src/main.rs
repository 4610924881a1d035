//! The repository benchmark: end-to-end and per-layer host-time metrics of
//! the CPElide simulator (`campaign::run`) and its campaign daemon
//! (`serve::spawn`).
//!
//! ```text
//! perfbench --workload <sweep-regular|sweep-irregular|serve-warm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`, which
//! builds this package first). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured through the
//! public entry points only; with `--trace 1` they are the per-layer set,
//! measured by the outside-in replay in [`replay`]. Every produced row is
//! compared byte-for-byte with the committed `results/campaign.json`.
//!
//! `perfbench ab --seed <n>` runs the A/B experiments of [`ab`] instead.

mod ab;
mod calib;
mod gate;
mod replay;
mod select;
mod serve;
mod stats;
mod sweep;
mod traced;

use chiplet_harness::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold-cache campaign sweep over cells whose workloads use only
    /// contiguous access patterns.
    SweepRegular,
    /// Cold-cache campaign sweep over cells whose workloads have at least
    /// one `Irregular` access pattern.
    SweepIrregular,
    /// Warm-cache closed loop against the in-process daemon.
    ServeWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep-regular" => Some(Workload::SweepRegular),
            "sweep-irregular" => Some(Workload::SweepIrregular),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Workload::SweepRegular => "sweep-regular",
            Workload::SweepIrregular => "sweep-irregular",
            Workload::ServeWarm => "serve-warm",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(root: &Path, workload: Workload) -> std::io::Result<WorkDir> {
        let path = root.join(".perfbench-work").join(format!(
            "{}-{}",
            workload.label(),
            std::process::id()
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// A fresh, empty subdirectory (removed first if a previous set-up
    /// repetition left it behind).
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still owns a sibling directory).
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One metric value with its unit, as printed in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a timed or traced run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Json::object();
    for m in &outcome.metrics {
        metrics.set(
            &m.name,
            Json::object().with("value", m.value).with("unit", m.unit),
        );
    }
    Json::object()
        .with("correct", outcome.correct)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics)
        .render_compact()
}

fn run(args: Args) -> Result<Outcome, String> {
    // The campaign enumeration shrinks under smoke mode and the daemon's
    // cache can be switched off; neither may leak in from the caller.
    std::env::remove_var("CPELIDE_SMOKE");
    std::env::remove_var("CPELIDE_CACHE");
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let work = WorkDir::create(&root, args.workload).map_err(|e| format!("work dir: {e}"))?;
    let reference_path = root.join("results").join("campaign.json");
    match (args.workload, args.trace) {
        (Workload::ServeWarm, false) => serve::timed(&args, &reference_path, &work),
        (_, false) => sweep::timed(&args, &reference_path, &work),
        (_, true) => traced::run(&args, &reference_path, &work),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, flag, seed] = argv.as_slice() {
        if cmd == "ab" && flag == "--seed" {
            let report = seed
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))
                .and_then(ab::run);
            return match report {
                Ok(json) => {
                    println!("{}", json.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
