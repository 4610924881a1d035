//! `sweep-regular` and `sweep-irregular`: cold-cache campaign sweeps
//! through `campaign::run` with one worker and a fresh, empty `DiskCache`
//! per pass. Every cell is simulated; the cache layer only writes.

use crate::calib::{self, Calibrator, Prep, SetupTime};
use crate::gate::{self, Reference};
use crate::select;
use crate::stats::{median, peak_rss_mib, reset_peak_rss, rss_mib, trim_heap};
use crate::{metric, Args, Outcome, WorkDir, Workload};
use chiplet_harness::fleet::DiskCache;
use chiplet_harness::json::Json;
use chiplet_sim::phase::SimPhase;
use cpelide_bench::campaign::{self, CellSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// Timed cells per calibration round: a settled round costs about 25 ms,
/// and the run's mean round needs no more samples than this gives.
const CELLS_PER_ROUND: u64 = 2;

/// Host seconds one stratified pass takes on the reference machine (a
/// 2-vCPU VM); a run makes `round(seconds / NOMINAL_PASS_S)` passes, at
/// least one, so it lasts about `--seconds`.
fn nominal_pass_s(workload: Workload) -> f64 {
    match workload {
        Workload::SweepIrregular => 10.0,
        _ => 18.0,
    }
}

/// Everything a sweep run sets up before its timed phase.
pub struct SweepSetup {
    pub reference: Reference,
    pub passes: Vec<Vec<CellSpec>>,
    /// One fresh, empty cache directory per pass.
    pub cache_dirs: Vec<PathBuf>,
}

/// Loads the reference, enumerates the campaign, draws the seeded passes
/// and creates one empty cache directory per pass, named after `tag`.
///
/// # Errors
///
/// Reference or file-system failures.
pub fn setup(
    args: &Args,
    reference_path: &Path,
    work: &WorkDir,
    tag: &str,
) -> Result<SweepSetup, String> {
    let reference = Reference::load(reference_path)?;
    let cells = campaign::cells();
    let count = (args.seconds / nominal_pass_s(args.workload))
        .round()
        .max(1.0) as usize;
    let irregular = args.workload == Workload::SweepIrregular;
    let passes = select::sweep_passes(&cells, irregular, args.seed, count);
    let cache_dirs = (0..passes.len())
        .map(|j| work.fresh(&format!("cache-{tag}-{j}")))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cache dir: {e}"))?;
    Ok(SweepSetup {
        reference,
        passes,
        cache_dirs,
    })
}

/// Runs `setup` [`SETUP_REPS`] times ([`calib::repeat_setup`]).
///
/// # Errors
///
/// The first set-up failure.
pub fn repeated_setup(
    args: &Args,
    reference_path: &Path,
    work: &WorkDir,
) -> Result<(SweepSetup, SetupTime), String> {
    calib::repeat_setup(SETUP_REPS, || setup(args, reference_path, work, "run"))
}

/// The timed run. Each cell goes through its own `campaign::run` call
/// (one worker, the pass's cache), and every [`CELLS_PER_ROUND`]th cell by
/// a calibration round; every reported time is scaled by the run's
/// calibration ([`crate::calib`]). Freed heap is returned and the peak-RSS
/// high-water mark reset before each cell, so `peak_rss_mb` is the median
/// over cells of the memory a cell adds at its peak. (The process-wide
/// peak would instead be set by whichever heavy HMG cell the seed drew.)
///
/// # Errors
///
/// Set-up failures. Wrong rows are not errors: they count as failed ops.
pub fn timed(args: &Args, reference_path: &Path, work: &WorkDir) -> Result<Outcome, String> {
    let (setup, setup_time) = repeated_setup(args, reference_path, work)?;
    let mut calibrator = Calibrator::new(Prep::Settle);
    let mut pass_ms = Vec::new();
    let mut cell_rss = Vec::new();
    let mut accesses = 0u64;
    let (mut attempted, mut ok) = (0u64, 0u64);
    let mut rows: Vec<Json> = Vec::new();
    let mut correct = true;
    for (pass, dir) in setup.passes.iter().zip(&setup.cache_dirs) {
        let cache = DiskCache::new(dir);
        let mut pass_s = 0.0f64;
        for spec in pass {
            trim_heap();
            reset_peak_rss()?;
            let base = rss_mib()?;
            let t = Instant::now();
            let out = campaign::run(std::slice::from_ref(spec), 1, Some(&cache), None, false);
            pass_s += t.elapsed().as_secs_f64();
            cell_rss.push(peak_rss_mib()? - base);
            attempted += 1;
            if attempted % CELLS_PER_ROUND == 0 {
                calibrator.round();
            }
            if out.simulated != 1 {
                eprintln!("perfbench: {} was not simulated", spec.id());
                correct = false;
            }
            accesses += out.phases.get(SimPhase::AccessReplay).ops;
            let row = out
                .report
                .get("cells")
                .and_then(Json::as_arr)
                .and_then(<[Json]>::first)
                .cloned()
                .unwrap_or(Json::Null);
            if setup.reference.matches(&row) {
                ok += 1;
            } else {
                eprintln!(
                    "perfbench: row for {} differs from the reference",
                    spec.id()
                );
            }
            rows.push(row);
        }
        pass_ms.push(pass_s * 1e3);
        if cache.counts().hits != 0 {
            eprintln!("perfbench: a cold pass hit the cache");
            correct = false;
        }
    }
    gate::self_test(&setup.reference, &rows)?;
    let raw_s = pass_ms.iter().sum::<f64>() / 1e3;
    eprintln!(
        "perfbench: {} passes of {} cells, measured pass ms {:?}, calibration round {:.3} ms; \
         setup measured {:.4} s, calibration round {:.3} ms",
        pass_ms.len(),
        setup.passes.first().map_or(0, Vec::len),
        pass_ms,
        calibrator.mean_round_s() * 1e3,
        setup_time.measured_s,
        setup_time.round_s * 1e3
    );
    let timed_s = calibrator.scale(raw_s);
    let failed = attempted - ok;
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("cells_per_s", ok as f64 / timed_s, "1/s"),
            metric("accesses_per_s", accesses as f64 / timed_s, "1/s"),
            // The run's whole sweep is one request: p50 = p90 = its time.
            metric("req_ms_p50", timed_s * 1e3, "ms"),
            metric("req_ms_p90", timed_s * 1e3, "ms"),
            metric("setup_s", setup_time.calibrated_s, "s"),
            metric("peak_rss_mb", median(&cell_rss), "MiB"),
            metric("ok_ratio", ok as f64 / attempted.max(1) as f64, "ratio"),
        ],
    })
}
