//! `perfbench ab --seed <n>`: two A/B experiments on the timed runs'
//! method, printed as one JSON object on standard output. Not part of
//! the benchmark's runs; the README records their results.
//!
//! 1. **Calibration divisor vs the measured code's footprint.** Rounds
//!    of the calibration kernel ([`crate::calib`]) timed right after
//!    writing a 1, 16 or 256 MiB buffer, under each [`Prep`]. Where the
//!    preparation does its job, the round time does not depend on the
//!    buffer.
//! 2. **Real cells.** Every cell of one seeded sweep-regular pass runs
//!    three ways, in rotating order, each followed by an unprepared and
//!    then a settled calibration round: `trim` (heap trimmed and `VmHWM`
//!    reset first, as the timed run does), `notrim` (`VmHWM` reset only),
//!    and `footprint` (as `trim`, then 256 MiB written inside the timed
//!    interval: a slower program with a larger footprint). `notrim / trim`
//!    is the trim's cost; `footprint / trim` measured and calibrated must
//!    agree if the divisor ignores what the program leaves in the caches.

use crate::calib::{Calibrator, Prep};
use crate::select;
use crate::stats::{median, peak_rss_mib, reset_peak_rss, rss_mib, trim_heap};
use chiplet_harness::json::Json;
use cpelide_bench::campaign;
use std::time::Instant;

/// Buffer sizes written before the rounds of experiment 1, MiB.
const BUFFERS_MIB: [usize; 3] = [1, 16, 256];
const PREPS: [(Prep, &str); 3] = [
    (Prep::Settle, "settle"),
    (Prep::Walk, "walk"),
    (Prep::Nothing, "nothing"),
];
/// Rounds per condition in experiment 1.
const REPS: usize = 30;
/// The larger footprint of experiment 2.
const FOOTPRINT: usize = 256 << 20;

/// Writes one byte of every host cache line of `buf`.
fn scribble(buf: &mut [u8], value: u8) {
    for line in buf.chunks_mut(64) {
        line[0] = value;
    }
    std::hint::black_box(&buf);
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Experiment 1: mean round time (ms) per (preparation, buffer), and per
/// preparation the 256 MiB / 1 MiB ratio.
fn divisor_vs_footprint(cal: &mut Calibrator) -> Json {
    let mut buffers: Vec<Vec<u8>> = BUFFERS_MIB.iter().map(|m| vec![1u8; m << 20]).collect();
    let conds: Vec<(usize, usize)> = (0..PREPS.len())
        .flat_map(|p| (0..BUFFERS_MIB.len()).map(move |b| (p, b)))
        .collect();
    let mut times = vec![Vec::new(); conds.len()];
    for rep in 0..REPS {
        for k in 0..conds.len() {
            let c = (rep + k) % conds.len();
            let (p, b) = conds[c];
            scribble(&mut buffers[b], rep as u8);
            times[c].push(cal.time_round(PREPS[p].0) * 1e3);
        }
    }
    let mut out = Json::object().with("rounds_per_condition", REPS);
    for (p, (_, name)) in PREPS.iter().enumerate() {
        let mut row = Json::object();
        for (b, mib) in BUFFERS_MIB.iter().enumerate() {
            row.set(
                &format!("after_{mib}mib_ms"),
                mean(&times[p * BUFFERS_MIB.len() + b]),
            );
        }
        let first = mean(&times[p * BUFFERS_MIB.len()]);
        let last = mean(&times[(p + 1) * BUFFERS_MIB.len() - 1]);
        row.set("ratio_256_over_1", last / first);
        out.set(name, row);
    }
    out
}

/// Experiment 2 over the first pass of `seed`'s sweep-regular draw.
fn real_cells(seed: u64, cal: &mut Calibrator) -> Result<Json, String> {
    let pass = select::sweep_passes(&campaign::cells(), false, seed, 1)
        .pop()
        .unwrap_or_default();
    let mut large = vec![1u8; FOOTPRINT];
    // Per variant (trim, notrim, footprint): total time, rounds after
    // (settled), rounds after (unprepared), per-cell peak increments.
    let mut total = [0.0f64; 3];
    let mut settled = [Vec::new(), Vec::new(), Vec::new()];
    let mut unprepared = [Vec::new(), Vec::new(), Vec::new()];
    let mut peaks = [Vec::new(), Vec::new(), Vec::new()];
    for (i, spec) in pass.iter().enumerate() {
        for k in 0..3 {
            let v = (i + k) % 3;
            if v != 1 {
                trim_heap();
            }
            reset_peak_rss()?;
            let base = rss_mib()?;
            let t = Instant::now();
            let out = campaign::run(std::slice::from_ref(spec), 1, None, None, false);
            if v == 2 {
                scribble(&mut large, i as u8);
            }
            total[v] += t.elapsed().as_secs_f64();
            peaks[v].push(peak_rss_mib()? - base);
            if out.simulated != 1 {
                return Err(format!("{} was not simulated", spec.id()));
            }
            unprepared[v].push(cal.time_round(Prep::Nothing) * 1e3);
            settled[v].push(cal.time_round(Prep::Settle) * 1e3);
        }
    }
    let raw = total[2] / total[0];
    Ok(Json::object()
        .with("cells", pass.len())
        .with("trim_s", total[0])
        .with("notrim_s", total[1])
        .with("notrim_over_trim", total[1] / total[0])
        .with("trim_peak_rss_mb_median", median(&peaks[0]))
        .with("notrim_peak_rss_mb_median", median(&peaks[1]))
        .with("footprint_s", total[2])
        .with("footprint_over_trim_measured", raw)
        .with(
            "footprint_over_trim_calibrated_settle",
            raw * mean(&settled[0]) / mean(&settled[2]),
        )
        .with(
            "footprint_over_trim_calibrated_nothing",
            raw * mean(&unprepared[0]) / mean(&unprepared[2]),
        )
        .with("settle_round_ms_after_trim", mean(&settled[0]))
        .with("settle_round_ms_after_notrim", mean(&settled[1]))
        .with("settle_round_ms_after_footprint", mean(&settled[2]))
        .with("nothing_round_ms_after_trim", mean(&unprepared[0]))
        .with("nothing_round_ms_after_footprint", mean(&unprepared[2])))
}

/// Runs both experiments.
///
/// # Errors
///
/// A cell that was not simulated, or an unreadable `/proc`.
pub fn run(seed: u64) -> Result<Json, String> {
    std::env::remove_var("CPELIDE_SMOKE");
    let mut cal = Calibrator::new(Prep::Settle);
    let divisor = divisor_vs_footprint(&mut cal);
    let cells = real_cells(seed, &mut cal)?;
    Ok(Json::object()
        .with("seed", seed)
        .with("divisor_vs_footprint", divisor)
        .with("real_cells", cells))
}
