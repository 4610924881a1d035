//! The contention calibrator. On a shared machine, host time drifts by
//! 15–40% between runs minutes apart as neighbours contend for the memory
//! hierarchy (see `perfbench/README.md`). A fixed kernel shaped like the
//! simulator's hot loop (tag lookups and LRU replacement in a 16-way
//! set-associative table of 8 MiB) is timed in rounds between the
//! measured intervals of a run, and every time the run reports is scaled
//! by the mean round time of the same phase of the run:
//!
//! ```text
//! reported = measured * REFERENCE_S / mean(round times of this phase)
//! ```
//!
//! Before each timed round the calibrator puts the caches in a fixed state
//! (untimed, [`Prep`]): it writes a 128 MiB settle buffer and then reads
//! its whole table, so a round starts from the same cache state whatever
//! the measured code left behind and the divisor does not move with the
//! program's memory footprint (`perfbench ab` measures this; see the
//! README). The kernel is benchmark code, the same on every commit.

use std::time::Instant;

/// A typical round time on the reference machine (a 2-vCPU VM), s: the
/// scale that makes calibrated times read like measured ones there.
pub const REFERENCE_S: f64 = 0.0069;
/// Table entries (`u64`: line tag in the high half, LRU stamp in the low).
const ENTRIES: usize = 1 << 20;
const WAYS: usize = 16;
/// Lookups per round.
const LOOKUPS: u64 = 200_000;
/// Distinct lines the lookups draw from (4x the table's capacity).
const LINES: u64 = 1 << 22;
/// `u64` entries per 64-byte host cache line.
const LINE_WORDS: usize = 8;
/// The buffer written before a [`Prep::Settle`] round: large enough that
/// what the measured code left in the caches no longer shows in the round
/// time (64 MiB was not; see the README).
const SETTLE_BYTES: usize = 128 << 20;

/// What runs, untimed, before each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prep {
    /// Write the settle buffer, then read the table: the round's cache
    /// state is the calibrator's own, whatever ran before.
    Settle,
    /// Read the table only. For a measured phase whose warm state a
    /// settle write would evict (serve-warm's daemon).
    Walk,
    /// Nothing: the A/B experiment's control.
    Nothing,
}

/// The calibration kernel, its table, and the round times so far.
pub struct Calibrator {
    table: Vec<u64>,
    /// Empty unless the calibrator was made for [`Prep::Settle`].
    settle: Vec<u8>,
    prep: Prep,
    rounds: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose recorded rounds are prepared with `prep`. Its
    /// table has already been through one (unrecorded) round, so every
    /// recorded round sees the same table contents.
    pub fn new(prep: Prep) -> Calibrator {
        let settle = if prep == Prep::Settle {
            vec![1; SETTLE_BYTES]
        } else {
            Vec::new()
        };
        let mut c = Calibrator {
            table: vec![0; ENTRIES],
            settle,
            prep,
            rounds: Vec::new(),
        };
        c.lookups();
        c
    }

    /// Writes one byte of every host cache line of the settle buffer.
    fn settle(&mut self) {
        for line in self.settle.chunks_mut(64) {
            line[0] = line[0].wrapping_add(1);
        }
        std::hint::black_box(&self.settle);
    }

    /// Reads one word of every host cache line of the table.
    fn walk(&self) {
        let mut sum = 0u64;
        for chunk in self.table.chunks(LINE_WORDS) {
            sum = sum.wrapping_add(chunk[0]);
        }
        std::hint::black_box(sum);
    }

    /// The same lookup sequence every round, against the table the
    /// previous rounds left.
    fn lookups(&mut self) {
        let sets = (ENTRIES / WAYS) as u64;
        let mut rng: u64 = 0x00AB_CDEF;
        for stamp in 0..LOOKUPS {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let line = (rng % LINES) | 1;
            let base = (line % sets) as usize * WAYS;
            let ways = &mut self.table[base..base + WAYS];
            let entry = (line << 32) | stamp;
            let slot = ways
                .iter()
                .position(|&w| w >> 32 == line)
                .unwrap_or_else(|| {
                    (0..WAYS)
                        .min_by_key(|&k| ways[k] & 0xFFFF_FFFF)
                        .unwrap_or(0)
                });
            ways[slot] = entry;
        }
        std::hint::black_box(&self.table);
    }

    /// One round's host time in seconds, prepared with `prep`, not
    /// recorded. [`Prep::Settle`] writes nothing on a calibrator made for
    /// another preparation.
    pub fn time_round(&mut self, prep: Prep) -> f64 {
        if prep == Prep::Settle {
            self.settle();
        }
        if prep != Prep::Nothing {
            self.walk();
        }
        let start = Instant::now();
        self.lookups();
        start.elapsed().as_secs_f64()
    }

    /// Prepares, runs, times and records one round.
    pub fn round(&mut self) {
        let t = self.time_round(self.prep);
        self.rounds.push(t);
    }

    /// The calibrator's own memory (table and settle buffer), MiB.
    pub fn footprint_mib(&self) -> f64 {
        (self.table.len() * 8 + self.settle.len()) as f64 / f64::from(1 << 20)
    }

    /// The mean recorded round time, s.
    pub fn mean_round_s(&self) -> f64 {
        self.rounds.iter().sum::<f64>() / self.rounds.len().max(1) as f64
    }

    /// `seconds` measured in this phase, scaled to the reference contention.
    pub fn scale(&self, seconds: f64) -> f64 {
        seconds * REFERENCE_S / self.mean_round_s()
    }
}

/// Calibration rounds in a set-up phase, at least: one or more after each
/// repetition.
const SETUP_ROUNDS: usize = 20;

/// What [`repeat_setup`] measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Median measured set-up time, s.
    pub measured_s: f64,
    /// The same, scaled by the rounds run between the repetitions, s.
    pub calibrated_s: f64,
    /// Mean of those rounds, s.
    pub round_s: f64,
}

/// Runs `setup` `reps` times (dropping each result before the next
/// repetition starts), with [`Prep::Settle`] calibration rounds of a
/// calibrator of its own after each (enough for [`SETUP_ROUNDS`] in all),
/// and returns the last result with the median time. The set-up is scaled by its own rounds, not by the timed
/// phase's: the machine's contention changes within a run.
///
/// # Errors
///
/// The first set-up failure.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let mut calibrator = Calibrator::new(Prep::Settle);
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<T> = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
        for _ in 0..SETUP_ROUNDS.div_ceil(reps) {
            calibrator.round();
        }
    }
    let measured_s = crate::stats::median(&times);
    let time = SetupTime {
        measured_s,
        calibrated_s: calibrator.scale(measured_s),
        round_s: calibrator.mean_round_s(),
    };
    Ok((last.ok_or("no set-up ran")?, time))
}
