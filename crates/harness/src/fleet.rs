//! Deterministic host-side fan-out: a zero-dependency thread pool with
//! ordered result commit, plus the content-hash fingerprint and on-disk
//! result cache the campaign runner builds on.
//!
//! The fleet parallelizes *independent* jobs on the host — simulator runs,
//! never simulated state. Three properties make it safe to drop into a
//! byte-identical-output pipeline (DESIGN.md §11):
//!
//! 1. **Ordered commit.** [`parallel_map`] writes each job's result into a
//!    slot keyed by submission index and hands the slots back in
//!    submission order, so output is independent of completion order and
//!    therefore of the worker count: `CPELIDE_JOBS=1` and `=8` produce
//!    identical result vectors.
//! 2. **One shared claim cursor.** Every worker runs the same loop: claim
//!    the next unclaimed submission index from one atomic counter, run
//!    that job, repeat. A worker that finishes early simply claims more,
//!    so a few heavyweight jobs (Gaussian's 510 kernels) cannot strand the
//!    rest of the fleet behind one thread. Claim order affects only *when*
//!    a job runs, never where its result lands. One worker runs the loop
//!    inline on the caller's thread.
//! 3. **Poison containment.** A panicking job is caught and reported as
//!    that job's [`JobFailure`]; the other workers keep claiming, the pool
//!    always joins, and the caller decides whether a failed cell is fatal.
//!
//! Jobs must not capture shared mutable state (`Rc`, `RefCell`, `Mutex`,
//! ...): result order is fixed but *execution* order is not, so any
//! cross-job mutation would be a determinism hole. The `fleet-capture`
//! lint in `chiplet-check` enforces this at fleet call sites.
//!
//! [`Fingerprint`] (FNV-1a, 64-bit) and [`DiskCache`] support the
//! campaign runner's incremental re-runs: a cell whose config+code
//! fingerprint already has a cached result is not re-simulated.

use chiplet_obs::Histogram;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How many fleet workers to use: `CPELIDE_JOBS` when set (clamped to at
/// least 1), else 1 under `CPELIDE_SMOKE=1` (smoke runs must be cheap and
/// boringly reproducible), else the host's available parallelism.
pub fn workers() -> usize {
    if let Some(v) = std::env::var_os("CPELIDE_JOBS") {
        return v
            .to_string_lossy()
            .trim()
            .parse::<usize>()
            .map(|n| n.max(1))
            .unwrap_or(1);
    }
    if std::env::var_os("CPELIDE_SMOKE").is_some_and(|v| v == "1") {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One job's panic, caught by the pool: the submission index of the job,
/// a caller-supplied label (the campaign passes the cell id, so failures
/// read `square:Baseline:4` rather than an opaque number), and the
/// stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// Caller-supplied job label (empty when the caller provided none).
    pub label: String,
    /// The panic payload (message for `&str`/`String` payloads).
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.label.is_empty() {
            write!(f, "job {} panicked: {}", self.index, self.message)
        } else {
            write!(
                f,
                "job {} ({}) panicked: {}",
                self.index, self.label, self.message
            )
        }
    }
}

/// What one fleet worker observed over a [`parallel_map_telemetry`] run.
/// Wall-clock fields (`busy_us`, latency buckets) are host measurements
/// and therefore non-deterministic; the per-worker job counts depend on
/// which worker claimed what — only their sum across workers is fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Jobs this worker claimed and executed.
    pub executed: u64,
    /// Wall microseconds spent inside job bodies.
    pub busy_us: u64,
    /// Unclaimed jobs (the claimed one included) sampled at each claim.
    pub queue_depth: Histogram,
    /// Per-job wall-clock latency in microseconds.
    pub latency_us: Histogram,
}

impl WorkerTelemetry {
    fn new() -> Self {
        WorkerTelemetry {
            executed: 0,
            busy_us: 0,
            queue_depth: Histogram::new("queue_depth"),
            latency_us: Histogram::new("job_wall_us"),
        }
    }
}

/// One job's host-side execution record: which worker ran it, when
/// (microseconds since the pool started), and for how long. The campaign
/// turns these into the host Perfetto trace's per-worker spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Submission index of the job.
    pub index: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Start offset from pool launch, wall microseconds.
    pub start_us: u64,
    /// Job body duration, wall microseconds.
    pub dur_us: u64,
}

/// Host-side telemetry for one [`parallel_map_telemetry`] run.
///
/// Determinism contract: `workers` and `jobs` (and therefore the sum of
/// `executed` across `per_worker`) are independent of scheduling; every
/// wall-clock or claim-order-dependent field varies run to run and must
/// stay out of byte-stable artifacts — the campaign segregates them
/// behind a marker in `campaign.prom`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTelemetry {
    /// Worker threads the pool ran (1 for the inline path).
    pub workers: usize,
    /// Jobs submitted (== sum of `executed` over `per_worker`).
    pub jobs: u64,
    /// Wall microseconds from pool launch to full join.
    pub elapsed_us: u64,
    /// Per-worker counters, indexed by worker id.
    pub per_worker: Vec<WorkerTelemetry>,
    /// All workers' per-job latencies, merged in worker-id order.
    pub job_latency_us: Histogram,
    /// All workers' queue-depth samples, merged in worker-id order.
    pub queue_depth: Histogram,
    /// Every job's execution record, sorted by submission index.
    pub jobs_log: Vec<JobRecord>,
}

impl FleetTelemetry {
    /// Total jobs executed across all workers (equals [`Self::jobs`]).
    pub fn executed_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.executed).sum()
    }

    /// Fraction of the pool's lifetime worker `w` spent inside job bodies
    /// (0.0 when the pool finished too fast to measure).
    pub fn utilization(&self, w: usize) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.per_worker
            .get(w)
            .map(|t| t.busy_us as f64 / self.elapsed_us as f64)
            .unwrap_or(0.0)
    }
}

fn as_micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked with a non-string payload".to_owned()
    }
}

/// Runs `f` under `catch_unwind`, mapping a panic to its payload message
/// — the same containment the fleet applies per job, exposed for callers
/// (the campaign daemon's workers) that schedule work outside
/// [`parallel_map`].
pub fn run_caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(payload_message)
}

/// Maps `f` over `items` on `workers` threads, committing results in
/// submission order: slot `i` of the returned vector always holds item
/// `i`'s outcome, whatever order the jobs finished in. A panicking job
/// yields `Err(JobFailure)` in its slot; every other job still runs.
///
/// With `workers <= 1` (or a single item) the map runs inline on the
/// caller's thread — the serial reference path the determinism tests
/// compare against.
pub fn parallel_map<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<Result<T, JobFailure>>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_telemetry(items, workers, |_| String::new(), f).0
}

/// [`parallel_map`] that also reports what the pool did: per-worker
/// executed counters, wall-clock job latencies, queue-depth samples, and
/// a per-job execution log ([`FleetTelemetry`]). The result vector is
/// byte-for-byte the one [`parallel_map`] returns; telemetry is a
/// host-side side channel only.
///
/// `label` names a job for failure reports: a panicking job's
/// [`JobFailure`] carries `label(&items[i])`, so the campaign's failures
/// read `square:Baseline:4` instead of a bare index.
pub fn parallel_map_telemetry<I, T, F, L>(
    items: &[I],
    workers: usize,
    label: L,
    f: F,
) -> (Vec<Result<T, JobFailure>>, FleetTelemetry)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
    L: Fn(&I) -> String + Sync,
{
    let epoch = Instant::now();
    let n = workers.clamp(1, items.len().max(1));
    // The claim cursor publishes nothing but the index itself: results
    // travel back through the join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    // Each worker keeps its counters, job log and `(index, outcome)`
    // pairs to itself until the join.
    let work = |w: usize| {
        let (mut me, mut log, mut done) = (WorkerTelemetry::new(), Vec::new(), Vec::new());
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            me.queue_depth.observe((items.len() - i) as u64);
            let start_us = as_micros(epoch.elapsed());
            let outcome = run_caught(|| f(item)).map_err(|message| JobFailure {
                index: i,
                label: label(item),
                message,
            });
            let dur_us = as_micros(epoch.elapsed()).saturating_sub(start_us);
            me.executed += 1;
            me.busy_us += dur_us;
            me.latency_us.observe(dur_us);
            log.push(JobRecord {
                index: i,
                worker: w,
                start_us,
                dur_us,
            });
            done.push((i, outcome));
        }
        (me, log, done)
    };
    let reports: Vec<_> = if n == 1 {
        vec![work(0)]
    } else {
        let work = &work;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|w| s.spawn(move || work(w))).collect();
            handles
                .into_iter()
                .map(|h| {
                    // Job panics are caught inside the loop, so a worker
                    // itself only panics on a pool bug: re-raise it.
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
                })
                .collect()
        })
    };

    let mut telem = FleetTelemetry {
        workers: n,
        jobs: items.len() as u64,
        elapsed_us: 0,
        per_worker: Vec::with_capacity(n),
        job_latency_us: Histogram::new("job_wall_us"),
        queue_depth: Histogram::new("queue_depth"),
        jobs_log: Vec::with_capacity(items.len()),
    };
    let mut results = Vec::with_capacity(items.len());
    for (me, mut log, mut done) in reports {
        results.append(&mut done);
        telem.job_latency_us.merge(&me.latency_us);
        telem.queue_depth.merge(&me.queue_depth);
        telem.per_worker.push(me);
        telem.jobs_log.append(&mut log);
    }
    telem.elapsed_us = as_micros(epoch.elapsed());
    telem.jobs_log.sort_by_key(|r| r.index);
    // Each index is claimed exactly once, so sorting by it is the
    // ordered commit.
    results.sort_unstable_by_key(|&(i, _)| i);
    let out = results.into_iter().map(|(_, outcome)| outcome).collect();
    (out, telem)
}

/// [`parallel_map`] for infallible jobs: propagates the first caught job
/// panic to the caller once the whole pool has joined.
///
/// # Panics
///
/// Panics with the first failed job's message if any job panicked.
pub fn parallel_map_ok<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map(items, workers, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

// ------------------------------------------------------------ fingerprint

/// A 64-bit FNV-1a content hash with a final [`crate::rng::mix64`]
/// avalanche, for cache keys: stable across platforms, processes and
/// releases (no `DefaultHasher` randomization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Fingerprint {
    /// An empty fingerprint (the FNV offset basis).
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Folds raw bytes into the hash.
    pub fn push_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a string (length-prefixed, so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn push_str(self, s: &str) -> Self {
        self.push_u64(s.len() as u64).push_bytes(s.as_bytes())
    }

    /// Folds a `u64`.
    pub fn push_u64(self, v: u64) -> Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` by bit pattern (exact, not rounded).
    pub fn push_f64(self, v: f64) -> Self {
        self.push_u64(v.to_bits())
    }

    /// The finished 64-bit digest (avalanched so near-identical inputs
    /// land far apart).
    pub fn finish(self) -> u64 {
        crate::rng::mix64(self.0)
    }

    /// The digest as a fixed-width lowercase hex string (cache file stem).
    pub fn hex(self) -> String {
        format!("{:016x}", self.finish())
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

// ------------------------------------------------------------- disk cache

/// A content-addressed result cache: one file per key under a directory,
/// written atomically enough for a single-process campaign (rename-free;
/// fleet jobs never share a key because every cell's fingerprint is
/// unique).
///
/// The cache keeps hit/miss/corrupt counters (atomics, so fleet jobs can
/// share one cache by reference); read them back with [`Self::counts`].
/// Counter totals depend only on the lookup set, not on scheduling, so
/// they are safe to publish in byte-stable artifacts.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl Clone for DiskCache {
    fn clone(&self) -> Self {
        DiskCache {
            dir: self.dir.clone(),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            corrupt: AtomicU64::new(self.corrupt.load(Ordering::Relaxed)),
        }
    }
}

/// A snapshot of a [`DiskCache`]'s lookup counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    /// Lookups that found a readable file.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Hits the caller later reported unusable via
    /// [`DiskCache::note_corrupt`] (present but failed to parse).
    pub corrupt: u64,
}

impl CacheCounts {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that produced a *usable* cached value
    /// (corrupt hits count against the rate); 0.0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        self.hits.saturating_sub(self.corrupt) as f64 / total as f64
    }
}

impl DiskCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// The cached value for `key`, if present and readable. Counts the
    /// lookup as a hit or miss.
    pub fn load(&self, key: &str) -> Option<String> {
        let got = std::fs::read_to_string(self.path(key)).ok();
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Marks one prior hit as unusable: the file existed but its contents
    /// failed to parse, so the caller fell back to recomputing.
    pub fn note_corrupt(&self) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the hit/miss/corrupt counters.
    pub fn counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Stores `value` under `key`, creating the cache directory on demand.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory or file cannot
    /// be written.
    pub fn store(&self, key: &str, value: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(self.path(key), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_commit_in_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        // Skew the work so late items finish first under any real pool.
        let f = |&v: &u64| {
            let mut acc = v;
            for _ in 0..(100 - v) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (v, acc)
        };
        let serial = parallel_map(&items, 1, f);
        for w in [2, 4, 8] {
            let par = parallel_map(&items, w, f);
            assert_eq!(par.len(), serial.len());
            for (i, (a, b)) in par.iter().zip(&serial).enumerate() {
                assert_eq!(a, b, "slot {i} differs at {w} workers");
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let items: Vec<u32> = (0..37).collect();
        let serial: Vec<u32> = parallel_map_ok(&items, 1, |&v| v * v);
        let wide: Vec<u32> = parallel_map_ok(&items, 16, |&v| v * v);
        assert_eq!(serial, wide);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let empty: Vec<Result<u32, JobFailure>> = parallel_map(&[], 4, |_: &u32| 1);
        assert!(empty.is_empty());
        let one = parallel_map(&[7u32], 4, |&v| v + 1);
        assert_eq!(one[0].as_ref().ok(), Some(&8));
    }

    #[test]
    fn panicking_job_is_contained_and_reported() {
        let items: Vec<u32> = (0..8).collect();
        let out = parallel_map(&items, 4, |&v| {
            if v == 3 {
                panic!("cell 3 is poisoned");
            }
            v * 10
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("slot 3 failed");
                assert_eq!(e.index, 3);
                assert!(e.message.contains("poisoned"), "{e}");
            } else {
                assert_eq!(r.as_ref().ok(), Some(&(i as u32 * 10)), "slot {i} ran");
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn parallel_map_ok_propagates_job_panics() {
        let items = [1u32, 2, 3];
        let _: Vec<u32> = parallel_map_ok(&items, 2, |&v| {
            if v == 2 {
                panic!("boom");
            }
            v
        });
    }

    #[test]
    fn workers_env_contract() {
        // Can't mutate the environment safely in a threaded test binary;
        // assert the pure bound instead: workers() is always >= 1.
        assert!(workers() >= 1);
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let a = Fingerprint::new().push_str("square").push_u64(4).finish();
        let b = Fingerprint::new().push_str("square").push_u64(4).finish();
        assert_eq!(a, b, "same input, same digest");
        let c = Fingerprint::new().push_u64(4).push_str("square").finish();
        assert_ne!(a, c, "order matters");
        let d = Fingerprint::new().push_str("squar").push_str("e4").finish();
        assert_ne!(a, d, "length prefix separates field boundaries");
        assert_eq!(Fingerprint::new().push_str("x").hex().len(), 16);
    }

    #[test]
    fn fingerprint_distinguishes_floats_exactly() {
        let a = Fingerprint::new().push_f64(0.1).finish();
        let b = Fingerprint::new().push_f64(0.1 + f64::EPSILON).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn telemetry_counts_every_job_exactly_once() {
        let items: Vec<u64> = (0..50).collect();
        for w in [1, 2, 8] {
            let (out, telem) =
                parallel_map_telemetry(&items, w, |v| format!("job-{v}"), |&v| v + 1);
            assert_eq!(out.len(), items.len());
            assert_eq!(telem.jobs, items.len() as u64);
            assert_eq!(telem.executed_total(), items.len() as u64, "{w} workers");
            assert_eq!(telem.workers, w.min(items.len()));
            assert_eq!(telem.per_worker.len(), telem.workers);
            assert_eq!(telem.job_latency_us.count(), items.len() as u64);
            // The jobs log covers every submission index exactly once,
            // sorted, and each record's worker actually exists.
            assert_eq!(telem.jobs_log.len(), items.len());
            for (i, rec) in telem.jobs_log.iter().enumerate() {
                assert_eq!(rec.index, i);
                assert!(rec.worker < telem.workers);
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_caller_thread() {
        let items: Vec<u32> = (0..8).collect();
        let caller = std::thread::current().id();
        let ran_on = parallel_map_ok(&items, 1, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller), "{ran_on:?}");
    }

    #[test]
    fn a_slow_job_does_not_strand_the_rest() {
        // Job 0 waits for every other job to finish; with two workers the
        // other worker must claim and run all of them meanwhile.
        let items: Vec<usize> = (0..16).collect();
        let finished = AtomicUsize::new(0);
        let seen = parallel_map_ok(&items, 2, |&v| {
            if v != 0 {
                finished.fetch_add(1, Ordering::SeqCst);
                return 0;
            }
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while finished.load(Ordering::SeqCst) < items.len() - 1 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            finished.load(Ordering::SeqCst)
        });
        assert_eq!(seen[0], items.len() - 1, "job 0 gave up waiting");
    }

    #[test]
    fn telemetry_result_vector_matches_parallel_map() {
        let items: Vec<u32> = (0..23).collect();
        let plain = parallel_map(&items, 4, |&v| v * 3);
        let (with_telem, _) = parallel_map_telemetry(&items, 4, |_| String::new(), |&v| v * 3);
        assert_eq!(plain, with_telem);
    }

    #[test]
    fn job_failure_carries_the_label() {
        let items: Vec<u32> = (0..6).collect();
        let (out, _) = parallel_map_telemetry(
            &items,
            3,
            |&v| format!("cell:{v}"),
            |&v| {
                if v == 4 {
                    panic!("poisoned");
                }
                v
            },
        );
        let e = out[4].as_ref().expect_err("slot 4 failed");
        assert_eq!(e.label, "cell:4");
        assert_eq!(format!("{e}"), "job 4 (cell:4) panicked: poisoned");
        // The unlabelled path keeps the historical rendering.
        let bare = JobFailure {
            index: 2,
            label: String::new(),
            message: "boom".to_owned(),
        };
        assert_eq!(format!("{bare}"), "job 2 panicked: boom");
    }

    #[test]
    fn disk_cache_counts_hits_misses_and_corruption() {
        let dir = std::env::temp_dir().join(format!("fleet-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        assert_eq!(cache.counts(), CacheCounts::default());
        assert!(cache.load("absent").is_none());
        cache.store("present", "data").expect("store");
        assert!(cache.load("present").is_some());
        assert!(cache.load("present").is_some());
        cache.note_corrupt();
        let c = cache.counts();
        assert_eq!((c.hits, c.misses, c.corrupt), (2, 1, 1));
        assert_eq!(c.lookups(), 3);
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Clones snapshot the counters rather than sharing them.
        let snap = cache.clone();
        assert!(cache.load("absent-again").is_none());
        assert_eq!(snap.counts().misses, 1);
        assert_eq!(cache.counts().misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_cache_counts_have_zero_rate() {
        assert_eq!(CacheCounts::default().hit_rate(), 0.0);
        assert_eq!(CacheCounts::default().lookups(), 0);
    }

    #[test]
    fn disk_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("fleet-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        let key = Fingerprint::new().push_str("cell").hex();
        assert_eq!(cache.load(&key), None, "cold cache misses");
        cache.store(&key, "{\"x\": 1}\n").expect("store");
        assert_eq!(cache.load(&key).as_deref(), Some("{\"x\": 1}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
