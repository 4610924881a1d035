//! The daemon's cell scheduler: multi-tenant admission, per-client
//! round-robin fairness, per-request ordered delivery, deadlines and
//! cancellation.
//!
//! The batch campaign owns its whole cell list up front and fans it out
//! with `fleet::parallel_map`; a service receives cells one request at a
//! time from clients that must not starve each other. The scheduler keeps
//! one FIFO queue per client in a rotation: a worker takes the front
//! client, runs one of its cells and sends the client to the back if it
//! still has cells, so a client that submits 500 cells delays a one-cell
//! client by at most the in-flight window. Admission is bounded: a request
//! whose cells would push the total queued count past the bound is
//! rejected whole (never partially admitted), which is the daemon's 429.
//!
//! The scheduler owns its workers ([`Scheduler::start_workers`]): each
//! loops blocking on the rotation and runs one cell at a time under
//! `fleet::run_caught`, so a panicking cell cannot kill it, until
//! [`Scheduler::shutdown`].
//!
//! Delivery is per-request ordered commit: workers complete cells in any
//! order into a slot buffer, and the connection thread drains slots in
//! submission order — the same determinism contract as the batch fleet,
//! so a streamed response always lists cells in request order.
//!
//! Rows travel as rendered text. With a disk cache, the scheduler also
//! memoises each successful cell's row by fingerprint: a row is a pure
//! function of its fingerprint, so a cell served before is answered from
//! the memo without touching the cache file, the parser or the renderer.
//! The memo is read at admission: a memoised cell's slot is done before
//! the request is returned, so it never queues, never counts against the
//! bound and never reaches a worker. Only the misses are queued.

use crate::campaign::{execute_cell, CellSpec};
use chiplet_harness::fleet::{self, DiskCache};
use chiplet_harness::json::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::metrics::ServeMetrics;

/// How one scheduled cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Simulated or served from the cache.
    Ok,
    /// The cell's job panicked (contained per job, like the batch fleet).
    Failed,
    /// Cancelled before it started (deadline passed or client vanished).
    Cancelled,
}

impl CellStatus {
    /// The status as it appears on the wire.
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Cancelled => "cancelled",
        }
    }
}

/// One completed (or cancelled) cell, ready to stream. Cloning it costs
/// a reference-count increment.
#[derive(Debug, Clone)]
pub struct CellDone {
    /// The `campaign.json` row for this cell, compact-rendered (via
    /// [`CellSpec::row`], so it is byte-identical to the batch artifact's
    /// row). Empty for a cancelled cell, which never ran.
    pub row: Arc<str>,
    /// Served from the disk cache or the row memo rather than simulated.
    pub cached: bool,
    /// Global completion stamp: the scheduler's monotone counter at the
    /// instant this cell finished, across all clients. Tests use it to
    /// assert fairness (a small request's cells finish before a large
    /// earlier request's tail).
    pub seq: u64,
    /// How the cell ended.
    pub status: CellStatus,
}

/// Per-cell lifecycle inside a request.
#[derive(Debug)]
enum Slot {
    /// Waiting in its client's queue.
    Queued,
    /// A worker picked it up; it will complete even if the request is
    /// cancelled meanwhile.
    Running,
    /// Finished (ok, failed, or cancelled) and ready to stream.
    Done(CellDone),
}

#[derive(Debug)]
struct RequestInner {
    slots: Vec<Slot>,
    cancelled: bool,
}

/// One admitted sweep request: a slot per cell, drained in submission
/// order by the connection thread while workers fill slots in completion
/// order.
#[derive(Debug)]
pub struct Request {
    deadline: Option<Instant>,
    inner: Mutex<RequestInner>,
    cv: Condvar,
}

impl Request {
    /// Number of cells in the request.
    pub fn total(&self) -> usize {
        lock(&self.inner).slots.len()
    }
}

/// Why a sweep request was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// Queueing the request's unmemoised cells would overflow the bounded
    /// queue; the whole request is rejected (the HTTP layer's 429).
    /// Carries (cells to queue, queued, bound).
    Backpressure(usize, usize, usize),
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Backpressure(n, queued, bound) => write!(
                f,
                "queue full: request needs {n} cells queued, which would \
                 exceed the admission bound ({queued} queued, bound {bound}); \
                 retry later"
            ),
            AdmitError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

/// A cell waiting in a client queue.
struct QueuedCell {
    spec: Arc<CellSpec>,
    index: usize,
    req: Arc<Request>,
}

struct SchedState {
    /// One FIFO per client with queued cells, in turn order: the front
    /// client is served next. A client's entry is dropped once its queue
    /// drains, so idle clients leave the rotation.
    queues: VecDeque<(String, VecDeque<QueuedCell>)>,
    /// Total queued (not yet running) cells, the admission quantity.
    /// Cells answered from the row memo at admission never count.
    queued: usize,
    shutdown: bool,
}

/// The multi-tenant cell scheduler. Shared between the HTTP connection
/// threads (producers) and the workers it starts itself (consumers, see
/// [`Scheduler::start_workers`]).
pub struct Scheduler {
    state: Mutex<SchedState>,
    /// Workers park here waiting for queued cells.
    work_cv: Condvar,
    queue_bound: usize,
    seq: AtomicU64,
    cache: Option<DiskCache>,
    /// Rendered rows of the cells that completed ok, by fingerprint; only
    /// filled when there is a `cache`. Cells reach the scheduler through
    /// `parse_sweep`'s validation, so this is bounded by the valid axis
    /// space, like the interned cell table. Never locked together with
    /// another lock.
    rows: Mutex<HashMap<String, Arc<str>>>,
    metrics: Arc<ServeMetrics>,
}

impl Scheduler {
    /// A scheduler admitting at most `queue_bound` queued cells, running
    /// cells against `cache` (shared with the batch campaign when both
    /// point at the same results dir).
    pub fn new(queue_bound: usize, cache: Option<DiskCache>, metrics: Arc<ServeMetrics>) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: VecDeque::new(),
                queued: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            queue_bound: queue_bound.max(1),
            seq: AtomicU64::new(0),
            cache,
            rows: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Cells currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        lock(&self.state).queued
    }

    /// Queued-cell count per client, in first-seen order (the `/metrics`
    /// per-client gauge).
    pub fn per_client_depth(&self) -> Vec<(String, usize)> {
        lock(&self.state)
            .queues
            .iter()
            .map(|(c, q)| (c.clone(), q.len()))
            .collect()
    }

    /// Admits a sweep: all of `specs` for `client`, or nothing. Cells
    /// whose rows are memoised resolve here, before the request is
    /// returned; only the rest are queued for the workers, and only
    /// they count against the queue bound.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Backpressure`] when the request's unmemoised cells
    /// would overflow the queue bound (no cells are admitted),
    /// [`AdmitError::ShuttingDown`] after [`Scheduler::shutdown`].
    pub fn submit(
        self: &Arc<Self>,
        client: &str,
        specs: Vec<Arc<CellSpec>>,
        timeout: Option<Duration>,
    ) -> Result<Arc<Request>, AdmitError> {
        let memo = self.memoised_rows(&specs);
        let misses = memo.iter().filter(|row| row.is_none()).count();
        let mut st = lock(&self.state);
        if st.shutdown {
            return Err(AdmitError::ShuttingDown);
        }
        if st.queued + misses > self.queue_bound {
            return Err(AdmitError::Backpressure(
                misses,
                st.queued,
                self.queue_bound,
            ));
        }
        let slots: Vec<Slot> = memo
            .iter()
            .map(|row| match row {
                Some(row) => {
                    self.metrics.note_cell(true, false);
                    Slot::Done(CellDone {
                        row: Arc::clone(row),
                        cached: true,
                        seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
                        status: CellStatus::Ok,
                    })
                }
                None => Slot::Queued,
            })
            .collect();
        let req = Arc::new(Request {
            deadline: timeout.map(|t| Instant::now() + t),
            inner: Mutex::new(RequestInner {
                slots,
                cancelled: false,
            }),
            cv: Condvar::new(),
        });
        if misses == 0 {
            return Ok(req);
        }
        let queue = match st.queues.iter_mut().find(|(c, _)| c == client) {
            Some((_, q)) => q,
            None => {
                st.queues.push_back((client.to_owned(), VecDeque::new()));
                let last = st.queues.len() - 1;
                &mut st.queues[last].1
            }
        };
        for (index, (spec, row)) in specs.into_iter().zip(&memo).enumerate() {
            if row.is_none() {
                queue.push_back(QueuedCell {
                    spec,
                    index,
                    req: Arc::clone(&req),
                });
            }
        }
        st.queued += misses;
        drop(st);
        self.work_cv.notify_all();
        Ok(req)
    }

    /// The memoised row of each of `specs`, `None` for a cell that must
    /// run, read under one `rows` lock. Without a disk cache the memo is
    /// always empty, so nothing is looked up. A spec whose fingerprint
    /// panics is a miss: its worker produces the failed row inside its
    /// own `catch_unwind`.
    fn memoised_rows(&self, specs: &[Arc<CellSpec>]) -> Vec<Option<Arc<str>>> {
        if self.cache.is_none() {
            return vec![None; specs.len()];
        }
        let keys: Vec<Option<String>> = specs
            .iter()
            .map(|spec| fleet::run_caught(|| spec.fingerprint()).ok())
            .collect();
        let rows = lock(&self.rows);
        keys.iter()
            .map(|key| key.as_ref().and_then(|k| rows.get(k).cloned()))
            .collect()
    }

    /// Starts `n` (at least 1) worker threads. Each blocks for the next
    /// queued cell and runs it under `fleet::run_caught`, so a panicking
    /// cell cannot take its worker down, and exits once
    /// [`Scheduler::shutdown`] has been called and nothing is queued. The
    /// caller joins the handles after that shutdown.
    pub fn start_workers(self: &Arc<Self>, n: usize) -> Vec<JoinHandle<()>> {
        (0..n.max(1))
            .map(|_| {
                let sched = Arc::clone(self);
                std::thread::spawn(move || {
                    while let Some(cell) = sched.next_cell() {
                        let _ = fleet::run_caught(|| sched.run_cell(cell));
                    }
                })
            })
            .collect()
    }

    /// Blocks until a cell is queued and claims it, marking its slot
    /// running before the state lock is released (so a concurrent cancel
    /// leaves it to complete normally). `None` once shut down.
    fn next_cell(&self) -> Option<QueuedCell> {
        let mut st = lock(&self.state);
        loop {
            if let Some(cell) = Self::pop_next(&mut st) {
                lock(&cell.req.inner).slots[cell.index] = Slot::Running;
                return Some(cell);
            }
            if st.shutdown {
                return None;
            }
            st = self.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Pops the front client's next cell and sends the client to the back
    /// of the rotation if it still has cells queued.
    fn pop_next(st: &mut SchedState) -> Option<QueuedCell> {
        while let Some((client, mut queue)) = st.queues.pop_front() {
            if let Some(cell) = queue.pop_front() {
                st.queued -= 1;
                if !queue.is_empty() {
                    st.queues.push_back((client, queue));
                }
                return Some(cell);
            }
        }
        None
    }

    /// The rendered row of `spec` and whether it was cached: from the row
    /// memo when another worker memoised it after this cell was admitted,
    /// otherwise through [`execute_cell`], memoising the row when there is
    /// a disk cache (so with `CPELIDE_CACHE=0` every cell is simulated).
    fn render_cell(&self, spec: &CellSpec) -> (Arc<str>, bool) {
        let key = spec.fingerprint();
        if let Some(row) = lock(&self.rows).get(&key) {
            return (Arc::clone(row), true);
        }
        let out = execute_cell(spec, self.cache.as_ref());
        let row: Arc<str> = spec.row(Ok(&out.metrics)).render_compact().into();
        if self.cache.is_some() {
            lock(&self.rows).insert(key, Arc::clone(&row));
        }
        (row, out.cached())
    }

    /// Runs one popped cell to completion and resolves its slot. The
    /// heavy work happens with no scheduler lock held.
    fn run_cell(&self, cell: QueuedCell) {
        let QueuedCell { spec, index, req } = cell;
        let outcome = fleet::run_caught(|| self.render_cell(&spec));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let done = match outcome {
            Ok((row, cached)) => {
                self.metrics.note_cell(cached, false);
                CellDone {
                    row,
                    cached,
                    seq,
                    status: CellStatus::Ok,
                }
            }
            Err(message) => {
                self.metrics.note_cell(false, true);
                // Rendering the failure row re-derives the fingerprint,
                // which can itself panic for a pathologically invalid
                // spec; the slot must resolve regardless, or the reader
                // wedges, so fall back to a minimal row.
                let row = fleet::run_caught(|| spec.row(Err(&message))).unwrap_or_else(|_| {
                    Json::object()
                        .with("failed", true)
                        .with("error", message.as_str())
                });
                CellDone {
                    row: row.render_compact().into(),
                    cached: false,
                    seq,
                    status: CellStatus::Failed,
                }
            }
        };
        let mut inner = lock(&req.inner);
        inner.slots[index] = Slot::Done(done);
        drop(inner);
        req.cv.notify_all();
    }

    /// Cancels a request: its still-queued cells are removed from the
    /// client queue and resolved as [`CellStatus::Cancelled`]; cells a
    /// worker already started run to completion and still stream. Safe to
    /// call more than once.
    pub fn cancel(&self, req: &Arc<Request>) {
        let mut st = lock(&self.state);
        let mut removed = 0usize;
        for (_, queue) in &mut st.queues {
            let before = queue.len();
            queue.retain(|c| !Arc::ptr_eq(&c.req, req));
            removed += before - queue.len();
        }
        st.queued -= removed;
        st.queues.retain(|(_, q)| !q.is_empty());
        drop(st);
        let mut inner = lock(&req.inner);
        if !inner.cancelled {
            inner.cancelled = true;
            for slot in &mut inner.slots {
                if matches!(slot, Slot::Queued) {
                    let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
                    self.metrics.note_cancelled();
                    *slot = Slot::Done(CellDone {
                        row: Arc::from(""),
                        cached: false,
                        seq,
                        status: CellStatus::Cancelled,
                    });
                }
            }
        }
        drop(inner);
        req.cv.notify_all();
    }

    /// Slot `index` of `req` if it is done, without waiting.
    pub fn try_cell(&self, req: &Request, index: usize) -> Option<CellDone> {
        match &lock(&req.inner).slots[index] {
            Slot::Done(done) => Some(done.clone()),
            _ => None,
        }
    }

    /// Blocks until slot `index` of `req` is done and returns it,
    /// enforcing the request deadline: when the deadline passes first,
    /// the request is cancelled (queued cells resolve as cancelled;
    /// running cells complete) and the wait continues — it always
    /// terminates, because every slot is then either done or running.
    pub fn wait_cell(self: &Arc<Self>, req: &Arc<Request>, index: usize) -> CellDone {
        loop {
            let inner = lock(&req.inner);
            if let Slot::Done(done) = &inner.slots[index] {
                return done.clone();
            }
            let timeout = req
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            match timeout {
                Some(left) if left.is_zero() => {
                    drop(inner);
                    self.cancel(req);
                }
                Some(left) => {
                    let _unused = req
                        .cv
                        .wait_timeout(inner, left)
                        .unwrap_or_else(|p| p.into_inner());
                }
                None => {
                    let _unused = req.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }

    /// Stops admission and tells the workers to exit: queued cells of
    /// every request are cancelled (their readers see cancelled slots),
    /// running cells finish first.
    pub fn shutdown(&self) {
        let reqs: Vec<Arc<Request>> = {
            let mut st = lock(&self.state);
            st.shutdown = true;
            st.queues
                .iter()
                .flat_map(|(_, q)| q.iter().map(|c| Arc::clone(&c.req)))
                .collect()
        };
        for req in reqs {
            self.cancel(&req);
        }
        self.work_cv.notify_all();
    }
}

/// Poison-tolerant lock: cells run under `fleet::run_caught`, so state is
/// only ever a committed value between panics contained elsewhere.
pub(super) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SuiteTag;
    use chiplet_coherence::ProtocolKind;
    use chiplet_sim::Cell;

    fn spec(workload: &str, chiplets: usize) -> Arc<CellSpec> {
        Arc::new(CellSpec::new(
            Cell::new(
                chiplet_workloads::lookup(workload).unwrap_or_else(|e| panic!("{e}")),
                ProtocolKind::Baseline,
                chiplets,
            ),
            SuiteTag::Main,
        ))
    }

    fn sched(bound: usize) -> Arc<Scheduler> {
        Arc::new(Scheduler::new(bound, None, Arc::new(ServeMetrics::new())))
    }

    /// A scheduler over a fresh disk cache in `dir`, with one worker.
    fn cached_sched(dir: &std::path::Path) -> (Arc<Scheduler>, Vec<JoinHandle<()>>) {
        let _ = std::fs::remove_dir_all(dir);
        let s = Arc::new(Scheduler::new(
            16,
            Some(DiskCache::new(dir)),
            Arc::new(ServeMetrics::new()),
        ));
        let workers = s.start_workers(1);
        (s, workers)
    }

    /// Shuts `s` down and joins its workers.
    fn stop(s: &Scheduler, workers: Vec<JoinHandle<()>>) {
        s.shutdown();
        for w in workers {
            w.join().expect("a worker survives every cell");
        }
    }

    /// A scheduler admitting at most `bound` queued cells, over a disk
    /// cache in `dir` (emptied first), with no workers and a memo
    /// holding [`memo_row`] for each of `hits`.
    fn memo_sched(dir: &std::path::Path, bound: usize, hits: &[&Arc<CellSpec>]) -> Arc<Scheduler> {
        let _ = std::fs::remove_dir_all(dir);
        let s = Arc::new(Scheduler::new(
            bound,
            Some(DiskCache::new(dir)),
            Arc::new(ServeMetrics::new()),
        ));
        for spec in hits {
            lock(&s.rows).insert(spec.fingerprint(), memo_row(spec).into());
        }
        s
    }

    /// A made-up row that only the memo can have produced.
    fn memo_row(spec: &CellSpec) -> String {
        format!("memo:{}", spec.id())
    }

    /// Submits `spec` alone and waits for it.
    fn run_one(s: &Arc<Scheduler>, spec: Arc<CellSpec>) -> CellDone {
        let req = s.submit("t", vec![spec], None).expect("admitted");
        s.wait_cell(&req, 0)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sched-{name}-{}", std::process::id()))
    }

    #[test]
    fn admission_rejects_whole_requests_atomically() {
        let s = sched(2);
        let admitted = s
            .submit("a", vec![spec("square", 1), spec("square", 2)], None)
            .expect("fits exactly");
        let err = s
            .submit("b", vec![spec("square", 1)], None)
            .expect_err("queue is full");
        assert!(matches!(err, AdmitError::Backpressure(1, 2, 2)), "{err}");
        assert_eq!(s.queue_depth(), 2, "rejected request admitted nothing");
        // Drain via cancel so the test leaves no queued work behind.
        s.cancel(&admitted);
        assert_eq!(s.queue_depth(), 0);
        s.submit("b", vec![spec("square", 1)], None)
            .expect("space freed");
    }

    #[test]
    fn round_robin_interleaves_clients_before_queue_order() {
        // Client "big" enqueues 4 cells, then "small" enqueues 1; with a
        // single worker started *after* both are queued, fairness demands
        // small's cell completes before big's tail.
        let s = sched(64);
        let big = s
            .submit(
                "big",
                vec![
                    spec("square", 1),
                    spec("square", 2),
                    spec("square", 3),
                    spec("square", 4),
                ],
                None,
            )
            .expect("admit big");
        let small = s
            .submit("small", vec![spec("square", 1)], None)
            .expect("admit small");
        let workers = s.start_workers(1);
        let small_done = s.wait_cell(&small, 0);
        let big_last = s.wait_cell(&big, 3);
        assert!(
            small_done.seq < big_last.seq,
            "small client's only cell (seq {}) must not wait behind the \
             large client's tail (seq {})",
            small_done.seq,
            big_last.seq
        );
        stop(&s, workers);
    }

    #[test]
    fn cancel_keeps_the_next_clients_turn() {
        // Clients a, b and c each queue two cells; cells are popped here
        // as a worker would, with no worker running.
        let s = sched(64);
        let reqs: Vec<(&str, Arc<Request>)> = ["a", "b", "c"]
            .into_iter()
            .map(|c| {
                let cells = vec![spec("square", 1), spec("square", 2)];
                (c, s.submit(c, cells, None).expect("admitted"))
            })
            .collect();
        let next_client = || {
            let cell = Scheduler::pop_next(&mut lock(&s.state)).expect("a cell is queued");
            reqs.iter()
                .find(|(_, req)| Arc::ptr_eq(req, &cell.req))
                .map(|(c, _)| *c)
                .expect("a submitted request")
        };
        assert_eq!(next_client(), "a");
        assert_eq!(next_client(), "b");
        // Cancelling a drops its emptied queue; c's turn comes next.
        s.cancel(&reqs[0].1);
        assert_eq!(next_client(), "c");
        assert_eq!(next_client(), "b");
    }

    #[test]
    fn deadline_cancels_queued_cells_but_ordered_drain_still_finishes() {
        let s = sched(64);
        // No workers at all: every cell stays queued, so an elapsed
        // deadline must resolve all slots as cancelled.
        let req = s
            .submit(
                "t",
                vec![spec("square", 1), spec("square", 2)],
                Some(Duration::from_millis(1)),
            )
            .expect("admitted");
        let first = s.wait_cell(&req, 0);
        let second = s.wait_cell(&req, 1);
        assert_eq!(first.status, CellStatus::Cancelled);
        assert_eq!(second.status, CellStatus::Cancelled);
        assert_eq!(s.queue_depth(), 0, "cancel removed queued cells");
    }

    #[test]
    fn shutdown_drains_workers_and_refuses_new_requests() {
        let s = sched(16);
        let workers = s.start_workers(2);
        let req = s
            .submit("x", vec![spec("square", 1)], None)
            .expect("admitted");
        assert_eq!(s.wait_cell(&req, 0).status, CellStatus::Ok);
        stop(&s, workers);
        assert!(matches!(
            s.submit("x", vec![spec("square", 1)], None),
            Err(AdmitError::ShuttingDown)
        ));
    }

    #[test]
    fn failed_cells_resolve_like_the_batch_fleet() {
        // A panicking cell must produce a failed row, not kill the worker:
        // chiplets=0 makes SimConfig::table1 assert inside execute_cell.
        let s = sched(16);
        let workers = s.start_workers(1);
        let bad = spec("square", 0);
        let req = s
            .submit("x", vec![bad, spec("square", 1)], None)
            .expect("admitted");
        let first = s.wait_cell(&req, 0);
        let second = s.wait_cell(&req, 1);
        assert_eq!(first.status, CellStatus::Failed);
        let row = chiplet_harness::json::parse(&first.row).expect("failed row is JSON");
        assert_eq!(row.get("failed").and_then(Json::as_bool), Some(true));
        assert_eq!(second.status, CellStatus::Ok, "worker survived the panic");
        stop(&s, workers);
    }

    #[test]
    fn a_repeated_cell_is_served_from_the_row_memo() {
        let dir = tmp("memo");
        let (s, workers) = cached_sched(&dir);
        let first = run_one(&s, spec("square", 1));
        assert_eq!(first.status, CellStatus::Ok);
        assert!(!first.cached, "a fresh cache simulates the cell");
        // With the cache file gone, only the memo can still answer.
        std::fs::remove_dir_all(&dir).expect("remove the cache");
        let again = run_one(&s, spec("square", 1));
        assert_eq!(again.status, CellStatus::Ok);
        assert!(again.cached, "a memo hit counts as cached");
        assert_eq!(again.row, first.row, "memoised rows are byte-identical");
        let fresh = execute_cell(&spec("square", 1), None);
        assert_eq!(
            *again.row,
            spec("square", 1).row(Ok(&fresh.metrics)).render_compact(),
            "the memo holds the compact rendering of CellSpec::row"
        );
        assert_eq!(s.metrics.cells_total(), 2);
        assert_eq!(s.metrics.cache_hits_total(), 1);
        assert!(!dir.exists(), "a memo hit does not touch the disk cache");
        stop(&s, workers);
    }

    #[test]
    fn without_a_disk_cache_every_cell_is_simulated() {
        let s = sched(16);
        let workers = s.start_workers(1);
        let first = run_one(&s, spec("square", 1));
        let again = run_one(&s, spec("square", 1));
        assert!(!first.cached && !again.cached, "CPELIDE_CACHE=0 simulates");
        assert_eq!(again.row, first.row);
        assert!(lock(&s.rows).is_empty(), "nothing memoised without a cache");
        stop(&s, workers);
    }

    #[test]
    fn failed_cells_are_never_memoised() {
        let dir = tmp("memo-failed");
        let (s, workers) = cached_sched(&dir);
        for _ in 0..2 {
            let bad = run_one(&s, spec("square", 0));
            assert_eq!(bad.status, CellStatus::Failed);
            assert!(!bad.cached);
        }
        assert!(lock(&s.rows).is_empty(), "a failed cell left a memo entry");
        assert_eq!(run_one(&s, spec("square", 1)).status, CellStatus::Ok);
        assert_eq!(lock(&s.rows).len(), 1, "only the ok cell is memoised");
        stop(&s, workers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_hits_resolve_at_admission_without_a_worker() {
        let dir = tmp("admit-hits");
        let cells = [spec("square", 1), spec("square", 2), spec("square", 3)];
        let s = memo_sched(&dir, 16, &cells.iter().collect::<Vec<_>>());
        // No workers: only admission can resolve these slots.
        let req = s.submit("t", cells.to_vec(), None).expect("admitted");
        for (index, cell) in cells.iter().enumerate() {
            let done = s.try_cell(&req, index).expect("resolved at admission");
            assert_eq!(done.status, CellStatus::Ok);
            assert!(done.cached, "a memo hit counts as cached");
            assert_eq!(*done.row, memo_row(cell));
        }
        assert_eq!(s.queue_depth(), 0);
        assert!(s.per_client_depth().is_empty(), "no client queue was made");
        assert_eq!(s.metrics.cells_total(), 3);
        assert_eq!(s.metrics.cache_hits_total(), 3);
    }

    #[test]
    fn a_memo_hit_request_larger_than_the_bound_is_admitted() {
        let dir = tmp("admit-past-bound");
        let cells = [spec("square", 1), spec("square", 2), spec("square", 3)];
        let s = memo_sched(&dir, 1, &cells.iter().collect::<Vec<_>>());
        let req = s
            .submit("t", cells.to_vec(), None)
            .expect("memo hits never count against the bound");
        assert!((0..3).all(|i| s.try_cell(&req, i).is_some()));
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn a_mixed_request_queues_only_its_misses_and_streams_in_order() {
        let dir = tmp("admit-mixed");
        let cells = [
            spec("square", 1),
            spec("square", 2),
            spec("square", 3),
            spec("square", 4),
        ];
        let s = memo_sched(&dir, 2, &[&cells[0], &cells[2]]);
        let req = s
            .submit("t", cells.to_vec(), None)
            .expect("two misses fit a bound of two");
        assert_eq!(s.queue_depth(), 2, "only the misses queue");
        let err = s
            .submit("u", vec![spec("square", 5)], None)
            .expect_err("the misses fill the bound");
        assert!(matches!(err, AdmitError::Backpressure(1, 2, 2)), "{err}");
        let resolved: Vec<bool> = (0..4).map(|i| s.try_cell(&req, i).is_some()).collect();
        assert_eq!(resolved, [true, false, true, false]);
        let workers = s.start_workers(1);
        let done: Vec<CellDone> = (0..4).map(|i| s.wait_cell(&req, i)).collect();
        for (index, (cell, done)) in cells.iter().zip(&done).enumerate() {
            assert_eq!(done.status, CellStatus::Ok, "cell {index}");
            if index % 2 == 0 {
                assert!(done.cached);
                assert_eq!(*done.row, memo_row(cell));
            } else {
                assert!(!done.cached, "a fresh cache simulates the miss");
                let row = chiplet_harness::json::parse(&done.row).expect("row is JSON");
                assert_eq!(
                    row.get("fingerprint").and_then(Json::as_str),
                    Some(cell.fingerprint().as_str()),
                    "slot {index} holds its own cell's row"
                );
            }
        }
        assert!(
            done[2].seq < done[1].seq,
            "hits are stamped at admission, before any miss completes"
        );
        stop(&s, workers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deadline_cancels_queued_misses_but_not_admitted_hits() {
        let dir = tmp("admit-deadline");
        let (hit, miss) = (spec("square", 1), spec("square", 2));
        let s = memo_sched(&dir, 16, &[&hit]);
        // No workers: the miss stays queued until the deadline cancels it.
        let req = s
            .submit("t", vec![miss, hit], Some(Duration::from_millis(1)))
            .expect("admitted");
        assert_eq!(s.wait_cell(&req, 0).status, CellStatus::Cancelled);
        let second = s.wait_cell(&req, 1);
        assert_eq!(second.status, CellStatus::Ok);
        assert!(second.cached);
        assert_eq!(s.queue_depth(), 0, "cancel removed the queued miss");
    }
}
