//! `serve-warm`: the campaign daemon in-process (`serve::spawn`, two
//! workers) with its cache filled during set-up, driven by a closed loop
//! of [`CLIENTS`] connections. Each request asks for [`CELLS_PER_REQUEST`]
//! distinct cells drawn (seeded) from the warm pool, so every cell is a
//! cache hit and no simulation is timed.

use crate::calib::{self, Calibrator, Prep, SetupTime};
use crate::gate::{self, Reference};
use crate::select;
use crate::stats::{peak_rss_mib, quantile, reset_peak_rss, trim_heap};
use crate::{metric, Args, Metric, Outcome, WorkDir};
use chiplet_harness::fleet::DiskCache;
use chiplet_harness::json::{self, Json};
use chiplet_harness::trace::prom;
use chiplet_sim::phase::SimPhase;
use cpelide_bench::campaign::{self, CellSpec};
use cpelide_bench::serve::{self as daemon, client, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Cells per sweep request.
pub const CELLS_PER_REQUEST: usize = 8;
/// Daemon worker threads.
const WORKERS: usize = 2;

/// A running daemon that is shut down (and joined) when dropped.
pub struct Daemon(Option<Server>);

impl Daemon {
    /// Starts a daemon on an ephemeral port whose cache lives under
    /// `results` (`results/cache`, as `campaign::cache_from_env` derives
    /// it), and checks `/healthz`.
    ///
    /// # Errors
    ///
    /// Bind or health-check failures.
    pub fn spawn(results: &Path) -> Result<Daemon, String> {
        std::env::set_var("CPELIDE_RESULTS_DIR", results);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            queue_bound: 1024,
            default_timeout: None,
        };
        let daemon = Daemon(Some(
            daemon::spawn(&config).map_err(|e| format!("bind: {e}"))?,
        ));
        let health = client::http_request(daemon.addr(), "GET", "/healthz", "")
            .map_err(|e| format!("/healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz returned {}", health.status));
        }
        Ok(daemon)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0
            .as_ref()
            .map(Server::addr)
            .unwrap_or(([127, 0, 0, 1], 0).into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// The cache directory a daemon rooted at `results` uses.
pub fn cache_dir(results: &Path) -> PathBuf {
    results.join("cache")
}

/// Simulates every cell of `pool` into the cache under `results`, the
/// way the batch campaign fills it, and returns each cell's simulated
/// access count by fingerprint.
///
/// # Errors
///
/// When a pool cell was already cached (the directory was not fresh).
pub fn fill(pool: &[CellSpec], results: &Path) -> Result<HashMap<String, u64>, String> {
    let cache = DiskCache::new(cache_dir(results));
    let mut accesses = HashMap::new();
    for spec in pool {
        let out = campaign::execute_cell(spec, Some(&cache));
        let phases = out
            .phases
            .ok_or_else(|| format!("pool cell {} came from a stale cache", spec.id()))?;
        accesses.insert(spec.fingerprint(), phases.get(SimPhase::AccessReplay).ops);
    }
    Ok(accesses)
}

/// Everything serve-warm sets up before its timed phase.
pub struct ServeSetup {
    pub reference: Reference,
    pub pool: Vec<CellSpec>,
    /// Simulated accesses per pool cell, by fingerprint.
    pub accesses: HashMap<String, u64>,
    pub daemon: Daemon,
}

/// Loads the reference, draws the pool, simulates it into a fresh cache
/// and spawns a daemon over that cache.
///
/// # Errors
///
/// Reference, file-system, fill or spawn failures.
pub fn setup(args: &Args, reference_path: &Path, work: &WorkDir) -> Result<ServeSetup, String> {
    let reference = Reference::load(reference_path)?;
    let pool = select::serve_pool(&campaign::cells(), args.seed);
    if pool.len() < CELLS_PER_REQUEST {
        return Err(format!("serve pool has only {} cells", pool.len()));
    }
    let results = work
        .fresh("results")
        .map_err(|e| format!("results dir: {e}"))?;
    let accesses = fill(&pool, &results)?;
    let daemon = Daemon::spawn(&results)?;
    Ok(ServeSetup {
        reference,
        pool,
        accesses,
        daemon,
    })
}

/// Runs the set-up [`SETUP_REPS`] times, each fully (reference, pool,
/// cache fill, daemon spawn; the previous daemon is shut down first), with
/// [`calib::repeat_setup`].
///
/// # Errors
///
/// The first set-up failure.
pub fn repeated_setup(
    args: &Args,
    reference_path: &Path,
    work: &WorkDir,
) -> Result<(ServeSetup, SetupTime), String> {
    calib::repeat_setup(SETUP_REPS, || setup(args, reference_path, work))
}

/// One streamed sweep response, with client-side timestamps.
pub struct Streamed {
    pub status: u16,
    pub lines: Vec<String>,
    /// From sending the request to the first NDJSON line.
    pub first_line: Option<Duration>,
    /// From sending the request to the `done` line.
    pub done: Option<Duration>,
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Sends one `POST /v1/sweep` and reads the chunked NDJSON stream,
/// timestamping the first line and the `done` line as they arrive.
///
/// # Errors
///
/// Socket failures or a malformed response.
pub fn stream_sweep(addr: SocketAddr, body: &str) -> std::io::Result<Streamed> {
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let req = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: cpelide\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if header.starts_with("transfer-encoding:") && header.contains("chunked") {
            chunked = true;
        }
    }
    let mut out = Streamed {
        status,
        lines: Vec::new(),
        first_line: None,
        done: None,
    };
    if !chunked {
        let mut body = String::new();
        reader.read_to_string(&mut body)?;
        out.lines = body.lines().map(str::to_owned).collect();
        return Ok(out);
    }
    let mut pending = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        if size == 0 {
            break;
        }
        pending.push_str(std::str::from_utf8(&chunk[..size]).map_err(|_| bad("non-UTF-8 chunk"))?);
        while let Some(end) = pending.find('\n') {
            let l: String = pending.drain(..=end).collect();
            let l = l.trim_end().to_owned();
            if l.is_empty() {
                continue;
            }
            let at = sent.elapsed();
            out.first_line.get_or_insert(at);
            if l.contains("\"event\":\"done\"") {
                out.done = Some(at);
            }
            out.lines.push(l);
        }
    }
    Ok(out)
}

/// The `POST /v1/sweep` body for `cells`.
pub fn sweep_body(client_name: &str, cells: &[&CellSpec]) -> String {
    let cells: Vec<Json> = cells
        .iter()
        .map(|s| {
            Json::object()
                .with("workload", s.cell.workload.name())
                .with("protocol", s.cell.protocol.label())
                .with("chiplets", s.cell.chiplets)
                .with("suite", s.suite.label())
        })
        .collect();
    Json::object()
        .with("client", client_name)
        .with("cells", Json::Arr(cells))
        .render_compact()
}

/// Checks one response: HTTP 200, one ok cached cell event per requested
/// cell in order with a row equal to the reference, and a `done` line
/// with `ok == total == cache_hits`. Returns the ok cells and the rows.
fn verify(resp: &Streamed, cells: &[&CellSpec], reference: &Reference) -> (usize, Vec<Json>) {
    if resp.status != 200 || resp.lines.len() != cells.len() + 1 {
        return (0, Vec::new());
    }
    let n = cells.len() as f64;
    let done_ok = json::parse(&resp.lines[cells.len()]).is_ok_and(|d| {
        d.get("event").and_then(Json::as_str) == Some("done")
            && d.get("total").and_then(Json::as_f64) == Some(n)
            && d.get("ok").and_then(Json::as_f64) == Some(n)
            && d.get("cache_hits").and_then(Json::as_f64) == Some(n)
    });
    if !done_ok {
        return (0, Vec::new());
    }
    let mut ok = 0;
    let mut rows = Vec::new();
    for (i, (line, spec)) in resp.lines.iter().zip(cells).enumerate() {
        let Ok(event) = json::parse(line) else {
            continue;
        };
        let Some(row) = event.get("cell") else {
            continue;
        };
        let good = event.get("index").and_then(Json::as_f64) == Some(i as f64)
            && event.get("status").and_then(Json::as_str) == Some("ok")
            && event.get("cached").and_then(Json::as_bool) == Some(true)
            && row.get("fingerprint").and_then(Json::as_str) == Some(spec.fingerprint().as_str())
            && reference.matches(row);
        if good {
            ok += 1;
        } else {
            eprintln!("perfbench: served row for {} is wrong: {line}", spec.id());
        }
        rows.push(row.clone());
    }
    (ok, rows)
}

/// What the closed loop observed.
#[derive(Default)]
pub struct LoopStats {
    /// Client-side request latencies (send to `done`), ms.
    pub req_ms: Vec<f64>,
    /// Client-side time to the first streamed line, ms.
    pub first_row_ms: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    pub cells_attempted: u64,
    pub cells_ok: u64,
    /// Simulated accesses behind the ok cells.
    pub accesses_ok: u64,
    /// A sample of served rows for the gate self-test.
    pub rows: Vec<Json>,
    /// Wall time of the loop, s.
    pub elapsed_s: f64,
}

impl LoopStats {
    fn absorb(&mut self, other: LoopStats) {
        self.req_ms.extend(other.req_ms);
        self.first_row_ms.extend(other.first_row_ms);
        self.requests += other.requests;
        self.cells_attempted += other.cells_attempted;
        self.cells_ok += other.cells_ok;
        self.accesses_ok += other.accesses_ok;
        if self.rows.len() < 4 * CELLS_PER_REQUEST {
            self.rows.extend(other.rows);
        }
    }
}

/// One closed-loop client's state.
struct Client {
    name: String,
    rng: chiplet_harness::rng::Xoshiro256,
    order: Vec<usize>,
}

impl Client {
    /// Sends `requests` requests back to back, each for
    /// [`CELLS_PER_REQUEST`] distinct pool cells, and checks every answer.
    fn run(
        &mut self,
        requests: usize,
        addr: SocketAddr,
        pool: &[CellSpec],
        fingerprints: &[String],
        accesses: &HashMap<String, u64>,
        reference: &Reference,
    ) -> LoopStats {
        let mut st = LoopStats::default();
        for _ in 0..requests {
            select::shuffle(&mut self.order, &mut self.rng);
            let pick = &self.order[..CELLS_PER_REQUEST];
            let cells: Vec<&CellSpec> = pick.iter().map(|&i| &pool[i]).collect();
            let body = sweep_body(&self.name, &cells);
            st.requests += 1;
            st.cells_attempted += cells.len() as u64;
            let Ok(resp) = stream_sweep(addr, &body) else {
                continue;
            };
            let (ok, rows) = verify(&resp, &cells, reference);
            if let (Some(done), Some(first)) = (resp.done, resp.first_line) {
                st.req_ms.push(done.as_secs_f64() * 1e3);
                st.first_row_ms.push(first.as_secs_f64() * 1e3);
            }
            st.cells_ok += ok as u64;
            if ok == cells.len() {
                st.accesses_ok += pick
                    .iter()
                    .map(|&i| accesses.get(&fingerprints[i]).copied().unwrap_or(0))
                    .sum::<u64>();
            }
            if st.rows.len() < 4 * CELLS_PER_REQUEST {
                st.rows.extend(rows);
            }
        }
        st
    }
}

/// Requests per client per second on the reference machine: a run of
/// `seconds` sends `seconds * NOMINAL_RATE` requests per client, a fixed
/// amount of work, so memory that grows per request grows the same in
/// every run.
const NOMINAL_RATE: f64 = 125.0;
/// Requests per client between two calibration rounds.
const SEGMENT: usize = 25;

/// Drives [`CLIENTS`] closed-loop connections through
/// `seconds * NOMINAL_RATE` requests each, in segments of [`SEGMENT`]
/// requests per client with a calibration round (clients idle) after
/// each. Each client draws its cells with its own seeded generator.
/// Times are as measured.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[CellSpec],
    accesses: &HashMap<String, u64>,
    reference: &Reference,
    seed: u64,
    seconds: f64,
    calibrator: &mut Calibrator,
) -> LoopStats {
    let fingerprints: Vec<String> = pool.iter().map(CellSpec::fingerprint).collect();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            name: format!("perfbench-{c}"),
            rng: select::rng(seed, 100 + c as u64),
            order: (0..pool.len()).collect(),
        })
        .collect();
    let segments = (seconds * NOMINAL_RATE / SEGMENT as f64).round().max(1.0) as usize;
    let mut all = LoopStats::default();
    for _ in 0..segments {
        let start = Instant::now();
        let parts: Vec<LoopStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let fingerprints = &fingerprints;
                    scope.spawn(move || {
                        client.run(SEGMENT, addr, pool, fingerprints, accesses, reference)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        all.elapsed_s += start.elapsed().as_secs_f64();
        for part in parts {
            all.absorb(part);
        }
        calibrator.round();
    }
    all
}

/// The daemon's `/metrics` samples by name (label-free samples only).
///
/// # Errors
///
/// Request or exposition-format failures.
pub fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let resp =
        client::http_request(addr, "GET", "/metrics", "").map_err(|e| format!("/metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics returned {}", resp.status));
    }
    let samples = prom::parse(&resp.body).map_err(|e| format!("/metrics: {e}"))?;
    Ok(samples
        .into_iter()
        .filter(|s| s.labels.is_empty())
        .map(|s| (s.name, s.value))
        .collect())
}

/// Reconciles the daemon's counters with the client's: every request
/// admitted, every requested cell completed, every completed cell a cache
/// hit, none failed or refused.
///
/// # Errors
///
/// A description of each disagreement.
pub fn reconcile(daemon: &HashMap<String, f64>, stats: &LoopStats) -> Result<(), String> {
    let get = |k: &str| daemon.get(k).copied().unwrap_or(f64::NAN);
    let cells = get("cpelide_serve_cells_total");
    let mut problems = Vec::new();
    for (name, got, want) in [
        (
            "requests",
            get("cpelide_serve_requests_total"),
            stats.requests as f64,
        ),
        ("cells", cells, stats.cells_attempted as f64),
        ("cache hits", get("cpelide_serve_cache_hits_total"), cells),
        ("failed cells", get("cpelide_serve_cells_failed_total"), 0.0),
        (
            "rejected requests",
            get("cpelide_serve_rejected_total"),
            0.0,
        ),
        ("bad requests", get("cpelide_serve_bad_requests_total"), 0.0),
    ] {
        if got != want {
            problems.push(format!("daemon {name} {got} != {want}"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// The timed run.
///
/// # Errors
///
/// Set-up failures. Wrong rows, misses and refusals are not errors: they
/// count as failed ops (and a failed reconciliation makes the run
/// incorrect).
pub fn timed(args: &Args, reference_path: &Path, work: &WorkDir) -> Result<Outcome, String> {
    let (setup, setup_time) = repeated_setup(args, reference_path, work)?;
    // No settle write between segments: it would evict the warm daemon
    // state this workload measures (see the README).
    let mut calibrator = Calibrator::new(Prep::Walk);
    // The peak covers the timed loop only, not the set-up's simulations.
    trim_heap();
    reset_peak_rss()?;
    let stats = closed_loop(
        setup.daemon.addr(),
        &setup.pool,
        &setup.accesses,
        &setup.reference,
        args.seed,
        args.seconds,
        &mut calibrator,
    );
    let mut correct = true;
    let daemon_metrics = scrape(setup.daemon.addr())?;
    if let Err(e) = reconcile(&daemon_metrics, &stats) {
        eprintln!("perfbench: reconciliation failed: {e}");
        correct = false;
    }
    gate::self_test(&setup.reference, &stats.rows)?;
    drop(setup.daemon);
    eprintln!(
        "perfbench: {} requests ({} latency samples), {} of {} cells ok, measured {:.2} s, \
         p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, calibration round {:.3} ms; \
         setup measured {:.4} s, \
         calibration round {:.3} ms",
        stats.requests,
        stats.req_ms.len(),
        stats.cells_ok,
        stats.cells_attempted,
        stats.elapsed_s,
        quantile(&stats.req_ms, 0.5),
        quantile(&stats.req_ms, 0.9),
        quantile(&stats.req_ms, 0.99),
        calibrator.mean_round_s() * 1e3,
        setup_time.measured_s,
        setup_time.round_s * 1e3
    );
    let failed = stats.cells_attempted - stats.cells_ok;
    Ok(Outcome {
        correct: correct && failed == 0 && stats.cells_attempted > 0,
        attempted: stats.cells_attempted.max(1),
        failed,
        metrics: end_to_end(&stats, &setup_time, &calibrator)?,
    })
}

/// The end-to-end metrics, every time scaled by its phase's calibration.
fn end_to_end(stats: &LoopStats, setup: &SetupTime, cal: &Calibrator) -> Result<Vec<Metric>, String> {
    let elapsed_s = cal.scale(stats.elapsed_s);
    Ok(vec![
        metric("cells_per_s", stats.cells_ok as f64 / elapsed_s, "1/s"),
        metric(
            "accesses_per_s",
            stats.accesses_ok as f64 / elapsed_s,
            "1/s",
        ),
        metric("req_ms_p50", cal.scale(quantile(&stats.req_ms, 0.5)), "ms"),
        metric("req_ms_p90", cal.scale(quantile(&stats.req_ms, 0.9)), "ms"),
        metric("setup_s", setup.calibrated_s, "s"),
        // The calibrator's table is resident throughout the loop; it is
        // the benchmark's, not the daemon's.
        metric("peak_rss_mb", peak_rss_mib()? - cal.footprint_mib(), "MiB"),
        metric(
            "ok_ratio",
            stats.cells_ok as f64 / stats.cells_attempted.max(1) as f64,
            "ratio",
        ),
    ])
}
