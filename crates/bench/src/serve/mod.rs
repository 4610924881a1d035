//! Simulation-as-a-service: the multi-tenant campaign daemon behind
//! `cargo run --release -p cpelide-bench --bin serve`.
//!
//! The batch `campaign` binary runs one owner's whole sweep and exits;
//! this daemon keeps the fleet warm and serves sweep requests from many
//! clients over a hand-rolled HTTP/1.1 wire protocol (DESIGN.md §16):
//!
//! - `POST /v1/sweep` — submit cells (explicit list or grid cross
//!   product); the response streams one chunked NDJSON line per cell as
//!   it completes, in request order, each row byte-identical to the
//!   batch `campaign.json` row for the same cell.
//! - `GET /metrics` — Prometheus exposition: cache hit rate, queue
//!   depth, per-client queue gauges, request-latency percentiles.
//! - `GET /v1/workloads` — the registered axes a sweep may use.
//! - `GET /healthz`, `POST /v1/shutdown` — liveness and clean stop.
//!
//! Scheduling is multi-tenant: per-client round-robin ([`sched`]), a
//! bounded admission queue with whole-request 429 backpressure, and
//! per-request deadlines that cancel not-yet-started cells. Results
//! come from the same `campaign::execute_cell` seam — and the same
//! `DiskCache` — as the batch runner, so the daemon and the campaign
//! share hits byte-for-byte.
//!
//! Hostile clients are bounded: request size and read time
//! ([`http`]'s limits), JSON nesting depth, and at most
//! [`MAX_CONNECTIONS`] live connections (more get a 503).

pub mod client;
pub mod http;
pub mod metrics;
pub mod sched;

use chiplet_harness::fleet::{self, ServicePool};
use chiplet_harness::json::Json;
use chiplet_harness::trace::prom;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use client::SweepRequest;
use http::{ChunkedWriter, DeadlineReader, HttpRequest, ReadError};
use metrics::ServeMetrics;
use sched::{lock, AdmitError, CellDone, CellStatus, Scheduler, SchedulerSource};

/// Most connections served at once; each holds a thread. A connection
/// accepted past it is answered 503 and closed.
pub const MAX_CONNECTIONS: usize = 128;

/// Daemon configuration, normally read from the environment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`CPELIDE_SERVE_ADDR`, default `127.0.0.1:8642`;
    /// tests bind port 0 for an ephemeral port).
    pub addr: String,
    /// Worker threads (`CPELIDE_JOBS` via `fleet::workers()`).
    pub workers: usize,
    /// Admission bound on queued cells (`CPELIDE_SERVE_QUEUE`, default
    /// 1024). A request that would overflow it is rejected whole (429).
    pub queue_bound: usize,
    /// Default per-request deadline (`CPELIDE_SERVE_TIMEOUT_MS`, default
    /// none); a request's own `timeout_ms` overrides it.
    pub default_timeout: Option<Duration>,
}

impl ServeConfig {
    /// Reads `CPELIDE_SERVE_ADDR` / `CPELIDE_SERVE_QUEUE` /
    /// `CPELIDE_SERVE_TIMEOUT_MS` / `CPELIDE_JOBS`, falling back to the
    /// defaults above on unset or unparsable values.
    pub fn from_env() -> Self {
        let parse_u64 = |key: &str| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        ServeConfig {
            addr: std::env::var("CPELIDE_SERVE_ADDR")
                .unwrap_or_else(|_| "127.0.0.1:8642".to_owned()),
            workers: fleet::workers(),
            queue_bound: parse_u64("CPELIDE_SERVE_QUEUE")
                .map(|n| n.max(1) as usize)
                .unwrap_or(1024),
            default_timeout: parse_u64("CPELIDE_SERVE_TIMEOUT_MS")
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
        }
    }
}

/// Shared state every connection thread sees.
struct ServeCtx {
    sched: Arc<Scheduler>,
    metrics: Arc<ServeMetrics>,
    workers: usize,
    default_timeout: Option<Duration>,
    stopping: AtomicBool,
    addr: SocketAddr,
    /// Connections being served (the [`MAX_CONNECTIONS`] count).
    live: AtomicUsize,
}

/// Holds one of the [`MAX_CONNECTIONS`] places until dropped.
struct LiveConnection(Arc<ServeCtx>);

impl Drop for LiveConnection {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon: the listener thread, the worker pool, and the
/// shared scheduler. Obtain one with [`spawn`]; stop it with
/// [`Server::shutdown`] or by letting a client `POST /v1/shutdown` and
/// then calling [`Server::join`].
pub struct Server {
    ctx: Arc<ServeCtx>,
    accept: std::thread::JoinHandle<()>,
    pool: ServicePool,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// The bound address (the actual port when the config asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The shared metrics (tests read counters directly).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.ctx.metrics)
    }

    /// Connection threads whose handles the daemon still holds: the
    /// running ones plus any that finished since the last accept (each
    /// accept drops the finished ones).
    pub fn retained_connections(&self) -> usize {
        lock(&self.conns).len()
    }

    /// Requests a stop and then [`Server::join`]s.
    pub fn shutdown(self) {
        self.ctx.stopping.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection; if that fails the
        // listener is already gone.
        let _ = TcpStream::connect(self.ctx.addr);
        self.join();
    }

    /// Waits for the daemon to stop (a `POST /v1/shutdown` or a prior
    /// stop request), then drains workers and connection threads.
    pub fn join(self) {
        let _ = self.accept.join();
        self.ctx.sched.shutdown();
        self.pool.join();
        let handles = std::mem::take(&mut *lock(&self.conns));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Binds, starts the worker pool and the accept loop, and returns the
/// running server. The campaign `DiskCache` is taken from the usual
/// environment (`CPELIDE_RESULTS_DIR`, `CPELIDE_CACHE=0` to disable), so
/// a daemon and a batch campaign pointed at the same results dir share
/// cached cells.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn(config: &ServeConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(ServeMetrics::new());
    let sched = Arc::new(Scheduler::new(
        config.queue_bound,
        crate::campaign::cache_from_env(),
        Arc::clone(&metrics),
    ));
    let pool = ServicePool::start(
        config.workers,
        Arc::new(SchedulerSource(Arc::clone(&sched))),
    );
    let ctx = Arc::new(ServeCtx {
        sched,
        metrics,
        workers: pool.workers(),
        default_timeout: config.default_timeout,
        stopping: AtomicBool::new(false),
        addr,
        live: AtomicUsize::new(0),
    });
    let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let ctx = Arc::clone(&ctx);
        let conns = Arc::clone(&conns);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if ctx.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                if stream.set_write_timeout(Some(http::WRITE_TIMEOUT)).is_err() {
                    continue;
                }
                if ctx.live.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                    ctx.live.fetch_sub(1, Ordering::SeqCst);
                    refuse_connection(&mut stream);
                    continue;
                }
                let live = LiveConnection(Arc::clone(&ctx));
                let handle = std::thread::spawn(move || handle_connection(stream, &live.0));
                let mut conns = lock(&conns);
                // Drop the handles of connections that have finished (their
                // threads are gone, so nothing is detached), so the list
                // tracks live connections, not every connection ever served.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
        })
    };
    Ok(Server {
        ctx,
        accept,
        pool,
        conns,
    })
}

/// The `GET /v1/workloads` document: every axis a sweep may use.
fn workloads_doc() -> Json {
    Json::object()
        .with(
            "workloads",
            Json::Arr(
                chiplet_workloads::known_names()
                    .into_iter()
                    .map(Json::Str)
                    .collect(),
            ),
        )
        .with(
            "protocols",
            Json::Arr(
                chiplet_coherence::ProtocolKind::ALL
                    .iter()
                    .map(|k| Json::Str(k.label().to_owned()))
                    .collect(),
            ),
        )
        .with(
            "chiplets",
            Json::object()
                .with("min", *chiplet_sim::cell::CHIPLET_RANGE.start())
                .with("max", *chiplet_sim::cell::CHIPLET_RANGE.end()),
        )
        .with(
            "suites",
            Json::Arr(vec![
                Json::Str("main".into()),
                Json::Str("multistream".into()),
            ]),
        )
}

/// Answers a connection accepted past [`MAX_CONNECTIONS`] with a 503
/// from the accept thread, without blocking it: whatever request bytes
/// have already arrived are drained first, so closing the socket does not
/// reset it before the client reads the answer.
fn refuse_connection(stream: &mut TcpStream) {
    if stream.set_nonblocking(true).is_ok() {
        let mut sink = [0u8; 4096];
        for _ in 0..16 {
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
    let _ = http::write_error(
        stream,
        503,
        "too_many_connections",
        &format!("the daemon is serving its maximum of {MAX_CONNECTIONS} connections; retry later"),
    );
}

/// Serves one connection: read one request, dispatch, close. Socket
/// errors just end the connection (and cancel a streaming sweep).
fn handle_connection(stream: TcpStream, ctx: &ServeCtx) {
    let peer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(DeadlineReader::new(peer_stream));
    let mut stream = stream;
    let (status, code, message) = match http::read_request(&mut reader) {
        Ok(Ok(request)) => {
            let _ = dispatch(&request, &mut stream, ctx);
            return;
        }
        Ok(Err(ReadError::Malformed(m))) => (400, "bad_request", m),
        Ok(Err(ReadError::TooLarge(n))) => (
            413,
            "payload_too_large",
            format!("body of {n} bytes exceeds {}", http::MAX_BODY_BYTES),
        ),
        Ok(Err(ReadError::HeadersTooLarge(m))) => (431, "headers_too_large", m),
        Err(e) if http::is_timeout(&e) => (
            408,
            "request_timeout",
            format!(
                "request not received within {} s",
                http::REQUEST_TIMEOUT.as_secs()
            ),
        ),
        Err(_) => return,
    };
    ctx.metrics.note_bad_request();
    let _ = http::write_error(&mut stream, status, code, &message);
}

fn dispatch(req: &HttpRequest, stream: &mut TcpStream, ctx: &ServeCtx) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::write_response(
            stream,
            200,
            "application/json",
            &Json::object().with("ok", true).render_compact(),
        ),
        ("GET", "/v1/workloads") => http::write_response(
            stream,
            200,
            "application/json",
            &workloads_doc().render_compact(),
        ),
        ("GET", "/metrics") => http::write_response(
            stream,
            200,
            "text/plain; version=0.0.4",
            &ctx.metrics.exposition(&ctx.sched, ctx.workers),
        ),
        ("POST", "/v1/sweep") => handle_sweep(&req.body, stream, ctx),
        ("POST", "/v1/shutdown") => {
            ctx.stopping.store(true, Ordering::SeqCst);
            let out = http::write_response(
                stream,
                200,
                "application/json",
                &Json::object().with("stopping", true).render_compact(),
            );
            // Unblock the accept loop so the owner's join() proceeds.
            let _ = TcpStream::connect(ctx.addr);
            out
        }
        ("GET" | "POST", _) if known_path(&req.path) => http::write_error(
            stream,
            405,
            "method_not_allowed",
            &format!("{} does not accept {}", req.path, req.method),
        ),
        _ => http::write_error(
            stream,
            404,
            "not_found",
            &format!("unknown path {}", req.path),
        ),
    }
}

fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/healthz" | "/v1/workloads" | "/metrics" | "/v1/sweep" | "/v1/shutdown"
    )
}

/// The NDJSON `cell` event for slot `index`: the small wrapper object
/// rendered by the JSON writer, with the row's rendered text spliced in
/// as its last field, `"cell"`. Byte-identical to rendering the event
/// with the row as a parsed tree, without parsing or re-rendering it.
fn cell_event(index: usize, done: &CellDone) -> String {
    let mut event = Json::object()
        .with("event", "cell")
        .with("index", index)
        .with("seq", done.seq as f64)
        .with("status", done.status.label());
    if done.status == CellStatus::Cancelled {
        return event.render_compact();
    }
    event.set("cached", done.cached);
    let mut line = event.render_compact();
    line.pop(); // the wrapper's closing brace
    line.push_str(",\"cell\":");
    line.push_str(&done.row);
    line.push('}');
    line
}

/// `POST /v1/sweep`: validate, admit (or 429), then stream one NDJSON
/// event per cell in request order as the scheduler completes them,
/// ending with a `done` summary event. Lines are queued and sent in one
/// write whenever the next cell is not done yet, so the client has every
/// finished line while the handler waits, and at the end. A write
/// failure means the client disconnected: the request's remaining queued
/// cells are cancelled. The latency histogram times a streamed request
/// from before validation to its last chunk.
fn handle_sweep(body: &str, stream: &mut TcpStream, ctx: &ServeCtx) -> std::io::Result<()> {
    let started = Instant::now();
    let SweepRequest {
        client,
        specs,
        timeout,
    } = match client::parse_sweep(body) {
        Ok(r) => r,
        Err(m) => {
            ctx.metrics.note_bad_request();
            return http::write_error(stream, 400, "bad_request", &m);
        }
    };
    let timeout = timeout.or(ctx.default_timeout);
    let req = match ctx.sched.submit(&client, specs, timeout) {
        Ok(req) => req,
        Err(e @ AdmitError::Backpressure(..)) => {
            ctx.metrics.note_rejected();
            return http::write_error(stream, 429, "backpressure", &e.to_string());
        }
        Err(e @ AdmitError::ShuttingDown) => {
            return http::write_error(stream, 503, "shutting_down", &e.to_string());
        }
    };
    ctx.metrics.note_request();
    let mut writer = ChunkedWriter::start(stream, 200);
    let (mut ok, mut failed, mut cancelled, mut hits) = (0u64, 0u64, 0u64, 0u64);
    for index in 0..req.total() {
        let done = match ctx.sched.try_cell(&req, index) {
            Some(done) => done,
            None => {
                if writer.flush().is_err() {
                    // Client went away mid-stream: stop work it no longer wants.
                    ctx.sched.cancel(&req);
                    return Ok(());
                }
                ctx.sched.wait_cell(&req, index)
            }
        };
        match done.status {
            CellStatus::Ok => {
                ok += 1;
                hits += u64::from(done.cached);
            }
            CellStatus::Failed => failed += 1,
            CellStatus::Cancelled => cancelled += 1,
        }
        if writer.line(&cell_event(index, &done)).is_err() {
            ctx.sched.cancel(&req);
            return Ok(());
        }
    }
    let summary = Json::object()
        .with("event", "done")
        .with("total", req.total())
        .with("ok", ok)
        .with("failed", failed)
        .with("cancelled", cancelled)
        .with("cache_hits", hits);
    let _ = writer.line(&summary.render_compact());
    let out = writer.finish();
    let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    ctx.metrics.observe_latency_ms(ms);
    out
}

/// The daemon's hermetic self-test (`serve --smoke`), which is also the
/// CI smoke step: boot on an ephemeral port, stream a two-cell sweep,
/// check the events and the summary, send the same sweep again and check
/// it is answered from the row memo with byte-equal rows (skipped with
/// `CPELIDE_CACHE=0`, which memoises nothing), check `/metrics` parses as
/// valid Prometheus exposition, then shut down cleanly over the wire.
///
/// # Errors
///
/// A description of the first failed check.
pub fn smoke_self_test() -> Result<(), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 64,
        default_timeout: None,
    };
    let server = spawn(&config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let io = |e: std::io::Error| format!("smoke request failed: {e}");

    let health = client::http_request(addr, "GET", "/healthz", "").map_err(io)?;
    if health.status != 200 {
        return Err(format!("/healthz returned {}", health.status));
    }

    let body = r#"{"client":"smoke","cells":[
        {"workload":"square","protocol":"Baseline","chiplets":1},
        {"workload":"square","protocol":"CPElide","chiplets":1}
    ]}"#;
    let (first_rows, _) = smoke_sweep(addr, body)?;
    if crate::campaign::cache_from_env().is_some() {
        let (rows, hits) = smoke_sweep(addr, body)?;
        if hits != Some(2.0) {
            return Err(format!(
                "a repeated sweep reported {hits:?} cache hits, not 2"
            ));
        }
        if rows != first_rows {
            return Err("a repeated sweep's rows differ from the first".to_owned());
        }
    }

    let metrics = client::http_request(addr, "GET", "/metrics", "").map_err(io)?;
    if metrics.status != 200 {
        return Err(format!("/metrics returned {}", metrics.status));
    }
    prom::parse(&metrics.body).map_err(|e| format!("/metrics does not parse: {e}"))?;
    if !metrics.body.contains("cpelide_serve_cells_total") {
        return Err("metrics exposition is missing the serve counters".to_owned());
    }

    let stop = client::http_request(addr, "POST", "/v1/shutdown", "").map_err(io)?;
    if stop.status != 200 {
        return Err(format!("/v1/shutdown returned {}", stop.status));
    }
    server.join();
    Ok(())
}

/// Streams the smoke sweep `body` and checks it: two ok cell events
/// carrying metrics, then a `done` event counting two ok cells. Returns
/// each cell event's text from its `"cell"` field on, as sent, and the
/// `done` event's `cache_hits`.
fn smoke_sweep(addr: SocketAddr, body: &str) -> Result<(Vec<String>, Option<f64>), String> {
    let sweep = client::http_request(addr, "POST", "/v1/sweep", body)
        .map_err(|e| format!("smoke request failed: {e}"))?;
    if sweep.status != 200 {
        return Err(format!("sweep returned {}: {}", sweep.status, sweep.body));
    }
    let lines = sweep.lines();
    if lines.len() != 3 {
        return Err(format!("expected 2 cell events + done, got {lines:?}"));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.iter().take(2).enumerate() {
        let event = chiplet_harness::json::parse(line)
            .map_err(|e| format!("cell event {i} is not JSON: {e}"))?;
        if event.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("cell event {i} not ok: {line}"));
        }
        if event.get("cell").and_then(|c| c.get("metrics")).is_none() {
            return Err(format!("cell event {i} carries no metrics: {line}"));
        }
        let at = line
            .find(r#","cell":"#)
            .ok_or_else(|| format!("cell event {i} has no row: {line}"))?;
        rows.push(line[at..].to_owned());
    }
    let done = chiplet_harness::json::parse(lines[2]).map_err(|e| format!("done event: {e}"))?;
    if done.get("ok").and_then(Json::as_f64) != Some(2.0) {
        return Err(format!("done event disagrees: {}", lines[2]));
    }
    Ok((rows, done.get("cache_hits").and_then(Json::as_f64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_harness::json;

    /// The event line built as one tree, with the row parsed back in.
    fn tree_event(index: usize, done: &CellDone) -> String {
        let mut event = Json::object()
            .with("event", "cell")
            .with("index", index)
            .with("seq", done.seq as f64)
            .with("status", done.status.label());
        if done.status != CellStatus::Cancelled {
            event.set("cached", done.cached);
            event.set("cell", json::parse(&done.row).expect("row is JSON"));
        }
        event.render_compact()
    }

    #[test]
    fn cell_events_splice_the_row_text_byte_for_byte() {
        let spec = client::parse_sweep(
            r#"{"client":"t","cells":[{"workload":"square","protocol":"CPElide","chiplets":4}]}"#,
        )
        .expect("valid sweep")
        .specs
        .remove(0);
        let metrics = Json::object()
            .with("cycles", 123_456u64)
            .with("ratio", 0.1 + 0.2)
            .with("note", "quote \" backslash \\ newline \n")
            .with("empty", Json::object())
            .with("list", Json::Arr(vec![Json::Null, Json::Bool(true)]));
        let ok_row = spec.row(Ok(&metrics)).render_compact();
        let failed_row = spec.row(Err("boom \"x\"")).render_compact();
        for (status, row, cached) in [
            (CellStatus::Ok, ok_row.as_str(), true),
            (CellStatus::Ok, ok_row.as_str(), false),
            (CellStatus::Failed, failed_row.as_str(), false),
            (CellStatus::Cancelled, "", false),
        ] {
            let done = CellDone {
                row: row.into(),
                cached,
                seq: 42,
                status,
            };
            for index in [0, 7, 4095] {
                assert_eq!(cell_event(index, &done), tree_event(index, &done));
            }
        }
    }
}
