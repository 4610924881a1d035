//! End-to-end tests for the campaign daemon (`--bin serve`), driving a
//! real subprocess over real sockets:
//!
//! - a served sweep's rows are byte-identical to the rows the batch
//!   `campaign` binary wrote for the same cells, and come straight from
//!   the shared disk cache;
//! - concurrent clients both complete, and a client repeating an
//!   already-served grid gets every cell as a cache hit;
//! - a client that never reads its response does not starve a concurrent
//!   client (per-client round-robin scheduling);
//! - a burst over the admission bound is rejected whole with a 429 and
//!   the daemon stays serviceable, while the same burst of memoised cells
//!   is answered at admission, since only cells that must queue count;
//! - a request deadline cancels not-yet-started cells while the stream
//!   still terminates with every index accounted for;
//! - the daemon drops finished connection threads as it accepts new
//!   ones, so the handles it holds do not grow with requests served;
//! - a repeated cell is answered from the daemon's row memo (still
//!   `cached`, byte-identical) even after its cache file is deleted, and
//!   with `CPELIDE_CACHE=0` it is simulated again;
//! - a finished line is on the wire while a later cell still runs;
//! - hostile input gets its status and the daemon survives: deep JSON
//!   nesting (400), oversized lines and headers (431), a stalled client
//!   (408, without blocking others) and too many connections (503).

use chiplet_harness::json::{self, Json};
use chiplet_harness::trace::prom;
use cpelide_bench::serve::{self, client, http, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp(sub: &str) -> PathBuf {
    let p = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("serve_e2e")
        .join(sub);
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create tmp results dir");
    p
}

/// A daemon subprocess bound to an ephemeral port. Dropping it kills the
/// child, so a panicking test never leaks a listener.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(results: &Path, extra_env: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
        cmd.env("CPELIDE_SMOKE", "1")
            .env("CPELIDE_RESULTS_DIR", results)
            .env("CPELIDE_SERVE_ADDR", "127.0.0.1:0")
            .env("CPELIDE_JOBS", "2")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for var in [
            "CPELIDE_SERVE_QUEUE",
            "CPELIDE_SERVE_TIMEOUT_MS",
            "CPELIDE_CACHE",
            "CPELIDE_FAIL_CELL",
        ] {
            cmd.env_remove(var);
        }
        for (k, v) in extra_env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn the serve binary");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("daemon prints its listening line")
            .expect("read the listening line");
        let addr: SocketAddr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparsable listening line: {banner}"));
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    /// Clean stop over the wire; asserts the daemon acknowledges it.
    fn shutdown(&mut self) {
        let resp =
            client::http_request(self.addr, "POST", "/v1/shutdown", "").expect("shutdown request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parses the NDJSON stream of a 200 sweep response into (cell events,
/// done summary), asserting indices arrive in request order.
fn parse_stream(resp: &client::HttpResponse) -> (Vec<Json>, Json) {
    assert_eq!(resp.status, 200, "{}", resp.body);
    let lines = resp.lines();
    assert!(!lines.is_empty(), "empty stream");
    let mut cells = Vec::new();
    for (i, line) in lines[..lines.len() - 1].iter().enumerate() {
        let event = json::parse(line).unwrap_or_else(|e| panic!("line {i} not JSON ({e}): {line}"));
        assert_eq!(event.get("event").and_then(Json::as_str), Some("cell"));
        assert_eq!(
            event.get("index").and_then(Json::as_f64),
            Some(i as f64),
            "events must arrive in request order"
        );
        cells.push(event);
    }
    let done = json::parse(lines[lines.len() - 1]).expect("done event parses");
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(
        done.get("total").and_then(Json::as_f64),
        Some(cells.len() as f64)
    );
    (cells, done)
}

#[test]
fn served_rows_are_byte_identical_to_batch_campaign_rows() {
    let dir = tmp("byte_identity");
    // The batch campaign writes campaign.json and populates the shared
    // disk cache under the same results dir the daemon will use.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.env("CPELIDE_SMOKE", "1")
        .env("CPELIDE_RESULTS_DIR", &dir)
        .env("CPELIDE_JOBS", "2")
        .env_remove("CPELIDE_CACHE")
        .env_remove("CPELIDE_FAIL_CELL");
    let out = cmd.output().expect("run the campaign binary");
    assert!(
        out.status.success(),
        "batch campaign failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(dir.join("campaign.json")).expect("report"))
        .expect("campaign.json parses");
    let rows = doc.get("cells").and_then(Json::as_arr).expect("cells");

    // Ask the daemon for exactly the batch cells, in the batch order.
    let request_cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            let axis = |k: &str| r.get(k).and_then(Json::as_str).expect(k).to_owned();
            Json::object()
                .with("workload", axis("workload"))
                .with("protocol", axis("protocol"))
                .with(
                    "chiplets",
                    r.get("chiplets").and_then(Json::as_f64).expect("n"),
                )
                .with("suite", axis("suite"))
        })
        .collect();
    let body = Json::object()
        .with("client", "e2e")
        .with("cells", Json::Arr(request_cells))
        .render_compact();

    let mut daemon = Daemon::start(&dir, &[]);
    let resp = client::http_request(daemon.addr, "POST", "/v1/sweep", &body).expect("sweep");
    let (cells, done) = parse_stream(&resp);
    assert_eq!(cells.len(), rows.len());
    for (i, (event, want)) in cells.iter().zip(rows.iter()).enumerate() {
        assert_eq!(
            event.get("status").and_then(Json::as_str),
            Some("ok"),
            "cell {i}: {event:?}"
        );
        assert_eq!(
            event.get("cached").and_then(Json::as_bool),
            Some(true),
            "cell {i} must be a hit on the batch campaign's cache"
        );
        let got = event.get("cell").expect("served cell row");
        assert!(
            got.render() == want.render(),
            "cell {i}: served row drifted from the batch campaign.json row"
        );
    }
    assert_eq!(
        done.get("cache_hits").and_then(Json::as_f64),
        Some(rows.len() as f64)
    );
    daemon.shutdown();
}

#[test]
fn concurrent_clients_complete_and_repeats_hit_the_cache() {
    let dir = tmp("cache_sharing");
    let mut daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr;

    // Two concurrent clients with overlapping grids; both must complete.
    let sweep = |name: &str, protocols: &str| {
        format!(
            r#"{{"client":"{name}","grid":{{"workloads":["square"],"protocols":{protocols},"chiplets":[1]}}}}"#
        )
    };
    let body_a = sweep("alice", r#"["Baseline","CPElide"]"#);
    let body_b = sweep("bob", r#"["Baseline","HMG"]"#);
    let ta = std::thread::spawn(move || {
        client::http_request(addr, "POST", "/v1/sweep", &body_a).expect("alice")
    });
    let tb = std::thread::spawn(move || {
        client::http_request(addr, "POST", "/v1/sweep", &body_b).expect("bob")
    });
    for resp in [
        ta.join().expect("alice thread"),
        tb.join().expect("bob thread"),
    ] {
        let (cells, done) = parse_stream(&resp);
        assert_eq!(cells.len(), 2);
        assert_eq!(done.get("ok").and_then(Json::as_f64), Some(2.0));
    }

    // A third client repeating bob's grid gets every cell from the cache.
    let resp = client::http_request(
        addr,
        "POST",
        "/v1/sweep",
        &sweep("carol", r#"["Baseline","HMG"]"#),
    )
    .expect("carol");
    let (cells, done) = parse_stream(&resp);
    for (i, event) in cells.iter().enumerate() {
        assert_eq!(
            event.get("cached").and_then(Json::as_bool),
            Some(true),
            "carol's cell {i} must be a cache hit"
        );
    }
    assert_eq!(done.get("cache_hits").and_then(Json::as_f64), Some(2.0));

    // /metrics reflects the traffic and stays a valid exposition.
    let metrics = client::http_request(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(metrics.status, 200);
    let samples = prom::parse(&metrics.body).expect("/metrics parses as Prometheus text");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(find("cpelide_serve_requests_total") as u64, 3);
    assert_eq!(find("cpelide_serve_cells_total") as u64, 6);
    assert!(find("cpelide_serve_cache_hits_total") as u64 >= 2);
    // Latency is recorded just *after* the final chunk is flushed, so the
    // third observation may race this scrape; two are certainly visible.
    assert!(find("cpelide_serve_request_latency_ms_count") as u64 >= 2);
    daemon.shutdown();
}

#[test]
fn slow_reader_does_not_starve_a_concurrent_client() {
    let dir = tmp("slow_reader");
    // One worker, so the two clients genuinely contend for execution.
    let mut daemon = Daemon::start(&dir, &[("CPELIDE_JOBS", "1")]);
    let addr = daemon.addr;

    // The slow client submits four cells and then never reads a byte.
    let body = r#"{"client":"slow","grid":{"workloads":["square"],"protocols":["Baseline","CPElide","HMG","Monolithic"],"chiplets":[2]}}"#;
    let mut slow = TcpStream::connect(addr).expect("connect slow client");
    let raw = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    slow.write_all(raw.as_bytes()).expect("send slow sweep");
    slow.flush().expect("flush slow sweep");

    // The fast client must still be served; a read timeout turns a
    // starvation hang into a test failure instead of a CI hang.
    let fast = TcpStream::connect(addr).expect("connect fast client");
    fast.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    let resp = client::request_on(
        fast,
        "POST",
        "/v1/sweep",
        r#"{"client":"fast","cells":[{"workload":"square","protocol":"Baseline","chiplets":1}]}"#,
    )
    .expect("fast client is served while the slow reader idles");
    let (cells, done) = parse_stream(&resp);
    assert_eq!(cells.len(), 1);
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(1.0));

    // The slow client's stream was never abandoned: reading it now
    // yields the complete response.
    slow.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    let resp = client::read_response(slow).expect("slow stream completes");
    let (cells, done) = parse_stream(&resp);
    assert_eq!(cells.len(), 4);
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(4.0));
    daemon.shutdown();
}

#[test]
fn over_quota_burst_is_rejected_whole_with_backpressure() {
    let dir = tmp("backpressure");
    let mut daemon = Daemon::start(&dir, &[("CPELIDE_SERVE_QUEUE", "2")]);
    let addr = daemon.addr;

    // Three cells against an admission bound of two: rejected whole —
    // no partial admission, nothing executes.
    let resp = client::http_request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"client":"burst","grid":{"workloads":["square"],"protocols":["Baseline","CPElide","HMG"],"chiplets":[1]}}"#,
    )
    .expect("burst sweep");
    assert_eq!(resp.status, 429, "{}", resp.body);
    let err = json::parse(&resp.body).expect("429 body is JSON");
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("backpressure")
    );

    // Backpressure is not sticky: a request within the bound succeeds.
    let resp = client::http_request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"client":"burst","cells":[{"workload":"square","protocol":"Baseline","chiplets":1}]}"#,
    )
    .expect("in-quota sweep");
    let (cells, _done) = parse_stream(&resp);
    assert_eq!(cells.len(), 1);

    let metrics = client::http_request(addr, "GET", "/metrics", "").expect("metrics");
    let samples = prom::parse(&metrics.body).expect("/metrics parses");
    let rejected = samples
        .iter()
        .find(|s| s.name == "cpelide_serve_rejected_total")
        .expect("rejected counter")
        .value;
    assert_eq!(rejected as u64, 1);
    daemon.shutdown();
}

#[test]
fn memoised_cells_do_not_count_against_the_admission_bound() {
    let dir = tmp("admit_memo");
    let mut daemon = Daemon::start(&dir, &[("CPELIDE_SERVE_QUEUE", "2")]);
    let grid = |protocols: &str| {
        format!(
            r#"{{"client":"t","grid":{{"workloads":["square"],"protocols":{protocols},"chiplets":[1]}}}}"#
        )
    };
    let all = grid(r#"["Baseline","CPElide","HMG"]"#);
    let cold = client::http_request(daemon.addr, "POST", "/v1/sweep", &all).expect("cold sweep");
    assert_eq!(cold.status, 429, "three cold cells overflow a bound of two");
    // Warm the same three cells in requests the bound admits.
    for part in [r#"["Baseline","CPElide"]"#, r#"["HMG"]"#] {
        let resp =
            client::http_request(daemon.addr, "POST", "/v1/sweep", &grid(part)).expect("warm-up");
        parse_stream(&resp);
    }
    let warm = client::http_request(daemon.addr, "POST", "/v1/sweep", &all).expect("warm sweep");
    let (cells, done) = parse_stream(&warm);
    assert_eq!(cells.len(), 3);
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(3.0));
    assert_eq!(done.get("cache_hits").and_then(Json::as_f64), Some(3.0));
    daemon.shutdown();
}

#[test]
fn deadline_cancels_not_yet_started_cells() {
    let dir = tmp("deadline");
    // One worker, empty cache, 40 cells, 1 ms deadline: the tail of the
    // queue cannot have started when the deadline fires.
    let mut daemon = Daemon::start(&dir, &[("CPELIDE_JOBS", "1"), ("CPELIDE_CACHE", "0")]);
    let resp = client::http_request(
        daemon.addr,
        "POST",
        "/v1/sweep",
        r#"{"client":"hasty","timeout_ms":1,"grid":{"workloads":["square"],"protocols":["Baseline","CPElide","HMG","HMG-WB","Monolithic"],"chiplets":[1,2,3,4,5,6,7,8]}}"#,
    )
    .expect("deadline sweep");
    let (cells, done) = parse_stream(&resp);
    assert_eq!(cells.len(), 40);
    let mut ok = 0u64;
    let mut cancelled = 0u64;
    for (i, event) in cells.iter().enumerate() {
        match event.get("status").and_then(Json::as_str) {
            Some("ok") => {
                ok += 1;
                assert!(event.get("cell").is_some(), "ok cell {i} carries its row");
            }
            Some("cancelled") => {
                cancelled += 1;
                // A cancelled cell never ran: it has no row to stream.
                assert!(event.get("cell").is_none(), "cancelled cell {i} has a row");
            }
            other => panic!("cell {i}: unexpected status {other:?}"),
        }
    }
    assert!(
        cancelled >= 1,
        "a 1 ms deadline must cancel some of 40 cells"
    );
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(ok as f64));
    assert_eq!(
        done.get("cancelled").and_then(Json::as_f64),
        Some(cancelled as f64)
    );
    daemon.shutdown();
}

#[test]
fn finished_connection_threads_are_reaped() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_bound: 16,
        default_timeout: None,
    };
    let server = serve::spawn(&config).expect("bind an ephemeral port");
    for i in 0..200 {
        let resp = client::http_request(server.addr(), "GET", "/healthz", "")
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(resp.status, 200, "request {i}");
    }
    // Each accept drops the handles of threads that finished before it,
    // so only the last few connections can still be held; without
    // reaping this is 200.
    let held = server.retained_connections();
    assert!(
        held <= 16,
        "{held} connection handles held after 200 requests"
    );
    server.shutdown();
}

/// The `"code"` of an error response's body.
fn error_code(resp: &client::HttpResponse) -> String {
    json::parse(&resp.body)
        .ok()
        .and_then(|e| {
            e.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        })
        .unwrap_or_else(|| panic!("not an error body: {}", resp.body))
}

/// Sends `raw` bytes as the whole request and reads the response.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> client::HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream.write_all(raw).expect("send request");
    client::read_response(stream).expect("read response")
}

/// A one-cell sweep body for `workload:protocol:chiplets`.
fn one_cell(workload: &str, protocol: &str, chiplets: usize) -> String {
    format!(
        r#"{{"client":"t","cells":[{{"workload":"{workload}","protocol":"{protocol}","chiplets":{chiplets}}}]}}"#
    )
}

/// The rendered text of the first cell event's row, as sent.
fn row_text(resp: &client::HttpResponse) -> &str {
    let line = resp.lines()[0];
    let at = line.find(r#","cell":"#).expect("cell event carries a row");
    &line[at..]
}

#[test]
fn a_repeated_cell_is_served_from_the_row_memo() {
    let dir = tmp("row_memo");
    let mut daemon = Daemon::start(&dir, &[]);
    let body = one_cell("square", "CPElide", 2);
    let first = client::http_request(daemon.addr, "POST", "/v1/sweep", &body).expect("sweep");
    let (cells, _) = parse_stream(&first);
    assert_eq!(cells[0].get("cached").and_then(Json::as_bool), Some(false));
    // Delete the cache file: only the daemon's memo can still answer.
    std::fs::remove_dir_all(dir.join("cache")).expect("remove the cache");
    let again = client::http_request(daemon.addr, "POST", "/v1/sweep", &body).expect("sweep");
    let (cells, done) = parse_stream(&again);
    assert_eq!(cells[0].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(done.get("cache_hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(row_text(&again), row_text(&first), "memoised row drifted");
    assert!(
        !dir.join("cache").exists(),
        "a memo hit neither reads nor writes the disk cache"
    );
    daemon.shutdown();

    // Without a disk cache the daemon memoises nothing: a repeat is
    // simulated again.
    let mut daemon = Daemon::start(&tmp("row_memo_off"), &[("CPELIDE_CACHE", "0")]);
    for _ in 0..2 {
        let resp = client::http_request(daemon.addr, "POST", "/v1/sweep", &body).expect("sweep");
        let (cells, _) = parse_stream(&resp);
        assert_eq!(cells[0].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(row_text(&resp), row_text(&first));
    }
    daemon.shutdown();
}

#[test]
fn a_finished_line_is_sent_while_a_later_cell_still_runs() {
    let dir = tmp("incremental");
    let mut daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr;
    let warm = client::http_request(
        addr,
        "POST",
        "/v1/sweep",
        &one_cell("square", "Baseline", 1),
    )
    .expect("warm-up sweep");
    parse_stream(&warm);

    // [warm cell, heavy cold cell]: the heavy one simulates for about a
    // second, so the first line must arrive long before the stream ends.
    let body = r#"{"client":"t","cells":[{"workload":"square","protocol":"Baseline","chiplets":1},{"workload":"sssp","protocol":"HMG","chiplets":7}]}"#;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send sweep");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("response head");
        if line.trim_end().is_empty() {
            break;
        }
    }
    line.clear();
    reader.read_line(&mut line).expect("first chunk size");
    let size = usize::from_str_radix(line.trim(), 16).expect("hex chunk size");
    let mut chunk = vec![0u8; size + 2];
    reader.read_exact(&mut chunk).expect("first chunk");
    let first = json::parse(
        std::str::from_utf8(&chunk[..size])
            .expect("UTF-8")
            .trim_end(),
    )
    .expect("first event is JSON");
    assert_eq!(first.get("index").and_then(Json::as_f64), Some(0.0));
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(true));

    let metrics = client::http_request(addr, "GET", "/metrics", "").expect("metrics");
    let samples = prom::parse(&metrics.body).expect("/metrics parses");
    let cells = samples
        .iter()
        .find(|s| s.name == "cpelide_serve_cells_total")
        .expect("cells counter")
        .value;
    assert_eq!(
        cells as u64, 2,
        "the first line must arrive while the heavy cell is unfinished"
    );

    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("rest of the stream");
    assert!(rest.contains(r#""index":1,"#), "second event: {rest}");
    assert!(rest.contains(r#""event":"done""#), "done event: {rest}");
    daemon.shutdown();
}

#[test]
fn hostile_requests_get_their_status_and_the_daemon_survives() {
    let dir = tmp("hostile");
    let mut daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr;

    // A megabyte of `[` once overflowed a connection thread's stack.
    let deep = "[".repeat(http::MAX_BODY_BYTES);
    let resp = client::http_request(addr, "POST", "/v1/sweep", &deep).expect("deep body");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert_eq!(error_code(&resp), "bad_request");
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);

    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(http::MAX_LINE_BYTES));
    let long_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "b".repeat(http::MAX_LINE_BYTES)
    );
    let many_headers = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "X-H: v\r\n".repeat(http::MAX_HEADERS + 1)
    );
    for raw in [long_line, long_header, many_headers] {
        let resp = raw_request(addr, raw.as_bytes());
        assert_eq!(resp.status, 431, "{}", resp.body);
        assert_eq!(error_code(&resp), "headers_too_large");
    }

    // The same daemon still serves a normal sweep.
    let resp = client::http_request(addr, "POST", "/v1/sweep", &one_cell("square", "HMG", 1))
        .expect("sweep after hostile input");
    let (cells, done) = parse_stream(&resp);
    assert_eq!(cells.len(), 1);
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(1.0));
    daemon.shutdown();
}

#[test]
fn a_stalled_client_times_out_without_blocking_others() {
    let dir = tmp("slowloris");
    let mut daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr;

    // Half a request line, then nothing.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled client");
    let stalled_at = Instant::now();
    stalled.write_all(b"POST /v1/sw").expect("send half a line");

    let resp = client::http_request(addr, "POST", "/v1/sweep", &one_cell("square", "HMG", 2))
        .expect("a concurrent client is served");
    let (cells, done) = parse_stream(&resp);
    assert_eq!(cells.len(), 1);
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(1.0));

    // The stalled connection is answered once its request deadline passes.
    stalled
        .set_read_timeout(Some(http::REQUEST_TIMEOUT + Duration::from_secs(60)))
        .expect("set read timeout");
    let resp = client::read_response(stalled).expect("the stalled client is answered");
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert_eq!(error_code(&resp), "request_timeout");
    assert!(stalled_at.elapsed() >= http::REQUEST_TIMEOUT - Duration::from_secs(1));
    daemon.shutdown();
}

#[test]
fn connections_past_the_cap_get_a_503() {
    let dir = tmp("connection_cap");
    let mut daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr;

    // Fill every place with an idle connection, then knock once more.
    let idle: Vec<TcpStream> = (0..serve::MAX_CONNECTIONS)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connection {i}: {e}")))
        .collect();
    let extra = TcpStream::connect(addr).expect("connect past the cap");
    extra
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    let resp = client::read_response(extra).expect("read the refusal");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(error_code(&resp), "too_many_connections");

    // Closing the idle connections frees their places.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = client::http_request(addr, "GET", "/healthz", "").expect("healthz");
        if resp.status == 200 {
            break;
        }
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(Instant::now() < deadline, "places were never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.shutdown();
}
