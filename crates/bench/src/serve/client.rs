//! Sweep-request validation and a minimal blocking HTTP client.
//!
//! The validation half turns an untrusted JSON body into a list of
//! [`CellSpec`]s, funnelling every axis through the simulator's own
//! validation seams (`Cell::validated`, `SuiteTag::parse`) and rejecting
//! client names that could break out of a Prometheus label. Validated
//! cells are interned in a process-wide table, so a cell the daemon has
//! seen before resolves with one map lookup to a shared spec whose
//! fingerprint is already computed. The client half is a deliberately
//! tiny HTTP/1.1 reader used by the daemon's `--smoke` self-test and the
//! e2e tests — it speaks exactly the subset the daemon serves (chunked
//! NDJSON responses, `Connection: close`).

use super::sched::lock;
use crate::campaign::{CellSpec, SuiteTag};
use chiplet_coherence::ProtocolKind;
use chiplet_harness::json::{self, Json};
use chiplet_sim::Cell;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::Duration;

/// Upper bound on cells in one sweep request: over-grid requests are a
/// 400, not a 429 — the admission queue guards *capacity*, this guards
/// obviously-runaway cross products.
pub const MAX_CELLS_PER_REQUEST: usize = 4096;

/// A validated sweep request, ready to submit to the scheduler.
#[derive(Debug)]
pub struct SweepRequest {
    /// Validated client identity (`[A-Za-z0-9._-]{1,64}`).
    pub client: String,
    /// The validated cells, in request order, shared with the interned
    /// cell table.
    pub specs: Vec<Arc<CellSpec>>,
    /// Per-request deadline override (`timeout_ms`), if any.
    pub timeout: Option<Duration>,
}

/// True for client names safe to embed in a Prometheus label and in log
/// lines: 1–64 characters of `[A-Za-z0-9._-]`.
pub fn valid_client_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

fn get_usize(j: &Json, key: &str) -> Option<usize> {
    let v = j.get(key)?.as_f64()?;
    if v.fract() == 0.0 && (0.0..9e15).contains(&v) {
        Some(v as usize)
    } else {
        None
    }
}

/// A validated cell's canonical identity: registry name, protocol,
/// chiplet count, suite. Request spellings never appear in a key.
type CellKey = (String, ProtocolKind, usize, SuiteTag);

/// Validated cells interned by their canonical axes. Only a cell that
/// passed validation is inserted, so the table is bounded by the valid
/// axis space (workloads × protocols × chiplet counts × suites), whatever
/// clients send. Each entry's fingerprint is computed before it is
/// inserted, and every request shares the entry itself.
#[derive(Default)]
struct CellTable {
    cells: Mutex<HashMap<CellKey, Arc<CellSpec>>>,
}

impl CellTable {
    /// Resolves request axes to a validated cell: a table hit when the
    /// canonical cell was seen before, otherwise full validation
    /// (`SuiteTag::parse`, then `Cell::validated`) and an insert.
    ///
    /// # Errors
    ///
    /// The first offending axis, as a human-readable message.
    fn resolve(
        &self,
        workload: &str,
        protocol: &str,
        chiplets: usize,
        suite: &str,
    ) -> Result<Arc<CellSpec>, String> {
        let suite = SuiteTag::parse(suite)
            .ok_or_else(|| format!("unknown suite {suite:?} (known: main, multistream)"))?;
        // Registry names are lowercase and `lookup` is case-insensitive,
        // so a valid request's lowercased name is its canonical one.
        if let Some(protocol) = ProtocolKind::from_label(protocol) {
            let key = (workload.to_lowercase(), protocol, chiplets, suite);
            if let Some(spec) = lock(&self.cells).get(&key) {
                return Ok(Arc::clone(spec));
            }
        }
        let spec = CellSpec::new(Cell::validated(workload, protocol, chiplets)?, suite);
        let _ = spec.fingerprint(); // memoised before the spec is shared
        let key = (
            spec.cell.workload.name().to_owned(),
            spec.cell.protocol,
            spec.cell.chiplets,
            spec.suite,
        );
        Ok(Arc::clone(
            lock(&self.cells)
                .entry(key)
                .or_insert_with(|| Arc::new(spec)),
        ))
    }
}

/// The process-wide table [`parse_sweep`] resolves cells through.
static CELLS: LazyLock<CellTable> = LazyLock::new(CellTable::default);

fn parse_one_cell(j: &Json) -> Result<Arc<CellSpec>, String> {
    let workload = j
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("cell missing string field \"workload\"")?;
    let protocol = j
        .get("protocol")
        .and_then(Json::as_str)
        .ok_or("cell missing string field \"protocol\"")?;
    let chiplets =
        get_usize(j, "chiplets").ok_or("cell missing non-negative integer \"chiplets\"")?;
    let suite = j.get("suite").and_then(Json::as_str).unwrap_or("main");
    CELLS.resolve(workload, protocol, chiplets, suite)
}

fn parse_grid(j: &Json) -> Result<Vec<Arc<CellSpec>>, String> {
    let strings = |key: &str| -> Result<Vec<&str>, String> {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("grid missing array field {key:?}"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or(format!("grid.{key} entries must be strings"))
            })
            .collect()
    };
    let workloads = strings("workloads")?;
    let protocols = strings("protocols")?;
    let chiplets: Vec<usize> = j
        .get("chiplets")
        .and_then(Json::as_arr)
        .ok_or("grid missing array field \"chiplets\"")?
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|n| n.fract() == 0.0 && (0.0..9e15).contains(n))
                .map(|n| n as usize)
                .ok_or_else(|| "grid.chiplets entries must be non-negative integers".to_owned())
        })
        .collect::<Result<_, _>>()?;
    let suite = j.get("suite").and_then(Json::as_str).unwrap_or("main");
    if workloads.is_empty() || protocols.is_empty() || chiplets.is_empty() {
        return Err("grid axes must be non-empty".to_owned());
    }
    let mut out = Vec::new();
    for w in &workloads {
        for p in &protocols {
            for &n in &chiplets {
                out.push(CELLS.resolve(w, p, n, suite)?);
            }
        }
    }
    Ok(out)
}

/// Parses and validates a `POST /v1/sweep` body. Accepts exactly one of
/// `"cells"` (an explicit list) or `"grid"` (a workloads × protocols ×
/// chiplets cross product); both forms validate every axis against the
/// registered tables before anything is admitted, so a request is either
/// fully valid or rejected whole.
///
/// # Errors
///
/// A human-readable message naming the first offending field/axis (the
/// HTTP layer's 400 body).
pub fn parse_sweep(body: &str) -> Result<SweepRequest, String> {
    let j = json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let client = j
        .get("client")
        .and_then(Json::as_str)
        .ok_or("missing string field \"client\"")?;
    if !valid_client_name(client) {
        return Err(format!(
            "invalid client name {client:?}: need 1-64 chars of [A-Za-z0-9._-]"
        ));
    }
    let timeout = match j.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(
            v.as_f64()
                .filter(|n| n.fract() == 0.0 && *n > 0.0 && *n < 9e15)
                .ok_or("\"timeout_ms\" must be a positive integer")? as u64,
        )),
    };
    let specs = match (j.get("cells"), j.get("grid")) {
        (Some(_), Some(_)) => {
            return Err("provide either \"cells\" or \"grid\", not both".to_owned())
        }
        (Some(cells), None) => cells
            .as_arr()
            .ok_or("\"cells\" must be an array")?
            .iter()
            .map(parse_one_cell)
            .collect::<Result<Vec<_>, _>>()?,
        (None, Some(grid)) => parse_grid(grid)?,
        (None, None) => return Err("missing \"cells\" or \"grid\"".to_owned()),
    };
    if specs.is_empty() {
        return Err("request contains no cells".to_owned());
    }
    if specs.len() > MAX_CELLS_PER_REQUEST {
        return Err(format!(
            "request of {} cells exceeds the per-request maximum {MAX_CELLS_PER_REQUEST}",
            specs.len()
        ));
    }
    Ok(SweepRequest {
        client: client.to_owned(),
        specs,
        timeout,
    })
}

// --------------------------------------------------------------- client

/// A parsed HTTP response from the daemon.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Raw header lines (name: value), order preserved.
    pub headers: Vec<String>,
    /// Decoded body: chunked responses are de-chunked, fixed-length ones
    /// read to their Content-Length.
    pub body: String,
}

impl HttpResponse {
    /// The body split into its NDJSON lines (empty lines dropped).
    pub fn lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.is_empty()).collect()
    }
}

/// Sends one HTTP/1.1 request to `addr` and reads the full response,
/// decoding chunked transfer encoding. `body` is sent with a
/// Content-Length when non-empty.
///
/// # Errors
///
/// I/O errors from the socket, or a malformed response.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    request_on(stream, method, path, body)
}

/// Like [`http_request`], over an already-connected stream (tests use
/// this to exercise slow-reader behaviour with custom sockets).
pub fn request_on(
    mut stream: TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<HttpResponse> {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: cpelide\r\nConnection: close\r\n");
    if !body.is_empty() {
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    read_response(stream)
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads and decodes one HTTP response from `stream`.
pub fn read_response(stream: TcpStream) -> std::io::Result<HttpResponse> {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    let mut chunked = false;
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end().to_owned();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
            chunked = true;
        }
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
        headers.push(line);
    }
    let mut body = String::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
            let mut chunk = vec![0u8; size + 2]; // payload + CRLF
            reader.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            body.push_str(std::str::from_utf8(&chunk[..size]).map_err(|_| bad("non-UTF-8 chunk"))?);
        }
    } else if let Some(n) = content_length {
        let mut buf = vec![0u8; n];
        reader.read_exact(&mut buf)?;
        body = String::from_utf8(buf).map_err(|_| bad("non-UTF-8 body"))?;
    } else {
        reader.read_to_string(&mut body)?;
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_harness::prop::{check, PropConfig};
    use chiplet_harness::prop_assert;
    use chiplet_harness::rng::Xoshiro256;
    use std::collections::HashSet;

    /// Request axes as a client might spell them.
    #[derive(Debug, Clone)]
    struct Axes {
        workload: String,
        protocol: String,
        chiplets: usize,
        suite: String,
    }

    fn pick<'a>(rng: &mut Xoshiro256, from: &'a [&'a str]) -> &'a str {
        from[rng.gen_range_usize(0..from.len())]
    }

    /// `s` with each letter independently upper-cased half the time.
    fn recase(rng: &mut Xoshiro256, s: &str) -> String {
        s.chars()
            .map(|c| {
                if rng.next_bool() {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    /// A mix of valid, invalid and case-varied axes; about half the
    /// cells re-spell an earlier one, so the table sees hits.
    fn gen_axes(rng: &mut Xoshiro256, size: usize) -> Vec<Axes> {
        let names = chiplet_workloads::known_names();
        let protocols: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.label()).collect();
        let mut out: Vec<Axes> = Vec::new();
        for _ in 0..1 + rng.gen_range_usize(0..size.min(24)) {
            let axes = if !out.is_empty() && rng.next_bool() {
                let prev = out[rng.gen_range_usize(0..out.len())].clone();
                Axes {
                    workload: recase(rng, &prev.workload),
                    protocol: recase(rng, &prev.protocol),
                    ..prev
                }
            } else {
                let workload = if rng.gen_range(0..5) == 0 {
                    pick(rng, &["nope", "sqare", "", "square "]).to_owned()
                } else {
                    names[rng.gen_range_usize(0..names.len())].clone()
                };
                let protocol = if rng.gen_range(0..5) == 0 {
                    pick(rng, &["MESI", "", "cp-elide"])
                } else {
                    pick(rng, &protocols)
                };
                Axes {
                    workload: recase(rng, &workload),
                    protocol: recase(rng, protocol),
                    chiplets: rng.gen_range_usize(0..19),
                    suite: pick(rng, &["main", "main", "multistream", "MAIN", "side"]).to_owned(),
                }
            };
            out.push(axes);
        }
        out
    }

    #[test]
    fn interned_cells_match_freshly_validated_ones() {
        let metrics = Json::object().with("cycles", 1.0);
        check(
            "interned_cells_match_freshly_validated_ones",
            &PropConfig::with_cases(64),
            gen_axes,
            |cells| {
                let table = CellTable::default();
                let mut keys: HashSet<CellKey> = HashSet::new();
                for a in cells {
                    let before = lock(&table.cells).len();
                    let got = table.resolve(&a.workload, &a.protocol, a.chiplets, &a.suite);
                    let fresh = SuiteTag::parse(&a.suite).ok_or(()).and_then(|suite| {
                        Cell::validated(&a.workload, &a.protocol, a.chiplets)
                            .map(|cell| CellSpec::new(cell, suite))
                            .map_err(|_| ())
                    });
                    match (got, fresh) {
                        (Ok(got), Ok(fresh)) => {
                            prop_assert!(
                                got.fingerprint() == fresh.fingerprint(),
                                "{a:?}: fingerprints differ"
                            );
                            prop_assert!(
                                got.row(Ok(&metrics)).render() == fresh.row(Ok(&metrics)).render(),
                                "{a:?}: rows differ"
                            );
                            keys.insert((
                                fresh.cell.workload.name().to_owned(),
                                fresh.cell.protocol,
                                fresh.cell.chiplets,
                                fresh.suite,
                            ));
                        }
                        (Err(_), Err(())) => {
                            prop_assert!(
                                lock(&table.cells).len() == before,
                                "{a:?}: invalid axes inserted"
                            );
                        }
                        (got, _) => {
                            return Err(format!("{a:?}: validity disagrees ({got:?})"));
                        }
                    }
                    prop_assert!(
                        lock(&table.cells).len() == keys.len(),
                        "{} entries for {} canonical cells",
                        lock(&table.cells).len(),
                        keys.len()
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn client_names_are_label_safe() {
        for ok in ["alice", "ci-runner.7", "A_b-c.d", &"x".repeat(64)] {
            assert!(valid_client_name(ok), "{ok}");
        }
        for bad in ["", "a b", "a\"b", "a{b}", "héllo", &"x".repeat(65)] {
            assert!(!valid_client_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn sweep_accepts_cells_and_grid_forms() {
        let cells = parse_sweep(
            r#"{"client":"t","cells":[
                {"workload":"square","protocol":"CPElide","chiplets":4},
                {"workload":"btree","protocol":"baseline","chiplets":2,"suite":"main"}
            ]}"#,
        )
        .expect("cells form");
        assert_eq!(cells.specs.len(), 2);
        assert_eq!(cells.specs[0].id(), "square:CPElide:4");
        let grid = parse_sweep(
            r#"{"client":"t","timeout_ms":5000,"grid":{
                "workloads":["square","btree"],
                "protocols":["Baseline","HMG"],
                "chiplets":[2,4]
            }}"#,
        )
        .expect("grid form");
        assert_eq!(grid.specs.len(), 8, "2x2x2 cross product");
        assert_eq!(grid.timeout, Some(Duration::from_millis(5000)));
    }

    #[test]
    fn sweep_rejects_every_malformed_shape() {
        for (body, needle) in [
            ("{", "invalid JSON"),
            (r#"{"cells":[]}"#, "client"),
            (r#"{"client":"a b","cells":[]}"#, "invalid client name"),
            (r#"{"client":"t"}"#, "missing \"cells\" or \"grid\""),
            (r#"{"client":"t","cells":[]}"#, "no cells"),
            (r#"{"client":"t","cells":[],"grid":{}}"#, "not both"),
            (
                r#"{"client":"t","cells":[{"workload":"nope","protocol":"Baseline","chiplets":2}]}"#,
                "nope",
            ),
            (
                r#"{"client":"t","cells":[{"workload":"square","protocol":"MESI","chiplets":2}]}"#,
                "MESI",
            ),
            (
                r#"{"client":"t","cells":[{"workload":"square","protocol":"Baseline","chiplets":99}]}"#,
                "99",
            ),
            (
                r#"{"client":"t","cells":[{"workload":"square","protocol":"Baseline","chiplets":2,"suite":"side"}]}"#,
                "suite",
            ),
            (
                r#"{"client":"t","timeout_ms":-5,"cells":[{"workload":"square","protocol":"Baseline","chiplets":2}]}"#,
                "timeout_ms",
            ),
        ] {
            let err = parse_sweep(body).expect_err(body);
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }
}
