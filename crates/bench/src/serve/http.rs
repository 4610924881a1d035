//! Hand-rolled HTTP/1.1 on `std::net`: exactly the subset the campaign
//! daemon speaks, with zero external dependencies.
//!
//! Request side: one request per connection (`Connection: close`
//! semantics), request line + headers + an optional `Content-Length`
//! body, every part bounded: lines at [`MAX_LINE_BYTES`], headers at
//! [`MAX_HEADERS`], the body at [`MAX_BODY_BYTES`], and the whole request
//! at [`REQUEST_TIMEOUT`] (`DeadlineReader`). Response side:
//! fixed-length responses for the small endpoints and a chunked NDJSON
//! stream for sweeps — each event is one line and one chunk, queued in
//! a [`ChunkedWriter`] and sent whenever the handler is about to wait
//! for a cell, which is what makes the response incremental.

use chiplet_harness::json::Json;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body; bigger requests get a 413.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line or header line, line ending included;
/// a longer one gets a 431.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request; more get a 431.
pub const MAX_HEADERS: usize = 64;

/// Time a client has to send its whole request (line, headers and
/// body); a request still incomplete after it gets a 408.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest one write to a client may block. A client that leaves its
/// response unread this long is treated as gone and its sweep cancelled.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(60);

/// Queued response bytes past which [`ChunkedWriter::line`] sends them
/// without waiting for a flush, so a long run of ready cells streams in
/// bounded memory.
const FLUSH_BYTES: usize = 64 << 10;

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query strings are not used by this protocol).
    pub path: String,
    /// Decoded body (empty when the request carried none).
    pub body: String,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically broken request (the 400 path).
    Malformed(String),
    /// Declared body exceeds [`MAX_BODY_BYTES`] (the 413 path).
    TooLarge(usize),
    /// A line over [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`]
    /// headers (the 431 path).
    HeadersTooLarge(String),
}

/// The read half of an accepted connection: every read fails with
/// `TimedOut` once the deadline has passed, and a blocking read waits at
/// most the time left, so a request trickled in a byte at a time cannot
/// hold its thread past the deadline either.
pub(crate) struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineReader {
    /// Reads from `stream` until [`REQUEST_TIMEOUT`] from now.
    pub(crate) fn new(stream: TcpStream) -> Self {
        DeadlineReader {
            stream,
            deadline: Instant::now() + REQUEST_TIMEOUT,
        }
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// True for the errors a read past its deadline fails with (`WouldBlock`
/// is what an elapsed socket read timeout reports on Unix).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Reads one line of at most [`MAX_LINE_BYTES`]; `Err` when it is longer.
fn read_capped_line(reader: &mut impl BufRead) -> std::io::Result<Result<String, ReadError>> {
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_line(&mut line)?;
    if line.len() == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Ok(Err(ReadError::HeadersTooLarge(format!(
            "line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Ok(line))
}

/// Reads one HTTP/1.1 request from `reader`.
///
/// # Errors
///
/// `Err` for socket I/O failures (including a read past the request
/// deadline, the 408 path); `Ok(Err(_))` for protocol violations the
/// caller should answer with a 400/413/431.
pub fn read_request(reader: &mut impl BufRead) -> std::io::Result<Result<HttpRequest, ReadError>> {
    let line = match read_capped_line(reader)? {
        Ok(line) => line,
        Err(e) => return Ok(Err(e)),
    };
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m.to_owned(), p.to_owned()),
        _ => {
            return Ok(Err(ReadError::Malformed(format!(
                "bad request line {:?}",
                line.trim_end()
            ))))
        }
    };
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = match read_capped_line(reader)? {
            Ok(header) => header,
            Err(e) => return Ok(Err(e)),
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Err(ReadError::HeadersTooLarge(format!(
                "more than {MAX_HEADERS} header lines"
            ))));
        }
        let lower = header.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = match v.trim().parse() {
                Ok(n) => n,
                Err(_) => {
                    return Ok(Err(ReadError::Malformed(format!(
                        "bad Content-Length {:?}",
                        v.trim()
                    ))))
                }
            };
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(ReadError::TooLarge(content_length)));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    match String::from_utf8(body) {
        Ok(body) => Ok(Ok(HttpRequest { method, path, body })),
        Err(_) => Ok(Err(ReadError::Malformed("non-UTF-8 body".to_owned()))),
    }
}

/// Reason phrase for the status codes this daemon emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete fixed-length response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes a JSON error response: `{"error":{"code":...,"message":...}}`.
/// `code` is a stable machine-readable slug (`"bad_request"`,
/// `"backpressure"`, ...) documented in DESIGN.md §16.
pub fn write_error(
    stream: &mut TcpStream,
    status: u16,
    code: &str,
    message: &str,
) -> std::io::Result<()> {
    let body = Json::object()
        .with(
            "error",
            Json::object().with("code", code).with("message", message),
        )
        .render_compact();
    write_response(stream, status, "application/json", &body)
}

/// An in-progress chunked NDJSON response. [`start`](ChunkedWriter::start)
/// queues the response head, each [`line`](ChunkedWriter::line) queues
/// one `\n`-terminated event as its own chunk, and queued bytes reach
/// the socket in one write at each [`flush`](ChunkedWriter::flush) (or
/// once they pass 64 KiB). [`finish`](ChunkedWriter::finish) queues the
/// terminating chunk and flushes.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    queued: Vec<u8>,
}

impl<'a> ChunkedWriter<'a> {
    /// Queues the response head and returns the writer.
    pub fn start(stream: &'a mut TcpStream, status: u16) -> Self {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_text(status)
        );
        ChunkedWriter {
            stream,
            queued: head.into_bytes(),
        }
    }

    /// Queues `line` (one compact JSON event, without its newline) plus
    /// the newline as one chunk.
    ///
    /// # Errors
    ///
    /// Socket I/O failures when the queue passed its bound and was sent;
    /// the caller treats them as a disconnect and cancels the request's
    /// remaining cells.
    pub fn line(&mut self, line: &str) -> std::io::Result<()> {
        let _ = write!(self.queued, "{:x}\r\n", line.len() + 1);
        self.queued.extend_from_slice(line.as_bytes());
        self.queued.extend_from_slice(b"\n\r\n");
        if self.queued.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends everything queued, so the client has every line so far.
    ///
    /// # Errors
    ///
    /// Socket I/O failures (the client has usually disconnected).
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.queued)?;
        self.queued.clear();
        Ok(())
    }

    /// Queues the terminating zero-length chunk and flushes.
    ///
    /// # Errors
    ///
    /// Socket I/O failures.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.queued.extend_from_slice(b"0\r\n\r\n");
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &str) -> Result<HttpRequest, ReadError> {
        read_request(&mut raw.as_bytes()).expect("in-memory reads do not fail")
    }

    #[test]
    fn reads_a_request_with_a_body() {
        let req = read("POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
            .expect("well-formed");
        assert_eq!(
            (req.method.as_str(), req.path.as_str(), req.body.as_str()),
            ("POST", "/v1/sweep", "{}")
        );
    }

    #[test]
    fn line_length_is_capped() {
        // The longest accepted request line, then a longer one.
        let fits = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_LINE_BYTES - 16));
        assert_eq!(fits.len(), MAX_LINE_BYTES);
        read(&format!("{fits}\r\n")).expect("a line under the cap is accepted");
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(read(&long), Err(ReadError::HeadersTooLarge(_))));
        // A header line is capped the same way, and an unterminated
        // stream of bytes is refused at the cap, not read to its end.
        let header = format!(
            "GET / HTTP/1.1\r\nX-Long: {}\r\n\r\n",
            "b".repeat(MAX_LINE_BYTES)
        );
        assert!(matches!(read(&header), Err(ReadError::HeadersTooLarge(_))));
        let endless = "c".repeat(4 * MAX_LINE_BYTES);
        assert!(matches!(read(&endless), Err(ReadError::HeadersTooLarge(_))));
    }

    #[test]
    fn header_count_is_capped() {
        let headers = |n: usize| -> String {
            let lines: String = (0..n).map(|i| format!("X-H{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{lines}\r\n")
        };
        read(&headers(MAX_HEADERS)).expect("MAX_HEADERS headers are accepted");
        assert!(matches!(
            read(&headers(MAX_HEADERS + 1)),
            Err(ReadError::HeadersTooLarge(_))
        ));
    }

    #[test]
    fn every_emitted_status_has_a_reason_phrase() {
        for status in [200, 400, 404, 405, 408, 413, 429, 431, 503] {
            assert_ne!(status_text(status), "Internal Server Error", "{status}");
        }
    }
}
