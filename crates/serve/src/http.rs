//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`: enough
//! for `POST /forecast` + `GET /stats` with strict limits, explicit
//! timeouts, and typed failures — the fault-injection battery drives every
//! branch in here.
//!
//! Framing rules (strict by design):
//!
//! * request line `METHOD SP PATH SP HTTP/1.x`, headers terminated by a
//!   blank line, CRLF or bare LF both accepted;
//! * bodies require `Content-Length` (no chunked encoding — a request with
//!   `Transfer-Encoding` is rejected as a typed 400); repeated
//!   `Content-Length` headers must agree, or the request is a typed 400
//!   and the connection closes;
//! * header block, terminator included, capped at [`Limits::max_header`]
//!   bytes, body at [`Limits::max_body`] (checked against the declared
//!   length *before* the body is read, so an oversized upload is refused
//!   without buffering it);
//! * every socket read sits under [`Limits::read_timeout`] and the whole
//!   request under [`Limits::request_deadline`] — a client trickling one
//!   byte at a time gets a typed 408, not a wedged worker.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::ServeError;

/// Size and time ceilings for one request.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Max bytes of the header block: request line, headers and the blank
    /// line that ends them.
    pub max_header: usize,
    /// Max bytes of body (checked against `Content-Length` up front).
    pub max_body: usize,
    /// Per-`read()` timeout.
    pub read_timeout: Duration,
    /// Whole-request deadline (headers + body).
    pub request_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_header: 8 * 1024,
            max_body: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token.
    pub method: String,
    /// Raw path (no query parsing — the server has three routes).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// What `read_request` found on the wire.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed (or reset) the connection before sending any byte —
    /// a clean end of a keep-alive session, not an error.
    Closed,
}

/// Read one request, enforcing all [`Limits`].
///
/// The per-read timeout is a socket option, so the caller sets it once per
/// connection (`stream.set_read_timeout(Some(limits.read_timeout))`) rather
/// than paying a syscall per request; the whole-request deadline is
/// checked here.
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<ReadOutcome, ServeError> {
    let started = Instant::now();

    // ---- header block ---------------------------------------------------
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let header_end = loop {
        if let Some(end) = find_header_end(&buf) {
            break end;
        }
        if buf.len() > limits.max_header {
            return Err(ServeError::PayloadTooLarge {
                limit: limits.max_header,
                got: buf.len(),
            });
        }
        check_deadline(started, limits, "headers")?;
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(bad("connection closed mid-headers"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return Err(ServeError::Timeout { what: "headers".into() })
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                if buf.is_empty() {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(bad("connection reset mid-headers"));
            }
            Err(e) => return Err(internal(format!("read: {e}"))),
        }
    };

    // the cap is checked before each read, so one read may carry the
    // terminator past it
    if header_end.after > limits.max_header {
        return Err(ServeError::PayloadTooLarge {
            limit: limits.max_header,
            got: header_end.after,
        });
    }

    let head = String::from_utf8_lossy(&buf[..header_end.at]).into_owned();
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_ascii_uppercase(), p.to_string(), v)
        }
        _ => return Err(bad(format!("malformed request line '{request_line}'"))),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header line '{line}'")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| bad(format!("unparseable Content-Length '{value}'")))?;
                // differing repeats leave the body's length undefined
                // (RFC 7230 §3.3.3); equal repeats are harmless
                if let Some(m) = content_length.filter(|&m| m != n) {
                    return Err(bad(format!(
                        "conflicting Content-Length headers ({m} and {n})"
                    )));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return Err(bad("Transfer-Encoding is not supported; send Content-Length"));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }

    // ---- body ------------------------------------------------------------
    let want = content_length.unwrap_or(0);
    if want > limits.max_body {
        return Err(ServeError::PayloadTooLarge { limit: limits.max_body, got: want });
    }
    let early = &buf[header_end.after..];
    if early.len() > want {
        // bytes beyond Content-Length would desynchronize keep-alive framing
        return Err(bad(format!(
            "{} bytes after the declared Content-Length of {want}",
            early.len() - want
        )));
    }
    // one buffer at the declared (already capped) length, read in place
    let mut body = vec![0u8; want];
    body[..early.len()].copy_from_slice(early);
    let mut filled = early.len();
    while filled < want {
        check_deadline(started, limits, "body")?;
        match stream.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(bad(format!(
                    "connection closed after {filled} of {want} body bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                return Err(ServeError::Timeout { what: "body".into() })
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                return Err(bad(format!(
                    "connection reset after {filled} of {want} body bytes"
                )))
            }
            Err(e) => return Err(internal(format!("read: {e}"))),
        }
    }

    Ok(ReadOutcome::Request(Request { method, path, body, keep_alive }))
}

/// Write a JSON response. `keep_alive` echoes the connection decision.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // head and body in one write: one syscall, and no small head packet
    // left waiting on Nagle/delayed-ACK
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

struct HeaderEnd {
    /// Offset of the terminator (headers are `buf[..at]`).
    at: usize,
    /// Offset just past the terminator (body bytes start here).
    after: usize,
}

fn find_header_end(buf: &[u8]) -> Option<HeaderEnd> {
    // accept CRLFCRLF and bare LFLF, whichever comes first
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = buf.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(c), Some(l)) if l + 1 < c => Some(HeaderEnd { at: l, after: l + 2 }),
        (Some(c), _) => Some(HeaderEnd { at: c, after: c + 4 }),
        (None, Some(l)) => Some(HeaderEnd { at: l, after: l + 2 }),
        (None, None) => None,
    }
}

fn check_deadline(started: Instant, limits: &Limits, what: &str) -> Result<(), ServeError> {
    if started.elapsed() > limits.request_deadline {
        return Err(ServeError::Timeout { what: what.into() });
    }
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest { message: message.into(), position: None }
}

fn internal(message: String) -> ServeError {
    ServeError::Internal { message }
}
