//! A deliberately small HTTP/1.1 subset over [`std::net::TcpStream`]:
//! one request per connection, `Content-Length` bodies only (no chunked
//! encoding, no keep-alive, no TLS). Exactly what the resilience layer
//! needs and nothing the vendored-dependency policy would forbid.
//!
//! Both ends of every conversation in this crate live here:
//!
//! * the server side — [`read_request`], [`Response`], and the one
//!   [`AcceptLoop`] that the server, the router and the chaos proxy all
//!   run;
//! * the client side — [`exchange`], the one outgoing HTTP client: router
//!   forwards and probes, quorum rounds, peer fetches and the chaos
//!   proxy's relay all go through it.
//!
//! Limits are enforced while reading: oversized headers or bodies fail
//! fast with a typed error the server maps to `431`/`413`, so a
//! misbehaving client cannot balloon server memory before admission
//! control even sees the request.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::Value;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string is kept as-is).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Request line or headers malformed.
    Malformed(String),
    /// Head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Body exceeded the server's configured cap.
    BodyTooLarge,
    /// Socket error or timeout mid-request.
    Io(std::io::Error),
    /// Peer closed the connection before a full request arrived.
    Disconnected,
    /// Peer closed the connection mid-body: the head promised more bytes
    /// than ever arrived. Distinct from [`HttpError::Malformed`] so
    /// breakers classify a client abort (their fault, connection gone)
    /// separately from malformed input (answerable with a 400).
    Truncated,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Disconnected => write!(f, "client disconnected"),
            HttpError::Truncated => write!(f, "connection closed mid-body"),
        }
    }
}

/// Reads one request from `stream`, enforcing `max_body` and a
/// `read_timeout` that bounds how long a slow client can hold the
/// connection open mid-head (slowloris protection — the timeout applies
/// per read syscall, the head size cap bounds the total).
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    read_timeout: Duration,
) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(HttpError::Io)?;

    // Accumulate until the blank line terminating the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Err(HttpError::Disconnected);
                }
                return Err(HttpError::Malformed("eof inside request head".into()));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-utf8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }

    // The head read may have pulled in the start of the body.
    let mut body = buf.split_off(head_end + 4);
    if body.len() > content_length {
        return Err(HttpError::Malformed("body longer than content-length".into()));
    }
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::Io(e)),
        }
        if body.len() > content_length {
            return Err(HttpError::Malformed("body longer than content-length".into()));
        }
    }

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// [`read_request`] for a listener: the failures a client can still hear
/// are answered here (`431`, `413`, `400`). `None` means there is nothing
/// left to answer — a rejection was sent, or the client left before or
/// mid-request, so nobody is there to read a reply.
pub fn read_or_reject(stream: &mut TcpStream, max_body: usize, read_timeout: Duration) -> Option<Request> {
    let e = match read_request(stream, max_body, read_timeout) {
        Ok(req) => return Some(req),
        Err(HttpError::Disconnected | HttpError::Truncated) => return None,
        Err(e) => e,
    };
    let status = match e {
        HttpError::HeadTooLarge => 431,
        HttpError::BodyTooLarge => 413,
        _ => 400,
    };
    let _ = Response::json(status, &serde_json::json!({ "error": format!("{e}") })).write_to(stream);
    None
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialise. Always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// Status code (e.g. 200, 429).
    pub status: u16,
    /// Extra headers beyond the computed `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Value) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: serde_json::to_string(value)
                .expect("Value serialization is infallible")
                .into_bytes(),
            content_type: "application/json",
        }
    }

    /// A raw JSON response from already-serialised text (used by
    /// `/metrics`, whose schema-v1 serialiser lives in `ofd-obs`).
    pub fn json_text(status: u16, text: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: text.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Serialises the response onto `stream`. Errors are returned, not
    /// panicked on — the peer may be gone already.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

// ----------------------------------------------------------------- client

/// Connect and I/O deadlines for one outgoing [`exchange`].
///
/// The defaults are the historical peer constants (1 s connect, 10 s
/// read); chaos runs tighten both via `--peer-timeout-ms` so a
/// blackholed peer costs milliseconds instead of stalling a recovery
/// path for 10 s.
#[derive(Debug, Clone, Copy)]
pub struct PeerTimeouts {
    /// Connect timeout.
    pub connect: Duration,
    /// Read/write deadline for the whole exchange.
    pub read: Duration,
}

impl Default for PeerTimeouts {
    fn default() -> PeerTimeouts {
        PeerTimeouts {
            connect: Duration::from_millis(1_000),
            read: Duration::from_millis(10_000),
        }
    }
}

impl PeerTimeouts {
    /// Timeouts derived from a single `peer_timeout_ms` knob: the read
    /// deadline is the knob, the connect timeout is clamped to at most
    /// 1 s (connecting should always be fast; only transfers are slow).
    pub fn from_ms(peer_timeout_ms: u64) -> PeerTimeouts {
        let read = Duration::from_millis(peer_timeout_ms.max(1));
        PeerTimeouts {
            connect: read.min(Duration::from_millis(1_000)),
            read,
        }
    }
}

/// A reply read by [`exchange`]: the status code plus the raw bytes
/// exactly as the server sent them, so a relay can forward them verbatim.
#[derive(Debug)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// The whole reply: status line, headers, blank line and body.
    pub raw: Vec<u8>,
    body_at: usize,
}

impl Reply {
    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.raw[self.body_at..]
    }

    /// The body parsed as JSON, if it is JSON.
    pub fn json(&self) -> Option<Value> {
        serde_json::from_str(std::str::from_utf8(self.body()).ok()?).ok()
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(std::str::from_utf8(&self.raw[..self.body_at]).ok()?, name)
    }
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// One bounded HTTP exchange: connect, send `method path` with `body`,
/// read the reply to EOF (every server here answers `connection:
/// close`).
///
/// The connect and I/O timeouts come from `timeouts`; a `deadline`
/// clamps both to the time left (never below 10 ms) and fails fast with
/// `TimedOut` once it has passed, so a call that cannot finish in time
/// gives up instead of outliving its caller. A reply whose body is
/// shorter than its `content-length` is an `UnexpectedEof`: a connection
/// torn mid-body must never surface as a parsed success.
///
/// The write side stays open until the reply is in hand. A half-close
/// would read as EOF to the server's disconnect watcher, which cancels
/// the very job whose reply is awaited.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeouts: &PeerTimeouts,
    deadline: Option<Instant>,
) -> io::Result<Reply> {
    let mut io_timeout = timeouts.read;
    if let Some(deadline) = deadline {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "request deadline passed"))?;
        io_timeout = io_timeout.min(remaining.max(Duration::from_millis(10)));
    }
    let mut stream = TcpStream::connect_timeout(&addr, timeouts.connect.min(io_timeout))?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let head_end = find_head_end(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "reply ended inside its head"))?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply missing a status line"))?;
    let body_at = head_end + 4;
    if let Some(expected) = header_value(&head, "content-length").and_then(|v| v.parse::<usize>().ok()) {
        let got = raw.len() - body_at;
        if got < expected {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("short reply: {got} of {expected} body bytes"),
            ));
        }
    }
    Ok(Reply {
        status,
        raw,
        body_at,
    })
}

// ------------------------------------------------------------ accept loop

/// The accept loop every listener in this crate runs: it blocks in
/// `accept`, checks its stop flag, and only then hands the connection to
/// the per-connection callback on the accept thread. [`AcceptLoop::stop`]
/// sets the flag and wakes the blocked `accept` with a self-connect.
/// Because the flag is checked first, the wake connection never reaches
/// the callback (the chaos proxy relies on that: it draws one fault per
/// callback, in accept order).
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Starts accepting on `listener` in a thread named `name`.
    pub fn spawn(
        listener: TcpListener,
        name: &str,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<AcceptLoop> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new().name(name.into()).spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        on_conn(stream);
                    }
                }
            })?
        };
        Ok(AcceptLoop {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the loop and joins it; the listener closes with it, so the
    /// port can be bound again once this returns. Idempotent.
    pub fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = thread.join();
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn, 1024 * 1024, Duration::from_secs(5));
        writer.join().expect("writer");
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(b"POST /v1/discover HTTP/1.1\r\ncontent-length: 5\r\nx-a: b\r\n\r\nhello")
            .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/discover");
        assert_eq!(req.header("x-a"), Some("b"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_before_reading_it() {
        let err = roundtrip(b"POST /v1/clean HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
            .expect_err("too large");
        assert!(matches!(err, HttpError::BodyTooLarge));
    }

    #[test]
    fn rejects_malformed_request_line() {
        let err = roundtrip(b"NONSENSE\r\n\r\n").expect_err("malformed");
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn empty_connection_is_a_disconnect() {
        let err = roundtrip(b"").expect_err("disconnect");
        assert!(matches!(err, HttpError::Disconnected));
    }

    /// A one-shot server that reads one request and answers `reply`.
    fn scripted(reply: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_request(&mut conn, 1024 * 1024, Duration::from_secs(5));
            conn.write_all(reply).expect("reply");
        });
        addr
    }

    #[test]
    fn exchange_returns_the_status_and_the_raw_reply_verbatim() {
        let raw: &[u8] = b"HTTP/1.1 201 Created\r\ncontent-length: 2\r\nx-a: b\r\n\r\n{}";
        let reply = exchange(scripted(raw), "POST", "/x", b"{}", &PeerTimeouts::default(), None)
            .expect("exchange");
        assert_eq!(reply.status, 201);
        assert_eq!(reply.raw, raw, "relays see the bytes exactly as sent");
        assert_eq!(reply.body(), b"{}");
        assert_eq!(reply.header("X-A"), Some("b"));
        assert_eq!(reply.json(), Some(serde_json::json!({})));
    }

    #[test]
    fn short_replies_are_transport_errors_not_parsed_successes() {
        // A server that advertises 100 body bytes but closes after 5: the
        // client must surface UnexpectedEof, never a 200 with a torn body.
        let addr = scripted(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\nconnection: close\r\n\r\ntorn!");
        let err = exchange(addr, "GET", "/healthz", b"", &PeerTimeouts::default(), None)
            .expect_err("short body must not parse");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("short reply"), "got: {err}");
        // A reply torn inside its head is just as much a transport error.
        let err = exchange(scripted(b"HTTP/1.1 200 OK\r\ncontent-"), "GET", "/", b"", &PeerTimeouts::default(), None)
            .expect_err("torn head must not parse");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn peer_timeouts_derive_from_a_single_knob() {
        let t = PeerTimeouts::from_ms(250);
        assert_eq!(t.read, Duration::from_millis(250));
        assert_eq!(t.connect, Duration::from_millis(250), "connect clamps to read when tighter");
        let t = PeerTimeouts::from_ms(30_000);
        assert_eq!(t.read, Duration::from_millis(30_000));
        assert_eq!(t.connect, Duration::from_millis(1_000), "connect caps at 1 s");
    }

    #[test]
    fn eof_mid_body_is_truncated_not_malformed() {
        // The head promises 100 bytes; the client sends 5 and hangs up.
        let err = roundtrip(b"POST /v1/clean HTTP/1.1\r\ncontent-length: 100\r\n\r\nhello")
            .expect_err("truncated");
        assert!(matches!(err, HttpError::Truncated), "got {err:?}");
    }
}
