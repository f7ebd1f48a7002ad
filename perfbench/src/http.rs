//! A minimal HTTP/1.1 client: one connection per request, as the server
//! keeps no connection alive. It is the benchmark's own code, so a change
//! to the program's HTTP layer cannot change how load is offered.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Reply status and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<serde_json::Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "reply is not UTF-8".to_string())?;
        serde_json::from_str(text).map_err(|e| format!("reply is not JSON: {e}"))
    }
}

/// Sends one request and reads the whole reply. The write side is never
/// shut down early: the server reads a half-close as a client disconnect
/// and cancels the job.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<Reply, String> {
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address {addr}: {e}"))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream
        .write_all(&message)
        .map_err(|e| format!("send: {e}"))?;

    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut head_end = None;
    let mut content_length: Option<usize> = None;
    loop {
        if let (Some(h), Some(n)) = (head_end, content_length) {
            if buf.len() >= h + n {
                break;
            }
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                head_end = Some(pos + 4);
                content_length = header_content_length(&buf[..pos]);
            }
        }
    }
    let h = head_end.ok_or("reply has no complete header")?;
    let status = std::str::from_utf8(&buf[..h])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status line")?;
    let mut body = buf.split_off(h);
    if let Some(n) = content_length {
        if body.len() < n {
            return Err(format!("truncated reply: {} of {n} body bytes", body.len()));
        }
        body.truncate(n);
    }
    Ok(Reply { status, body })
}

fn header_content_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())
            .flatten()
    })
}

/// `GET path` expecting 200 with a JSON body.
pub fn get_json(addr: &str, path: &str, timeout: Duration) -> Result<serde_json::Value, String> {
    let reply = request(addr, "GET", path, b"", timeout)?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    reply.json()
}
