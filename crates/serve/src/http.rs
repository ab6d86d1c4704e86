//! Blocking HTTP/1.1 framing: just enough of RFC 9112 to serve a JSON API.
//!
//! One request per connection (`Connection: close` on every response):
//! the clients this server exists for — load generators, curl, sidecar
//! health checks — open cheap local connections, and forgoing keep-alive
//! removes request pipelining, idle-connection reaping, and chunked
//! framing from the attack surface. Requests are parsed with hard limits
//! on head and body size so a misbehaving client cannot balloon memory.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum bytes of request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, e.g. `/query` (query strings are kept as-is).
    pub target: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target without its query string (`/metrics?format=json` →
    /// `/metrics`), which is what routing matches on.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of a `name=value` query-string parameter, if present
    /// (no percent-decoding; the API's parameter values never need it).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// The body decoded as UTF-8.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Bad("body is not valid UTF-8"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request: the static message is safe to echo to the client.
    Bad(&'static str),
    /// Head or body exceeded the configured limit.
    TooLarge,
    /// The socket failed or timed out mid-read.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(msg) => write!(f, "bad request: {msg}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads from a stream while one budget for the whole request lasts.
///
/// The first read waits as long as the read timeout the caller already
/// set on the stream, which should be the whole budget. Every later read
/// first cuts the timeout to what is left before `until`, so a client
/// that trickles bytes cannot stretch a request past its budget by
/// keeping each read short. A request that arrives in one read costs no
/// extra syscall.
struct BudgetedReader<'s> {
    stream: &'s mut TcpStream,
    until: Instant,
    first: bool,
}

impl BudgetedReader<'_> {
    fn read(&mut self, chunk: &mut [u8]) -> std::io::Result<usize> {
        if !std::mem::take(&mut self.first) {
            let left = self.until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        self.stream.read(chunk)
    }
}

/// Reads one request from the stream, enforcing [`MAX_HEAD_BYTES`] and
/// [`MAX_BODY_BYTES`], and giving up with a timed-out
/// [`HttpError::Io`] once the whole request has taken until `until`. The
/// first read honors the read timeout already set on the stream, which
/// should end no later than `until`.
pub fn read_request(stream: &mut TcpStream, until: Instant) -> Result<Request, HttpError> {
    let mut stream = BudgetedReader {
        stream,
        until,
        first: true,
    };
    // Read until the blank line that ends the head.
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Bad("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Bad("head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Bad("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Bad("missing request target"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Bad("not an HTTP/1.x request")),
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Bad("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    let content_length: usize = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Bad("invalid content-length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Bad("chunked bodies are not supported"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    request.body = body;
    Ok(request)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, 503, …).
    pub status: u16,
    /// `Content-Type` of the body (`application/json` for every API
    /// response; Prometheus exposition uses `text/plain; version=0.0.4`).
    pub content_type: String,
    /// Extra headers beyond the always-present content framing.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A response with an explicit content type (Prometheus exposition,
    /// plain-text diagnostics).
    pub fn text(status: u16, content_type: &str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\":\"{}\"}}", crate::json::escape(message)),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes status line, headers, and body onto the stream.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())?;
        stream.flush()
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Sends `raw` to an in-process socket and parses it back.
    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let until = Instant::now() + std::time::Duration::from_secs(10);
        let req = read_request(&mut stream, until);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_get() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            b"POST /query HTTP/1.1\r\nContent-Length: 13\r\nContent-Type: application/json\r\n\r\n{\"path\":\"A\"}x",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_utf8().unwrap(), "{\"path\":\"A\"}x");
    }

    /// Sends `first`, waits, then sends `rest`, and parses the request
    /// with a whole-request budget of `budget`.
    fn split_roundtrip(
        first: &'static [u8],
        rest: &'static [u8],
        budget: std::time::Duration,
    ) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(first).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(60));
            let _ = s.write_all(rest);
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(budget)).unwrap();
        let req = read_request(&mut stream, Instant::now() + budget);
        writer.join().unwrap();
        req
    }

    #[test]
    fn split_reads_within_the_budget_parse() {
        let budget = std::time::Duration::from_secs(5);
        let req = split_roundtrip(b"GET /a HTTP/1.1\r\n", b"Host: x\r\n\r\n", budget).unwrap();
        assert_eq!(req.target, "/a");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn a_request_past_its_whole_budget_times_out() {
        // The first read returns the first part; the rest arrives after
        // the whole budget is spent, so the read that waits for it is cut
        // off at what was left of the budget.
        let budget = std::time::Duration::from_millis(20);
        let err = split_roundtrip(b"GET /a HTTP/1.1\r\n", b"\r\n", budget).unwrap_err();
        assert!(
            matches!(&err, HttpError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::WouldBlock),
            "{err}"
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            roundtrip(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            roundtrip(b"GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn path_and_query_params_split() {
        let req = roundtrip(b"GET /metrics?format=json&x=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.target, "/metrics?format=json&x=1");
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("absent"), None);
        let bare = roundtrip(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.path(), "/metrics");
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn explicit_content_type_is_emitted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::text(200, "text/plain; version=0.0.4", "x_total 1\n")
                .write_to(&mut stream)
                .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        t.join().unwrap();
        assert!(
            text.contains("content-type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
    }

    #[test]
    fn response_serializes_with_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::error(503, "overloaded")
                .with_header("retry-after", "1")
                .write_to(&mut stream)
                .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        t.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("{\"error\":\"overloaded\"}"));
    }
}
