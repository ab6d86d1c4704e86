//! A tiny blocking HTTP client for exercising the server.
//!
//! Exists so the integration tests and `hetesim-cli watch` need nothing
//! beyond this workspace — it speaks exactly the `Connection: close`
//! HTTP/1.1 subset the server serves, one request per connection.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Status code and body of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw header lines (name-lowercased), for checks like `Retry-After`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response. `body` implies a
/// `Content-Length` header; `GET`s pass `None`.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes())?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    parse_response(&text)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Convenience: `GET` the target.
pub fn get(addr: impl ToSocketAddrs, target: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", target, None)
}

/// Convenience: `POST` a JSON body to the target.
pub fn post_json(
    addr: impl ToSocketAddrs,
    target: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    request(addr, "POST", target, Some(body))
}

fn parse_response(text: &str) -> Option<ClientResponse> {
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|line| {
            let (k, v) = line.split_once(':')?;
            Some((k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Some(ClientResponse {
        status,
        headers,
        body: body.to_string(),
    })
}
