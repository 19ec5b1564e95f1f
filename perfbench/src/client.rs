//! A one-request-per-connection HTTP/1.1 client that timestamps the
//! arrival of the first verdict row as well as the last body byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response, with client-side timings.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Header `(lower-cased name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The decoded body.
    pub body: Vec<u8>,
    /// Whether the body ended properly: the terminating chunk of a chunked
    /// body, or `Content-Length` bytes of a fixed one.
    pub complete: bool,
    /// From connecting to the last body byte.
    pub total: Duration,
    /// From connecting to the end of the first line after the CSV header.
    pub first_row: Option<Duration>,
}

impl Reply {
    /// The value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request on a fresh connection and reads the reply to the end.
///
/// # Errors
///
/// Connection, timeout and malformed-response errors.
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<Reply> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);

    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(&request)?;

    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let mut head: Option<Head> = None;
    let mut decoder = Body::Unknown;
    let mut body = Vec::new();
    let mut first_row = None;
    let mut rows = RowFinder::default();
    loop {
        let n = stream.read(&mut buf)?;
        if head.is_none() {
            raw.extend_from_slice(&buf[..n]);
            if let Some(end) = find(&raw, b"\r\n\r\n") {
                let parsed = parse_head(&raw[..end])?;
                decoder = Body::for_head(&parsed);
                head = Some(parsed);
                let rest = raw.split_off(end + 4);
                decoder.feed(&rest, &mut body)?;
            } else if n == 0 {
                return Err(bad("connection closed inside the response head"));
            }
        } else if n > 0 {
            decoder.feed(&buf[..n], &mut body)?;
        }
        if first_row.is_none() && rows.found(&body) {
            first_row = Some(t0.elapsed());
        }
        if n == 0 || decoder.done() {
            break;
        }
    }
    let total = t0.elapsed();
    let head = head.expect("loop exits only after the head is parsed");
    Ok(Reply {
        status: head.status,
        headers: head.headers,
        complete: decoder.done(),
        body,
        total,
        first_row,
    })
}

struct Head {
    status: u16,
    headers: Vec<(String, String)>,
}

fn parse_head(bytes: &[u8]) -> io::Result<Head> {
    let text = std::str::from_utf8(bytes).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Head { status, headers })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Body framing of one response.
enum Body {
    /// Not known yet (head still arriving).
    Unknown,
    /// `Content-Length` framing: bytes still expected.
    Fixed(usize),
    /// Read until the server closes.
    UntilClose,
    /// `Transfer-Encoding: chunked`.
    Chunked(Chunked),
}

impl Body {
    fn for_head(head: &Head) -> Self {
        let value = |name: &str| {
            head.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        if value("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            Body::Chunked(Chunked::default())
        } else if let Some(len) = value("content-length").and_then(|v| v.parse().ok()) {
            Body::Fixed(len)
        } else {
            Body::UntilClose
        }
    }

    fn feed(&mut self, input: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Body::Unknown => unreachable!("body bytes before the head"),
            Body::Fixed(left) => {
                let take = input.len().min(*left);
                out.extend_from_slice(&input[..take]);
                *left -= take;
                Ok(())
            }
            Body::UntilClose => {
                out.extend_from_slice(input);
                Ok(())
            }
            Body::Chunked(c) => c.feed(input, out).map_err(|e| bad(&e)),
        }
    }

    fn done(&self) -> bool {
        match self {
            Body::Fixed(left) => *left == 0,
            Body::Chunked(c) => c.done(),
            Body::Unknown | Body::UntilClose => false,
        }
    }
}

/// Incremental decoder for a chunked body; input may split anywhere.
#[derive(Debug, Default)]
pub struct Chunked {
    state: ChunkState,
    line: Vec<u8>,
}

#[derive(Debug, Default, PartialEq, Eq)]
enum ChunkState {
    /// Reading a chunk-size line.
    #[default]
    Size,
    /// Copying chunk data: bytes left.
    Data(usize),
    /// Expecting the CRLF after chunk data.
    DataEnd,
    /// Reading trailer lines after the zero-size chunk.
    Trailer,
    /// The terminating empty line arrived.
    Done,
}

impl Chunked {
    /// Decodes `input`, appending chunk payload to `out`.
    ///
    /// # Errors
    ///
    /// Malformed chunk sizes or framing.
    pub fn feed(&mut self, mut input: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        while !input.is_empty() {
            match self.state {
                ChunkState::Data(left) => {
                    let take = input.len().min(left);
                    out.extend_from_slice(&input[..take]);
                    input = &input[take..];
                    self.state = if take == left {
                        ChunkState::DataEnd
                    } else {
                        ChunkState::Data(left - take)
                    };
                }
                ChunkState::Done => return Err("bytes after the terminating chunk".into()),
                ChunkState::Size | ChunkState::DataEnd | ChunkState::Trailer => {
                    let Some(nl) = input.iter().position(|&b| b == b'\n') else {
                        self.line.extend_from_slice(input);
                        return Ok(());
                    };
                    self.line.extend_from_slice(&input[..nl]);
                    input = &input[nl + 1..];
                    let line = std::mem::take(&mut self.line);
                    let line = line.strip_suffix(b"\r").unwrap_or(&line);
                    self.state = match self.state {
                        ChunkState::Size => {
                            let text = std::str::from_utf8(line).map_err(|_| "non-ASCII size")?;
                            let hex = text.split(';').next().unwrap_or("").trim();
                            match usize::from_str_radix(hex, 16) {
                                Ok(0) => ChunkState::Trailer,
                                Ok(n) => ChunkState::Data(n),
                                Err(_) => return Err(format!("bad chunk size `{text}`")),
                            }
                        }
                        ChunkState::DataEnd if line.is_empty() => ChunkState::Size,
                        ChunkState::DataEnd => return Err("chunk data overran its size".into()),
                        _ if line.is_empty() => ChunkState::Done,
                        _ => ChunkState::Trailer,
                    };
                }
            }
        }
        Ok(())
    }

    /// Whether the terminating chunk and its empty line arrived.
    pub fn done(&self) -> bool {
        self.state == ChunkState::Done
    }
}

/// Locates the first verdict row of a CSV body as it grows: the row ends
/// at the body's second newline (the first ends the header line).
#[derive(Debug, Default)]
pub struct RowFinder {
    scanned: usize,
    newlines: usize,
}

impl RowFinder {
    /// Whether the first row of `body` is complete; `body` only grows
    /// between calls.
    pub fn found(&mut self, body: &[u8]) -> bool {
        for &b in &body[self.scanned..] {
            self.newlines += usize::from(b == b'\n');
        }
        self.scanned = body.len();
        self.newlines >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunked(parts: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in parts {
            out.extend_from_slice(format!("{:x}\r\n{p}\r\n", p.len()).as_bytes());
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    #[test]
    fn first_row_is_found_at_the_second_newline_across_any_split() {
        // The server sends the header as its own chunk, then rows.
        let wire = chunked(&["id,verdict\n", "0,clean\n1,cl", "ean\n"]);
        let first_row_end = wire
            .windows(8)
            .position(|w| w == b"0,clean\n")
            .expect("row on the wire")
            + 8;
        for split in 1..wire.len() {
            let mut dec = Chunked::default();
            let mut body = Vec::new();
            let mut finder = RowFinder::default();
            let mut found_at = None;
            for (i, piece) in [&wire[..split], &wire[split..]].into_iter().enumerate() {
                dec.feed(piece, &mut body).expect("well-formed");
                if found_at.is_none() && finder.found(&body) {
                    found_at = Some(i);
                }
            }
            assert!(dec.done(), "split {split}");
            assert_eq!(body, b"id,verdict\n0,clean\n1,clean\n", "split {split}");
            // The row counts as arrived in the first piece exactly when
            // the first piece reaches past the row's newline.
            let expected = if split >= first_row_end { 0 } else { 1 };
            assert_eq!(found_at, Some(expected), "split {split}");
        }
    }

    #[test]
    fn header_alone_is_not_a_row_and_truncation_is_not_done() {
        let wire = chunked(&["id,verdict\n"]);
        let mut dec = Chunked::default();
        let mut body = Vec::new();
        dec.feed(&wire[..wire.len() - 5], &mut body)
            .expect("prefix");
        assert!(!dec.done());
        assert!(!RowFinder::default().found(&body));
        dec.feed(&wire[wire.len() - 5..], &mut body)
            .expect("terminator");
        assert!(dec.done());
    }

    #[test]
    fn malformed_chunks_are_rejected() {
        let mut body = Vec::new();
        assert!(Chunked::default().feed(b"zz\r\n", &mut body).is_err());
        assert!(Chunked::default().feed(b"2\r\nabc\r\n", &mut body).is_err());
    }
}
