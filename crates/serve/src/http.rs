//! A minimal HTTP/1.1 layer over `std::net`.
//!
//! The workspace vendors its dependencies, so there is no tokio, hyper
//! or axum to lean on; this module hand-rolls exactly the slice of
//! HTTP/1.1 the job API needs and nothing more:
//!
//! * request parsing — request line, headers, `Content-Length` bodies
//!   (the only kind the API accepts);
//! * fixed-length responses with a JSON body and `Connection: close`;
//! * chunked (`Transfer-Encoding: chunked`) responses via
//!   [`ChunkedWriter`], for the live JSONL event stream whose length is
//!   unknown while the solve is still running;
//! * a tiny blocking client ([`request`]) used by the tests and the
//!   repository benchmark, which also decodes chunked bodies.
//!
//! Every exchange is one-request-per-connection (`Connection: close`):
//! simpler to reason about, and the job API's conversational state lives
//! in job IDs, not connections.
//!
//! One write per response: a `write!` on an unbuffered `TcpStream` is a
//! system call per formatted piece, so [`write_response_typed`] formats
//! head and body into one buffer and hands it to `write_all` once, and a
//! [`ChunkedWriter`] buffers up to [`STREAM_BUFFER_BYTES`] until its
//! caller [flushes](ChunkedWriter::flush) or [finishes](ChunkedWriter::finish)
//! it.  A finished job's whole event stream therefore leaves in one
//! write, and a live one leaves whenever the server has nothing more to
//! send.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Maximum accepted request body (1 MiB — problem documents are a few
/// hundred bytes; anything larger is a client error, not a workload).
pub(crate) const MAX_BODY_BYTES: usize = 1 << 20;

/// Maximum accepted request head: request line plus headers (16 KiB).
/// One byte budget covers the whole head, so a client that streams bytes
/// with no newline, or header after header, is refused once it crosses
/// the cap instead of growing the request for as long as it keeps
/// sending (the read timeout only fires when the bytes stop).
const MAX_HEAD_BYTES: usize = 16 << 10;

/// What a [`ChunkedWriter`] holds before it writes on its own (8 KiB: a
/// finished `serve-mix`-sized solve's whole event history is ≈ 2.4 KB).
pub const STREAM_BUFFER_BYTES: usize = 8 << 10;

/// A parsed HTTP request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path component of the request target, with any query string
    /// split off into [`Request::query`].
    pub path: String,
    /// The raw query string (after `?`, undecoded), if any.  The API's
    /// only query parameter is `/v1/metrics?format=prometheus`.
    pub query: Option<String>,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a (lower-cased) header name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad_request(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// Read one line of the request head into `line`, charging its bytes to
/// what is left of the head's `budget`.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
    line: &mut String,
) -> io::Result<usize> {
    let too_long = || bad_request(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
    if *budget == 0 {
        return Err(too_long());
    }
    let read = reader.take(*budget as u64).read_line(line)?;
    *budget -= read;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(too_long());
    }
    Ok(read)
}

/// Read one HTTP/1.1 request from a buffered stream.
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Request> {
    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    if read_head_line(reader, &mut budget, &mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a request line",
        ));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad_request("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad_request("request line has no path"))?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };
    let version = parts
        .next()
        .ok_or_else(|| bad_request("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad_request(format!("unsupported version '{version}'")));
    }

    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        if read_head_line(reader, &mut budget, &mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| bad_request(format!("malformed header line '{header}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if let Some(raw) = request.header("content-length") {
        let length: usize = raw
            .parse()
            .map_err(|_| bad_request(format!("unparsable Content-Length '{raw}'")))?;
        if length > MAX_BODY_BYTES {
            return Err(bad_request(format!(
                "request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )));
        }
        let mut body = vec![0_u8; length];
        reader.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(request)
}

/// The canonical reason phrase for the status codes the API emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length JSON response and flush it.
pub(crate) fn write_response<W: Write>(writer: &mut W, status: u16, body: &str) -> io::Result<()> {
    write_response_typed(writer, status, "application/json", body)
}

/// Write a complete fixed-length response with an explicit content type
/// (the Prometheus exposition endpoint serves `text/plain`): head and
/// body in one buffer, one `write_all`.
pub fn write_response_typed<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        body.len(),
    );
    response.push_str(body);
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// A `Transfer-Encoding: chunked` response in progress: one chunk per
/// [`ChunkedWriter::write_chunk`], terminated by
/// [`ChunkedWriter::finish`].  Nothing reaches the underlying writer
/// until [`ChunkedWriter::flush`], [`ChunkedWriter::finish`] or more
/// than [`STREAM_BUFFER_BYTES`] are pending.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    writer: BufWriter<W>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Buffer the status line and chunked headers, returning the
    /// in-progress response.
    pub(crate) fn begin(writer: W, status: u16, content_type: &str) -> io::Result<Self> {
        let mut writer = BufWriter::with_capacity(STREAM_BUFFER_BYTES, writer);
        write!(
            writer,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_reason(status),
        )?;
        Ok(Self { writer })
    }

    /// Buffer one chunk (empty chunks are skipped — an empty chunk would
    /// terminate the stream early in the chunked framing).
    pub fn write_chunk(&mut self, data: &str) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.writer, "{:x}\r\n{data}\r\n", data.len())
    }

    /// Send everything buffered so far: the caller has nothing more to
    /// write for now and the client should not wait for it.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Terminate the chunked stream and send what is left.
    pub fn finish(mut self) -> io::Result<()> {
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

/// A decoded HTTP response from the blocking client.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code of the response line.
    pub status: u16,
    /// The body, with chunked framing already removed.
    pub body: String,
}

/// Perform one blocking HTTP exchange: connect, send `method path` with
/// an optional JSON body, read the full response (decoding chunked
/// bodies), return it.  Used by tests and the repository benchmark.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(120)))?;
    let mut writer = stream.try_clone()?;
    let body_bytes = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: unsnap\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body_bytes}",
        body_bytes.len(),
    )?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_request(format!("malformed status line '{status_line}'")))?;

    let mut chunked = false;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if name == "content-length" {
                content_length = value.parse().ok();
            }
        }
    }

    let body = if chunked {
        let mut decoded = Vec::new();
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                break; // connection closed at a chunk boundary
            }
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad_request(format!("malformed chunk size '{size_line}'")))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0_u8; size + 2]; // data + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            decoded.extend_from_slice(&chunk);
        }
        decoded
    } else if let Some(length) = content_length {
        let mut body = vec![0_u8; length];
        reader.read_exact(&mut body)?;
        body
    } else {
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        body
    };
    Ok(HttpResponse {
        status,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let request = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/solve");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"abcd");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let raw = b"GET /v1/metrics HTTP/1.1\r\n\r\n";
        let request = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.query, None);
        assert!(request.body.is_empty());
    }

    #[test]
    fn splits_the_query_string_off_the_path() {
        let raw = b"GET /v1/metrics?format=prometheus HTTP/1.1\r\n\r\n";
        let request = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(request.path, "/v1/metrics");
        assert_eq!(request.query.as_deref(), Some("format=prometheus"));
    }

    #[test]
    fn typed_response_carries_its_content_type() {
        let mut out = Vec::new();
        write_response_typed(&mut out, 200, "text/plain; version=0.0.4", "a 1\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("a 1\n"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_request(&mut Cursor::new(&b""[..])).is_err());
        assert!(read_request(&mut Cursor::new(&b"NOT-HTTP\r\n\r\n"[..])).is_err());
        let oversize = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert!(read_request(&mut Cursor::new(oversize.as_bytes())).is_err());
    }

    #[test]
    fn an_endless_head_is_refused_at_the_cap() {
        let refused_at_the_cap = |head: &[u8]| {
            let err = read_request(&mut Cursor::new(head)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("request head exceeds"), "{err}");
        };
        refused_at_the_cap(&vec![b'A'; MAX_HEAD_BYTES + 1]);
        // Headers count against the same cap as the request line.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        while many.len() <= MAX_HEAD_BYTES {
            many.extend_from_slice(b"X: y\r\n");
        }
        many.extend_from_slice(b"\r\n");
        refused_at_the_cap(&many);
    }

    #[test]
    fn fixed_response_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn chunked_framing_round_trips() {
        let mut out = Vec::new();
        let mut chunked = ChunkedWriter::begin(&mut out, 200, "application/jsonl").unwrap();
        chunked.write_chunk("hello\n").unwrap();
        chunked.write_chunk("").unwrap(); // skipped, not a terminator
        chunked.write_chunk("world\n").unwrap();
        chunked.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("6\r\nhello\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    /// Counts the `write` calls that reach it: each is a system call on
    /// a socket.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_fixed_response_is_one_write() {
        let mut out = CountingWriter::default();
        write_response(&mut out, 503, "{\"error\":\"busy\",\"field\":null}").unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"busy\",\"field\":null}"));
    }

    #[test]
    fn a_chunked_stream_under_the_buffer_size_is_one_write() {
        let mut out = CountingWriter::default();
        let mut chunked = ChunkedWriter::begin(&mut out, 200, "application/jsonl").unwrap();
        for index in 0..30 {
            chunked
                .write_chunk(&format!("{{\"event\":\"sweep\",\"sweep\":{index}}}\n"))
                .unwrap();
        }
        chunked.finish().unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(text.matches("\"event\":\"sweep\"").count(), 30);
        assert!(text.ends_with("\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn a_flush_sends_what_is_buffered_and_the_stream_goes_on() {
        let mut out = CountingWriter::default();
        let mut chunked = ChunkedWriter::begin(&mut out, 200, "application/jsonl").unwrap();
        chunked.write_chunk("a\n").unwrap();
        chunked.flush().unwrap();
        chunked.flush().unwrap(); // nothing buffered: no write
        chunked.write_chunk("b\n").unwrap();
        chunked.finish().unwrap();
        assert_eq!(out.writes, 2);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.ends_with("2\r\na\n\r\n2\r\nb\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn status_reasons_cover_the_api() {
        for code in [200, 202, 400, 404, 405, 409, 500, 503] {
            assert_ne!(status_reason(code), "Unknown");
        }
        assert_eq!(status_reason(418), "Unknown");
    }
}
