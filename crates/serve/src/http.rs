//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`: just
//! enough to parse the requests the service defines and to write
//! well-formed responses with keep-alive. No chunked bodies, no TLS, no
//! HTTP/2 — clients that need more sit behind a reverse proxy.
//!
//! This module is the one place that puts HTTP on a socket. Both
//! services (`tpi-serve` and `tpi-router`) run the same keep-alive serve
//! loop (`Serving`) with their own `Handler`, and every client
//! connects through `connect`. Every message leaves in one `write`
//! ([`write_response`], [`write_request`]) on a `TCP_NODELAY` socket: a
//! head and a body written separately would be a write-write-read
//! pattern, where Nagle's algorithm holds the body until the peer's
//! delayed ACK of the head (about 40 ms on Linux).

use crate::wire::error_body;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard limits on request framing.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum number of header lines per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received.
    pub method: String,
    /// Request target (path + optional query), as received.
    pub target: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out while waiting for a new request to begin (the
    /// connection is idle — the caller may poll its shutdown flag and
    /// keep waiting).
    Idle,
    /// The bytes on the wire are not a well-formed request (a 400).
    Malformed(String),
    /// The declared body exceeds the caller's limit (a 413).
    BodyTooLarge(usize),
    /// The socket failed mid-request.
    Io(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF- (or bare-LF-) terminated line without the terminator.
fn read_line(reader: &mut impl Read, first: bool) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(if first && line.is_empty() {
                    HttpError::Closed
                } else {
                    HttpError::Malformed("connection closed mid-request".into())
                });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
                }
                line.push(byte[0]);
                if line.len() > MAX_HEADER_LINE {
                    return Err(HttpError::Malformed("header line too long".into()));
                }
            }
            Err(e) if is_timeout(&e) => {
                return Err(if first && line.is_empty() {
                    HttpError::Idle
                } else {
                    HttpError::Malformed("timed out mid-request".into())
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads one request. `max_body` bounds the accepted `Content-Length`.
/// The stream under `reader` is written to only for `100 Continue`.
///
/// # Errors
///
/// See [`HttpError`]; [`HttpError::Idle`] and [`HttpError::Closed`] are
/// normal between-request conditions, not faults.
pub fn read_request<S: Read + Write>(
    reader: &mut BufReader<S>,
    max_body: usize,
) -> Result<Request, HttpError> {
    let request_line = read_line(reader, true)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut content_length: usize = 0;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut expect_continue = false;
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader, false)?;
        if line.is_empty() {
            if content_length > max_body {
                return Err(HttpError::BodyTooLarge(content_length));
            }
            if expect_continue {
                // The body is small enough: invite the client to send it.
                let _ = reader.get_mut().write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            }
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                reader.read_exact(&mut body).map_err(|e| {
                    if is_timeout(&e) {
                        HttpError::Malformed("timed out reading body".into())
                    } else {
                        HttpError::Io(e)
                    }
                })?;
            }
            return Ok(Request {
                method,
                target,
                body,
                keep_alive,
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("malformed header {line:?}")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }
    Err(HttpError::Malformed("too many headers".into()))
}

/// Standard reason phrase for the statuses the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes one response in a single `write` (see the module docs for
/// why). `extra_headers` lets a handler attach headers like
/// `Retry-After`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    write_message(stream, head, body)
}

/// Writes one request in a single `write` (see the module docs for why).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: tpi-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    write_message(stream, head, body)
}

fn write_message(stream: &mut impl Write, head: String, body: &[u8]) -> io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A parsed response, as the load generator and tests consume them.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one response off a client connection (keep-alive aware: reads
/// exactly `content-length` bytes).
///
/// # Errors
///
/// Fails on socket errors or responses this module didn't write.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        // Interim 1xx responses (100 Continue) precede the real one.
        let interim = (100..200).contains(&status);
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
            }
        }
        if interim {
            continue;
        }
        // Grow the body with the bytes that actually arrive: allocating
        // the declared length up front lets a hostile peer abort the
        // process with one header.
        let mut body = Vec::new();
        reader
            .by_ref()
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() != content_length {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        return Ok(Response {
            status,
            headers,
            body,
        });
    }
}

/// Opens a client connection with the module's socket policy:
/// `TCP_NODELAY`, and `timeout` on connect, read and write.
///
/// # Errors
///
/// Propagates connect and socket-option failures.
pub(crate) fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// One response as a [`Handler`] produces it.
#[derive(Debug)]
pub(crate) struct Reply {
    /// Status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Headers beyond the framing ones [`write_response`] always sends.
    pub headers: Vec<(&'static str, String)>,
}

impl Reply {
    /// A JSON reply with no extra headers.
    #[must_use]
    pub fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            headers: Vec::new(),
        }
    }

    /// The same reply with one more header.
    #[must_use]
    pub fn header(mut self, name: &'static str, value: &str) -> Reply {
        self.headers.push((name, value.to_owned()));
        self
    }

    fn write(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write_response(
            stream,
            self.status,
            self.content_type,
            self.body.as_bytes(),
            &self.headers,
            keep_alive,
        )
    }
}

/// A service behind the shared serve loop ([`Serving`]): how it answers
/// requests, plus the hooks the loop calls around connections and
/// responses.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Largest accepted request body; a larger one is a 413.
    fn max_body(&self) -> usize;

    /// Whether the service is draining: the accept loop exits, idle
    /// connections close, and no response keeps its connection open.
    fn shutting_down(&self) -> bool;

    /// Called once per accepted connection. `false` drops it before a
    /// byte is read, which resets the peer.
    fn admit(&self) -> bool {
        true
    }

    /// Answers one well-formed request.
    fn handle(&self, request: &Request) -> Reply;

    /// Called once per reply. `true` sends only the first half of it and
    /// hangs up.
    fn truncate(&self) -> bool {
        false
    }
}

/// How long a connection blocks in `read` before re-checking the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// A running keep-alive serve loop: one accept thread, and one thread
/// per open connection.
pub(crate) struct Serving {
    accept: Option<JoinHandle<()>>,
    open: Arc<AtomicUsize>,
}

impl Serving {
    /// Spawns the accept thread (`{name}-accept`); every admitted
    /// connection is served on its own `{name}-conn` thread.
    pub fn start<H: Handler>(listener: TcpListener, handler: Arc<H>, name: &str) -> Serving {
        let open = Arc::new(AtomicUsize::new(0));
        let accept_open = Arc::clone(&open);
        let conn_name = format!("{name}-conn");
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&listener, &handler, &accept_open, &conn_name))
            .expect("spawn accept loop");
        Serving {
            accept: Some(accept),
            open,
        }
    }

    /// Joins the accept thread. The handler must already report
    /// [`Handler::shutting_down`], and the listener must have been woken
    /// (a connection to it does that).
    pub fn stop_accepting(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Waits up to `limit` for open connections to finish; they notice
    /// the shutdown within one idle poll.
    pub fn drain(&self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while self.open.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop<H: Handler>(
    listener: &TcpListener,
    handler: &Arc<H>,
    open: &Arc<AtomicUsize>,
    conn_name: &str,
) {
    loop {
        let accepted = listener.accept();
        if handler.shutting_down() {
            return;
        }
        let Ok((stream, _)) = accepted else {
            continue;
        };
        if !handler.admit() {
            continue;
        }
        open.fetch_add(1, Ordering::AcqRel);
        let conn_handler = Arc::clone(handler);
        let conn_open = Arc::clone(open);
        let spawned = std::thread::Builder::new()
            .name(conn_name.to_owned())
            .spawn(move || {
                connection_loop(&stream, conn_handler.as_ref());
                conn_open.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            open.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn connection_loop(stream: &TcpStream, handler: &impl Handler) {
    if stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(IDLE_POLL)))
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut out = stream;
    loop {
        let request = match read_request(&mut reader, handler.max_body()) {
            Ok(request) => request,
            Err(HttpError::Idle) if !handler.shutting_down() => continue,
            Err(HttpError::Idle | HttpError::Closed | HttpError::Io(_)) => return,
            Err(HttpError::Malformed(message)) => {
                let body = error_body("bad_request", &message);
                let _ = Reply::json(400, body).write(&mut out, false);
                return;
            }
            Err(HttpError::BodyTooLarge(n)) => {
                let body = error_body("body_too_large", &format!("{n} bytes exceeds the limit"));
                let _ = Reply::json(413, body).write(&mut out, false);
                return;
            }
        };
        let reply = handler.handle(&request);
        let keep_alive = request.keep_alive && !handler.shutting_down();
        if handler.truncate() {
            // Render the full response, send only half of it, and hang
            // up: the client sees garbage-terminated bytes.
            let mut rendered = Vec::new();
            let _ = reply.write(&mut rendered, false);
            let _ = out.write_all(&rendered[..rendered.len() / 2]);
            return;
        }
        if reply.write(&mut out, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that counts `write` calls: a message split across two
    /// calls is the write-write-read stall on a real socket.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
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
    fn response_writing_is_well_formed() {
        let mut out = CountingWriter::default();
        write_response(
            &mut out,
            503,
            "application/json",
            b"{}",
            &[("retry-after", "1".to_owned())],
            false,
        )
        .unwrap();
        assert_eq!(out.writes, 1, "head and body must leave in one write");
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn request_writing_is_one_write_with_unchanged_bytes() {
        let mut out = CountingWriter::default();
        write_request(&mut out, "POST", "/v1/experiments", b"{\"kernels\":[]}").unwrap();
        assert_eq!(out.writes, 1, "head and body must leave in one write");
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "POST /v1/experiments HTTP/1.1\r\nhost: tpi-serve\r\n\
             content-type: application/json\r\ncontent-length: 14\r\n\r\n\
             {\"kernels\":[]}"
        );
    }

    #[test]
    fn reason_phrases_cover_emitted_statuses() {
        for status in [200, 400, 404, 405, 408, 413, 500, 503, 504] {
            assert!(!reason(status).is_empty(), "{status}");
        }
    }
}
