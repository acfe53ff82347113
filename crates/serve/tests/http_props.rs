//! Hostile input for the HTTP front end: arbitrary bytes fed to
//! `read_request` and `read_response` must come back as a request, a
//! response or a structured error, never as a panic.

use std::io::{self, BufReader, Read, Write};
use tpi_serve::http::{read_request, read_response, HttpError};
use tpi_testkit::prelude::*;

/// A connection whose peer sent `input`. What the reader writes back
/// (`100 Continue`) is kept apart, so it never mixes with the input.
struct Wire<'a> {
    input: &'a [u8],
    sent: Vec<u8>,
}

impl Read for Wire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Wire<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

const MAX_BODY: usize = 1024;

fn parse_request(input: &[u8]) -> Result<(), HttpError> {
    let mut reader = BufReader::new(Wire {
        input,
        sent: Vec::new(),
    });
    let request = read_request(&mut reader, MAX_BODY)?;
    assert!(request.body.len() <= MAX_BODY);
    Ok(())
}

fn parse_response(input: &[u8]) -> io::Result<()> {
    let mut reader = input;
    let response = read_response(&mut reader)?;
    assert!(response.body.len() <= input.len());
    Ok(())
}

/// Raw bytes, or bytes that steer into the parsers' interesting
/// branches: a start line, header lines whose names and values the
/// parsers act on, then a body, each part sometimes replaced by raw
/// bytes.
fn message() -> impl Strategy<Value = Vec<u8>> {
    let shaped = (
        start_line(),
        prop::collection::vec(header_line(), 0..8),
        prop::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(start, headers, body)| [start, headers.concat(), body].concat());
    prop_oneof![
        4 => shaped,
        1 => prop::collection::vec(any::<u8>(), 0..256),
    ]
}

fn start_line() -> impl Strategy<Value = Vec<u8>> {
    const LINES: &[&str] = &[
        "GET / HTTP/1.1\r\n",
        "POST /v1/experiments HTTP/1.0\r\n",
        "POST /v1/experiments HTTP/2\r\n",
        "GET\r\n",
        "HTTP/1.1 200 OK\r\n",
        "HTTP/1.1 503\r\n",
        "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n",
        "HTTP/1.1 abc OK\r\n",
    ];
    prop_oneof![
        4 => (0usize..LINES.len()).prop_map(|i| LINES[i].as_bytes().to_vec()),
        1 => raw(),
    ]
}

fn header_line() -> impl Strategy<Value = Vec<u8>> {
    const NAMES: &[&str] = &[
        "content-length",
        "Content-Length",
        "connection",
        "expect",
        "retry-after",
        "",
    ];
    const VALUES: &[&str] = &[
        "0",
        "2",
        "18446744073709551615",
        "99999999999999999999999",
        "-1",
        "close",
        "100-continue",
        "",
    ];
    const ENDS: &[&str] = &["\r\n", "\n", "\r\n\r\n", ""];
    let value = prop_oneof![
        3 => (0usize..VALUES.len()).prop_map(|i| VALUES[i].as_bytes().to_vec()),
        1 => any::<u64>().prop_map(|n| n.to_string().into_bytes()),
        1 => raw(),
    ];
    prop_oneof![
        4 => (0usize..NAMES.len(), value, 0usize..ENDS.len()).prop_map(|(n, v, e)| {
            [NAMES[n].as_bytes(), b": ", &v, ENDS[e].as_bytes()].concat()
        }),
        1 => raw(),
    ]
}

fn raw() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn read_request_never_panics(input in message()) {
        let _ = parse_request(&input);
    }

    #[test]
    fn read_response_never_panics(input in message()) {
        let _ = parse_response(&input);
    }
}

#[test]
fn a_response_declaring_an_absurd_length_is_an_error_not_an_abort() {
    // Allocating the declared length before reading would panic for a
    // length past `isize::MAX` and abort the process for a merely huge
    // one.
    for length in ["18446744073709551615", "1000000000000"] {
        let input = format!("HTTP/1.1 200 OK\r\ncontent-length: {length}\r\n\r\n{{}}");
        let err = parse_response(input.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{length}");
    }
}

#[test]
fn a_request_body_over_the_limit_is_refused_before_it_is_read() {
    let input = b"POST / HTTP/1.1\r\ncontent-length: 18446744073709551615\r\n\r\n";
    assert!(matches!(
        parse_request(input),
        Err(HttpError::BodyTooLarge(n)) if n == usize::MAX
    ));
}

#[test]
fn expect_continue_is_answered_on_the_wire_not_mixed_into_the_body() {
    let input = b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\n{}";
    let mut reader = BufReader::new(Wire {
        input,
        sent: Vec::new(),
    });
    let request = read_request(&mut reader, MAX_BODY).unwrap();
    assert_eq!(request.body, b"{}");
    assert_eq!(reader.get_ref().sent, b"HTTP/1.1 100 Continue\r\n\r\n");
}
