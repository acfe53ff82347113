//! Hostile input for the service's two other decoders: arbitrary bytes
//! fed to `json::parse` and to the disk-record `decode` must come back
//! as a value or a structured error, never as a panic. Values the
//! service writes (`Json::render`, `encode`) must decode back unchanged.

use std::time::{Duration, Instant};
use tpi_serve::disk::{decode, encode, RecordError};
use tpi_serve::json::{parse, Json};
use tpi_testkit::prelude::*;
use tpi_testkit::BoxedStrategy;

/// JSON-ish text: valid documents, documents with a fragment spliced
/// in, runs of fragments that steer the parser into its number,
/// string-escape, literal and nesting branches, and raw bytes.
fn json_text() -> impl Strategy<Value = String> {
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        " ",
        "\"",
        "\"k\"",
        "\\",
        "\\u",
        "\\ud800",
        "\\udc00",
        "\\u00e9",
        "\\n",
        "0",
        "-",
        "1e999",
        "1.5e-3",
        "+",
        ".",
        "e",
        "true",
        "fals",
        "null",
        "nul",
        "é",
        "\u{2028}",
        "\u{1f600}",
        "\u{7f}",
        "\t",
        "\u{1}",
    ];
    let fragment = (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i]);
    let spliced = (value(3), fragment.clone(), any::<usize>()).prop_map(|(doc, frag, at)| {
        let mut text = doc.render();
        let at = (0..=text.len())
            .cycle()
            .skip(at % (text.len() + 1))
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(0);
        text.insert_str(at, frag);
        text
    });
    let fragments = prop::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat());
    let bytes = prop::collection::vec(any::<u8>(), 0..128)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned());
    prop_oneof![
        1 => value(3).prop_map(|doc| doc.render()),
        2 => spliced,
        2 => fragments,
        1 => bytes,
    ]
}

/// A string with escapes, controls and multi-byte characters in it.
fn text() -> impl Strategy<Value = String> {
    const CHARS: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '\u{fffd}',
        '\u{1f600}',
    ];
    prop::collection::vec((0..CHARS.len()).prop_map(|i| CHARS[i]), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
}

/// A finite number: small integers, exact powers, and arbitrary bits.
fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1000i64..1000).prop_map(|n| n as f64),
        any::<u64>().prop_map(f64::from_bits),
        (-300i32..300).prop_map(|e| 10f64.powi(e)),
    ]
    .prop_map(|n| if n.is_finite() { n } else { 0.0 })
}

/// A JSON value nested up to `depth` levels.
fn value(depth: u32) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        number().prop_map(Json::Num),
        text().prop_map(Json::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        2 => leaf,
        1 => prop::collection::vec(value(depth - 1), 0..4).prop_map(Json::Arr),
        1 => prop::collection::vec((text(), value(depth - 1)), 0..4).prop_map(Json::Obj),
    ]
    .boxed()
}

/// A real record, intact or with some bytes overwritten, its tail cut
/// off or its header lengths replaced; or raw bytes.
fn record_bytes() -> impl Strategy<Value = Vec<u8>> {
    let record = || (text(), text()).prop_map(|(key, payload)| encode(&key, &payload));
    let flipped = (
        record(),
        prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    )
        .prop_map(|(mut bytes, flips)| {
            for (at, b) in flips {
                let at = at % bytes.len();
                bytes[at] = b;
            }
            bytes
        });
    let cut = (record(), any::<usize>()).prop_map(|(mut bytes, at)| {
        bytes.truncate(at % bytes.len());
        bytes
    });
    let lengths = (record(), any::<u32>(), any::<u32>()).prop_map(|(mut bytes, k, p)| {
        bytes[8..12].copy_from_slice(&k.to_le_bytes());
        bytes[12..16].copy_from_slice(&p.to_le_bytes());
        bytes
    });
    prop_oneof![
        1 => record(),
        2 => flipped,
        1 => cut,
        1 => lengths,
        1 => prop::collection::vec(any::<u8>(), 0..64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn json_parse_never_panics(input in json_text()) {
        match parse(&input) {
            Ok(doc) => prop_assert_eq!(parse(&doc.render()), Ok(doc)),
            Err(e) => prop_assert!(e.offset <= input.len(), "{e} past the input"),
        }
    }

    #[test]
    fn record_decode_never_panics(bytes in record_bytes()) {
        match decode(&bytes) {
            Ok((key, payload)) => prop_assert_eq!(encode(key, payload), bytes),
            Err(RecordError::Malformed | RecordError::Checksum) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

    #[test]
    fn rendered_json_parses_back_unchanged(doc in value(3)) {
        prop_assert_eq!(parse(&doc.render()), Ok(doc));
    }

    #[test]
    fn encoded_records_decode_back_unchanged(key in text(), payload in text()) {
        let bytes = encode(&key, &payload);
        prop_assert_eq!(decode(&bytes), Ok((key.as_str(), payload.as_str())));
    }
}

#[test]
fn a_long_json_string_parses_in_linear_time() {
    // A request body may be 1 MiB (the default `max_body_bytes`), all of
    // it one string; parsing must not re-validate the rest of the input at
    // every character. At half that size a quadratic scan takes minutes.
    let body = format!("\"{}\"", "é".repeat(1 << 18));
    let started = Instant::now();
    let doc = parse(&body).expect("a valid string");
    assert_eq!(doc.as_str().map(str::len), Some(1 << 19));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_signed_unicode_escape_is_an_error() {
    // Four hex digits exactly: `from_str_radix` would also take "+041".
    assert!(parse(r#""\u+041""#).is_err());
    assert_eq!(parse(r#""\u0041""#), Ok(Json::Str("A".to_owned())));
}
