//! Property tests for the incremental HTTP request parser.
//!
//! The core invariant: the parse result is a pure function of the byte
//! stream, independent of how TCP tears it into read chunks — start-lines,
//! CRLFs and bodies may be split at any offset, including inside the
//! `\r\n\r\n` terminator.

use langcrux_serve::http::{Limits, ParseError, Request, RequestParser};
use proptest::prelude::*;

mod common;

/// Parse a full byte stream in one feed.
fn parse_one_shot(bytes: &[u8], limits: Limits) -> Result<Option<Request>, ParseError> {
    let mut parser = RequestParser::new(limits);
    parser.feed(bytes);
    parser.poll()
}

/// Parse the same stream fed in chunks split at `cuts` (offsets into the
/// stream, in any order, possibly duplicated).
fn parse_chunked(
    bytes: &[u8],
    cuts: &[usize],
    limits: Limits,
) -> Result<Option<Request>, ParseError> {
    let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    offsets.push(0);
    offsets.push(bytes.len());
    offsets.sort_unstable();
    offsets.dedup();
    let mut parser = RequestParser::new(limits);
    let mut last = Ok(None);
    for window in offsets.windows(2) {
        parser.feed(&bytes[window[0]..window[1]]);
        last = parser.poll();
        if !matches!(last, Ok(None)) {
            return last;
        }
    }
    last
}

/// Assemble a syntactically valid request from generated parts.
fn build_request(path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut raw = format!("POST {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = raw.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    /// Arbitrary chunking never changes the parse of a valid request.
    #[test]
    fn chunking_is_invisible(
        path in "/[a-z0-9/]{0,12}",
        names in prop::collection::vec("[A-Za-z][A-Za-z0-9-]{0,10}", 0..5),
        values in prop::collection::vec("[ -~]{0,24}", 0..5),
        body in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(0usize..2048, 0..12),
    ) {
        let mut seen = std::collections::HashSet::new();
        let headers: Vec<(String, String)> = names
            .iter()
            .zip(values.iter())
            // `:` inside a generated value would truncate the value at
            // parse time but not change validity; keep values colon-free
            // so the equality assertion below can compare verbatim.
            .map(|(n, v)| (n.clone(), v.replace(':', ";").trim().to_string()))
            .filter(|(n, _)| !n.eq_ignore_ascii_case("content-length")
                && !n.eq_ignore_ascii_case("transfer-encoding")
                // header() returns the first match: keep names unique so
                // the per-header assertion below is well-defined.
                && seen.insert(n.to_ascii_lowercase()))
            .collect();
        let raw = build_request(&path, &headers, &body);

        let one_shot = parse_one_shot(&raw, Limits::default());
        let chunked = parse_chunked(&raw, &cuts, Limits::default());
        prop_assert_eq!(&one_shot, &chunked);

        let request = one_shot.unwrap().expect("complete request must parse");
        prop_assert_eq!(request.method.as_str(), "POST");
        prop_assert_eq!(request.path.as_str(), path.as_str());
        prop_assert_eq!(&request.body, &body);
        for (name, value) in &headers {
            prop_assert_eq!(
                request.header(&name.to_ascii_lowercase()),
                Some(value.as_str())
            );
        }
    }

    /// Byte-at-a-time feeding (every CRLF torn) parses identically.
    #[test]
    fn torn_crlfs_parse_identically(
        body in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let raw = build_request("/v1/audit", &[("Host".to_string(), "x".to_string())], &body);
        let one_shot = parse_one_shot(&raw, Limits::default()).unwrap().unwrap();

        let mut parser = RequestParser::new(Limits::default());
        let mut trickled = None;
        for byte in &raw {
            parser.feed(std::slice::from_ref(byte));
            if let Some(request) = parser.poll().unwrap() {
                trickled = Some(request);
            }
        }
        prop_assert_eq!(trickled.expect("parsed by final byte"), one_shot);
    }

    /// Any declared Content-Length beyond the limit fails with 413 — at
    /// header-parse time, regardless of how much body ever arrives and of
    /// chunking.
    #[test]
    fn oversized_bodies_are_413(
        over in 1usize..10_000,
        cuts in prop::collection::vec(0usize..256, 0..6),
    ) {
        let limits = Limits { max_body_bytes: 2048, ..Limits::default() };
        let declared = 2048 + over;
        let raw = format!("POST /v1/audit HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let err = parse_chunked(raw.as_bytes(), &cuts, limits).unwrap_err();
        prop_assert_eq!(&err, &ParseError::BodyTooLarge(declared));
        prop_assert_eq!(err.status(), 413);
    }

    /// Garbage start-lines fail with a 400-class error, never a panic,
    /// under any chunking.
    #[test]
    fn malformed_start_lines_are_400(
        junk in "[a-z ]{1,30}",
        cuts in prop::collection::vec(0usize..64, 0..4),
    ) {
        // Lower-case method (or stray spaces) is always malformed.
        let raw = format!("{junk} HTTP/1.1\r\n\r\n");
        let result = parse_chunked(raw.as_bytes(), &cuts, Limits::default());
        let err = result.unwrap_err();
        prop_assert_eq!(err.status(), 400);
    }

    /// Live-server tear replay: an audit stream (valid or invalid UTF-8
    /// → 200 or 400) torn by TCP at an arbitrary offset is answered with
    /// the same response stream as the untorn request.
    #[test]
    fn torn_audit_replay_is_identical_to_untorn(
        body in prop::collection::vec(any::<u8>(), 0..200),
        cut in 0usize..1024,
    ) {
        let raw = build_request("/v1/audit", &[("Host".to_string(), "xc".to_string())], &body);
        let untorn = common::replay_torn(&raw, raw.len());
        prop_assert!(!untorn.is_empty(), "no response to the untorn request");
        prop_assert_eq!(common::replay_torn(&raw, cut), untorn);
    }
}

#[test]
fn split_inside_every_terminator_position() {
    // Deterministic sweep: split the stream at every single offset and
    // confirm the two-chunk parse equals the one-shot parse. This pins
    // the "torn CRLF" regressions at the exact boundary offsets.
    let raw = build_request(
        "/v1/audit",
        &[("X-One".to_string(), "alpha".to_string())],
        b"<html lang=ja>body</html>",
    );
    let expected = parse_one_shot(&raw, Limits::default()).unwrap().unwrap();
    for cut in 0..=raw.len() {
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(&raw[..cut]);
        let early = parser.poll().unwrap();
        parser.feed(&raw[cut..]);
        let request = match early {
            Some(request) => request,
            None => parser.poll().unwrap().expect("complete after second chunk"),
        };
        assert_eq!(request, expected, "cut at {cut}");
    }
}
