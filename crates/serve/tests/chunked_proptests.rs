//! Property tests for the chunked-transfer request decoder, mirroring
//! the parser proptests in `http_proptests.rs`.
//!
//! Core invariants:
//!
//! * **Tear-invariance** — the decoded request is a pure function of the
//!   byte stream, however TCP tears it: across chunk-size lines,
//!   extensions, data CRLFs, and trailer lines.
//! * **Content-Length oracle** — a chunked request decodes to exactly
//!   the body of the equivalent `Content-Length` request, whatever the
//!   chunk split, extensions, or trailers.
//! * **Limit mapping** — a declared chunk total beyond the body limit is
//!   413 at declaration time, under any chunking.

use langcrux_serve::http::{Limits, ParseError, Request, RequestParser};
use proptest::prelude::*;

mod common;

/// Feed `bytes` split at `cuts` (offsets taken modulo the length, any
/// order, duplicates fine) and return the first complete poll result.
fn parse_torn(bytes: &[u8], cuts: &[usize], limits: Limits) -> Result<Option<Request>, ParseError> {
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

/// Assemble a chunked request: `body` split at `splits` (relative
/// offsets), with optional chunk extensions and trailer fields.
fn build_chunked(
    path: &str,
    body: &[u8],
    splits: &[usize],
    extension: &str,
    trailers: &[(String, String)],
) -> Vec<u8> {
    let mut cuts: Vec<usize> = splits.iter().map(|s| s % (body.len() + 1)).collect();
    cuts.push(0);
    cuts.push(body.len());
    cuts.sort_unstable();
    cuts.dedup();
    let mut raw =
        format!("POST {path} HTTP/1.1\r\nHost: prop\r\nTransfer-Encoding: chunked\r\n\r\n")
            .into_bytes();
    for window in cuts.windows(2) {
        let chunk = &body[window[0]..window[1]];
        if chunk.is_empty() {
            continue; // a zero-size chunk would terminate the stream
        }
        let ext = if extension.is_empty() {
            String::new()
        } else {
            format!(";{extension}")
        };
        raw.extend_from_slice(format!("{:x}{ext}\r\n", chunk.len()).as_bytes());
        raw.extend_from_slice(chunk);
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"0\r\n");
    for (name, value) in trailers {
        raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    raw
}

/// The equivalent Content-Length request (the oracle).
fn build_fixed(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: prop\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

proptest! {
    /// Chunked decode ≡ the Content-Length oracle's body, under any
    /// chunk split, extension, trailer set, and TCP tearing.
    #[test]
    fn chunked_equals_content_length_oracle(
        path in "/[a-z0-9/]{0,12}",
        body in prop::collection::vec(any::<u8>(), 0..400),
        splits in prop::collection::vec(0usize..512, 0..8),
        extension in "[a-z0-9=]{0,12}",
        trailer_names in prop::collection::vec("[A-Za-z][A-Za-z0-9-]{0,8}", 0..3),
        trailer_values in prop::collection::vec("[ -~]{0,16}", 0..3),
        cuts in prop::collection::vec(0usize..2048, 0..12),
    ) {
        let trailers: Vec<(String, String)> = trailer_names
            .iter()
            .cloned()
            .zip(trailer_values.iter().map(|v| v.replace(':', ";").trim().to_string()))
            .collect();
        let chunked_raw = build_chunked(&path, &body, &splits, &extension, &trailers);
        let fixed_raw = build_fixed(&path, &body);

        let oracle = {
            let mut parser = RequestParser::new(Limits::default());
            parser.feed(&fixed_raw);
            parser.poll().unwrap().expect("oracle parses")
        };
        let torn = parse_torn(&chunked_raw, &cuts, Limits::default())
            .unwrap()
            .expect("chunked request parses");
        // Same method, path, body; framing headers differ by design, and
        // trailers must NOT surface as headers.
        prop_assert_eq!(&torn.method, &oracle.method);
        prop_assert_eq!(&torn.path, &oracle.path);
        prop_assert_eq!(&torn.body, &oracle.body);
        prop_assert_eq!(torn.header("host"), Some("prop"));
        for (name, _) in &trailers {
            prop_assert_eq!(torn.header(&name.to_ascii_lowercase()), None);
        }
    }

    /// One-shot and torn parses agree byte-for-byte on the whole Request.
    #[test]
    fn chunked_tearing_is_invisible(
        body in prop::collection::vec(any::<u8>(), 0..300),
        splits in prop::collection::vec(0usize..512, 0..6),
        cuts in prop::collection::vec(0usize..1024, 0..10),
    ) {
        let raw = build_chunked("/v1/audit", &body, &splits, "", &[]);
        let one_shot = {
            let mut parser = RequestParser::new(Limits::default());
            parser.feed(&raw);
            parser.poll()
        };
        let torn = parse_torn(&raw, &cuts, Limits::default());
        prop_assert_eq!(one_shot, torn);
    }

    /// Byte-at-a-time feeding (every CRLF, size line, and trailer torn)
    /// decodes identically.
    #[test]
    fn chunked_byte_at_a_time_decodes_identically(
        body in prop::collection::vec(any::<u8>(), 1..200),
        splits in prop::collection::vec(0usize..256, 0..5),
    ) {
        let raw = build_chunked("/v1/audit", &body, &splits, "x=1", &[("T".to_string(), "v".to_string())]);
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(&raw);
        let one_shot = parser.poll().unwrap().expect("parses");

        let mut trickle = RequestParser::new(Limits::default());
        let mut result = None;
        for byte in &raw {
            trickle.feed(std::slice::from_ref(byte));
            if let Some(request) = trickle.poll().unwrap() {
                result = Some(request);
            }
        }
        prop_assert_eq!(result.expect("parsed by final byte"), one_shot);
    }

    /// A declared chunk total beyond the limit is 413 at declaration
    /// time — before the oversized data arrives — under any chunking.
    #[test]
    fn oversized_chunk_totals_are_413(
        fill in prop::collection::vec(any::<u8>(), 64..128),
        over in 1usize..4096,
        cuts in prop::collection::vec(0usize..512, 0..8),
    ) {
        let limits = Limits { max_body_bytes: 128, ..Limits::default() };
        // First a legitimate chunk, then a declaration that pushes the
        // total over the limit; its data is never sent.
        let mut raw =
            b"POST /v1/audit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(format!("{:x}\r\n", fill.len()).as_bytes());
        raw.extend_from_slice(&fill);
        raw.extend_from_slice(b"\r\n");
        let second = 128 - fill.len() + over;
        raw.extend_from_slice(format!("{second:x}\r\n").as_bytes());

        let err = parse_torn(&raw, &cuts, limits).unwrap_err();
        prop_assert_eq!(&err, &ParseError::BodyTooLarge(128 + over));
        prop_assert_eq!(err.status(), 413);
    }

    /// Live-server tear replay: a chunked audit, torn by TCP at an
    /// arbitrary offset (chunk-size lines, data CRLFs, and the trailer
    /// block included), is answered with the same response stream as the
    /// untorn request.
    #[test]
    fn torn_chunked_audit_is_identical_to_untorn(
        body in prop::collection::vec(any::<u8>(), 1..200),
        splits in prop::collection::vec(0usize..256, 0..5),
        cut in 0usize..1024,
    ) {
        let raw = build_chunked(
            "/v1/audit",
            &body,
            &splits,
            "x=1",
            &[("X-Trailer".to_string(), "ignored".to_string())],
        );
        let untorn = common::replay_torn(&raw, raw.len());
        prop_assert!(!untorn.is_empty(), "no response to the untorn request");
        prop_assert_eq!(common::replay_torn(&raw, cut), untorn);
    }
}
