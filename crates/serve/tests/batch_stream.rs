//! Streaming-batch equivalence: the chunked `/v1/batch` response, after
//! de-chunking, must be byte-identical to the buffered array
//! (`common::batch_buffered`, the oracle, itself pinned to splice the
//! single-audit bytes) — for empty, single-element, and random
//! multi-page batches — and a large batch must stream through a bounded
//! reorder buffer instead of materializing the whole array (asserted via
//! the `peak_batch_buffer` gauge on `/v1/stats`).

mod common;

use common::batch_buffered;
use langcrux_serve::loadgen::{get, post};
use langcrux_serve::{spawn, ServeConfig, ServerHandle};

use langcrux_webgen::{render, SitePlan};
use std::io::{Read, Write};
use std::net::TcpStream;

fn corpus_page(idx: u32) -> String {
    use langcrux_lang::Country;
    use langcrux_net::ContentVariant;
    let country = Country::STUDY[idx as usize % Country::STUDY.len()];
    let plan = SitePlan::build(0xBA7C4, country, idx, Some(true));
    render(&plan, ContentVariant::Localized, "/").0
}

fn connect(server: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

#[test]
fn buffered_oracle_splices_single_audit_bytes() {
    let server = spawn(ServeConfig {
        batch_threads: 2,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let page = corpus_page(0);
    let mut stream = connect(&server);
    let mut scratch = Vec::new();
    let (status, single) =
        post(&mut stream, "/v1/audit", page.as_bytes(), &mut scratch).expect("audit");
    assert_eq!(status, 200);
    let single = String::from_utf8(single).expect("utf8 json");
    let state = server.state();
    assert_eq!(batch_buffered(state, &[]), b"[]");
    assert_eq!(
        batch_buffered(state, std::slice::from_ref(&page)),
        format!("[{single}]").into_bytes()
    );
    assert_eq!(
        batch_buffered(state, &[page.clone(), page]),
        format!("[{single},{single}]").into_bytes()
    );
    server.shutdown();
}

#[test]
fn streamed_batch_bytes_equal_buffered_oracle() {
    let server = spawn(ServeConfig {
        batch_threads: 3,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut stream = connect(&server);
    let mut scratch = Vec::new();

    // Batch shapes the issue calls out: empty, single, and a few sizes
    // whose elements complete out of order on a multi-worker pool.
    for (round, size) in [0usize, 1, 2, 7, 16].into_iter().enumerate() {
        let pages: Vec<String> = (0..size as u32)
            .map(|i| corpus_page(round as u32 * 100 + i))
            .collect();
        let expected = batch_buffered(server.state(), &pages);
        let payload = serde_json::to_string(&pages).expect("payload");
        let (status, body) =
            post(&mut stream, "/v1/batch", payload.as_bytes(), &mut scratch).expect("batch");
        assert_eq!(status, 200, "batch of {size}");
        assert_eq!(
            body, expected,
            "batch of {size}: de-chunked stream drifted from the buffered oracle"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests.batch, 5);
    assert_eq!(stats.requests.batch_pages, 26);
    assert_eq!(stats.requests.errors, 0);
}

#[test]
fn batch_response_is_actually_chunked() {
    // Raw socket check that the framing really is chunked encoding (the
    // loadgen client would transparently de-chunk either framing).
    let server = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = connect(&server);
    let payload = serde_json::to_string(&vec![corpus_page(0)]).expect("payload");
    let head = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: raw\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(payload.as_bytes()).expect("payload");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text:.120}");
    assert!(text.contains("Transfer-Encoding: chunked\r\n"));
    assert!(!text.contains("Content-Length"), "chunked excludes length");
    assert!(text.ends_with("0\r\n\r\n"), "terminating chunk missing");
    server.shutdown();
}

#[test]
fn large_batch_streams_through_a_bounded_buffer() {
    // A batch whose full response is far larger than the reorder window
    // can ever hold: the peak_batch_buffer gauge proves the response was
    // never materialized in one buffer.
    let server = spawn(ServeConfig {
        batch_threads: 4,
        batch_window: 4,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let pages: Vec<String> = (0..48).map(corpus_page).collect();
    let expected = batch_buffered(server.state(), &pages);
    let payload = serde_json::to_string(&pages).expect("payload");

    let mut stream = connect(&server);
    let mut scratch = Vec::new();
    let (status, body) =
        post(&mut stream, "/v1/batch", payload.as_bytes(), &mut scratch).expect("batch");
    assert_eq!(status, 200);
    assert_eq!(body, expected);

    // The gauge is visible over HTTP and bounded well below the full
    // response: with window 4, at most 4 elements are ever parked.
    let (status, stats_body) = get(&mut stream, "/v1/stats", &mut scratch).expect("stats");
    assert_eq!(status, 200);
    let stats: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&stats_body).unwrap()).expect("stats json");
    let peak = match stats.get("peak_batch_buffer") {
        Some(serde_json::Value::UInt(peak)) => *peak as usize,
        other => panic!("peak_batch_buffer missing or non-uint: {other:?}"),
    };
    assert!(peak > 0, "the reorder buffer must have been used");
    let largest = pages
        .iter()
        .map(|p| server.state().service.audit_json(p).len())
        .max()
        .unwrap();
    assert!(
        peak <= 4 * largest,
        "peak {peak} exceeds the window bound {}",
        4 * largest
    );
    assert!(
        peak < expected.len() / 2,
        "peak {peak} is not small vs the {}-byte response — did the batch buffer?",
        expected.len()
    );
    server.shutdown();
}
