//! Support shared by the serve suites: a live-server replay for the
//! parser proptests, and the buffered batch oracle for `batch_stream`.
//! Each suite that declares `mod common;` uses one of the two.

#![allow(dead_code)]

use langcrux_serve::{spawn, ServeConfig, ServeState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Replay one raw request byte stream — torn in two at `cut` — against
/// a fresh server, returning its complete raw response stream. The
/// client half-closes after sending, so keep-alive responses still end
/// in EOF. Callers compare a torn replay with the untorn one (`cut ==
/// raw.len()`), so use only deterministic-body endpoints: `/v1/healthz`
/// and `/v1/stats` carry uptime.
pub fn replay_torn(raw: &[u8], cut: usize) -> Vec<u8> {
    let cut = cut % (raw.len() + 1);
    let server = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&raw[..cut]).expect("first half");
    if cut != raw.len() {
        // A real TCP tear: let the server read a short segment.
        std::thread::sleep(Duration::from_millis(2));
        stream.write_all(&raw[cut..]).expect("second half");
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    server.shutdown();
    out
}

/// The batch body built the direct way: each page's single-audit bytes,
/// through the shared response cache, spliced in order into one JSON
/// array. The de-chunked `POST /v1/batch` stream must equal it byte for
/// byte. Leaves the request counters alone.
pub fn batch_buffered(state: &ServeState, pages: &[String]) -> Vec<u8> {
    let mut body = vec![b'['];
    for (i, page) in pages.iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        let (bytes, _hit) = state
            .cache
            .get_or_compute(page.as_bytes(), || state.service.audit_json(page));
        body.extend_from_slice(&bytes);
    }
    body.push(b']');
    body
}
