//! Loopback load generator for the audit service.
//!
//! Drives a running server with `connections` concurrent keep-alive
//! clients, each issuing `POST /v1/audit` requests round-robin over a
//! shared page list, and reports throughput plus exact (not bucketed)
//! p50/p99 client-side latency. `repro --loadgen ADDR` runs it against a
//! live daemon and exits non-zero on any failed request.

use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One load-generation run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadGenRun {
    pub connections: usize,
    pub requests: usize,
    /// Responses with a non-200 status (0 on a healthy run).
    pub errors: usize,
    pub duration_ms: f64,
    pub req_per_sec: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// Pull more bytes from the socket into `buf`, erroring on EOF.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut byte = [0u8; 2048];
    let n = stream.read(&mut byte)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&byte[..n]);
    Ok(())
}

/// Read one HTTP/1.1 response: status + body, de-chunked if the server
/// answered with `Transfer-Encoding: chunked` (the streaming `/v1/batch`
/// path), `Content-Length`-delimited otherwise.
///
/// `scratch` is the connection's read buffer: exactly one response is
/// consumed from it, and any pipelined surplus is *left in it* for the
/// next call — so pass the same buffer for the lifetime of a connection.
pub fn read_response(
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let head_end = loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        read_more(stream, scratch)?;
    };
    let head = std::str::from_utf8(&scratch[..head_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 head"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (n, value) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    };
    let chunked = header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let content_length: Option<usize> = header("content-length").and_then(|v| v.parse().ok());
    scratch.drain(..head_end + 4);

    if chunked {
        let decoded = dechunk(stream, scratch)?;
        return Ok((status, decoded));
    }
    let content_length = content_length.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
    })?;
    while scratch.len() < content_length {
        read_more(stream, scratch)?;
    }
    let body: Vec<u8> = scratch.drain(..content_length).collect();
    Ok((status, body))
}

/// Decode a chunked response body out of `buf` (pulling from the socket
/// as needed), leaving any pipelined surplus in `buf`. Trailers are
/// consumed and discarded.
fn dechunk(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<Vec<u8>> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut decoded = Vec::new();
    loop {
        // One complete `size\r\n` line.
        let eol = loop {
            if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            read_more(stream, buf)?;
        };
        let line = std::str::from_utf8(&buf[..eol]).map_err(|_| bad("non-utf8 chunk size"))?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| bad("bad chunk size"))?;
        buf.drain(..eol + 2);
        if size == 0 {
            // Trailers (the server sends none, but consume defensively)
            // up to and including the final empty line.
            loop {
                let eol = loop {
                    if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                        break pos;
                    }
                    read_more(stream, buf)?;
                };
                buf.drain(..eol + 2);
                if eol == 0 {
                    return Ok(decoded);
                }
            }
        }
        while buf.len() < size + 2 {
            read_more(stream, buf)?;
        }
        decoded.extend_from_slice(&buf[..size]);
        if &buf[size..size + 2] != b"\r\n" {
            return Err(bad("missing chunk data CRLF"));
        }
        buf.drain(..size + 2);
    }
}

/// Issue one `POST` and wait for the response.
pub fn post(
    stream: &mut TcpStream,
    path: &str,
    body: &[u8],
    scratch: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: text/html\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    read_response(stream, scratch)
}

/// Issue one `GET` and wait for the response.
pub fn get(
    stream: &mut TcpStream,
    path: &str,
    scratch: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    read_response(stream, scratch)
}

/// Drive `total_requests` audits over `connections` concurrent keep-alive
/// connections. Request `i` posts `pages[i % pages.len()]`; requests are
/// pre-partitioned round-robin across connections.
pub fn run_load(
    addr: SocketAddr,
    pages: &[String],
    connections: usize,
    total_requests: usize,
) -> std::io::Result<LoadGenRun> {
    assert!(!pages.is_empty(), "need at least one page");
    let connections = connections.max(1).min(total_requests.max(1));
    let started = Instant::now();

    let results: Vec<std::io::Result<(Vec<u64>, usize)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || -> std::io::Result<(Vec<u64>, usize)> {
                    let mut stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                    let mut scratch = Vec::with_capacity(64 * 1024);
                    let mut latencies = Vec::new();
                    let mut errors = 0usize;
                    let mut i = c;
                    while i < total_requests {
                        let page = &pages[i % pages.len()];
                        let begin = Instant::now();
                        let (status, _body) =
                            post(&mut stream, "/v1/audit", page.as_bytes(), &mut scratch)?;
                        latencies.push(begin.elapsed().as_micros() as u64);
                        if status != 200 {
                            errors += 1;
                        }
                        i += connections;
                    }
                    Ok((latencies, errors))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });

    let duration = started.elapsed();
    let mut latencies = Vec::with_capacity(total_requests);
    let mut errors = 0usize;
    for result in results {
        let (lat, err) = result?;
        latencies.extend(lat);
        errors += err;
    }
    latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1] as f64 / 1_000.0
    };
    let duration_ms = duration.as_secs_f64() * 1e3;
    Ok(LoadGenRun {
        connections,
        requests: latencies.len(),
        errors,
        duration_ms,
        req_per_sec: latencies.len() as f64 / duration.as_secs_f64().max(1e-9),
        p50_ms: quantile(0.50),
        p99_ms: quantile(0.99),
        max_ms: latencies.last().copied().unwrap_or(0) as f64 / 1_000.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{spawn, ServeConfig};

    const PAGE: &str = "<html lang=el><head><title>Πύλη</title></head><body>\
        <p>Καλώς ήρθατε στην εθνική πύλη ενημέρωσης πολιτών.</p>\
        <img src=a alt=\"άποψη του λιμανιού\"></body></html>";

    #[test]
    fn loadgen_round_trips_against_a_live_server() {
        let server = spawn(ServeConfig::default()).expect("spawn server");
        let pages: Vec<String> = (0..6)
            .map(|i| PAGE.replace("λιμανιού", &format!("λιμανιού {i}")))
            .collect();
        let run = run_load(server.addr(), &pages, 3, 24).expect("load run");
        assert_eq!(run.requests, 24);
        assert_eq!(run.errors, 0);
        assert!(run.req_per_sec > 0.0);
        assert!(run.p50_ms <= run.p99_ms);
        assert!(run.p99_ms <= run.max_ms + 1e-9);
        // 6 distinct pages visited 24 times: 6 misses, 18 hits.
        let stats = server.shutdown();
        assert_eq!(stats.cache.misses, 6);
        assert_eq!(stats.cache.hits, 18);
        assert_eq!(stats.requests.audit, 24);
    }

    #[test]
    fn connections_clamped_to_requests() {
        let server = spawn(ServeConfig::default()).expect("spawn server");
        let run = run_load(server.addr(), &[PAGE.to_string()], 8, 2).expect("load run");
        assert_eq!(run.connections, 2);
        assert_eq!(run.requests, 2);
        server.shutdown();
    }
}
