//! Protocol torture suite: hostile (and hostile-looking) clients
//! against a live server, each pinning one hardening guarantee:
//!
//! * **slowloris** — byte-at-a-time headers trip the request deadline
//!   (408 + close), they do not pin a connection thread.
//! * **sustained pipelining** — the deadline's false-positive guard: a
//!   fast valid client whose stream always ends mid-request must never
//!   be mistaken for a slowloris (the timer is per-request, not
//!   per-first-partial).
//! * **cap storm** — `max_connections` holders + N more clients: exactly
//!   N are shed with `503 + Retry-After`, and a freed slot readmits.
//! * **chunk tears** — pipelined chunked requests torn at every chunk
//!   boundary parse and answer identically to the untorn stream.
//! * **graceful drain** — shutdown under load: the in-flight (streamed
//!   batch) response completes byte-perfect, new connections are
//!   refused.
//! * **stalled batch reader** — a client that requests a huge streamed
//!   batch and never reads a byte is failed at the OS write deadline;
//!   it cannot pin the server, and a concurrent `/v1/audit` still
//!   answers promptly and byte-exact.
//! * **panicking request** — a request whose handler panics is answered
//!   `500` and closed, the panic is counted, and its connection slot is
//!   released for the next client.

use langcrux_serve::loadgen::{get, post, read_response};
use langcrux_serve::{spawn, RpcHook, ServeConfig, ServerHandle};

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn connect(server: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Collect everything the server sends until EOF (or a reset — a shed
/// client that races the server's close may see ECONNRESET after the
/// response bytes have already arrived).
fn read_to_end_string(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut buf = [0u8; 2048];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

const PAGE: &str = "<html lang=hi><head><title>समाचार</title></head><body>\
    <p>आज की मुख्य ख़बरें और विश्लेषण यहाँ पढ़ें।</p>\
    <img src=a alt=\"market photo\"></body></html>";

#[test]
fn slowloris_headers_hit_the_deadline_not_a_hang() {
    let server = spawn(ServeConfig {
        request_deadline: Duration::from_millis(300),
        // Idle timeout far beyond the deadline: if the connection dies
        // within ~the deadline it was the slowloris bound, not idleness.
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .expect("spawn");

    let mut stream = connect(&server);
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\n")
        .expect("start line");
    let started = Instant::now();
    // Dribble header bytes fast enough that the connection is never
    // idle, but never finish the head.
    let filler = b"X-Slowloris: aaaaaaaa\r\n";
    let mut response = Vec::new();
    'dribble: for _ in 0..400 {
        for &b in filler {
            if stream.write_all(&[b]).is_err() {
                break 'dribble; // server already closed on us
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Poll for an early answer without blocking forever.
        stream
            .set_read_timeout(Some(Duration::from_millis(5)))
            .expect("read timeout");
        let mut buf = [0u8; 1024];
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                response.extend_from_slice(&buf[..n]);
                break;
            }
            Err(_) => {}
        }
    }
    // Collect whatever remains until the server closes the socket.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut buf = [0u8; 1024];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        response.extend_from_slice(&buf[..n]);
    }
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "expected 408, got: {text:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline did not bound the slowloris: {elapsed:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.requests.timeouts, 1);
    assert_eq!(stats.requests.healthz, 0, "the request never completed");
}

#[test]
fn sustained_pipelining_is_not_mistaken_for_slowloris() {
    // A fast, valid client that pipelines nonstop keeps the parser
    // mid-request almost permanently (reads tear at arbitrary offsets).
    // The request deadline must bound a *single* request's parse — it
    // resets on every completed request — so sustained pipelining far
    // past the deadline must never be answered 408.
    let server = spawn(ServeConfig {
        request_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut stream = connect(&server);
    let mut scratch = Vec::new();

    let raw = b"GET /v1/healthz HTTP/1.1\r\nHost: p\r\n\r\n";
    // Keep a 10-byte partial of the next request pending at ALL times:
    // the first write ends 10 bytes into request 1, every later write
    // completes the pending request and starts the next one's first 10
    // bytes. The server's parser is therefore never empty for the whole
    // run — the exact state a naive from-first-partial deadline would
    // misread as a slowloris.
    const PARTIAL: usize = 10;
    let mut sent = raw.len() + PARTIAL;
    let first: Vec<u8> = (0..sent).map(|i| raw[i % raw.len()]).collect();
    stream.write_all(&first).expect("first pipelined write");
    let mut acked = 0usize;
    let t_end = Instant::now() + Duration::from_millis(800);
    while Instant::now() < t_end {
        let chunk: Vec<u8> = (sent..sent + raw.len())
            .map(|i| raw[i % raw.len()])
            .collect();
        stream.write_all(&chunk).expect("pipelined write");
        sent += raw.len();
        let (status, _) = read_response(&mut stream, &mut scratch).expect("pipelined read");
        assert_eq!(status, 200, "pipelining was cut off after {acked} requests");
        acked += 1;
    }
    // Collect the last completed request still in flight.
    let (status, _) = read_response(&mut stream, &mut scratch).expect("final read");
    assert_eq!(status, 200);
    acked += 1;
    assert!(acked > 0);
    let stats = server.shutdown();
    assert_eq!(
        stats.requests.timeouts, 0,
        "sustained pipelining tripped the slowloris deadline"
    );
    assert_eq!(stats.requests.healthz, acked as u64);
}

#[test]
fn connection_cap_storm_sheds_exactly_the_overflow() {
    // With `accept_queue: 1` the first client beyond the cap parks in the
    // governor's queue instead of being shed, and is served once a
    // holder disconnects; only the clients beyond cap + queue are shed.
    for queue in [0, 1] {
        connection_cap_storm(queue);
    }
}

fn connection_cap_storm(queue: usize) {
    const CAP: usize = 2;
    const OVERFLOW: usize = 3;
    let server = spawn(ServeConfig {
        max_connections: CAP,
        accept_queue: queue,
        ..ServeConfig::default()
    })
    .expect("spawn");

    // Fill every slot with a live keep-alive connection (the completed
    // round-trip proves each holder's thread is serving, not queued).
    let mut holders: Vec<TcpStream> = (0..CAP).map(|_| connect(&server)).collect();
    let mut scratch = Vec::new();
    for holder in &mut holders {
        let (status, _) = get(holder, "/v1/healthz", &mut scratch).expect("holder healthz");
        assert_eq!(status, 200);
    }

    // Fill the queue. Connections are accepted in arrival order, so the
    // parked clients are admitted before any storm client below.
    let mut parked: Vec<TcpStream> = (0..queue)
        .map(|_| {
            let mut client = connect(&server);
            client
                .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: parked\r\n\r\n")
                .expect("parked write");
            client
        })
        .collect();

    // The storm: every extra client must be shed with 503 + Retry-After
    // and a closed connection.
    for i in 0..OVERFLOW {
        let mut client = connect(&server);
        client
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: storm\r\n\r\n")
            .expect("storm write");
        let text = read_to_end_string(&mut client);
        assert!(
            text.starts_with("HTTP/1.1 503 "),
            "queue {queue}, storm client {i}: expected 503, got {text:?}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "storm client {i}");
        assert!(text.contains("Connection: close\r\n"), "storm client {i}");
    }
    assert_eq!(server.state().counters.snapshot().shed, OVERFLOW as u64);

    // A parked client is neither served nor shed while every slot is
    // held.
    for client in &mut parked {
        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        assert!(
            client.read(&mut byte).is_err(),
            "a parked client was answered while every slot was held"
        );
    }

    // Free one slot. A parked client is served on it, and then frees it
    // again; the governor must readmit within the 50 ms connection-loop
    // poll.
    drop(holders.pop());
    for mut client in parked {
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let (status, _) = read_response(&mut client, &mut scratch).expect("parked response");
        assert_eq!(status, 200, "the parked client was not served");
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    let recovered = loop {
        let mut client = connect(&server);
        // `Connection: close`, so the read below ends with the answer
        // instead of waiting out the server's idle timeout.
        client
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: retry\r\nConnection: close\r\n\r\n")
            .expect("retry write");
        let text = read_to_end_string(&mut client);
        if text.starts_with("HTTP/1.1 200 ") {
            break true;
        }
        assert!(text.starts_with("HTTP/1.1 503 "), "unexpected: {text:?}");
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(recovered, "freed slot was never reused");

    let stats = server.shutdown();
    // Exactly the overflow (plus any 503s from the retry loop) was shed;
    // the holders and the recovered client were all served.
    assert!(stats.requests.shed >= OVERFLOW as u64);
    assert!(stats.requests.healthz > CAP as u64);
}

#[test]
fn pipelined_chunked_requests_torn_at_every_chunk_boundary() {
    // Two pipelined chunked audits over one connection. The stream is
    // torn in two at every chunk boundary (and the head/trailer seams);
    // every tear must produce the same two responses as the untorn
    // stream — and the same bytes as the Content-Length equivalents.
    let body_a = PAGE.as_bytes();
    let body_b = "<html lang=ta><body><p>தமிழ் செய்திகள் இன்று</p></body></html>".as_bytes();

    // Chunked request for `body`, split into `pieces` chunks, recording
    // the offsets of every framing boundary within the request bytes.
    fn chunked_request(
        body: &[u8],
        pieces: usize,
        boundaries: &mut Vec<usize>,
        base: usize,
    ) -> Vec<u8> {
        let mut raw =
            b"POST /v1/audit HTTP/1.1\r\nHost: tear\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        boundaries.push(base + raw.len());
        let step = body.len().div_ceil(pieces).max(1);
        for chunk in body.chunks(step) {
            raw.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            raw.extend_from_slice(chunk);
            raw.extend_from_slice(b"\r\n");
            boundaries.push(base + raw.len());
        }
        raw.extend_from_slice(b"0\r\nX-Trailer: ignored\r\n\r\n");
        boundaries.push(base + raw.len());
        raw
    }

    let server = spawn(ServeConfig::default()).expect("spawn");

    // Oracle: the same bodies as Content-Length requests.
    let mut scratch = Vec::new();
    let mut oracle_conn = connect(&server);
    let (status_a, oracle_a) = post(&mut oracle_conn, "/v1/audit", body_a, &mut scratch).unwrap();
    let (status_b, oracle_b) = post(&mut oracle_conn, "/v1/audit", body_b, &mut scratch).unwrap();
    assert_eq!((status_a, status_b), (200, 200));
    drop(oracle_conn);

    let mut boundaries = Vec::new();
    let mut raw = chunked_request(body_a, 7, &mut boundaries, 0);
    let second = chunked_request(body_b, 5, &mut boundaries, raw.len());
    raw.extend_from_slice(&second);
    boundaries.push(0);
    boundaries.sort_unstable();
    boundaries.dedup();

    for &cut in &boundaries {
        let mut stream = connect(&server);
        stream.write_all(&raw[..cut]).expect("first half");
        // A real TCP tear: give the server time to read a short segment.
        std::thread::sleep(Duration::from_millis(2));
        stream.write_all(&raw[cut..]).expect("second half");
        let (status, first) = read_response(&mut stream, &mut scratch).expect("first response");
        assert_eq!(status, 200, "cut at {cut}");
        assert_eq!(first, oracle_a, "cut at {cut}: first response drifted");
        let (status, second) = read_response(&mut stream, &mut scratch).expect("second response");
        assert_eq!(status, 200, "cut at {cut}");
        assert_eq!(second, oracle_b, "cut at {cut}: second response drifted");
    }
    server.shutdown();
}

/// Set a socket's receive buffer (std-only `extern "C"`: the workspace
/// has no `libc` crate). Shrinking it before the request matters:
/// the kernel's receive-buffer auto-tuning can otherwise absorb tens of
/// megabytes of response on loopback, and a "non-reading" client never
/// actually makes the server's writes block. Re-enlarging it before the
/// drain matters just as much: through a 16 KiB window the server's
/// already-queued send buffer trickles out at ~100 KB/s, slow enough to
/// look like an endless stream.
fn set_recv_buffer(stream: &TcpStream, size: i32) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&size as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

#[test]
fn stalled_batch_reader_is_cut_at_the_write_deadline() {
    const WRITE_TIMEOUT: Duration = Duration::from_millis(400);
    let server = spawn(ServeConfig {
        write_timeout: WRITE_TIMEOUT,
        ..ServeConfig::default()
    })
    .expect("spawn");

    // A batch whose streamed response dwarfs the loopback socket buffers.
    // The pages are identical, so after the first audit every element is
    // a response-cache hit: generation is fast and the *write* path is
    // what stalls when the client never reads.
    let pages: Vec<String> = vec![PAGE.to_string(); 12_000];
    let payload = serde_json::to_string(&pages).expect("payload");
    let mut stalled = connect(&server);
    set_recv_buffer(&stalled, 16 * 1024);
    let request = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: stall\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    stalled
        .write_all(request.as_bytes())
        .expect("batch request");
    // Deliberately never read from `stalled`.

    // Let the server start streaming and fill both socket buffers.
    std::thread::sleep(Duration::from_millis(100));

    // A concurrent audit must answer within a couple of write deadlines:
    // the stalled batch holds only its own connection's thread.
    let oracle = langcrux_serve::AuditService::new().audit_json(PAGE);
    let started = Instant::now();
    let mut client = connect(&server);
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut scratch = Vec::new();
    let (status, body) =
        post(&mut client, "/v1/audit", PAGE.as_bytes(), &mut scratch).expect("concurrent audit");
    let elapsed = started.elapsed();
    assert_eq!(status, 200);
    assert_eq!(body, oracle, "audit bytes drifted behind a stalled batch");
    assert!(
        elapsed < Duration::from_secs(10),
        "stalled batch delayed a concurrent audit by {elapsed:?}"
    );

    // Let the deadline expire before touching the stalled socket: the
    // audit above returns in milliseconds, and draining immediately
    // would reopen the receive window while the server's blocked write
    // is still inside its 400 ms grace.
    std::thread::sleep(WRITE_TIMEOUT * 3);

    // The stalled connection itself was failed at the deadline: once we
    // finally drain it, the stream ends (EOF or reset) after only the
    // bytes that fit in the socket buffers — had the server still been
    // attached, reopening the window would resume the stream and deliver
    // the full multi-megabyte batch. Reopen the window wide first so the
    // kernel-buffered remainder arrives in seconds, not minutes.
    set_recv_buffer(&stalled, 8 * 1024 * 1024);
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let full_response = 12_000 * oracle.len();
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let mut drained = 0usize;
    let mut buf = [0u8; 65536];
    let closed = loop {
        match stalled.read(&mut buf) {
            Ok(0) | Err(_) => break true,
            Ok(n) => {
                drained += n;
                if Instant::now() > drain_deadline {
                    break false;
                }
            }
        }
    };
    assert!(
        closed,
        "server kept streaming to a client it should have cut \
         (drained {drained} of ~{full_response} bytes)"
    );
    assert!(
        drained < full_response / 2,
        "drained {drained} of ~{full_response} bytes: the write deadline never fired"
    );
    server.shutdown();
}

#[test]
fn graceful_drain_completes_in_flight_and_refuses_new() {
    let server = spawn(ServeConfig {
        batch_threads: 2,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = server.addr();

    // The in-flight load: a streamed batch big enough to still be
    // running when shutdown lands. The oracle is computed with a private
    // engine so the server's cache stays cold and the batch stays slow.
    let pages: Vec<String> = (0..40)
        .map(|i| PAGE.replace("विश्लेषण", &format!("विश्लेषण {i}")))
        .collect();
    let oracle = langcrux_serve::AuditService::new();
    let elements: Vec<String> = pages
        .iter()
        .map(|p| String::from_utf8(oracle.audit_json(p)).expect("utf8 json"))
        .collect();
    let expected = format!("[{}]", elements.join(",")).into_bytes();
    let payload = serde_json::to_string(&pages).expect("payload");

    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut scratch = Vec::new();
        post(&mut stream, "/v1/batch", payload.as_bytes(), &mut scratch)
    });

    // Drain only once the batch is in flight. The cache counts a miss
    // before it computes, and it is cold, so a miss means the accept
    // loop has taken the connection and the batch is running; before
    // that, a shutdown would drop the connection from the listen backlog
    // unread.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.state().cache.misses() == 0 {
        assert!(Instant::now() < deadline, "the batch was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.shutdown();

    let (status, body) = client
        .join()
        .expect("client thread")
        .expect("in-flight batch must complete through the drain");
    assert_eq!(status, 200);
    assert_eq!(body, expected, "drained batch bytes drifted from oracle");
    assert_eq!(stats.requests.batch, 1);
    assert_eq!(stats.requests.batch_pages, 40);

    // The front door is gone: new connections are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "post-drain connect must be refused"
    );
}

#[test]
fn a_panicking_request_answers_500_and_releases_its_slot() {
    // One slot and no queue: a panic that leaked its slot would get every
    // later connection shed with 503, and one that killed the server
    // would get it refused.
    let hook = RpcHook(Arc::new(
        |name: &str, _body: &[u8]| -> Option<(u16, Vec<u8>)> { panic!("rpc {name} panicked") },
    ));
    let server = spawn(ServeConfig {
        max_connections: 1,
        accept_queue: 0,
        rpc: Some(hook),
        ..ServeConfig::default()
    })
    .expect("spawn");
    // The slot is released just after the answer goes out, so a client
    // that reconnects at once may still find it held: retry a 503 for up
    // to 2 s, as a client honouring Retry-After would.
    let exchange = |request: &[u8]| -> String {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut client = connect(&server);
            client.write_all(request).expect("request write");
            let text = read_to_end_string(&mut client);
            if !text.starts_with("HTTP/1.1 503 ") || Instant::now() > deadline {
                return text;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    };

    for i in 0..3 {
        let text =
            exchange(b"POST /v1/rpc/boom HTTP/1.1\r\nHost: boom\r\nContent-Length: 2\r\n\r\n{}");
        assert!(
            text.starts_with("HTTP/1.1 500 "),
            "panicking request {i}: expected 500, got {text:?}"
        );
        assert!(text.contains("Connection: close\r\n"), "request {i}");
    }
    let text = exchange(b"GET /v1/healthz HTTP/1.1\r\nHost: after\r\nConnection: close\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 200 "), "healthz: {text:?}");
    let text = exchange(b"GET /v1/metrics HTTP/1.1\r\nHost: after\r\nConnection: close\r\n\r\n");
    assert!(
        text.contains("\nlangcrux_serve_panics_total 3\n"),
        "metrics: {text}"
    );
    server.shutdown();
}
