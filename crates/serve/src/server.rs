//! The HTTP server: one thread per admitted connection, plus routing
//! and the streaming batch writer.
//!
//! Architecture (std-only, one OS thread per admitted connection):
//!
//! ```text
//! spawn() ──► accept thread ──► Governor ──► connection threads
//!                 │              │  cap → serve / queue / shed(503)     │
//!                 │              └─ finished threads pop the queue      │
//!                 │                   RequestParser::feed/poll          │
//!                 │                   route() ──► AuditService          │
//!                 │                      │    └─► ShardedCache          │
//!                 │                      └─ BatchStream ─► StreamFanout │
//!                 │                         (chunked response while the │
//!                 │                          work-stealing pool runs)   │
//!                 └─ ServerHandle::shutdown(): flag + self-connect to
//!                    unblock accept, drop queued waiters, then join
//!                    accept + connections (in-flight requests finish).
//! ```
//!
//! A panic while routing one request is contained on its connection's
//! thread: the client gets `500` with `Connection: close`, the panic is
//! counted, and the thread returns its governor slot.
//!
//! Each admitted connection costs one thread, which wakes every 50 ms
//! on its read timeout to check the idle and request deadlines and the
//! shutdown flag. `ServeConfig::max_connections` bounds those threads;
//! arrivals beyond it queue, then shed.
//!
//! Batch requests fan their pages out over the workspace's work-stealing
//! pool (`crawl::pool::run_work_stealing`) so a many-page batch uses
//! every core, exactly like the offline crawl pipeline. Each page inside
//! a batch goes through the same content-hash cache as single audits, so
//! mixed single/batch traffic shares one response cache — and since the
//! streaming rewrite, the response is written element by element as pool
//! units complete, holding at most a bounded reorder window in memory
//! instead of the whole spliced array.

use crate::batch::{PeakGauge, StreamFanout};
use crate::cache::{CacheSnapshot, ShardedCache};
use crate::governor::{Admission, Governor};
use crate::http::{self, Limits, Request, RequestParser, Response};
use crate::service::AuditService;
use crate::stats::{LatencyHistogram, LatencySnapshot, RequestCounters, RequestSnapshot};
use langcrux_crawl::run_work_stealing;
use langcrux_obs as obs;
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `Retry-After` hint (seconds) on governor-shed 503 responses.
const RETRY_AFTER_SECS: u32 = 1;

/// An embedder-installed handler for `POST /v1/rpc/<name>` requests:
/// `(name, body) -> Some((status, json_body))`, or `None` for an unknown
/// RPC name (404). The repro harness uses this to expose the distributed
/// build's unit-execution endpoint on worker processes without the serve
/// crate knowing anything about the pipeline.
///
/// The hook runs on the connection's own thread, so a long-running hook
/// (a distributed work unit) holds only its own connection. A hook that
/// panics is answered `500` and counted like any other panic while
/// routing.
#[derive(Clone)]
pub struct RpcHook(pub Arc<RpcHandler>);

/// The boxed handler type inside an [`RpcHook`].
pub type RpcHandler = dyn Fn(&str, &[u8]) -> Option<(u16, Vec<u8>)> + Send + Sync;

impl std::fmt::Debug for RpcHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RpcHook(..)")
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Worker threads for batch fan-out (0 = one per core).
    pub batch_threads: usize,
    pub cache_shards: usize,
    pub cache_capacity_per_shard: usize,
    pub limits: Limits,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Hard cap on concurrently served connections (and therefore on
    /// connection threads). Beyond it, arrivals queue then shed.
    pub max_connections: usize,
    /// Accepted connections parked while all slots are busy; beyond
    /// this, arrivals are shed with `503 + Retry-After`.
    pub accept_queue: usize,
    /// A request whose bytes started arriving must parse completely
    /// within this window, or the connection is answered `408` and
    /// closed — the slowloris bound.
    pub request_deadline: Duration,
    /// OS-level write timeout: a client that stops reading its response
    /// cannot pin a connection thread past this.
    pub write_timeout: Duration,
    /// Streaming-batch reorder window in elements (0 = auto: twice the
    /// batch worker count). Bounds batch memory at O(window × element).
    pub batch_window: usize,
    /// Cap on a `POST /v1/batch` (or `/v1/rpc/*`) body in bytes; larger
    /// bodies answer `413`. This bounds the work one request can ask
    /// for: a batch audits every page it carries, and an RPC runs to
    /// completion on its connection's thread, so capping the bytes caps
    /// how long one request holds a slot and the batch pool. Tighter
    /// than [`Limits::max_body_bytes`], which bounds what the *parser*
    /// will buffer for any request.
    pub max_batch_bytes: usize,
    /// Embedder RPC handler for `POST /v1/rpc/*` (`None` = 404).
    pub rpc: Option<RpcHook>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("loopback addr"),
            batch_threads: 0,
            cache_shards: 8,
            cache_capacity_per_shard: 256,
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(10),
            max_connections: 256,
            accept_queue: 64,
            request_deadline: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            batch_window: 0,
            max_batch_bytes: 2 * 1024 * 1024,
            rpc: None,
        }
    }
}

/// Shared server state.
pub struct ServeState {
    pub service: AuditService,
    pub cache: ShardedCache,
    pub counters: RequestCounters,
    pub latency: LatencyHistogram,
    /// High-water mark of bytes parked in streaming-batch reorder
    /// buffers — the observable proof that batches stream instead of
    /// buffering the whole response array.
    pub peak_batch_buffer: PeakGauge,
    /// Extra metric collectors registered by the embedding process —
    /// the repro daemon registers its pipeline/crawl/corpus telemetry
    /// here after a build, so `/v1/metrics` exports it alongside the
    /// server's own counters.
    pub extra: obs::Registry,
    batch_threads: usize,
    /// See [`ServeConfig::max_batch_bytes`].
    max_batch_bytes: usize,
    /// See [`ServeConfig::rpc`].
    rpc: Option<RpcHook>,
    started: Instant,
}

/// The `GET /v1/stats` document.
#[derive(Debug, Clone, Serialize)]
pub struct StatsSnapshot {
    pub uptime_ms: u64,
    pub requests: RequestSnapshot,
    pub cache: CacheSnapshot,
    pub latency: LatencySnapshot,
    /// Peak bytes buffered by any streaming batch (reorder window).
    pub peak_batch_buffer: u64,
}

impl ServeState {
    fn new(config: &ServeConfig) -> Self {
        ServeState {
            service: AuditService::new(),
            cache: ShardedCache::new(config.cache_shards, config.cache_capacity_per_shard),
            counters: RequestCounters::default(),
            latency: LatencyHistogram::default(),
            peak_batch_buffer: PeakGauge::default(),
            extra: obs::Registry::new(),
            batch_threads: config.batch_threads,
            max_batch_bytes: config.max_batch_bytes,
            rpc: config.rpc.clone(),
            started: Instant::now(),
        }
    }

    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests: self.counters.snapshot(),
            cache: self.cache.snapshot(),
            latency: self.latency.snapshot(),
            peak_batch_buffer: self.peak_batch_buffer.get() as u64,
        }
    }

    /// One registry pass over everything this server exports: build
    /// info, its own stats, and every collector registered in
    /// [`extra`](ServeState::extra). `GET /v1/metrics` renders it as
    /// the Prometheus text exposition.
    pub fn encode_metrics(&self, stats: &StatsSnapshot) -> obs::Encoder {
        let mut enc = obs::Encoder::new();
        obs::registry::encode_build_info(&mut enc, "langcrux-serve", env!("CARGO_PKG_VERSION"));
        encode_stats(stats, &mut enc);
        self.extra.collect_into(&mut enc);
        enc
    }

    /// The `GET /v1/healthz` build-info document.
    fn healthz_body(&self) -> Vec<u8> {
        let doc = Value::Object(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            (
                "service".to_string(),
                Value::Str("langcrux-serve".to_string()),
            ),
            (
                "version".to_string(),
                Value::Str(env!("CARGO_PKG_VERSION").to_string()),
            ),
            (
                "git_sha".to_string(),
                Value::Str(obs::registry::git_sha().to_string()),
            ),
            (
                "uptime_seconds".to_string(),
                Value::UInt(self.started.elapsed().as_secs()),
            ),
            (
                "features".to_string(),
                Value::Array(
                    obs::registry::feature_flags()
                        .into_iter()
                        .map(|f| Value::Str(f.to_string()))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&doc)
            .expect("healthz serialize")
            .into_bytes()
    }

    /// Effective batch fan-out worker count.
    fn batch_threads(&self) -> usize {
        if self.batch_threads == 0 {
            langcrux_crawl::default_threads()
        } else {
            self.batch_threads
        }
        .max(1)
    }
}

/// Register the stats snapshot into a metrics [`obs::Encoder`] — the
/// single definition of serve's exposition. Every counter/gauge `GET
/// /v1/stats` serves as JSON appears here under the `langcrux_serve_`
/// namespace; latency is a native histogram (cumulative `_bucket{le}`
/// series — occupied buckets plus the mandatory `+Inf` — with
/// `_sum`/`_count`), so quantiles are computed by the scraper instead of
/// being frozen at scrape time.
pub fn encode_stats(stats: &StatsSnapshot, enc: &mut obs::Encoder) {
    enc.gauge(
        "langcrux_serve_uptime_milliseconds",
        "Time since the server started.",
        stats.uptime_ms as f64,
    );
    let r = &stats.requests;
    const REQUESTS: &str = "Successfully routed requests by endpoint.";
    for (endpoint, value) in [
        ("audit", r.audit),
        ("batch", r.batch),
        ("rpc", r.rpc),
        ("healthz", r.healthz),
        ("stats", r.stats),
    ] {
        enc.counter_with(
            "langcrux_serve_requests_total",
            REQUESTS,
            &[("endpoint", endpoint)],
            value as f64,
        );
    }
    enc.counter(
        "langcrux_serve_batch_pages_total",
        "Pages audited inside batch requests.",
        r.batch_pages as f64,
    );
    enc.counter(
        "langcrux_serve_errors_total",
        "4xx/5xx answers (routing + protocol errors).",
        r.errors as f64,
    );
    enc.counter(
        "langcrux_serve_shed_total",
        "Connections refused with 503 by the governor.",
        r.shed as f64,
    );
    enc.counter(
        "langcrux_serve_timeouts_total",
        "Connections closed with 408 by the request deadline.",
        r.timeouts as f64,
    );
    enc.counter(
        "langcrux_serve_panics_total",
        "Requests whose handling panicked (answered 500, or their batch stream cut).",
        r.panics as f64,
    );
    let c = &stats.cache;
    enc.counter(
        "langcrux_serve_cache_hits_total",
        "Response-cache lookups served from cache.",
        c.hits as f64,
    );
    enc.counter(
        "langcrux_serve_cache_misses_total",
        "Response-cache lookups that computed an audit.",
        c.misses as f64,
    );
    enc.counter(
        "langcrux_serve_cache_evictions_total",
        "Response-cache LRU evictions.",
        c.evictions as f64,
    );
    enc.gauge(
        "langcrux_serve_cache_entries",
        "Responses resident in the cache.",
        c.entries as f64,
    );
    let l = &stats.latency;
    // The overflow bucket is folded into the mandatory +Inf line.
    let mut buckets: Vec<(String, u64)> = l
        .buckets
        .iter()
        .filter(|b| b.upper_us != u64::MAX)
        .map(|b| (b.upper_us.to_string(), b.cumulative))
        .collect();
    buckets.push(("+Inf".to_string(), l.count));
    enc.histogram(
        "langcrux_serve_request_latency_microseconds",
        "Request latency histogram (native cumulative buckets; empty buckets elided, \
         le bounds in microseconds).",
        &buckets,
        l.total_us as f64,
        l.count,
    );
    enc.gauge(
        "langcrux_serve_peak_batch_buffer_bytes",
        "Peak bytes parked in a streaming-batch reorder window.",
        stats.peak_batch_buffer as f64,
    );
}

/// A routed request: either a complete response, or a batch whose
/// response the connection loop streams as chunked encoding while the
/// work-stealing pool completes elements.
#[derive(Debug)]
pub enum Routed {
    Response(Response),
    /// `POST /v1/batch` with a validated page list.
    BatchStream {
        pages: Vec<String>,
        keep_alive: bool,
    },
}

/// Route one parsed request. Pure in `(state, request)` modulo telemetry,
/// which is what lets the router be unit-tested without sockets.
pub fn route(state: &ServeState, request: &Request) -> Routed {
    let keep = request.keep_alive();
    let relaxed = Ordering::Relaxed;
    let full = Routed::Response;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/audit") => {
            let Ok(html) = std::str::from_utf8(&request.body) else {
                state.counters.errors.fetch_add(1, relaxed);
                return full(Response::error(400, "body is not valid utf-8", keep));
            };
            let (bytes, _hit) = state
                .cache
                .get_or_compute(&request.body, || state.service.audit_json(html));
            state.counters.audit.fetch_add(1, relaxed);
            // The Arc goes straight into the response body: a cache hit
            // never copies the cached JSON.
            full(Response::json(200, bytes, keep))
        }
        ("POST", "/v1/batch") => {
            // Bound one batch's work by bounding its bytes (see
            // [`ServeConfig::max_batch_bytes`]).
            if request.body.len() > state.max_batch_bytes {
                state.counters.errors.fetch_add(1, relaxed);
                return full(Response::error(
                    413,
                    "batch body exceeds max_batch_bytes",
                    keep,
                ));
            }
            let Ok(body) = std::str::from_utf8(&request.body) else {
                state.counters.errors.fetch_add(1, relaxed);
                return full(Response::error(400, "body is not valid utf-8", keep));
            };
            match serde_json::from_str::<Vec<String>>(body) {
                Ok(pages) => Routed::BatchStream {
                    pages,
                    keep_alive: keep,
                },
                Err(_) => {
                    state.counters.errors.fetch_add(1, relaxed);
                    full(Response::error(
                        400,
                        "body must be a JSON array of HTML strings",
                        keep,
                    ))
                }
            }
        }
        ("GET", "/v1/healthz") => {
            state.counters.healthz.fetch_add(1, relaxed);
            full(Response::json(200, state.healthz_body(), keep))
        }
        ("GET", "/v1/stats") => {
            state.counters.stats.fetch_add(1, relaxed);
            let body = serde_json::to_string(&state.stats())
                .expect("stats serialize")
                .into_bytes();
            full(Response::json(200, body, keep))
        }
        ("GET", "/v1/metrics") => {
            state.counters.stats.fetch_add(1, relaxed);
            let stats = state.stats();
            let body = state.encode_metrics(&stats).prometheus_text().into_bytes();
            full(Response::prometheus(200, body, keep))
        }
        ("POST", path) if path.starts_with("/v1/rpc/") => {
            // Embedder RPC (e.g. distributed-build work units). The same
            // byte cap as /v1/batch applies: an RPC body is executed
            // run-to-completion on its connection's thread.
            if request.body.len() > state.max_batch_bytes {
                state.counters.errors.fetch_add(1, relaxed);
                return full(Response::error(
                    413,
                    "rpc body exceeds max_batch_bytes",
                    keep,
                ));
            }
            let name = &path["/v1/rpc/".len()..];
            match state
                .rpc
                .as_ref()
                .and_then(|hook| (hook.0)(name, &request.body))
            {
                Some((status, body)) if status < 400 => {
                    state.counters.rpc.fetch_add(1, relaxed);
                    full(Response::json(status, body, keep))
                }
                Some((status, body)) => {
                    state.counters.errors.fetch_add(1, relaxed);
                    full(Response::json(status, body, keep))
                }
                None => {
                    state.counters.errors.fetch_add(1, relaxed);
                    full(Response::error(404, "no such rpc", keep))
                }
            }
        }
        (_, "/v1/audit" | "/v1/batch" | "/v1/healthz" | "/v1/stats" | "/v1/metrics") => {
            state.counters.errors.fetch_add(1, relaxed);
            full(Response::error(405, "method not allowed", keep))
        }
        (_, path) if path.starts_with("/v1/rpc/") => {
            state.counters.errors.fetch_add(1, relaxed);
            full(Response::error(405, "method not allowed", keep))
        }
        _ => {
            state.counters.errors.fetch_add(1, relaxed);
            full(Response::error(404, "no such endpoint", keep))
        }
    }
}

/// Stream one batch response: chunked encoding, elements written in
/// order as the work-stealing pool completes them, at most a bounded
/// reorder window of elements in memory. De-chunked, the body is the
/// pages' single-audit bytes spliced in order into one JSON array.
fn stream_batch(
    stream: &mut TcpStream,
    state: &ServeState,
    config: &ServeConfig,
    pages: &[String],
    keep_alive: bool,
    write_buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    let threads = state.batch_threads();
    let window = if config.batch_window == 0 {
        (threads * 2).max(2)
    } else {
        config.batch_window
    };
    let fanout = StreamFanout::new(pages.len(), window);
    let mut io_result = Ok(());
    std::thread::scope(|scope| {
        let fan = &fanout;
        // Poisons the fan-out if a unit closure unwinds before
        // completing — otherwise the writer would wait forever for an
        // element that will never arrive, pinning a governor slot.
        struct PoisonOnUnwind<'a>(&'a StreamFanout, bool);
        impl Drop for PoisonOnUnwind<'_> {
            fn drop(&mut self) {
                if !self.1 {
                    self.0.poison();
                }
            }
        }
        // The pool occupies its own thread; this connection thread is
        // the writer, so elements leave memory as fast as the socket
        // accepts them.
        let pool = scope.spawn(move || {
            run_work_stealing(threads, pages, |i, page| {
                fan.admit(i);
                let mut guard = PoisonOnUnwind(fan, false);
                let (bytes, _hit) = state
                    .cache
                    .get_or_compute(page.as_bytes(), || state.service.audit_json(page));
                fan.complete(i, bytes);
                guard.1 = true;
            });
        });
        io_result = (|| {
            http::write_chunked_head(write_buf, 200, "application/json", keep_alive);
            for i in 0..pages.len() {
                let Some(element) = fanout.next() else {
                    // Poisoned: a worker died mid-batch. The response is
                    // already truncated mid-stream; fail the connection.
                    return Err(std::io::Error::other("batch audit worker panicked"));
                };
                let punctuation: &[u8] = if i == 0 { b"[" } else { b"," };
                http::write_chunk(write_buf, punctuation);
                http::write_chunk(write_buf, &element);
                stream.write_all(write_buf)?;
                write_buf.clear();
            }
            let closing: &[u8] = if pages.is_empty() { b"[]" } else { b"]" };
            http::write_chunk(write_buf, closing);
            http::write_last_chunk(write_buf);
            stream.write_all(write_buf)
        })();
        if io_result.is_err() {
            // Client went away mid-stream (or a worker died): release
            // parked workers and let the pool drain without a consumer.
            fanout.abandon();
        }
        // Join the pool explicitly to consume a propagated unit panic —
        // an unjoined panicked scope thread would re-panic this
        // connection thread at scope exit and leak its governor slot.
        if pool.join().is_err() {
            state.counters.panics.fetch_add(1, Ordering::Relaxed);
        }
    });
    state.peak_batch_buffer.observe(fanout.peak_bytes());
    if io_result.is_ok() {
        state.counters.batch.fetch_add(1, Ordering::Relaxed);
        state
            .counters
            .batch_pages
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
    }
    io_result
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process inspection (tests, the bench).
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// Stop accepting, drain connection threads, and join. Returns the
    /// final stats snapshot — "clean shutdown" means every worker joined.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        self.state.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort stop if the caller never called shutdown().
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Start the server. Returns once the listener is bound, with the
/// accept loop running on a background thread; [`ServerHandle::shutdown`]
/// stops it with a flag and a self-connect, then joins it.
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServeState::new(&config));
    let shutdown = Arc::new(AtomicBool::new(false));

    let accept = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, state, shutdown, config))
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr,
        state,
        shutdown,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    config: ServeConfig,
) {
    // Connection threads are joined before the accept thread exits, so
    // ServerHandle::shutdown() returning means the server is fully quiet.
    // Only this thread touches the handles, so a plain Vec suffices.
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let shed_threads: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
    let governor: Arc<Governor<TcpStream>> =
        Arc::new(Governor::new(config.max_connections, config.accept_queue));
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        match governor.admit(stream) {
            Admission::Serve(stream) => {
                let state = Arc::clone(&state);
                let shutdown_flag = Arc::clone(&shutdown);
                let governor = Arc::clone(&governor);
                let config = config.clone();
                let handle = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let mut stream = stream;
                        loop {
                            let _ = handle_connection(stream, &state, &shutdown_flag, &config);
                            // Done with this connection: serve a queued
                            // waiter on the same slot, unless draining —
                            // shutdown refuses queued work.
                            let draining = shutdown_flag.load(Ordering::SeqCst);
                            match governor.finish(!draining) {
                                Some(next) => stream = next,
                                None => break,
                            }
                        }
                    })
                    .expect("spawn connection thread");
                workers.push(handle);
                // Opportunistically reap finished workers so a
                // long-lived server does not accumulate handles.
                workers.retain(|h| !h.is_finished());
            }
            Admission::Queued => {
                // Parked inside the governor: a finishing handler thread
                // picks it up. Slot turnover is bounded by the
                // idle/request/write deadlines on every live connection.
            }
            Admission::Shed(stream) => {
                shed_connection(stream, &state, &shed_threads);
            }
        }
    }
    // Queued-but-never-served connections are refused at shutdown:
    // dropping the stream closes the socket.
    drop(governor.drain_queue());
    for handle in workers {
        let _ = handle.join();
    }
}

/// Most concurrent detached threads answering shed connections. Beyond
/// this (a shed storm of non-reading clients), the stream is dropped
/// without the 503 nicety — the connection still closes immediately.
const MAX_SHED_THREADS: usize = 64;

/// Refuse one connection with `503 + Retry-After`. The write (up to the
/// 250 ms write timeout against a non-reading client) and the RST-
/// avoiding read-drain happen on a short-lived detached thread, so a
/// shed — however slow the client — never blocks the accept loop: the
/// governor's refusal stays O(1) per arrival.
fn shed_connection(stream: TcpStream, state: &ServeState, shed_threads: &Arc<AtomicUsize>) {
    state.counters.shed.fetch_add(1, Ordering::Relaxed);
    if shed_threads.fetch_add(1, Ordering::SeqCst) >= MAX_SHED_THREADS {
        shed_threads.fetch_sub(1, Ordering::SeqCst);
        return; // storm: drop without ceremony, closing the socket
    }
    let counter = Arc::clone(shed_threads);
    let spawned = std::thread::Builder::new()
        .name("serve-shed".to_string())
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            if stream
                .write_all(&http::shed_response_bytes(RETRY_AFTER_SECS))
                .is_ok()
            {
                // Half-close and briefly drain the client's request
                // bytes: closing with unread data in the receive buffer
                // makes the kernel RST the connection, which can destroy
                // the 503 before the client reads it.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                let deadline = Instant::now() + Duration::from_millis(100);
                let mut sink = [0u8; 1024];
                for _ in 0..8 {
                    if !matches!(stream.read(&mut sink), Ok(n) if n > 0)
                        || Instant::now() > deadline
                    {
                        break;
                    }
                }
            }
            counter.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shed_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Keep-alive loop for one connection.
fn handle_connection(
    mut stream: TcpStream,
    state: &ServeState,
    shutdown: &AtomicBool,
    config: &ServeConfig,
) -> std::io::Result<()> {
    // Short read timeout so the loop can observe shutdown and enforce
    // the idle/request deadlines without a dedicated wakeup channel; the
    // write timeout stops a non-reading client from pinning the thread.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream.set_nodelay(true)?;
    let mut parser = RequestParser::new(config.limits);
    let mut read_buf = [0u8; 16 * 1024];
    // One write buffer reused for every response on this connection.
    let mut write_buf: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();
    // Set while a request is partially buffered: the slowloris deadline
    // runs from the first byte of a request to its complete parse.
    let mut request_started: Option<Instant> = None;

    loop {
        // Drain every request already buffered (pipelining) before
        // touching the socket again.
        loop {
            match parser.poll() {
                Ok(Some(request)) => {
                    // A request finished parsing: the slowloris deadline
                    // bounds one request's parse, so completing one
                    // re-arms the timer for whatever is buffered next —
                    // without this, a fast client pipelining nonstop
                    // (parser never empty) would be cut off with a
                    // spurious 408 after request_deadline.
                    request_started = None;
                    let started = Instant::now();
                    // AssertUnwindSafe holds because nothing `route` can
                    // leave half-updated survives the unwind in a broken
                    // state: the counters, latency histogram and cache
                    // statistics are atomics; the cache computes outside
                    // its shard locks and, like the metrics registry,
                    // takes over a lock that a panic poisoned; and the
                    // extraction scratch drops whatever a panicking call
                    // took. An RPC hook's own state is the embedder's.
                    let routed = match catch_unwind(AssertUnwindSafe(|| route(state, &request))) {
                        Ok(routed) => routed,
                        Err(_) => {
                            // Answer and close, then return so the
                            // caller releases the slot.
                            state.counters.panics.fetch_add(1, Ordering::Relaxed);
                            let response =
                                Response::error(500, "internal error handling the request", false);
                            response.write_into(&mut write_buf);
                            let _ = stream.write_all(&write_buf);
                            return Ok(());
                        }
                    };
                    let keep = match routed {
                        Routed::Response(response) => {
                            response.write_into(&mut write_buf);
                            stream.write_all(&write_buf)?;
                            response.keep_alive
                        }
                        Routed::BatchStream { pages, keep_alive } => {
                            stream_batch(
                                &mut stream,
                                state,
                                config,
                                &pages,
                                keep_alive,
                                &mut write_buf,
                            )?;
                            write_buf.clear();
                            keep_alive
                        }
                    };
                    state
                        .latency
                        .record_us(started.elapsed().as_micros() as u64);
                    last_activity = Instant::now();
                    if !keep {
                        return Ok(());
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Answer the protocol error and close: the byte
                    // stream is no longer trustworthy.
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    let response = Response::error(e.status(), &e.detail(), false);
                    response.write_into(&mut write_buf);
                    let _ = stream.write_all(&write_buf);
                    return Ok(());
                }
            }
        }

        // Deadline bookkeeping: a partially buffered request keeps its
        // start time; a fully drained parser resets it.
        if parser.mid_request() {
            let started = *request_started.get_or_insert_with(Instant::now);
            if started.elapsed() > config.request_deadline {
                // Slowloris: bytes dribble in fast enough to dodge the
                // idle timeout but the request never completes. Answer
                // 408 and free the slot.
                state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                let response = Response::error(408, "request did not complete in time", false);
                response.write_into(&mut write_buf);
                let _ = stream.write_all(&write_buf);
                return Ok(());
            }
        } else {
            request_started = None;
        }

        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match stream.read(&mut read_buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                parser.feed(&read_buf[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() > config.idle_timeout {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Body;

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    fn test_state() -> ServeState {
        ServeState::new(&ServeConfig {
            batch_threads: 2,
            ..ServeConfig::default()
        })
    }

    /// Unwrap the complete-response arm (everything but a valid batch).
    fn full(routed: Routed) -> Response {
        match routed {
            Routed::Response(response) => response,
            Routed::BatchStream { .. } => panic!("expected a complete response"),
        }
    }

    const PAGE: &str = "<html lang=th><head><title>ข่าว</title></head><body>\
        <p>ข่าววันนี้ของประเทศไทยทั้งหมด</p><img src=a alt=\"market stalls\"></body></html>";

    #[test]
    fn oversized_batch_body_answers_413_before_parsing() {
        let state = ServeState::new(&ServeConfig {
            batch_threads: 2,
            max_batch_bytes: 64,
            ..ServeConfig::default()
        });
        let big = vec![b'x'; 65];
        let resp = full(route(&state, &request("POST", "/v1/batch", &big)));
        assert_eq!(resp.status, 413);
        // At the cap is still admitted (and then rejected as bad JSON,
        // proving the guard ran first and the parser second).
        let at_cap = vec![b'x'; 64];
        let resp = full(route(&state, &request("POST", "/v1/batch", &at_cap)));
        assert_eq!(resp.status, 400);
        assert_eq!(state.counters.errors.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn rpc_routes_through_the_hook_with_the_batch_byte_cap() {
        let hook = RpcHook(Arc::new(|name: &str, body: &[u8]| match name {
            "echo" => Some((200, body.to_vec())),
            "teapot" => Some((418, b"{}".to_vec())),
            _ => None,
        }));
        let state = ServeState::new(&ServeConfig {
            batch_threads: 2,
            max_batch_bytes: 64,
            rpc: Some(hook),
            ..ServeConfig::default()
        });
        let ok = full(route(&state, &request("POST", "/v1/rpc/echo", b"[1,2]")));
        assert_eq!(ok.status, 200);
        match &ok.body {
            Body::Owned(b) => assert_eq!(b, b"[1,2]"),
            Body::Shared(b) => assert_eq!(b.as_slice(), b"[1,2]"),
        }
        assert_eq!(state.counters.rpc.load(Ordering::Relaxed), 1);
        // Hook-reported errors count as errors, not rpc successes.
        let err = full(route(&state, &request("POST", "/v1/rpc/teapot", b"")));
        assert_eq!(err.status, 418);
        // Unknown RPC name → 404; wrong method → 405; oversized → 413.
        let missing = full(route(&state, &request("POST", "/v1/rpc/nope", b"")));
        assert_eq!(missing.status, 404);
        let verb = full(route(&state, &request("GET", "/v1/rpc/echo", b"")));
        assert_eq!(verb.status, 405);
        let big = vec![b'x'; 65];
        let capped = full(route(&state, &request("POST", "/v1/rpc/echo", &big)));
        assert_eq!(capped.status, 413);
        assert_eq!(state.counters.rpc.load(Ordering::Relaxed), 1);
        assert_eq!(state.counters.errors.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn rpc_without_a_hook_is_404() {
        let state = test_state();
        let resp = full(route(&state, &request("POST", "/v1/rpc/unit", b"{}")));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn audit_route_answers_cached_bytes() {
        let state = test_state();
        let first = full(route(
            &state,
            &request("POST", "/v1/audit", PAGE.as_bytes()),
        ));
        assert_eq!(first.status, 200);
        let second = full(route(
            &state,
            &request("POST", "/v1/audit", PAGE.as_bytes()),
        ));
        assert_eq!(first.body, second.body, "cache hit must be byte-identical");
        match (&first.body, &second.body) {
            (Body::Shared(a), Body::Shared(b)) => {
                assert!(
                    Arc::ptr_eq(a, b),
                    "cache hit must reuse the cached allocation"
                );
            }
            _ => panic!("audit responses must carry shared cache bytes"),
        }
        assert_eq!(state.cache.hits(), 1);
        assert_eq!(state.cache.misses(), 1);
        assert_eq!(state.counters.snapshot().audit, 2);
    }

    #[test]
    fn batch_route_parses_pages_into_the_streaming_arm() {
        let state = test_state();
        let batch_body = serde_json::to_string(&vec![PAGE.to_string(), PAGE.to_string()]).unwrap();
        let routed = route(&state, &request("POST", "/v1/batch", batch_body.as_bytes()));
        let Routed::BatchStream { pages, keep_alive } = routed else {
            panic!("valid batch must route to the streaming arm");
        };
        assert!(keep_alive);
        assert_eq!(pages, vec![PAGE.to_string(), PAGE.to_string()]);
        // What the streaming arm writes for these pages is pinned in
        // tests/batch_stream.rs.
    }

    #[test]
    fn batch_rejects_non_array_body() {
        let state = test_state();
        let resp = full(route(
            &state,
            &request("POST", "/v1/batch", b"{\"nope\":1}"),
        ));
        assert_eq!(resp.status, 400);
        assert_eq!(state.counters.snapshot().errors, 1);
    }

    #[test]
    fn audit_rejects_invalid_utf8() {
        let state = test_state();
        let resp = full(route(
            &state,
            &request("POST", "/v1/audit", &[0xff, 0xfe, 0x80]),
        ));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn healthz_and_stats_routes() {
        let state = test_state();
        let health = full(route(&state, &request("GET", "/v1/healthz", b"")));
        assert_eq!(health.status, 200);
        let health_text = String::from_utf8(health.body.to_vec()).unwrap();
        assert!(health_text.starts_with("{\"status\":\"ok\""));
        assert!(health_text.contains("\"service\":\"langcrux-serve\""));
        assert!(health_text.contains("\"version\":\"0.1.0\""));
        assert!(health_text.contains("\"git_sha\":\""));
        assert!(health_text.contains("\"uptime_seconds\":"));
        assert!(health_text.contains("\"features\":[\"span-tracing\""));
        let stats = full(route(&state, &request("GET", "/v1/stats", b"")));
        assert_eq!(stats.status, 200);
        let text = String::from_utf8(stats.body.to_vec()).unwrap();
        assert!(text.contains("\"requests\""));
        assert!(text.contains("\"hit_rate\""));
        assert!(text.contains("\"p99_us\""));
        assert!(text.contains("\"shed\""));
        assert!(text.contains("\"peak_batch_buffer\""));
        // The typed document only: the exposition is `/v1/metrics`'s.
        assert!(!text.contains("langcrux_serve_"), "{text}");
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let state = test_state();
        // Generate some traffic so counters are non-zero.
        let _ = route(&state, &request("POST", "/v1/audit", PAGE.as_bytes()));
        let _ = route(&state, &request("POST", "/v1/audit", PAGE.as_bytes()));
        let resp = full(route(&state, &request("GET", "/v1/metrics", b"")));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(text.contains("# TYPE langcrux_serve_requests_total counter"));
        assert!(text.contains("langcrux_serve_requests_total{endpoint=\"audit\"} 2"));
        assert!(text.contains("langcrux_serve_cache_hits_total 1"));
        assert!(text.contains("langcrux_serve_cache_misses_total 1"));
        assert!(text.contains("# TYPE langcrux_serve_request_latency_microseconds histogram"));
        assert!(text.contains("langcrux_serve_peak_batch_buffer_bytes 0"));
        // Every line is exposition-format: comment, or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line.split_once(' ').is_some_and(
                        |(name, value)| !name.is_empty() && value.parse::<f64>().is_ok()
                    ),
                "malformed exposition line: {line:?}"
            );
        }
    }

    /// Collectors registered in `ServeState::extra` surface in the
    /// exposition — this is how the repro daemon exports pipeline gauges
    /// after a build.
    #[test]
    fn extra_registry_collectors_appear_in_the_exposition() {
        let state = test_state();
        state.extra.register(|enc| {
            enc.counter(
                "langcrux_crawl_retries_total",
                "Retries beyond each visit's first attempt.",
                7.0,
            )
        });
        let resp = full(route(&state, &request("GET", "/v1/metrics", b"")));
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(text.contains("langcrux_crawl_retries_total 7\n"));
        assert!(text.contains("langcrux_build_info{service=\"langcrux-serve\""));
    }

    #[test]
    fn latency_exposition_is_a_native_histogram() {
        let state = test_state();
        // route() skips the connection layer, which is where latency is
        // recorded — feed the histogram directly with a spread of
        // observations (fast mass, two mid buckets, one overflow).
        for us in [30, 30, 30, 40, 2_500, 2_600, 45_000, 8_000_000] {
            state.latency.record_us(us);
        }
        let resp = full(route(&state, &request("GET", "/v1/metrics", b"")));
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        // No summary-quantile series survives; the native series replaces it.
        assert!(!text.contains("quantile=\""), "summary leaked: {text}");
        // Parse the _bucket series back out of the exposition.
        let prefix = "langcrux_serve_request_latency_microseconds_bucket{le=\"";
        let buckets: Vec<(String, u64)> = text
            .lines()
            .filter_map(|line| line.strip_prefix(prefix))
            .map(|rest| {
                let (le, value) = rest.split_once("\"} ").expect("bucket line shape");
                (le.to_string(), value.parse().expect("bucket count"))
            })
            .collect();
        assert!(buckets.len() >= 2, "need data + +Inf: {buckets:?}");
        // Cumulative counts are monotone non-decreasing down the series,
        // finite le bounds are strictly increasing, and the mandatory
        // +Inf bucket closes the series at exactly _count.
        let mut prev_le = 0u64;
        let mut prev_cum = 0u64;
        for (le, cum) in &buckets[..buckets.len() - 1] {
            let le: u64 = le.parse().expect("finite le");
            assert!(le > prev_le, "le not increasing: {buckets:?}");
            assert!(*cum >= prev_cum, "cumulative dipped: {buckets:?}");
            prev_le = le;
            prev_cum = *cum;
        }
        let (inf_le, inf_cum) = buckets.last().unwrap();
        assert_eq!(inf_le, "+Inf");
        assert!(*inf_cum >= prev_cum);
        let count_line = format!("langcrux_serve_request_latency_microseconds_count {inf_cum}");
        assert!(text.contains(&count_line), "count != +Inf: {text}");
        // _sum is present (exact total, not mean×count).
        assert!(text.contains("langcrux_serve_request_latency_microseconds_sum "));
    }

    #[test]
    fn unknown_path_is_404_wrong_method_is_405() {
        let state = test_state();
        assert_eq!(
            full(route(&state, &request("GET", "/nope", b""))).status,
            404
        );
        assert_eq!(
            full(route(&state, &request("GET", "/v1/audit", b""))).status,
            405
        );
        assert_eq!(
            full(route(&state, &request("POST", "/v1/healthz", b""))).status,
            405
        );
        assert_eq!(state.counters.snapshot().errors, 3);
    }
}
