//! # langcrux-serve
//!
//! Audit-as-a-service: the paper's offline page-analysis pipeline
//! (Bhuiyan et al., IMC 2025) exposed as an HTTP service, the deployment
//! shape the ROADMAP's production north star asks for — site operators
//! POST a page and get back the language-composition, lang-attribute,
//! audit-rule, and screen-reader verdicts the paper computes offline.
//!
//! The crate is std-only (`std::net::TcpListener`; the build environment
//! has no crates.io access, so no hyper/tokio):
//!
//! * [`http`] — incremental HTTP/1.1 request parser (chunking-agnostic,
//!   `Content-Length` *and* `Transfer-Encoding: chunked` request bodies,
//!   typed protocol errors → 400/413/431/501) and response writer,
//!   including chunked-response helpers for streaming bodies.
//! * [`governor`] — bounded admission: hard connection cap, bounded
//!   pending queue, `503 + Retry-After` shedding beyond both.
//! * [`cache`] — sharded, content-hash-keyed LRU response cache
//!   (word-at-a-time key hash, per-shard mutexes, exact-LRU eviction).
//! * [`service`] — the audit engine façade: HTML in, deterministic
//!   [`AuditResponse`] JSON out (fused extraction, `audit::rules`,
//!   Kizuki rescoring via the carried histogram, speak-order pass).
//! * [`server`] — one thread per admitted connection, with a panic
//!   while routing contained to its request (`500`, counted in
//!   `langcrux_serve_panics_total`), and the routing behind it:
//!   `POST /v1/audit`, `POST /v1/batch` (streamed as chunked encoding
//!   while the work-stealing pool completes units), `GET /v1/healthz`,
//!   `GET /v1/stats` (the typed JSON counters), `GET /v1/metrics` (the
//!   Prometheus text exposition, with any collectors the embedding
//!   process registered).
//! * [`batch`] — the bounded reorder window between pool workers and the
//!   streaming batch writer (`peak_batch_buffer` gauge).
//! * [`stats`] — request counters (incl. shed/timeout/panic) and a
//!   lock-free latency histogram (p50/p99) behind `GET /v1/stats`.
//! * [`loadgen`] — the blocking client (`get`, `post`, `read_response`)
//!   the distributed build's executor, the tests and the example use;
//!   its response reader understands both framings.
//!
//! ## Quickstart
//!
//! ```no_run
//! use langcrux_serve::{spawn, ServeConfig};
//!
//! let server = spawn(ServeConfig::default()).expect("bind loopback");
//! println!("auditing on http://{}", server.addr());
//! // POST HTML to /v1/audit, then:
//! server.shutdown();
//! ```

pub mod batch;
pub mod cache;
pub mod governor;
pub mod http;
pub mod loadgen;
pub mod pidfile;
pub mod server;
pub mod service;
pub mod stats;

pub use batch::{PeakGauge, StreamFanout};
pub use cache::{CacheKey, CacheSnapshot, ShardedCache};
pub use governor::{Admission, Governor};
pub use http::{Limits, ParseError, Request, RequestParser, Response};
pub use pidfile::{claim as claim_pidfile, examine as examine_pidfile, PidFileDoc, PidFileStatus};
pub use server::{
    encode_stats, route, spawn, Routed, RpcHook, ServeConfig, ServeState, ServerHandle,
    StatsSnapshot,
};
pub use service::{AuditResponse, AuditService, ScriptSlice};
pub use stats::{
    LatencyBucket, LatencyHistogram, LatencySnapshot, RequestCounters, RequestSnapshot,
};
