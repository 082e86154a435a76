//! langcrux-obs: the unified observability layer.
//!
//! Three pieces, threaded through the whole workspace:
//!
//! - [`trace`] — deterministic span tracing: RAII guards around every
//!   pipeline stage record into lock-free per-worker rings, merged into
//!   a [`trace::TraceReport`] at session end. A session is carried by
//!   the thread that opened it and by the threads its work runs on;
//!   zero-cost elsewhere (one thread-local read per call site).
//! - [`chrome`] — renders a report as Chrome `traceEvents` JSON for
//!   `chrome://tracing` / Perfetto (`repro --trace-out`).
//! - [`registry`] — the single metrics registry: every subsystem encodes
//!   its telemetry into one [`registry::Encoder`] pass, from which both
//!   the Prometheus exposition (`/v1/metrics`, `repro --metrics-out`)
//!   and the JSON view (`/v1/stats`) are rendered — no drift by
//!   construction.
//!
//! The determinism contract (span structure byte-identical across worker
//! counts, dataset bytes untouched by tracing) is documented in
//! [`trace`] and pinned by `tests/trace_export.rs` and
//! `docs/observability.md`.

pub mod chrome;
pub mod registry;
pub mod trace;

pub use registry::{Encoder, Registry};
pub use trace::{Span, TraceConfig, TraceReport, TraceSession};
