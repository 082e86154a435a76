//! Deterministic span tracing for the langcrux pipeline.
//!
//! A *trace session* belongs to the work that opened it. [`start`]
//! installs a new session on the calling thread, and only threads that
//! carry a session record spans: an untraced build running at the same
//! time on other threads never lands in it. Work handed to other threads
//! takes the session along — [`current`] captures the context this
//! thread carries and [`TraceContext::enter`] installs it on another
//! thread for a scope. The crawl pool (`run_work_stealing_with`) and the
//! distributed build's dispatcher threads do this for every thread they
//! spawn; a raw `std::thread::spawn` carries nothing.
//!
//! Each thread that records under a session lazily registers a
//! fixed-capacity, single-producer span buffer ("worker ring") and
//! appends completed spans to it with no locks on the hot path.
//! [`TraceSession::finish`] merges the rings into a [`TraceReport`].
//!
//! # Zero cost when disabled
//!
//! [`span`], [`virtual_wait`], [`task_fence`] and [`enabled`] begin with
//! one thread-local load — does this thread carry a session? — and
//! return an inert guard when it does not: no allocation, no time reads,
//! no shared memory touched.
//!
//! # Determinism contract
//!
//! Wall-clock fields (`start_us`, `dur_us`) vary run to run, and which
//! worker recorded a span depends on work-stealing. Everything else is
//! deterministic: span *names*, *keys*, *counts*, fence-relative
//! *depths*, and *virtual-clock durations* are pure functions of
//! `(seed, fault plan, scale)` — the canonical view is
//! [`TraceReport::structure_digest`], which is byte-identical across
//! worker counts and repeat runs (tested in `tests/trace_export.rs`).
//! The one exception: `corpus.shard_build` span counts are deterministic
//! only with an unbounded shard cache (`resident_shards: 0`); under an
//! LRU cap, rebuild counts depend on eviction interleaving.
//!
//! Each work-stealing task runs under a [`task_fence`], which makes span
//! depth relative to the task rather than the thread. Without it, a
//! single-threaded run (pool tasks inlined on the caller thread under an
//! open orchestration span) would record different depths than a
//! multi-threaded one.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. `name`/`key`/`depth`/`virtual_ms` are
/// deterministic; `start_us`/`dur_us` are wall-clock (µs since the
/// session started).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static stage name, e.g. `"crawl.fetch"`.
    pub name: &'static str,
    /// Deterministic discriminator within a stage (host hash, wave
    /// ordinal, country index, …).
    pub key: u64,
    /// Nesting depth relative to the enclosing [`task_fence`].
    pub depth: u32,
    /// Wall-clock start, µs since the session epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub dur_us: u64,
    /// Virtual-clock milliseconds attributed to the span (crawl backoff
    /// and breaker waits tick a simulated clock, not the wall).
    pub virtual_ms: u64,
}

impl SpanRecord {
    const EMPTY: SpanRecord = SpanRecord {
        name: "",
        key: 0,
        depth: 0,
        start_us: 0,
        dur_us: 0,
        virtual_ms: 0,
    };
}

/// Trace session parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Span slots per worker ring. When a ring fills, further spans on
    /// that worker are counted in `dropped_spans` instead of recorded —
    /// never silently lost.
    pub capacity_per_worker: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 64 Ki spans ≈ 3 MiB per worker: comfortably holds a Default
        // scale build; Full scale overflows by design (and reports it).
        TraceConfig {
            capacity_per_worker: 64 * 1024,
        }
    }
}

/// Single-producer span buffer. The producer is the one thread whose
/// context holds the ring (see [`Carried`]); it writes a slot then
/// publishes it with a `Release` store of `len`. The merging reader
/// loads `len` with `Acquire` and reads only below it, so a straggling
/// producer can never race the reader onto the same slot.
struct WorkerRing {
    worker: u32,
    slots: Box<[UnsafeCell<SpanRecord>]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots below `len` are immutable once published (Release store
// by the unique producer, Acquire load by readers); slots at or above
// `len` are touched only by the producer thread — a ring is reachable
// for writing only through a `Carried`, which lives in one thread's
// context or in that thread's `!Send` `ContextGuard`. `len` and
// `dropped` are atomics; `worker` is immutable.
unsafe impl Sync for WorkerRing {}
unsafe impl Send for WorkerRing {}

impl WorkerRing {
    fn new(worker: u32, capacity: usize) -> WorkerRing {
        WorkerRing {
            worker,
            slots: (0..capacity.max(1))
                .map(|_| UnsafeCell::new(SpanRecord::EMPTY))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer-side append; counts (never silently drops) overflow.
    fn push(&self, record: SpanRecord) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: single producer; slot `i` is unpublished.
        unsafe { *self.slots[i].get() = record };
        self.len.store(i + 1, Ordering::Release);
    }

    /// Reader-side snapshot of all published spans.
    fn drain(&self) -> Vec<SpanRecord> {
        let n = self.len.load(Ordering::Acquire);
        // SAFETY: slots below `n` are published and immutable.
        (0..n).map(|i| unsafe { *self.slots[i].get() }).collect()
    }
}

/// The shared half of a session: its clock, its configuration and the
/// rings its threads registered, in registration order.
struct Session {
    config: TraceConfig,
    start: Instant,
    rings: Mutex<Vec<Arc<WorkerRing>>>,
}

impl Session {
    fn register_ring(&self) -> Arc<WorkerRing> {
        // A push leaves the list valid at every step, so a poisoned lock
        // is safe to recover.
        let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(WorkerRing::new(
            rings.len() as u32,
            self.config.capacity_per_worker,
        ));
        rings.push(Arc::clone(&ring));
        ring
    }
}

/// A thread's share of the session it carries: its ring (registered on
/// its first span) and its depth bookkeeping.
struct Carried {
    session: Arc<Session>,
    ring: Option<Arc<WorkerRing>>,
    depth: u32,
    base: u32,
}

impl Carried {
    /// Identity of the carried session; guards compare it so a span or
    /// fence never closes into a session other than the one it opened in.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.session) as usize
    }

    fn ring(&mut self) -> &WorkerRing {
        let session = &self.session;
        self.ring.get_or_insert_with(|| session.register_ring())
    }
}

thread_local! {
    /// The session this thread carries, if any.
    static CONTEXT: RefCell<Option<Carried>> = const { RefCell::new(None) };
    /// Whether `CONTEXT` holds a session: the one read the disabled path
    /// makes (a plain load, with no destructor state or borrow flag).
    static CARRYING: Cell<bool> = const { Cell::new(false) };
}

/// Make `carried` this thread's context and return the one it replaces.
/// The only writer of `CONTEXT` and `CARRYING`, which keeps them equal.
fn install(carried: Option<Carried>) -> Option<Carried> {
    // Untraced to untraced: an untraced pool worker never touches `CONTEXT`.
    if carried.is_none() && !enabled() {
        return None;
    }
    CARRYING.with(|on| on.set(carried.is_some()));
    CONTEXT.try_with(|c| c.replace(carried)).ok().flatten()
}

/// Run `f` on this thread's share of the session it carries; `None` when
/// it carries none (or its thread-locals are already torn down).
fn with_carried<R>(f: impl FnOnce(&mut Carried) -> R) -> Option<R> {
    CONTEXT
        .try_with(|c| c.borrow_mut().as_mut().map(f))
        .ok()
        .flatten()
}

/// Does this thread carry a trace session? (The same thread-local read
/// the span fast path makes.)
#[inline]
pub fn enabled() -> bool {
    CARRYING.with(Cell::get)
}

/// Start a trace session and install it on the calling thread, saving
/// whatever context the thread carried before. Never blocks: sessions on
/// different threads are independent, and sessions on one thread nest —
/// finishing (or dropping) the inner one restores the outer.
///
/// Spans are recorded only on this thread and on threads that enter its
/// context (see [`current`]).
pub fn start(config: TraceConfig) -> TraceSession {
    let session = Arc::new(Session {
        config,
        start: Instant::now(),
        rings: Mutex::new(Vec::new()),
    });
    let guard = TraceContext {
        session: Some(Arc::clone(&session)),
    }
    .enter();
    TraceSession { session, guard }
}

/// Handle to a session opened by [`start`]; finish it to collect the
/// report. It restores the opening thread's previous context, so it
/// stays on that thread (`!Send`).
#[must_use = "finish() collects the report; dropping ends the session empty"]
pub struct TraceSession {
    session: Arc<Session>,
    guard: ContextGuard,
}

impl TraceSession {
    /// End the session and merge every worker ring into a report. The
    /// caller must have joined all traced work first; spans still open
    /// on other threads are not recorded.
    pub fn finish(self) -> TraceReport {
        let TraceSession { session, guard } = self;
        drop(guard);
        let rings = session.rings.lock().unwrap_or_else(|e| e.into_inner());
        let workers: Vec<WorkerTrace> = rings
            .iter()
            .map(|ring| WorkerTrace {
                worker: ring.worker,
                dropped: ring.dropped.load(Ordering::Relaxed),
                spans: ring.drain(),
            })
            .collect();
        TraceReport {
            capacity_per_worker: session.config.capacity_per_worker,
            dropped_spans: workers.iter().map(|w| w.dropped).sum(),
            workers,
        }
    }
}

/// The trace context a thread carries, captured by [`current`] so the
/// threads that do its work can [`enter`](TraceContext::enter) it. Empty
/// when the capturing thread carried no session.
pub struct TraceContext {
    session: Option<Arc<Session>>,
}

/// The context this thread carries, to hand to the threads it spawns.
pub fn current() -> TraceContext {
    if !enabled() {
        return TraceContext { session: None };
    }
    let session = CONTEXT
        .try_with(|c| c.borrow().as_ref().map(|c| Arc::clone(&c.session)))
        .ok()
        .flatten();
    TraceContext { session }
}

impl TraceContext {
    /// Carry this context on the calling thread until the guard drops,
    /// which restores what the thread carried before. The thread gets
    /// its own ring and span stack; entering an empty context makes the
    /// thread untraced for the scope.
    pub fn enter(&self) -> ContextGuard {
        let carried = self.session.clone().map(|session| Carried {
            session,
            ring: None,
            depth: 0,
            base: 0,
        });
        let saved = install(carried);
        ContextGuard {
            saved,
            _not_send: PhantomData,
        }
    }
}

/// Scope of an entered [`TraceContext`]; restores the thread's previous
/// context on drop, so it stays on the thread that entered (`!Send`).
#[must_use = "the context is carried only while the guard lives"]
pub struct ContextGuard {
    saved: Option<Carried>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        install(self.saved.take());
    }
}

/// RAII span guard. Records on drop; inert (a no-op shell) when the
/// thread carries no session.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    data: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    key: u64,
    session: usize,
    depth: u32,
    start: Instant,
    virtual_ms: u64,
}

/// Open a span for `name` with a deterministic `key`. One thread-local
/// read when the thread carries no session.
#[inline]
pub fn span(name: &'static str, key: u64) -> Span {
    if !enabled() {
        return Span { data: None };
    }
    span_slow(name, key)
}

#[cold]
fn span_slow(name: &'static str, key: u64) -> Span {
    let data = with_carried(|c| {
        // Register on open, so ring ordinals follow first-span order.
        c.ring();
        let depth = c.depth - c.base;
        c.depth += 1;
        SpanData {
            name,
            key,
            session: c.id(),
            depth,
            start: Instant::now(),
            virtual_ms: 0,
        }
    });
    Span { data }
}

impl Span {
    /// Attribute virtual-clock milliseconds to this span (replaces).
    #[inline]
    pub fn set_virtual_ms(&mut self, ms: u64) {
        if let Some(d) = self.data.as_mut() {
            d.virtual_ms = ms;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.data.take() else { return };
        with_carried(|c| {
            if c.id() != d.session {
                return;
            }
            c.depth = c.depth.saturating_sub(1);
            let start_us = d.start.duration_since(c.session.start).as_micros() as u64;
            let dur_us = d.start.elapsed().as_micros() as u64;
            c.ring().push(SpanRecord {
                name: d.name,
                key: d.key,
                depth: d.depth,
                start_us,
                dur_us,
                virtual_ms: d.virtual_ms,
            });
        });
    }
}

/// Record an instantaneous virtual-clock wait (backoff sleep, breaker
/// cooldown) as a zero-wall-duration child span of the open span.
#[inline]
pub fn virtual_wait(name: &'static str, key: u64, virtual_ms: u64) {
    if enabled() {
        virtual_wait_slow(name, key, virtual_ms);
    }
}

#[cold]
fn virtual_wait_slow(name: &'static str, key: u64, virtual_ms: u64) {
    with_carried(|c| {
        let record = SpanRecord {
            name,
            key,
            depth: c.depth - c.base,
            start_us: c.session.start.elapsed().as_micros() as u64,
            dur_us: 0,
            virtual_ms,
        };
        c.ring().push(record);
    });
}

/// Depth fence for one work-stealing task: spans opened inside record
/// their depth relative to the fence, so a task inlined on a thread with
/// an open orchestration span nests identically to one on a fresh pool
/// worker. Inert when the thread carries no session.
#[must_use = "the fence restores depth bookkeeping when dropped"]
pub struct TaskFence {
    saved: Option<(usize, u32)>,
}

/// Open a depth fence for the current task.
#[inline]
pub fn task_fence() -> TaskFence {
    if !enabled() {
        return TaskFence { saved: None };
    }
    let saved = with_carried(|c| {
        let saved = (c.id(), c.base);
        c.base = c.depth;
        saved
    });
    TaskFence { saved }
}

impl Drop for TaskFence {
    fn drop(&mut self) {
        let Some((session, base)) = self.saved.take() else {
            return;
        };
        with_carried(|c| {
            if c.id() == session {
                c.base = base;
            }
        });
    }
}

/// FNV-1a hash of a string — the standard deterministic span key for
/// host- or code-keyed stages.
#[inline]
pub fn key_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Spans recorded by one worker ring, in close order.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Ring registration ordinal (Chrome-trace tid is `worker + 1`).
    pub worker: u32,
    /// Spans dropped by this ring after it filled.
    pub dropped: u64,
    /// Published spans, in the order they closed.
    pub spans: Vec<SpanRecord>,
}

/// The merged result of one trace session.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-worker spans, sorted by worker ordinal.
    pub workers: Vec<WorkerTrace>,
    /// Total spans dropped across all rings (overflow accounting —
    /// surfaced in the summary, Chrome export and metrics, never
    /// silent).
    pub dropped_spans: u64,
    /// Ring capacity the session ran with.
    pub capacity_per_worker: usize,
}

/// Per-stage aggregate for the `--trace-summary` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    pub stage: &'static str,
    pub count: u64,
    pub total_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub virtual_ms: u64,
}

impl TraceReport {
    /// Total recorded spans.
    pub fn span_count(&self) -> u64 {
        self.workers.iter().map(|w| w.spans.len() as u64).sum()
    }

    /// Sorted, de-duplicated stage names.
    pub fn stage_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .workers
            .iter()
            .flat_map(|w| w.spans.iter().map(|s| s.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Canonical deterministic view: the multiset of
    /// `(name, key, depth, virtual_ms)` over all spans, rendered as
    /// sorted run-length-encoded lines. Byte-identical across worker
    /// counts and repeat runs with the same seed — wall-clock fields and
    /// worker assignment are deliberately excluded.
    pub fn structure_digest(&self) -> String {
        let mut rows: Vec<(&'static str, u64, u32, u64)> = self
            .workers
            .iter()
            .flat_map(|w| {
                w.spans
                    .iter()
                    .map(|s| (s.name, s.key, s.depth, s.virtual_ms))
            })
            .collect();
        rows.sort_unstable();
        let mut out = String::with_capacity(rows.len() * 24);
        let mut i = 0;
        while i < rows.len() {
            let row = rows[i];
            let mut n = 1usize;
            while i + n < rows.len() && rows[i + n] == row {
                n += 1;
            }
            out.push_str(&format!(
                "{} {:016x} {} {} x{}\n",
                row.0, row.1, row.2, row.3, n
            ));
            i += n;
        }
        out
    }

    /// Per-stage count/total/p50/p99/max aggregates, sorted by total
    /// wall time descending.
    pub fn summary(&self) -> Vec<StageSummary> {
        let mut by_stage: Vec<(&'static str, Vec<u64>, u64)> = Vec::new();
        for w in &self.workers {
            for s in &w.spans {
                match by_stage.iter_mut().find(|(n, _, _)| *n == s.name) {
                    Some((_, durs, vms)) => {
                        durs.push(s.dur_us);
                        *vms += s.virtual_ms;
                    }
                    None => by_stage.push((s.name, vec![s.dur_us], s.virtual_ms)),
                }
            }
        }
        let mut rows: Vec<StageSummary> = by_stage
            .into_iter()
            .map(|(stage, mut durs, virtual_ms)| {
                durs.sort_unstable();
                let count = durs.len() as u64;
                let total_us: u64 = durs.iter().sum();
                let rank = |p: f64| -> u64 {
                    let idx = ((p / 100.0) * durs.len() as f64).ceil() as usize;
                    durs[idx.clamp(1, durs.len()) - 1]
                };
                StageSummary {
                    stage,
                    count,
                    total_us,
                    p50_us: rank(50.0),
                    p99_us: rank(99.0),
                    max_us: *durs.last().unwrap(),
                    virtual_ms,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(b.stage)));
        rows
    }

    /// The `--trace-summary` table as a string (one header, one row per
    /// stage, plus an overflow line when spans were dropped).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>9} {:>12} {:>9} {:>9} {:>9} {:>10}\n",
            "stage", "count", "total_us", "p50_us", "p99_us", "max_us", "virtual_ms"
        ));
        for row in self.summary() {
            out.push_str(&format!(
                "{:<24} {:>9} {:>12} {:>9} {:>9} {:>9} {:>10}\n",
                row.stage,
                row.count,
                row.total_us,
                row.p50_us,
                row.p99_us,
                row.max_us,
                row.virtual_ms
            ));
        }
        out.push_str(&format!(
            "spans: {} across {} workers (capacity {}/worker, dropped {})\n",
            self.span_count(),
            self.workers.len(),
            self.capacity_per_worker,
            self.dropped_spans
        ));
        out
    }

    /// Register the report's aggregates into a metrics [`Encoder`]:
    /// per-stage wall-time/count/virtual-time families plus span and
    /// overflow totals.
    ///
    /// [`Encoder`]: crate::registry::Encoder
    pub fn encode_metrics(&self, enc: &mut crate::registry::Encoder) {
        enc.counter(
            "langcrux_trace_spans_total",
            "Spans recorded by the last trace session.",
            self.span_count() as f64,
        );
        enc.counter(
            "langcrux_trace_dropped_spans_total",
            "Spans dropped on ring overflow (never silent).",
            self.dropped_spans as f64,
        );
        enc.gauge(
            "langcrux_trace_workers",
            "Worker rings registered during the last trace session.",
            self.workers.len() as f64,
        );
        for row in self.summary() {
            let labels = &[("stage", row.stage)];
            enc.counter_with(
                "langcrux_pipeline_stage_spans_total",
                "Spans recorded per pipeline stage.",
                labels,
                row.count as f64,
            );
            enc.counter_with(
                "langcrux_pipeline_stage_wall_microseconds_total",
                "Wall-clock microseconds spent per pipeline stage.",
                labels,
                row.total_us as f64,
            );
            enc.counter_with(
                "langcrux_pipeline_stage_virtual_milliseconds_total",
                "Virtual-clock milliseconds attributed per pipeline stage.",
                labels,
                row.virtual_ms as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        assert!(!enabled());
        let mut s = span("test.stage", 1);
        s.set_virtual_ms(5);
        drop(s);
        virtual_wait("test.wait", 2, 10);
        // Nothing to observe: no session, no panic, no registration.
    }

    #[test]
    fn session_records_nested_spans_with_depth() {
        let session = start(TraceConfig::default());
        {
            let _outer = span("test.outer", 1);
            {
                let mut inner = span("test.inner", 2);
                inner.set_virtual_ms(40);
            }
            virtual_wait("test.wait", 3, 7);
        }
        let report = session.finish();
        assert_eq!(report.span_count(), 3);
        assert_eq!(report.dropped_spans, 0);
        let digest = report.structure_digest();
        assert!(digest.contains("test.outer 0000000000000001 0 0 x1"));
        assert!(digest.contains("test.inner 0000000000000002 1 40 x1"));
        assert!(digest.contains("test.wait 0000000000000003 1 7 x1"));
    }

    #[test]
    fn task_fence_resets_depth_baseline() {
        let session = start(TraceConfig::default());
        {
            let _orchestrator = span("test.orchestrator", 0);
            let _fence = task_fence();
            let _task = span("test.task", 9);
        }
        let report = session.finish();
        // The fenced task records depth 0 despite the open outer span.
        assert!(report
            .structure_digest()
            .contains("test.task 0000000000000009 0 0 x1"));
    }

    #[test]
    fn ring_overflow_is_counted_not_silent() {
        let session = start(TraceConfig {
            capacity_per_worker: 4,
        });
        for i in 0..10 {
            let _s = span("test.flood", i);
        }
        let report = session.finish();
        assert_eq!(report.span_count(), 4);
        assert_eq!(report.dropped_spans, 6);
        assert!(report.summary_table().contains("dropped 6"));
    }

    #[test]
    fn cross_thread_spans_merge_into_one_report() {
        let session = start(TraceConfig::default());
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let ctx = current();
                std::thread::spawn(move || {
                    let _ctx = ctx.enter();
                    let _fence = task_fence();
                    let _s = span("test.thread", i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let _main = span("test.main", 99);
        drop(_main);
        let report = session.finish();
        assert_eq!(report.span_count(), 4);
        assert!(report.workers.len() >= 2);
        assert_eq!(report.stage_names(), vec!["test.main", "test.thread"]);
    }

    #[test]
    fn nested_sessions_restore_the_outer_context() {
        let outer = start(TraceConfig::default());
        {
            let _a = span("test.outer", 1);
            let inner = start(TraceConfig::default());
            let _b = span("test.inner", 2);
            drop(_b);
            let report = inner.finish();
            assert_eq!(report.stage_names(), vec!["test.inner"]);
            assert!(report
                .structure_digest()
                .contains("test.inner 0000000000000002 0 0 x1"));
            // The outer session's open span survives the inner session.
            let _c = span("test.after", 3);
        }
        let report = outer.finish();
        assert!(!enabled());
        let digest = report.structure_digest();
        assert!(digest.contains("test.outer 0000000000000001 0 0 x1"));
        assert!(digest.contains("test.after 0000000000000003 1 0 x1"));
        assert!(!digest.contains("test.inner"));
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let report = TraceReport {
            workers: vec![WorkerTrace {
                worker: 0,
                dropped: 0,
                spans: (1..=100)
                    .map(|i| SpanRecord {
                        name: "test.p",
                        key: i,
                        depth: 0,
                        start_us: 0,
                        dur_us: i,
                        virtual_ms: 0,
                    })
                    .collect(),
            }],
            dropped_spans: 0,
            capacity_per_worker: 128,
        };
        let rows = report.summary();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 100);
        assert_eq!(rows[0].p50_us, 50);
        assert_eq!(rows[0].p99_us, 99);
        assert_eq!(rows[0].max_us, 100);
    }
}
