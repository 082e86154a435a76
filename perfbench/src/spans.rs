//! Benchmark-side spans around calls into each layer's public functions.
//!
//! Spans live in memory for the whole traced run and are written once, at
//! exit, as a Chrome trace (`ph: "X"` complete events) that Perfetto
//! loads. A span's self time is its duration minus the time its children
//! cover; children of one span run on the same thread and never overlap.

use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
    pub tid: u32,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
            tid: 1,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) -> Duration {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end = self.epoch.elapsed();
        span.duration()
    }

    /// Time `f` as a leaf span; returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let idx = self.enter(name);
        let out = f();
        let took = self.exit(idx);
        (out, took)
    }

    /// Record an already-finished span measured on another thread.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, tid: u32, op: u64) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: None,
            op,
            tid,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Summed duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (Duration, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| (d + s.duration(), n + 1))
    }

    /// Write the spans as a Chrome trace file (JSON object format).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_to(&mut out)?;
        out.flush()
    }

    fn write_chrome_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_times();
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
                span.tid,
                span.op,
                i,
                parent,
                own[i].as_secs_f64() * 1e6,
            )?;
        }
        out.write_all(b"]}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let ((), inner) = t.time("inner", || std::thread::sleep(Duration::from_millis(5)));
        let total = t.exit(outer);
        let own = t.self_times();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0], total - inner);
        assert_eq!(own[1], inner);
        assert_eq!(t.total("inner").1, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new();
        let outer = t.enter("a.outer");
        t.time("b.leaf", || ());
        t.exit(outer);
        let mut bytes = Vec::new();
        t.write_chrome_to(&mut bytes).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("b"));
    }
}
