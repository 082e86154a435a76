//! The unified metrics registry.
//!
//! Every subsystem that owns telemetry (net fault counters, corpus shard
//! gauges, crawl ledger taxonomy, serve request/latency stats, trace
//! aggregates) implements an *encode* step against [`Encoder`] — a typed
//! counter/gauge/histogram sample collector. One rendering serves every
//! consumer: [`Encoder::prometheus_text`] writes the Prometheus 0.0.4
//! exposition (served by `/v1/metrics`, written by `repro
//! --metrics-out`).
//!
//! [`Registry`] is the dynamic half: long-lived processes (the serve
//! daemon) register collector closures so pipeline gauges from completed
//! builds appear on every later scrape.

use std::sync::Mutex;

/// Prometheus metric kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    Counter,
    Gauge,
    Histogram,
}

impl MetricType {
    fn as_str(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

/// One exposition sample: a (possibly suffixed) metric name, label
/// pairs, and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// `name{k="v",...}` — the sample's series identity in the exposition.
    ///
    /// Label *values* are escaped per the Prometheus text-format spec
    /// (`\` → `\\`, `"` → `\"`, newline → `\n`): a value containing a
    /// quote or newline would otherwise break out of the sample line and
    /// corrupt the whole exposition.
    pub fn flat_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        out.push('}');
        out
    }
}

struct Family {
    name: String,
    help: &'static str,
    typ: MetricType,
    samples: Vec<Sample>,
}

/// Typed metrics sample collector; see the module docs.
#[derive(Default)]
pub struct Encoder {
    families: Vec<Family>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder::default()
    }

    fn family(&mut self, name: &str, help: &'static str, typ: MetricType) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            debug_assert_eq!(
                self.families[i].typ, typ,
                "metric {name} re-registered with a different type"
            );
            return &mut self.families[i];
        }
        self.families.push(Family {
            name: name.to_string(),
            help,
            typ,
            samples: Vec::new(),
        });
        self.families.last_mut().unwrap()
    }

    fn push(
        &mut self,
        name: &str,
        help: &'static str,
        typ: MetricType,
        suffix: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let family = self.family(name, help, typ);
        family.samples.push(Sample {
            name: format!("{name}{suffix}"),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    /// Record an unlabelled counter sample.
    pub fn counter(&mut self, name: &str, help: &'static str, value: f64) {
        self.push(name, help, MetricType::Counter, "", &[], value);
    }

    /// Record a labelled counter sample (samples with the same `name`
    /// join one family under a single HELP/TYPE header).
    pub fn counter_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.push(name, help, MetricType::Counter, "", labels, value);
    }

    /// Record an unlabelled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &'static str, value: f64) {
        self.push(name, help, MetricType::Gauge, "", &[], value);
    }

    /// Record a labelled gauge sample.
    pub fn gauge_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.push(name, help, MetricType::Gauge, "", labels, value);
    }

    /// Record a full histogram: cumulative `(le, count)` buckets (the
    /// caller formats `le`, ending with `"+Inf"`), plus `_sum` and
    /// `_count` series.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &'static str,
        buckets: &[(String, u64)],
        sum: f64,
        count: u64,
    ) {
        for (le, cumulative) in buckets {
            self.push(
                name,
                help,
                MetricType::Histogram,
                "_bucket",
                &[("le", le.as_str())],
                *cumulative as f64,
            );
        }
        self.push(name, help, MetricType::Histogram, "_sum", &[], sum);
        self.push(
            name,
            help,
            MetricType::Histogram,
            "_count",
            &[],
            count as f64,
        );
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Render the Prometheus text exposition (format 0.0.4): families in
    /// registration order, each with `# HELP` / `# TYPE` headers.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(self.families.len() * 96);
        for family in &self.families {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.typ.as_str());
            out.push('\n');
            for sample in &family.samples {
                out.push_str(&sample.flat_name());
                out.push(' ');
                out.push_str(&fmt_value(sample.value));
                out.push('\n');
            }
        }
        out
    }
}

/// Exposition value formatting: integers render without a decimal point
/// (matching the hand-written exposition this replaced); everything else
/// uses Rust's shortest float form.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A metrics collector: encodes one subsystem's snapshot on scrape.
type Collector = Box<dyn Fn(&mut Encoder) + Send + Sync>;

/// A set of collector closures encoded on every scrape. Serve holds one
/// so an embedding process (the repro daemon after a build) can export
/// pipeline/crawl/corpus telemetry through `/v1/metrics` alongside the
/// server's own counters.
#[derive(Default)]
pub struct Registry {
    collectors: Mutex<Vec<Collector>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add a collector; it runs on every subsequent [`collect_into`].
    ///
    /// [`collect_into`]: Registry::collect_into
    pub fn register(&self, collector: impl Fn(&mut Encoder) + Send + Sync + 'static) {
        self.collectors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Box::new(collector));
    }

    /// Run every registered collector against `enc`.
    pub fn collect_into(&self, enc: &mut Encoder) {
        for collector in self
            .collectors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            collector(enc);
        }
    }

    /// Number of registered collectors.
    pub fn len(&self) -> usize {
        self.collectors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Git SHA baked in at compile time by the crate's build script
/// (`"unknown"` outside a git checkout).
pub fn git_sha() -> &'static str {
    env!("LANGCRUX_GIT_SHA")
}

/// Capability flags compiled into this build, reported by `/v1/healthz`.
pub fn feature_flags() -> Vec<&'static str> {
    let mut flags = vec!["span-tracing", "metrics-registry", "chrome-trace-export"];
    if cfg!(debug_assertions) {
        flags.push("debug-assertions");
    }
    flags
}

/// Encode the standard `langcrux_build_info` gauge (value always 1).
pub fn encode_build_info(enc: &mut Encoder, service: &str, version: &str) {
    enc.gauge_with(
        "langcrux_build_info",
        "Build metadata; the value is always 1.",
        &[
            ("service", service),
            ("version", version),
            ("git_sha", git_sha()),
        ],
        1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_group_into_one_family_per_name() {
        let mut enc = Encoder::new();
        enc.counter_with("reqs_total", "Requests.", &[("endpoint", "a")], 2.0);
        enc.counter_with("reqs_total", "Requests.", &[("endpoint", "b")], 3.0);
        enc.gauge("depth", "Depth.", 7.0);
        let text = enc.prometheus_text();
        assert_eq!(text.matches("# TYPE reqs_total counter").count(), 1);
        assert!(text.contains("reqs_total{endpoint=\"a\"} 2\n"));
        assert!(text.contains("reqs_total{endpoint=\"b\"} 3\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth 7\n"));
    }

    #[test]
    fn histogram_renders_buckets_sum_count() {
        let mut enc = Encoder::new();
        enc.histogram(
            "lat_us",
            "Latency.",
            &[("100".to_string(), 1), ("+Inf".to_string(), 2)],
            250.5,
            2,
        );
        let text = enc.prometheus_text();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_sum 250.5\n"));
        assert!(text.contains("lat_us_count 2\n"));
    }

    #[test]
    fn hostile_label_values_are_escaped_in_the_exposition() {
        let mut enc = Encoder::new();
        enc.counter_with(
            "evil_total",
            "Hostile labels.",
            &[("path", "a\"b\\c\nd")],
            1.0,
        );
        let text = enc.prometheus_text();
        // The sample line must carry the spec escapes — and in particular
        // must stay a single line.
        assert!(
            text.contains("evil_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{text:?}"
        );
        assert_eq!(text.lines().count(), 3, "{text:?}");
        // A benign value is untouched.
        let plain = Sample {
            name: "ok".into(),
            labels: vec![("k".into(), "v".into())],
            value: 0.0,
        };
        assert_eq!(plain.flat_name(), "ok{k=\"v\"}");
    }

    #[test]
    fn registry_collectors_run_on_every_scrape() {
        let registry = Registry::new();
        assert!(registry.is_empty());
        registry.register(|enc| enc.counter("c_total", "C.", 1.0));
        assert_eq!(registry.len(), 1);
        // Each scrape encodes through a fresh encoder, as the serve and
        // build expositions do.
        for _ in 0..2 {
            let mut enc = Encoder::new();
            registry.collect_into(&mut enc);
            assert!(enc.prometheus_text().contains("c_total 1\n"));
        }
    }

    #[test]
    fn build_info_carries_service_version_sha() {
        let mut enc = Encoder::new();
        encode_build_info(&mut enc, "serve", "0.1.0");
        let text = enc.prometheus_text();
        assert!(text.contains("langcrux_build_info{service=\"serve\",version=\"0.1.0\",git_sha=\""));
        assert!(!git_sha().is_empty());
        assert!(feature_flags().contains(&"span-tracing"));
    }
}
