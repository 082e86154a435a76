//! The result line the benchmark ends with, and the per-layer table.

use std::fmt::Write as _;

/// One named, unit-carrying number of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports: correctness, op counts and its metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single JSON object printed as the last line of stdout. Values
    /// keep every digit the measurement has.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if i > 0 {
                line.push_str(", ");
            }
            write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        line.push_str("}}");
        line
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The metrics of a result line printed by [`Outcome::json_line`] (by
/// another run of this benchmark), by name.
pub fn parse_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let doc: serde_json::Value = serde_json::from_str(line).ok()?;
    let metrics = doc.get("metrics")?.as_object()?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value")? {
                serde_json::Value::Int(i) => *i as f64,
                serde_json::Value::UInt(u) => *u as f64,
                serde_json::Value::Float(f) => *f,
                _ => return None,
            };
            Some((name.clone(), value))
        })
        .collect()
}

/// The per-layer metrics of the traced result line: the rows measured on
/// the op path of every workload. The rest of the table is printed as
/// text, with the reason wherever a row does not apply.
pub const PER_LAYER: [&str; 11] = [
    "webgen.render_us_per_page",
    "webgen.render_allocs_per_page",
    "html.tokenize_us_per_kb",
    "html.bytes_per_page",
    "crawl.extract_self_us_per_page",
    "crawl.extract_allocs_per_page",
    "langid.classify_label_us_per_element",
    "filter.classify_us_per_element",
    "audit.audit_page_us_per_page",
    "kizuki.evaluate_us_per_page",
    "bench.trace_overhead",
];

/// Every row of the per-layer table, with its unit, in print order.
pub const LAYER_ROWS: [(&str, &str); 42] = [
    ("webgen.render_us_per_page", "us"),
    ("webgen.render_allocs_per_page", "count"),
    ("webgen.shard_builds_per_op", "count"),
    ("webgen.shard_builds_setup", "count"),
    ("net.fetch_self_us_per_page", "us"),
    ("net.faults_per_request", "ratio"),
    ("html.tokenize_us_per_kb", "us/KiB"),
    ("html.bytes_per_page", "B"),
    ("crawl.extract_self_us_per_page", "us"),
    ("crawl.extract_allocs_per_page", "count"),
    ("crawl.attempts_per_visit", "count"),
    ("crawl.pool_speedup", "x"),
    ("crawl.pool_cpu_inflation", "x"),
    ("langid.composition_us_per_page", "us"),
    ("langid.classify_label_us_per_element", "us"),
    ("filter.classify_us_per_element", "us"),
    ("audit.audit_page_us_per_page", "us"),
    ("audit.gap_report_us_per_page", "us"),
    ("audit.gap_regions_per_page", "count"),
    ("kizuki.evaluate_us_per_page", "us"),
    ("kizuki.speech_us_per_page", "us"),
    ("core.build_ms_per_op", "ms"),
    ("core.unattributed_share", "ratio"),
    ("core.probe_yield", "ratio"),
    ("serde_json.dataset_ms_per_op", "ms"),
    ("serde_json.dataset_allocs_per_op", "count"),
    ("serde_json.audit_us_per_miss", "us"),
    ("serve.parse_us_per_request", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.replay_hits", "count"),
    ("serve.replay_misses", "count"),
    ("serve.engine_us_per_miss", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.audit_p99_ms", "ms"),
    ("serve.peak_batch_buffer_kb", "KiB"),
    ("serve.allocs_per_hit", "count"),
    ("serve.allocs_per_miss", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// One row of the per-layer table: a value, or why it cannot be given.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Result<f64, String>,
    /// An exact count, which must repeat from run to run at one seed.
    pub exact: bool,
}

/// Collects a workload's rows; [`finish`](Rows::finish) checks that
/// every row of [`LAYER_ROWS`] got a value or a reason.
#[derive(Default)]
pub struct Rows {
    rows: Vec<Row>,
}

impl Rows {
    fn put(&mut self, name: &str, value: Result<f64, String>, exact: bool) {
        let &(name, unit) = LAYER_ROWS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer row {name}"));
        assert!(
            self.rows.iter().all(|r| r.name != name),
            "per-layer row {name} set twice"
        );
        self.rows.push(Row {
            name,
            unit,
            value,
            exact,
        });
    }

    /// A measured value.
    pub fn value(&mut self, name: &str, value: f64) {
        self.put(name, Ok(value), false);
    }

    /// An exact count, which must repeat from run to run at one seed.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.put(name, Ok(value), true);
    }

    /// A row this workload cannot measure, and why.
    pub fn absent(&mut self, name: &str, why: &str) {
        self.put(name, Err(why.to_string()), false);
    }

    /// Mark every unset row whose name starts with `prefix` absent.
    pub fn absent_prefix(&mut self, prefix: &str, why: &str) {
        for (name, _) in LAYER_ROWS {
            if name.starts_with(prefix) && self.rows.iter().all(|r| r.name != name) {
                self.absent(name, why);
            }
        }
    }

    pub fn finish(self) -> Vec<Row> {
        LAYER_ROWS
            .iter()
            .map(|(name, _)| {
                self.rows
                    .iter()
                    .find(|r| r.name == *name)
                    .cloned()
                    .unwrap_or_else(|| {
                        panic!("per-layer row {name} neither measured nor explained")
                    })
            })
            .collect()
    }
}

/// Render the table as text lines, one row each.
pub fn table(workload: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        match &r.value {
            Ok(v) => writeln!(
                out,
                "layer {workload} {:<40} {:>14.4} {}{}",
                r.name,
                v,
                r.unit,
                if r.exact { "  (exact)" } else { "" }
            ),
            Err(why) => writeln!(
                out,
                "layer {workload} {:<40} {:>14} {}  ({why})",
                r.name, "n/a", r.unit
            ),
        }
        .expect("write to String");
    }
    out
}

/// The table as a JSON document, for the report file.
pub fn table_json(workload: &str, seed: u64, rows: &[Row]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"layers\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match &r.value {
            Ok(v) => write!(
                out,
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"exact\": {}}}",
                r.name, v, r.unit, r.exact
            ),
            Err(why) => write!(
                out,
                "{{\"name\": \"{}\", \"value\": null, \"unit\": \"{}\", \"why\": \"{}\"}}",
                r.name,
                r.unit,
                why.replace('"', "'")
            ),
        }
        .expect("write to String");
    }
    out.push_str("]}\n");
    out
}

/// The traced run's result line: the [`PER_LAYER`] rows, which every
/// workload measures.
pub fn per_layer_outcome(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> Outcome {
    let metrics = PER_LAYER
        .iter()
        .map(|name| {
            let r = rows
                .iter()
                .find(|r| r.name == *name)
                .unwrap_or_else(|| panic!("per-layer row {name} missing"));
            let value = r
                .value
                .clone()
                .unwrap_or_else(|why| panic!("per-layer row {name} not measured: {why}"));
            metric(r.name, value, r.unit)
        })
        .collect();
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                metric("op_p50_ms", 412.123456789, "ms"),
                metric("ok_share", 1.0, "ratio"),
            ],
        };
        let line = o.json_line();
        assert!(line.contains("412.123456789"));
        let back = parse_metrics(&line).unwrap();
        assert_eq!(back[0], ("op_p50_ms".to_string(), 412.123456789));
        assert_eq!(back[1], ("ok_share".to_string(), 1.0));
    }
}
