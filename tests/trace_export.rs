//! The observability layer's externally visible contracts.
//!
//! Three things must hold for traces to be trustworthy artefacts:
//! the Chrome `traceEvents` export is schema-valid (balanced B/E pairs,
//! non-decreasing timestamps per tid — what `chrome://tracing` and
//! Perfetto require to load a file), span *structure* is deterministic
//! (same seed → same names/nesting/counts/virtual durations, at every
//! worker count), and instrumentation never changes the science: the
//! dataset and crawl-ledger bytes are identical with tracing on and off.
//! Ring overflow must be accounted, never silent. A session holds the
//! spans of the work that carries it and nothing else: untraced work on
//! other threads stays out, and work handed to the crawl pool or the
//! distributed build's dispatchers comes in.

use langcrux::core::dist::{
    build_dataset_distributed, DistOptions, LocalExecutor, WireBuildConfig,
};
use langcrux::core::{build_dataset, build_dataset_with_ledger, PipelineOptions};
use langcrux::crawl::BrowserConfig;
use langcrux::obs::chrome;
use langcrux::obs::trace::{self, TraceConfig, TraceReport};
use langcrux::webgen::{Corpus, CorpusConfig};
use serde_json::Value;
use std::collections::BTreeMap;

const QUOTA: usize = 10;

fn options(threads: usize) -> PipelineOptions {
    PipelineOptions {
        quota: QUOTA,
        threads,
        ..PipelineOptions::default()
    }
}

/// Trace one full build on a fresh corpus (fresh so the lazy shard
/// builds are part of every run's structure, not just the first).
fn traced_build(seed: u64, threads: usize) -> TraceReport {
    let corpus = Corpus::build(CorpusConfig::small(seed, QUOTA));
    let session = trace::start(TraceConfig::default());
    let ds = build_dataset(&corpus, options(threads));
    let report = session.finish();
    assert!(!ds.is_empty(), "build produced no records");
    report
}

#[test]
fn chrome_export_is_schema_valid() {
    let report = traced_build(23, 2);
    let json = chrome::trace_events_json(&report);
    let doc: Value = serde_json::from_str(&json).expect("trace JSON parses");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no events exported");

    // Balanced B/E pairs and non-decreasing ts, per tid — the loadability
    // contract of the Trace Event Format.
    let mut by_tid: Vec<(u64, i64, u64)> = Vec::new(); // (tid, open depth, last ts)
    let mut duration_events = 0usize;
    let mut spans: BTreeMap<&str, u32> = BTreeMap::new();
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("ph");
        if ph == "M" {
            continue; // metadata events carry no ts ordering contract
        }
        assert!(ph == "B" || ph == "E", "unexpected phase {ph}");
        duration_events += 1;
        let tid = match event.get("tid") {
            Some(Value::UInt(t)) => *t,
            other => panic!("tid missing or non-integer: {other:?}"),
        };
        let ts = match event.get("ts") {
            Some(Value::UInt(t)) => *t,
            other => panic!("ts missing or non-integer: {other:?}"),
        };
        if ph == "B" {
            let name = event
                .get("name")
                .and_then(|v| v.as_str())
                .expect("B event without a name");
            *spans.entry(name).or_default() += 1;
        }
        let entry = match by_tid.iter_mut().find(|(t, _, _)| *t == tid) {
            Some(entry) => entry,
            None => {
                by_tid.push((tid, 0, 0));
                by_tid.last_mut().unwrap()
            }
        };
        assert!(
            ts >= entry.2,
            "ts regressed on tid {tid}: {ts} < {}",
            entry.2
        );
        entry.2 = ts;
        entry.1 += if ph == "B" { 1 } else { -1 };
        assert!(entry.1 >= 0, "E without matching B on tid {tid}");
    }
    for (tid, depth, _) in &by_tid {
        assert_eq!(*depth, 0, "unbalanced B/E on tid {tid}");
    }
    assert_eq!(duration_events % 2, 0);

    // Every stage of the taxonomy that a RELIABLE build exercises shows
    // up, as often as the build's shape dictates: one build, probe wave
    // and ledger fold; a shard build and a verdict replay per country; an
    // analysis per selected site; a fetch, an extraction and a render per
    // visit. A span added inside a loop moves a count, and the ring keeps
    // every span at the default capacity.
    let expected = BTreeMap::from([
        ("pipeline.build", 1),
        ("pipeline.probe_wave", 1),
        ("pipeline.verdict_replay", 12),
        ("pipeline.analyze_site", 120),
        ("pipeline.ledger_fold", 1),
        ("crawl.fetch", 180),
        ("crawl.extract", 180),
        ("webgen.render", 180),
        ("corpus.shard_build", 12),
    ]);
    assert_eq!(spans, expected, "spans per stage moved");
    assert_eq!(report.dropped_spans, 0, "spans dropped");
}

#[test]
fn span_structure_deterministic_across_worker_counts_and_runs() {
    let reference = traced_build(23, 1).structure_digest();
    assert!(!reference.is_empty());
    // Repeat run, same worker count.
    assert_eq!(
        reference,
        traced_build(23, 1).structure_digest(),
        "run-to-run structure drift at 1 worker"
    );
    // Other worker counts, including 0 = one per core.
    for threads in [2, 3, 0] {
        assert_eq!(
            reference,
            traced_build(23, threads).structure_digest(),
            "worker count {threads} changed the span structure"
        );
    }
    // A different seed is a different crawl — the digest must move.
    assert_ne!(
        reference,
        traced_build(24, 1).structure_digest(),
        "digest is insensitive to the seed"
    );
}

#[test]
fn untraced_build_on_another_thread_stays_out_of_the_session() {
    let lone = traced_build(23, 1).structure_digest();

    // An untraced build on another corpus runs on a second thread for the
    // whole life of the session; it carries no context, so none of its
    // spans (its own or its pool workers') may land in the session.
    let corpus = Corpus::build(CorpusConfig::small(23, QUOTA));
    let foreign = Corpus::build(CorpusConfig::small(37, QUOTA));
    let session = trace::start(TraceConfig::default());
    std::thread::scope(|scope| {
        let untraced = scope.spawn(|| build_dataset(&foreign, options(2)).len());
        assert!(!build_dataset(&corpus, options(1)).is_empty());
        assert!(untraced.join().expect("untraced build panicked") > 0);
    });
    let report = session.finish();

    assert_eq!(
        lone,
        report.structure_digest(),
        "spans from an untraced build leaked into the session"
    );
}

#[test]
fn traced_in_process_dist_build_keeps_its_unit_spans() {
    let corpus = Corpus::build(CorpusConfig::small(23, QUOTA));
    let executor = LocalExecutor::new(&WireBuildConfig::of(&corpus, BrowserConfig::default()));
    let options = DistOptions {
        quota: QUOTA,
        workers: 2,
        ..DistOptions::default()
    };
    let session = trace::start(TraceConfig::default());
    let build = build_dataset_distributed(&corpus, &executor, &options).expect("distributed build");
    let report = session.finish();

    // Units run on the coordinator's dispatcher threads, which carry its
    // context: every executed unit is traced, with its fetches under it.
    let spans: Vec<_> = report.workers.iter().flat_map(|w| &w.spans).collect();
    let units = spans.iter().filter(|s| s.name == "dist.unit").count();
    assert_eq!(units as u64, build.stats.units_executed);
    let fetch_depths: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "crawl.fetch")
        .map(|s| s.depth)
        .collect();
    assert!(!fetch_depths.is_empty(), "no fetch spans from the units");
    assert!(
        fetch_depths.iter().all(|&d| d == 1),
        "fetches must nest directly under their unit"
    );
}

#[test]
fn tracing_never_changes_dataset_or_ledger_bytes() {
    for threads in [1, 2] {
        let corpus = Corpus::build(CorpusConfig::small(37, QUOTA));
        let (plain_ds, plain_ledger) = build_dataset_with_ledger(&corpus, options(threads));

        let corpus = Corpus::build(CorpusConfig::small(37, QUOTA));
        let session = trace::start(TraceConfig::default());
        let (traced_ds, traced_ledger) = build_dataset_with_ledger(&corpus, options(threads));
        session.finish();

        assert_eq!(
            plain_ds.to_json().expect("plain dataset"),
            traced_ds.to_json().expect("traced dataset"),
            "tracing changed the dataset bytes at {threads} workers"
        );
        assert_eq!(
            plain_ledger.to_json().expect("plain ledger"),
            traced_ledger.to_json().expect("traced ledger"),
            "tracing changed the crawl-ledger bytes at {threads} workers"
        );
    }
}

#[test]
fn ring_overflow_is_accounted_never_silent() {
    let corpus = Corpus::build(CorpusConfig::small(23, QUOTA));
    // A ring far too small for a full build: spans beyond capacity must
    // be counted as dropped, not lost silently or written out of bounds.
    let session = trace::start(TraceConfig {
        capacity_per_worker: 8,
    });
    build_dataset(&corpus, options(1));
    let report = session.finish();

    assert!(report.dropped_spans > 0, "overflow not accounted");
    assert!(report.span_count() as usize <= 8 * report.workers.len());
    // The loss is surfaced everywhere a consumer could be misled: the
    // summary table and the Chrome export's metadata both carry it.
    let table = report.summary_table();
    assert!(table.contains("dropped"), "summary hides the drop count");
    let doc: Value =
        serde_json::from_str(&chrome::trace_events_json(&report)).expect("trace JSON parses");
    match doc.get("otherData").and_then(|v| v.get("dropped_spans")) {
        Some(Value::UInt(n)) => assert_eq!(*n, report.dropped_spans),
        other => panic!("dropped_spans missing from export metadata: {other:?}"),
    }
}
