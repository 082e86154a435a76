//! Live-server integration tests: the CI smoke sequence (healthz → audit
//! → batch → stats → clean shutdown) plus the API's two load-bearing
//! guarantees — `POST /v1/audit` bytes are identical to the direct
//! library call, and `/v1/stats` counters agree with the cache.

use langcrux_serve::loadgen::{get, post};
use langcrux_serve::{spawn, AuditService, ServeConfig};

use langcrux_webgen::{render, SitePlan};
use std::net::TcpStream;

/// A real corpus page — the same renderer the offline pipeline crawls.
fn corpus_page(idx: u32) -> String {
    use langcrux_lang::Country;
    use langcrux_net::ContentVariant;
    let plan = SitePlan::build(0xA11C, Country::Bangladesh, idx, Some(true));
    render(&plan, ContentVariant::Localized, "/").0
}

fn connect(server: &langcrux_serve::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

#[test]
fn smoke_healthz_audit_batch_stats_shutdown() {
    let server = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = connect(&server);
    let mut scratch = Vec::new();

    // healthz: build-info document — status plus version / git SHA /
    // uptime / compiled feature flags (the satellite pin for PR 7).
    let (status, body) = get(&mut stream, "/v1/healthz", &mut scratch).expect("healthz");
    assert_eq!(status, 200);
    let health: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("healthz json");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(
        health.get("service").and_then(|v| v.as_str()),
        Some("langcrux-serve")
    );
    assert_eq!(
        health.get("version").and_then(|v| v.as_str()),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health
        .get("git_sha")
        .and_then(|v| v.as_str())
        .is_some_and(|sha| !sha.is_empty()));
    assert!(matches!(
        health.get("uptime_seconds"),
        Some(serde_json::Value::UInt(_))
    ));
    let features = health
        .get("features")
        .and_then(|v| v.as_array())
        .expect("features array");
    assert!(features.iter().any(|f| f.as_str() == Some("span-tracing")));
    assert!(features
        .iter()
        .any(|f| f.as_str() == Some("metrics-registry")));

    // one audit
    let page = corpus_page(0);
    let (status, audit_body) =
        post(&mut stream, "/v1/audit", page.as_bytes(), &mut scratch).expect("audit");
    assert_eq!(status, 200);
    let audit: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&audit_body).unwrap()).expect("audit json");
    assert!(audit.get("audit").is_some());
    assert!(audit.get("kizuki").is_some());
    assert!(audit.get("speak_order").is_some());

    // one batch over the same keep-alive connection
    let batch_payload =
        serde_json::to_string(&vec![corpus_page(1), corpus_page(2)]).expect("payload");
    let (status, batch_body) = post(
        &mut stream,
        "/v1/batch",
        batch_payload.as_bytes(),
        &mut scratch,
    )
    .expect("batch");
    assert_eq!(status, 200);
    let batch: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&batch_body).unwrap()).expect("batch json");
    assert_eq!(batch.as_array().expect("array").len(), 2);

    // stats reflect the traffic
    let (status, stats_body) = get(&mut stream, "/v1/stats", &mut scratch).expect("stats");
    assert_eq!(status, 200);
    let stats: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&stats_body).unwrap()).expect("stats json");
    let requests = stats.get("requests").expect("requests");
    assert_eq!(requests.get("audit"), Some(&serde_json::Value::UInt(1)));
    assert_eq!(requests.get("batch"), Some(&serde_json::Value::UInt(1)));
    assert_eq!(
        requests.get("batch_pages"),
        Some(&serde_json::Value::UInt(2))
    );
    assert_eq!(requests.get("healthz"), Some(&serde_json::Value::UInt(1)));

    // Prometheus exposition over the wire: same counters, text format.
    let (status, metrics_body) = get(&mut stream, "/v1/metrics", &mut scratch).expect("metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics_body).expect("utf-8 exposition");
    assert!(metrics.contains("langcrux_serve_requests_total{endpoint=\"audit\"} 1"));
    assert!(metrics.contains("langcrux_serve_requests_total{endpoint=\"batch\"} 1"));
    assert!(metrics.contains("langcrux_serve_batch_pages_total 2"));
    assert!(metrics.contains("# TYPE langcrux_serve_cache_hits_total counter"));
    // Latency goes out as a native histogram with the mandatory +Inf
    // bucket closing the series at _count.
    assert!(metrics.contains("# TYPE langcrux_serve_request_latency_microseconds histogram"));
    assert!(metrics.contains("langcrux_serve_request_latency_microseconds_bucket{le=\"+Inf\"} 4"));

    // clean shutdown: every worker joined, final stats returned
    let finale = server.shutdown();
    assert_eq!(finale.requests.audit, 1);
    assert_eq!(finale.requests.errors, 0);
    assert_eq!(finale.latency.count, 5);
}

#[test]
fn audit_bytes_equal_direct_library_call() {
    // The acceptance criterion: POST /v1/audit returns byte-identical
    // JSON to the equivalent direct (Dataset-path) library call.
    let server = spawn(ServeConfig::default()).expect("spawn");
    let service = AuditService::new();
    let mut stream = connect(&server);
    let mut scratch = Vec::new();

    for idx in 0..3 {
        let page = corpus_page(idx);
        let expected = service.audit_json(&page);
        let (status, served) =
            post(&mut stream, "/v1/audit", page.as_bytes(), &mut scratch).expect("audit");
        assert_eq!(status, 200);
        assert_eq!(
            served, expected,
            "page {idx}: served bytes must be byte-identical"
        );

        // And the cache-hit answer must be the very same bytes.
        let (_, cached) =
            post(&mut stream, "/v1/audit", page.as_bytes(), &mut scratch).expect("cache hit");
        assert_eq!(cached, expected, "page {idx}: cache-hit bytes drifted");
    }
    let stats = server.shutdown();
    assert_eq!(stats.cache.misses, 3);
    assert_eq!(stats.cache.hits, 3);
}

#[test]
fn stats_counters_match_cache_behaviour() {
    // Scripted traffic with a known hit/miss pattern; /v1/stats must
    // report exactly the cache's counters.
    let server = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = connect(&server);
    let mut scratch = Vec::new();

    let pages: Vec<String> = (10..14).map(corpus_page).collect();
    // First pass: 4 misses. Second + third pass: 8 hits.
    for _ in 0..3 {
        for page in &pages {
            let (status, _) =
                post(&mut stream, "/v1/audit", page.as_bytes(), &mut scratch).expect("audit");
            assert_eq!(status, 200);
        }
    }
    let (_, stats_body) = get(&mut stream, "/v1/stats", &mut scratch).expect("stats");
    let stats: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&stats_body).unwrap()).expect("stats json");
    let cache = stats.get("cache").expect("cache");
    assert_eq!(cache.get("misses"), Some(&serde_json::Value::UInt(4)));
    assert_eq!(cache.get("hits"), Some(&serde_json::Value::UInt(8)));
    assert_eq!(cache.get("entries"), Some(&serde_json::Value::UInt(4)));
    match cache.get("hit_rate") {
        Some(serde_json::Value::Float(rate)) => {
            assert!((rate - 8.0 / 12.0).abs() < 1e-9, "hit rate {rate}")
        }
        other => panic!("hit_rate missing or non-float: {other:?}"),
    }
    // In-process view agrees with the HTTP view.
    assert_eq!(server.state().cache.hits(), 8);
    assert_eq!(server.state().cache.misses(), 4);
    server.shutdown();
}

#[test]
fn protocol_errors_answer_and_close() {
    use std::io::{Read, Write};
    let server = spawn(ServeConfig {
        limits: langcrux_serve::Limits {
            max_body_bytes: 1024,
            ..Default::default()
        },
        ..ServeConfig::default()
    })
    .expect("spawn");

    // Oversized declared body → 413.
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /v1/audit HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    assert!(response.contains("Connection: close"));

    // Malformed start-line → 400.
    let mut stream = connect(&server);
    stream.write_all(b"NOT-HTTP\r\n\r\n").expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    // Unknown endpoint → 404, connection stays usable.
    let mut stream = connect(&server);
    let mut scratch = Vec::new();
    let (status, _) = get(&mut stream, "/v2/nope", &mut scratch).expect("404");
    assert_eq!(status, 404);
    let (status, _) = get(&mut stream, "/v1/healthz", &mut scratch).expect("healthz after 404");
    assert_eq!(status, 200);

    let stats = server.shutdown();
    assert!(
        stats.requests.errors >= 3,
        "errors {}",
        stats.requests.errors
    );
}
