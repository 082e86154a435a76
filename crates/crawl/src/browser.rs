//! Browser simulation: fetch → streaming tokenize→extract, under a
//! production retry discipline.
//!
//! [`Browser::visit`] performs one page load the way the paper's Puppeteer
//! harness does: issue the request from the configured vantage, retry
//! transient failures, and stream the returned HTML through the
//! tokenize→extract path ([`crate::stream`]) to produce the visible
//! text plus accessibility elements — no DOM is built per visit.
//! Restricted responses (bot walls, VPN detection) are surfaced as
//! [`VisitError::Restricted`] so the selection layer can apply the
//! paper's replacement rule.
//!
//! ## Retry discipline
//!
//! Retries are no longer immediate: each failed attempt waits out a
//! capped exponential backoff with deterministic jitter, every attempt is
//! charged its injected round-trip latency against a per-visit fetch
//! deadline, and a per-host circuit breaker ([`crate::breaker`]) opens
//! after consecutive failures, half-open-probes after a cooldown, and
//! re-closes on success. All waiting is *virtual* — counted on the
//! worker's [`VirtualClock`], never slept — and every decision is a pure
//! function of `(seed, host, attempt)`, so a crawl loses exactly the same
//! requests at every worker count (the sequential-replay determinism
//! contract of the pipeline).

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::clock::VirtualClock;
use crate::extract::PageExtract;
use crate::stream::extract_streaming;
use langcrux_lang::rng;
use langcrux_net::{ContentVariant, FetchError, Internet, Request, Url, Vantage};
use langcrux_obs as obs;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Initial capacity of a browser's reusable body buffer (a typical
/// generated page; the buffer grows past this once and stays).
const BODY_BUF_CAPACITY: usize = 16 * 1024;

/// Derivation stream tag for backoff jitter (disjoint from the
/// `RollPurpose` streams the fault dice consume).
const BACKOFF_STREAM: u64 = 0xB0FF;

/// A successful page visit.
#[derive(Debug, Clone)]
pub struct Visit {
    pub url: Url,
    pub variant: ContentVariant,
    pub extract: PageExtract,
    /// Total latency across attempts, milliseconds.
    pub latency_ms: u32,
    /// 1 + number of retries consumed.
    pub attempts: u32,
    /// Size of the fetched body.
    pub html_bytes: usize,
}

/// Why a visit failed for good.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VisitError {
    /// Network failure that survived all retries.
    Fetch(FetchError),
    /// The site served a restricted/bot-wall page (e.g. VPN detected).
    Restricted,
    /// The per-visit virtual-time budget ran out before a good response.
    DeadlineExceeded,
    /// The per-host circuit breaker was open past the visit deadline.
    CircuitOpen,
}

impl std::fmt::Display for VisitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisitError::Fetch(e) => write!(f, "fetch failed: {e}"),
            VisitError::Restricted => f.write_str("restricted content served"),
            VisitError::DeadlineExceeded => f.write_str("fetch deadline exceeded"),
            VisitError::CircuitOpen => f.write_str("circuit breaker open"),
        }
    }
}

impl std::error::Error for VisitError {}

/// Crawl-level browser configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrowserConfig {
    /// Retries after the first attempt for retryable errors.
    pub max_retries: u32,
    /// Backoff before the first retry (virtual ms); doubles per retry.
    pub backoff_base_ms: u64,
    /// Cap on a single backoff wait (virtual ms).
    pub backoff_cap_ms: u64,
    /// Upper bound on the deterministic jitter added to each backoff.
    pub backoff_jitter_ms: u64,
    /// Per-visit budget of virtual milliseconds (attempt latencies plus
    /// all waits). Generous by default: the deadline exists to bound
    /// pathological retry chains, not to race healthy fetches.
    pub fetch_deadline_ms: u64,
    /// Consecutive failures that open the per-host circuit breaker.
    pub breaker_threshold: u32,
    /// Virtual ms an open breaker cools down before a half-open probe.
    pub breaker_cooldown_ms: u64,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            max_retries: 2,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            backoff_jitter_ms: 50,
            fetch_deadline_ms: 30_000,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_000,
        }
    }
}

/// What one visit did, regardless of outcome — the raw material of the
/// pipeline's `CrawlLedger`. All waits are virtual milliseconds.
///
/// Serializable so distributed workers can ship each probe's trace back
/// to the coordinator, which folds them into the ledger exactly as the
/// single-process replay would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitTrace {
    /// Fetch attempts issued (1 + retries).
    pub attempts: u32,
    /// Virtual ms spent in exponential-backoff waits.
    pub backoff_wait_ms: u64,
    /// Virtual ms spent waiting out breaker cooldowns.
    pub breaker_wait_ms: u64,
    /// Total virtual ms the visit consumed (latency + all waits).
    pub virtual_ms: u64,
    /// The served body arrived truncated.
    pub truncated: bool,
    /// The served body arrived with a garbled span.
    pub garbled: bool,
    /// Breaker trips during this visit (incl. re-opens).
    pub breaker_opened: u32,
    /// Half-open probes admitted.
    pub breaker_probes: u32,
    /// Successful probes that re-closed the breaker.
    pub breaker_reclosed: u32,
}

/// A headless-browser stand-in bound to the simulated internet.
///
/// The browser owns a reusable body buffer: every visit fetches through
/// [`Internet::fetch_into`] into the same allocation (content servers with
/// a `serve_into` override render straight into it), so a long-lived
/// browser — one per crawl worker — performs zero per-visit body
/// allocations. [`visit`](Browser::visit) therefore takes `&mut self`.
///
/// It also owns the worker's [`VirtualClock`], advanced by every visit's
/// virtual cost (telemetry only — per-visit decisions use a visit-local
/// counter, which is what keeps verdicts order-independent).
pub struct Browser<'net> {
    internet: &'net Internet,
    config: BrowserConfig,
    /// Body buffer recycled across visits.
    body: String,
    /// This worker's logical clock (sum of all visits' virtual time).
    clock: VirtualClock,
}

impl<'net> Browser<'net> {
    pub fn new(internet: &'net Internet, config: BrowserConfig) -> Self {
        Browser {
            internet,
            config,
            body: String::with_capacity(BODY_BUF_CAPACITY),
            clock: VirtualClock::new(),
        }
    }

    /// Virtual milliseconds this browser has spent across all visits.
    pub fn clock_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Load a page from `vantage`, with backoff/breaker/deadline
    /// handling on transient failures.
    pub fn visit(&mut self, url: &Url, vantage: Vantage) -> Result<Visit, VisitError> {
        self.visit_traced(url, vantage).0
    }

    /// [`visit`](Browser::visit), also returning the visit's
    /// [`VisitTrace`] for ledger accounting.
    pub fn visit_traced(
        &mut self,
        url: &Url,
        vantage: Vantage,
    ) -> (Result<Visit, VisitError>, VisitTrace) {
        let mut trace = VisitTrace::default();
        // Span key: host hash, same derivation as the fault dice. All
        // virtual_ms fields attached below are pure in (seed, host,
        // vantage), keeping the trace-structure determinism contract.
        let span_key = obs::trace::key_str(&url.host);
        let mut fetch_span = obs::trace::span("crawl.fetch", span_key);
        // Visit-scoped breaker = per-host breaker: the pipeline visits
        // each host once, and visit-local state keeps decisions pure in
        // (seed, host, attempt) — see crate::breaker.
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            threshold: self.config.breaker_threshold.max(1),
            cooldown_ms: self.config.breaker_cooldown_ms,
        });
        let mut request = Request::new(url.clone(), vantage);
        let mut latency_total = 0u32;
        // Virtual ms consumed by this visit alone.
        let mut elapsed = 0u64;

        let result = loop {
            match breaker.admit(elapsed) {
                Admission::Allow | Admission::Probe => {}
                Admission::Wait { until_ms } => {
                    if until_ms >= self.config.fetch_deadline_ms {
                        // Waiting out the cooldown would blow the deadline:
                        // the host is effectively down for this visit.
                        break Err(VisitError::CircuitOpen);
                    }
                    trace.breaker_wait_ms += until_ms - elapsed;
                    obs::trace::virtual_wait("crawl.breaker_wait", span_key, until_ms - elapsed);
                    elapsed = until_ms;
                    continue; // re-admit: the breaker half-opens now
                }
            }
            trace.attempts += 1;
            // Every attempt burns its round-trip budget, success or not
            // (a timed-out request cost real time on a real crawl).
            let cost = u64::from(self.internet.attempt_cost_ms(&url.host, request.attempt));
            let outcome = self.internet.fetch_into(&request, &mut self.body);
            elapsed += cost;
            match outcome {
                Ok(meta) => {
                    breaker.record_success();
                    latency_total = latency_total.saturating_add(meta.latency_ms);
                    trace.truncated |= meta.truncated;
                    trace.garbled |= meta.garbled;
                    if meta.variant == ContentVariant::Restricted {
                        break Err(VisitError::Restricted);
                    }
                    // Streaming tokenize→extract: no DOM is materialised
                    // on the crawl path (see crate::stream).
                    let page = {
                        let _extract_span = obs::trace::span("crawl.extract", span_key);
                        extract_streaming(&self.body)
                    };
                    break Ok(Visit {
                        url: url.clone(),
                        variant: meta.variant,
                        extract: page,
                        latency_ms: latency_total,
                        attempts: request.attempt + 1,
                        html_bytes: self.body.len(),
                    });
                }
                Err(e) if e.is_retryable() && request.attempt < self.config.max_retries => {
                    breaker.record_failure(elapsed);
                    let wait = self.backoff_ms(&url.host, request.attempt);
                    obs::trace::virtual_wait("crawl.backoff", span_key, wait);
                    trace.backoff_wait_ms += wait;
                    elapsed += wait;
                    if elapsed >= self.config.fetch_deadline_ms {
                        break Err(VisitError::DeadlineExceeded);
                    }
                    request = request.retry();
                }
                Err(e) => {
                    breaker.record_failure(elapsed);
                    break Err(VisitError::Fetch(e));
                }
            }
        };

        trace.virtual_ms = elapsed;
        fetch_span.set_virtual_ms(elapsed);
        drop(fetch_span);
        trace.breaker_opened = breaker.opened;
        trace.breaker_probes = breaker.probes;
        trace.breaker_reclosed = breaker.reclosed;
        self.clock.advance(elapsed);
        (result, trace)
    }

    /// Capped exponential backoff before retry `attempt_done + 1`, with
    /// deterministic jitter derived from `(seed, host, attempt)` — the
    /// same derivation discipline as the fault dice, so backoff schedules
    /// are reproducible and order-independent.
    fn backoff_ms(&self, host: &str, attempt_done: u32) -> u64 {
        let doubled = self
            .config
            .backoff_base_ms
            .saturating_mul(1u64 << attempt_done.min(16));
        let wait = doubled.min(self.config.backoff_cap_ms);
        if self.config.backoff_jitter_ms == 0 {
            return wait;
        }
        let mut r = rng::rng_for(
            self.internet.seed(),
            &[
                rng::stream_id(host),
                u64::from(attempt_done),
                BACKOFF_STREAM,
            ],
        );
        wait + r.gen_range(0..=self.config.backoff_jitter_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_lang::Country;
    use langcrux_net::{vpn_vantage, ContentServer, FaultPlan};

    fn page_server() -> Box<dyn ContentServer> {
        Box::new(|variant: ContentVariant, _path: &str| match variant {
            ContentVariant::Localized => "<html lang=bn><head><title>খবর</title></head>\
                 <body><p>বাংলা সংবাদ</p><img src=a alt=\"ছবি এক\"></body></html>"
                .to_string(),
            ContentVariant::Global => "<html lang=en><head><title>News</title></head>\
                 <body><p>english news</p><img src=a alt=\"photo\"></body></html>"
                .to_string(),
            ContentVariant::Restricted => "<html><body>denied</body></html>".to_string(),
        })
    }

    fn net(plan: FaultPlan) -> Internet {
        let mut net = Internet::new(11, plan);
        net.register_simple("khobor.bd", Country::Bangladesh, page_server());
        net
    }

    #[test]
    fn visit_extracts_localized_page() {
        let net = net(FaultPlan::RELIABLE);
        let mut browser = Browser::new(&net, BrowserConfig::default());
        let visit = browser
            .visit(
                &Url::from_host("khobor.bd"),
                vpn_vantage(Country::Bangladesh).unwrap(),
            )
            .unwrap();
        assert_eq!(visit.variant, ContentVariant::Localized);
        assert_eq!(visit.extract.declared_lang.as_deref(), Some("bn"));
        assert!(visit.extract.visible_text.contains("বাংলা"));
        assert_eq!(visit.attempts, 1);
        assert!(visit.html_bytes > 0);
    }

    #[test]
    fn cloud_vantage_sees_global() {
        let net = net(FaultPlan::RELIABLE);
        let mut browser = Browser::new(&net, BrowserConfig::default());
        let visit = browser
            .visit(&Url::from_host("khobor.bd"), Vantage::Cloud)
            .unwrap();
        assert_eq!(visit.variant, ContentVariant::Global);
        assert!(visit.extract.visible_text.contains("english"));
    }

    #[test]
    fn unknown_host_fails_without_retry_burn() {
        let net = net(FaultPlan::RELIABLE);
        let mut browser = Browser::new(&net, BrowserConfig::default());
        let (result, trace) = browser.visit_traced(&Url::from_host("missing.bd"), Vantage::Cloud);
        assert_eq!(
            result.unwrap_err(),
            VisitError::Fetch(FetchError::UnknownHost("missing.bd".into()))
        );
        assert_eq!(trace.attempts, 1);
        assert_eq!(trace.backoff_wait_ms, 0);
    }

    #[test]
    fn restricted_is_not_a_visit() {
        let mut plan = FaultPlan::RELIABLE;
        plan.extra_vpn_detection = 1.0;
        let mut net = Internet::new(11, plan);
        net.register("wary.bd", Country::Bangladesh, 1.0, 0.0, page_server());
        let mut browser = Browser::new(&net, BrowserConfig::default());
        let err = browser
            .visit(
                &Url::from_host("wary.bd"),
                vpn_vantage(Country::Bangladesh).unwrap(),
            )
            .unwrap_err();
        assert_eq!(err, VisitError::Restricted);
    }

    #[test]
    fn retries_recover_transient_faults_with_backoff() {
        // Hostile network: find a host that fails on attempt 0 but
        // succeeds within 3 retries, and confirm visit() recovers it —
        // now also paying a backoff wait for every retry consumed.
        let mut net = Internet::new(5, FaultPlan::HOSTILE);
        for i in 0..60 {
            net.register_simple(&format!("r{i}.bd"), Country::Bangladesh, page_server());
        }
        let mut browser = Browser::new(
            &net,
            BrowserConfig {
                max_retries: 3,
                ..BrowserConfig::default()
            },
        );
        let mut recovered = 0;
        for i in 0..60 {
            let url = Url::from_host(&format!("r{i}.bd"));
            let (result, trace) = browser.visit_traced(&url, Vantage::Cloud);
            if let Ok(v) = result {
                if v.attempts > 1 {
                    recovered += 1;
                    assert!(trace.backoff_wait_ms > 0, "retry without backoff");
                    assert!(trace.virtual_ms >= trace.backoff_wait_ms);
                }
            }
        }
        assert!(recovered > 0, "no visit needed a retry on a hostile net");
        assert!(browser.clock_ms() > 0, "worker clock never advanced");
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let net = net(FaultPlan::RELIABLE);
        let browser = Browser::new(&net, BrowserConfig::default());
        let config = BrowserConfig::default();
        for attempt in 0..10 {
            let a = browser.backoff_ms("khobor.bd", attempt);
            let b = browser.backoff_ms("khobor.bd", attempt);
            assert_eq!(a, b, "jitter must be deterministic");
            assert!(a <= config.backoff_cap_ms + config.backoff_jitter_ms);
            let floor = (config.backoff_base_ms << attempt.min(16)).min(config.backoff_cap_ms);
            assert!(a >= floor, "attempt {attempt}: {a} < {floor}");
        }
        // Different hosts jitter differently (decorrelated streams).
        let other = (0..50).any(|i| {
            browser.backoff_ms(&format!("h{i}.bd"), 0) != browser.backoff_ms("khobor.bd", 0)
        });
        assert!(other, "all hosts drew identical jitter");
    }

    #[test]
    fn total_failure_breaks_the_breaker_and_respects_deadline() {
        // A plan that always times out: the visit must exhaust retries,
        // trip the breaker, and stay within the virtual deadline math.
        let plan = FaultPlan {
            timeout_chance: 1.0,
            ..FaultPlan::RELIABLE
        };
        let mut net = Internet::new(3, plan);
        net.register_simple("down.bd", Country::Bangladesh, page_server());
        let mut browser = Browser::new(
            &net,
            BrowserConfig {
                max_retries: 5,
                breaker_threshold: 2,
                ..BrowserConfig::default()
            },
        );
        let (result, trace) = browser.visit_traced(&Url::from_host("down.bd"), Vantage::Cloud);
        // With threshold 2 < retries, the breaker opens mid-visit and the
        // remaining attempts ride through cooldown waits (half-open probes).
        assert!(trace.breaker_opened >= 1, "{trace:?}");
        assert!(trace.breaker_probes >= 1, "{trace:?}");
        assert!(trace.breaker_wait_ms > 0, "{trace:?}");
        assert_eq!(trace.breaker_reclosed, 0);
        match result.unwrap_err() {
            VisitError::Fetch(FetchError::Timeout)
            | VisitError::DeadlineExceeded
            | VisitError::CircuitOpen => {}
            other => panic!("unexpected terminal error: {other:?}"),
        }
    }

    #[test]
    fn tight_deadline_cuts_the_visit_short() {
        let plan = FaultPlan {
            timeout_chance: 1.0,
            ..FaultPlan::RELIABLE
        };
        let mut net = Internet::new(3, plan);
        net.register_simple("down.bd", Country::Bangladesh, page_server());
        let mut browser = Browser::new(
            &net,
            BrowserConfig {
                max_retries: 50,
                fetch_deadline_ms: 500,
                ..BrowserConfig::default()
            },
        );
        let (result, trace) = browser.visit_traced(&Url::from_host("down.bd"), Vantage::Cloud);
        match result.unwrap_err() {
            VisitError::DeadlineExceeded | VisitError::CircuitOpen => {}
            other => panic!("expected a deadline cut, got {other:?}"),
        }
        assert!(
            trace.attempts < 50,
            "deadline failed to bound the retry chain: {trace:?}"
        );
        assert!(trace.virtual_ms < 500 + 2_050 + 50, "{trace:?}");
    }

    #[test]
    fn traced_visit_surfaces_body_damage() {
        let plan = FaultPlan {
            truncate_chance: 1.0,
            ..FaultPlan::RELIABLE
        };
        let mut net = Internet::new(11, plan);
        net.register_simple("cut.bd", Country::Bangladesh, page_server());
        let mut browser = Browser::new(&net, BrowserConfig::default());
        let (result, trace) = browser.visit_traced(&Url::from_host("cut.bd"), Vantage::Cloud);
        let visit = result.expect("truncated page still parses");
        assert!(trace.truncated);
        assert!(!trace.garbled);
        // The streaming extractor ran over genuinely partial HTML.
        assert!(visit.html_bytes > 0);
    }

    #[test]
    fn reliable_visits_spend_exactly_the_latency() {
        let net = net(FaultPlan::RELIABLE);
        let mut browser = Browser::new(&net, BrowserConfig::default());
        let (result, trace) = browser.visit_traced(&Url::from_host("khobor.bd"), Vantage::Cloud);
        let visit = result.unwrap();
        assert_eq!(trace.attempts, 1);
        assert_eq!(trace.virtual_ms, u64::from(visit.latency_ms));
        assert_eq!(trace.backoff_wait_ms + trace.breaker_wait_ms, 0);
        assert_eq!(browser.clock_ms(), trace.virtual_ms);
    }
}
