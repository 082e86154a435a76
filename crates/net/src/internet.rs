//! The simulated internet.
//!
//! [`Internet`] is a host registry plus the geo-serving and fault logic
//! that stands in for the live web:
//!
//! * **Localization** — a site hosted in country C serves its
//!   [`ContentVariant::Localized`] variant only when the request's egress
//!   country is C; other vantages get [`ContentVariant::Global`]. This is
//!   the observable behaviour that motivates the paper's VPN methodology.
//! * **VPN detection** — a fraction of sites inspect the client address
//!   space; when they recognise a VPN range they fall back to the global
//!   variant (the paper: "some websites may detect VPN use and return
//!   generic or restricted versions").
//! * **Faults** — timeouts / resets / geo-blocks per the deterministic
//!   [`FaultPlan`].
//!
//! `Internet` is `Send + Sync`; the crawler queries it from a worker pool.

use crate::fault::{FaultDice, FaultPlan, RollPurpose};
use crate::geo::{provider, Vantage};
use crate::types::{ContentVariant, FetchError, Request};
use langcrux_lang::Country;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A site's content provider: renders the page body for a variant.
///
/// Implemented by `langcrux-webgen`'s site generators; test code often uses
/// the blanket impl for closures.
pub trait ContentServer: Send + Sync {
    fn serve(&self, variant: ContentVariant, path: &str) -> String;

    /// Append the page body to a caller-owned buffer instead of
    /// allocating. Content servers on a hot path (webgen's corpus
    /// resolver) override this; the default delegates to [`serve`]
    /// (correct, but pays the allocation).
    ///
    /// [`serve`]: ContentServer::serve
    fn serve_into(&self, variant: ContentVariant, path: &str, out: &mut String) {
        out.push_str(&self.serve(variant, path));
    }
}

impl<F> ContentServer for F
where
    F: Fn(ContentVariant, &str) -> String + Send + Sync,
{
    fn serve(&self, variant: ContentVariant, path: &str) -> String {
        self(variant, path)
    }
}

/// Serving metadata for a lazily resolved host.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedHost {
    pub country: Country,
    /// Probability (0–1) that this site actively detects VPN ranges.
    pub vpn_detecting: f64,
    /// Probability that this site hard-blocks foreign vantages.
    pub geo_block: f64,
}

/// A lazy host registry: resolves hostnames (and serves their pages) on
/// demand instead of requiring every host to be materialised up front via
/// [`Internet::register`].
///
/// This is what lets `langcrux-webgen` shard its corpora: the resolver
/// derives a host's country from the name, builds (or revives) the
/// country shard, and renders pages from plans that may since have been
/// evicted from memory. Explicitly registered hosts always win over the
/// resolver, so tests can overlay fixtures on a lazy corpus.
pub trait HostResolver: Send + Sync {
    /// Serving metadata for `host`, or `None` if the name does not exist.
    fn resolve(&self, host: &str) -> Option<ResolvedHost>;

    /// Append the page body for a previously resolved host. Called only
    /// with hostnames `resolve` accepted (possibly much later — the
    /// backing state must be rebuildable).
    fn serve_into(&self, host: &str, variant: ContentVariant, path: &str, out: &mut String);

    /// Number of hosts this resolver can resolve (for capacity-style
    /// telemetry; needs no materialisation).
    fn host_count(&self) -> usize;
}

/// Per-host registration data.
struct HostEntry {
    country: Country,
    /// Probability (0–1) that this site actively detects VPN ranges.
    vpn_detecting: f64,
    /// Probability that this site hard-blocks foreign (non-national,
    /// non-VPN-accepted) vantages instead of serving the global variant.
    geo_block: f64,
    server: Box<dyn ContentServer>,
}

/// Counters describing what the network served. All counts are
/// monotonically increasing; snapshot with [`Internet::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetMetrics {
    pub requests: u64,
    pub localized_responses: u64,
    pub global_responses: u64,
    pub restricted_responses: u64,
    pub timeouts: u64,
    pub resets: u64,
    pub server_errors: u64,
    pub geo_blocks: u64,
    pub unknown_hosts: u64,
    pub vpn_detections: u64,
    /// Bodies cut off mid-transfer (the truncated length is what counts
    /// toward `bytes_served`).
    pub truncated_bodies: u64,
    /// Bodies with a garbled (U+FFFD-replaced) span.
    pub garbled_bodies: u64,
    /// Successful responses from the plan's persistently slow hosts.
    pub slow_responses: u64,
    pub bytes_served: u64,
}

impl NetMetrics {
    /// Register the fault counters into the unified metrics registry
    /// (`langcrux_net_*` family — see `docs/observability.md`).
    pub fn encode_metrics(&self, enc: &mut langcrux_obs::Encoder) {
        enc.counter(
            "langcrux_net_requests_total",
            "Simulated fetches issued, including retries.",
            self.requests as f64,
        );
        const RESPONSES: &str = "Responses served, by content variant.";
        enc.counter_with(
            "langcrux_net_responses_total",
            RESPONSES,
            &[("variant", "localized")],
            self.localized_responses as f64,
        );
        enc.counter_with(
            "langcrux_net_responses_total",
            RESPONSES,
            &[("variant", "global")],
            self.global_responses as f64,
        );
        enc.counter_with(
            "langcrux_net_responses_total",
            RESPONSES,
            &[("variant", "restricted")],
            self.restricted_responses as f64,
        );
        const FAULTS: &str = "Injected faults, by kind.";
        for (kind, count) in [
            ("timeout", self.timeouts),
            ("reset", self.resets),
            ("server_error", self.server_errors),
            ("geo_block", self.geo_blocks),
            ("unknown_host", self.unknown_hosts),
            ("vpn_detection", self.vpn_detections),
        ] {
            enc.counter_with(
                "langcrux_net_faults_total",
                FAULTS,
                &[("kind", kind)],
                count as f64,
            );
        }
        const DAMAGE: &str = "Successful responses with damaged bodies, by kind.";
        enc.counter_with(
            "langcrux_net_damaged_bodies_total",
            DAMAGE,
            &[("kind", "truncated")],
            self.truncated_bodies as f64,
        );
        enc.counter_with(
            "langcrux_net_damaged_bodies_total",
            DAMAGE,
            &[("kind", "garbled")],
            self.garbled_bodies as f64,
        );
        enc.counter(
            "langcrux_net_slow_responses_total",
            "Successful responses from persistently slow hosts.",
            self.slow_responses as f64,
        );
        enc.counter(
            "langcrux_net_bytes_served_total",
            "Body bytes served across all responses.",
            self.bytes_served as f64,
        );
    }
}

/// The simulated internet.
pub struct Internet {
    seed: u64,
    plan: FaultPlan,
    hosts: HashMap<String, HostEntry>,
    /// Lazy registry consulted when `hosts` misses.
    resolver: Option<Box<dyn HostResolver>>,
    metrics: Arc<Mutex<NetMetrics>>,
}

impl Internet {
    /// An empty internet with the given workspace seed and fault plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        Internet {
            seed,
            plan,
            hosts: HashMap::new(),
            resolver: None,
            metrics: Arc::new(Mutex::new(NetMetrics::default())),
        }
    }

    /// Install the lazy host registry. Explicitly registered hosts take
    /// precedence on lookup.
    pub fn set_resolver(&mut self, resolver: Box<dyn HostResolver>) {
        self.resolver = Some(resolver);
    }

    /// Register a host. `vpn_detecting` and `geo_block` are per-site
    /// probabilities in `[0, 1]`.
    pub fn register(
        &mut self,
        host: &str,
        country: Country,
        vpn_detecting: f64,
        geo_block: f64,
        server: Box<dyn ContentServer>,
    ) {
        self.hosts.insert(
            host.to_ascii_lowercase(),
            HostEntry {
                country,
                vpn_detecting,
                geo_block,
                server,
            },
        );
    }

    /// Convenience registration with no VPN detection or geo-blocking.
    pub fn register_simple(
        &mut self,
        host: &str,
        country: Country,
        server: Box<dyn ContentServer>,
    ) {
        self.register(host, country, 0.0, 0.0, server);
    }

    /// Number of resolvable hosts (registered + lazy registry).
    pub fn host_count(&self) -> usize {
        match &self.resolver {
            None => self.hosts.len(),
            Some(resolver) => {
                // A host registered *over* a resolver entry (test fixtures
                // overlaying a lazy corpus) counts once.
                let overlap = self
                    .hosts
                    .keys()
                    .filter(|host| resolver.resolve(host).is_some())
                    .count();
                self.hosts.len() + resolver.host_count() - overlap
            }
        }
    }

    /// Whether a hostname resolves.
    pub fn knows(&self, host: &str) -> bool {
        let host = host.to_ascii_lowercase();
        self.hosts.contains_key(&host)
            || self
                .resolver
                .as_ref()
                .is_some_and(|r| r.resolve(&host).is_some())
    }

    /// *Registered* hosts for a country (unordered; lazily resolvable
    /// hosts are not enumerable by design — ask the corpus instead).
    pub fn hosts_in(&self, country: Country) -> Vec<&str> {
        self.hosts
            .iter()
            .filter(|(_, e)| e.country == country)
            .map(|(h, _)| h.as_str())
            .collect()
    }

    /// Snapshot of the traffic counters.
    pub fn metrics(&self) -> NetMetrics {
        self.lock_metrics().clone()
    }

    /// The traffic counters, locked. They are plain integers that no
    /// panic can leave half-written, so a lock poisoned by a panicking
    /// holder is taken over rather than turning every later fetch into a
    /// panic.
    fn lock_metrics(&self) -> MutexGuard<'_, NetMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The workspace seed the fault rolls derive from. Exposed so the
    /// crawl layer can derive its *own* deterministic decisions (backoff
    /// jitter) from the same root without holding a second seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan in force.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Virtual milliseconds one attempt against `host` costs — the same
    /// latency sample `fetch_into` reports on success, so the crawl
    /// layer's virtual clock can charge failed attempts identically
    /// (a timed-out request still burns its round-trip budget).
    pub fn attempt_cost_ms(&self, host: &str, attempt: u32) -> u32 {
        FaultDice::new(self.seed, host, attempt).latency_ms(&self.plan)
    }

    /// Execute one request, appending the body to a caller-owned buffer
    /// (cleared first). The crawl path's zero-copy fetch: a browser reuses
    /// one buffer across every visit, and content servers with a
    /// `serve_into` override render straight into it.
    pub fn fetch_into(&self, req: &Request, body: &mut String) -> Result<FetchMeta, FetchError> {
        // Clear up front so an error return cannot leave a previous
        // visit's page in the caller's reused buffer.
        body.clear();
        let mut m = self.lock_metrics();
        m.requests += 1;
        drop(m);

        // Registered hosts win; the lazy resolver covers the rest.
        let (meta, entry) = match self.hosts.get(&req.url.host) {
            Some(entry) => (
                ResolvedHost {
                    country: entry.country,
                    vpn_detecting: entry.vpn_detecting,
                    geo_block: entry.geo_block,
                },
                Some(entry),
            ),
            None => {
                let resolved = self
                    .resolver
                    .as_ref()
                    .and_then(|r| r.resolve(&req.url.host));
                match resolved {
                    Some(meta) => (meta, None),
                    None => {
                        self.lock_metrics().unknown_hosts += 1;
                        return Err(FetchError::UnknownHost(req.url.host.clone()));
                    }
                }
            }
        };

        let dice = FaultDice::new(self.seed, &req.url.host, req.attempt);

        if dice.fires(RollPurpose::Timeout, self.plan.timeout_chance) {
            self.lock_metrics().timeouts += 1;
            return Err(FetchError::Timeout);
        }
        if dice.fires(RollPurpose::Reset, self.plan.reset_chance) {
            self.lock_metrics().resets += 1;
            return Err(FetchError::ConnectionReset);
        }
        if dice.fires(RollPurpose::ServerError, self.plan.server_error_chance) {
            self.lock_metrics().server_errors += 1;
            return Err(FetchError::ServerError(dice.server_error_code()));
        }

        let variant = self.variant_for(&meta, req, &dice)?;
        match entry {
            Some(entry) => entry.server.serve_into(variant, &req.url.path, body),
            None => self
                .resolver
                .as_ref()
                .expect("resolved host without resolver")
                .serve_into(&req.url.host, variant, &req.url.path, body),
        }

        // Partial damage: the response arrives, but not intact. Both modes
        // rewrite the rendered body in place so the streaming extractor is
        // exercised on genuinely broken HTML, and both keep the buffer
        // valid UTF-8 (the simulated web's invariant).
        let truncated =
            !body.is_empty() && dice.fires(RollPurpose::Truncate, self.plan.truncate_chance);
        if truncated {
            let cut = floor_char_boundary(body, dice.truncate_cut(body.len()));
            body.truncate(cut);
        }
        let garbled = !body.is_empty() && dice.fires(RollPurpose::Garble, self.plan.garble_chance);
        if garbled {
            let (start, span) = dice.garble_span(body.len());
            let start = floor_char_boundary(body, start);
            let end = floor_char_boundary(body, (start + span).min(body.len()));
            if end > start {
                let replacement: String = body[start..end].chars().map(|_| '\u{FFFD}').collect();
                body.replace_range(start..end, &replacement);
            }
        }

        let latency = dice.latency_ms(&self.plan);

        let mut m = self.lock_metrics();
        match variant {
            ContentVariant::Localized => m.localized_responses += 1,
            ContentVariant::Global => m.global_responses += 1,
            ContentVariant::Restricted => m.restricted_responses += 1,
        }
        if truncated {
            m.truncated_bodies += 1;
        }
        if garbled {
            m.garbled_bodies += 1;
        }
        if dice.host_is_slow(&self.plan) {
            m.slow_responses += 1;
        }
        m.bytes_served += body.len() as u64;
        drop(m);

        Ok(FetchMeta {
            status: if variant == ContentVariant::Restricted {
                451
            } else {
                200
            },
            variant,
            latency_ms: latency,
            truncated,
            garbled,
        })
    }

    /// Decide which variant the site serves to this vantage. The decision
    /// is deterministic per (seed, host, attempt).
    fn variant_for(
        &self,
        host: &ResolvedHost,
        req: &Request,
        dice: &FaultDice,
    ) -> Result<ContentVariant, FetchError> {
        match req.vantage.egress_country() {
            Some(egress) if egress == host.country => {
                if req.vantage.is_vpn() {
                    // Combined chance: the site must be a detecting site AND
                    // recognise this provider's ranges.
                    let p_detect = host.vpn_detecting
                        * (provider_detectability(&req.vantage) + self.plan.extra_vpn_detection);
                    if dice.fires(RollPurpose::VpnDetection, p_detect.min(1.0)) {
                        self.lock_metrics().vpn_detections += 1;
                        return Ok(ContentVariant::Restricted);
                    }
                }
                Ok(ContentVariant::Localized)
            }
            _ => {
                // Foreign vantage: occasionally geo-blocked, usually global.
                if dice.fires(RollPurpose::GeoBlock, host.geo_block) {
                    self.lock_metrics().geo_blocks += 1;
                    return Err(FetchError::GeoBlocked);
                }
                Ok(ContentVariant::Global)
            }
        }
    }
}

/// Response metadata from [`Internet::fetch_into`]; the body lives in
/// the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchMeta {
    pub status: u16,
    pub variant: ContentVariant,
    pub latency_ms: u32,
    /// The body was cut off mid-transfer (partial HTML in the buffer).
    pub truncated: bool,
    /// A span of the body was garbled into U+FFFD replacement chars.
    pub garbled: bool,
}

/// Largest char-boundary offset `<= idx` (stable-Rust stand-in for
/// `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, mut idx: usize) -> usize {
    if idx >= s.len() {
        return s.len();
    }
    while !s.is_char_boundary(idx) {
        idx -= 1;
    }
    idx
}

fn provider_detectability(vantage: &Vantage) -> f64 {
    match vantage {
        Vantage::Vpn { provider: id, .. } => provider(*id).detectability,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::vpn_vantage;
    use crate::url::Url;

    fn test_server(tag: &'static str) -> Box<dyn ContentServer> {
        Box::new(move |variant: ContentVariant, path: &str| {
            format!("<html><body>{tag}:{variant:?}:{path}</body></html>")
        })
    }

    /// One fetch into a fresh buffer: the response metadata and body.
    fn fetch(net: &Internet, req: &Request) -> Result<(FetchMeta, String), FetchError> {
        let mut body = String::new();
        net.fetch_into(req, &mut body).map(|meta| (meta, body))
    }

    fn internet() -> Internet {
        let mut net = Internet::new(7, FaultPlan::RELIABLE);
        net.register_simple("news.bd", Country::Bangladesh, test_server("bd"));
        net.register("wall.th", Country::Thailand, 0.0, 1.0, test_server("th"));
        net.register(
            "paranoid.bd",
            Country::Bangladesh,
            1.0,
            0.0,
            test_server("pbd"),
        );
        net
    }

    #[test]
    fn national_vantage_gets_localized() {
        let net = internet();
        let req = Request::new(
            Url::from_host("news.bd"),
            Vantage::Residential(Country::Bangladesh),
        );
        let (resp, body) = fetch(&net, &req).unwrap();
        assert_eq!(resp.variant, ContentVariant::Localized);
        assert_eq!(resp.status, 200);
        assert!(body.contains("Localized"));
    }

    #[test]
    fn cloud_vantage_gets_global() {
        let net = internet();
        let req = Request::new(Url::from_host("news.bd"), Vantage::Cloud);
        let (resp, _) = fetch(&net, &req).unwrap();
        assert_eq!(resp.variant, ContentVariant::Global);
    }

    #[test]
    fn foreign_country_gets_global() {
        let net = internet();
        let req = Request::new(
            Url::from_host("news.bd"),
            Vantage::Residential(Country::Thailand),
        );
        assert_eq!(fetch(&net, &req).unwrap().0.variant, ContentVariant::Global);
    }

    #[test]
    fn vpn_vantage_gets_localized() {
        let net = internet();
        let req = Request::new(
            Url::from_host("news.bd"),
            vpn_vantage(Country::Bangladesh).unwrap(),
        );
        assert_eq!(
            fetch(&net, &req).unwrap().0.variant,
            ContentVariant::Localized
        );
    }

    #[test]
    fn unknown_host_errors() {
        let net = internet();
        let req = Request::new(Url::from_host("nosuch.xx"), Vantage::Cloud);
        assert_eq!(
            fetch(&net, &req).unwrap_err(),
            FetchError::UnknownHost("nosuch.xx".into())
        );
        assert_eq!(net.metrics().unknown_hosts, 1);
    }

    #[test]
    fn geo_block_wall_blocks_foreigners_only() {
        let net = internet();
        let foreign = Request::new(Url::from_host("wall.th"), Vantage::Cloud);
        assert_eq!(fetch(&net, &foreign).unwrap_err(), FetchError::GeoBlocked);
        let national = Request::new(
            Url::from_host("wall.th"),
            Vantage::Residential(Country::Thailand),
        );
        assert_eq!(
            fetch(&net, &national).unwrap().0.variant,
            ContentVariant::Localized
        );
    }

    #[test]
    fn residential_never_vpn_detected() {
        let net = internet();
        let req = Request::new(
            Url::from_host("paranoid.bd"),
            Vantage::Residential(Country::Bangladesh),
        );
        // paranoid.bd detects 100% of VPNs but this is not a VPN.
        assert_eq!(
            fetch(&net, &req).unwrap().0.variant,
            ContentVariant::Localized
        );
    }

    #[test]
    fn vpn_detection_rate_tracks_provider_detectability() {
        // With vpn_detecting = 1.0 and extra_vpn_detection = 1.0 the
        // combined probability saturates to 1.0 → always restricted.
        let mut plan = FaultPlan::RELIABLE;
        plan.extra_vpn_detection = 1.0;
        let mut net = Internet::new(11, plan);
        net.register("p.bd", Country::Bangladesh, 1.0, 0.0, test_server("p"));
        let req = Request::new(
            Url::from_host("p.bd"),
            vpn_vantage(Country::Bangladesh).unwrap(),
        );
        let (resp, _) = fetch(&net, &req).unwrap();
        assert_eq!(resp.variant, ContentVariant::Restricted);
        assert_eq!(resp.status, 451);
        assert_eq!(net.metrics().vpn_detections, 1);
    }

    #[test]
    fn faults_are_deterministic_across_instances() {
        let build = || {
            let mut net = Internet::new(99, FaultPlan::HOSTILE);
            for i in 0..50 {
                net.register_simple(&format!("h{i}.bd"), Country::Bangladesh, test_server("x"));
            }
            net
        };
        let run = |net: &Internet| -> Vec<bool> {
            (0..50)
                .map(|i| {
                    let req = Request::new(Url::from_host(&format!("h{i}.bd")), Vantage::Cloud);
                    fetch(net, &req).is_ok()
                })
                .collect()
        };
        let a = build();
        let b = build();
        assert_eq!(run(&a), run(&b));
        // And a hostile plan must actually produce some failures + successes.
        let outcomes = run(&a);
        assert!(outcomes.iter().any(|&ok| ok));
        assert!(outcomes.iter().any(|&ok| !ok));
    }

    #[test]
    fn retry_can_clear_transient_faults() {
        let mut net = Internet::new(5, FaultPlan::HOSTILE);
        for i in 0..100 {
            net.register_simple(&format!("r{i}.bd"), Country::Bangladesh, test_server("x"));
        }
        let mut recovered = 0;
        for i in 0..100 {
            let req = Request::new(Url::from_host(&format!("r{i}.bd")), Vantage::Cloud);
            if let Err(e) = fetch(&net, &req) {
                if e.is_retryable() && fetch(&net, &req.retry()).is_ok() {
                    recovered += 1;
                }
            }
        }
        assert!(recovered > 0, "no transient fault recovered on retry");
    }

    #[test]
    fn metrics_accumulate() {
        let net = internet();
        let req = Request::new(
            Url::from_host("news.bd"),
            Vantage::Residential(Country::Bangladesh),
        );
        fetch(&net, &req).unwrap();
        fetch(&net, &req).unwrap();
        let m = net.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.localized_responses, 2);
        assert!(m.bytes_served > 0);
    }

    #[test]
    fn truncation_damages_bodies_deterministically() {
        let plan = FaultPlan {
            truncate_chance: 1.0,
            ..FaultPlan::RELIABLE
        };
        let mut net = Internet::new(7, plan);
        net.register_simple("cut.bd", Country::Bangladesh, test_server("cut"));
        let req = Request::new(Url::from_host("cut.bd"), Vantage::Cloud);
        let mut body_a = String::new();
        let meta = net.fetch_into(&req, &mut body_a).unwrap();
        assert!(meta.truncated);
        assert!(!meta.garbled);
        let full = test_server("cut").serve(ContentVariant::Global, "/");
        assert!(body_a.len() < full.len());
        assert!(full.starts_with(&body_a), "truncation must be a prefix");
        // Same request ⇒ same cut.
        let mut body_b = String::new();
        net.fetch_into(&req, &mut body_b).unwrap();
        assert_eq!(body_a, body_b);
        assert_eq!(net.metrics().truncated_bodies, 2);
    }

    #[test]
    fn garbling_keeps_utf8_and_length_of_char_count() {
        let plan = FaultPlan {
            garble_chance: 1.0,
            ..FaultPlan::RELIABLE
        };
        let mut net = Internet::new(7, plan);
        // Multibyte body: the bengali page exercises char-boundary flooring.
        net.register_simple(
            "mojibake.bd",
            Country::Bangladesh,
            Box::new(|_v: ContentVariant, _p: &str| {
                "<html><body><p>বাংলা সংবাদ এবং আরো বাংলা লেখা এখানে আছে</p></body></html>".repeat(4)
            }),
        );
        let req = Request::new(Url::from_host("mojibake.bd"), Vantage::Cloud);
        let mut body = String::new();
        let meta = net.fetch_into(&req, &mut body).unwrap();
        assert!(meta.garbled);
        assert!(body.contains('\u{FFFD}'), "garble must leave U+FFFD marks");
        // String ops guarantee UTF-8; also confirm the page is still mostly intact.
        let damaged = body.chars().filter(|&c| c == '\u{FFFD}').count();
        assert!(damaged > 0 && damaged < body.chars().count() / 2);
        assert_eq!(net.metrics().garbled_bodies, 1);
    }

    #[test]
    fn server_errors_fire_and_are_retryable() {
        let plan = FaultPlan {
            server_error_chance: 1.0,
            ..FaultPlan::RELIABLE
        };
        let mut net = Internet::new(7, plan);
        net.register_simple("flaky.bd", Country::Bangladesh, test_server("f"));
        let req = Request::new(Url::from_host("flaky.bd"), Vantage::Cloud);
        let err = fetch(&net, &req).unwrap_err();
        match err {
            FetchError::ServerError(code) => assert!((500..=504).contains(&code)),
            other => panic!("expected 5xx, got {other:?}"),
        }
        assert!(err.is_retryable());
        assert_eq!(net.metrics().server_errors, 1);
    }

    #[test]
    fn attempt_cost_matches_served_latency() {
        let net = internet();
        let req = Request::new(
            Url::from_host("news.bd"),
            Vantage::Residential(Country::Bangladesh),
        );
        let (resp, _) = fetch(&net, &req).unwrap();
        assert_eq!(resp.latency_ms, net.attempt_cost_ms("news.bd", 0));
        assert_eq!(net.seed(), 7);
        assert_eq!(net.fault_plan(), &FaultPlan::RELIABLE);
    }

    #[test]
    fn reliable_plan_serves_undamaged_bodies() {
        let net = internet();
        let req = Request::new(Url::from_host("news.bd"), Vantage::Cloud);
        let mut body = String::new();
        let meta = net.fetch_into(&req, &mut body).unwrap();
        assert!(!meta.truncated && !meta.garbled);
        assert_eq!(body, test_server("bd").serve(ContentVariant::Global, "/"));
        let m = net.metrics();
        assert_eq!(m.truncated_bodies + m.garbled_bodies + m.server_errors, 0);
        assert_eq!(m.slow_responses, 0);
    }

    #[test]
    fn hosts_in_filters_by_country() {
        let net = internet();
        let mut bd = net.hosts_in(Country::Bangladesh);
        bd.sort_unstable();
        assert_eq!(bd, vec!["news.bd", "paranoid.bd"]);
        assert_eq!(net.hosts_in(Country::Japan).len(), 0);
    }
}
