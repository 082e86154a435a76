//! Corpus assembly: plans + simulated internet.
//!
//! [`Corpus::build`] stands in for "the web as seen from CrUX": for every
//! study country it describes an over-provisioned, rank-ordered candidate
//! list (the paper extends its search to lower-ranked sites when top sites
//! fail the language threshold) and exposes every site to the simulated
//! [`Internet`]. The selection pipeline in `langcrux-core` then walks
//! candidates in rank order exactly as §2 describes: fetch through the
//! country VPN, verify the 50% native-visible-text rule, replace failures
//! with the next candidate.
//!
//! ## Lazy shards
//!
//! Since the zero-alloc generation PR the corpus no longer materialises
//! anything up front. Candidates live in **per-country shards** built on
//! first touch (a crawl worker asking for the candidate list) and bounded
//! by an LRU residency cap ([`CorpusConfig::resident_shards`]), so
//! corpora larger than memory stream through a crawl: an evicted shard is
//! rebuilt on demand, bit-identical, because shard contents are a pure
//! function of `(corpus seed, country)`. The *fetch* path never touches
//! the cache at all — the host resolver re-derives a site's plan straight
//! from its hostname (see `CorpusResolver::plan_for`). Residency is
//! therefore only a cache — site plans, fetch outcomes and
//! `Dataset::to_json` bytes are unchanged at every worker count and every
//! cap (tested). [`Corpus::shard_stats`] exposes the
//! builds/evictions/residency gauges (`peak_live` is the true
//! corpus-memory high-water mark).
//!
//! Page rendering inside the resolver runs through a shared
//! [`ScratchPool`] of render arenas, so steady-state crawling allocates
//! neither corpus memory (beyond resident shards) nor render scratch.

use crate::calibration::rank_quantile;
use crate::page::{render, render_into, PageTruth, ScratchPool};
use crate::site::SitePlan;
use langcrux_lang::{rng, Country};
use langcrux_net::{ContentVariant, FaultPlan, HostResolver, Internet, ResolvedHost};
use serde::Serialize;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Corpus construction parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Workspace seed: same seed ⇒ byte-identical corpus.
    pub seed: u64,
    /// Target number of *qualifying* sites per country (the paper: 10,000;
    /// the default harness: 1,500 for tractable runtimes).
    pub sites_per_country: usize,
    /// Countries to generate.
    pub countries: Vec<Country>,
    /// Fault behaviour of the simulated network.
    pub fault_plan: FaultPlan,
    /// Candidate overprovisioning factor (>1): extra lower-ranked sites
    /// available as replacements for threshold/fetch failures.
    pub overprovision: f64,
    /// Maximum country shards resident in memory at once (LRU-evicted
    /// beyond this); `0` means unbounded. Contents are seed-derived, so a
    /// small cap trades rebuild CPU for memory without changing any
    /// output byte.
    pub resident_shards: usize,
    /// Plant partial-localisation (translation-gap) scenarios: untranslated
    /// chrome, mistagged `lang` subtrees, unmarked English fallback blocks.
    /// Default `false`, under which the corpus is byte-identical to one
    /// built before gap support existed (gap sampling uses dedicated RNG
    /// streams that are never drawn when disabled).
    pub gap_scenarios: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: rng::DEFAULT_SEED,
            sites_per_country: 1_500,
            countries: Country::STUDY.to_vec(),
            fault_plan: FaultPlan::default(),
            overprovision: 1.5,
            resident_shards: 0,
            gap_scenarios: false,
        }
    }
}

impl CorpusConfig {
    /// A small corpus for unit/integration tests.
    pub fn small(seed: u64, sites_per_country: usize) -> Self {
        CorpusConfig {
            seed,
            sites_per_country,
            fault_plan: FaultPlan::RELIABLE,
            ..CorpusConfig::default()
        }
    }

    fn candidates_per_country(&self) -> usize {
        ((self.sites_per_country as f64) * self.overprovision).ceil() as usize
    }
}

/// One country's materialised candidate list.
struct CountryShard {
    /// Rank-ordered plans (best rank first).
    plans: Vec<SitePlan>,
    /// Live-allocation gauge, decremented when the last `Arc` to this
    /// shard drops (`None` for the static empty shard).
    gauge: Option<Arc<LiveShardGauge>>,
}

impl Drop for CountryShard {
    fn drop(&mut self) {
        if let Some(gauge) = &self.gauge {
            gauge.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Rank-ordered candidate plans for one country, leased from the shard
/// cache. Derefs to `[SitePlan]`; holding it pins the shard contents (but
/// not its cache residency — an evicted shard simply rebuilds for the
/// next caller).
pub struct CandidateSet {
    shard: Arc<CountryShard>,
}

impl Deref for CandidateSet {
    type Target = [SitePlan];

    fn deref(&self) -> &[SitePlan] {
        &self.shard.plans
    }
}

/// Residency state of one country slot.
enum Slot {
    /// Another thread is building the shard; wait on the condvar.
    Building,
    Ready {
        shard: Arc<CountryShard>,
        /// LRU tick of the most recent access.
        last_used: u64,
    },
}

struct ShardMap {
    slots: HashMap<Country, Slot>,
    tick: u64,
}

/// Observability counters for the lazy-shard cache (see
/// [`Corpus::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Shard constructions, including rebuilds after eviction.
    pub builds: u64,
    /// Shards dropped by the LRU bound.
    pub evictions: u64,
    /// High-water mark of simultaneously *cache-resident* shards (the
    /// LRU gauge; never exceeds `resident_cap` when bounded).
    pub peak_resident: usize,
    /// Shards resident in the cache right now.
    pub resident: usize,
    /// High-water mark of shard allocations simultaneously **alive** —
    /// the true corpus-memory gauge: peak corpus memory ≈
    /// `peak_live` × the per-country shard size. Counts every shard the
    /// process holds, including evicted ones kept alive by outstanding
    /// [`CandidateSet`] leases or in-flight renders, so it can exceed
    /// `peak_resident` by up to a couple of shards per concurrent
    /// worker (a lease plus a revived rebuild).
    pub peak_live: usize,
    /// Shard allocations alive right now.
    pub live: usize,
    /// The configured bound (0 = unbounded).
    pub resident_cap: usize,
}

impl ShardStats {
    /// Register the shard gauges into the unified metrics registry
    /// (`langcrux_corpus_*` family — see `docs/observability.md`).
    pub fn encode_metrics(&self, enc: &mut langcrux_obs::Encoder) {
        enc.counter(
            "langcrux_corpus_shard_builds_total",
            "Country-shard constructions, including rebuilds after eviction.",
            self.builds as f64,
        );
        enc.counter(
            "langcrux_corpus_shard_evictions_total",
            "Country shards dropped by the LRU bound.",
            self.evictions as f64,
        );
        enc.gauge(
            "langcrux_corpus_shards_resident",
            "Country shards resident in the cache right now.",
            self.resident as f64,
        );
        enc.gauge(
            "langcrux_corpus_shards_resident_peak",
            "High-water mark of cache-resident country shards.",
            self.peak_resident as f64,
        );
        enc.gauge(
            "langcrux_corpus_shards_live",
            "Country-shard allocations alive right now (leases included).",
            self.live as f64,
        );
        enc.gauge(
            "langcrux_corpus_shards_live_peak",
            "High-water mark of simultaneously live shard allocations.",
            self.peak_live as f64,
        );
        enc.gauge(
            "langcrux_corpus_shard_resident_cap",
            "Configured residency bound (0 = unbounded).",
            self.resident_cap as f64,
        );
    }
}

/// The lazy per-country shard cache. Shared between the [`Corpus`] handle
/// and the internet's host resolver.
struct ShardCache {
    seed: u64,
    sites_per_country: usize,
    overprovision: f64,
    countries: Vec<Country>,
    resident_cap: usize,
    gap_scenarios: bool,
    map: Mutex<ShardMap>,
    built: Condvar,
    builds: AtomicU64,
    evictions: AtomicU64,
    peak_resident: AtomicUsize,
    /// Shard allocations alive (incremented on build, decremented by
    /// `CountryShard::drop` when the last `Arc` goes away).
    live: Arc<LiveShardGauge>,
}

/// Exact live-allocation accounting for [`ShardStats::peak_live`].
#[derive(Debug, Default)]
struct LiveShardGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl ShardCache {
    fn new(config: &CorpusConfig) -> Self {
        ShardCache {
            seed: config.seed,
            sites_per_country: config.sites_per_country,
            overprovision: config.overprovision,
            countries: config.countries.clone(),
            resident_cap: config.resident_shards,
            gap_scenarios: config.gap_scenarios,
            map: Mutex::new(ShardMap {
                slots: HashMap::new(),
                tick: 0,
            }),
            built: Condvar::new(),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_resident: AtomicUsize::new(0),
            live: Arc::new(LiveShardGauge::default()),
        }
    }

    fn candidates_per_country(&self) -> usize {
        ((self.sites_per_country as f64) * self.overprovision).ceil() as usize
    }

    /// Get (building or reviving if needed) the shard for `country`.
    fn shard(&self, country: Country) -> Arc<CountryShard> {
        let mut map = self.map.lock().expect("shard map");
        loop {
            map.tick += 1;
            let tick = map.tick;
            match map.slots.get_mut(&country) {
                Some(Slot::Ready { shard, last_used }) => {
                    *last_used = tick;
                    return Arc::clone(shard);
                }
                Some(Slot::Building) => {
                    // Another thread is building this shard; park until it
                    // publishes, then re-check from scratch.
                    map = self.built.wait(map).expect("shard condvar");
                }
                None => break,
            }
        }

        // This thread builds. Mark the slot so concurrent requesters park
        // on the condvar instead of duplicating the work.
        map.slots.insert(country, Slot::Building);
        drop(map);

        // If the build panics, clear the Building marker and wake the
        // waiters (they will retry and one of them becomes the builder) —
        // otherwise a panicking builder would park every other worker
        // asking for this country forever.
        struct BuildGuard<'a> {
            cache: &'a ShardCache,
            country: Country,
            armed: bool,
        }
        impl Drop for BuildGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let mut map = self.cache.map.lock().expect("shard map");
                    map.slots.remove(&self.country);
                    drop(map);
                    self.cache.built.notify_all();
                }
            }
        }
        let mut guard = BuildGuard {
            cache: self,
            country,
            armed: true,
        };

        let shard = Arc::new(self.build_shard(country));
        guard.armed = false;
        self.builds.fetch_add(1, Ordering::Relaxed);

        let mut map = self.map.lock().expect("shard map");
        map.tick += 1;
        let tick = map.tick;
        map.slots.insert(
            country,
            Slot::Ready {
                shard: Arc::clone(&shard),
                last_used: tick,
            },
        );
        self.enforce_cap(&mut map);
        let resident = map
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count();
        self.peak_resident.fetch_max(resident, Ordering::Relaxed);
        drop(map);
        self.built.notify_all();
        shard
    }

    /// Evict least-recently-used Ready shards beyond the cap. The shard
    /// just inserted carries the newest tick, so it survives unless it is
    /// the only one and the cap is zero-but-unbounded (cap 0 = no bound).
    fn enforce_cap(&self, map: &mut ShardMap) {
        if self.resident_cap == 0 {
            return;
        }
        loop {
            let ready: Vec<(Country, u64)> = map
                .slots
                .iter()
                .filter_map(|(c, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*c, *last_used)),
                    Slot::Building => None,
                })
                .collect();
            if ready.len() <= self.resident_cap {
                return;
            }
            let (victim, _) = ready
                .into_iter()
                .min_by_key(|&(_, t)| t)
                .expect("nonempty ready set");
            map.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Materialise one country's candidate list. Pure in
    /// `(seed, country, sites_per_country, overprovision)` — rebuilds are
    /// bit-identical, which is what makes eviction invisible downstream.
    fn build_shard(&self, country: Country) -> CountryShard {
        // Deterministic span count only with an unbounded cache
        // (`resident_shards: 0`, the default): LRU rebuild counts depend
        // on eviction interleaving — see langcrux_obs::trace docs.
        let _shard_span = langcrux_obs::trace::span(
            "corpus.shard_build",
            langcrux_obs::trace::key_str(country.code()),
        );
        let n = self.candidates_per_country();
        // The paper walks CrUX ranks downward until the quota of
        // *qualifying* sites is filled; the Figure 7 rank distribution is
        // therefore a property of the selected population. Candidate ranks
        // are assigned as order statistics of the country's rank model over
        // the expected selection depth (quota inflated by the ~12%
        // disqualification rate), so the walk's output reproduces the
        // calibrated distribution; overprovisioned spares extend past the
        // model's maximum.
        let expected_depth = (self.sites_per_country as f64 / 0.86).ceil();
        let mut plans = Vec::with_capacity(n);
        for index in 0..n as u32 {
            let mut plan =
                SitePlan::build_gapped(self.seed, country, index, None, self.gap_scenarios);
            let u = (f64::from(index) + 0.5) / expected_depth;
            plan.rank = if u <= 1.0 {
                rank_quantile(country, u)
            } else {
                // Spares live beyond the modelled range.
                (rank_quantile(country, 1.0) as f64 * u).round() as u64
            };
            plans.push(plan);
        }
        // CrUX presents sites by rank: best (lowest) rank first.
        plans.sort_by(|a, b| (a.rank, a.host.as_str()).cmp(&(b.rank, b.host.as_str())));
        let live = self.live.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.live.peak.fetch_max(live, Ordering::Relaxed);
        CountryShard {
            plans,
            gauge: Some(Arc::clone(&self.live)),
        }
    }

    fn stats(&self) -> ShardStats {
        let resident = {
            let map = self.map.lock().expect("shard map");
            map.slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count()
        };
        ShardStats {
            builds: self.builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            peak_resident: self.peak_resident.load(Ordering::Relaxed),
            resident,
            peak_live: self.live.peak.load(Ordering::Relaxed),
            live: self.live.live.load(Ordering::Relaxed),
            resident_cap: self.resident_cap,
        }
    }
}

/// The lazy host registry the corpus installs on its [`Internet`]: derives
/// the country from the hostname's TLD, revives the country shard, and
/// renders pages through the shared render-arena pool.
struct CorpusResolver {
    shards: Arc<ShardCache>,
    scratch: ScratchPool,
}

impl CorpusResolver {
    fn country_of(&self, host: &str) -> Option<Country> {
        let tld = host.rsplit('.').next()?;
        self.shards
            .countries
            .iter()
            .copied()
            .find(|c| c.tld() == tld)
    }

    /// Re-derive the site plan straight from the hostname, **without
    /// touching the shard cache**: hostnames embed their construction
    /// index (`{stem}-{index}.{tld}`), plans are pure in
    /// `(seed, country, index)`, and rendering never reads the
    /// shard-assigned rank. This keeps the fetch path entirely off the
    /// shard-map mutex — negative lookups (typo'd hosts, `knows`,
    /// `host_count` overlap scans) cannot build, touch, or evict a
    /// shard, and a fetch costs one cheap plan sample instead of a
    /// cache round-trip: a fetch calls this twice (`resolve`, then
    /// `serve_into`), so the second call is answered by a per-thread
    /// one-entry memo keyed by `(seed, host)`. The stem check
    /// (`plan.host == host`) rejects names whose archetype does not
    /// match the sampled one.
    fn plan_for(&self, host: &str) -> Option<SitePlan> {
        thread_local! {
            /// `(seed, candidate bound, gap flag, plan)` of the most
            /// recent derivation on this thread. Plans are pure in
            /// `(seed, gap flag, host)`; the bound keys the memo so a
            /// same-seed corpus with a smaller candidate range still
            /// rejects out-of-range indices.
            static LAST_PLAN: std::cell::RefCell<Option<(u64, usize, bool, SitePlan)>> =
                const { std::cell::RefCell::new(None) };
        }
        let seed = self.shards.seed;
        let bound = self.shards.candidates_per_country();
        let gaps = self.shards.gap_scenarios;
        let memoized = LAST_PLAN.with(|memo| {
            memo.borrow()
                .as_ref()
                .filter(|(s, b, g, plan)| {
                    *s == seed && *b == bound && *g == gaps && plan.host == host
                })
                .map(|(_, _, _, plan)| plan.clone())
        });
        if let Some(plan) = memoized {
            return Some(plan);
        }
        let country = self.country_of(host)?;
        let name = host.strip_suffix(country.tld())?.strip_suffix('.')?;
        let index: u32 = name.rsplit('-').next()?.parse().ok()?;
        if index as usize >= bound {
            return None;
        }
        let plan = SitePlan::build_gapped(seed, country, index, None, gaps);
        if plan.host != host {
            return None;
        }
        LAST_PLAN.with(|memo| *memo.borrow_mut() = Some((seed, bound, gaps, plan.clone())));
        Some(plan)
    }
}

impl HostResolver for CorpusResolver {
    fn resolve(&self, host: &str) -> Option<ResolvedHost> {
        let plan = self.plan_for(host)?;
        Some(ResolvedHost {
            country: plan.country,
            vpn_detecting: plan.vpn_detecting,
            geo_block: plan.geo_block,
        })
    }

    fn serve_into(&self, host: &str, variant: ContentVariant, path: &str, out: &mut String) {
        let plan = self
            .plan_for(host)
            .expect("serve_into on unresolvable host");
        self.scratch.with(|scratch| {
            render_into(&plan, variant, path, scratch, out);
        });
    }

    fn host_count(&self) -> usize {
        self.shards.candidates_per_country() * self.shards.countries.len()
    }
}

/// The generated corpus: lazily sharded rank-ordered candidates per
/// country plus the simulated internet that serves them.
pub struct Corpus {
    config: CorpusConfig,
    internet: Internet,
    shards: Arc<ShardCache>,
}

impl Corpus {
    /// Build the corpus handle. O(1): no shard is materialised until a
    /// candidate list is requested or one of its hosts is fetched.
    pub fn build(config: CorpusConfig) -> Corpus {
        let shards = Arc::new(ShardCache::new(&config));
        let mut internet = Internet::new(config.seed, config.fault_plan);
        internet.set_resolver(Box::new(CorpusResolver {
            shards: Arc::clone(&shards),
            scratch: ScratchPool::new(),
        }));
        Corpus {
            config,
            internet,
            shards,
        }
    }

    /// Build the corpus with every country shard materialised up front and
    /// no residency bound — the pre-lazy behaviour. The candidate lists
    /// and every served byte are identical to the lazy corpus (tested);
    /// only the memory/latency profile differs.
    pub fn build_eager(mut config: CorpusConfig) -> Corpus {
        config.resident_shards = 0;
        let corpus = Corpus::build(config);
        for country in corpus.config.countries.clone() {
            let _ = corpus.shards.shard(country);
        }
        corpus
    }

    /// The simulated internet serving this corpus.
    pub fn internet(&self) -> &Internet {
        &self.internet
    }

    /// The build configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Rank-ordered candidate plans for a country (building or reviving
    /// its shard on demand).
    pub fn candidates(&self, country: Country) -> CandidateSet {
        if !self.config.countries.contains(&country) {
            static EMPTY: OnceShard = OnceShard::new();
            return CandidateSet { shard: EMPTY.get() };
        }
        CandidateSet {
            shard: self.shards.shard(country),
        }
    }

    /// Countries present in the corpus.
    pub fn countries(&self) -> impl Iterator<Item = Country> + '_ {
        self.config.countries.iter().copied()
    }

    /// Ground truth of what a given plan plants for a variant (renders the
    /// page and discards the HTML).
    pub fn truth_for(plan: &SitePlan, variant: ContentVariant) -> PageTruth {
        render(plan, variant, "/").1
    }

    /// Total candidate count across all countries (no materialisation —
    /// candidate counts are config-derived).
    pub fn total_candidates(&self) -> usize {
        self.config.candidates_per_country() * self.config.countries.len()
    }

    /// Lazy-shard cache gauges: builds (including rebuilds after
    /// eviction), evictions, and the peak/resident shard counts that bound
    /// corpus memory.
    pub fn shard_stats(&self) -> ShardStats {
        self.shards.stats()
    }
}

/// A lazily initialised empty shard for out-of-corpus countries.
struct OnceShard {
    cell: std::sync::OnceLock<Arc<CountryShard>>,
}

impl OnceShard {
    const fn new() -> Self {
        OnceShard {
            cell: std::sync::OnceLock::new(),
        }
    }

    fn get(&self) -> Arc<CountryShard> {
        Arc::clone(self.cell.get_or_init(|| {
            Arc::new(CountryShard {
                plans: Vec::new(),
                gauge: None,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_net::{vpn_vantage, FetchError, FetchMeta, Request, Url};

    /// One fetch into a fresh buffer: the response metadata and body.
    fn fetch(net: &Internet, req: &Request) -> Result<(FetchMeta, String), FetchError> {
        let mut body = String::new();
        net.fetch_into(req, &mut body).map(|meta| (meta, body))
    }

    fn small() -> Corpus {
        Corpus::build(CorpusConfig::small(77, 30))
    }

    #[test]
    fn builds_overprovisioned_rank_ordered_lists() {
        let corpus = small();
        for country in Country::STUDY {
            let c = corpus.candidates(country);
            assert_eq!(c.len(), 45, "{country:?}"); // ceil(30 * 1.5)
            for w in c.windows(2) {
                assert!(w[0].rank <= w[1].rank);
            }
        }
        assert_eq!(corpus.total_candidates(), 45 * 12);
        assert_eq!(corpus.internet().host_count(), 45 * 12);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        for country in Country::STUDY {
            let ca = a.candidates(country);
            let cb = b.candidates(country);
            let ha: Vec<&str> = ca.iter().map(|p| p.host.as_str()).collect();
            let hb: Vec<&str> = cb.iter().map(|p| p.host.as_str()).collect();
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn lazy_matches_eager() {
        let lazy = Corpus::build(CorpusConfig::small(77, 20));
        let eager = Corpus::build_eager(CorpusConfig::small(77, 20));
        assert_eq!(eager.shard_stats().builds, 12, "eager prefetches all");
        for country in Country::STUDY {
            let cl = lazy.candidates(country);
            let ce = eager.candidates(country);
            assert_eq!(cl.len(), ce.len());
            for (a, b) in cl.iter().zip(ce.iter()) {
                assert_eq!(a.host, b.host);
                assert_eq!(a.rank, b.rank);
                assert_eq!(a.seed, b.seed);
            }
        }
    }

    #[test]
    fn shards_build_lazily_and_evict_by_lru() {
        let corpus = Corpus::build(CorpusConfig {
            resident_shards: 2,
            ..CorpusConfig::small(5, 8)
        });
        assert_eq!(corpus.shard_stats().builds, 0, "no shard before first use");
        let _ = corpus.candidates(Country::Japan);
        let _ = corpus.candidates(Country::Thailand);
        let stats = corpus.shard_stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.evictions, 0);
        // A third country evicts the LRU (Japan) …
        let _ = corpus.candidates(Country::Greece);
        let stats = corpus.shard_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.peak_resident, 2, "cap respected at all times");
        // … and touching Japan again rebuilds it bit-identically.
        let eager = Corpus::build_eager(CorpusConfig::small(5, 8));
        let revived = corpus.candidates(Country::Japan);
        let expect = eager.candidates(Country::Japan);
        assert_eq!(corpus.shard_stats().builds, 4);
        for (a, b) in revived.iter().zip(expect.iter()) {
            assert_eq!(a.host, b.host);
            assert_eq!(a.rank, b.rank);
        }
        // Live-gauge accounting: the `revived` lease shares the resident
        // Japan allocation (2 alive in total), and the build-then-evict
        // transitions transiently held a third shard.
        let stats = corpus.shard_stats();
        assert_eq!(
            stats.live, 2,
            "leases to resident shards share the allocation"
        );
        assert!(stats.peak_live >= 3, "build+evict transient not recorded");
    }

    #[test]
    fn live_gauge_counts_leases_beyond_the_resident_cap() {
        // A lease pins an evicted shard: the cache gauge stays at the
        // cap while the live gauge shows the extra allocation — the
        // honest corpus-memory number.
        let corpus = Corpus::build(CorpusConfig {
            resident_shards: 1,
            ..CorpusConfig::small(9, 5)
        });
        let held = corpus.candidates(Country::Japan);
        let _ = corpus.candidates(Country::Greece); // evicts Japan
        let stats = corpus.shard_stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.peak_resident, 1);
        assert_eq!(stats.live, 2, "evicted-but-leased shard stays alive");
        assert_eq!(stats.peak_live, 2);
        assert_eq!(held.len(), corpus.candidates(Country::Japan).len());
        drop(held);
        assert_eq!(corpus.shard_stats().live, 1);
    }

    #[test]
    fn fetches_bypass_the_shard_cache_and_serve_identical_bytes() {
        // The fetch path derives plans straight from the hostname, so
        // serving bytes is independent of residency caps — and costs no
        // shard materialisation at all.
        let tight = Corpus::build(CorpusConfig {
            resident_shards: 1,
            ..CorpusConfig::small(31, 6)
        });
        let roomy = Corpus::build(CorpusConfig::small(31, 6));
        for country in [Country::Japan, Country::Greece, Country::Japan] {
            let vantage = vpn_vantage(country).unwrap();
            let candidates = roomy.candidates(country);
            for plan in candidates.iter().take(3) {
                let req = Request::new(Url::from_host(&plan.host), vantage);
                let (a, a_body) = fetch(tight.internet(), &req).unwrap();
                let (b, b_body) = fetch(roomy.internet(), &req).unwrap();
                assert_eq!(a.variant, b.variant, "{}", plan.host);
                assert_eq!(a_body, b_body, "{}", plan.host);
            }
        }
        assert_eq!(
            tight.shard_stats().builds,
            0,
            "fetching must not build shards (plans re-derive from hostnames)"
        );
    }

    #[test]
    fn sites_are_fetchable_through_vpn() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Thailand);
        let plan = &candidates[0];
        let vantage = vpn_vantage(Country::Thailand).unwrap();
        let req = Request::new(Url::from_host(&plan.host), vantage);
        let (resp, body) = fetch(corpus.internet(), &req).unwrap();
        assert_eq!(resp.variant, ContentVariant::Localized);
        assert!(body.contains("<!DOCTYPE html>"));
    }

    #[test]
    fn served_body_matches_direct_render() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Greece);
        let plan = &candidates[3];
        let vantage = vpn_vantage(Country::Greece).unwrap();
        let req = Request::new(Url::from_host(&plan.host), vantage);
        let (_, body) = fetch(corpus.internet(), &req).unwrap();
        let (direct, _) = render(plan, ContentVariant::Localized, "/");
        assert_eq!(body, direct);
    }

    #[test]
    fn unknown_hosts_do_not_resolve() {
        let corpus = small();
        assert!(!corpus.internet().knows("no-such-site.jp"));
        assert!(!corpus.internet().knows("sangbad-0.zz"));
        let req = Request::new(
            Url::from_host("no-such-site.jp"),
            vpn_vantage(Country::Japan).unwrap(),
        );
        assert!(fetch(corpus.internet(), &req).is_err());
    }

    #[test]
    fn truth_for_reports_planted_elements() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Israel);
        let plan = &candidates[0];
        let truth = Corpus::truth_for(plan, ContentVariant::Localized);
        use langcrux_lang::a11y::ElementKind;
        assert!(truth.kind(ElementKind::LinkName).total >= 25);
        assert!(truth.kind(ElementKind::ImageAlt).total >= 6);
    }

    #[test]
    fn most_candidates_qualify() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Egypt);
        let qualifying = candidates.iter().filter(|p| p.designed_qualifying).count();
        let total = candidates.len();
        assert!(qualifying as f64 / total as f64 > 0.75);
        assert!(qualifying < total, "some must fail to exercise replacement");
    }
}
