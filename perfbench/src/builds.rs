//! The build workloads. One op turns the corpus into the bytes `repro`
//! writes: `build_dataset_with_ledger` with one worker per core, then
//! `Dataset::to_json` and `CrawlLedger::to_json`, at Quick scale
//! (120 sites × 12 countries = 1,440 records).

use crate::alloc::counted;
use crate::cli::Workload;
use crate::measure::{
    fnv1a64, median, ms, peak_rss_bytes, process_cpu, quantile, tail_quantile, us,
};
use crate::report::{metric, Outcome, Row, Rows};
use crate::spans::Tracer;
use langcrux_audit::{audit_page, gap_report};
use langcrux_core::selection::NATIVE_CONTENT_THRESHOLD_PCT;
use langcrux_core::{build_dataset_with_ledger, CrawlLedger, Dataset, PipelineOptions};
use langcrux_crawl::pool::default_threads;
use langcrux_crawl::{extract_streaming, Browser, BrowserConfig, PageExtract};
use langcrux_filter::classify;
use langcrux_html::tokenizer::{tokenize_into, Attribute, TokenSink};
use langcrux_kizuki::{page_language, Kizuki, ScreenReader};
use langcrux_lang::rng::{derive, DEFAULT_SEED};
use langcrux_langid::{classify_label, composition_of_histogram};
use langcrux_net::{vpn_vantage, ContentVariant, FaultPlan, NetMetrics, Request, Url};
use langcrux_webgen::{render_into, Corpus, CorpusConfig, RenderScratch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sites per country at Quick scale.
pub const QUICK_SITES: usize = 120;
/// Corpora per run. One corpus's cost hinges on the few very long alt
/// texts it happens to hold (a single 136,000-character text adds about
/// 170 ms to a Quick op), so a run measures several corpora drawn from
/// its seed and reports the median over them.
pub const CORPORA: usize = 5;

/// FNV-1a digests of one op's dataset and ledger bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub dataset: u64,
    pub ledger: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct BuildWorkload {
    pub name: &'static str,
    pub plan: FaultPlan,
    pub gaps: bool,
    /// The op's digests at the workspace default seed and Quick scale,
    /// pinned from the program this benchmark was written against.
    pub pinned: Digest,
}

pub fn workload(w: Workload) -> BuildWorkload {
    match w {
        Workload::BuildReliable => BuildWorkload {
            name: w.name(),
            plan: FaultPlan::RELIABLE,
            gaps: false,
            pinned: Digest {
                dataset: 0x76c3_bf3e_b7c0_cde0,
                ledger: 0xf1f3_d4a3_3578_77d5,
            },
        },
        Workload::BuildHostileGaps => BuildWorkload {
            name: w.name(),
            plan: FaultPlan::HOSTILE,
            gaps: true,
            pinned: Digest {
                dataset: 0xeca5_ca32_2f84_0d73,
                ledger: 0x7508_ffaa_0972_56e3,
            },
        },
        Workload::ServeMixed => panic!("serve-mixed is not a build workload"),
    }
}

/// A corpus handle (O(1): no shard is built yet).
fn corpus(w: &BuildWorkload, seed: u64, sites: usize) -> Corpus {
    Corpus::build(CorpusConfig {
        seed,
        sites_per_country: sites,
        fault_plan: w.plan,
        gap_scenarios: w.gaps,
        ..CorpusConfig::default()
    })
}

/// Corpus construction plus all 12 country shards.
fn set_up(w: &BuildWorkload, seed: u64, sites: usize) -> Corpus {
    let corpus = corpus(w, seed, sites);
    for country in corpus.countries().collect::<Vec<_>>() {
        black_box(corpus.candidates(country).len());
    }
    corpus
}

fn options(sites: usize, threads: usize) -> PipelineOptions {
    PipelineOptions {
        quota: sites,
        threads,
        ..PipelineOptions::default()
    }
}

/// The bytes one op produces.
pub struct OpBytes {
    pub dataset: String,
    pub ledger: String,
    pub records: usize,
}

impl OpBytes {
    fn new(dataset: &Dataset, ledger: &CrawlLedger) -> OpBytes {
        OpBytes {
            dataset: dataset.to_json().expect("dataset serializes"),
            ledger: ledger.to_json().expect("crawl ledger serializes"),
            records: dataset.records.len(),
        }
    }

    pub fn digest(&self) -> Digest {
        Digest {
            dataset: fnv1a64(self.dataset.as_bytes()),
            ledger: fnv1a64(self.ledger.as_bytes()),
        }
    }
}

/// One op; `threads` 0 means one worker per core.
pub fn op(corpus: &Corpus, sites: usize, threads: usize) -> OpBytes {
    let (dataset, ledger) = build_dataset_with_ledger(corpus, options(sites, threads));
    OpBytes::new(&dataset, &ledger)
}

/// The expected digests: pinned at the default seed and Quick scale;
/// elsewhere the first op's, so every later op must match it.
pub struct Oracle {
    expected: Option<Digest>,
}

impl Oracle {
    fn for_run(w: &BuildWorkload, seed: u64, sites: usize) -> Oracle {
        let pinned = seed == DEFAULT_SEED && sites == QUICK_SITES;
        Oracle {
            expected: pinned.then_some(w.pinned),
        }
    }

    /// An oracle expecting `digest`, right or wrong.
    pub fn expecting(digest: Digest) -> Oracle {
        Oracle {
            expected: Some(digest),
        }
    }

    pub fn check(&mut self, got: Digest) -> bool {
        match self.expected {
            Some(expected) => expected == got,
            None => {
                self.expected = Some(got);
                true
            }
        }
    }
}

/// The workspace seed of corpus `k` of a run: the run's own seed for the
/// first, so the pinned digests apply at the default seed.
fn corpus_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        derive(seed, &[0xC0_9905, k as u64])
    }
}

/// A run's corpora, each set up once: construction, all 12 shards and
/// one warm-up op, which its oracle checks.
pub struct Corpora {
    corpora: Vec<Corpus>,
    oracles: Vec<Oracle>,
    /// Set-up time of each corpus, in seconds.
    pub setup_s: Vec<f64>,
    pub setup_ok: bool,
}

impl Corpora {
    pub fn set_up(w: &BuildWorkload, seed: u64, sites: usize, count: usize) -> Corpora {
        let mut all = Corpora {
            corpora: Vec::with_capacity(count),
            oracles: Vec::with_capacity(count),
            setup_s: Vec::with_capacity(count),
            setup_ok: true,
        };
        for k in 0..count.max(1) {
            let corpus_seed = corpus_seed(seed, k);
            let mut oracle = Oracle::for_run(w, corpus_seed, sites);
            let started = Instant::now();
            let corpus = set_up(w, corpus_seed, sites);
            let warm = op(&corpus, sites, 0);
            all.setup_s.push(started.elapsed().as_secs_f64());
            all.setup_ok &= oracle.check(warm.digest());
            all.corpora.push(corpus);
            all.oracles.push(oracle);
        }
        all
    }

    /// Replace one corpus's oracle (the tests corrupt it).
    pub fn set_oracle(&mut self, k: usize, oracle: Oracle) {
        self.oracles[k] = oracle;
    }

    /// Check an op's digests against corpus `k`'s oracle.
    pub fn check(&mut self, k: usize, digest: Digest) -> bool {
        self.oracles[k].check(digest)
    }
}

/// One corpus's op samples.
#[derive(Default)]
struct PerCorpus {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    ok_records: usize,
    busy: Duration,
}

/// The ops of a run, kept per corpus.
pub struct Samples {
    per: Vec<PerCorpus>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run ops back to back for `seconds`, taking the corpora in turn, and
/// check each op's bytes against its corpus's oracle.
pub fn sample(
    corpora: &mut Corpora,
    seconds: Duration,
    mut run_op: impl FnMut(usize, &Corpus) -> OpBytes,
) -> Samples {
    let count = corpora.corpora.len();
    let mut samples = Samples {
        per: (0..count).map(|_| PerCorpus::default()).collect(),
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    let mut i = 0;
    while i < count || started.elapsed() < seconds {
        let k = i % count;
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let bytes = run_op(k, &corpora.corpora[k]);
        let wall = t0.elapsed();
        let cpu = process_cpu() - cpu0;
        let per = &mut samples.per[k];
        per.wall_ms.push(ms(wall));
        per.cpu_ms.push(ms(cpu));
        per.busy += wall;
        if corpora.check(k, bytes.digest()) {
            per.ok_records += bytes.records;
        } else {
            samples.failed += 1;
        }
        samples.attempted += 1;
        i += 1;
    }
    samples
}

impl Samples {
    /// The median over corpora of a per-corpus statistic.
    fn across(&self, stat: impl Fn(&PerCorpus) -> f64) -> f64 {
        median(&self.per.iter().map(stat).collect::<Vec<_>>())
    }

    pub fn op_p50_ms(&self) -> f64 {
        self.across(|c| median(&c.wall_ms))
    }

    /// Every end-to-end metric: each timing statistic is taken per corpus,
    /// and the run reports its median over the corpora.
    pub fn outcome(&self, name: &str, setup_s: &[f64], correct: bool) -> Outcome {
        let per_corpus = self.per.iter().map(|c| c.wall_ms.len()).min().unwrap_or(0);
        let (q, label) = tail_quantile(per_corpus);
        eprintln!(
            "{name}: {} ops over {} corpora ({per_corpus}+ each); op_tail_ms is the median over \
             corpora of each corpus's {label}; set-ups {setup_s:?} s",
            self.attempted,
            self.per.len(),
        );
        let rss = peak_rss_bytes(std::process::id()).expect("read own VmHWM");
        Outcome {
            correct: correct && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                metric("setup_s", median(setup_s), "s"),
                metric("op_p50_ms", self.op_p50_ms(), "ms"),
                metric("op_tail_ms", self.across(|c| quantile(&c.wall_ms, q)), "ms"),
                metric(
                    "goodput_per_s",
                    self.across(|c| c.ok_records as f64 / c.busy.as_secs_f64()),
                    "1/s",
                ),
                metric("cpu_ms_per_op", self.across(|c| median(&c.cpu_ms)), "ms"),
                metric("peak_rss_mb", rss as f64 / (1024.0 * 1024.0), "MiB"),
                metric(
                    "ok_share",
                    (self.attempted - self.failed) as f64 / self.attempted as f64,
                    "ratio",
                ),
            ],
        }
    }
}

/// The timed run: set up the run's corpora, then ops for `seconds`.
pub fn run_timed(
    w: &BuildWorkload,
    seed: u64,
    sites: usize,
    seconds: Duration,
    corpora: usize,
) -> Outcome {
    let mut corpora = Corpora::set_up(w, seed, sites, corpora);
    let samples = sample(&mut corpora, seconds, |_, corpus| op(corpus, sites, 0));
    samples.outcome(w.name, &corpora.setup_s, corpora.setup_ok)
}

/// A token sink that only touches what it is handed, so
/// `tokenize_into` is timed on its own.
struct NoopSink;

impl TokenSink for NoopSink {
    fn start_tag(&mut self, name: &str, attrs: &mut Vec<Attribute>, self_closing: bool) {
        black_box((name, attrs.len(), self_closing));
    }

    fn end_tag(&mut self, name: &str) {
        black_box(name);
    }

    fn text(&mut self, raw: &str, decode_entities: bool) {
        black_box((raw, decode_entities));
    }
}

/// Per-page layer work of one fetched body, shared by the build replay
/// and the serve decomposition: tokenize with a no-op sink, then the
/// streaming extract the crawler runs.
pub(crate) fn tokenize_and_extract(
    tracer: &mut Tracer,
    body: &str,
    allocs: &mut u64,
) -> PageExtract {
    tracer.time("html.tokenize_into", || tokenize_into(body, &mut NoopSink));
    let ((extract, counted_allocs), _) = tracer.time("crawl.extract_streaming", || {
        counted(|| extract_streaming(body))
    });
    *allocs += counted_allocs;
    extract
}

/// Element-level analysis of one page: `filter::classify` and
/// `classify_label` over every present element. Returns how many there
/// were.
pub(crate) fn classify_elements(
    tracer: &mut Tracer,
    extract: &PageExtract,
    native: langcrux_lang::Language,
) -> u64 {
    let texts: Vec<&str> = extract
        .elements
        .iter()
        .filter_map(|e| e.content())
        .collect();
    tracer.time("filter.classify", || {
        for text in &texts {
            black_box(classify(text));
        }
    });
    tracer.time("langid.classify_label", || {
        for text in &texts {
            black_box(classify_label(text, native));
        }
    });
    texts.len() as u64
}

/// Exact counts of the single-threaded replay.
#[derive(Debug, Default)]
struct ReplayCounts {
    visits: u64,
    attempts: u64,
    requests: u64,
    faults: u64,
    /// Final fetches that answered, each rendered once.
    fetched: u64,
    /// Of those, the pages the browser extracted.
    pages: u64,
    bytes: u64,
    render_allocs: u64,
    extract_allocs: u64,
    fetch_ok: Duration,
    selected: u64,
    elements: u64,
    gap_regions: u64,
    selected_hosts: Vec<String>,
}

/// Faults the fault plan injected into `after − before`: timeouts,
/// resets, 5xx answers, and truncated or garbled bodies. (VPN detection
/// and geo-blocking are the sites' own policies, not network faults.)
fn injected_faults(after: &NetMetrics, before: &NetMetrics) -> (u64, u64) {
    let faults = |m: &NetMetrics| {
        m.timeouts + m.resets + m.server_errors + m.truncated_bodies + m.garbled_bodies
    };
    (
        faults(after) - faults(before),
        after.requests - before.requests,
    )
}

/// Replay one op's work on this thread through the layers' public
/// functions, with a span around each call.
///
/// Candidates are probed in the pipeline's windows (the outstanding need
/// plus `need / 7 + 8`, per country), so the replay visits exactly the
/// candidates the op visits; the rank-order walk then keeps the first
/// `sites` qualifiers, and those are analysed as `process_site` does.
/// Each visit goes through `Browser::visit_traced` on the op's corpus;
/// its final fetch is then repeated on a second corpus of the same seed
/// (so the first one's `Internet::metrics()` count only the op's
/// requests) and split into `fetch_into`, `render_into`, `tokenize_into`
/// and `extract_streaming`.
fn replay(w: &BuildWorkload, seed: u64, sites: usize, tracer: &mut Tracer) -> ReplayCounts {
    let shadow = corpus(w, seed, sites);
    let corpus = set_up(w, seed, sites);
    let net_before = corpus.internet().metrics();
    let mut browser = Browser::new(corpus.internet(), BrowserConfig::default());
    let mut scratch = RenderScratch::new();
    let (mut body, mut rendered) = (String::new(), String::new());
    let kizuki = Kizuki::standard();
    let reader = ScreenReader::voiceover_like();
    let mut counts = ReplayCounts::default();

    let op_span = tracer.enter("replay.op");
    for country in corpus.countries().collect::<Vec<_>>() {
        let country_span = tracer.enter("replay.country");
        let candidates = corpus.candidates(country);
        let vantage = vpn_vantage(country).expect("every study country has a VPN vantage");
        let native = country.target_language();
        let mut verdicts: Vec<Option<(String, PageExtract)>> = Vec::new();
        let mut qualified = 0usize;
        while qualified < sites && verdicts.len() < candidates.len() {
            let need = sites - qualified;
            let window = (need + need / 7 + 8).min(candidates.len() - verdicts.len());
            let start = verdicts.len();
            for plan in &candidates[start..start + window] {
                let probe_span = tracer.enter("replay.probe");
                let url = Url::from_host(&plan.host);
                let ((result, trace), _) =
                    tracer.time("crawl.visit_traced", || browser.visit_traced(&url, vantage));
                counts.visits += 1;
                counts.attempts += u64::from(trace.attempts);

                let mut request = Request::new(url, vantage);
                for _ in 1..trace.attempts {
                    request = request.retry();
                }
                let (fetched, fetch_took) = tracer.time("net.fetch_into", || {
                    shadow.internet().fetch_into(&request, &mut body)
                });
                if let Ok(meta) = fetched {
                    counts.fetched += 1;
                    counts.fetch_ok += fetch_took;
                    let ((_, allocs), _) = tracer.time("webgen.render_into", || {
                        counted(|| {
                            render_into(plan, meta.variant, "/", &mut scratch, &mut rendered)
                        })
                    });
                    counts.render_allocs += allocs;
                    // The browser extracts every page but a bot wall.
                    if meta.variant != ContentVariant::Restricted {
                        counts.pages += 1;
                        counts.bytes += body.len() as u64;
                        black_box(tokenize_and_extract(
                            tracer,
                            &body,
                            &mut counts.extract_allocs,
                        ));
                    }
                }

                let verdict = match result {
                    Ok(visit) => {
                        let (qualifies, _) = tracer.time("langid.composition", || {
                            let comp =
                                composition_of_histogram(&visit.extract.visible_hist, native);
                            comp.has_evidence() && comp.native_pct >= NATIVE_CONTENT_THRESHOLD_PCT
                        });
                        qualifies.then(|| (plan.host.clone(), visit.extract))
                    }
                    Err(_) => None,
                };
                qualified += usize::from(verdict.is_some());
                verdicts.push(verdict);
                tracer.exit(probe_span);
            }
        }

        for (host, extract) in verdicts.into_iter().flatten().take(sites) {
            let site_span = tracer.enter("replay.analyze_site");
            counts.elements += classify_elements(tracer, &extract, native);
            let (base, _) = tracer.time("audit.audit_page", || audit_page(&extract));
            tracer.time("kizuki.evaluate", || {
                black_box(kizuki.evaluate(&extract, &base))
            });
            if w.gaps {
                let (report, _) = tracer.time("audit.gap_report", || gap_report(&extract));
                counts.gap_regions += report.regions.len() as u64;
                if !report.is_clean() {
                    tracer.time("kizuki.speech", || {
                        black_box(reader.gap_speech(&report, page_language(&extract)))
                    });
                }
            }
            counts.selected += 1;
            counts.selected_hosts.push(host);
            tracer.exit(site_span);
        }
        tracer.exit(country_span);
    }
    tracer.exit(op_span);
    (counts.faults, counts.requests) = injected_faults(&corpus.internet().metrics(), &net_before);
    counts
}

/// What the traced run of a build workload measured.
pub struct Traced {
    pub rows: Vec<Row>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run: the same op with spans and the counting allocator,
/// the op at 1 worker and at one per core, and the single-threaded
/// replay. `reference_op_p50_ms` is the timed run's median op.
pub fn run_traced(
    w: &BuildWorkload,
    seed: u64,
    sites: usize,
    seconds: Duration,
    reference_op_p50_ms: f64,
    tracer: &mut Tracer,
) -> Traced {
    let mut corpora = Corpora::set_up(w, seed, sites, CORPORA);
    let shards_before: Vec<u64> = corpora
        .corpora
        .iter()
        .map(|c| c.shard_stats().builds)
        .collect();

    // Traced ops, exactly as the timed run takes them. Corpus 0 is the
    // one the replay below decomposes, so its op is broken down here too.
    let (mut build_ms, mut serde_ms) = (Vec::new(), Vec::new());
    let mut serde_allocs = None;
    let mut dataset_hosts = Vec::new();
    let mut op_id = 0;
    let samples = sample(&mut corpora, seconds, |k, corpus| {
        op_id += 1;
        tracer.set_op(op_id);
        let op_span = tracer.enter("op");
        let ((dataset, ledger), build_took) = tracer.time("core.build_dataset_with_ledger", || {
            build_dataset_with_ledger(corpus, options(sites, 0))
        });
        let ((dataset_json, dataset_allocs), dataset_took) = tracer
            .time("serde_json.dataset_to_json", || {
                counted(|| dataset.to_json())
            });
        let ((ledger_json, ledger_allocs), ledger_took) =
            tracer.time("serde_json.ledger_to_json", || counted(|| ledger.to_json()));
        tracer.exit(op_span);
        if k == 0 {
            build_ms.push(ms(build_took));
            serde_ms.push(ms(dataset_took + ledger_took));
            if serde_allocs.is_none() {
                serde_allocs = Some(dataset_allocs + ledger_allocs);
                dataset_hosts = dataset.records.iter().map(|r| r.host.clone()).collect();
            }
        }
        OpBytes {
            dataset: dataset_json.expect("dataset serializes"),
            ledger: ledger_json.expect("crawl ledger serializes"),
            records: dataset.records.len(),
        }
    });
    tracer.set_op(0);
    let shard_builds: u64 = corpora
        .corpora
        .iter()
        .zip(&shards_before)
        .map(|(c, before)| c.shard_stats().builds - before)
        .sum();
    let shard_builds_per_op = shard_builds as f64 / samples.attempted as f64;
    let setup_shards = shards_before[0];
    let mut failed = samples.failed;

    // Corpus 0's op at one worker and at one per core, alternated.
    let threads = default_threads();
    let (mut one, mut all) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (workers, out) in [(1, &mut one), (threads, &mut all)] {
            let cpu0 = process_cpu();
            let t0 = Instant::now();
            let bytes = op(&corpora.corpora[0], sites, workers);
            out.push((t0.elapsed(), process_cpu() - cpu0));
            failed += u64::from(!corpora.check(0, bytes.digest()));
        }
    }
    let mid = |v: &[(Duration, Duration)], pick: fn(&(Duration, Duration)) -> Duration| {
        median(&v.iter().map(|x| ms(pick(x))).collect::<Vec<_>>())
    };
    let (wall_one, cpu_one) = (mid(&one, |x| x.0), mid(&one, |x| x.1));
    let (wall_all, cpu_all) = (mid(&all, |x| x.0), mid(&all, |x| x.1));
    let setup_ok = corpora.setup_ok;
    drop(corpora);

    let counts = replay(w, seed, sites, tracer);
    let replay_faithful = counts.selected_hosts == dataset_hosts;
    if !replay_faithful {
        eprintln!("{}: the replay selected other sites than the op", w.name);
    }

    let total_us = |name: &str| us(tracer.total(name).0);
    let pages = counts.pages.max(1) as f64;
    let visits = counts.visits.max(1) as f64;
    let analysed = counts.selected.max(1) as f64;
    let on_path_ms = (total_us("crawl.visit_traced")
        + total_us("langid.composition")
        + total_us("filter.classify")
        + total_us("langid.classify_label")
        + total_us("audit.audit_page")
        + total_us("kizuki.evaluate")
        + total_us("audit.gap_report")
        + total_us("kizuki.speech"))
        / 1e3
        + median(&serde_ms);
    let gaps_off = "gap detection is off on this workload, so the op never calls it";
    let mut rows = Rows::default();
    let fetched = counts.fetched.max(1) as f64;
    rows.value(
        "webgen.render_us_per_page",
        total_us("webgen.render_into") / fetched,
    );
    rows.exact(
        "webgen.render_allocs_per_page",
        counts.render_allocs as f64 / fetched,
    );
    rows.exact("webgen.shard_builds_per_op", shard_builds_per_op);
    rows.exact("webgen.shard_builds_setup", setup_shards as f64);
    rows.value(
        "net.fetch_self_us_per_page",
        (us(counts.fetch_ok) - total_us("webgen.render_into")) / fetched,
    );
    rows.exact(
        "net.faults_per_request",
        counts.faults as f64 / counts.requests.max(1) as f64,
    );
    rows.value(
        "html.tokenize_us_per_kb",
        total_us("html.tokenize_into") / (counts.bytes as f64 / 1024.0),
    );
    rows.exact("html.bytes_per_page", counts.bytes as f64 / pages);
    rows.value(
        "crawl.extract_self_us_per_page",
        (total_us("crawl.extract_streaming") - total_us("html.tokenize_into")) / pages,
    );
    rows.exact(
        "crawl.extract_allocs_per_page",
        counts.extract_allocs as f64 / pages,
    );
    rows.exact("crawl.attempts_per_visit", counts.attempts as f64 / visits);
    rows.value("crawl.pool_speedup", wall_one / wall_all);
    rows.value("crawl.pool_cpu_inflation", cpu_all / cpu_one);
    let (composition, probes) = tracer.total("langid.composition");
    rows.value(
        "langid.composition_us_per_page",
        us(composition) / probes.max(1) as f64,
    );
    let elements = counts.elements.max(1) as f64;
    rows.value(
        "langid.classify_label_us_per_element",
        total_us("langid.classify_label") / elements,
    );
    rows.value(
        "filter.classify_us_per_element",
        total_us("filter.classify") / elements,
    );
    rows.value(
        "audit.audit_page_us_per_page",
        total_us("audit.audit_page") / analysed,
    );
    rows.value(
        "kizuki.evaluate_us_per_page",
        total_us("kizuki.evaluate") / analysed,
    );
    if w.gaps {
        rows.value(
            "audit.gap_report_us_per_page",
            total_us("audit.gap_report") / analysed,
        );
        rows.exact(
            "audit.gap_regions_per_page",
            counts.gap_regions as f64 / analysed,
        );
        rows.value(
            "kizuki.speech_us_per_page",
            total_us("kizuki.speech") / analysed,
        );
    } else {
        rows.absent("audit.gap_report_us_per_page", gaps_off);
        rows.absent("audit.gap_regions_per_page", gaps_off);
        rows.absent("kizuki.speech_us_per_page", gaps_off);
    }
    rows.value("core.build_ms_per_op", median(&build_ms));
    rows.value("core.unattributed_share", 1.0 - on_path_ms / cpu_all);
    rows.exact("core.probe_yield", counts.selected as f64 / visits);
    rows.value("serde_json.dataset_ms_per_op", median(&serde_ms));
    rows.exact(
        "serde_json.dataset_allocs_per_op",
        serde_allocs.unwrap_or(0) as f64,
    );
    let serve_only = "serve-mixed only: a build sends no requests to the audit service";
    rows.absent("serde_json.audit_us_per_miss", serve_only);
    rows.absent_prefix("serve.", serve_only);
    rows.absent(
        "bench.gen_late_p99_ms",
        "closed loop: each op starts when the last one ends, so nothing is sent late",
    );
    let op_p50_ms = samples.op_p50_ms();
    rows.value("bench.trace_overhead", op_p50_ms / reference_op_p50_ms);
    eprintln!(
        "{}: {} traced ops (median {op_p50_ms:.1} ms); corpus 0's op at 1 worker {wall_one:.1} ms \
         / {cpu_one:.1} ms CPU, at {threads} workers {wall_all:.1} ms / {cpu_all:.1} ms CPU",
        w.name, samples.attempted
    );
    Traced {
        rows: rows.finish(),
        correct: setup_ok && failed == 0 && replay_faithful,
        attempted: samples.attempted + 4,
        failed,
    }
}
