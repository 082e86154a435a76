//! The build engine: wave planning, the one unit execution, and the
//! deterministic replay — plus the fault-tolerant dispatcher that runs
//! the engine's units on worker processes.
//!
//! ## One engine
//!
//! [`build_dataset_with_ledger`](crate::pipeline::build_dataset_with_ledger)
//! and [`build_dataset_distributed`] are one loop with two runners. The
//! engine plans each **probe wave** — for every country still short of
//! quota, a window of `need + need/7 + 8` candidates past its probed
//! prefix, chunked into `(country, candidate-range)` **work units** —
//! hands the wave's units to its runner, folds the results in plan order,
//! and, once no country needs more, replays the paper's sequential
//! replacement walk over the verdicts to assemble the `Dataset` and
//! `CrawlLedger`. The in-process runner is the crawl crate's work-stealing
//! pool with one `Browser` per worker; the distributed runner dispatches
//! units to workers through a [`UnitExecutor`]. Every runner executes a
//! unit the same way: probe each candidate in the range and analyse each
//! qualifying one, yielding one [`WireVerdict`] per candidate.
//!
//! ## Why the bytes cannot drift
//!
//! * **Probe purity**: a candidate's verdict is a pure function of
//!   `(corpus seed, host, vantage)`. Workers rebuild their corpus shards
//!   from [`WireBuildConfig`]; shard contents are pure in
//!   `(seed, country)`, so every runner — and every *retry* of a killed
//!   unit — computes the identical verdict list.
//! * **Wave determinism**: window extents depend only on quota and
//!   qualified counts, never on chunking, so every runner probes the same
//!   candidate prefix at every worker count.
//! * **One replay**: selection, ledger folding and example caps happen in
//!   one sequential walk over the concatenated verdicts. There is no
//!   second copy to keep equal.
//! * **Per-site panic containment**: each analysis runs under its own
//!   unwind guard, so a panicking site becomes a
//!   [`WireOutcome::Poisoned`] verdict on every runner — one
//!   `poisoned_sites` entry if the walk consumes it — never a failed unit.
//!
//! ## Fault tolerance
//!
//! Every dispatch carries a lease (the executor's per-unit deadline); a
//! worker that dies or stalls fails the dispatch, and the unit is
//! reassigned with capped-exponential virtual backoff (the PR 6
//! discipline, pure in `(seed, unit, attempt)`). A per-worker breaker
//! trips after consecutive failures and asks the executor to revive the
//! worker. Completed units are appended to an on-disk checkpoint log, so
//! a coordinator killed mid-run resumes without recomputation. A unit
//! still failing after `max_reassignments` is *degraded*: its country's
//! replay truncates at the hole (quota shortfall, not an abort) and the
//! loss is recorded in the ledger's `degraded_units` section.

use crate::dataset::{CountryCrawlSummary, Dataset, ExtremeExample, MismatchExample, SiteRecord};
use crate::ledger::{CountryLedger, CrawlLedger, DegradedUnit};
use crate::pipeline::process_site;
use crate::selection::{probe_candidate_traced, Rejection, SelectedSite};
use langcrux_crawl::{Browser, BrowserConfig, VisitTrace};
use langcrux_kizuki::{Kizuki, ScreenReader};
use langcrux_lang::{rng, Country};
use langcrux_net::{vpn_vantage, FaultPlan};
use langcrux_obs as obs;
use langcrux_webgen::{Corpus, CorpusConfig};
use rand::Rng;
use serde::{Deserialize, ObjectWriter, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Derivation stream tag for reassignment-backoff jitter (disjoint from
/// the crawl backoff stream `0xB0FF` and the fault-roll streams).
const DIST_BACKOFF_STREAM: u64 = 0xD1B0;

/// Everything a worker process needs to rebuild a corpus congruent with
/// the coordinator's. Carried inside every [`UnitRequest`] so workers are
/// stateless across builds (a worker caches the corpus keyed by this
/// config's JSON). Every runner probes with `BrowserConfig::default()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBuildConfig {
    pub seed: u64,
    pub sites_per_country: usize,
    pub countries: Vec<Country>,
    pub overprovision: f64,
    /// Worker-side shard residency cap (the coordinator's own cap is not
    /// shipped: workers touching a handful of countries need less).
    pub resident_shards: usize,
    pub gap_scenarios: bool,
    pub fault_plan: FaultPlan,
}

impl WireBuildConfig {
    /// Capture the corpus a coordinator is building from.
    pub fn of(corpus: &Corpus) -> Self {
        let config = corpus.config();
        WireBuildConfig {
            seed: config.seed,
            sites_per_country: config.sites_per_country,
            countries: config.countries.clone(),
            overprovision: config.overprovision,
            resident_shards: config.resident_shards,
            gap_scenarios: config.gap_scenarios,
            fault_plan: *corpus.internet().fault_plan(),
        }
    }

    /// The corpus configuration this wire config describes.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            seed: self.seed,
            sites_per_country: self.sites_per_country,
            countries: self.countries.clone(),
            overprovision: self.overprovision,
            resident_shards: self.resident_shards,
            gap_scenarios: self.gap_scenarios,
            fault_plan: self.fault_plan,
        }
    }

    /// Rebuild the corpus (`O(1)` — shards materialise lazily on first
    /// candidate touch, bit-identical to the coordinator's).
    pub fn build_corpus(&self) -> Corpus {
        Corpus::build(self.corpus_config())
    }

    /// Stable cache key for worker-side corpus reuse.
    pub fn cache_key(&self) -> String {
        serde_json::to_string(self).expect("serialize wire build config")
    }
}

/// One `(country, candidate-range)` work unit, as shipped to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRequest {
    pub config: WireBuildConfig,
    pub country: Country,
    /// Candidate range `start..end` in rank order.
    pub start: usize,
    pub end: usize,
    /// Chaos support: wall milliseconds the worker sleeps before
    /// executing, giving an externally scheduled SIGKILL time to land
    /// mid-unit. `0` in production; never affects output bytes.
    pub hold_ms: u64,
}

impl UnitRequest {
    /// Stable unit key: independent of worker assignment and attempt,
    /// survives coordinator restarts. Used for the checkpoint log and
    /// the chaos kill schedule.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.country.code(), self.start, self.end)
    }
}

/// One candidate's verdict as a unit execution computed it. `Selected`
/// carries the *finished* site record (plus uncapped example captures),
/// so the replay never fetches or analyses anything itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireOutcome {
    Selected {
        record: SiteRecord,
        extremes: Vec<ExtremeExample>,
        mismatches: Vec<MismatchExample>,
    },
    /// The candidate qualified, but its analysis panicked. It counts as
    /// selected; the replay lists its host in `poisoned_sites` if the
    /// walk consumes it.
    Poisoned {
        host: String,
    },
    Rejected(Rejection),
}

/// One probed candidate on the wire: verdict plus its visit trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireVerdict {
    pub outcome: WireOutcome,
    pub trace: VisitTrace,
}

impl WireVerdict {
    /// The site-free verdict the ledger folds: every qualifying
    /// candidate, poisoned or not, is a selection.
    fn verdict(&self) -> Result<(), &Rejection> {
        match &self.outcome {
            WireOutcome::Rejected(r) => Err(r),
            WireOutcome::Selected { .. } | WireOutcome::Poisoned { .. } => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// Unit execution
// ---------------------------------------------------------------------

/// Execute one work unit: probe candidates `range` of `country` in rank
/// order and analyse each qualifying one. Every runner calls this — the
/// in-process pool, [`LocalExecutor`] and the `repro --dist-worker` RPC
/// ([`WorkerState`]).
///
/// Each analysis runs under its own unwind guard, so a panic poisons
/// that site alone. `panic_host` is the chaos hook of
/// [`PipelineOptions::chaos_panic_host`](crate::PipelineOptions::chaos_panic_host).
pub(crate) fn execute_unit(
    corpus: &Corpus,
    browser: &mut Browser,
    country: Country,
    range: Range<usize>,
    panic_host: Option<fn(&str) -> bool>,
) -> Vec<WireVerdict> {
    let vantage = vpn_vantage(country).unwrap_or_else(|| panic!("no VPN endpoint for {country:?}"));
    let native = country.target_language();
    let kizuki = Kizuki::standard();
    // Gap detection runs only on corpora built with gap scenarios; the
    // reference reader decides which flagged regions it would mispronounce.
    let reader = corpus
        .config()
        .gap_scenarios
        .then(ScreenReader::voiceover_like);
    corpus.candidates(country)[range]
        .iter()
        .map(|plan| {
            let (outcome, trace) = probe_candidate_traced(browser, plan, vantage, native);
            let outcome = match outcome {
                Ok(site) => analyse(&site, country, &kizuki, reader.as_ref(), panic_host),
                Err(rejection) => WireOutcome::Rejected(rejection),
            };
            WireVerdict { outcome, trace }
        })
        .collect()
}

/// Analyse one qualifying candidate under the unwind guard. Examples land
/// in per-site vectors, so a poisoned site leaks no partial capture.
fn analyse(
    site: &SelectedSite,
    country: Country,
    kizuki: &Kizuki,
    reader: Option<&ScreenReader>,
    panic_host: Option<fn(&str) -> bool>,
) -> WireOutcome {
    let host = &site.plan.host;
    // A panic unwinds through the guard, so even a poisoned site records
    // its span.
    let _span = obs::trace::span("pipeline.analyze_site", obs::trace::key_str(host));
    catch_unwind(AssertUnwindSafe(|| {
        if panic_host.is_some_and(|hits| hits(host)) {
            panic!("chaos hook: injected analysis panic");
        }
        let mut extremes = Vec::new();
        let mut mismatches = Vec::new();
        let record = process_site(
            site,
            country,
            kizuki,
            reader,
            &mut extremes,
            &mut mismatches,
        );
        WireOutcome::Selected {
            record,
            extremes,
            mismatches,
        }
    }))
    .unwrap_or_else(|_| WireOutcome::Poisoned { host: host.clone() })
}

/// Execute a dispatched unit on a fresh browser, under a `dist.unit`
/// span. (The pool runs units without one: its chunking, and so its unit
/// count, depends on the worker count.)
fn execute_request(
    corpus: &Corpus,
    request: &UnitRequest,
    panic_host: Option<fn(&str) -> bool>,
) -> Vec<WireVerdict> {
    let mut span = obs::trace::span("dist.unit", obs::trace::key_str(request.country.code()));
    let mut browser = Browser::new(corpus.internet(), BrowserConfig::default());
    let range = request.start..request.end;
    let verdicts = execute_unit(corpus, &mut browser, request.country, range, panic_host);
    span.set_virtual_ms(verdicts.iter().map(|v| v.trace.virtual_ms).sum());
    verdicts
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// One planned work unit: candidates `range` of `country`, in rank order.
pub(crate) struct Unit {
    /// The country's index in the engine's per-country state.
    slot: usize,
    pub(crate) country: Country,
    pub(crate) range: Range<usize>,
}

/// What a runner reports for one planned unit.
pub(crate) enum UnitResolution {
    /// One verdict per candidate of the unit's range.
    Done(Vec<WireVerdict>),
    /// Given up after this many dispatch attempts.
    Lost(u32),
}

/// Per-country engine state across waves.
struct CountryState {
    country: Country,
    /// Concatenated unit verdicts for the candidate prefix `0..probed`
    /// (frozen at the first hole once `lost`).
    verdicts: Vec<WireVerdict>,
    qualified: usize,
    probed: usize,
    /// The first unit of this country that was lost, if any.
    lost: Option<DegradedUnit>,
}

/// Build a dataset and its ledger: plan each probe wave, run its units
/// through `run_wave` (which answers one resolution per unit, in plan
/// order), fold them, and replay the selection walk once no country needs
/// more candidates. `workers` only sizes the chunks. A runner error stops
/// the build.
pub(crate) fn run_build<E>(
    corpus: &Corpus,
    quota: usize,
    workers: usize,
    mut run_wave: impl FnMut(&[Unit]) -> Result<Vec<UnitResolution>, E>,
) -> Result<(Dataset, CrawlLedger), E> {
    let _build_span = obs::trace::span("pipeline.build", corpus.config().seed);
    let mut states: Vec<CountryState> = corpus
        .countries()
        .map(|country| CountryState {
            country,
            verdicts: Vec::new(),
            qualified: 0,
            probed: 0,
            lost: None,
        })
        .collect();
    for wave in 0u64.. {
        let units = plan_wave(corpus, &states, quota, workers);
        if units.is_empty() {
            break;
        }
        // Wave count and ordinal are quota-driven, not worker-driven, so
        // the span structure is stable across worker counts.
        let _wave_span = obs::trace::span("pipeline.probe_wave", wave);
        let resolutions = run_wave(&units)?;
        // Fold in plan order. A lost unit opens a hole that freezes its
        // country's verdict prefix: a shortfall, not an abort.
        for (unit, resolution) in units.iter().zip(resolutions) {
            let st = &mut states[unit.slot];
            st.probed = unit.range.end;
            if st.lost.is_some() {
                continue;
            }
            match resolution {
                UnitResolution::Done(verdicts) => {
                    st.qualified += verdicts.iter().filter(|v| v.verdict().is_ok()).count();
                    st.verdicts.extend(verdicts);
                }
                UnitResolution::Lost(attempts) => {
                    st.lost = Some(DegradedUnit {
                        country_code: unit.country.code().to_string(),
                        start: unit.range.start as u64,
                        end: unit.range.end as u64,
                        attempts,
                    });
                }
            }
        }
    }
    Ok(replay(corpus, quota, states))
}

/// Plan the next wave. Each country still short of quota extends its
/// probed prefix far enough to plausibly fill the remainder (the paper's
/// ~12% disqualification rate plus slack, so small quotas converge in one
/// wave); countries with enough qualifying verdicts, no candidates left or
/// a lost unit contribute nothing. An empty plan ends probing.
fn plan_wave(corpus: &Corpus, states: &[CountryState], quota: usize, workers: usize) -> Vec<Unit> {
    let mut windows = Vec::new();
    for (slot, st) in states.iter().enumerate() {
        if st.lost.is_some() || st.qualified >= quota {
            continue;
        }
        let candidates = corpus.candidates(st.country).len();
        if st.probed >= candidates {
            continue;
        }
        let need = quota - st.qualified;
        let window = (need + need / 7 + 8).min(candidates - st.probed);
        windows.push((slot, st.probed..st.probed + window));
    }
    // Chunk the windows so every worker gets several units to steal.
    let total: usize = windows.iter().map(|(_, w)| w.len()).sum();
    let chunk = (total / (workers * 4).max(1)).clamp(4, 64);
    let mut units = Vec::new();
    for (slot, window) in windows {
        for start in window.clone().step_by(chunk) {
            units.push(Unit {
                slot,
                country: states[slot].country,
                range: start..(start + chunk).min(window.end),
            });
        }
    }
    units
}

/// Cap on the extreme alt-text examples a dataset keeps (Table 4).
const MAX_EXTREME_EXAMPLES: usize = 40;
/// Cap on the visible/accessibility mismatch examples a dataset keeps
/// (Table 5).
const MAX_MISMATCH_EXAMPLES: usize = 24;

/// Replay the paper's sequential replacement walk over each country's
/// verdicts, in study order, and assemble the dataset and ledger. Records
/// and examples move out of the verdicts; the example caps keep the first
/// N in walk order.
fn replay(corpus: &Corpus, quota: usize, mut states: Vec<CountryState>) -> (Dataset, CrawlLedger) {
    states.sort_by_key(|st| Country::STUDY.iter().position(|&c| c == st.country));
    let mut dataset = Dataset {
        seed: corpus.config().seed,
        quota,
        ..Dataset::default()
    };
    let mut ledgers = Vec::with_capacity(states.len());
    let mut degraded_units = Vec::new();
    for st in states {
        let mut span = obs::trace::span(
            "pipeline.verdict_replay",
            obs::trace::key_str(st.country.code()),
        );
        let mut ledger = CountryLedger::new(st.country.code());
        let mut error_run = 0u64;
        for verdict in st.verdicts {
            if ledger.selected as usize >= quota {
                break;
            }
            ledger.record_probe_outcome(verdict.verdict(), &verdict.trace);
            match verdict.outcome {
                WireOutcome::Rejected(_) => {
                    error_run += 1;
                    continue;
                }
                WireOutcome::Selected {
                    record,
                    extremes,
                    mismatches,
                } => {
                    if let Some(gaps) = &record.gaps {
                        ledger.gap_pages += 1;
                        ledger.gap_regions += u64::from(gaps.regions);
                    }
                    dataset.records.push(record);
                    let room = MAX_EXTREME_EXAMPLES.saturating_sub(dataset.extreme_examples.len());
                    dataset
                        .extreme_examples
                        .extend(extremes.into_iter().take(room));
                    let room =
                        MAX_MISMATCH_EXAMPLES.saturating_sub(dataset.mismatch_examples.len());
                    dataset
                        .mismatch_examples
                        .extend(mismatches.into_iter().take(room));
                }
                WireOutcome::Poisoned { host } => ledger.poisoned_sites.push(host),
            }
            ledger.note_replacement_run(error_run);
            error_run = 0;
        }
        ledger.note_replacement_run(error_run);
        span.set_virtual_ms(ledger.virtual_ms);
        // The ledger buckets every fetch rejection in exactly one
        // taxonomy class, so its totals are the summary's counts.
        dataset.crawl_summaries.push(CountryCrawlSummary {
            country_code: ledger.country_code.clone(),
            attempted: ledger.attempted,
            selected: ledger.selected,
            rejected_threshold: ledger.rejected_threshold,
            failed_fetch: ledger.errors.total(),
            restricted: ledger.errors.restricted,
        });
        ledgers.push(ledger);
        degraded_units.extend(st.lost);
    }
    let mut ledger = CrawlLedger::new(
        corpus.config().seed,
        *corpus.internet().fault_plan(),
        ledgers,
    );
    ledger.degraded_units = degraded_units;
    (dataset, ledger)
}

/// Why one dispatch of a unit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitError {
    /// The worker died mid-unit (connection dropped, process exited,
    /// injected chaos kill).
    WorkerDied(String),
    /// The per-unit lease deadline elapsed without a response (worker
    /// stalled).
    LeaseExpired(String),
}

/// Transport abstraction the coordinator dispatches through. The bench
/// crate implements it over loopback HTTP to `repro --dist-worker`
/// processes; [`LocalExecutor`] implements it in-process for tests.
///
/// Called concurrently from one dispatcher thread per worker slot; a
/// given `worker` index is only ever used by its own dispatcher.
pub trait UnitExecutor: Sync {
    /// Execute `request` on worker slot `worker` (0-based). `attempt` is
    /// the 0-based dispatch attempt for this unit (drives the chaos
    /// schedule and backoff).
    fn execute(
        &self,
        worker: usize,
        attempt: u32,
        request: &UnitRequest,
    ) -> Result<Vec<WireVerdict>, UnitError>;

    /// Liveness probe issued before each dispatch. Default: always
    /// alive (in-process executors cannot die between units).
    fn heartbeat(&self, _worker: usize) -> bool {
        true
    }

    /// Restart a worker after a failed heartbeat or a tripped per-worker
    /// breaker. Returns whether a restart actually happened.
    fn revive(&self, _worker: usize) -> bool {
        false
    }
}

/// In-process executor: runs units against its own corpus (rebuilt from
/// the wire config, exactly as a worker process would) with an
/// injectable failure schedule. The dispatcher's test double and the
/// backbone of the kill-at-every-boundary test suite.
pub struct LocalExecutor {
    corpus: Corpus,
    /// Injected failure: `(unit key, attempt) -> fail?`. A failing
    /// dispatch still computes nothing — like a SIGKILLed worker, its
    /// partial work is simply never observed.
    #[allow(clippy::type_complexity)]
    pub fail: Option<Arc<dyn Fn(&str, u32) -> bool + Send + Sync>>,
    /// Chaos hook: panic inside the analysis of any site whose host this
    /// predicate matches, as
    /// [`PipelineOptions::chaos_panic_host`](crate::PipelineOptions::chaos_panic_host)
    /// does for the in-process build.
    pub panic_host: Option<fn(&str) -> bool>,
}

impl LocalExecutor {
    /// Build the executor's own corpus from the wire config — the same
    /// reconstruction a worker process performs, so tests exercise the
    /// config round-trip too.
    pub fn new(config: &WireBuildConfig) -> Self {
        LocalExecutor {
            corpus: config.build_corpus(),
            fail: None,
            panic_host: None,
        }
    }

    /// Fail dispatches according to `schedule`.
    pub fn with_failures(
        config: &WireBuildConfig,
        schedule: impl Fn(&str, u32) -> bool + Send + Sync + 'static,
    ) -> Self {
        LocalExecutor {
            fail: Some(Arc::new(schedule)),
            ..LocalExecutor::new(config)
        }
    }
}

impl UnitExecutor for LocalExecutor {
    fn execute(
        &self,
        _worker: usize,
        attempt: u32,
        request: &UnitRequest,
    ) -> Result<Vec<WireVerdict>, UnitError> {
        if let Some(fail) = &self.fail {
            if fail(&request.key(), attempt) {
                return Err(UnitError::WorkerDied("injected failure".to_string()));
            }
        }
        Ok(execute_request(&self.corpus, request, self.panic_host))
    }
}

/// Coordinator options. The dataset/ledger bytes produced under any
/// `workers`/failure schedule equal `build_dataset_with_ledger` with a
/// `PipelineOptions` carrying the same `quota` — the tested contract.
#[derive(Debug, Clone)]
pub struct DistOptions {
    pub quota: usize,
    /// Worker slots (dispatcher threads / worker processes).
    pub workers: usize,
    /// Reassignments after a unit's first dispatch before it is given up
    /// as degraded.
    pub max_reassignments: u32,
    /// Append-only unit-checkpoint log; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Crash simulation: stop dispatching after this many units complete
    /// *in this run* and return [`DistHalted`]. The checkpoint log then
    /// holds exactly the completed units. `None` in production.
    pub halt_after_units: Option<usize>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            quota: 1_000,
            workers: 2,
            max_reassignments: 5,
            checkpoint: None,
            halt_after_units: None,
        }
    }
}

/// Coordinator-side counters, exposed as the `langcrux_dist_*` metric
/// families.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DistStats {
    /// Worker slots the run was configured with.
    pub workers: usize,
    /// Probe waves the coordinator planned.
    pub waves: u64,
    /// Work units planned (including checkpoint-satisfied ones).
    pub units_planned: u64,
    /// Units actually executed by workers in this run.
    pub units_executed: u64,
    /// Units satisfied from the checkpoint log without dispatch.
    pub units_from_checkpoint: u64,
    /// Failed dispatches that were retried on another attempt.
    pub reassignments: u64,
    /// Dispatches that failed because the worker died.
    pub worker_deaths: u64,
    /// Dispatches that failed because the lease deadline elapsed.
    pub lease_expirations: u64,
    /// Heartbeat probes that found a worker dead.
    pub heartbeat_failures: u64,
    /// Worker restarts the breaker (or a failed heartbeat) forced.
    pub worker_revivals: u64,
    /// Units permanently lost after exhausting reassignments.
    pub degraded_units: u64,
    /// Virtual milliseconds of reassignment backoff (never slept).
    pub backoff_virtual_ms: u64,
}

impl DistStats {
    /// Register the run's counters into the unified metrics registry
    /// (`langcrux_dist_*` family).
    pub fn encode_metrics(&self, enc: &mut obs::Encoder) {
        enc.gauge(
            "langcrux_dist_workers",
            "Worker slots the distributed build ran with.",
            self.workers as f64,
        );
        enc.counter(
            "langcrux_dist_waves_total",
            "Probe waves the coordinator planned.",
            self.waves as f64,
        );
        enc.counter(
            "langcrux_dist_units_total",
            "Work units planned, including checkpoint-satisfied ones.",
            self.units_planned as f64,
        );
        enc.counter(
            "langcrux_dist_units_executed_total",
            "Work units executed by workers in this run.",
            self.units_executed as f64,
        );
        enc.counter(
            "langcrux_dist_units_from_checkpoint_total",
            "Work units satisfied from the checkpoint log without dispatch.",
            self.units_from_checkpoint as f64,
        );
        enc.counter(
            "langcrux_dist_reassignments_total",
            "Failed unit dispatches that were reassigned.",
            self.reassignments as f64,
        );
        enc.counter(
            "langcrux_dist_worker_deaths_total",
            "Unit dispatches that failed because the worker died.",
            self.worker_deaths as f64,
        );
        enc.counter(
            "langcrux_dist_lease_expirations_total",
            "Unit dispatches that failed because the lease deadline elapsed.",
            self.lease_expirations as f64,
        );
        enc.counter(
            "langcrux_dist_heartbeat_failures_total",
            "Heartbeat probes that found a worker dead.",
            self.heartbeat_failures as f64,
        );
        enc.counter(
            "langcrux_dist_worker_revivals_total",
            "Worker restarts forced by the per-worker breaker or a failed heartbeat.",
            self.worker_revivals as f64,
        );
        enc.gauge(
            "langcrux_dist_degraded_units",
            "Work units permanently lost after exhausting reassignments.",
            self.degraded_units as f64,
        );
        enc.counter(
            "langcrux_dist_backoff_virtual_milliseconds_total",
            "Virtual milliseconds of reassignment backoff.",
            self.backoff_virtual_ms as f64,
        );
    }
}

/// A completed distributed build.
#[derive(Debug)]
pub struct DistBuild {
    pub dataset: Dataset,
    pub ledger: CrawlLedger,
    pub stats: DistStats,
}

/// The coordinator stopped early (crash simulation via
/// [`DistOptions::halt_after_units`]); completed units up to the halt
/// are durable in the checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistHalted {
    /// Units that completed (and were checkpointed) in this run.
    pub units_completed: usize,
}

/// Virtual-clock reassignment backoff, the crawl discipline's shape:
/// `min(BACKOFF_BASE_MS << attempt, BACKOFF_CAP_MS)` plus up to
/// `BACKOFF_JITTER_MS` of seeded jitter.
const BACKOFF_BASE_MS: u64 = 200;
const BACKOFF_CAP_MS: u64 = 5_000;
const BACKOFF_JITTER_MS: u64 = 50;

/// Reassignment backoff for dispatch attempt `attempt` of `unit_key` —
/// the crawl engine's capped-exponential shape with seeded jitter, pure
/// in `(seed, unit, attempt)` so degraded-run accounting is reproducible.
fn reassignment_backoff_ms(seed: u64, unit_key: &str, attempt: u32) -> u64 {
    let exp = BACKOFF_BASE_MS
        .checked_shl(attempt.min(16))
        .unwrap_or(u64::MAX)
        .min(BACKOFF_CAP_MS);
    let jitter = rng::rng_for(
        seed,
        &[
            rng::stream_id(unit_key),
            u64::from(attempt),
            DIST_BACKOFF_STREAM,
        ],
    )
    .gen_range(0..=BACKOFF_JITTER_MS);
    exp + jitter
}

// ---------------------------------------------------------------------
// Checkpoint log
// ---------------------------------------------------------------------

/// First line of a checkpoint file: identifies the build it belongs to.
/// A header mismatch (different seed/quota/config) invalidates the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointHeader {
    checkpoint: String,
    quota: usize,
    config: WireBuildConfig,
}

/// One completed unit: its stable key and the verdicts it produced.
/// [`CheckpointLog::append`] writes the same fields, in this order.
#[derive(Debug, Clone, Deserialize)]
struct CheckpointEntry {
    unit: String,
    verdicts: Vec<WireVerdict>,
}

/// Append-only JSON-lines log of completed units. Tolerates a torn
/// trailing line (the coordinator died mid-write); every complete line
/// is a durable unit that will never be recomputed.
struct CheckpointLog {
    file: Option<std::fs::File>,
}

impl CheckpointLog {
    /// Open (or create) the log at `path`, returning the verdicts of
    /// every durable unit recorded for *this* build. A file written for
    /// a different build (header mismatch) or with a corrupt prefix is
    /// discarded and restarted.
    fn open(
        path: Option<&Path>,
        config: &WireBuildConfig,
        quota: usize,
    ) -> (Self, HashMap<String, Vec<WireVerdict>>) {
        let Some(path) = path else {
            return (CheckpointLog { file: None }, HashMap::new());
        };
        let header = CheckpointHeader {
            checkpoint: "langcrux-dist".to_string(),
            quota,
            config: config.clone(),
        };
        let mut completed = HashMap::new();
        let mut valid = false;
        if let Ok(file) = std::fs::File::open(path) {
            let mut lines = BufReader::new(file).lines();
            if let Some(Ok(first)) = lines.next() {
                if serde_json::from_str::<CheckpointHeader>(&first)
                    .map(|h| h == header)
                    .unwrap_or(false)
                {
                    valid = true;
                    for line in lines {
                        let Ok(line) = line else { break };
                        // A torn trailing line parses as garbage; stop at
                        // the first bad line and keep the durable prefix.
                        let Ok(entry) = serde_json::from_str::<CheckpointEntry>(&line) else {
                            break;
                        };
                        completed.insert(entry.unit, entry.verdicts);
                    }
                }
            }
        }
        let mut file = if valid {
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .expect("reopen checkpoint log for append")
        } else {
            completed.clear();
            let mut f = std::fs::File::create(path).expect("create checkpoint log");
            writeln!(
                f,
                "{}",
                serde_json::to_string(&header).expect("serialize checkpoint header")
            )
            .expect("write checkpoint header");
            f
        };
        file.flush().expect("flush checkpoint log");
        (CheckpointLog { file: Some(file) }, completed)
    }

    /// Append one completed unit and flush — the unit is durable once
    /// this returns.
    fn append(&mut self, unit: &str, verdicts: &[WireVerdict]) {
        let Some(file) = &mut self.file else { return };
        // The bytes of a `CheckpointEntry`, written from the borrowed
        // verdicts: the derive rejects a struct with a lifetime.
        let mut line = String::new();
        let mut entry = ObjectWriter::new(&mut line);
        entry
            .field("unit", unit)
            .expect("serialize checkpoint unit");
        entry
            .field("verdicts", verdicts)
            .expect("serialize checkpoint verdicts");
        entry.end();
        writeln!(file, "{line}").expect("append checkpoint entry");
        file.flush().expect("flush checkpoint log");
    }
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// Run the build with the dispatcher as the engine's runner: each wave's
/// units go to the executor with lease, retry, breaker and checkpoint
/// handling.
///
/// Returns `Err(DistHalted)` only under the
/// [`DistOptions::halt_after_units`] crash simulation.
pub fn build_dataset_distributed<E: UnitExecutor + ?Sized>(
    corpus: &Corpus,
    executor: &E,
    options: &DistOptions,
) -> Result<DistBuild, DistHalted> {
    let workers = options.workers.max(1);
    let config = WireBuildConfig::of(corpus);
    let (log, completed) =
        CheckpointLog::open(options.checkpoint.as_deref(), &config, options.quota);
    let mut dispatcher = Dispatcher {
        executor,
        options,
        config,
        workers,
        checkpoint: Mutex::new(log),
        completed,
        stats: DistStats {
            workers,
            ..DistStats::default()
        },
    };
    let (dataset, ledger) = run_build(corpus, options.quota, workers, |units| {
        dispatcher.run_wave(units)
    })?;
    let mut stats = dispatcher.stats;
    stats.degraded_units = ledger.degraded_units.len() as u64;
    Ok(DistBuild {
        dataset,
        ledger,
        stats,
    })
}

/// Why a dispatcher lock can be poisoned: a dispatcher thread panicked
/// while holding it.
const LOCK: &str = "a dispatcher panicked holding a wave lock";

/// Consecutive dispatch failures on one worker slot that trip its breaker
/// and force a revive.
const WORKER_BREAKER_THRESHOLD: u32 = 3;

/// The dispatcher's state across one build's waves.
struct Dispatcher<'a, E: ?Sized> {
    executor: &'a E,
    options: &'a DistOptions,
    config: WireBuildConfig,
    workers: usize,
    checkpoint: Mutex<CheckpointLog>,
    /// Durable units from an earlier run. Each is taken, not copied, when
    /// its wave is planned: windows only advance, so no key recurs.
    completed: HashMap<String, Vec<WireVerdict>>,
    stats: DistStats,
}

impl<E: UnitExecutor + ?Sized> Dispatcher<'_, E> {
    /// Dispatch one wave's units across the worker slots until every unit
    /// is done or lost, or the halt simulation fires. One dispatcher
    /// thread per worker slot; failed dispatches re-queue with virtual
    /// backoff until the reassignment budget is exhausted.
    fn run_wave(&mut self, units: &[Unit]) -> Result<Vec<UnitResolution>, DistHalted> {
        self.stats.waves += 1;
        self.stats.units_planned += units.len() as u64;
        let requests: Vec<UnitRequest> = units
            .iter()
            .map(|unit| UnitRequest {
                config: self.config.clone(),
                country: unit.country,
                start: unit.range.start,
                end: unit.range.end,
                hold_ms: 0,
            })
            .collect();
        let mut resolutions = Vec::with_capacity(requests.len());
        let mut queue: VecDeque<(usize, u32)> = VecDeque::new();
        for (idx, request) in requests.iter().enumerate() {
            let durable = self.completed.remove(&request.key());
            match durable {
                Some(_) => self.stats.units_from_checkpoint += 1,
                None => queue.push_back((idx, 0)),
            }
            resolutions.push(durable.map(UnitResolution::Done));
        }
        let halted = AtomicBool::new(false);
        let pending = AtomicUsize::new(queue.len());
        let queue = Mutex::new(queue);
        let resolutions = Mutex::new(resolutions);
        // Dispatchers count into the run's stats from their own threads.
        let stats = Mutex::new(std::mem::take(&mut self.stats));
        // Dispatchers carry the caller's trace context, so in-process units
        // record into a traced build's session.
        let trace_context = &obs::trace::current();
        let (executor, options, seed) = (self.executor, self.options, self.config.seed);
        let (checkpoint, requests) = (&self.checkpoint, &requests);

        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let (queue, resolutions, stats) = (&queue, &resolutions, &stats);
                let (halted, pending) = (&halted, &pending);
                scope.spawn(move || {
                    let _trace = trace_context.enter();
                    let mut consecutive_failures = 0u32;
                    while !halted.load(Ordering::SeqCst) {
                        let job = queue.lock().expect(LOCK).pop_front();
                        let Some((idx, attempt)) = job else {
                            if pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            // Another dispatcher may still re-queue a failed
                            // unit; yield briefly and re-check.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            continue;
                        };
                        let request = &requests[idx];
                        let key = request.key();
                        if !executor.heartbeat(worker) {
                            let revived = executor.revive(worker);
                            let mut s = stats.lock().expect(LOCK);
                            s.heartbeat_failures += 1;
                            s.worker_revivals += u64::from(revived);
                        }
                        match executor.execute(worker, attempt, request) {
                            Ok(verdicts) => {
                                consecutive_failures = 0;
                                checkpoint.lock().expect(LOCK).append(&key, &verdicts);
                                resolutions.lock().expect(LOCK)[idx] =
                                    Some(UnitResolution::Done(verdicts));
                                pending.fetch_sub(1, Ordering::SeqCst);
                                let done = {
                                    let mut s = stats.lock().expect(LOCK);
                                    s.units_executed += 1;
                                    s.units_executed as usize
                                };
                                if options.halt_after_units.is_some_and(|halt| done >= halt) {
                                    halted.store(true, Ordering::SeqCst);
                                }
                            }
                            Err(error) => {
                                consecutive_failures += 1;
                                let retry = attempt < options.max_reassignments;
                                {
                                    let mut s = stats.lock().expect(LOCK);
                                    match &error {
                                        UnitError::WorkerDied(_) => s.worker_deaths += 1,
                                        UnitError::LeaseExpired(_) => s.lease_expirations += 1,
                                    }
                                    if retry {
                                        s.reassignments += 1;
                                        s.backoff_virtual_ms +=
                                            reassignment_backoff_ms(seed, &key, attempt);
                                    }
                                }
                                if retry {
                                    queue.lock().expect(LOCK).push_back((idx, attempt + 1));
                                } else {
                                    resolutions.lock().expect(LOCK)[idx] =
                                        Some(UnitResolution::Lost(1 + attempt));
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                }
                                if consecutive_failures >= WORKER_BREAKER_THRESHOLD {
                                    let revived = executor.revive(worker);
                                    stats.lock().expect(LOCK).worker_revivals += u64::from(revived);
                                    consecutive_failures = 0;
                                }
                            }
                        }
                    }
                });
            }
        });

        self.stats = stats.into_inner().expect(LOCK);
        if halted.into_inner() {
            return Err(DistHalted {
                units_completed: self.stats.units_executed as usize,
            });
        }
        // Dispatchers stop early only when the halt fires, so every unit
        // is resolved here.
        Ok(resolutions
            .into_inner()
            .expect(LOCK)
            .into_iter()
            .map(|resolution| resolution.expect("unit resolved"))
            .collect())
    }
}

// ---------------------------------------------------------------------
// Worker-side RPC handler
// ---------------------------------------------------------------------

/// Worker-process state: one cached corpus keyed by the wire config's
/// JSON. A worker serves one build at a time; a request carrying a new
/// config transparently replaces the cache (shards are pure in the
/// config, so a rebuilt corpus is bit-identical).
#[derive(Default)]
pub struct WorkerState {
    #[allow(clippy::type_complexity)]
    cache: Mutex<Option<(String, Arc<Corpus>)>>,
}

impl WorkerState {
    pub fn new() -> Self {
        WorkerState::default()
    }

    /// Handle one unit-RPC body (a [`UnitRequest`] as JSON). Returns the
    /// verdicts as a JSON array, or a human-readable error for a 400.
    pub fn handle_unit(&self, body: &[u8]) -> Result<String, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("body not UTF-8: {e}"))?;
        let request: UnitRequest =
            serde_json::from_str(text).map_err(|e| format!("bad unit request: {e}"))?;
        if request.end < request.start {
            return Err(format!("bad unit range {}..{}", request.start, request.end));
        }
        if request.hold_ms > 0 {
            // Chaos hold: park so an externally scheduled SIGKILL lands
            // mid-unit. Wall time only; never affects verdict bytes.
            std::thread::sleep(std::time::Duration::from_millis(request.hold_ms.min(2_000)));
        }
        let key = request.config.cache_key();
        let corpus = {
            let mut cache = self.cache.lock().unwrap();
            match cache.as_ref() {
                Some((cached_key, corpus)) if *cached_key == key => Arc::clone(corpus),
                _ => {
                    let corpus = Arc::new(request.config.build_corpus());
                    *cache = Some((key, Arc::clone(&corpus)));
                    corpus
                }
            }
        };
        let candidates = corpus.candidates(request.country).len();
        if request.end > candidates {
            return Err(format!(
                "unit range {}..{} exceeds {} candidates for {}",
                request.start,
                request.end,
                candidates,
                request.country.code()
            ));
        }
        let verdicts = execute_request(&corpus, &request, None);
        serde_json::to_string(&verdicts).map_err(|e| format!("serialize verdicts: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_dataset_with_ledger, PipelineOptions};

    fn small_config(seed: u64, sites: usize) -> WireBuildConfig {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        WireBuildConfig::of(&corpus)
    }

    fn oracle(seed: u64, sites: usize, quota: usize) -> (String, String) {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        let (ds, ledger) = build_dataset_with_ledger(
            &corpus,
            PipelineOptions {
                quota,
                ..PipelineOptions::default()
            },
        );
        (ds.to_json().unwrap(), ledger.to_json().unwrap())
    }

    fn dist_run(
        seed: u64,
        sites: usize,
        options: &DistOptions,
        executor: &LocalExecutor,
    ) -> DistBuild {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        build_dataset_distributed(&corpus, executor, options).expect("distributed build")
    }

    #[test]
    fn matches_single_process_bytes_at_every_worker_count() {
        let (ds_oracle, ledger_oracle) = oracle(19, 14, 14);
        let config = small_config(19, 14);
        let executor = LocalExecutor::new(&config);
        for workers in [1, 2, 3] {
            let options = DistOptions {
                quota: 14,
                workers,
                ..DistOptions::default()
            };
            let build = dist_run(19, 14, &options, &executor);
            assert_eq!(
                build.dataset.to_json().unwrap(),
                ds_oracle,
                "workers = {workers}"
            );
            assert_eq!(
                build.ledger.to_json().unwrap(),
                ledger_oracle,
                "workers = {workers}"
            );
            assert!(build.ledger.degraded_units.is_empty());
            assert_eq!(build.stats.workers, workers);
            assert!(build.stats.units_planned > 0);
        }
    }

    #[test]
    fn recovers_from_injected_failures_to_identical_bytes() {
        let (ds_oracle, ledger_oracle) = oracle(23, 12, 12);
        let config = small_config(23, 12);
        // Every unit fails its first two dispatches on a seeded schedule.
        let executor = LocalExecutor::with_failures(&config, |key, attempt| {
            attempt < (rng::stream_id(key) % 3) as u32
        });
        let options = DistOptions {
            quota: 12,
            workers: 2,
            ..DistOptions::default()
        };
        let build = dist_run(23, 12, &options, &executor);
        assert_eq!(build.dataset.to_json().unwrap(), ds_oracle);
        assert_eq!(build.ledger.to_json().unwrap(), ledger_oracle);
        assert!(build.stats.reassignments > 0, "{:?}", build.stats);
        assert_eq!(build.stats.worker_deaths, build.stats.reassignments);
        assert!(build.stats.backoff_virtual_ms > 0);
    }

    #[test]
    fn degrades_gracefully_when_a_unit_is_permanently_lost() {
        let config = small_config(31, 10);
        // One specific country's first unit never completes.
        let executor = LocalExecutor::with_failures(&config, |key, _| key.starts_with("jp:0:"));
        let options = DistOptions {
            quota: 10,
            workers: 2,
            max_reassignments: 2,
            ..DistOptions::default()
        };
        let build = dist_run(31, 10, &options, &executor);
        assert_eq!(build.stats.degraded_units, 1, "{:?}", build.stats);
        assert_eq!(build.ledger.degraded_units.len(), 1);
        let lost = &build.ledger.degraded_units[0];
        assert_eq!(lost.country_code, "jp");
        assert_eq!(lost.attempts, 3);
        // Japan's replay truncated at the hole: shortfall, not abort.
        let jp = build
            .dataset
            .crawl_summaries
            .iter()
            .find(|s| s.country_code == "jp")
            .unwrap();
        assert_eq!(jp.selected, 0);
        // Every other country matches the no-failure single-process run.
        let (ds_oracle, _) = oracle(31, 10, 10);
        let oracle_ds = crate::dataset::Dataset::from_json(&ds_oracle).unwrap();
        for s in &build.dataset.crawl_summaries {
            if s.country_code != "jp" {
                let expected = oracle_ds
                    .crawl_summaries
                    .iter()
                    .find(|o| o.country_code == s.country_code)
                    .unwrap();
                assert_eq!(s, expected, "{}", s.country_code);
            }
        }
        // The degraded section serializes (and the ledger round-trips).
        let json = build.ledger.to_json().unwrap();
        assert!(json.contains("degraded_units"));
        let back = CrawlLedger::from_json(&json).unwrap();
        assert_eq!(back, build.ledger);
    }

    #[test]
    fn checkpoint_resume_reproduces_bytes_without_recomputation() {
        let (ds_oracle, ledger_oracle) = oracle(37, 12, 12);
        let config = small_config(37, 12);
        let executor = LocalExecutor::new(&config);
        let dir = std::env::temp_dir().join(format!("langcrux-dist-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");
        let _ = std::fs::remove_file(&path);

        // First run: crash after 3 units.
        let halted_options = DistOptions {
            quota: 12,
            workers: 1,
            checkpoint: Some(path.clone()),
            halt_after_units: Some(3),
            ..DistOptions::default()
        };
        let corpus = Corpus::build(CorpusConfig::small(37, 12));
        let halted = build_dataset_distributed(&corpus, &executor, &halted_options)
            .expect_err("run must halt");
        assert!(halted.units_completed >= 3);

        // Second run: resume from the log, complete, identical bytes.
        let resume_options = DistOptions {
            checkpoint: Some(path.clone()),
            halt_after_units: None,
            ..halted_options
        };
        let build = build_dataset_distributed(&corpus, &executor, &resume_options)
            .expect("resumed build completes");
        assert_eq!(build.dataset.to_json().unwrap(), ds_oracle);
        assert_eq!(build.ledger.to_json().unwrap(), ledger_oracle);
        assert!(build.stats.units_from_checkpoint >= 3, "{:?}", build.stats);

        // Third run over a complete log: no unit executes at all.
        let replay = build_dataset_distributed(&corpus, &executor, &resume_options)
            .expect("pure-checkpoint replay");
        assert_eq!(replay.stats.units_executed, 0, "{:?}", replay.stats);
        assert_eq!(replay.dataset.to_json().unwrap(), ds_oracle);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_for_a_different_build_is_discarded() {
        let dir = std::env::temp_dir().join(format!("langcrux-dist-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.jsonl");
        std::fs::write(&path, "not a checkpoint header\n").unwrap();
        let config = small_config(41, 8);
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 8);
        assert!(completed.is_empty());
        // The file was restarted with a valid header for this build.
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 8);
        assert!(completed.is_empty());
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("{"));
        // A different quota invalidates it again.
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 9);
        assert!(completed.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_checkpoint_line_is_ignored() {
        let dir = std::env::temp_dir().join(format!("langcrux-dist-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let config = small_config(43, 8);
        // Write a valid header + one durable entry, then a torn line.
        {
            let (mut log, _) = CheckpointLog::open(Some(&path), &config, 8);
            log.append("bd:0:4", &[]);
        }
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"unit\":\"bd:4:8\",\"verd").unwrap();
        drop(f);
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 8);
        assert_eq!(completed.len(), 1);
        assert!(completed.contains_key("bd:0:4"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wire_verdicts_round_trip_through_json() {
        // A RELIABLE corpus, and a HOSTILE one with gap scenarios: fetch
        // errors, retried traces and gap summaries must survive the wire.
        let hostile = CorpusConfig {
            fault_plan: FaultPlan::HOSTILE,
            gap_scenarios: true,
            ..CorpusConfig::small(47, 6)
        };
        let mut verdicts = Vec::new();
        for config in [CorpusConfig::small(47, 6), hostile] {
            let corpus = Corpus::build(config);
            let mut browser = Browser::new(corpus.internet(), BrowserConfig::default());
            for country in corpus.countries() {
                let range = 0..corpus.candidates(country).len();
                verdicts.extend(execute_unit(&corpus, &mut browser, country, range, None));
            }
        }
        let selected_with_gaps = |v: &WireVerdict| match &v.outcome {
            WireOutcome::Selected { record, .. } => record.gaps.is_some(),
            _ => false,
        };
        assert!(verdicts.iter().any(selected_with_gaps), "no gap summary");
        assert!(
            verdicts
                .iter()
                .any(|v| matches!(v.outcome, WireOutcome::Rejected(Rejection::Fetch(_)))),
            "no fetch-error rejection"
        );
        assert!(verdicts.iter().any(|v| v.trace.attempts > 1), "no retry");
        verdicts.push(WireVerdict {
            outcome: WireOutcome::Poisoned {
                host: "poisoned.th".to_string(),
            },
            trace: VisitTrace::default(),
        });
        let json = serde_json::to_string(&verdicts).unwrap();
        let back: Vec<WireVerdict> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, verdicts);
    }

    #[test]
    fn reassignment_backoff_is_capped_and_pure() {
        let a = reassignment_backoff_ms(7, "bd:0:64", 3);
        assert_eq!(a, reassignment_backoff_ms(7, "bd:0:64", 3));
        // Deep attempts saturate at cap + jitter.
        let deep = reassignment_backoff_ms(7, "bd:0:64", 40);
        assert!(deep <= BACKOFF_CAP_MS + BACKOFF_JITTER_MS);
        assert!(deep >= BACKOFF_CAP_MS);
    }

    #[test]
    fn worker_state_serves_units_and_rejects_garbage() {
        let config = small_config(53, 6);
        let state = WorkerState::new();
        let country = config.countries[0];
        let request = UnitRequest {
            config: config.clone(),
            country,
            start: 0,
            end: 4,
            hold_ms: 0,
        };
        let body = serde_json::to_string(&request).unwrap();
        let response = state.handle_unit(body.as_bytes()).expect("unit executes");
        let verdicts: Vec<WireVerdict> = serde_json::from_str(&response).unwrap();
        assert_eq!(verdicts.len(), 4);
        // Same config → cached corpus; different range still works.
        let request2 = UnitRequest {
            start: 4,
            end: 6,
            ..request.clone()
        };
        let body2 = serde_json::to_string(&request2).unwrap();
        assert!(state.handle_unit(body2.as_bytes()).is_ok());
        // Garbage and out-of-range units are rejected, not panicked.
        assert!(state.handle_unit(b"not json").is_err());
        let bad = UnitRequest {
            start: 0,
            end: 10_000,
            ..request
        };
        let body3 = serde_json::to_string(&bad).unwrap();
        assert!(state.handle_unit(body3.as_bytes()).is_err());
    }
}
