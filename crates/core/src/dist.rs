//! The fault-tolerant distributed build: coordinator, work units,
//! checkpoint log, and the deterministic replay that makes an N-process
//! build byte-identical to the single-process pipeline.
//!
//! ## Shape
//!
//! The coordinator plans the same probe waves as [`crate::pipeline`] —
//! per-country windows of `need + need/7 + 8` candidates, chunked into
//! `(country, candidate-range)` **work units** — but instead of handing
//! units to an in-process thread pool it dispatches them to workers
//! through a [`UnitExecutor`]. A worker executes a unit by probing every
//! candidate in its range *and*, for each qualifying candidate, running
//! the full per-site analysis, shipping back one serializable
//! [`WireVerdict`] per candidate. The coordinator then replays the
//! paper's sequential replacement walk over the concatenated verdicts —
//! the exact loop the single-process pipeline runs — so `Dataset` and
//! `CrawlLedger` bytes are independent of worker count, scheduling, and
//! failure timing.
//!
//! ## Why the bytes cannot drift
//!
//! * **Probe purity** (the PR 1 contract): a candidate's verdict is a
//!   pure function of `(corpus seed, host, vantage)`. Workers rebuild
//!   their corpus shards from [`WireBuildConfig`]; shard contents are
//!   pure in `(seed, country)`, so every worker — and every *retry* of a
//!   killed unit — computes the identical verdict list.
//! * **Wave congruence**: window extents depend only on quota and
//!   qualified counts, never on chunking, so the coordinator probes the
//!   same candidate prefix as the in-process pipeline at every worker
//!   count.
//! * **Replay**: selection, ledger folding, and example caps run in the
//!   same sequential order over the same verdicts, through the same
//!   accumulators ([`CountryLedger::record_probe_outcome`],
//!   [`tally_outcome`]).
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

use crate::dataset::{Dataset, ExtremeExample, MismatchExample, SiteRecord};
use crate::ledger::{CountryLedger, CrawlLedger, DegradedUnit};
use crate::pipeline::{chunk_ranges, probe_window, process_site, to_summary};
use crate::selection::{probe_candidate_traced, tally_outcome, Rejection, SelectionStats};
use langcrux_crawl::{Browser, BrowserConfig, VisitTrace};
use langcrux_kizuki::{Kizuki, ScreenReader};
use langcrux_lang::{rng, Country};
use langcrux_net::{vpn_vantage, FaultPlan};
use langcrux_obs as obs;
use langcrux_webgen::{Corpus, CorpusConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Derivation stream tag for reassignment-backoff jitter (disjoint from
/// the crawl backoff stream `0xB0FF` and the fault-roll streams).
const DIST_BACKOFF_STREAM: u64 = 0xD1B0;

/// Everything a worker process needs to rebuild a corpus congruent with
/// the coordinator's, plus the browser discipline to probe it with.
/// Carried inside every [`UnitRequest`] so workers are stateless across
/// builds (a worker caches the corpus keyed by this config's JSON).
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
    pub browser: BrowserConfig,
}

impl WireBuildConfig {
    /// Capture the corpus a coordinator is building from.
    pub fn of(corpus: &Corpus, browser: BrowserConfig) -> Self {
        let config = corpus.config();
        WireBuildConfig {
            seed: config.seed,
            sites_per_country: config.sites_per_country,
            countries: config.countries.clone(),
            overprovision: config.overprovision,
            resident_shards: config.resident_shards,
            gap_scenarios: config.gap_scenarios,
            fault_plan: *corpus.internet().fault_plan(),
            browser,
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

/// One candidate's verdict as computed by a worker. `Selected` carries
/// the *finished* site record (plus uncapped example captures) so the
/// coordinator never fetches or analyses anything itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireOutcome {
    Selected {
        record: SiteRecord,
        extremes: Vec<ExtremeExample>,
        mismatches: Vec<MismatchExample>,
    },
    Rejected(Rejection),
}

/// One probed candidate on the wire: verdict plus its visit trace, the
/// same pair the in-process pipeline replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireVerdict {
    pub outcome: WireOutcome,
    pub trace: VisitTrace,
}

impl WireVerdict {
    fn is_selected(&self) -> bool {
        matches!(self.outcome, WireOutcome::Selected { .. })
    }

    /// The site-free verdict the shared ledger/stats accumulators fold.
    fn outcome_ref(&self) -> Result<(), &Rejection> {
        match &self.outcome {
            WireOutcome::Selected { .. } => Ok(()),
            WireOutcome::Rejected(r) => Err(r),
        }
    }
}

/// Execute one work unit against a corpus: probe every candidate in the
/// range and fully analyse each qualifying one. This is the worker-side
/// entry point — `repro --dist-worker` calls it behind the RPC endpoint,
/// and [`LocalExecutor`] calls it in-process for tests.
pub fn execute_unit(
    corpus: &Corpus,
    browser_config: BrowserConfig,
    country: Country,
    start: usize,
    end: usize,
) -> Vec<WireVerdict> {
    let mut span = obs::trace::span("dist.unit", obs::trace::key_str(country.code()));
    let vantage = vpn_vantage(country).unwrap_or_else(|| panic!("no VPN endpoint for {country:?}"));
    let native = country.target_language();
    let kizuki = Kizuki::standard();
    let reader = ScreenReader::voiceover_like();
    let gaps_enabled = corpus.config().gap_scenarios;
    let mut browser = Browser::new(corpus.internet(), browser_config);
    let mut verdicts = Vec::with_capacity(end - start);
    let mut virtual_ms = 0u64;
    for plan in corpus.candidates(country)[start..end].iter() {
        let (outcome, trace) = probe_candidate_traced(&mut browser, plan, vantage, native);
        virtual_ms += trace.virtual_ms;
        let outcome = match outcome {
            Ok(site) => {
                let mut extremes = Vec::new();
                let mut mismatches = Vec::new();
                let gap_reader = gaps_enabled.then_some(&reader);
                let record = process_site(
                    &site,
                    country,
                    &kizuki,
                    gap_reader,
                    &mut extremes,
                    &mut mismatches,
                );
                WireOutcome::Selected {
                    record,
                    extremes,
                    mismatches,
                }
            }
            Err(rejection) => WireOutcome::Rejected(rejection),
        };
        verdicts.push(WireVerdict { outcome, trace });
    }
    span.set_virtual_ms(virtual_ms);
    verdicts
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
/// injectable failure schedule. The backbone of the kill-at-every-
/// boundary test suite.
pub struct LocalExecutor {
    corpus: Corpus,
    /// Injected failure: `(unit key, attempt) -> fail?`. A failing
    /// dispatch still computes nothing — like a SIGKILLed worker, its
    /// partial work is simply never observed.
    #[allow(clippy::type_complexity)]
    pub fail: Option<Arc<dyn Fn(&str, u32) -> bool + Send + Sync>>,
}

impl LocalExecutor {
    /// Build the executor's own corpus from the wire config — the same
    /// reconstruction a worker process performs, so tests exercise the
    /// config round-trip too.
    pub fn new(config: &WireBuildConfig) -> Self {
        LocalExecutor {
            corpus: config.build_corpus(),
            fail: None,
        }
    }

    /// Fail dispatches according to `schedule`.
    pub fn with_failures(
        config: &WireBuildConfig,
        schedule: impl Fn(&str, u32) -> bool + Send + Sync + 'static,
    ) -> Self {
        LocalExecutor {
            corpus: config.build_corpus(),
            fail: Some(Arc::new(schedule)),
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
        Ok(execute_unit(
            &self.corpus,
            request.config.browser,
            request.country,
            request.start,
            request.end,
        ))
    }
}

/// Coordinator options. The dataset/ledger bytes produced under any
/// `workers`/failure schedule equal `build_dataset_with_ledger` with a
/// `PipelineOptions` carrying the same `quota`, `browser`, and example
/// caps — the tested contract.
#[derive(Debug, Clone)]
pub struct DistOptions {
    pub quota: usize,
    pub browser: BrowserConfig,
    pub max_extreme_examples: usize,
    pub max_mismatch_examples: usize,
    /// Worker slots (dispatcher threads / worker processes).
    pub workers: usize,
    /// Reassignments after a unit's first dispatch before it is given up
    /// as degraded.
    pub max_reassignments: u32,
    /// Consecutive dispatch failures on one worker slot that trip its
    /// breaker and force a revive.
    pub worker_breaker_threshold: u32,
    /// Per-unit lease: wall milliseconds the executor waits for a unit
    /// before declaring the worker stalled.
    pub lease_ms: u64,
    /// Virtual-clock reassignment backoff (the crawl discipline's shape:
    /// `min(base << attempt, cap) + jitter`, pure in
    /// `(seed, unit, attempt)`).
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    pub backoff_jitter_ms: u64,
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
            browser: BrowserConfig::default(),
            max_extreme_examples: 40,
            max_mismatch_examples: 24,
            workers: 2,
            max_reassignments: 5,
            worker_breaker_threshold: 3,
            lease_ms: 60_000,
            backoff_base_ms: 200,
            backoff_cap_ms: 5_000,
            backoff_jitter_ms: 50,
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

/// Reassignment backoff for dispatch attempt `attempt` of `unit_key` —
/// the crawl engine's capped-exponential shape with seeded jitter, pure
/// in `(seed, unit, attempt)` so degraded-run accounting is reproducible.
fn reassignment_backoff_ms(options: &DistOptions, seed: u64, unit_key: &str, attempt: u32) -> u64 {
    let exp = options
        .backoff_base_ms
        .checked_shl(attempt.min(16))
        .unwrap_or(u64::MAX)
        .min(options.backoff_cap_ms);
    let jitter = if options.backoff_jitter_ms == 0 {
        0
    } else {
        rng::rng_for(
            seed,
            &[
                rng::stream_id(unit_key),
                u64::from(attempt),
                DIST_BACKOFF_STREAM,
            ],
        )
        .gen_range(0..=options.backoff_jitter_ms)
    };
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
        let entry = CheckpointEntry {
            unit: unit.to_string(),
            verdicts: verdicts.to_vec(),
        };
        writeln!(
            file,
            "{}",
            serde_json::to_string(&entry).expect("serialize checkpoint entry")
        )
        .expect("append checkpoint entry");
        file.flush().expect("flush checkpoint log");
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Per-country coordinator state across waves.
struct CountryState {
    country: Country,
    /// Concatenated unit verdicts for the candidate prefix `0..probed`
    /// (frozen at the first hole once `degraded`).
    verdicts: Vec<WireVerdict>,
    qualified: usize,
    probed: usize,
    degraded: bool,
}

/// Resolution of one planned unit after the wave's scheduler drains.
enum UnitResolution {
    Pending,
    Done(Vec<WireVerdict>),
    Lost,
}

/// Run the distributed build: plan waves, dispatch units through the
/// executor with lease/retry/checkpoint handling, then replay and
/// assemble the dataset + ledger.
///
/// Returns `Err(DistHalted)` only under the
/// [`DistOptions::halt_after_units`] crash simulation.
pub fn build_dataset_distributed<E: UnitExecutor + ?Sized>(
    corpus: &Corpus,
    executor: &E,
    options: &DistOptions,
) -> Result<DistBuild, DistHalted> {
    let workers = options.workers.max(1);
    let _build_span = obs::trace::span("dist.build", corpus.config().seed);
    let config = WireBuildConfig::of(corpus, options.browser);
    let (log, completed) =
        CheckpointLog::open(options.checkpoint.as_deref(), &config, options.quota);
    let checkpoint = Mutex::new(log);
    let completed = Mutex::new(completed);

    let mut states: Vec<CountryState> = corpus
        .countries()
        .map(|country| CountryState {
            country,
            verdicts: Vec::new(),
            qualified: 0,
            probed: 0,
            degraded: false,
        })
        .collect();
    let mut degraded_units: Vec<DegradedUnit> = Vec::new();
    let mut stats = DistStats {
        workers,
        ..DistStats::default()
    };
    let executed_this_run = AtomicUsize::new(0);
    let halted = AtomicBool::new(false);

    let mut wave_ordinal = 0u64;
    loop {
        // ---- Plan the wave: same windows as the in-process pipeline.
        let mut windows: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut total = 0usize;
        for (ci, st) in states.iter().enumerate() {
            if st.degraded || st.qualified >= options.quota {
                continue;
            }
            let candidates = corpus.candidates(st.country).len();
            if st.probed >= candidates {
                continue;
            }
            let need = options.quota - st.qualified;
            let window = probe_window(need).min(candidates - st.probed);
            windows.push((ci, st.probed..st.probed + window));
            total += window;
        }
        if windows.is_empty() {
            break;
        }
        let _wave_span = obs::trace::span("dist.wave", wave_ordinal);
        wave_ordinal += 1;
        stats.waves += 1;
        let chunk = (total / (workers * 4).max(1)).clamp(4, 64);
        let mut units: Vec<(usize, UnitRequest)> = Vec::new();
        for (ci, window) in windows {
            for r in chunk_ranges(window.len(), chunk) {
                units.push((
                    ci,
                    UnitRequest {
                        config: config.clone(),
                        country: states[ci].country,
                        start: window.start + r.start,
                        end: window.start + r.end,
                        hold_ms: 0,
                    },
                ));
            }
        }
        stats.units_planned += units.len() as u64;

        // ---- Execute the wave.
        let resolutions = run_wave(
            executor,
            &units,
            options,
            workers,
            corpus.config().seed,
            &checkpoint,
            &completed,
            &mut stats,
            &executed_this_run,
            &halted,
        );

        // ---- Fold unit results in plan order; a lost unit opens a hole
        // that freezes the country's verdict prefix (graceful
        // degradation: shortfall, not abort).
        let mut saw_pending = false;
        for ((ci, req), resolution) in units.iter().zip(resolutions) {
            let st = &mut states[*ci];
            match resolution {
                UnitResolution::Done(vs) => {
                    st.probed = req.end;
                    if !st.degraded {
                        st.qualified += vs.iter().filter(|v| v.is_selected()).count();
                        st.verdicts.extend(vs);
                    }
                }
                UnitResolution::Lost => {
                    st.probed = req.end;
                    if !st.degraded {
                        st.degraded = true;
                        stats.degraded_units += 1;
                        degraded_units.push(DegradedUnit {
                            country_code: req.country.code().to_string(),
                            start: req.start as u64,
                            end: req.end as u64,
                            attempts: 1 + options.max_reassignments,
                        });
                    }
                }
                UnitResolution::Pending => saw_pending = true,
            }
        }
        if halted.load(Ordering::SeqCst) || saw_pending {
            return Err(DistHalted {
                units_completed: executed_this_run.load(Ordering::SeqCst),
            });
        }
    }

    let (dataset, ledger) = assemble(corpus, options, states, degraded_units);
    Ok(DistBuild {
        dataset,
        ledger,
        stats,
    })
}

/// Dispatch one wave's units across the worker slots until every unit is
/// done or lost (or the halt simulation fires). One dispatcher thread
/// per worker slot; failed dispatches re-queue with virtual backoff
/// until the reassignment budget is exhausted.
#[allow(clippy::too_many_arguments)]
fn run_wave<E: UnitExecutor + ?Sized>(
    executor: &E,
    units: &[(usize, UnitRequest)],
    options: &DistOptions,
    workers: usize,
    seed: u64,
    checkpoint: &Mutex<CheckpointLog>,
    completed: &Mutex<HashMap<String, Vec<WireVerdict>>>,
    stats: &mut DistStats,
    executed_this_run: &AtomicUsize,
    halted: &AtomicBool,
) -> Vec<UnitResolution> {
    let mut resolutions: Vec<UnitResolution> = Vec::with_capacity(units.len());
    let mut queue: VecDeque<(usize, u32)> = VecDeque::new();
    {
        let completed = completed.lock().unwrap();
        for (idx, (_, req)) in units.iter().enumerate() {
            if let Some(vs) = completed.get(&req.key()) {
                stats.units_from_checkpoint += 1;
                resolutions.push(UnitResolution::Done(vs.clone()));
            } else {
                queue.push_back((idx, 0));
                resolutions.push(UnitResolution::Pending);
            }
        }
    }
    let pending = AtomicUsize::new(queue.len());
    if queue.is_empty() {
        return resolutions;
    }
    let queue = Mutex::new(queue);
    let resolutions = Mutex::new(resolutions);
    // Wave-scoped counter deltas, folded into `stats` after the scope
    // joins (dispatchers run on their own threads).
    let delta = Mutex::new(DistStats::default());
    // Dispatchers carry the caller's trace context, so in-process units
    // record into a traced build's session.
    let trace_context = &obs::trace::current();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queue = &queue;
            let resolutions = &resolutions;
            let delta = &delta;
            let pending = &pending;
            scope.spawn(move || {
                let _trace = trace_context.enter();
                let mut consecutive_failures = 0u32;
                loop {
                    if halted.load(Ordering::SeqCst) {
                        break;
                    }
                    let job = queue.lock().unwrap().pop_front();
                    let Some((idx, attempt)) = job else {
                        if pending.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        // Another dispatcher may still re-queue a failed
                        // unit; yield briefly and re-check.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        continue;
                    };
                    let (_, req) = &units[idx];
                    let key = req.key();
                    if !executor.heartbeat(worker) {
                        let mut d = delta.lock().unwrap();
                        d.heartbeat_failures += 1;
                        d.worker_revivals += u64::from(executor.revive(worker));
                    }
                    match executor.execute(worker, attempt, req) {
                        Ok(verdicts) => {
                            consecutive_failures = 0;
                            checkpoint.lock().unwrap().append(&key, &verdicts);
                            completed.lock().unwrap().insert(key, verdicts.clone());
                            resolutions.lock().unwrap()[idx] = UnitResolution::Done(verdicts);
                            pending.fetch_sub(1, Ordering::SeqCst);
                            delta.lock().unwrap().units_executed += 1;
                            let done = executed_this_run.fetch_add(1, Ordering::SeqCst) + 1;
                            if let Some(halt) = options.halt_after_units {
                                if done >= halt {
                                    halted.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        Err(error) => {
                            consecutive_failures += 1;
                            {
                                let mut d = delta.lock().unwrap();
                                match &error {
                                    UnitError::WorkerDied(_) => d.worker_deaths += 1,
                                    UnitError::LeaseExpired(_) => d.lease_expirations += 1,
                                }
                                if attempt < options.max_reassignments {
                                    d.reassignments += 1;
                                    d.backoff_virtual_ms +=
                                        reassignment_backoff_ms(options, seed, &key, attempt);
                                }
                            }
                            if attempt < options.max_reassignments {
                                queue.lock().unwrap().push_back((idx, attempt + 1));
                            } else {
                                resolutions.lock().unwrap()[idx] = UnitResolution::Lost;
                                pending.fetch_sub(1, Ordering::SeqCst);
                            }
                            if consecutive_failures >= options.worker_breaker_threshold.max(1) {
                                delta.lock().unwrap().worker_revivals +=
                                    u64::from(executor.revive(worker));
                                consecutive_failures = 0;
                            }
                        }
                    }
                }
            });
        }
    });

    let delta = delta.into_inner().unwrap();
    stats.units_executed += delta.units_executed;
    stats.reassignments += delta.reassignments;
    stats.worker_deaths += delta.worker_deaths;
    stats.lease_expirations += delta.lease_expirations;
    stats.heartbeat_failures += delta.heartbeat_failures;
    stats.worker_revivals += delta.worker_revivals;
    stats.backoff_virtual_ms += delta.backoff_virtual_ms;
    resolutions.into_inner().unwrap()
}

/// Replay the sequential replacement walk over each country's verdicts
/// and assemble the dataset + ledger — the same loop, accumulators, and
/// caps as the in-process pipeline, so the bytes cannot differ.
fn assemble(
    corpus: &Corpus,
    options: &DistOptions,
    states: Vec<CountryState>,
    mut degraded_units: Vec<DegradedUnit>,
) -> (Dataset, CrawlLedger) {
    struct CountryOut {
        country: Country,
        records: Vec<SiteRecord>,
        summary: crate::dataset::CountryCrawlSummary,
        extremes: Vec<ExtremeExample>,
        mismatches: Vec<MismatchExample>,
    }

    let mut country_ledgers: Vec<CountryLedger> = Vec::with_capacity(states.len());
    let mut results: Vec<CountryOut> = Vec::with_capacity(states.len());
    for st in states {
        let mut replay_span =
            obs::trace::span("dist.replay", obs::trace::key_str(st.country.code()));
        let mut ledger = CountryLedger::new(st.country.code());
        let mut stats = SelectionStats::default();
        let mut records = Vec::new();
        let mut extremes = Vec::new();
        let mut mismatches = Vec::new();
        let mut error_run = 0u64;
        let mut selected = 0usize;
        for verdict in &st.verdicts {
            if selected >= options.quota {
                break;
            }
            ledger.record_probe_outcome(verdict.outcome_ref(), &verdict.trace);
            if verdict.is_selected() {
                ledger.note_replacement_run(error_run);
                error_run = 0;
            } else {
                error_run += 1;
            }
            tally_outcome(verdict.outcome_ref(), &mut stats);
            if let WireOutcome::Selected {
                record,
                extremes: site_extremes,
                mismatches: site_mismatches,
            } = &verdict.outcome
            {
                selected += 1;
                if let Some(gaps) = &record.gaps {
                    ledger.gap_pages += 1;
                    ledger.gap_regions += u64::from(gaps.regions);
                }
                records.push(record.clone());
                for e in site_extremes {
                    if extremes.len() < options.max_extreme_examples {
                        extremes.push(e.clone());
                    }
                }
                for m in site_mismatches {
                    if mismatches.len() < options.max_mismatch_examples {
                        mismatches.push(m.clone());
                    }
                }
            }
        }
        ledger.note_replacement_run(error_run);
        stats.shortfall = (options.quota as u64).saturating_sub(stats.selected);
        replay_span.set_virtual_ms(ledger.virtual_ms);
        let summary = to_summary(st.country, &stats);
        country_ledgers.push(ledger);
        results.push(CountryOut {
            country: st.country,
            records,
            summary,
            extremes,
            mismatches,
        });
    }

    results.sort_by_key(|r| Country::STUDY.iter().position(|&c| c == r.country));
    country_ledgers.sort_by_key(|l| {
        Country::STUDY
            .iter()
            .position(|&c| c.code() == l.country_code)
    });
    degraded_units.sort_by_key(|u| {
        (
            Country::STUDY
                .iter()
                .position(|&c| c.code() == u.country_code),
            u.start,
        )
    });

    let mut dataset = Dataset {
        seed: corpus.config().seed,
        quota: options.quota,
        ..Dataset::default()
    };
    for mut result in results {
        dataset.records.append(&mut result.records);
        dataset.crawl_summaries.push(result.summary);
        for e in result.extremes {
            if dataset.extreme_examples.len() < options.max_extreme_examples {
                dataset.extreme_examples.push(e);
            }
        }
        for m in result.mismatches {
            if dataset.mismatch_examples.len() < options.max_mismatch_examples {
                dataset.mismatch_examples.push(m);
            }
        }
    }
    let mut ledger = CrawlLedger::new(
        corpus.config().seed,
        *corpus.internet().fault_plan(),
        country_ledgers,
    );
    ledger.degraded_units = degraded_units;
    (dataset, ledger)
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
        let verdicts = execute_unit(
            &corpus,
            request.config.browser,
            request.country,
            request.start,
            request.end,
        );
        serde_json::to_string(&verdicts).map_err(|e| format!("serialize verdicts: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_dataset_with_ledger, PipelineOptions};

    fn small_config(seed: u64, sites: usize) -> WireBuildConfig {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        WireBuildConfig::of(&corpus, BrowserConfig::default())
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
        let config = small_config(47, 6);
        let corpus = config.build_corpus();
        let country = corpus.countries().next().unwrap();
        let verdicts = execute_unit(&corpus, config.browser, country, 0, 6);
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().any(|v| v.is_selected()));
        let json = serde_json::to_string(&verdicts).unwrap();
        let back: Vec<WireVerdict> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, verdicts);
    }

    #[test]
    fn reassignment_backoff_is_capped_and_pure() {
        let options = DistOptions::default();
        let a = reassignment_backoff_ms(&options, 7, "bd:0:64", 3);
        assert_eq!(a, reassignment_backoff_ms(&options, 7, "bd:0:64", 3));
        // Deep attempts saturate at cap + jitter.
        let deep = reassignment_backoff_ms(&options, 7, "bd:0:64", 40);
        assert!(deep <= options.backoff_cap_ms + options.backoff_jitter_ms);
        assert!(deep >= options.backoff_cap_ms);
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
