//! The end-to-end LangCrUX pipeline: corpus → selection → crawl → dataset.
//!
//! One call ([`build_dataset`]) reproduces the paper's Figure 1 flow:
//! country-by-country VPN-vantage crawls over CrUX-rank-ordered candidates,
//! the 50% native-content inclusion rule with next-candidate replacement,
//! accessibility-element extraction, filtering, label-language
//! classification, base audits and Kizuki rescoring.
//!
//! ## Parallelism model
//!
//! Work is sharded as `(country, chunk)` units over the shared
//! work-stealing pool in `langcrux-crawl` (one worker per core by default),
//! replacing the old one-thread-per-country scope that left most cores
//! idle whenever country counts and core counts disagreed. Two properties
//! make this safe:
//!
//! * **Probe purity** — a candidate's fetch outcome and composition verdict
//!   depend only on `(corpus seed, host, vantage)`, never on probe order,
//!   so candidate chunks can run on any worker in any order.
//! * **Verdict replay** — the paper's sequential rank-order replacement
//!   walk is replayed over the probed verdicts afterwards, so selection
//!   stats, the chosen sites, and the shortfall accounting are identical
//!   to the sequential walk at every thread count.
//!
//! Record order is deterministic (study order, then rank order), and
//! `Dataset::to_json` output is byte-identical across runs and thread
//! counts — a tested invariant.
//!
//! ## Graceful degradation
//!
//! Every per-site analysis unit is unwind-guarded: a panic while
//! processing one site poisons only that site — its host is listed in
//! the run's [`CrawlLedger`] and the remaining sites of the chunk (and
//! the pool) proceed untouched. [`build_dataset_with_ledger`] returns
//! the ledger alongside the dataset; both serialize byte-identically at
//! every worker count.

use crate::dataset::{
    CountryCrawlSummary, Dataset, ElementRecord, ExtremeExample, MismatchExample, SiteGaps,
    SiteRecord, TextState,
};
use crate::ledger::{CountryLedger, CrawlLedger};
use crate::selection::{
    probe_candidate_traced, tally_probe, Rejection, SelectedSite, SelectionStats,
};
use langcrux_audit::{audit_page, gap_report, GapKind};
use langcrux_crawl::pool::{default_threads, run_work_stealing, run_work_stealing_with};
use langcrux_crawl::{Browser, BrowserConfig, VisitTrace};
use langcrux_kizuki::{Kizuki, PageAnalysis, ScreenReader, TextAnalysis};
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Country;
use langcrux_langid::LabelLanguage;
use langcrux_net::vpn_vantage;
use langcrux_obs as obs;
use langcrux_webgen::Corpus;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Pipeline options.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Sites per country to select (the paper: 10,000).
    pub quota: usize,
    pub browser: BrowserConfig,
    /// Cap on captured extreme examples (Table 4).
    pub max_extreme_examples: usize,
    /// Cap on captured mismatch examples (Table 5).
    pub max_mismatch_examples: usize,
    /// Worker threads for the shared pool; 0 means one per core.
    pub threads: usize,
    /// Chaos hook: panic inside the analysis of any site whose host this
    /// predicate matches. Exercises the unwind guard; `None` in
    /// production.
    pub chaos_panic_host: Option<fn(&str) -> bool>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            quota: 1_000,
            browser: BrowserConfig::default(),
            max_extreme_examples: 40,
            max_mismatch_examples: 24,
            threads: 0,
            chaos_panic_host: None,
        }
    }
}

struct CountryResult {
    country: Country,
    records: Vec<SiteRecord>,
    summary: CountryCrawlSummary,
    extremes: Vec<ExtremeExample>,
    mismatches: Vec<MismatchExample>,
}

/// Per-country progress of the wave-probed selection phase.
struct CountryProbe {
    country: Country,
    /// Probe outcomes (verdict + visit trace) for the candidate prefix
    /// `0..verdicts.len()`.
    verdicts: Vec<(Result<SelectedSite, Rejection>, VisitTrace)>,
    /// Qualifying candidates seen so far in the prefix.
    qualified: usize,
}

/// Candidate chunks the probe phase hands to the pool.
type ProbeTask = (usize, Range<usize>);

/// Build the dataset from a corpus.
pub fn build_dataset(corpus: &Corpus, options: PipelineOptions) -> Dataset {
    build_dataset_with_ledger(corpus, options).0
}

/// Build the dataset plus its degraded-run [`CrawlLedger`].
///
/// The ledger is folded from the same sequentially-replayed verdict
/// prefix that selects the sites, so its bytes — like the dataset's —
/// depend only on `(corpus seed, fault plan, quota)`, never on the
/// worker count.
pub fn build_dataset_with_ledger(
    corpus: &Corpus,
    options: PipelineOptions,
) -> (Dataset, CrawlLedger) {
    let threads = if options.threads == 0 {
        default_threads()
    } else {
        options.threads
    };
    let countries: Vec<Country> = corpus.countries().collect();
    // Root span for the whole build; pool tasks fence their own depth,
    // so worker-side spans record identically at every thread count.
    let _build_span = obs::trace::span("pipeline.build", corpus.config().seed);
    // Hoisted: one Kizuki engine for the whole run (it is stateless and
    // Sync); previously rebuilt per site record.
    let kizuki = Kizuki::standard();
    // Translation-gap detection runs only when the corpus was built with
    // gap scenarios enabled; the reference reader maps each flagged
    // region to what a screen reader would do with it.
    let gaps_enabled = corpus.config().gap_scenarios;
    let reader = ScreenReader::voiceover_like();

    // ---- Phase 1: probe candidates in waves of (country, chunk) units.
    let mut probes: Vec<CountryProbe> = countries
        .iter()
        .map(|&country| CountryProbe {
            country,
            verdicts: Vec::new(),
            qualified: 0,
        })
        .collect();

    let mut wave_ordinal = 0u64;
    loop {
        let tasks = probe_wave_tasks(corpus, &probes, options.quota, threads);
        if tasks.is_empty() {
            break;
        }
        // Wave count and ordinal are quota-driven, not thread-driven, so
        // the span structure is stable across worker counts.
        let _wave_span = obs::trace::span("pipeline.probe_wave", wave_ordinal);
        wave_ordinal += 1;
        // One browser per pool worker: its fetch buffer (and the render
        // arenas it exercises downstream) are recycled across every chunk
        // the worker probes, regardless of country.
        let wave = run_work_stealing_with(
            threads,
            &tasks,
            |_| Browser::new(corpus.internet(), options.browser),
            |browser, _, task: &ProbeTask| {
                let (ci, range) = task;
                let country = probes[*ci].country;
                let vantage = vpn_vantage(country)
                    .unwrap_or_else(|| panic!("no VPN endpoint for {country:?}"));
                let native = country.target_language();
                corpus.candidates(country)[range.clone()]
                    .iter()
                    .map(|plan| probe_candidate_traced(browser, plan, vantage, native))
                    .collect::<Vec<_>>()
            },
        );
        for ((ci, _), outcomes) in tasks.iter().zip(wave) {
            let probe = &mut probes[*ci];
            probe.qualified += outcomes.iter().filter(|(o, _)| o.is_ok()).count();
            probe.verdicts.extend(outcomes);
        }
    }

    // Replay the paper's sequential replacement walk over the verdicts,
    // folding the degraded-run ledger from the same consumed prefix.
    let mut country_ledgers: Vec<CountryLedger> = Vec::with_capacity(probes.len());
    let selections: Vec<(Country, Vec<SelectedSite>, SelectionStats)> = probes
        .into_iter()
        .map(|probe| {
            let mut replay_span = obs::trace::span(
                "pipeline.verdict_replay",
                obs::trace::key_str(probe.country.code()),
            );
            let mut selected = Vec::with_capacity(options.quota);
            let mut stats = SelectionStats::default();
            let mut ledger = CountryLedger::new(probe.country.code());
            let mut error_run = 0u64;
            for (outcome, trace) in probe.verdicts {
                if selected.len() >= options.quota {
                    break;
                }
                ledger.record_probe(&outcome, &trace);
                if outcome.is_ok() {
                    ledger.note_replacement_run(error_run);
                    error_run = 0;
                } else {
                    error_run += 1;
                }
                tally_probe(outcome, &mut selected, &mut stats);
            }
            ledger.note_replacement_run(error_run);
            stats.shortfall = (options.quota as u64).saturating_sub(stats.selected);
            replay_span.set_virtual_ms(ledger.virtual_ms);
            country_ledgers.push(ledger);
            (probe.country, selected, stats)
        })
        .collect();

    // ---- Phase 2: analyse selected sites as (country, chunk) units.
    let total_sites: usize = selections.iter().map(|(_, s, _)| s.len()).sum();
    let chunk = (total_sites / (threads * 4).max(1)).clamp(1, 32);
    let site_tasks: Vec<ProbeTask> = selections
        .iter()
        .enumerate()
        .flat_map(|(ci, (_, sites, _))| chunk_ranges(sites.len(), chunk).map(move |r| (ci, r)))
        .collect();

    struct ChunkOut {
        records: Vec<SiteRecord>,
        extremes: Vec<ExtremeExample>,
        mismatches: Vec<MismatchExample>,
        /// Hosts whose analysis panicked (contained by the unwind guard).
        poisoned: Vec<String>,
    }

    let kizuki_ref = &kizuki;
    let reader_ref = &reader;
    let selections_ref = &selections;
    let chunk_outputs = run_work_stealing(threads, &site_tasks, |_, task: &ProbeTask| {
        let (ci, range) = task;
        let (country, sites, _) = &selections_ref[*ci];
        let mut out = ChunkOut {
            records: Vec::with_capacity(range.len()),
            extremes: Vec::new(),
            mismatches: Vec::new(),
            poisoned: Vec::new(),
        };
        for site in &sites[range.clone()] {
            // Per-site span (not per-chunk: chunk sizes vary with thread
            // count, site counts don't). A panic unwinds through the
            // guard, so even poisoned sites record their span.
            let _site_span = obs::trace::span(
                "pipeline.analyze_site",
                obs::trace::key_str(&site.plan.host),
            );
            // Unwind guard: one site's panic poisons only that site.
            // Examples land in per-site scratch vecs so a partial capture
            // from a poisoned site can't leak into the output.
            let unit = catch_unwind(AssertUnwindSafe(|| {
                if let Some(chaos) = options.chaos_panic_host {
                    if chaos(&site.plan.host) {
                        panic!("chaos hook: injected analysis panic");
                    }
                }
                let mut extremes = Vec::new();
                let mut mismatches = Vec::new();
                let gap_reader = gaps_enabled.then_some(reader_ref);
                let record = process_site(
                    site,
                    *country,
                    kizuki_ref,
                    gap_reader,
                    &mut extremes,
                    &mut mismatches,
                );
                (record, extremes, mismatches)
            }));
            match unit {
                Ok((record, mut extremes, mut mismatches)) => {
                    out.records.push(record);
                    out.extremes.append(&mut extremes);
                    out.mismatches.append(&mut mismatches);
                }
                Err(_) => out.poisoned.push(site.plan.host.clone()),
            }
        }
        // Examples beyond the cap can never survive the ordered merge, so
        // don't carry them out of the chunk (first-N semantics preserved:
        // the merge takes examples in site order and truncates again).
        out.extremes.truncate(options.max_extreme_examples);
        out.mismatches.truncate(options.max_mismatch_examples);
        out
    });

    // Deterministic merge: chunks arrive in (country, site) order; fold
    // them into per-country results and apply the example caps exactly
    // where the sequential per-country loop applied them.
    let _fold_span = obs::trace::span("pipeline.ledger_fold", 0);
    let mut results: Vec<CountryResult> = selections
        .iter()
        .map(|(country, _, stats)| CountryResult {
            country: *country,
            records: Vec::new(),
            summary: to_summary(*country, stats),
            extremes: Vec::new(),
            mismatches: Vec::new(),
        })
        .collect();
    for ((ci, _), mut out) in site_tasks.iter().zip(chunk_outputs) {
        let ledger = &mut country_ledgers[*ci];
        ledger.poisoned_sites.append(&mut out.poisoned);
        // Gap counters fold from the records themselves during the
        // ordered merge, so — like every other ledger field — they are
        // independent of which worker analysed which chunk.
        for record in &out.records {
            if let Some(gaps) = &record.gaps {
                ledger.gap_pages += 1;
                ledger.gap_regions += u64::from(gaps.regions);
            }
        }
        let result = &mut results[*ci];
        result.records.append(&mut out.records);
        for e in out.extremes {
            if result.extremes.len() < options.max_extreme_examples {
                result.extremes.push(e);
            }
        }
        for m in out.mismatches {
            if result.mismatches.len() < options.max_mismatch_examples {
                result.mismatches.push(m);
            }
        }
    }

    // Deterministic order: study order, independent of scheduling.
    results.sort_by_key(|r| Country::STUDY.iter().position(|&c| c == r.country));
    country_ledgers.sort_by_key(|l| {
        Country::STUDY
            .iter()
            .position(|&c| c.code() == l.country_code)
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
    let ledger = CrawlLedger::new(
        corpus.config().seed,
        *corpus.internet().fault_plan(),
        country_ledgers,
    );
    (dataset, ledger)
}

/// Plan the next wave of `(country, candidate-chunk)` probe units.
///
/// Each country still short of quota extends its probed prefix far enough
/// to plausibly fill the remainder (the paper's ~12% disqualification rate
/// plus slack); countries that already have enough qualifying verdicts —
/// or no candidates left — contribute nothing. An empty plan ends phase 1.
fn probe_wave_tasks(
    corpus: &Corpus,
    probes: &[CountryProbe],
    quota: usize,
    threads: usize,
) -> Vec<ProbeTask> {
    let mut tasks = Vec::new();
    let mut total = 0usize;
    let mut windows: Vec<(usize, Range<usize>)> = Vec::new();
    for (ci, probe) in probes.iter().enumerate() {
        if probe.qualified >= quota {
            continue;
        }
        let candidates = corpus.candidates(probe.country).len();
        let probed = probe.verdicts.len();
        if probed >= candidates {
            continue;
        }
        let need = quota - probe.qualified;
        let window = probe_window(need).min(candidates - probed);
        windows.push((ci, probed..probed + window));
        total += window;
    }
    // Chunk the windows so every worker gets several units to steal.
    let chunk = (total / (threads * 4).max(1)).clamp(4, 64);
    for (ci, window) in windows {
        for range in chunk_ranges(window.len(), chunk) {
            tasks.push((ci, window.start + range.start..window.start + range.end));
        }
    }
    tasks
}

/// The probe window a country still short of quota extends its probed
/// prefix by: the outstanding need inflated by the expected ~12%
/// disqualification rate, plus slack so small quotas converge in one
/// wave. Shared with the distributed coordinator so its wave planning
/// probes exactly the same candidate prefix as the in-process pipeline.
pub(crate) fn probe_window(need: usize) -> usize {
    need + need / 7 + 8
}

/// Split `0..len` into consecutive ranges of at most `chunk`.
pub(crate) fn chunk_ranges(len: usize, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = chunk.max(1);
    (0..len.div_ceil(chunk)).map(move |i| (i * chunk)..((i + 1) * chunk).min(len))
}

pub(crate) fn to_summary(country: Country, stats: &SelectionStats) -> CountryCrawlSummary {
    CountryCrawlSummary {
        country_code: country.code().to_string(),
        attempted: stats.attempted,
        selected: stats.selected,
        rejected_threshold: stats.rejected_threshold,
        failed_fetch: stats.failed_fetch,
        restricted: stats.restricted,
    }
}

/// Analyse one selected site: classify every accessibility element, audit,
/// and rescore. Example capture is uncapped here — chunks are merged in
/// site order and the caller truncates to the configured caps, which
/// reproduces the sequential "first N qualifying" capture exactly.
///
/// `gap_reader` is `Some` only on gap-enabled runs: the page's region
/// histograms are then classified into a translation-gap summary, with
/// the reader deciding which flagged regions a screen reader would
/// mispronounce versus skip.
///
/// `pub(crate)`: distributed workers ([`crate::dist`]) run it per
/// qualifying candidate to ship a finished [`SiteRecord`] (plus example
/// captures) back to the coordinator.
pub(crate) fn process_site(
    site: &SelectedSite,
    country: Country,
    kizuki: &Kizuki,
    gap_reader: Option<&ScreenReader>,
    extremes: &mut Vec<ExtremeExample>,
    mismatches: &mut Vec<MismatchExample>,
) -> SiteRecord {
    let extract = &site.visit.extract;
    // One pass per text, shared by the records, Kizuki and gap speech.
    let analysis = PageAnalysis::new(extract, Some(country.target_language()));

    let mut elements = Vec::with_capacity(extract.elements.len());
    let mut mismatch_done = false;
    for (element, analysed) in extract.elements.iter().zip(&analysis.elements) {
        let state = match analysed.text {
            None if element.is_missing() => TextState::Missing,
            None => TextState::Empty,
            Some(text) => {
                let TextAnalysis {
                    discard,
                    study_label: label,
                    chars,
                    words,
                } = text;
                let preview = || -> String {
                    element
                        .content()
                        .expect("present")
                        .chars()
                        .take(120)
                        .collect()
                };
                if chars > 1_000 {
                    extremes.push(ExtremeExample {
                        host: site.plan.host.clone(),
                        country,
                        kind: element.kind,
                        chars,
                        words,
                        preview: preview(),
                    });
                }
                if !mismatch_done
                    && element.kind == ElementKind::ImageAlt
                    && discard.is_none()
                    && label == LabelLanguage::English
                    && site.visible_native_pct >= 90.0
                {
                    mismatch_done = true;
                    mismatches.push(MismatchExample {
                        host: site.plan.host.clone(),
                        country,
                        visible_native_pct: site.visible_native_pct,
                        alt_preview: preview(),
                    });
                }
                TextState::Present {
                    chars,
                    words,
                    discard,
                    label,
                }
            }
        };
        elements.push(ElementRecord {
            kind: element.kind,
            state,
        });
    }

    let base = audit_page(extract);
    let kizuki_report = kizuki.evaluate_analysis(&analysis, &base);
    let gaps = gap_reader.and_then(|reader| {
        let report = gap_report(extract);
        if report.is_clean() {
            return None;
        }
        let speech = reader.gap_speech(&report, analysis.language);
        let count = |kind: GapKind| report.regions.iter().filter(|g| g.kind == kind).count() as u32;
        Some(SiteGaps {
            regions: report.regions.len() as u32,
            chrome: count(GapKind::UntranslatedChrome),
            lang_attr: count(GapKind::LangAttrMismatch),
            fallback: count(GapKind::FallbackText),
            foreign_chars: report.foreign_chars as u64,
            mispronounced: speech.mispronounced,
            skipped: speech.skipped,
        })
    });
    SiteRecord {
        host: site.plan.host.clone(),
        country,
        rank: site.plan.rank,
        visible_native_pct: site.visible_native_pct,
        visible_english_pct: site.visible_english_pct,
        declared_lang: extract.declared_lang.clone(),
        elements,
        base_score: base.score,
        kizuki_score: kizuki_report.new_score,
        kizuki_eligible: Kizuki::figure6_eligible(&base),
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_webgen::CorpusConfig;

    fn tiny_dataset() -> Dataset {
        let corpus = Corpus::build(CorpusConfig::small(11, 25));
        build_dataset(
            &corpus,
            PipelineOptions {
                quota: 25,
                ..PipelineOptions::default()
            },
        )
    }

    #[test]
    fn dataset_covers_all_countries_at_quota() {
        let ds = tiny_dataset();
        assert_eq!(ds.countries().len(), 12);
        for country in Country::STUDY {
            let n = ds.in_country(country).count();
            assert_eq!(n, 25, "{country:?}");
        }
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.crawl_summaries.len(), 12);
    }

    #[test]
    fn records_have_scores_and_elements() {
        let ds = tiny_dataset();
        for record in &ds.records {
            assert!(
                (0.0..=100.0).contains(&record.base_score),
                "{}",
                record.host
            );
            assert!((0.0..=100.0).contains(&record.kizuki_score));
            assert!(record.kizuki_score <= record.base_score + 1e-9);
            assert!(record.visible_native_pct >= 50.0);
            assert!(!record.elements.is_empty());
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.host, rb.host);
            assert_eq!(ra.base_score, rb.base_score);
            assert_eq!(ra.kizuki_score, rb.kizuki_score);
            assert_eq!(ra.elements, rb.elements);
        }
    }

    #[test]
    fn pipeline_output_independent_of_thread_count() {
        let corpus = Corpus::build(CorpusConfig::small(17, 12));
        let run = |threads: usize| {
            build_dataset(
                &corpus,
                PipelineOptions {
                    quota: 12,
                    threads,
                    ..PipelineOptions::default()
                },
            )
            .to_json()
            .expect("serialize")
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(0)); // 0 = one worker per core
    }

    #[test]
    fn parallel_selection_matches_sequential_walk() {
        use crate::selection::select_websites;
        let corpus = Corpus::build(CorpusConfig::small(29, 18));
        let ds = build_dataset(
            &corpus,
            PipelineOptions {
                quota: 18,
                ..PipelineOptions::default()
            },
        );
        for country in Country::STUDY {
            let (sites, stats) = select_websites(&corpus, country, 18, BrowserConfig::default());
            let summary = ds
                .crawl_summaries
                .iter()
                .find(|s| s.country_code == country.code())
                .expect("summary");
            assert_eq!(summary.attempted, stats.attempted, "{country:?}");
            assert_eq!(summary.selected, stats.selected, "{country:?}");
            assert_eq!(
                summary.rejected_threshold, stats.rejected_threshold,
                "{country:?}"
            );
            let hosts: Vec<&str> = ds.in_country(country).map(|r| r.host.as_str()).collect();
            let expected: Vec<&str> = sites.iter().map(|s| s.plan.host.as_str()).collect();
            assert_eq!(hosts, expected, "{country:?}");
        }
    }

    #[test]
    fn mismatch_examples_are_native_sites_with_english_alts() {
        let ds = tiny_dataset();
        for m in &ds.mismatch_examples {
            assert!(m.visible_native_pct >= 90.0);
            assert!(!m.alt_preview.is_empty());
        }
    }

    #[test]
    fn json_round_trip_of_real_dataset() {
        let ds = tiny_dataset();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.records[0].elements, ds.records[0].elements);
    }
}
