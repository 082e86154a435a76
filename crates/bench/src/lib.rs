//! # langcrux-bench
//!
//! The reproduction harness: the workload builders behind the `repro`
//! binary, which prints every table and figure of the paper and runs
//! the ablations, the audit daemon and the distributed build's worker
//! processes.
//!
//! * [`dist`] spawns and drives the worker processes of `repro --dist`.
//!
//! Build and serve timings come from `perfbench/` (see
//! `docs/benchmarks.md`).

pub mod dist;

use langcrux_core::{build_dataset_with_ledger, CrawlLedger, Dataset, PipelineOptions};
use langcrux_lang::{Country, Language};
use langcrux_langid::{detect, TrigramDetector};
use langcrux_net::{vpn_vantage, ContentVariant, FaultPlan, Request, Url, Vantage};
use langcrux_textgen::TextGenerator;
use langcrux_webgen::{Corpus, CorpusConfig};

/// Scale presets for harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-speed: 120 sites/country.
    Quick,
    /// Default harness: 400 sites/country (all shape conclusions hold).
    Default,
    /// Paper scale: 10,000 sites/country (long).
    Full,
    /// Custom sites/country.
    Sites(usize),
}

impl Scale {
    pub fn sites_per_country(self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Default => 400,
            Scale::Full => 10_000,
            Scale::Sites(n) => n,
        }
    }
}

/// Build the corpus at a given scale (the workspace-default fault plan).
pub fn build_corpus(seed: u64, scale: Scale) -> Corpus {
    build_corpus_with_gaps(seed, scale, FaultPlan::default(), false)
}

/// Build the corpus at a given scale under an explicit fault plan, with
/// the translation-gap scenarios toggled explicitly (what `repro
/// --gap-scenarios` builds). With `gaps` off the corpus is byte-identical
/// to the historical one.
pub fn build_corpus_with_gaps(seed: u64, scale: Scale, plan: FaultPlan, gaps: bool) -> Corpus {
    Corpus::build(CorpusConfig {
        seed,
        sites_per_country: scale.sites_per_country(),
        fault_plan: plan,
        gap_scenarios: gaps,
        ..CorpusConfig::default()
    })
}

/// Resolve a `--fault-plan` preset name. File paths are handled by the
/// caller (`repro` reads the JSON and deserializes a partial
/// [`FaultPlan`]).
pub fn fault_plan_preset(name: &str) -> Option<FaultPlan> {
    match name {
        "reliable" => Some(FaultPlan::RELIABLE),
        "default" => Some(FaultPlan::default()),
        "hostile" => Some(FaultPlan::HOSTILE),
        _ => None,
    }
}

/// Build corpus + dataset under an explicit fault plan, returning the
/// degraded-run ledger alongside (what `repro --fault-plan` runs).
pub fn build_scaled_dataset_with_plan(
    seed: u64,
    scale: Scale,
    plan: FaultPlan,
) -> (Corpus, Dataset, CrawlLedger) {
    build_scaled_dataset_with_gaps(seed, scale, plan, false)
}

/// [`build_scaled_dataset_with_plan`] with the translation-gap scenarios
/// toggled explicitly. Gaps off reproduces the historical bytes; gaps on
/// adds the partial-localisation scenarios to the corpus and the gap
/// verdicts to the dataset and ledger.
pub fn build_scaled_dataset_with_gaps(
    seed: u64,
    scale: Scale,
    plan: FaultPlan,
    gaps: bool,
) -> (Corpus, Dataset, CrawlLedger) {
    let corpus = build_corpus_with_gaps(seed, scale, plan, gaps);
    let (dataset, ledger) = build_dataset_with_ledger(
        &corpus,
        PipelineOptions {
            quota: scale.sites_per_country(),
            ..PipelineOptions::default()
        },
    );
    (corpus, dataset, ledger)
}

/// A1 — the VPN-vantage ablation: crawl the same hosts from the in-country
/// VPN and from a generic cloud IP, and measure how often each receives the
/// localized variant. Quantifies §2's claim that "without VPN-based
/// localization, web crawlers risk accessing global or English-dominant
/// versions".
#[derive(Debug, Clone, PartialEq)]
pub struct VpnAblation {
    pub hosts: usize,
    pub vpn_localized_pct: f64,
    pub cloud_localized_pct: f64,
}

pub fn vpn_ablation(seed: u64, hosts_per_country: usize) -> VpnAblation {
    let corpus = build_corpus(seed, Scale::Sites(hosts_per_country));
    let mut total = 0u32;
    let mut vpn_localized = 0u32;
    let mut cloud_localized = 0u32;
    let mut body = String::new();
    for country in Country::STUDY {
        let vantage = vpn_vantage(country).expect("vpn endpoint");
        let candidates = corpus.candidates(country);
        for plan in candidates.iter().take(hosts_per_country) {
            total += 1;
            let url = Url::from_host(&plan.host);
            let request = Request::new(url.clone(), vantage);
            if let Ok(meta) = corpus.internet().fetch_into(&request, &mut body) {
                if meta.variant == ContentVariant::Localized {
                    vpn_localized += 1;
                }
            }
            let request = Request::new(url, Vantage::Cloud);
            if let Ok(meta) = corpus.internet().fetch_into(&request, &mut body) {
                if meta.variant == ContentVariant::Localized {
                    cloud_localized += 1;
                }
            }
        }
    }
    VpnAblation {
        hosts: total as usize,
        vpn_localized_pct: f64::from(vpn_localized) * 100.0 / f64::from(total),
        cloud_localized_pct: f64::from(cloud_localized) * 100.0 / f64::from(total),
    }
}

/// A2 — the language-identification ablation: Unicode-heuristic detection
/// vs a trained character-trigram model, on short labels of known language.
#[derive(Debug, Clone, PartialEq)]
pub struct LangIdAblation {
    pub labels: usize,
    pub unicode_accuracy_pct: f64,
    pub trigram_accuracy_pct: f64,
}

pub fn langid_ablation(seed: u64, labels_per_language: usize) -> LangIdAblation {
    // Train the trigram model on independent sample text.
    let mut trigram = TrigramDetector::new();
    for lang in Language::INCLUDED.iter().chain([Language::English].iter()) {
        let mut gen = TextGenerator::new(*lang, seed ^ 0x7261);
        trigram.train(*lang, &gen.paragraph(40));
    }

    let mut total = 0usize;
    let mut unicode_hits = 0usize;
    let mut trigram_hits = 0usize;
    for lang in Language::INCLUDED {
        let mut gen = TextGenerator::new(lang, seed ^ 0x6C62);
        for _ in 0..labels_per_language {
            let label = gen.phrase(2, 5);
            total += 1;
            // The Unicode heuristic answers with evidence-script languages;
            // any language sharing the evidence scripts counts as a hit
            // (the paper's method only needs script-level precision plus
            // disambiguators).
            if let Some(found) = detect(&label) {
                if found == lang || found.evidence_scripts() == lang.evidence_scripts() {
                    unicode_hits += 1;
                }
            }
            if let Some((found, _)) = trigram.classify(&label) {
                if found == lang {
                    trigram_hits += 1;
                }
            }
        }
    }
    LangIdAblation {
        labels: total,
        unicode_accuracy_pct: unicode_hits as f64 * 100.0 / total as f64,
        trigram_accuracy_pct: trigram_hits as f64 * 100.0 / total as f64,
    }
}

/// X4 — the screen-reader experience sweep: crawl a sample of each
/// country's sites and simulate announcing every accessibility element
/// with a VoiceOver-like reader. Reports the share of degraded
/// announcements (mispronounced / skipped / generic) per country — the
/// user-experience quantification of the paper's §1 motivation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeechExperienceRow {
    pub country_code: String,
    pub announcements: u32,
    pub degraded_pct: f64,
    pub mispronounced_pct: f64,
    pub generic_pct: f64,
}

pub fn speech_experience(seed: u64, sites_per_country: usize) -> Vec<SpeechExperienceRow> {
    use langcrux_crawl::{Browser, BrowserConfig};
    use langcrux_kizuki::{ScreenReader, SpeechStats};
    let corpus = build_corpus(seed, Scale::Sites(sites_per_country));
    let reader = ScreenReader::voiceover_like();
    let mut rows = Vec::new();
    for country in Country::STUDY {
        let vantage = vpn_vantage(country).expect("vpn endpoint");
        let mut browser = Browser::new(corpus.internet(), BrowserConfig::default());
        let mut stats = SpeechStats::default();
        let candidates = corpus.candidates(country);
        for plan in candidates.iter().take(sites_per_country) {
            let Ok(visit) = browser.visit(&Url::from_host(&plan.host), vantage) else {
                continue;
            };
            let utterances = reader.announce_page(&visit.extract, country.target_language());
            stats.merge(&SpeechStats::of(&utterances));
        }
        let total = f64::from(stats.total().max(1));
        rows.push(SpeechExperienceRow {
            country_code: country.code().to_string(),
            announcements: stats.total(),
            degraded_pct: stats.degraded_pct(),
            mispronounced_pct: f64::from(stats.mispronounced) * 100.0 / total,
            generic_pct: f64::from(stats.generic) * 100.0 / total,
        });
    }
    rows
}

/// A3 — crawl worker scaling (`repro ablation-crawl`): the wall-clock
/// time of [`build_dataset_with_ledger`], the engine every build runs,
/// over one corpus at each worker count in `threads`. The corpus shards
/// are built before the first timing, and every build's dataset bytes
/// must equal the first build's before any time is returned: a scaling
/// figure over unequal work means nothing.
pub fn crawl_scaling(
    seed: u64,
    sites_per_country: usize,
    threads: &[usize],
) -> Vec<(usize, std::time::Duration)> {
    let corpus = build_corpus(seed, Scale::Sites(sites_per_country));
    for country in Country::STUDY {
        corpus.candidates(country);
    }
    let mut first: Option<String> = None;
    let mut timings = Vec::with_capacity(threads.len());
    for &workers in threads {
        let start = std::time::Instant::now();
        let (dataset, _) = build_dataset_with_ledger(
            &corpus,
            PipelineOptions {
                quota: sites_per_country,
                threads: workers,
                ..PipelineOptions::default()
            },
        );
        let elapsed = start.elapsed();
        let bytes = dataset.to_json().expect("serialize dataset");
        match &first {
            None => first = Some(bytes),
            Some(first) => assert!(
                *first == bytes,
                "A3: the {workers}-worker build's dataset differs from the first build's"
            ),
        }
        timings.push((workers, elapsed));
    }
    timings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_ablation_shows_the_gap() {
        let ab = vpn_ablation(3, 6);
        assert!(ab.vpn_localized_pct > 90.0, "{ab:?}");
        assert!(ab.cloud_localized_pct < 5.0, "{ab:?}");
    }

    #[test]
    fn langid_ablation_accuracies() {
        let ab = langid_ablation(5, 30);
        assert!(ab.unicode_accuracy_pct > 90.0, "{ab:?}");
        // The trigram model is decent but measurably behind on short labels.
        assert!(ab.trigram_accuracy_pct > 50.0, "{ab:?}");
        assert!(ab.unicode_accuracy_pct >= ab.trigram_accuracy_pct, "{ab:?}");
    }

    #[test]
    fn speech_experience_shape() {
        let rows = speech_experience(9, 6);
        assert_eq!(rows.len(), 12);
        for row in &rows {
            assert!(row.announcements > 0, "{row:?}");
            // Most announcements are degraded everywhere — the paper's
            // point: missing metadata + language gaps dominate.
            assert!((0.0..=100.0).contains(&row.degraded_pct));
        }
        // Bangla has only partial synthesiser support in the VoiceOver-like
        // profile, so bd must be more degraded than jp (full Japanese voice).
        let get = |code: &str| rows.iter().find(|r| r.country_code == code).unwrap();
        assert!(get("bd").degraded_pct > get("jp").degraded_pct);
    }

    #[test]
    fn crawl_scaling_times_equal_builds_at_each_worker_count() {
        let timings = crawl_scaling(13, 4, &[1, 2]);
        let workers: Vec<usize> = timings.iter().map(|(w, _)| *w).collect();
        assert_eq!(workers, vec![1, 2]);
    }

    #[test]
    fn scales() {
        assert_eq!(Scale::Quick.sites_per_country(), 120);
        assert_eq!(Scale::Sites(7).sites_per_country(), 7);
    }
}
