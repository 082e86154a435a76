//! The paper's two selection stages (§2).
//!
//! **Language & country selection** — start from the 26-language candidate
//! pool, require (1) at least 10,000 websites with ≥50% visible content in
//! the target language and (2) CrUX coverage with sufficient traffic data;
//! the result is exactly the 12 study pairs, with Tamil, Telugu, Sinhala,
//! Georgian and the rest excluded. Candidate availability numbers are
//! modelled (documented in [`AVAILABILITY`]) to reproduce the paper's
//! reported outcome, since the real CrUX counts are proprietary.
//!
//! **Website selection** — walk a country's CrUX-rank-ordered candidates,
//! crawl each through the country VPN, keep sites whose visible text passes
//! the 50% native threshold, and "replace \[failures\] with the next-ranking
//! candidate" until the quota is filled. [`probe_candidate_traced`] is that
//! per-candidate test; the build engine (`crate::dist`) probes candidates
//! in parallel waves and replays the rank-order walk over the verdicts.
//! The sequential walk itself, `select_websites`, is test-only: the
//! reference the parallel selection is checked against.

use langcrux_crawl::{Browser, Visit, VisitError, VisitTrace};
use langcrux_lang::Language;
use langcrux_langid::composition_of_histogram;
use langcrux_net::{Url, Vantage};
use langcrux_webgen::SitePlan;
use serde::{Deserialize, Serialize};

/// The paper's inclusion thresholds.
pub const MIN_QUALIFYING_SITES: u64 = 10_000;
pub const NATIVE_CONTENT_THRESHOLD_PCT: f64 = 50.0;

/// Modelled per-language web availability: how many sites have ≥50%
/// content in the language, and whether CrUX covers its main market with
/// sufficient traffic data. Values are stand-ins for the proprietary CrUX
/// counts, ordered so that the paper's reported inclusions/exclusions fall
/// out of the thresholds (e.g. §2: Tamil and Telugu "do not meet the
/// 10,000-website requirement"; "similar exclusions apply to Sinhala …
/// and Georgian").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LanguageAvailability {
    pub language: Language,
    pub qualifying_sites: u64,
    pub in_crux: bool,
}

/// The modelled availability table for the 26-candidate pool.
pub const AVAILABILITY: [LanguageAvailability; 26] = [
    a(Language::MandarinChinese, 48_000, true),
    a(Language::Hindi, 14_500, true),
    a(Language::ModernStandardArabic, 21_000, true),
    a(Language::Bangla, 12_800, true),
    a(Language::Russian, 45_000, true),
    a(Language::Japanese, 52_000, true),
    a(Language::EgyptianArabic, 11_600, true),
    a(Language::Cantonese, 10_900, true),
    a(Language::Korean, 38_000, true),
    a(Language::Thai, 24_000, true),
    a(Language::Greek, 13_200, true),
    a(Language::Hebrew, 11_100, true),
    // ---- excluded candidates ----
    a(Language::Urdu, 6_900, true),
    a(Language::Tamil, 7_200, true),
    a(Language::Telugu, 6_400, true),
    a(Language::Marathi, 8_100, true),
    a(Language::Amharic, 2_700, true),
    a(Language::Burmese, 5_600, true),
    a(Language::Sinhala, 4_800, true),
    a(Language::Georgian, 3_900, true),
    a(Language::Punjabi, 7_800, true),
    a(Language::Gujarati, 6_100, true),
    a(Language::Kannada, 5_300, true),
    a(Language::Malayalam, 5_900, true),
    // Persian's market lacks usable CrUX traffic data in our model.
    a(Language::Persian, 19_000, false),
    a(Language::Nepali, 4_100, true),
];

const fn a(language: Language, qualifying_sites: u64, in_crux: bool) -> LanguageAvailability {
    LanguageAvailability {
        language,
        qualifying_sites,
        in_crux,
    }
}

/// Outcome of the language-selection stage for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LanguageVerdict {
    Included,
    BelowSiteThreshold,
    NoCruxCoverage,
}

/// Run the paper's language-selection stage over the candidate pool.
pub fn select_languages() -> Vec<(Language, LanguageVerdict)> {
    AVAILABILITY
        .iter()
        .map(|av| {
            let verdict = if !av.in_crux {
                LanguageVerdict::NoCruxCoverage
            } else if av.qualifying_sites < MIN_QUALIFYING_SITES {
                LanguageVerdict::BelowSiteThreshold
            } else {
                LanguageVerdict::Included
            };
            (av.language, verdict)
        })
        .collect()
}

/// Why a candidate website was rejected during website selection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rejection {
    /// Visible text below the 50% native threshold.
    BelowThreshold,
    /// Fetch failed after retries.
    Fetch(VisitError),
}

/// One selected website (plan + its crawl result).
pub struct SelectedSite {
    pub plan: SitePlan,
    pub visit: Visit,
    /// Measured visible native share at selection time.
    pub visible_native_pct: f64,
    pub visible_english_pct: f64,
}

/// Telemetry of one country's sequential website-selection walk.
#[cfg(test)]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionStats {
    pub attempted: u64,
    pub selected: u64,
    pub rejected_threshold: u64,
    pub failed_fetch: u64,
    pub restricted: u64,
    /// Quota shortfall (0 when the quota was met).
    pub shortfall: u64,
}

/// Fetch one candidate and apply the 50%-native-content inclusion test,
/// also returning the visit's [`VisitTrace`] so the pipeline can fold
/// retry/backoff/breaker/damage accounting into the degraded-run ledger
/// ([`crate::ledger`]).
///
/// The outcome depends only on `(corpus seed, host, vantage)` — never on
/// when or from which worker the probe runs — which is what lets the
/// pipeline probe candidates in parallel chunks and still replay the
/// paper's sequential rank-order replacement walk over the verdicts.
/// The language composition comes from the histogram the crawler computed
/// during extraction; the visible text is not re-scanned.
pub fn probe_candidate_traced(
    browser: &mut Browser,
    plan: &SitePlan,
    vantage: Vantage,
    native: Language,
) -> (Result<SelectedSite, Rejection>, VisitTrace) {
    let (result, trace) = browser.visit_traced(&Url::from_host(&plan.host), vantage);
    let outcome = match result {
        Ok(visit) => {
            let comp = composition_of_histogram(&visit.extract.visible_hist, native);
            if comp.has_evidence() && comp.native_pct >= NATIVE_CONTENT_THRESHOLD_PCT {
                Ok(SelectedSite {
                    plan: plan.clone(),
                    visible_native_pct: comp.native_pct,
                    visible_english_pct: comp.english_pct,
                    visit,
                })
            } else {
                Err(Rejection::BelowThreshold)
            }
        }
        Err(e) => Err(Rejection::Fetch(e)),
    };
    (outcome, trace)
}

/// Select up to `quota` websites for `country` from the corpus, walking
/// candidates in CrUX rank order and replacing failures with the next
/// candidate — the paper's procedure, one probe at a time with the
/// default browser.
#[cfg(test)]
pub fn select_websites(
    corpus: &langcrux_webgen::Corpus,
    country: langcrux_lang::Country,
    quota: usize,
) -> (Vec<SelectedSite>, SelectionStats) {
    let vantage = langcrux_net::vpn_vantage(country)
        .unwrap_or_else(|| panic!("no VPN endpoint for {country:?}"));
    let mut browser = Browser::new(corpus.internet(), langcrux_crawl::BrowserConfig::default());
    let native = country.target_language();

    let mut selected = Vec::with_capacity(quota);
    let mut stats = SelectionStats::default();

    for plan in corpus.candidates(country).iter() {
        if selected.len() >= quota {
            break;
        }
        stats.attempted += 1;
        match probe_candidate_traced(&mut browser, plan, vantage, native).0 {
            Ok(site) => {
                stats.selected += 1;
                selected.push(site);
            }
            Err(Rejection::BelowThreshold) => stats.rejected_threshold += 1,
            Err(Rejection::Fetch(VisitError::Restricted)) => {
                stats.restricted += 1;
                stats.failed_fetch += 1;
            }
            Err(Rejection::Fetch(_)) => stats.failed_fetch += 1,
        }
    }
    stats.shortfall = (quota as u64).saturating_sub(stats.selected);
    (selected, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_lang::Country;
    use langcrux_webgen::{Corpus, CorpusConfig};

    #[test]
    fn language_selection_yields_exactly_the_study_pairs() {
        let verdicts = select_languages();
        let included: Vec<Language> = verdicts
            .iter()
            .filter(|(_, v)| *v == LanguageVerdict::Included)
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(included.len(), 12);
        let mut expected = Language::INCLUDED.to_vec();
        expected.sort();
        let mut got = included.clone();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn paper_named_exclusions_hold() {
        let verdicts = select_languages();
        let verdict = |l: Language| verdicts.iter().find(|(x, _)| *x == l).unwrap().1;
        for lang in [
            Language::Tamil,
            Language::Telugu,
            Language::Sinhala,
            Language::Georgian,
            Language::Urdu,
            Language::Marathi,
        ] {
            assert_eq!(
                verdict(lang),
                LanguageVerdict::BelowSiteThreshold,
                "{lang:?}"
            );
        }
        assert_eq!(verdict(Language::Persian), LanguageVerdict::NoCruxCoverage);
    }

    #[test]
    fn website_selection_fills_quota_with_replacement() {
        let corpus = Corpus::build(CorpusConfig::small(301, 40));
        let (sites, stats) = select_websites(&corpus, Country::Thailand, 40);
        assert_eq!(sites.len(), 40, "quota unmet: {stats:?}");
        assert_eq!(stats.shortfall, 0);
        // Replacement must actually have happened: some candidates rejected.
        assert!(
            stats.rejected_threshold > 0,
            "no disqualified candidates encountered: {stats:?}"
        );
        assert!(stats.attempted > 40);
        for site in &sites {
            assert!(site.visible_native_pct >= NATIVE_CONTENT_THRESHOLD_PCT);
        }
    }

    #[test]
    fn selection_respects_rank_order() {
        let corpus = Corpus::build(CorpusConfig::small(301, 20));
        let (sites, _) = select_websites(&corpus, Country::Japan, 20);
        for w in sites.windows(2) {
            assert!(w[0].plan.rank <= w[1].plan.rank);
        }
    }

    #[test]
    fn small_quota_small_attempts() {
        let corpus = Corpus::build(CorpusConfig::small(301, 30));
        let (sites, stats) = select_websites(&corpus, Country::Israel, 5);
        assert_eq!(sites.len(), 5);
        assert!(stats.attempted <= 12, "attempted = {}", stats.attempted);
    }
}
