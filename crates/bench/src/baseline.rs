//! The seed implementation's hot path, preserved verbatim-in-spirit as the
//! benchmark baseline for `BENCH_pipeline.json`.
//!
//! The fused single-pass engine (PR 1) changed three things at once:
//!
//! 1. selection re-scanned `visible_text` with `ScriptHistogram::of` after
//!    extraction had already walked every character (now: histogram carried
//!    on `PageExtract` from the same DOM walk);
//! 2. the histogram stored counts in a `Vec<(Script, usize)>` probed
//!    linearly per character, and `script_of` ran a branch chain before a
//!    three-way-compare binary search (now: direct ASCII table + one
//!    `partition_point` search, fixed-size array counts);
//! 3. `process_site` rebuilt `Kizuki::standard()` per site and walked each
//!    label once for `char_len` and again for `word_count` (now: hoisted
//!    engine, one fused pass), with one worker thread per country (now: a
//!    shared work-stealing pool).
//!
//! [`build_dataset_seed`] reproduces that original pipeline — including a
//! local copy of the seed's `Vec`-backed histogram — so `repro
//! --bench-json` can report a true before/after on the same corpus. It is
//! benchmarking scaffolding, not a supported pipeline entry point.

use langcrux_audit::{audit_page, AuditReport, OTHER_AUDITS_WEIGHT};
use langcrux_core::dataset::{
    CountryCrawlSummary, Dataset, ElementRecord, ExtremeExample, MismatchExample, SiteRecord,
    TextState,
};
use langcrux_core::selection::{SelectedSite, SelectionStats, NATIVE_CONTENT_THRESHOLD_PCT};
use langcrux_core::PipelineOptions;
use langcrux_crawl::{char_len, word_count, Browser, PageExtract};
use langcrux_filter::{DiscardCategory, CONTINUA_KEEP_LEN, SINGLE_WORD_KEEP_LEN};
use langcrux_kizuki::{AltLanguageCheck, CheckOutcome, Kizuki, LanguageAwareCheck, PageAnalysis};
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::script::{Script, SCRIPT_RANGES};
use langcrux_lang::{dict, Country, Language};
use langcrux_langid::{classify_label, Composition, LabelLanguage};
use langcrux_net::{vpn_vantage, Url};
use langcrux_webgen::Corpus;

/// The seed's per-character classifier: special-case branch chain, then a
/// binary search with a three-way comparator over `SCRIPT_RANGES`.
fn script_of_seed(c: char) -> Script {
    let cp = c as u32;
    if cp < 0x80 {
        return if c.is_ascii_alphabetic() {
            Script::Latin
        } else {
            Script::Common
        };
    }
    if cp == 0x00D7 || cp == 0x00F7 {
        return Script::Common;
    }
    if (0x2000..=0x2BFF).contains(&cp) || (0x3000..=0x303F).contains(&cp) {
        return Script::Common;
    }
    if c.is_whitespace() {
        return Script::Common;
    }
    match SCRIPT_RANGES.binary_search_by(|range| {
        if cp < range.start {
            std::cmp::Ordering::Greater
        } else if cp > range.end {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }) {
        Ok(idx) => SCRIPT_RANGES[idx].script,
        Err(_) => Script::Unknown,
    }
}

/// The seed's histogram: per-character linear probe over a growing vec.
#[derive(Default)]
struct SeedHistogram {
    counts: Vec<(Script, usize)>,
}

impl SeedHistogram {
    fn of(text: &str) -> Self {
        let mut hist = SeedHistogram::default();
        for c in text.chars() {
            match script_of_seed(c) {
                Script::Common | Script::Unknown => {}
                s => match hist.counts.iter_mut().find(|(sc, _)| *sc == s) {
                    Some((_, n)) => *n += 1,
                    None => hist.counts.push((s, 1)),
                },
            }
        }
        hist
    }

    fn count(&self, script: Script) -> usize {
        self.counts
            .iter()
            .find(|(s, _)| *s == script)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    fn distinguishing_total(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

/// The seed's composition: full re-scan of the already-extracted text.
fn composition_seed(text: &str, native: Language) -> Composition {
    let hist = SeedHistogram::of(text);
    let total = hist.distinguishing_total();
    if total == 0 {
        return Composition::EMPTY;
    }
    let native_count: usize = native
        .evidence_scripts()
        .iter()
        .map(|&s| hist.count(s))
        .sum();
    let english_count = hist.count(Script::Latin);
    let other_count = total.saturating_sub(native_count + english_count);
    let pct = |n: usize| n as f64 * 100.0 / total as f64;
    Composition {
        native_pct: pct(native_count),
        english_pct: pct(english_count),
        other_pct: pct(other_count),
        total,
    }
}

/// The seed's histogram over more methods (dominant + kana counts), still
/// with the per-character linear probe.
impl SeedHistogram {
    fn dominant(&self) -> Option<Script> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(s, _)| *s)
    }
}

/// The seed's `count_chars`: a linear `contains` probe per character.
fn count_chars_seed(text: &str, set: &[char]) -> usize {
    text.chars().filter(|c| set.contains(c)).count()
}

/// The seed's `detect`: fresh full-text histogram, linear-scan
/// disambiguation sets.
fn detect_seed(text: &str) -> Option<Language> {
    let hist = SeedHistogram::of(text);
    if hist.distinguishing_total() == 0 {
        return None;
    }
    let dominant = hist.dominant()?;
    let candidates = || {
        Language::CANDIDATE_POOL
            .iter()
            .copied()
            .chain(std::iter::once(Language::English))
    };
    match dominant {
        Script::Arabic => {
            let urdu = count_chars_seed(text, Language::Urdu.disambiguation_chars());
            let persian = count_chars_seed(text, Language::Persian.disambiguation_chars());
            let urdu_only = count_chars_seed(text, &['ٹ', 'ڈ', 'ڑ', 'ں', 'ھ', 'ہ', 'ے']);
            Some(if urdu_only > 0 {
                Language::Urdu
            } else if persian > 0 && urdu == persian {
                Language::Persian
            } else if urdu > 0 {
                Language::Urdu
            } else {
                Language::ModernStandardArabic
            })
        }
        Script::Devanagari => Some(
            if count_chars_seed(text, Language::Marathi.disambiguation_chars()) > 0 {
                Language::Marathi
            } else {
                Language::Hindi
            },
        ),
        Script::Han | Script::Hiragana | Script::Katakana => {
            let kana = hist.count(Script::Hiragana) + hist.count(Script::Katakana);
            if kana > 0 {
                return Some(Language::Japanese);
            }
            const CANTONESE_MARKERS: &[char] = &[
                '嘅', '咗', '哋', '冇', '嚟', '睇', '乜', '噉', '咁', '唔', '畀', '嗰', '啲',
            ];
            Some(if count_chars_seed(text, CANTONESE_MARKERS) > 0 {
                Language::Cantonese
            } else {
                Language::MandarinChinese
            })
        }
        script => candidates().find(|l| l.primary_script() == script),
    }
}

/// The seed's `page_language`: full visible-text re-scan per site.
fn page_language_seed(extract: &PageExtract) -> Option<Language> {
    if let Some(lang) = detect_seed(&extract.visible_text) {
        return Some(lang);
    }
    let declared = extract.declared_lang.as_deref()?;
    let primary = declared.split(['-', '_']).next()?.to_ascii_lowercase();
    Language::CANDIDATE_POOL
        .iter()
        .copied()
        .chain(std::iter::once(Language::English))
        .find(|l| l.tag().split('-').next() == Some(primary.as_str()))
}

/// The seed's `Kizuki::evaluate` with a freshly built per-site check set
/// (the seed constructed `Kizuki::standard()` inside the site loop).
fn kizuki_new_score_seed(extract: &PageExtract, base: &AuditReport) -> f64 {
    let checks: Vec<Box<dyn LanguageAwareCheck>> = vec![Box::new(AltLanguageCheck::default())];
    let page = PageAnalysis::with_language(extract, None, page_language_seed(extract));
    let outcomes: Vec<CheckOutcome> = match page.language {
        Some(_) => checks.iter().map(|c| c.evaluate(&page)).collect(),
        None => Vec::new(),
    };
    let mut earned = OTHER_AUDITS_WEIGHT;
    let mut total = OTHER_AUDITS_WEIGHT;
    for audit in &base.audits {
        total += audit.weight;
        let downgraded = outcomes.iter().any(|o| o.kind == audit.kind && !o.passed);
        if audit.passed && !downgraded {
            earned += audit.weight;
        }
    }
    earned / total * 100.0
}

/// The seed's `classify`: every rule re-derives its facts from the raw
/// text (repeated tokenization, repeated `script_of` scans, linear
/// dictionary probes with per-term lowercasing).
fn classify_seed(text: &str) -> Option<DiscardCategory> {
    fn is_emoji_char(c: char) -> bool {
        let cp = c as u32;
        matches!(cp,
            0x1F000..=0x1FAFF
            | 0x2600..=0x27BF
            | 0x2B00..=0x2BFF
            | 0x2190..=0x21FF
            | 0x25A0..=0x25FF
            | 0xFE0E..=0xFE0F
            | 0x200D
        )
    }
    fn is_emoji_only(text: &str) -> bool {
        let mut saw = false;
        for c in text.chars() {
            if c.is_whitespace() {
                continue;
            }
            if is_emoji_char(c) {
                saw = true;
            } else if !c.is_ascii_punctuation() {
                return false;
            }
        }
        saw
    }
    fn is_url_or_path(text: &str) -> bool {
        if text.split_whitespace().count() != 1 {
            return false;
        }
        let lower = text.to_ascii_lowercase();
        lower.contains("://")
            || lower.starts_with("www.")
            || (lower.starts_with('/') && lower[1..].contains('/'))
    }
    fn is_file_name(text: &str) -> bool {
        const EXTS: &[&str] = &[
            ".jpg", ".jpeg", ".png", ".gif", ".svg", ".webp", ".ico", ".bmp", ".avif", ".pdf",
            ".mp4", ".webm", ".css", ".js",
        ];
        if text.split_whitespace().count() != 1 {
            return false;
        }
        let lower = text.to_ascii_lowercase();
        EXTS.iter().any(|ext| lower.ends_with(ext)) && lower.len() > 4
    }
    fn is_integer(s: &str) -> bool {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_digit())
    }
    fn is_ordinal_phrase(text: &str) -> bool {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        match tokens.as_slice() {
            [a, mid, b] => {
                is_integer(a) && is_integer(b) && (mid.eq_ignore_ascii_case("of") || *mid == "/")
            }
            [single] => single
                .split_once('/')
                .is_some_and(|(a, b)| is_integer(a) && is_integer(b)),
            _ => false,
        }
    }
    fn is_label_number(text: &str) -> bool {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        match tokens.as_slice() {
            [word, num] => {
                is_integer(num) && !word.is_empty() && word.chars().all(|c| c.is_alphabetic())
            }
            _ => false,
        }
    }
    fn is_mixed_alnum(text: &str) -> bool {
        text.split_whitespace().count() == 1
            && text.chars().any(|c| c.is_alphabetic())
            && text.chars().any(|c| c.is_ascii_digit())
            && text.chars().all(|c| c.is_alphanumeric())
    }
    fn is_dev_label(text: &str) -> bool {
        if text.split_whitespace().count() != 1 || text.len() < 3 {
            return false;
        }
        if text.contains('-') || text.contains('_') {
            let segments: Vec<&str> = text.split(['-', '_']).collect();
            return segments.len() >= 2
                && segments
                    .iter()
                    .all(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()));
        }
        let ascii = text.chars().all(|c| c.is_ascii_alphanumeric());
        ascii
            && text.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && text.chars().skip(1).any(|c| c.is_ascii_uppercase())
    }
    fn is_cjk_dominant(text: &str) -> bool {
        let (mut cjk, mut other) = (0usize, 0usize);
        for c in text.chars() {
            match script_of_seed(c) {
                s if s.is_cjk() => cjk += 1,
                Script::Common | Script::Unknown => {}
                _ => other += 1,
            }
        }
        cjk > 0 && cjk >= other
    }
    fn is_continua_non_cjk(text: &str) -> bool {
        let (mut hits, mut other) = (0usize, 0usize);
        for c in text.chars() {
            match script_of_seed(c) {
                Script::Thai | Script::Myanmar => hits += 1,
                Script::Common | Script::Unknown => {}
                _ => other += 1,
            }
        }
        hits > 0 && hits >= other
    }
    fn is_too_short(text: &str) -> bool {
        let len = text.chars().filter(|c| !c.is_whitespace()).count();
        if is_cjk_dominant(text) {
            len <= 1
        } else {
            len < 3
        }
    }
    fn is_single_word(text: &str) -> bool {
        if text.split_whitespace().count() != 1 || !text.chars().any(|c| c.is_alphabetic()) {
            return false;
        }
        let len = text.chars().count();
        if is_cjk_dominant(text) {
            return false;
        }
        if is_continua_non_cjk(text) {
            return len < CONTINUA_KEEP_LEN;
        }
        len < SINGLE_WORD_KEEP_LEN
    }

    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Some(DiscardCategory::TooShort);
    }
    for category in DiscardCategory::ALL {
        let hit = match category {
            DiscardCategory::Emoji => is_emoji_only(trimmed),
            DiscardCategory::UrlOrFilePath => is_url_or_path(trimmed),
            DiscardCategory::FileName => is_file_name(trimmed),
            DiscardCategory::OrdinalPhrase => is_ordinal_phrase(trimmed),
            DiscardCategory::LabelNumberPattern => is_label_number(trimmed),
            DiscardCategory::MixedAlnum => is_mixed_alnum(trimmed),
            DiscardCategory::DevLabel => is_dev_label(trimmed),
            DiscardCategory::GenericAction => {
                dict::matches_term_list(trimmed, dict::GENERIC_ACTIONS).is_some()
            }
            DiscardCategory::Placeholder => {
                dict::matches_term_list(trimmed, dict::PLACEHOLDERS).is_some()
            }
            DiscardCategory::TooShort => is_too_short(trimmed),
            DiscardCategory::SingleWord => is_single_word(trimmed),
        };
        if hit {
            return Some(category);
        }
    }
    None
}

struct CountryResult {
    country: Country,
    records: Vec<SiteRecord>,
    summary: CountryCrawlSummary,
    extremes: Vec<ExtremeExample>,
    mismatches: Vec<MismatchExample>,
}

/// The seed pipeline: one thread per country, sequential candidate walk
/// with composition re-scan, per-site `Kizuki::standard()`, double-pass
/// char/word counts.
pub fn build_dataset_seed(corpus: &Corpus, options: PipelineOptions) -> Dataset {
    let countries: Vec<Country> = corpus.countries().collect();
    let mut results: Vec<CountryResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = countries
            .iter()
            .map(|&country| scope.spawn(move || process_country(corpus, country, options)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("country worker panicked"))
            .collect()
    });

    results.sort_by_key(|r| Country::STUDY.iter().position(|&c| c == r.country));

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
    dataset
}

fn process_country(corpus: &Corpus, country: Country, options: PipelineOptions) -> CountryResult {
    let vantage = vpn_vantage(country).unwrap_or_else(|| panic!("no VPN endpoint for {country:?}"));
    let mut browser = Browser::new(corpus.internet(), options.browser);
    let native = country.target_language();

    let mut sites = Vec::with_capacity(options.quota);
    let mut stats = SelectionStats::default();
    for plan in corpus.candidates(country).iter() {
        if sites.len() >= options.quota {
            break;
        }
        stats.attempted += 1;
        match browser.visit(&Url::from_host(&plan.host), vantage) {
            Ok(visit) => {
                let comp = composition_seed(&visit.extract.visible_text, native);
                if comp.has_evidence() && comp.native_pct >= NATIVE_CONTENT_THRESHOLD_PCT {
                    stats.selected += 1;
                    sites.push(SelectedSite {
                        plan: plan.clone(),
                        visible_native_pct: comp.native_pct,
                        visible_english_pct: comp.english_pct,
                        visit,
                    });
                } else {
                    stats.rejected_threshold += 1;
                }
            }
            Err(langcrux_crawl::VisitError::Restricted) => {
                stats.restricted += 1;
                stats.failed_fetch += 1;
            }
            Err(_) => stats.failed_fetch += 1,
        }
    }
    stats.shortfall = (options.quota as u64).saturating_sub(stats.selected);

    let mut records = Vec::with_capacity(sites.len());
    let mut extremes = Vec::new();
    let mut mismatches = Vec::new();
    for site in &sites {
        records.push(process_site_seed(
            site,
            country,
            &mut extremes,
            &mut mismatches,
            options,
        ));
    }
    CountryResult {
        country,
        records,
        summary: CountryCrawlSummary {
            country_code: country.code().to_string(),
            attempted: stats.attempted,
            selected: stats.selected,
            rejected_threshold: stats.rejected_threshold,
            failed_fetch: stats.failed_fetch,
            restricted: stats.restricted,
        },
        extremes,
        mismatches,
    }
}

fn process_site_seed(
    site: &SelectedSite,
    country: Country,
    extremes: &mut Vec<ExtremeExample>,
    mismatches: &mut Vec<MismatchExample>,
    options: PipelineOptions,
) -> SiteRecord {
    let native = country.target_language();
    let extract = &site.visit.extract;

    let mut elements = Vec::with_capacity(extract.elements.len());
    let mut mismatch_done = false;
    for element in &extract.elements {
        let state = if element.is_missing() {
            TextState::Missing
        } else if element.is_empty_text() {
            TextState::Empty
        } else {
            let text = element.content().expect("non-empty");
            let discard = classify_seed(text);
            let label = classify_label(text, native);
            let chars = char_len(text) as u32;
            let words = word_count(text) as u32;
            if chars > 1_000 && extremes.len() < options.max_extreme_examples {
                extremes.push(ExtremeExample {
                    host: site.plan.host.clone(),
                    country,
                    kind: element.kind,
                    chars,
                    words,
                    preview: text.chars().take(120).collect(),
                });
            }
            if !mismatch_done
                && element.kind == ElementKind::ImageAlt
                && discard.is_none()
                && label == LabelLanguage::English
                && site.visible_native_pct >= 90.0
                && mismatches.len() < options.max_mismatch_examples
            {
                mismatch_done = true;
                mismatches.push(MismatchExample {
                    host: site.plan.host.clone(),
                    country,
                    visible_native_pct: site.visible_native_pct,
                    alt_preview: text.chars().take(120).collect(),
                });
            }
            TextState::Present {
                chars,
                words,
                discard,
                label,
            }
        };
        elements.push(ElementRecord {
            kind: element.kind,
            state,
        });
    }

    // The seed rebuilt the engine (and re-detected the page language from
    // the full visible text) for every site record.
    let base = audit_page(extract);
    let kizuki_score = kizuki_new_score_seed(extract, &base);
    SiteRecord {
        host: site.plan.host.clone(),
        country,
        rank: site.plan.rank,
        visible_native_pct: site.visible_native_pct,
        visible_english_pct: site.visible_english_pct,
        declared_lang: extract.declared_lang.clone(),
        elements,
        base_score: base.score,
        kizuki_score,
        kizuki_eligible: Kizuki::figure6_eligible(&base),
        gaps: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_corpus, Scale};
    use langcrux_core::build_dataset;

    #[test]
    fn seed_baseline_matches_fused_pipeline_output() {
        // The baseline exists to measure the old hot path, so it must
        // compute the same dataset the fused engine computes.
        let corpus = build_corpus(31, Scale::Sites(8));
        let options = PipelineOptions {
            quota: 8,
            ..PipelineOptions::default()
        };
        let seed = build_dataset_seed(&corpus, options);
        let fused = build_dataset(&corpus, options);
        assert_eq!(
            seed.to_json().unwrap(),
            fused.to_json().unwrap(),
            "baseline and fused pipelines diverged"
        );
    }
}
