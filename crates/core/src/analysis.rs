//! Analyses: one function per table/figure of the paper.
//!
//! Every function consumes the measured [`Dataset`] (never the generator's
//! calibration tables) and produces a plain data structure that the
//! `render` module formats and the `repro` binary prints. Doc comments
//! name the paper artefact each function reproduces (T2 = Table 2,
//! F5 = Figure 5, …).

use crate::dataset::{Dataset, SiteRecord, TextState};
use crate::stats::{Cdf, CountGrid, Histogram, Summary};
use langcrux_filter::DiscardCategory;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Country;
use langcrux_langid::LabelLanguage;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------- Table 2

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElementStatsRow {
    pub kind: ElementKind,
    /// Per-site missing percentage (sites with ≥1 element of the kind).
    pub missing: Summary,
    /// Per-site empty percentage.
    pub empty: Summary,
    /// Text length (chars) over all non-empty texts.
    pub text_len: Summary,
    /// Word count over all non-empty texts.
    pub word_count: Summary,
}

/// T2: per-element statistics across the whole dataset.
pub fn table2(ds: &Dataset) -> Vec<ElementStatsRow> {
    ElementKind::TABLE2
        .iter()
        .map(|&kind| element_stats(ds, kind))
        .collect()
}

fn element_stats(ds: &Dataset, kind: ElementKind) -> ElementStatsRow {
    let mut missing_pcts = Vec::new();
    let mut empty_pcts = Vec::new();
    let mut lens = Vec::new();
    let mut words = Vec::new();
    for record in &ds.records {
        let mut total = 0u32;
        let mut missing = 0u32;
        let mut empty = 0u32;
        for e in record.of_kind(kind) {
            total += 1;
            match &e.state {
                TextState::Missing => missing += 1,
                TextState::Empty => empty += 1,
                TextState::Present {
                    chars, words: w, ..
                } => {
                    lens.push(f64::from(*chars));
                    words.push(f64::from(*w));
                }
            }
        }
        if total > 0 {
            missing_pcts.push(f64::from(missing) * 100.0 / f64::from(total));
            empty_pcts.push(f64::from(empty) * 100.0 / f64::from(total));
        }
    }
    ElementStatsRow {
        kind,
        missing: Summary::of(&missing_pcts),
        empty: Summary::of(&empty_pcts),
        text_len: Summary::of(&lens),
        word_count: Summary::of(&words),
    }
}

// ---------------------------------------------------------------- Figure 2

/// F2: per-site visible-language points for one country:
/// `(english_pct, native_pct)`.
pub fn visible_scatter(ds: &Dataset, country: Country) -> Vec<(f64, f64)> {
    ds.in_country(country)
        .map(|r| (r.visible_english_pct, r.visible_native_pct))
        .collect()
}

// ---------------------------------------------------------------- Figure 3

/// A discard distribution: percent of all non-empty accessibility texts
/// per category (indexed by `DiscardCategory::ALL`), plus the informative
/// remainder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscardDistribution {
    pub label: String,
    pub total_texts: u64,
    pub pct: [f64; 11],
    pub informative_pct: f64,
}

fn discard_distribution<'a>(
    label: String,
    elements: impl Iterator<Item = &'a TextState>,
) -> DiscardDistribution {
    let mut counts = [0u64; 11];
    let mut informative = 0u64;
    let mut total = 0u64;
    for state in elements {
        if let TextState::Present { discard, .. } = state {
            total += 1;
            match discard {
                Some(cat) => {
                    counts[DiscardCategory::ALL
                        .iter()
                        .position(|c| c == cat)
                        .expect("cat indexed")] += 1
                }
                None => informative += 1,
            }
        }
    }
    let pct = |n: u64| {
        if total == 0 {
            0.0
        } else {
            n as f64 * 100.0 / total as f64
        }
    };
    let mut out = [0.0; 11];
    for (i, c) in counts.iter().enumerate() {
        out[i] = pct(*c);
    }
    DiscardDistribution {
        label,
        total_texts: total,
        pct: out,
        informative_pct: pct(informative),
    }
}

/// F3: discard distribution per country.
pub fn discard_by_country(ds: &Dataset) -> Vec<DiscardDistribution> {
    ds.countries()
        .into_iter()
        .map(|country| {
            discard_distribution(
                country.code().to_string(),
                ds.in_country(country)
                    .flat_map(|r| r.elements.iter().map(|e| &e.state)),
            )
        })
        .collect()
}

/// F9: discard distribution per element kind.
pub fn discard_by_element(ds: &Dataset) -> Vec<DiscardDistribution> {
    ElementKind::ALL
        .iter()
        .map(|&kind| {
            discard_distribution(
                kind.audit_id().to_string(),
                ds.records
                    .iter()
                    .flat_map(move |r| r.of_kind(kind).map(|e| &e.state)),
            )
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 4

/// F4: language distribution of informative accessibility texts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LangDistRow {
    pub country_code: String,
    pub native_pct: f64,
    pub english_pct: f64,
    pub mixed_pct: f64,
    pub informative_texts: u64,
}

/// F4 for every country (percentages normalised over the three buckets).
pub fn lang_distribution(ds: &Dataset) -> Vec<LangDistRow> {
    ds.countries()
        .into_iter()
        .map(|country| {
            let mut native = 0u64;
            let mut english = 0u64;
            let mut mixed = 0u64;
            for record in ds.in_country(country) {
                for e in &record.elements {
                    if let TextState::Present {
                        discard: None,
                        label,
                        ..
                    } = &e.state
                    {
                        match label {
                            LabelLanguage::Native => native += 1,
                            LabelLanguage::English => english += 1,
                            LabelLanguage::Mixed => mixed += 1,
                            _ => {}
                        }
                    }
                }
            }
            let total = native + english + mixed;
            let pct = |n: u64| {
                if total == 0 {
                    0.0
                } else {
                    n as f64 * 100.0 / total as f64
                }
            };
            LangDistRow {
                country_code: country.code().to_string(),
                native_pct: pct(native),
                english_pct: pct(english),
                mixed_pct: pct(mixed),
                informative_texts: total,
            }
        })
        .collect()
}

// ------------------------------------------------------------- Figures 5/8

/// F5: per-country CDFs of native share in visible vs accessibility text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MismatchCdfs {
    pub country_code: String,
    pub visible: Cdf,
    pub a11y: Cdf,
    /// Share of sites (%) with <10% native accessibility text — the §4
    /// mismatch headline (sites without informative a11y text count as 0%).
    pub sites_below_10pct_native_a11y: f64,
}

/// Per-site native share of accessibility text; `0` for sites with no
/// informative a11y text (they offer a native-language user nothing).
fn site_a11y_native_pct(record: &SiteRecord) -> f64 {
    record.a11y_native_pct().unwrap_or(0.0)
}

/// F5 for every country.
pub fn mismatch_cdfs(ds: &Dataset) -> Vec<MismatchCdfs> {
    ds.countries()
        .into_iter()
        .map(|country| {
            let visible: Vec<f64> = ds
                .in_country(country)
                .map(|r| r.visible_native_pct)
                .collect();
            let a11y: Vec<f64> = ds.in_country(country).map(site_a11y_native_pct).collect();
            let below = if a11y.is_empty() {
                0.0
            } else {
                a11y.iter().filter(|v| **v < 10.0).count() as f64 * 100.0 / a11y.len() as f64
            };
            MismatchCdfs {
                country_code: country.code().to_string(),
                visible: Cdf::of(&visible),
                a11y: Cdf::of(&a11y),
                sites_below_10pct_native_a11y: below,
            }
        })
        .collect()
}

/// F8: per-site `(visible_native_pct, a11y_native_pct)` points.
pub fn mismatch_scatter(ds: &Dataset, country: Country) -> Vec<(f64, f64)> {
    ds.in_country(country)
        .map(|r| (r.visible_native_pct, site_a11y_native_pct(r)))
        .collect()
}

/// F8 companion: per-country Pearson correlation between visible and
/// accessibility native shares. The paper's scatter plots show visually
/// that the two are only weakly coupled (English a11y text on strongly
/// native pages); the coefficient quantifies it.
pub fn mismatch_correlation(ds: &Dataset) -> Vec<(String, Option<f64>)> {
    ds.countries()
        .into_iter()
        .map(|country| {
            let points = mismatch_scatter(ds, country);
            (country.code().to_string(), crate::stats::pearson(&points))
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 6

/// F6: the Kizuki before/after score experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KizukiShift {
    /// Countries included (the paper: Bangladesh and Thailand).
    pub countries: Vec<String>,
    /// Sites passing base image-alt (the inclusion rule).
    pub eligible_sites: u64,
    pub old_scores: Histogram,
    pub new_scores: Histogram,
    pub old_above_90_pct: f64,
    pub new_above_90_pct: f64,
    pub old_perfect_pct: f64,
    pub new_perfect_pct: f64,
}

/// F6 over the given countries (defaults in the caller: bd + th).
pub fn kizuki_shift(ds: &Dataset, countries: &[Country]) -> KizukiShift {
    let mut old_scores = Histogram::uniform(30.0, 100.0, 14);
    let mut new_scores = Histogram::uniform(30.0, 100.0, 14);
    let mut eligible = 0u64;
    let mut old_above = 0u64;
    let mut new_above = 0u64;
    let mut old_perfect = 0u64;
    let mut new_perfect = 0u64;
    for &country in countries {
        for record in ds.in_country(country) {
            if !record.kizuki_eligible {
                continue;
            }
            eligible += 1;
            old_scores.add(record.base_score);
            new_scores.add(record.kizuki_score);
            if record.base_score > 90.0 {
                old_above += 1;
            }
            if record.kizuki_score > 90.0 {
                new_above += 1;
            }
            if record.base_score >= 100.0 - 1e-9 {
                old_perfect += 1;
            }
            if record.kizuki_score >= 100.0 - 1e-9 {
                new_perfect += 1;
            }
        }
    }
    let pct = |n: u64| {
        if eligible == 0 {
            0.0
        } else {
            n as f64 * 100.0 / eligible as f64
        }
    };
    KizukiShift {
        countries: countries.iter().map(|c| c.code().to_string()).collect(),
        eligible_sites: eligible,
        old_scores,
        new_scores,
        old_above_90_pct: pct(old_above),
        new_above_90_pct: pct(new_above),
        old_perfect_pct: pct(old_perfect),
        new_perfect_pct: pct(new_perfect),
    }
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7's rank buckets (upper edges).
pub const RANK_BUCKETS: [(u64, &str); 7] = [
    (1_000, "1k"),
    (5_000, "5k"),
    (10_000, "10k"),
    (50_000, "50k"),
    (100_000, "100k"),
    (500_000, "500k"),
    (1_000_000, "1M"),
];

/// F7: rank-bucket × country site counts.
pub fn rank_heatmap(ds: &Dataset) -> CountGrid {
    let rows: Vec<String> = RANK_BUCKETS.iter().map(|(_, l)| l.to_string()).collect();
    let countries = ds.countries();
    let cols: Vec<String> = countries.iter().map(|c| c.code().to_string()).collect();
    let mut grid = CountGrid::new(rows, cols);
    for (col, country) in countries.iter().enumerate() {
        for record in ds.in_country(*country) {
            let row = RANK_BUCKETS
                .iter()
                .position(|(edge, _)| record.rank <= *edge)
                .unwrap_or(RANK_BUCKETS.len() - 1);
            grid.add(row, col, 1);
        }
    }
    grid
}

// ----------------------------------------------------- Declared language

/// X3 (extension): how trustworthy is the declared `<html lang>` metadata
/// that screen readers rely on for pronunciation? §1 of the paper blames
/// metadata that is "absent, incorrect, or inconsistent with the visible
/// text"; this analysis quantifies all three states per country.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeclaredLangRow {
    pub country_code: String,
    /// Sites with any `lang` attribute (%).
    pub declared_pct: f64,
    /// Sites whose declaration matches the native language (%).
    pub correct_pct: f64,
    /// Sites declaring a language that contradicts their visible content (%).
    pub incorrect_pct: f64,
    /// Sites with no declaration at all (%).
    pub absent_pct: f64,
}

/// X3 for every country.
pub fn declared_lang(ds: &Dataset) -> Vec<DeclaredLangRow> {
    ds.countries()
        .into_iter()
        .map(|country| {
            let native_primary = country
                .target_language()
                .tag()
                .split('-')
                .next()
                .expect("tag has primary subtag")
                .to_string();
            let mut declared = 0u64;
            let mut correct = 0u64;
            let mut total = 0u64;
            for record in ds.in_country(country) {
                total += 1;
                if let Some(tag) = &record.declared_lang {
                    declared += 1;
                    let primary = tag
                        .split(['-', '_'])
                        .next()
                        .unwrap_or("")
                        .to_ascii_lowercase();
                    if primary == native_primary {
                        correct += 1;
                    }
                }
            }
            let pct = |n: u64| {
                if total == 0 {
                    0.0
                } else {
                    n as f64 * 100.0 / total as f64
                }
            };
            DeclaredLangRow {
                country_code: country.code().to_string(),
                declared_pct: pct(declared),
                correct_pct: pct(correct),
                incorrect_pct: pct(declared - correct),
                absent_pct: pct(total - declared),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Headlines

/// X1: headline findings of §1/§3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Headlines {
    /// Per-country share of sites with <10% native accessibility text.
    pub mismatch_share: Vec<(String, f64)>,
    /// Share of *all* non-empty texts that the filter discarded.
    pub discarded_share_pct: f64,
    /// Total sites.
    pub sites: u64,
}

/// Compute the headline findings.
pub fn headlines(ds: &Dataset) -> Headlines {
    let cdfs = mismatch_cdfs(ds);
    let mismatch_share = cdfs
        .iter()
        .map(|c| (c.country_code.clone(), c.sites_below_10pct_native_a11y))
        .collect();
    let all = discard_distribution(
        "all".to_string(),
        ds.records
            .iter()
            .flat_map(|r| r.elements.iter().map(|e| &e.state)),
    );
    Headlines {
        mismatch_share,
        discarded_share_pct: 100.0 - all.informative_pct,
        sites: ds.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ElementRecord;

    fn present(
        kind: ElementKind,
        chars: u32,
        words: u32,
        discard: Option<DiscardCategory>,
        label: LabelLanguage,
    ) -> ElementRecord {
        ElementRecord {
            kind,
            state: TextState::Present {
                chars,
                words,
                discard,
                label,
            },
        }
    }

    fn site(country: Country, host: &str, elements: Vec<ElementRecord>) -> SiteRecord {
        SiteRecord {
            host: host.into(),
            country,
            rank: 2_000,
            visible_native_pct: 90.0,
            visible_english_pct: 10.0,
            declared_lang: None,
            elements,
            base_score: 95.0,
            kizuki_score: 88.0,
            kizuki_eligible: true,
            gaps: None,
        }
    }

    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::default();
        ds.records.push(site(
            Country::Bangladesh,
            "a.bd",
            vec![
                present(ElementKind::ImageAlt, 20, 4, None, LabelLanguage::English),
                present(ElementKind::ImageAlt, 15, 3, None, LabelLanguage::Native),
                ElementRecord {
                    kind: ElementKind::ImageAlt,
                    state: TextState::Missing,
                },
                ElementRecord {
                    kind: ElementKind::ImageAlt,
                    state: TextState::Empty,
                },
            ],
        ));
        ds.records.push(site(
            Country::Bangladesh,
            "b.bd",
            vec![
                present(
                    ElementKind::ImageAlt,
                    4,
                    1,
                    Some(DiscardCategory::Placeholder),
                    LabelLanguage::English,
                ),
                present(ElementKind::ImageAlt, 30, 6, None, LabelLanguage::Mixed),
            ],
        ));
        ds
    }

    #[test]
    fn table2_per_site_percentages() {
        let ds = toy_dataset();
        let rows = table2(&ds);
        let image = rows
            .iter()
            .find(|r| r.kind == ElementKind::ImageAlt)
            .unwrap();
        // Site a: 25% missing, 25% empty. Site b: 0%, 0%.
        assert_eq!(image.missing.count, 2);
        assert!((image.missing.mean - 12.5).abs() < 1e-9);
        assert!((image.empty.mean - 12.5).abs() < 1e-9);
        // 4 non-empty texts: lengths 20, 15, 4, 30.
        assert_eq!(image.text_len.count, 4);
        assert!((image.text_len.mean - 17.25).abs() < 1e-9);
        // Kinds with no elements produce empty summaries.
        let label = rows.iter().find(|r| r.kind == ElementKind::Label).unwrap();
        assert_eq!(label.missing.count, 0);
    }

    #[test]
    fn fig3_discard_distribution() {
        let ds = toy_dataset();
        let rows = discard_by_country(&ds);
        assert_eq!(rows.len(), 1);
        let bd = &rows[0];
        assert_eq!(bd.label, "bd");
        assert_eq!(bd.total_texts, 4);
        let placeholder_idx = DiscardCategory::ALL
            .iter()
            .position(|c| *c == DiscardCategory::Placeholder)
            .unwrap();
        assert!((bd.pct[placeholder_idx] - 25.0).abs() < 1e-9);
        assert!((bd.informative_pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_lang_distribution_normalised() {
        let ds = toy_dataset();
        let rows = lang_distribution(&ds);
        let bd = &rows[0];
        assert_eq!(bd.informative_texts, 3);
        assert!((bd.native_pct + bd.english_pct + bd.mixed_pct - 100.0).abs() < 1e-9);
        assert!((bd.native_pct - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_counts_no_informative_as_zero() {
        let mut ds = toy_dataset();
        ds.records.push(site(Country::Bangladesh, "c.bd", vec![]));
        let cdfs = mismatch_cdfs(&ds);
        let bd = &cdfs[0];
        assert_eq!(bd.a11y.len(), 3);
        // c.bd has no informative texts -> 0% native -> below 10%.
        // a.bd: 1/2 native = 50%. b.bd: 0 native of 1 -> 0%.
        assert!((bd.sites_below_10pct_native_a11y - 2.0 / 3.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_shift_counts() {
        let ds = toy_dataset();
        let shift = kizuki_shift(&ds, &[Country::Bangladesh, Country::Thailand]);
        assert_eq!(shift.eligible_sites, 2);
        assert!((shift.old_above_90_pct - 100.0).abs() < 1e-9);
        assert!((shift.new_above_90_pct - 0.0).abs() < 1e-9);
        assert_eq!(shift.old_scores.total(), 2);
    }

    #[test]
    fn fig7_rank_buckets() {
        let ds = toy_dataset();
        let grid = rank_heatmap(&ds);
        // rank 2000 lands in the "5k" bucket (row 1).
        assert_eq!(grid.get(1, 0), 2);
        assert_eq!(grid.col_total(0), 2);
    }

    #[test]
    fn fig8_correlation_runs() {
        let ds = toy_dataset();
        let rows = mismatch_correlation(&ds);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "bd");
        // Two sites with identical visible share -> constant x -> None.
        assert_eq!(rows[0].1, None);
    }

    #[test]
    fn fig2_and_fig8_points() {
        let ds = toy_dataset();
        let f2 = visible_scatter(&ds, Country::Bangladesh);
        assert_eq!(f2.len(), 2);
        assert_eq!(f2[0], (10.0, 90.0));
        let f8 = mismatch_scatter(&ds, Country::Bangladesh);
        assert_eq!(f8[0], (90.0, 50.0));
    }

    #[test]
    fn headlines_aggregate() {
        let ds = toy_dataset();
        let h = headlines(&ds);
        assert_eq!(h.sites, 2);
        assert!((h.discarded_share_pct - 25.0).abs() < 1e-9);
        assert_eq!(h.mismatch_share.len(), 1);
    }

    #[test]
    fn x3_declared_lang_states() {
        let mut ds = toy_dataset();
        // a.bd declares "bn" (correct); add one wrong and one absent site.
        let mut wrong = site(Country::Bangladesh, "w.bd", vec![]);
        wrong.declared_lang = Some("en".into());
        ds.records.push(wrong);
        let mut absent = site(Country::Bangladesh, "n.bd", vec![]);
        absent.declared_lang = None;
        ds.records.push(absent);
        // Toy records from site() default to declared_lang: None, except
        // we set a.bd and b.bd explicitly here.
        ds.records[0].declared_lang = Some("bn".into());
        ds.records[1].declared_lang = Some("bn-BD".into());
        let rows = declared_lang(&ds);
        let bd = &rows[0];
        assert_eq!(bd.country_code, "bd");
        // 4 sites: 2 correct (bn, bn-BD), 1 wrong (en), 1 absent.
        assert!((bd.declared_pct - 75.0).abs() < 1e-9);
        assert!((bd.correct_pct - 50.0).abs() < 1e-9);
        assert!((bd.incorrect_pct - 25.0).abs() < 1e-9);
        assert!((bd.absent_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fig9_by_element() {
        let ds = toy_dataset();
        let rows = discard_by_element(&ds);
        let image = rows.iter().find(|r| r.label == "image-alt").unwrap();
        assert_eq!(image.total_texts, 4);
        let empty_kinds = rows.iter().filter(|r| r.total_texts == 0).count();
        assert_eq!(empty_kinds, 11);
    }
}
