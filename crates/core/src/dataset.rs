//! The LangCrUX dataset model.
//!
//! What the paper releases as "LangCrUX, the first large-scale dataset of
//! 120,000 popular websites across 12 languages": per-site records of
//! visible-language composition, accessibility-element states (with filter
//! verdicts and label-language classes), audit scores, and the per-country
//! crawl provenance. Serializes to JSON via serde (`Dataset::to_json` /
//! `Dataset::from_json`), which is the open-source release format.
//!
//! Element records store *metrics and classifications*, not raw label text
//! (120k sites × hundreds of elements of text would dominate memory);
//! illustrative raw examples for the paper's Tables 4 and 5 are captured
//! separately in [`Dataset::extreme_examples`] / [`Dataset::mismatch_examples`].

use langcrux_filter::DiscardCategory;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Country;
use langcrux_langid::LabelLanguage;
use serde::{field, DeError, Deserialize, ObjectWriter, Serialize, Value};

/// State of one accessibility element on a site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TextState {
    /// No accessibility-text source present.
    Missing,
    /// Source present but whitespace-only.
    Empty,
    /// Non-empty text, with its measured properties.
    Present {
        /// Unicode chars (Table 2 "text length").
        chars: u32,
        /// Whitespace tokens (Table 2 "word count").
        words: u32,
        /// `Some(cat)` when the filter discarded it as uninformative.
        discard: Option<DiscardCategory>,
        /// Language class (meaningful for informative texts).
        label: LabelLanguage,
    },
}

/// One accessibility element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElementRecord {
    pub kind: ElementKind,
    pub state: TextState,
}

/// Per-site translation-gap summary, aggregated from the audit layer's
/// [`GapReport`](langcrux_audit::GapReport) and Kizuki's speak-order
/// outcome model. Present only on gap-enabled runs where at least one
/// region was flagged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteGaps {
    /// Flagged regions on the landing page.
    pub regions: u32,
    /// Untranslated `nav`/`header`/`footer` chrome landmarks.
    pub chrome: u32,
    /// Subtrees whose `lang` attribute contradicts their content.
    pub lang_attr: u32,
    /// Unmarked foreign-script fallback regions.
    pub fallback: u32,
    /// Foreign distinguishing characters across flagged regions.
    pub foreign_chars: u64,
    /// Gap regions a VoiceOver-like reader would mispronounce (it picks
    /// an engine for the claimed language and reads foreign text with it).
    pub mispronounced: u32,
    /// Gap regions such a reader would skip outright (no engine at all).
    pub skipped: u32,
}

/// One website in the dataset.
///
/// Serialization is hand-written (not derived) for one reason: the
/// optional `gaps` object must be *absent* — not `null` — when a site has
/// no translation-gap summary, so datasets built with gap scenarios
/// disabled serialize byte-identically to those produced before the gap
/// dimension existed. The field order matches the old derive exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRecord {
    pub host: String,
    pub country: Country,
    /// CrUX-style global rank.
    pub rank: u64,
    /// Percent of visible distinguishing characters in the native language.
    pub visible_native_pct: f64,
    /// Percent in Latin/English.
    pub visible_english_pct: f64,
    /// Declared `<html lang>`, if any.
    pub declared_lang: Option<String>,
    /// Every accessibility element extracted from the landing page.
    pub elements: Vec<ElementRecord>,
    /// Base Lighthouse-style score (0–100).
    pub base_score: f64,
    /// Score after Kizuki's language-aware checks.
    pub kizuki_score: f64,
    /// Whether the site passes base `image-alt` (Figure 6 eligibility).
    pub kizuki_eligible: bool,
    /// Translation-gap summary; `None` when gap scenarios were disabled
    /// or the page audited clean.
    pub gaps: Option<SiteGaps>,
}

impl Serialize for SiteRecord {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let mut obj = ObjectWriter::new(out);
        obj.field("host", &self.host)?;
        obj.field("country", &self.country)?;
        obj.field("rank", &self.rank)?;
        obj.field("visible_native_pct", &self.visible_native_pct)?;
        obj.field("visible_english_pct", &self.visible_english_pct)?;
        obj.field("declared_lang", &self.declared_lang)?;
        obj.field("elements", &self.elements)?;
        obj.field("base_score", &self.base_score)?;
        obj.field("kizuki_score", &self.kizuki_score)?;
        obj.field("kizuki_eligible", &self.kizuki_eligible)?;
        if let Some(gaps) = &self.gaps {
            obj.field("gaps", gaps)?;
        }
        obj.end();
        Ok(())
    }
}

impl Deserialize for SiteRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        Ok(SiteRecord {
            host: field(obj, "host")?,
            country: field(obj, "country")?,
            rank: field(obj, "rank")?,
            visible_native_pct: field(obj, "visible_native_pct")?,
            visible_english_pct: field(obj, "visible_english_pct")?,
            declared_lang: field(obj, "declared_lang")?,
            elements: field(obj, "elements")?,
            base_score: field(obj, "base_score")?,
            kizuki_score: field(obj, "kizuki_score")?,
            kizuki_eligible: field(obj, "kizuki_eligible")?,
            gaps: match v.get("gaps") {
                Some(g) => Some(SiteGaps::from_value(g)?),
                None => None,
            },
        })
    }
}

impl SiteRecord {
    /// Elements of a kind.
    pub fn of_kind(&self, kind: ElementKind) -> impl Iterator<Item = &ElementRecord> {
        self.elements.iter().filter(move |e| e.kind == kind)
    }

    /// Counts of informative a11y texts by language class:
    /// `(native, english, mixed)`.
    pub fn informative_lang_counts(&self) -> (u32, u32, u32) {
        let mut counts = (0u32, 0u32, 0u32);
        for e in &self.elements {
            if let TextState::Present {
                discard: None,
                label,
                ..
            } = &e.state
            {
                match label {
                    LabelLanguage::Native => counts.0 += 1,
                    LabelLanguage::English => counts.1 += 1,
                    LabelLanguage::Mixed => counts.2 += 1,
                    _ => {}
                }
            }
        }
        counts
    }

    /// Percent of informative a11y texts in the native language; `None`
    /// when the site has no informative a11y text at all.
    pub fn a11y_native_pct(&self) -> Option<f64> {
        let (native, english, mixed) = self.informative_lang_counts();
        let total = native + english + mixed;
        if total == 0 {
            None
        } else {
            Some(f64::from(native) * 100.0 / f64::from(total))
        }
    }
}

/// An extreme accessibility-text example (Table 4 / Appendix E).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtremeExample {
    pub host: String,
    pub country: Country,
    pub kind: ElementKind,
    pub chars: u32,
    pub words: u32,
    /// First 120 characters of the offending text.
    pub preview: String,
}

/// A visible/accessibility language-mismatch example (Table 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MismatchExample {
    pub host: String,
    pub country: Country,
    pub visible_native_pct: f64,
    /// An English alt text found on the native-language page.
    pub alt_preview: String,
}

/// Per-country crawl provenance (the §2 selection workflow's telemetry).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CountryCrawlSummary {
    pub country_code: String,
    /// Candidates fetched (rank order).
    pub attempted: u64,
    /// Sites accepted into the dataset.
    pub selected: u64,
    /// Candidates rejected by the 50% language threshold.
    pub rejected_threshold: u64,
    /// Candidates lost to network failures after retries.
    pub failed_fetch: u64,
    /// Candidates that served restricted/bot-wall content.
    pub restricted: u64,
}

/// The full dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Workspace seed the corpus was generated from.
    pub seed: u64,
    /// Target sites per country.
    pub quota: usize,
    pub records: Vec<SiteRecord>,
    pub crawl_summaries: Vec<CountryCrawlSummary>,
    pub extreme_examples: Vec<ExtremeExample>,
    pub mismatch_examples: Vec<MismatchExample>,
}

impl Dataset {
    /// Records for one country.
    pub fn in_country(&self, country: Country) -> impl Iterator<Item = &SiteRecord> {
        self.records.iter().filter(move |r| r.country == country)
    }

    /// Countries present, in study order.
    pub fn countries(&self) -> Vec<Country> {
        Country::STUDY
            .iter()
            .copied()
            .filter(|c| self.records.iter().any(|r| r.country == *c))
            .collect()
    }

    /// Total site count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize to compact JSON (the release format).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Load from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Dataset> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn present(
        kind: ElementKind,
        discard: Option<DiscardCategory>,
        label: LabelLanguage,
    ) -> ElementRecord {
        ElementRecord {
            kind,
            state: TextState::Present {
                chars: 10,
                words: 2,
                discard,
                label,
            },
        }
    }

    fn record() -> SiteRecord {
        SiteRecord {
            host: "sangbad-1.bd".into(),
            country: Country::Bangladesh,
            rank: 1200,
            visible_native_pct: 92.0,
            visible_english_pct: 8.0,
            declared_lang: Some("bn".into()),
            elements: vec![
                present(ElementKind::ImageAlt, None, LabelLanguage::Native),
                present(ElementKind::ImageAlt, None, LabelLanguage::English),
                present(ElementKind::ImageAlt, None, LabelLanguage::English),
                present(
                    ElementKind::ButtonName,
                    Some(DiscardCategory::GenericAction),
                    LabelLanguage::English,
                ),
                present(ElementKind::LinkName, None, LabelLanguage::Mixed),
                ElementRecord {
                    kind: ElementKind::ImageAlt,
                    state: TextState::Missing,
                },
            ],
            base_score: 93.0,
            kizuki_score: 86.0,
            kizuki_eligible: true,
            gaps: None,
        }
    }

    #[test]
    fn informative_lang_counts_skip_discarded_and_missing() {
        let r = record();
        assert_eq!(r.informative_lang_counts(), (1, 2, 1));
        let pct = r.a11y_native_pct().unwrap();
        assert!((pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn a11y_native_pct_none_when_no_informative() {
        let mut r = record();
        r.elements.clear();
        assert_eq!(r.a11y_native_pct(), None);
    }

    #[test]
    fn of_kind_filters() {
        let r = record();
        assert_eq!(r.of_kind(ElementKind::ImageAlt).count(), 4);
        assert_eq!(r.of_kind(ElementKind::SelectName).count(), 0);
    }

    #[test]
    fn json_round_trip() {
        let ds = Dataset {
            seed: 42,
            quota: 10,
            records: vec![record()],
            crawl_summaries: vec![CountryCrawlSummary {
                country_code: "bd".into(),
                attempted: 12,
                selected: 10,
                rejected_threshold: 1,
                failed_fetch: 1,
                restricted: 0,
            }],
            extreme_examples: vec![],
            mismatch_examples: vec![],
        };
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.seed, 42);
        assert_eq!(back.len(), 1);
        assert_eq!(back.records[0].host, "sangbad-1.bd");
        assert_eq!(back.records[0].elements.len(), 6);
        assert_eq!(back.crawl_summaries[0].selected, 10);
    }

    #[test]
    fn gap_summary_is_absent_not_null_when_missing() {
        let r = record();
        let v = serde_json::to_value(&r).unwrap();
        assert!(
            v.get("gaps").is_none(),
            "a gap-free record must not carry a `gaps` key at all"
        );
        // And a pre-gap-dimension record (no `gaps` key) still loads.
        let back = SiteRecord::from_value(&v).unwrap();
        assert_eq!(back.gaps, None);
        assert_eq!(back.host, r.host);
    }

    #[test]
    fn gap_summary_round_trips_when_present() {
        let mut r = record();
        r.gaps = Some(SiteGaps {
            regions: 3,
            chrome: 2,
            lang_attr: 1,
            fallback: 0,
            foreign_chars: 184,
            mispronounced: 2,
            skipped: 1,
        });
        let v = serde_json::to_value(&r).unwrap();
        assert!(v.get("gaps").is_some());
        let back = SiteRecord::from_value(&v).unwrap();
        assert_eq!(back.gaps, r.gaps);
    }

    #[test]
    fn countries_in_study_order() {
        let mut ds = Dataset::default();
        let mut r1 = record();
        r1.country = Country::Thailand;
        let mut r2 = record();
        r2.country = Country::China;
        ds.records = vec![r1, r2];
        assert_eq!(ds.countries(), vec![Country::China, Country::Thailand]);
    }
}
