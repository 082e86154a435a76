//! Screen-reader announcement simulation.
//!
//! The paper's motivation (§1) is what a blind user *hears*: "popular
//! screen readers like JAWS and NVDA still exhibit limited support for
//! non-Latin scripts and often perform poorly when confronted with mixed
//! languages … Apple's VoiceOver does not provide any support for
//! languages such as Urdu, Amharic, or Burmese." This module turns a
//! crawled page into the utterance stream a screen reader would produce,
//! and classifies each utterance by what the user would experience:
//! spoken correctly, mispronounced (wrong synthesis engine), skipped
//! (no engine for the language at all), or a degenerate announcement
//! ("image", "button") where metadata was missing.
//!
//! This is the user-experience lens over the same data the audits score —
//! used by the `repro speech` artefact to report per-country
//! mispronunciation rates.

use crate::analysis::{ElementAnalysis, PageAnalysis};
use langcrux_audit::{GapKind, GapRegion, GapReport};
use langcrux_crawl::{ExtractedElement, PageExtract};
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Language;
use langcrux_langid::LabelLanguage;
use serde::{Deserialize, Serialize};

/// How well the reader's synthesiser handles a language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSupport {
    /// A dedicated voice exists.
    Full,
    /// Synthesis exists but switching/prosody is unreliable (the
    /// mixed-language failure mode of §1).
    Partial,
    /// No voice at all — the text is skipped or spelled out.
    None,
}

/// What the user experiences for one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpeechOutcome {
    /// Announced with a correct voice.
    Spoken,
    /// Read with the wrong-language engine: intelligible to the engine,
    /// not to the listener ("mispronunciations or reduced clarity", §3).
    Mispronounced,
    /// No engine for the language: skipped or spelled character by
    /// character.
    Skipped,
    /// No accessibility text: the reader falls back to a generic role
    /// announcement ("image", "button") or the raw file name.
    GenericAnnouncement,
}

/// One announcement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Utterance {
    pub kind: ElementKind,
    /// What the reader would say (accessible name or role fallback).
    pub text: String,
    /// Detected language of the announced text, when it has one.
    pub language: Option<Language>,
    pub outcome: SpeechOutcome,
}

/// A screen-reader profile: which languages its synthesiser covers.
#[derive(Debug, Clone)]
pub struct ScreenReader {
    name: &'static str,
    /// Languages with full voices.
    full: Vec<Language>,
    /// Languages with partial/robotic voices.
    partial: Vec<Language>,
}

impl ScreenReader {
    /// A VoiceOver-like profile: strong major-language coverage, partial
    /// coverage for several non-Latin languages, and — per §1 — no support
    /// at all for Urdu, Amharic, or Burmese.
    pub fn voiceover_like() -> ScreenReader {
        ScreenReader {
            name: "voiceover-like",
            full: vec![
                Language::English,
                Language::MandarinChinese,
                Language::Cantonese,
                Language::Japanese,
                Language::Korean,
                Language::Russian,
                Language::Greek,
                Language::Hebrew,
                Language::Thai,
                Language::ModernStandardArabic,
                Language::EgyptianArabic,
                Language::Hindi,
            ],
            partial: vec![
                Language::Bangla,
                Language::Tamil,
                Language::Telugu,
                Language::Marathi,
                Language::Sinhala,
                Language::Georgian,
                Language::Punjabi,
                Language::Gujarati,
                Language::Kannada,
                Language::Malayalam,
                Language::Persian,
                Language::Nepali,
            ],
        }
    }

    /// A minimal English-only reader (the worst case for the study's
    /// users; useful as the lower bound in comparisons).
    pub fn english_only() -> ScreenReader {
        ScreenReader {
            name: "english-only",
            full: vec![Language::English],
            partial: Vec::new(),
        }
    }

    /// Profile name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Synthesiser support for a language.
    pub fn support(&self, language: Language) -> EngineSupport {
        if self.full.contains(&language) {
            EngineSupport::Full
        } else if self.partial.contains(&language) {
            EngineSupport::Partial
        } else {
            EngineSupport::None
        }
    }

    /// Simulate announcing every accessibility element of a page.
    ///
    /// `page_language` is the language the page *content* is in (the
    /// engine the reader would select from context/declared metadata).
    /// [`Self::speak_order`] over a [`PageAnalysis`] made here.
    pub fn announce_page(&self, page: &PageExtract, page_language: Language) -> Vec<Utterance> {
        self.speak_order(
            page,
            &PageAnalysis::with_language(page, None, Some(page_language)),
        )
    }

    /// Announce every accessibility element of `page` in document order,
    /// reading each accessible name's label from `analysis` (made for this
    /// page). The reader selects the engine of the analysis's page
    /// language, or English when it is undetermined (the reader's default
    /// voice).
    pub fn speak_order(&self, page: &PageExtract, analysis: &PageAnalysis) -> Vec<Utterance> {
        let page_language = analysis.language.unwrap_or(Language::English);
        page.elements
            .iter()
            .zip(&analysis.elements)
            .map(|(element, analysed)| self.announce(element, analysed, page_language))
            .collect()
    }

    fn announce(
        &self,
        element: &ExtractedElement,
        analysed: &ElementAnalysis,
        page_language: Language,
    ) -> Utterance {
        // No accessible name: the reader falls back to the element's role.
        let (Some(name), Some(label)) = (element.accessible_name(), analysed.name_label) else {
            return Utterance {
                kind: element.kind,
                text: role_announcement(element.kind).to_string(),
                language: None,
                outcome: SpeechOutcome::GenericAnnouncement,
            };
        };
        // Which language is this text in, relative to the page?
        let text_language = match label {
            LabelLanguage::Native | LabelLanguage::Mixed => Some(page_language),
            LabelLanguage::English => Some(Language::English),
            LabelLanguage::OtherLanguage => langcrux_langid::detect(name),
            LabelLanguage::NonLinguistic => None,
        };
        let outcome = match text_language {
            None => SpeechOutcome::Spoken, // digits/symbols read fine
            Some(lang) => match self.support(lang) {
                EngineSupport::None => SpeechOutcome::Skipped,
                EngineSupport::Partial => SpeechOutcome::Mispronounced,
                EngineSupport::Full => {
                    // A correct engine exists, but language switching within
                    // a page only works when the text matches the engine in
                    // use; §3: readers "typically do not handle language
                    // switching within a single label".
                    if label == LabelLanguage::Mixed {
                        SpeechOutcome::Mispronounced
                    } else {
                        SpeechOutcome::Spoken
                    }
                }
            },
        };
        Utterance {
            kind: element.kind,
            text: name.to_string(),
            language: text_language,
            outcome,
        }
    }
}

/// Speech impact of a page's translation gaps under one reader profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapSpeech {
    /// Gap regions the speak order passes through.
    pub regions: u32,
    /// Regions read with a wrong-language engine.
    pub mispronounced: u32,
    /// Regions the reader has no usable engine for.
    pub skipped: u32,
    /// Foreign distinguishing characters across the regions — how much
    /// text the listener hits in the wrong language.
    pub foreign_chars: u64,
}

impl GapSpeech {
    pub fn merge(&mut self, other: &GapSpeech) {
        self.regions += other.regions;
        self.mispronounced += other.mispronounced;
        self.skipped += other.skipped;
        self.foreign_chars += other.foreign_chars;
    }
}

impl ScreenReader {
    /// What the user hears when the speak order reaches one translation-gap
    /// region.
    ///
    /// The reader speaks a region with the engine its context selects: the
    /// `lang`-tagged language for explicit mismatches (readers honour
    /// markup), the page language otherwise. A gap region's content is by
    /// construction in a script that engine was never built for, so the
    /// only question is whether the selected engine exists at all:
    /// no engine → [`SpeechOutcome::Skipped`] (spelled out or silently
    /// passed over); any engine → [`SpeechOutcome::Mispronounced`]
    /// (wrong-language synthesis, §1's mixed-language failure mode).
    pub fn gap_outcome(&self, gap: &GapRegion, page_language: Option<Language>) -> SpeechOutcome {
        let engine = match gap.kind {
            GapKind::LangAttrMismatch => {
                gap.lang.as_deref().and_then(Language::from_primary_subtag)
            }
            GapKind::UntranslatedChrome | GapKind::FallbackText => page_language,
        };
        match engine.map(|l| self.support(l)) {
            None | Some(EngineSupport::None) => SpeechOutcome::Skipped,
            Some(EngineSupport::Full) | Some(EngineSupport::Partial) => {
                SpeechOutcome::Mispronounced
            }
        }
    }

    /// Aggregate [`Self::gap_outcome`] over a page's whole gap report.
    pub fn gap_speech(&self, report: &GapReport, page_language: Option<Language>) -> GapSpeech {
        let mut speech = GapSpeech::default();
        for gap in &report.regions {
            speech.regions += 1;
            speech.foreign_chars += gap.foreign_chars as u64;
            match self.gap_outcome(gap, page_language) {
                SpeechOutcome::Skipped => speech.skipped += 1,
                _ => speech.mispronounced += 1,
            }
        }
        speech
    }
}

/// The generic role announcement for an unnamed element.
pub fn role_announcement(kind: ElementKind) -> &'static str {
    match kind {
        ElementKind::ButtonName | ElementKind::InputButtonName => "button",
        ElementKind::DocumentTitle => "untitled document",
        ElementKind::ImageAlt | ElementKind::InputImageAlt | ElementKind::SvgImgAlt => "image",
        ElementKind::FrameTitle => "frame",
        ElementKind::SummaryName => "disclosure triangle",
        ElementKind::Label => "edit text",
        ElementKind::SelectName => "pop-up button",
        ElementKind::LinkName => "link",
        ElementKind::ObjectAlt => "embedded object",
    }
}

/// Aggregate experience over a page's utterances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SpeechStats {
    pub spoken: u32,
    pub mispronounced: u32,
    pub skipped: u32,
    pub generic: u32,
}

impl SpeechStats {
    /// Summarise a set of utterances.
    pub fn of(utterances: &[Utterance]) -> SpeechStats {
        let mut stats = SpeechStats::default();
        for u in utterances {
            match u.outcome {
                SpeechOutcome::Spoken => stats.spoken += 1,
                SpeechOutcome::Mispronounced => stats.mispronounced += 1,
                SpeechOutcome::Skipped => stats.skipped += 1,
                SpeechOutcome::GenericAnnouncement => stats.generic += 1,
            }
        }
        stats
    }

    pub fn total(&self) -> u32 {
        self.spoken + self.mispronounced + self.skipped + self.generic
    }

    /// Share (%) of announcements that are NOT spoken correctly.
    pub fn degraded_pct(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        f64::from(total - self.spoken) * 100.0 / f64::from(total)
    }

    pub fn merge(&mut self, other: &SpeechStats) {
        self.spoken += other.spoken;
        self.mispronounced += other.mispronounced;
        self.skipped += other.skipped;
        self.generic += other.generic;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_crawl::extract_streaming;

    fn page(html: &str) -> PageExtract {
        extract_streaming(html)
    }

    #[test]
    fn named_native_elements_are_spoken() {
        let p = page(r#"<img src=a alt="渋谷の夜景の写真です">"#);
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Japanese);
        // document-title slot (missing) + the image.
        let img = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ImageAlt)
            .unwrap();
        assert_eq!(img.outcome, SpeechOutcome::Spoken);
        assert_eq!(img.language, Some(Language::Japanese));
    }

    #[test]
    fn missing_names_become_generic_announcements() {
        let p = page(r#"<img src=a><a href="/x"></a>"#);
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Japanese);
        let img = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ImageAlt)
            .unwrap();
        assert_eq!(img.outcome, SpeechOutcome::GenericAnnouncement);
        assert_eq!(img.text, "image");
        let link = utterances
            .iter()
            .find(|u| u.kind == ElementKind::LinkName)
            .unwrap();
        assert_eq!(link.outcome, SpeechOutcome::GenericAnnouncement);
        assert_eq!(link.text, "link");
    }

    #[test]
    fn partial_engine_mispronounces_bangla() {
        // VoiceOver-like profile has only partial Bangla support.
        let p = page(r#"<img src=a alt="নদীর ধারে সূর্যাস্ত">"#);
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Bangla);
        let img = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ImageAlt)
            .unwrap();
        assert_eq!(img.outcome, SpeechOutcome::Mispronounced);
    }

    #[test]
    fn unsupported_language_is_skipped() {
        // §1: no VoiceOver support for Urdu at all.
        let p = page(r#"<img src=a alt="ٹھیک ہے دنیا کی تصویر ہے">"#);
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Urdu);
        let img = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ImageAlt)
            .unwrap();
        assert_eq!(reader.support(Language::Urdu), EngineSupport::None);
        assert_eq!(img.outcome, SpeechOutcome::Skipped);
    }

    #[test]
    fn mixed_labels_are_mispronounced_even_with_full_engines() {
        let p = page(r#"<img src=a alt="ดาวน์โหลด app ใหม่ for android">"#);
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Thai);
        let img = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ImageAlt)
            .unwrap();
        assert_eq!(img.outcome, SpeechOutcome::Mispronounced);
    }

    #[test]
    fn visible_fallback_is_announced() {
        let p = page(r#"<button>Αναζήτηση εγγράφων</button>"#);
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Greek);
        let button = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ButtonName)
            .unwrap();
        assert_eq!(button.outcome, SpeechOutcome::Spoken);
        assert_eq!(button.text, "Αναζήτηση εγγράφων");
    }

    #[test]
    fn stats_aggregate_and_degraded_pct() {
        let p = page(
            r#"<img src=a alt="渋谷の夜景">
               <img src=b>
               <img src=c alt="shibuya at night">"#,
        );
        let reader = ScreenReader::voiceover_like();
        let utterances = reader.announce_page(&p, Language::Japanese);
        let stats = SpeechStats::of(&utterances);
        // 3 images + missing document-title slot.
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.generic, 2); // missing alt + missing title
                                      // English alt on a Japanese page is spoken (English engine exists,
                                      // pure label) — degraded = 2 generic of 4.
        assert!((stats.degraded_pct() - 50.0).abs() < 1e-9);
        let mut merged = stats;
        merged.merge(&stats);
        assert_eq!(merged.total(), 8);
    }

    #[test]
    fn english_only_reader_degrades_native_content() {
        let p = page(r#"<img src=a alt="Φωτογραφία λιμανιού">"#);
        let reader = ScreenReader::english_only();
        let utterances = reader.announce_page(&p, Language::Greek);
        let img = utterances
            .iter()
            .find(|u| u.kind == ElementKind::ImageAlt)
            .unwrap();
        assert_eq!(img.outcome, SpeechOutcome::Skipped);
        assert_eq!(reader.name(), "english-only");
    }

    #[test]
    fn gap_outcomes_depend_on_the_selected_engine() {
        use langcrux_audit::gap_report;

        let bn_body = "বাংলাদেশের সংবাদপত্রে প্রতিদিন নতুন খবর প্রকাশিত হয় এবং পাঠকেরা তা পড়েন। \
            দেশের বিভিন্ন অঞ্চল থেকে সংবাদদাতারা প্রতিবেদন পাঠান এবং সম্পাদকেরা তা প্রকাশ করেন";
        let html = format!(
            "<html lang=bn><body><nav>Home News Sports Entertainment Opinion More</nav>\
             <main><p>{bn_body}</p>\
             <section lang=ur>Untranslated placeholder copy shipped here</section></main>\
             </body></html>"
        );
        let report = gap_report(&extract_streaming(&html));
        assert_eq!(report.regions.len(), 2);
        let chrome = &report.regions[0];
        let mistagged = &report.regions[1];
        assert_eq!(chrome.kind, GapKind::UntranslatedChrome);
        assert_eq!(mistagged.kind, GapKind::LangAttrMismatch);

        let vo = ScreenReader::voiceover_like();
        // Bangla engine exists (partial): English chrome goes through it.
        assert_eq!(
            vo.gap_outcome(chrome, Some(Language::Bangla)),
            SpeechOutcome::Mispronounced
        );
        // The ur tag selects an engine VoiceOver does not have at all.
        assert_eq!(
            vo.gap_outcome(mistagged, Some(Language::Bangla)),
            SpeechOutcome::Skipped
        );
        // An English-only reader has no Bangla engine: the chrome region
        // is skipped outright.
        let en = ScreenReader::english_only();
        assert_eq!(
            en.gap_outcome(chrome, Some(Language::Bangla)),
            SpeechOutcome::Skipped
        );

        let speech = vo.gap_speech(&report, Some(Language::Bangla));
        assert_eq!(speech.regions, 2);
        assert_eq!(speech.mispronounced, 1);
        assert_eq!(speech.skipped, 1);
        assert_eq!(speech.foreign_chars, report.foreign_chars as u64);
        let mut merged = speech;
        merged.merge(&speech);
        assert_eq!(merged.regions, 4);
        assert_eq!(merged.foreign_chars, 2 * speech.foreign_chars);
    }

    #[test]
    fn every_kind_has_a_role_announcement() {
        for kind in ElementKind::ALL {
            assert!(!role_announcement(kind).is_empty());
        }
    }
}
