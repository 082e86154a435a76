//! Label-language classification.
//!
//! Figure 4 of the paper buckets each informative accessibility text into
//! **Native**, **English**, or **Mixed**. This module implements that
//! three-way (plus two degenerate) classification for short strings such as
//! alt texts and aria-labels.
//!
//! Thresholds: a label is *Native* or *English* when ≥ [`PURE_THRESHOLD`]
//! of its distinguishing characters are in that bucket; it is *Mixed* when
//! both buckets hold at least [`MIXED_MIN_SHARE`]; anything else (e.g.
//! a third language) is *OtherLanguage*; strings with no letters at all
//! (digits, arrows, punctuation) are *NonLinguistic*.

use crate::composition::{composition_of_histogram, Composition};
use langcrux_lang::script::ScriptHistogram;
use langcrux_lang::Language;
use serde::{Deserialize, Serialize};

/// Share (percent) above which a label counts as purely one language.
pub const PURE_THRESHOLD: f64 = 90.0;
/// Minimum share (percent) each side needs for a label to count as mixed.
pub const MIXED_MIN_SHARE: f64 = 10.0;

/// Language bucket of one accessibility text (Figure 4 categories plus the
/// two degenerate cases the paper filters out upstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LabelLanguage {
    /// Predominantly the page's native language.
    Native,
    /// Predominantly English/Latin.
    English,
    /// Genuinely bilingual: native and English both ≥ 10%.
    Mixed,
    /// Dominated by a script that is neither native nor Latin.
    OtherLanguage,
    /// No distinguishing characters (numbers, punctuation, symbols).
    NonLinguistic,
}

impl LabelLanguage {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LabelLanguage::Native => "Native",
            LabelLanguage::English => "English",
            LabelLanguage::Mixed => "Mixed",
            LabelLanguage::OtherLanguage => "Other",
            LabelLanguage::NonLinguistic => "Non-linguistic",
        }
    }
}

/// Classify a label relative to a native language.
pub fn classify_label(text: &str, native: Language) -> LabelLanguage {
    classify_histogram(&ScriptHistogram::of(text), native)
}

/// Classify a label from the script histogram of its text, so a caller
/// that has already scanned the text (as `langcrux_filter::scan` does)
/// can label it against several languages without reading it again.
pub fn classify_histogram(hist: &ScriptHistogram, native: Language) -> LabelLanguage {
    classify_composition(composition_of_histogram(hist, native))
}

/// Classify from a pre-computed composition.
pub fn classify_composition(c: Composition) -> LabelLanguage {
    if !c.has_evidence() {
        return LabelLanguage::NonLinguistic;
    }
    if c.native_pct >= PURE_THRESHOLD {
        return LabelLanguage::Native;
    }
    if c.english_pct >= PURE_THRESHOLD {
        return LabelLanguage::English;
    }
    if c.native_pct >= MIXED_MIN_SHARE && c.english_pct >= MIXED_MIN_SHARE {
        return LabelLanguage::Mixed;
    }
    if c.other_pct > c.native_pct && c.other_pct > c.english_pct {
        return LabelLanguage::OtherLanguage;
    }
    // Skewed two-way mixes that clear neither the pure nor the mixed bar
    // default to the larger of the two buckets.
    if c.native_pct >= c.english_pct {
        LabelLanguage::Native
    } else {
        LabelLanguage::English
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_label() {
        assert_eq!(
            classify_label("প্রধান শিরোনাম", Language::Bangla),
            LabelLanguage::Native
        );
        assert_eq!(
            classify_label("ภาพข่าววันนี้", Language::Thai),
            LabelLanguage::Native
        );
    }

    #[test]
    fn english_label() {
        assert_eq!(
            classify_label("school children in classroom", Language::Bangla),
            LabelLanguage::English
        );
    }

    #[test]
    fn mixed_label() {
        assert_eq!(
            classify_label("ดาวน์โหลด app สำหรับ android", Language::Thai),
            LabelLanguage::Mixed
        );
        assert_eq!(
            classify_label("Φωτογραφία από το event", Language::Greek),
            LabelLanguage::Mixed
        );
    }

    #[test]
    fn other_language_label() {
        // Russian text on a Thai site is neither native nor English.
        assert_eq!(
            classify_label("изображение дня", Language::Thai),
            LabelLanguage::OtherLanguage
        );
    }

    #[test]
    fn non_linguistic_label() {
        assert_eq!(
            classify_label("1 / 5", Language::Thai),
            LabelLanguage::NonLinguistic
        );
        assert_eq!(
            classify_label("→", Language::Thai),
            LabelLanguage::NonLinguistic
        );
        assert_eq!(
            classify_label("", Language::Thai),
            LabelLanguage::NonLinguistic
        );
    }

    #[test]
    fn tiny_english_accent_does_not_break_native() {
        // 1 Latin char in 20 native chars stays Native (below 10%).
        let text = "בדיקהבדיקהבדיקהבדיקה x";
        assert_eq!(
            classify_label(text, Language::Hebrew),
            LabelLanguage::Native
        );
    }

    #[test]
    fn skewed_mix_defaults_to_majority() {
        // ~85% English, ~15% native would be Mixed (both ≥10).
        // ~95% English with 5% native → English (native below MIXED_MIN).
        let text = "a very long english description of the photo ข"; // 1 Thai char
        assert_eq!(classify_label(text, Language::Thai), LabelLanguage::English);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LabelLanguage::Mixed.name(), "Mixed");
        assert_eq!(LabelLanguage::NonLinguistic.name(), "Non-linguistic");
    }
}
