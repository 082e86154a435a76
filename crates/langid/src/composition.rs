//! Language composition of a text.
//!
//! Implements the paper's core measurement primitive: given a text and a
//! target ("native") language, what share of the distinguishing characters
//! is native, English (Latin), or something else? The website-selection
//! rule (§2: "at least 50% of visible textual content in the target
//! language") and both axes of Figures 2, 5 and 8 are computed from this.

use langcrux_lang::script::{Script, ScriptHistogram};
use langcrux_lang::Language;
use serde::{Deserialize, Serialize};

/// Shares of a text's distinguishing characters by language bucket.
/// Percentages are in `[0, 100]` and `native + english + other ≈ 100`
/// when `total > 0`; for English, `native == english` and
/// `native + other ≈ 100`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Composition {
    /// Percent of distinguishing characters in the native language's
    /// evidence scripts.
    pub native_pct: f64,
    /// Percent in Latin script (the study's proxy for English, as in the
    /// paper's Unicode heuristic).
    pub english_pct: f64,
    /// Percent in any other distinguishing script.
    pub other_pct: f64,
    /// Number of distinguishing characters the shares are based on.
    pub total: usize,
}

impl Composition {
    /// A composition with no linguistic evidence.
    pub const EMPTY: Composition = Composition {
        native_pct: 0.0,
        english_pct: 0.0,
        other_pct: 0.0,
        total: 0,
    };

    /// Whether any linguistic evidence was found.
    pub fn has_evidence(&self) -> bool {
        self.total > 0
    }
}

/// Compute the [`Composition`] of `text` relative to `native`.
///
/// The candidate pool's 26 languages are all non-Latin. English is the one
/// Latin-script language callers pass (the speak-order model classifies
/// labels against English on English or undetermined pages): its native
/// and English buckets are the same characters, so both shares count them
/// and `other` counts only the rest.
pub fn composition(text: &str, native: Language) -> Composition {
    composition_of_histogram(&ScriptHistogram::of(text), native)
}

/// Composition from a pre-computed histogram (lets callers aggregate page
/// text once and derive several measures).
pub fn composition_of_histogram(hist: &ScriptHistogram, native: Language) -> Composition {
    let total = hist.distinguishing_total();
    if total == 0 {
        return Composition::EMPTY;
    }
    let scripts = native.evidence_scripts();
    let native_count: usize = scripts.iter().map(|&s| hist.count(s)).sum();
    let english_count = hist.count(Script::Latin);
    let latin_native = scripts.contains(&Script::Latin);
    let counted = native_count + if latin_native { 0 } else { english_count };
    let other_count = total.saturating_sub(counted);
    let pct = |n: usize| n as f64 * 100.0 / total as f64;
    Composition {
        native_pct: pct(native_count),
        english_pct: pct(english_count),
        other_pct: pct(other_count),
        total,
    }
}

/// The paper's website-inclusion test: at least `threshold_pct` percent of
/// the text's distinguishing characters are in the target language.
pub fn meets_native_threshold(text: &str, native: Language, threshold_pct: f64) -> bool {
    let c = composition(text, native);
    c.has_evidence() && c.native_pct >= threshold_pct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_native_text() {
        let c = composition("নমস্কার বিশ্ব আজকের খবর", Language::Bangla);
        assert!(c.native_pct > 99.0);
        assert_eq!(c.english_pct, 0.0);
        assert!(c.has_evidence());
    }

    #[test]
    fn pure_english_text() {
        let c = composition("hello world news today", Language::Bangla);
        assert_eq!(c.native_pct, 0.0);
        assert!(c.english_pct > 99.0);
    }

    #[test]
    fn balanced_mix() {
        // 10 Thai letters + 10 Latin letters.
        let c = composition("กกกกกกกกกก abcdefghij", Language::Thai);
        assert!((c.native_pct - 50.0).abs() < 1.0, "{c:?}");
        assert!((c.english_pct - 50.0).abs() < 1.0);
    }

    #[test]
    fn shares_sum_to_100() {
        let c = composition("Русский text ελληνικά 中文", Language::Russian);
        assert!((c.native_pct + c.english_pct + c.other_pct - 100.0).abs() < 1e-9);
        assert!(c.other_pct > 0.0);
    }

    #[test]
    fn digits_and_punctuation_are_not_evidence() {
        let c = composition("12345 ... !!!", Language::Hindi);
        assert!(!c.has_evidence());
        assert_eq!(c, Composition::EMPTY);
    }

    #[test]
    fn japanese_counts_all_three_scripts() {
        let c = composition("日本語のテキストです", Language::Japanese);
        assert!(c.native_pct > 99.0, "{c:?}");
    }

    #[test]
    fn han_text_counts_for_chinese_not_korean() {
        let c_zh = composition("中文内容", Language::MandarinChinese);
        assert!(c_zh.native_pct > 99.0);
        let c_ko = composition("中文内容", Language::Korean);
        assert_eq!(c_ko.native_pct, 0.0);
        assert!(c_ko.other_pct > 99.0);
    }

    #[test]
    fn english_counts_latin_once() {
        // 10 Latin letters + 10 Thai letters against English.
        let c = composition("abcdefghij กกกกกกกกกก", Language::English);
        assert!((c.native_pct - 50.0).abs() < 1e-9);
        assert_eq!(c.native_pct, c.english_pct);
        assert!((c.other_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_test() {
        assert!(meets_native_threshold(
            "ありがとうございます thanks",
            Language::Japanese,
            50.0
        ));
        assert!(!meets_native_threshold(
            "thanks very much ありがとう",
            Language::Japanese,
            80.0
        ));
        assert!(!meets_native_threshold("", Language::Japanese, 50.0));
    }
}
