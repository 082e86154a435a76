//! Language-aware checks.
//!
//! A [`LanguageAwareCheck`] inspects one element kind's accessibility texts
//! against the page's detected content language. The shipped checks:
//!
//! * [`AltLanguageCheck`] — the paper's §4 contribution: image alt texts
//!   must be written in the language of the page's visible content. A page
//!   fails when more than `mismatch_threshold` of its informative alt
//!   texts are language-inconsistent (pure-other-language text; mixed
//!   native+English counts as consistent, since it does contain the native
//!   description).
//! * [`LinkLanguageCheck`] — the same policy applied to link names,
//!   demonstrating the extension mechanism the paper's artifact documents.

use crate::analysis::PageAnalysis;
use langcrux_lang::a11y::ElementKind;
use langcrux_langid::LabelLanguage;
use serde::{Deserialize, Serialize};

/// Result of one check on one page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckOutcome {
    /// The check's id (e.g. `"kizuki/image-alt-language"`).
    pub id: String,
    /// Audit kind whose pass bit this check overrides.
    pub kind: ElementKind,
    pub passed: bool,
    /// Informative texts examined.
    pub examined: usize,
    /// Texts found language-inconsistent.
    pub mismatched: usize,
}

/// A pluggable language-aware audit extension.
pub trait LanguageAwareCheck: Send + Sync {
    /// Stable identifier, `kizuki/<name>`.
    fn id(&self) -> &'static str;
    /// The base audit whose outcome this check refines.
    fn kind(&self) -> ElementKind;
    /// Evaluate an analysed page: every element's filter verdict and its
    /// label against the page's detected content language. The engine
    /// calls this only for pages whose language is determined.
    fn evaluate(&self, page: &PageAnalysis) -> CheckOutcome;
}

/// Is this label consistent with the page language? Mixed counts as
/// consistent; non-linguistic labels (digits, symbols) are skipped by the
/// caller. Labels are judged against the page language itself, so an
/// English label is foreign text: on an English page English text is
/// Native (English counts Latin once, as its native script), every
/// non-Latin script is OtherLanguage and a mix with English is Mixed.
fn is_consistent(label: LabelLanguage) -> Option<bool> {
    match label {
        LabelLanguage::NonLinguistic => None,
        LabelLanguage::Native | LabelLanguage::Mixed => Some(true),
        LabelLanguage::English | LabelLanguage::OtherLanguage => Some(false),
    }
}

/// Generic threshold-based language-consistency evaluation over one kind.
fn evaluate_kind(
    id: &'static str,
    kind: ElementKind,
    page: &PageAnalysis,
    mismatch_threshold: f64,
) -> CheckOutcome {
    let mut examined = 0usize;
    let mut mismatched = 0usize;
    for label in page.of_kind(kind).filter_map(|e| e.informative_label()) {
        match is_consistent(label) {
            Some(true) => examined += 1,
            Some(false) => {
                examined += 1;
                mismatched += 1;
            }
            None => {}
        }
    }
    let passed = if examined == 0 {
        // Vacuous pass: nothing to judge (mirrors Lighthouse's
        // not-applicable semantics).
        true
    } else {
        (mismatched as f64 / examined as f64) <= mismatch_threshold
    };
    CheckOutcome {
        id: id.to_string(),
        kind,
        passed,
        examined,
        mismatched,
    }
}

/// The paper's language-aware image-alt audit.
#[derive(Debug, Clone, Copy)]
pub struct AltLanguageCheck {
    /// Maximum tolerated share of mismatched informative alt texts.
    pub mismatch_threshold: f64,
}

impl Default for AltLanguageCheck {
    fn default() -> Self {
        // 40% of informative alt texts in the wrong language fails the
        // page — calibrated against the paper's Figure 6 drops (43%→15.8%
        // above 90; 5.6%→1.8% perfect) while tolerating loan-word labels.
        AltLanguageCheck {
            mismatch_threshold: 0.4,
        }
    }
}

impl LanguageAwareCheck for AltLanguageCheck {
    fn id(&self) -> &'static str {
        "kizuki/image-alt-language"
    }

    fn kind(&self) -> ElementKind {
        ElementKind::ImageAlt
    }

    fn evaluate(&self, page: &PageAnalysis) -> CheckOutcome {
        evaluate_kind(
            self.id(),
            ElementKind::ImageAlt,
            page,
            self.mismatch_threshold,
        )
    }
}

/// A second check demonstrating extensibility: link names must match the
/// page language too.
#[derive(Debug, Clone, Copy)]
pub struct LinkLanguageCheck {
    pub mismatch_threshold: f64,
}

impl Default for LinkLanguageCheck {
    fn default() -> Self {
        LinkLanguageCheck {
            mismatch_threshold: 0.5,
        }
    }
}

impl LanguageAwareCheck for LinkLanguageCheck {
    fn id(&self) -> &'static str {
        "kizuki/link-name-language"
    }

    fn kind(&self) -> ElementKind {
        ElementKind::LinkName
    }

    fn evaluate(&self, page: &PageAnalysis) -> CheckOutcome {
        evaluate_kind(
            self.id(),
            ElementKind::LinkName,
            page,
            self.mismatch_threshold,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_crawl::{extract_streaming, PageExtract};
    use langcrux_lang::Language;

    fn page(html: &str) -> PageExtract {
        extract_streaming(html)
    }

    /// The analysis the engine hands its checks, with the page language
    /// fixed to `language`.
    fn on(page: &PageExtract, language: Language) -> PageAnalysis {
        PageAnalysis::with_language(page, None, Some(language))
    }

    #[test]
    fn all_native_alts_pass() {
        let p = page(
            r#"<img alt="ভোরের নদীর দৃশ্য" src=a>
               <img alt="বাজারে ব্যস্ত মানুষজন" src=b>"#,
        );
        let out = AltLanguageCheck::default().evaluate(&on(&p, Language::Bangla));
        assert!(out.passed);
        assert_eq!(out.examined, 2);
        assert_eq!(out.mismatched, 0);
    }

    #[test]
    fn english_alts_on_native_page_fail() {
        let p = page(
            r#"<img alt="crowd gathered at the central square" src=a>
               <img alt="students planting trees in the garden" src=b>
               <img alt="ভোরের নদীর দৃশ্য" src=c>"#,
        );
        let out = AltLanguageCheck::default().evaluate(&on(&p, Language::Bangla));
        assert!(!out.passed);
        assert_eq!(out.examined, 3);
        assert_eq!(out.mismatched, 2);
    }

    #[test]
    fn mixed_labels_count_as_consistent() {
        let p = page(r#"<img alt="ดาวน์โหลด app สำหรับ android phone" src=a>"#);
        let out = AltLanguageCheck::default().evaluate(&on(&p, Language::Thai));
        assert!(out.passed);
        assert_eq!(out.mismatched, 0);
    }

    #[test]
    fn uninformative_labels_are_skipped() {
        let p = page(r#"<img alt="icon" src=a><img alt="img123" src=b>"#);
        let out = AltLanguageCheck::default().evaluate(&on(&p, Language::Thai));
        assert_eq!(out.examined, 0);
        assert!(out.passed, "vacuous pass when nothing informative");
    }

    #[test]
    fn threshold_is_respected() {
        let p = page(
            r#"<img alt="village festival by the river bank" src=a>
               <img alt="ভোরের নদীর ধারে গ্রামের মেলা" src=b>"#,
        );
        // 1/2 mismatched: passes at threshold 0.5, fails at 0.4.
        let lax = AltLanguageCheck {
            mismatch_threshold: 0.5,
        };
        let strict = AltLanguageCheck {
            mismatch_threshold: 0.4,
        };
        assert!(lax.evaluate(&on(&p, Language::Bangla)).passed);
        assert!(!strict.evaluate(&on(&p, Language::Bangla)).passed);
    }

    #[test]
    fn english_pages_accept_english() {
        let p = page(r#"<img alt="crowd gathered at the central square" src=a>"#);
        let out = AltLanguageCheck::default().evaluate(&on(&p, Language::English));
        assert!(out.passed);
        assert_eq!(out.mismatched, 0);
    }

    #[test]
    fn english_pages_reject_every_pure_foreign_script() {
        for alt in ["ภาพตลาดน้ำยามเช้าที่คึกคัก", "ভোরের নদীর ধারে গ্রামের মেলা"]
        {
            let p = page(&format!(r#"<img alt="{alt}" src=a>"#));
            let out = AltLanguageCheck::default().evaluate(&on(&p, Language::English));
            assert_eq!((out.examined, out.mismatched), (1, 1), "{alt}");
            assert!(!out.passed, "{alt}");
        }
    }

    #[test]
    fn english_pages_accept_every_script_mixed_with_english() {
        for alt in ["ตลาดน้ำยามเช้าที่คึกคัก market", "חדשות היום מהעיר הגדולה news"]
        {
            let p = page(&format!(r#"<img alt="{alt}" src=a>"#));
            let out = AltLanguageCheck::default().evaluate(&on(&p, Language::English));
            assert_eq!((out.examined, out.mismatched), (1, 0), "{alt}");
            assert!(out.passed, "{alt}");
        }
    }

    #[test]
    fn link_check_targets_links() {
        let p = page(r#"<a href="/x" aria-label="annual report archive">ΑΡΧΕΙΟ</a>"#);
        let out = LinkLanguageCheck::default().evaluate(&on(&p, Language::Greek));
        assert_eq!(out.kind, ElementKind::LinkName);
        assert!(!out.passed);
    }
}
