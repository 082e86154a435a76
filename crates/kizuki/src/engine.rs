//! The Kizuki engine: page-language detection, check execution, rescoring.

use crate::analysis::PageAnalysis;
use crate::checks::{AltLanguageCheck, CheckOutcome, LanguageAwareCheck};
use langcrux_audit::{AuditReport, OTHER_AUDITS_WEIGHT};
use langcrux_crawl::PageExtract;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Language;
use langcrux_langid::{detect, detect_with_histogram};
use serde::{Deserialize, Serialize};

/// Detect the page's content language from its visible text (falling back
/// to the declared `lang` attribute when the page has no usable text).
///
/// The paper's check compares alt text against "the language of the page's
/// visible content" — detection is content-first, declaration-second,
/// because §1 argues declared metadata is exactly what cannot be trusted.
/// Detection consumes the script histogram the crawler computed during
/// extraction, so rescoring a site does not re-scan its visible text.
pub fn page_language(extract: &PageExtract) -> Option<Language> {
    let detected = if extract.visible_hist.total == 0 && !extract.visible_text.is_empty() {
        // Hand-built PageExtract (e.g. via struct literal + Default)
        // without the carried histogram: fall back to a full scan rather
        // than silently treating the page as language-free.
        detect(&extract.visible_text)
    } else {
        // The crawler guarantees the carried histogram matches the text; a
        // stale histogram on a hand-built extract would misdetect.
        debug_assert_eq!(
            extract.visible_hist.total,
            extract.visible_text.chars().count(),
            "PageExtract.visible_hist out of sync with visible_text"
        );
        detect_with_histogram(&extract.visible_hist, &extract.visible_text)
    };
    if let Some(lang) = detected {
        return Some(lang);
    }
    let declared = extract.declared_lang.as_deref()?;
    let primary = declared.split(['-', '_']).next()?;
    // Tags' primary subtags are lower-case, so this is an exact match
    // against the declaration lower-cased.
    Language::CANDIDATE_POOL
        .iter()
        .copied()
        .chain(std::iter::once(Language::English))
        .find(|l| {
            l.tag()
                .split('-')
                .next()
                .is_some_and(|tag| tag.eq_ignore_ascii_case(primary))
        })
}

/// Kizuki's verdict for one page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KizukiReport {
    /// Language the checks evaluated against.
    pub page_language: Option<Language>,
    /// Score before language awareness (base Lighthouse).
    pub base_score: f64,
    /// Score after applying the language-aware overrides.
    pub new_score: f64,
    /// Per-check outcomes.
    pub checks: Vec<CheckOutcome>,
}

impl KizukiReport {
    /// Score delta introduced by language awareness (≤ 0).
    pub fn delta(&self) -> f64 {
        self.new_score - self.base_score
    }
}

/// The extension engine: a set of language-aware checks applied on top of
/// a base audit report.
pub struct Kizuki {
    checks: Vec<Box<dyn LanguageAwareCheck>>,
}

impl Default for Kizuki {
    fn default() -> Self {
        Kizuki::standard()
    }
}

impl Kizuki {
    /// The paper's configuration: the image-alt language check only.
    pub fn standard() -> Self {
        Kizuki {
            checks: vec![Box::new(AltLanguageCheck::default())],
        }
    }

    /// An engine with no checks (base scores pass through unchanged).
    pub fn empty() -> Self {
        Kizuki { checks: Vec::new() }
    }

    /// Register an additional check (builder style).
    pub fn with_check(mut self, check: Box<dyn LanguageAwareCheck>) -> Self {
        self.checks.push(check);
        self
    }

    /// Run all checks against a page and rescore the base report:
    /// [`Self::evaluate_analysis`] over a [`PageAnalysis`] made here.
    pub fn evaluate(&self, extract: &PageExtract, base: &AuditReport) -> KizukiReport {
        self.evaluate_analysis(&PageAnalysis::new(extract, None), base)
    }

    /// Run all checks against an analysed page and rescore the base
    /// report.
    ///
    /// A base audit that already fails stays failed; a passing audit is
    /// downgraded when any language-aware check targeting its kind fails.
    /// Pages whose language cannot be determined pass vacuously (nothing
    /// to compare against).
    pub fn evaluate_analysis(&self, page: &PageAnalysis, base: &AuditReport) -> KizukiReport {
        let outcomes: Vec<CheckOutcome> = match page.language {
            Some(_) => self
                .checks
                .iter()
                .map(|check| check.evaluate(page))
                .collect(),
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
        KizukiReport {
            page_language: page.language,
            base_score: base.score,
            new_score: earned / total * 100.0,
            checks: outcomes,
        }
    }

    /// The Figure 6 inclusion rule: "we exclude websites that fail the
    /// original Lighthouse test due to missing alt attributes."
    pub fn figure6_eligible(base: &AuditReport) -> bool {
        base.passes(ElementKind::ImageAlt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_audit::audit_page;
    use langcrux_crawl::extract_streaming;

    fn page(html: &str) -> PageExtract {
        extract_streaming(html)
    }

    #[test]
    fn detects_page_language_from_content() {
        let p = page("<html lang=en><body><p>ข่าววันนี้ของประเทศไทยทั้งหมด</p></body></html>");
        // Content wins over the (wrong) declared lang.
        assert_eq!(page_language(&p), Some(Language::Thai));
    }

    #[test]
    fn falls_back_to_declared_lang() {
        let p = page(r#"<html lang="ko-KR"><body><p>123 456</p></body></html>"#);
        assert_eq!(page_language(&p), Some(Language::Korean));
        let p = page("<html><body><p>123</p></body></html>");
        assert_eq!(page_language(&p), None);
    }

    #[test]
    fn consistent_page_keeps_score() {
        let html = r#"<html><head><title>চিত্রশালা</title></head><body>
            <p>বাংলাদেশের নদী ও প্রকৃতির ছবি নিয়ে আমাদের আয়োজন চলছে।</p>
            <img src=a alt="নদীর ধারে সূর্যাস্তের দৃশ্য"></body></html>"#;
        let ex = page(html);
        let base = audit_page(&ex);
        let report = Kizuki::standard().evaluate(&ex, &base);
        assert_eq!(report.page_language, Some(Language::Bangla));
        assert_eq!(report.new_score, report.base_score);
        assert_eq!(report.delta(), 0.0);
    }

    #[test]
    fn mismatched_page_loses_score() {
        // The teachers.gov.bd pattern from §4: >98% Bangla visible content,
        // English alt text.
        let html = r#"<html><head><title>শিক্ষক বাতায়ন</title></head><body>
            <p>বাংলাদেশের শিক্ষকদের জন্য জাতীয় প্ল্যাটফর্মে স্বাগতম। এখানে পাঠ
            পরিকল্পনা, ডিজিটাল কনটেন্ট এবং প্রশিক্ষণ উপকরণ পাওয়া যায়।</p>
            <img src=a alt="teacher training workshop session">
            <img src=b alt="students in a classroom raising their hands">
            </body></html>"#;
        let ex = page(html);
        let base = audit_page(&ex);
        assert!(base.passes(ElementKind::ImageAlt), "base must pass");
        let report = Kizuki::standard().evaluate(&ex, &base);
        assert!(report.new_score < report.base_score);
        assert!(!report.checks[0].passed);
        assert_eq!(report.checks[0].mismatched, 2);
    }

    #[test]
    fn already_failing_audit_stays_failed() {
        let html = r#"<html><head><title>ページ</title></head><body>
            <p>日本語のテキストがここにあります。</p><img src=a></body></html>"#;
        let ex = page(html);
        let base = audit_page(&ex);
        assert!(!base.passes(ElementKind::ImageAlt));
        let report = Kizuki::standard().evaluate(&ex, &base);
        // No double-penalty: score equals base (the failing audit was
        // already priced in; Kizuki has nothing informative to examine).
        assert_eq!(report.new_score, report.base_score);
    }

    #[test]
    fn empty_engine_passes_through() {
        let html = r#"<head><title>t</title></head><img src=a alt="photo of the harbour">"#;
        let ex = page(html);
        let base = audit_page(&ex);
        let report = Kizuki::empty().evaluate(&ex, &base);
        assert_eq!(report.new_score, report.base_score);
        assert!(report.checks.is_empty());
    }

    #[test]
    fn extensibility_with_link_check() {
        use crate::checks::LinkLanguageCheck;
        let html = r#"<html><head><title>Πύλη</title></head><body>
            <p>Καλώς ήρθατε στην εθνική πύλη ενημέρωσης και εξυπηρέτησης πολιτών.</p>
            <a href="/a" aria-label="read the annual financial report">έκθεση</a>
            <img src=a alt="άποψη του λιμανιού το βράδυ">
            </body></html>"#;
        let ex = page(html);
        let base = audit_page(&ex);
        let standard = Kizuki::standard().evaluate(&ex, &base);
        assert_eq!(standard.new_score, standard.base_score, "alt is consistent");
        let extended = Kizuki::standard()
            .with_check(Box::new(LinkLanguageCheck::default()))
            .evaluate(&ex, &base);
        assert!(extended.new_score < extended.base_score, "link check fires");
        assert_eq!(extended.check_count_helper(), 2);
    }

    impl KizukiReport {
        fn check_count_helper(&self) -> usize {
            self.checks.len()
        }
    }

    #[test]
    fn figure6_eligibility() {
        let pass = page(r#"<head><title>t</title></head><img src=a alt="">"#);
        let fail = page(r#"<head><title>t</title></head><img src=a>"#);
        assert!(Kizuki::figure6_eligible(&audit_page(&pass)));
        assert!(!Kizuki::figure6_eligible(&audit_page(&fail)));
    }
}
