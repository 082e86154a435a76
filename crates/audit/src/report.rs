//! Page-level auditing and Lighthouse-style scoring.
//!
//! A page audit evaluates every extracted element against its kind's rule;
//! an audit (kind) passes at page level iff **no** element of that kind
//! fails — Lighthouse's binary per-audit semantics. The accessibility
//! score is the weighted share of passing audits, scaled to 0–100.
//!
//! Real Lighthouse aggregates ~40 accessibility audits; the twelve
//! language-sensitive ones studied here sit alongside audits our corpus
//! always satisfies (contrast, ARIA validity, tab order, …). Those are
//! modelled as a constant always-passing weight block
//! ([`OTHER_AUDITS_WEIGHT`]) so that absolute scores land in the range the
//! paper reports (Figure 6: 43% of sites above 90 before Kizuki).

use crate::rules::{element_passes, weight};
use langcrux_crawl::PageExtract;
use langcrux_lang::a11y::ElementKind;
use serde::{Deserialize, Serialize};

/// Combined weight of the Lighthouse accessibility audits outside the
/// twelve language-sensitive ones (always passing on the corpus).
pub const OTHER_AUDITS_WEIGHT: f64 = 30.0;

/// Result of one audit (one element kind) on one page.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditOutcome {
    pub kind: ElementKind,
    pub weight: f64,
    /// Elements of this kind on the page.
    pub total_elements: usize,
    /// Elements that fail the rule.
    pub failing_elements: usize,
    /// Binary page-level outcome: passes iff no element fails.
    pub passed: bool,
}

/// A page's full accessibility audit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditReport {
    pub audits: Vec<AuditOutcome>,
    /// Weighted Lighthouse-style score, 0–100.
    pub score: f64,
}

impl AuditReport {
    /// Outcome for one kind.
    pub fn outcome(&self, kind: ElementKind) -> &AuditOutcome {
        self.audits
            .iter()
            .find(|a| a.kind == kind)
            .expect("every kind audited")
    }

    /// Whether the page passes the audit for `kind`.
    pub fn passes(&self, kind: ElementKind) -> bool {
        self.outcome(kind).passed
    }

    /// Recompute the score with one audit's pass bit overridden — used by
    /// Kizuki to rescore after its language-aware re-evaluation.
    pub fn score_with_override(&self, kind: ElementKind, passed: bool) -> f64 {
        let mut earned = OTHER_AUDITS_WEIGHT;
        let mut total = OTHER_AUDITS_WEIGHT;
        for audit in &self.audits {
            total += audit.weight;
            let pass = if audit.kind == kind {
                passed
            } else {
                audit.passed
            };
            if pass {
                earned += audit.weight;
            }
        }
        earned / total * 100.0
    }
}

/// Audit a page.
pub fn audit_page(extract: &PageExtract) -> AuditReport {
    let mut audits = Vec::with_capacity(ElementKind::ALL.len());
    let mut earned = OTHER_AUDITS_WEIGHT;
    let mut total_weight = OTHER_AUDITS_WEIGHT;
    for kind in ElementKind::ALL {
        let mut total = 0usize;
        let mut failing = 0usize;
        for element in extract.of_kind(kind) {
            total += 1;
            if !element_passes(element) {
                failing += 1;
            }
        }
        let passed = failing == 0;
        let w = weight(kind);
        total_weight += w;
        if passed {
            earned += w;
        }
        audits.push(AuditOutcome {
            kind,
            weight: w,
            total_elements: total,
            failing_elements: failing,
            passed,
        });
    }
    AuditReport {
        audits,
        score: earned / total_weight * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_crawl::extract_streaming;

    fn audit_html(html: &str) -> AuditReport {
        audit_page(&extract_streaming(html))
    }

    #[test]
    fn perfect_page_scores_100() {
        let report = audit_html(
            r#"<html lang="ru"><head><title>Сайт</title></head><body>
               <img src="a" alt="фото дня">
               <a href="/x">читать далее</a>
               <button>поиск</button>
               </body></html>"#,
        );
        assert!(
            (report.score - 100.0).abs() < 1e-9,
            "score {}",
            report.score
        );
        for audit in &report.audits {
            assert!(audit.passed, "{:?}", audit.kind);
        }
    }

    #[test]
    fn missing_alt_fails_image_audit() {
        let report = audit_html(r#"<head><title>t</title></head><img src="a">"#);
        assert!(!report.passes(ElementKind::ImageAlt));
        assert!(report.score < 100.0);
        assert_eq!(report.outcome(ElementKind::ImageAlt).failing_elements, 1);
    }

    #[test]
    fn empty_alt_passes_image_audit() {
        let report = audit_html(r#"<head><title>t</title></head><img src="a" alt="">"#);
        assert!(report.passes(ElementKind::ImageAlt));
    }

    #[test]
    fn one_bad_element_fails_whole_audit() {
        let report = audit_html(
            r#"<head><title>t</title></head>
               <img src="a" alt="ok"><img src="b" alt="fine"><img src="c">"#,
        );
        let outcome = report.outcome(ElementKind::ImageAlt);
        assert_eq!(outcome.total_elements, 3);
        assert_eq!(outcome.failing_elements, 1);
        assert!(!outcome.passed);
    }

    #[test]
    fn score_is_weighted() {
        // Failing image-alt (10) must cost more than failing frame-title (7).
        let img_fail = audit_html(r#"<head><title>t</title></head><img src="a">"#);
        let frame_fail = audit_html(r#"<head><title>t</title></head><iframe src="/e"></iframe>"#);
        assert!(img_fail.score < frame_fail.score);
    }

    #[test]
    fn empty_page_scores_100() {
        // No title element: document-title passes by the Table 3 quirk.
        let report = audit_html("<html><body></body></html>");
        assert!((report.score - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_title_fails() {
        let report = audit_html("<head><title></title></head>");
        assert!(!report.passes(ElementKind::DocumentTitle));
    }

    #[test]
    fn score_override_recomputes() {
        let report =
            audit_html(r#"<head><title>t</title></head><img src="a" alt="english text here">"#);
        assert!(report.passes(ElementKind::ImageAlt));
        let downgraded = report.score_with_override(ElementKind::ImageAlt, false);
        assert!(downgraded < report.score);
        let unchanged = report.score_with_override(ElementKind::ImageAlt, true);
        assert!((unchanged - report.score).abs() < 1e-9);
    }

    #[test]
    fn wrong_language_alt_still_passes_base_audit() {
        // A Thai page with English alt text: base Lighthouse sees no issue.
        let report = audit_html(
            r#"<html lang="th"><head><title>ข่าว</title></head><body>
               <p>ข่าววันนี้ของประเทศไทย</p>
               <img src="a" alt="people at the market"></body></html>"#,
        );
        assert!(report.passes(ElementKind::ImageAlt));
        assert!((report.score - 100.0).abs() < 1e-9);
    }
}
