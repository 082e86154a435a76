//! The Appendix D experiment: isolated single-element test pages.
//!
//! The paper probes Lighthouse by creating "isolated test pages, each
//! containing only a single target element", in three conditions: element
//! missing, present-but-empty, and present-with-wrong-language text.
//! [`lighthouse_matrix`] runs the same experiment against our audit engine
//! end-to-end (HTML → streaming extract → audit), regenerating Table 3 on
//! the extractor every other artefact comes from.

use crate::report::audit_page;
use langcrux_crawl::extract_streaming;
use langcrux_lang::a11y::ElementKind;
use serde::{Deserialize, Serialize};

/// One Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixRow {
    pub kind: ElementKind,
    pub pass_missing: bool,
    pub pass_empty: bool,
    pub pass_wrong_language: bool,
}

/// The three probe conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    Missing,
    Empty,
    WrongLanguage,
}

/// Build the isolated probe page for a kind/condition. The "wrong
/// language" condition plants English text (the page is conceptually
/// non-English, but base Lighthouse never inspects language).
pub fn probe_page(kind: ElementKind, condition: Condition) -> String {
    use Condition as C;
    use ElementKind as K;
    let value = |present: &str| match condition {
        C::Missing => String::new(),
        C::Empty => format!(r#" {present}="""#),
        C::WrongLanguage => format!(r#" {present}="english description text""#),
    };
    let body = match kind {
        K::ButtonName => format!("<button{}></button>", value("aria-label")),
        K::DocumentTitle => match condition {
            C::Missing => String::new(),
            C::Empty => "<title></title>".to_string(),
            C::WrongLanguage => "<title>english title</title>".to_string(),
        },
        K::ImageAlt => format!(r#"<img src="/x.png"{}>"#, value("alt")),
        K::FrameTitle => format!(r#"<iframe src="/e"{}></iframe>"#, value("title")),
        K::SummaryName => match condition {
            C::Missing => "<details><summary></summary></details>".to_string(),
            C::Empty => r#"<details><summary aria-label=""></summary></details>"#.to_string(),
            C::WrongLanguage => "<details><summary>english summary</summary></details>".to_string(),
        },
        K::Label => format!(r#"<input type="text"{}>"#, value("aria-label")),
        K::InputImageAlt => format!(r#"<input type="image" src="/b.png"{}>"#, value("alt")),
        K::SelectName => format!("<select{}><option>1</option></select>", value("aria-label")),
        K::LinkName => format!(r#"<a href="/x"{}></a>"#, value("aria-label")),
        K::InputButtonName => format!(r#"<input type="submit"{}>"#, value("value")),
        K::SvgImgAlt => match condition {
            C::Missing => r#"<svg role="img"><path d="M0 0"/></svg>"#.to_string(),
            C::Empty => r#"<svg role="img" aria-label=""><path d="M0 0"/></svg>"#.to_string(),
            C::WrongLanguage => {
                r#"<svg role="img"><title>english icon name</title><path d="M0 0"/></svg>"#
                    .to_string()
            }
        },
        K::ObjectAlt => format!(r#"<object data="/f.pdf"{}></object>"#, value("aria-label")),
    };
    // document-title probes must not inject a second <title>.
    if kind == K::DocumentTitle {
        format!("<html><head>{body}</head><body></body></html>")
    } else {
        format!("<html><head><title>probe</title></head><body>{body}</body></html>")
    }
}

/// Run the full Table 3 experiment.
pub fn lighthouse_matrix() -> Vec<MatrixRow> {
    ElementKind::ALL
        .iter()
        .map(|&kind| {
            let run = |condition| {
                let html = probe_page(kind, condition);
                let report = audit_page(&extract_streaming(&html));
                report.passes(kind)
            };
            MatrixRow {
                kind,
                pass_missing: run(Condition::Missing),
                pass_empty: run(Condition::Empty),
                pass_wrong_language: run(Condition::WrongLanguage),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper_table3() {
        // (audit id, missing, empty, wrong-language) from Table 3.
        let expected = [
            ("button-name", false, true, true),
            ("document-title", true, false, true),
            ("frame-title", false, false, true),
            ("image-alt", false, true, true),
            ("input-button-name", true, false, true),
            ("input-image-alt", false, false, true),
            ("label", true, true, true),
            ("link-name", false, false, true),
            ("object-alt", false, false, true),
            ("select-name", false, false, true),
            ("summary-name", true, true, true),
            ("svg-img-alt", true, true, true),
        ];
        let matrix = lighthouse_matrix();
        for (id, missing, empty, wrong) in expected {
            let row = matrix
                .iter()
                .find(|r| r.kind.audit_id() == id)
                .unwrap_or_else(|| panic!("{id} missing from matrix"));
            assert_eq!(row.pass_missing, missing, "{id} missing");
            assert_eq!(row.pass_empty, empty, "{id} empty");
            assert_eq!(row.pass_wrong_language, wrong, "{id} wrong language");
        }
    }

    #[test]
    fn every_wrong_language_probe_passes() {
        // The motivating observation for Kizuki: language never fails the
        // base audits.
        for row in lighthouse_matrix() {
            assert!(row.pass_wrong_language, "{:?}", row.kind);
        }
    }
}
