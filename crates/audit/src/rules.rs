//! Audit rule semantics.
//!
//! Each of the twelve language-sensitive audits reproduces the *observed*
//! Lighthouse behaviour that the paper measured with isolated test pages
//! (Appendix D, Table 3) — including the quirks:
//!
//! | rule              | missing | empty | wrong language |
//! |-------------------|---------|-------|----------------|
//! | button-name       |  fail   | pass  | pass |
//! | document-title    |  pass   | fail  | pass |
//! | frame-title       |  fail   | fail  | pass |
//! | image-alt         |  fail   | pass  | pass |
//! | input-button-name |  pass   | fail  | pass |
//! | input-image-alt   |  fail   | fail  | pass |
//! | label             |  pass   | pass  | pass |
//! | link-name         |  fail   | fail  | pass |
//! | object-alt        |  fail   | fail  | pass |
//! | select-name       |  fail   | fail  | pass |
//! | summary-name      |  pass   | pass  | pass |
//! | svg-img-alt       |  pass   | pass  | pass |
//!
//! Notable quirks, with their real-world rationale:
//! * `image-alt` **passes** on `alt=""` — the empty alt marks decorative
//!   images, which the paper notes "does not convey meaningful information
//!   to users" yet satisfies the audit.
//! * `document-title` passes when the element is absent but fails when
//!   present-and-empty.
//! * `input-button-name` passes when `value` is absent (the browser
//!   renders a default "Submit" label) but fails on `value=""`.
//! * `label`, `summary-name` and `svg-img-alt` never fail (lenient
//!   checks).
//! * **Every rule passes wrong-language text** — the gap Kizuki closes.
//!
//! For elements with ARIA fallback semantics (buttons, links, objects,
//! summaries) the accessible name falls back to the visible inner text, so
//! corpus pages with labelled-by-text buttons pass — the fallback behaviour
//! §3 of the paper blames for developers' low use of explicit metadata.

use langcrux_crawl::ExtractedElement;
use langcrux_lang::a11y::ElementKind;

/// Audit weight, following the Axe-core impact classes that Lighthouse
/// aggregates (critical = 10, serious = 7, moderate = 3).
pub fn weight(kind: ElementKind) -> f64 {
    match kind {
        ElementKind::ImageAlt
        | ElementKind::ButtonName
        | ElementKind::Label
        | ElementKind::InputImageAlt
        | ElementKind::InputButtonName => 10.0,
        ElementKind::LinkName
        | ElementKind::FrameTitle
        | ElementKind::DocumentTitle
        | ElementKind::SelectName
        | ElementKind::ObjectAlt => 7.0,
        ElementKind::SummaryName | ElementKind::SvgImgAlt => 3.0,
    }
}

/// Evaluate one element against its kind's rule. `true` = passes.
pub fn element_passes(element: &ExtractedElement) -> bool {
    match element.kind {
        // Fails only when there is no name from any source (attribute or
        // visible text). Empty aria-label alone does not fail a button
        // that has no other name in Lighthouse's observed behaviour.
        ElementKind::ButtonName => element.accessible_name().is_some() || element.is_empty_text(),
        // Passes when absent; fails when present but empty.
        ElementKind::DocumentTitle => element.is_missing() || element.content().is_some(),
        // Fails when missing or empty.
        ElementKind::FrameTitle | ElementKind::InputImageAlt | ElementKind::SelectName => {
            element.content().is_some()
        }
        // alt="" passes (decorative); missing alt fails.
        ElementKind::ImageAlt => !element.is_missing(),
        // Missing `value` renders a browser default; empty fails.
        ElementKind::InputButtonName => element.is_missing() || element.content().is_some(),
        // Lenient rules: never fail.
        ElementKind::Label | ElementKind::SummaryName | ElementKind::SvgImgAlt => true,
        // Fail when no accessible name resolves (attribute or inner text).
        ElementKind::LinkName | ElementKind::ObjectAlt => element.accessible_name().is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_crawl::TextSource;

    fn el(kind: ElementKind, text: Option<&str>, fallback: Option<&str>) -> ExtractedElement {
        ExtractedElement {
            kind,
            text: text.map(str::to_string),
            source: text.map(|_| TextSource::AriaLabel),
            visible_fallback: fallback.map(str::to_string),
        }
    }

    #[test]
    fn table3_matrix_is_reproduced() {
        // (kind, pass_when_missing, pass_when_empty, pass_wrong_language)
        let expected = [
            (ElementKind::ButtonName, false, true, true),
            (ElementKind::DocumentTitle, true, false, true),
            (ElementKind::FrameTitle, false, false, true),
            (ElementKind::ImageAlt, false, true, true),
            (ElementKind::InputButtonName, true, false, true),
            (ElementKind::InputImageAlt, false, false, true),
            (ElementKind::Label, true, true, true),
            (ElementKind::LinkName, false, false, true),
            (ElementKind::ObjectAlt, false, false, true),
            (ElementKind::SelectName, false, false, true),
            (ElementKind::SummaryName, true, true, true),
            (ElementKind::SvgImgAlt, true, true, true),
        ];
        for (kind, pass_missing, pass_empty, pass_wrong) in expected {
            // Isolated element: no visible fallback, like the paper's
            // single-element test pages.
            assert_eq!(
                element_passes(&el(kind, None, None)),
                pass_missing,
                "{kind:?} missing"
            );
            assert_eq!(
                element_passes(&el(kind, Some(""), None)),
                pass_empty,
                "{kind:?} empty"
            );
            // "Incorrect language": English text on a (conceptually)
            // non-English page — base Lighthouse must pass it.
            assert_eq!(
                element_passes(&el(kind, Some("a picture of a cat"), None)),
                pass_wrong,
                "{kind:?} wrong language"
            );
        }
    }

    #[test]
    fn fallback_rescues_buttons_and_links() {
        assert!(element_passes(&el(
            ElementKind::ButtonName,
            None,
            Some("Login")
        )));
        assert!(element_passes(&el(
            ElementKind::LinkName,
            None,
            Some("читать")
        )));
        assert!(!element_passes(&el(
            ElementKind::LinkName,
            None,
            Some("   ")
        )));
        assert!(element_passes(&el(
            ElementKind::LinkName,
            Some(""),
            Some("visible text")
        )));
    }

    #[test]
    fn weights_follow_impact_classes() {
        assert_eq!(weight(ElementKind::ImageAlt), 10.0);
        assert_eq!(weight(ElementKind::LinkName), 7.0);
        assert_eq!(weight(ElementKind::SvgImgAlt), 3.0);
        let total: f64 = ElementKind::ALL.iter().map(|&k| weight(k)).sum();
        assert_eq!(total, 91.0);
    }
}
