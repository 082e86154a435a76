//! What extraction yields: the [`PageExtract`] of a page and its
//! accessibility elements.
//!
//! The extraction contract behind the paper's Table 2: for each of the
//! twelve element kinds, which attribute(s) provide its *accessibility
//! text*, in priority order (see [`crate::stream`], which implements it).
//! "Missing" means no source is present at all; "Empty" means a source is
//! present but whitespace-only — the distinction Table 2 reports. For
//! buttons and links the visible inner text is captured separately
//! (screen readers fall back to it, which §3 of the paper identifies as
//! the likely cause of high missing rates).

use crate::regions::LangRegion;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::script::ScriptHistogram;
use serde::{Deserialize, Serialize};

/// Which source provided the accessibility text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TextSource {
    AriaLabel,
    Alt,
    TitleAttr,
    Value,
    AssociatedLabel,
    TitleChild,
    TextContent,
}

/// One extracted accessibility element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractedElement {
    pub kind: ElementKind,
    /// `None` = missing; `Some(s)` with whitespace-only `s` = empty.
    pub text: Option<String>,
    /// Source of `text` when present.
    pub source: Option<TextSource>,
    /// Visible inner text for elements with a fallback (buttons, links).
    pub visible_fallback: Option<String>,
}

impl ExtractedElement {
    /// Missing: no accessibility text source at all.
    pub fn is_missing(&self) -> bool {
        self.text.is_none()
    }

    /// Empty: a source exists but holds only whitespace.
    pub fn is_empty_text(&self) -> bool {
        self.text.as_deref().is_some_and(|t| t.trim().is_empty())
    }

    /// Present and non-whitespace.
    pub fn content(&self) -> Option<&str> {
        self.text
            .as_deref()
            .map(str::trim)
            .filter(|t| !t.is_empty())
    }

    /// The accessible name under ARIA fallback: present, non-blank
    /// accessibility text wins; otherwise the trimmed visible inner text
    /// (buttons, links), if that is non-blank. The audit rules and the
    /// screen-reader simulation share this one rule.
    pub fn accessible_name(&self) -> Option<&str> {
        self.content().or_else(|| {
            self.visible_fallback
                .as_deref()
                .map(str::trim)
                .filter(|t| !t.is_empty())
        })
    }
}

/// Everything the crawler extracts from one page.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PageExtract {
    /// Whitespace-normalised visible text of the page.
    pub visible_text: String,
    /// Script histogram of `visible_text`, tallied in the same pass that
    /// produced it (always equal to
    /// `ScriptHistogram::of(&visible_text)`). Selection and analysis
    /// consume this instead of re-scanning the text.
    pub visible_hist: ScriptHistogram,
    /// The `<html lang=…>` declaration, if any.
    pub declared_lang: Option<String>,
    /// All accessibility elements in document order.
    pub elements: Vec<ExtractedElement>,
    /// Per-subtree language regions of the visible text (document order),
    /// the input to translation-gap detection. See [`crate::regions`].
    pub regions: Vec<LangRegion>,
}

impl PageExtract {
    /// Elements of one kind.
    pub fn of_kind(&self, kind: ElementKind) -> impl Iterator<Item = &ExtractedElement> {
        self.elements.iter().filter(move |e| e.kind == kind)
    }

    /// All non-empty accessibility texts (the input to filtering/langid).
    pub fn texts(&self) -> impl Iterator<Item = (&ExtractedElement, &str)> {
        self.elements
            .iter()
            .filter_map(|e| e.content().map(|t| (e, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::extract_streaming;

    #[test]
    fn image_alt_states() {
        let ex = extract_streaming(r#"<img src=a><img src=b alt=""><img src=c alt="a cat">"#);
        let imgs: Vec<_> = ex.of_kind(ElementKind::ImageAlt).collect();
        assert_eq!(imgs.len(), 3);
        assert!(imgs[0].is_missing());
        assert!(imgs[1].is_empty_text() && !imgs[1].is_missing());
        assert_eq!(imgs[2].content(), Some("a cat"));
        assert_eq!(imgs[2].source, Some(TextSource::Alt));
    }

    #[test]
    fn button_uses_aria_label_with_fallback() {
        let ex =
            extract_streaming(r#"<button aria-label="закрыть">X</button><button>Open</button>"#);
        let buttons: Vec<_> = ex.of_kind(ElementKind::ButtonName).collect();
        assert_eq!(buttons[0].content(), Some("закрыть"));
        assert_eq!(buttons[0].visible_fallback.as_deref(), Some("X"));
        assert!(buttons[1].is_missing());
        assert_eq!(buttons[1].visible_fallback.as_deref(), Some("Open"));
    }

    #[test]
    fn link_requires_href() {
        let ex = extract_streaming(r#"<a href="/x">go</a><a name="anchor">not a link</a>"#);
        assert_eq!(ex.of_kind(ElementKind::LinkName).count(), 1);
    }

    #[test]
    fn document_title_extraction() {
        let ex = extract_streaming("<head><title>Новости дня</title></head>");
        let t: Vec<_> = ex.of_kind(ElementKind::DocumentTitle).collect();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].content(), Some("Новости дня"));

        let ex = extract_streaming("<head></head><body></body>");
        assert!(ex
            .of_kind(ElementKind::DocumentTitle)
            .next()
            .unwrap()
            .is_missing());
    }

    #[test]
    fn svg_title_child_not_document_title() {
        let ex = extract_streaming(
            r#"<head><title>Page</title></head>
               <svg role="img"><title>home icon</title></svg>
               <svg><circle/></svg>"#,
        );
        assert_eq!(
            ex.of_kind(ElementKind::DocumentTitle)
                .next()
                .unwrap()
                .content(),
            Some("Page")
        );
        let svgs: Vec<_> = ex.of_kind(ElementKind::SvgImgAlt).collect();
        // Only the role="img" svg counts.
        assert_eq!(svgs.len(), 1);
        assert_eq!(svgs[0].content(), Some("home icon"));
        assert_eq!(svgs[0].source, Some(TextSource::TitleChild));
    }

    #[test]
    fn label_association() {
        let ex = extract_streaming(
            r#"<label for="name">Ваше имя</label><input type="text" id="name">
               <input type="text" id="unlabelled">
               <input type="text" aria-label="phone">"#,
        );
        let labels: Vec<_> = ex.of_kind(ElementKind::Label).collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[0].content(), Some("Ваше имя"));
        assert_eq!(labels[0].source, Some(TextSource::AssociatedLabel));
        assert!(labels[1].is_missing());
        assert_eq!(labels[2].content(), Some("phone"));
    }

    #[test]
    fn input_kinds_split_by_type() {
        let ex = extract_streaming(
            r#"<input type="image" src="b.png" alt="buy">
               <input type="submit" value="전송">
               <input type="hidden" value="x">
               <input>"#,
        );
        assert_eq!(ex.of_kind(ElementKind::InputImageAlt).count(), 1);
        assert_eq!(
            ex.of_kind(ElementKind::InputButtonName)
                .next()
                .unwrap()
                .content(),
            Some("전송")
        );
        // hidden input is skipped; bare input is a Label slot.
        assert_eq!(ex.of_kind(ElementKind::Label).count(), 1);
    }

    #[test]
    fn summary_and_object_fallback_text() {
        let ex = extract_streaming(
            r#"<details><summary>รายละเอียด</summary></details>
               <details><summary></summary></details>
               <object data="f.pdf">annual report</object>"#,
        );
        let summaries: Vec<_> = ex.of_kind(ElementKind::SummaryName).collect();
        assert_eq!(summaries[0].content(), Some("รายละเอียด"));
        assert!(summaries[1].is_missing());
        assert_eq!(
            ex.of_kind(ElementKind::ObjectAlt).next().unwrap().content(),
            Some("annual report")
        );
    }

    #[test]
    fn declared_lang_and_visible_text() {
        let ex = extract_streaming(r#"<html lang="th"><body><p>สวัสดี</p></body></html>"#);
        assert_eq!(ex.declared_lang.as_deref(), Some("th"));
        assert_eq!(ex.visible_text, "สวัสดี");
    }

    #[test]
    fn carried_histogram_matches_visible_text() {
        let ex = extract_streaming(
            r#"<html lang="bn"><body><p>বাংলা সংবাদ and english</p>
               <div hidden>hidden русский</div><p>১২৩ 456</p></body></html>"#,
        );
        assert_eq!(ex.visible_hist, ScriptHistogram::of(&ex.visible_text));
        assert!(ex.visible_hist.total > 0);
    }

    #[test]
    fn accessible_name_prefers_content_then_trimmed_fallback() {
        let el = |text: Option<&str>, fallback: Option<&str>| ExtractedElement {
            kind: ElementKind::ButtonName,
            text: text.map(str::to_string),
            source: text.map(|_| TextSource::AriaLabel),
            visible_fallback: fallback.map(str::to_string),
        };
        // Present content wins, trimmed, over any fallback.
        assert_eq!(
            el(Some(" close "), Some("X")).accessible_name(),
            Some("close")
        );
        // Blank or missing content falls back to the trimmed inner text.
        assert_eq!(
            el(Some("  "), Some("  Open  ")).accessible_name(),
            Some("Open")
        );
        assert_eq!(el(None, Some("Open")).accessible_name(), Some("Open"));
        // Both blank (or absent): no name.
        assert_eq!(el(Some(" "), Some("\t\n")).accessible_name(), None);
        assert_eq!(el(None, None).accessible_name(), None);
    }

    #[test]
    fn texts_iterator_skips_missing_and_empty() {
        let ex = extract_streaming(r#"<img alt="one"><img><img alt="">"#);
        let texts: Vec<&str> = ex.texts().map(|(_, t)| t).collect();
        assert_eq!(texts, vec!["one"]);
    }
}
