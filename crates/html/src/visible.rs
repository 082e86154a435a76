//! Visible-text extraction.
//!
//! The paper's language measurements are over *visible textual content* —
//! what a sighted user (or a rendering engine) actually sees. This module
//! reproduces Puppeteer's effective behaviour for static HTML: walk the
//! DOM, skip subtrees that do not render (`<script>`, `<style>`,
//! `<template>`, `<noscript>`, `<head>` metadata), skip subtrees hidden via
//! the `hidden` attribute, `aria-hidden="true"`, or inline
//! `display:none` / `visibility:hidden` styles, and normalise whitespace
//! between block boundaries.

use crate::dom::{Document, NodeId, NodeKind};
use crate::tokenizer::Attribute;
use langcrux_lang::script::ScriptHistogram;

/// Elements whose entire subtree never renders as text.
pub(crate) fn is_non_rendering(name: &str) -> bool {
    matches!(
        name,
        "script" | "style" | "template" | "noscript" | "head" | "title" | "meta" | "link" | "base"
    )
}

/// Whether an element's inline `style` hides it: it contains
/// `display:none` or `visibility:hidden`, compared ASCII-case-insensitively
/// with all ASCII whitespace ignored (CSS allows any whitespace around the
/// `:`). One pass over the value, allocating nothing: the last 17
/// non-whitespace bytes, lower-cased, slide through a fixed window that
/// is checked for either needle as it ends.
fn style_hides(style: &str) -> bool {
    const DISPLAY: &[u8] = b"display:none";
    const VISIBILITY: &[u8] = b"visibility:hidden";
    // Starts zeroed; neither needle contains a NUL, so the unfilled part
    // never completes a match.
    let mut window = [0u8; VISIBILITY.len()];
    style.bytes().filter(|b| !b.is_ascii_whitespace()).any(|b| {
        window.copy_within(1.., 0);
        window[VISIBILITY.len() - 1] = b.to_ascii_lowercase();
        window.ends_with(DISPLAY) || window.ends_with(VISIBILITY)
    })
}

/// Whether an attribute list hides its element (`hidden`,
/// `aria-hidden="true"`, or a hiding inline `style`). Shared by the DOM
/// walk ([`element_hidden`]) and the streaming walk ([`crate::stream`]),
/// so the two paths cannot drift.
pub(crate) fn attrs_hide(attrs: &[Attribute]) -> bool {
    let get = |name: &str| {
        attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    };
    if get("hidden").is_some() {
        return true;
    }
    if get("aria-hidden").is_some_and(|v| v.eq_ignore_ascii_case("true")) {
        return true;
    }
    get("style").is_some_and(style_hides)
}

/// Whether this single element (not its ancestors) is hidden.
pub fn element_hidden(doc: &Document, id: NodeId) -> bool {
    attrs_hide(doc.attrs(id))
}

/// Whether a node is visible, considering its own flags and every ancestor.
pub fn is_visible(doc: &Document, id: NodeId) -> bool {
    let check = |eid: NodeId| -> bool {
        if let Some(name) = doc.tag_name(eid) {
            if is_non_rendering(name) {
                return false;
            }
        }
        !element_hidden(doc, eid)
    };
    if matches!(doc.node(id).kind, NodeKind::Element { .. }) && !check(id) {
        return false;
    }
    doc.ancestors(id)
        .all(|a| matches!(doc.node(a).kind, NodeKind::Document) || check(a))
}

/// Block-level elements that introduce text boundaries.
pub(crate) fn is_block(name: &str) -> bool {
    matches!(
        name,
        "p" | "div"
            | "section"
            | "article"
            | "header"
            | "footer"
            | "nav"
            | "aside"
            | "main"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "ul"
            | "ol"
            | "li"
            | "table"
            | "tr"
            | "td"
            | "th"
            | "form"
            | "fieldset"
            | "blockquote"
            | "figure"
            | "figcaption"
            | "br"
            | "hr"
            | "summary"
            | "details"
            | "option"
            | "select"
            | "label"
            | "button"
    )
}

/// Extract the visible text of the whole document, whitespace-normalised:
/// consecutive whitespace collapses to a single space; block boundaries
/// insert a newline.
pub fn visible_text(doc: &Document) -> String {
    visible_text_of(doc, NodeId::ROOT)
}

/// Extract the visible text of a subtree.
pub fn visible_text_of(doc: &Document, root: NodeId) -> String {
    let mut sink = Normaliser::new(());
    walk(doc, root, &mut sink);
    sink.out
}

/// Fused extraction: the visible text of the whole document *and* its
/// [`ScriptHistogram`], computed in the same single DOM walk. The histogram
/// is identical to `ScriptHistogram::of(&text)` but costs no re-scan of the
/// built string — this is the hot path of the paper's 50%-native-content
/// website-selection rule at crawl scale.
///
/// When the caller holds raw HTML rather than a parsed [`Document`], the
/// streaming equivalent [`crate::stream::stream_visible_text_histogram`]
/// produces the same pair without materialising a DOM at all.
///
/// ```
/// use langcrux_html::{parse, visible_text_histogram};
/// use langcrux_lang::script::{Script, ScriptHistogram};
///
/// let doc = parse("<body><p>নমস্কার</p><script>skip()</script><p>ok</p></body>");
/// let (text, hist) = visible_text_histogram(&doc);
/// assert_eq!(text, "নমস্কার\nok");
/// assert_eq!(hist, ScriptHistogram::of(&text));
/// assert!(hist.count(Script::Bengali) > hist.count(Script::Latin));
/// ```
pub fn visible_text_histogram(doc: &Document) -> (String, ScriptHistogram) {
    visible_text_histogram_of(doc, NodeId::ROOT)
}

/// Fused extraction of a subtree (see [`visible_text_histogram`]).
pub fn visible_text_histogram_of(doc: &Document, root: NodeId) -> (String, ScriptHistogram) {
    let mut sink = Normaliser::new(ScriptHistogram::default());
    walk(doc, root, &mut sink);
    (sink.out, sink.tally)
}

/// Observer of every character emitted into the normalised text. The unit
/// impl lets `visible_text` monomorphise to a tally-free walk.
pub(crate) trait CharTally {
    fn push(&mut self, c: char);
}

impl CharTally for () {
    #[inline]
    fn push(&mut self, _: char) {}
}

impl CharTally for ScriptHistogram {
    #[inline]
    fn push(&mut self, c: char) {
        ScriptHistogram::push(self, c);
    }
}

/// Streaming whitespace normaliser: the DOM walk — and the tokenizer-fed
/// streaming walk in [`crate::stream`] — feed text runs and block
/// boundaries directly into it, so the visible text (and, when requested,
/// its script histogram) is produced in one pass with no intermediate
/// buffer. Both extraction paths share this one struct, which is what
/// makes their outputs byte-identical by construction.
pub(crate) struct Normaliser<T> {
    pub(crate) out: String,
    pub(crate) tally: T,
    pending_newline: bool,
    pending_space: bool,
}

impl<T: CharTally> Normaliser<T> {
    pub(crate) fn new(tally: T) -> Self {
        Normaliser::with_buffer(String::new(), tally)
    }

    /// A normaliser writing into `out`, which must be empty (the
    /// streaming walk passes its recycled buffer).
    pub(crate) fn with_buffer(out: String, tally: T) -> Self {
        debug_assert!(out.is_empty());
        Normaliser {
            out,
            tally,
            pending_newline: false,
            pending_space: false,
        }
    }

    #[inline]
    fn emit(&mut self, c: char) {
        self.out.push(c);
        self.tally.push(c);
    }

    pub(crate) fn block_boundary(&mut self) {
        self.pending_newline = true;
    }

    /// Append a text run: whitespace collapses into one pending separator,
    /// and each run of other characters is tallied and copied with one
    /// `push_str`.
    pub(crate) fn push_text(&mut self, text: &str) {
        // Start of the run of non-whitespace characters being scanned.
        let mut run: Option<usize> = None;
        for (i, c) in text.char_indices() {
            // Historical sentinel: a literal U+0001 in input text acted as
            // a block boundary before the walk was fused; preserved so
            // output stays byte-identical.
            let boundary = c == '\u{1}';
            if boundary || c.is_whitespace() {
                if let Some(start) = run.take() {
                    self.out.push_str(&text[start..i]);
                }
                if boundary {
                    self.pending_newline = true;
                } else {
                    self.pending_space = true;
                }
                continue;
            }
            if run.is_none() {
                self.separate();
                run = Some(i);
            }
            self.tally.push(c);
        }
        if let Some(start) = run {
            self.out.push_str(&text[start..]);
        }
    }

    /// Emit the separator owed before a new run of characters: a newline
    /// for a pending block boundary, else a space for pending whitespace
    /// (neither at the very start of the text).
    fn separate(&mut self) {
        if self.pending_newline {
            if !self.out.is_empty() {
                self.emit('\n');
            }
            self.pending_newline = false;
            self.pending_space = false;
        } else if self.pending_space {
            if !self.out.is_empty() {
                self.emit(' ');
            }
            self.pending_space = false;
        }
    }
}

fn walk<T: CharTally>(doc: &Document, id: NodeId, sink: &mut Normaliser<T>) {
    match &doc.node(id).kind {
        NodeKind::Text(t) => sink.push_text(t),
        NodeKind::Comment(_) => {}
        NodeKind::Document => {
            for &c in &doc.node(id).children {
                walk(doc, c, sink);
            }
        }
        NodeKind::Element { name, .. } => {
            if is_non_rendering(name) || element_hidden(doc, id) {
                return;
            }
            let block = is_block(name);
            if block {
                sink.block_boundary();
            }
            for &c in &doc.node(id).children {
                walk(doc, c, sink);
            }
            if block {
                sink.block_boundary();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn basic_extraction() {
        let doc = parse("<html><body><p>Hello</p><p>World</p></body></html>");
        assert_eq!(visible_text(&doc), "Hello\nWorld");
    }

    #[test]
    fn scripts_styles_head_excluded() {
        let doc = parse(
            "<html><head><title>T</title><style>.x{}</style></head>\
             <body><script>var x=1;</script><p>only this</p></body></html>",
        );
        assert_eq!(visible_text(&doc), "only this");
    }

    #[test]
    fn hidden_attribute_hides_subtree() {
        let doc = parse("<div hidden><p>secret</p></div><p>shown</p>");
        assert_eq!(visible_text(&doc), "shown");
    }

    #[test]
    fn aria_hidden_true_hides() {
        let doc = parse(r#"<span aria-hidden="true">x</span><span aria-hidden="false">y</span>"#);
        assert_eq!(visible_text(&doc), "y");
    }

    #[test]
    fn display_none_hides() {
        let doc = parse(r#"<div style="display: none">a</div><div style="color:red">b</div>"#);
        assert_eq!(visible_text(&doc), "b");
        let doc = parse(r#"<div style="VISIBILITY:HIDDEN">a</div>ok"#);
        assert_eq!(visible_text(&doc), "ok");
    }

    #[test]
    fn hiding_styles_ignore_any_ascii_whitespace() {
        // CSS allows any whitespace around the ':'; both paths must hide.
        for html in [
            "<div style=\"display:\tnone\">a</div>b",
            "<div style=\"display:\nnone\">a</div>b",
            "<div style=\"visibility :\thidden\">a</div>b",
            "<div style=\"color:red;\r\n  DISPLAY\x0c: NONE\">a</div>b",
        ] {
            assert_eq!(visible_text(&parse(html)), "b", "{html:?}");
            assert_eq!(
                crate::stream_visible_text_histogram(html).0,
                "b",
                "{html:?}"
            );
        }
        for shown in ["display:block", "display: nine", "visibility:visible"] {
            assert!(!style_hides(shown), "{shown:?}");
        }
        assert!(style_hides("display:no ne"));
        assert!(style_hides("x\0display:none"));
        assert!(!style_hides("isplay:none"));
    }

    #[test]
    fn hiding_style_scan_is_linear_in_the_value() {
        // A style value of 1 MB of whitespace with a needle's first byte
        // in front: a scan that restarts the needle at every offset needs
        // about 10^12 steps here, a linear one about 10^6.
        let html = format!(
            "<p style=\"d{}\">a</p><p style=\"v{}display:none\">b</p>c",
            " \t\n".repeat(350_000),
            " ".repeat(1_000_000)
        );
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let dom = visible_text(&parse(&html));
            let streamed = crate::stream_visible_text_histogram(&html).0;
            let _ = done.send((dom, streamed));
        });
        let (dom, streamed) = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the style scan did not finish in 30 s");
        assert_eq!(dom, "a\nc");
        assert_eq!(streamed, "a\nc");
    }

    #[test]
    fn inline_elements_do_not_break_words() {
        let doc = parse("<p>he<b>ll</b>o</p>");
        assert_eq!(visible_text(&doc), "hello");
    }

    #[test]
    fn whitespace_collapses() {
        let doc = parse("<p>a   b\n\t c</p>");
        assert_eq!(visible_text(&doc), "a b c");
    }

    #[test]
    fn multilingual_text_preserved() {
        let doc = parse("<p>নমস্কার বিশ্ব</p><p>हिन्दी</p>");
        assert_eq!(visible_text(&doc), "নমস্কার বিশ্ব\nहिन्दी");
    }

    #[test]
    fn is_visible_checks_ancestors() {
        let doc = parse(r#"<div hidden><p id="x">a</p></div>"#);
        let p = doc.elements_named("p").next().unwrap();
        assert!(!is_visible(&doc, p));
        let doc2 = parse(r#"<div><p>a</p></div>"#);
        let p2 = doc2.elements_named("p").next().unwrap();
        assert!(is_visible(&doc2, p2));
    }

    #[test]
    fn title_not_visible_but_extractable() {
        let doc = parse("<head><title>Site Name</title></head><body>body</body>");
        assert_eq!(visible_text(&doc), "body");
        let title = doc.elements_named("title").next().unwrap();
        assert_eq!(doc.text_content(title), "Site Name");
    }

    #[test]
    fn empty_document() {
        assert_eq!(visible_text(&parse("")), "");
        assert_eq!(visible_text(&parse("<div></div>")), "");
    }

    #[test]
    fn fused_histogram_matches_rescan() {
        let pages = [
            "",
            "<p>Hello</p><p>World 123</p>",
            "<p>নমস্কার বিশ্ব</p><div hidden>secret латиница</div><p>हिन्दी ok</p>",
            "<html lang=th><body><p>สวัสดี  ชาวโลก</p><script>var x;</script></body></html>",
            "<ul><li>中文</li><li>日本語です</li><li>한국어</li></ul>",
        ];
        for html in pages {
            let doc = parse(html);
            let (text, hist) = visible_text_histogram(&doc);
            assert_eq!(text, visible_text(&doc), "{html}");
            assert_eq!(hist, ScriptHistogram::of(&text), "{html}");
        }
    }

    #[test]
    fn fused_text_identical_to_plain_walk() {
        let html = "<div>a <b>b</b>\u{1}c</div><p>  d  </p>";
        let doc = parse(html);
        let (text, _) = visible_text_histogram(&doc);
        assert_eq!(text, visible_text(&doc));
    }
}
