//! Visible-text rules.
//!
//! The paper's language measurements are over *visible textual content* —
//! what a sighted user (or a rendering engine) actually sees. This module
//! holds the rules that reproduce Puppeteer's effective behaviour for
//! static HTML: subtrees that do not render (`<script>`, `<style>`,
//! `<template>`, `<noscript>`, `<head>` metadata) and subtrees hidden via
//! the `hidden` attribute, `aria-hidden="true"`, or inline
//! `display:none` / `visibility:hidden` styles are skipped, and
//! whitespace is normalised between block boundaries. The streaming walk
//! ([`crate::stream`]) applies them to tokenizer events; the DOM walk
//! that the tests compare it with (the `langcrux-oracle` crate) applies
//! the same functions to a tree, so the two cannot drift.

use crate::tokenizer::Attribute;
use langcrux_lang::script::ScriptHistogram;

/// Elements whose entire subtree never renders as text.
pub fn is_non_rendering(name: &str) -> bool {
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
/// `aria-hidden="true"`, or a hiding inline `style`).
pub fn attrs_hide(attrs: &[Attribute]) -> bool {
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

/// Block-level elements that introduce text boundaries.
pub fn is_block(name: &str) -> bool {
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

/// Streaming whitespace normaliser: the tokenizer-fed walk in
/// [`crate::stream`] — and the DOM walk of the `langcrux-oracle` crate,
/// which the tests compare it with — feed text runs and block boundaries
/// directly into it, so the visible text and its script histogram are
/// produced in one pass with no intermediate buffer. Both walks share this
/// one struct, which is what makes their outputs byte-identical by
/// construction.
#[derive(Default)]
pub struct Normaliser {
    out: String,
    histogram: ScriptHistogram,
    pending_newline: bool,
    pending_space: bool,
}

impl Normaliser {
    /// A normaliser writing into `out`, which must be empty (the
    /// streaming walk passes its recycled buffer).
    pub(crate) fn with_buffer(out: String) -> Self {
        debug_assert!(out.is_empty());
        Normaliser {
            out,
            ..Normaliser::default()
        }
    }

    /// The normalised text and the script histogram of its characters.
    pub fn finish(self) -> (String, ScriptHistogram) {
        (self.out, self.histogram)
    }

    #[inline]
    fn emit(&mut self, c: char) {
        self.out.push(c);
        self.histogram.push(c);
    }

    pub fn block_boundary(&mut self) {
        self.pending_newline = true;
    }

    /// Append a text run: whitespace collapses into one pending separator,
    /// and each run of other characters is tallied and copied with one
    /// `push_str`.
    pub fn push_text(&mut self, text: &str) {
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
            self.histogram.push(c);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream_visible_text_histogram;

    /// The visible text of `html` on the production (streaming) path.
    fn visible_text(html: &str) -> String {
        stream_visible_text_histogram(html).0
    }

    #[test]
    fn basic_extraction() {
        assert_eq!(
            visible_text("<html><body><p>Hello</p><p>World</p></body></html>"),
            "Hello\nWorld"
        );
    }

    #[test]
    fn scripts_styles_head_excluded() {
        let html = "<html><head><title>T</title><style>.x{}</style></head>\
             <body><script>var x=1;</script><p>only this</p></body></html>";
        assert_eq!(visible_text(html), "only this");
    }

    #[test]
    fn hidden_attribute_hides_subtree() {
        assert_eq!(
            visible_text("<div hidden><p>secret</p></div><p>shown</p>"),
            "shown"
        );
    }

    #[test]
    fn aria_hidden_true_hides() {
        let html = r#"<span aria-hidden="true">x</span><span aria-hidden="false">y</span>"#;
        assert_eq!(visible_text(html), "y");
    }

    #[test]
    fn display_none_hides() {
        let html = r#"<div style="display: none">a</div><div style="color:red">b</div>"#;
        assert_eq!(visible_text(html), "b");
        assert_eq!(
            visible_text(r#"<div style="VISIBILITY:HIDDEN">a</div>ok"#),
            "ok"
        );
    }

    #[test]
    fn hiding_styles_ignore_any_ascii_whitespace() {
        // CSS allows any whitespace around the ':'.
        for html in [
            "<div style=\"display:\tnone\">a</div>b",
            "<div style=\"display:\nnone\">a</div>b",
            "<div style=\"visibility :\thidden\">a</div>b",
            "<div style=\"color:red;\r\n  DISPLAY\x0c: NONE\">a</div>b",
        ] {
            assert_eq!(visible_text(html), "b", "{html:?}");
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
            let _ = done.send(visible_text(&html));
        });
        let streamed = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the style scan did not finish in 30 s");
        assert_eq!(streamed, "a\nc");
    }

    #[test]
    fn inline_elements_do_not_break_words() {
        assert_eq!(visible_text("<p>he<b>ll</b>o</p>"), "hello");
    }

    #[test]
    fn whitespace_collapses() {
        assert_eq!(visible_text("<p>a   b\n\t c</p>"), "a b c");
    }

    #[test]
    fn multilingual_text_preserved() {
        assert_eq!(
            visible_text("<p>নমস্কার বিশ্ব</p><p>हिन्दी</p>"),
            "নমস্কার বিশ্ব\nहिन्दी"
        );
    }

    #[test]
    fn title_not_visible_but_extractable() {
        let html = "<head><title>Site Name</title></head><body>body</body>";
        assert_eq!(visible_text(html), "body");
    }

    #[test]
    fn empty_document() {
        assert_eq!(visible_text(""), "");
        assert_eq!(visible_text("<div></div>"), "");
    }
}
