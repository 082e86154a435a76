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
use langcrux_lang::script::{script_of, Script, ScriptHistogram};

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
/// construction. Each visible character is decoded and classified once,
/// here: [`push_text`](Self::push_text) hands the run's script tally back
/// for the per-region histograms.
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

    /// Append a text run and return its script tally, which equals
    /// `ScriptHistogram::of(text)` (whitespace and the sentinel count as
    /// `Common`). Whitespace collapses into one pending separator, and
    /// each run of other characters is copied with one `push_str`; a run
    /// goes on through a single U+0020 between two of its characters,
    /// because that space is exactly the separator it would emit.
    pub fn push_text(&mut self, text: &str) -> ScriptHistogram {
        let mut tally = ScriptHistogram::default();
        // The run being copied: where it starts, and where its last
        // non-whitespace character ends.
        let mut run: Option<usize> = None;
        let mut end = 0;
        // Whitespace and sentinels that collapse instead of being copied.
        let mut collapsed = 0;
        for (i, c) in text.char_indices() {
            let script = script_of(c);
            // Whitespace and the sentinel are `Common`, so a character of
            // any other script needs no whitespace test.
            if script != Script::Common || !(c.is_whitespace() || c == '\u{1}') {
                if run.is_none() {
                    self.separate();
                    run = Some(i);
                }
                end = i + c.len_utf8();
                tally.push_script(script);
                continue;
            }
            tally.push_script(Script::Common);
            if let Some(start) = run {
                if c == ' ' && i == end {
                    // Held: the run keeps it if a character follows.
                    continue;
                }
                self.out.push_str(&text[start..end]);
                run = None;
                if i != end {
                    // The held space collapses after all.
                    collapsed += 1;
                    self.pending_space = true;
                }
            }
            collapsed += 1;
            // Historical sentinel: a literal U+0001 in input text acted as
            // a block boundary before the walk was fused; preserved so
            // output stays byte-identical.
            if c == '\u{1}' {
                self.pending_newline = true;
            } else {
                self.pending_space = true;
            }
        }
        if let Some(start) = run {
            self.out.push_str(&text[start..end]);
            if end != text.len() {
                collapsed += 1;
                self.pending_space = true;
            }
        }
        // The text gains the run's characters less the collapsed ones
        // (separators are counted as `separate` emits them).
        self.histogram.merge(&tally);
        self.histogram.common -= collapsed;
        self.histogram.total -= collapsed;
        tally
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

    /// Every character `char::is_whitespace` accepts: ASCII (with VT and
    /// FF), NEL, NBSP, Ogham space, U+2000–U+200A, the line and paragraph
    /// separators, narrow NBSP, medium mathematical space and the
    /// ideographic space.
    const WHITESPACE: [char; 25] = [
        '\t', '\n', '\u{b}', '\u{c}', '\r', ' ', '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}',
        '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}',
        '\u{2008}', '\u{2009}', '\u{200a}', '\u{2028}', '\u{2029}', '\u{202f}', '\u{205f}',
        '\u{3000}',
    ];

    /// What a character-at-a-time normaliser makes of `runs` fed one
    /// after another: the reference for the fused loop's text.
    fn reference_text(runs: &[String]) -> String {
        let mut out = String::new();
        let mut separator = None;
        for c in runs.concat().chars() {
            if c == '\u{1}' {
                separator = Some('\n');
            } else if c.is_whitespace() {
                separator = separator.or(Some(' '));
            } else {
                if let Some(sep) = separator.take() {
                    if !out.is_empty() {
                        out.push(sep);
                    }
                }
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn fused_loop_tallies_each_run_and_copies_it_exactly() {
        let all: Vec<char> = (0..=0x10FFFF)
            .filter_map(char::from_u32)
            .filter(|c| c.is_whitespace())
            .collect();
        assert_eq!(all, WHITESPACE, "the whitespace classes changed");
        let mut runs = Vec::new();
        for ws in WHITESPACE.into_iter().chain(['\u{1}']) {
            runs.extend([
                format!("a{ws}b"),
                format!("x{ws}{ws}y"),
                format!("{ws}lead"),
                format!("trail{ws}"),
                format!("{ws}"),
                format!("ab {ws}cd{ws} ef"),
            ]);
        }
        for run in [
            "one two  three",
            " ",
            "  ",
            "",
            " both ends ",
            "he",
            "llo world",
            "\u{20000} 中文 ไทย 한국어 বাংলা Ελληνικά עברית 123, ok!",
            "mixed中文text and\u{a0}nbsp",
        ] {
            runs.push(run.to_string());
        }
        let mut normaliser = Normaliser::default();
        for run in &runs {
            let tally = normaliser.push_text(run);
            assert_eq!(tally, ScriptHistogram::of(run), "tally of {run:?}");
        }
        let (text, hist) = normaliser.finish();
        assert_eq!(text, reference_text(&runs));
        assert_eq!(hist, ScriptHistogram::of(&text));
    }
}
