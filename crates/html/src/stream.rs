//! Streaming tokenize→extract: visible text and script histogram straight
//! from tokenizer events, with **no DOM allocation**.
//!
//! The crawl path never needs a tree — selection and Kizuki consume the
//! fused visible-text histogram, and the accessibility elements are
//! derivable from tag events alone. This module applies the tree
//! builder's and the visible-text walk's rules to the token stream
//! directly, with no materialised document:
//!
//! * the **open-element stack** is emulated with a flat name arena (void
//!   elements, implicit `<li>`/`<p>` closes, browser-style recovery for
//!   mismatched end tags — [`is_void_element`] and [`closes_same`] are the
//!   rules a tree builder would apply, so text parentage matches the
//!   tree's);
//! * a **skip-stack** depth counter tracks `script`/`style`/`head`/hidden
//!   subtrees, replacing a tree walk's per-subtree early return;
//! * inter-block whitespace flows through the shared
//!   [`Normaliser`]/[`ScriptHistogram`] sink, which decodes and classifies
//!   each visible character once and hands the sink every visible text
//!   event's script tally.
//!
//! The tree-building parser and DOM walk that define the expected output
//! live in the dev-only `langcrux-oracle` crate, which builds them from
//! these same rule functions; its tests pin the two byte- and
//! histogram-identical on hand-picked, property-generated and corpus
//! pages.
//!
//! [`stream_visible_text_histogram`] gives a page's visible text and
//! histogram; richer consumers (the crawler's full `PageExtract` builder
//! in `langcrux-crawl`) implement [`StreamSink`] to observe element
//! starts/ends and text runs from the same single pass.
//!
//! The walk's working buffers — the open-element stack, its name arena,
//! the entity-decode buffer and the visible-text buffer — are per-thread
//! scratch ([`crate::scratch`]), kept between pages together with the
//! lexer's: on a warm thread a page costs one allocation here, the
//! exact-size copy of its visible text. A nested call on the same thread
//! works in fresh buffers, a call that panics drops its buffers, and
//! between pages each buffer, and the lexer's pool of spare attribute
//! strings as a whole, keeps at most [`CAP_BYTES`] (64 KiB).
//!
//! [`CAP_BYTES`]: crate::scratch::CAP_BYTES
//! [`Normaliser`]: crate::visible::Normaliser

use crate::entities::decode_into;
use crate::scratch::ScratchBuffer;
use crate::tokenizer::{tokenize_into, Attribute, TokenSink};
use crate::visible::{attrs_hide, is_block, is_non_rendering, Normaliser};
use langcrux_lang::script::ScriptHistogram;
use std::cell::Cell;

/// Elements that never have children.
pub fn is_void_element(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Elements that implicitly close an open element of the same name
/// (`<li>`, `<p>`, table rows/cells, options) when it is the innermost
/// one.
pub fn closes_same(name: &str) -> bool {
    matches!(
        name,
        "li" | "p" | "tr" | "td" | "th" | "option" | "dt" | "dd"
    )
}

/// Observer of tree-level events during a streaming extraction pass.
///
/// Events mirror the final tree a tree builder following the same rules
/// would build:
/// `element_start`/`element_end` arrive balanced and properly nested (void
/// and self-closing elements produce an immediate end; elements left open
/// at EOF are closed then), and `text` fires for every text node in
/// document order with its entity-decoded content and whether it is
/// visible (no `script`/`style`/`head`/hidden ancestor).
///
/// All methods default to no-ops; `()` is the unit sink behind
/// [`stream_visible_text_histogram`].
pub trait StreamSink {
    /// An element opened. `attrs` is deduplicated with decoded values;
    /// `visible` is false when the element itself or any open ancestor is
    /// non-rendering or hidden.
    fn element_start(&mut self, _name: &str, _attrs: &[Attribute], _visible: bool) {}
    /// The matching close of the innermost open element (fires for void
    /// and self-closing elements immediately after their start).
    fn element_end(&mut self, _name: &str) {}
    /// A text node's decoded content. `tally` is its script histogram,
    /// equal to `ScriptHistogram::of(text)`, when the text is visible, and
    /// `None` inside skipped subtrees (the text still reaches the sink:
    /// accessibility text like `<title>` or labels in hidden subtrees is
    /// extracted regardless). The streaming walk passes the tally its
    /// normaliser counted, so a sink needs no second pass over the text.
    fn text(&mut self, _text: &str, _tally: Option<&ScriptHistogram>) {}
}

impl StreamSink for () {}

/// Visible text and script histogram of an HTML document, computed
/// directly from tokenizer events — no token buffer, no DOM. The
/// histogram counts exactly the characters of the text:
///
/// ```
/// use langcrux_html::stream_visible_text_histogram;
/// use langcrux_lang::script::{Script, ScriptHistogram};
///
/// let html = "<body><p>নমস্কার</p><div hidden>skip</div><p>ok &amp; on</p></body>";
/// let (text, hist) = stream_visible_text_histogram(html);
/// assert_eq!(text, "নমস্কার\nok & on");
/// assert_eq!(hist, ScriptHistogram::of(&text));
/// assert!(hist.count(Script::Bengali) > hist.count(Script::Latin));
/// ```
pub fn stream_visible_text_histogram(html: &str) -> (String, ScriptHistogram) {
    let (text, hist, ()) = stream_extract(html, ());
    (text, hist)
}

/// Run a full streaming extraction pass: tokenizer events are folded
/// through the emulated open-element stack, visible text is normalised
/// into the returned `(text, histogram)`, and every tree-level event is
/// forwarded to `sink`. Returns the sink for state recovery.
///
/// The walk runs in this thread's scratch buffers (see the module docs);
/// the returned text is an exact-size copy.
pub fn stream_extract<S: StreamSink>(html: &str, sink: S) -> (String, ScriptHistogram, S) {
    let WalkScratch {
        stack,
        names,
        text_buf,
        out,
    } = SCRATCH.take().unwrap_or_default();
    let mut walk = StreamWalk {
        stack,
        names,
        skip_depth: 0,
        normaliser: Normaliser::with_buffer(out),
        text_buf,
        sink,
    };
    tokenize_into(html, &mut walk);
    // Elements still open at EOF: a tree builder leaves them on the
    // stack and a tree walk unwinds through them; close them so sinks
    // see balanced events.
    while !walk.stack.is_empty() {
        walk.pop_one();
    }
    let StreamWalk {
        stack,
        names,
        normaliser,
        text_buf,
        sink,
        ..
    } = walk;
    let (out, hist) = normaliser.finish();
    let text = out.as_str().to_owned();
    let mut scratch = WalkScratch {
        stack,
        names,
        text_buf,
        out,
    };
    scratch.recycle();
    SCRATCH.set(Some(scratch));
    (text, hist, sink)
}

thread_local! {
    /// This thread's walk buffers between pages; see [`crate::scratch`].
    static SCRATCH: Cell<Option<WalkScratch>> = const { Cell::new(None) };
}

/// The streaming walk's reusable buffers (the fields of [`StreamWalk`]
/// that outlive a page).
#[derive(Default)]
struct WalkScratch {
    stack: Vec<OpenElement>,
    names: String,
    text_buf: String,
    /// The visible text under construction.
    out: String,
}

impl WalkScratch {
    /// Empty the buffers for the next page, dropping any above the
    /// scratch cap.
    fn recycle(&mut self) {
        self.stack.clear_capped();
        self.names.clear_capped();
        self.text_buf.clear_capped();
        self.out.clear_capped();
    }
}

/// The heap bytes of each buffer this thread's walk and lexer scratch
/// keep between pages, a pool counting as one.
#[cfg(test)]
pub(crate) fn scratch_allocations() -> Vec<usize> {
    let scratch = SCRATCH.take();
    let walk = scratch.as_ref().map_or([0; 4], |s| {
        [
            s.stack.allocated(),
            s.names.allocated(),
            s.text_buf.allocated(),
            s.out.allocated(),
        ]
    });
    SCRATCH.set(scratch);
    walk.into_iter()
        .chain(crate::tokenizer::scratch_allocations())
        .collect()
}

/// One emulated open element. The name lives in the shared arena
/// (`StreamWalk::names`) so pushing an element allocates nothing after
/// warm-up.
struct OpenElement {
    /// Byte offset of this element's name in the arena.
    name_start: usize,
    /// Whether this element itself is non-rendering or hidden (it
    /// contributes one level to the skip-stack depth).
    skipped: bool,
    /// Whether open/close emit a block boundary (block element in a
    /// visible context at open time).
    emits_boundary: bool,
}

/// The streaming walk: a [`TokenSink`] that replays the tree builder's
/// stack discipline and the visible-text walk's skip rules over the token
/// stream.
struct StreamWalk<S> {
    stack: Vec<OpenElement>,
    /// Name arena: concatenated names of the open elements, truncated on
    /// pop. `stack[i]`'s name spans `names[stack[i].name_start ..
    /// stack[i+1].name_start]` (or to the end for the top).
    names: String,
    /// Number of open elements that are non-rendering or hidden; text is
    /// visible iff zero.
    skip_depth: usize,
    normaliser: Normaliser,
    /// Scratch buffer for entity decoding, reused across text runs.
    text_buf: String,
    sink: S,
}

impl<S: StreamSink> StreamWalk<S> {
    fn name_of(&self, idx: usize) -> &str {
        let start = self.stack[idx].name_start;
        let end = self
            .stack
            .get(idx + 1)
            .map_or(self.names.len(), |e| e.name_start);
        &self.names[start..end]
    }

    fn top_name(&self) -> Option<&str> {
        (!self.stack.is_empty()).then(|| self.name_of(self.stack.len() - 1))
    }

    /// Pop the innermost open element, emitting its closing boundary and
    /// sink event — the streaming equivalent of the DOM walk returning
    /// from a subtree.
    fn pop_one(&mut self) {
        let entry = self.stack.pop().expect("pop on empty stack");
        if entry.skipped {
            self.skip_depth -= 1;
        }
        if entry.emits_boundary {
            self.normaliser.block_boundary();
        }
        let name = &self.names[entry.name_start..];
        self.sink.element_end(name);
        self.names.truncate(entry.name_start);
    }
}

impl<S: StreamSink> TokenSink for StreamWalk<S> {
    fn start_tag(&mut self, name: &str, attrs: &mut Vec<Attribute>, self_closing: bool) {
        // Implicit close: "<li>a<li>b" closes the first li — but only when
        // the match is the innermost open element (the tree builder's
        // `pos == stack.len() - 1` rule: don't close a <p> through a
        // nested <div>).
        if closes_same(name) && self.top_name() == Some(name) {
            self.pop_one();
        }
        let skipped = is_non_rendering(name) || attrs_hide(attrs);
        let visible = self.skip_depth == 0 && !skipped;
        let emits_boundary = visible && is_block(name);
        if emits_boundary {
            self.normaliser.block_boundary();
        }
        self.sink.element_start(name, attrs, visible);
        if self_closing || is_void_element(name) {
            // No children: the DOM walk opens and immediately closes this
            // subtree.
            if emits_boundary {
                self.normaliser.block_boundary();
            }
            self.sink.element_end(name);
        } else {
            let name_start = self.names.len();
            self.names.push_str(name);
            self.stack.push(OpenElement {
                name_start,
                skipped,
                emits_boundary,
            });
            if skipped {
                self.skip_depth += 1;
            }
        }
    }

    fn end_tag(&mut self, name: &str) {
        // Pop to the nearest matching open element; unmatched end tags are
        // dropped (browser behaviour, mirroring the tree builder).
        if let Some(pos) = (0..self.stack.len()).rposition(|i| self.name_of(i) == name) {
            while self.stack.len() > pos {
                self.pop_one();
            }
        }
    }

    fn text(&mut self, raw: &str, decode_entities: bool) {
        let decoded: &str = if decode_entities && raw.contains('&') {
            self.text_buf.clear();
            decode_into(raw, &mut self.text_buf);
            &self.text_buf
        } else {
            // No entities (or a raw-text body): the decoded text is the
            // input slice, unchanged.
            raw
        };
        if self.skip_depth == 0 {
            let tally = self.normaliser.push_text(decoded);
            self.sink.text(decoded, Some(&tally));
        } else {
            self.sink.text(decoded, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_sees_balanced_tree_events() {
        #[derive(Default)]
        struct Trace {
            events: Vec<String>,
            depth: isize,
            min_depth: isize,
        }
        impl StreamSink for Trace {
            fn element_start(&mut self, name: &str, attrs: &[Attribute], visible: bool) {
                self.depth += 1;
                self.events
                    .push(format!("+{name}/{}/{visible}", attrs.len()));
            }
            fn element_end(&mut self, name: &str) {
                self.depth -= 1;
                self.min_depth = self.min_depth.min(self.depth);
                self.events.push(format!("-{name}"));
            }
            fn text(&mut self, text: &str, tally: Option<&ScriptHistogram>) {
                self.events.push(format!("t:{text}/{}", tally.is_some()));
            }
        }
        let (_, _, trace) = stream_extract(
            "<div hidden><img src=x>a</div><li>1<li>2<p>open at eof",
            Trace::default(),
        );
        assert_eq!(trace.depth, 0, "starts and ends must balance");
        assert!(trace.min_depth >= 0, "an end fired before its start");
        assert_eq!(
            trace.events,
            vec![
                "+div/1/false",
                "+img/1/false",
                "-img",
                "t:a/false",
                "-div",
                "+li/0/true",
                "t:1/true",
                "-li",
                "+li/0/true",
                "t:2/true",
                // <p> is not a same-name implicit close for <li>, so it
                // nests inside; EOF unwinds innermost-first.
                "+p/0/true",
                "t:open at eof/true",
                "-p",
                "-li",
            ]
        );
    }

    /// Every event a sink sees, with attributes, as strings.
    #[derive(Default, PartialEq, Debug)]
    struct Recorder(Vec<String>);

    impl StreamSink for Recorder {
        fn element_start(&mut self, name: &str, attrs: &[Attribute], visible: bool) {
            let attrs: Vec<String> = attrs
                .iter()
                .map(|a| format!("{}={}", a.name, a.value))
                .collect();
            self.0
                .push(format!("+{name}[{}]/{visible}", attrs.join(";")));
        }
        fn element_end(&mut self, name: &str) {
            self.0.push(format!("-{name}"));
        }
        fn text(&mut self, text: &str, tally: Option<&ScriptHistogram>) {
            self.0.push(format!("t:{text}/{}", tally.is_some()));
        }
    }

    /// A page built to leave every scratch buffer dirty and oversized:
    /// elements left open (one of them hiding), 3,000-deep nesting,
    /// nested labels, a 200 KB attribute, a tag whose 40 attributes are
    /// each under the cap but together far above it, and long
    /// entity-laden text. `langcrux-oracle`'s `stream_text` tests compare
    /// this page, and the other pages of these tests, with the DOM walk.
    fn adversarial_page() -> String {
        let mut html = String::from(
            "<html lang=bn><title>t</title><label for=q>a<label for=q>b</label>\
             <button class=x data-y='&amp;z'>unclosed ",
        );
        html.push_str("<p");
        for i in 0..40 {
            html.push_str(&format!(" data-{i}=\"{}\"", "v".repeat(4_000)));
        }
        html.push('>');
        html.push_str(&"x &amp; y ".repeat(12_000));
        html.push_str("<div hidden>still open");
        html.push_str(&"<div>".repeat(3000));
        html.push_str(&format!("<img alt=\"{}\">", "ছ".repeat(70_000)));
        html
    }

    const NORMAL_PAGE: &str = "<html lang=th><head><title>หน้า</title></head><body>\
        <p class=lead>สวัสดี &amp; ok</p><img src=a.png alt=ภาพ><input id=q>\
        <div style=\"display:\tnone\">hidden</div><p>ท้าย</p></body></html>";

    /// The walk's full output for `html`: visible text, histogram and the
    /// sink's events.
    fn walk_output(html: &str) -> (String, ScriptHistogram, Recorder) {
        stream_extract(html, Recorder::default())
    }

    /// `html` must stream to exactly what a fresh thread (fresh scratch)
    /// produces.
    fn assert_clean_extract(html: &str) {
        let owned = html.to_string();
        let fresh = std::thread::spawn(move || walk_output(&owned))
            .join()
            .expect("fresh thread");
        assert_eq!(walk_output(html), fresh, "differs from a fresh thread");
    }

    #[test]
    fn scratch_is_clean_after_an_adversarial_page() {
        walk_output(&adversarial_page());
        assert_clean_extract(NORMAL_PAGE);
    }

    #[test]
    fn nested_extraction_gets_fresh_buffers() {
        const INNER: &str = "<p>inner <b>text</b></p><div hidden>no</div>";
        const OUTER: &str = "<div lang=en><p>outer <i>text</i></p></div><p>tail</p>";
        /// Extracts `INNER` from inside the outer walk's first text event.
        #[derive(Default)]
        struct Reentrant(Option<(String, ScriptHistogram)>);
        impl StreamSink for Reentrant {
            fn text(&mut self, _: &str, _: Option<&ScriptHistogram>) {
                if self.0.is_none() {
                    self.0 = Some(stream_visible_text_histogram(INNER));
                }
            }
        }
        let (text, hist, sink) = stream_extract(OUTER, Reentrant::default());
        let fresh = std::thread::spawn(|| {
            (
                stream_visible_text_histogram(OUTER),
                stream_visible_text_histogram(INNER),
            )
        })
        .join()
        .expect("fresh thread");
        assert_eq!((text, hist), fresh.0);
        assert_eq!(sink.0, Some(fresh.1));
        assert_clean_extract(NORMAL_PAGE);
    }

    #[test]
    fn a_panicking_sink_leaves_no_state_behind() {
        /// Panics at the first text inside the hidden subtree, with
        /// elements open, attributes lexed and visible text pending.
        struct Bomb;
        impl StreamSink for Bomb {
            fn text(&mut self, text: &str, _: Option<&ScriptHistogram>) {
                assert!(!text.contains("boom"), "sink failure");
            }
        }
        let page = "<html lang=en><p class=a>visible text<div hidden data-x=y><b>boom";
        let caught = std::panic::catch_unwind(|| stream_extract(page, Bomb));
        assert!(caught.is_err());
        assert_clean_extract(NORMAL_PAGE);
    }

    #[test]
    fn scratch_keeps_no_buffer_above_the_cap() {
        use crate::scratch::CAP_BYTES;
        let (text, _, _) = walk_output(&adversarial_page());
        assert!(text.len() > CAP_BYTES, "the page must overflow the cap");
        // Each buffer, and each pool as a whole, keeps at most the cap,
        // which bounds what the thread keeps in total.
        let kept = scratch_allocations();
        let largest = kept.iter().copied().max().unwrap_or(0);
        assert!(largest <= CAP_BYTES, "scratch kept a {largest}-byte buffer");
        let total: usize = kept.iter().sum();
        assert!(
            total <= kept.len() * CAP_BYTES,
            "scratch kept {total} bytes"
        );
        // An ordinary page's buffers are kept.
        walk_output(NORMAL_PAGE);
        assert!(scratch_allocations().iter().sum::<usize>() > 0);
    }

    #[test]
    fn deeply_nested_does_not_overflow() {
        let mut s = String::new();
        for _ in 0..3000 {
            s.push_str("<div>");
        }
        s.push_str("deep");
        assert_eq!(stream_visible_text_histogram(&s).0, "deep");
    }
}
