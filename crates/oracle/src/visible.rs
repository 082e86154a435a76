//! The DOM walks: the visible text of a parsed [`Document`], and the
//! replay of its tree-level events into a [`StreamSink`].
//!
//! Both apply `langcrux-html`'s visibility rules (`is_non_rendering`,
//! `attrs_hide`, `is_block`) and feed its `Normaliser`, the same functions
//! and the same sink the streaming walk uses, to a tree instead of to
//! tokenizer events.

use crate::dom::{Document, NodeId, NodeKind};
use langcrux_html::stream::StreamSink;
use langcrux_html::visible::{attrs_hide, is_block, is_non_rendering, Normaliser};
use langcrux_lang::script::ScriptHistogram;

/// Whether this single element (not its ancestors) is hidden.
pub fn element_hidden(doc: &Document, id: NodeId) -> bool {
    attrs_hide(doc.attrs(id))
}

/// Extract the visible text of the whole document, whitespace-normalised:
/// consecutive whitespace collapses to a single space; block boundaries
/// insert a newline.
pub fn visible_text(doc: &Document) -> String {
    visible_text_histogram(doc).0
}

/// Fused extraction: the visible text of the whole document *and* its
/// [`ScriptHistogram`], computed in the same single DOM walk. The histogram
/// is identical to `ScriptHistogram::of(&text)` but costs no re-scan of the
/// built string.
///
/// ```
/// use langcrux_oracle::{parse, visible_text_histogram};
/// use langcrux_lang::script::{Script, ScriptHistogram};
///
/// let doc = parse("<body><p>নমস্কার</p><script>skip()</script><p>ok</p></body>");
/// let (text, hist) = visible_text_histogram(&doc);
/// assert_eq!(text, "নমস্কার\nok");
/// assert_eq!(hist, ScriptHistogram::of(&text));
/// assert!(hist.count(Script::Bengali) > hist.count(Script::Latin));
/// ```
pub fn visible_text_histogram(doc: &Document) -> (String, ScriptHistogram) {
    let mut sink = Normaliser::default();
    walk(doc, NodeId::ROOT, &mut sink);
    sink.finish()
}

fn walk(doc: &Document, id: NodeId, sink: &mut Normaliser) {
    match &doc.node(id).kind {
        NodeKind::Text(t) => {
            sink.push_text(t);
        }
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

/// Replay the tree-level events of a parsed [`Document`] into a
/// [`StreamSink`] — the DOM-side twin of `langcrux_html::stream_extract`'s
/// event delivery. Element starts/ends arrive balanced in document order
/// and visibility follows the exact rules of [`visible_text`]
/// (non-rendering elements, `hidden`, `aria-hidden="true"`, hiding inline
/// styles), so a sink fed from a `Document` observes the same region
/// structure as one fed from the tokenizer. A visible text event carries
/// its script tally, counted here with `ScriptHistogram::of` rather than
/// taken from the normaliser. The DOM extractor
/// ([`extract`](fn@crate::extract)) drives the crawler's region tracker
/// from it, the same tracker the streaming extractor feeds.
pub fn walk_events<S: StreamSink>(doc: &Document, sink: &mut S) {
    walk_events_at(doc, NodeId::ROOT, 0, sink);
}

fn walk_events_at<S: StreamSink>(doc: &Document, id: NodeId, skip_depth: usize, sink: &mut S) {
    match &doc.node(id).kind {
        NodeKind::Text(t) => {
            let tally = (skip_depth == 0).then(|| ScriptHistogram::of(t));
            sink.text(t, tally.as_ref());
        }
        NodeKind::Comment(_) => {}
        NodeKind::Document => {
            for &c in &doc.node(id).children {
                walk_events_at(doc, c, skip_depth, sink);
            }
        }
        NodeKind::Element { name, .. } => {
            let skipped = is_non_rendering(name) || element_hidden(doc, id);
            let visible = skip_depth == 0 && !skipped;
            sink.element_start(name, doc.attrs(id), visible);
            let child_skip = skip_depth + usize::from(skipped);
            for &c in &doc.node(id).children {
                walk_events_at(doc, c, child_skip, sink);
            }
            sink.element_end(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn title_not_visible_but_extractable() {
        let doc = parse("<head><title>Site Name</title></head><body>body</body>");
        assert_eq!(visible_text(&doc), "body");
        let title = doc.elements_named("title").next().unwrap();
        assert_eq!(doc.text_content(title), "Site Name");
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
