//! Streaming page extraction: the full [`PageExtract`] straight from
//! tokenizer events, with no DOM materialisation.
//!
//! [`extract_streaming`] is the one extractor the build, the dist workers
//! and the audit service run. It derives the visible text and histogram
//! (on `langcrux-html`'s streaming walk), the accessibility elements in
//! document order and the `<html lang>` without allocating a token buffer
//! or a node arena: selection and Kizuki consume the carried histogram and
//! the extracted elements, so a tree would be pure overhead. Its output
//! equals that of the DOM extractor in the dev-only `langcrux-oracle`
//! crate, which parses the page into a tree and queries it; the oracle's
//! tests pin the equality on adversarial HTML, generated markup and a
//! corpus sweep.
//!
//! What the single pass tracks beyond the visible-text skip-stack:
//!
//! * **Capture buffers** for elements whose accessibility text is their
//!   inner text (`<title>`, button/link fallbacks, `<summary>`,
//!   `<object>`, `<label>`): text runs append to every open capture, so
//!   nested captures each see their element's whole text content.
//! * **Deferred label association**: `<label for=…>` texts are recorded
//!   in document order and joined to `input`/`select` slots only at the
//!   end of the pass — a label may follow the control it names.
//! * **SVG context**: a `<title>` inside any `<svg>` never becomes the
//!   document title; the first *direct* `<title>` child of an
//!   `<svg role="img">` without `aria-label` becomes its name.
//!
//! **Per-thread buffers.** The extractor's own state — the element list,
//! the open-element and capture stacks, the capture buffers, the label
//! bookkeeping and the region tracker — lives in a thread-local slot
//! between pages, next to `langcrux-html`'s lexer and walk buffers (see
//! [`langcrux_html::scratch`]). A page therefore allocates only what the
//! returned [`PageExtract`] owns: exact-size copies of its element list,
//! texts, regions and visible text. The slot follows the scratch rules:
//! a nested call on the same thread gets fresh buffers, a call that
//! panics drops its buffers, and between pages each buffer, and the pool
//! of spare capture buffers as a whole, keeps at most 64 KiB
//! ([`CAP_BYTES`]). `tests/extract_allocs.rs` at the repository
//! root pins the allocation count.
//!
//! [`CAP_BYTES`]: langcrux_html::scratch::CAP_BYTES

use crate::extract::{ExtractedElement, PageExtract, TextSource};
use crate::regions::{RegionTracker, Span};
use langcrux_html::scratch::{cap_pool, ScratchBuffer};
use langcrux_html::stream::{stream_extract, StreamSink};
use langcrux_html::tokenizer::Attribute;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::script::ScriptHistogram;
use std::cell::Cell;

/// Extract all accessibility elements plus page-level facts directly from
/// the HTML text, without building a DOM.
///
/// ```
/// use langcrux_crawl::extract_streaming;
/// use langcrux_lang::a11y::ElementKind;
///
/// let html = r#"<html lang="bn"><head><title>খবর</title></head>
///     <body><p>বাংলা সংবাদ</p><img src="a.jpg"></body></html>"#;
/// let page = extract_streaming(html);
/// assert_eq!(page.declared_lang.as_deref(), Some("bn"));
/// assert_eq!(page.visible_text, "বাংলা সংবাদ");
/// let title = page.of_kind(ElementKind::DocumentTitle).next().unwrap();
/// assert_eq!(title.content(), Some("খবর"));
/// let image = page.of_kind(ElementKind::ImageAlt).next().unwrap();
/// assert!(image.is_missing());
/// ```
pub fn extract_streaming(html: &str) -> PageExtract {
    let (visible_text, visible_hist, sink) = stream_extract(html, ExtractSink::take());
    sink.finish(visible_text, visible_hist)
}

thread_local! {
    /// This thread's extractor between pages; see the module docs.
    static SCRATCH: Cell<Option<ExtractSink>> = const { Cell::new(None) };
}

/// What happens to a capture buffer when its element closes.
enum CaptureKind {
    /// The document-title slot (`elements[0]`).
    DocTitle,
    /// `visible_fallback` of the element at this index (button/link).
    Fallback(usize),
    /// Inner-text fallback for `summary`/`object`: fills `text` when the
    /// buffer is non-blank and no attribute source was found.
    TextIfMissing(usize),
    /// First direct `<title>` child of an `<svg role="img">`.
    SvgTitle(usize),
    /// A `<label for=…>` body: its element start number (the first label
    /// in document order wins) and its `for` target, a span of
    /// `ExtractSink::label_arena`.
    LabelFor(usize, Span),
}

struct Capture {
    buf: String,
    kind: CaptureKind,
}

/// A completed `<label for=…>` body awaiting association. Target and
/// text are spans of `ExtractSink::label_arena`.
struct LabelEntry {
    target: Span,
    /// Element start number.
    seq: usize,
    text: Span,
}

/// Per-open-element record on the sink's own stack (kept in lockstep with
/// the walk's balanced start/end events).
struct Open {
    /// Captures opened by this element (they sit at the tail of the
    /// capture stack and complete when it closes).
    captures_opened: usize,
    /// `Some(element index)` for an `<svg role="img">` without
    /// `aria-label`, until its first direct `<title>` child claims it.
    svg_slot: Option<usize>,
    is_svg: bool,
}

/// The streaming extractor: one page's state, in buffers that the
/// thread keeps between pages ([`Self::take`] / [`Self::finish`]).
#[derive(Default)]
struct ExtractSink {
    /// `elements[0]` is the document-title slot, pushed by
    /// [`Self::take`].
    elements: Vec<ExtractedElement>,
    declared_lang: Option<String>,
    html_seen: bool,
    /// Set when the first `<title>` outside any `<svg>` claims the
    /// document-title slot.
    doc_title_claimed: bool,
    /// Open `<svg>` ancestors (their `<title>`s are never the document
    /// title).
    svg_depth: usize,
    stack: Vec<Open>,
    captures: Vec<Capture>,
    /// Capture buffers not in use. Taken and returned LIFO, so a capture
    /// at a given nesting depth refills the same buffer page after page.
    spare_bufs: Vec<String>,
    /// Label `for` targets, label texts and control ids of this page.
    label_arena: String,
    /// Completed label bodies.
    label_entries: Vec<LabelEntry>,
    /// `(element index, control id)` pairs awaiting label association;
    /// ids are spans of `label_arena`.
    fixups: Vec<(usize, Span)>,
    /// Element start counter (document order of starts).
    seq: usize,
    /// Per-subtree language regions, fed from the same event stream.
    regions: RegionTracker,
}

fn attr_of<'a>(attrs: &'a [Attribute], name: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.value.as_str())
}

/// An element of `kind` named by the first of `sources` present in
/// `attrs`.
fn attr_element(
    attrs: &[Attribute],
    kind: ElementKind,
    sources: &[(&str, TextSource)],
) -> ExtractedElement {
    for (attr, source) in sources {
        if let Some(v) = attr_of(attrs, attr) {
            return ExtractedElement {
                kind,
                text: Some(v.to_string()),
                source: Some(*source),
                visible_fallback: None,
            };
        }
    }
    ExtractedElement {
        kind,
        text: None,
        source: None,
        visible_fallback: None,
    }
}

impl ExtractSink {
    /// This thread's extractor, or a fresh one if a call further up the
    /// stack holds it, ready for a page.
    fn take() -> Self {
        let mut sink = SCRATCH.take().unwrap_or_default();
        // The document-title slot is always elements[0]; it is filled in
        // place when the first eligible <title> closes.
        sink.elements.push(ExtractedElement {
            kind: ElementKind::DocumentTitle,
            text: None,
            source: None,
            visible_fallback: None,
        });
        sink
    }

    /// Resolve deferred label associations, return the page with
    /// exact-size buffers, and hand the extractor back to the thread.
    fn finish(mut self, visible_text: String, visible_hist: ScriptHistogram) -> PageExtract {
        self.associate_labels();
        let page = PageExtract {
            visible_text,
            visible_hist,
            declared_lang: self.declared_lang.take(),
            elements: self.elements.drain(..).collect(),
            regions: self.regions.finish(),
        };
        self.clear_capped();
        SCRATCH.set(Some(self));
        page
    }

    /// Reset to the empty state for the next page, dropping any buffer
    /// above the scratch cap and trimming the spare capture buffers to
    /// it.
    fn clear_capped(&mut self) {
        let ExtractSink {
            elements,
            declared_lang,
            html_seen,
            doc_title_claimed,
            svg_depth,
            stack,
            captures,
            spare_bufs,
            label_arena,
            label_entries,
            fixups,
            seq,
            regions,
        } = self;
        elements.clear_capped();
        *declared_lang = None;
        *html_seen = false;
        *doc_title_claimed = false;
        *svg_depth = 0;
        stack.clear_capped();
        captures.clear_capped();
        cap_pool(spare_bufs);
        label_arena.clear_capped();
        label_entries.clear_capped();
        fixups.clear_capped();
        *seq = 0;
        regions.clear_capped();
    }

    /// The heap bytes of each buffer held, a pool counting as one.
    #[cfg(test)]
    fn allocations(&self) -> Vec<usize> {
        [
            self.elements.allocated(),
            self.stack.allocated(),
            self.captures.allocated(),
            langcrux_html::scratch::pool_allocated(&self.spare_bufs),
            self.label_arena.allocated(),
            self.label_entries.allocated(),
            self.fixups.allocated(),
        ]
        .into_iter()
        .chain(self.regions.allocations())
        .collect()
    }

    fn open_capture(&mut self, open: &mut Open, kind: CaptureKind) {
        let buf = self.spare_bufs.pop().unwrap_or_default();
        self.captures.push(Capture { buf, kind });
        open.captures_opened += 1;
    }

    /// Queue the element just pushed for association with the label
    /// that names its `id`, if it has one.
    fn await_label(&mut self, attrs: &[Attribute]) {
        if let Some(id) = attr_of(attrs, "id") {
            let id = Span::push(&mut self.label_arena, id);
            self.fixups.push((self.elements.len() - 1, id));
        }
    }

    fn complete_capture(&mut self, capture: Capture) {
        let Capture { mut buf, kind } = capture;
        let text = || Some(buf.as_str().to_owned());
        match kind {
            CaptureKind::DocTitle => {
                self.elements[0] = ExtractedElement {
                    kind: ElementKind::DocumentTitle,
                    text: text(),
                    source: Some(TextSource::TextContent),
                    visible_fallback: None,
                };
            }
            CaptureKind::Fallback(idx) => {
                self.elements[idx].visible_fallback = text();
            }
            CaptureKind::TextIfMissing(idx) => {
                let el = &mut self.elements[idx];
                if el.text.is_none() && !buf.trim().is_empty() {
                    el.text = text();
                    el.source = Some(TextSource::TextContent);
                }
            }
            CaptureKind::SvgTitle(idx) => {
                let el = &mut self.elements[idx];
                if el.text.is_none() {
                    el.text = text();
                    el.source = Some(TextSource::TitleChild);
                }
            }
            CaptureKind::LabelFor(seq, target) => {
                let text = Span::push(&mut self.label_arena, &buf);
                self.label_entries.push(LabelEntry { target, seq, text });
            }
        }
        buf.clear();
        self.spare_bufs.push(buf);
    }

    /// Give each control awaiting a label the text of the first
    /// `<label for>` naming its id, in document (start) order — captures
    /// complete in close order, which differs for nested labels.
    fn associate_labels(&mut self) {
        let ExtractSink {
            elements,
            label_arena: arena,
            label_entries,
            fixups,
            ..
        } = self;
        let arena = arena.as_str();
        // Sorted by (target, start), the first entry for a target is its
        // winning label. Sequence numbers are unique, so the unstable
        // (non-allocating) sort is deterministic.
        label_entries
            .sort_unstable_by(|a, b| (a.target.of(arena), a.seq).cmp(&(b.target.of(arena), b.seq)));
        for &(idx, id) in fixups.iter() {
            let id = id.of(arena);
            let first = label_entries.partition_point(|e| e.target.of(arena) < id);
            if let Some(label) = label_entries
                .get(first)
                .filter(|e| e.target.of(arena) == id)
            {
                let el = &mut elements[idx];
                el.text = Some(label.text.of(arena).to_owned());
                el.source = Some(TextSource::AssociatedLabel);
            }
        }
    }
}

impl StreamSink for ExtractSink {
    fn element_start(&mut self, name: &str, attrs: &[Attribute], visible: bool) {
        self.regions.element_start(name, attrs, visible);
        self.seq += 1;
        let seq = self.seq;
        let mut open = Open {
            captures_opened: 0,
            svg_slot: None,
            is_svg: name == "svg",
        };
        match name {
            "html" if !self.html_seen => {
                self.html_seen = true;
                self.declared_lang = attr_of(attrs, "lang").map(|s| s.to_string());
            }
            "title" => {
                // Parent checks run against the stack top — the element
                // this title nests under.
                if let Some(idx) = self.stack.last_mut().and_then(|p| p.svg_slot.take()) {
                    self.open_capture(&mut open, CaptureKind::SvgTitle(idx));
                } else if self.svg_depth == 0 && !self.doc_title_claimed {
                    self.doc_title_claimed = true;
                    self.open_capture(&mut open, CaptureKind::DocTitle);
                }
            }
            "img" => self.elements.push(attr_element(
                attrs,
                ElementKind::ImageAlt,
                &[("alt", TextSource::Alt)],
            )),
            "iframe" | "frame" => self.elements.push(attr_element(
                attrs,
                ElementKind::FrameTitle,
                &[("title", TextSource::TitleAttr)],
            )),
            "button" => {
                self.elements.push(attr_element(
                    attrs,
                    ElementKind::ButtonName,
                    &[
                        ("aria-label", TextSource::AriaLabel),
                        ("title", TextSource::TitleAttr),
                    ],
                ));
                let idx = self.elements.len() - 1;
                self.open_capture(&mut open, CaptureKind::Fallback(idx));
            }
            "a" if attr_of(attrs, "href").is_some() => {
                self.elements.push(attr_element(
                    attrs,
                    ElementKind::LinkName,
                    &[
                        ("aria-label", TextSource::AriaLabel),
                        ("title", TextSource::TitleAttr),
                    ],
                ));
                let idx = self.elements.len() - 1;
                self.open_capture(&mut open, CaptureKind::Fallback(idx));
            }
            "summary" => {
                let el = attr_element(
                    attrs,
                    ElementKind::SummaryName,
                    &[("aria-label", TextSource::AriaLabel)],
                );
                let missing = el.text.is_none();
                self.elements.push(el);
                if missing {
                    let idx = self.elements.len() - 1;
                    self.open_capture(&mut open, CaptureKind::TextIfMissing(idx));
                }
            }
            "svg" if attr_of(attrs, "role") == Some("img") => {
                let el = attr_element(
                    attrs,
                    ElementKind::SvgImgAlt,
                    &[("aria-label", TextSource::AriaLabel)],
                );
                let missing = el.text.is_none();
                self.elements.push(el);
                if missing {
                    open.svg_slot = Some(self.elements.len() - 1);
                }
            }
            "object" => {
                let el = attr_element(
                    attrs,
                    ElementKind::ObjectAlt,
                    &[("aria-label", TextSource::AriaLabel)],
                );
                let missing = el.text.is_none();
                self.elements.push(el);
                if missing {
                    let idx = self.elements.len() - 1;
                    self.open_capture(&mut open, CaptureKind::TextIfMissing(idx));
                }
            }
            "select" => {
                let el = attr_element(
                    attrs,
                    ElementKind::SelectName,
                    &[("aria-label", TextSource::AriaLabel)],
                );
                let missing = el.text.is_none();
                self.elements.push(el);
                if missing {
                    self.await_label(attrs);
                }
            }
            "input" => {
                let input_type = attr_of(attrs, "type").unwrap_or("text");
                let is = |t: &str| input_type.eq_ignore_ascii_case(t);
                if is("image") {
                    self.elements.push(attr_element(
                        attrs,
                        ElementKind::InputImageAlt,
                        &[("alt", TextSource::Alt)],
                    ));
                } else if is("submit") || is("button") || is("reset") {
                    self.elements.push(attr_element(
                        attrs,
                        ElementKind::InputButtonName,
                        &[
                            ("value", TextSource::Value),
                            ("aria-label", TextSource::AriaLabel),
                        ],
                    ));
                } else if !is("hidden") {
                    // Text-like controls: the `label` audit target.
                    let el = attr_element(
                        attrs,
                        ElementKind::Label,
                        &[("aria-label", TextSource::AriaLabel)],
                    );
                    let missing = el.text.is_none();
                    self.elements.push(el);
                    if missing {
                        self.await_label(attrs);
                    }
                }
            }
            "label" => {
                if let Some(target) = attr_of(attrs, "for") {
                    let target = Span::push(&mut self.label_arena, target);
                    self.open_capture(&mut open, CaptureKind::LabelFor(seq, target));
                }
            }
            _ => {}
        }
        if open.is_svg {
            self.svg_depth += 1;
        }
        self.stack.push(open);
    }

    fn element_end(&mut self, name: &str) {
        self.regions.element_end(name);
        let open = self.stack.pop().expect("balanced element events");
        if open.is_svg {
            self.svg_depth -= 1;
        }
        for _ in 0..open.captures_opened {
            let capture = self.captures.pop().expect("capture stack in sync");
            self.complete_capture(capture);
        }
    }

    fn text(&mut self, text: &str, tally: Option<&ScriptHistogram>) {
        self.regions.text(text, tally);
        // Every open capture owns this text: an element's text content is
        // unconditional over descendants, including invisible subtrees.
        for capture in &mut self.captures {
            capture.buf.push_str(text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_html::scratch::CAP_BYTES;

    /// A page built to leave every extractor buffer dirty and oversized:
    /// an unclosed `<button>` capturing the rest of the page, nested
    /// labels, 200 nested links around one text (200 capture buffers,
    /// each under the cap but together far above it), 3,000-deep nesting
    /// inside a `lang` region, and 200 KB attribute values where the
    /// extractor keeps them (`alt`, a label target, a control id, a
    /// `lang` subtag). `langcrux-oracle`'s `stream_extract` tests compare
    /// this page, and the other pages of these tests, with the DOM
    /// extractor.
    fn adversarial_page() -> String {
        let big = "ছ".repeat(70_000);
        let mut html = format!(
            "<html lang=bn><title>প্রথম</title>\
             <label for=q>outer<label for=q>inner</label></label>\
             <label for=\"{big}\">long target</label><input id=\"{big}\">"
        );
        html.push_str(&"<a href=/x>".repeat(200));
        html.push_str(&"লিংক ".repeat(400));
        html.push_str(&"</a>".repeat(200));
        html.push_str(&format!("<section lang=\"{big}\"><button>unclosed "));
        html.push_str(&"<div>".repeat(3000));
        html.push_str(&format!("<img alt=\"{big}\"><svg role=img><g>"));
        html.push_str(&"text &amp; more ".repeat(6_000));
        html
    }

    /// Shares ids, kinds and regions with [`adversarial_page`], so state
    /// leaking from it would show.
    const NORMAL_PAGE: &str = "<html lang=th><head><title>หน้า</title></head><body>\
        <nav>Home</nav><main><p>สวัสดี</p><img src=a.png alt=ภาพ>\
        <input id=q><select id=s></select><label for=s>เลือก</label>\
        <button>ส่ง</button><svg role=img><title>ไอคอน</title></svg></main></body></html>";

    /// `html` must extract to exactly what a fresh thread (fresh scratch)
    /// extracts.
    fn assert_clean_extract(html: &str) {
        let owned = html.to_string();
        let fresh = std::thread::spawn(move || extract_streaming(&owned))
            .join()
            .expect("fresh thread");
        assert_eq!(
            extract_streaming(html),
            fresh,
            "differs from a fresh thread"
        );
    }

    #[test]
    fn scratch_is_clean_after_an_adversarial_page() {
        extract_streaming(&adversarial_page());
        assert_clean_extract(NORMAL_PAGE);
    }

    /// Feeds an extractor taken from the thread, like
    /// [`extract_streaming`], and runs `on_text` at every text event.
    struct Wrapped<F> {
        sink: ExtractSink,
        on_text: F,
    }

    impl<F: FnMut(&str)> StreamSink for Wrapped<F> {
        fn element_start(&mut self, name: &str, attrs: &[Attribute], visible: bool) {
            self.sink.element_start(name, attrs, visible);
        }
        fn element_end(&mut self, name: &str) {
            self.sink.element_end(name);
        }
        fn text(&mut self, text: &str, tally: Option<&ScriptHistogram>) {
            (self.on_text)(text);
            self.sink.text(text, tally);
        }
    }

    fn wrapped_extract(html: &str, on_text: impl FnMut(&str)) -> PageExtract {
        let wrapped = Wrapped {
            sink: ExtractSink::take(),
            on_text,
        };
        let (text, hist, wrapped) = stream_extract(html, wrapped);
        wrapped.sink.finish(text, hist)
    }

    #[test]
    fn nested_extraction_gets_fresh_buffers() {
        const OUTER: &str = "<html lang=bn><title>বাইরে</title><label for=i>নাম</label>\
            <button>চাপুন<nav>Home</nav></button><input id=i></html>";
        let mut inner = None;
        let page = wrapped_extract(OUTER, |_| {
            if inner.is_none() {
                inner = Some(extract_streaming(NORMAL_PAGE));
            }
        });
        let fresh =
            std::thread::spawn(|| (extract_streaming(OUTER), extract_streaming(NORMAL_PAGE)))
                .join()
                .expect("fresh thread");
        assert_eq!(page, fresh.0);
        assert_eq!(inner, Some(fresh.1));
        assert_clean_extract(NORMAL_PAGE);
    }

    #[test]
    fn a_panicking_sink_leaves_no_state_behind() {
        // The panic hits inside an open button and label, with a region
        // open and label bookkeeping recorded.
        let page = "<html lang=bn><title>t</title><label for=q>label</label>\
            <section lang=en><button>text<label for=s>boom</label></button>";
        let caught = std::panic::catch_unwind(|| {
            wrapped_extract(page, |text| assert_ne!(text, "boom", "sink failure"))
        });
        assert!(caught.is_err());
        assert_clean_extract(NORMAL_PAGE);
    }

    /// The heap bytes of each buffer this thread's extractor keeps
    /// between pages, a pool counting as one.
    fn scratch_allocations() -> Vec<usize> {
        let sink = SCRATCH.take();
        let allocations = sink
            .as_ref()
            .map_or_else(Vec::new, ExtractSink::allocations);
        SCRATCH.set(sink);
        allocations
    }

    #[test]
    fn scratch_keeps_no_buffer_above_the_cap() {
        let page = extract_streaming(&adversarial_page());
        let button = page.of_kind(ElementKind::ButtonName).next().unwrap();
        let fallback = button.visible_fallback.as_deref().unwrap();
        assert!(fallback.len() > CAP_BYTES, "the page must overflow the cap");
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
        extract_streaming(NORMAL_PAGE);
        assert!(scratch_allocations().iter().sum::<usize>() > 0);
    }

    #[test]
    fn streaming_is_the_crawl_default() {
        // The exported names used by browser/serve resolve to this module.
        let page = extract_streaming("<html lang=bn><body><p>টেক্সট</p></body></html>");
        assert_eq!(page.declared_lang.as_deref(), Some("bn"));
        assert_eq!(page.visible_text, "টেক্সট");
        assert_eq!(
            page.visible_hist,
            langcrux_lang::script::ScriptHistogram::of(&page.visible_text)
        );
    }
}
