//! Programmatic HTML construction.
//!
//! The website generator assembles pages element-by-element;
//! [`HtmlBuilder`] provides a small push-based writer that guarantees
//! well-formed output (balanced tags, escaped text and attribute values),
//! so that what the generator *plants* is exactly what extraction
//! *recovers* — a property the corpus round-trip tests rely on.

use crate::entities::{escape_attr_into, escape_text_into};

/// A streaming HTML writer with a tag stack.
///
/// The open-element stack is a flat name arena (`names` + byte ranges), so
/// building a page performs no per-element allocation; escaping appends
/// straight into the output buffer. [`reset_document`](Self::reset_document)
/// recycles a builder (buffer capacity and all) across pages — the webgen
/// render arena keeps one per worker.
#[derive(Debug, Default)]
pub struct HtmlBuilder {
    buf: String,
    /// Concatenated names of currently open elements.
    names: String,
    /// `(start, end)` ranges into `names`, innermost last.
    stack: Vec<(u32, u32)>,
}

impl HtmlBuilder {
    /// Start a document with the HTML5 doctype.
    pub fn document() -> Self {
        let mut b = HtmlBuilder::default();
        b.buf.push_str("<!DOCTYPE html>");
        b
    }

    /// Start a document with the output buffer pre-sized to `capacity`
    /// bytes. Generators that know their typical page size (webgen's
    /// calibrated estimate) use this to avoid the doubling-reallocation
    /// ladder while streaming a page.
    pub fn document_sized(capacity: usize) -> Self {
        let mut b = HtmlBuilder::fragment_sized(capacity);
        b.buf.push_str("<!DOCTYPE html>");
        b
    }

    /// An empty builder (fragment mode).
    pub fn fragment() -> Self {
        HtmlBuilder::default()
    }

    /// Fragment-mode builder with a pre-sized output buffer.
    pub fn fragment_sized(capacity: usize) -> Self {
        HtmlBuilder {
            buf: String::with_capacity(capacity),
            names: String::new(),
            stack: Vec::with_capacity(16),
        }
    }

    /// Recycle this builder for a fresh document: the output buffer is
    /// cleared (keeping its grown capacity) and the doctype re-written.
    /// Equivalent to replacing the builder with
    /// [`document_sized`](Self::document_sized) at the current capacity,
    /// without the allocation.
    pub fn reset_document(&mut self) {
        self.buf.clear();
        self.names.clear();
        self.stack.clear();
        self.buf.push_str("<!DOCTYPE html>");
    }

    /// Spare capacity currently available without reallocation.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Open an element with attributes. `attrs` pairs are
    /// `(name, Some(value))` or `(name, None)` for boolean attributes.
    pub fn open(&mut self, tag: &str, attrs: &[(&str, Option<&str>)]) -> &mut Self {
        self.write_tag(tag, attrs, false);
        let start = self.names.len() as u32;
        self.names.push_str(tag);
        self.stack.push((start, self.names.len() as u32));
        self
    }

    /// Write a void/self-contained element.
    pub fn void(&mut self, tag: &str, attrs: &[(&str, Option<&str>)]) -> &mut Self {
        self.write_tag(tag, attrs, false);
        self
    }

    fn write_tag(&mut self, tag: &str, attrs: &[(&str, Option<&str>)], self_close: bool) {
        self.buf.push('<');
        self.buf.push_str(tag);
        for (name, value) in attrs {
            self.buf.push(' ');
            self.buf.push_str(name);
            if let Some(v) = value {
                self.buf.push_str("=\"");
                escape_attr_into(v, &mut self.buf);
                self.buf.push('"');
            }
        }
        if self_close {
            self.buf.push('/');
        }
        self.buf.push('>');
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open — generator code is expected to be
    /// balanced, and an unbalanced build is a bug worth failing loudly on.
    pub fn close(&mut self) -> &mut Self {
        let (start, end) = self.stack.pop().expect("close() with no open element");
        self.buf.push_str("</");
        self.buf.push_str(&self.names[start as usize..end as usize]);
        self.buf.push('>');
        self.names.truncate(start as usize);
        self
    }

    /// Escaped text content.
    pub fn text(&mut self, text: &str) -> &mut Self {
        escape_text_into(text, &mut self.buf);
        self
    }

    /// Raw, pre-escaped markup (used sparingly, e.g. inline SVG bodies).
    pub fn raw(&mut self, html: &str) -> &mut Self {
        self.buf.push_str(html);
        self
    }

    /// Convenience: `<tag ...>text</tag>`.
    pub fn leaf(&mut self, tag: &str, attrs: &[(&str, Option<&str>)], text: &str) -> &mut Self {
        self.open(tag, attrs);
        self.text(text);
        self.close()
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finish the document, closing any still-open elements.
    pub fn finish(mut self) -> String {
        while !self.stack.is_empty() {
            self.close();
        }
        self.buf
    }

    /// Peek at the bytes written so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_attributes() {
        let mut b = HtmlBuilder::fragment();
        b.void("input", &[("type", Some("text")), ("disabled", None)]);
        let html = b.finish();
        assert_eq!(html, r#"<input type="text" disabled>"#);
    }

    #[test]
    fn finish_closes_open_elements() {
        let mut b = HtmlBuilder::fragment();
        b.open("div", &[]).open("span", &[]).text("x");
        let html = b.finish();
        assert_eq!(html, "<div><span>x</span></div>");
    }

    #[test]
    #[should_panic(expected = "close() with no open element")]
    fn unbalanced_close_panics() {
        HtmlBuilder::fragment().close();
    }

    #[test]
    fn presized_builder_output_matches_default() {
        let build = |mut b: HtmlBuilder| {
            b.open("html", &[("lang", Some("ru"))]);
            b.leaf("p", &[], "новости дня");
            b.finish()
        };
        let presized = build(HtmlBuilder::document_sized(4096));
        assert_eq!(presized, build(HtmlBuilder::document()));
        let b = HtmlBuilder::fragment_sized(1024);
        assert!(b.capacity() >= 1024);
    }

    #[test]
    fn reset_document_recycles_buffer_and_stack() {
        let mut b = HtmlBuilder::document_sized(4096);
        b.open("html", &[])
            .open("body", &[])
            .leaf("p", &[], "first");
        let cap = b.capacity();
        b.reset_document();
        assert_eq!(b.depth(), 0);
        assert_eq!(b.as_str(), "<!DOCTYPE html>");
        assert!(b.capacity() >= cap, "capacity must survive the reset");
        b.open("html", &[]).leaf("p", &[], "second");
        let html = b.finish();
        assert_eq!(html, "<!DOCTYPE html><html><p>second</p></html>");
    }

    #[test]
    fn name_arena_closes_nested_same_and_different_tags() {
        let mut b = HtmlBuilder::fragment();
        b.open("div", &[]).open("div", &[]).open("span", &[]);
        b.text("x");
        b.close().close().close();
        assert_eq!(b.finish(), "<div><div><span>x</span></div></div>");
    }

    #[test]
    fn depth_tracks_stack() {
        let mut b = HtmlBuilder::fragment();
        assert_eq!(b.depth(), 0);
        b.open("div", &[]);
        assert_eq!(b.depth(), 1);
        b.close();
        assert_eq!(b.depth(), 0);
    }
}
