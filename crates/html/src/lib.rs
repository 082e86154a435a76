//! # langcrux-html
//!
//! A from-scratch HTML engine sized for measurement crawling: tokenizer,
//! arena DOM, tree builder with browser-style error recovery, visibility-
//! aware text extraction, and a well-formed HTML writer.
//!
//! This substrate replaces the paper's Puppeteer/Chromium dependency for
//! everything the study actually consumes from the browser: the parsed DOM,
//! element attributes, and the page's visible text (honouring `hidden`,
//! `aria-hidden`, and inline `display:none`).
//!
//! * [`tokenizer`] — tags, attributes (all forms), comments, doctype,
//!   raw-text elements; never fails on malformed input. Sink-driven
//!   ([`tokenizer::TokenSink`]), so token materialisation is optional.
//! * [`entities`] — character-reference decode/encode.
//! * [`dom`] — arena [`dom::Document`] with id-based traversal.
//! * [`parser`] — tree construction with void elements and recovery.
//! * [`visible`] — Puppeteer-equivalent visible-text extraction.
//! * [`stream`] — streaming tokenize→extract: the visible text and script
//!   histogram straight from tokenizer events, with no DOM allocation
//!   (the crawl path's hot loop; byte-identical to the DOM walk).
//! * [`scratch`] — the per-thread buffers the streaming path reuses
//!   between pages, and the 64 KiB cap on what they keep.
//! * [`builder`] — balanced, escaped HTML construction for the generator.
//! * [`mod@serialize`] — DOM → HTML re-emission (normalising round trip).
//!
//! The two extraction paths and when to use which — plus how the rest of
//! the workspace consumes them — are mapped in the repository's
//! `ARCHITECTURE.md`.

pub mod builder;
pub mod dom;
pub mod entities;
pub mod parser;
pub mod scratch;
pub mod serialize;
pub mod stream;
pub mod tokenizer;
pub mod visible;

pub use builder::HtmlBuilder;
pub use dom::{Document, NodeId, NodeKind};
pub use parser::parse;
pub use serialize::serialize;
pub use stream::{stream_extract, stream_visible_text_histogram, walk_events, StreamSink};
pub use visible::{
    visible_text, visible_text_histogram, visible_text_histogram_of, visible_text_of,
};
