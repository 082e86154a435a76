//! # langcrux-html
//!
//! A from-scratch HTML engine sized for measurement crawling: tokenizer,
//! visibility-aware streaming text extraction, and a well-formed HTML
//! writer.
//!
//! This substrate replaces the paper's Puppeteer/Chromium dependency for
//! everything the study actually consumes from the browser: element
//! attributes and the page's visible text (honouring `hidden`,
//! `aria-hidden`, and inline `display:none`). It builds no tree: the
//! extraction runs on tokenizer events. The arena DOM, the tree builder
//! and the DOM walks that the tests compare the streaming path with live
//! in the dev-only `langcrux-oracle` crate.
//!
//! * [`tokenizer`] — tags, attributes (all forms), comments, doctype,
//!   raw-text elements; never fails on malformed input. Sink-driven
//!   ([`tokenizer::TokenSink`]), so token materialisation is optional.
//! * [`entities`] — character-reference decode/encode.
//! * [`visible`] — the visibility rules and the whitespace normaliser
//!   behind Puppeteer-equivalent visible text.
//! * [`stream`] — streaming tokenize→extract: the visible text and script
//!   histogram straight from tokenizer events (the crawl path's hot
//!   loop), and the tree-level events richer extractors consume.
//! * [`scratch`] — the per-thread buffers the streaming path reuses
//!   between pages, and the 64 KiB cap on what they keep.
//! * [`builder`] — balanced, escaped HTML construction for the generator.
//!
//! How the rest of the workspace consumes the extraction is mapped in the
//! repository's `ARCHITECTURE.md`.

pub mod builder;
pub mod entities;
pub mod scratch;
pub mod stream;
pub mod tokenizer;
pub mod visible;

pub use builder::HtmlBuilder;
pub use stream::{stream_extract, stream_visible_text_histogram, StreamSink};
