//! # langcrux-oracle
//!
//! The reference implementations that tests compare production code
//! with. No production crate depends on this one: it is named only in
//! `[dev-dependencies]` tables, so the crates `repro` links contain one
//! extractor, the streaming one.
//!
//! The oracle extracts a page the direct way: parse it into a tree, then
//! query the tree. Production derives the same [`PageExtract`] from
//! tokenizer events in one pass ([`langcrux_crawl::extract_streaming`]),
//! which is faster and allocates almost nothing, but is harder to read
//! against the contract. The two share every rule they can: the
//! tokenizer, the visibility rules, the whitespace normaliser, the void
//! and implicit-close rules and the region tracker come from production,
//! so what the oracle adds is only the tree and the queries over it. This
//! crate's tests pin the two paths equal on hand-picked, generated and
//! corpus pages.
//!
//! * [`dom`] — arena [`Document`] with id-based traversal.
//! * [`parser`] — tree construction with void elements and recovery.
//! * [`visible`] — the visible-text walk over a tree, and the replay of
//!   its tree-level events into a `StreamSink`.
//! * [`mod@extract`] — the DOM extractor, and the reference text counts.
//!
//! [`PageExtract`]: langcrux_crawl::PageExtract

pub mod dom;
pub mod extract;
pub mod parser;
pub mod visible;

pub use dom::{Document, NodeId, NodeKind};
pub use extract::{char_len, extract, word_count};
pub use parser::parse;
pub use visible::{element_hidden, visible_text, visible_text_histogram, walk_events};
