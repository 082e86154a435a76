//! # langcrux-filter
//!
//! The uninformative-accessibility-text filter (paper §3, Appendix H).
//!
//! "The presence of an `alt` or `aria-label` attribute does not guarantee
//! usefulness. Labels such as *button*, *file1*, or *image1* may satisfy
//! automated checks but provide no semantic value to screen reader users."
//! This crate classifies accessibility texts into eleven discard categories
//! or retains them as informative; Figures 3 and 9 of the paper are
//! distributions over these verdicts.
//!
//! * [`category::DiscardCategory`] — the taxonomy, with the paper's
//!   definitions quoted.
//! * [`rules::classify`] — priority-ordered matching, from
//!   [`rules::scan`]: one allocation-free pass per text that also yields
//!   its script histogram, character count and word count.
//! * [`stats::FilterStats`] — verdict accumulation for the analyses.

pub mod category;
pub mod rules;
pub mod stats;

pub use category::DiscardCategory;
pub use rules::{
    classify, is_informative, scan, TextScan, CONTINUA_KEEP_LEN, SINGLE_WORD_KEEP_LEN,
};
pub use stats::FilterStats;
