//! # langcrux-langid
//!
//! Language identification for the LangCrUX measurement pipeline.
//!
//! The paper validates language presence "via a Unicode-based heuristic
//! that matches visible text content against script-specific character
//! ranges", with "additional language-specific characters" for scripts
//! shared by several languages (§2). This crate implements exactly that
//! method, plus the downstream classifications the analysis needs:
//!
//! * [`mod@composition`] — native/English/other character shares of a text and
//!   the 50%-native website-inclusion test.
//! * [`classify`] — the Figure 4 label buckets (Native / English / Mixed).
//! * [`mod@detect`] — whole-language detection with Arabic↔Urdu↔Persian,
//!   Hindi↔Marathi and Mandarin↔Cantonese↔Japanese disambiguation, and a
//!   trigram-model comparison detector for the langid ablation.

pub mod classify;
pub mod composition;
pub mod detect;

pub use classify::{classify_histogram, classify_label, LabelLanguage};
pub use composition::{composition, composition_of_histogram, meets_native_threshold, Composition};
pub use detect::{detect, detect_with_histogram, TrigramDetector};
