//! # langcrux-kizuki
//!
//! **Kizuki** (named after the Japanese word for "awareness") — the paper's
//! language-aware automated accessibility testing extension (§4).
//!
//! Base Lighthouse "audits are marked as present regardless of whether
//! their content matches the language of the surrounding interface";
//! Table 3's last column shows every audit passing wrong-language text.
//! Kizuki closes the gap: it detects the page's content language from the
//! *visible* text and re-evaluates accessibility text for language
//! consistency, then rescores the page.
//!
//! The crate is an extension framework, mirroring the paper's released
//! tool ("detailed documentation … how to extend it with custom
//! accessibility tests"): implement [`LanguageAwareCheck`] and register it
//! with [`Kizuki::with_check`]. The standard configuration ships the
//! paper's alt-text check ([`AltLanguageCheck`]).
//!
//! [`analysis`] reads each accessibility text once per page: one
//! [`PageAnalysis`] carries the filter verdict, the labels and the Table 2
//! counts that the checks, the speak order and the dataset record share.
//!
//! [`speak`] adds the user-experience lens the paper motivates with:
//! a screen-reader announcement simulator with per-language synthesiser
//! support profiles (VoiceOver-like: no Urdu/Amharic/Burmese, §1).

pub mod analysis;
pub mod checks;
pub mod engine;
pub mod speak;

pub use analysis::{ElementAnalysis, PageAnalysis, TextAnalysis};
pub use checks::{AltLanguageCheck, CheckOutcome, LanguageAwareCheck, LinkLanguageCheck};
pub use engine::{page_language, Kizuki, KizukiReport};
pub use speak::{GapSpeech, ScreenReader, SpeechOutcome, SpeechStats, Utterance};
