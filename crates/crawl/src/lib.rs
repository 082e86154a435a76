//! # langcrux-crawl
//!
//! The crawling layer of the reproduction: a Puppeteer-equivalent page
//! visitor (fetch → extract) and the worker pool the build runs it on.
//!
//! The paper "develop\[s\] a web crawler using Puppeteer, which simulates web
//! browsing conditions in a Chromium environment … capturing network-level
//! metadata, page structure, and accessibility indicators" (§2, Data
//! Collection). This crate produces the same artefacts from the simulated
//! internet:
//!
//! * [`mod@extract`] — what a page yields: visible text, `<html lang>`,
//!   and the twelve accessibility element kinds with their
//!   missing/empty/text states ([`PageExtract`]).
//! * [`stream`] — the extractor: [`extract_streaming`] derives the
//!   [`PageExtract`] from tokenizer events in one pass, with no DOM; the
//!   crawl path's per-visit hot loop. The DOM extractor that the tests
//!   compare it with is in the dev-only `langcrux-oracle` crate.
//! * [`regions`] — per-subtree language regions of the visible text
//!   (chrome landmarks, explicit `lang` subtrees); the carrier for
//!   translation-gap detection.
//! * [`browser`] — single-page visits under a production retry
//!   discipline: capped exponential backoff with deterministic jitter,
//!   per-visit fetch deadlines, and restricted-content detection.
//! * [`breaker`] — a per-host circuit breaker (closed → open → half-open)
//!   timed on the virtual clock.
//! * [`clock`] — the deterministic [`VirtualClock`] all waiting is
//!   counted against; nothing in the crawl layer ever sleeps.
//! * [`pool`] — a shared work-stealing worker pool with deterministic,
//!   scheduling-independent results: the executor behind the
//!   `langcrux-core` pipeline's `(country, chunk)` sharding.

pub mod breaker;
pub mod browser;
pub mod clock;
pub mod extract;
pub mod pool;
pub mod regions;
pub mod stream;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use browser::{Browser, BrowserConfig, Visit, VisitError, VisitTrace};
pub use clock::VirtualClock;
pub use extract::{ExtractedElement, PageExtract, TextSource};
pub use pool::{default_threads, run_work_stealing, run_work_stealing_with};
pub use regions::LangRegion;
pub use stream::extract_streaming;
