//! # langcrux-core
//!
//! The LangCrUX measurement pipeline: the paper's methodology (Figure 1)
//! end-to-end, plus the statistics and analyses behind every table and
//! figure of the evaluation.
//!
//! ```text
//! candidate pool ──select_languages──▶ 12 language-country pairs
//! corpus (webgen) ──build_dataset_with_ledger──▶ Dataset (the LangCrUX release)
//!                   (probe waves → rank-order selection → site analysis)
//!                   + CrawlLedger
//! Dataset ──analysis::*──▶ Table 2/3/4/5, Figures 2–9, headline findings
//! ```
//!
//! * [`stats`] — summaries, CDFs, histograms, count grids.
//! * [`selection`] — the §2 inclusion criteria (languages and websites).
//! * [`pipeline`] — crawl + extract + filter + classify + audit: the build
//!   engine run on the in-process worker pool, and the per-site analysis.
//! * [`ledger`] — the degraded-run ledger: per-country error taxonomy,
//!   retry/backoff/breaker accounting, replacement-chain depth.
//! * [`dist`] — the build engine (probe waves, the one unwind-guarded unit
//!   execution, the selection replay) and the fault-tolerant dispatcher
//!   that runs it on worker processes: lease-based reassignment,
//!   checkpoint/resume, and byte-identical recovery under injected crashes.
//! * [`dataset`] — the serializable LangCrUX data model.
//! * [`analysis`] — one function per paper artefact.
//! * [`render`] — plain-text rendering used by the `repro` harness.
//! * [`report`] — one-shot Markdown report over a whole dataset.

pub mod analysis;
pub mod dataset;
pub mod dist;
pub mod ledger;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod selection;
pub mod stats;

pub use dataset::{Dataset, SiteGaps, SiteRecord, TextState};
pub use dist::{
    build_dataset_distributed, DistBuild, DistHalted, DistOptions, DistStats, LocalExecutor,
    UnitError, UnitExecutor, UnitRequest, WireBuildConfig, WorkerState,
};
pub use ledger::{CountryLedger, CrawlLedger, DegradedUnit, ErrorTaxonomy};
pub use pipeline::{build_dataset, build_dataset_with_ledger, PipelineOptions};
pub use report::markdown_report;
pub use selection::{select_languages, LanguageVerdict};
