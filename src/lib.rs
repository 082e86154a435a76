//! # LangCrUX
//!
//! A from-scratch Rust reproduction of *"Not All Visitors are Bilingual: A
//! Measurement Study of the Multilingual Web from an Accessibility
//! Perspective"* (IMC 2025).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! * [`lang`] — scripts, languages, countries, Unicode tables, UI dictionaries.
//! * [`textgen`] — deterministic synthetic multilingual text generation.
//! * [`html`] — HTML tokenizer, visibility rules, the streaming
//!   tokenize→extract walk (no DOM anywhere in production), and the HTML
//!   builder the generator writes pages with.
//! * [`langid`] — script/language identification and label classification.
//! * [`net`] — simulated geo-localized internet with VPN vantage points.
//! * [`obs`] — unified observability: deterministic span tracing, one
//!   metrics registry, Chrome trace export (`docs/observability.md`).
//! * [`webgen`] — calibrated synthetic website generator + CrUX-style ranking.
//! * [`crawl`] — Puppeteer-like browser simulation and parallel crawler.
//! * [`audit`] — Axe/Lighthouse-like accessibility rules and scoring.
//! * [`filter`] — uninformative accessibility-text filtering (11 categories).
//! * [`kizuki`] — language-aware accessibility auditing extension.
//! * [`core`] — the LangCrUX dataset pipeline, statistics and analysis.
//! * [`serve`] — audit-as-a-service HTTP subsystem with a sharded
//!   response cache and loopback load generator.
//!
//! `ARCHITECTURE.md` at the repository root maps the crate graph, the
//! fused single-pass data flow (tokenizer → streaming extract → carried
//! histogram → selection/Kizuki/audit), the build engine's determinism
//! contract, and the serve cache design; `docs/benchmarks.md` explains
//! how the build and the serve path are measured (perfbench, the exact
//! checks in tier-1, the CI gates).

pub use langcrux_audit as audit;
pub use langcrux_core as core;
pub use langcrux_crawl as crawl;
pub use langcrux_filter as filter;
pub use langcrux_html as html;
pub use langcrux_kizuki as kizuki;
pub use langcrux_lang as lang;
pub use langcrux_langid as langid;
pub use langcrux_net as net;
pub use langcrux_obs as obs;
pub use langcrux_serve as serve;
pub use langcrux_textgen as textgen;
pub use langcrux_webgen as webgen;
