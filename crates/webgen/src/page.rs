//! Page rendering: [`SitePlan`] → HTML + ground truth.
//!
//! Rendering is deterministic in `(plan.seed, variant, path)`. Alongside
//! the HTML the renderer returns a [`PageTruth`] describing exactly what it
//! planted, so integration tests can assert the crawl→extract→classify
//! pipeline *recovers* the planted distributions — the core correctness
//! argument of the reproduction.
//!
//! ## The render arena
//!
//! The hot entry point is [`render_into`], which renders through a
//! caller-owned [`RenderScratch`]: pooled [`TextGenerator`]s reseeded per
//! page, reusable label/attribute/paragraph buffers, and one recycled
//! [`HtmlBuilder`] whose output buffer amortises to the page size. In
//! steady state a render performs **no heap allocation** — every string the
//! old path returned is now appended into scratch. [`render`] is the
//! allocating convenience wrapper (fresh scratch per call) and the oracle
//! anchor: both paths are byte- and RNG-draw-identical (pinned against the
//! preserved pre-arena renderer in `langcrux-bench`). [`ScratchPool`]
//! shares scratches across crawl workers.
//!
//! Layout of the localized variant (per archetype counts):
//!
//! ```text
//! <!DOCTYPE html><html lang=…><head><title>…</title></head><body>
//!   <header><nav> links … </nav></header>
//!   <main>
//!     <h1>headline</h1> paragraphs (native/English mix per plan)
//!     <img alt=…> · <svg role=img><title>…</title></svg> · <iframe title=…>
//!     <details><summary>…</summary></details> · <object>…</object>
//!     <form> <label for=…>…</label><input> · <input type=image alt=…>
//!            <select aria-label=…> · <input type=submit value=…> </form>
//!     <button aria-label=…>visible</button> …
//!   </main>
//!   <footer> links … </footer>
//! </body></html>
//! ```
//!
//! The **global** variant keeps the same structure but serves
//! English-dominant visible text and English accessibility text — what a
//! cloud-vantage crawler sees. The **restricted** variant is a bot-wall
//! stub.

use crate::calibration::{element_calibration, estimated_page_bytes};
use crate::sample::{heavy_tail_len, int_between};
use crate::site::{GapPlan, LangBucket, SitePlan};
use langcrux_filter::DiscardCategory;
use langcrux_html::HtmlBuilder;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::{dict, rng, Language};
use langcrux_net::ContentVariant;
use langcrux_textgen::{MixedGenerator, TextGenerator};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Expected distinguishing characters per sentence for `lang`, relative to
/// English. CJK sentences carry ~0.4× the characters of an English sentence
/// with the same word count, so hitting a *character-share* target requires
/// boosting the native *sentence* probability. The ratio is measured once
/// per language from fixed-seed samples (deterministic) and cached.
fn char_ratio(lang: Language) -> f64 {
    static CACHE: OnceLock<Mutex<HashMap<Language, f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(v) = cache.lock().expect("ratio cache").get(&lang) {
        return *v;
    }
    let mean_chars = |l: Language| -> f64 {
        use langcrux_lang::script::ScriptHistogram;
        let mut g = TextGenerator::new(l, 0xC0FFEE);
        let mut total = 0usize;
        const SAMPLES: usize = 40;
        for _ in 0..SAMPLES {
            let hist = ScriptHistogram::of(&g.sentence());
            total += l
                .evidence_scripts()
                .iter()
                .map(|&s| hist.count(s))
                .sum::<usize>();
        }
        total as f64 / SAMPLES as f64
    };
    let ratio = (mean_chars(lang) / mean_chars(Language::English)).max(0.05);
    cache.lock().expect("ratio cache").insert(lang, ratio);
    ratio
}

/// Native-sentence probability needed for a target native *character*
/// share `t`, given the language's char ratio `r`: solves
/// `p·r / (p·r + (1-p)) = t`.
fn native_sentence_prob(target_share: f64, ratio: f64) -> f64 {
    let t = target_share.clamp(0.0, 1.0);
    (t / (ratio + t * (1.0 - ratio))).clamp(0.0, 1.0)
}

/// What was planted for one element kind on one page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindTruth {
    pub total: u32,
    pub missing: u32,
    pub empty: u32,
    /// Indexed by `DiscardCategory::ALL` order.
    pub uninformative: [u32; 11],
    pub informative_native: u32,
    pub informative_english: u32,
    pub informative_mixed: u32,
}

impl KindTruth {
    pub fn uninformative_total(&self) -> u32 {
        self.uninformative.iter().sum()
    }

    pub fn informative_total(&self) -> u32 {
        self.informative_native + self.informative_english + self.informative_mixed
    }

    pub fn merge(&mut self, other: &KindTruth) {
        self.total += other.total;
        self.missing += other.missing;
        self.empty += other.empty;
        for i in 0..11 {
            self.uninformative[i] += other.uninformative[i];
        }
        self.informative_native += other.informative_native;
        self.informative_english += other.informative_english;
        self.informative_mixed += other.informative_mixed;
    }
}

/// Translation-gap scenarios actually rendered into one page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapTruth {
    /// Nav/footer chrome was rendered in English instead of the page mix.
    pub chrome: bool,
    /// `<section lang=<native>>` blocks holding English text.
    pub attr_mismatch: u32,
    /// `<section lang="en">` correctly-tagged English blocks (controls —
    /// detection must NOT flag these).
    pub control_tagged: u32,
    /// Unmarked English `<aside>` fallback blocks.
    pub fallback: u32,
}

impl GapTruth {
    /// Number of regions detection is expected to flag (chrome counts as
    /// two: the nav and the footer each form a region).
    pub fn expected_gap_regions(&self) -> u32 {
        u32::from(self.chrome) * 2 + self.attr_mismatch + self.fallback
    }
}

/// Ground truth for one rendered page.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PageTruth {
    /// Indexed by `ElementKind::ALL` order.
    pub per_kind: [KindTruth; 12],
    /// The plan's target visible native share at render time.
    pub target_visible_native: f64,
    /// Translation-gap scenarios rendered into this page.
    pub gaps: GapTruth,
}

impl PageTruth {
    pub fn kind(&self, kind: ElementKind) -> &KindTruth {
        &self.per_kind[kind_index(kind)]
    }
}

/// Pick one of `terms` (of `fallback` when `terms` is empty) with one
/// `gen_range(0..len)` draw, without collecting either list.
fn pick_term<I>(r: &mut StdRng, terms: I, fallback: I) -> &'static str
where
    I: Iterator<Item = &'static str> + Clone,
{
    let mut pool = if terms.clone().next().is_some() {
        terms
    } else {
        fallback
    };
    let len = pool.clone().count();
    pool.nth(r.gen_range(0..len))
        .expect("draw is below the pool length")
}

fn sample_category(r: &mut StdRng, dist: &[f64; 11]) -> DiscardCategory {
    let total: f64 = dist.iter().sum();
    let mut roll = r.gen::<f64>() * total;
    for (i, &w) in dist.iter().enumerate() {
        if roll < w {
            return DiscardCategory::ALL[i];
        }
        roll -= w;
    }
    DiscardCategory::ALL[10]
}

fn kind_index(kind: ElementKind) -> usize {
    ElementKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("kind in ALL")
}

/// The pooled generators reseeded once per page. Split out of
/// [`RenderScratch`] so the [`Renderer`] can borrow the generators while
/// the builder and string buffers are lent out independently.
#[derive(Debug)]
struct GenScratch {
    rng: StdRng,
    native: TextGenerator,
    english: TextGenerator,
    mixed: MixedGenerator,
}

impl GenScratch {
    fn new() -> Self {
        GenScratch {
            rng: rng::rng_for(0, &[0]),
            native: TextGenerator::new(Language::English, 0),
            english: TextGenerator::new(Language::English, 0),
            mixed: MixedGenerator::new(Language::English, 0, 0.5),
        }
    }
}

/// A reusable render arena: everything one page render needs to run
/// without allocating. Create once per worker (or lease from a
/// [`ScratchPool`]) and pass to [`render_into`] for every page.
#[derive(Debug)]
pub struct RenderScratch {
    builder: HtmlBuilder,
    gen: GenScratch,
    /// Visible-text buffer (headline/paragraph/button text…).
    text: String,
    /// Planted accessibility-label buffer.
    label: String,
    /// Attribute-value buffer (`/img/3.jpg`, `field-2`, …).
    attr: String,
}

impl RenderScratch {
    /// A fresh arena with the output buffer pre-sized to the calibrated
    /// page estimate.
    pub fn new() -> Self {
        RenderScratch {
            builder: HtmlBuilder::document_sized(estimated_page_bytes()),
            gen: GenScratch::new(),
            text: String::with_capacity(512),
            label: String::with_capacity(128),
            attr: String::with_capacity(32),
        }
    }
}

impl Default for RenderScratch {
    fn default() -> Self {
        RenderScratch::new()
    }
}

/// A shared pool of [`RenderScratch`] arenas.
///
/// The corpus resolver renders inside the simulated internet, where any
/// crawl worker may trigger a page build; the pool hands each concurrent
/// render its own arena (one lock op per lease — negligible against the
/// ~100 µs render) and recycles arenas as workers finish, so steady-state
/// crawling performs zero render allocations regardless of worker count.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<RenderScratch>>,
}

impl ScratchPool {
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Lease an arena (creating one if the pool is dry), run `f`, return
    /// the arena to the pool.
    pub fn with<R>(&self, f: impl FnOnce(&mut RenderScratch) -> R) -> R {
        let mut scratch = self
            .pool
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_default();
        let result = f(&mut scratch);
        self.pool.lock().expect("scratch pool").push(scratch);
        result
    }

    /// Arenas currently parked in the pool (observability/tests).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("scratch pool").len()
    }
}

/// Render a page for the plan/variant/path. Deterministic.
///
/// Convenience wrapper over [`render_into`] with a fresh arena per call —
/// byte-identical to the pooled path. Hot loops (the corpus content
/// server, benchmarks) should hold a [`RenderScratch`] and call
/// [`render_into`] instead.
pub fn render(plan: &SitePlan, variant: ContentVariant, path: &str) -> (String, PageTruth) {
    let mut scratch = RenderScratch::new();
    let mut out = String::new();
    let truth = render_into(plan, variant, path, &mut scratch, &mut out);
    (out, truth)
}

/// Render a page through a reusable arena, appending the HTML to `out`.
///
/// Output bytes and RNG draws are independent of the arena's history —
/// every generator is reseeded from `(plan.seed, variant, path)` and every
/// buffer reset — so `(plan, variant, path)` alone determines the page at
/// any worker count (the corpus determinism contract).
pub fn render_into(
    plan: &SitePlan,
    variant: ContentVariant,
    path: &str,
    scratch: &mut RenderScratch,
    out: &mut String,
) -> PageTruth {
    // Key = (host, variant): deterministic across worker counts, and the
    // span nests inside crawl.fetch when rendering answers a fetch.
    let _render_span = langcrux_obs::trace::span(
        "webgen.render",
        langcrux_obs::trace::key_str(&plan.host) ^ (variant as u64 + 1),
    );
    let RenderScratch {
        builder,
        gen,
        text,
        label,
        attr,
    } = scratch;
    builder.reset_document();
    let truth = match variant {
        ContentVariant::Restricted => {
            render_restricted_into(plan, builder, text);
            PageTruth::default()
        }
        ContentVariant::Localized | ContentVariant::Global => {
            Renderer::attach(plan, variant, path, gen).render(builder, text, label, attr)
        }
    };
    out.push_str(builder.as_str());
    truth
}

fn render_restricted_into(plan: &SitePlan, b: &mut HtmlBuilder, text: &mut String) {
    b.open("html", &[("lang", Some("en"))]);
    b.open("head", &[]);
    b.leaf("title", &[], "Access denied");
    b.close();
    b.open("body", &[]);
    text.clear();
    let _ = write!(
        text,
        "Access to {} from your network is restricted. Please disable \
         proxy or VPN services and try again.",
        plan.host
    );
    b.leaf("p", &[], text);
    b.close();
    b.close();
}

/// What [`Renderer::plant`] decided for one slot; informative and
/// uninformative text lands in the caller's label buffer (the language
/// bucket / discard category only matter to the truth counters).
enum Planted {
    Missing,
    Empty,
    /// The label buffer holds the planted text.
    Text,
}

struct Renderer<'a> {
    plan: &'a SitePlan,
    variant: ContentVariant,
    g: &'a mut GenScratch,
    truth: PageTruth,
    /// Effective visible-native share for this variant.
    visible_native: f64,
    counter: u32,
    /// Gap scenarios active for this render (the plan's scenarios on the
    /// localized variant; always off on global/restricted, which are
    /// English-dominant or stubs anyway).
    gaps: GapPlan,
    /// Dedicated RNG stream (`0x55`) for gap-block sampling. Never shared
    /// with `g.rng`, so a plan without scenarios renders byte- and
    /// draw-identically whether or not gap support exists.
    gap_rng: StdRng,
}

impl<'a> Renderer<'a> {
    fn attach(
        plan: &'a SitePlan,
        variant: ContentVariant,
        path: &str,
        g: &'a mut GenScratch,
    ) -> Self {
        let vstream = match variant {
            ContentVariant::Localized => 1,
            ContentVariant::Global => 2,
            ContentVariant::Restricted => 3,
        };
        let page_seed = rng::derive(plan.seed, &[vstream, rng::stream_id(path)]);
        let native_lang = plan.native_language();
        let target_share = match variant {
            ContentVariant::Localized => plan.visible_native_share,
            // The global variant is English-dominant: the residual native
            // share models navigation crumbs and brand names.
            ContentVariant::Global => (plan.visible_native_share * 0.12).min(0.10),
            ContentVariant::Restricted => 0.0,
        };
        // Convert the character-share target into a sentence probability
        // (CJK sentences carry fewer characters; see char_ratio()).
        let visible_native = native_sentence_prob(target_share, char_ratio(native_lang));
        g.rng = rng::rng_for(page_seed, &[0x11]);
        g.native
            .reseed(native_lang, rng::derive(page_seed, &[0x22]));
        g.english
            .reseed(Language::English, rng::derive(page_seed, &[0x33]));
        g.mixed
            .reseed(native_lang, rng::derive(page_seed, &[0x44]), 0.5);
        let gaps = if variant == ContentVariant::Localized {
            plan.gaps
        } else {
            GapPlan::default()
        };
        Renderer {
            plan,
            variant,
            g,
            truth: PageTruth {
                target_visible_native: target_share,
                ..PageTruth::default()
            },
            visible_native,
            counter: 0,
            gaps,
            gap_rng: rng::rng_for(page_seed, &[0x55]),
        }
    }

    fn next_id(&mut self) -> u32 {
        self.counter += 1;
        self.counter
    }

    /// Visible text in the page's language mix, appended to `out`.
    fn append_visible_phrase(&mut self, min: usize, max: usize, out: &mut String) {
        if self.g.rng.gen::<f64>() < self.visible_native {
            self.g.native.append_phrase(min, max, out);
        } else {
            self.g.english.append_phrase(min, max, out);
        }
    }

    /// One visible sentence in the page's language mix, appended to `out`.
    fn append_visible_sentence(&mut self, out: &mut String) {
        if self.g.rng.gen::<f64>() < self.visible_native {
            self.g.native.append_sentence(out);
        } else {
            self.g.english.append_sentence(out);
        }
    }

    /// Count of elements of `kind` for this page.
    fn count_for(&mut self, kind: ElementKind) -> usize {
        let cal = element_calibration(kind);
        let base = int_between(&mut self.g.rng, cal.per_page.0, cal.per_page.1);
        let factor = self.plan.archetype.count_factor(kind);
        ((base as f64 * factor).round() as usize).max(cal.per_page.0)
    }

    /// Decide what to plant for one slot of `kind`, record the truth, and
    /// (for text outcomes) write the label into `label`.
    fn plant(&mut self, kind: ElementKind, label: &mut String) -> Planted {
        let (missing_rate, empty_rate) = self.plan.rates(kind);
        let truth = &mut self.truth.per_kind[kind_index(kind)];
        truth.total += 1;

        let roll: f64 = self.g.rng.gen();
        if roll < missing_rate {
            truth.missing += 1;
            return Planted::Missing;
        }
        if roll < missing_rate + empty_rate {
            truth.empty += 1;
            return Planted::Empty;
        }

        label.clear();
        let (discard_total, discard_dist) = self.plan.discard_profile(kind);
        if self.g.rng.gen::<f64>() < discard_total {
            let cat = sample_category(&mut self.g.rng, &discard_dist);
            self.append_uninformative(kind, cat, label);
            self.truth.per_kind[kind_index(kind)].uninformative[DiscardCategory::ALL
                .iter()
                .position(|&c| c == cat)
                .expect("cat")] += 1;
            return Planted::Text;
        }

        // Informative label. The global variant serves English a11y text.
        let bucket = if self.variant == ContentVariant::Global {
            LangBucket::English
        } else {
            self.plan.sample_bucket(&mut self.g.rng)
        };
        self.append_informative(kind, bucket, label);
        let truth = &mut self.truth.per_kind[kind_index(kind)];
        match bucket {
            LangBucket::Native => truth.informative_native += 1,
            LangBucket::English => truth.informative_english += 1,
            LangBucket::Mixed => truth.informative_mixed += 1,
        }
        Planted::Text
    }

    fn append_informative(&mut self, kind: ElementKind, bucket: LangBucket, out: &mut String) {
        let cal = element_calibration(kind);
        let (min, max) = cal.words;
        // Thai/CJK single tokens must clear the filter's length bars to
        // stay informative; widen the floor for continua scripts.
        let native_lang = self.plan.native_language();
        let min = if native_lang == Language::Thai && bucket != LangBucket::English {
            min.max(3)
        } else if bucket == LangBucket::Mixed {
            min.max(2)
        } else {
            min
        };
        let max = max.max(min);
        let start = out.len();
        match bucket {
            LangBucket::Native => self.g.native.append_phrase(min, max, out),
            LangBucket::English => self.g.english.append_phrase(min, max, out),
            LangBucket::Mixed => self.g.mixed.append_phrase(min, max, out),
        }
        if cal.outlier_chance > 0.0 && self.g.rng.gen::<f64>() < cal.outlier_chance {
            // Same draw order as the historical path: the base phrase is
            // generated first, then discarded in favour of the outlier.
            out.truncate(start);
            self.append_outlier(bucket, out);
        }
    }

    /// Appendix E: extreme alt texts — entire paragraphs or boilerplate
    /// dumps mistakenly placed in accessibility attributes.
    fn append_outlier(&mut self, bucket: LangBucket, out: &mut String) {
        let target = heavy_tail_len(&mut self.g.rng, (1_200, 4_000), (8_000, 260_000), 0.10);
        out.reserve(target + 64);
        // Track the char count incrementally: re-scanning a 260k-char
        // outlier per appended paragraph is quadratic.
        let mut chars = 0usize;
        while chars < target {
            let before = out.len();
            match bucket {
                LangBucket::Native => self.g.native.append_paragraph(3, out),
                _ => self.g.english.append_paragraph(3, out),
            }
            chars += out[before..].chars().count();
            out.push(' ');
            chars += 1;
        }
    }

    fn append_uninformative(&mut self, _kind: ElementKind, cat: DiscardCategory, out: &mut String) {
        let n = self.next_id();
        let native = self.plan.native_language();
        // Label-language choice for dictionary categories follows the
        // site's a11y language profile (an English-defaulting site plants
        // English "search" buttons).
        let use_native = {
            let (nat, _, mix) = self.plan.lang_weights;
            self.g.rng.gen::<f64>() < (nat + mix * 0.5)
        };
        match cat {
            DiscardCategory::Emoji => {
                const EMOJI: &[&str] = &["📷", "🔍", "▶", "✕", "☰", "⭐", "➜", "🏠", "📧"];
                out.push_str(EMOJI[self.g.rng.gen_range(0..EMOJI.len())]);
            }
            DiscardCategory::TooShort => {
                if native.primary_script().is_cjk() && use_native {
                    let start = out.len();
                    self.g.native.append_word(out);
                    // Keep only the first char (historical `take(1)`).
                    if let Some(first) = out[start..].chars().next() {
                        out.truncate(start + first.len_utf8());
                    }
                } else {
                    const SHORT: &[&str] = &["go", "ok", "..", ">>", "NA", "x"];
                    out.push_str(SHORT[self.g.rng.gen_range(0..SHORT.len())]);
                }
            }
            DiscardCategory::FileName => {
                const STEMS: &[&str] = &["banner_img", "photo-", "IMG_", "slide_", "pic", "hero-"];
                const EXTS: &[&str] = &["jpg", "png", "jpeg", "webp", "gif"];
                let stem = STEMS[self.g.rng.gen_range(0..STEMS.len())];
                let ext = EXTS[self.g.rng.gen_range(0..EXTS.len())];
                let _ = write!(out, "{stem}{n}.{ext}");
            }
            DiscardCategory::UrlOrFilePath => {
                if self.g.rng.gen_bool(0.5) {
                    let _ = write!(out, "https://{}/images/{}.png", self.plan.host, n);
                } else {
                    let _ = write!(out, "/assets/img/item-{n}.svg");
                }
            }
            DiscardCategory::GenericAction => {
                let lang = if use_native {
                    native
                } else {
                    Language::English
                };
                let pool = dict::actions_in(lang);
                let fallback = dict::actions_in(Language::English);
                out.push_str(pick_term(&mut self.g.rng, pool, fallback));
            }
            DiscardCategory::Placeholder => {
                let lang = if use_native {
                    native
                } else {
                    Language::English
                };
                let pool = dict::placeholders_in(lang);
                let fallback = dict::placeholders_in(Language::English);
                out.push_str(pick_term(&mut self.g.rng, pool, fallback));
            }
            DiscardCategory::DevLabel => {
                const HEADS: &[&str] = &["btn", "nav", "img", "ico", "hdr", "card", "mod"];
                const TAILS: &[&str] = &["submit", "menu", "main", "item", "box", "wrap", "toggle"];
                let head = HEADS[self.g.rng.gen_range(0..HEADS.len())];
                let tail = TAILS[self.g.rng.gen_range(0..TAILS.len())];
                match self.g.rng.gen_range(0..3u8) {
                    0 => {
                        let _ = write!(out, "{head}-{tail}");
                    }
                    1 => {
                        let _ = write!(out, "{head}_{tail}");
                    }
                    _ => {
                        // headTailCap: capitalise the tail's first letter
                        // (tails are ASCII).
                        out.push_str(head);
                        out.push(tail.as_bytes()[0].to_ascii_uppercase() as char);
                        out.push_str(&tail[1..]);
                    }
                }
            }
            DiscardCategory::LabelNumberPattern => {
                const WORDS: &[&str] = &["image", "button", "slide", "figure", "banner", "item"];
                let word = WORDS[self.g.rng.gen_range(0..WORDS.len())];
                let num = self.g.rng.gen_range(1..20u8);
                let _ = write!(out, "{word} {num}");
            }
            DiscardCategory::SingleWord => {
                if use_native && !native.primary_script().is_cjk() {
                    // A short native single word (below the keep thresholds).
                    for _ in 0..8 {
                        let start = out.len();
                        self.g.native.append_word(out);
                        let w = &out[start..];
                        let len = w.chars().count();
                        if (3..8).contains(&len) && !w.contains(' ') {
                            return;
                        }
                        out.truncate(start);
                    }
                }
                const WORDS: &[&str] = &[
                    "photo", "economy", "sports", "market", "health", "culture", "weather",
                    "travel", "profile",
                ];
                out.push_str(WORDS[self.g.rng.gen_range(0..WORDS.len())]);
            }
            DiscardCategory::MixedAlnum => {
                const STEMS: &[&str] = &["img", "icon", "pic", "fig", "ad", "file"];
                let stem = STEMS[self.g.rng.gen_range(0..STEMS.len())];
                let _ = write!(out, "{stem}{n}");
            }
            DiscardCategory::OrdinalPhrase => {
                let b = self.g.rng.gen_range(3..12u8);
                let a = self.g.rng.gen_range(1..=b);
                if self.g.rng.gen_bool(0.5) {
                    let _ = write!(out, "{a} of {b}");
                } else {
                    let _ = write!(out, "{a}/{b}");
                }
            }
        }
    }

    /// Test-only returning wrappers: the plant/detect agreement tests
    /// sample instances directly.
    #[cfg(test)]
    fn uninformative_instance(&mut self, kind: ElementKind, cat: DiscardCategory) -> String {
        let mut out = String::new();
        self.append_uninformative(kind, cat, &mut out);
        out
    }

    #[cfg(test)]
    fn informative_instance(&mut self, kind: ElementKind, bucket: LangBucket) -> String {
        let mut out = String::new();
        self.append_informative(kind, bucket, &mut out);
        out
    }

    /// Stream the page into `b`. The scratch buffers hold, at any moment,
    /// at most one visible text (`text`), one planted label (`label`) and
    /// one attribute value (`attr`) — the three never alias.
    fn render(
        mut self,
        b: &mut HtmlBuilder,
        text: &mut String,
        label: &mut String,
        attr: &mut String,
    ) -> PageTruth {
        self.truth.gaps.chrome = self.gaps.chrome;
        let lang_attr: &str =
            if self.variant == ContentVariant::Global || self.plan.declared_lang_wrong {
                // Wrongly-declared sites keep the template default ("en")
                // even though the content is native — a common real-world
                // authoring error the paper's §1 calls out.
                "en"
            } else {
                self.plan.native_language().tag()
            };
        if self.plan.declares_lang {
            b.open("html", &[("lang", Some(lang_attr))]);
        } else {
            b.open("html", &[]);
        }

        // <head><title> — DocumentTitle slot.
        b.open("head", &[]);
        b.void("meta", &[("charset", Some("utf-8"))]);
        match self.plant(ElementKind::DocumentTitle, label) {
            Planted::Missing => {}
            Planted::Empty => {
                b.leaf("title", &[], "");
            }
            Planted::Text => {
                b.leaf("title", &[], label);
            }
        }
        b.close(); // head

        b.open("body", &[]);

        // Header nav links (a share of all links).
        let total_links = self.count_for(ElementKind::LinkName);
        let nav_links = (total_links / 5).clamp(3, 14);
        b.open("header", &[]);
        b.open("nav", &[]);
        for i in 0..nav_links {
            attr.clear();
            let _ = write!(attr, "/nav/{i}");
            self.render_link(b, text, label, attr, true);
        }
        b.close();
        b.close();

        b.open("main", &[]);
        text.clear();
        self.append_visible_phrase(3, 8, text);
        b.leaf("h1", &[], text);

        // Article paragraphs: the bulk of visible text. One scratch
        // buffer serves every paragraph of the page (allocation diet).
        let paragraphs = int_between(&mut self.g.rng, 6, 16);
        for _ in 0..paragraphs {
            let sentences = int_between(&mut self.g.rng, 2, 5);
            text.clear();
            for _ in 0..sentences {
                self.append_visible_sentence(text);
                text.push(' ');
            }
            b.leaf("p", &[], text.trim());
        }

        self.render_gap_sections(b, text);

        // Images.
        let images = self.count_for(ElementKind::ImageAlt);
        for i in 0..images {
            attr.clear();
            let _ = write!(attr, "/img/{i}.jpg");
            match self.plant(ElementKind::ImageAlt, label) {
                Planted::Missing => {
                    b.void("img", &[("src", Some(attr.as_str()))]);
                }
                Planted::Empty => {
                    b.void("img", &[("src", Some(attr.as_str())), ("alt", Some(""))]);
                }
                Planted::Text => {
                    b.void(
                        "img",
                        &[("src", Some(attr.as_str())), ("alt", Some(label.as_str()))],
                    );
                }
            }
        }

        // Inline SVG icons (svg-img-alt: <title> child or aria-label).
        let svgs = self.count_for(ElementKind::SvgImgAlt);
        for _ in 0..svgs {
            match self.plant(ElementKind::SvgImgAlt, label) {
                Planted::Missing => {
                    b.open(
                        "svg",
                        &[("role", Some("img")), ("viewBox", Some("0 0 24 24"))],
                    );
                    b.raw("<path d=\"M0 0h24v24H0z\"/>");
                    b.close();
                }
                Planted::Empty => {
                    b.open("svg", &[("role", Some("img")), ("aria-label", Some(""))]);
                    b.raw("<path d=\"M0 0h24v24H0z\"/>");
                    b.close();
                }
                Planted::Text => {
                    b.open("svg", &[("role", Some("img"))]);
                    b.leaf("title", &[], label);
                    b.raw("<path d=\"M0 0h24v24H0z\"/>");
                    b.close();
                }
            }
        }

        // Iframes.
        let frames = self.count_for(ElementKind::FrameTitle);
        for i in 0..frames {
            attr.clear();
            let _ = write!(attr, "/embed/{i}");
            match self.plant(ElementKind::FrameTitle, label) {
                Planted::Missing => {
                    b.leaf("iframe", &[("src", Some(attr.as_str()))], "");
                }
                Planted::Empty => {
                    b.leaf(
                        "iframe",
                        &[("src", Some(attr.as_str())), ("title", Some(""))],
                        "",
                    );
                }
                Planted::Text => {
                    b.leaf(
                        "iframe",
                        &[
                            ("src", Some(attr.as_str())),
                            ("title", Some(label.as_str())),
                        ],
                        "",
                    );
                }
            }
        }

        // Details/summary.
        let summaries = self.count_for(ElementKind::SummaryName);
        for _ in 0..summaries {
            b.open("details", &[]);
            match self.plant(ElementKind::SummaryName, label) {
                Planted::Missing => {
                    b.leaf("summary", &[], "");
                }
                Planted::Empty => {
                    b.leaf("summary", &[("aria-label", Some(""))], "");
                }
                Planted::Text => {
                    b.leaf("summary", &[], label);
                }
            }
            text.clear();
            self.append_visible_sentence(text);
            b.leaf("p", &[], text);
            b.close();
        }

        // Object embeds.
        let objects = self.count_for(ElementKind::ObjectAlt);
        for i in 0..objects {
            attr.clear();
            let _ = write!(attr, "/media/{i}.pdf");
            match self.plant(ElementKind::ObjectAlt, label) {
                Planted::Missing => {
                    b.leaf("object", &[("data", Some(attr.as_str()))], "");
                }
                Planted::Empty => {
                    b.leaf(
                        "object",
                        &[("data", Some(attr.as_str())), ("aria-label", Some(""))],
                        "",
                    );
                }
                Planted::Text => {
                    b.leaf(
                        "object",
                        &[
                            ("data", Some(attr.as_str())),
                            ("aria-label", Some(label.as_str())),
                        ],
                        "",
                    );
                }
            }
        }

        // Form: labels + inputs, image inputs, selects, submit buttons.
        b.open(
            "form",
            &[("action", Some("/submit")), ("method", Some("post"))],
        );
        let labels = self.count_for(ElementKind::Label);
        for i in 0..labels {
            attr.clear();
            let _ = write!(attr, "field-{i}");
            match self.plant(ElementKind::Label, label) {
                Planted::Missing => {
                    b.void(
                        "input",
                        &[
                            ("type", Some("text")),
                            ("id", Some(attr.as_str())),
                            ("name", Some(attr.as_str())),
                        ],
                    );
                }
                Planted::Empty => {
                    b.leaf("label", &[("for", Some(attr.as_str()))], "");
                    b.void(
                        "input",
                        &[("type", Some("text")), ("id", Some(attr.as_str()))],
                    );
                }
                Planted::Text => {
                    b.leaf("label", &[("for", Some(attr.as_str()))], label);
                    b.void(
                        "input",
                        &[("type", Some("text")), ("id", Some(attr.as_str()))],
                    );
                }
            }
        }
        let image_inputs = self.count_for(ElementKind::InputImageAlt);
        for i in 0..image_inputs {
            attr.clear();
            let _ = write!(attr, "/img/btn{i}.png");
            match self.plant(ElementKind::InputImageAlt, label) {
                Planted::Missing => {
                    b.void(
                        "input",
                        &[("type", Some("image")), ("src", Some(attr.as_str()))],
                    );
                }
                Planted::Empty => {
                    b.void(
                        "input",
                        &[
                            ("type", Some("image")),
                            ("src", Some(attr.as_str())),
                            ("alt", Some("")),
                        ],
                    );
                }
                Planted::Text => {
                    b.void(
                        "input",
                        &[
                            ("type", Some("image")),
                            ("src", Some(attr.as_str())),
                            ("alt", Some(label.as_str())),
                        ],
                    );
                }
            }
        }
        let selects = self.count_for(ElementKind::SelectName);
        for i in 0..selects {
            attr.clear();
            let _ = write!(attr, "select-{i}");
            match self.plant(ElementKind::SelectName, label) {
                Planted::Missing => {
                    b.open("select", &[("id", Some(attr.as_str()))]);
                }
                Planted::Empty => {
                    b.open(
                        "select",
                        &[("id", Some(attr.as_str())), ("aria-label", Some(""))],
                    );
                }
                Planted::Text => {
                    b.open(
                        "select",
                        &[
                            ("id", Some(attr.as_str())),
                            ("aria-label", Some(label.as_str())),
                        ],
                    );
                }
            }
            const OPTION_VALUES: [&str; 3] = ["0", "1", "2"];
            for value in OPTION_VALUES {
                text.clear();
                self.append_visible_phrase(1, 2, text);
                b.leaf("option", &[("value", Some(value))], text);
            }
            b.close();
        }
        let input_buttons = self.count_for(ElementKind::InputButtonName);
        for _ in 0..input_buttons {
            match self.plant(ElementKind::InputButtonName, label) {
                Planted::Missing => {
                    b.void("input", &[("type", Some("submit"))]);
                }
                Planted::Empty => {
                    b.void("input", &[("type", Some("submit")), ("value", Some(""))]);
                }
                Planted::Text => {
                    b.void(
                        "input",
                        &[("type", Some("submit")), ("value", Some(label.as_str()))],
                    );
                }
            }
        }
        b.close(); // form

        // Buttons (visible text + optional aria-label).
        let buttons = self.count_for(ElementKind::ButtonName);
        for _ in 0..buttons {
            text.clear();
            self.append_visible_phrase(1, 2, text);
            match self.plant(ElementKind::ButtonName, label) {
                Planted::Missing => {
                    b.leaf("button", &[("type", Some("button"))], text);
                }
                Planted::Empty => {
                    b.leaf(
                        "button",
                        &[("type", Some("button")), ("aria-label", Some(""))],
                        text,
                    );
                }
                Planted::Text => {
                    b.leaf(
                        "button",
                        &[
                            ("type", Some("button")),
                            ("aria-label", Some(label.as_str())),
                        ],
                        text,
                    );
                }
            }
        }

        // Body links.
        let body_links = total_links.saturating_sub(nav_links);
        for i in 0..body_links {
            attr.clear();
            let _ = write!(attr, "/article/{i}");
            self.render_link(b, text, label, attr, false);
        }
        b.close(); // main

        if self.gaps.fallback {
            // Unmarked English fallback block: no lang attribute, not a
            // chrome landmark's normal content — exactly the "fallback
            // strings shipped untranslated" scenario.
            b.open("aside", &[]);
            self.append_gap_block(b, text);
            b.close();
            self.truth.gaps.fallback += 1;
        }

        b.open("footer", &[]);
        text.clear();
        if self.gaps.chrome {
            self.g.english.append_sentence(text);
        } else {
            self.append_visible_sentence(text);
        }
        b.leaf("p", &[], text);
        b.close();

        b.close(); // body
        b.close(); // html
        self.truth
    }

    /// Partial-localisation section blocks, rendered inside `<main>`.
    ///
    /// Gap sampling draws only from the dedicated `gap_rng` stream and the
    /// English generator; a plan with no scenarios reaches none of it, so
    /// the default corpus is untouched byte for byte.
    fn render_gap_sections(&mut self, b: &mut HtmlBuilder, text: &mut String) {
        if self.gaps.attr_mismatch {
            // Tagged with the native language, shipped in English: the
            // lang metadata contradicts the content.
            b.open(
                "section",
                &[("lang", Some(self.plan.native_language().tag()))],
            );
            self.append_gap_block(b, text);
            b.close();
            self.truth.gaps.attr_mismatch += 1;
        }
        if self.gaps.control_tagged {
            // Correctly tagged English: the control detection must pass.
            b.open("section", &[("lang", Some("en"))]);
            self.append_gap_block(b, text);
            b.close();
            self.truth.gaps.control_tagged += 1;
        }
    }

    /// A paragraph of English sentences for a gap/control block.
    fn append_gap_block(&mut self, b: &mut HtmlBuilder, text: &mut String) {
        let sentences = int_between(&mut self.gap_rng, 2, 4);
        text.clear();
        for _ in 0..sentences {
            self.g.english.append_sentence(text);
            text.push(' ');
        }
        b.leaf("p", &[], text.trim());
    }

    fn render_link(
        &mut self,
        b: &mut HtmlBuilder,
        text: &mut String,
        label: &mut String,
        href: &str,
        chrome: bool,
    ) {
        text.clear();
        if chrome && self.gaps.chrome {
            // Untranslated chrome: nav link text stays English regardless
            // of the page's language mix. Two-word floor keeps the nav
            // region above the detector's evidence threshold even on
            // three-link navs.
            self.g.english.append_phrase(2, 4, text);
        } else {
            self.append_visible_phrase(1, 4, text);
        }
        match self.plant(ElementKind::LinkName, label) {
            Planted::Missing => {
                b.leaf("a", &[("href", Some(href))], text);
            }
            Planted::Empty => {
                b.leaf("a", &[("href", Some(href)), ("aria-label", Some(""))], text);
            }
            Planted::Text => {
                b.leaf(
                    "a",
                    &[("href", Some(href)), ("aria-label", Some(label.as_str()))],
                    text,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_lang::Country;
    use langcrux_oracle::{parse, visible_text};

    fn plan(country: Country, idx: u32) -> SitePlan {
        SitePlan::build(1234, country, idx, Some(true))
    }

    #[test]
    fn render_is_deterministic() {
        let p = plan(Country::Bangladesh, 0);
        let (a, ta) = render(&p, ContentVariant::Localized, "/");
        let (b, tb) = render(&p, ContentVariant::Localized, "/");
        assert_eq!(a, b);
        assert_eq!(ta.per_kind, tb.per_kind);
    }

    #[test]
    fn pooled_scratch_renders_are_history_independent() {
        // The same plan must render identically on a cold scratch, on a
        // scratch that just rendered other pages, and via the wrapper.
        let p = plan(Country::Japan, 4);
        let (expect, expect_truth) = render(&p, ContentVariant::Localized, "/");
        let mut scratch = RenderScratch::new();
        let mut out = String::new();
        for warm in [Country::Thailand, Country::Russia, Country::Egypt] {
            out.clear();
            render_into(
                &plan(warm, 9),
                ContentVariant::Global,
                "/",
                &mut scratch,
                &mut out,
            );
        }
        out.clear();
        let truth = render_into(&p, ContentVariant::Localized, "/", &mut scratch, &mut out);
        assert_eq!(out, expect);
        assert_eq!(truth, expect_truth);
    }

    #[test]
    fn scratch_pool_recycles_arenas() {
        let pool = ScratchPool::new();
        let p = plan(Country::Greece, 1);
        let (expect, _) = render(&p, ContentVariant::Localized, "/");
        for _ in 0..3 {
            let html = pool.with(|scratch| {
                let mut out = String::new();
                render_into(&p, ContentVariant::Localized, "/", scratch, &mut out);
                out
            });
            assert_eq!(html, expect);
        }
        assert_eq!(pool.idle(), 1, "sequential leases reuse one arena");
    }

    #[test]
    fn variants_differ() {
        let p = plan(Country::Bangladesh, 0);
        let (local, _) = render(&p, ContentVariant::Localized, "/");
        let (global, _) = render(&p, ContentVariant::Global, "/");
        assert_ne!(local, global);
    }

    #[test]
    fn html_parses_and_contains_structure() {
        let p = plan(Country::Thailand, 3);
        let (html, truth) = render(&p, ContentVariant::Localized, "/");
        let doc = parse(&html);
        assert_eq!(
            doc.elements_named("img").count(),
            truth.kind(ElementKind::ImageAlt).total as usize
        );
        assert_eq!(
            doc.elements_named("button").count(),
            truth.kind(ElementKind::ButtonName).total as usize
        );
        assert_eq!(
            doc.elements_named("a").count(),
            truth.kind(ElementKind::LinkName).total as usize
        );
        assert!(doc.elements_named("form").count() >= 1);
    }

    fn gapped_plan(country: Country, idx: u32) -> SitePlan {
        SitePlan::build_gapped(1234, country, idx, Some(true), true)
    }

    /// First index whose gap plan plants every scenario kind (chrome,
    /// mismatch, control, fallback) for the country/seed above.
    fn full_gap_plan(country: Country) -> SitePlan {
        (0..5_000)
            .map(|i| gapped_plan(country, i))
            .find(|p| {
                p.gaps.chrome && p.gaps.attr_mismatch && p.gaps.control_tagged && p.gaps.fallback
            })
            .expect("some site plants all four scenarios")
    }

    #[test]
    fn gapless_plans_render_identically_under_gap_support() {
        // A plan built with gap sampling enabled but no scenario selected
        // renders byte-identically to the plain build — and the plain
        // build itself must be unchanged by the gap machinery.
        for idx in 0..30 {
            let off = plan(Country::Bangladesh, idx);
            let gapped = gapped_plan(Country::Bangladesh, idx);
            let (html_off, truth_off) = render(&off, ContentVariant::Localized, "/");
            if !gapped.gaps.any() {
                let (html_on, truth_on) = render(&gapped, ContentVariant::Localized, "/");
                assert_eq!(html_off, html_on, "site {idx}");
                assert_eq!(truth_off, truth_on, "site {idx}");
            }
            assert_eq!(truth_off.gaps, GapTruth::default());
            assert!(!html_off.contains("<aside"));
        }
    }

    #[test]
    fn gap_scenarios_render_deterministically_with_structure_intact() {
        let p = full_gap_plan(Country::Thailand);
        let (a, ta) = render(&p, ContentVariant::Localized, "/");
        let (b, tb) = render(&p, ContentVariant::Localized, "/");
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        assert!(ta.gaps.chrome);
        assert_eq!(ta.gaps.attr_mismatch, 1);
        assert_eq!(ta.gaps.control_tagged, 1);
        assert_eq!(ta.gaps.fallback, 1);
        assert_eq!(ta.gaps.expected_gap_regions(), 4);
        // Injected blocks carry no counted element kinds: the structural
        // truth still matches the DOM exactly.
        let doc = parse(&a);
        assert_eq!(
            doc.elements_named("img").count(),
            ta.kind(ElementKind::ImageAlt).total as usize
        );
        assert_eq!(
            doc.elements_named("a").count(),
            ta.kind(ElementKind::LinkName).total as usize
        );
        assert_eq!(doc.elements_named("aside").count(), 1);
        assert_eq!(doc.elements_named("section").count(), 2);
    }

    #[test]
    fn gap_scenarios_only_affect_the_localized_variant() {
        let p = full_gap_plan(Country::Japan);
        let mut ungapped = p.clone();
        ungapped.gaps = crate::site::GapPlan::default();
        let (with_gaps, truth) = render(&p, ContentVariant::Global, "/");
        let (without, _) = render(&ungapped, ContentVariant::Global, "/");
        assert_eq!(with_gaps, without, "global variant ignores gap plans");
        assert_eq!(truth.gaps, GapTruth::default());
    }

    #[test]
    fn rendered_gaps_are_detected_by_the_audit_layer() {
        // End-to-end plant→detect agreement on corpus pages: every
        // scenario the renderer plants must surface in the gap report,
        // and the control section must not.
        use langcrux_audit::{gap_report, GapKind};
        use langcrux_crawl::extract_streaming;
        let mut seen_chrome = 0u32;
        let mut seen_mismatch = 0u32;
        let mut seen_fallback = 0u32;
        for idx in 0..200 {
            let p = gapped_plan(Country::Bangladesh, idx);
            // Mismatch-profile sites have English-heavy visible text where
            // chrome gaps are genuinely undetectable; focus on the
            // native-dominant majority.
            if p.visible_native_share < 0.7 {
                continue;
            }
            let (html, truth) = render(&p, ContentVariant::Localized, "/");
            let report = gap_report(&extract_streaming(&html));
            // On short pages the injected English itself can flip the
            // page-majority script, after which inherited-context regions
            // agree with the (now English) page: detection is only
            // *expected* to fire while the body majority stays native.
            let native_page = report.page_script == Some(p.native_language().primary_script());
            for gap in &report.regions {
                match gap.kind {
                    GapKind::UntranslatedChrome => {
                        // No phantom assert here: a page whose footer
                        // sentence landed all-English by the plan's own
                        // language mix genuinely ships English chrome —
                        // an honest partial-localisation signal.
                        seen_chrome += 1;
                    }
                    GapKind::LangAttrMismatch => {
                        assert!(truth.gaps.attr_mismatch > 0, "{}: phantom mismatch", p.host);
                        assert_eq!(gap.role, "section");
                        seen_mismatch += 1;
                    }
                    GapKind::FallbackText => {
                        assert!(truth.gaps.fallback > 0, "{}: phantom fallback", p.host);
                        assert_eq!(gap.role, "aside");
                        seen_fallback += 1;
                    }
                }
                // The correctly-tagged control never shows up as a gap
                // (chrome regions may legitimately carry an inherited
                // "en" on wrongly-declared pages).
                if gap.role == "section" {
                    assert_ne!(
                        gap.lang.as_deref(),
                        Some("en"),
                        "{}: control flagged",
                        p.host
                    );
                }
            }
            if truth.gaps.chrome && native_page {
                assert!(
                    report
                        .regions
                        .iter()
                        .any(|g| g.kind == GapKind::UntranslatedChrome),
                    "{}: planted chrome gap missed",
                    p.host
                );
            }
            if truth.gaps.attr_mismatch > 0 {
                // The mismatch section is explicitly tagged: detection
                // does not depend on the page majority.
                assert!(
                    report
                        .regions
                        .iter()
                        .any(|g| g.kind == GapKind::LangAttrMismatch),
                    "{}: planted mismatch missed",
                    p.host
                );
            }
            if truth.gaps.fallback > 0 && native_page {
                assert!(
                    report
                        .regions
                        .iter()
                        .any(|g| g.kind == GapKind::FallbackText),
                    "{}: planted fallback missed",
                    p.host
                );
            }
        }
        assert!(seen_chrome > 0 && seen_mismatch > 0 && seen_fallback > 0);
    }

    #[test]
    fn truth_counts_are_consistent() {
        let p = plan(Country::Russia, 5);
        let (_, truth) = render(&p, ContentVariant::Localized, "/");
        for kind in ElementKind::ALL {
            let t = truth.kind(kind);
            assert_eq!(
                t.total,
                t.missing + t.empty + t.uninformative_total() + t.informative_total(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn localized_visible_text_is_native_dominant() {
        use langcrux_langid::composition;
        let p = plan(Country::Japan, 2);
        let (html, _) = render(&p, ContentVariant::Localized, "/");
        let doc = parse(&html);
        let text = visible_text(&doc);
        let c = composition(&text, Language::Japanese);
        assert!(
            c.native_pct > 50.0,
            "native {:.1} (target {:.2})",
            c.native_pct,
            p.visible_native_share
        );
    }

    #[test]
    fn global_visible_text_is_english_dominant() {
        use langcrux_langid::composition;
        let p = plan(Country::Japan, 2);
        let (html, _) = render(&p, ContentVariant::Global, "/");
        let doc = parse(&html);
        let text = visible_text(&doc);
        let c = composition(&text, Language::Japanese);
        assert!(c.english_pct > 70.0, "english {:.1}", c.english_pct);
    }

    #[test]
    fn global_a11y_is_english() {
        let p = plan(Country::Greece, 4);
        let (_, truth) = render(&p, ContentVariant::Global, "/");
        for kind in ElementKind::ALL {
            let t = truth.kind(kind);
            assert_eq!(t.informative_native, 0, "{kind:?}");
            assert_eq!(t.informative_mixed, 0, "{kind:?}");
        }
    }

    #[test]
    fn restricted_page_is_minimal() {
        let p = plan(Country::China, 1);
        let (html, truth) = render(&p, ContentVariant::Restricted, "/");
        assert!(html.contains("restricted"));
        assert!(html.len() < 600);
        assert_eq!(truth.kind(ElementKind::ImageAlt).total, 0);
    }

    #[test]
    fn planted_uninformative_instances_classify_correctly() {
        use langcrux_filter::classify;
        // Aggregate over many pages: planted category must agree with the
        // filter's verdict for the structural categories.
        let mut agree = 0u32;
        let mut total = 0u32;
        let mut scratch = GenScratch::new();
        for idx in 0..12 {
            let p = plan(Country::SouthKorea, idx);
            let mut renderer = Renderer::attach(&p, ContentVariant::Localized, "/", &mut scratch);
            for cat in DiscardCategory::ALL {
                for _ in 0..20 {
                    let instance = renderer.uninformative_instance(ElementKind::ImageAlt, cat);
                    total += 1;
                    if classify(&instance) == Some(cat) {
                        agree += 1;
                    }
                }
            }
        }
        let rate = f64::from(agree) / f64::from(total);
        assert!(rate > 0.90, "plant/detect agreement {rate}");
    }

    #[test]
    fn planted_informative_instances_survive_filter() {
        use langcrux_filter::is_informative;
        let mut survive = 0u32;
        let mut total = 0u32;
        let mut scratch = GenScratch::new();
        for idx in 0..10 {
            let p = plan(Country::Thailand, idx);
            let mut renderer = Renderer::attach(&p, ContentVariant::Localized, "/", &mut scratch);
            for bucket in [LangBucket::Native, LangBucket::English, LangBucket::Mixed] {
                for kind in [
                    ElementKind::ImageAlt,
                    ElementKind::LinkName,
                    ElementKind::ButtonName,
                ] {
                    for _ in 0..10 {
                        let text = renderer.informative_instance(kind, bucket);
                        total += 1;
                        if is_informative(&text) {
                            survive += 1;
                        }
                    }
                }
            }
        }
        let rate = f64::from(survive) / f64::from(total);
        assert!(rate > 0.85, "informative survival {rate}");
    }

    #[test]
    fn outliers_appear_at_calibrated_rate() {
        let mut extreme = 0usize;
        let mut scratch = RenderScratch::new();
        let mut html = String::new();
        for idx in 0..400 {
            let p = plan(Country::India, idx);
            html.clear();
            render_into(&p, ContentVariant::Localized, "/", &mut scratch, &mut html);
            let doc = parse(&html);
            for img in doc.elements_named("img") {
                if let Some(alt) = doc.attr(img, "alt") {
                    if alt.chars().count() > 1000 {
                        extreme += 1;
                    }
                }
            }
        }
        // ~400 pages × ~8 informative alts × 0.2% ≈ 6 expected.
        assert!(extreme >= 1, "no extreme alt texts planted");
    }
}
