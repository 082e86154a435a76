//! Translation-gap detection: which subtrees of a page disagree with its
//! language.
//!
//! The page-level script histogram answers "how localised is this page
//! overall?", but partial localisation hides inside the average: a site
//! can translate every paragraph of body copy and still ship English
//! navigation chrome, mistagged `lang` subtrees, or untranslated fallback
//! blocks. This module consumes the per-region histograms produced by
//! `langcrux_crawl::regions` and classifies each region against the
//! language context it *claims*:
//!
//! * [`GapKind::UntranslatedChrome`] — a `nav`/`header`/`footer` landmark
//!   whose text is written in a script foreign to the page's own body
//!   evidence. The classic partial localisation: translated articles
//!   wrapped in English menus.
//! * [`GapKind::LangAttrMismatch`] — a subtree with an explicit `lang`
//!   attribute whose dominant script is not an evidence script of the
//!   tagged language (e.g. `lang=bn` around English, or `lang=hi` around
//!   anything non-Devanagari). A subtree *correctly* tagged for its
//!   foreign content (`lang=en` around English) is not a gap — that is
//!   localisation done right, and assistive tech can switch engines.
//! * [`GapKind::FallbackText`] — any other region (`aside`, `main`, …)
//!   dominated by a script foreign to the page: fallback English strings
//!   embedded in a non-Latin page without any marking.
//!
//! Detection is evidence-driven and conservative. A region is only
//! flagged when it carries at least [`MIN_REGION_EVIDENCE`] distinguishing
//! characters *and* at least 90% of its distinguishing characters fall
//! outside the expected script set — naturally code-mixed text (a Bengali
//! nav with one English product name) never trips it. Expected scripts
//! come from the declared language when the declaration is corroborated
//! by the body evidence, and otherwise from the *script family* of the
//! dominant body script, so multi-script languages (Japanese) never
//! self-report their own kana/kanji variation as a gap.

use langcrux_crawl::{LangRegion, PageExtract};
use langcrux_lang::script::{Script, ScriptHistogram};
use langcrux_lang::Language;
use serde::{Deserialize, Serialize};

/// Minimum distinguishing characters a region must carry before it can be
/// flagged. Below this there is not enough evidence to call a script
/// "dominant" rather than incidental (icon labels, numerals' neighbours).
pub const MIN_REGION_EVIDENCE: usize = 16;

/// A flagged region must have at least this share (in tenths) of its
/// distinguishing characters outside the expected script set: 9/10 = 90%.
const FOREIGN_DOMINANCE_TENTHS: usize = 9;

/// Why a region counts as a translation gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapKind {
    /// Navigation/header/footer chrome in a script foreign to the page.
    UntranslatedChrome,
    /// Explicit `lang` attribute contradicted by the subtree's content.
    LangAttrMismatch,
    /// Unmarked foreign-script text outside the chrome landmarks.
    FallbackText,
}

impl GapKind {
    /// Stable lowercase label used in JSON payloads and metrics.
    pub fn label(self) -> &'static str {
        match self {
            GapKind::UntranslatedChrome => "chrome",
            GapKind::LangAttrMismatch => "lang-attr",
            GapKind::FallbackText => "fallback",
        }
    }
}

/// One region that disagrees with its declared/inherited language context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapRegion {
    /// Structural role of the region (`"nav"`, `"footer"`, `"section"`, …).
    pub role: String,
    /// Effective declared language of the region (primary subtag), if any.
    pub lang: Option<String>,
    /// Classification of the disagreement.
    pub kind: GapKind,
    /// Script the region's context led us to expect (primary script of the
    /// tagged language for [`GapKind::LangAttrMismatch`], the page's
    /// dominant body script otherwise). `None` when no single script could
    /// be named.
    pub expected: Option<Script>,
    /// Script actually dominating the region's text.
    pub found: Script,
    /// Distinguishing characters in the region outside the expected set —
    /// roughly "how much text a reader hits in the wrong language".
    pub foreign_chars: usize,
}

/// Per-page translation-gap verdict.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GapReport {
    /// Dominant distinguishing script of the page's visible text, the
    /// reference point for inherited-context regions.
    pub page_script: Option<Script>,
    /// Flagged regions in document order.
    pub regions: Vec<GapRegion>,
    /// Total foreign distinguishing characters across flagged regions.
    pub foreign_chars: usize,
    /// Total distinguishing characters on the page (all visible text).
    pub total_chars: usize,
}

impl GapReport {
    /// True when no region disagrees with its language context.
    pub fn is_clean(&self) -> bool {
        self.regions.is_empty()
    }

    /// Share of the page's distinguishing characters sitting inside gap
    /// regions, in `[0, 1]`; `0.0` on evidence-free pages.
    pub fn foreign_share(&self) -> f64 {
        if self.total_chars == 0 {
            0.0
        } else {
            self.foreign_chars as f64 / self.total_chars as f64
        }
    }
}

/// Distinguishing characters in `hist` whose script is outside `expected`.
fn foreign_count(hist: &ScriptHistogram, expected: &[Script]) -> usize {
    hist.distinguishing_total() - expected.iter().map(|&s| hist.count(s)).sum::<usize>()
}

/// All scripts that co-occur with `script` in some pool language — the
/// "script family". For most scripts this is the singleton set; for the
/// Japanese trio it is `{Hiragana, Katakana, Han}` via `Japanese`, which
/// keeps an all-Katakana nav on a kanji-heavy page from reading as foreign.
fn script_family(script: Script) -> Vec<Script> {
    let mut family = vec![script];
    for lang in std::iter::once(Language::English).chain(Language::CANDIDATE_POOL) {
        let ev = lang.evidence_scripts();
        if ev.contains(&script) {
            for &s in ev {
                if !family.contains(&s) {
                    family.push(s);
                }
            }
        }
    }
    family
}

/// Scripts a region with *inherited* language context is expected to use.
///
/// When the page declares a language and the body evidence corroborates it
/// (the dominant script is one of the language's evidence scripts), the
/// declaration wins: a `zh` page expects Han only, so Hiragana chrome on
/// it is a gap even though both are "CJK". Without a corroborated
/// declaration we fall back to the dominant script's family.
fn page_expected(declared: Option<Language>, page_script: Script) -> Vec<Script> {
    match declared {
        Some(lang) if lang.evidence_scripts().contains(&page_script) => {
            lang.evidence_scripts().to_vec()
        }
        _ => script_family(page_script),
    }
}

/// Classify one region; `None` when it agrees with its context.
fn classify(
    region: &LangRegion,
    declared: Option<Language>,
    page_script: Option<Script>,
) -> Option<GapRegion> {
    let evidence = region.hist.distinguishing_total();
    if evidence < MIN_REGION_EVIDENCE {
        return None;
    }
    let found = region.hist.dominant()?;
    let (kind, expected) = if region.explicit {
        // The region claims a language outright; measure against it.
        let lang = Language::from_primary_subtag(region.lang.as_deref()?)?;
        (GapKind::LangAttrMismatch, lang.evidence_scripts().to_vec())
    } else {
        let page_script = page_script?;
        let kind = match region.role.as_str() {
            "nav" | "header" | "footer" => GapKind::UntranslatedChrome,
            _ => GapKind::FallbackText,
        };
        (kind, page_expected(declared, page_script))
    };
    let foreign = foreign_count(&region.hist, &expected);
    if foreign * 10 < evidence * FOREIGN_DOMINANCE_TENTHS {
        return None;
    }
    Some(GapRegion {
        role: region.role.clone(),
        lang: region.lang.clone(),
        kind,
        expected: if region.explicit {
            region
                .lang
                .as_deref()
                .and_then(Language::from_primary_subtag)
                .map(|l| l.primary_script())
        } else {
            page_script
        },
        found,
        foreign_chars: foreign,
    })
}

/// Build the translation-gap report for an extracted page.
///
/// Pure in the extract: same [`PageExtract`] in, byte-identical report
/// out (the regions themselves are pinned equal across the streaming
/// extractor and the `langcrux-oracle` DOM extractor).
pub fn gap_report(extract: &PageExtract) -> GapReport {
    let page_script = extract.visible_hist.dominant();
    let declared = extract
        .declared_lang
        .as_deref()
        .and_then(Language::from_primary_subtag);
    let mut report = GapReport {
        page_script,
        total_chars: extract.visible_hist.distinguishing_total(),
        ..GapReport::default()
    };
    for region in &extract.regions {
        // The page region *is* the reference; it cannot gap against itself.
        if region.role == "page" {
            continue;
        }
        if let Some(gap) = classify(region, declared, page_script) {
            report.foreign_chars += gap.foreign_chars;
            report.regions.push(gap);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_crawl::extract_streaming;

    const BN_BODY: &str = "বাংলাদেশের সংবাদপত্রে প্রতিদিন নতুন খবর প্রকাশিত হয় এবং পাঠকেরা তা পড়েন। \
        দেশের বিভিন্ন অঞ্চল থেকে সংবাদদাতারা প্রতিবেদন পাঠান এবং সম্পাদকেরা তা যাচাই করে প্রকাশ করেন। \
        পাঠকদের মতামত এবং চিঠিপত্র প্রতি সপ্তাহে আলাদা পাতায় ছাপা হয়";

    fn report_for(html: &str) -> GapReport {
        gap_report(&extract_streaming(html))
    }

    #[test]
    fn fully_localised_page_is_clean() {
        let html = format!(
            "<html lang=bn><body><nav>প্রচ্ছদ সংবাদ খেলা বিনোদন মতামত আরও</nav>\
             <main><p>{BN_BODY}</p></main>\
             <footer>যোগাযোগ গোপনীয়তা শর্তাবলী সাহায্য</footer></body></html>"
        );
        let report = report_for(&html);
        assert!(report.is_clean(), "unexpected gaps: {:?}", report.regions);
        assert_eq!(report.page_script, Some(Script::Bengali));
        assert_eq!(report.foreign_chars, 0);
    }

    #[test]
    fn english_chrome_on_bengali_page_is_a_chrome_gap() {
        let html = format!(
            "<html lang=bn><body><nav>Home News Sports Entertainment Opinion More</nav>\
             <main><p>{BN_BODY}</p></main>\
             <footer>Contact Privacy Terms Help Careers</footer></body></html>"
        );
        let report = report_for(&html);
        assert_eq!(report.regions.len(), 2);
        for gap in &report.regions {
            assert_eq!(gap.kind, GapKind::UntranslatedChrome);
            assert_eq!(gap.found, Script::Latin);
            assert_eq!(gap.expected, Some(Script::Bengali));
        }
        assert_eq!(report.regions[0].role, "nav");
        assert_eq!(report.regions[1].role, "footer");
        assert!(report.foreign_chars >= 2 * MIN_REGION_EVIDENCE);
        assert!(report.foreign_share() > 0.0);
    }

    #[test]
    fn mistagged_subtree_is_a_lang_attr_gap() {
        // Tagged bn, content English: the tag itself is contradicted even
        // though it matches the page language.
        let html = format!(
            "<html lang=bn><body><main><p>{BN_BODY}</p>\
             <section lang=bn>This content was never actually translated</section>\
             </main></body></html>"
        );
        let report = report_for(&html);
        assert_eq!(report.regions.len(), 1);
        let gap = &report.regions[0];
        assert_eq!(gap.kind, GapKind::LangAttrMismatch);
        assert_eq!(gap.role, "section");
        assert_eq!(gap.lang.as_deref(), Some("bn"));
        assert_eq!(gap.expected, Some(Script::Bengali));
        assert_eq!(gap.found, Script::Latin);
    }

    #[test]
    fn correctly_tagged_foreign_subtree_is_not_a_gap() {
        // lang=en around English is localisation done *right*.
        let html = format!(
            "<html lang=bn><body><main><p>{BN_BODY}</p>\
             <section lang=en>An intentionally English announcement block</section>\
             </main></body></html>"
        );
        let report = report_for(&html);
        assert!(report.is_clean(), "unexpected gaps: {:?}", report.regions);
    }

    #[test]
    fn unmarked_foreign_aside_is_a_fallback_gap() {
        let html = format!(
            "<html lang=bn><body><main><p>{BN_BODY}</p></main>\
             <aside>Related articles you might also like to read</aside></body></html>"
        );
        let report = report_for(&html);
        assert_eq!(report.regions.len(), 1);
        assert_eq!(report.regions[0].kind, GapKind::FallbackText);
        assert_eq!(report.regions[0].role, "aside");
    }

    #[test]
    fn code_mixing_below_dominance_threshold_is_tolerated() {
        // A Bengali nav with one English product name: far below 90%
        // foreign share, so no gap.
        let html = format!(
            "<html lang=bn><body><nav>প্রচ্ছদ সংবাদ খেলা বিনোদন মতামত Apps</nav>\
             <main><p>{BN_BODY}</p></main></body></html>"
        );
        let report = report_for(&html);
        assert!(report.is_clean(), "unexpected gaps: {:?}", report.regions);
    }

    #[test]
    fn tiny_regions_are_below_the_evidence_floor() {
        let html = format!(
            "<html lang=bn><body><nav>Home</nav>\
             <main><p>{BN_BODY}</p></main></body></html>"
        );
        let report = report_for(&html);
        assert!(report.is_clean(), "unexpected gaps: {:?}", report.regions);
    }

    #[test]
    fn japanese_kana_variation_is_not_a_gap() {
        // All-Katakana nav on a Han-heavy Japanese page: same language,
        // different scripts. The corroborated declaration (ja) expands the
        // expected set to the full Japanese trio.
        let html = "<html lang=ja><body>\
             <nav>ニュース スポーツ エンタメ テクノロジー ビジネス</nav>\
             <main><p>日本の新聞は毎日新しい記事を掲載しており、読者はそれを読んでいます。</p></main>\
             </body></html>";
        let report = report_for(html);
        assert!(report.is_clean(), "unexpected gaps: {:?}", report.regions);
    }

    #[test]
    fn hiragana_chrome_on_declared_chinese_page_is_a_gap() {
        // Corroborated zh declaration narrows the expected set to Han, so
        // kana chrome is foreign even inside the CJK family.
        let html = "<html lang=zh-CN><body>\
             <nav>にほんごのなびげーしょんめにゅーです</nav>\
             <main><p>中国的报纸每天都会刊登新的文章供读者阅读学习参考使用</p></main>\
             </body></html>";
        let report = report_for(html);
        assert_eq!(report.regions.len(), 1);
        assert_eq!(report.regions[0].kind, GapKind::UntranslatedChrome);
        assert_eq!(report.regions[0].found, Script::Hiragana);
    }

    #[test]
    fn undeclared_page_falls_back_to_script_family() {
        // No lang attribute anywhere: the dominant script's family is the
        // reference, so English chrome still reads as foreign.
        let html = format!(
            "<html><body><nav>Home News Sports Entertainment Opinion More</nav>\
             <main><p>{BN_BODY}</p></main></body></html>"
        );
        let report = report_for(&html);
        assert_eq!(report.regions.len(), 1);
        assert_eq!(report.regions[0].kind, GapKind::UntranslatedChrome);
    }

    #[test]
    fn evidence_free_page_reports_nothing() {
        let report = report_for("<html lang=bn><body><p>12345 67890</p></body></html>");
        assert!(report.is_clean());
        assert_eq!(report.page_script, None);
        assert_eq!(report.total_chars, 0);
    }

    #[test]
    fn report_serialises_with_stable_labels() {
        let html = format!(
            "<html lang=bn><body><nav>Home News Sports Entertainment Opinion</nav>\
             <main><p>{BN_BODY}</p></main></body></html>"
        );
        let report = report_for(&html);
        let json = serde_json::to_string(&report).expect("serialise");
        let back: GapReport = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, report);
        assert_eq!(GapKind::UntranslatedChrome.label(), "chrome");
        assert_eq!(GapKind::LangAttrMismatch.label(), "lang-attr");
        assert_eq!(GapKind::FallbackText.label(), "fallback");
    }
}
