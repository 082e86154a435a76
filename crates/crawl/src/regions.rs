//! Per-subtree language regions: the extraction-side carrier for
//! translation-gap detection.
//!
//! The paper's core axis is declared vs. actual language, measured over
//! the whole page. Partially localised sites — translated body text
//! wrapped in untranslated navigation chrome, or subtrees whose `lang`
//! attribute disagrees with their content — are invisible to a page-level
//! histogram. This module attributes every visible text character to the
//! *innermost language region* it renders in, so `langcrux-audit` can
//! compare script evidence per region instead of per page.
//!
//! A region opens at:
//!
//! * the document root (`<html>`, role `"page"`), carrying the declared
//!   page language;
//! * a chrome landmark (`nav`/`header`/`footer`/`main`/`aside`),
//!   inheriting the effective language context;
//! * any element carrying a `lang` attribute — even one matching the
//!   inherited language (role = tag name, `explicit = true`): a subtree
//!   tagged `lang=bn` whose content turns out to be English is exactly
//!   the mismatch the audit layer wants isolated.
//!
//! Text attributes to the innermost open region only — a `nav` region's
//! histogram never double-counts into the page region. Hidden subtrees
//! contribute nothing (their text events carry no tally).
//!
//! [`RegionTracker`] implements [`StreamSink`]. The streaming extractor
//! feeds it tokenizer events, each visible text run with the script tally
//! the walk's normaliser counted while copying it, so a region's
//! histogram is a sum of run tallies and no character is decoded or
//! classified a second time. The DOM extractor of the `langcrux-oracle`
//! crate feeds it the same events replayed from a tree, with tallies it
//! counts itself (`ScriptHistogram::of`), so the derived regions are
//! identical wherever the two walks deliver the same events, and the
//! oracle's tests check the fused tallies against that independent count.
//!
//! While the walk runs, region roles and languages are spans of one
//! per-page string arena, so an element inside a `lang` context costs no
//! copy of that language; [`RegionTracker::finish`] copies out only the
//! regions it returns.

use langcrux_html::scratch::ScratchBuffer;
use langcrux_html::stream::StreamSink;
use langcrux_html::tokenizer::Attribute;
use langcrux_lang::script::ScriptHistogram;
use serde::{Deserialize, Serialize};

/// One visible-text region with a constant language context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LangRegion {
    /// Structural role: `"page"` for the document root, the landmark name
    /// for chrome regions, or the tag name for explicit `lang` subtrees.
    pub role: String,
    /// Effective declared language as a lowercased primary subtag
    /// (`"bn"`, `"en"`), explicit or inherited; `None` when no `lang`
    /// context is in scope.
    pub lang: Option<String>,
    /// Whether `lang` comes from a `lang` attribute on this region's own
    /// root element rather than inherited context.
    pub explicit: bool,
    /// Script histogram of the visible text attributed to this region.
    pub hist: ScriptHistogram,
}

/// Chrome landmarks that open a region of their own.
fn is_landmark(name: &str) -> bool {
    matches!(name, "nav" | "header" | "footer" | "main" | "aside")
}

/// A byte range of a per-page string arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// Append `text` to `arena` and return where it landed.
    pub(crate) fn push(arena: &mut String, text: &str) -> Span {
        let start = arena.len();
        arena.push_str(text);
        Span {
            start,
            end: arena.len(),
        }
    }

    /// The spanned text of `arena`.
    pub(crate) fn of(self, arena: &str) -> &str {
        &arena[self.start..self.end]
    }
}

/// Append the lowercased primary subtag of a `lang` attribute to
/// `arena`; `None`, appending nothing, when the subtag is empty.
fn push_primary_subtag(arena: &mut String, value: &str) -> Option<Span> {
    let primary = value.trim().split(['-', '_']).next().unwrap_or("");
    if primary.is_empty() {
        return None;
    }
    let span = Span::push(arena, primary);
    arena[span.start..].make_ascii_lowercase();
    Some(span)
}

/// Per-open-element bookkeeping (one frame per `element_start`).
struct Frame {
    opened_region: bool,
    pushed_lang: bool,
}

/// A [`LangRegion`] under construction: role and language are spans of
/// the tracker's arena.
struct OpenRegion {
    role: Span,
    lang: Option<Span>,
    explicit: bool,
    hist: ScriptHistogram,
}

/// Event-driven region builder; see the module docs. The streaming
/// extractor keeps one per thread and clears it between pages.
#[derive(Default)]
pub struct RegionTracker {
    regions: Vec<OpenRegion>,
    /// Indices into `regions` for currently open regions, innermost last.
    active: Vec<usize>,
    frames: Vec<Frame>,
    /// Effective explicit-lang stack (primary subtags, innermost last).
    langs: Vec<Span>,
    /// Role names and primary subtags of this page's regions.
    arena: String,
}

impl RegionTracker {
    /// Close out the walk and return regions that saw any visible text,
    /// in document order of opening, as an exact-size `Vec`.
    pub fn finish(&self) -> Vec<LangRegion> {
        let seen = |r: &&OpenRegion| r.hist.total > 0;
        let mut out = Vec::with_capacity(self.regions.iter().filter(seen).count());
        out.extend(self.regions.iter().filter(seen).map(|r| LangRegion {
            role: r.role.of(&self.arena).to_owned(),
            lang: r.lang.map(|l| l.of(&self.arena).to_owned()),
            explicit: r.explicit,
            hist: r.hist.clone(),
        }));
        out
    }

    /// Empty every buffer for the next page, dropping any above the
    /// scratch cap.
    pub(crate) fn clear_capped(&mut self) {
        let RegionTracker {
            regions,
            active,
            frames,
            langs,
            arena,
        } = self;
        regions.clear_capped();
        active.clear_capped();
        frames.clear_capped();
        langs.clear_capped();
        arena.clear_capped();
    }

    /// The heap bytes of each buffer held.
    #[cfg(test)]
    pub(crate) fn allocations(&self) -> [usize; 5] {
        [
            self.regions.allocated(),
            self.active.allocated(),
            self.frames.allocated(),
            self.langs.allocated(),
            self.arena.allocated(),
        ]
    }

    fn open_region(&mut self, role: &str, lang: Option<Span>, explicit: bool) {
        let role = Span::push(&mut self.arena, role);
        self.regions.push(OpenRegion {
            role,
            lang,
            explicit,
            hist: ScriptHistogram::default(),
        });
        self.active.push(self.regions.len() - 1);
    }
}

impl StreamSink for RegionTracker {
    fn element_start(&mut self, name: &str, attrs: &[Attribute], visible: bool) {
        let mut frame = Frame {
            opened_region: false,
            pushed_lang: false,
        };
        if visible {
            let lang_attr = attrs
                .iter()
                .find(|a| a.name == "lang")
                .and_then(|a| push_primary_subtag(&mut self.arena, &a.value));
            let root = name == "html" && self.regions.is_empty();
            if root || lang_attr.is_some() || is_landmark(name) {
                let role = if root { "page" } else { name };
                // Only an opening region takes the inherited language.
                let lang = lang_attr.or_else(|| self.langs.last().copied());
                self.open_region(role, lang, lang_attr.is_some());
                frame.opened_region = true;
            }
            if let Some(lang) = lang_attr {
                self.langs.push(lang);
                frame.pushed_lang = true;
            }
        }
        self.frames.push(frame);
    }

    fn element_end(&mut self, _name: &str) {
        let frame = self.frames.pop().expect("balanced element events");
        if frame.opened_region {
            self.active.pop();
        }
        if frame.pushed_lang {
            self.langs.pop();
        }
    }

    fn text(&mut self, _text: &str, tally: Option<&ScriptHistogram>) {
        let Some(tally) = tally else {
            return;
        };
        let idx = match self.active.last() {
            Some(&idx) => idx,
            None => {
                // Visible text before (or outside) any region-opening
                // element: attribute it to an implicit page region.
                self.open_region("page", self.langs.last().copied(), false);
                // The implicit region has no closing element; leave it
                // active for the rest of the document.
                *self.active.last().expect("region just opened")
            }
        };
        self.regions[idx].hist.merge(tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::extract_streaming;
    use langcrux_lang::script::Script;

    fn regions_of(html: &str) -> Vec<LangRegion> {
        extract_streaming(html).regions
    }

    #[test]
    fn page_region_carries_declared_lang() {
        let regions = regions_of("<html lang=bn-IN><body><p>বাংলা</p></body></html>");
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].role, "page");
        assert_eq!(regions[0].lang.as_deref(), Some("bn"));
        assert!(regions[0].explicit);
        assert!(regions[0].hist.count(Script::Bengali) > 0);
    }

    #[test]
    fn landmarks_open_their_own_regions() {
        let regions = regions_of(
            "<html lang=bn><body><nav>Home About</nav>\
             <main><p>বাংলা সংবাদ</p></main><footer>Contact</footer></body></html>",
        );
        let roles: Vec<&str> = regions.iter().map(|r| r.role.as_str()).collect();
        assert_eq!(roles, vec!["nav", "main", "footer"]);
        // Landmark regions inherit the page language, not explicitly.
        assert!(regions.iter().all(|r| r.lang.as_deref() == Some("bn")));
        assert!(regions.iter().all(|r| !r.explicit));
        assert!(regions[0].hist.count(Script::Latin) > 0);
        assert!(regions[1].hist.count(Script::Bengali) > 0);
    }

    #[test]
    fn lang_attrs_open_explicit_regions() {
        let regions = regions_of(
            "<html lang=bn><body><p>বাংলা</p>\
             <section lang=en>English callout</section>\
             <section lang=bn>ভুল নয়</section></body></html>",
        );
        // page + one explicit region per lang-tagged section — including
        // the one matching the page language, so mistagged content stays
        // separable from its surroundings.
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[1].role, "section");
        assert_eq!(regions[1].lang.as_deref(), Some("en"));
        assert!(regions[1].explicit);
        assert_eq!(
            regions[1].hist.count(Script::Latin),
            "Englishcallout".chars().count()
        );
        assert_eq!(regions[2].lang.as_deref(), Some("bn"));
        assert!(regions[2].explicit);
        assert!(regions[2].hist.count(Script::Bengali) > 0);
    }

    #[test]
    fn text_attributes_to_innermost_region_only() {
        let regions = regions_of("<html lang=th><body>ก่อน<nav>เมนู</nav>หลัง</body></html>");
        assert_eq!(regions.len(), 2);
        let page = &regions[0];
        let nav = &regions[1];
        assert_eq!(page.hist.count(Script::Thai), 8); // ก่อน + หลัง
        assert_eq!(nav.hist.count(Script::Thai), 4);
    }

    #[test]
    fn hidden_subtrees_contribute_nothing() {
        let regions =
            regions_of("<html lang=bn><body><nav hidden>secret nav</nav><p>বাংলা</p></body></html>");
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].role, "page");
    }

    #[test]
    fn bare_fragment_gets_an_implicit_page_region() {
        let regions = regions_of("plain text only");
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].role, "page");
        assert_eq!(regions[0].lang, None);
        assert!(!regions[0].explicit);
    }

    #[test]
    fn whitespace_only_regions_are_dropped() {
        let regions = regions_of("<html lang=bn><body><nav>  </nav><p>বাংলা</p></body></html>");
        // The nav saw only whitespace (Common chars) but did see text, so
        // it is retained; an empty nav would not be.
        assert_eq!(regions.len(), 2);
        let empty = regions_of("<html lang=bn><body><nav></nav><p>বাংলা</p></body></html>");
        assert_eq!(empty.len(), 1);
    }
}
