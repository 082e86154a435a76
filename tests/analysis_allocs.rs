//! Allocation contract of per-text and per-page analysis.
//!
//! `filter::classify` reads a text in one pass with its case fold in a
//! stack buffer, so it allocates nothing; a page's `PageAnalysis`
//! allocates exactly the one exact-size element list it owns. A counting
//! global allocator (`common`) checks both over the element texts of a
//! fixed set of generated pages. Counts are per thread, so other test
//! threads do not disturb them, and they are the same in debug and
//! release builds.

mod common;

use common::counted;
use langcrux::crawl::extract_streaming;
use langcrux::filter::classify;
use langcrux::kizuki::PageAnalysis;
use langcrux::lang::{rng::DEFAULT_SEED, Country};
use langcrux::net::ContentVariant;
use langcrux::webgen::{render, SitePlan};
use std::hint::black_box;

/// 64 localized home pages with translation-gap scenarios off and the
/// same 64 sites with them on, spread over the study countries, each with
/// its country.
fn pages() -> Vec<(Country, String)> {
    let mut pages = Vec::new();
    for gaps in [false, true] {
        for i in 0..64u32 {
            let country = Country::STUDY[i as usize % Country::STUDY.len()];
            let plan = SitePlan::build_gapped(DEFAULT_SEED, country, i / 12, None, gaps);
            let (html, _) = render(&plan, ContentVariant::Localized, "/");
            pages.push((country, html));
        }
    }
    pages
}

#[test]
fn classify_allocates_nothing() {
    let extracts: Vec<_> = pages()
        .iter()
        .map(|(_, html)| extract_streaming(html))
        .collect();
    let texts: Vec<&str> = extracts
        .iter()
        .flat_map(|page| page.elements.iter())
        .flat_map(|e| [e.text.as_deref(), e.visible_fallback.as_deref()])
        .flatten()
        .collect();
    // Every raw text and visible fallback, blank ones included (the page
    // set is fixed, so its size is too).
    assert_eq!(texts.len(), 17_119);
    // Build the dictionary indexes, which live for the process.
    black_box(classify("icon"));
    for (i, text) in texts.iter().enumerate() {
        let (_, allocs) = counted(|| black_box(classify(text)));
        assert_eq!(allocs, 0, "text {i} ({text:?}) allocated");
    }
}

#[test]
fn page_analysis_allocates_only_its_element_list() {
    // Build the dictionary indexes, which live for the process.
    black_box(classify("icon"));
    let mut total = 0;
    for (i, (country, html)) in pages().iter().enumerate() {
        let extract = extract_streaming(html);
        let (analysis, allocs) =
            counted(|| PageAnalysis::new(&extract, Some(country.target_language())));
        let elements = &analysis.elements;
        assert_eq!(elements.len(), extract.elements.len(), "page {i}");
        assert_eq!(
            elements.capacity(),
            elements.len(),
            "page {i}: not exact-size"
        );
        assert_eq!(
            allocs,
            u64::from(elements.capacity() > 0),
            "page {i}: allocations differ from the list returned"
        );
        total += allocs;
    }
    assert_eq!(total, 128, "every page has elements");
}
