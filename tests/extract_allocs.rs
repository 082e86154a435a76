//! Allocation contract of the streaming extraction path.
//!
//! On a warm thread, `extract_streaming` allocates exactly the heap
//! buffers that the returned `PageExtract` owns, each at its exact size,
//! and `tokenize_into` allocates nothing for a sink that keeps nothing.
//! Everything else lives in per-thread scratch that the first pass over
//! the pages warms up (see `langcrux_html::scratch`).
//!
//! A counting global allocator checks both claims over a fixed set of
//! generated pages. Counts are per thread, so other test threads do not
//! disturb them. The total is pinned: a new allocation anywhere on the
//! path, or a page-set change, moves it. The counts are the same in
//! debug and release builds.

use langcrux_crawl::{extract_streaming, PageExtract};
use langcrux_html::scratch::CAP_BYTES;
use langcrux_html::tokenizer::{tokenize_into, Attribute, TokenSink};
use langcrux_lang::{rng::DEFAULT_SEED, Country};
use langcrux_net::ContentVariant;
use langcrux_webgen::{render, SitePlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts the calls that obtain memory (alloc, alloc_zeroed, realloc),
/// per thread.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: const-initialised cells without destructors are always
    // accessible, but an allocation during thread teardown must not panic.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and count the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Allocations of the second pass over [`pages`], all of them returned.
const PINNED_PASS_ALLOCS: u64 = 17_372;

/// 64 localized home pages with translation-gap scenarios off and the
/// same 64 sites with them on, spread over the study countries.
fn pages() -> Vec<String> {
    let mut pages = Vec::new();
    for gaps in [false, true] {
        for i in 0..64u32 {
            let country = Country::STUDY[i as usize % Country::STUDY.len()];
            let plan = SitePlan::build_gapped(DEFAULT_SEED, country, i / 12, None, gaps);
            let (html, _) = render(&plan, ContentVariant::Localized, "/");
            // Below the scratch cap, so no scratch buffer outgrows it and
            // the second pass starts warm (a pool trimmed between pages
            // would show as an extra allocation).
            assert!(
                html.len() < CAP_BYTES,
                "{} is {} bytes",
                plan.host,
                html.len()
            );
            pages.push(html);
        }
    }
    pages
}

/// A sink that looks at every lexeme and keeps none.
struct KeepNothing;

impl TokenSink for KeepNothing {
    fn start_tag(&mut self, name: &str, attrs: &mut Vec<Attribute>, self_closing: bool) {
        black_box((name, attrs.len(), self_closing));
    }

    fn end_tag(&mut self, name: &str) {
        black_box(name);
    }

    fn text(&mut self, raw: &str, decode_entities: bool) {
        black_box((raw, decode_entities));
    }
}

/// The heap buffers `page` owns: its non-empty `String`s and `Vec`s.
/// Asserts that each is exact-size.
fn owned_buffers(page: &PageExtract) -> u64 {
    fn buffer(len: usize, capacity: usize) -> u64 {
        assert_eq!(capacity, len, "returned buffer is not exact-size");
        u64::from(capacity > 0)
    }
    let string = |s: &String| buffer(s.len(), s.capacity());
    let optional = |s: &Option<String>| s.as_ref().map_or(0, string);
    let elements: u64 = page
        .elements
        .iter()
        .map(|e| optional(&e.text) + optional(&e.visible_fallback))
        .sum();
    let regions: u64 = page
        .regions
        .iter()
        .map(|r| string(&r.role) + optional(&r.lang))
        .sum();
    string(&page.visible_text)
        + optional(&page.declared_lang)
        + buffer(page.elements.len(), page.elements.capacity())
        + elements
        + buffer(page.regions.len(), page.regions.capacity())
        + regions
}

#[test]
fn warm_extraction_allocates_only_what_it_returns() {
    let pages = pages();
    // First pass: warm this thread's scratch.
    for html in &pages {
        black_box(extract_streaming(html));
    }
    let mut total = 0;
    for (i, html) in pages.iter().enumerate() {
        let ((), lexed) = counted(|| tokenize_into(html, &mut KeepNothing));
        assert_eq!(lexed, 0, "page {i}: tokenize_into allocated");
        let (page, allocs) = counted(|| extract_streaming(html));
        assert_eq!(
            allocs,
            owned_buffers(&page),
            "page {i}: allocations differ from the buffers returned"
        );
        total += allocs;
    }
    assert_eq!(total, PINNED_PASS_ALLOCS);
}
