//! Property-based tests for the HTML engine and the extractors.
//!
//! Invariants:
//! 1. The tokenizer and parser never panic on arbitrary input.
//! 2. Builder output re-parses to the same text and attributes
//!    (plant→recover round trip).
//! 3. Entity encode/decode round-trips arbitrary strings.
//! 4. Visible text of built pages never contains markup characters.
//! 5. The streaming tokenize→extract path is byte- and
//!    histogram-identical to parse-then-walk on arbitrary markup.
//! 6. The streaming extractor's whole `PageExtract` equals the DOM
//!    extractor's on arbitrary markup.

use langcrux_crawl::extract_streaming;
use langcrux_html::entities::{decode, escape_attr_into, escape_text_into};
use langcrux_html::{stream_visible_text_histogram, HtmlBuilder};
use langcrux_lang::script::ScriptHistogram;
use langcrux_oracle::{extract, parse, visible_text, visible_text_histogram};
use proptest::prelude::*;

proptest! {
    #[test]
    fn parser_never_panics(input in ".{0,400}") {
        let _ = parse(&input);
    }

    #[test]
    fn parser_never_panics_taggy(input in "(<[a-z ='\"/>]{0,10}|[a-z]{0,5}|&[a-z#0-9]{0,8};?){0,40}") {
        let _ = parse(&input);
    }

    #[test]
    fn entity_round_trip_text(s in "\\PC{0,200}") {
        let (mut text, mut attr) = (String::new(), String::new());
        escape_text_into(&s, &mut text);
        escape_attr_into(&s, &mut attr);
        prop_assert_eq!(decode(&text), s.clone());
        prop_assert_eq!(decode(&attr), s);
    }

    #[test]
    fn builder_round_trips_text(text in "[^\\x00-\\x1F<>&]{1,80}") {
        let mut b = HtmlBuilder::document();
        b.open("html", &[]).open("body", &[]);
        b.leaf("p", &[], &text);
        let html = b.finish();
        let doc = parse(&html);
        let collapsed: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(visible_text(&doc), collapsed);
    }

    #[test]
    fn builder_round_trips_attr(value in "\\PC{0,80}") {
        let mut b = HtmlBuilder::fragment();
        b.void("img", &[("alt", Some(value.as_str()))]);
        let html = b.finish();
        let doc = parse(&html);
        let img = doc.elements_named("img").next().unwrap();
        prop_assert_eq!(doc.attr(img, "alt"), Some(value.as_str()));
    }

    #[test]
    fn visible_text_has_no_markup(texts in prop::collection::vec("[a-zA-Z \\u{995}\\u{E01}]{0,30}", 1..6)) {
        let mut b = HtmlBuilder::document();
        b.open("html", &[]).open("body", &[]);
        for t in &texts {
            b.leaf("div", &[], t);
        }
        let doc = parse(&b.finish());
        let vis = visible_text(&doc);
        prop_assert!(!vis.contains('<') && !vis.contains('>'));
    }

    #[test]
    fn tokenizer_text_reassembles(words in prop::collection::vec("[a-z]{1,8}", 1..8)) {
        // A document made only of text must reproduce that text exactly.
        let text = words.join(" ");
        let doc = parse(&text);
        prop_assert_eq!(visible_text(&doc), text);
    }

    #[test]
    fn fused_histogram_equals_rescan_on_built_pages(
        texts in prop::collection::vec("[a-zA-Z0-9 \\u{995}\\u{E01}\\u{623}\\u{430}\\u{4E2D}]{0,40}", 1..8),
        hidden in prop::collection::vec("[a-z\\u{995} ]{0,20}", 0..3),
    ) {
        // The histogram computed during the single extraction walk must be
        // identical to re-scanning the extracted visible text — on pages
        // with multilingual content, hidden subtrees, and block structure.
        let mut b = HtmlBuilder::document();
        b.open("html", &[]).open("body", &[]);
        for (i, t) in texts.iter().enumerate() {
            if i % 2 == 0 {
                b.leaf("p", &[], t);
            } else {
                b.leaf("span", &[], t);
            }
        }
        for h in &hidden {
            b.leaf("div", &[("hidden", None)], h);
        }
        let doc = parse(&b.finish());
        let (text, hist) = visible_text_histogram(&doc);
        prop_assert_eq!(&text, &visible_text(&doc));
        prop_assert_eq!(hist, ScriptHistogram::of(&text));
    }

    #[test]
    fn fused_histogram_equals_rescan_on_arbitrary_markup(
        input in "(<[a-z]{1,6}( [a-z]{1,4}=\"[a-z0-9 ]{0,8}\")?>|</[a-z]{1,6}>|[a-z\\u{995}\\u{E01}\\u{4E2D} ]{0,12}){0,24}",
    ) {
        // Same invariant on raw, possibly-malformed markup.
        let doc = parse(&input);
        let (text, hist) = visible_text_histogram(&doc);
        prop_assert_eq!(&text, &visible_text(&doc));
        prop_assert_eq!(hist, ScriptHistogram::of(&text));
    }

    #[test]
    fn streaming_extract_matches_dom_on_arbitrary_markup(
        input in "(<[a-z]{1,6}( (hidden|style=\"display:none\"|[a-z]{1,4}=\"[a-z0-9 ]{0,8}\"))?/?>|</[a-z]{1,6}>|&[a-z#0-9]{0,6};?|[a-z\\u{995}\\u{E01}\\u{4E2D} ]{0,12}){0,24}",
    ) {
        // The streaming path must be byte- and histogram-identical to the
        // DOM path on malformed markup, hiding attributes, self-closing
        // tags, and stray/partial entities.
        let (dom_text, dom_hist) = visible_text_histogram(&parse(&input));
        let (stream_text, stream_hist) = stream_visible_text_histogram(&input);
        prop_assert_eq!(stream_text, dom_text);
        prop_assert_eq!(stream_hist, dom_hist);
    }

    #[test]
    fn streaming_extract_matches_dom_on_structured_pages(
        texts in prop::collection::vec("[a-zA-Z0-9 \\u{995}\\u{E01}\\u{623}\\u{430}\\u{4E2D}]{0,30}", 1..6),
        hidden in prop::collection::vec("[a-z\\u{995} ]{0,16}", 0..3),
        title in "[a-z\\u{E01} ]{0,16}",
    ) {
        // Same invariant on well-formed built pages with head metadata,
        // raw-text elements, and hidden subtrees.
        let mut b = HtmlBuilder::document();
        b.open("html", &[]).open("head", &[]);
        b.leaf("title", &[], &title);
        b.close(); // head
        b.open("body", &[]);
        for (i, t) in texts.iter().enumerate() {
            if i % 2 == 0 {
                b.leaf("p", &[], t);
            } else {
                b.leaf("span", &[], t);
            }
        }
        for h in &hidden {
            b.leaf("div", &[("hidden", None)], h);
        }
        let html = b.finish();
        let (dom_text, dom_hist) = visible_text_histogram(&parse(&html));
        let (stream_text, stream_hist) = stream_visible_text_histogram(&html);
        prop_assert_eq!(stream_text, dom_text);
        prop_assert_eq!(stream_hist, dom_hist);
    }

    #[test]
    fn streaming_page_extract_matches_dom_on_arbitrary_markup(
        input in "(<(a|p|div|img|button|label|input|select|title|svg|script|li)( (hidden|href=\"/x\"|for=\"i\"|id=\"i\"|alt=\"ছবি\"|aria-label=\"x\"|type=\"text\"|role=\"img\"))?/?>|</(a|p|div|button|label|select|title|svg|script|li)>|&[a-z#0-9]{0,6};?|[a-z\\u{995}\\u{E01} ]{0,10}){0,30}",
    ) {
        // Markup biased toward the tags the extractor cares about, with
        // hiding/labelling attributes, broken nesting, raw text, and
        // partial entities.
        prop_assert_eq!(extract_streaming(&input), extract(&parse(&input)));
    }
}
