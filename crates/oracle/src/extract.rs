//! The DOM extractor: a [`PageExtract`] from a parsed [`Document`], by
//! tree queries.
//!
//! It implements the same contract as `langcrux_crawl::extract_streaming`
//! (attribute priority per element kind, missing vs empty, visible inner
//! text for buttons and links, labels associated by `for`, `<svg>` titles)
//! the way the contract reads: walk the tree, look attributes up, take an
//! element's text content. Regions come from the crawler's own
//! `RegionTracker`, fed by [`walk_events`], so they equal the streaming
//! extractor's by construction wherever the two walks deliver the same
//! events.

use crate::dom::{Document, NodeId, NodeKind};
use crate::visible::{visible_text_histogram, walk_events};
use langcrux_crawl::regions::RegionTracker;
use langcrux_crawl::{ExtractedElement, PageExtract, TextSource};
use langcrux_lang::a11y::ElementKind;
use std::collections::HashMap;

/// Number of whitespace-delimited tokens (the paper's Table 2 word count;
/// scriptio-continua labels count as one token, which matches how the
/// paper's CJK medians behave): the reference for the count that
/// `langcrux_filter::scan` takes in its single pass.
pub fn word_count(text: &str) -> usize {
    text.split_whitespace().count()
}

/// Character count (Unicode scalar values), the Table 2 text length: the
/// reference for `langcrux_filter::scan`'s count.
pub fn char_len(text: &str) -> usize {
    text.chars().count()
}

/// Extract all accessibility elements plus page-level facts from a DOM.
pub fn extract(doc: &Document) -> PageExtract {
    let (visible_text, visible_hist) = visible_text_histogram(doc);
    let mut tracker = RegionTracker::default();
    walk_events(doc, &mut tracker);
    let mut out = PageExtract {
        visible_text,
        visible_hist,
        regions: tracker.finish(),
        ..PageExtract::default()
    };

    // <html lang>.
    if let Some(html) = doc.elements_named("html").next() {
        out.declared_lang = doc.attr(html, "lang").map(|s| s.to_string());
    }

    // label[for] → text map for form-control association.
    let mut label_for: HashMap<String, String> = HashMap::new();
    for label in doc.elements_named("label") {
        if let Some(target) = doc.attr(label, "for") {
            label_for
                .entry(target.to_string())
                .or_insert_with(|| doc.text_content(label));
        }
    }

    // document-title: exactly one logical slot per page.
    let title = doc.elements_named("title").find(|&t| {
        // Ignore <title> children of <svg>.
        doc.ancestors(t).all(|a| doc.tag_name(a) != Some("svg"))
    });
    out.elements.push(match title {
        Some(t) => ExtractedElement {
            kind: ElementKind::DocumentTitle,
            text: Some(doc.text_content(t)),
            source: Some(TextSource::TextContent),
            visible_fallback: None,
        },
        None => ExtractedElement {
            kind: ElementKind::DocumentTitle,
            text: None,
            source: None,
            visible_fallback: None,
        },
    });

    for id in doc.elements() {
        let Some(tag) = doc.tag_name(id) else {
            continue;
        };
        match tag {
            "img" => out.elements.push(attr_element(
                doc,
                id,
                ElementKind::ImageAlt,
                &[("alt", TextSource::Alt)],
                None,
            )),
            "iframe" | "frame" => out.elements.push(attr_element(
                doc,
                id,
                ElementKind::FrameTitle,
                &[("title", TextSource::TitleAttr)],
                None,
            )),
            "button" => {
                let fallback = Some(doc.text_content(id));
                out.elements.push(attr_element(
                    doc,
                    id,
                    ElementKind::ButtonName,
                    &[
                        ("aria-label", TextSource::AriaLabel),
                        ("title", TextSource::TitleAttr),
                    ],
                    fallback,
                ));
            }
            "a" if doc.attr(id, "href").is_some() => {
                let fallback = Some(doc.text_content(id));
                out.elements.push(attr_element(
                    doc,
                    id,
                    ElementKind::LinkName,
                    &[
                        ("aria-label", TextSource::AriaLabel),
                        ("title", TextSource::TitleAttr),
                    ],
                    fallback,
                ));
            }
            "summary" => {
                let mut el = attr_element(
                    doc,
                    id,
                    ElementKind::SummaryName,
                    &[("aria-label", TextSource::AriaLabel)],
                    None,
                );
                if el.text.is_none() {
                    let inner = doc.text_content(id);
                    if !inner.trim().is_empty() {
                        el.text = Some(inner);
                        el.source = Some(TextSource::TextContent);
                    }
                }
                out.elements.push(el);
            }
            "svg" if doc.attr(id, "role") == Some("img") => {
                let mut el = attr_element(
                    doc,
                    id,
                    ElementKind::SvgImgAlt,
                    &[("aria-label", TextSource::AriaLabel)],
                    None,
                );
                if el.text.is_none() {
                    if let Some(t) = doc
                        .node(id)
                        .children
                        .iter()
                        .copied()
                        .find(|&c| doc.tag_name(c) == Some("title"))
                    {
                        el.text = Some(doc.text_content(t));
                        el.source = Some(TextSource::TitleChild);
                    }
                }
                out.elements.push(el);
            }
            "object" => {
                let mut el = attr_element(
                    doc,
                    id,
                    ElementKind::ObjectAlt,
                    &[("aria-label", TextSource::AriaLabel)],
                    None,
                );
                if el.text.is_none() {
                    let inner = doc.text_content(id);
                    if !inner.trim().is_empty() {
                        el.text = Some(inner);
                        el.source = Some(TextSource::TextContent);
                    }
                }
                out.elements.push(el);
            }
            "select" => {
                let mut el = attr_element(
                    doc,
                    id,
                    ElementKind::SelectName,
                    &[("aria-label", TextSource::AriaLabel)],
                    None,
                );
                if el.text.is_none() {
                    if let Some(label) = doc.attr(id, "id").and_then(|i| label_for.get(i)) {
                        el.text = Some(label.clone());
                        el.source = Some(TextSource::AssociatedLabel);
                    }
                }
                out.elements.push(el);
            }
            "input" => {
                let input_type = doc.attr(id, "type").unwrap_or("text");
                let is = |t: &str| input_type.eq_ignore_ascii_case(t);
                if is("image") {
                    out.elements.push(attr_element(
                        doc,
                        id,
                        ElementKind::InputImageAlt,
                        &[("alt", TextSource::Alt)],
                        None,
                    ));
                } else if is("submit") || is("button") || is("reset") {
                    out.elements.push(attr_element(
                        doc,
                        id,
                        ElementKind::InputButtonName,
                        &[
                            ("value", TextSource::Value),
                            ("aria-label", TextSource::AriaLabel),
                        ],
                        None,
                    ));
                } else if !is("hidden") {
                    // Text-like controls: the `label` audit target.
                    let mut el = attr_element(
                        doc,
                        id,
                        ElementKind::Label,
                        &[("aria-label", TextSource::AriaLabel)],
                        None,
                    );
                    if el.text.is_none() {
                        if let Some(label) = doc.attr(id, "id").and_then(|i| label_for.get(i)) {
                            el.text = Some(label.clone());
                            el.source = Some(TextSource::AssociatedLabel);
                        }
                    }
                    out.elements.push(el);
                }
            }
            _ => {}
        }
    }
    out
}

fn attr_element(
    doc: &Document,
    id: NodeId,
    kind: ElementKind,
    sources: &[(&str, TextSource)],
    visible_fallback: Option<String>,
) -> ExtractedElement {
    for (attr, source) in sources {
        if let Some(v) = doc.attr(id, attr) {
            return ExtractedElement {
                kind,
                text: Some(v.to_string()),
                source: Some(*source),
                visible_fallback,
            };
        }
    }
    // Sanity: `id` really is an element (attr lookups above need it too).
    debug_assert!(matches!(doc.node(id).kind, NodeKind::Element { .. }));
    ExtractedElement {
        kind,
        text: None,
        source: None,
        visible_fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_char_counts() {
        assert_eq!(word_count("three word label"), 3);
        assert_eq!(word_count("ภาพข่าว"), 1);
        assert_eq!(word_count("  "), 0);
        assert_eq!(char_len("ক খ"), 3);
        assert_eq!(char_len(""), 0);
    }
}
