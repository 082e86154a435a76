//! Tree construction: token stream → [`Document`].
//!
//! A simplified but robust HTML tree builder: a stack of open elements,
//! void-element handling, raw-text pass-through, and browser-style recovery
//! for mismatched end tags (pop to the nearest matching open element; drop
//! the end tag if none matches). It does not implement the full HTML5
//! insertion modes (no foster parenting, no active formatting elements) —
//! the corpus generator never emits such constructs, and for wild HTML the
//! recovery rules keep extraction sane. The void and implicit-close rules
//! are the ones the streaming walk emulates its stack with
//! ([`langcrux_html::stream`]).

use crate::dom::{Document, NodeId, NodeKind};
use langcrux_html::stream::{closes_same, is_void_element};
use langcrux_html::tokenizer::{tokenize, Token};

/// Parse an HTML string into a [`Document`]. Never fails; bad markup
/// degrades to a best-effort tree.
pub fn parse(input: &str) -> Document {
    let mut doc = Document::new();
    let mut stack: Vec<NodeId> = vec![NodeId::ROOT];

    for token in tokenize(input) {
        match token {
            Token::Doctype(d) => {
                if doc.doctype.is_none() {
                    doc.doctype = Some(d);
                }
            }
            Token::Comment(c) => {
                let parent = *stack.last().expect("stack never empty");
                doc.append(parent, NodeKind::Comment(c));
            }
            Token::Text(t) => {
                let parent = *stack.last().expect("stack never empty");
                doc.append(parent, NodeKind::Text(t));
            }
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                // Implicit close: "<li>a<li>b" closes the first li.
                if closes_same(&name) {
                    if let Some(pos) = stack
                        .iter()
                        .rposition(|&id| doc.tag_name(id) == Some(name.as_str()))
                    {
                        // Only close when the match is the innermost element
                        // (don't close a <p> through a nested <div>).
                        if pos == stack.len() - 1 {
                            stack.truncate(pos);
                        }
                    }
                }
                let parent = *stack.last().expect("stack never empty");
                let id = doc.append(
                    parent,
                    NodeKind::Element {
                        name: name.clone(),
                        attrs,
                    },
                );
                if !self_closing && !is_void_element(&name) {
                    stack.push(id);
                }
            }
            Token::EndTag { name } => {
                if let Some(pos) = stack
                    .iter()
                    .rposition(|&id| doc.tag_name(id) == Some(name.as_str()))
                {
                    stack.truncate(pos);
                }
                // Unmatched end tags are dropped (browser behaviour).
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visible::visible_text;
    use langcrux_html::HtmlBuilder;

    #[test]
    fn parses_nested_structure() {
        let doc = parse("<html><body><div><p>hello <b>world</b></p></div></body></html>");
        let p = doc.elements_named("p").next().unwrap();
        assert_eq!(doc.text_content(p), "hello world");
        let b = doc.elements_named("b").next().unwrap();
        assert_eq!(doc.parent_element(b), Some(p));
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse("<div><img src='x'>text after img</div>");
        let img = doc.elements_named("img").next().unwrap();
        assert!(doc.node(img).children.is_empty());
        let div = doc.elements_named("div").next().unwrap();
        assert_eq!(doc.text_content(div), "text after img");
    }

    #[test]
    fn implicit_li_close() {
        let doc = parse("<ul><li>one<li>two<li>three</ul>");
        let ul = doc.elements_named("ul").next().unwrap();
        let lis: Vec<NodeId> = doc.elements_named("li").collect();
        assert_eq!(lis.len(), 3);
        for li in &lis {
            assert_eq!(doc.parent_element(*li), Some(ul));
        }
    }

    #[test]
    fn implicit_p_close() {
        let doc = parse("<body><p>first<p>second</body>");
        let body = doc.elements_named("body").next().unwrap();
        let ps: Vec<NodeId> = doc.elements_named("p").collect();
        assert_eq!(ps.len(), 2);
        assert_eq!(doc.parent_element(ps[1]), Some(body));
    }

    #[test]
    fn p_not_closed_through_div() {
        // <p><div ...><p> — inner p must nest under div per our simplified
        // rule (the real spec actually closes p here, but consistent
        // nesting is what extraction needs).
        let doc = parse("<p>outer<span><p>inner</span></p>");
        assert_eq!(doc.elements_named("p").count(), 2);
    }

    #[test]
    fn mismatched_end_tags_recover() {
        let doc = parse("<div><span>text</div></span>");
        // </div> pops both span and div; trailing </span> is dropped.
        let div = doc.elements_named("div").next().unwrap();
        assert_eq!(doc.text_content(div), "text");
    }

    #[test]
    fn doctype_captured() {
        let doc = parse("<!DOCTYPE html><html></html>");
        assert_eq!(doc.doctype.as_deref(), Some("html"));
    }

    #[test]
    fn raw_text_title() {
        let doc = parse("<head><title>A &amp; B</title></head>");
        let title = doc.elements_named("title").next().unwrap();
        assert_eq!(doc.text_content(title), "A & B");
    }

    #[test]
    fn script_body_single_text_node() {
        let doc = parse("<script>var a = '<p>not a tag</p>';</script>");
        let script = doc.elements_named("script").next().unwrap();
        assert_eq!(doc.node(script).children.len(), 1);
        assert_eq!(doc.elements_named("p").count(), 0);
    }

    #[test]
    fn attributes_preserved() {
        let doc = parse(r#"<a href="/x" aria-label="читать далее">link</a>"#);
        let a = doc.elements_named("a").next().unwrap();
        assert_eq!(doc.attr(a, "aria-label"), Some("читать далее"));
    }

    #[test]
    fn deeply_nested_does_not_overflow() {
        let mut s = String::new();
        for _ in 0..3000 {
            s.push_str("<div>");
        }
        s.push_str("deep");
        let doc = parse(&s);
        assert_eq!(doc.elements_named("div").count(), 3000);
    }

    #[test]
    fn builds_wellformed_document() {
        let mut b = HtmlBuilder::document();
        b.open("html", &[("lang", Some("bn"))]);
        b.open("body", &[]);
        b.leaf("p", &[], "নমস্কার");
        b.void("img", &[("src", Some("/a.png")), ("alt", Some("ছবি"))]);
        b.close(); // body
        b.close(); // html
        let html = b.finish();
        assert!(html.starts_with("<!DOCTYPE html>"));
        let doc = parse(&html);
        assert_eq!(visible_text(&doc), "নমস্কার");
        let img = doc.elements_named("img").next().unwrap();
        assert_eq!(doc.attr(img, "alt"), Some("ছবি"));
    }

    #[test]
    fn escaping_round_trips() {
        let tricky = r#"5 < 6 & "quotes" > 4"#;
        let mut b = HtmlBuilder::fragment();
        b.leaf("p", &[("title", Some(tricky))], tricky);
        let html = b.finish();
        let doc = parse(&html);
        let p = doc.elements_named("p").next().unwrap();
        assert_eq!(doc.attr(p, "title"), Some(tricky));
        assert_eq!(doc.text_content(p), tricky);
    }

    #[test]
    fn garbage_inputs_produce_trees() {
        for junk in ["", "<", "</", ">>>", "<p", "text only", "<a></b></c><d>"] {
            let _ = parse(junk);
        }
    }
}
