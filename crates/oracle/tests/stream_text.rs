//! The streaming visible-text walk against the DOM walk.
//!
//! `langcrux_html::stream_visible_text_histogram(html)` must be byte- and
//! histogram-identical to `visible_text_histogram(&parse(html))`, and a
//! `StreamSink` fed by `stream_extract` must see the same tree-level
//! events as one fed by `walk_events` over the parsed tree. The pages are
//! hand-picked adversarial HTML, the pages whose production output
//! `html::visible`'s tests pin to literals, and the pages `html::stream`'s
//! scratch tests run.

use langcrux_html::stream::{stream_extract, stream_visible_text_histogram, StreamSink};
use langcrux_html::tokenizer::Attribute;
use langcrux_lang::script::ScriptHistogram;
use langcrux_oracle::{parse, visible_text, visible_text_histogram, walk_events};

/// The invariant the streaming walk exists to uphold.
fn assert_stream_matches_dom(html: &str) {
    let dom = visible_text_histogram(&parse(html));
    let streamed = stream_visible_text_histogram(html);
    assert_eq!(streamed.0, dom.0, "text diverged on {html:?}");
    assert_eq!(streamed.1, dom.1, "histogram diverged on {html:?}");
}

#[test]
fn matches_dom_on_simple_pages() {
    for html in [
        "",
        "plain text only",
        "<html><body><p>Hello</p><p>World</p></body></html>",
        "<p>a   b\n\t c</p>",
        "<p>he<b>ll</b>o</p>",
        "<ul><li>one<li>two<li>three</ul>",
        "<p>নমস্কার বিশ্ব</p><p>हिन्दी</p><p>สวัสดี</p>",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn matches_dom_on_skip_subtrees() {
    for html in [
        "<head><title>T</title><style>.x{}</style></head><body><p>only this</p></body>",
        "<script>var x = '<p>not text</p>';</script>after",
        "<div hidden><p>secret</p></div><p>shown</p>",
        r#"<span aria-hidden="true">x</span><span aria-hidden="false">y</span>"#,
        r#"<div style="display: none">a</div><div style="color:red">b</div>"#,
        r#"<div style="VISIBILITY:HIDDEN">a</div>ok"#,
        "<noscript><p>fallback</p></noscript>visible",
        "<div hidden><div><p>deep</p></div></div>tail",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn matches_dom_on_broken_markup() {
    for html in [
        "<div><span>text</div></span>",
        "<p>outer<span><p>inner</span></p>",
        "<b>unclosed everywhere",
        "<div class=\"x",
        "</p>leading end tag",
        "<a></b></c><d>",
        "a < b and c > d",
        "<p>first<p>second<div><p>third",
        "<table><tr><td>a<td>b<tr><td>c</table>",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn matches_dom_on_entities_and_raw_text() {
    for html in [
        "a &amp; b &#2453; &#x0E01; &unknown; &amp",
        "<title>News &amp; Weather</title><body>x</body>",
        "<textarea>5 &lt; 7</textarea>",
        "<script>a &amp; b stays raw</script><p>c &amp; d</p>",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn void_and_self_closing_blocks() {
    for html in [
        "a<br>b",
        "a<br/>b",
        "a<hr hidden>b",
        "<img src=x alt=y>tail",
        "<div/>not really self-closing in html but ours honours it<p>x</p>",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn deeply_nested_does_not_overflow() {
    let mut s = String::new();
    for _ in 0..3000 {
        s.push_str("<div>");
    }
    s.push_str("deep");
    assert_stream_matches_dom(&s);
}

/// The inputs of `html::visible`'s tests, which pin the streaming
/// output to literals: with the equality here, the DOM walk gives those
/// literals too.
#[test]
fn matches_dom_on_the_visible_text_literal_pages() {
    for html in [
        "<html><body><p>Hello</p><p>World</p></body></html>",
        "<html><head><title>T</title><style>.x{}</style></head>\
         <body><script>var x=1;</script><p>only this</p></body></html>",
        "<div hidden><p>secret</p></div><p>shown</p>",
        r#"<span aria-hidden="true">x</span><span aria-hidden="false">y</span>"#,
        r#"<div style="display: none">a</div><div style="color:red">b</div>"#,
        r#"<div style="VISIBILITY:HIDDEN">a</div>ok"#,
        "<div style=\"display:\tnone\">a</div>b",
        "<div style=\"display:\nnone\">a</div>b",
        "<div style=\"visibility :\thidden\">a</div>b",
        "<div style=\"color:red;\r\n  DISPLAY\x0c: NONE\">a</div>b",
        "<p>he<b>ll</b>o</p>",
        "<p>a   b\n\t c</p>",
        "<p>নমস্কার বিশ্ব</p><p>हिन्दी</p>",
        "<head><title>Site Name</title></head><body>body</body>",
        "",
        "<div></div>",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn hiding_style_scan_is_linear_in_the_value() {
    // A style value of 1 MB of whitespace with a needle's first byte in
    // front: a scan that restarts the needle at every offset needs about
    // 10^12 steps here, a linear one about 10^6.
    let html = format!(
        "<p style=\"d{}\">a</p><p style=\"v{}display:none\">b</p>c",
        " \t\n".repeat(350_000),
        " ".repeat(1_000_000)
    );
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(visible_text(&parse(&html)));
    });
    let dom = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the style scan did not finish in 30 s");
    assert_eq!(dom, "a\nc");
}

/// The page `html::stream`'s scratch tests run to leave every buffer
/// dirty and oversized (the same builder as there): elements left open
/// (one of them hiding), 3,000-deep nesting, nested labels, a 200 KB
/// attribute, a tag whose 40 attributes are each under the scratch cap
/// but together far above it, and long entity-laden text.
fn scratch_adversarial_page() -> String {
    let mut html = String::from(
        "<html lang=bn><title>t</title><label for=q>a<label for=q>b</label>\
         <button class=x data-y='&amp;z'>unclosed ",
    );
    html.push_str("<p");
    for i in 0..40 {
        html.push_str(&format!(" data-{i}=\"{}\"", "v".repeat(4_000)));
    }
    html.push('>');
    html.push_str(&"x &amp; y ".repeat(12_000));
    html.push_str("<div hidden>still open");
    html.push_str(&"<div>".repeat(3000));
    html.push_str(&format!("<img alt=\"{}\">", "ছ".repeat(70_000)));
    html
}

/// The other pages of `html::stream`'s scratch tests: its `NORMAL_PAGE`
/// and the outer and inner pages of its nested-extraction test.
#[test]
fn matches_dom_on_the_scratch_test_pages() {
    assert_stream_matches_dom(&scratch_adversarial_page());
    for html in [
        "<html lang=th><head><title>หน้า</title></head><body>\
         <p class=lead>สวัสดี &amp; ok</p><img src=a.png alt=ภาพ><input id=q>\
         <div style=\"display:\tnone\">hidden</div><p>ท้าย</p></body></html>",
        "<div lang=en><p>outer <i>text</i></p></div><p>tail</p>",
        "<p>inner <b>text</b></p><div hidden>no</div>",
    ] {
        assert_stream_matches_dom(html);
    }
}

#[test]
fn dom_walk_events_match_streaming_events() {
    // The contract `walk_events` exists for: a sink fed from the DOM
    // observes the same element structure, attributes-at-start, and
    // visible text runs as one fed from the tokenizer. Adjacent text
    // events may be split differently between the two paths, so text is
    // compared as merged (content, visible) runs.
    #[derive(Default, PartialEq, Debug)]
    struct Events(Vec<String>);
    impl StreamSink for Events {
        fn element_start(&mut self, name: &str, attrs: &[Attribute], visible: bool) {
            let mut attrs: Vec<String> = attrs
                .iter()
                .map(|a| format!("{}={}", a.name, a.value))
                .collect();
            attrs.sort();
            self.0
                .push(format!("+{name}/{}/{visible}", attrs.join(";")));
        }
        fn element_end(&mut self, name: &str) {
            self.0.push(format!("-{name}"));
        }
        fn text(&mut self, text: &str, tally: Option<&ScriptHistogram>) {
            let tagged = format!("t{}:", tally.is_some());
            match self.0.last_mut() {
                Some(last) if last.starts_with(&tagged) => last.push_str(text),
                _ => self.0.push(format!("{tagged}{text}")),
            }
        }
    }
    for html in [
        "<html lang=bn><body><nav>menu</nav><main lang=en>text</main></body></html>",
        "<div hidden><p>secret</p></div><p>shown</p>",
        "<ul><li>one<li>two</ul>",
        "<script>x</script><title>T</title>tail",
        "<p>a &amp; b</p><img src=x alt=y>",
        "<div><span>text</div></span><b>unclosed",
    ] {
        let (_, _, streamed) = stream_extract(html, Events::default());
        let mut dom_events = Events::default();
        walk_events(&parse(html), &mut dom_events);
        assert_eq!(streamed, dom_events, "events diverged on {html:?}");
    }
}
