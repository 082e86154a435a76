//! The streaming extractor against the DOM extractor.
//!
//! For each page, `langcrux_crawl::extract_streaming(html)` must equal
//! `extract(&parse(html))` on the whole `PageExtract`: visible text,
//! histogram, declared lang, every accessibility element and every
//! language region. That equality is what kept `Dataset::to_json`, the
//! serve cache's audit bytes and Table 3 unchanged when production moved
//! to the streaming extractor. The pages are hand-picked adversarial
//! HTML, the pages whose production output `crawl::extract`'s and
//! `crawl::regions`' tests pin to literals, the pages `crawl::stream`'s
//! scratch tests run, the 36 Table 3 probe pages and every study
//! country's generated sites in all content variants.

use langcrux_audit::{probe_page, Condition};
use langcrux_crawl::extract_streaming;
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Country;
use langcrux_net::ContentVariant;
use langcrux_oracle::{extract, parse};
use langcrux_webgen::{render, SitePlan};

fn assert_matches_dom(html: &str) {
    let dom = extract(&parse(html));
    let streamed = extract_streaming(html);
    assert_eq!(streamed, dom, "PageExtract diverged on {html:?}");
}

#[test]
fn matches_dom_on_representative_pages() {
    for html in [
        "",
        "<html lang=\"th\"><head><title>หน้าแรก</title></head><body><p>สวัสดี</p></body></html>",
        r#"<img src=a><img src=b alt=""><img src=c alt="a cat">"#,
        r#"<button aria-label="закрыть">X</button><button>Open</button>"#,
        r#"<a href="/x">go</a><a name="anchor">not a link</a>"#,
        r#"<label for="name">Ваше имя</label><input type="text" id="name">
           <input type="text" id="unlabelled"><input type="text" aria-label="phone">"#,
        r#"<input type="image" src="b.png" alt="buy"><input type="submit" value="전송">
           <input type="hidden" value="x"><input>"#,
        r#"<details><summary>รายละเอียด</summary></details>
           <details><summary></summary></details>
           <object data="f.pdf">annual report</object>"#,
        r#"<head><title>Page</title></head>
           <svg role="img"><title>home icon</title></svg><svg><circle/></svg>"#,
        r#"<select id="s1"></select><label for="s1">choose</label>"#,
    ] {
        assert_matches_dom(html);
    }
}

#[test]
fn matches_dom_on_structural_edge_cases() {
    for html in [
        // Label appears after the control it names.
        r#"<input id="late"><label for="late">привет</label>"#,
        // Nested labels for the same target: document order wins.
        r#"<label for="x">a<label for="x">b</label></label><input id="x">"#,
        // Button whose text_content crosses broken nesting.
        "<button>a<div>b</button>c",
        // Unclosed button swallows the page tail, like the DOM tree.
        "<button>start<p>rest of page",
        // Link inside a button: both capture their inner text.
        r#"<button><a href="/x">inner</a>outer</button>"#,
        // svg title after a sibling element is still a direct child.
        r#"<svg role="img"><circle/><title>late title</title></svg>"#,
        // Nested svg: title is a child of <g>, not of the svg itself.
        r#"<svg role="img"><g><title>not direct</title></g></svg>"#,
        // A second <html> never re-declares lang.
        r#"<html><body></body></html><html lang="de"></html>"#,
        // Title inside svg is not the document title; the next one is.
        r#"<svg><title>icon</title></svg><title>real</title>"#,
        // Self-closing title and button.
        "<title/><button/>",
        // Hidden subtrees still contribute accessibility elements.
        r#"<div hidden><img src=x><button>b</button></div>"#,
        // Duplicate ids: HashMap association, first label in document
        // order wins for both controls.
        r#"<label for="d">one</label><label for="d">two</label>
           <input id="d"><select id="d"></select>"#,
    ] {
        assert_matches_dom(html);
    }
}

#[test]
fn matches_dom_on_adversarial_markup() {
    for html in [
        // Mis-nested end tag inside raw text: '</scrip' does not close.
        "<script>a</scrip>b</script><p>after</p>",
        "<title>t</titl>still title</title><body>x</body>",
        // Entities split by a tag: neither path decodes across runs.
        "a&am<b>p;</b>",
        "<p>&#24<span>53;</span></p>",
        // Entity at the very end of a capture.
        "<button>x &amp</button>",
        // Hidden-subtree attributes in every hiding form.
        r#"<div hidden=hidden><p>a</p></div><div aria-hidden="TRUE">b</div>
           <div style="display : none">c</div>ok"#,
        // Any ASCII whitespace around the ':' still hides.
        "<div style=\"display:\tnone\"><button>a</button></div>b",
        "<nav style=\"display:\nnone\">a</nav><p>b</p>",
        "<html lang=bn><section lang=en style=\"visibility :\thidden\">a</section>b",
        // Unterminated raw text swallows to EOF.
        "<script>everything<p>else",
        "<title>unterminated title<p>tail",
        // End tags with no open element.
        "</div></p></body>text",
        // Attributes on end tags are ignored.
        "<div>a</div class=x>b",
    ] {
        assert_matches_dom(html);
    }
}

/// The inputs of `crawl::extract`'s tests, which pin the streaming
/// extractor's output to literals: with the equality here, the DOM
/// extractor gives those literals too.
#[test]
fn matches_dom_on_the_extract_literal_pages() {
    for html in [
        r#"<img src=a><img src=b alt=""><img src=c alt="a cat">"#,
        r#"<button aria-label="закрыть">X</button><button>Open</button>"#,
        r#"<a href="/x">go</a><a name="anchor">not a link</a>"#,
        "<head><title>Новости дня</title></head>",
        "<head></head><body></body>",
        r#"<head><title>Page</title></head>
               <svg role="img"><title>home icon</title></svg>
               <svg><circle/></svg>"#,
        r#"<label for="name">Ваше имя</label><input type="text" id="name">
               <input type="text" id="unlabelled">
               <input type="text" aria-label="phone">"#,
        r#"<input type="image" src="b.png" alt="buy">
               <input type="submit" value="전송">
               <input type="hidden" value="x">
               <input>"#,
        r#"<details><summary>รายละเอียด</summary></details>
               <details><summary></summary></details>
               <object data="f.pdf">annual report</object>"#,
        r#"<html lang="th"><body><p>สวัสดี</p></body></html>"#,
        r#"<html lang="bn"><body><p>বাংলা সংবাদ and english</p>
               <div hidden>hidden русский</div><p>১২৩ 456</p></body></html>"#,
        r#"<img alt="one"><img><img alt="">"#,
    ] {
        assert_matches_dom(html);
    }
}

/// The inputs of `crawl::regions`' tests, which pin the streaming
/// extractor's regions to literals: the DOM extractor, feeding the same
/// region tracker from the tree, must give the same regions (and the
/// rest of the page).
#[test]
fn matches_dom_on_the_region_literal_pages() {
    for html in [
        "<html lang=bn-IN><body><p>বাংলা</p></body></html>",
        "<html lang=bn><body><nav>Home About</nav>\
         <main><p>বাংলা সংবাদ</p></main><footer>Contact</footer></body></html>",
        "<html lang=bn><body><p>বাংলা</p>\
         <section lang=en>English callout</section>\
         <section lang=bn>ভুল নয়</section></body></html>",
        "<html lang=th><body>ก่อน<nav>เมนู</nav>หลัง</body></html>",
        "<html lang=bn><body><nav hidden>secret nav</nav><p>বাংলা</p></body></html>",
        "plain text only",
        "<html lang=bn><body><nav>  </nav><p>বাংলা</p></body></html>",
        "<html lang=bn><body><nav></nav><p>বাংলা</p></body></html>",
    ] {
        assert_matches_dom(html);
    }
}

/// The page `crawl::stream`'s scratch tests run to leave every extractor
/// buffer dirty and oversized (the same builder as there): an unclosed
/// `<button>` capturing the rest of the page, nested labels, 200 nested
/// links around one text, 3,000-deep nesting inside a `lang` region, and
/// 200 KB attribute values where the extractor keeps them.
fn scratch_adversarial_page() -> String {
    let big = "ছ".repeat(70_000);
    let mut html = format!(
        "<html lang=bn><title>প্রথম</title>\
         <label for=q>outer<label for=q>inner</label></label>\
         <label for=\"{big}\">long target</label><input id=\"{big}\">"
    );
    html.push_str(&"<a href=/x>".repeat(200));
    html.push_str(&"লিংক ".repeat(400));
    html.push_str(&"</a>".repeat(200));
    html.push_str(&format!("<section lang=\"{big}\"><button>unclosed "));
    html.push_str(&"<div>".repeat(3000));
    html.push_str(&format!("<img alt=\"{big}\"><svg role=img><g>"));
    html.push_str(&"text &amp; more ".repeat(6_000));
    html
}

/// The other pages of `crawl::stream`'s scratch tests: its `NORMAL_PAGE`
/// and the outer page of its nested-extraction test.
#[test]
fn matches_dom_on_the_scratch_test_pages() {
    assert_matches_dom(&scratch_adversarial_page());
    for html in [
        "<html lang=th><head><title>หน้า</title></head><body>\
         <nav>Home</nav><main><p>สวัสดี</p><img src=a.png alt=ภาพ>\
         <input id=q><select id=s></select><label for=s>เลือก</label>\
         <button>ส่ง</button><svg role=img><title>ไอคอน</title></svg></main></body></html>",
        "<html lang=bn><title>বাইরে</title><label for=i>নাম</label>\
         <button>চাপুন<nav>Home</nav></button><input id=i></html>",
    ] {
        assert_matches_dom(html);
    }
}

/// Table 3 runs `audit::lighthouse_matrix` over these pages on the
/// streaming extractor; they must extract as the DOM extractor does.
#[test]
fn table3_probe_pages_match_dom() {
    let mut pages = 0usize;
    for kind in ElementKind::ALL {
        for condition in [
            Condition::Missing,
            Condition::Empty,
            Condition::WrongLanguage,
        ] {
            assert_matches_dom(&probe_page(kind, condition));
            pages += 1;
        }
    }
    // 12 kinds × 3 conditions.
    assert_eq!(pages, 36);
}

#[test]
fn corpus_sweep_streaming_equals_dom() {
    let mut pages = 0usize;
    for country in Country::STUDY {
        for index in 0..6u32 {
            // Alternate pinned qualification so both site shapes appear.
            let plan = SitePlan::build(0x57AE, country, index, Some(index % 2 == 0));
            for variant in [
                ContentVariant::Localized,
                ContentVariant::Global,
                ContentVariant::Restricted,
            ] {
                let (html, _) = render(&plan, variant, "/");
                let dom = extract(&parse(&html));
                let streamed = extract_streaming(&html);
                assert_eq!(
                    streamed, dom,
                    "diverged: {country:?} site {index} {variant:?}"
                );
                pages += 1;
            }
        }
    }
    // 12 countries × 6 sites × 3 variants.
    assert_eq!(pages, 216);
}
