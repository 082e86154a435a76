//! Audit case corpus: page-level scenarios exercising each rule's
//! semantics and the score arithmetic, beyond the isolated probes of the
//! Table 3 matrix.

use langcrux::audit::{audit_page, OTHER_AUDITS_WEIGHT};
use langcrux::crawl::extract_streaming;
use langcrux::kizuki::Kizuki;
use langcrux::lang::a11y::ElementKind;

fn audit(html: &str) -> langcrux::audit::AuditReport {
    audit_page(&extract_streaming(html))
}

#[test]
fn score_arithmetic_single_failure() {
    // One failing 10-weight audit out of 91 + OTHER: exact expected score.
    let report = audit(r#"<head><title>t</title></head><img src="a">"#);
    let expected = (OTHER_AUDITS_WEIGHT + 91.0 - 10.0) / (OTHER_AUDITS_WEIGHT + 91.0) * 100.0;
    assert!((report.score - expected).abs() < 1e-9, "{}", report.score);
}

#[test]
fn score_arithmetic_two_failures() {
    let report = audit(
        r#"<head><title>t</title></head>
           <img src="a">
           <iframe src="/e"></iframe>"#,
    );
    let expected = (OTHER_AUDITS_WEIGHT + 91.0 - 17.0) / (OTHER_AUDITS_WEIGHT + 91.0) * 100.0;
    assert!((report.score - expected).abs() < 1e-9, "{}", report.score);
}

#[test]
fn buttons_with_inner_text_pass_links_without_fail() {
    let report = audit(
        r#"<head><title>t</title></head>
           <button>검색</button>
           <a href="/empty"></a>"#,
    );
    assert!(report.passes(ElementKind::ButtonName));
    assert!(!report.passes(ElementKind::LinkName));
}

#[test]
fn aria_label_rescues_empty_link() {
    let report = audit(
        r#"<head><title>t</title></head>
           <a href="/x" aria-label="главная страница"></a>"#,
    );
    assert!(report.passes(ElementKind::LinkName));
}

#[test]
fn select_needs_label_or_aria() {
    let with_aria = audit(
        r#"<head><title>t</title></head>
           <select aria-label="เลือกจังหวัด"><option>1</option></select>"#,
    );
    assert!(with_aria.passes(ElementKind::SelectName));
    let with_label = audit(
        r#"<head><title>t</title></head>
           <label for="p">จังหวัด</label>
           <select id="p"><option>1</option></select>"#,
    );
    assert!(with_label.passes(ElementKind::SelectName));
    let bare = audit(
        r#"<head><title>t</title></head>
           <select><option>1</option></select>"#,
    );
    assert!(!bare.passes(ElementKind::SelectName));
}

#[test]
fn input_variants() {
    // Missing value on a submit input passes (browser default text);
    // empty value fails; image input requires alt.
    let report = audit(
        r#"<head><title>t</title></head>
           <form>
             <input type="submit">
             <input type="image" src="b.png" alt="구매하기">
           </form>"#,
    );
    assert!(report.passes(ElementKind::InputButtonName));
    assert!(report.passes(ElementKind::InputImageAlt));

    let report = audit(
        r#"<head><title>t</title></head>
           <form>
             <input type="submit" value="">
             <input type="image" src="b.png">
           </form>"#,
    );
    assert!(!report.passes(ElementKind::InputButtonName));
    assert!(!report.passes(ElementKind::InputImageAlt));
}

#[test]
fn lenient_rules_never_fail_whatever_the_state() {
    let report = audit(
        r#"<head><title>t</title></head>
           <input type="text">
           <details><summary></summary></details>
           <svg role="img"><path d="M0 0"/></svg>"#,
    );
    assert!(report.passes(ElementKind::Label));
    assert!(report.passes(ElementKind::SummaryName));
    assert!(report.passes(ElementKind::SvgImgAlt));
    assert!((report.score - 100.0).abs() < 1e-9);
}

#[test]
fn decorative_images_pass_but_kizuki_ignores_them() {
    // alt="" passes the base audit and gives Kizuki nothing to examine.
    let html = r#"<html><head><title>முகப்பு</title></head><body>
        <p>தமிழ்நாட்டின் இன்றைய முக்கியச் செய்திகள் இங்கே தொகுக்கப்பட்டுள்ளன.</p>
        <img src="a" alt=""><img src="b" alt=""></body></html>"#;
    let page = extract_streaming(html);
    let base = audit_page(&page);
    assert!(base.passes(ElementKind::ImageAlt));
    let kizuki = Kizuki::standard().evaluate(&page, &base);
    assert_eq!(kizuki.new_score, kizuki.base_score);
    assert_eq!(kizuki.checks[0].examined, 0);
}

#[test]
fn kizuki_penalty_is_exactly_the_audit_weight() {
    let html = r#"<html><head><title>ページ</title></head><body>
        <p>東京の天気予報と今日の主要なニュースをまとめてお届けします。</p>
        <img src="a" alt="aerial view of the river and the old bridge">
        </body></html>"#;
    let page = extract_streaming(html);
    let base = audit_page(&page);
    assert!((base.score - 100.0).abs() < 1e-9);
    let kizuki = Kizuki::standard().evaluate(&page, &base);
    let expected_drop = 10.0 / (OTHER_AUDITS_WEIGHT + 91.0) * 100.0;
    assert!(
        (kizuki.delta() + expected_drop).abs() < 1e-9,
        "delta {} vs expected -{expected_drop}",
        kizuki.delta()
    );
}

#[test]
fn report_outcome_counts_match_page_contents() {
    let report = audit(
        r#"<head><title>t</title></head>
           <img src=a alt="один"><img src=b><img src=c alt="">"#,
    );
    let outcome = report.outcome(ElementKind::ImageAlt);
    assert_eq!(outcome.total_elements, 3);
    assert_eq!(outcome.failing_elements, 1); // only the missing alt
    let title = report.outcome(ElementKind::DocumentTitle);
    assert_eq!(title.total_elements, 1);
    assert_eq!(title.failing_elements, 0);
}
