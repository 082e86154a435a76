//! Audit a real HTML page: base Lighthouse semantics vs Kizuki.
//!
//! Pass a path to an HTML file, or run without arguments to audit the
//! built-in demo page — a recreation of the paper's motivating example
//! (§4: teachers.gov.bd, a government portal whose visible content is
//! >98% Bangla while every image alt text is English).
//!
//! ```sh
//! cargo run --example audit_page                # built-in demo
//! cargo run --example audit_page -- page.html   # your own page
//! ```

use langcrux::audit::audit_page;
use langcrux::crawl::extract_streaming;
use langcrux::kizuki::{Kizuki, LinkLanguageCheck};

const DEMO: &str = r#"<!DOCTYPE html>
<html lang="bn"><head><title>শিক্ষক বাতায়ন</title></head><body>
<header><nav>
  <a href="/">মূলপাতা</a>
  <a href="/content">ডিজিটাল কনটেন্ট</a>
  <a href="/training" aria-label="view teacher training materials">প্রশিক্ষণ</a>
</nav></header>
<main>
  <h1>বাংলাদেশের শিক্ষকদের জাতীয় প্ল্যাটফর্ম</h1>
  <p>এই প্ল্যাটফর্মে সারা দেশের শিক্ষকরা পাঠ পরিকল্পনা, ডিজিটাল কনটেন্ট ও
     মূল্যায়ন উপকরণ তৈরি এবং বিনিময় করেন। প্রতিদিন হাজারো শিক্ষক এখানে
     নতুন শিক্ষাসামগ্রী যুক্ত করেন।</p>
  <img src="/img/banner.jpg" alt="teachers attending a training workshop">
  <img src="/img/class.jpg" alt="students in a classroom raising their hands">
  <img src="/img/award.jpg" alt="minister handing an award to the best teacher">
  <img src="/img/logo.png" alt="">
  <button type="button">অনুসন্ধান</button>
</main>
</body></html>"#;

fn main() {
    let html = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).expect("read HTML file"),
        None => DEMO.to_string(),
    };

    let page = extract_streaming(&html);
    println!(
        "extracted {} accessibility elements; visible text: {} chars",
        page.elements.len(),
        page.visible_text.chars().count()
    );

    let base = audit_page(&page);
    println!("\nbase audits (Lighthouse semantics):");
    for audit in &base.audits {
        if audit.total_elements == 0 {
            continue;
        }
        println!(
            "  {:<18} {}  ({} elements, {} failing, weight {})",
            audit.kind.audit_id(),
            if audit.passed { "pass" } else { "FAIL" },
            audit.total_elements,
            audit.failing_elements,
            audit.weight
        );
    }
    println!("  base score: {:.1}", base.score);

    // Standard Kizuki (the paper's alt-text check) plus the link-name
    // extension to demonstrate custom checks.
    let kizuki = Kizuki::standard().with_check(Box::new(LinkLanguageCheck::default()));
    let report = kizuki.evaluate(&page, &base);
    println!(
        "\nKizuki (page language: {}):",
        report
            .page_language
            .map(|l| l.name())
            .unwrap_or("undetermined")
    );
    for check in &report.checks {
        println!(
            "  {:<28} {}  ({} informative texts, {} mismatched)",
            check.id,
            if check.passed { "pass" } else { "FAIL" },
            check.examined,
            check.mismatched
        );
    }
    println!(
        "  language-aware score: {:.1}  (delta {:+.1})",
        report.new_score,
        report.delta()
    );
}
