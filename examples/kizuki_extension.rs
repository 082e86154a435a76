//! Extending Kizuki with a custom language-aware check.
//!
//! The paper's released tool documents "how to extend it with custom
//! accessibility tests". This example implements a new check from scratch —
//! button names must match the page language — registers it alongside the
//! shipped ones, and compares scores across three configurations on the
//! same bilingual page.
//!
//! ```sh
//! cargo run --example kizuki_extension
//! ```

use langcrux::audit::audit_page;
use langcrux::crawl::extract_streaming;
use langcrux::kizuki::{CheckOutcome, Kizuki, LanguageAwareCheck, LinkLanguageCheck, PageAnalysis};
use langcrux::lang::a11y::ElementKind;
use langcrux::langid::LabelLanguage;

/// A user-defined check: `<button>` accessible names must be in the page's
/// language. Implemented exactly like a third-party extension would.
struct ButtonLanguageCheck;

impl LanguageAwareCheck for ButtonLanguageCheck {
    fn id(&self) -> &'static str {
        "custom/button-name-language"
    }

    fn kind(&self) -> ElementKind {
        ElementKind::ButtonName
    }

    fn evaluate(&self, page: &PageAnalysis) -> CheckOutcome {
        let mut examined = 0;
        let mut mismatched = 0;
        // Judge the accessible name a screen reader would announce: the
        // explicit label, or the visible fallback text. The analysis has
        // already labelled it against the page language.
        for button in page.of_kind(ElementKind::ButtonName) {
            match button.name_label {
                None | Some(LabelLanguage::NonLinguistic) => {}
                Some(LabelLanguage::Native | LabelLanguage::Mixed) => examined += 1,
                Some(LabelLanguage::English | LabelLanguage::OtherLanguage) => {
                    examined += 1;
                    mismatched += 1;
                }
            }
        }
        CheckOutcome {
            id: self.id().to_string(),
            kind: ElementKind::ButtonName,
            passed: mismatched == 0,
            examined,
            mismatched,
        }
    }
}

const PAGE: &str = r#"<!DOCTYPE html>
<html lang="el"><head><title>Εθνική Πύλη</title></head><body>
<p>Καλώς ήρθατε στην εθνική πύλη εξυπηρέτησης πολιτών. Εδώ θα βρείτε
αιτήσεις, πιστοποιητικά και οδηγίες για όλες τις δημόσιες υπηρεσίες.</p>
<img src="/a.jpg" alt="πολίτες στο κέντρο εξυπηρέτησης">
<img src="/b.jpg" alt="the main entrance of the ministry building">
<a href="/forms" aria-label="download application forms">Αιτήσεις</a>
<button type="button">Search</button>
<button type="button">Αναζήτηση εγγράφων</button>
</body></html>"#;

fn main() {
    let page = extract_streaming(PAGE);
    let base = audit_page(&page);
    println!("base score: {:.1}\n", base.score);

    let configs: [(&str, Kizuki); 3] = [
        ("standard (alt text only)", Kizuki::standard()),
        (
            "+ link-name check",
            Kizuki::standard().with_check(Box::new(LinkLanguageCheck::default())),
        ),
        (
            "+ link-name + custom button check",
            Kizuki::standard()
                .with_check(Box::new(LinkLanguageCheck::default()))
                .with_check(Box::new(ButtonLanguageCheck)),
        ),
    ];

    for (name, engine) in configs {
        let report = engine.evaluate(&page, &base);
        println!(
            "{name}: {} checks, score {:.1} (delta {:+.1})",
            report.checks.len(),
            report.new_score,
            report.delta()
        );
        for check in &report.checks {
            println!(
                "    {:<30} {}  ({}/{} mismatched)",
                check.id,
                if check.passed { "pass" } else { "FAIL" },
                check.mismatched,
                check.examined
            );
        }
    }
}
