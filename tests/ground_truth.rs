//! Plant-vs-measure: the generator's ground truth against the pipeline's
//! measurements.
//!
//! The webgen renderer reports exactly what it planted ([`PageTruth`]); the
//! crawl/extract/filter/langid pipeline must recover those counts from raw
//! HTML bytes. Exact agreement is required for structural counts
//! (missing/empty/totals); classification layers (filter categories, label
//! languages) are heuristic and must agree within tolerance.

use langcrux::crawl::extract_streaming;
use langcrux::filter::classify;
use langcrux::lang::a11y::ElementKind;
use langcrux::lang::Country;
use langcrux::langid::{classify_label, LabelLanguage};
use langcrux::net::ContentVariant;
use langcrux::webgen::{render, SitePlan};

fn plans(n: u32) -> impl Iterator<Item = (Country, SitePlan)> {
    Country::STUDY
        .into_iter()
        .flat_map(move |c| (0..n).map(move |i| (c, SitePlan::build(0xBEEF, c, i, Some(true)))))
}

#[test]
fn structural_counts_recovered_exactly() {
    for (country, plan) in plans(6) {
        let (html, truth) = render(&plan, ContentVariant::Localized, "/");
        let page = extract_streaming(&html);
        for kind in ElementKind::ALL {
            let planted = truth.kind(kind);
            let measured_total = page.of_kind(kind).count() as u32;
            let measured_missing = page.of_kind(kind).filter(|e| e.is_missing()).count() as u32;
            let measured_empty = page.of_kind(kind).filter(|e| e.is_empty_text()).count() as u32;
            assert_eq!(
                planted.total, measured_total,
                "{country:?}/{}: {kind:?} total",
                plan.host
            );
            assert_eq!(
                planted.missing, measured_missing,
                "{country:?}/{}: {kind:?} missing",
                plan.host
            );
            assert_eq!(
                planted.empty, measured_empty,
                "{country:?}/{}: {kind:?} empty",
                plan.host
            );
        }
    }
}

#[test]
fn filter_verdicts_agree_with_planted_categories() {
    let mut planted_uninformative = 0u32;
    let mut measured_uninformative = 0u32;
    let mut planted_informative = 0u32;
    let mut measured_informative = 0u32;
    for (_, plan) in plans(6) {
        let (html, truth) = render(&plan, ContentVariant::Localized, "/");
        let page = extract_streaming(&html);
        for kind in ElementKind::ALL {
            planted_uninformative += truth.kind(kind).uninformative_total();
            planted_informative += truth.kind(kind).informative_total();
        }
        for (_, text) in page.texts() {
            if classify(text).is_some() {
                measured_uninformative += 1;
            } else {
                measured_informative += 1;
            }
        }
    }
    // The filter is heuristic: planted-informative Thai single tokens may
    // be discarded, and a few planted category instances overlap. Within
    // 12% overall is the contract.
    let total = (planted_uninformative + planted_informative) as f64;
    let drift =
        (f64::from(planted_uninformative) - f64::from(measured_uninformative)).abs() / total;
    assert!(
        drift < 0.12,
        "verdict drift {drift:.3}: planted {planted_uninformative}/{planted_informative}, \
         measured {measured_uninformative}/{measured_informative}"
    );
}

#[test]
fn label_language_classes_recovered() {
    let mut planted = (0u32, 0u32, 0u32); // native, english, mixed
    let mut measured = (0u32, 0u32, 0u32);
    for (country, plan) in plans(8) {
        let native = country.target_language();
        let (html, truth) = render(&plan, ContentVariant::Localized, "/");
        let page = extract_streaming(&html);
        for kind in ElementKind::ALL {
            let t = truth.kind(kind);
            planted.0 += t.informative_native;
            planted.1 += t.informative_english;
            planted.2 += t.informative_mixed;
        }
        for (_, text) in page.texts() {
            if classify(text).is_none() {
                match classify_label(text, native) {
                    LabelLanguage::Native => measured.0 += 1,
                    LabelLanguage::English => measured.1 += 1,
                    LabelLanguage::Mixed => measured.2 += 1,
                    _ => {}
                }
            }
        }
    }
    let planted_total = f64::from(planted.0 + planted.1 + planted.2);
    let measured_total = f64::from(measured.0 + measured.1 + measured.2);
    let p = |n: u32, t: f64| f64::from(n) / t;
    // Each bucket's share must be recovered within 8 points.
    for (name, a, b) in [
        (
            "native",
            p(planted.0, planted_total),
            p(measured.0, measured_total),
        ),
        (
            "english",
            p(planted.1, planted_total),
            p(measured.1, measured_total),
        ),
        (
            "mixed",
            p(planted.2, planted_total),
            p(measured.2, measured_total),
        ),
    ] {
        assert!(
            (a - b).abs() < 0.08,
            "{name}: planted share {a:.3} vs measured {b:.3}"
        );
    }
}

#[test]
fn global_variant_plants_and_measures_english() {
    for (country, plan) in plans(3) {
        let (html, truth) = render(&plan, ContentVariant::Global, "/");
        let page = extract_streaming(&html);
        // Ground truth says all informative labels are English…
        for kind in ElementKind::ALL {
            assert_eq!(
                truth.kind(kind).informative_native,
                0,
                "{country:?} {kind:?}"
            );
        }
        // …and the measurement agrees for almost all of them.
        let mut english = 0u32;
        let mut other = 0u32;
        for (_, text) in page.texts() {
            if classify(text).is_none() {
                match classify_label(text, country.target_language()) {
                    LabelLanguage::English => english += 1,
                    _ => other += 1,
                }
            }
        }
        assert!(
            english >= 9 * (english + other) / 10,
            "{country:?}: {english} english vs {other} other"
        );
    }
}

#[test]
fn visible_share_tracks_plan_target() {
    use langcrux::langid::composition;
    let mut err_sum = 0.0;
    let mut n = 0usize;
    for (country, plan) in plans(10) {
        let (html, _) = render(&plan, ContentVariant::Localized, "/");
        let page = extract_streaming(&html);
        let comp = composition(&page.visible_text, country.target_language());
        err_sum += (comp.native_pct / 100.0 - plan.visible_native_share).abs();
        n += 1;
    }
    let mean_err = err_sum / n as f64;
    assert!(
        mean_err < 0.06,
        "mean |measured - target| visible share {mean_err:.3}"
    );
}
