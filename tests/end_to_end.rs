//! Cross-crate integration: determinism, serialization, fault handling.

use langcrux::core::{build_dataset, Dataset, PipelineOptions};
use langcrux::lang::Country;
use langcrux::net::FaultPlan;
use langcrux::webgen::{Corpus, CorpusConfig};

fn build(seed: u64, sites: usize, fault: FaultPlan) -> Dataset {
    let corpus = Corpus::build(CorpusConfig {
        seed,
        sites_per_country: sites,
        fault_plan: fault,
        ..Default::default()
    });
    build_dataset(
        &corpus,
        PipelineOptions {
            quota: sites,
            ..Default::default()
        },
    )
}

#[test]
fn dataset_build_is_bit_deterministic() {
    let a = build(777, 20, FaultPlan::RELIABLE);
    let b = build(777, 20, FaultPlan::RELIABLE);
    let ja = a.to_json().unwrap();
    let jb = b.to_json().unwrap();
    assert_eq!(ja, jb, "same seed must give byte-identical datasets");
}

#[test]
fn different_seeds_give_different_datasets() {
    let a = build(1, 15, FaultPlan::RELIABLE);
    let b = build(2, 15, FaultPlan::RELIABLE);
    assert_ne!(a.to_json().unwrap(), b.to_json().unwrap());
}

#[test]
fn hostile_network_still_fills_quota_via_replacement() {
    // ~10% timeouts + 5% resets + VPN detection: the selection walk must
    // absorb the failures using retries and next-candidate replacement
    // (§2: "we replace the affected websites with the next eligible
    // candidate").
    let corpus = Corpus::build(CorpusConfig {
        seed: 31337,
        sites_per_country: 25,
        fault_plan: FaultPlan::HOSTILE,
        ..Default::default()
    });
    let ds = build_dataset(
        &corpus,
        PipelineOptions {
            quota: 25,
            ..Default::default()
        },
    );
    for c in Country::STUDY {
        let n = ds.in_country(c).count();
        assert!(
            n >= 23,
            "{c:?}: only {n}/25 sites selected under a hostile network"
        );
    }
    // The network really did inject faults; the browser's retries absorbed
    // the transient ones (permanent failures, if any, were replaced).
    let m = corpus.internet().metrics();
    assert!(
        m.timeouts + m.resets > 0,
        "hostile plan injected no faults: {m:?}"
    );
}

#[test]
fn dataset_json_round_trip_preserves_analyses() {
    use langcrux::core::analysis;
    let ds = build(99, 15, FaultPlan::RELIABLE);
    let reloaded = Dataset::from_json(&ds.to_json().unwrap()).unwrap();
    // Analyses over the reloaded dataset must match exactly.
    let a = analysis::table2(&ds);
    let b = analysis::table2(&reloaded);
    assert_eq!(a, b);
    assert_eq!(
        analysis::lang_distribution(&ds),
        analysis::lang_distribution(&reloaded)
    );
    assert_eq!(
        analysis::discard_by_country(&ds),
        analysis::discard_by_country(&reloaded)
    );
}

#[test]
fn crawl_summaries_account_for_every_attempt() {
    let ds = build(5150, 20, FaultPlan::default());
    for s in &ds.crawl_summaries {
        assert_eq!(
            s.attempted,
            s.selected + s.rejected_threshold + s.failed_fetch,
            "{}: attempted != selected + rejected + failed",
            s.country_code
        );
        assert_eq!(s.selected, 20);
    }
}

#[test]
fn facade_reexports_cover_the_pipeline() {
    // The README quickstart path must exist through the facade crate.
    use langcrux::audit::audit_page;
    use langcrux::crawl::extract_streaming;
    use langcrux::kizuki::Kizuki;

    let page = extract_streaming(
        r#"<html lang="ja"><head><title>ニュース</title></head>
           <body><p>今日のニュースをお届けします。</p>
           <img src="a" alt="渋谷の夜景"></body></html>"#,
    );
    let base = audit_page(&page);
    let report = Kizuki::standard().evaluate(&page, &base);
    assert_eq!(report.new_score, report.base_score);
    assert_eq!(
        report.page_language,
        Some(langcrux::lang::Language::Japanese)
    );
}
