//! Byte pins for the JSON the project publishes and the pages it renders.
//!
//! The dataset, the crawl ledger and the `/v1/audit` response are the
//! release formats, so their bytes are a contract: key order, optional
//! keys that are absent rather than `null`, number formatting and string
//! escapes. Each test below rebuilds one artefact from a fixed seed and
//! compares its length and FNV-1a digest with values captured from the
//! serializer the contract was written against. A serializer change that
//! moves a single byte fails here.
//!
//! The generated pages and their ground truth are pinned the same way,
//! over the render sweep, and so are datasets of two default-plan
//! corpora; both pins were captured while the build still matched the
//! original seed pipeline and pre-arena renderer byte for byte.

mod render_sweep;

use langcrux::core::{
    build_dataset, build_dataset_with_ledger, CrawlLedger, Dataset, PipelineOptions,
};
use langcrux::lang::rng::DEFAULT_SEED;
use langcrux::lang::Country;
use langcrux::net::{ContentVariant, FaultPlan};
use langcrux::serve::AuditService;
use langcrux::webgen::{render, render_into, Corpus, CorpusConfig, RenderScratch, SitePlan};
use langcrux_bench::{build_corpus, Scale};

/// Sites per country for both build pins (a `CorpusConfig::small` corpus).
const SITES: usize = 15;

/// Length and 64-bit FNV-1a digest of a byte string.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    len: usize,
    fnv1a: u64,
}

impl Pin {
    fn of(bytes: &[u8]) -> Pin {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        Pin {
            len: bytes.len(),
            fnv1a: hash,
        }
    }
}

/// Dataset and ledger JSON of one small build.
fn build(fault_plan: FaultPlan, gap_scenarios: bool) -> (String, String) {
    let corpus = Corpus::build(CorpusConfig {
        fault_plan,
        gap_scenarios,
        ..CorpusConfig::small(DEFAULT_SEED, SITES)
    });
    let (dataset, ledger) = build_dataset_with_ledger(
        &corpus,
        PipelineOptions {
            quota: SITES,
            ..PipelineOptions::default()
        },
    );
    (
        dataset.to_json().expect("dataset serializes"),
        ledger.to_json().expect("ledger serializes"),
    )
}

#[test]
fn reliable_build_bytes_are_pinned() {
    let (dataset, ledger) = build(FaultPlan::RELIABLE, false);
    assert!(!dataset.contains("\"gaps\""), "gap field in a gaps-off run");
    // Restricted and geo-block walls are vantage behaviour and fire even
    // under RELIABLE; only the injected transient classes must be silent
    // when every fault chance is zero.
    let errors = CrawlLedger::from_json(&ledger)
        .expect("ledger parses")
        .totals
        .errors;
    assert_eq!(
        [
            errors.timeouts,
            errors.resets,
            errors.server_errors,
            errors.deadline_exceeded,
            errors.circuit_open,
        ],
        [0; 5],
        "RELIABLE run had injected-fault errors: {errors:?}"
    );
    assert_eq!(
        Pin::of(dataset.as_bytes()),
        Pin {
            len: 1_399_043,
            fnv1a: 0xc5b7_5a57_6fb0_b8ac,
        },
        "RELIABLE dataset bytes moved"
    );
    assert_eq!(
        Pin::of(ledger.as_bytes()),
        Pin {
            len: 6_226,
            fnv1a: 0x5f10_09c7_bbdb_7878,
        },
        "RELIABLE ledger bytes moved"
    );
}

#[test]
fn hostile_gapped_build_bytes_are_pinned() {
    let (dataset, ledger) = build(FaultPlan::HOSTILE, true);
    // The pin covers every optional shape: records with and without a
    // `gaps` object, gap counters and retries in the ledger.
    let records = Dataset::from_json(&dataset)
        .expect("dataset parses")
        .records;
    let gapped = records.iter().filter(|r| r.gaps.is_some()).count();
    assert!(
        0 < gapped && gapped < records.len(),
        "{gapped} of {} records carry gaps",
        records.len()
    );
    let totals = CrawlLedger::from_json(&ledger)
        .expect("ledger parses")
        .totals;
    assert!(totals.gap_pages > 0, "no gap counters");
    assert!(totals.retries > 0, "no retries");
    assert_eq!(
        Pin::of(dataset.as_bytes()),
        Pin {
            len: 1_381_611,
            fnv1a: 0x493e_8469_143f_4f68,
        },
        "HOSTILE gapped dataset bytes moved"
    );
    assert_eq!(
        Pin::of(ledger.as_bytes()),
        Pin {
            len: 6_702,
            fnv1a: 0x08ce_accf_c998_e4dc,
        },
        "HOSTILE gapped ledger bytes moved"
    );
}

#[test]
fn audit_response_bytes_are_pinned() {
    let service = AuditService::new();
    let mut bytes = Vec::new();
    for i in 0..64 {
        let country = Country::STUDY[i % Country::STUDY.len()];
        let index = (i / Country::STUDY.len()) as u32;
        let plan = SitePlan::build_gapped(DEFAULT_SEED, country, index, None, true);
        let (html, _) = render(&plan, ContentVariant::Localized, "/");
        bytes.extend_from_slice(&service.audit_json(&html));
    }
    assert_eq!(
        Pin::of(&bytes),
        Pin {
            len: 966_525,
            fnv1a: 0x1a98_7df6_4243_0545,
        },
        "audit response bytes moved"
    );
}

#[test]
fn default_plan_dataset_bytes_are_pinned() {
    for (seed, sites, pin) in [
        (
            31,
            8,
            Pin {
                len: 704_824,
                fnv1a: 0xbab9_3ac0_b9eb_1fdf,
            },
        ),
        (
            41,
            6,
            Pin {
                len: 553_137,
                fnv1a: 0x4778_78ef_a09e_7f3f,
            },
        ),
    ] {
        let corpus = build_corpus(seed, Scale::Sites(sites));
        let dataset = build_dataset(
            &corpus,
            PipelineOptions {
                quota: sites,
                ..PipelineOptions::default()
            },
        );
        let json = dataset.to_json().expect("dataset serializes");
        assert_eq!(
            Pin::of(json.as_bytes()),
            pin,
            "seed {seed}, {sites} sites per country: dataset bytes moved"
        );
    }
}

#[test]
fn render_sweep_bytes_are_pinned() {
    let mut scratch = RenderScratch::new();
    let mut pooled = String::new();
    let mut html = Vec::new();
    let mut truth = Vec::new();
    for (plan, variant) in render_sweep::pages() {
        let host = &plan.host;
        let (page, page_truth) = render(&plan, variant, "/");
        // One long-lived arena renders what a fresh one does: no state
        // carries over from the pages before.
        pooled.clear();
        let pooled_truth = render_into(&plan, variant, "/", &mut scratch, &mut pooled);
        assert_eq!(pooled, page, "{host} {variant:?}: pooled HTML differs");
        assert_eq!(
            pooled_truth, page_truth,
            "{host} {variant:?}: pooled truth differs"
        );
        html.extend_from_slice(page.as_bytes());
        truth.extend_from_slice(
            serde_json::to_string(&page_truth)
                .expect("truth serializes")
                .as_bytes(),
        );
    }
    assert_eq!(
        Pin::of(&html),
        Pin {
            len: 1_730_319,
            fnv1a: 0xc6be_0df5_a6a3_993b,
        },
        "rendered HTML bytes moved"
    );
    assert_eq!(
        Pin::of(&truth),
        Pin {
            len: 376_806,
            fnv1a: 0x9e48_0ce0_9ccc_a3b1,
        },
        "page truth bytes moved"
    );
}
