//! Byte pins for the JSON the project publishes.
//!
//! The dataset, the crawl ledger and the `/v1/audit` response are the
//! release formats, so their bytes are a contract: key order, optional
//! keys that are absent rather than `null`, number formatting and string
//! escapes. Each test below rebuilds one artefact from a fixed seed and
//! compares its length and FNV-1a digest with values captured from the
//! serializer the contract was written against. A serializer change that
//! moves a single byte fails here.

use langcrux::core::{build_dataset_with_ledger, CrawlLedger, Dataset, PipelineOptions};
use langcrux::lang::rng::DEFAULT_SEED;
use langcrux::lang::Country;
use langcrux::net::{ContentVariant, FaultPlan};
use langcrux::serve::AuditService;
use langcrux::webgen::{render, Corpus, CorpusConfig, SitePlan};

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
