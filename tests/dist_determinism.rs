//! Kill-at-every-boundary chaos suite for the distributed build.
//!
//! The distributed coordinator's contract is byte-identity: whatever
//! workers die, whenever they die, the recovered dataset and ledger must
//! equal the no-failure single-process oracle. A [`LocalExecutor`]
//! failure models a SIGKILL faithfully — work units are atomic, so a
//! worker killed mid-unit leaks no partial state and is indistinguishable
//! from one that failed the whole dispatch (the process-level SIGKILL
//! path itself is exercised by the CI distributed smoke and the
//! `--chaos-kill-workers` harness).
//!
//! Four angles:
//!
//! * the *boundary sweep* — for **every** work unit the build plans, run
//!   a build where exactly that unit's first dispatch dies, so no unit
//!   index is an untested edge (first, last, mid-wave);
//! * the *seeded schedule sweep* — pseudorandom multi-kill schedules
//!   (several per run, pure in the unit key) with the injected-failure
//!   count cross-checked against the coordinator's reassignment metric;
//! * the *metrics exposition* — reassignments must be visible to
//!   operators through the registry, not just internally counted;
//! * *panic containment* — a site whose analysis panics is poisoned the
//!   same way in process and on a dispatched unit: one ledger entry, no
//!   failed dispatch.

use langcrux::core::dist::{
    build_dataset_distributed, DistBuild, DistOptions, LocalExecutor, WireBuildConfig,
};
use langcrux::core::{build_dataset_with_ledger, Dataset, PipelineOptions};
use langcrux::lang::rng;
use langcrux::webgen::{Corpus, CorpusConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const SEED: u64 = 47;
const SITES: usize = 8;

fn corpus() -> Corpus {
    Corpus::build(CorpusConfig::small(SEED, SITES))
}

/// Single-process dataset + ledger bytes — the oracle every disturbed
/// run must reproduce.
fn oracle_bytes() -> (String, String) {
    let (ds, ledger) = build_dataset_with_ledger(
        &corpus(),
        PipelineOptions {
            quota: SITES,
            ..PipelineOptions::default()
        },
    );
    (ds.to_json().unwrap(), ledger.to_json().unwrap())
}

fn options() -> DistOptions {
    DistOptions {
        quota: SITES,
        workers: 2,
        ..DistOptions::default()
    }
}

fn run(executor: &LocalExecutor) -> DistBuild {
    build_dataset_distributed(&corpus(), executor, &options()).expect("distributed build")
}

#[test]
fn a_kill_at_every_unit_boundary_recovers_to_oracle_bytes() {
    let (ds_oracle, ledger_oracle) = oracle_bytes();
    let config = WireBuildConfig::of(&corpus());

    // Recording pass: learn every unit key the coordinator plans.
    let seen: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let recorder = Arc::clone(&seen);
    let executor = LocalExecutor::with_failures(&config, move |key, _| {
        recorder.lock().unwrap().insert(key.to_string());
        false
    });
    let clean = run(&executor);
    assert_eq!(clean.dataset.to_json().unwrap(), ds_oracle);
    let units: Vec<String> = seen.lock().unwrap().iter().cloned().collect();
    assert_eq!(units.len() as u64, clean.stats.units_planned);
    assert!(units.len() >= 12, "one unit per country at minimum");

    // The sweep: kill each unit's first dispatch, one unit per build.
    for unit in &units {
        let victim = unit.clone();
        let executor = LocalExecutor::with_failures(&config, move |key, attempt| {
            key == victim && attempt == 0
        });
        let build = run(&executor);
        assert_eq!(
            build.dataset.to_json().unwrap(),
            ds_oracle,
            "dataset diverged with a kill at unit {unit}"
        );
        assert_eq!(
            build.ledger.to_json().unwrap(),
            ledger_oracle,
            "ledger diverged with a kill at unit {unit}"
        );
        assert_eq!(build.stats.reassignments, 1, "unit {unit}");
        assert_eq!(build.stats.worker_deaths, 1, "unit {unit}");
        assert!(build.ledger.degraded_units.is_empty(), "unit {unit}");
    }
}

#[test]
fn seeded_kill_schedules_recover_and_count_reassignments() {
    let (ds_oracle, ledger_oracle) = oracle_bytes();
    let config = WireBuildConfig::of(&corpus());
    for salt in [1u64, 9, 0x5eed] {
        // A multi-kill schedule pure in the unit key: up to two dispatch
        // deaths per unit, different units per salt.
        let injected = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&injected);
        let executor = LocalExecutor::with_failures(&config, move |key, attempt| {
            let dies = attempt < ((rng::stream_id(key) ^ salt) % 3) as u32;
            if dies {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            dies
        });
        let build = run(&executor);
        assert_eq!(
            build.dataset.to_json().unwrap(),
            ds_oracle,
            "salt {salt:#x}"
        );
        assert_eq!(
            build.ledger.to_json().unwrap(),
            ledger_oracle,
            "salt {salt:#x}"
        );
        // Every injected death shows up as exactly one reassignment.
        let killed = injected.load(Ordering::Relaxed);
        assert!(killed > 0, "salt {salt:#x} scheduled no kills");
        assert_eq!(build.stats.reassignments, killed, "salt {salt:#x}");
        assert_eq!(build.stats.worker_deaths, killed, "salt {salt:#x}");
    }
}

#[test]
fn reassignments_surface_in_the_metrics_exposition() {
    let config = WireBuildConfig::of(&corpus());
    let executor = LocalExecutor::with_failures(&config, |key, attempt| {
        attempt == 0 && key.starts_with("th:")
    });
    let build = run(&executor);
    assert!(build.stats.reassignments > 0);
    let mut enc = langcrux::obs::Encoder::new();
    build.stats.encode_metrics(&mut enc);
    let text = enc.prometheus_text();
    assert!(
        text.contains(&format!(
            "langcrux_dist_reassignments_total {}",
            build.stats.reassignments
        )),
        "{text}"
    );
    assert!(text.contains("langcrux_dist_workers 2"), "{text}");
}

/// Target host of the injected analysis panic; the hook is a plain fn
/// pointer, so the test passes the dynamic choice through a static.
static POISON_TARGET: OnceLock<String> = OnceLock::new();

fn poison_target(host: &str) -> bool {
    POISON_TARGET.get().is_some_and(|target| target == host)
}

#[test]
fn a_panicking_site_is_poisoned_alike_in_process_and_dispatched() {
    let (ds_oracle, _) = oracle_bytes();
    let oracle = Dataset::from_json(&ds_oracle).unwrap();
    let victim = oracle.records[oracle.records.len() / 2].host.clone();
    POISON_TARGET.set(victim.clone()).expect("set once");

    let (dataset, ledger) = build_dataset_with_ledger(
        &corpus(),
        PipelineOptions {
            quota: SITES,
            chaos_panic_host: Some(poison_target),
            ..PipelineOptions::default()
        },
    );
    let mut executor = LocalExecutor::new(&WireBuildConfig::of(&corpus()));
    executor.panic_host = Some(poison_target);
    let build = run(&executor);

    assert_eq!(build.dataset.to_json().unwrap(), dataset.to_json().unwrap());
    assert_eq!(build.ledger.to_json().unwrap(), ledger.to_json().unwrap());
    assert_eq!(build.ledger.totals.poisoned_sites, vec![victim.clone()]);
    assert!(build.ledger.degraded_units.is_empty());
    assert_eq!(build.stats.reassignments, 0, "{:?}", build.stats);
    assert_eq!(dataset.len(), oracle.len() - 1);
    assert!(dataset.records.iter().all(|r| r.host != victim));
}
