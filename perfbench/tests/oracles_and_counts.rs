//! The benchmark's own checks: a corrupted oracle lowers `ok_share` on
//! both kinds of workload, and two traced runs at one seed repeat every
//! exact count.

#[global_allocator]
static GLOBAL: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

use perfbench::builds::{self, Corpora, Digest, Oracle};
use perfbench::cli::Workload;
use perfbench::serve::{self, Conns, Inputs};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Sites per country for the in-process build checks: small and quick.
const SITES: usize = 6;

#[test]
fn a_corrupted_build_oracle_lowers_ok_share() {
    let w = builds::workload(Workload::BuildHostileGaps);
    let mut corpora = Corpora::set_up(&w, 11, SITES, 2);
    assert!(corpora.setup_ok);
    let run = |corpora: &mut Corpora| {
        let samples = builds::sample(corpora, Duration::from_millis(300), |_, c| {
            builds::op(c, SITES, 0)
        });
        samples.outcome("test", &corpora.setup_s, corpora.setup_ok)
    };
    let honest = run(&mut corpora);
    assert!(honest.correct);
    assert_eq!(honest.get("ok_share"), Some(1.0));

    corpora.set_oracle(
        1,
        Oracle::expecting(Digest {
            dataset: 1,
            ledger: 2,
        }),
    );
    let corrupted = run(&mut corpora);
    assert!(!corrupted.correct);
    assert!(corrupted.failed > 0 && corrupted.failed < corrupted.attempted);
    let share = corrupted.get("ok_share").unwrap();
    assert!(share > 0.0 && share < 1.0, "ok_share {share}");
}

#[test]
fn a_corrupted_serve_oracle_lowers_ok_share() {
    let mut inputs = Inputs::generate(5, Duration::from_millis(800), 64, 100);
    // The audit service in this process stands in for the daemon.
    let server = langcrux_serve::spawn(langcrux_serve::ServeConfig::default()).unwrap();
    let pid = std::process::id();
    let mut conns = Conns::connect(server.addr()).unwrap();
    assert_eq!(serve::warm_up(&mut conns, &inputs).unwrap(), 0);

    let honest = serve::measure(&mut conns, pid, &inputs, &[0.0], true).unwrap();
    assert!(honest.outcome.correct);
    assert_eq!(honest.outcome.get("ok_share"), Some(1.0));

    // The first measured audit's page now expects other bytes.
    let page = inputs.audits[inputs.warmup_audits];
    inputs.oracle[page].push(b' ');
    let corrupted = serve::measure(&mut conns, pid, &inputs, &[0.0], true).unwrap();
    assert!(!corrupted.outcome.correct);
    assert!(corrupted.outcome.failed > 0);
    assert!(corrupted.outcome.get("ok_share").unwrap() < 1.0);
    drop(conns);
    server.shutdown();
}

/// Run the traced binary once and return its exact rows, by name.
fn exact_rows(workload: &str, out: &Path, repro: Option<&Path>) -> Vec<(String, f64)> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench-traced"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--out",
    ])
    .arg(out);
    if let Some(repro) = repro {
        cmd.arg("--repro").arg(repro);
    }
    let status = cmd.status().expect("run perfbench-traced");
    assert!(status.success(), "{workload}: traced run failed");
    let text = std::fs::read_to_string(out.join(format!("layers-{workload}-3.json"))).unwrap();
    let doc: Value = serde_json::from_str(&text).unwrap();
    let rows = doc.get("layers").and_then(Value::as_array).unwrap();
    let exact: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| matches!(r.get("exact"), Some(Value::Bool(true))))
        .map(|r| {
            let value = match r.get("value").unwrap() {
                Value::Int(i) => *i as f64,
                Value::UInt(u) => *u as f64,
                Value::Float(f) => *f,
                other => panic!("non-numeric exact row {other:?}"),
            };
            (
                r.get("name").and_then(Value::as_str).unwrap().to_string(),
                value,
            )
        })
        .collect();
    assert!(!exact.is_empty(), "{workload}: no exact rows");
    exact
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn two_traced_runs_repeat_every_exact_count() {
    for workload in ["build-reliable", "build-hostile-gaps"] {
        let a = exact_rows(workload, &scratch("traced-a"), None);
        let b = exact_rows(workload, &scratch("traced-b"), None);
        assert_eq!(a, b, "{workload}");
    }
    // serve-mixed needs the daemon binary, which `run.py` builds next to
    // this package's binaries.
    let repro = Path::new(env!("CARGO_BIN_EXE_perfbench")).with_file_name("repro");
    if repro.exists() {
        let a = exact_rows("serve-mixed", &scratch("traced-a"), Some(&repro));
        let b = exact_rows("serve-mixed", &scratch("traced-b"), Some(&repro));
        assert_eq!(a, b, "serve-mixed");
    } else {
        eprintln!(
            "serve-mixed skipped: no {} (run perfbench/run.py once)",
            repro.display()
        );
    }
}
