//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [ARTIFACT...] [--sites N | --quick | --full] [--seed S]
//!       [--fault-plan reliable|default|hostile|PATH.json] [--gap-scenarios]
//!       [--trace-out [PATH]] [--trace-summary] [--metrics-out FILE]
//!       [--serve-daemon [PATH]] [--port N] [--dataset-out FILE]
//!       [--dist N] [--chaos-kill-workers] [--dist-checkpoint PATH]
//!       [--dist-worker [PATH]]
//!
//! ARTIFACT: all (default) | table1 | table2 | table3 | table4 | table5
//!         | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9
//!         | headlines | langmeta | speech | report | selection | crawl
//!         | ablation-vpn | ablation-langid | ablation-crawl
//! ```
//!
//! `--trace-out [PATH]` runs the dataset build inside a span-tracing
//! session and writes the merged spans as Chrome `traceEvents` JSON
//! (default `trace.json`) — load it in `chrome://tracing` or Perfetto
//! (pid 1 = the run, one tid per worker). `--trace-summary` prints a
//! per-stage count/total/p50/p99 table after the build. Neither flag
//! changes the dataset or `crawl-ledger.json` bytes: span structure is
//! deterministic for a seed, only wall-clock fields vary.
//!
//! `--metrics-out FILE` writes the unified registry exposition (build
//! info + net + crawl-ledger + corpus-shard (+ trace when tracing ran)
//! metric families) as a node_exporter-style textfile snapshot after the
//! build. A `--dist` build fetches in its worker processes, so it exports
//! no `langcrux_net_*` family and prints one `net:` line saying so.
//!
//! `--serve-daemon` runs the audit server as a long-lived foreground
//! process: it binds `127.0.0.1:<--port>` (default ephemeral), writes a
//! `{"pid":…,"port":…,"addr":…}` JSON file at PATH (default
//! `serve-daemon.json`), and serves until SIGTERM/SIGINT, then drains
//! gracefully — in-flight requests complete, the accept loop stops, all
//! connection threads join — removes the file, and exits 0. With
//! explicitly named artifacts the daemon starts *after* that build and
//! registers its observations (net, ledger, shard, pipeline-stage
//! families) into the server's registry, so `/v1/metrics` exposes the
//! build alongside the serve counters; without explicit artifacts the
//! daemon skips the implicit `all` run and starts immediately. A live
//! holder of the pid/port file makes it refuse to start (exit 3); a file
//! left by a dead pid is replaced. perfbench's `serve-mixed` workload
//! drives it under load.
//!
//! `--dist N` runs the dataset build as a fault-tolerant distributed
//! system: N worker *processes* (each `repro --dist-worker`, an audit
//! server with the unit-RPC hook installed) are spawned and driven over
//! loopback HTTP by the in-process coordinator, which leases
//! `(country, chunk)` work units, retries units whose worker dies or
//! stalls, and replays completed verdicts sequentially — so the dataset
//! and `crawl-ledger.json` bytes are identical to the single-process
//! build at every worker count. `--chaos-kill-workers` arms the
//! deterministic crash harness (SIGKILL workers mid-unit on a schedule
//! pure in `(seed, unit)`); the bytes must *still* match, which CI pins.
//! `--dist-checkpoint PATH` appends completed units to a checkpoint log
//! so a killed coordinator resumes without recomputing them. Units that
//! exhaust their reassignment budget land in the ledger's
//! `degraded_units` section instead of aborting the run.
//!
//! `--dataset-out FILE` writes the dataset JSON after the build (both
//! single-process and distributed) — the byte-comparison hook the
//! distributed CI smoke uses.
//!
//! `--gap-scenarios` enables the corpus's partial-localisation
//! scenarios (untranslated chrome, per-subtree `lang` mismatches,
//! fallback English strings): the dataset's site records carry gap
//! verdicts, the ledger counts gap pages/regions per country, and a
//! `gaps:` stderr line summarises the run. Without the flag the corpus,
//! dataset, and ledger bytes are identical to the historical run.
//!
//! `--fault-plan` selects the simulated network's fault behaviour for
//! the dataset build: a preset name (`reliable`, `default`, `hostile`)
//! or a path to a JSON file with any subset of `FaultPlan`'s fields
//! (missing fields take the default plan's values). Every dataset build
//! prints the simulated internet's traffic counters and writes the
//! degraded-run ledger to `crawl-ledger.json` alongside the artefacts.
//!
//! The harness builds the synthetic corpus, runs the full LangCrUX
//! pipeline, and prints the paper-format rows/series. Absolute values are
//! corpus-scale dependent; the *shapes* (orderings, crossovers, drops)
//! reproduce the paper (`tests/paper_shapes.rs` checks them).

use langcrux_bench::{langid_ablation, vpn_ablation, Scale};
use langcrux_core::{analysis, render, selection, Dataset};
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::rng::DEFAULT_SEED;
use langcrux_lang::Country;

struct Args {
    artifacts: Vec<String>,
    /// Whether artifacts were named on the command line (as opposed to
    /// the implicit `all` default). `--serve-daemon` replaces the
    /// implicit default but never swallows explicitly requested
    /// artifacts.
    explicit_artifacts: bool,
    scale: Scale,
    seed: u64,
    /// `Some(pid/port-file path)` when `--serve-daemon` was requested.
    serve_daemon: Option<String>,
    /// Port for the daemon listener (0 = ephemeral).
    port: u16,
    /// Fault plan for the dataset build (default: the default plan).
    fault_plan: langcrux_net::FaultPlan,
    /// Enable the corpus's translation-gap scenarios (`--gap-scenarios`).
    gap_scenarios: bool,
    /// `Some(path)` when `--trace-out` was requested.
    trace_out: Option<String>,
    /// Print the per-stage span summary table after the build.
    trace_summary: bool,
    /// `Some(path)` when `--metrics-out` was requested.
    metrics_out: Option<String>,
    /// `Some(workers)` when `--dist` was requested: build the dataset
    /// through the distributed coordinator with that many worker
    /// processes.
    dist: Option<usize>,
    /// Arm the deterministic worker-crash harness for `--dist`.
    chaos_kill_workers: bool,
    /// `Some(path)` when `--dist-checkpoint` was requested.
    dist_checkpoint: Option<String>,
    /// `Some(pid/port-file path)` when running as a distributed-build
    /// worker process (`--dist-worker`).
    dist_worker: Option<String>,
    /// `Some(path)` when `--dataset-out` was requested.
    dataset_out: Option<String>,
}

/// Resolve a `--fault-plan` value: a preset name, or a path to a JSON
/// file carrying any subset of `FaultPlan`'s fields.
fn resolve_fault_plan(value: &str) -> langcrux_net::FaultPlan {
    if let Some(plan) = langcrux_bench::fault_plan_preset(value) {
        return plan;
    }
    let text = std::fs::read_to_string(value).unwrap_or_else(|e| {
        panic!("--fault-plan: not a preset (reliable|default|hostile) and cannot read {value}: {e}")
    });
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("--fault-plan: invalid fault-plan JSON in {value}: {e}"))
}

fn parse_args() -> Args {
    let mut artifacts = Vec::new();
    let mut scale = Scale::Default;
    let mut seed = DEFAULT_SEED;
    let mut fault_plan = langcrux_net::FaultPlan::default();
    let mut gap_scenarios = false;
    let mut serve_daemon = None;
    let mut port = 0u16;
    let mut trace_out = None;
    let mut trace_summary = false;
    let mut metrics_out = None;
    let mut dist = None;
    let mut chaos_kill_workers = false;
    let mut dist_checkpoint = None;
    let mut dist_worker = None;
    let mut dataset_out = None;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                scale = Scale::Quick;
            }
            "--full" => {
                scale = Scale::Full;
            }
            "--sites" => {
                let n = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sites requires a number");
                scale = Scale::Sites(n);
            }
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires a u64");
            }
            "--fault-plan" => {
                let value = iter
                    .next()
                    .expect("--fault-plan requires reliable|default|hostile|PATH.json");
                fault_plan = resolve_fault_plan(&value);
            }
            "--gap-scenarios" => {
                gap_scenarios = true;
            }
            "--serve-daemon" => {
                // Only a `.json`-looking token is taken as the file path,
                // so a trailing artifact name or flag typo is not silently
                // consumed as a file name.
                let path = match iter.peek() {
                    Some(next) if next.ends_with(".json") => iter.next().unwrap(),
                    _ => "serve-daemon.json".to_string(),
                };
                serve_daemon = Some(path);
            }
            "--trace-out" => {
                let path = match iter.peek() {
                    Some(next) if next.ends_with(".json") => iter.next().unwrap(),
                    _ => "trace.json".to_string(),
                };
                trace_out = Some(path);
            }
            "--trace-summary" => {
                trace_summary = true;
            }
            "--metrics-out" => {
                metrics_out = Some(iter.next().expect("--metrics-out requires a file path"));
            }
            "--dist" => {
                let n: usize = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--dist requires a worker count");
                dist = Some(n.max(1));
            }
            "--chaos-kill-workers" => {
                chaos_kill_workers = true;
            }
            "--dist-checkpoint" => {
                dist_checkpoint = Some(iter.next().expect("--dist-checkpoint requires a path"));
            }
            "--dist-worker" => {
                let path = match iter.peek() {
                    Some(next) if next.ends_with(".json") => iter.next().unwrap(),
                    _ => "dist-worker.json".to_string(),
                };
                dist_worker = Some(path);
            }
            "--dataset-out" => {
                dataset_out = Some(iter.next().expect("--dataset-out requires a file path"));
            }
            "--port" => {
                port = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--port requires a u16");
            }
            "--help" | "-h" => {
                println!(
                    "repro [ARTIFACT...] [--sites N | --quick | --full] [--seed S] \
                     [--fault-plan reliable|default|hostile|PATH.json] [--gap-scenarios] \
                     [--trace-out [PATH]] [--trace-summary] [--metrics-out FILE] \
                     [--serve-daemon [PATH]] [--port N] [--dataset-out FILE] \
                     [--dist N] [--chaos-kill-workers] [--dist-checkpoint PATH] \
                     [--dist-worker [PATH]]\n\
                     artifacts: all table1 table2 table3 table4 table5 fig2 fig3 fig4 \
                     fig5 fig6 fig7 fig8 fig9 headlines langmeta speech report selection crawl \
                     ablation-vpn ablation-langid ablation-crawl"
                );
                std::process::exit(0);
            }
            other => artifacts.push(other.to_string()),
        }
    }
    let explicit_artifacts = !artifacts.is_empty();
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    Args {
        artifacts,
        explicit_artifacts,
        scale,
        seed,
        serve_daemon,
        port,
        fault_plan,
        gap_scenarios,
        trace_out,
        trace_summary,
        metrics_out,
        dist,
        chaos_kill_workers,
        dist_checkpoint,
        dist_worker,
        dataset_out,
    }
}

/// Everything one dataset build left behind for the unified registry:
/// the simulated internet's counters (`None` for a `--dist` build, whose
/// fetches ran in the worker processes), the degraded-run ledger, the
/// lazy-shard gauges, and (when a trace session ran) the span report.
struct BuildObservations {
    net: Option<langcrux_net::NetMetrics>,
    ledger: langcrux_core::CrawlLedger,
    shards: langcrux_webgen::ShardStats,
    trace: Option<langcrux_obs::trace::TraceReport>,
    /// Coordinator counters when the build ran distributed (`--dist`).
    dist: Option<langcrux_core::DistStats>,
}

impl BuildObservations {
    fn encode(&self, enc: &mut langcrux_obs::Encoder) {
        if let Some(net) = &self.net {
            net.encode_metrics(enc);
        }
        self.ledger.encode_metrics(enc);
        self.shards.encode_metrics(enc);
        if let Some(trace) = &self.trace {
            trace.encode_metrics(enc);
        }
        if let Some(dist) = &self.dist {
            dist.encode_metrics(enc);
        }
    }

    /// The full exposition: build info + every build metric family.
    fn exposition(&self) -> String {
        let mut enc = langcrux_obs::Encoder::new();
        langcrux_obs::registry::encode_build_info(
            &mut enc,
            "langcrux-repro",
            env!("CARGO_PKG_VERSION"),
        );
        self.encode(&mut enc);
        enc.prometheus_text()
    }
}

/// SIGTERM/SIGINT latch for the daemon, via the C runtime's `signal`
/// (the container has no `libc` crate; the two symbols declared here are
/// all the daemon needs).
#[cfg(unix)]
mod daemon_signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// What a long-lived server process runs as.
enum ServerRole {
    /// `--serve-daemon`: the audit server. With observations from a
    /// preceding artifact build, their metric families are registered
    /// into the server's registry, so `/v1/metrics` exposes them next to
    /// the serve counters.
    Daemon(Option<Box<BuildObservations>>),
    /// `--dist-worker`: a distributed-build worker — the audit server
    /// with the unit-RPC hook installed, advertised through the pid/port
    /// file the coordinator polls. A unit RPC executes a whole
    /// `(country, chunk)` work unit on its connection's thread.
    DistWorker,
}

/// Run the audit server in `role` until SIGTERM/SIGINT, then drain.
fn run_server(role: ServerRole, file_path: &str, port: u16) -> ! {
    #[cfg(not(unix))]
    {
        let _ = (role, file_path, port);
        eprintln!("--serve-daemon and --dist-worker need unix signal handling");
        std::process::exit(2);
    }
    #[cfg(unix)]
    {
        use langcrux_serve::{RpcHook, ServeConfig};
        use std::sync::Arc;
        daemon_signals::install();
        let (name, rpc, observations) = match role {
            ServerRole::Daemon(observations) => ("serve daemon", None, observations),
            ServerRole::DistWorker => {
                let state = Arc::new(langcrux_core::WorkerState::new());
                let hook = RpcHook(Arc::new(move |name, body| match name {
                    "unit" => Some(match state.handle_unit(body) {
                        Ok(json) => (200, json.into_bytes()),
                        Err(err) => (
                            400,
                            serde_json::to_string(&err)
                                .expect("serialize worker error")
                                .into_bytes(),
                        ),
                    }),
                    _ => None,
                }));
                ("dist worker", Some(hook), None)
            }
        };
        let config = ServeConfig {
            addr: format!("127.0.0.1:{port}").parse().expect("loopback addr"),
            rpc,
            ..ServeConfig::default()
        };
        let server = langcrux_serve::spawn(config).expect("bind server listener");
        if let Some(observations) = observations {
            server
                .state()
                .extra
                .register(move |enc| observations.encode(enc));
        }
        let addr = server.addr();
        // Claim the pid/port file: a stale file (dead pid — SIGKILL, OOM)
        // is replaced so restarts never wedge; a live holder is refused
        // so a running server's advertisement is never clobbered.
        let doc = langcrux_serve::PidFileDoc::new(addr.port(), &addr.to_string());
        if let Err(held) = langcrux_serve::claim_pidfile(std::path::Path::new(file_path), &doc) {
            let holder = match held {
                langcrux_serve::PidFileStatus::Live(doc) => doc.pid,
                _ => 0,
            };
            eprintln!("{name}: refusing to start — {file_path} is held by live pid {holder}");
            server.shutdown();
            std::process::exit(3);
        }
        eprintln!(
            "{name}: http://{addr} (pid {}, pid/port file {file_path}); SIGTERM drains",
            std::process::id()
        );
        while !daemon_signals::stopped() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        eprintln!("{name}: signal received, draining …");
        let stats = server.shutdown();
        let _ = std::fs::remove_file(file_path);
        eprintln!(
            "{name}: drained cleanly — {} requests served ({} audit, {} batch, {} shed, {} errors)",
            stats.requests.total(),
            stats.requests.audit,
            stats.requests.batch,
            stats.requests.shed,
            stats.requests.errors,
        );
        std::process::exit(0);
    }
}

fn needs_dataset(artifacts: &[String]) -> bool {
    artifacts.iter().any(|a| {
        !matches!(
            a.as_str(),
            "table1"
                | "table3"
                | "selection"
                | "ablation-vpn"
                | "ablation-langid"
                | "ablation-crawl"
        )
    })
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.dist_worker {
        run_server(ServerRole::DistWorker, path, args.port);
    }
    // The daemon stands in for the implicit `all` run, but explicitly
    // named artifacts alongside it are still produced (no silent drop) —
    // and an artifact-less daemon starts without a build.
    if let Some(path) = &args.serve_daemon {
        if !args.explicit_artifacts {
            run_server(ServerRole::Daemon(None), path, args.port);
        }
    }
    let all = args.artifacts.iter().any(|a| a == "all");
    let wants = |name: &str| all || args.artifacts.iter().any(|a| a == name);

    // Any observability output wants the build traced; tracing never
    // changes the dataset or ledger bytes (see tests/trace_export.rs).
    let trace_wanted = args.trace_out.is_some()
        || args.trace_summary
        || args.metrics_out.is_some()
        || args.serve_daemon.is_some();
    let mut observations: Option<BuildObservations> = None;

    let dataset: Option<Dataset> = if needs_dataset(&args.artifacts) {
        eprintln!(
            "building corpus + dataset: {} sites/country, seed {:#x} …",
            args.scale.sites_per_country(),
            args.seed
        );
        let session = trace_wanted
            .then(|| langcrux_obs::trace::start(langcrux_obs::trace::TraceConfig::default()));
        let start = std::time::Instant::now();
        let (corpus, ds, ledger, dist_stats) = if let Some(workers) = args.dist {
            eprintln!(
                "distributed build: {workers} worker process(es){}{}",
                if args.chaos_kill_workers {
                    ", chaos kills armed"
                } else {
                    ""
                },
                match &args.dist_checkpoint {
                    Some(path) => format!(", checkpoint log {path}"),
                    None => String::new(),
                },
            );
            let run = langcrux_bench::dist::DistRunConfig {
                workers,
                chaos_kill_workers: args.chaos_kill_workers,
                checkpoint: args.dist_checkpoint.as_ref().map(std::path::PathBuf::from),
            };
            let (corpus, build) = langcrux_bench::dist::build_distributed_dataset(
                args.seed,
                args.scale,
                args.fault_plan,
                args.gap_scenarios,
                &run,
            )
            .expect("distributed build");
            let s = &build.stats;
            eprintln!(
                "dist: {} units over {} waves ({} executed, {} from checkpoint), \
                 {} reassignments, {} worker deaths, {} lease expirations, \
                 {} revivals, {} degraded unit(s)",
                s.units_planned,
                s.waves,
                s.units_executed,
                s.units_from_checkpoint,
                s.reassignments,
                s.worker_deaths,
                s.lease_expirations,
                s.worker_revivals,
                s.degraded_units,
            );
            (corpus, build.dataset, build.ledger, Some(build.stats))
        } else {
            let (corpus, ds, ledger) = langcrux_bench::build_scaled_dataset_with_gaps(
                args.seed,
                args.scale,
                args.fault_plan,
                args.gap_scenarios,
            );
            (corpus, ds, ledger, None)
        };
        eprintln!(
            "dataset ready: {} sites in {:.1?}",
            ds.len(),
            start.elapsed()
        );
        let trace_report = session.map(|s| s.finish());
        // Traffic counters of the simulated internet for this build —
        // under a faulty plan these show what the retry discipline and
        // the replacement rule absorbed. A `--dist` build fetches in its
        // worker processes, so the coordinator's `Internet` counted
        // nothing and there is nothing true to report.
        let net = if args.dist.is_some() {
            eprintln!(
                "net: the network counters live in the --dist worker processes; not collected here"
            );
            None
        } else {
            let net = corpus.internet().metrics();
            eprintln!(
                "net: {} requests ({} localized, {} global, {} restricted), \
                 {} timeouts, {} resets, {} 5xx, {} geo-blocks, {} unknown hosts, \
                 {} vpn-detections, {} truncated, {} garbled, {} slow, {} bytes served",
                net.requests,
                net.localized_responses,
                net.global_responses,
                net.restricted_responses,
                net.timeouts,
                net.resets,
                net.server_errors,
                net.geo_blocks,
                net.unknown_hosts,
                net.vpn_detections,
                net.truncated_bodies,
                net.garbled_bodies,
                net.slow_responses,
                net.bytes_served,
            );
            Some(net)
        };
        // The degraded-run ledger travels with the dataset.
        let totals = &ledger.totals;
        eprintln!(
            "ledger: {} attempted, {} selected, {} retries, {} errors \
             ({} deadline, {} breaker-open), {} replacements (max run {}), \
             {} poisoned site(s); breaker opened {}×",
            totals.attempted,
            totals.selected,
            totals.retries,
            totals.errors.total(),
            totals.errors.deadline_exceeded,
            totals.errors.circuit_open,
            totals.replacements,
            totals.max_replacement_run,
            totals.poisoned_sites.len(),
            totals.breaker_opened,
        );
        if args.gap_scenarios {
            eprintln!(
                "gaps: {} page(s) with translation gaps, {} region(s) flagged",
                ledger.totals.gap_pages, ledger.totals.gap_regions,
            );
        }
        let ledger_json = ledger.to_json().expect("serialize crawl ledger");
        std::fs::write("crawl-ledger.json", ledger_json + "\n").expect("write crawl-ledger.json");
        eprintln!("wrote crawl-ledger.json");
        // The lazy-shard gauges: peak_live bounds corpus memory at
        // peak_live × per-country shard size (builds > countries means
        // shards were revived after LRU eviction; peak_resident is the
        // cache high-water mark, ≤ the cap).
        let shards = corpus.shard_stats();
        eprintln!(
            "corpus shards: {} built, {} evicted, peak resident {}, peak live {} (cap {})",
            shards.builds,
            shards.evictions,
            shards.peak_resident,
            shards.peak_live,
            if shards.resident_cap == 0 {
                "unbounded".to_string()
            } else {
                shards.resident_cap.to_string()
            }
        );
        if let Some(trace) = &trace_report {
            if args.trace_summary {
                eprint!("{}", trace.summary_table());
            }
            if let Some(path) = &args.trace_out {
                let chrome = langcrux_obs::chrome::trace_events_json(trace);
                std::fs::write(path, chrome + "\n").expect("write trace json");
                eprintln!(
                    "wrote {path} ({} spans across {} workers — load in chrome://tracing or Perfetto)",
                    trace.span_count(),
                    trace.workers.len()
                );
            }
        }
        observations = Some(BuildObservations {
            net,
            ledger,
            shards,
            trace: trace_report,
            dist: dist_stats,
        });
        if let Some(path) = &args.dataset_out {
            let json = ds.to_json().expect("serialize dataset");
            std::fs::write(path, json + "\n").expect("write dataset json");
            eprintln!("wrote {path}");
        }
        Some(ds)
    } else {
        None
    };
    let ds = dataset.as_ref();

    if wants("table1") {
        section("Table 1 — web elements requiring natural language");
        for kind in ElementKind::ALL {
            println!("  {}", kind.audit_id());
        }
    }
    if wants("selection") {
        section("§2 — language & country selection (X2)");
        for (lang, verdict) in selection::select_languages() {
            println!("  {:<24} {:?}", lang.name(), verdict);
        }
    }
    if let Some(ds) = ds {
        if wants("table2") {
            section("Table 2 — accessibility element statistics");
            print!("{}", render::table2(&analysis::table2(ds)));
        }
        if wants("fig2") {
            section("Figure 2 — native vs English in visible text (density grids)");
            for country in [Country::India, Country::Israel] {
                let points = analysis::visible_scatter(ds, country);
                print!(
                    "{}",
                    render::scatter_density(
                        &format!(
                            "{} — x: English %, y: {} %",
                            country.name(),
                            country.target_language().name()
                        ),
                        &points,
                        (0.0, 60.0),
                        (0.0, 100.0),
                    )
                );
            }
        }
        if wants("fig3") {
            section("Figure 3 — filtered accessibility texts by discard reason × country");
            print!("{}", render::discards(&analysis::discard_by_country(ds)));
        }
        if wants("fig4") {
            section("Figure 4 — language distribution of informative accessibility texts");
            print!(
                "{}",
                render::lang_distribution(&analysis::lang_distribution(ds))
            );
        }
        if wants("fig5") {
            section("Figure 5 — CDFs of native share: visible vs accessibility text");
            print!("{}", render::mismatch_cdfs(&analysis::mismatch_cdfs(ds)));
        }
        if wants("fig6") {
            section("Figure 6 — scores before/after Kizuki (bd + th, image-alt passers)");
            let shift = analysis::kizuki_shift(ds, &[Country::Bangladesh, Country::Thailand]);
            print!("{}", render::kizuki_shift(&shift));
        }
        if wants("fig7") {
            section("Figure 7 — website rank distribution × country");
            print!("{}", render::rank_heatmap(&analysis::rank_heatmap(ds)));
        }
        if wants("fig8") {
            section("Figure 8 — visible vs accessibility native share per country");
            for country in ds.countries() {
                let points = analysis::mismatch_scatter(ds, country);
                print!(
                    "{}",
                    render::scatter_density(
                        &format!("{} — x: visible native %, y: a11y native %", country.name()),
                        &points,
                        (50.0, 100.0),
                        (0.0, 100.0),
                    )
                );
            }
        }
        if wants("fig8") {
            println!("\nPearson(visible native %, a11y native %) per country:");
            for (code, r) in analysis::mismatch_correlation(ds) {
                match r {
                    Some(r) => println!("  {code:<4} {r:>6.3}"),
                    None => println!("  {code:<4}    n/a"),
                }
            }
        }
        if wants("fig9") {
            section("Figure 9 — discard reasons × element kind");
            print!("{}", render::discards(&analysis::discard_by_element(ds)));
        }
        if wants("table4") {
            section("Table 4 — extreme alt texts (>1000 chars)");
            print!("{}", render::extreme_examples(&ds.extreme_examples));
        }
        if wants("table5") {
            section("Table 5 — visible/accessibility language mismatches");
            print!("{}", render::mismatch_examples(&ds.mismatch_examples));
        }
        if wants("langmeta") {
            section("X3 (extension) — declared <html lang> consistency");
            print!("{}", render::declared_lang(&analysis::declared_lang(ds)));
        }
        if wants("headlines") {
            section("Headline findings (§1/§3)");
            print!("{}", render::headlines(&analysis::headlines(ds)));
        }
        if wants("report") {
            // The one-shot Markdown report (written to repro-report.md).
            let report = langcrux_core::markdown_report(ds);
            std::fs::write("repro-report.md", &report).expect("write report");
            eprintln!("wrote repro-report.md ({} bytes)", report.len());
        }
        if wants("crawl") {
            section("Crawl provenance");
            print!("{}", render::crawl_summaries(ds));
        }
    }
    if wants("table3") {
        section("Table 3 — Lighthouse pass/fail matrix (isolated probes)");
        print!("{}", render::table3(&langcrux_audit::lighthouse_matrix()));
    }
    if wants("speech") {
        section("X4 (extension) — screen-reader experience (VoiceOver-like profile)");
        println!(
            "  {:<8} {:>14} {:>10} {:>15} {:>9}",
            "country", "announcements", "degraded", "mispronounced", "generic"
        );
        for row in langcrux_bench::speech_experience(args.seed, 30) {
            println!(
                "  {:<8} {:>14} {:>9.1}% {:>14.1}% {:>8.1}%",
                row.country_code,
                row.announcements,
                row.degraded_pct,
                row.mispronounced_pct,
                row.generic_pct
            );
        }
    }
    if wants("ablation-vpn") {
        section("Ablation A1 — VPN vantage vs cloud vantage");
        let ab = vpn_ablation(args.seed, 25);
        println!(
            "  {} hosts: localized content at VPN vantage {:.1}%, at cloud vantage {:.1}%",
            ab.hosts, ab.vpn_localized_pct, ab.cloud_localized_pct
        );
    }
    if wants("ablation-langid") {
        section("Ablation A2 — Unicode heuristic vs trigram language id (short labels)");
        let ab = langid_ablation(args.seed, 200);
        println!(
            "  {} labels: unicode {:.1}% correct, trigram {:.1}% correct",
            ab.labels, ab.unicode_accuracy_pct, ab.trigram_accuracy_pct
        );
    }
    if wants("ablation-crawl") {
        section("Ablation A3 — crawl worker scaling");
        for (threads, elapsed) in langcrux_bench::crawl_scaling(args.seed, 40, &[1, 2, 4, 8]) {
            println!("  {threads:>2} workers: {elapsed:.2?}");
        }
    }

    // The unified observability outputs: one registry rendering for the
    // textfile snapshot (`--metrics-out`) and the daemon's `/v1/metrics`
    // (below) — the same families.
    if let Some(observations) = &observations {
        if let Some(path) = &args.metrics_out {
            std::fs::write(path, observations.exposition()).expect("write metrics snapshot");
            eprintln!("wrote {path}");
        }
    }
    if let Some(path) = &args.serve_daemon {
        run_server(
            ServerRole::Daemon(observations.map(Box::new)),
            path,
            args.port,
        );
    }
}
