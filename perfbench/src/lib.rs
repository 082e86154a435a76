//! The LangCrUX benchmark: one command runs one named workload at a seed
//! and ends with one JSON line of metrics. See `perfbench/README.md`.
//!
//! * `--trace 0` (the `perfbench` binary): the timed run, printing the
//!   end-to-end metrics, every op checked against its oracle.
//! * `--trace 1` (the `perfbench-traced` binary, on the counting
//!   allocator): the traced run, printing the per-layer table, writing a
//!   Chrome trace, and ending with the per-layer metrics.

pub mod alloc;
pub mod builds;
pub mod cli;
pub mod client;
pub mod measure;
pub mod report;
pub mod serve;
pub mod spans;

use cli::{Args, Workload};
use report::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Entry point of both binaries; `traced_binary` says whether this
/// process runs on [`alloc::CountingAlloc`].
pub fn main(traced_binary: bool) -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} runs in the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn repro(args: &Args) -> std::io::Result<PathBuf> {
    args.repro
        .clone()
        .ok_or_else(|| std::io::Error::other("serve-mixed needs --repro PATH"))
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&args.out)?;
    if !args.trace {
        return Ok(match args.workload {
            Workload::ServeMixed => {
                serve::run_timed(&repro(args)?, &args.out, args.seed, args.seconds)?
            }
            w => {
                let w = builds::workload(w);
                builds::run_timed(
                    &w,
                    args.seed,
                    builds::QUICK_SITES,
                    args.seconds,
                    builds::CORPORA,
                )
            }
        });
    }
    if !alloc::installed() {
        return Err(std::io::Error::other(
            "the traced run needs the counting allocator",
        ));
    }
    let reference = reference_op_p50_ms(args)?;
    let mut tracer = spans::Tracer::new();
    let (rows, correct, attempted, failed) = match args.workload {
        Workload::ServeMixed => {
            let t = serve::run_traced(
                &repro(args)?,
                &args.out,
                args.seed,
                args.seconds,
                reference,
                &mut tracer,
            )?;
            (t.rows, t.correct, t.attempted, t.failed)
        }
        w => {
            let w = builds::workload(w);
            let t = builds::run_traced(
                &w,
                args.seed,
                builds::QUICK_SITES,
                args.seconds,
                reference,
                &mut tracer,
            );
            (t.rows, t.correct, t.attempted, t.failed)
        }
    };
    let name = args.workload.name();
    print!("{}", report::table(name, &rows));
    let stem = format!("{name}-{}", args.seed);
    let trace_path = args.out.join(format!("trace-{stem}.json"));
    tracer.write_chrome(&trace_path)?;
    let layers_path = args.out.join(format!("layers-{stem}.json"));
    std::fs::write(&layers_path, report::table_json(name, args.seed, &rows))?;
    println!(
        "wrote {} ({} spans) and {}",
        trace_path.display(),
        tracer.spans().len(),
        layers_path.display()
    );
    Ok(report::per_layer_outcome(correct, attempted, failed, &rows))
}

/// The timed run's median op, from the `perfbench` binary next to this
/// one, for `bench.trace_overhead`.
fn reference_op_p50_ms(args: &Args) -> std::io::Result<f64> {
    let timed = std::env::current_exe()?.with_file_name("perfbench");
    let mut cmd = Command::new(timed);
    cmd.arg("--workload")
        .arg(args.workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.as_secs_f64().to_string())
        .arg("--trace")
        .arg("0")
        .arg("--out")
        .arg(&args.out);
    if let Some(repro) = &args.repro {
        cmd.arg("--repro").arg(repro);
    }
    let output = cmd.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let metrics = stdout
        .lines()
        .last()
        .filter(|_| output.status.success())
        .and_then(report::parse_metrics)
        .ok_or_else(|| std::io::Error::other("the timed reference run failed"))?;
    eprintln!(
        "timed reference run: {}",
        stdout.lines().last().unwrap_or_default()
    );
    metrics
        .iter()
        .find(|(name, _)| name == "op_p50_ms")
        .map(|(_, v)| *v)
        .ok_or_else(|| std::io::Error::other("reference run printed no op_p50_ms"))
}
