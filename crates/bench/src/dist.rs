//! Process-level plumbing for the fault-tolerant distributed build
//! (`repro --dist N`).
//!
//! The coordinator logic lives in [`langcrux_core::dist`]; this module
//! supplies the transport it is abstract over: real worker *processes*
//! (`repro --dist-worker`, each an audit server with the unit-RPC hook
//! installed), discovered through serve-style pid/port files, driven
//! over loopback HTTP, killed by the chaos harness, and respawned by the
//! coordinator's revive path.
//!
//! ## Failure surface
//!
//! * A worker that dies mid-unit (crash, chaos SIGKILL) drops the
//!   connection — the in-flight RPC fails with an I/O error, classified
//!   [`UnitError::WorkerDied`].
//! * A worker that stalls holds the socket open — the per-unit read
//!   timeout (the coordinator's lease) fires, classified
//!   [`UnitError::LeaseExpired`].
//! * Either way the unit is retried elsewhere; probe purity guarantees
//!   the retry computes identical verdicts, so the recovered build's
//!   bytes match the undisturbed one.
//!
//! ## Chaos
//!
//! `--chaos-kill-workers` arms a [`ChaosKillPlan`]: a pure function of
//! `(seed, unit key)` deciding how many dispatch attempts of each unit
//! die. On a kill-scheduled attempt the executor ships the unit with a
//! small `hold_ms` (the worker parks before executing, wall time only)
//! and SIGKILLs the worker while it holds — the kill lands *mid-unit* by
//! construction. The schedule's per-unit kill count stays below the
//! reassignment budget, so every unit eventually completes and the run
//! must still produce byte-identical output — the property CI pins.

use crate::Scale;
use langcrux_core::dist::{
    build_dataset_distributed, DistBuild, DistOptions, UnitError, UnitExecutor, UnitRequest,
    WireVerdict,
};
use langcrux_net::{ChaosKillPlan, FaultPlan};
use langcrux_serve::pidfile::{self, PidFileStatus};
use langcrux_webgen::Corpus;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall milliseconds a kill-scheduled unit holds before executing, and
/// the delay before the SIGKILL lands inside that hold.
const CHAOS_HOLD_MS: u64 = 120;
const CHAOS_KILL_AFTER_MS: u64 = 30;

/// Per-unit lease: how long the executor waits on a worker (connect,
/// write, read of one unit RPC or heartbeat) before declaring it stalled.
const LEASE: Duration = Duration::from_secs(60);

/// SIGKILL by pid — the chaos path must kill from a thread that does not
/// own the [`Child`], so it goes through the C runtime directly (the
/// container has no `libc` crate).
#[cfg(unix)]
fn sigkill(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    if pid != 0 && pid <= i32::MAX as u32 {
        unsafe {
            kill(pid as i32, SIGKILL);
        }
    }
}

#[cfg(not(unix))]
fn sigkill(_pid: u32) {}

/// One live worker process: the child handle plus its dial address.
struct WorkerProcess {
    child: Child,
    addr: SocketAddr,
    pidfile: PathBuf,
}

impl WorkerProcess {
    /// Spawn `repro --dist-worker` and wait for its pid/port file.
    fn spawn(dir: &std::path::Path, slot: usize, generation: u64) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let pidfile = dir.join(format!("dist-worker-{slot}-{generation}.json"));
        let _ = std::fs::remove_file(&pidfile);
        let child = Command::new(exe)
            .arg("--dist-worker")
            .arg(&pidfile)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let PidFileStatus::Live(doc) = pidfile::examine(&pidfile) {
                if doc.pid == child.id() {
                    let addr = doc.addr.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad worker addr")
                    })?;
                    return Ok(WorkerProcess {
                        child,
                        addr,
                        pidfile,
                    });
                }
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "worker did not advertise within 30s",
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn shutdown(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pidfile);
    }
}

/// [`UnitExecutor`] over loopback HTTP to `repro --dist-worker`
/// processes. One slot per worker; each slot is driven by its own
/// coordinator dispatcher thread, the mutex exists for revive().
pub struct HttpExecutor {
    slots: Vec<Mutex<Option<WorkerProcess>>>,
    dir: PathBuf,
    chaos: Option<ChaosKillPlan>,
    generation: std::sync::atomic::AtomicU64,
}

impl HttpExecutor {
    /// Spawn `workers` processes and wait for all advertisements.
    pub fn spawn(workers: usize, chaos: Option<ChaosKillPlan>) -> std::io::Result<Self> {
        let dir = std::env::temp_dir().join(format!("langcrux-dist-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let mut slots = Vec::with_capacity(workers);
        for slot in 0..workers {
            slots.push(Mutex::new(Some(WorkerProcess::spawn(&dir, slot, 0)?)));
        }
        Ok(HttpExecutor {
            slots,
            dir,
            chaos,
            generation: std::sync::atomic::AtomicU64::new(1),
        })
    }

    /// Dial a worker and run one unit RPC under the lease deadline.
    fn post_unit(&self, addr: SocketAddr, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let mut stream = TcpStream::connect_timeout(&addr, LEASE)?;
        stream.set_read_timeout(Some(LEASE))?;
        stream.set_write_timeout(Some(LEASE))?;
        let mut scratch = Vec::new();
        langcrux_serve::loadgen::post(&mut stream, "/v1/rpc/unit", body, &mut scratch)
    }
}

impl UnitExecutor for HttpExecutor {
    fn execute(
        &self,
        worker: usize,
        attempt: u32,
        request: &UnitRequest,
    ) -> Result<Vec<WireVerdict>, UnitError> {
        let key = request.key();
        let (addr, pid) = {
            let slot = self.slots[worker].lock().unwrap();
            match slot.as_ref() {
                Some(process) => (process.addr, process.child.id()),
                None => return Err(UnitError::WorkerDied(format!("{key}: no worker process"))),
            }
        };
        // Chaos: on a kill-scheduled attempt, ship the unit with a hold
        // and SIGKILL the worker while it parks — the kill lands
        // mid-unit. Wall time only; verdict bytes are untouched.
        let mut request = request.clone();
        if self
            .chaos
            .as_ref()
            .is_some_and(|plan| plan.should_kill(&key, attempt))
        {
            request.hold_ms = CHAOS_HOLD_MS;
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(CHAOS_KILL_AFTER_MS));
                sigkill(pid);
            });
        }
        let body = serde_json::to_string(&request)
            .map_err(|e| UnitError::WorkerDied(format!("{key}: serialize: {e}")))?;
        match self.post_unit(addr, body.as_bytes()) {
            Ok((200, response)) => {
                let text = std::str::from_utf8(&response)
                    .map_err(|e| UnitError::WorkerDied(format!("{key}: non-utf8 reply: {e}")))?;
                serde_json::from_str(text)
                    .map_err(|e| UnitError::WorkerDied(format!("{key}: bad verdicts: {e}")))
            }
            Ok((status, _)) => Err(UnitError::WorkerDied(format!(
                "{key}: worker answered {status}"
            ))),
            Err(e)
                if e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::WouldBlock =>
            {
                Err(UnitError::LeaseExpired(format!("{key}: {e}")))
            }
            Err(e) => Err(UnitError::WorkerDied(format!("{key}: {e}"))),
        }
    }

    /// A worker is alive when its process has not exited and its
    /// `/v1/healthz` answers within the lease.
    fn heartbeat(&self, worker: usize) -> bool {
        let mut slot = self.slots[worker].lock().unwrap();
        let Some(process) = slot.as_mut() else {
            return false;
        };
        match process.child.try_wait() {
            Ok(None) => {}
            // Exited or unknowable: declare dead, let revive() respawn.
            _ => return false,
        }
        let Ok(mut stream) = TcpStream::connect_timeout(&process.addr, LEASE) else {
            return false;
        };
        let _ = stream.set_read_timeout(Some(LEASE));
        let mut scratch = Vec::new();
        matches!(
            langcrux_serve::loadgen::get(&mut stream, "/v1/healthz", &mut scratch),
            Ok((200, _))
        )
    }

    fn revive(&self, worker: usize) -> bool {
        let mut slot = self.slots[worker].lock().unwrap();
        if let Some(old) = slot.take() {
            old.shutdown();
        }
        let generation = self
            .generation
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        match WorkerProcess::spawn(&self.dir, worker, generation) {
            Ok(process) => {
                *slot = Some(process);
                true
            }
            Err(e) => {
                eprintln!("dist: failed to respawn worker {worker}: {e}");
                false
            }
        }
    }
}

impl Drop for HttpExecutor {
    fn drop(&mut self) {
        for slot in &self.slots {
            if let Some(process) = slot.lock().unwrap().take() {
                process.shutdown();
            }
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

/// Knobs `repro --dist N` exposes on top of [`DistOptions`] defaults.
#[derive(Debug, Clone, Default)]
pub struct DistRunConfig {
    /// Worker processes to spawn (clamped to ≥ 1).
    pub workers: usize,
    /// Arm the deterministic chaos harness ([`ChaosKillPlan::standard`]).
    pub chaos_kill_workers: bool,
    /// Append-only unit-checkpoint log path (`--dist-checkpoint`).
    pub checkpoint: Option<PathBuf>,
}

/// Build corpus + dataset with real worker processes — the distributed
/// sibling of [`crate::build_scaled_dataset_with_gaps`]. Byte-identical
/// output to the in-process build at every worker count, with or without
/// chaos kills; that is the property `repro --dist` exists to demonstrate
/// and CI pins.
pub fn build_distributed_dataset(
    seed: u64,
    scale: Scale,
    plan: FaultPlan,
    gaps: bool,
    run: &DistRunConfig,
) -> std::io::Result<(Corpus, DistBuild)> {
    let corpus = crate::build_corpus_with_gaps(seed, scale, plan, gaps);
    let options = DistOptions {
        quota: scale.sites_per_country(),
        workers: run.workers.max(1),
        checkpoint: run.checkpoint.clone(),
        ..DistOptions::default()
    };
    let chaos = run
        .chaos_kill_workers
        .then(|| ChaosKillPlan::standard(seed));
    let executor = HttpExecutor::spawn(options.workers, chaos)?;
    let build = build_dataset_distributed(&corpus, &executor, &options).map_err(|halted| {
        std::io::Error::other(format!(
            "coordinator halted after {} units",
            halted.units_completed
        ))
    })?;
    Ok((corpus, build))
}
