//! The serve-mixed workload: an open loop from one process, over two
//! keep-alive connections, to `repro --serve-daemon` in its default
//! configuration.
//!
//! * Connection A posts `/v1/audit` at a fixed rate. Pages come from a
//!   seeded Zipf popularity over twice as many pages as the daemon's
//!   2,048-entry response cache holds, so about two requests in three
//!   hit.
//! * Connection B posts a 16-page `/v1/batch` every 250 ms.
//!
//! Every page is `SitePlan::build_gapped(.., true)` rendered before any
//! clock starts, and so are the oracles: each audit body must equal
//! `AuditService::audit_json` of its page, each de-chunked batch the
//! spliced array of those bytes.

use crate::alloc::counted;
use crate::builds::{classify_elements, tokenize_and_extract};
use crate::client::{HttpResponse, ResponseReader};
use crate::measure::{median, ms, peak_rss_bytes, pid_cpu, quantile, tail_quantile, us};
use crate::report::{metric, Outcome, Row, Rows};
use crate::spans::Tracer;
use langcrux_audit::{audit_page, gap_report};
use langcrux_kizuki::{page_language, Kizuki, ScreenReader};
use langcrux_lang::rng::rng_for;
use langcrux_lang::{Country, Language};
use langcrux_net::ContentVariant;
use langcrux_serve::{
    route, AuditService, CacheKey, Limits, RequestParser, Routed, ServeConfig, ShardedCache,
};
use langcrux_webgen::{render_into, RenderScratch, SitePlan};
use rand::Rng;
use serde_json::Value;
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distinct pages: twice the daemon's 2,048 cache entries (8 shards of 256).
const PAGES: usize = 4096;
/// Zipf exponent of page popularity; with LRU shards of 256 over 4,096
/// pages it gives a steady hit share of about 0.65.
const ZIPF_S: f64 = 0.6;
/// Connection A's rate, well below the event loop's ~1,700 misses/s, so
/// latency measures service rather than queueing.
const AUDITS_PER_S: f64 = 1000.0;
const BATCH_PERIOD: Duration = Duration::from_millis(250);
const BATCH_PAGES: usize = 16;
/// Audits of the warm-up prefix: enough to fill the cache and settle its
/// hit share.
const WARMUP_AUDITS: usize = 3000;
/// An audit answered later than this counts as lost goodput.
const GOODPUT_LIMIT: Duration = Duration::from_millis(100);
/// Set-ups per timed run (each a fresh daemon); `setup_s` is their median.
const SETUPS: usize = 3;
/// How long the receiver waits for answers after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Audits of the traced run's in-process decomposition.
const DECOMPOSED: usize = 1024;

/// Everything generated from the seed before any clock starts.
pub struct Inputs {
    pub pages: Vec<String>,
    /// `AuditService::audit_json` of each page.
    pub oracle: Vec<Vec<u8>>,
    /// Page of each audit: the warm-up prefix, then the measured ones.
    pub audits: Vec<usize>,
    /// Pages of each batch: warm-up batches, then measured ones.
    pub batches: Vec<Vec<usize>>,
    pub batch_bodies: Vec<Vec<u8>>,
    pub batch_oracle: Vec<Vec<u8>>,
    pub warmup_audits: usize,
    pub warmup_batches: usize,
    pub render: Duration,
    pub render_allocs: u64,
}

/// The plan of page `i`: countries round-robin, construction indices
/// counting up within each.
fn plan(seed: u64, i: usize) -> SitePlan {
    let country = Country::STUDY[i % Country::STUDY.len()];
    SitePlan::build_gapped(seed, country, (i / Country::STUDY.len()) as u32, None, true)
}

impl Inputs {
    /// Inputs for `seconds` of measured load over `pages` pages.
    pub fn generate(seed: u64, seconds: Duration, pages: usize, warmup_audits: usize) -> Inputs {
        let mut scratch = RenderScratch::new();
        let mut render = Duration::ZERO;
        let mut render_allocs = 0;
        let page_html: Vec<String> = (0..pages)
            .map(|i| {
                let plan = plan(seed, i);
                let mut html = String::new();
                let t0 = Instant::now();
                let (_, allocs) = counted(|| {
                    render_into(
                        &plan,
                        ContentVariant::Localized,
                        "/",
                        &mut scratch,
                        &mut html,
                    )
                });
                render += t0.elapsed();
                render_allocs += allocs;
                html
            })
            .collect();
        let oracle = oracles(&page_html);

        // Zipf popularity over ranks, ranks shuffled onto pages.
        let mut rng = rng_for(seed, &[0x5E4E, 1]);
        let weights: Vec<f64> = (0..pages)
            .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(pages);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut page_of_rank: Vec<usize> = (0..pages).collect();
        for i in (1..pages).rev() {
            page_of_rank.swap(i, rng.gen_range(0..=i));
        }
        let mut draw = move || {
            let u: f64 = rng.gen();
            let rank = cdf.partition_point(|&c| c < u).min(pages - 1);
            page_of_rank[rank]
        };

        let measured_audits = (seconds.as_secs_f64() * AUDITS_PER_S).round() as usize;
        let warmup_batches = batches_within(warmup_audits as f64 / AUDITS_PER_S);
        let measured_batches = batches_within(seconds.as_secs_f64());
        let audits: Vec<usize> = (0..warmup_audits + measured_audits)
            .map(|_| draw())
            .collect();
        let batches: Vec<Vec<usize>> = (0..warmup_batches + measured_batches)
            .map(|_| (0..BATCH_PAGES).map(|_| draw()).collect())
            .collect();
        let batch_bodies = batches
            .iter()
            .map(|b| {
                let htmls: Vec<&String> = b.iter().map(|&p| &page_html[p]).collect();
                serde_json::to_string(&htmls)
                    .expect("batch body serializes")
                    .into_bytes()
            })
            .collect();
        let batch_oracle = batches
            .iter()
            .map(|b| splice(b.iter().map(|&p| &oracle[p][..])))
            .collect();
        Inputs {
            pages: page_html,
            oracle,
            audits,
            batches,
            batch_bodies,
            batch_oracle,
            warmup_audits,
            warmup_batches,
            render,
            render_allocs,
        }
    }

    fn measured_audits(&self) -> usize {
        self.audits.len() - self.warmup_audits
    }

    fn measured_batches(&self) -> usize {
        self.batches.len() - self.warmup_batches
    }
}

fn batches_within(seconds: f64) -> usize {
    (seconds / BATCH_PERIOD.as_secs_f64()).floor() as usize
}

/// The single-audit oracles, computed on two threads.
fn oracles(pages: &[String]) -> Vec<Vec<u8>> {
    let service = AuditService::new();
    let half = pages.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = pages
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(|| {
                    chunk
                        .iter()
                        .map(|p| service.audit_json(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

/// `[a,b,…]` from single-audit bytes: what a de-chunked batch must equal.
fn splice<'a>(parts: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = vec![b'['];
    for (i, part) in parts.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(part);
    }
    out.push(b']');
    out
}

fn post(path: &str, body: &[u8], out: &mut Vec<u8>) {
    out.clear();
    write!(
        out,
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write to Vec");
    out.extend_from_slice(body);
}

/// `repro --serve-daemon`, stopped with SIGTERM and waited for on drop.
struct Daemon {
    child: Option<Child>,
    pid: u32,
    addr: SocketAddr,
    portfile: PathBuf,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

impl Daemon {
    /// Spawn the daemon and wait until its pid/port file names its address.
    fn spawn(repro: &Path, portfile: PathBuf) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_file(&portfile);
        let child = Command::new(repro)
            .arg("--serve-daemon")
            .arg(&portfile)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let mut daemon = Daemon {
            child: Some(child),
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            portfile,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(addr) = std::fs::read_to_string(&daemon.portfile)
                .ok()
                .and_then(|text| serde_json::from_str::<Value>(&text).ok())
                .and_then(|doc| {
                    doc.get("addr")
                        .and_then(Value::as_str)
                        .and_then(|a| a.parse().ok())
                })
            {
                daemon.addr = addr;
                return Ok(daemon);
            }
            let exited = daemon
                .child
                .as_mut()
                .map(|c| c.try_wait())
                .transpose()?
                .flatten();
            if exited.is_some() || Instant::now() > deadline {
                return Err(std::io::Error::other(format!(
                    "daemon did not advertise its port (exit: {exited:?})"
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// SIGTERM, then wait: the daemon drains and exits 0.
    fn stop(mut self) -> std::io::Result<bool> {
        self.terminate()
    }

    fn terminate(&mut self) -> std::io::Result<bool> {
        let Some(mut child) = self.child.take() else {
            return Ok(true);
        };
        // SAFETY: `kill` takes plain integers; the pid is our own child,
        // which has not been waited for, so it cannot have been reused.
        unsafe { kill(self.pid as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > deadline {
                child.kill()?;
                child.wait()?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let _ = std::fs::remove_file(&self.portfile);
        Ok(status.is_some_and(|s| s.success()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.terminate();
    }
}

/// The generator's two keep-alive connections with their readers.
pub struct Conns {
    a: TcpStream,
    b: TcpStream,
    reader_a: ResponseReader,
    reader_b: ResponseReader,
}

impl Conns {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conns> {
        let open = || -> std::io::Result<TcpStream> {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        };
        Ok(Conns {
            a: open()?,
            b: open()?,
            reader_a: ResponseReader::new(),
            reader_b: ResponseReader::new(),
        })
    }
}

/// Send one request and read its response, with a bounded wait.
fn round_trip(
    stream: &mut TcpStream,
    reader: &mut ResponseReader,
    request: &[u8],
) -> std::io::Result<HttpResponse> {
    stream.write_all(request)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if let Some(response) = reader.next_response().map_err(std::io::Error::other)? {
            stream.set_read_timeout(None)?;
            return Ok(response);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(std::io::Error::other("connection closed mid-response")),
            Ok(n) => reader.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() > deadline {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The warm-up prefix, sent back to back in schedule order: set-up time
/// then measures the daemon's work, not the schedule's clock. Returns
/// how many answers did not match their oracle.
pub fn warm_up(conns: &mut Conns, inputs: &Inputs) -> std::io::Result<u64> {
    let mut mismatches = 0;
    let mut request = Vec::new();
    let per_batch = (inputs.warmup_audits / inputs.warmup_batches.max(1)).max(1);
    let mut next_batch = 0;
    for (i, &page) in inputs.audits[..inputs.warmup_audits].iter().enumerate() {
        post("/v1/audit", inputs.pages[page].as_bytes(), &mut request);
        let r = round_trip(&mut conns.a, &mut conns.reader_a, &request)?;
        mismatches += u64::from(r.status != 200 || r.body != inputs.oracle[page]);
        if (i + 1) % per_batch == 0 && next_batch < inputs.warmup_batches {
            post("/v1/batch", &inputs.batch_bodies[next_batch], &mut request);
            let r = round_trip(&mut conns.b, &mut conns.reader_b, &request)?;
            mismatches += u64::from(r.status != 200 || r.body != inputs.batch_oracle[next_batch]);
            next_batch += 1;
        }
    }
    Ok(mismatches)
}

/// `GET /v1/stats` on connection A.
fn stats(conns: &mut Conns) -> std::io::Result<Value> {
    let r = round_trip(
        &mut conns.a,
        &mut conns.reader_a,
        b"GET /v1/stats HTTP/1.1\r\nHost: perfbench\r\n\r\n",
    )?;
    if r.status != 200 {
        return Err(std::io::Error::other(format!(
            "/v1/stats answered {}",
            r.status
        )));
    }
    let text = String::from_utf8(r.body).map_err(std::io::Error::other)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::other(e.0))
}

#[derive(Clone, Copy)]
enum Item {
    Audit(usize),
    Batch(usize),
}

/// One measured request's fate.
#[derive(Debug, Clone, Copy)]
struct Done {
    due: Instant,
    /// When its last byte arrived; `None` if it never completed.
    end: Option<Instant>,
    ok: bool,
}

/// What the open loop measured.
struct LoopResult {
    audits: Vec<Done>,
    batches: Vec<Done>,
    /// How late each send started, in schedule order.
    lateness: Vec<Duration>,
    /// From the first due time to the last answer.
    span: Duration,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

const POLLIN: i16 = 1;

/// In-flight requests of one connection, in send order.
type Queue = Mutex<VecDeque<(usize, Instant)>>;

/// Drive the measured schedule: this thread sends on both connections at
/// each request's due time; a second thread reads both and times each
/// answer from its due time to its last byte.
fn open_loop(conns: &mut Conns, inputs: &Inputs) -> std::io::Result<LoopResult> {
    let (n_audits, n_batches) = (inputs.measured_audits(), inputs.measured_batches());
    let audit_gap = Duration::from_secs_f64(1.0 / AUDITS_PER_S);
    let mut items: Vec<(Duration, Item)> = (0..n_audits)
        .map(|i| (audit_gap * i as u32, Item::Audit(i)))
        .chain((0..n_batches).map(|j| (BATCH_PERIOD * j as u32 + BATCH_PERIOD / 2, Item::Batch(j))))
        .collect();
    items.sort_by_key(|(offset, _)| *offset);

    let queue_a: Queue = Mutex::new(VecDeque::new());
    let queue_b: Queue = Mutex::new(VecDeque::new());
    let sent_all = AtomicBool::new(false);
    let mut audits = vec![None; n_audits];
    let mut batches = vec![None; n_batches];
    let mut lateness = Vec::with_capacity(items.len());
    let (mut write_a, mut write_b) = (conns.a.try_clone()?, conns.b.try_clone()?);
    let start = Instant::now() + Duration::from_millis(20);

    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(conns, inputs, &queue_a, &queue_b, &sent_all));
        let mut request = Vec::new();
        let mut send = || -> std::io::Result<()> {
            for &(offset, item) in &items {
                let due = start + offset;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                lateness.push(Instant::now().saturating_duration_since(due));
                match item {
                    Item::Audit(i) => {
                        let page = inputs.audits[inputs.warmup_audits + i];
                        post("/v1/audit", inputs.pages[page].as_bytes(), &mut request);
                        queue_a.lock().expect("queue lock").push_back((i, due));
                        write_a.write_all(&request)?;
                    }
                    Item::Batch(j) => {
                        post(
                            "/v1/batch",
                            &inputs.batch_bodies[inputs.warmup_batches + j],
                            &mut request,
                        );
                        queue_b.lock().expect("queue lock").push_back((j, due));
                        write_b.write_all(&request)?;
                    }
                }
            }
            Ok(())
        };
        let sent = send();
        sent_all.store(true, Ordering::SeqCst);
        let received = receiver.join().expect("receiver thread");
        sent.and(received)
    })?;
    let last_end = received
        .iter()
        .filter_map(|(_, _, d)| d.end)
        .max()
        .unwrap_or(start);
    for (kind, idx, done) in received {
        match kind {
            Kind::Audit => audits[idx] = Some(done),
            Kind::Batch => batches[idx] = Some(done),
        }
    }
    let missing = |due| Done {
        due,
        end: None,
        ok: false,
    };
    Ok(LoopResult {
        audits: audits
            .into_iter()
            .enumerate()
            .map(|(i, d)| d.unwrap_or_else(|| missing(start + audit_gap * i as u32)))
            .collect(),
        batches: batches
            .into_iter()
            .enumerate()
            .map(|(j, d)| {
                d.unwrap_or_else(|| missing(start + BATCH_PERIOD * j as u32 + BATCH_PERIOD / 2))
            })
            .collect(),
        lateness,
        span: last_end.saturating_duration_since(start),
    })
}

#[derive(Clone, Copy)]
enum Kind {
    Audit,
    Batch,
}

/// The receiving half of [`open_loop`]: poll both sockets, feed each
/// reader, and check every completed answer against its oracle.
fn receive(
    conns: &mut Conns,
    inputs: &Inputs,
    queue_a: &Queue,
    queue_b: &Queue,
    sent_all: &AtomicBool,
) -> std::io::Result<Vec<(Kind, usize, Done)>> {
    let mut out = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut drain_until = None;
    loop {
        if sent_all.load(Ordering::SeqCst) {
            let idle = queue_a.lock().expect("queue lock").is_empty()
                && queue_b.lock().expect("queue lock").is_empty();
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            if idle || Instant::now() > until {
                return Ok(out);
            }
        }
        let mut fds = [
            PollFd {
                fd: conns.a.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: conns.b.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
        ];
        // SAFETY: `fds` is a live array of two `struct pollfd` and the
        // count passed matches it.
        let ready = unsafe { poll(fds.as_mut_ptr(), 2, 10) };
        if ready < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        for (k, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            let (stream, reader, queue, kind) = if k == 0 {
                (&mut conns.a, &mut conns.reader_a, queue_a, Kind::Audit)
            } else {
                (&mut conns.b, &mut conns.reader_b, queue_b, Kind::Batch)
            };
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::other("daemon closed a connection"));
            }
            let end = Instant::now();
            reader.push(&buf[..n]);
            while let Some(response) = reader.next_response().map_err(std::io::Error::other)? {
                let (idx, due) = queue
                    .lock()
                    .expect("queue lock")
                    .pop_front()
                    .ok_or_else(|| std::io::Error::other("answer to a request never sent"))?;
                let expected = match kind {
                    Kind::Audit => &inputs.oracle[inputs.audits[inputs.warmup_audits + idx]],
                    Kind::Batch => &inputs.batch_oracle[inputs.warmup_batches + idx],
                };
                let ok = response.status == 200 && response.body == *expected;
                out.push((
                    kind,
                    idx,
                    Done {
                        due,
                        end: Some(end),
                        ok,
                    },
                ));
            }
        }
    }
}

fn latency_ms(done: &[Done]) -> Vec<f64> {
    done.iter()
        .filter_map(|d| d.end.map(|end| ms(end.saturating_duration_since(d.due))))
        .collect()
}

fn field(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        v = v.get(key).unwrap_or(&Value::Null);
    }
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// Server-side latency p50 (µs) of the requests between two `/v1/stats`
/// snapshots, from the difference of their cumulative histograms.
fn server_p50_us(before: &Value, after: &Value) -> f64 {
    let buckets = |doc: &Value| -> Vec<(f64, f64)> {
        doc.get("latency")
            .and_then(|l| l.get("buckets"))
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|b| (field(b, &["upper_us"]), field(b, &["cumulative"])))
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let cum_at = |series: &[(f64, f64)], bound: f64| {
        series
            .iter()
            .take_while(|(upper, _)| *upper <= bound)
            .last()
            .map_or(0.0, |(_, c)| *c)
    };
    let total = b1.last().map_or(0.0, |(_, c)| *c) - b0.last().map_or(0.0, |(_, c)| *c);
    b1.iter()
        .map(|&(upper, cum)| (upper, cum - cum_at(&b0, upper)))
        .find(|&(_, delta)| delta >= total / 2.0)
        .map_or(f64::NAN, |(upper, _)| upper)
}

/// The end-to-end metrics of one measured open loop.
pub struct Measured {
    pub outcome: Outcome,
    result: LoopResult,
    stats_before: Value,
    stats_after: Value,
}

/// Measure the open loop against a warmed-up server and score it.
/// `server_pid` is the serving process, whose CPU and peak RSS count.
pub fn measure(
    conns: &mut Conns,
    server_pid: u32,
    inputs: &Inputs,
    setup_times: &[f64],
    correct: bool,
) -> std::io::Result<Measured> {
    let stats_before = stats(conns)?;
    let cpu0 = pid_cpu(server_pid)?;
    let result = open_loop(conns, inputs)?;
    let cpu = pid_cpu(server_pid)? - cpu0;
    let stats_after = stats(conns)?;
    let rss = peak_rss_bytes(server_pid)?;

    let lat = latency_ms(&result.audits);
    let ok_audits = result.audits.iter().filter(|d| d.ok).count();
    let ok_batches = result.batches.iter().filter(|d| d.ok).count();
    let timely = result
        .audits
        .iter()
        .filter(|d| {
            d.ok && d
                .end
                .is_some_and(|end| end.saturating_duration_since(d.due) <= GOODPUT_LIMIT)
        })
        .count();
    let attempted = (result.audits.len() + result.batches.len()) as u64;
    let failed = attempted - (ok_audits + ok_batches) as u64;
    let (q, label) = tail_quantile(lat.len());
    eprintln!(
        "serve-mixed: {} audits + {} batches over {:.1} s; op_tail_ms is the {label} of {} audits; \
         set-ups {:?} s",
        result.audits.len(),
        result.batches.len(),
        result.span.as_secs_f64(),
        lat.len(),
        setup_times
    );
    let outcome = Outcome {
        correct: correct && failed == 0 && !lat.is_empty(),
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(setup_times), "s"),
            metric(
                "op_p50_ms",
                if lat.is_empty() {
                    f64::NAN
                } else {
                    median(&lat)
                },
                "ms",
            ),
            metric(
                "op_tail_ms",
                if lat.is_empty() {
                    f64::NAN
                } else {
                    quantile(&lat, q)
                },
                "ms",
            ),
            metric(
                "goodput_per_s",
                timely as f64 / result.span.as_secs_f64(),
                "1/s",
            ),
            metric("cpu_ms_per_op", ms(cpu) / result.audits.len() as f64, "ms"),
            metric("peak_rss_mb", rss as f64 / (1024.0 * 1024.0), "MiB"),
            metric(
                "ok_share",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ],
    };
    Ok(Measured {
        outcome,
        result,
        stats_before,
        stats_after,
    })
}

/// Spawn a daemon and run the warm-up prefix: one set-up. Returns the
/// set-up time and whether every warm-up answer matched its oracle.
fn set_up(
    repro: &Path,
    out: &Path,
    k: usize,
    inputs: &Inputs,
) -> std::io::Result<(Daemon, Conns, f64, bool)> {
    let started = Instant::now();
    let portfile = out.join(format!("daemon-{}-{k}.json", std::process::id()));
    let daemon = Daemon::spawn(repro, portfile)?;
    let mut conns = Conns::connect(daemon.addr)?;
    let mismatches = warm_up(&mut conns, inputs)?;
    Ok((
        daemon,
        conns,
        started.elapsed().as_secs_f64(),
        mismatches == 0,
    ))
}

/// The timed run.
pub fn run_timed(
    repro: &Path,
    out: &Path,
    seed: u64,
    seconds: Duration,
) -> std::io::Result<Outcome> {
    let inputs = Inputs::generate(seed, seconds, PAGES, WARMUP_AUDITS);
    let (mut setup_times, mut correct, mut live) = (Vec::new(), true, None);
    for k in 0..SETUPS {
        if let Some((daemon, conns)) = live.take() {
            drop(conns);
            correct &= Daemon::stop(daemon)?;
        }
        let (daemon, conns, took, ok) = set_up(repro, out, k, &inputs)?;
        setup_times.push(took);
        correct &= ok;
        live = Some((daemon, conns));
    }
    let (daemon, mut conns) = live.expect("at least one set-up");
    let measured = measure(&mut conns, daemon.pid, &inputs, &setup_times, correct)?;
    drop(conns);
    let mut outcome = measured.outcome;
    outcome.correct &= daemon.stop()?;
    Ok(outcome)
}

/// What the traced run of serve-mixed measured.
pub struct Traced {
    pub rows: Vec<Row>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Exact counts and timings of the in-process decomposition.
#[derive(Default)]
struct Decomposed {
    requests: u64,
    hits: u64,
    misses: u64,
    bytes: u64,
    elements: u64,
    gap_regions: u64,
    extract_allocs: u64,
    hit_allocs: u64,
    miss_allocs: u64,
    mismatches: u64,
}

/// Replay the first [`DECOMPOSED`] measured audits on this thread.
///
/// Two caches see the same lookups in the same order: one is driven by
/// hand, so the parse, the lookup, the engine and its layers, and the
/// serialisation are each timed on their own; the other sits behind an
/// in-process server's `route`, which runs the daemon's exact request
/// path (minus the socket) under the counting allocator. Batch pages go
/// through both caches where the schedule puts them, so hits and misses
/// follow the daemon's.
fn decompose(inputs: &Inputs, tracer: &mut Tracer) -> std::io::Result<Decomposed> {
    let server = langcrux_serve::spawn(ServeConfig::default())?;
    let state = server.state();
    let config = ServeConfig::default();
    let cache = ShardedCache::new(config.cache_shards, config.cache_capacity_per_shard);
    let service = AuditService::new();
    let kizuki = Kizuki::standard();
    let reader = ScreenReader::voiceover_like();

    // Both caches see every lookup the daemon sees, in its order: the
    // warm-up prefix first, batches included.
    let per_batch = (inputs.warmup_audits / inputs.warmup_batches.max(1)).max(1);
    let warm = |page: usize| {
        for c in [&cache, &state.cache] {
            c.get_or_compute(inputs.pages[page].as_bytes(), || {
                inputs.oracle[page].clone()
            });
        }
    };
    for (i, &page) in inputs.audits[..inputs.warmup_audits].iter().enumerate() {
        warm(page);
        if (i + 1) % per_batch == 0 && (i + 1) / per_batch <= inputs.warmup_batches {
            inputs.batches[(i + 1) / per_batch - 1]
                .iter()
                .for_each(|&p| warm(p));
        }
    }

    let mut d = Decomposed::default();
    let mut request = Vec::new();
    let mut written = Vec::new();
    let measured = &inputs.audits[inputs.warmup_audits..];
    // Measured batch `j` is due between audits `j·n + n/2` and the next.
    let audits_per_batch = (BATCH_PERIOD.as_secs_f64() * AUDITS_PER_S).round() as usize;
    for (i, &page) in measured.iter().take(DECOMPOSED).enumerate() {
        if i % audits_per_batch == audits_per_batch / 2 {
            if let Some(batch) = inputs
                .batches
                .get(inputs.warmup_batches + i / audits_per_batch)
            {
                batch.iter().for_each(|&p| warm(p));
            }
        }
        tracer.set_op(i as u64 + 1);
        let html = &inputs.pages[page];
        post("/v1/audit", html.as_bytes(), &mut request);
        let span = tracer.enter("serve.request");
        let (parsed, _) = tracer.time("serve.parse", || {
            let mut parser = RequestParser::new(Limits::default());
            parser.feed(&request);
            parser.poll()
        });
        let parsed = parsed
            .map_err(|e| std::io::Error::other(e.detail()))?
            .ok_or_else(|| std::io::Error::other("request did not parse"))?;
        let (cached, _) = tracer.time("serve.cache_lookup", || {
            cache.get(CacheKey::of(&parsed.body))
        });
        let hit = cached.is_some();
        if !hit {
            let extract = tokenize_and_extract(tracer, html, &mut d.extract_allocs);
            d.bytes += html.len() as u64;
            // Kizuki labels elements against the detected page language.
            let language = page_language(&extract).unwrap_or(Language::English);
            d.elements += classify_elements(tracer, &extract, language);
            let (base, _) = tracer.time("audit.audit_page", || audit_page(&extract));
            tracer.time("kizuki.evaluate", || {
                black_box(kizuki.evaluate(&extract, &base))
            });
            let (report, _) = tracer.time("audit.gap_report", || gap_report(&extract));
            d.gap_regions += report.regions.len() as u64;
            tracer.time("kizuki.speech", || {
                let language = page_language(&extract);
                black_box(reader.gap_speech(&report, language));
                black_box(reader.announce_page(&extract, language.unwrap_or(Language::English)));
            });
            let (response, _) = tracer.time("serve.engine", || service.audit(html));
            let (bytes, _) = tracer.time("serde_json.audit_response", || {
                serde_json::to_string(&response).expect("audit response serializes")
            });
            d.mismatches += u64::from(bytes.as_bytes() != inputs.oracle[page].as_slice());
            cache.insert(CacheKey::of(&parsed.body), Arc::new(bytes.into_bytes()));
        }
        tracer.exit(span);

        // The daemon's own path for the same request, allocations counted.
        let (status, allocs) = counted(|| {
            let mut parser = RequestParser::new(Limits::default());
            parser.feed(&request);
            let parsed = parser.poll().ok().flatten().expect("request parses");
            match route(state, &parsed) {
                Routed::Response(response) => {
                    response.write_into(&mut written);
                    response.status
                }
                Routed::BatchStream { .. } => 0,
            }
        });
        d.mismatches += u64::from(status != 200 || !written.ends_with(&inputs.oracle[page]));
        d.requests += 1;
        if hit {
            d.hits += 1;
            d.hit_allocs += allocs;
        } else {
            d.misses += 1;
            d.miss_allocs += allocs;
        }
    }
    tracer.set_op(0);
    server.shutdown();
    Ok(d)
}

/// The traced run: one set-up, the measured open loop with a span per
/// request, then the in-process decomposition. `reference_op_p50_ms` is
/// the timed run's median audit.
pub fn run_traced(
    repro: &Path,
    out: &Path,
    seed: u64,
    seconds: Duration,
    reference_op_p50_ms: f64,
    tracer: &mut Tracer,
) -> std::io::Result<Traced> {
    let inputs = Inputs::generate(seed, seconds, PAGES, WARMUP_AUDITS);
    let (daemon, mut conns, setup_s, warm_ok) = set_up(repro, out, 0, &inputs)?;
    let measured = measure(&mut conns, daemon.pid, &inputs, &[setup_s], warm_ok)?;
    drop(conns);
    let daemon_ok = daemon.stop()?;
    let r = &measured.result;
    for (i, d) in r.audits.iter().enumerate() {
        if let Some(end) = d.end {
            tracer.record("serve.audit_request", d.due, end, 2, i as u64 + 1);
        }
    }
    for (j, d) in r.batches.iter().enumerate() {
        if let Some(end) = d.end {
            tracer.record("serve.batch_request", d.due, end, 3, j as u64 + 1);
        }
    }

    let d = decompose(&inputs, tracer)?;
    let total_us = |name: &str| us(tracer.total(name).0);
    let misses = d.misses.max(1) as f64;
    let (before, after) = (&measured.stats_before, &measured.stats_after);
    let hits = field(after, &["cache", "hits"]) - field(before, &["cache", "hits"]);
    let lookups = hits + field(after, &["cache", "misses"]) - field(before, &["cache", "misses"]);
    let server_p50 = server_p50_us(before, after);
    let audit_ms = latency_ms(&r.audits);
    let client_p50_us = median(&audit_ms) * 1e3;
    let late_ms: Vec<f64> = r.lateness.iter().map(|l| ms(*l)).collect();

    let mut rows = Rows::default();
    rows.value(
        "webgen.render_us_per_page",
        us(inputs.render) / inputs.pages.len() as f64,
    );
    rows.exact(
        "webgen.render_allocs_per_page",
        inputs.render_allocs as f64 / inputs.pages.len() as f64,
    );
    let no_corpus =
        "serve-mixed renders its pages from site plans before the clock: no corpus, no shards";
    rows.absent("webgen.shard_builds_per_op", no_corpus);
    rows.absent("webgen.shard_builds_setup", no_corpus);
    rows.absent_prefix(
        "net.",
        "the serve path never fetches through the simulated network",
    );
    rows.value(
        "html.tokenize_us_per_kb",
        total_us("html.tokenize_into") / (d.bytes as f64 / 1024.0),
    );
    rows.exact("html.bytes_per_page", d.bytes as f64 / misses);
    rows.value(
        "crawl.extract_self_us_per_page",
        (total_us("crawl.extract_streaming") - total_us("html.tokenize_into")) / misses,
    );
    rows.exact(
        "crawl.extract_allocs_per_page",
        d.extract_allocs as f64 / misses,
    );
    rows.absent(
        "crawl.attempts_per_visit",
        "the serve path makes no crawl visits",
    );
    let no_build = "serve-mixed builds no dataset";
    rows.absent("crawl.pool_speedup", no_build);
    rows.absent("crawl.pool_cpu_inflation", no_build);
    rows.absent(
        "langid.composition_us_per_page",
        "the serve path never applies the 50% native-content test",
    );
    let elements = d.elements.max(1) as f64;
    rows.value(
        "langid.classify_label_us_per_element",
        total_us("langid.classify_label") / elements,
    );
    rows.value(
        "filter.classify_us_per_element",
        total_us("filter.classify") / elements,
    );
    rows.value(
        "audit.audit_page_us_per_page",
        total_us("audit.audit_page") / misses,
    );
    rows.value(
        "audit.gap_report_us_per_page",
        total_us("audit.gap_report") / misses,
    );
    rows.exact("audit.gap_regions_per_page", d.gap_regions as f64 / misses);
    rows.value(
        "kizuki.evaluate_us_per_page",
        total_us("kizuki.evaluate") / misses,
    );
    rows.value(
        "kizuki.speech_us_per_page",
        total_us("kizuki.speech") / misses,
    );
    rows.absent_prefix("core.", no_build);
    rows.absent_prefix("serde_json.dataset", no_build);
    rows.value(
        "serde_json.audit_us_per_miss",
        total_us("serde_json.audit_response") / misses,
    );
    rows.value(
        "serve.parse_us_per_request",
        total_us("serve.parse") / d.requests.max(1) as f64,
    );
    rows.value(
        "serve.cache_lookup_us",
        total_us("serve.cache_lookup") / d.requests.max(1) as f64,
    );
    rows.value("serve.cache_hit_share", hits / lookups);
    rows.exact("serve.replay_hits", d.hits as f64);
    rows.exact("serve.replay_misses", d.misses as f64);
    rows.value(
        "serve.engine_us_per_miss",
        total_us("serve.engine") / misses,
    );
    rows.value("serve.server_p50_us", server_p50);
    rows.value("serve.transport_us", client_p50_us - server_p50);
    rows.value("serve.batch_p50_ms", median(&latency_ms(&r.batches)));
    rows.value("serve.audit_p99_ms", quantile(&audit_ms, 0.99));
    rows.value(
        "serve.peak_batch_buffer_kb",
        field(after, &["peak_batch_buffer"]) / 1024.0,
    );
    rows.exact(
        "serve.allocs_per_hit",
        d.hit_allocs as f64 / d.hits.max(1) as f64,
    );
    rows.exact("serve.allocs_per_miss", d.miss_allocs as f64 / misses);
    rows.value("bench.gen_late_p99_ms", quantile(&late_ms, 0.99));
    let op_p50_ms = measured.outcome.get("op_p50_ms").unwrap_or(f64::NAN);
    rows.value("bench.trace_overhead", op_p50_ms / reference_op_p50_ms);
    eprintln!(
        "serve-mixed: traced set-up {setup_s:.3} s, median audit {op_p50_ms:.3} ms, \
         {} decomposed requests ({} hits, {} misses)",
        d.requests, d.hits, d.misses
    );
    let o = &measured.outcome;
    Ok(Traced {
        rows: rows.finish(),
        correct: o.correct && daemon_ok && d.mismatches == 0,
        attempted: o.attempted + d.requests,
        failed: o.failed + d.mismatches,
    })
}
