//! Parallel execution: a shared work-stealing worker pool.
//!
//! The crawl workload is CPU-bound simulation (render + parse + extract),
//! so — per the workspace's networking guides — it runs on OS threads
//! rather than an async runtime. The executor here is deliberately
//! general: [`run_work_stealing`] shards any indexed task list across
//! `threads` workers, each owning a deque of task indices; an idle worker
//! steals from the back of the longest remaining queue. Results are
//! returned in task order regardless of scheduling, which is what lets the
//! pipeline in `langcrux-core` keep its deterministic study-order merge
//! while sharding (country, candidate-chunk) units across every core.

use crate::browser::{Browser, BrowserConfig, Visit, VisitError};
use langcrux_net::{Internet, Url, Vantage};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Number of workers to use when the caller does not care: all cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Run `f` over every task on a work-stealing pool of `threads` workers.
///
/// Tasks are distributed as contiguous blocks (one per worker) for
/// locality; a worker that drains its own deque steals single tasks from
/// the back of the longest surviving queue. The output vector is in task
/// order — `result[i] == f(i, &tasks[i])` — so callers observe the same
/// outcome at every thread count (determinism guarantee).
pub fn run_work_stealing<T, R, F>(threads: usize, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_work_stealing_with(threads, tasks, |_| (), |(), i, t| f(i, t))
}

/// [`run_work_stealing`] with **per-worker state**: `init(worker)` runs
/// once on each worker thread and the resulting value is passed mutably to
/// every task that worker executes (stolen tasks included).
///
/// This is how the crawl threads reusable resources through the pool —
/// each worker holds one [`Browser`] (with its recycled fetch buffer)
/// across every visit it performs, instead of rebuilding per task. The
/// determinism contract is unchanged *provided* task results do not depend
/// on the state's history, which holds for browsers (a visit depends only
/// on `(corpus seed, host, vantage)`).
///
/// Each worker thread enters the caller's trace context
/// ([`langcrux_obs::trace::current`]) once, and every task runs under a
/// [`task_fence`](langcrux_obs::trace::task_fence), so a traced build
/// records the same span structure at every thread count.
pub fn run_work_stealing_with<T, R, S, I, F>(threads: usize, tasks: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(tasks.len().max(1));
    if threads == 1 {
        let mut state = init(0);
        return tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // Depth-fence each task so trace spans nest identically
                // whether the task runs inline here (under the caller's
                // open orchestration span and trace context) or on a pool
                // worker that entered that context.
                let _fence = langcrux_obs::trace::task_fence();
                f(&mut state, i, t)
            })
            .collect();
    }

    // One deque per worker, seeded with a contiguous block of task indices.
    let queues: Vec<Mutex<VecDeque<usize>>> = {
        let per_worker = tasks.len().div_ceil(threads);
        (0..threads)
            .map(|w| {
                let start = w * per_worker;
                let end = ((w + 1) * per_worker).min(tasks.len());
                Mutex::new((start..end.max(start)).collect())
            })
            .collect()
    };
    let queues = &queues;
    let f = &f;
    let init = &init;
    let trace_context = &langcrux_obs::trace::current();

    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let _trace = trace_context.enter();
                    let mut state = init(w);
                    let mut results: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Own work first (front), then steal from the back
                        // of the longest other queue. The own-queue guard is
                        // a statement-scoped binding so it is RELEASED
                        // before stealing — holding it while locking other
                        // queues deadlocks two mutually-stealing workers.
                        let own = queues[w].lock().expect("queue lock").pop_front();
                        let next = match own {
                            Some(i) => Some(i),
                            None => steal(queues, w),
                        };
                        match next {
                            Some(i) => {
                                let _fence = langcrux_obs::trace::task_fence();
                                results.push((i, f(&mut state, i, &tasks[i])));
                            }
                            None => break,
                        }
                    }
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), tasks.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Steal one task from the back of the fullest queue other than `own`.
///
/// Returns `None` only after observing every other queue empty in a full
/// scan; a victim drained between the length scan and the pop triggers a
/// rescan rather than retiring the worker while work remains elsewhere.
fn steal(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    loop {
        let mut best: Option<(usize, usize)> = None; // (queue, remaining)
        for (q, queue) in queues.iter().enumerate() {
            if q == own {
                continue;
            }
            let len = queue.lock().expect("queue lock").len();
            if len > 0 && best.is_none_or(|(_, b)| len > b) {
                best = Some((q, len));
            }
        }
        let (victim, _) = best?;
        if let Some(task) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(task);
        }
        // Raced with the victim's owner; rescan.
    }
}

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct CrawlConfig {
    pub threads: usize,
    pub browser: BrowserConfig,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            threads: default_threads().min(16),
            browser: BrowserConfig::default(),
        }
    }
}

/// Aggregate crawl telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlStats {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub restricted: u64,
    pub retried_visits: u64,
    pub total_bytes: u64,
    pub total_latency_ms: u64,
}

/// Result of crawling a host list.
pub struct CrawlOutcome {
    /// `(host, result)` sorted by host for determinism.
    pub visits: Vec<(String, Result<Visit, VisitError>)>,
    pub stats: CrawlStats,
}

impl CrawlOutcome {
    /// Iterate only the successful visits.
    pub fn successes(&self) -> impl Iterator<Item = (&str, &Visit)> {
        self.visits
            .iter()
            .filter_map(|(h, r)| r.as_ref().ok().map(|v| (h.as_str(), v)))
    }
}

/// Crawl `hosts` from `vantage` using the work-stealing pool.
pub fn crawl_hosts(
    internet: &Internet,
    vantage: Vantage,
    hosts: &[String],
    config: CrawlConfig,
) -> CrawlOutcome {
    // One browser per worker: the body buffer (and any downstream render
    // arena it triggers) is recycled across every host the worker visits.
    let results = run_work_stealing_with(
        config.threads,
        hosts,
        |_| Browser::new(internet, config.browser),
        |browser, _, host: &String| browser.visit(&Url::from_host(host), vantage),
    );

    let mut visits: Vec<(String, Result<Visit, VisitError>)> =
        hosts.iter().cloned().zip(results).collect();
    visits.sort_by(|a, b| a.0.cmp(&b.0));

    let mut stats = CrawlStats {
        attempted: hosts.len() as u64,
        ..CrawlStats::default()
    };
    for (_, result) in &visits {
        match result {
            Ok(v) => {
                stats.succeeded += 1;
                stats.total_bytes += v.html_bytes as u64;
                stats.total_latency_ms += u64::from(v.latency_ms);
                if v.attempts > 1 {
                    stats.retried_visits += 1;
                }
            }
            Err(VisitError::Restricted) => {
                stats.restricted += 1;
                stats.failed += 1;
            }
            Err(_) => stats.failed += 1,
        }
    }
    CrawlOutcome { visits, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_lang::Country;
    use langcrux_net::{ContentServer, ContentVariant, FaultPlan};

    fn server(tag: String) -> Box<dyn ContentServer> {
        Box::new(move |_v: ContentVariant, _p: &str| {
            format!("<html><head><title>{tag}</title></head><body><p>{tag}</p></body></html>")
        })
    }

    fn build_net(hosts: usize, plan: FaultPlan) -> (Internet, Vec<String>) {
        let mut net = Internet::new(21, plan);
        let mut names = Vec::new();
        for i in 0..hosts {
            let host = format!("site{i}.jp");
            net.register_simple(&host, Country::Japan, server(host.clone()));
            names.push(host);
        }
        (net, names)
    }

    #[test]
    fn work_stealing_preserves_task_order() {
        let tasks: Vec<u64> = (0..500).collect();
        for threads in [1, 2, 7] {
            let out = run_work_stealing(threads, &tasks, |i, t| {
                assert_eq!(i as u64, *t);
                t * 3
            });
            assert_eq!(out, tasks.iter().map(|t| t * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn work_stealing_handles_skewed_task_costs() {
        // A few heavy tasks at the front force idle workers to steal.
        let tasks: Vec<u64> = (0..64).collect();
        let out = run_work_stealing(8, &tasks, |_, t| {
            if *t < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            *t
        });
        assert_eq!(out, tasks);
    }

    #[test]
    fn work_stealing_survives_heavy_contention() {
        // Many near-zero-cost tasks across many rounds maximise the
        // window where several workers drain their deques and steal from
        // each other simultaneously — the regression shape for the
        // hold-own-lock-while-stealing deadlock.
        for round in 0..50 {
            let tasks: Vec<u64> = (0..200).collect();
            let out = run_work_stealing(8, &tasks, |_, t| *t);
            assert_eq!(out.len(), 200, "round {round}");
        }
    }

    #[test]
    fn per_worker_state_is_initialised_once_and_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let tasks: Vec<u64> = (0..300).collect();
        for threads in [1, 2, 6] {
            inits.store(0, Ordering::SeqCst);
            let out = run_work_stealing_with(
                threads,
                &tasks,
                |w| {
                    inits.fetch_add(1, Ordering::SeqCst);
                    // Per-worker scratch: tasks served per state.
                    (w, 0usize)
                },
                |state, i, t| {
                    state.1 += 1;
                    assert_eq!(i as u64, *t);
                    *t * 2
                },
            );
            assert_eq!(out, tasks.iter().map(|t| t * 2).collect::<Vec<_>>());
            assert!(
                inits.load(Ordering::SeqCst) <= threads,
                "init ran more than once per worker"
            );
        }
    }

    #[test]
    fn work_stealing_empty_and_tiny() {
        let none: Vec<u32> = Vec::new();
        assert!(run_work_stealing(4, &none, |_, t| *t).is_empty());
        assert_eq!(run_work_stealing(8, &[9u32], |_, t| *t), vec![9]);
    }

    #[test]
    fn crawl_collects_all_hosts() {
        let (net, hosts) = build_net(40, FaultPlan::RELIABLE);
        let outcome = crawl_hosts(
            &net,
            Vantage::Residential(Country::Japan),
            &hosts,
            CrawlConfig {
                threads: 4,
                browser: BrowserConfig::default(),
            },
        );
        assert_eq!(outcome.visits.len(), 40);
        assert_eq!(outcome.stats.succeeded, 40);
        assert_eq!(outcome.stats.failed, 0);
        assert!(outcome.stats.total_bytes > 0);
    }

    #[test]
    fn parallel_equals_serial() {
        let (net, hosts) = build_net(60, FaultPlan::HOSTILE);
        let run = |threads: usize| {
            let outcome = crawl_hosts(
                &net,
                Vantage::Cloud,
                &hosts,
                CrawlConfig {
                    threads,
                    browser: BrowserConfig::default(),
                },
            );
            outcome
                .visits
                .iter()
                .map(|(h, r)| (h.clone(), r.is_ok()))
                .collect::<Vec<_>>()
        };
        // Determinism: outcome (per host) must not depend on thread count.
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn stats_count_failures() {
        let (net, hosts) = build_net(80, FaultPlan::HOSTILE);
        let outcome = crawl_hosts(&net, Vantage::Cloud, &hosts, CrawlConfig::default());
        assert_eq!(outcome.stats.attempted, 80);
        assert_eq!(
            outcome.stats.succeeded + outcome.stats.failed,
            outcome.visits.len() as u64
        );
        // A hostile plan with retries should still recover most hosts.
        assert!(outcome.stats.succeeded > 60);
    }

    #[test]
    fn empty_host_list() {
        let (net, _) = build_net(1, FaultPlan::RELIABLE);
        let outcome = crawl_hosts(&net, Vantage::Cloud, &[], CrawlConfig::default());
        assert!(outcome.visits.is_empty());
        assert_eq!(outcome.stats.attempted, 0);
    }

    #[test]
    fn successes_iterator() {
        let (net, hosts) = build_net(10, FaultPlan::RELIABLE);
        let outcome = crawl_hosts(&net, Vantage::Cloud, &hosts, CrawlConfig::default());
        assert_eq!(outcome.successes().count(), 10);
        for (host, visit) in outcome.successes() {
            assert!(visit.extract.visible_text.contains(host));
        }
    }
}
