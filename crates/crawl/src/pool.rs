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
/// each worker holds one [`Browser`](crate::Browser) (with its recycled
/// fetch buffer) across every visit it performs, instead of rebuilding per
/// task. The
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
