//! The connection governor: bounded admission for the accept loop.
//!
//! Three-tier backpressure, the standard front-door shape of a bounded
//! server:
//!
//! 1. **Serve** — while fewer than `max_active` connections are live, a
//!    new connection claims a slot and gets its own handler thread. The
//!    slot count is therefore also the hard bound on connection threads.
//! 2. **Queue** — at the cap, up to `queue_cap` connections wait in a
//!    bounded pending queue. A handler thread that finishes its
//!    connection pops the queue and serves the waiter on the same thread
//!    (and the same slot) instead of releasing the slot.
//! 3. **Shed** — cap and queue both full: the connection is answered
//!    `503 Service Unavailable` + `Retry-After` straight from the accept
//!    loop and closed. Load the server cannot absorb is refused in O(1)
//!    instead of accumulating unbounded threads or sockets.
//!
//! Queued connections are drained by slot turnover, and slot turnover is
//! guaranteed by the per-connection deadlines in `server` (idle timeout,
//! request deadline, write timeout): an idle or stuck keep-alive
//! connection cannot pin its slot forever, so a queued waiter is served
//! within one deadline period even under a slowloris storm.
//!
//! The governor is generic over the connection type so its admission
//! logic is unit-testable without sockets; the server instantiates it
//! with `TcpStream`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where an arriving connection goes.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission<T> {
    /// A slot was claimed: serve on a fresh handler thread.
    Serve(T),
    /// Cap reached, queue had room: parked until a handler frees up.
    Queued,
    /// Cap and queue full: answer 503 + Retry-After and close.
    Shed(T),
}

/// Bounded admission state shared by the accept loop and every handler
/// thread. Deliberately counter-free: the server's `RequestCounters`
/// (surfaced on `/v1/stats`) are the single source of shed telemetry,
/// counted by the caller on the [`Admission::Shed`] arm.
pub struct Governor<T> {
    max_active: usize,
    queue_cap: usize,
    active: AtomicUsize,
    queue: Mutex<VecDeque<T>>,
}

impl<T> Governor<T> {
    /// `max_active` slots (clamped to ≥ 1) and `queue_cap` pending
    /// waiters (0 = shed immediately at the cap).
    pub fn new(max_active: usize, queue_cap: usize) -> Self {
        Governor {
            max_active: max_active.max(1),
            queue_cap,
            active: AtomicUsize::new(0),
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Admit one connection: claim a slot, park it, or shed it.
    pub fn admit(&self, conn: T) -> Admission<T> {
        if self.try_claim_slot() {
            return Admission::Serve(conn);
        }
        {
            let mut queue = self.lock_queue();
            if queue.len() >= self.queue_cap {
                return Admission::Shed(conn);
            }
            queue.push_back(conn);
        }
        // Repair the admit/finish race: a handler may have released the
        // last slot between our failed claim and the push above, with no
        // later finish() left to pop the queue. If a slot is free now,
        // claim it and serve the queue head (not necessarily the
        // connection we just pushed — FIFO order is the fairness here).
        if self.try_claim_slot() {
            match self.lock_queue().pop_front() {
                Some(waiter) => return Admission::Serve(waiter),
                None => self.release_slot(),
            }
        }
        Admission::Queued
    }

    /// A handler thread finished its connection. Returns the next queued
    /// connection to serve on the same slot, or releases the slot when
    /// the queue is empty (or the server is draining — queued waiters
    /// are refused at shutdown, not served).
    pub fn finish(&self, serve_queued: bool) -> Option<T> {
        if serve_queued {
            if let Some(next) = self.lock_queue().pop_front() {
                return Some(next);
            }
        }
        self.release_slot();
        None
    }

    /// Empty the pending queue (shutdown: dropping a `TcpStream` closes
    /// the socket, which is the refusal).
    pub fn drain_queue(&self) -> Vec<T> {
        self.lock_queue().drain(..).collect()
    }

    /// The pending queue, locked. Each operation on it is a single push,
    /// pop or drain, so a lock poisoned by a panicking holder is taken
    /// over rather than turning every later admission into a panic.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Live connections holding slots.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    fn try_claim_slot(&self) -> bool {
        let mut current = self.active.load(Ordering::SeqCst);
        while current < self.max_active {
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
        false
    }

    fn release_slot(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_up_to_cap_then_queues_then_sheds() {
        let governor: Governor<u32> = Governor::new(2, 1);
        assert_eq!(governor.admit(1), Admission::Serve(1));
        assert_eq!(governor.admit(2), Admission::Serve(2));
        assert_eq!(governor.active(), 2);
        assert_eq!(governor.admit(3), Admission::Queued);
        assert_eq!(governor.admit(4), Admission::Shed(4));
        assert_eq!(governor.admit(5), Admission::Shed(5));
    }

    #[test]
    fn finish_pops_the_queue_keeping_the_slot() {
        let governor: Governor<u32> = Governor::new(1, 2);
        assert_eq!(governor.admit(1), Admission::Serve(1));
        assert_eq!(governor.admit(2), Admission::Queued);
        assert_eq!(governor.admit(3), Admission::Queued);
        // Handler finishes: serves waiter 2 on the same slot.
        assert_eq!(governor.finish(true), Some(2));
        assert_eq!(governor.active(), 1, "slot is reused, not released");
        assert_eq!(governor.finish(true), Some(3));
        assert_eq!(governor.finish(true), None);
        assert_eq!(governor.active(), 0);
    }

    #[test]
    fn finish_at_shutdown_refuses_queued_waiters() {
        let governor: Governor<u32> = Governor::new(1, 2);
        assert_eq!(governor.admit(1), Admission::Serve(1));
        assert_eq!(governor.admit(2), Admission::Queued);
        assert_eq!(governor.finish(false), None, "drain mode skips the queue");
        assert_eq!(governor.active(), 0);
        assert_eq!(governor.drain_queue(), vec![2]);
        assert!(governor.drain_queue().is_empty());
    }

    #[test]
    fn zero_queue_sheds_exactly_beyond_cap() {
        // The torture suite's cap-storm contract: cap + N arrivals with
        // no queue shed exactly N.
        let governor: Governor<u32> = Governor::new(3, 0);
        let mut served = 0;
        let mut shed = 0;
        for conn in 0..8 {
            match governor.admit(conn) {
                Admission::Serve(_) => served += 1,
                Admission::Shed(_) => shed += 1,
                Admission::Queued => panic!("queue_cap 0 must never queue"),
            }
        }
        assert_eq!(served, 3);
        assert_eq!(shed, 5);
    }

    #[test]
    fn slots_free_under_concurrent_churn() {
        // Hammer admit/finish from many threads; the invariant is that
        // active never exceeds the cap and ends at zero.
        let governor: Governor<usize> = Governor::new(4, 8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let governor = &governor;
                scope.spawn(move || {
                    for i in 0..200 {
                        match governor.admit(t * 1000 + i) {
                            Admission::Serve(_) => {
                                assert!(governor.active() <= 4);
                                let mut next = governor.finish(true);
                                while next.is_some() {
                                    next = governor.finish(true);
                                }
                            }
                            Admission::Queued | Admission::Shed(_) => {}
                        }
                    }
                });
            }
        });
        // Every Serve path ran its finish() chain to None, so all slots
        // are back; only never-picked-up queue stragglers may remain.
        assert_eq!(governor.active(), 0);
        let stragglers = governor.drain_queue();
        assert!(stragglers.len() <= 8);
    }
}
