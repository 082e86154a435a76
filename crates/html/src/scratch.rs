//! Per-thread scratch buffers for the streaming extraction path.
//!
//! The tokenizer ([`crate::tokenizer::tokenize_into`]), the streaming
//! walk ([`crate::stream::stream_extract`]) and the crawler's extract
//! sink keep their working buffers in thread-local slots between pages,
//! so a warm thread extracts a page allocating only the buffers it
//! returns. The callers (build pool workers, the serve connection threads
//! and batch pool) keep their one-argument entry points. Two rules bound
//! the scratch:
//!
//! * A call *takes* its thread's slot and puts it back when it returns.
//!   A nested call on the same thread finds the slot empty and works in
//!   fresh buffers; a call that unwinds drops what it took, so a panic
//!   never leaves half-used state behind for the next page.
//! * Before a buffer goes back, [`ScratchBuffer::clear_capped`] empties
//!   it and drops its allocation if it exceeds [`CAP_BYTES`], and
//!   [`cap_pool`] trims a pool of spare buffers until the pool *as a
//!   whole* (its array plus the buffers it keeps) holds at most
//!   [`CAP_BYTES`]. So one huge page, or many buffers each under the cap,
//!   cannot pin their high-water capacity for the thread's lifetime: each
//!   scratch field keeps at most [`CAP_BYTES`].

/// Largest allocation, in bytes, that a scratch buffer or pool keeps
/// between pages.
pub const CAP_BYTES: usize = 64 * 1024;

/// A buffer that per-thread scratch keeps between pages.
pub trait ScratchBuffer {
    /// Heap bytes the buffer holds (its capacity, not its length).
    fn allocated(&self) -> usize;

    /// Empty the buffer for the next page, dropping its allocation if it
    /// exceeds [`CAP_BYTES`].
    fn clear_capped(&mut self);
}

impl ScratchBuffer for String {
    fn allocated(&self) -> usize {
        self.capacity()
    }

    fn clear_capped(&mut self) {
        if self.allocated() > CAP_BYTES {
            *self = String::new();
        } else {
            self.clear();
        }
    }
}

impl<T> ScratchBuffer for Vec<T> {
    fn allocated(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }

    fn clear_capped(&mut self) {
        if self.allocated() > CAP_BYTES {
            *self = Vec::new();
        } else {
            self.clear();
        }
    }
}

/// Heap bytes of a pool of spare buffers: its own array plus every
/// buffer in it.
pub fn pool_allocated<T: ScratchBuffer>(pool: &Vec<T>) -> usize {
    pool.allocated() + pool.iter().map(T::allocated).sum::<usize>()
}

/// Keep a pool of spare buffers for the next page within [`CAP_BYTES`]
/// in total ([`pool_allocated`]). The buffers nearest the top (the end,
/// which pools pop first) are kept while the total fits; the rest are
/// dropped, and so is the array itself if it alone exceeds the cap.
/// Unlike [`ScratchBuffer::clear_capped`], the kept buffers are not
/// emptied; their owners refill them.
pub fn cap_pool<T: ScratchBuffer>(pool: &mut Vec<T>) {
    if pool.allocated() > CAP_BYTES {
        *pool = Vec::new();
        return;
    }
    let mut total = pool.allocated();
    let kept = pool
        .iter()
        .rev()
        .take_while(|buf| {
            total += buf.allocated();
            total <= CAP_BYTES
        })
        .count();
    pool.drain(..pool.len() - kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_capped_keeps_small_buffers_and_drops_large_ones() {
        let mut small = String::with_capacity(100);
        small.push_str("text");
        small.clear_capped();
        assert!(small.is_empty());
        assert_eq!(small.capacity(), 100);

        let mut large = String::with_capacity(CAP_BYTES + 1);
        large.clear_capped();
        assert_eq!(large.capacity(), 0);

        // Vecs are capped by bytes, not by element count.
        let mut wide: Vec<u64> = Vec::with_capacity(CAP_BYTES / 8 + 1);
        wide.push(1);
        wide.clear_capped();
        assert_eq!(wide.capacity(), 0);
        let mut narrow: Vec<u64> = Vec::with_capacity(CAP_BYTES / 8);
        narrow.push(1);
        narrow.clear_capped();
        assert!(narrow.is_empty());
        assert_eq!(narrow.allocated(), CAP_BYTES);
    }

    #[test]
    fn cap_pool_keeps_the_top_of_the_pool_within_the_cap() {
        let mut pool = vec![
            String::with_capacity(10),
            String::with_capacity(CAP_BYTES / 2),
            String::with_capacity(20),
        ];
        cap_pool(&mut pool);
        let kept: Vec<usize> = pool.iter().map(String::capacity).collect();
        assert_eq!(kept, [10, CAP_BYTES / 2, 20]);

        // Many buffers, each under the cap, are trimmed from the bottom
        // until the pool's total fits.
        let mut many: Vec<String> = (0..100).map(|_| String::with_capacity(1024)).collect();
        many[99].push_str("top");
        cap_pool(&mut many);
        assert!(pool_allocated(&many) <= CAP_BYTES);
        assert!(many.len() >= 60, "kept {}", many.len());
        assert_eq!(many.last().map(String::as_str), Some("top"));

        // One buffer over the cap takes the whole budget.
        let mut large = vec![String::with_capacity(CAP_BYTES + 1)];
        cap_pool(&mut large);
        assert!(large.is_empty());

        // An array over the cap is dropped even when its buffers are empty.
        let mut wide: Vec<String> = Vec::with_capacity(CAP_BYTES / 24 + 1);
        wide.push(String::new());
        cap_pool(&mut wide);
        assert_eq!(wide.capacity(), 0);
    }
}
