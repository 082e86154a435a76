//! A counting global allocator for the traced run.
//!
//! Only the `perfbench-traced` binary installs [`CountingAlloc`]; the
//! timed binary runs on the system allocator untouched. Counts are kept
//! per thread, so a single-threaded replay reads its own calls exactly,
//! however many other threads allocate meanwhile (pool workers, the
//! libtest harness).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: const-initialised cells without destructors are always
    // accessible, but an allocation during thread teardown must not panic.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` and count the allocator calls that obtained memory (alloc,
/// alloc_zeroed, realloc) it made on this thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Whether [`CountingAlloc`] is this process's global allocator.
pub fn installed() -> bool {
    counted(|| std::hint::black_box(Box::new(0u64))).1 > 0
}
