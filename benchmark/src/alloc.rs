//! Counting global allocator: the live heap bytes of the calling thread.
//!
//! The count is per thread, not process-wide: `cargo test` runs tests on
//! parallel threads, and a reading must see only the allocations of the
//! thread that takes it. The benchmark ingests with `threads = 1`, so an
//! estimator is allocated and freed on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` plus a per-thread live-byte counter.
pub struct Counting;

thread_local! {
    // Const-initialised and without `Drop`: reading it never allocates,
    // so the allocator can use it re-entrantly.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // `try_with` only fails during thread teardown, when nothing measures.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            add(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (i.e. `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        add(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            add(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

/// Live heap bytes allocated by this thread and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Drop `value` and return the heap bytes that freed: exactly the bytes
/// it held, including shared tables it was the last owner of.
pub fn held_bytes<T>(value: T) -> u64 {
    let before = live_bytes();
    drop(value);
    (before - live_bytes()).max(0) as u64
}
