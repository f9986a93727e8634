//! Untrusted-decode allocation bound for the heavy-hitter tracker.
//!
//! An `F2HeavyHitter` section carries its configuration factors on the
//! wire, and the tracker capacity is derived from them. A crafted
//! `capacity_factor` of 1e300 yields the largest capacity the clamp
//! allows, 2²² candidates, in a 208-byte section; the decode must not
//! size anything from it. A counting global allocator (per thread, so
//! tests running in parallel do not see each other) measures the bytes
//! the decode allocates. It lives in its own test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kcov_sketch::{F2HeavyHitter, HeavyHitterConfig, WireEncode};

/// `System` plus a per-thread count of bytes ever allocated.
struct Counting;

thread_local! {
    // Const-initialised and without `Drop`: reading it never allocates,
    // so the allocator can use it re-entrantly.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` only fails during thread teardown, when nothing measures.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its value with the bytes this thread allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let value = f();
    (value, ALLOCATED.with(Cell::get) - before)
}

/// Byte offsets of the `f64` factors in an `F2HeavyHitter` section
/// (after the tag, φ and rows words).
const WIDTH_FACTOR_AT: usize = 24;
const CAPACITY_FACTOR_AT: usize = 32;
const REPORT_SLACK_AT: usize = 40;

/// A benign one-row tracker (φ = 0.5, width factor 4, capacity factor
/// 1) encoded, then one factor overwritten with `value`.
fn crafted(field_at: usize, value: f64) -> Vec<u8> {
    let config = HeavyHitterConfig {
        phi: 0.5,
        rows: 1,
        width_factor: 4.0,
        capacity_factor: 1.0,
        report_slack: 0.125,
    };
    let mut bytes = F2HeavyHitter::new(config, 7).to_bytes();
    bytes[field_at..field_at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
    bytes
}

#[test]
fn huge_capacity_factor_decodes_without_presizing() {
    let bytes = crafted(CAPACITY_FACTOR_AT, 1e300);
    assert_eq!(bytes.len(), 208);
    for _ in 0..5 {
        let (decoded, allocated) = allocated_by(|| F2HeavyHitter::from_bytes(&bytes));
        let hh = decoded.expect("a finite positive factor is a valid configuration");
        assert_eq!(hh.stats().capacity, 1 << 22);
        assert!(
            allocated < 1 << 20,
            "decoding a {}-byte section allocated {allocated} bytes",
            bytes.len()
        );
    }
}

#[test]
fn non_finite_or_non_positive_factors_are_wire_errors() {
    for field_at in [WIDTH_FACTOR_AT, CAPACITY_FACTOR_AT, REPORT_SLACK_AT] {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            let e = F2HeavyHitter::from_bytes(&crafted(field_at, value))
                .expect_err("invalid factor must be rejected");
            assert!(
                e.message.contains("finite and > 0"),
                "field at {field_at}, value {value}: {e}"
            );
        }
        // The untouched encoding still decodes.
        assert!(F2HeavyHitter::from_bytes(&crafted(field_at, 1.0)).is_ok());
    }
}
