//! The line reader behind `read_edges` and `EdgeChunkReader` against the
//! `BufRead::lines` reader it replaced (`reference`): on a zoo of lines,
//! in every position and through readers buffering 1 to 16 bytes, so
//! lines straddle buffer boundaries, both must give the same edges or
//! the same `ParseError`. A counting allocator (per thread, in this
//! test binary only) checks that reading allocates nothing per line.

mod reference;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;

use kcov_stream::{read_edges, EdgeChunkReader};
use reference::read_chunked;

/// One line each, without its `'\n'`.
const ZOO: &[&[u8]] = &[
    b"1 2",
    b"0 0",
    b"+1 2",
    b"1 +2",
    b"001 0003",
    b"18446744073709551615 1",
    b"1 18446744073709551615",
    b"18446744073709551616 1",
    b"1 18446744073709551616",
    b"1\t2\t",
    b"1 2\r",
    b"1\r2",
    b"\r",
    b"1\x0b2",
    b"1 2\x0c",
    "1\u{a0}2".as_bytes(),
    "\u{3000}1 2".as_bytes(),
    b" 1 2",
    b"1#2",
    b"1 2#x",
    b"#",
    b"# 5 4",
    b"",
    b"  \t",
    b"1 2 3",
    b"1",
    b"x 2",
    b"-1 2",
    b"1 2x",
    b"1 \xff# x",
    b"1 2 # \xff",
    b"\xc3\xa9 1",
];

fn cat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

/// Every reader on `bytes` agrees with the reference.
fn check(bytes: &[u8]) {
    let want = reference::read_edges(bytes);
    let what = String::from_utf8_lossy(bytes);
    assert_eq!(read_edges(bytes), want, "in memory: {what:?}");
    for cap in 1..=16 {
        let got = read_edges(BufReader::with_capacity(cap, bytes));
        assert_eq!(got, want, "buffer {cap}: {what:?}");
        for chunk in [1, 3] {
            let got = read_chunked(BufReader::with_capacity(cap, bytes), chunk);
            assert_eq!(got, want, "buffer {cap}, chunks of {chunk}: {what:?}");
        }
    }
}

#[test]
fn zoo_lines_parse_like_the_reference_in_every_position() {
    for bytes in [&b""[..], b"\n", b"5 4", b"5 4\n", b"\xff"] {
        check(bytes);
    }
    for z in ZOO {
        check(&cat(&[b"5 4\n", z, b"\n3 2\n"]));
        check(&cat(&[z, b"\n0 1\n"]));
        check(&cat(&[b"# shape\n5 4\n3 2\n", z]));
        check(&cat(&[b"5 4\r\n", z, b"\r\n", z]));
        for y in ZOO {
            check(&cat(&[b"5 4\n", z, b"\n", y, b"\n"]));
        }
    }
}

/// `System` plus a per-thread count of allocation calls.
struct Counting;

thread_local! {
    // Const-initialised and without `Drop`: reading it never allocates,
    // so the allocator can use it re-entrantly.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` only fails during thread teardown, when nothing measures.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its value with the allocation calls this thread
/// made.
fn calls_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let value = f();
    (value, CALLS.with(Cell::get) - before)
}

#[test]
fn reading_allocates_nothing_per_line() {
    // Common lines, CRLF ends and comments (the general route), 30 000
    // lines in all.
    let mut text = b"# a stream\n1000 100\n".to_vec();
    for i in 0..10_000u32 {
        let line = format!(
            "{} {}\n{} {}\r\n# edge {i}\n",
            i % 100,
            i % 1000,
            i % 7,
            i % 9
        );
        text.extend_from_slice(line.as_bytes());
    }
    // In memory, the edge vector is the one allocation: it is sized
    // from the buffered lines, so it never regrows.
    let (parsed, calls) = calls_of(|| read_edges(&text[..]));
    assert_eq!(parsed.unwrap().2.len(), 20_000);
    assert_eq!(calls, 1);
    // Through a small buffer, lines straddle its end every few lines.
    // The reader's buffer, the chunk and the reused straddle buffer
    // (grown at most a few times) are all there is.
    let (edges, calls) = calls_of(|| {
        let mut reader =
            EdgeChunkReader::new(BufReader::with_capacity(64, &text[..]), 256).unwrap();
        let mut edges = 0;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            edges += chunk.len();
        }
        edges
    });
    assert_eq!(edges, 20_000);
    assert!(calls <= 6, "{calls} allocation calls");
}
