//! Untrusted-decode bounds for the contributing-class finder, the
//! heavy-hitter sketch and the CountSketch's mix words.
//!
//! An `F2Contributing` section carries its coordinate domain on the
//! wire, and `report` enumerates that domain at finalize, so the domain
//! sets finalize time and memory. A crafted domain must be rejected at
//! decode, by a typed error, without the decode sizing anything from it.
//! A counting global allocator (per thread, so tests running in parallel
//! do not see each other) measures the bytes the decode allocates. It
//! lives in its own test binary because a `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kcov_core::{LargeSet, Params};
use kcov_hash::KWise;
use kcov_sketch::wire::{put_kwise, put_u64};
use kcov_sketch::{
    ContributingConfig, CountSketch, F2Contributing, F2HeavyHitter, HeavyHitterConfig, WireEncode,
};

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
const REPORT_SLACK_AT: usize = 32;

/// A benign one-row sketch (φ = 0.5, width factor 4) encoded, then one
/// factor overwritten with `value`.
fn crafted(field_at: usize, value: f64) -> Vec<u8> {
    let config = HeavyHitterConfig {
        phi: 0.5,
        rows: 1,
        width_factor: 4.0,
        report_slack: 0.125,
    };
    let mut bytes = F2HeavyHitter::new(config, 7).to_bytes();
    bytes[field_at..field_at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
    bytes
}

/// The byte offset of the first `F2Contributing` domain word equal to
/// `domain` in `bytes`: the word after an `"FC"` section tag.
fn domain_at(bytes: &[u8], domain: u64) -> usize {
    let mut pattern = 0x4643u64.to_le_bytes().to_vec();
    pattern.extend(domain.to_le_bytes());
    bytes
        .windows(16)
        .position(|w| w == pattern.as_slice())
        .expect("an F2Contributing section")
        + 8
}

#[test]
fn huge_domain_is_rejected_without_presizing() {
    let fc = F2Contributing::new(ContributingConfig::new(0.5, 16), 100, 100, 7);
    let mut bytes = fc.to_bytes();
    let at = domain_at(&bytes, 100);
    assert_eq!(at, 8, "the domain word follows the tag");
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    for _ in 0..5 {
        let (decoded, allocated) = allocated_by(|| F2Contributing::from_bytes(&bytes));
        let e = decoded.expect_err("a domain above the cap must be rejected");
        assert!(e.message.contains("exceeds the cap"), "{e}");
        assert!(
            allocated < 1 << 20,
            "decoding a {}-byte section allocated {allocated} bytes",
            bytes.len()
        );
    }
}

#[test]
fn large_set_finder_domain_must_match_its_superset_count() {
    let params = Params::practical(200, 2_000, 8, 4.0);
    let ls = LargeSet::new(2_000, &params, 3);
    let bytes = ls.to_bytes();
    assert!(LargeSet::from_bytes(&bytes).is_ok());
    let supersets = params.num_supersets(params.large_set_w()) as u64;
    let at = domain_at(&bytes, supersets);
    for domain in [supersets - 1, supersets + 1, u64::MAX] {
        let mut crafted = bytes.clone();
        crafted[at..at + 8].copy_from_slice(&domain.to_le_bytes());
        let (decoded, allocated) = allocated_by(|| LargeSet::from_bytes(&crafted));
        let e = decoded.expect_err("a mismatched finder domain must be rejected");
        assert!(
            e.message.contains("disagrees") || e.message.contains("exceeds the cap"),
            "domain {domain}: {e}"
        );
        assert!(
            allocated < 1 << 20,
            "domain {domain}: allocated {allocated} bytes"
        );
    }
}

#[test]
fn non_finite_or_non_positive_factors_are_wire_errors() {
    for field_at in [WIDTH_FACTOR_AT, REPORT_SLACK_AT] {
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

/// A CountSketch encoding with the given shape, mix words and an empty
/// table of `rows × width` counters (the wire layout: tag, rows, width,
/// word count, words, table length, table).
fn count_sketch_bytes(rows: u64, width: u64, mix: &[KWise], table: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [0x4353, rows, width, mix.len() as u64] {
        put_u64(&mut out, v);
    }
    for g in mix {
        put_kwise(&mut out, g);
    }
    put_u64(&mut out, table);
    out.resize(out.len() + 8 * table as usize, 0);
    out
}

#[test]
fn count_sketch_mix_words_and_width_are_pinned_at_decode() {
    let mix = CountSketch::draw_mix(4, 9);
    let ok = count_sketch_bytes(4, 8, &mix, 32);
    assert_eq!(CountSketch::from_bytes(&ok).unwrap().mix(), mix.as_slice());
    // A mix word of the wrong degree: constant, or one that would make
    // every update pay 100 000 multiplies.
    for degree in [1usize, 2, 100_000] {
        let bad = [mix[0].clone(), KWise::new(degree, 3)];
        let e = CountSketch::from_bytes(&count_sketch_bytes(4, 8, &bad, 32)).unwrap_err();
        assert!(
            e.message.contains(&format!("degree {degree}")),
            "degree {degree}: {e}"
        );
    }
    // A word count other than ⌈rows/2⌉.
    for words in [0usize, 1, 3] {
        let mix = CountSketch::draw_mix(2 * words.max(1), 5)[..words].to_vec();
        let e = CountSketch::from_bytes(&count_sketch_bytes(4, 8, &mix, 32)).unwrap_err();
        assert!(
            e.message.contains(&format!("{words} mix words for 4")),
            "{words} words: {e}"
        );
    }
    // A width above the 2^22 cap, rejected before the table is sized.
    let wide = count_sketch_bytes(1, (1 << 22) + 1, &mix[..1], 0);
    let (decoded, allocated) = allocated_by(|| CountSketch::from_bytes(&wide));
    let e = decoded.expect_err("a width above the cap must be rejected");
    assert!(e.message.contains("exceeds the cap"), "{e}");
    assert!(allocated < 1 << 20, "allocated {allocated} bytes");
}

#[test]
fn finder_levels_must_share_one_mix() {
    let fc = F2Contributing::new(ContributingConfig::new(0.1, 512), 500, 500, 3);
    let encode = |last: &F2HeavyHitter| {
        let levels = fc.level_parts();
        let mut out = Vec::new();
        put_u64(&mut out, 0x4643);
        put_u64(&mut out, fc.domain());
        put_kwise(&mut out, fc.sampling_hash());
        put_u64(&mut out, levels.len() as u64);
        for (i, &(modulus, keep, hh)) in levels.iter().enumerate() {
            put_u64(&mut out, modulus);
            put_u64(&mut out, keep);
            let hh = if i + 1 == levels.len() { last } else { hh };
            hh.encode(&mut out);
        }
        out
    };
    let last = fc.level_parts().last().unwrap().2.clone();
    assert_eq!(encode(&last), fc.to_bytes());
    let foreign = F2HeavyHitter::new(last.config().clone(), 99);
    let e = F2Contributing::from_bytes(&encode(&foreign)).unwrap_err();
    assert!(e.message.contains("different CountSketch mixes"), "{e}");
}
