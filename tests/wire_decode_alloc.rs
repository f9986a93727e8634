//! Untrusted-decode bounds for the contributing-class finder, its
//! levels' threshold factors and the CountSketch's mix words, finalize bounds
//! for `SmallSet`, whose set count `m` and universe `u` come off the
//! wire too, and the bytes a whole replica's decode allocates.
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

use std::sync::Arc;

use kcov_core::{EstimatorConfig, LargeSet, MaxCoverEstimator, Params, SmallSet};
use kcov_hash::KWise;
use kcov_sketch::wire::{put_kwise, put_u64};
use kcov_sketch::{ContributingConfig, CountSketch, F2Contributing, WireEncode};
use kcov_stream::gen::{many_small, planted_cover};
use kcov_stream::{edge_stream, ArrivalOrder};

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

/// A finder for one search: the same config on both tiers.
fn finder(c: ContributingConfig, m: usize, n: usize, seed: u64) -> F2Contributing {
    F2Contributing::new(c.clone(), c, m, n, seed)
}

/// A benign one-level, one-row finder (φ = 0.5, width factor 4)
/// encoded, then its level's threshold factor overwritten with `value`.
fn crafted(value: f64) -> Vec<u8> {
    let mut c = ContributingConfig::new(0.5, 1);
    c.phi_factor = 1.0;
    c.hh_rows = 1;
    c.hh_width_factor = 4.0;
    let fc = finder(c, 100, 100, 7);
    let factor = fc.level_parts()[0].2.to_bits().to_le_bytes();
    let mut bytes = fc.to_bytes();
    let at = bytes
        .windows(8)
        .position(|w| w == factor)
        .expect("the level's factor word");
    bytes[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
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
    let fc = finder(ContributingConfig::new(0.5, 16), 100, 100, 7);
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
    for value in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        1.5,
    ] {
        let e = F2Contributing::from_bytes(&crafted(value))
            .expect_err("invalid factor must be rejected");
        assert!(e.message.contains("not in (0, 1]"), "value {value}: {e}");
    }
    // The untouched encoding still decodes, and so does the largest
    // factor (φ = 1 at no slack).
    assert!(F2Contributing::from_bytes(&crafted(0.0625)).is_ok());
    assert!(F2Contributing::from_bytes(&crafted(1.0)).is_ok());
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
    let fc = finder(ContributingConfig::new(0.1, 512), 500, 500, 3);
    let encode = |last: &CountSketch| {
        let levels = fc.level_parts();
        let mut out = Vec::new();
        put_u64(&mut out, 0x4643);
        put_u64(&mut out, fc.domain());
        put_kwise(&mut out, fc.sampling_hash());
        put_u64(&mut out, levels.len() as u64);
        for (i, &(modulus, keep, factor, sketch)) in levels.iter().enumerate() {
            put_u64(&mut out, modulus);
            put_u64(&mut out, keep);
            put_u64(&mut out, factor.to_bits());
            let sketch = if i + 1 == levels.len() { last } else { sketch };
            sketch.encode(&mut out);
        }
        out
    };
    let last = fc.level_parts().last().unwrap().3.clone();
    assert_eq!(encode(&last), fc.to_bytes());
    let foreign = CountSketch::new(last.rows(), last.width(), 99);
    let e = F2Contributing::from_bytes(&encode(&foreign)).unwrap_err();
    assert!(e.message.contains("different CountSketch mixes"), "{e}");
}

/// A fed `SmallSet`, its encoding and its answer.
fn fed_small_set() -> (Vec<u8>, Option<(f64, kcov_core::Witness)>) {
    let system = many_small(1000, 200, 25, 0.5, 7);
    let params = Params::practical(200, 1000, 25, 4.0);
    let base = Arc::new(KWise::new(8, 5));
    let mut ss = SmallSet::with_base(1000, &params, 9, base.clone());
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(3));
    let fps: Vec<u64> = edges.iter().map(|e| base.hash(u64::from(e.set))).collect();
    ss.observe_fp_batch(&edges, &fps);
    let want = ss.finalize();
    assert!(want.is_some(), "the instance must fire");
    (ss.to_bytes(), want)
}

/// A decoded `SmallSet` claims `m = 2^40` sets but stores a few hundred
/// edges: finalize must size its work by the stored edges, not by `m`,
/// and answer exactly as at the true `m`.
#[test]
fn small_set_finalize_does_not_allocate_by_set_count() {
    let (mut bytes, want) = fed_small_set();
    // Tag, u, then m.
    bytes[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let huge = SmallSet::from_bytes(&bytes).expect("every stored set id is below m");
    let (got, allocated) = allocated_by(|| huge.finalize());
    assert_eq!(got, want);
    assert!(allocated < 1 << 20, "allocated {allocated} bytes");
}

/// The same with the universe: `u = 2^36` off the wire must not size
/// the dedup bit set or greedy's cover marks (64 GiB of marks), which
/// range over the largest stored element instead.
#[test]
fn small_set_finalize_does_not_allocate_by_universe() {
    let (mut bytes, want) = fed_small_set();
    // Tag, then u.
    bytes[8..16].copy_from_slice(&(1u64 << 36).to_le_bytes());
    let huge = SmallSet::from_bytes(&bytes).expect("every stored element is below u");
    let (got, allocated) = allocated_by(|| huge.finalize());
    assert_eq!(got, want);
    assert!(allocated < 1 << 20, "allocated {allocated} bytes");
}

/// Decoding a fed replica allocates about its payload once: every wire
/// vector is one exactly sized allocation, so the decoded words cost
/// their 8 bytes each, and the rest (handles, hash coefficients copied
/// into field elements, map indexes) stays within a sixteenth on top.
/// A decode that grows each vector by doubling allocates up to twice the
/// payload.
#[test]
fn replica_decode_allocates_its_payload_once() {
    let inst = planted_cover(5_000, 1_000, 16, 0.8, 40, 3);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
    let mut est = MaxCoverEstimator::new(5_000, 1_000, 16, 2.0, &EstimatorConfig::practical(11));
    for batch in edges.chunks(1024) {
        est.observe_batch(batch);
    }
    let small_set_words: u64 = est
        .space_ledger_tree()
        .rows()
        .iter()
        .filter(|r| r.children == 0 && r.path.ends_with("small_set/edges"))
        .map(|r| r.total.words)
        .sum();
    let bytes = est.to_bytes();
    assert!(
        8 * small_set_words > bytes.len() as u64 / 4,
        "SmallSet must hold a large share of the payload: {small_set_words} edges in {} bytes",
        bytes.len()
    );
    let (decoded, allocated) = allocated_by(|| MaxCoverEstimator::from_bytes(&bytes));
    assert!(decoded.expect("a fed replica decodes").to_bytes() == bytes);
    let payload = bytes.len() as u64;
    eprintln!(
        "RATIO {allocated} / {payload} = {:.4}",
        allocated as f64 / payload as f64
    );
    assert!(
        allocated <= payload + payload / 16,
        "decoding a {payload}-byte replica allocated {allocated} bytes"
    );
}
