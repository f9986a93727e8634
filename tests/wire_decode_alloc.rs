//! Untrusted-decode bounds. A replica's SHAPE section is the
//! estimator's config, and the decoder builds the empty estimator from
//! it, so a crafted config could make the constructor allocate (huge
//! CountSketch tables, ~10⁶ lanes) what the replica's STATE bytes never
//! back. Each such config must be rejected at decode, by a typed error,
//! before anything is sized from it. The same holds for the finalize of
//! a `SmallSet` whose set count `m` and universe `u` are as large as a
//! replica can claim, and for the bytes a whole replica's decode
//! allocates. A counting global allocator (per thread, so tests running
//! in parallel do not see each other) measures the bytes; it lives in
//! its own test binary because a `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use kcov_core::{EstimatorConfig, MaxCoverEstimator, Params, SmallSet};
use kcov_hash::KWise;
use kcov_sketch::{CountSketch, WireEncode, WireState};
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

/// An unfed replica of a 1 000-element, 100-set instance in the lane
/// regime (`k = 1`, `α = 1`), with two `z` guesses of one repetition.
fn small_replica() -> Vec<u8> {
    let mut config = EstimatorConfig::practical(7);
    config.z_guesses = Some(vec![16, 64]);
    config.reps = Some(1);
    MaxCoverEstimator::new(1_000, 100, 1, 1.0, &config).to_bytes()
}

/// `bytes` with its SHAPE section's words rewritten by `edit` and the
/// section re-framed. The section follows the 3-word header; its words
/// are n, m, k, α, mode, seed, reps, reporting, the `z` guess count and
/// guesses, threads, heartbeat cadence, shard id and edges seen.
fn with_shape(bytes: &[u8], edit: impl FnOnce(&mut Vec<u64>)) -> Vec<u8> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let len = word(32) as usize;
    let mut words: Vec<u64> = (0..len / 8).map(|i| word(40 + 8 * i)).collect();
    edit(&mut words);
    let mut out = bytes[..32].to_vec();
    out.extend((8 * words.len() as u64).to_le_bytes());
    words.iter().for_each(|w| out.extend(w.to_le_bytes()));
    out.extend(&bytes[40 + len..]);
    out
}

/// Decode `bytes` five times; each must fail with a typed error whose
/// message contains `want`, allocating under 1 MB.
fn rejected_without_presizing(bytes: &[u8], want: &str) {
    assert_eq!(with_shape(bytes, |_| {}), bytes, "the SHAPE framing");
    for _ in 0..5 {
        let (decoded, allocated) = allocated_by(|| MaxCoverEstimator::from_bytes(bytes));
        let e = decoded.expect_err("a crafted config must be rejected");
        assert!(e.message.contains(want), "{e}");
        assert!(
            allocated < 1 << 20,
            "decoding a {}-byte replica allocated {allocated} bytes",
            bytes.len()
        );
    }
}

/// `m = 2³² − 1` at `α = 1` gives `LargeSet` a finder domain of 2³³
/// superset ids, past the cap `report` enumerates (and CountSketch rows
/// at the 2²² width cap that the replica's state does not hold): the
/// config is rejected before the constructor runs.
#[test]
fn huge_domain_is_rejected_without_presizing() {
    let bytes = small_replica();
    assert!(MaxCoverEstimator::from_bytes(&bytes).is_ok());
    let crafted = with_shape(&bytes, |w| w[1] = u64::from(u32::MAX));
    rejected_without_presizing(&crafted, "exceeds the cap");
}

/// A million `z` guesses (8 MB of SHAPE) or 2⁴⁰ repetitions per guess
/// ask for lanes whose state the replica does not hold: rejected before
/// a lane, or the guess list itself, is allocated.
#[test]
fn crafted_lane_counts_are_rejected_without_presizing() {
    let bytes = small_replica();
    let many_zs = with_shape(&bytes, |w| {
        let tail = w.split_off(11);
        w.truncate(8);
        w.push(1_000_000);
        w.extend(std::iter::repeat_n(16, 1_000_000));
        w.extend(tail);
    });
    rejected_without_presizing(&many_zs, "state words");
    let many_reps = with_shape(&bytes, |w| w[6] = 1 << 40);
    rejected_without_presizing(&many_reps, "state words");
}

/// The approximation target comes off the wire with the config: a
/// non-finite one, or one below 1, is a typed error, not a constructor
/// assertion.
#[test]
fn non_finite_or_non_positive_factors_are_wire_errors() {
    let bytes = small_replica();
    let alpha = |value: f64| with_shape(&bytes, |w| w[3] = value.to_bits());
    for value in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        0.5,
    ] {
        let e = MaxCoverEstimator::from_bytes(&alpha(value))
            .expect_err("an invalid alpha must be rejected");
        assert!(
            e.message.contains("finite number >= 1"),
            "alpha {value}: {e}"
        );
    }
    // The untouched encoding still decodes.
    assert!(MaxCoverEstimator::from_bytes(&alpha(1.0)).is_ok());
}

/// A CountSketch's state carries neither its mix words nor its width:
/// it decodes into a sketch its constructor built, which keeps that
/// constructor's mix and width, and a state written for another width
/// does not fit.
#[test]
fn count_sketch_mix_words_and_width_are_pinned_at_decode() {
    let mut cs = CountSketch::new(4, 8, 9);
    cs.insert_batch(&(0..100).collect::<Vec<u64>>());
    let mut state = Vec::new();
    cs.put_state(&mut state);
    assert_eq!(state.len(), 8 * (4 * 8 + 2));
    let mut back = CountSketch::new(4, 8, 9);
    back.take_state(&mut state.as_slice()).unwrap();
    assert_eq!(back.mix(), cs.mix());
    assert_eq!(back.table(), cs.table());
    // A receiver of another width runs out of input (wider) or leaves
    // part of the state unread (narrower), allocating nothing.
    let mut wide = CountSketch::new(4, 16, 9);
    let (result, allocated) = allocated_by(|| wide.take_state(&mut state.as_slice()));
    assert!(result.is_err());
    assert!(allocated < 1 << 10, "allocated {allocated} bytes");
    let mut input = state.as_slice();
    CountSketch::new(4, 4, 9).take_state(&mut input).unwrap();
    assert!(!input.is_empty());
}

/// A fed `SmallSet`'s state, its shape's params and its answer.
fn fed_small_set() -> (Vec<u8>, Params) {
    let system = many_small(1000, 200, 25, 0.5, 7);
    let params = Params::practical(200, 1000, 25, 4.0);
    let base = Arc::new(KWise::new(8, 5));
    let mut ss = SmallSet::with_base(1000, &params, 9, base.clone());
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(3));
    let fps: Vec<u64> = edges.iter().map(|e| base.hash(u64::from(e.set))).collect();
    ss.observe_fp_batch(&edges, &fps);
    assert!(ss.finalize().is_some(), "the instance must fire");
    let mut state = Vec::new();
    ss.put_state(&mut state);
    (state, params)
}

/// The fed state read into a `SmallSet` built for `u` elements and
/// `params`, finalized: it must fire on the same stored sets, and
/// allocate under 1 MB.
fn finalize_at(u: usize, params: &Params) {
    let (state, _) = fed_small_set();
    let mut huge = SmallSet::with_base(u, params, 9, Arc::new(KWise::new(8, 5)));
    huge.take_state(&mut state.as_slice())
        .expect("every stored edge lies inside the larger instance");
    let (got, allocated) = allocated_by(|| huge.finalize());
    match got {
        Some((_, kcov_core::Witness::ExplicitSets(sets))) => {
            assert!(
                !sets.is_empty() && sets.iter().all(|&s| s < 200),
                "{sets:?}"
            )
        }
        other => panic!("the stored sub-instance must fire: {other:?}"),
    }
    assert!(allocated < 1 << 20, "allocated {allocated} bytes");
}

/// A `SmallSet` built for the largest set count a replica can claim,
/// `m = 2³² − 1`, but storing a few hundred edges: finalize must size
/// its work by the stored edges, not by `m`.
#[test]
fn small_set_finalize_does_not_allocate_by_set_count() {
    let (_, mut params) = fed_small_set();
    params.m = u32::MAX as usize;
    finalize_at(1000, &params);
}

/// The same with the universe: a lane's `u = z` goes up to 2³², which
/// must not size the dedup bit set or greedy's cover marks (512 MB of
/// marks); they range over the largest stored element instead.
#[test]
fn small_set_finalize_does_not_allocate_by_universe() {
    let (_, params) = fed_small_set();
    finalize_at(1 << 32, &params);
}

/// Decoding a fed replica allocates what the constructor allocates for
/// its config, then about its payload once: every wire vector is one
/// exactly sized allocation, so the decoded words cost their 8 bytes
/// each, and the rest (map indexes, sampled-superset sketches) stays
/// within a sixteenth on top. A decode that built the estimator twice,
/// or grew each vector by doubling, would exceed it.
#[test]
fn replica_decode_allocates_its_payload_once() {
    let inst = planted_cover(5_000, 1_000, 16, 0.8, 40, 3);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
    let config = EstimatorConfig::practical(11);
    let (mut est, constructed) =
        allocated_by(|| MaxCoverEstimator::new(5_000, 1_000, 16, 2.0, &config));
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
        "RATIO ({allocated} - {constructed}) / {payload} = {:.4}",
        (allocated - constructed) as f64 / payload as f64
    );
    assert!(
        allocated <= constructed + payload + payload / 16,
        "decoding a {payload}-byte replica allocated {allocated} bytes ({constructed} to construct)"
    );
}
