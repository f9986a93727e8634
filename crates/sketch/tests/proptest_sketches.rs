//! Property-based tests of sketch invariants: linearity/merge laws,
//! order-insensitivity, accuracy contracts, and — for the batched
//! ingestion engine — equivalence of `insert_batch` under *any* random
//! chunking with the sequential stream (per-item `insert`, or one-item
//! chunks where a sketch has no per-item route).
//!
//! Cases are generated by a deterministic SplitMix64-driven harness (no
//! external dependency): every run explores the same seed grid, so a
//! failure names a reproducible case index.

use kcov_hash::SplitMix64;
use kcov_sketch::wire::WireState;
use kcov_sketch::{ContributingConfig, CountSketch, F2Contributing, Kmv, L0Estimator, SpaceUsage};

const CASES: u64 = 48;

/// Random small stream: (item, multiplicity) pairs.
fn random_stream(rng: &mut SplitMix64) -> Vec<(u64, u8)> {
    let len = 1 + rng.next_below(199) as usize;
    (0..len)
        .map(|_| (rng.next_below(500), 1 + rng.next_below(4) as u8))
        .collect()
}

/// Expand a (item, multiplicity) stream into the raw item sequence.
fn expand(stream: &[(u64, u8)]) -> Vec<u64> {
    stream
        .iter()
        .flat_map(|&(item, mult)| std::iter::repeat_n(item, mult as usize))
        .collect()
}

/// Split `items` at random boundaries (chunk sizes 0..=17, so empty
/// chunks are exercised too).
fn random_chunks<'a>(items: &'a [u64], rng: &mut SplitMix64) -> Vec<&'a [u64]> {
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < items.len() {
        let take = (rng.next_below(18) as usize).min(items.len() - pos);
        chunks.push(&items[pos..pos + take]);
        pos += take;
    }
    chunks.push(&items[items.len()..]); // trailing empty chunk
    chunks
}

/// KMV is order-insensitive: any permutation yields the same state.
#[test]
fn kmv_order_insensitive() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA11CE ^ case);
        let mut stream = random_stream(&mut rng);
        let seed = rng.next_below(1000);
        let mut forward = Kmv::new(16, seed);
        for &(item, mult) in &stream {
            for _ in 0..mult {
                forward.insert(item);
            }
        }
        stream.reverse();
        let mut backward = Kmv::new(16, seed);
        for &(item, mult) in &stream {
            for _ in 0..mult {
                backward.insert(item);
            }
        }
        assert_eq!(forward.estimate(), backward.estimate(), "case {case}");
    }
}

/// KMV merge law: merge(A, B) estimates the union stream.
#[test]
fn kmv_merge_law() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB0B ^ case);
        let a = random_stream(&mut rng);
        let b = random_stream(&mut rng);
        let seed = rng.next_below(1000);
        let mut left = Kmv::new(16, seed);
        let mut right = Kmv::new(16, seed);
        let mut union = Kmv::new(16, seed);
        for &(item, _) in &a {
            left.insert(item);
            union.insert(item);
        }
        for &(item, _) in &b {
            right.insert(item);
            union.insert(item);
        }
        left.merge(&right);
        assert_eq!(left.estimate(), union.estimate(), "case {case}");
    }
}

/// CountSketch linearity: sketch(A) + sketch(B) = sketch(A ++ B),
/// exactly, for point queries.
#[test]
fn count_sketch_linearity() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC5 ^ case.wrapping_mul(0x9E37));
        let a = random_stream(&mut rng);
        let b = random_stream(&mut rng);
        let seed = rng.next_below(1000);
        let mut sa = CountSketch::new(3, 32, seed);
        let mut sb = CountSketch::new(3, 32, seed);
        let mut sab = CountSketch::new(3, 32, seed);
        for &(item, mult) in &a {
            sa.update(item, mult as i64);
            sab.update(item, mult as i64);
        }
        for &(item, mult) in &b {
            sb.update(item, mult as i64);
            sab.update(item, mult as i64);
        }
        sa.merge(&sb);
        for probe in 0..50u64 {
            assert_eq!(sa.query(probe * 11), sab.query(probe * 11), "case {case}");
        }
    }
}

/// Space accounting is monotone under insertions for KMV.
#[test]
fn kmv_space_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5face ^ case);
        let stream = random_stream(&mut rng);
        let seed = rng.next_below(1000);
        let mut kmv = Kmv::new(32, seed);
        let mut last = kmv.space_words();
        for &(item, _) in &stream {
            kmv.insert(item);
            let now = kmv.space_words();
            assert!(now >= last || now + 1 >= last, "case {case}");
            last = now;
        }
    }
}

/// Any random chunking via `insert_batch` leaves a KMV state-identical
/// to sequential `insert` (kept values, estimate, space).
#[test]
fn kmv_batch_any_chunking_equals_sequential() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x4B31 ^ 0x1000 ^ case);
        let items = expand(&random_stream(&mut rng));
        let seed = rng.next_below(1000);
        let mut serial = Kmv::new(16, seed);
        for &item in &items {
            serial.insert(item);
        }
        let mut batched = Kmv::new(16, seed);
        for chunk in random_chunks(&items, &mut rng) {
            batched.insert_batch(chunk);
        }
        assert_eq!(serial.kept_values(), batched.kept_values(), "case {case}");
        assert_eq!(serial.estimate(), batched.estimate(), "case {case}");
        assert_eq!(serial.space_words(), batched.space_words(), "case {case}");
    }
}

/// Same for the median-of-repetitions L0 estimator.
#[test]
fn l0_batch_any_chunking_equals_sequential() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x10E5 ^ case.wrapping_mul(0xABCD));
        let items = expand(&random_stream(&mut rng));
        let seed = rng.next_below(1000);
        let mut serial = L0Estimator::new(16, 3, seed);
        for &item in &items {
            serial.insert(item);
        }
        let mut batched = L0Estimator::new(16, 3, seed);
        for chunk in random_chunks(&items, &mut rng) {
            batched.insert_batch(chunk);
        }
        assert_eq!(serial.estimate(), batched.estimate(), "case {case}");
        assert_eq!(serial.space_words(), batched.space_words(), "case {case}");
    }
}

/// CountSketch `insert_batch` under any chunking produces the exact
/// same counter table as sequential `insert`.
#[test]
fn count_sketch_batch_any_chunking_equals_sequential() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC5B ^ case.wrapping_mul(0x1337));
        let items = expand(&random_stream(&mut rng));
        let seed = rng.next_below(1000);
        let mut serial = CountSketch::new(5, 32, seed);
        for &item in &items {
            serial.insert(item);
        }
        let mut batched = CountSketch::new(5, 32, seed);
        for chunk in random_chunks(&items, &mut rng) {
            batched.insert_batch(chunk);
        }
        assert_eq!(serial.table(), batched.table(), "case {case}");
    }
}

/// CountSketch signed updates are linear: per-update `update` calls in
/// stream order give the same table as one netted `update` per item in
/// reverse order, and the negated stream cancels them to zero.
#[test]
fn count_sketch_signed_updates_are_linear() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0DD ^ case.wrapping_mul(0x7F4A));
        let stream = random_stream(&mut rng);
        let updates: Vec<(u64, i64)> = stream
            .iter()
            .map(|&(item, mult)| (item, mult as i64 - 2)) // mixed signs
            .collect();
        let seed = rng.next_below(1000);
        let mut serial = CountSketch::new(3, 16, seed);
        for &(item, delta) in &updates {
            serial.update(item, delta);
        }
        let mut net = std::collections::BTreeMap::new();
        for &(item, delta) in &updates {
            *net.entry(item).or_insert(0i64) += delta;
        }
        let mut netted = CountSketch::new(3, 16, seed);
        for (&item, &delta) in net.iter().rev() {
            netted.update(item, delta);
        }
        assert_eq!(serial.table(), netted.table(), "case {case}");
        for &(item, delta) in &updates {
            serial.update(item, -delta);
        }
        assert!(serial.table().iter().all(|&c| c == 0), "case {case}");
    }
}

/// The dyadic-sampling contributing-class finder, and its one-level
/// form (Theorem 2.10's heavy hitter, the unsampled level alone), report
/// identically, with identical tables, heavy-hitter lists, stream counts
/// and space, under any chunking of `insert_batch`.
#[test]
fn contributing_batch_any_chunking_equals_sequential() {
    let mut one_level = ContributingConfig::new(0.05, 1);
    one_level.phi_factor = 1.0;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF2C ^ case.wrapping_mul(0xD00D));
        let mut items = expand(&random_stream(&mut rng));
        // Plant a genuinely heavy item so the report is non-trivial.
        let heavy = rng.next_below(500);
        for _ in 0..64 {
            items.push(heavy);
        }
        let seed = rng.next_below(1000);
        for config in [ContributingConfig::new(0.2, 64), one_level.clone()] {
            let mut serial = F2Contributing::new(config.clone(), config.clone(), 500, 500, seed);
            for item in &items {
                serial.insert_batch(std::slice::from_ref(item));
            }
            let mut batched = F2Contributing::new(config.clone(), config, 500, 500, seed);
            for chunk in random_chunks(&items, &mut rng) {
                batched.insert_batch(chunk);
            }
            assert_eq!(serial.report(), batched.report(), "case {case}");
            assert!(
                serial.report().iter().any(|r| r.item == heavy),
                "case {case}"
            );
            let (s_dom, b_dom) = (serial.domain_hashes(), batched.domain_hashes());
            for level in 0..serial.num_levels() {
                assert_eq!(
                    serial.level_heavy_hitters(level, &s_dom),
                    batched.level_heavy_hitters(level, &b_dom),
                    "case {case} level {level}"
                );
            }
            // Every level's table and counters.
            let state = |fc: &F2Contributing| {
                let mut out = Vec::new();
                fc.put_state(&mut out);
                out
            };
            assert_eq!(state(&serial), state(&batched), "case {case}");
            assert_eq!(
                serial.stats().updates,
                batched.stats().updates,
                "case {case}"
            );
            assert_eq!(serial.space_words(), batched.space_words(), "case {case}");
        }
    }
}
