//! Scalar-vs-batched equivalence for the `KWise` polynomial hash: the
//! blocked flat evaluator behind the estimator's hash-once fingerprint
//! pipeline must be *bit-identical* to the per-key path on every input —
//! full blocks, uneven tails, empty input, and adversarial keys at the
//! field boundaries. A single diverging value would silently break the
//! bit-for-bit determinism contract of the batched ingestion engine, so
//! this suite is the proof obligation the hot-path refactor rests on.
//! The scalar path and the u128 blocked tier share one lazily reduced
//! Horner step, so every tier is also checked against a naive
//! `Σ cᵢ·xⁱ mod p` reference that a bug shared by two paths could not
//! pass. Each kernel tier the host supports runs explicitly, not only
//! the one dispatch picks: the u128 blocked loop, and the split-32
//! kernel built for AVX2 and for AVX-512F.

use kcov_hash::{four_wise, log_wise, pairwise, BatchTier, KWise, MERSENNE_P};

/// The kernel tiers this host can run (the u128 blocked tier always).
fn tiers() -> Vec<BatchTier> {
    BatchTier::ALL
        .into_iter()
        .filter(|t| t.is_supported())
        .collect()
}

/// Key sets exercising every code path of the blocked evaluators: empty,
/// sub-block, exactly one block, block + tail (for the 8- and the
/// 16-key blocks), many blocks + tail, and
/// boundary values (0, p−1, p, p+1, 2^61, u64::MAX) that stress the
/// Mersenne reduction.
fn key_sets() -> Vec<Vec<u64>> {
    let boundary = vec![
        0u64,
        1,
        MERSENNE_P - 1,
        MERSENNE_P,
        MERSENNE_P + 1,
        1u64 << 61,
        (1u64 << 62) - 1,
        u64::MAX,
    ];
    let mut dense: Vec<u64> = (0..1021u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    dense.extend_from_slice(&boundary);
    vec![
        Vec::new(),
        vec![42],
        (0..7).collect(),
        (0..8).collect(),
        (0..9).collect(),
        (0..15).collect(),
        (0..16).collect(),
        (0..17).collect(),
        (0..33).collect(),
        (0..255).collect(),
        boundary,
        dense,
    ]
}

fn assert_equivalent(label: &str, h: &KWise) {
    for tier in tiers() {
        let mut out = vec![0xdead_beefu64; 3]; // stale contents must be cleared
        for keys in key_sets() {
            h.hash_batch_tier(tier, &keys, &mut out);
            assert_eq!(
                out.len(),
                keys.len(),
                "{label} {tier:?}: length for {} keys",
                keys.len()
            );
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(
                    out[i],
                    h.hash(k),
                    "{label} {tier:?}: lane {i} of {} diverged for key {k:#x}",
                    keys.len()
                );
            }
        }
    }
}

#[test]
fn kwise_all_degrees_match_scalar() {
    // The small degrees on every sketch's hot path (d ≤ 4) and the
    // log-wise degrees the estimator actually uses (8..48).
    for degree in [1usize, 2, 3, 4, 5, 7, 8, 16, 28, 34, 48] {
        for seed in [1u64, 0x5eed, u64::MAX] {
            let h = KWise::new(degree, seed);
            assert_equivalent(&format!("KWise(d={degree}, seed={seed})"), &h);
        }
    }
}

#[test]
fn kwise_constructors_match_scalar() {
    assert_equivalent("pairwise", &pairwise(7));
    assert_equivalent("four_wise", &four_wise(11));
    assert_equivalent("log_wise(small)", &log_wise(16, 16, 13));
    assert_equivalent("log_wise(large)", &log_wise(1 << 20, 1 << 20, 17));
    assert_equivalent("KWise(d=9)", &KWise::new(9, 23));
}

#[test]
fn batch_reuses_and_clears_output_buffer() {
    let h = KWise::new(5, 3);
    let mut out = Vec::new();
    h.hash_batch(&(0..100).collect::<Vec<_>>(), &mut out);
    assert_eq!(out.len(), 100);
    // A second call with a shorter input must not leave stale values.
    h.hash_batch(&[9, 8, 7], &mut out);
    assert_eq!(out.len(), 3);
    assert_eq!(out, vec![h.hash(9), h.hash(8), h.hash(7)]);
    h.hash_batch(&[], &mut out);
    assert!(out.is_empty());
}

/// Naive reference evaluation of `Σ cᵢ·xⁱ mod p` with u128 `%`, powers
/// ascending — no Horner, no lazy reduction.
fn reference_poly(coeffs: &[u64], key: u64) -> u64 {
    let p = MERSENNE_P as u128;
    let x = key as u128 % p;
    let mut power = 1u128;
    let mut sum = 0u128;
    for &c in coeffs {
        sum = (sum + (c as u128 % p) * power) % p;
        power = power * x % p;
    }
    sum as u64
}

#[test]
fn kwise_matches_naive_reference() {
    let mut out = Vec::new();
    for degree in 1usize..=48 {
        let mut vectors: Vec<Vec<u64>> = vec![
            // Every accumulator step at its largest residues.
            vec![MERSENNE_P - 1; degree],
            // A leading p − 1 over zeros: x^(d−1)·(p − 1) alone.
            (0..degree)
                .map(|i| if i + 1 == degree { MERSENNE_P - 1 } else { 0 })
                .collect(),
            // 0/1 patterns, both phases.
            (0..degree).map(|i| (i % 2) as u64).collect(),
            (0..degree).map(|i| ((i + 1) % 2) as u64).collect(),
            // Non-canonical inputs that `from_coefficients` reduces.
            vec![u64::MAX; degree],
        ];
        vectors.push(KWise::new(degree, 0x5eed ^ degree as u64).coefficients());
        for coeffs in &vectors {
            let h = KWise::from_coefficients(coeffs);
            for keys in key_sets() {
                let expect: Vec<u64> = keys.iter().map(|&k| reference_poly(coeffs, k)).collect();
                for (&k, &e) in keys.iter().zip(&expect) {
                    assert_eq!(
                        h.hash(k),
                        e,
                        "scalar, d={degree}, key {k:#x}, coeffs {coeffs:?}"
                    );
                }
                for tier in tiers() {
                    h.hash_batch_tier(tier, &keys, &mut out);
                    for ((&k, &batched), &e) in keys.iter().zip(&out).zip(&expect) {
                        assert_eq!(
                            batched, e,
                            "{tier:?}, d={degree}, key {k:#x}, coeffs {coeffs:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dispatch_picks_a_supported_tier() {
    let best = BatchTier::best();
    assert!(best.is_supported());
    // Dispatch prefers the widest vector tier the host has.
    let widest = tiers()
        .into_iter()
        .last()
        .expect("the blocked tier always runs");
    assert_eq!(best, widest);
    let h = KWise::new(4, 9);
    let keys: Vec<u64> = (0..100).collect();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    h.hash_batch(&keys, &mut a);
    h.hash_batch_tier(best, &keys, &mut b);
    assert_eq!(a, b);
}
