//! Polynomial hashing over `GF(2^61 − 1)`, plus constructors for the
//! independence degrees the paper uses.
//!
//! A degree-(d−1) polynomial with independent uniform coefficients is an
//! exactly d-wise independent hash family (the classic Carter–Wegman
//! construction). This is the workhorse family behind every sampling step
//! in the paper: Lemma A.2 notes that selecting such a function costs
//! `d·log(mn)` bits, which is exactly the coefficient vector stored here.

use crate::field::{Fp, MERSENNE_P};
use crate::reduce_to_range;
use crate::seeded::SplitMix64;

/// A d-wise independent hash function `u64 → [0, 2^61 − 1)`.
///
/// `KWise::new(d, seed)` draws `d` uniform coefficients from the seed;
/// evaluation is a Horner loop of `d − 1` field multiply-adds. Two
/// functions are equal when their coefficient vectors are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWise {
    coeffs: Vec<Fp>,
}

impl KWise {
    /// Create a d-wise independent hash function. `degree_of_independence`
    /// must be at least 1 (1-wise = constant-free uniform marginal).
    pub fn new(degree_of_independence: usize, seed: u64) -> Self {
        assert!(
            degree_of_independence >= 1,
            "independence degree must be >= 1"
        );
        let mut rng = SplitMix64::new(seed);
        let coeffs = (0..degree_of_independence)
            .map(|i| {
                let mut c = Fp::new(rng.next_below(MERSENNE_P));
                // The leading coefficient of a degree-(d-1) polynomial must
                // be free to vary over the whole field; all-zero leading
                // coefficients merely reduce the effective degree, which is
                // harmless, but we keep at least one non-constant term so a
                // degenerate constant function cannot occur for d >= 2.
                if i + 1 == degree_of_independence && degree_of_independence >= 2 && c == Fp::ZERO {
                    c = Fp::ONE;
                }
                c
            })
            .collect();
        KWise { coeffs }
    }

    /// Number of stored coefficients (the independence degree d).
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient vector (canonical field representatives), lowest
    /// degree first — the function's full description, e.g. for wire
    /// serialization.
    pub fn coefficients(&self) -> Vec<u64> {
        self.coeffs.iter().map(|c| c.value()).collect()
    }

    /// Rebuild a function from its coefficient vector (the inverse of
    /// [`KWise::coefficients`]). Values are reduced mod p.
    pub fn from_coefficients(coeffs: &[u64]) -> Self {
        assert!(!coeffs.is_empty(), "need at least one coefficient");
        KWise {
            coeffs: coeffs.iter().map(|&c| Fp::new(c)).collect(),
        }
    }

    /// Space in 64-bit words used by this function (Lemma A.2 accounting).
    pub fn space_words(&self) -> usize {
        self.coeffs.len()
    }

    /// Raw hash value in `[0, MERSENNE_P)`.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        hash_scalar(&self.coeffs, key)
    }

    /// Hash into `[0, r)` via [`reduce_to_range`]. Panics if `r == 0`.
    #[inline]
    pub fn hash_to_range(&self, key: u64, r: u64) -> u64 {
        reduce_to_range(self.hash(key), r)
    }

    /// Bernoulli selection with probability `1/r`: true iff the key lands
    /// in bucket 0 of an `r`-bucket split. This is the paper's
    /// "`h(S) = 1`" sampling idiom (Figures 3, 4, 6 and Appendix A.1).
    #[inline]
    pub fn selects(&self, key: u64, r: u64) -> bool {
        self.hash_to_range(key, r) == 0
    }

    /// Evaluate [`KWise::hash`] over a flat block of keys into `out`
    /// (cleared first). The contract is *scalar equivalence*: for every
    /// input, `out[i] == self.hash(keys[i])` bit-for-bit — the blocked
    /// layout only restructures the evaluation, never changes the
    /// function. This is the batched hot-path entry the estimator's
    /// hash-once fingerprint pipeline is built on.
    ///
    /// Coefficient-outer Horner evaluation over a block of keys, so each
    /// field constant is loaded once per block and the keys run
    /// independent multiply-add chains. x86-64 has no 64×64→128-bit
    /// vector multiply, but it has a 32×32→64 one: on hosts with AVX2 or
    /// AVX-512F the kernel evaluates 16 keys per block with the split-32
    /// step (four 32-bit products per key and coefficient), which the
    /// compiler vectorizes under the detected feature. Other hosts run
    /// 8-key blocks of the u128 step, which buy instruction-level
    /// parallelism only. The tier is picked per call at run time
    /// ([`BatchTier::best`]). Every tier is scalar-equivalent by
    /// construction: each lane starts from the leading coefficient and
    /// keeps an accumulator congruent to [`KWise::hash`]'s after every
    /// step, and one canonical reduction at the end yields the identical
    /// field element for every degree.
    pub fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        self.hash_batch_tier(BatchTier::best(), keys, out);
    }

    /// [`KWise::hash_batch`] on an explicit kernel tier, so tests can
    /// check every tier the host supports, not only the one dispatch
    /// picks. Panics if the host does not support `tier`.
    #[doc(hidden)]
    pub fn hash_batch_tier(&self, tier: BatchTier, keys: &[u64], out: &mut Vec<u64>) {
        assert!(
            tier.is_supported(),
            "{tier:?} kernel is not supported on this host"
        );
        out.clear();
        out.resize(keys.len(), 0);
        match tier {
            BatchTier::Blocked => hash_blocked(&self.coeffs, keys, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_supported` just confirmed the host has AVX-512F,
            // the only feature the kernel is compiled for.
            BatchTier::Avx512 => unsafe { hash_split32_avx512(&self.coeffs, keys, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_supported` just confirmed the host has AVX2.
            BatchTier::Avx2 => unsafe { hash_split32_avx2(&self.coeffs, keys, out) },
            #[cfg(not(target_arch = "x86_64"))]
            BatchTier::Avx512 | BatchTier::Avx2 => {
                unreachable!("x86-64 tiers are never supported here")
            }
        }
    }
}

/// The kernel tiers behind [`KWise::hash_batch`]. Dispatch picks
/// [`BatchTier::best`] at run time; the tier is doc-hidden, exposed only
/// so tests can run each one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchTier {
    /// 8-key blocks of the u128 Horner step (every host).
    Blocked,
    /// 16-key blocks of the split-32 step, compiled for AVX2.
    Avx2,
    /// 16-key blocks of the split-32 step, compiled for AVX-512F.
    Avx512,
}

impl BatchTier {
    /// Every tier, supported on this host or not.
    pub const ALL: [BatchTier; 3] = [BatchTier::Blocked, BatchTier::Avx2, BatchTier::Avx512];

    /// Whether this host can run the tier.
    #[inline]
    pub fn is_supported(self) -> bool {
        match self {
            BatchTier::Blocked => true,
            #[cfg(target_arch = "x86_64")]
            BatchTier::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            BatchTier::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            BatchTier::Avx2 | BatchTier::Avx512 => false,
        }
    }

    /// The fastest tier this host supports.
    #[inline]
    pub fn best() -> BatchTier {
        if BatchTier::Avx512.is_supported() {
            BatchTier::Avx512
        } else if BatchTier::Avx2.is_supported() {
            BatchTier::Avx2
        } else {
            BatchTier::Blocked
        }
    }
}

/// The portable tier: 8 keys per block, u128 [`horner_step`]s, and the
/// tail through the scalar loop.
fn hash_blocked(coeffs: &[Fp], keys: &[u64], out: &mut [u64]) {
    const LANES: usize = 8;
    let (&lead, rest) = coeffs.split_last().expect("at least one coefficient");
    let mut blocks = keys.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        let mut xs = [0u64; LANES];
        for (x, &k) in xs.iter_mut().zip(block) {
            *x = Fp::new(k).value();
        }
        let mut acc = [lead.value(); LANES];
        for c in rest.iter().rev() {
            let c = c.value();
            for lane in 0..LANES {
                acc[lane] = horner_step(acc[lane], xs[lane], c);
            }
        }
        for (o, &a) in o.iter_mut().zip(&acc) {
            *o = canonical(a);
        }
    }
    for (o, &k) in outs.into_remainder().iter_mut().zip(blocks.remainder()) {
        *o = hash_scalar(coeffs, k);
    }
}

/// [`KWise::hash`]'s body: `a = ((c_{d-1} x + c_{d-2}) x + ...) x + c_0`
/// by [`horner_step`]s, then [`canonical`].
#[inline(always)]
fn hash_scalar(coeffs: &[Fp], key: u64) -> u64 {
    let x = Fp::new(key).value();
    let (&lead, rest) = coeffs.split_last().expect("at least one coefficient");
    let mut a = lead.value();
    for c in rest.iter().rev() {
        a = horner_step(a, x, c.value());
    }
    canonical(a)
}

/// The AVX-512F build of [`hash_split32`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn hash_split32_avx512(coeffs: &[Fp], keys: &[u64], out: &mut [u64]) {
    hash_split32(coeffs, keys, out);
}

/// The AVX2 build of [`hash_split32`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn hash_split32_avx2(coeffs: &[Fp], keys: &[u64], out: &mut [u64]) {
    hash_split32(coeffs, keys, out);
}

/// The vector tiers' one body: 16 keys per block, each key split once
/// into 32-bit halves, then coefficient-outer [`split32_step`]s, and the
/// tail through the scalar loop. Inlined into each `#[target_feature]`
/// wrapper, which is what lets the compiler turn the lane loops into
/// vector code.
#[inline(always)]
fn hash_split32(coeffs: &[Fp], keys: &[u64], out: &mut [u64]) {
    let mut blocks = keys.chunks_exact(SPLIT32_LANES);
    let mut outs = out.chunks_exact_mut(SPLIT32_LANES);
    for (k, o) in (&mut blocks).zip(&mut outs) {
        split32_block(coeffs, k.try_into().unwrap(), o.try_into().unwrap());
    }
    for (o, &k) in outs.into_remainder().iter_mut().zip(blocks.remainder()) {
        *o = hash_scalar(coeffs, k);
    }
}

const SPLIT32_LANES: usize = 16;

/// One block of [`hash_split32`].
#[inline(always)]
fn split32_block(coeffs: &[Fp], keys: &[u64; SPLIT32_LANES], out: &mut [u64; SPLIT32_LANES]) {
    let (&lead, rest) = coeffs.split_last().expect("at least one coefficient");
    let (mut lo, mut hi) = ([0u64; SPLIT32_LANES], [0u64; SPLIT32_LANES]);
    for lane in 0..SPLIT32_LANES {
        let x = Fp::new(keys[lane]).value();
        lo[lane] = x & LOW32;
        hi[lane] = x >> 32;
    }
    let mut acc = [lead.value(); SPLIT32_LANES];
    for c in rest.iter().rev() {
        let c = c.value();
        for lane in 0..SPLIT32_LANES {
            acc[lane] = split32_step(acc[lane], lo[lane], hi[lane], c);
        }
    }
    for lane in 0..SPLIT32_LANES {
        out[lane] = canonical(acc[lane]);
    }
}

const LOW32: u64 = (1 << 32) - 1;
const LOW29: u64 = (1 << 29) - 1;

/// One lazily reduced Horner step `a·x + c` over `GF(2^61 − 1)` from
/// 32×32→64-bit products, the multiply x86 vector units have.
///
/// With `a ≤ p + 4`, `x = hi·2^32 + lo < p` and `c < p`, split
/// `a = ah·2^32 + al` (`ah ≤ 2^29`, `hi < 2^29`, `al, lo < 2^32`). Then
/// `a·x = hh·2^64 + mid·2^32 + ll` with `hh = ah·hi < 2^58`,
/// `mid = ah·lo + al·hi < 2^62` and `ll = al·lo < 2^64`, and since
/// `2^61 ≡ 1`: `hh·2^64 ≡ hh<<3`, `mid·2^32 ≡ (mid>>29) +
/// ((mid & (2^29−1))<<32)` and `ll ≡ (ll>>61) + (ll & p)`. The six terms
/// sum below `2^63 + 2^34`, so `s` fits a `u64`, and the fold
/// `(s & p) + (s >> 61)` is `≤ p + 4` and congruent to `a·x + c`: the
/// bound the next step assumes. [`canonical`] at the end gives the same
/// field element as [`horner_step`]'s chain.
#[inline(always)]
fn split32_step(a: u64, lo: u64, hi: u64, c: u64) -> u64 {
    let (al, ah) = (a & LOW32, a >> 32);
    let ll = al * lo;
    let mid = ah * lo + al * hi;
    let hh = ah * hi;
    let s = (hh << 3) + (mid >> 29) + ((mid & LOW29) << 32) + (ll >> 61) + (ll & MERSENNE_P) + c;
    (s & MERSENNE_P) + (s >> 61)
}

/// One lazily reduced Horner step `a·x + c` over `GF(2^61 − 1)`.
///
/// With `x, c < p` and `a < 2^61 + 8`, the product splits as
/// `a·x = hi·2^61 + lo` with `hi < 2^61 + 8` and `lo ≤ p`, so
/// `s = lo + hi + c < 3·2^61 + 8 < 2^63` fits a `u64`, and the single
/// fold `(s & p) + (s >> 61)` (using `2^61 ≡ 1`) returns a value
/// `≤ p + 3 < 2^61 + 8`, congruent to `a·x + c`. The accumulator may
/// therefore stay a few units above `p` across steps; one
/// [`canonical`] at the end yields the same field element the
/// canonicalising step would, bit for bit.
#[inline(always)]
fn horner_step(a: u64, x: u64, c: u64) -> u64 {
    let prod = (a as u128) * (x as u128);
    let s = (prod as u64 & MERSENNE_P) + (prod >> 61) as u64 + c;
    (s & MERSENNE_P) + (s >> 61)
}

/// The canonical representative of a lazily reduced accumulator
/// (`≤ p + 4`, so one conditional subtraction suffices).
#[inline(always)]
fn canonical(a: u64) -> u64 {
    if a >= MERSENNE_P {
        a - MERSENNE_P
    } else {
        a
    }
}

/// Pairwise (2-wise) independent hash — Lemma 4.16's sampling, KMV ranks.
pub fn pairwise(seed: u64) -> KWise {
    KWise::new(2, seed)
}

/// 4-wise independent hash — universe reduction (Lemma 3.5) and the
/// CountSketch mix words.
pub fn four_wise(seed: u64) -> KWise {
    KWise::new(4, seed)
}

/// `Θ(log(mn))`-wise independent hash, the degree used by set sampling
/// with few random bits (Appendix A.1), superset partitioning (Claim 4.9)
/// and substream sampling (Claim 2.8). The degree is `log2(m·n)` clamped
/// to `[8, 48]` — `Θ(log(mn))` while keeping the Horner evaluation cheap
/// on the hot path.
pub fn log_wise(m: usize, n: usize, seed: u64) -> KWise {
    let prod = (m.max(1) as u128) * (n.max(1) as u128);
    let bits = 128 - prod.leading_zeros() as usize;
    let degree = bits.clamp(8, 48);
    KWise::new(degree, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = KWise::new(5, 123);
        let b = KWise::new(5, 123);
        for k in 0..200u64 {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = KWise::new(5, 1);
        let b = KWise::new(5, 2);
        let same = (0..256u64).filter(|&k| a.hash(k) == b.hash(k)).count();
        assert!(same < 4, "essentially no collisions expected, saw {same}");
    }

    #[test]
    fn output_below_p() {
        let h = KWise::new(8, 77);
        for k in (0..10_000u64).step_by(97) {
            assert!(h.hash(k) < MERSENNE_P);
        }
    }

    #[test]
    fn uniformity_chi_square() {
        // 1-wise marginal uniformity over 16 buckets; chi-square with
        // 15 dof should stay far below the 0.999 quantile (~37.7) for a
        // healthy hash. Use a generous bound to keep the test robust.
        let h = KWise::new(2, 2024);
        let buckets = 16u64;
        let trials = 64_000u64;
        let mut counts = vec![0u64; buckets as usize];
        for k in 0..trials {
            counts[h.hash_to_range(k, buckets) as usize] += 1;
        }
        let expected = trials as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 60.0, "chi-square too large: {chi2}");
    }

    #[test]
    fn pairwise_collision_rate_matches_theory() {
        // For a pairwise-independent family, Pr[h(x)=h(y)] = 1/r. Count
        // collisions into r=64 buckets over all pairs from a small key set.
        let r = 64u64;
        let keys: Vec<u64> = (0..200).collect();
        let mut total_pairs = 0u64;
        let mut collisions = 0u64;
        for seed in 0..40u64 {
            let h = KWise::new(2, 9000 + seed);
            let vals: Vec<u64> = keys.iter().map(|&k| h.hash_to_range(k, r)).collect();
            for i in 0..vals.len() {
                for j in (i + 1)..vals.len() {
                    total_pairs += 1;
                    if vals[i] == vals[j] {
                        collisions += 1;
                    }
                }
            }
        }
        let rate = collisions as f64 / total_pairs as f64;
        let expect = 1.0 / r as f64;
        assert!(
            (rate - expect).abs() < 0.35 * expect,
            "collision rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn four_wise_balance_of_sign_pairs() {
        // For 4-wise independence, signs derived from distinct keys are
        // 4-wise independent; check E[s(a)s(b)s(c)s(d)] ~ 0 empirically.
        let mut acc = 0i64;
        let n_seeds = 400u64;
        for seed in 0..n_seeds {
            let h = KWise::new(4, 31337 + seed);
            let s = |k: u64| if h.hash(k) & 1 == 0 { 1i64 } else { -1i64 };
            acc += s(10) * s(20) * s(30) * s(40);
        }
        let mean = acc as f64 / n_seeds as f64;
        assert!(mean.abs() < 0.15, "4th joint moment should vanish: {mean}");
    }

    #[test]
    fn degree_one_is_constant() {
        let h = KWise::new(1, 5);
        let v = h.hash(0);
        for k in 1..50u64 {
            assert_eq!(h.hash(k), v);
        }
    }

    #[test]
    fn space_words_equals_degree() {
        for d in 1..10 {
            assert_eq!(KWise::new(d, 1).space_words(), d);
        }
    }

    #[test]
    fn coefficients_roundtrip() {
        let h = KWise::new(6, 99);
        let back = KWise::from_coefficients(&h.coefficients());
        for k in 0..200u64 {
            assert_eq!(h.hash(k), back.hash(k));
        }
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn empty_coefficients_rejected() {
        let _ = KWise::from_coefficients(&[]);
    }

    #[test]
    fn selects_matches_bucket_zero() {
        let h = KWise::new(4, 42);
        for key in 0..1000u64 {
            assert_eq!(h.selects(key, 7), h.hash_to_range(key, 7) == 0);
        }
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let h = KWise::new(2, 1);
        let _ = h.hash_to_range(3, 0);
    }

    #[test]
    fn constructors_have_expected_degrees() {
        assert_eq!(pairwise(1).independence(), 2);
        assert_eq!(four_wise(1).independence(), 4);
        let lw = log_wise(1 << 20, 1 << 20, 1);
        assert!(lw.independence() >= 8);
        assert!(lw.independence() <= 96);
    }

    #[test]
    fn log_wise_grows_with_universe() {
        let small = log_wise(16, 16, 1).independence();
        let large = log_wise(1 << 30, 1 << 30, 1).independence();
        assert!(large > small);
    }

    #[test]
    fn log_wise_handles_zero_sizes() {
        // Degenerate m = 0 or n = 0 must not panic.
        let h = log_wise(0, 0, 1);
        assert!(h.independence() >= 8);
    }
}
