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
        assert!(degree_of_independence >= 1, "independence degree must be >= 1");
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
        let x = Fp::new(key).value();
        let (&lead, rest) = self.coeffs.split_last().expect("at least one coefficient");
        // Horner: a = ((c_{d-1} x + c_{d-2}) x + ...) x + c_0
        let mut a = lead.value();
        for c in rest.iter().rev() {
            a = horner_step(a, x, c.value());
        }
        canonical(a)
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
    /// Blocked Horner evaluation: 8 keys at a time, coefficient-outer,
    /// so each field constant is loaded once per block and the 8 lanes
    /// run independent multiply-add chains. x86-64 has no 64×64→128-bit
    /// vector multiply, so the lanes do not vectorize; they buy
    /// instruction-level parallelism, overlapping the multiplier's
    /// latency across keys. Scalar-equivalent by construction — every
    /// lane starts from the leading coefficient and applies the same
    /// lazy steps as [`KWise::hash`] in the same order, so every lane
    /// computes the identical field element for every degree.
    pub fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        const LANES: usize = 8;
        out.clear();
        out.reserve(keys.len());
        let (&lead, rest) = self.coeffs.split_last().expect("at least one coefficient");
        let mut blocks = keys.chunks_exact(LANES);
        for block in &mut blocks {
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
            out.extend(acc.iter().map(|&a| canonical(a)));
        }
        out.extend(blocks.remainder().iter().map(|&k| self.hash(k)));
    }
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
/// (`≤ p + 3`, so one conditional subtraction suffices).
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
