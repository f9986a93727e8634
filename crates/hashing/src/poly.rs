//! Polynomial hashing over `GF(2^61 − 1)`.
//!
//! A degree-(d−1) polynomial with independent uniform coefficients is an
//! exactly d-wise independent hash family (the classic Carter–Wegman
//! construction). This is the workhorse family behind every sampling step
//! in the paper: Lemma A.2 notes that selecting such a function costs
//! `d·log(mn)` bits, which is exactly the coefficient vector stored here.

use crate::field::{Fp, MERSENNE_P};
use crate::seeded::SplitMix64;
use crate::RangeHash;

/// A d-wise independent hash function `u64 → [0, 2^61 − 1)`.
///
/// `PolyHash::new(d, seed)` draws `d` uniform coefficients from the seed;
/// evaluation is a Horner loop of `d − 1` field multiply-adds. Two
/// functions are equal when their coefficient vectors are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    coeffs: Vec<Fp>,
}

impl PolyHash {
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
        PolyHash { coeffs }
    }

    /// Number of stored coefficients (the independence degree d).
    pub fn degree(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient vector (canonical field representatives), lowest
    /// degree first — the function's full description, e.g. for wire
    /// serialization.
    pub fn coefficients(&self) -> Vec<u64> {
        self.coeffs.iter().map(|c| c.value()).collect()
    }

    /// Rebuild a function from its coefficient vector (the inverse of
    /// [`PolyHash::coefficients`]). Values are reduced mod p.
    pub fn from_coefficients(coeffs: &[u64]) -> Self {
        assert!(!coeffs.is_empty(), "need at least one coefficient");
        PolyHash {
            coeffs: coeffs.iter().map(|&c| Fp::new(c)).collect(),
        }
    }

    /// Space in 64-bit words used by this function (Lemma A.2 accounting).
    pub fn space_words(&self) -> usize {
        self.coeffs.len()
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

impl RangeHash for PolyHash {
    #[inline]
    fn hash(&self, key: u64) -> u64 {
        let x = Fp::new(key).value();
        let (&lead, rest) = self.coeffs.split_last().expect("at least one coefficient");
        // Horner: a = ((c_{d-1} x + c_{d-2}) x + ...) x + c_0
        let mut a = lead.value();
        for c in rest.iter().rev() {
            a = horner_step(a, x, c.value());
        }
        canonical(a)
    }

    /// Blocked Horner evaluation: 8 keys at a time, coefficient-outer,
    /// so each field constant is loaded once per block and the 8 lanes
    /// run independent multiply-add chains. x86-64 has no 64×64→128-bit
    /// vector multiply, so the lanes do not vectorize; they buy
    /// instruction-level parallelism, overlapping the multiplier's
    /// latency across keys. Scalar-equivalent by construction — every
    /// lane starts from the leading coefficient and applies the same
    /// lazy steps as [`PolyHash::hash`] in the same order, so every lane
    /// computes the identical field element for every degree.
    fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = PolyHash::new(5, 123);
        let b = PolyHash::new(5, 123);
        for k in 0..200u64 {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = PolyHash::new(5, 1);
        let b = PolyHash::new(5, 2);
        let same = (0..256u64).filter(|&k| a.hash(k) == b.hash(k)).count();
        assert!(same < 4, "essentially no collisions expected, saw {same}");
    }

    #[test]
    fn output_below_p() {
        let h = PolyHash::new(8, 77);
        for k in (0..10_000u64).step_by(97) {
            assert!(h.hash(k) < MERSENNE_P);
        }
    }

    #[test]
    fn uniformity_chi_square() {
        // 1-wise marginal uniformity over 16 buckets; chi-square with
        // 15 dof should stay far below the 0.999 quantile (~37.7) for a
        // healthy hash. Use a generous bound to keep the test robust.
        let h = PolyHash::new(2, 2024);
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
            let h = PolyHash::new(2, 9000 + seed);
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
            let h = PolyHash::new(4, 31337 + seed);
            let s = |k: u64| if h.hash(k) & 1 == 0 { 1i64 } else { -1i64 };
            acc += s(10) * s(20) * s(30) * s(40);
        }
        let mean = acc as f64 / n_seeds as f64;
        assert!(mean.abs() < 0.15, "4th joint moment should vanish: {mean}");
    }

    #[test]
    fn degree_one_is_constant() {
        let h = PolyHash::new(1, 5);
        let v = h.hash(0);
        for k in 1..50u64 {
            assert_eq!(h.hash(k), v);
        }
    }

    #[test]
    fn space_words_equals_degree() {
        for d in 1..10 {
            assert_eq!(PolyHash::new(d, 1).space_words(), d);
        }
    }

    #[test]
    fn coefficients_roundtrip() {
        let h = PolyHash::new(6, 99);
        let back = PolyHash::from_coefficients(&h.coefficients());
        for k in 0..200u64 {
            assert_eq!(h.hash(k), back.hash(k));
        }
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn empty_coefficients_rejected() {
        let _ = PolyHash::from_coefficients(&[]);
    }
}
