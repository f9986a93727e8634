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

impl RangeHash for PolyHash {
    #[inline]
    fn hash(&self, key: u64) -> u64 {
        let x = Fp::new(key);
        // Unrolled Horner for the ubiquitous small degrees (pairwise and
        // 4-wise hashes sit on every sketch's hot path).
        match *self.coeffs.as_slice() {
            [c0] => c0.value(),
            [c0, c1] => c1.mul_add(x, c0).value(),
            [c0, c1, c2] => c2.mul_add(x, c1).mul_add(x, c0).value(),
            [c0, c1, c2, c3] => c3.mul_add(x, c2).mul_add(x, c1).mul_add(x, c0).value(),
            ref coeffs => {
                let mut acc = Fp::ZERO;
                // Horner: acc = ((c_{d-1} x + c_{d-2}) x + ...) x + c_0
                for &c in coeffs.iter().rev() {
                    acc = acc.mul_add(x, c);
                }
                acc.value()
            }
        }
    }

    /// Blocked Horner evaluation: 8 keys at a time, coefficient-outer,
    /// so each field constant is loaded once per block and the 8 lanes
    /// of independent multiply-adds autovectorize. Scalar-equivalent by
    /// construction — every lane starts from the leading coefficient
    /// `c_{d-1}` (the value the first Horner step `ZERO·x + c_{d-1}`
    /// yields) and applies the remaining steps in order, exactly the
    /// unrolled small-degree arms of [`PolyHash::hash`], so every lane
    /// computes the identical field element for every degree.
    fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        const LANES: usize = 8;
        out.clear();
        out.reserve(keys.len());
        let (&lead, rest) = self.coeffs.split_last().expect("at least one coefficient");
        let mut blocks = keys.chunks_exact(LANES);
        for block in &mut blocks {
            let mut xs = [Fp::ZERO; LANES];
            for (x, &k) in xs.iter_mut().zip(block) {
                *x = Fp::new(k);
            }
            let mut acc = [lead; LANES];
            for &c in rest.iter().rev() {
                for lane in 0..LANES {
                    acc[lane] = acc[lane].mul_add(xs[lane], c);
                }
            }
            out.extend(acc.iter().map(|a| a.value()));
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
