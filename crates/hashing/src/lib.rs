//! Limited-independence hash families for streaming algorithms.
//!
//! The algorithms of Indyk & Vakilian (PODS 2019) are specified with hash
//! functions of *limited independence*: pairwise (Lemma 4.16), 4-wise
//! (Lemma 3.5, AMS sign hashes), and `Θ(log(mn))`-wise (set sampling with
//! few random bits, Appendix A.1; superset partitioning, Claim 4.9;
//! substream sampling, Claim 2.8). This crate provides those families:
//!
//! * [`PolyHash`] — degree-(d−1) polynomial over the Mersenne-prime field
//!   `GF(2^61 − 1)`, which is exactly d-wise independent (Lemma A.2 gives
//!   the `d·log(mn)`-bit representation; a polynomial of degree d−1 with
//!   uniform coefficients achieves it).
//! * [`SignHash`] — 4-wise independent ±1 values for AMS-style `F2`
//!   sketches.
//! * [`TabulationHash`] — simple tabulation hashing, a fast 3-wise
//!   independent family with Chernoff-like concentration, used where raw
//!   speed matters more than provable d-wise independence.
//! * [`SplitMix64`] — a tiny deterministic PRNG used to derive coefficients
//!   and sub-seeds reproducibly without external dependencies.
//!
//! All hashers are cheaply cloneable, `Send + Sync`, and fully determined
//! by a `u64` seed so that every experiment in the workspace is
//! reproducible.

pub mod field;
pub mod kwise;
pub mod multiply_shift;
pub mod poly;
pub mod seeded;
pub mod tabulation;

pub use field::{Fp, MERSENNE_P};
pub use kwise::{four_wise, log_wise, pairwise, KWise, SignHash};
pub use multiply_shift::MultiplyShift;
pub use poly::PolyHash;
pub use seeded::{SeedSequence, SplitMix64};
pub use tabulation::TabulationHash;

/// A hash function from `u64` keys to a caller-chosen range.
///
/// Implementations guarantee a documented degree of independence (see each
/// type). The range mapping `hash_to_range` composes the raw field hash
/// with a modular reduction; for ranges `r ≪ 2^61` the induced bias is
/// below `r/2^61` per bucket and is irrelevant at the scales used here.
pub trait RangeHash {
    /// Raw hash value in `[0, MERSENNE_P)`.
    fn hash(&self, key: u64) -> u64;

    /// Hash into `[0, r)`. Panics if `r == 0`.
    ///
    /// Uses the multiply-shift range reduction `⌊h·r/2^61⌋` (Lemire) on
    /// the raw field hash `h ∈ [0, 2^61−1)` instead of `h mod r`: the
    /// per-bucket bias is the same `O(r/2^61)`, but the reduction costs
    /// one widening multiply instead of a 64-bit division — this runs
    /// on every CountSketch row update and superset-id reduction of the
    /// ingest hot path.
    #[inline]
    fn hash_to_range(&self, key: u64, r: u64) -> u64 {
        assert!(r > 0, "range must be positive");
        ((self.hash(key) as u128 * r as u128) >> 61) as u64
    }

    /// Bernoulli selection with probability `1/r`: true iff the key lands
    /// in bucket 0 of an `r`-bucket split. This is the paper's
    /// "`h(S) = 1`" sampling idiom (Figures 3, 4, 6 and Appendix A.1).
    #[inline]
    fn selects(&self, key: u64, r: u64) -> bool {
        self.hash_to_range(key, r) == 0
    }

    /// Evaluate [`RangeHash::hash`] over a flat block of keys into `out`
    /// (cleared first). The contract is *scalar equivalence*: for every
    /// input, `out[i] == self.hash(keys[i])` bit-for-bit — overrides may
    /// only restructure the evaluation (SIMD-friendly blocked layouts),
    /// never change the function. This is the batched hot-path entry the
    /// estimator's hash-once fingerprint pipeline is built on.
    fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.hash(k)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_hash_selects_matches_bucket_zero() {
        let h = poly::PolyHash::new(4, 42);
        for key in 0..1000u64 {
            assert_eq!(h.selects(key, 7), h.hash_to_range(key, 7) == 0);
        }
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let h = poly::PolyHash::new(2, 1);
        let _ = h.hash_to_range(3, 0);
    }
}
