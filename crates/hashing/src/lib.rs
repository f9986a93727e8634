//! Limited-independence hash families for streaming algorithms.
//!
//! The algorithms of Indyk & Vakilian (PODS 2019) are specified with hash
//! functions of *limited independence*: pairwise (Lemma 4.16), 4-wise
//! (Lemma 3.5), and `Θ(log(mn))`-wise (set sampling with few random
//! bits, Appendix A.1; superset partitioning, Claim 4.9; substream
//! sampling, Claim 2.8). This crate provides them:
//!
//! * [`KWise`] — degree-(d−1) polynomial over the Mersenne-prime field
//!   `GF(2^61 − 1)`, which is exactly d-wise independent (Lemma A.2 gives
//!   the `d·log(mn)`-bit representation; a polynomial of degree d−1 with
//!   uniform coefficients achieves it), with the [`pairwise`],
//!   [`four_wise`] and [`log_wise`] constructors for the degrees above.
//! * [`SplitMix64`] — a tiny deterministic PRNG used to derive coefficients
//!   and sub-seeds reproducibly without external dependencies.
//!
//! All hashers are cheaply cloneable, `Send + Sync`, and fully determined
//! by a `u64` seed so that every experiment in the workspace is
//! reproducible.

pub mod field;
pub mod kwise;
pub mod seeded;

pub use field::{Fp, MERSENNE_P};
pub use kwise::{four_wise, log_wise, pairwise, BatchTier, KWise};
pub use seeded::{SeedSequence, SplitMix64};

/// The bucket `⌊h·r/2^61⌋ ∈ [0, r)` of a raw hash value `h ∈ [0,
/// 2^61−1)`: the reduction behind [`KWise::hash_to_range`] and
/// [`KWise::selects`], for callers that evaluate the raw hashes with
/// [`KWise::hash_batch`]. Panics if `r == 0`.
///
/// This is the multiply-shift range reduction (Lemire) instead of
/// `h mod r`: the per-bucket bias is the same `O(r/2^61)`, irrelevant at
/// the scales used here, but the reduction costs one widening multiply
/// instead of a 64-bit division — it runs on every CountSketch row
/// update and superset-id reduction of the ingest hot path.
#[inline]
pub fn reduce_to_range(h: u64, r: u64) -> u64 {
    assert!(r > 0, "range must be positive");
    ((h as u128 * r as u128) >> 61) as u64
}
