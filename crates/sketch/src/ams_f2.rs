//! AMS second-frequency-moment (`F2`) estimation — Alon, Matias & Szegedy
//! (reference [5] of the paper).
//!
//! `F2(a⃗) = Σ_j a⃗[j]²` is the squared `L2` norm of the frequency vector.
//! The paper uses `L2`-norm sketches both in the lower-bound discussion
//! (α-approximating `L∞` via `L2` sketches in `O(m/α²)` space) and as the
//! yardstick that defines heavy hitters and contributing classes (§2.2).
//!
//! Each basic estimator keeps `Z = Σ_j s(j)·a⃗[j]` for a 4-wise independent
//! sign hash `s`; `E[Z²] = F2` and `Var[Z²] ≤ 2·F2²`. Averaging `c` basic
//! estimators brings the variance down; the median of `r` averages boosts
//! the success probability (median-of-means).

use kcov_hash::{SeedSequence, SignHash};
use kcov_obs::SketchStats;

use crate::space::{SpaceSink, SpaceUsage};

/// Median-of-means AMS `F2` sketch.
#[derive(Debug, Clone)]
pub struct AmsF2 {
    rows: usize,
    cols: usize,
    signs: Vec<SignHash>,
    counters: Vec<i64>,
    /// Telemetry: merge invocations absorbed.
    merges: u64,
}

impl AmsF2 {
    /// `rows` = number of averages to take the median of (success
    /// probability `1 − 2^{-Ω(rows)}`), `cols` = basic estimators per
    /// average (relative error `O(1/√cols)`).
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        assert!(rows >= 1 && cols >= 1, "rows and cols must be positive");
        let mut seq = SeedSequence::labeled(seed, "ams-f2");
        AmsF2 {
            rows,
            cols,
            signs: (0..rows * cols).map(|_| SignHash::new(seq.next_seed())).collect(),
            counters: vec![0i64; rows * cols],
            merges: 0,
        }
    }

    /// Default accuracy: ~±15% with probability ≥ 1 − 2⁻⁵.
    pub fn with_default_accuracy(seed: u64) -> Self {
        AmsF2::new(5, 48, seed)
    }

    /// Observe one occurrence of `item` (insertion-only update).
    #[inline]
    pub fn insert(&mut self, item: u64) {
        self.update(item, 1);
    }

    /// General signed update (`a⃗[item] += delta`).
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        for (z, s) in self.counters.iter_mut().zip(self.signs.iter()) {
            *z += s.sign(item) * delta;
        }
    }

    /// Observe one occurrence of each item in a chunk. Counters are
    /// linear in the updates, so the final state is identical to
    /// per-item insertion; iterating estimator-outer keeps each sign
    /// hash hot across the chunk and accumulates into a register.
    pub fn insert_batch(&mut self, items: &[u64]) {
        for (z, s) in self.counters.iter_mut().zip(self.signs.iter()) {
            let mut acc = 0i64;
            for &item in items {
                acc += s.sign(item);
            }
            *z += acc;
        }
    }

    /// Estimate `F2(a⃗)`.
    pub fn estimate(&self) -> f64 {
        let mut avgs: Vec<f64> = (0..self.rows)
            .map(|r| {
                let base = r * self.cols;
                let sum: f64 = self.counters[base..base + self.cols]
                    .iter()
                    .map(|&z| (z as f64) * (z as f64))
                    .sum();
                sum / self.cols as f64
            })
            .collect();
        avgs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        avgs[avgs.len() / 2]
    }

    /// Estimate the `L2` norm `√F2`.
    pub fn estimate_l2(&self) -> f64 {
        self.estimate().sqrt()
    }

    /// `(rows, cols)` shape (wire serialization).
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The per-cell sign hashes (wire serialization).
    pub fn sign_hashes(&self) -> &[SignHash] {
        &self.signs
    }

    /// The raw counters (wire serialization).
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Rebuild from parts. Fails on shape mismatches.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        signs: Vec<SignHash>,
        counters: Vec<i64>,
    ) -> Result<Self, String> {
        if rows == 0 || cols == 0 {
            return Err("rows and cols must be positive".into());
        }
        if rows.checked_mul(cols) != Some(signs.len()) || counters.len() != signs.len() {
            return Err("signs/counters must both have rows*cols entries".into());
        }
        Ok(AmsF2 {
            rows,
            cols,
            signs,
            counters,
            merges: 0,
        })
    }

    /// Merge a sketch built with the same shape and seed (AMS sketches
    /// are linear: counters add). Panics on shape or sign-hash
    /// mismatch.
    pub fn merge(&mut self, other: &AmsF2) {
        assert_eq!(self.rows, other.rows, "AmsF2 merge requires identical configuration (rows)");
        assert_eq!(self.cols, other.cols, "AmsF2 merge requires identical configuration (columns)");
        // A single ±1 probe collides half the time; probe a batch.
        let probe =
            |s: &SignHash| -> u32 { (0..32).map(|i| u32::from(s.sign(i) > 0) << i).sum() };
        assert_eq!(
            probe(&self.signs[0]),
            probe(&other.signs[0]),
            "AmsF2 merge requires identical hash functions"
        );
        for (a, &b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.merges += 1 + other.merges;
    }

    /// Telemetry snapshot (fixed table: fill = capacity = cells).
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            updates: 0,
            fill: self.counters.len() as u64,
            capacity: self.counters.len() as u64,
            evictions: 0,
            prunes: 0,
            merges: self.merges,
        }
    }
}

impl SpaceUsage for AmsF2 {
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("counters", self.counters.len());
        node.leaf("signs", self.signs.iter().map(SignHash::space_words).sum::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_obs::LedgerNode;

    fn exact_f2(freqs: &[(u64, i64)]) -> f64 {
        freqs.iter().map(|&(_, f)| (f * f) as f64).sum()
    }

    #[test]
    fn empty_stream_is_zero() {
        let sk = AmsF2::with_default_accuracy(1);
        assert_eq!(sk.estimate(), 0.0);
    }

    #[test]
    fn single_item_exact() {
        // One item with frequency f: every basic estimator is (±f)² = f².
        let mut sk = AmsF2::new(3, 4, 7);
        for _ in 0..9 {
            sk.insert(42);
        }
        assert_eq!(sk.estimate(), 81.0);
    }

    #[test]
    fn uniform_frequencies_within_tolerance() {
        let mut sk = AmsF2::new(7, 96, 2024);
        let freqs: Vec<(u64, i64)> = (0..500).map(|i| (i as u64, 10)).collect();
        for &(item, f) in &freqs {
            for _ in 0..f {
                sk.insert(item);
            }
        }
        let truth = exact_f2(&freqs);
        let est = sk.estimate();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.25, "relative error {rel} (est {est}, truth {truth})");
    }

    #[test]
    fn skewed_frequencies_within_tolerance() {
        let mut sk = AmsF2::new(7, 128, 99);
        // One heavy item dominating F2 plus a light tail.
        let mut freqs: Vec<(u64, i64)> = vec![(0, 1000)];
        freqs.extend((1..2000).map(|i| (i as u64, 1)));
        for &(item, f) in &freqs {
            for _ in 0..f {
                sk.insert(item);
            }
        }
        let truth = exact_f2(&freqs);
        let est = sk.estimate();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.25, "relative error {rel} (est {est}, truth {truth})");
    }

    #[test]
    fn signed_updates_cancel() {
        let mut sk = AmsF2::new(3, 8, 5);
        sk.update(7, 5);
        sk.update(7, -5);
        assert_eq!(sk.estimate(), 0.0);
    }

    #[test]
    fn l2_is_sqrt_of_f2() {
        let mut sk = AmsF2::new(3, 8, 5);
        for _ in 0..4 {
            sk.insert(1);
        }
        assert!((sk.estimate_l2() - sk.estimate().sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ledger_counts_the_shape() {
        let sk = AmsF2::new(3, 8, 5);
        let mut node = LedgerNode::new();
        sk.space_ledger(&mut node);
        // 3×8 counters, each with its own 4-wise sign hash (4 words).
        assert_eq!(node.total_words(), 24 + 24 * 4);
        assert_eq!(sk.space_words(), 24 + 24 * 4);
        assert_eq!(node.get("counters").unwrap().own.words, 24);
    }

    #[test]
    fn space_scales_with_rows_times_cols() {
        let small = AmsF2::new(2, 8, 1).space_words();
        let large = AmsF2::new(4, 16, 1).space_words();
        assert!(large >= 4 * small - 8, "space should scale: {small} vs {large}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = AmsF2::new(3, 8, 123);
        let mut b = AmsF2::new(3, 8, 123);
        for i in 0..100u64 {
            a.insert(i % 13);
            b.insert(i % 13);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn merge_is_linear() {
        let mut left = AmsF2::new(3, 16, 9);
        let mut right = AmsF2::new(3, 16, 9);
        let mut both = AmsF2::new(3, 16, 9);
        for i in 0..500u64 {
            left.insert(i % 40);
            both.insert(i % 40);
            right.insert(i % 23);
            both.insert(i % 23);
        }
        left.merge(&right);
        assert_eq!(left.estimate(), both.estimate());
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let mut a = AmsF2::new(2, 4, 1);
        let b = AmsF2::new(2, 4, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_shape_mismatch() {
        let mut a = AmsF2::new(2, 4, 1);
        let b = AmsF2::new(3, 4, 1);
        a.merge(&b);
    }
}
