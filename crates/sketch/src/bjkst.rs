//! BJKST distinct-elements sketch — Bar-Yossef, Jayram, Kumar, Sivakumar
//! & Trevisan (reference [11] of the paper), the second classical `L0`
//! algorithm behind Theorem 2.12.
//!
//! Instead of keeping the k smallest hash values (KMV), BJKST keeps a
//! *level-sampled* set: an item survives at level `ℓ` when its hash has
//! at least `ℓ` trailing zero bits; the level rises whenever the buffer
//! overflows, halving the expected survivors. The estimate is
//! `|buffer| · 2^level`. Compared to [`crate::Kmv`] it has the same
//! `O(1/ε²)`-space/`(1 ± ε)` trade-off but O(1) amortized updates with
//! no ordered structure — the variant of choice when updates dominate.

use std::collections::HashSet;

use kcov_hash::{pairwise, KWise, RangeHash};
use kcov_obs::SketchStats;

use crate::space::{SpaceSink, SpaceUsage};

/// A single BJKST summary.
#[derive(Debug, Clone)]
pub struct Bjkst {
    hash: KWise,
    /// Current sampling level: items kept iff `trailing_zeros(h) >= level`.
    level: u32,
    /// Surviving (distinct) hash values.
    buffer: HashSet<u64>,
    /// Overflow bound: relative error is `O(1/√capacity)`.
    capacity: usize,
    /// Telemetry: level rises (each halves the expected survivors).
    level_rises: u64,
    /// Telemetry: merge invocations absorbed.
    merges: u64,
}

impl Bjkst {
    /// Create a summary with the given buffer capacity (`≥ 8`).
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 8, "BJKST needs capacity >= 8");
        Bjkst {
            hash: pairwise(seed),
            level: 0,
            buffer: HashSet::with_capacity(capacity + 1),
            capacity,
            level_rises: 0,
            merges: 0,
        }
    }

    /// Observe one item (duplicates are free).
    pub fn insert(&mut self, item: u64) {
        let h = self.hash.hash(item);
        if (h.trailing_zeros()) >= self.level {
            self.buffer.insert(h);
            while self.buffer.len() > self.capacity {
                self.level += 1;
                self.level_rises += 1;
                let level = self.level;
                self.buffer.retain(|&v| v.trailing_zeros() >= level);
            }
        }
    }

    /// Estimate of the number of distinct items seen.
    pub fn estimate(&self) -> f64 {
        self.buffer.len() as f64 * (1u64 << self.level.min(63)) as f64
    }

    /// Current sampling level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The configured buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sampling hash (wire serialization).
    pub fn hash(&self) -> &KWise {
        &self.hash
    }

    /// The surviving hash values, ascending (wire serialization; sorted
    /// so the encoding is canonical).
    pub fn buffer_values(&self) -> Vec<u64> {
        let mut vals: Vec<u64> = self.buffer.iter().copied().collect();
        vals.sort_unstable();
        vals
    }

    /// Rebuild from parts (inverse of the accessors). Fails when the
    /// buffer exceeds the capacity or holds a value below the level.
    pub fn from_parts(
        capacity: usize,
        level: u32,
        hash: KWise,
        values: Vec<u64>,
    ) -> Result<Self, String> {
        if capacity < 8 {
            return Err("BJKST needs capacity >= 8".into());
        }
        if values.len() > capacity {
            return Err(format!("{} buffered values exceed capacity {capacity}", values.len()));
        }
        if values.iter().any(|&v| v.trailing_zeros() < level) {
            return Err(format!("buffered value below sampling level {level}"));
        }
        Ok(Bjkst {
            hash,
            level,
            buffer: values.into_iter().collect(),
            capacity,
            level_rises: 0,
            merges: 0,
        })
    }

    /// Merge another summary built with the *same capacity and seed*
    /// (linearity over set union): raise both to the higher level and
    /// unite buffers. Panics on configuration or seed mismatch
    /// (detected via a probe value).
    pub fn merge(&mut self, other: &Bjkst) {
        assert_eq!(
            self.capacity,
            other.capacity,
            "Bjkst merge requires identical configuration (capacity)"
        );
        assert_eq!(
            self.hash.hash(0x5eed_c0de),
            other.hash.hash(0x5eed_c0de),
            "Bjkst merge requires identical hash functions"
        );
        self.level = self.level.max(other.level);
        let level = self.level;
        self.buffer.retain(|&v| v.trailing_zeros() >= level);
        for &v in &other.buffer {
            if v.trailing_zeros() >= level {
                self.buffer.insert(v);
            }
        }
        while self.buffer.len() > self.capacity {
            self.level += 1;
            self.level_rises += 1;
            let level = self.level;
            self.buffer.retain(|&v| v.trailing_zeros() >= level);
        }
        self.merges += 1 + other.merges;
        self.level_rises += other.level_rises;
    }

    /// Telemetry snapshot (fill, capacity, level rises as prunes,
    /// merges).
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            updates: 0,
            fill: self.buffer.len() as u64,
            capacity: self.capacity as u64,
            evictions: 0,
            prunes: self.level_rises,
            merges: self.merges,
        }
    }
}

impl SpaceUsage for Bjkst {
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("buffer", self.buffer.len());
        node.leaf("hash", self.hash.space_words());
        node.leaf("overhead", 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_obs::LedgerNode;

    #[test]
    fn exact_for_small_streams() {
        let mut b = Bjkst::new(64, 1);
        for i in 0..40u64 {
            b.insert(i);
            b.insert(i);
        }
        assert_eq!(b.level(), 0);
        assert_eq!(b.estimate(), 40.0);
    }

    #[test]
    fn estimates_large_streams_within_tolerance() {
        let mut worst = 0.0f64;
        for seed in 0..10u64 {
            let mut b = Bjkst::new(256, seed);
            let truth = 30_000u64;
            for i in 0..truth {
                b.insert(i.wrapping_mul(0x9e3779b97f4a7c15));
            }
            let rel = (b.estimate() - truth as f64).abs() / truth as f64;
            worst = worst.max(rel);
        }
        assert!(worst < 0.25, "worst relative error {worst}");
    }

    #[test]
    fn level_rises_with_stream_size() {
        let mut b = Bjkst::new(16, 3);
        for i in 0..10_000u64 {
            b.insert(i);
        }
        assert!(b.level() >= 6, "level {} too low for 10k/16", b.level());
        assert!(b.buffer.len() <= 16);
    }

    #[test]
    fn duplicates_do_not_move_the_estimate() {
        let mut a = Bjkst::new(64, 5);
        let mut b = Bjkst::new(64, 5);
        for i in 0..5_000u64 {
            a.insert(i);
            b.insert(i);
            b.insert(i % 100);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut left = Bjkst::new(64, 9);
        let mut right = Bjkst::new(64, 9);
        let mut both = Bjkst::new(64, 9);
        for i in 0..4_000u64 {
            left.insert(i);
            both.insert(i);
        }
        for i in 2_000..6_000u64 {
            right.insert(i);
            both.insert(i);
        }
        left.merge(&right);
        assert_eq!(left.estimate(), both.estimate());
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = Bjkst::new(16, 1);
        let b = Bjkst::new(16, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_capacity_mismatch() {
        // Same seed, different capacity: the overflow schedules differ,
        // so the merged level would not match the union stream's.
        let mut a = Bjkst::new(16, 1);
        let b = Bjkst::new(32, 1);
        a.merge(&b);
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut b = Bjkst::new(16, 4);
        for i in 0..5_000u64 {
            b.insert(i);
        }
        let back =
            Bjkst::from_parts(b.capacity(), b.level(), b.hash().clone(), b.buffer_values())
                .unwrap();
        assert_eq!(b.estimate(), back.estimate());
        assert!(Bjkst::from_parts(4, 0, b.hash().clone(), Vec::new()).is_err());
        assert!(Bjkst::from_parts(8, 3, b.hash().clone(), vec![1]).is_err());
    }

    #[test]
    fn stats_track_level_rises_and_merges() {
        let mut b = Bjkst::new(16, 3);
        for i in 0..10_000u64 {
            b.insert(i);
        }
        let st = b.stats();
        assert_eq!(st.capacity, 16);
        assert!(st.fill <= 16);
        assert_eq!(st.prunes, u64::from(b.level()));
        let other = Bjkst::new(16, 3);
        b.merge(&other);
        assert_eq!(b.stats().merges, 1);
    }

    #[test]
    fn ledger_counts_the_shape() {
        let mut b = Bjkst::new(32, 7);
        for i in 0..1_000u64 {
            b.insert(i);
        }
        let mut node = LedgerNode::new();
        b.space_ledger(&mut node);
        // The kept sample, a pairwise hash (2 words) and the 2-word
        // level/capacity overhead.
        let want = b.buffer.len() + 2 + 2;
        assert_eq!(node.total_words(), want as u64);
        assert_eq!(b.space_words(), want);
        assert_eq!(node.get("overhead").unwrap().own.words, 2);
    }

    #[test]
    fn space_bounded_by_capacity() {
        let mut b = Bjkst::new(32, 7);
        for i in 0..100_000u64 {
            b.insert(i);
        }
        assert!(b.space_words() <= 32 + 2 + 2 + 1);
    }
}
