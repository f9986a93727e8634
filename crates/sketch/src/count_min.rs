//! CountMin sketch (Cormode–Muthukrishnan): biased-upward `L1` point
//! frequency estimation. Not used by the paper's algorithm itself (which
//! is `L2`-based), but a standard companion tool used by the set-arrival
//! streaming baselines and handy for workload diagnostics.

use kcov_hash::{pairwise, KWise, RangeHash, SeedSequence};
use kcov_obs::SketchStats;

use crate::space::{SpaceSink, SpaceUsage};

/// A CountMin sketch over `u64` items with non-negative updates.
#[derive(Debug, Clone)]
pub struct CountMin {
    rows: usize,
    width: usize,
    hashes: Vec<KWise>,
    table: Vec<u64>,
    /// Telemetry: merge invocations absorbed.
    merges: u64,
}

impl CountMin {
    /// `rows` hash rows of `width` counters each. Point-query
    /// overestimate is at most `F1/width` per row w.p. 1/2, so the
    /// row-minimum is within `O(F1/width)` w.h.p.
    pub fn new(rows: usize, width: usize, seed: u64) -> Self {
        assert!(rows >= 1, "need at least one row");
        assert!(width >= 2, "width must be at least 2");
        let mut seq = SeedSequence::labeled(seed, "count-min");
        CountMin {
            rows,
            width,
            hashes: (0..rows).map(|_| pairwise(seq.next_seed())).collect(),
            table: vec![0u64; rows * width],
            merges: 0,
        }
    }

    /// Observe `count` occurrences of `item`.
    #[inline]
    pub fn insert(&mut self, item: u64, count: u64) {
        for row in 0..self.rows {
            let b = self.hashes[row].hash_to_range(item, self.width as u64) as usize;
            self.table[row * self.width + b] += count;
        }
    }

    /// `(rows, width)` shape (wire serialization).
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.width)
    }

    /// The per-row hashes (wire serialization).
    pub fn hashes(&self) -> &[KWise] {
        &self.hashes
    }

    /// The raw counter table, row-major (wire serialization).
    pub fn table(&self) -> &[u64] {
        &self.table
    }

    /// Rebuild from parts. Fails on shape mismatches.
    pub fn from_parts(
        rows: usize,
        width: usize,
        hashes: Vec<KWise>,
        table: Vec<u64>,
    ) -> Result<Self, String> {
        if rows == 0 || width < 2 {
            return Err("bad CountMin shape".into());
        }
        if hashes.len() != rows || rows.checked_mul(width) != Some(table.len()) {
            return Err("CountMin parts have inconsistent lengths".into());
        }
        Ok(CountMin {
            rows,
            width,
            hashes,
            table,
            merges: 0,
        })
    }

    /// Merge a sketch built with the same shape and seed (linear).
    /// Panics on mismatch.
    pub fn merge(&mut self, other: &CountMin) {
        assert_eq!(self.rows, other.rows, "CountMin merge requires identical configuration (rows)");
        assert_eq!(
            self.width,
            other.width,
            "CountMin merge requires identical configuration (width)"
        );
        assert_eq!(
            self.hashes[0].hash(0x5eed_c0de),
            other.hashes[0].hash(0x5eed_c0de),
            "CountMin merge requires identical hash functions"
        );
        for (a, &b) in self.table.iter_mut().zip(&other.table) {
            *a += b;
        }
        self.merges += 1 + other.merges;
    }

    /// Telemetry snapshot (fixed table: fill = capacity = cells).
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            updates: 0,
            fill: self.table.len() as u64,
            capacity: self.table.len() as u64,
            evictions: 0,
            prunes: 0,
            merges: self.merges,
        }
    }

    /// Upper-bound estimate of the frequency of `item` (never
    /// underestimates).
    pub fn query(&self, item: u64) -> u64 {
        (0..self.rows)
            .map(|row| {
                let b = self.hashes[row].hash_to_range(item, self.width as u64) as usize;
                self.table[row * self.width + b]
            })
            .min()
            .expect("at least one row")
    }
}

impl SpaceUsage for CountMin {
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("rows", self.table.len());
        node.leaf("hashes", self.hashes.iter().map(KWise::space_words).sum::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_obs::LedgerNode;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(4, 32, 1);
        for i in 0..200u64 {
            cm.insert(i, 1 + i % 5);
        }
        for i in 0..200u64 {
            assert!(cm.query(i) > i % 5, "underestimate for {i}");
        }
    }

    #[test]
    fn exact_on_sparse_input() {
        let mut cm = CountMin::new(5, 256, 2);
        cm.insert(10, 7);
        cm.insert(20, 3);
        assert_eq!(cm.query(10), 7);
        assert_eq!(cm.query(20), 3);
        assert_eq!(cm.query(30), 0);
    }

    #[test]
    fn overestimate_bounded_on_uniform_stream() {
        let mut cm = CountMin::new(5, 512, 3);
        for i in 0..1000u64 {
            cm.insert(i, 1);
        }
        // F1 = 1000, width 512: expected collision mass per bucket ~2.
        let mut worst = 0u64;
        for i in 0..1000u64 {
            worst = worst.max(cm.query(i) - 1);
        }
        assert!(worst <= 10, "overestimate {worst} too large");
    }

    #[test]
    fn space_counts_table() {
        let cm = CountMin::new(2, 16, 1);
        assert!(cm.space_words() >= 32);
    }

    #[test]
    fn ledger_counts_the_shape() {
        let cm = CountMin::new(3, 32, 4);
        let mut node = LedgerNode::new();
        cm.space_ledger(&mut node);
        // A 3×32 table plus one pairwise row hash (2 words) per row.
        assert_eq!(node.total_words(), 96 + 3 * 2);
        assert_eq!(cm.space_words(), 96 + 3 * 2);
        assert_eq!(node.get("rows").unwrap().own.words, 96);
    }

    #[test]
    fn merge_is_linear() {
        let mut left = CountMin::new(3, 64, 9);
        let mut right = CountMin::new(3, 64, 9);
        let mut both = CountMin::new(3, 64, 9);
        for i in 0..100u64 {
            left.insert(i, 1);
            both.insert(i, 1);
            right.insert(i + 50, 3);
            both.insert(i + 50, 3);
        }
        left.merge(&right);
        for i in 0..150u64 {
            assert_eq!(left.query(i), both.query(i));
        }
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let mut a = CountMin::new(2, 8, 1);
        let b = CountMin::new(2, 8, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_shape_mismatch() {
        let mut a = CountMin::new(2, 8, 1);
        let b = CountMin::new(2, 16, 1);
        a.merge(&b);
    }
}
