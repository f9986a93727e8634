//! CountSketch — Charikar, Chen & Farach-Colton (reference [18] of the
//! paper), the linear sketch behind `F2`/`L2` heavy hitters
//! (Theorem 2.10).
//!
//! A `rows × width` table of counters. Row `r` hashes each item to a
//! bucket (pairwise-independent) and a sign (4-wise independent); the
//! point-query estimate of `a⃗[i]` is the median over rows of
//! `sign_r(i) · table[r][bucket_r(i)]`. With `width = O(1/φ)` the additive
//! error of each row is `O(√(φ·F2))` with constant probability, so medians
//! over `O(log)` rows recover every `φ`-heavy hitter to within a
//! `(1 ± 1/2)` factor.

use kcov_hash::{four_wise, pairwise, KWise, RangeHash, SeedSequence, SignHash};
use kcov_obs::{SketchStats, Space};

use crate::space::{SpaceSink, SpaceUsage};

/// The median of the per-row estimates (`rows ≤ 32`). An even row
/// count averages the two middle values, rounded toward zero to stay
/// conservative for threshold comparisons.
fn median_toward_zero(ests: &mut [i64]) -> i64 {
    ests.sort_unstable();
    let mid = ests.len() / 2;
    if ests.len() % 2 == 1 {
        ests[mid]
    } else {
        (ests[mid - 1] + ests[mid]) / 2
    }
}

/// A CountSketch frequency sketch over `u64` items.
#[derive(Debug, Clone)]
pub struct CountSketch {
    rows: usize,
    width: usize,
    buckets: Vec<KWise>,
    signs: Vec<SignHash>,
    table: Vec<i64>,
    /// Heat telemetry: update operations absorbed (one add per batch on
    /// the hot path; each update writes one counter per row). Merged by
    /// addition, zeroed by plain wire reconstruction, restored by the
    /// full-state sidecar.
    updates: u64,
    /// Telemetry: merge invocations absorbed.
    merges: u64,
}

impl CountSketch {
    /// Create a sketch with `rows` independent rows of `width` counters.
    pub fn new(rows: usize, width: usize, seed: u64) -> Self {
        assert!((1..=32).contains(&rows), "rows must be in 1..=32");
        assert!(width >= 2, "width must be at least 2");
        let mut seq = SeedSequence::labeled(seed, "count-sketch");
        CountSketch {
            rows,
            width,
            buckets: (0..rows).map(|_| pairwise(seq.next_seed())).collect(),
            signs: (0..rows)
                .map(|_| {
                    let s = four_wise(seq.next_seed());
                    // Pairwise signs suffice for point-query unbiasedness
                    // (the 4-wise requirement belongs to the AMS f2 bound,
                    // which the median over rows cushions); the shorter
                    // polynomial halves the per-row sign cost on the
                    // row-inner hot loop. The wire format carries the full
                    // coefficient vector, so the degree round-trips.
                    SignHash::pairwise(seq.next_seed() ^ s.hash(0))
                })
                .collect(),
            table: vec![0i64; rows * width],
            updates: 0,
            merges: 0,
        }
    }

    /// Row/bucket index for an item in a given row.
    #[inline]
    fn slot(&self, row: usize, item: u64) -> usize {
        row * self.width + self.buckets[row].hash_to_range(item, self.width as u64) as usize
    }

    /// Observe one occurrence of `item`.
    #[inline]
    pub fn insert(&mut self, item: u64) {
        self.update(item, 1);
    }

    /// General signed update (`a⃗[item] += delta`).
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        self.updates += 1;
        for row in 0..self.rows {
            let slot = self.slot(row, item);
            self.table[slot] += self.signs[row].sign(item) * delta;
        }
    }

    /// Observe one occurrence of each item in a chunk. The table is a
    /// linear sketch, so updates commute and the final state is
    /// identical to per-item insertion; iterating row-outer keeps each
    /// row's bucket/sign hash and table stripe hot across the chunk.
    pub fn insert_batch(&mut self, items: &[u64]) {
        self.updates += items.len() as u64;
        let w = self.width as u64;
        for row in 0..self.rows {
            let bucket = &self.buckets[row];
            let sign = &self.signs[row];
            let stripe = &mut self.table[row * self.width..(row + 1) * self.width];
            for &item in items {
                stripe[bucket.hash_to_range(item, w) as usize] += sign.sign(item);
            }
        }
    }

    /// Batched signed updates (`a⃗[item] += delta` for each pair), same
    /// row-outer amortization as [`CountSketch::insert_batch`].
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        self.updates += updates.len() as u64;
        let w = self.width as u64;
        for row in 0..self.rows {
            let bucket = &self.buckets[row];
            let sign = &self.signs[row];
            let stripe = &mut self.table[row * self.width..(row + 1) * self.width];
            for &(item, delta) in updates {
                stripe[bucket.hash_to_range(item, w) as usize] += sign.sign(item) * delta;
            }
        }
    }

    /// Point query: median-of-rows estimate of `a⃗[item]`.
    pub fn query(&self, item: u64) -> i64 {
        // Stack buffer: rows are small and this is on the hot path.
        let mut buf = [0i64; 32];
        for (row, slot) in buf.iter_mut().enumerate().take(self.rows) {
            *slot = self.signs[row].sign(item) * self.table[self.slot(row, item)];
        }
        median_toward_zero(&mut buf[..self.rows])
    }

    /// [`CountSketch::query`] over a column of items into `out` (cleared
    /// first): `out[i] == self.query(items[i])`. Row-outer, so each
    /// row's bucket and sign hashes run as one blocked batch over the
    /// column and its table stripe stays hot; the per-item median then
    /// reads the row estimates back column-wise.
    pub fn query_batch(&self, items: &[u64], out: &mut Vec<i64>) {
        let n = items.len();
        let w = self.width as u64;
        let mut ests = vec![0i64; self.rows * n];
        let mut hashes = Vec::with_capacity(n);
        let mut signs = Vec::with_capacity(n);
        for (row, col) in ests.chunks_exact_mut(n.max(1)).enumerate() {
            let stripe = &self.table[row * self.width..(row + 1) * self.width];
            self.buckets[row].hash_batch(items, &mut hashes);
            self.signs[row].sign_batch(items, &mut signs);
            for ((e, &h), &s) in col.iter_mut().zip(&hashes).zip(&signs) {
                // Same reduction as `hash_to_range` in `slot`.
                *e = s * stripe[((h as u128 * w as u128) >> 61) as usize];
            }
        }
        out.clear();
        if self.rows == 2 {
            // `median_toward_zero` of a pair, without the sort.
            let (first, second) = ests.split_at(n);
            out.extend(first.iter().zip(second).map(|(&a, &b)| (a + b) / 2));
            return;
        }
        out.extend((0..n).map(|i| {
            let mut buf = [0i64; 32];
            for (row, slot) in buf.iter_mut().enumerate().take(self.rows) {
                *slot = ests[row * n + i];
            }
            median_toward_zero(&mut buf[..self.rows])
        }));
    }

    /// Estimate `F2(a⃗)` from the sketch itself. Each row is a
    /// width-bucketed AMS estimator: `Σ_b table[r][b]²` has expectation
    /// `F2` (the cross terms vanish under the 4-wise independent signs)
    /// and variance `O(F2²/width)`; the median over rows boosts the
    /// success probability exactly as in Alon–Matias–Szegedy. A pure
    /// function of the linear table, so it commutes with
    /// [`CountSketch::merge`] and round-trips bit-exactly through the
    /// wire format.
    pub fn f2_estimate(&self) -> f64 {
        let mut per_row: Vec<f64> = (0..self.rows)
            .map(|r| {
                let stripe = &self.table[r * self.width..(r + 1) * self.width];
                let sum: i128 = stripe.iter().map(|&c| (c as i128) * (c as i128)).sum();
                sum as f64
            })
            .collect();
        per_row.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mid = per_row.len() / 2;
        if per_row.len() % 2 == 1 {
            per_row[mid]
        } else {
            (per_row[mid - 1] + per_row[mid]) / 2.0
        }
    }

    /// Merge a sketch built with the same shape and seed (CountSketch is
    /// a linear sketch: tables add). Panics on mismatch.
    pub fn merge(&mut self, other: &CountSketch) {
        assert_eq!(
            self.rows,
            other.rows,
            "CountSketch merge requires identical configuration (rows)"
        );
        assert_eq!(
            self.width,
            other.width,
            "CountSketch merge requires identical configuration (width)"
        );
        assert_eq!(
            (self.buckets[0].hash(0x5eed_c0de), self.signs[0].sign(0x5eed_c0de)),
            (other.buckets[0].hash(0x5eed_c0de), other.signs[0].sign(0x5eed_c0de)),
            "CountSketch merge requires identical hash functions"
        );
        for (a, &b) in self.table.iter_mut().zip(&other.table) {
            *a += b;
        }
        self.merges += 1 + other.merges;
        self.updates += other.updates;
    }

    /// Heat counter: update operations absorbed so far.
    pub fn heat_updates(&self) -> u64 {
        self.updates
    }

    /// Restore the heat and merge counters after wire reconstruction
    /// ([`CountSketch::from_parts`] deliberately zeroes them — telemetry
    /// is not state).
    pub fn restore_telemetry(&mut self, updates: u64, merges: u64) {
        self.updates = updates;
        self.merges = merges;
    }

    /// Telemetry snapshot (fixed table: fill = capacity = cells).
    /// `updates` stays 0 here: the heat counter is surfaced through the
    /// space ledger, and the `"sketch"` event layout predates it (its
    /// bytes are part of the trace bit-neutrality contract).
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

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-row bucket hashes (wire serialization).
    pub fn bucket_hashes(&self) -> &[KWise] {
        &self.buckets
    }

    /// The per-row sign hashes (wire serialization).
    pub fn sign_hashes(&self) -> &[SignHash] {
        &self.signs
    }

    /// The raw counter table, row-major (wire serialization).
    pub fn table(&self) -> &[i64] {
        &self.table
    }

    /// Rebuild from parts. Fails on shape mismatches.
    pub fn from_parts(
        rows: usize,
        width: usize,
        buckets: Vec<KWise>,
        signs: Vec<SignHash>,
        table: Vec<i64>,
    ) -> Result<Self, String> {
        if !(1..=32).contains(&rows) || width < 2 {
            return Err("bad CountSketch shape".into());
        }
        if buckets.len() != rows || signs.len() != rows || rows.checked_mul(width) != Some(table.len()) {
            return Err("CountSketch parts have inconsistent lengths".into());
        }
        Ok(CountSketch {
            rows,
            width,
            buckets,
            signs,
            table,
            updates: 0,
            merges: 0,
        })
    }
}

impl SpaceUsage for CountSketch {
    /// The counter table plus the per-row bucket/sign hashes. Heat lands
    /// on the `rows` leaf — every update writes one counter per row, so
    /// `touched_words = updates × rows`.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.child("rows").add(Space {
            words: self.table.len() as u64,
            updates: self.updates,
            touched_words: self.updates * self.rows as u64,
        });
        node.leaf(
            "hashes",
            self.buckets.iter().map(KWise::space_words).sum::<usize>()
                + self.signs.iter().map(SignHash::space_words).sum::<usize>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_item_recovered_exactly() {
        let mut cs = CountSketch::new(5, 16, 3);
        for _ in 0..25 {
            cs.insert(7);
        }
        assert_eq!(cs.query(7), 25);
    }

    #[test]
    fn absent_item_near_zero_on_sparse_stream() {
        let mut cs = CountSketch::new(5, 64, 11);
        for i in 0..10u64 {
            cs.insert(i);
        }
        // With 10 items of weight 1 in 64 buckets, any fixed absent item
        // collides rarely; the median estimate should be small.
        let est = cs.query(9999);
        assert!(est.abs() <= 2, "absent item estimate {est}");
    }

    #[test]
    fn heavy_item_estimate_within_half() {
        let mut cs = CountSketch::new(7, 256, 2024);
        // Heavy item of frequency 1000 against 5000 noise items of freq 1.
        for _ in 0..1000 {
            cs.insert(0);
        }
        for i in 1..=5000u64 {
            cs.insert(i);
        }
        let est = cs.query(0);
        assert!(
            (500..=1500).contains(&est),
            "heavy estimate {est} outside (1±1/2)·1000"
        );
    }

    #[test]
    fn signed_updates_cancel() {
        let mut cs = CountSketch::new(3, 8, 5);
        cs.update(4, 10);
        cs.update(4, -10);
        assert_eq!(cs.query(4), 0);
    }

    #[test]
    fn linearity_of_updates() {
        let mut a = CountSketch::new(3, 16, 9);
        let mut b = CountSketch::new(3, 16, 9);
        a.update(1, 3);
        a.update(1, 4);
        b.update(1, 7);
        assert_eq!(a.query(1), b.query(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = CountSketch::new(4, 32, 77);
        let mut b = CountSketch::new(4, 32, 77);
        for i in 0..500u64 {
            a.insert(i % 37);
            b.insert(i % 37);
        }
        for i in 0..37u64 {
            assert_eq!(a.query(i), b.query(i));
        }
    }

    #[test]
    fn space_counts_table_and_hashes() {
        let cs = CountSketch::new(2, 8, 1);
        assert!(cs.space_words() >= 16, "at least the table");
    }

    #[test]
    fn merge_is_linear() {
        let mut left = CountSketch::new(3, 32, 9);
        let mut right = CountSketch::new(3, 32, 9);
        let mut both = CountSketch::new(3, 32, 9);
        for i in 0..200u64 {
            left.insert(i % 17);
            both.insert(i % 17);
            right.update(i % 11, 2);
            both.update(i % 11, 2);
        }
        left.merge(&right);
        for i in 0..17u64 {
            assert_eq!(left.query(i), both.query(i));
        }
    }

    #[test]
    fn f2_estimate_exact_for_single_item() {
        // One item of frequency f: every row has a single ±f counter, so
        // each row's sum of squares — and hence the median — is f².
        let mut cs = CountSketch::new(5, 16, 3);
        for _ in 0..12 {
            cs.insert(42);
        }
        assert_eq!(cs.f2_estimate(), 144.0);
    }

    #[test]
    fn f2_estimate_within_tolerance_and_commutes_with_merge() {
        let mut left = CountSketch::new(7, 256, 9);
        let mut right = CountSketch::new(7, 256, 9);
        let mut both = CountSketch::new(7, 256, 9);
        for i in 0..4_000u64 {
            left.insert(i % 500);
            both.insert(i % 500);
            right.insert(i % 313);
            both.insert(i % 313);
        }
        left.merge(&right);
        // Pure function of the (linear) table: bit-identical post-merge.
        assert_eq!(left.f2_estimate().to_bits(), both.f2_estimate().to_bits());
        // And close to the exact F2 of the combined stream.
        let mut freqs = std::collections::HashMap::new();
        for i in 0..4_000u64 {
            *freqs.entry(i % 500).or_insert(0i64) += 1;
            *freqs.entry(i % 313).or_insert(0i64) += 1;
        }
        let truth: f64 = freqs.values().map(|&f| (f * f) as f64).sum();
        let est = both.f2_estimate();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.25, "relative error {rel} (est {est}, truth {truth})");
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let mut a = CountSketch::new(2, 8, 1);
        let b = CountSketch::new(2, 8, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_shape_mismatch() {
        let mut a = CountSketch::new(2, 8, 1);
        let b = CountSketch::new(2, 16, 1);
        a.merge(&b);
    }

    #[test]
    fn heat_updates_count_operations_and_ledger_is_exact() {
        let mut cs = CountSketch::new(3, 16, 9);
        for i in 0..10u64 {
            cs.insert(i);
        }
        cs.update(3, -2);
        cs.insert_batch(&[1, 2, 3]);
        cs.update_batch(&[(4, 5), (6, -1)]);
        assert_eq!(cs.heat_updates(), 10 + 1 + 3 + 2);
        let mut other = CountSketch::new(3, 16, 9);
        other.insert_batch(&[7, 8]);
        cs.merge(&other);
        assert_eq!(cs.heat_updates(), 18);
        // Ledger mirrors the space arithmetic exactly and prices the
        // table traffic at rows words per update.
        let mut node = kcov_obs::LedgerNode::new();
        cs.space_ledger(&mut node);
        assert_eq!(node.total_words(), cs.space_words() as u64);
        let rows = node.get("rows").unwrap();
        assert_eq!(rows.own.words, 48);
        assert_eq!(rows.own.updates, 18);
        assert_eq!(rows.own.touched_words, 18 * 3);
        // Plain wire reconstruction starts the heat counter clean;
        // restore re-applies it.
        let mut back = CountSketch::from_parts(
            cs.rows(),
            cs.width(),
            cs.bucket_hashes().to_vec(),
            cs.sign_hashes().to_vec(),
            cs.table().to_vec(),
        )
        .unwrap();
        assert_eq!(back.heat_updates(), 0);
        back.restore_telemetry(18, 1);
        assert_eq!(back.heat_updates(), 18);
        assert_eq!(back.stats().merges, 1);
    }

    #[test]
    fn query_batch_matches_scalar_query() {
        for rows in [1usize, 2, 5] {
            let mut cs = CountSketch::new(rows, 24, 40 + rows as u64);
            for i in 0..900u64 {
                cs.insert(i * i % 71);
            }
            let items: Vec<u64> = (0..83u64).collect();
            let mut out = vec![5i64];
            cs.query_batch(&items, &mut out);
            let want: Vec<i64> = items.iter().map(|&i| cs.query(i)).collect();
            assert_eq!(out, want, "rows {rows}");
            cs.query_batch(&[], &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn mean_error_shrinks_with_width() {
        // Wider sketches give smaller point-query error on a fixed noisy
        // stream (averaged over items to damp noise).
        let build = |width: usize| {
            let mut cs = CountSketch::new(5, width, 31);
            for i in 0..3000u64 {
                cs.insert(i % 600);
            }
            let mut err = 0.0;
            for i in 0..600u64 {
                err += (cs.query(i) - 5).abs() as f64;
            }
            err / 600.0
        };
        let narrow = build(8);
        let wide = build(512);
        assert!(
            wide <= narrow,
            "wide sketch error {wide} should not exceed narrow {narrow}"
        );
        // F2 = 600·25; a width-512 row has additive error ~√(F2/512) ≈ 5,
        // and the median over 5 rows brings the mean |error| down to ~1.
        assert!(wide < 3.0, "wide sketch error too large: {wide}");
    }
}
