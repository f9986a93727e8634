//! CountSketch — Charikar, Chen & Farach-Colton (reference \[18\] of the
//! paper), the linear sketch behind `F2`/`L2` heavy hitters
//! (Theorem 2.10).
//!
//! A `rows × width` table of counters. Row `r` sends each item to a
//! bucket with a sign; the point-query estimate of `a⃗[i]` is the median
//! over rows of `sign_r(i) · table[r][bucket_r(i)]`. With `width =
//! O(1/φ)` the additive error of each row is `O(√(φ·F2))` with constant
//! probability, so medians over `O(log)` independently addressed rows
//! recover every `φ`-heavy hitter to within a `(1 ± 1/2)` factor. Here
//! two rows share one mix word (below), so the median's success
//! boosting counts the `⌈rows/2⌉` independent words, not the rows: a
//! 5-row sketch has 3 independent words.
//!
//! **Row addressing: one mix word per two rows.** An item's buckets and
//! signs come from `⌈rows/2⌉` *mix words*, 4-wise independent polynomial
//! hashes `g_j` into `[0, 2^61 − 1)`. Row `2j` reads the 30-bit field at
//! bits [31, 61) of `g_j(i)`, row `2j + 1` the field at bits [1, 31).
//! A field's low bit is the sign (`+1` when clear); its other 29 bits
//! `x` pick the bucket `⌊x · width / 2^29⌋`. The width is capped at
//! [`MAX_WIDTH`] = 2^22, where every bucket's probability is within
//! `(1 ± 2^-7)/width`.
//!
//! Independence: `g_j(i)` is uniform on `[0, 2^61 − 1)`, which misses one
//! of the 2^61 bit patterns, so its disjoint bit fields are independent
//! up to a 2^-61 perturbation. Hence:
//! - each row's (bucket, sign) pair is a function of a 4-wise
//!   independent value, so buckets and signs are 4-wise independent
//!   across items;
//! - for any ≤ 4 items, the fields of the two rows sharing a word are
//!   jointly independent. The covariance of two rows' point-query errors
//!   for item `i` expands into terms over `i` and two other items, ≤ 3
//!   in all, so it vanishes as for independently drawn rows, and the
//!   median keeps its Chebyshev bound. One word's two failure events
//!   are uncorrelated but not independent, so boosting over more rows
//!   counts words (above);
//! - [`CountSketch::f2_estimate`]'s AMS variance bound needs 4-wise
//!   signs, which every row has.
//!
//! An owner that feeds one item stream to several sketches drawn with
//! the same mix (the levels of an `F2Contributing` finder) evaluates the
//! words once with [`CountSketch::mix_batch`] and hands them to each
//! sketch through [`CountSketch::insert_mixed`] and
//! [`CountSketch::query_mixed`].

use kcov_hash::{four_wise, KWise, SeedSequence};
use kcov_obs::{SketchStats, Space};

use crate::space::{SpaceSink, SpaceUsage};

/// The widest row a mix-word field addresses with bucket probabilities
/// within `(1 ± 2^-7)/width`.
pub const MAX_WIDTH: usize = 1 << 22;

/// Bit offset of row `r`'s 30-bit field in its mix word, by `r`'s parity.
const FIELD_SHIFT: [u32; 2] = [31, 1];
const FIELD_MASK: u64 = (1 << 30) - 1;

/// The (bucket, sign) that row `row` reads from its mix word `h`.
#[inline]
fn cell(h: u64, row: usize, width: u64) -> (usize, i64) {
    let field = (h >> FIELD_SHIFT[row & 1]) & FIELD_MASK;
    (
        (((field >> 1) * width) >> 29) as usize,
        1 - 2 * (field & 1) as i64,
    )
}

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
    /// `⌈rows/2⌉` 4-wise mix words; word `j` addresses rows `2j` and
    /// `2j + 1`.
    mix: Vec<KWise>,
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
    /// Create a sketch with `rows` rows of `width` counters
    /// (`1 ≤ rows ≤ 32`, `2 ≤ width ≤ MAX_WIDTH`).
    pub fn new(rows: usize, width: usize, seed: u64) -> Self {
        Self::with_mix(rows, width, Self::draw_mix(rows, seed))
    }

    /// The `⌈rows/2⌉` mix words a `rows`-row sketch draws from `seed`.
    pub fn draw_mix(rows: usize, seed: u64) -> Vec<KWise> {
        let mut seq = SeedSequence::labeled(seed, "count-sketch");
        (0..rows.div_ceil(2))
            .map(|_| four_wise(seq.next_seed()))
            .collect()
    }

    /// An empty sketch addressed by the given mix words (for owners that
    /// share one mix across several sketches). Panics on a bad shape.
    pub fn with_mix(rows: usize, width: usize, mix: Vec<KWise>) -> Self {
        assert!((1..=32).contains(&rows), "rows must be in 1..=32");
        assert!(
            (2..=MAX_WIDTH).contains(&width),
            "width must be in 2..=2^22"
        );
        Self::from_parts(rows, width, mix, vec![0; rows * width]).expect("mix words fit the rows")
    }

    /// The mix words of one item, without allocating: the first
    /// [`CountSketch::mix_words`] entries (`rows ≤ 32`, so at most 16).
    #[inline]
    pub fn mix_item(&self, item: u64) -> [u64; 16] {
        let mut words = [0u64; 16];
        for (w, g) in words.iter_mut().zip(&self.mix) {
            *w = g.hash(item);
        }
        words
    }

    /// Observe one occurrence of `item`.
    #[inline]
    pub fn insert(&mut self, item: u64) {
        self.update(item, 1);
    }

    /// General signed update (`a⃗[item] += delta`).
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        let words = self.mix_item(item);
        self.updates += 1;
        for (row, stripe) in self.table.chunks_exact_mut(self.width).enumerate() {
            let (bucket, sign) = cell(words[row / 2], row, self.width as u64);
            stripe[bucket] += sign * delta;
        }
    }

    /// Mix words per item: one per two rows.
    pub fn mix_words(&self) -> usize {
        self.mix.len()
    }

    /// The mix words of a column of items into `out` (cleared first),
    /// item-major: `out[i · mix_words() + j]` is word `j` of `items[i]`.
    /// Each word runs as one blocked [`KWise::hash_batch`] over the
    /// column.
    pub fn mix_batch(&self, items: &[u64], out: &mut Vec<u64>) {
        let words = self.mix.len();
        out.clear();
        out.resize(items.len() * words, 0);
        crate::scratch::with_columns(|[col]| {
            for (j, g) in self.mix.iter().enumerate() {
                g.hash_batch(items, col);
                for (o, &h) in out.iter_mut().skip(j).step_by(words).zip(col.iter()) {
                    *o = h;
                }
            }
        });
    }

    /// Observe one occurrence of each item whose mix words are `mixed`
    /// (the [`CountSketch::mix_batch`] layout, under this sketch's mix
    /// or an equal one). The table is linear, so the state is identical
    /// to per-item insertion in any order; row-outer keeps each row's
    /// table stripe hot across the column.
    pub fn insert_mixed(&mut self, mixed: &[u64]) {
        let words = self.mix.len();
        debug_assert_eq!(mixed.len() % words, 0);
        self.updates += (mixed.len() / words) as u64;
        let w = self.width as u64;
        for (row, stripe) in self.table.chunks_exact_mut(self.width).enumerate() {
            for &h in mixed.iter().skip(row / 2).step_by(words) {
                let (bucket, sign) = cell(h, row, w);
                stripe[bucket] += sign;
            }
        }
    }

    /// Observe one occurrence of each item in a chunk: one
    /// [`CountSketch::mix_batch`], then [`CountSketch::insert_mixed`].
    pub fn insert_batch(&mut self, items: &[u64]) {
        crate::scratch::with_columns(|[mixed]| {
            self.mix_batch(items, mixed);
            self.insert_mixed(mixed);
        });
    }

    /// Point query: median-of-rows estimate of `a⃗[item]`.
    pub fn query(&self, item: u64) -> i64 {
        let words = self.mix_item(item);
        // Stack buffer: rows are small and this is on the hot path.
        let mut buf = [0i64; 32];
        for (row, stripe) in self.table.chunks_exact(self.width).enumerate() {
            let (bucket, sign) = cell(words[row / 2], row, self.width as u64);
            buf[row] = sign * stripe[bucket];
        }
        median_toward_zero(&mut buf[..self.rows])
    }

    /// [`CountSketch::query`] of each item whose mix words are `mixed`
    /// (the [`CountSketch::mix_batch`] layout) into `out` (cleared
    /// first). Row-outer, so each row's table stripe stays hot; the
    /// per-item median then reads the row estimates back column-wise.
    pub fn query_mixed(&self, mixed: &[u64], out: &mut Vec<i64>) {
        let words = self.mix.len();
        let n = mixed.len() / words;
        let w = self.width as u64;
        let mut ests = vec![0i64; self.rows * n];
        for (row, col) in ests.chunks_exact_mut(n.max(1)).enumerate() {
            let stripe = &self.table[row * self.width..(row + 1) * self.width];
            for (e, &h) in col
                .iter_mut()
                .zip(mixed.iter().skip(row / 2).step_by(words))
            {
                let (bucket, sign) = cell(h, row, w);
                *e = sign * stripe[bucket];
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
    /// `F2` (the cross terms vanish under the row's signs) and variance
    /// `O(F2²/width)` (its 4-wise independent signs and buckets); the
    /// median over rows boosts the success probability exactly as in
    /// Alon–Matias–Szegedy. A pure function of the linear table, so it
    /// commutes with [`CountSketch::merge`] and round-trips bit-exactly
    /// through the wire format.
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

    /// Merge a sketch built with the same shape and mix (CountSketch is
    /// a linear sketch: tables add). Panics on mismatch.
    pub fn merge(&mut self, other: &CountSketch) {
        assert_eq!(
            self.rows, other.rows,
            "CountSketch merge requires identical configuration (rows)"
        );
        assert_eq!(
            self.width, other.width,
            "CountSketch merge requires identical configuration (width)"
        );
        assert!(
            self.mix == other.mix,
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

    /// The mix words (wire serialization).
    pub fn mix(&self) -> &[KWise] {
        &self.mix
    }

    /// The raw counter table, row-major (wire serialization).
    pub fn table(&self) -> &[i64] {
        &self.table
    }

    /// Rebuild from parts. Fails on a shape outside `1..=32` rows and
    /// `2..=MAX_WIDTH` counters, a mix-word count other than
    /// `⌈rows/2⌉`, a mix word that is not 4-wise, or a table of the
    /// wrong size.
    pub fn from_parts(
        rows: usize,
        width: usize,
        mix: Vec<KWise>,
        table: Vec<i64>,
    ) -> Result<Self, String> {
        if !(1..=32).contains(&rows) || !(2..=MAX_WIDTH).contains(&width) {
            return Err(format!(
                "bad CountSketch shape ({rows} rows of width {width})"
            ));
        }
        if mix.len() != rows.div_ceil(2) {
            return Err(format!(
                "{} mix words for {rows} CountSketch rows",
                mix.len()
            ));
        }
        if let Some(g) = mix.iter().find(|g| g.independence() != 4) {
            return Err(format!(
                "CountSketch mix word of degree {} (need 4)",
                g.independence()
            ));
        }
        if rows.checked_mul(width) != Some(table.len()) {
            return Err("CountSketch table size mismatch".into());
        }
        Ok(CountSketch {
            rows,
            width,
            mix,
            table,
            updates: 0,
            merges: 0,
        })
    }
}

impl SpaceUsage for CountSketch {
    /// The counter table plus the mix words. Heat lands
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
            self.mix.iter().map(KWise::space_words).sum::<usize>(),
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
    fn f2_estimate_tracks_truth() {
        // Single item of frequency f: every row holds ±f in one bucket,
        // so each row's sum of squares is exactly f².
        let mut cs = CountSketch::new(5, 320, 4);
        cs.insert_batch(&[9; 50]);
        assert_eq!(cs.f2_estimate(), 2500.0);
        // Mixed stream: within AMS-style tolerance of the exact F2.
        let mut cs = CountSketch::new(5, 3200, 2024);
        let items: Vec<u64> = (0..500u64).flat_map(|i| [i; 10]).collect();
        cs.insert_batch(&items);
        let truth = 500.0 * 100.0;
        let est = cs.f2_estimate();
        let rel = (est - truth).abs() / truth;
        assert!(
            rel < 0.25,
            "relative error {rel} (est {est}, truth {truth})"
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
        assert!(
            rel < 0.25,
            "relative error {rel} (est {est}, truth {truth})"
        );
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
        cs.update(4, 5);
        cs.update(6, -1);
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
            cs.mix().to_vec(),
            cs.table().to_vec(),
        )
        .unwrap();
        assert_eq!(back.heat_updates(), 0);
        back.restore_telemetry(18, 1);
        assert_eq!(back.heat_updates(), 18);
        assert_eq!(back.stats().merges, 1);
    }

    #[test]
    fn query_mixed_matches_scalar_query() {
        for rows in [1usize, 2, 3, 4, 5] {
            let mut cs = CountSketch::new(rows, 24, 40 + rows as u64);
            for i in 0..900u64 {
                cs.insert(i * i % 71);
            }
            let items: Vec<u64> = (0..83u64).collect();
            let (mut mixed, mut out) = (Vec::new(), vec![5i64]);
            cs.mix_batch(&items, &mut mixed);
            cs.query_mixed(&mixed, &mut out);
            let want: Vec<i64> = items.iter().map(|&i| cs.query(i)).collect();
            assert_eq!(out, want, "rows {rows}");
            cs.mix_batch(&[], &mut mixed);
            cs.query_mixed(&mixed, &mut out);
            assert!(out.is_empty());
        }
    }

    /// The (bucket, sign) of `item` in every row.
    fn cells(cs: &CountSketch, item: u64) -> Vec<(usize, i64)> {
        let words = cs.mix_item(item);
        (0..cs.rows())
            .map(|row| cell(words[row / 2], row, cs.width() as u64))
            .collect()
    }

    const SEEDS: u64 = 4_000;

    #[test]
    fn each_row_collides_at_one_over_width() {
        // Two fixed keys share a row's bucket with probability 1/width.
        let width = 16;
        let mut hits = [0u64; 2];
        for seed in 0..SEEDS {
            let cs = CountSketch::new(2, width, 7_000 + seed);
            let (a, b) = (cells(&cs, 3), cells(&cs, 1_000_003));
            for row in 0..2 {
                hits[row] += u64::from(a[row].0 == b[row].0);
            }
        }
        let expect = SEEDS as f64 / width as f64;
        for (row, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < 0.25 * expect,
                "row {row}: {h} collisions, expected {expect}"
            );
        }
    }

    #[test]
    fn both_rows_collide_at_one_over_width_squared() {
        // The rows sharing a mix word read disjoint bit fields, so a
        // pair collides in both at 1/width².
        let width = 4;
        let mut both = 0u64;
        for seed in 0..SEEDS {
            let cs = CountSketch::new(2, width, 11_000 + seed);
            let (a, b) = (cells(&cs, 17), cells(&cs, 42));
            both += u64::from(a[0].0 == b[0].0 && a[1].0 == b[1].0);
        }
        let expect = SEEDS as f64 / (width * width) as f64;
        assert!(
            (both as f64 - expect).abs() < 0.25 * expect,
            "{both} double collisions, expected {expect}"
        );
    }

    #[test]
    fn fourth_sign_moment_vanishes_per_row() {
        // 4-wise independent signs: E[s(a)s(b)s(c)s(d)] = 0 in each row.
        let mut acc = [0i64; 2];
        for seed in 0..SEEDS {
            let cs = CountSketch::new(2, 8, 31_337 + seed);
            let rows: Vec<Vec<(usize, i64)>> =
                [10u64, 20, 30, 40].iter().map(|&k| cells(&cs, k)).collect();
            for (row, a) in acc.iter_mut().enumerate() {
                *a += rows.iter().map(|c| c[row].1).product::<i64>();
            }
        }
        for (row, &a) in acc.iter().enumerate() {
            let mean = a as f64 / SEEDS as f64;
            assert!(mean.abs() < 0.1, "row {row}: 4th joint sign moment {mean}");
        }
    }

    #[test]
    fn every_insert_path_gives_the_same_table() {
        let items: Vec<u64> = (0..1_500u64).map(|i| i * 2_654_435_761 % 9_973).collect();
        for rows in 1..=5usize {
            let mut scalar = CountSketch::new(rows, 64, 90 + rows as u64);
            for &item in &items {
                scalar.insert(item);
            }
            for chunk in [1usize, 7, 8, 9, 64, 1_000, items.len()] {
                let mut batched = CountSketch::new(rows, 64, 90 + rows as u64);
                let mut mixed_path = batched.clone();
                let mut mixed = Vec::new();
                for block in items.chunks(chunk) {
                    batched.insert_batch(block);
                    mixed_path.mix_batch(block, &mut mixed);
                    assert_eq!(mixed.len(), block.len() * mixed_path.mix_words());
                    mixed_path.insert_mixed(&mixed);
                }
                assert_eq!(batched.table(), scalar.table(), "rows {rows} chunk {chunk}");
                assert_eq!(
                    mixed_path.table(),
                    scalar.table(),
                    "rows {rows} chunk {chunk}"
                );
                assert_eq!(batched.heat_updates(), scalar.heat_updates());
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_checks_every_mix_word() {
        // Four rows, two words: only the second word differs.
        let a = CountSketch::new(4, 8, 1);
        let other = CountSketch::new(4, 8, 2);
        let mix = vec![a.mix()[0].clone(), other.mix()[1].clone()];
        let b = CountSketch::from_parts(4, 8, mix, vec![0; 32]).unwrap();
        let mut a = a;
        a.merge(&b);
    }

    #[test]
    fn from_parts_pins_the_mix_and_the_width() {
        let cs = CountSketch::new(4, 8, 5);
        let ok = |mix: Vec<KWise>, width: usize| {
            CountSketch::from_parts(4, width, mix, vec![0; 4 * width])
        };
        assert!(ok(cs.mix().to_vec(), 8).is_ok());
        let e = ok(cs.mix()[..1].to_vec(), 8).unwrap_err();
        assert!(e.contains("1 mix words for 4"), "{e}");
        let e = ok(vec![KWise::new(2, 1), cs.mix()[1].clone()], 8).unwrap_err();
        assert!(e.contains("degree 2"), "{e}");
        assert!(ok(cs.mix().to_vec(), MAX_WIDTH).is_ok());
        let e = ok(cs.mix().to_vec(), MAX_WIDTH + 1).unwrap_err();
        assert!(e.contains("bad CountSketch shape"), "{e}");
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
