//! Distinct-element (`L0`) estimation — Theorem 2.12.
//!
//! The paper needs a `(1 ± 1/2)`-approximate count of distinct elements in
//! `Õ(1)` space (references [5, 11, 13, 30, 31]): `LargeCommon` measures
//! the coverage of a sampled set collection with it (Fig 3), and
//! `LargeSetComplete` estimates superset coverage with it (Fig 6).
//!
//! We implement the KMV / bottom-k summary: hash every item with a
//! pairwise-independent function into `[0, p)` and keep the `k` smallest
//! distinct hash values; with `v_k` the k-th smallest, `(k−1)·p / v_k` is
//! an unbiased-to-first-order estimate of the distinct count with relative
//! error `O(1/√k)`. [`L0Estimator`] takes the median of several
//! independent KMV summaries to boost the success probability, exactly the
//! repetition structure the paper assumes.

use kcov_hash::{pairwise, KWise, SeedSequence, MERSENNE_P};
use kcov_obs::{SketchStats, Space};

use crate::arena::SortedSlab;
use crate::space::{SpaceSink, SpaceUsage};

/// A single bottom-k (KMV) distinct-count summary.
#[derive(Debug, Clone)]
pub struct Kmv {
    k: usize,
    hash: KWise,
    /// The k smallest distinct hash values seen so far, ascending, in
    /// one flat slab.
    smallest: SortedSlab,
    /// Heat telemetry: items offered to the summary (one add per batch
    /// on the hot path — same lifecycle as the other telemetry
    /// counters: merged by addition, zeroed by plain wire
    /// reconstruction, restored by the full-state sidecar).
    updates: u64,
    /// Telemetry: values displaced after saturation (not state — merged
    /// by addition, zeroed by wire reconstruction, never compared).
    evictions: u64,
    /// Telemetry: merge invocations absorbed.
    merges: u64,
}

impl Kmv {
    /// Create a summary keeping the `k` smallest hash values. Relative
    /// error is `O(1/√k)`; `k = 64` gives roughly ±12%.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "KMV needs k >= 2");
        Kmv {
            k,
            hash: pairwise(seed),
            smallest: SortedSlab::new(k),
            updates: 0,
            evictions: 0,
            merges: 0,
        }
    }

    /// Observe one item (duplicates are free).
    #[inline]
    pub fn insert(&mut self, item: u64) {
        self.updates += 1;
        let h = self.hash.hash(item);
        if self.smallest.len() < self.k {
            self.smallest.insert_unsaturated(h);
        } else if self.smallest.insert_evict(h) {
            self.evictions += 1;
        }
    }

    /// Observe a chunk of items. State-identical to inserting the items
    /// one by one in order; once saturated, the rest of the chunk is
    /// hashed as one [`KWise::hash_batch`] column and the summary
    /// rejects a non-improving item with one compare.
    pub fn insert_batch(&mut self, items: &[u64]) {
        let mut rest = items;
        // Fill phase: until the summary saturates, every distinct hash
        // is kept and the cut-off moves with each insert.
        while self.smallest.len() < self.k {
            let Some((&item, tail)) = rest.split_first() else {
                return;
            };
            self.insert(item);
            rest = tail;
        }
        self.updates += rest.len() as u64;
        // Saturated: the cut-off is the slab's last slot.
        crate::scratch::with_columns(|[hashes]| {
            self.hash.hash_batch(rest, hashes);
            for &h in hashes.iter() {
                if self.smallest.insert_evict(h) {
                    self.evictions += 1;
                }
            }
        });
    }

    /// Estimate the number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        if self.smallest.len() < self.k {
            // Fewer than k distinct hashes: the summary is exact (up to
            // the negligible chance of 61-bit hash collisions).
            self.smallest.len() as f64
        } else {
            let vk = self.smallest.max().expect("non-empty") as f64;
            (self.k as f64 - 1.0) * MERSENNE_P as f64 / vk
        }
    }

    /// True iff the summary is still exact (saw fewer than k distinct
    /// hash values).
    pub fn is_exact(&self) -> bool {
        self.smallest.len() < self.k
    }

    /// The configured k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The rank hash (wire serialization).
    pub fn hash(&self) -> &KWise {
        &self.hash
    }

    /// The kept hash values, ascending (wire serialization).
    pub fn kept_values(&self) -> Vec<u64> {
        self.smallest.values().to_vec()
    }

    /// Rebuild from parts (inverse of the accessors). Fails when the
    /// value set exceeds `k` or `k < 2`.
    pub fn from_parts(k: usize, hash: KWise, values: Vec<u64>) -> Result<Self, String> {
        if k < 2 {
            return Err("KMV needs k >= 2".into());
        }
        if values.len() > k {
            return Err(format!("{} kept values exceed k = {k}", values.len()));
        }
        Ok(Kmv {
            k,
            hash,
            smallest: SortedSlab::from_values(k, values),
            updates: 0,
            evictions: 0,
            merges: 0,
        })
    }

    /// Merge a summary built with the *same `k` and seed* (bottom-k
    /// summaries are mergeable under set union — the property the
    /// BEM-style baseline and distributed deployments rely on). Panics
    /// if the configurations or hash functions differ.
    pub fn merge(&mut self, other: &Kmv) {
        assert_eq!(
            self.k, other.k,
            "Kmv merge requires identical configuration (k)"
        );
        assert_eq!(
            self.hash.hash(0x5eed_c0de),
            other.hash.hash(0x5eed_c0de),
            "Kmv merge requires identical hash functions"
        );
        // Union of the kept sets, trimmed back to the k smallest; every
        // value dropped past k is one eviction.
        let mut union = self.smallest.values().to_vec();
        union.extend_from_slice(other.smallest.values());
        union.sort_unstable();
        union.dedup();
        self.evictions += union.len().saturating_sub(self.k) as u64;
        union.truncate(self.k);
        self.smallest = SortedSlab::from_values(self.k, union);
        self.merges += 1 + other.merges;
        self.evictions += other.evictions;
        self.updates += other.updates;
    }

    /// Restore telemetry counters after wire reconstruction.
    /// [`Kmv::from_parts`] deliberately zeroes them (telemetry is not
    /// state); a full-state decode that wants the replica's finalize
    /// snapshot to match in-process ingestion re-applies the serialized
    /// counters with this.
    pub fn restore_telemetry(&mut self, updates: u64, evictions: u64, merges: u64) {
        self.updates = updates;
        self.evictions = evictions;
        self.merges = merges;
    }

    /// Heat counter: items offered to this summary so far.
    pub fn heat_updates(&self) -> u64 {
        self.updates
    }

    /// Telemetry snapshot (fill, capacity, evictions, merges).
    /// `updates` stays 0 here: the heat counter is surfaced through the
    /// space ledger, and the `"sketch"` event layout predates it (its
    /// bytes are part of the trace bit-neutrality contract).
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            updates: 0,
            fill: self.smallest.len() as u64,
            capacity: self.k as u64,
            evictions: self.evictions,
            prunes: 0,
            merges: self.merges,
        }
    }
}

impl SpaceUsage for Kmv {
    /// Kept values + rank hash. Heat lands on the `values` leaf (each
    /// accepted probe touches one resident entry).
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.child("values").add(Space {
            words: self.smallest.len() as u64,
            updates: self.updates,
            touched_words: self.updates,
        });
        node.leaf("hash", self.hash.space_words());
    }
}

/// Median-of-repetitions `L0` estimator with the Theorem 2.12 interface:
/// single pass, `Õ(1)` space, `(1 ± ε)` multiplicative error with high
/// probability for the configured `k` and repetition count.
#[derive(Debug, Clone)]
pub struct L0Estimator {
    reps: Vec<Kmv>,
}

impl L0Estimator {
    /// `reps` independent KMV summaries of size `k` each.
    pub fn new(k: usize, reps: usize, seed: u64) -> Self {
        assert!(reps >= 1, "need at least one repetition");
        let mut seq = SeedSequence::labeled(seed, "l0-estimator");
        L0Estimator {
            reps: (0..reps).map(|_| Kmv::new(k, seq.next_seed())).collect(),
        }
    }

    /// Default configuration giving comfortably better than the
    /// `(1 ± 1/2)` guarantee of Theorem 2.12: k = 64, 5 repetitions.
    pub fn with_default_accuracy(seed: u64) -> Self {
        L0Estimator::new(64, 5, seed)
    }

    /// Observe one item.
    #[inline]
    pub fn insert(&mut self, item: u64) {
        for r in &mut self.reps {
            r.insert(item);
        }
    }

    /// Observe a chunk of items: each repetition consumes the whole
    /// chunk in turn. Repetitions are independent, so the final state is
    /// identical to per-item insertion while the per-item dispatch cost
    /// is paid once per repetition per chunk.
    pub fn insert_batch(&mut self, items: &[u64]) {
        for r in &mut self.reps {
            r.insert_batch(items);
        }
    }

    /// Median estimate across repetitions.
    pub fn estimate(&self) -> f64 {
        let mut ests: Vec<f64> = self.reps.iter().map(Kmv::estimate).collect();
        ests.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        ests[ests.len() / 2]
    }

    /// Merge an estimator built with the same seed and shape (merges
    /// repetition-wise). Panics on mismatched shapes or seeds.
    pub fn merge(&mut self, other: &L0Estimator) {
        assert_eq!(
            self.reps.len(),
            other.reps.len(),
            "L0Estimator merge requires identical configuration (repetitions)"
        );
        for (a, b) in self.reps.iter_mut().zip(&other.reps) {
            a.merge(b);
        }
    }

    /// The underlying KMV repetitions (wire serialization).
    pub fn repetitions(&self) -> &[Kmv] {
        &self.reps
    }

    /// Aggregate telemetry snapshot over all repetitions.
    pub fn stats(&self) -> SketchStats {
        let mut agg = SketchStats::default();
        for r in &self.reps {
            agg.absorb(r.stats());
        }
        agg
    }

    /// Restore per-repetition telemetry counters
    /// (`(updates, evictions, merges)` triples, repetition order) after
    /// wire reconstruction. Fails when the slice length disagrees with
    /// the repetition count.
    pub fn restore_telemetry(&mut self, counters: &[(u64, u64, u64)]) -> Result<(), String> {
        if counters.len() != self.reps.len() {
            return Err(format!(
                "{} telemetry entries for {} repetitions",
                counters.len(),
                self.reps.len()
            ));
        }
        for (rep, &(updates, evictions, merges)) in self.reps.iter_mut().zip(counters) {
            rep.restore_telemetry(updates, evictions, merges);
        }
        Ok(())
    }

    /// Rebuild from parts (inverse of [`L0Estimator::repetitions`]).
    /// Fails when empty or when the repetitions disagree on `k`.
    pub fn from_parts(reps: Vec<Kmv>) -> Result<Self, String> {
        if reps.is_empty() {
            return Err("need at least one repetition".into());
        }
        let k = reps[0].k();
        if reps.iter().any(|r| r.k() != k) {
            return Err("repetitions disagree on k".into());
        }
        Ok(L0Estimator { reps })
    }
}

impl SpaceUsage for L0Estimator {
    /// Repetitions accumulate into the same `values`/`hash` children
    /// (bounding the tree size while keeping the leaf sum exact).
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        for rep in &self.reps {
            rep.space_ledger(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_k() {
        let mut kmv = Kmv::new(32, 1);
        for i in 0..20u64 {
            kmv.insert(i);
            kmv.insert(i); // duplicates are ignored
        }
        assert!(kmv.is_exact());
        assert_eq!(kmv.estimate(), 20.0);
    }

    #[test]
    fn duplicates_do_not_change_estimate() {
        let mut a = Kmv::new(16, 3);
        let mut b = Kmv::new(16, 3);
        for i in 0..1000u64 {
            a.insert(i);
            b.insert(i);
            b.insert(i);
            b.insert(i % 7);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn estimate_within_tolerance_large_stream() {
        let mut est = L0Estimator::new(128, 7, 42);
        let true_count = 50_000u64;
        for i in 0..true_count {
            est.insert(i.wrapping_mul(0x9e3779b9)); // arbitrary distinct keys
        }
        let e = est.estimate();
        let rel = (e - true_count as f64).abs() / true_count as f64;
        assert!(rel < 0.15, "relative error {rel} too large (est {e})");
    }

    #[test]
    fn theorem_2_12_interface_half_approximation() {
        // (1 ± 1/2)-approximation must hold across many seeds.
        for seed in 0..20u64 {
            let mut est = L0Estimator::with_default_accuracy(seed);
            let n = 10_000u64;
            for i in 0..n {
                est.insert(i * 31 + 7);
            }
            let e = est.estimate();
            assert!(
                e >= n as f64 * 0.5 && e <= n as f64 * 1.5,
                "seed {seed}: estimate {e} outside (1±1/2)·{n}"
            );
        }
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let est = L0Estimator::new(16, 3, 0);
        assert_eq!(est.estimate(), 0.0);
    }

    #[test]
    fn space_is_bounded_by_k_and_reps() {
        let mut est = L0Estimator::new(32, 4, 9);
        for i in 0..100_000u64 {
            est.insert(i);
        }
        // 4 reps × (≤32 kept values + pairwise hash of 2 words).
        assert!(est.space_words() <= 4 * (32 + 2));
    }

    #[test]
    fn monotone_in_distinct_count() {
        // More distinct elements should (statistically) raise the median
        // estimate; check a 10x gap is clearly resolved.
        let mut small = L0Estimator::new(64, 5, 11);
        let mut large = L0Estimator::new(64, 5, 11);
        for i in 0..1_000u64 {
            small.insert(i);
        }
        for i in 0..10_000u64 {
            large.insert(i);
        }
        assert!(large.estimate() > 4.0 * small.estimate());
    }

    #[test]
    #[should_panic(expected = "KMV needs k >= 2")]
    fn tiny_k_rejected() {
        let _ = Kmv::new(1, 0);
    }

    #[test]
    fn kmv_merge_equals_union_stream() {
        let mut left = Kmv::new(32, 9);
        let mut right = Kmv::new(32, 9);
        let mut both = Kmv::new(32, 9);
        for i in 0..3_000u64 {
            left.insert(i);
            both.insert(i);
        }
        for i in 1_500..5_000u64 {
            right.insert(i);
            both.insert(i);
        }
        left.merge(&right);
        assert_eq!(left.estimate(), both.estimate());
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn kmv_merge_rejects_seed_mismatch() {
        let mut a = Kmv::new(8, 1);
        let b = Kmv::new(8, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn kmv_merge_rejects_k_mismatch() {
        // Same seed, different k: the bottom-k cut-offs differ, so a
        // union of the kept sets is not the union-stream summary.
        let mut a = Kmv::new(8, 1);
        let b = Kmv::new(16, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn estimator_merge_rejects_rep_count_mismatch() {
        let mut a = L0Estimator::new(16, 3, 1);
        let b = L0Estimator::new(16, 4, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn estimator_merge_rejects_seed_mismatch() {
        let mut a = L0Estimator::new(16, 3, 1);
        let b = L0Estimator::new(16, 3, 2);
        a.merge(&b);
    }

    #[test]
    fn estimator_from_parts_roundtrips() {
        let mut est = L0Estimator::new(16, 3, 5);
        for i in 0..500u64 {
            est.insert(i);
        }
        let back = L0Estimator::from_parts(est.repetitions().to_vec()).unwrap();
        assert_eq!(est.estimate(), back.estimate());
        assert!(L0Estimator::from_parts(Vec::new()).is_err());
        let mixed = vec![Kmv::new(8, 1), Kmv::new(16, 1)];
        assert!(L0Estimator::from_parts(mixed).is_err());
    }

    #[test]
    fn stats_track_fill_evictions_and_merges() {
        let mut kmv = Kmv::new(8, 3);
        for i in 0..100u64 {
            kmv.insert(i);
        }
        let st = kmv.stats();
        assert_eq!(st.fill, 8);
        assert_eq!(st.capacity, 8);
        assert!(st.evictions > 0, "saturated summary must have evicted");
        assert_eq!(st.merges, 0);
        let other = Kmv::new(8, 3);
        kmv.merge(&other);
        assert_eq!(kmv.stats().merges, 1);
        // Telemetry is not state: wire reconstruction starts clean.
        let back = Kmv::from_parts(kmv.k(), kmv.hash().clone(), kmv.kept_values()).unwrap();
        assert_eq!(back.stats().evictions, 0);
        assert_eq!(back.stats().fill, 8);
    }

    #[test]
    fn heat_updates_count_offers_and_merge_adds() {
        let items: Vec<u64> = (0..500u64).collect();
        let mut scalar = Kmv::new(8, 3);
        for &i in &items {
            scalar.insert(i);
        }
        assert_eq!(scalar.heat_updates(), 500);
        // Batched ingestion counts identically, across chunk sizes that
        // straddle the fill phase.
        for chunk in [1usize, 3, 64, 500] {
            let mut batched = Kmv::new(8, 3);
            for block in items.chunks(chunk) {
                batched.insert_batch(block);
            }
            assert_eq!(batched.heat_updates(), 500, "chunk {chunk}");
        }
        // Merge is additive; wire reconstruction zeroes, restore
        // re-applies.
        let mut other = Kmv::new(8, 3);
        other.insert_batch(&items[..100]);
        scalar.merge(&other);
        assert_eq!(scalar.heat_updates(), 600);
        let mut back =
            Kmv::from_parts(scalar.k(), scalar.hash().clone(), scalar.kept_values()).unwrap();
        assert_eq!(back.heat_updates(), 0);
        back.restore_telemetry(600, 2, 1);
        assert_eq!(back.heat_updates(), 600);
        assert_eq!(back.stats().evictions, 2);
    }

    #[test]
    fn ledger_counts_the_saturated_shape() {
        let mut est = L0Estimator::new(16, 3, 5);
        for i in 0..400u64 {
            est.insert(i);
        }
        let mut node = kcov_obs::LedgerNode::new();
        est.space_ledger(&mut node);
        // 400 distinct items saturate all 3 repetitions: 16 kept values
        // plus a pairwise rank hash (2 words) each.
        assert_eq!(node.total_words(), 3 * (16 + 2));
        assert_eq!(est.space_words(), 3 * (16 + 2));
        assert_eq!(node.total_updates(), 3 * 400);
        // Reps aggregate into exactly two leaves.
        assert!(node.get("values").unwrap().is_leaf());
        assert!(node.get("hash").unwrap().is_leaf());
        assert_eq!(node.children().count(), 2);
    }

    #[test]
    fn estimator_merge_matches_union() {
        let mut left = L0Estimator::new(32, 3, 4);
        let mut right = L0Estimator::new(32, 3, 4);
        let mut both = L0Estimator::new(32, 3, 4);
        for i in 0..2_000u64 {
            left.insert(i * 2);
            both.insert(i * 2);
            right.insert(i * 2 + 1);
            both.insert(i * 2 + 1);
        }
        left.merge(&right);
        assert_eq!(left.estimate(), both.estimate());
    }
}
