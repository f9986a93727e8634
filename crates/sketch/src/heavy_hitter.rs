//! `F2` heavy hitters with approximate frequencies — Theorem 2.10.
//!
//! The paper cites BPTree / CountSieve-class algorithms ([14, 15, 18, 39])
//! for the guarantee: a single-pass, `Õ(1/φ)`-space algorithm that returns
//! every coordinate with `a⃗[i]² ≥ φ·F2(a⃗)` together with a `(1 ± 1/2)`-
//! approximation of its frequency.
//!
//! For insertion-only streams (the only kind this workspace feeds it) the
//! standard practical realization is CountSketch plus a bounded candidate
//! tracker: every arriving item is a candidate; the tracker keeps the
//! `O(1/φ)` candidates with the most arrivals *since tracking began*. A
//! true `φ`-heavy hitter arrives `≥ √(φ·F2)` times, out-counts the noise
//! tail between any two pruning rounds and therefore survives every
//! prune; at query time the candidates are re-estimated through the
//! sketch and thresholded against `F2`. Both estimates come from the one
//! CountSketch: the point query is the usual median-of-rows, and `F2` is
//! the median over rows of the row's summed squared counters (each row
//! *is* a width-bucketed AMS estimator, so no second sketch is needed on
//! the update path — the tracker itself touches no hash at all).

use kcov_obs::{LedgerNode, SketchStats};

use crate::arena::OaMap;
use crate::count_sketch::CountSketch;
use crate::space::SpaceUsage;

/// The prune order: (count desc, item asc), a total order, so the kept
/// set never depends on storage order.
fn prune_rank(a: &(u64, i64), b: &(u64, i64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Configuration for [`F2HeavyHitter`].
#[derive(Debug, Clone)]
pub struct HeavyHitterConfig {
    /// Heaviness threshold `φ`: report items with `a⃗[i]² ≥ φ·F2`.
    pub phi: f64,
    /// CountSketch rows (median repetitions).
    pub rows: usize,
    /// CountSketch width multiplier: width = `width_factor / φ`, so each
    /// row's additive error is `O(√(φ·F2 / width_factor))`.
    pub width_factor: f64,
    /// Candidate-list capacity multiplier: keep `capacity_factor / φ`
    /// candidates.
    pub capacity_factor: f64,
    /// Report slack: an item is reported when
    /// `est² ≥ report_slack · φ · F̂2`. Values below 1 compensate for the
    /// `(1 ± 1/2)` error of both estimates so no true heavy hitter is
    /// missed (precision is recovered by the caller's own thresholds).
    pub report_slack: f64,
}

impl HeavyHitterConfig {
    /// A sound default for threshold `phi`.
    pub fn for_phi(phi: f64) -> Self {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        HeavyHitterConfig {
            phi,
            rows: 5,
            width_factor: 32.0,
            capacity_factor: 8.0,
            report_slack: 0.125,
        }
    }
}

/// A reported heavy item with its approximate frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyItem {
    /// The item (vector coordinate).
    pub item: u64,
    /// `(1 ± 1/2)`-approximate frequency `a⃗[item]`.
    pub est: i64,
}

/// Single-pass `φ`-heavy-hitter tracker for insertion-only streams
/// (Theorem 2.10 interface).
#[derive(Debug, Clone)]
pub struct F2HeavyHitter {
    config: HeavyHitterConfig,
    sketch: CountSketch,
    /// item → exact arrivals since tracking began. Counts never consult
    /// the sketch, so the tracker state is a pure function of the
    /// *multiset deltas* of the insertion sequence between prunes —
    /// which is what makes batched ingestion and shard merging
    /// state-identical to serial insertion. Entry order is not
    /// canonical: reports and wire encoding sort, and the prune selects
    /// under [`prune_rank`]. Never sized from the tracker capacity: that
    /// may come from untrusted wire bytes, and sparse trackers never
    /// reach their high-water mark.
    candidates: OaMap<i64>,
    capacity: usize,
    items_seen: u64,
    /// Telemetry: pruning rounds fired (not state — merged by addition,
    /// zeroed by wire reconstruction, never compared).
    prunes: u64,
    /// Telemetry: candidate entries dropped by pruning.
    evictions: u64,
    /// Telemetry: merge invocations absorbed.
    merges: u64,
}

impl F2HeavyHitter {
    /// Create a tracker for threshold `config.phi`.
    pub fn new(config: HeavyHitterConfig, seed: u64) -> Self {
        let width = ((config.width_factor / config.phi).ceil() as usize).clamp(8, 1 << 22);
        let capacity = ((config.capacity_factor / config.phi).ceil() as usize).clamp(8, 1 << 22);
        F2HeavyHitter {
            sketch: CountSketch::new(config.rows, width, seed ^ 0x5ca1ab1e),
            candidates: OaMap::new(),
            capacity,
            config,
            items_seen: 0,
            prunes: 0,
            evictions: 0,
            merges: 0,
        }
    }

    /// Convenience constructor with defaults for `phi`.
    pub fn for_phi(phi: f64, seed: u64) -> Self {
        F2HeavyHitter::new(HeavyHitterConfig::for_phi(phi), seed)
    }

    /// Observe one occurrence of `item`.
    #[inline]
    pub fn insert(&mut self, item: u64) {
        self.items_seen += 1;
        self.sketch.insert(item);
        *self.candidates.get_or_insert_with(item, || 0) += 1;
        if self.candidates.len() > self.capacity + self.capacity / 2 {
            self.prune();
        }
    }

    /// Observe a chunk of items. The sketch is linear (updates commute)
    /// and the tracker never consults it, so feeding the whole chunk to
    /// the sketch first and then walking the tracker sequentially lands
    /// in a state bit-identical to per-item [`F2HeavyHitter::insert`]:
    /// prune trigger points depend only on the arrival order of
    /// *distinct* items, which the sequential tracker loop preserves.
    pub fn insert_batch(&mut self, items: &[u64]) {
        self.sketch.insert_batch(items);
        self.items_seen += items.len() as u64;
        let high_water = self.capacity + self.capacity / 2;
        for &item in items {
            *self.candidates.get_or_insert_with(item, || 0) += 1;
            if self.candidates.len() > high_water {
                self.prune();
            }
        }
    }

    /// Drop the candidates with the fewest arrivals, keeping the first
    /// `capacity` under (count desc, item asc): every count above the
    /// `capacity`-th largest, then the smallest-id ties at it. Ties are
    /// never broken by storage order: the surviving set must be a pure
    /// function of the insertion sequence or the batched ingestion
    /// engine's bit-identical-state guarantee breaks. Prunes fire every
    /// Θ(capacity) distinct arrivals on candidate-churning streams, so
    /// this one in-place selection is on the hot path.
    fn prune(&mut self) {
        self.prunes += 1;
        let before = self.candidates.len();
        self.candidates.keep_smallest_by(self.capacity, prune_rank);
        self.evictions += (before - self.candidates.len()) as u64;
    }

    /// Estimate of `F2` of the full stream (median of per-row AMS
    /// estimates derived from the CountSketch table — see
    /// [`CountSketch::f2_estimate`]).
    pub fn f2_estimate(&self) -> f64 {
        self.sketch.f2_estimate()
    }

    /// `(1 ± 1/2)`-approximate frequency of an arbitrary item.
    pub fn frequency_estimate(&self, item: u64) -> i64 {
        self.sketch.query(item)
    }

    /// All tracked items whose re-estimated frequency passes the
    /// (slacked) `φ` threshold, with their approximate frequencies,
    /// sorted by decreasing estimate.
    pub fn heavy_hitters(&self) -> Vec<HeavyItem> {
        let f2 = self.f2_estimate();
        let thr = self.config.report_slack * self.config.phi * f2;
        let mut out: Vec<HeavyItem> = self
            .candidates
            .iter()
            .map(|(item, _)| HeavyItem {
                item,
                est: self.sketch.query(item),
            })
            .filter(|h| (h.est as f64) * (h.est as f64) >= thr)
            .collect();
        out.sort_by(|a, b| b.est.cmp(&a.est).then(a.item.cmp(&b.item)));
        out
    }

    /// Total stream length observed.
    pub fn items_seen(&self) -> u64 {
        self.items_seen
    }

    /// The configured threshold `φ`.
    pub fn phi(&self) -> f64 {
        self.config.phi
    }

    /// The full configuration (wire serialization).
    pub fn config(&self) -> &HeavyHitterConfig {
        &self.config
    }

    /// The CountSketch frequency sketch (wire serialization).
    pub fn sketch(&self) -> &CountSketch {
        &self.sketch
    }

    /// Candidate entries as `(item, arrivals since tracking began)`,
    /// sorted by item so the encoding is canonical (wire serialization).
    pub fn candidate_entries(&self) -> Vec<(u64, i64)> {
        let mut out: Vec<(u64, i64)> = self.candidates.iter().map(|(k, &c)| (k, c)).collect();
        out.sort_unstable();
        out
    }

    /// Rebuild from parts (inverse of the accessors). Fails when a
    /// configuration factor is non-finite or ≤ 0, the sketch shape
    /// disagrees with what `config` dictates, or the candidate list
    /// exceeds its high-water mark.
    pub fn from_parts(
        config: HeavyHitterConfig,
        sketch: CountSketch,
        candidates: Vec<(u64, i64)>,
        items_seen: u64,
    ) -> Result<Self, String> {
        if !(config.phi > 0.0 && config.phi <= 1.0) {
            return Err("phi must be in (0, 1]".into());
        }
        let factors = [
            config.width_factor,
            config.capacity_factor,
            config.report_slack,
        ];
        if !factors.iter().all(|f| f.is_finite() && *f > 0.0) {
            return Err("width, capacity and report factors must be finite and > 0".into());
        }
        let width = ((config.width_factor / config.phi).ceil() as usize).clamp(8, 1 << 22);
        let capacity = ((config.capacity_factor / config.phi).ceil() as usize).clamp(8, 1 << 22);
        if sketch.rows() != config.rows || sketch.width() != width {
            return Err("CountSketch shape disagrees with the configuration".into());
        }
        if candidates.len() > capacity + capacity / 2 {
            return Err(format!(
                "{} candidates exceed the high-water mark {}",
                candidates.len(),
                capacity + capacity / 2
            ));
        }
        let mut store = OaMap::with_capacity(candidates.len());
        for (item, count) in candidates {
            *store.get_or_insert_with(item, || 0) += count;
        }
        Ok(F2HeavyHitter {
            config,
            sketch,
            candidates: store,
            capacity,
            items_seen,
            prunes: 0,
            evictions: 0,
            merges: 0,
        })
    }

    /// Merge a tracker built with the same configuration and seed over a
    /// *disjoint stream shard*. The CountSketch is linear, so its merged
    /// state (and therefore both the point queries and the `F2`
    /// estimate) is bit-identical to single-stream ingestion. The
    /// candidate tracker merges by *summing arrival counts* over the
    /// union of tracked keys — exactly what serial ingestion would have
    /// counted whenever neither side pruned the key — then prunes by the
    /// same value-cut/item-id rule as serial ingestion if over the
    /// high-water mark. Summation is commutative and associative, so
    /// merging is too; the result is bit-identical to serial ingestion
    /// whenever the candidate list never overflowed. Panics on
    /// configuration or seed mismatch.
    pub fn merge(&mut self, other: &Self) {
        let cfg = |c: &HeavyHitterConfig| {
            (
                c.phi.to_bits(),
                c.rows,
                c.width_factor.to_bits(),
                c.capacity_factor.to_bits(),
                c.report_slack.to_bits(),
            )
        };
        assert_eq!(
            cfg(&self.config),
            cfg(&other.config),
            "F2HeavyHitter merge requires identical configuration"
        );
        self.sketch.merge(&other.sketch);
        self.items_seen += other.items_seen;
        for (item, &count) in other.candidates.iter() {
            *self.candidates.get_or_insert_with(item, || 0) += count;
        }
        if self.candidates.len() > self.capacity + self.capacity / 2 {
            self.prune();
        }
        self.merges += 1 + other.merges;
        self.prunes += other.prunes;
        self.evictions += other.evictions;
    }

    /// Restore telemetry counters after wire reconstruction.
    /// [`F2HeavyHitter::from_parts`] deliberately zeroes them (telemetry
    /// is not state); a full-state decode that wants the replica's
    /// finalize snapshot to match in-process ingestion re-applies the
    /// serialized counters with this.
    pub fn restore_telemetry(
        &mut self,
        prunes: u64,
        evictions: u64,
        merges: u64,
        sketch_updates: u64,
    ) {
        self.prunes = prunes;
        self.evictions = evictions;
        self.merges = merges;
        self.sketch.restore_telemetry(sketch_updates);
    }

    /// Telemetry snapshot for the candidate tracker (fill/capacity are
    /// the candidate list, not the linear sketch — that has its own
    /// [`CountSketch::stats`]).
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            updates: self.items_seen,
            fill: self.candidates.len() as u64,
            capacity: self.capacity as u64,
            evictions: self.evictions,
            prunes: self.prunes,
            merges: self.merges,
        }
    }
}

impl SpaceUsage for F2HeavyHitter {
    fn space_words(&self) -> usize {
        // Each candidate entry holds an item and an arrival count.
        self.sketch.space_words() + 2 * self.candidates.len()
    }

    /// Mirrors `space_words` exactly: the CountSketch subtree plus the
    /// candidate tracker (2 words per entry). Tracker heat is
    /// `items_seen` — each arrival touches one candidate entry.
    fn space_ledger(&self, node: &mut LedgerNode) {
        self.sketch.space_ledger(node.child("countsketch"));
        let cand = node.child("candidates");
        cand.own.words += 2 * self.candidates.len() as u64;
        cand.own.updates += self.items_seen;
        cand.own.touched_words += self.items_seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_dominant_item_found() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 1);
        for _ in 0..1000 {
            hh.insert(7);
        }
        for i in 0..200u64 {
            hh.insert(1000 + i);
        }
        let out = hh.heavy_hitters();
        assert!(out.iter().any(|h| h.item == 7), "dominant item missing");
        let est = out.iter().find(|h| h.item == 7).unwrap().est;
        assert!((500..=1500).contains(&est), "estimate {est} outside (1±1/2)");
    }

    #[test]
    fn all_phi_heavy_items_recovered() {
        // Theorem 2.10 recall: every i with a[i]^2 >= phi*F2 is returned.
        let mut hh = F2HeavyHitter::for_phi(0.05, 42);
        // Three heavy items (freq 400) + 2000 noise items (freq 1).
        // F2 = 3*160000 + 2000 = 482000; 400^2/482000 = 0.33 >= 0.05.
        for item in [1u64, 2, 3] {
            for _ in 0..400 {
                hh.insert(item);
            }
        }
        for i in 0..2000u64 {
            hh.insert(100 + i);
        }
        let out = hh.heavy_hitters();
        for item in [1u64, 2, 3] {
            assert!(out.iter().any(|h| h.item == item), "missing heavy item {item}");
        }
    }

    #[test]
    fn interleaved_arrival_still_recovers() {
        // Heavy items interleaved with noise (worst case for candidate
        // eviction).
        let mut hh = F2HeavyHitter::for_phi(0.08, 9);
        for round in 0..500u64 {
            hh.insert(1); // heavy
            hh.insert(10_000 + round); // fresh noise each round
        }
        let out = hh.heavy_hitters();
        assert!(out.iter().any(|h| h.item == 1));
    }

    #[test]
    fn no_false_heavy_on_uniform_stream() {
        // Uniform stream: no item has a[i]^2 >= 0.3*F2 (every frequency
        // is 3, F2 = 2700, bar = 810 i.e. frequency >= 28.5). The report
        // may contain low-slack extras (the theorem only promises
        // recall), but nothing may pass the *strict* threshold.
        let mut hh = F2HeavyHitter::for_phi(0.3, 5);
        for i in 0..300u64 {
            for _ in 0..3 {
                hh.insert(i);
            }
        }
        let f2 = hh.f2_estimate();
        let strict: Vec<_> = hh
            .heavy_hitters()
            .into_iter()
            .filter(|h| (h.est as f64) * (h.est as f64) >= 0.3 * f2)
            .collect();
        assert!(strict.is_empty(), "false strict heavy hitters: {strict:?}");
    }

    #[test]
    fn candidate_list_stays_bounded() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 3);
        for i in 0..50_000u64 {
            hh.insert(i);
        }
        let cap = ((8.0f64 / 0.1).ceil() as usize).clamp(8, 1 << 22);
        assert!(
            hh.candidates.len() <= 2 * cap,
            "candidates grew to {}",
            hh.candidates.len()
        );
    }

    #[test]
    fn space_is_o_of_one_over_phi() {
        let tight = F2HeavyHitter::for_phi(0.5, 1).space_words();
        let loose = F2HeavyHitter::for_phi(0.01, 1).space_words();
        assert!(loose > tight, "smaller phi needs more space");
        // width = 8/phi dominates: phi=0.01 => 800 * rows counters.
        assert!(loose < 50 * (8.0f64 / 0.01) as usize);
    }

    #[test]
    fn items_seen_counts_stream_length() {
        let mut hh = F2HeavyHitter::for_phi(0.2, 1);
        for i in 0..123u64 {
            hh.insert(i % 3);
        }
        assert_eq!(hh.items_seen(), 123);
    }

    #[test]
    fn empty_tracker_reports_nothing() {
        let hh = F2HeavyHitter::for_phi(0.1, 1);
        assert!(hh.heavy_hitters().is_empty());
    }

    #[test]
    fn ledger_mirrors_space_words_and_carries_heat() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 4);
        for i in 0..1_000u64 {
            hh.insert(i % 97);
        }
        let mut node = kcov_obs::LedgerNode::new();
        hh.space_ledger(&mut node);
        assert_eq!(node.total_words(), hh.space_words() as u64);
        let cand = node.get("candidates").unwrap();
        assert_eq!(cand.own.words, 2 * hh.candidates.len() as u64);
        assert_eq!(cand.own.updates, 1_000);
        assert_eq!(cand.own.touched_words, 1_000);
        // CountSketch subtree carries the inner sketch's own heat.
        let cs = node.get("countsketch").unwrap();
        assert_eq!(cs.total_words(), hh.sketch().space_words() as u64);
        assert_eq!(cs.total_updates(), hh.sketch().heat_updates());
    }

    #[test]
    #[should_panic(expected = "phi must be in (0, 1]")]
    fn invalid_phi_rejected() {
        let _ = HeavyHitterConfig::for_phi(0.0);
    }

    #[test]
    fn batch_insert_state_identical_to_serial() {
        // The tentpole contract: insert_batch must land in a state
        // bit-identical to per-item insert at every batch size, across
        // prune boundaries.
        let items: Vec<u64> = (0..5_000u64).map(|i| i * 31 % 1_700).collect();
        let mut serial = F2HeavyHitter::for_phi(0.05, 77);
        for &item in &items {
            serial.insert(item);
        }
        for chunk in [1usize, 7, 64, 999, items.len()] {
            let mut batched = F2HeavyHitter::for_phi(0.05, 77);
            for block in items.chunks(chunk) {
                batched.insert_batch(block);
            }
            assert_eq!(batched.candidate_entries(), serial.candidate_entries(), "chunk {chunk}");
            assert_eq!(batched.sketch().table(), serial.sketch().table(), "chunk {chunk}");
            assert_eq!(batched.items_seen(), serial.items_seen());
            assert_eq!(batched.f2_estimate().to_bits(), serial.f2_estimate().to_bits());
        }
    }

    #[test]
    fn f2_estimate_tracks_truth() {
        // Single item of frequency f: every row holds ±f in one bucket,
        // so each row's sum of squares is exactly f².
        let mut hh = F2HeavyHitter::for_phi(0.1, 4);
        for _ in 0..50 {
            hh.insert(9);
        }
        assert_eq!(hh.f2_estimate(), 2500.0);
        // Mixed stream: within AMS-style tolerance of the exact F2.
        let mut hh = F2HeavyHitter::for_phi(0.01, 2024);
        for i in 0..500u64 {
            for _ in 0..10 {
                hh.insert(i);
            }
        }
        let truth = 500.0 * 100.0;
        let est = hh.f2_estimate();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.25, "relative error {rel} (est {est}, truth {truth})");
    }

    #[test]
    fn merge_matches_serial_report() {
        // Shards whose distinct-item count stays within the candidate
        // capacity: the merged tracker is bit-identical to serial
        // ingestion (same candidate keys and counts, same linear sketch).
        let proto = F2HeavyHitter::for_phi(0.05, 13);
        let mut left = proto.clone();
        let mut right = proto.clone();
        let mut serial = proto.clone();
        for round in 0..300u64 {
            for &(item, heavy) in &[(1u64, true), (2, round % 3 == 0), (40 + round % 50, false)] {
                if heavy || round % 2 == 0 {
                    serial.insert(item);
                    if round < 150 {
                        left.insert(item);
                    } else {
                        right.insert(item);
                    }
                }
            }
        }
        left.merge(&right);
        assert_eq!(left.items_seen(), serial.items_seen());
        assert_eq!(left.f2_estimate().to_bits(), serial.f2_estimate().to_bits());
        assert_eq!(left.heavy_hitters(), serial.heavy_hitters());
        assert_eq!(left.candidate_entries().len(), serial.candidate_entries().len());
    }

    #[test]
    fn merge_is_commutative() {
        let proto = F2HeavyHitter::for_phi(0.1, 21);
        let mut a = proto.clone();
        let mut b = proto.clone();
        for i in 0..400u64 {
            a.insert(i % 37);
            b.insert(i % 53);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.heavy_hitters(), ba.heavy_hitters());
        assert_eq!(ab.candidate_entries(), ba.candidate_entries());
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_config_mismatch() {
        let mut a = F2HeavyHitter::for_phi(0.1, 1);
        let b = F2HeavyHitter::for_phi(0.2, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let mut a = F2HeavyHitter::for_phi(0.1, 1);
        let b = F2HeavyHitter::for_phi(0.1, 2);
        a.merge(&b);
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 17);
        for i in 0..500u64 {
            hh.insert(i % 11);
        }
        let back = F2HeavyHitter::from_parts(
            hh.config().clone(),
            hh.sketch().clone(),
            hh.candidate_entries(),
            hh.items_seen(),
        )
        .unwrap();
        assert_eq!(hh.heavy_hitters(), back.heavy_hitters());
        assert_eq!(hh.candidate_entries(), back.candidate_entries());
        assert_eq!(hh.items_seen(), back.items_seen());
        // Mismatched sketch shape is rejected.
        let wrong = CountSketch::new(2, 8, 1);
        assert!(F2HeavyHitter::from_parts(hh.config().clone(), wrong, Vec::new(), 0).is_err());
    }

    #[test]
    fn stats_track_candidate_churn() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 3);
        for i in 0..50_000u64 {
            hh.insert(i);
        }
        let st = hh.stats();
        assert_eq!(st.updates, 50_000);
        assert!(st.prunes > 0, "distinct-heavy stream must prune");
        assert!(st.evictions >= st.prunes * st.capacity / 2);
        assert!(st.fill <= st.capacity + st.capacity / 2);
        let other = F2HeavyHitter::for_phi(0.1, 3);
        hh.merge(&other);
        assert_eq!(hh.stats().merges, 1);
        // Wire reconstruction starts telemetry from zero.
        let back = F2HeavyHitter::from_parts(
            hh.config().clone(),
            hh.sketch().clone(),
            hh.candidate_entries(),
            hh.items_seen(),
        )
        .unwrap();
        assert_eq!(back.stats().prunes, 0);
        assert_eq!(back.stats().updates, 50_000);
    }

    /// Naive model of the original prune rule: a value cut at the
    /// `cap`-th largest count, keeping every count above it and then
    /// the smallest-id ties at it (a `BTreeMap` visits ids ascending).
    struct ValueCutModel {
        counts: std::collections::BTreeMap<u64, i64>,
        cap: usize,
    }

    impl ValueCutModel {
        fn new(cap: usize) -> Self {
            let counts = Default::default();
            ValueCutModel { counts, cap }
        }

        fn add(&mut self, item: u64, delta: i64) {
            *self.counts.entry(item).or_insert(0) += delta;
        }

        fn prune_if_over(&mut self) {
            if self.counts.len() <= self.cap + self.cap / 2 {
                return;
            }
            let mut values: Vec<i64> = self.counts.values().copied().collect();
            values.sort_unstable_by(|a, b| b.cmp(a));
            let cut = values[self.cap - 1];
            let mut ties_left = self.cap - values.iter().filter(|&&c| c > cut).count();
            self.counts.retain(|_, c| {
                let keep = *c > cut || (*c == cut && ties_left > 0);
                if *c == cut && keep {
                    ties_left -= 1;
                }
                keep
            });
        }

        fn entries(&self) -> Vec<(u64, i64)> {
            self.counts.iter().map(|(&k, &c)| (k, c)).collect()
        }
    }

    fn tracker_with_capacity(cap: usize, seed: u64) -> F2HeavyHitter {
        let config = HeavyHitterConfig {
            phi: 1.0,
            rows: 1,
            width_factor: 2.0,
            capacity_factor: cap as f64,
            report_slack: 0.125,
        };
        F2HeavyHitter::new(config, seed)
    }

    /// A tie-heavy stream: a domain of three capacities, so nearly every
    /// prune cuts through a crowd of count-1 and count-2 entries.
    fn tie_heavy_items(cap: usize, len: usize, salt: u64) -> Vec<u64> {
        let mut x = salt;
        (0..len)
            .map(|_| {
                x = crate::arena::probe_mix(x);
                x % (3 * cap as u64)
            })
            .collect()
    }

    #[test]
    fn prune_matches_value_cut_model_on_tie_heavy_streams() {
        for cap in [8usize, 9, 13, 50, 200] {
            let mut hh = tracker_with_capacity(cap, 5);
            assert_eq!(hh.capacity, cap);
            let mut model = ValueCutModel::new(cap);
            let items = tie_heavy_items(cap, 12 * cap, cap as u64);
            for (i, &item) in items.iter().enumerate() {
                hh.insert(item);
                model.add(item, 1);
                model.prune_if_over();
                let want = model.entries();
                assert_eq!(hh.candidate_entries(), want, "cap {cap} insert {i}");
            }
            assert!(hh.stats().prunes > 0, "cap {cap}: the stream must prune");
        }
    }

    #[test]
    fn merge_prune_of_overfull_lists_matches_value_cut_model() {
        for cap in [8usize, 21, 200] {
            let items = tie_heavy_items(cap, 8 * cap, 17 + cap as u64);
            let (left_items, right_items) = items.split_at(items.len() / 3);
            let mut left = tracker_with_capacity(cap, 9);
            let mut right = tracker_with_capacity(cap, 9);
            let mut left_model = ValueCutModel::new(cap);
            let mut right_model = ValueCutModel::new(cap);
            for (hh, model, part) in [
                (&mut left, &mut left_model, left_items),
                (&mut right, &mut right_model, right_items),
            ] {
                for &item in part {
                    hh.insert(item);
                    model.add(item, 1);
                    model.prune_if_over();
                }
            }
            // The union overfills the high-water mark before the single
            // merge-time prune.
            let union: std::collections::BTreeSet<u64> = left_model
                .counts
                .keys()
                .chain(right_model.counts.keys())
                .copied()
                .collect();
            let high_water = cap + cap / 2;
            assert!(union.len() > high_water, "cap {cap}: merge must overfill");
            left.merge(&right);
            for (item, count) in right_model.entries() {
                left_model.add(item, count);
            }
            left_model.prune_if_over();
            assert_eq!(left.candidate_entries(), left_model.entries(), "cap {cap}");
        }
    }

    #[test]
    fn results_sorted_by_estimate() {
        let mut hh = F2HeavyHitter::for_phi(0.01, 8);
        for (item, f) in [(1u64, 300), (2u64, 600), (3u64, 450)] {
            for _ in 0..f {
                hh.insert(item);
            }
        }
        let out = hh.heavy_hitters();
        for w in out.windows(2) {
            assert!(w[0].est >= w[1].est);
        }
    }
}
