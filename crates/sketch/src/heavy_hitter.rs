//! `F2` heavy hitters with approximate frequencies — Theorem 2.10.
//!
//! The paper cites BPTree / CountSieve-class algorithms ([14, 15, 18, 39])
//! for the guarantee: a single-pass, `Õ(1/φ)`-space algorithm that returns
//! every coordinate with `a⃗[i]² ≥ φ·F2(a⃗)` together with a `(1 ± 1/2)`-
//! approximation of its frequency.
//!
//! Every caller in this workspace knows the coordinate domain (superset
//! ids in `[B]`, or the domain a standalone finder is built over), so the
//! realization is a CountSketch alone, queried over that domain
//! (Charikar–Chen–Farach-Colton's original use): the update path is one
//! sketch update, and [`F2HeavyHitter::heavy_hitters`] point-queries the
//! ids it is handed, as one batched [`CountSketch::query_mixed`], and
//! thresholds each estimate against `F2`. A true `φ`-heavy hitter's
//! estimate is within `(1 ± 1/2)` of its frequency, so it passes the
//! slacked threshold and is returned. Both estimates come from the one
//! CountSketch: the point query is the usual median-of-rows, and `F2` is
//! the median over rows of the row's summed squared counters (each row
//! *is* a width-bucketed AMS estimator, so no second sketch is needed).
//! The state is the linear table, so batched ingestion and shard merging
//! are state-identical to serial insertion by linearity.

use kcov_hash::KWise;
use kcov_obs::SketchStats;

use crate::count_sketch::{CountSketch, MAX_WIDTH};
use crate::space::{SpaceSink, SpaceUsage};

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
            report_slack: 0.125,
        }
    }

    /// The CountSketch width this configuration dictates.
    fn width(&self) -> usize {
        ((self.width_factor / self.phi).ceil() as usize).clamp(8, MAX_WIDTH)
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

/// Single-pass `φ`-heavy-hitter sketch for insertion-only streams
/// (Theorem 2.10 interface).
#[derive(Debug, Clone)]
pub struct F2HeavyHitter {
    config: HeavyHitterConfig,
    sketch: CountSketch,
    items_seen: u64,
}

impl F2HeavyHitter {
    /// Create a sketch for threshold `config.phi`.
    pub fn new(config: HeavyHitterConfig, seed: u64) -> Self {
        let mix = CountSketch::draw_mix(config.rows, seed ^ 0x5ca1ab1e);
        F2HeavyHitter::with_mix(config, mix)
    }

    /// A sketch for threshold `config.phi` whose CountSketch is
    /// addressed by `mix` (`⌈config.rows/2⌉` 4-wise words, see
    /// [`CountSketch::with_mix`]), for owners that share one mix across
    /// several heavy hitters.
    pub fn with_mix(config: HeavyHitterConfig, mix: Vec<KWise>) -> Self {
        F2HeavyHitter {
            sketch: CountSketch::with_mix(config.rows, config.width(), mix),
            config,
            items_seen: 0,
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
    }

    /// Observe a chunk of items (state-identical to per-item
    /// [`F2HeavyHitter::insert`]: the sketch is linear).
    pub fn insert_batch(&mut self, items: &[u64]) {
        self.sketch.insert_batch(items);
        self.items_seen += items.len() as u64;
    }

    /// Observe one occurrence of each item whose mix words are `mixed`
    /// (the [`CountSketch::mix_batch`] layout under this sketch's mix).
    pub fn insert_mixed(&mut self, mixed: &[u64]) {
        self.sketch.insert_mixed(mixed);
        self.items_seen += (mixed.len() / self.sketch.mix_words()) as u64;
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

    /// Every item of `ids` whose estimated frequency is positive and
    /// passes the (slacked) `φ` threshold, with its approximate
    /// frequency, in `ids` order. Pass the whole coordinate domain for
    /// the Theorem 2.10 guarantee. The stream is insertion-only, so an
    /// estimate ≤ 0 approximates no heavy frequency and is never
    /// reported.
    pub fn heavy_hitters(&self, ids: &[u64]) -> Vec<HeavyItem> {
        let mut mixed = Vec::new();
        self.sketch.mix_batch(ids, &mut mixed);
        self.heavy_hitters_mixed(ids, &mixed)
    }

    /// [`F2HeavyHitter::heavy_hitters`] with the ids' mix words already
    /// evaluated (`mixed` is the [`CountSketch::mix_batch`] of `ids`).
    pub fn heavy_hitters_mixed(&self, ids: &[u64], mixed: &[u64]) -> Vec<HeavyItem> {
        let thr = self.config.report_slack * self.config.phi * self.f2_estimate();
        let mut ests = Vec::new();
        self.sketch.query_mixed(mixed, &mut ests);
        ids.iter()
            .zip(&ests)
            .filter(|&(_, &est)| est > 0 && (est as f64) * (est as f64) >= thr)
            .map(|(&item, &est)| HeavyItem { item, est })
            .collect()
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

    /// Rebuild from parts (inverse of the accessors). Fails when a
    /// configuration factor is non-finite or ≤ 0, or the sketch shape
    /// disagrees with what `config` dictates.
    pub fn from_parts(
        config: HeavyHitterConfig,
        sketch: CountSketch,
        items_seen: u64,
    ) -> Result<Self, String> {
        if !(config.phi > 0.0 && config.phi <= 1.0) {
            return Err("phi must be in (0, 1]".into());
        }
        if ![config.width_factor, config.report_slack]
            .iter()
            .all(|f| f.is_finite() && *f > 0.0)
        {
            return Err("width and report factors must be finite and > 0".into());
        }
        if sketch.rows() != config.rows || sketch.width() != config.width() {
            return Err("CountSketch shape disagrees with the configuration".into());
        }
        Ok(F2HeavyHitter {
            config,
            sketch,
            items_seen,
        })
    }

    /// Merge a sketch built with the same configuration and seed over a
    /// *disjoint stream shard*: CountSketch tables add, so the merged
    /// state (point queries and the `F2` estimate included) is
    /// bit-identical to single-stream ingestion. Panics on configuration
    /// or seed mismatch.
    pub fn merge(&mut self, other: &Self) {
        let cfg = |c: &HeavyHitterConfig| {
            (
                c.phi.to_bits(),
                c.rows,
                c.width_factor.to_bits(),
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
    }

    /// Restore the CountSketch telemetry counters after wire
    /// reconstruction ([`F2HeavyHitter::from_parts`] zeroes them —
    /// telemetry is not state).
    pub fn restore_telemetry(&mut self, merges: u64, sketch_updates: u64) {
        self.sketch.restore_telemetry(sketch_updates, merges);
    }

    /// Telemetry snapshot: the CountSketch's (fill = capacity = cells)
    /// with `updates` the stream length.
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            updates: self.items_seen,
            ..self.sketch.stats()
        }
    }
}

impl SpaceUsage for F2HeavyHitter {
    /// The CountSketch subtree: the heavy-hitter state is the table.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        self.sketch.space_ledger(node.child("countsketch"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids `0..n`, the domain most tests enumerate.
    fn domain(n: u64) -> Vec<u64> {
        (0..n).collect()
    }

    #[test]
    fn single_dominant_item_found() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 1);
        for _ in 0..1000 {
            hh.insert(7);
        }
        for i in 0..200u64 {
            hh.insert(1000 + i);
        }
        let out = hh.heavy_hitters(&domain(1200));
        assert!(out.iter().any(|h| h.item == 7), "dominant item missing");
        let est = out.iter().find(|h| h.item == 7).unwrap().est;
        assert!(
            (500..=1500).contains(&est),
            "estimate {est} outside (1±1/2)"
        );
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
        let out = hh.heavy_hitters(&domain(2100));
        for item in [1u64, 2, 3] {
            assert!(
                out.iter().any(|h| h.item == item),
                "missing heavy item {item}"
            );
        }
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
            .heavy_hitters(&domain(300))
            .into_iter()
            .filter(|h| (h.est as f64) * (h.est as f64) >= 0.3 * f2)
            .collect();
        assert!(strict.is_empty(), "false strict heavy hitters: {strict:?}");
    }

    #[test]
    fn report_is_the_thresholded_point_query_of_each_id() {
        let mut hh = F2HeavyHitter::for_phi(0.02, 6);
        for i in 0..3_000u64 {
            hh.insert(i * i % 211);
        }
        let ids = domain(400);
        let thr = 0.125 * 0.02 * hh.f2_estimate();
        let want: Vec<HeavyItem> = ids
            .iter()
            .map(|&item| HeavyItem {
                item,
                est: hh.frequency_estimate(item),
            })
            .filter(|h| h.est > 0 && (h.est as f64) * (h.est as f64) >= thr)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(hh.heavy_hitters(&ids), want);
    }

    #[test]
    fn space_is_o_of_one_over_phi() {
        let tight = F2HeavyHitter::for_phi(0.5, 1).space_words();
        let loose = F2HeavyHitter::for_phi(0.01, 1).space_words();
        assert!(loose > tight, "smaller phi needs more space");
        // width = 32/phi dominates: phi=0.01 => 3200 * rows counters.
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
    fn empty_sketch_reports_nothing() {
        let hh = F2HeavyHitter::for_phi(0.1, 1);
        assert!(hh.heavy_hitters(&domain(100)).is_empty());
    }

    #[test]
    fn ledger_counts_the_shape_and_carries_heat() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 4);
        for i in 0..1_000u64 {
            hh.insert(i % 97);
        }
        let mut node = kcov_obs::LedgerNode::new();
        hh.space_ledger(&mut node);
        // φ = 0.1: a 5-row CountSketch of width ⌈32/φ⌉ = 320 with three
        // 4-wise mix words (4 words each, one per two rows).
        assert_eq!(node.total_words(), 5 * 320 + 3 * 4);
        assert_eq!(hh.space_words(), 5 * 320 + 3 * 4);
        let cs = node.get("countsketch").unwrap();
        assert_eq!(cs.total_words(), 5 * 320 + 3 * 4);
        assert_eq!(cs.total_updates(), 1_000);
        assert_eq!(cs.total_updates(), hh.sketch().heat_updates());
    }

    #[test]
    #[should_panic(expected = "phi must be in (0, 1]")]
    fn invalid_phi_rejected() {
        let _ = HeavyHitterConfig::for_phi(0.0);
    }

    #[test]
    fn batch_insert_state_identical_to_serial() {
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
            assert_eq!(
                batched.sketch().table(),
                serial.sketch().table(),
                "chunk {chunk}"
            );
            assert_eq!(batched.items_seen(), serial.items_seen());
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
        assert!(
            rel < 0.25,
            "relative error {rel} (est {est}, truth {truth})"
        );
    }

    #[test]
    fn merge_is_serial_ingestion_and_commutes() {
        let proto = F2HeavyHitter::for_phi(0.05, 13);
        let mut left = proto.clone();
        let mut right = proto.clone();
        let mut serial = proto.clone();
        for i in 0..900u64 {
            let item = if i % 3 == 0 { 1 } else { 40 + i % 50 };
            serial.insert(item);
            if i < 450 {
                left.insert(item);
            } else {
                right.insert(item);
            }
        }
        let mut ba = right.clone();
        ba.merge(&left);
        left.merge(&right);
        for merged in [&left, &ba] {
            assert_eq!(merged.sketch().table(), serial.sketch().table());
            assert_eq!(merged.items_seen(), serial.items_seen());
            assert_eq!(
                merged.heavy_hitters(&domain(100)),
                serial.heavy_hitters(&domain(100))
            );
        }
        assert_eq!(left.stats().merges, 1);
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
        let mut back =
            F2HeavyHitter::from_parts(hh.config().clone(), hh.sketch().clone(), hh.items_seen())
                .unwrap();
        assert_eq!(
            hh.heavy_hitters(&domain(20)),
            back.heavy_hitters(&domain(20))
        );
        assert_eq!(hh.items_seen(), back.items_seen());
        back.restore_telemetry(3, 500);
        assert_eq!(back.stats().merges, 3);
        assert_eq!(back.sketch().heat_updates(), 500);
        // Mismatched sketch shape is rejected.
        let wrong = CountSketch::new(2, 8, 1);
        assert!(F2HeavyHitter::from_parts(hh.config().clone(), wrong, 0).is_err());
    }

    #[test]
    fn stats_report_the_table_and_the_stream() {
        let mut hh = F2HeavyHitter::for_phi(0.1, 3);
        hh.insert_batch(&domain(5_000));
        let st = hh.stats();
        assert_eq!(st.updates, 5_000);
        assert_eq!((st.fill, st.capacity), (5 * 320, 5 * 320));
        assert_eq!((st.evictions, st.prunes, st.merges), (0, 0, 0));
    }

    #[test]
    fn results_follow_the_ids_order() {
        let mut hh = F2HeavyHitter::for_phi(0.01, 8);
        for (item, f) in [(1u64, 300), (2u64, 600), (3u64, 450)] {
            for _ in 0..f {
                hh.insert(item);
            }
        }
        let items =
            |ids: &[u64]| -> Vec<u64> { hh.heavy_hitters(ids).iter().map(|h| h.item).collect() };
        assert_eq!(items(&domain(10)), vec![1, 2, 3]);
        assert_eq!(items(&[3, 9, 1, 2]), vec![3, 1, 2]);
    }
}
