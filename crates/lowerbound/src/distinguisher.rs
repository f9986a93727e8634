//! Distinguishers for the §5 hard instances — the constructive side of
//! the tight trade-off.
//!
//! The paper (§1, "Lower bound") observes that its hard instances are
//! distinguishable in `O(m/α²)` space by α-approximating the `L∞` norm
//! of the frequency vector with `L2`-norm sketches \[5\]: in the No case
//! one coordinate (the spike set) has value `α`, in the Yes case every
//! coordinate is at most 1, and a CountSketch of width `w` resolves the
//! spike iff its per-row noise `≈ √(F2/w) ≈ √(m/w)` falls below `α/2` —
//! i.e. iff `w = Ω(m/α²)`. Sweeping the width therefore traces the
//! lower-bound threshold empirically.

use kcov_hash::SeedSequence;
use kcov_sketch::space::{Space, SpaceSink, SpaceUsage};
use kcov_sketch::CountSketch;
use kcov_stream::gen::{dsj_max_cover_instance, DsjInstance, DsjKind};
use kcov_stream::Edge;

use kcov_core::{EstimatorConfig, MaxCoverEstimator};

/// CountSketch-based `L∞`/`L2` distinguisher with an explicit width
/// budget.
#[derive(Debug)]
pub struct L2Distinguisher {
    sketch: CountSketch,
    /// Bounded candidate list of (set id → last estimate); Õ(1) extra.
    candidates: std::collections::HashMap<u64, i64>,
    capacity: usize,
}

impl L2Distinguisher {
    /// A distinguisher whose dominant space cost is `rows × width`
    /// counters.
    pub fn new(rows: usize, width: usize, seed: u64) -> Self {
        let mut seq = SeedSequence::labeled(seed, "l2-distinguisher");
        L2Distinguisher {
            sketch: CountSketch::new(rows, width.max(2), seq.next_seed()),
            candidates: std::collections::HashMap::new(),
            capacity: 64,
        }
    }

    /// Observe one `(set, element)` edge: an update to the set-size
    /// vector's coordinate `set`.
    pub fn observe(&mut self, edge: Edge) {
        self.sketch.insert(edge.set as u64);
        let est = self.sketch.query(edge.set as u64);
        self.candidates.insert(edge.set as u64, est);
        if self.candidates.len() > 2 * self.capacity {
            let mut ests: Vec<i64> = self.candidates.values().copied().collect();
            let cut_idx = ests.len() - self.capacity;
            ests.select_nth_unstable(cut_idx);
            let cut = ests[cut_idx];
            self.candidates.retain(|_, &mut e| e >= cut);
        }
    }

    /// Serialize the distinguisher's state — the literal one-way
    /// protocol message a player would forward: the CountSketch (via
    /// the sketch wire format) plus the candidate list. Another player
    /// can [`L2Distinguisher::from_message`] it and keep streaming.
    pub fn message_bytes(&self) -> Vec<u8> {
        use kcov_sketch::WireEncode;
        let mut out = self.sketch.to_bytes();
        out.extend_from_slice(&(self.candidates.len() as u64).to_le_bytes());
        // Deterministic order for reproducible message sizes.
        let mut items: Vec<(u64, i64)> = self.candidates.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort_unstable();
        for (k, v) in items {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Reconstruct a distinguisher from a forwarded message.
    pub fn from_message(bytes: &[u8], capacity: usize) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::WireEncode;
        let mut input = bytes;
        let sketch = kcov_sketch::CountSketch::decode(&mut input)?;
        let fail = |m: &str| kcov_sketch::WireError {
            message: m.to_string(),
        };
        let take = |input: &mut &[u8]| -> Result<u64, kcov_sketch::WireError> {
            if input.len() < 8 {
                return Err(fail("truncated message"));
            }
            let (head, rest) = input.split_at(8);
            *input = rest;
            Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
        };
        let n = take(&mut input)? as usize;
        let mut candidates = std::collections::HashMap::with_capacity(n);
        for _ in 0..n {
            let k = take(&mut input)?;
            let v = take(&mut input)? as i64;
            candidates.insert(k, v);
        }
        if !input.is_empty() {
            return Err(fail("trailing bytes"));
        }
        Ok(L2Distinguisher {
            sketch,
            candidates,
            capacity,
        })
    }

    /// The largest re-estimated candidate coordinate (≈ `L∞`).
    pub fn linf_estimate(&self) -> i64 {
        self.candidates
            .keys()
            .map(|&s| self.sketch.query(s))
            .max()
            .unwrap_or(0)
    }

    /// Decision: declare "No case" (a spike of height `alpha` exists)
    /// iff the `L∞` estimate reaches `3α/4`. The 3/4 (rather than the
    /// analysis' 1/2) tightens the false-positive side: the decision
    /// takes a max over `O(1)` candidates, so the noise bar must clear
    /// the extreme-value inflation.
    pub fn decide_no_case(&self, alpha: usize) -> bool {
        self.linf_estimate() >= (3 * alpha as i64) / 4
    }
}

impl SpaceUsage for L2Distinguisher {
    /// One opaque leaf: the sketch plus 2-word candidate entries.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.add(Space::resident(
            self.sketch.space_words() + 2 * self.candidates.len(),
        ));
    }
}

/// Success statistics of a distinguisher over repeated trials.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionStats {
    /// Trials run per case.
    pub trials: usize,
    /// Fraction of No instances correctly declared No.
    pub no_recall: f64,
    /// Fraction of Yes instances correctly declared Yes.
    pub yes_recall: f64,
    /// Words of space used (max across trials).
    pub space_words: usize,
}

impl DecisionStats {
    /// Joint success probability proxy: min of the two recalls.
    pub fn success(&self) -> f64 {
        self.no_recall.min(self.yes_recall)
    }
}

/// Sweep harness: run the [`L2Distinguisher`] at one width over many
/// random DSJ instances of both kinds.
pub fn l2_sweep_point(
    m: usize,
    alpha: usize,
    items_per_player: usize,
    rows: usize,
    width: usize,
    trials: usize,
    seed: u64,
) -> DecisionStats {
    let mut seq = SeedSequence::labeled(seed, "l2-sweep");
    let mut no_ok = 0usize;
    let mut yes_ok = 0usize;
    let mut space = 0usize;
    for _ in 0..trials {
        for kind in [DsjKind::No, DsjKind::Yes] {
            let inst = dsj_max_cover_instance(m, alpha, items_per_player, kind, seq.next_seed());
            let mut d = L2Distinguisher::new(rows, width, seq.next_seed());
            for e in inst.player_ordered_edges() {
                d.observe(e);
            }
            space = space.max(d.space_words());
            let said_no = d.decide_no_case(alpha);
            match kind {
                DsjKind::No if said_no => no_ok += 1,
                DsjKind::Yes if !said_no => yes_ok += 1,
                _ => {}
            }
        }
    }
    DecisionStats {
        trials,
        no_recall: no_ok as f64 / trials as f64,
        yes_recall: yes_ok as f64 / trials as f64,
        space_words: space,
    }
}

/// Distinguisher running the full `MaxCoverEstimator` (k = 1) on the
/// reduced `Max 1-Cover` instance — the reduction direction of
/// Theorem 3.3: an α-approximate estimator decides DSJ.
#[derive(Debug)]
pub struct OracleDistinguisher {
    estimator: MaxCoverEstimator,
}

impl OracleDistinguisher {
    /// Build for the reduced instance of an α-player DSJ over `m` items,
    /// approximating within `alpha_approx < α`.
    pub fn new(m: usize, alpha_players: usize, alpha_approx: f64, seed: u64) -> Self {
        OracleDistinguisher {
            estimator: MaxCoverEstimator::new(
                alpha_players,
                m,
                1,
                alpha_approx,
                &EstimatorConfig::practical(seed),
            ),
        }
    }

    /// Feed the whole reduced instance and decide.
    pub fn decide_no_case(mut self, inst: &DsjInstance) -> (bool, usize) {
        for e in inst.player_ordered_edges() {
            self.estimator.observe(e);
        }
        let space = self.estimator.space_words();
        let out = self.estimator.finalize();
        (out.estimate > 2.0, space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_sketch_distinguishes_reliably() {
        // width ≈ m: noise ≈ 1, spike = alpha = 12 → near-perfect.
        let stats = l2_sweep_point(512, 12, 16, 5, 512, 10, 1);
        assert!(stats.no_recall >= 0.9, "no recall {}", stats.no_recall);
        assert!(stats.yes_recall >= 0.9, "yes recall {}", stats.yes_recall);
    }

    #[test]
    fn narrow_sketch_fails_no_case() {
        // width 4 ≪ m/alpha²: row noise √(m/4) ≈ 11 swamps the spike in
        // both directions; Yes instances get declared No (false
        // positives) because noise alone reaches alpha/2 = 6.
        let stats = l2_sweep_point(2048, 12, 128, 5, 4, 10, 2);
        assert!(
            stats.success() < 0.9,
            "narrow sketch should not succeed: {stats:?}"
        );
    }

    #[test]
    fn threshold_near_m_over_alpha_squared() {
        // Success at width c·m/α² (c = 16, the constant carrying the
        // median-of-rows and max-over-candidates slack) should beat
        // success at width m/(4·α²) — a 64× gap straddling the
        // threshold.
        let (m, alpha, ipp) = (4096usize, 16usize, 192usize);
        let at = |width: usize| l2_sweep_point(m, alpha, ipp, 5, width.max(2), 8, 3).success();
        let wide = at(16 * m / (alpha * alpha)); // 256
        let narrow = at(m / (4 * alpha * alpha)); // 4
        assert!(
            wide >= narrow,
            "success must improve with width: wide {wide} narrow {narrow}"
        );
        assert!(wide >= 0.7, "tight-width success too low: {wide}");
    }

    #[test]
    fn space_words_tracks_width() {
        let small = L2Distinguisher::new(5, 16, 1).space_words();
        let large = L2Distinguisher::new(5, 1024, 1).space_words();
        assert!(large > 10 * small);
    }

    #[test]
    fn message_roundtrip_preserves_protocol_state() {
        // Two players: player 1 streams, forwards its literal message;
        // player 2 reconstructs and continues. The final decision
        // matches a single-machine run exactly.
        let inst = dsj_max_cover_instance(512, 12, 16, DsjKind::No, 7);
        let edges = inst.player_ordered_edges();
        let mid = edges.len() / 2;

        let mut whole = L2Distinguisher::new(5, 256, 3);
        for &e in &edges {
            whole.observe(e);
        }

        let mut player1 = L2Distinguisher::new(5, 256, 3);
        for &e in &edges[..mid] {
            player1.observe(e);
        }
        let message = player1.message_bytes();
        let mut player2 = L2Distinguisher::from_message(&message, 64).unwrap();
        for &e in &edges[mid..] {
            player2.observe(e);
        }
        assert_eq!(whole.linf_estimate(), player2.linf_estimate());
        assert_eq!(whole.decide_no_case(12), player2.decide_no_case(12));
        // Message size tracks the word count (8 bytes/word + framing).
        let words = player1.space_words();
        assert!(message.len() >= words * 8 - 64);
        assert!(message.len() <= words * 8 + 4096);
    }

    #[test]
    fn linf_estimate_on_empty_stream_is_zero() {
        let d = L2Distinguisher::new(3, 8, 1);
        assert_eq!(d.linf_estimate(), 0);
        assert!(!d.decide_no_case(8));
    }

    #[test]
    fn oracle_distinguisher_separates_cases() {
        // The player count must exceed the estimator's *effective*
        // approximation factor (alpha' times its practical constants,
        // ≈ 3·f·alpha' here), else the Yes/No estimates overlap — this
        // is exactly the reduction's requirement that the algorithm be
        // an α-approximation for α below the instance gap.
        let m = 2048usize;
        let alpha = 64usize;
        let mut no_ok = 0;
        let mut yes_ok = 0;
        let trials = 4;
        for seed in 0..trials {
            let no = dsj_max_cover_instance(m, alpha, 16, DsjKind::No, seed);
            let yes = dsj_max_cover_instance(m, alpha, 16, DsjKind::Yes, seed);
            let (dn, _) = OracleDistinguisher::new(m, alpha, 2.0, 100 + seed).decide_no_case(&no);
            let (dy, _) = OracleDistinguisher::new(m, alpha, 2.0, 100 + seed).decide_no_case(&yes);
            if dn {
                no_ok += 1;
            }
            if !dy {
                yes_ok += 1;
            }
        }
        assert!(no_ok >= 3, "No-case detection too weak: {no_ok}/{trials}");
        assert!(yes_ok >= 3, "Yes-case false positives: {yes_ok}/{trials}");
    }
}
