//! The `(α, δ, η)`-oracle — paper §4, Fig 2 and Definition 3.4.
//!
//! Runs the three subroutines in parallel over the same single pass and
//! returns the maximum of their (individually sound) estimates:
//!
//! * [`crate::LargeCommon`] fires when some frequency layer has many
//!   common elements (case I);
//! * [`crate::LargeSet`] fires when an optimal solution is dominated by
//!   large sets (case II) — including automatically whenever
//!   `sα ≥ 2k` (Claim 4.3);
//! * [`crate::SmallSet`] fires when the optimum is many small sets
//!   (case III; only instantiated when `sα < 2k`).
//!
//! Contract (Definition 3.4 with `η = 4`): if the optimum covers at
//! least `|U|/η` then with good probability the output is at least
//! `|C(OPT)|/Õ(α)`; and the output never exceeds `|C(OPT)|` (w.h.p.).

use std::sync::Arc;

use kcov_hash::KWise;
use kcov_obs::{Recorder, SketchStats, Value};
use kcov_sketch::{SpaceSink, SpaceUsage, WireError, WireState};
use kcov_stream::Edge;

use crate::large_common::LargeCommon;
use crate::large_set::LargeSet;
use crate::params::Params;
use crate::small_set::SmallSet;
use crate::Witness;

/// Which subroutine produced the winning estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubroutineKind {
    /// Multi-layered set sampling (§4.1).
    LargeCommon,
    /// Heavy hitters / contributing classes (§4.2, Appendix B).
    LargeSet,
    /// Set + element sampling (§4.3).
    SmallSet,
}

impl SubroutineKind {
    /// Stable lowercase identifier used in structured event streams.
    pub fn name(self) -> &'static str {
        match self {
            SubroutineKind::LargeCommon => "large_common",
            SubroutineKind::LargeSet => "large_set",
            SubroutineKind::SmallSet => "small_set",
        }
    }
}

/// Per-subroutine estimates at finalize time: `None` means infeasible
/// (or, for [`OracleDiagnostics::small_set`], inactive). Returned by
/// [`Oracle::diagnostics`] and surfaced in the CLI metrics output.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OracleDiagnostics {
    /// Case I (multi-layered set sampling) estimate.
    pub large_common: Option<f64>,
    /// Case II (heavy hitters / contributing classes) estimate.
    pub large_set: Option<f64>,
    /// Case III (set + element sampling) estimate; `None` also when the
    /// subroutine is disabled (`sα ≥ 2k`).
    pub small_set: Option<f64>,
}

impl OracleDiagnostics {
    /// The best feasible subroutine estimate, if any fired.
    pub fn best(&self) -> Option<f64> {
        [self.large_common, self.large_set, self.small_set]
            .into_iter()
            .flatten()
            .reduce(f64::max)
    }
}

/// The oracle's answer.
#[derive(Debug, Clone)]
pub struct OracleOutput {
    /// The estimate (0.0 when every subroutine reported infeasible).
    pub estimate: f64,
    /// The winning subroutine, if any.
    pub winner: Option<SubroutineKind>,
    /// The winner's reporting witness.
    pub witness: Option<Witness>,
}

/// Single-pass `(α, δ, η)`-oracle of `Max k-Cover` (Fig 2).
#[derive(Debug, Clone)]
pub struct Oracle {
    u: usize,
    /// Shared set fingerprint base (hash-once hot path); every
    /// subroutine holds the same `Arc` and consumes the one fingerprint
    /// the caller computes per edge.
    /// One coefficient table per process: the ledger attributes the
    /// words to the owning fingerprint front end, holders count the
    /// 1-word handle.
    set_base: Arc<KWise>,
    large_common: LargeCommon,
    large_set: LargeSet,
    small_set: Option<SmallSet>,
}

impl Oracle {
    /// Create an oracle for universe size `u` (the pseudo-universe after
    /// reduction; `params.n` is ignored in favour of `u`) with a private
    /// set fingerprint base, for unfed state: a caller that feeds edges
    /// builds with [`Oracle::with_base`] on a base it holds, whose
    /// fingerprints [`Oracle::observe_fp_batch`] takes (estimator lanes
    /// share one). `reporting` enables the witness machinery of
    /// Theorem 3.2.
    pub fn new(u: usize, params: &Params, reporting: bool, seed: u64) -> Self {
        let degree = Params::hash_degree(params.mode, params.m, params.n);
        let base_seed = kcov_hash::SeedSequence::labeled(seed, "oracle-base").next_seed();
        Self::with_base(
            u,
            params,
            reporting,
            seed,
            Arc::new(KWise::new(degree, base_seed)),
        )
    }

    /// Create an oracle whose subroutines consume set fingerprints under
    /// the shared `set_base`.
    pub fn with_base(
        u: usize,
        params: &Params,
        reporting: bool,
        seed: u64,
        set_base: Arc<KWise>,
    ) -> Self {
        let mut seq = kcov_hash::SeedSequence::labeled(seed, "oracle");
        Oracle {
            u,
            large_common: LargeCommon::with_base(
                u,
                params,
                reporting,
                seq.next_seed(),
                set_base.clone(),
            ),
            large_set: LargeSet::with_base(u, params, seq.next_seed(), set_base.clone()),
            small_set: params
                .small_set_active()
                .then(|| SmallSet::with_base(u, params, seq.next_seed(), set_base.clone())),
            set_base,
        }
    }

    /// Observe a chunk given precomputed set fingerprints (`fps[i]`
    /// must be `set_base(edges[i].set)`; set ids pass through universe
    /// reduction unchanged, so the estimator computes the fingerprints
    /// once against the *raw* stream and every lane reuses them): each
    /// subroutine consumes the whole chunk in turn, preserving arrival
    /// order within every subroutine, so the final state does not
    /// depend on how the stream is cut into chunks.
    pub fn observe_fp_batch(&mut self, edges: &[Edge], fps: &[u64]) {
        debug_assert_eq!(edges.len(), fps.len());
        self.large_common.observe_fp_batch(edges, fps);
        self.large_set.observe_fp_batch(edges, fps);
        if let Some(ss) = &mut self.small_set {
            ss.observe_fp_batch(edges, fps);
        }
    }

    /// Finalize after the pass: the max of the subroutine estimates,
    /// clamped to the universe size.
    pub fn finalize(&self) -> OracleOutput {
        let mut out = OracleOutput {
            estimate: 0.0,
            winner: None,
            witness: None,
        };
        let candidates = [
            (SubroutineKind::LargeCommon, self.large_common.finalize()),
            (SubroutineKind::LargeSet, self.large_set.finalize()),
            (
                SubroutineKind::SmallSet,
                self.small_set.as_ref().and_then(SmallSet::finalize),
            ),
        ];
        for (kind, cand) in candidates {
            if let Some((est, witness)) = cand {
                let est = est.min(self.u as f64);
                if est > out.estimate {
                    out = OracleOutput {
                        estimate: est,
                        winner: Some(kind),
                        witness: Some(witness),
                    };
                }
            }
        }
        out
    }

    /// Access to the case-I subroutine (reporting expansion).
    pub fn large_common(&self) -> &LargeCommon {
        &self.large_common
    }

    /// Access to the case-II subroutine (reporting expansion).
    pub fn large_set(&self) -> &LargeSet {
        &self.large_set
    }

    /// Access to the case-III subroutine, when active.
    pub fn small_set(&self) -> Option<&SmallSet> {
        self.small_set.as_ref()
    }

    /// Per-subroutine telemetry: each subroutine's estimate (`None` =
    /// infeasible / inactive). Used by the ablation experiments, the
    /// CLI metrics output, and finalize-time snapshots.
    pub fn diagnostics(&self) -> OracleDiagnostics {
        OracleDiagnostics {
            large_common: self.large_common.finalize().map(|(v, _)| v),
            large_set: self.large_set.finalize().map(|(v, _)| v),
            small_set: self
                .small_set
                .as_ref()
                .and_then(SmallSet::finalize)
                .map(|(v, _)| v),
        }
    }

    /// Emit the finalize-time observability snapshot for this oracle:
    /// one "subroutine" event (its estimate; its words are its space
    /// ledger subtree) per active subroutine and one "sketch" event with
    /// its aggregated sketch telemetry, all tagged with the owning
    /// estimator lane. Infeasible
    /// estimates are recorded as JSON `null` (NaN sentinel). No-op when
    /// `rec` is disabled.
    pub fn record_snapshot(&self, rec: &Recorder, lane: usize) {
        if !rec.is_enabled() {
            return;
        }
        let d = self.diagnostics();
        // `set_base` is the oracle's 1-word handle on the shared
        // set-fingerprint base (the coefficients are attributed to their
        // owner, the estimator's fingerprint front end).
        let subs = [
            ("set_base", None),
            ("large_common", d.large_common),
            ("large_set", d.large_set),
        ];
        let small_set = self.small_set.as_ref().map(|_| ("small_set", d.small_set));
        for (name, est) in subs.into_iter().chain(small_set) {
            rec.event(
                "subroutine",
                &[
                    ("lane", Value::from(lane as u64)),
                    ("name", Value::from(name)),
                    ("estimate", Value::from(est.unwrap_or(f64::NAN))),
                ],
            );
        }
        let scope = |name: &str| format!("lane{lane}.{name}");
        rec.sketch(
            &scope("large_common"),
            "l0",
            self.large_common.sketch_stats(),
        );
        rec.sketch(&scope("large_set"), "finder", self.large_set.sketch_stats());
        if let Some(ss) = &self.small_set {
            rec.sketch(&scope("small_set"), "edge_store", ss.sketch_stats());
        }
    }

    /// Cheap per-subroutine fill snapshot for heartbeat telemetry:
    /// `(large_common, large_set, small_set)` sketch stats, harvested
    /// from the plain counters the subroutines already maintain (no
    /// finalize, no estimate extraction — safe to call mid-stream at
    /// heartbeat cadence).
    pub fn heartbeat_stats(&self) -> (SketchStats, SketchStats, Option<SketchStats>) {
        (
            self.large_common.sketch_stats(),
            self.large_set.sketch_stats(),
            self.small_set.as_ref().map(SmallSet::sketch_stats),
        )
    }

    /// Merge an oracle built with the same parameters and seed over a
    /// disjoint stream shard: delegates to each subroutine's merge.
    /// Panics on configuration or seed mismatch (including one side
    /// having the `SmallSet` branch active and the other not).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.u, other.u,
            "Oracle merge requires identical configuration (universe)"
        );
        assert_eq!(
            self.small_set.is_some(),
            other.small_set.is_some(),
            "Oracle merge requires identical configuration (SmallSet activation)"
        );
        assert_eq!(
            self.set_base.hash(0x5eed_c0de),
            other.set_base.hash(0x5eed_c0de),
            "Oracle merge requires identical hash functions"
        );
        self.large_common.merge(&other.large_common);
        self.large_set.merge(&other.large_set);
        if let (Some(a), Some(b)) = (&mut self.small_set, &other.small_set) {
            a.merge(b);
        }
    }

    /// Expand a witness into concrete set indices (at most `k` after the
    /// caller's truncation; see `report` module for the full policy).
    pub fn expand_witness(&self, witness: &Witness) -> Vec<u32> {
        match witness {
            Witness::SampledGroup { lane, group } => self.large_common.group_sets(*lane, *group),
            Witness::Superset { rep, superset } => self.large_set.superset_members(*rep, *superset),
            Witness::ExplicitSets(sets) => sets.clone(),
        }
    }
}

// ---- wire format ----------------------------------------------------

impl Oracle {
    /// The words of the [`WireState`] of an oracle that
    /// [`Oracle::with_base`] builds from `params`: its subroutines'.
    /// Fails where [`LargeSet::with_base`] would refuse `params`.
    pub(crate) fn state_words(params: &Params, reporting: bool) -> Result<usize, WireError> {
        let small_set = if params.small_set_active() {
            SmallSet::state_words(params)
        } else {
            0
        };
        Ok(
            LargeCommon::state_words(params, reporting)
                + LargeSet::state_words(params)?
                + small_set,
        )
    }
}

/// Its subroutines' states in order.
impl WireState for Oracle {
    fn put_state(&self, out: &mut Vec<u8>) {
        self.large_common.put_state(out);
        self.large_set.put_state(out);
        if let Some(ss) = &self.small_set {
            ss.put_state(out);
        }
    }

    fn take_state(&mut self, input: &mut &[u8]) -> Result<(), WireError> {
        self.large_common.take_state(input)?;
        self.large_set.take_state(input)?;
        match &mut self.small_set {
            Some(ss) => ss.take_state(input),
            None => Ok(()),
        }
    }
}

impl SpaceUsage for Oracle {
    /// A 1-word handle on the shared base (the coefficients are counted
    /// once by their owner), then one child per subroutine — the names
    /// the `subroutine` trace events use, so a subroutine's words are
    /// its subtree's total.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("set_base", 1);
        self.large_common.space_ledger(node.child("large_common"));
        self.large_set.space_ledger(node.child("large_set"));
        if let Some(ss) = &self.small_set {
            ss.space_ledger(node.child("small_set"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::gen::{common_heavy, few_large, many_small};
    use kcov_stream::{edge_stream, ArrivalOrder};

    fn feed(oracle: &mut Oracle, edges: &[Edge]) {
        let fps: Vec<u64> = edges
            .iter()
            .map(|e| oracle.set_base.hash(e.set as u64))
            .collect();
        oracle.observe_fp_batch(edges, &fps);
    }

    fn run_oracle(
        system: &kcov_stream::SetSystem,
        k: usize,
        alpha: f64,
        seed: u64,
    ) -> OracleOutput {
        let params = Params::practical(system.num_sets(), system.num_elements(), k, alpha);
        let mut oracle = Oracle::new(system.num_elements(), &params, false, seed);
        feed(
            &mut oracle,
            &edge_stream(system, ArrivalOrder::Shuffled(seed)),
        );
        oracle.finalize()
    }

    #[test]
    fn fires_on_all_three_regimes() {
        let regimes: [(&str, kcov_stream::SetSystem, usize); 3] = [
            ("common-heavy", common_heavy(2000, 400, 1), 10),
            ("few-large", few_large(2000, 300, 3, 500, 1), 10),
            ("many-small", many_small(2000, 400, 50, 0.5, 1), 50),
        ];
        for (name, system, k) in regimes {
            let out = run_oracle(&system, k, 6.0, 42);
            assert!(
                out.estimate > 0.0,
                "oracle silent on {name} (winner {:?})",
                out.winner
            );
        }
    }

    #[test]
    fn estimate_never_exceeds_universe() {
        let system = common_heavy(500, 200, 3);
        let out = run_oracle(&system, 10, 2.0, 7);
        assert!(out.estimate <= 500.0);
    }

    #[test]
    fn winner_matches_regime_for_small_sets() {
        // A needle-in-haystack variant of regime III: the planted
        // optimum is 50 small sets, the decoys are near-empty, so a
        // *random* k sets cover little (starving LargeCommon) and no
        // set is individually heavy (starving LargeSet) — SmallSet must
        // win.
        let inst = kcov_stream::gen::planted_cover(2000, 400, 50, 0.4, 2, 3);
        let out = run_oracle(&inst.system, 50, 8.0, 11);
        assert_eq!(
            out.winner,
            Some(SubroutineKind::SmallSet),
            "est {}",
            out.estimate
        );
    }

    #[test]
    fn witness_expansion_nonempty_when_winner() {
        let system = few_large(2000, 300, 3, 500, 2);
        let params = Params::practical(300, 2000, 10, 6.0);
        let mut oracle = Oracle::new(2000, &params, true, 5);
        feed(
            &mut oracle,
            &edge_stream(&system, ArrivalOrder::Shuffled(1)),
        );
        let out = oracle.finalize();
        if let Some(w) = &out.witness {
            assert!(!oracle.expand_witness(w).is_empty());
        } else {
            panic!("expected a winner on regime II");
        }
    }

    #[test]
    fn small_set_disabled_when_salpha_large() {
        // k = 1 with alpha >= 8 → s_alpha = 2 >= 2k → SmallSet off.
        let params = Params::practical(500, 500, 1, 8.0);
        let oracle = Oracle::new(500, &params, false, 1);
        assert!(oracle.small_set().is_none());
    }

    #[test]
    fn diagnostics_mirror_finalize() {
        let system = common_heavy(800, 300, 5);
        let params = Params::practical(300, 800, 10, 4.0);
        let mut oracle = Oracle::new(800, &params, false, 3);
        feed(
            &mut oracle,
            &edge_stream(&system, ArrivalOrder::Shuffled(2)),
        );
        let d = oracle.diagnostics();
        let best = d.best().unwrap_or(0.0).min(800.0);
        let out = oracle.finalize();
        assert!(
            (out.estimate - best).abs() < 1e-9,
            "max of diagnostics must match"
        );
    }

    #[test]
    fn merge_matches_serial_across_regimes() {
        let regimes: [(&str, kcov_stream::SetSystem, usize); 3] = [
            ("common-heavy", common_heavy(2000, 400, 9), 10),
            ("few-large", few_large(2000, 300, 3, 500, 9), 10),
            ("many-small", many_small(2000, 400, 50, 0.5, 9), 50),
        ];
        for (name, system, k) in regimes {
            let params = Params::practical(system.num_sets(), system.num_elements(), k, 6.0);
            let edges = edge_stream(&system, ArrivalOrder::Shuffled(13));
            let proto = Oracle::new(system.num_elements(), &params, true, 19);
            let mut serial = proto.clone();
            feed(&mut serial, &edges);
            let (head, tail) = edges.split_at(edges.len() / 3);
            let mut left = proto.clone();
            let mut right = proto;
            feed(&mut left, head);
            feed(&mut right, tail);
            left.merge(&right);
            let a = serial.finalize();
            let b = left.finalize();
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "{name}: estimate"
            );
            assert_eq!(a.winner, b.winner, "{name}: winner");
            assert_eq!(a.witness, b.witness, "{name}: witness");
        }
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_small_set_activation_mismatch() {
        // k = 1, alpha = 8 disables SmallSet; k = 5 keeps it on.
        let p_off = Params::practical(500, 500, 1, 8.0);
        let p_on = Params::practical(500, 500, 5, 2.0);
        let mut a = Oracle::new(500, &p_off, false, 1);
        let b = Oracle::new(500, &p_on, false, 1);
        a.merge(&b);
    }

    #[test]
    fn empty_stream_gives_zero() {
        let params = Params::practical(100, 100, 5, 2.0);
        let oracle = Oracle::new(100, &params, false, 1);
        let out = oracle.finalize();
        assert_eq!(out.estimate, 0.0);
        assert!(out.winner.is_none());
    }
}
