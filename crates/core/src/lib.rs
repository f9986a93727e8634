//! # kcov-core — streaming maximum k-coverage with tight trade-offs
//!
//! A faithful implementation of
//!
//! > Piotr Indyk, Ali Vakilian. *Tight Trade-offs for the Maximum
//! > k-Coverage Problem in the General Streaming Model.* PODS 2019.
//!
//! Single-pass algorithms over **edge-arrival** streams of
//! `(set, element)` pairs in arbitrary order:
//!
//! * [`MaxCoverEstimator`] — estimates the optimal coverage size of
//!   `Max k-Cover` within a factor `Õ(α)` using `Õ(m/α²)` words
//!   (Theorem 3.1); the space bound is tight by the paper's Theorem 3.3
//!   (see the `kcov-lowerbound` crate).
//! * [`MaxCoverReporter`] — additionally returns an α-approximate
//!   k-cover in `Õ(m/α² + k)` words (Theorem 3.2).
//!
//! The estimator is a portfolio (Fig 2) behind a universe-reduction
//! wrapper (Fig 1):
//!
//! | module | paper | fires when |
//! |--------|-------|------------|
//! | [`universe`] | §3.1, Lemma 3.5 | always (wrapper) |
//! | [`large_common`] | §4.1, Fig 3 | many common elements |
//! | [`large_set`] | §4.2 + App. B, Figs 4/6/7 | few large sets dominate |
//! | [`small_set`] | §4.3, Fig 5 | many small sets dominate |
//!
//! Beyond the paper (documented as extensions): [`two_pass`] removes
//! the `log n` guess-grid factor when the stream is replayable, and
//! [`budget`] inverts the trade-off — given a space budget in words, it
//! fits the smallest feasible α (the "space is the most critical
//! factor" framing of the paper's introduction). [`paper_map`] indexes
//! every theorem/figure to its implementation and tests.
//!
//! ## Input contract
//!
//! The stream is a sequence of `(set, element)` pairs in arbitrary
//! order, as in the paper. Re-arrivals of the *same* pair are tolerated
//! (all distinct-element machinery ignores them), but the superset-load
//! vector of `LargeSet` counts arrivals — matching the paper's
//! `v⃗[i] = Σ_{S∈D_i}|S|`, which presumes each incidence appears once.
//! A duplication factor of `O(log mn)` is absorbed by the same `f`
//! slack that handles within-superset duplication (Claim 4.10); heavier
//! duplication degrades `LargeSet`'s soundness margin proportionally.
//!
//! ## Quick start
//!
//! ```
//! use kcov_core::{EstimatorConfig, MaxCoverEstimator};
//! use kcov_stream::{edge_stream, ArrivalOrder, gen::planted_cover};
//!
//! let inst = planted_cover(1000, 100, 5, 0.8, 40, 7);
//! let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
//! let out = MaxCoverEstimator::run(1000, 100, 5, 4.0,
//!     &EstimatorConfig::practical(42), &edges, 1024);
//! assert!(out.estimate > 0.0);
//! assert!(out.estimate <= inst.planted_coverage as f64 * 1.2);
//! ```

pub mod budget;
pub mod estimate;
pub mod fingerprint;
pub mod large_common;
pub mod large_set;
pub mod oracle;
pub mod paper_map;
pub mod params;
pub mod report;
pub mod small_set;
pub(crate) mod telemetry;
pub mod two_pass;
pub mod universe;

pub use budget::{fit_alpha_to_budget, predict_space_words, BudgetFit};
pub use estimate::{EstimateOutcome, EstimatorConfig, MaxCoverEstimator};
pub use fingerprint::{EdgeFingerprints, FingerprintBlock};
pub use large_common::LargeCommon;
pub use large_set::LargeSet;
pub use oracle::{Oracle, OracleDiagnostics, OracleOutput, SubroutineKind};
pub use params::{ParamMode, Params};
pub use report::{MaxCoverReporter, ReportedCover};
pub use small_set::SmallSet;
pub use telemetry::crosses_beat;
pub use two_pass::{run_two_pass, TwoPassFirst, TwoPassSecond};
pub use universe::UniverseReducer;

/// A reporting witness: how to reconstruct the winning (approximate)
/// k-cover from hash functions and stored ids, without having stored the
/// sets themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// `LargeCommon`: the `group`-th Observation-2.4 group of the sets
    /// sampled by β-layer `lane`.
    SampledGroup {
        /// β-layer index.
        lane: usize,
        /// Group id within the layer.
        group: u64,
    },
    /// `LargeSet`: the superset `{S : h(S) = superset}` of repetition
    /// `rep`.
    Superset {
        /// Repetition index.
        rep: usize,
        /// Superset id under that repetition's partition hash.
        superset: u64,
    },
    /// `SmallSet`: explicitly chosen set indices (greedy on the stored
    /// sub-instance).
    ExplicitSets(Vec<u32>),
}

/// Shared checks for the subroutines' unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use kcov_sketch::{SpaceUsage, WireEncode};
    use kcov_stream::Edge;

    use crate::Witness;

    /// Feed `proto` three ways through its `observe_fp_batch` (`feed`):
    /// one-edge chunks, ragged 7-edge chunks and the whole stream. All
    /// three must finalize identically, report equal `space_words` and
    /// encode to equal wire bytes.
    pub(crate) fn assert_chunking_invariant<T: Clone + SpaceUsage + WireEncode>(
        proto: &T,
        edges: &[Edge],
        fps: &[u64],
        feed: impl Fn(&mut T, &[Edge], &[u64]),
        finalize: impl Fn(&T) -> Option<(f64, Witness)>,
    ) {
        let [one, ragged, whole] = [1, 7, edges.len().max(1)].map(|size| {
            let mut state = proto.clone();
            for (chunk, fp) in edges.chunks(size).zip(fps.chunks(size)) {
                feed(&mut state, chunk, fp);
            }
            state
        });
        assert!(
            finalize(&whole).is_some(),
            "the test stream must fire the subroutine"
        );
        for (name, fed) in [("one-edge", one), ("7-edge", ragged)] {
            assert_eq!(finalize(&fed), finalize(&whole), "{name} chunks: finalize");
            assert_eq!(
                fed.space_words(),
                whole.space_words(),
                "{name} chunks: words"
            );
            assert_eq!(
                fed.to_bytes(),
                whole.to_bytes(),
                "{name} chunks: wire bytes"
            );
        }
    }
}
