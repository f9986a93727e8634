//! Two-pass refinement — an *extension* beyond the paper.
//!
//! The paper is strictly single-pass; its guess grid pays a `log n`
//! factor in space because every `z = 2^i` runs its own oracle in
//! parallel. When the stream can be replayed (stored logs, repeatable
//! scans — the setting of the multi-pass lines of Table 1's set-cover
//! relatives [6, 17]), a second pass removes that factor:
//!
//! * **Pass 1** — the single-pass estimator on a coarse grid produces a
//!   constant-factor-correct guess `ẑ` of the optimal coverage.
//! * **Pass 2** — a single universe-reduced `(α, δ, η)`-oracle tuned to
//!   `z = Θ(ẑ)` runs with the *entire* space/repetition budget,
//!   reporting the cover.
//!
//! Space drops from `Õ(log n · m/α²)` to `Õ(m/α²)` per pass, and the
//! lone oracle can afford more repetitions for the same footprint.

use kcov_hash::SeedSequence;
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::Edge;

use crate::estimate::{EstimatorConfig, MaxCoverEstimator};
use crate::oracle::OracleOutput;
use crate::params::Params;
use crate::report::ReportedCover;

/// Pass 1: estimate the optimal coverage size.
#[derive(Debug, Clone)]
pub struct TwoPassFirst {
    config: EstimatorConfig,
    estimator: MaxCoverEstimator,
}

impl TwoPassFirst {
    /// Start pass 1 with a coarse internal grid (factor-4 guesses, one
    /// repetition — pass 2 restores the lost constants).
    pub fn new(n: usize, m: usize, k: usize, alpha: f64, config: &EstimatorConfig) -> Self {
        let mut pass1_config = config.clone();
        if pass1_config.z_guesses.is_none() {
            let mut zs = Vec::new();
            let mut z = 4u64;
            while z < 2 * n as u64 {
                zs.push(z);
                z *= 4;
            }
            pass1_config.z_guesses = Some(zs);
        }
        pass1_config.reps = Some(pass1_config.reps.unwrap_or(1));
        pass1_config.reporting = false;
        TwoPassFirst {
            config: config.clone(),
            estimator: MaxCoverEstimator::new(n, m, k, alpha, &pass1_config),
        }
    }

    /// Observe a chunk of pass-1 edges through the batched ingestion
    /// engine (see [`MaxCoverEstimator::observe_batch`]).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        self.estimator.observe_batch(edges);
    }

    /// Merge another pass-1 state built from the same instance shape,
    /// configuration and seed (delegates to
    /// [`MaxCoverEstimator::merge`], so the merged state hands the same
    /// `ẑ` guess to pass 2 as serial ingestion would).
    pub fn merge(&mut self, other: &Self) {
        self.estimator.merge(&other.estimator);
    }

    /// Ingest pass-1 edges through sharded replicas (see
    /// [`MaxCoverEstimator::ingest_sharded`]). Must be called on a
    /// freshly constructed pass-1 state.
    pub fn ingest_sharded(&mut self, edges: &[Edge], shards: usize, batch: usize) {
        self.estimator.ingest_sharded(edges, shards, batch);
    }

    /// Finish pass 1 and build pass 2 around the guess.
    pub fn into_second_pass(self) -> TwoPassSecond {
        let (n, m, k, alpha) = self.estimator.shape();
        let out = self.estimator.finalize();
        // ẑ: prefer the winning z (it already passed the acceptance
        // test); fall back to the estimate, then to n.
        let guess = if out.winning_z > 0 {
            out.winning_z
        } else if out.estimate >= 1.0 {
            out.estimate as u64
        } else {
            n as u64
        };
        // Oversample the guess by 4× (the estimate is a lower bound on
        // OPT up to the approximation factor; Lemma 3.5 tolerates
        // |S| ≥ z, so a modestly large z only costs constants), capped
        // at 2n but never below 4, even when 2n < 4.
        let z = (4 * guess).next_power_of_two().clamp(4, (2 * n as u64).max(4));
        let params = Params::for_mode(self.config.mode, m, z as usize, k, alpha);
        // Pass 2 is the estimator's lane machinery at the one tuned
        // guess, with at least two repetitions and reporting on, under
        // a root seed independent of pass 1's.
        let mut config = self.config;
        config.z_guesses = Some(vec![z]);
        config.reps = Some(config.reps.unwrap_or(params.reduction_reps).max(2));
        config.reporting = true;
        config.seed = SeedSequence::labeled(config.seed, "two-pass-second").next_seed();
        TwoPassSecond {
            // The lane builder, not `new`: pass 2 runs its oracle lanes
            // even when k·α ≥ m sent pass 1 to the trivial branch.
            inner: MaxCoverEstimator::with_lanes(n, m, k, alpha, &config),
            k,
            z,
            pass1_estimate: out.estimate,
        }
    }
}

/// Pass 2: a single tuned, reporting oracle (repeated for confidence),
/// run as a [`MaxCoverEstimator`] whose only `z` guess is the tuned one.
#[derive(Debug, Clone)]
pub struct TwoPassSecond {
    inner: MaxCoverEstimator,
    k: usize,
    z: u64,
    pass1_estimate: f64,
}

impl TwoPassSecond {
    /// The tuned pseudo-universe size.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Observe a chunk of pass-2 edges through the batched ingestion
    /// engine (see [`MaxCoverEstimator::observe_batch`]).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        self.inner.observe_batch(edges);
    }

    /// Merge another pass-2 state derived from the same pass-1 guess
    /// and seed (see [`MaxCoverEstimator::merge`]).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.z, self.pass1_estimate.to_bits()),
            (other.z, other.pass1_estimate.to_bits()),
            "TwoPassSecond merge requires identical configuration (pass-1 guess)"
        );
        self.inner.merge(&other.inner);
    }

    /// Ingest pass-2 edges through sharded replicas (see
    /// [`MaxCoverEstimator::ingest_sharded`]). Must be called on a fresh
    /// pass-2 state (straight out of [`TwoPassFirst::into_second_pass`]).
    pub fn ingest_sharded(&mut self, edges: &[Edge], shards: usize, batch: usize) {
        self.inner.ingest_sharded(edges, shards, batch);
    }

    /// Finish pass 2: the cover of the best repetition that holds a
    /// witness, its estimate floored at `min(pass-1 estimate, z)`; with
    /// no witness, the pass-1 estimate and no sets. Emits no events.
    pub fn finalize(&self) -> ReportedCover {
        let mut best: Option<(usize, OracleOutput)> = None;
        for lane in 0..self.inner.num_lanes() {
            let out = self.inner.lane_oracle(lane).finalize();
            let better = best.as_ref().is_none_or(|(_, b)| out.estimate > b.estimate);
            if out.witness.is_some() && better {
                best = Some((lane, out));
            }
        }
        let space_words = self.space_words();
        let Some((lane, out)) = best else {
            return ReportedCover {
                sets: Vec::new(),
                estimate: self.pass1_estimate,
                winner: None,
                space_words,
            };
        };
        let witness = out.witness.expect("the picked lane holds a witness");
        let mut sets = self.inner.lane_oracle(lane).expand_witness(&witness);
        sets.truncate(self.k);
        sets.sort_unstable();
        sets.dedup();
        ReportedCover {
            sets,
            estimate: out.estimate.max(self.pass1_estimate.min(self.z as f64)),
            winner: out.winner,
            space_words,
        }
    }

    /// Emit the pass-2 observability snapshot (no-op when disabled):
    /// heartbeats and ingest histograms of stage `pass2`, the `twopass`
    /// event, then the time ledger rooted at `pass2`.
    fn record(&self, cover: &ReportedCover) {
        self.inner.record_stage("pass2", "pass2", |rec| {
            rec.event(
                "twopass",
                &[
                    ("z", kcov_obs::Value::from(self.z)),
                    ("estimate", kcov_obs::Value::from(cover.estimate)),
                    ("sets", kcov_obs::Value::from(cover.sets.len())),
                    ("space_words", kcov_obs::Value::from(cover.space_words)),
                    ("reps", kcov_obs::Value::from(self.inner.num_lanes())),
                ],
            );
            rec.gauge("twopass.z", self.z as f64);
            rec.gauge("twopass.space_words", cover.space_words as f64);
        });
    }
}

impl SpaceUsage for TwoPassSecond {
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        self.inner.space_ledger(node);
    }
}

/// Convenience: run both passes over a replayable stream, each through
/// `config.shards` sharded replicas in chunks of `batch` edges (via
/// [`TwoPassFirst::ingest_sharded`] and
/// [`TwoPassSecond::ingest_sharded`]). The cover is the same for every
/// shard count and chunk size up to the merge-equivalence contract
/// (DESIGN.md §8).
pub fn run_two_pass(
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
    edges: &[Edge],
    batch: usize,
) -> ReportedCover {
    let rec = config.recorder.clone();
    let mut first = TwoPassFirst::new(n, m, k, alpha, config);
    let span = rec.span("pass1");
    first.ingest_sharded(edges, config.shards, batch);
    span.finish();
    let mut second = first.into_second_pass();
    let span = rec.span("pass2");
    second.ingest_sharded(edges, config.shards, batch);
    span.finish();
    let cover = second.finalize();
    second.record(&cover);
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MaxCoverReporter;
    use kcov_stream::gen::planted_cover;
    use kcov_stream::{coverage_of, edge_stream, ArrivalOrder};

    #[test]
    fn two_pass_reports_a_useful_cover() {
        let inst = planted_cover(2_000, 250, 12, 0.8, 40, 3);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
        let config = EstimatorConfig::practical(9);
        let cover = run_two_pass(2_000, 250, 12, 4.0, &config, &edges, 1024);
        assert!(!cover.sets.is_empty());
        assert!(cover.sets.len() <= 12);
        let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
        let cov = coverage_of(&inst.system, &chosen) as f64;
        assert!(
            cov >= inst.planted_coverage as f64 / (4.0 * 30.0),
            "two-pass cover too weak: {cov}"
        );
    }

    #[test]
    fn second_pass_z_tracks_pass1_guess() {
        let inst = planted_cover(4_000, 300, 10, 0.5, 50, 5);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
        let config = EstimatorConfig::practical(3);
        let mut first = TwoPassFirst::new(4_000, 300, 10, 4.0, &config);
        first.observe_batch(&edges);
        let second = first.into_second_pass();
        // OPT = 2000; ẑ·4 rounded to a power of two should be within
        // a factor ~32 of OPT (pass 1 is only α-approximate).
        assert!(second.z() >= 64, "z {} too small", second.z());
        assert!(second.z() <= 8_000, "z {} too large", second.z());
    }

    #[test]
    fn two_pass_uses_less_space_than_single_pass_grid() {
        let inst = planted_cover(8_000, 500, 16, 0.7, 40, 7);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(4));
        let config = EstimatorConfig::practical(11);
        // Single-pass reporter with the full default grid.
        let mut single = MaxCoverReporter::new(8_000, 500, 16, 8.0, &config);
        single.observe_batch(&edges);
        let single_space = single.finalize().space_words;
        // Two-pass: pass 2 space only (pass 1 is also cheaper — coarse
        // grid, 1 rep — but the comparison of interest is steady state).
        let mut first = TwoPassFirst::new(8_000, 500, 16, 8.0, &config);
        first.observe_batch(&edges);
        let mut second = first.into_second_pass();
        second.observe_batch(&edges);
        let two_space = second.space_words();
        assert!(
            (two_space as f64) < 0.5 * single_space as f64,
            "two-pass {two_space} vs single {single_space}"
        );
    }

    #[test]
    fn empty_stream_degrades_gracefully() {
        let config = EstimatorConfig::practical(1);
        let cover = run_two_pass(100, 50, 5, 2.0, &config, &[], 1024);
        assert!(cover.sets.is_empty());
    }

    #[test]
    fn sharded_two_pass_matches_serial() {
        let inst = planted_cover(1_000, 150, 8, 0.7, 30, 13);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(3));
        let config = EstimatorConfig::practical(7);
        let serial = run_two_pass(1_000, 150, 8, 4.0, &config, &edges, edges.len());
        for shards in [2usize, 4] {
            let sharded_config = config.clone().with_shards(shards);
            let out = run_two_pass(1_000, 150, 8, 4.0, &sharded_config, &edges, 128);
            assert_eq!(serial.sets, out.sets, "shards={shards}");
            assert_eq!(
                serial.estimate.to_bits(),
                out.estimate.to_bits(),
                "shards={shards}"
            );
        }
    }
}
