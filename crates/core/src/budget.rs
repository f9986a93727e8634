//! Space-first configuration — the paper's own framing inverted.
//!
//! The introduction (§1): *"In many scenarios, space is the most
//! critical factor, and thus the question becomes: what approximation
//! guarantees are possible within the given space bounds?"* This module
//! answers it operationally: given a budget in words, find the smallest
//! α whose estimator fits, by exploiting that the space bound
//! `Õ(m/α²)` is monotone decreasing in α.
//!
//! The cost model is *measured*, not assumed: candidate estimators are
//! constructed and their static state (`SpaceUsage`) plus the worst-case
//! dynamic allowance (the `SmallSet` per-lane edge caps — its only
//! unbounded-at-construction component) is compared against the budget
//! via binary search over α.

use kcov_sketch::SpaceUsage;

use crate::estimate::{EstimatorConfig, MaxCoverEstimator};
use crate::params::Params;

/// Result of fitting a budget.
#[derive(Debug)]
pub struct BudgetFit {
    /// The smallest feasible α found (within the search resolution).
    pub alpha: f64,
    /// The configured estimator (not yet fed).
    pub estimator: MaxCoverEstimator,
    /// Predicted worst-case space in words (static + dynamic caps).
    pub predicted_words: usize,
}

/// Worst-case space prediction for the estimator at `alpha`: measured
/// static state plus every SmallSet lane's edge cap.
pub fn predict_space_words(
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
) -> usize {
    let est = MaxCoverEstimator::new(n, m, k, alpha, config);
    est.space_words() + dynamic_allowance(n, m, k, alpha, config, &est)
}

fn dynamic_allowance(
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
    est: &MaxCoverEstimator,
) -> usize {
    // SmallSet stores up to `edge_cap` words per (γ, rep) lane; each
    // lane either stays below the cap or terminates (Fig 5). The
    // estimator runs one SmallSet per (z, rep) lane when active.
    let params = Params::for_mode(config.mode, m, n, k, alpha);
    if !params.small_set_active() {
        return 0;
    }
    let gamma_lanes = (4.0 * params.s_alpha * params.eta)
        .max(2.0)
        .log2()
        .ceil() as usize
        + 1;
    let per_small_set = gamma_lanes * params.small_set_reps.max(1) * params.small_set_edge_cap;
    est.num_lanes() * per_small_set
}

/// Find the smallest α in `[1, √m]` whose predicted worst-case space
/// fits `budget_words`. Returns `None` when even `α = √m` does not fit.
pub fn fit_alpha_to_budget(
    n: usize,
    m: usize,
    k: usize,
    budget_words: usize,
    config: &EstimatorConfig,
) -> Option<BudgetFit> {
    let alpha_max = (m as f64).sqrt().max(1.0);
    if predict_space_words(n, m, k, alpha_max, config) > budget_words {
        return None;
    }
    // Binary search the feasibility frontier (space is monotone
    // decreasing in α up to lane-count granularity; we search to a
    // 5% resolution and then verify).
    let mut lo = 1.0f64; // may be infeasible
    let mut hi = alpha_max; // feasible
    if predict_space_words(n, m, k, lo, config) <= budget_words {
        hi = lo;
    }
    while hi / lo > 1.05 {
        let mid = (lo * hi).sqrt();
        if predict_space_words(n, m, k, mid, config) <= budget_words {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let alpha = hi;
    let estimator = MaxCoverEstimator::new(n, m, k, alpha, config);
    let predicted_words = predict_space_words(n, m, k, alpha, config);
    Some(BudgetFit {
        alpha,
        estimator,
        predicted_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::gen::planted_cover;
    use kcov_stream::{edge_stream, ArrivalOrder};

    fn config() -> EstimatorConfig {
        let mut c = EstimatorConfig::practical(5);
        c.z_guesses = Some(vec![256, 1024, 4096]);
        c.reps = Some(1);
        c
    }

    #[test]
    fn prediction_is_monotone_in_alpha() {
        let c = config();
        let a2 = predict_space_words(8_000, 1_000, 32, 2.0, &c);
        let a8 = predict_space_words(8_000, 1_000, 32, 8.0, &c);
        let a31 = predict_space_words(8_000, 1_000, 32, 31.0, &c);
        assert!(a2 > a8, "space must fall: {a2} vs {a8}");
        assert!(a8 > a31, "space must fall: {a8} vs {a31}");
    }

    #[test]
    fn fit_respects_the_budget() {
        let c = config();
        let generous = predict_space_words(8_000, 1_000, 32, 2.0, &c) * 2;
        let fit = fit_alpha_to_budget(8_000, 1_000, 32, generous, &c).expect("fits");
        assert!(fit.alpha <= 2.2, "generous budget should allow small alpha: {}", fit.alpha);
        assert!(fit.predicted_words <= generous);

        let tight = predict_space_words(8_000, 1_000, 32, 16.0, &c);
        let fit = fit_alpha_to_budget(8_000, 1_000, 32, tight, &c).expect("fits");
        assert!(fit.alpha >= 8.0, "tight budget forces large alpha: {}", fit.alpha);
        assert!(fit.predicted_words <= tight);
    }

    #[test]
    fn impossible_budget_returns_none() {
        let c = config();
        assert!(fit_alpha_to_budget(8_000, 1_000, 32, 10, &c).is_none());
    }

    #[test]
    fn boundary_budget_is_the_feasibility_frontier() {
        let c = config();
        let alpha_max = (1_000f64).sqrt();
        let floor = predict_space_words(8_000, 1_000, 32, alpha_max, &c);
        // Exactly the worst-case prediction at alpha_max fits…
        let fit = fit_alpha_to_budget(8_000, 1_000, 32, floor, &c).expect("boundary budget fits");
        assert!(fit.alpha <= alpha_max);
        assert!(fit.predicted_words <= floor);
        // …and one word less does not.
        assert!(
            fit_alpha_to_budget(8_000, 1_000, 32, floor - 1, &c).is_none(),
            "one word below the alpha_max prediction must be infeasible"
        );
    }

    #[test]
    fn huge_budget_fits_alpha_one() {
        let c = config();
        let huge = predict_space_words(8_000, 1_000, 32, 1.0, &c) * 10;
        let fit = fit_alpha_to_budget(8_000, 1_000, 32, huge, &c).expect("huge budget fits");
        // α = 1 is feasible, and the search returns it exactly (the
        // lower probe short-circuits the binary search).
        assert_eq!(fit.alpha.to_bits(), 1.0f64.to_bits());
        assert!(fit.predicted_words <= huge);
    }

    #[test]
    fn fitted_estimator_space_matches_recorded_snapshot() {
        use kcov_obs::Recorder;
        let mut c = config();
        let rec = Recorder::enabled();
        c.recorder = rec.clone();
        let budget = predict_space_words(4_000, 500, 16, 8.0, &c);
        let mut fit = fit_alpha_to_budget(4_000, 500, 16, budget, &c).expect("fits");
        let inst = planted_cover(4_000, 500, 16, 0.7, 30, 3);
        fit.estimator
            .observe_batch(&edge_stream(&inst.system, ArrivalOrder::Shuffled(1)));
        let out = fit.estimator.finalize();
        // The summary event reports exactly the estimator's words, the
        // subroutines' ledger subtrees sum to it, and both respect the
        // prediction the budget fit promised.
        let summary = &rec.events_of("summary")[0];
        assert_eq!(
            summary.u64_field("space_words").unwrap(),
            fit.estimator.space_words() as u64
        );
        assert_eq!(out.space_words, fit.estimator.space_words());
        let sub_sum: u64 = kcov_obs::audit::Trace::of(&rec)
            .unwrap()
            .subroutine_words()
            .iter()
            .map(|w| w.2.unwrap())
            .sum();
        assert_eq!(sub_sum, fit.estimator.space_words() as u64);
        assert!(fit.estimator.space_words() <= fit.predicted_words);
    }

    #[test]
    fn fitted_estimator_respects_prediction_at_runtime() {
        let c = config();
        let budget = predict_space_words(4_000, 500, 16, 8.0, &c);
        let mut fit = fit_alpha_to_budget(4_000, 500, 16, budget, &c).expect("fits");
        let inst = planted_cover(4_000, 500, 16, 0.7, 30, 3);
        fit.estimator
            .observe_batch(&edge_stream(&inst.system, ArrivalOrder::Shuffled(1)));
        let used = fit.estimator.space_words();
        assert!(
            used <= fit.predicted_words,
            "runtime {used} exceeded prediction {}",
            fit.predicted_words
        );
        let out = fit.estimator.finalize();
        assert!(out.estimate > 0.0, "fitted estimator must still work");
        assert!(out.estimate <= inst.planted_coverage as f64 * 1.15);
    }
}
