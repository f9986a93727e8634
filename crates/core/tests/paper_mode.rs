//! The literal Table 2 constants (`ParamMode::Paper`) must at least be
//! runnable and sound: at laptop scale the sampling rates are so
//! conservative that most subroutines see nothing — that is the
//! documented reason for the Practical mode — but nothing may panic,
//! overestimate, or leak unbounded space.

use kcov_core::{EstimatorConfig, MaxCoverEstimator, ParamMode, Params};
use kcov_sketch::SpaceUsage;
use kcov_stream::gen::planted_cover;
use kcov_stream::{edge_stream, ArrivalOrder};

#[test]
fn paper_constants_resolve_to_finite_values() {
    for (m, n, k, alpha) in [
        (100usize, 100usize, 5usize, 2.0f64),
        (10_000, 10_000, 100, 16.0),
        (1_000_000, 1_000_000, 1000, 512.0),
    ] {
        let p = Params::paper(m, n, k, alpha);
        assert!(p.s_alpha.is_finite() && p.s_alpha > 0.0);
        assert!(p.f.is_finite() && p.f > 0.0);
        assert!(p.sigma.is_finite() && p.sigma > 0.0);
        assert!(p.large_set_sample.is_finite() && p.large_set_sample >= 0.0);
        assert!(p.phi1() > 0.0 && p.phi1() <= 1.0);
        assert!(p.phi2() > 0.0 && p.phi2() <= 1.0);
        assert!(p.num_supersets(p.large_set_w()) >= 1);
    }
}

#[test]
fn paper_mode_estimator_runs_and_stays_sound() {
    let inst = planted_cover(600, 100, 8, 0.8, 20, 3);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
    let mut config = EstimatorConfig::practical(7);
    config.mode = ParamMode::Paper;
    config.z_guesses = Some(vec![128, 512]);
    config.reps = Some(1);
    let mut est = MaxCoverEstimator::new(600, 100, 8, 4.0, &config);
    est.observe_batch(&edges);
    let out = est.finalize();
    // Soundness must hold even when the conservative constants make the
    // estimate small or zero.
    assert!(
        out.estimate <= inst.planted_coverage as f64 * 1.1,
        "paper-mode overestimate: {}",
        out.estimate
    );
    assert!(est.space_words() > 0);
}

#[test]
fn paper_mode_space_still_scales_with_m_over_alpha_squared() {
    // Even with the literal constants, the functional form must hold.
    // m is chosen large enough that phi1 does not clamp at 1 (the paper
    // mode's w/(sα) dampening is itself a large polylog at small m).
    let small_alpha = Params::paper(100_000_000, 50_000, 500, 8.0);
    let large_alpha = Params::paper(100_000_000, 50_000, 500, 32.0);
    assert!(
        large_alpha.phi1() < 1.0,
        "phi1 clamped; m too small for the test"
    );
    let ratio = small_alpha.phi1() / large_alpha.phi1();
    // phi1 ∝ alpha² (modulo the slowly-varying log(sα) factor).
    assert!(
        ratio > 1.0 / 20.0 && ratio < 1.0 / 10.0,
        "phi1 ratio {ratio} not ~1/16"
    );
}
