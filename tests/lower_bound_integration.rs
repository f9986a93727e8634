//! Integration of the lower-bound harness with the core estimator:
//! the §5 reduction end-to-end.

use maxkcov::lowerbound::distinguisher::l2_sweep_point;
use maxkcov::lowerbound::{run_one_way_protocol, OracleDistinguisher};
use maxkcov::stream::gen::{dsj_max_cover_instance, DsjKind};
use maxkcov::stream::Edge;

#[test]
fn l2_distinguisher_space_success_tradeoff() {
    // Coarse two-point check of the E4 sweep: generous width works,
    // starved width does not (reliably).
    let (m, alpha, ipp) = (4096usize, 16usize, 128usize);
    let wide = l2_sweep_point(m, alpha, ipp, 5, 16 * m / (alpha * alpha), 8, 5);
    let narrow = l2_sweep_point(m, alpha, ipp, 5, 2, 8, 5);
    assert!(wide.success() >= 0.75, "wide: {wide:?}");
    assert!(
        wide.success() >= narrow.success(),
        "no improvement: {wide:?} vs {narrow:?}"
    );
    assert!(wide.space_words > narrow.space_words);
}

#[test]
fn reduction_yes_no_gap_preserved_through_estimator() {
    // Claims 5.3/5.4 seen through the full estimator as a one-way
    // protocol (Corollary 5.2's construction).
    let (m, alpha, ipp) = (1024usize, 32usize, 16usize);
    let mut gaps = Vec::new();
    for seed in 0..3u64 {
        let run_case = |kind: DsjKind| {
            let inst = dsj_max_cover_instance(m, alpha, ipp, kind, seed);
            let mut est = maxkcov::core::MaxCoverEstimator::new(
                alpha,
                m,
                1,
                2.0,
                &maxkcov::core::EstimatorConfig::practical(41 + seed),
            );
            let players: Vec<Vec<Edge>> = inst
                .players
                .iter()
                .enumerate()
                .map(|(i, t)| t.iter().map(|&j| Edge::new(j, i as u32)).collect())
                .collect();
            run_one_way_protocol(&mut est, &players)
        };
        let no = run_case(DsjKind::No);
        let yes = run_case(DsjKind::Yes);
        assert!(
            no.answer > yes.answer,
            "seed {seed}: gap lost (no {} vs yes {})",
            no.answer,
            yes.answer
        );
        assert!(!no.message_words.is_empty());
        gaps.push(no.answer / yes.answer.max(1e-9));
    }
    // The multiplicative gap should be substantial on average.
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!(mean_gap > 2.0, "mean gap {mean_gap} too small: {gaps:?}");
}

#[test]
fn oracle_distinguisher_end_to_end() {
    let (m, alpha, ipp) = (2048usize, 64usize, 16usize);
    let no = dsj_max_cover_instance(m, alpha, ipp, DsjKind::No, 9);
    let yes = dsj_max_cover_instance(m, alpha, ipp, DsjKind::Yes, 9);
    let (dn, sn) = OracleDistinguisher::new(m, alpha, 2.0, 1).decide_no_case(&no);
    let (dy, _) = OracleDistinguisher::new(m, alpha, 2.0, 1).decide_no_case(&yes);
    assert!(dn, "No case missed");
    assert!(!dy, "Yes case false positive");
    assert!(sn > 0);
}
