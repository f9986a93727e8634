//! Table-1-shaped integration: every algorithm class runs on the same
//! workload; the coverage/space relationships the paper's Table 1
//! predicts must hold.

use maxkcov::baselines::{
    greedy_max_cover, mv_set_arrival, MvEdgeArrival, SieveStreaming, SketchedGreedy, SwapStreaming,
};
use maxkcov::core::{EstimatorConfig, MaxCoverEstimator, MaxCoverReporter};
use maxkcov::sketch::SpaceUsage;
use maxkcov::stream::gen::planted_cover;
use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder};

#[test]
fn table1_relationships_hold_on_planted_workload() {
    let inst = planted_cover(4_000, 600, 16, 0.8, 60, 31);
    let system = &inst.system;
    let (n, m, k) = (4_000usize, 600usize, 16usize);
    let edges = edge_stream(system, ArrivalOrder::Shuffled(3));

    let greedy = greedy_max_cover(system, k).coverage as f64;
    assert!(greedy >= inst.planted_coverage as f64 * (1.0 - 1.0 / std::f64::consts::E) - 1.0);

    // Set-arrival baselines: constant factor of greedy.
    let sieve = SieveStreaming::run(system, k, 0.2);
    let swap = SwapStreaming::run(system, k);
    let mv = mv_set_arrival(system, k, 0.2);
    for (name, r) in [("sieve", &sieve), ("swap", &swap), ("mv", &mv)] {
        let cov = coverage_of(system, &r.chosen) as f64;
        assert!(
            cov >= greedy / 4.5,
            "{name} too weak: {cov} vs greedy {greedy}"
        );
    }

    // Edge-arrival Õ(m): constant factor.
    let bem = SketchedGreedy::run(m, 48, 5, &edges, k);
    let bem_cov = coverage_of(system, &bem.chosen) as f64;
    assert!(bem_cov >= greedy / 3.0, "BEM too weak: {bem_cov}");

    let mut mv_edge = MvEdgeArrival::new(n, m, k, 0.4, 7);
    for &e in &edges {
        mv_edge.observe(e);
    }
    let mv_edge_res = mv_edge.finish();
    let mv_edge_cov = coverage_of(system, &mv_edge_res.chosen) as f64;
    assert!(
        mv_edge_cov >= greedy / 4.0,
        "MV-edge too weak: {mv_edge_cov}"
    );

    // This paper at two alphas: the reporter's coverage within Õ(α) of
    // greedy, and the estimator's space strictly decreasing in α. The
    // space claim is Thm 3.1's Õ(m/α²), which bounds the estimator; the
    // reporter adds Thm 3.2's +Õ(k) reporting state (LargeCommon keeps
    // β ≤ α group counters per layer), which grows with α.
    let mut spaces = Vec::new();
    for alpha in [4.0f64, 16.0] {
        let mut config = EstimatorConfig::practical(13);
        config.reps = Some(1);
        let mut rep = MaxCoverReporter::new(n, m, k, alpha, &config);
        rep.observe_batch(&edges);
        let r = rep.finalize();
        let chosen: Vec<usize> = r.sets.iter().map(|&s| s as usize).collect();
        let cov = coverage_of(system, &chosen) as f64;
        assert!(
            cov >= greedy / (alpha * 30.0),
            "alpha={alpha}: coverage {cov} vs greedy {greedy}"
        );
        let mut est = MaxCoverEstimator::new(n, m, k, alpha, &config);
        est.observe_batch(&edges);
        spaces.push(est.space_words());
    }
    assert!(
        spaces[0] > spaces[1],
        "space must fall with alpha: {spaces:?}"
    );
}
