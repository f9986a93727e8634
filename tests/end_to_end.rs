//! Cross-crate integration: the full pipeline — generators → streams →
//! estimator/reporter → verified against exact/greedy ground truth.

use maxkcov::baselines::{greedy_max_cover, max_cover_exact};
use maxkcov::core::{EstimatorConfig, MaxCoverEstimator, MaxCoverReporter};
use maxkcov::sketch::SpaceUsage;
use maxkcov::stream::gen::{planted_cover, uniform_incidence};
use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder};

/// Coarse, fast estimator config for integration tests.
fn fast_config(seed: u64, n: usize) -> EstimatorConfig {
    let mut config = EstimatorConfig::practical(seed);
    let mut zs = Vec::new();
    let mut z = 16u64;
    while z < 2 * n as u64 {
        zs.push(z);
        z *= 4;
    }
    config.z_guesses = Some(zs);
    config.reps = Some(2);
    config
}

#[test]
fn estimator_sandwich_against_exact_optimum() {
    // Small instance where the exact optimum is computable: the
    // estimate must be ≤ OPT (soundness, with sketch-noise slack) and
    // ≥ OPT/Õ(α) (usefulness).
    let ss = uniform_incidence(600, 80, 0.04, 3);
    let k = 6;
    let (_, opt) = max_cover_exact(&ss, k);
    let alpha = 3.0;
    let edges = edge_stream(&ss, ArrivalOrder::Shuffled(1));
    let out = MaxCoverEstimator::run(600, 80, k, alpha, &fast_config(9, 600), &edges, 1024);
    assert!(out.estimate > 0.0, "estimator silent");
    assert!(
        out.estimate <= opt as f64 * 1.15,
        "estimate {} exceeds exact OPT {opt}",
        out.estimate
    );
    assert!(
        out.estimate >= opt as f64 / (alpha * 30.0),
        "estimate {} uselessly small vs OPT {opt}",
        out.estimate
    );
}

#[test]
fn reporter_cover_verified_against_instance() {
    let inst = planted_cover(2_500, 300, 15, 0.8, 60, 5);
    let n = inst.system.num_elements();
    let m = inst.system.num_sets();
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
    let cover = MaxCoverReporter::run(n, m, 15, 4.0, &fast_config(3, n), &edges, 1024);
    assert!(!cover.sets.is_empty());
    assert!(cover.sets.len() <= 15);
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    let real = coverage_of(&inst.system, &chosen);
    assert!(
        real as f64 >= inst.planted_coverage as f64 / (4.0 * 30.0),
        "reported cover too weak: {real} vs planted {}",
        inst.planted_coverage
    );
}

#[test]
fn streaming_never_materializes_the_instance() {
    // Space sanity at scale: estimator state stays far below the stream
    // size on a large instance (the point of streaming).
    let ss = uniform_incidence(20_000, 2_000, 0.01, 7);
    let edges = edge_stream(&ss, ArrivalOrder::Shuffled(4));
    let mut config = fast_config(5, 20_000);
    config.reps = Some(1);
    let mut est = MaxCoverEstimator::new(20_000, 2_000, 40, 16.0, &config);
    est.ingest_sharded(&edges, 1, 1024);
    let words = est.space_words();
    // At this (moderate) scale the polylog constants still bite; the
    // asymptotic statement is exercised quantitatively in exp_tradeoff.
    // Here: strictly below storing the stream.
    assert!(
        words < edges.len(),
        "estimator uses {words} words vs stream {}",
        edges.len()
    );
}

#[test]
fn all_arrival_orders_give_consistent_estimates() {
    let inst = planted_cover(1_200, 150, 10, 0.7, 40, 8);
    let n = inst.system.num_elements();
    let m = inst.system.num_sets();
    let config = fast_config(11, n);
    let mut estimates = Vec::new();
    for order in [
        ArrivalOrder::SetContiguous,
        ArrivalOrder::ElementContiguous,
        ArrivalOrder::RoundRobin,
        ArrivalOrder::Shuffled(9),
    ] {
        let edges = edge_stream(&inst.system, order);
        let out = MaxCoverEstimator::run(n, m, 10, 4.0, &config, &edges, 1024);
        estimates.push(out.estimate);
    }
    let max = estimates.iter().cloned().fold(f64::MIN, f64::max);
    let min = estimates.iter().cloned().fold(f64::MAX, f64::min);
    assert!(min > 0.0, "some order silenced the estimator: {estimates:?}");
    assert!(
        max / min < 2.0,
        "order sensitivity too high: {estimates:?}"
    );
}

#[test]
fn greedy_exact_and_estimator_agree_on_ranking() {
    // A structured instance where coverage differs sharply between
    // k values: all three machineries must rank k=1 below k=8.
    let inst = planted_cover(2_000, 200, 8, 0.8, 50, 13);
    let n = inst.system.num_elements();
    let m = inst.system.num_sets();
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(21));
    let config = fast_config(17, n);
    let small_k = MaxCoverEstimator::run(n, m, 1, 4.0, &config, &edges, 1024).estimate;
    let large_k = MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 1024).estimate;
    let g1 = greedy_max_cover(&inst.system, 1).coverage as f64;
    let g8 = greedy_max_cover(&inst.system, 8).coverage as f64;
    assert!(g8 > g1);
    assert!(
        large_k >= small_k,
        "estimator ranking inverted: k=8 {large_k} < k=1 {small_k}"
    );
}
