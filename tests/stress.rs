//! Randomized stress: many instance shapes × seeds through the full
//! estimator, asserting the global invariants that must never break —
//! no panics, soundness against a greedy-derived upper bound, space
//! accounting sanity, and reporting validity.

use maxkcov::baselines::greedy_max_cover;
use maxkcov::core::{EstimatorConfig, MaxCoverReporter};
use maxkcov::hash::SplitMix64;
use maxkcov::sketch::SpaceUsage;
use maxkcov::stream::gen::{
    community_sets, rmat_incidence, uniform_incidence, zipf_popularity, RmatParams,
};
use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder, SetSystem};

fn fast_config(seed: u64, n: usize) -> EstimatorConfig {
    let mut config = EstimatorConfig::practical(seed);
    let mut zs = Vec::new();
    let mut z = 16u64;
    while z < 2 * n as u64 {
        zs.push(z);
        z *= 4;
    }
    config.z_guesses = Some(zs);
    config.reps = Some(1);
    config
}

fn shape_zoo(seed: u64) -> Vec<SetSystem> {
    vec![
        uniform_incidence(500 + (seed % 7) as usize * 100, 60, 0.05, seed),
        zipf_popularity(400, 80, 12, 1.1, seed),
        community_sets(600, 70, 5, 30, 3, seed),
        rmat_incidence(512, 128, 3_000, RmatParams::default(), seed),
        // Degenerate shapes.
        SetSystem::new(100, vec![vec![]; 20]),
        SetSystem::new(64, vec![(0..64).collect::<Vec<u32>>(); 5]),
    ]
}

#[test]
fn estimator_invariants_across_shape_zoo() {
    let mut rng = SplitMix64::new(0xdead);
    for seed in 0..4u64 {
        for (idx, system) in shape_zoo(seed).into_iter().enumerate() {
            let n = system.num_elements();
            let m = system.num_sets();
            let k = 1 + (rng.next_below(8) as usize).min(m.saturating_sub(1));
            let alpha = [2.0, 4.0, 7.0][(rng.next_below(3)) as usize];
            let config = fast_config(seed * 31 + idx as u64, n);
            let mut rep = MaxCoverReporter::new(n, m, k, alpha, &config);
            rep.observe_batch(&edge_stream(&system, ArrivalOrder::Shuffled(seed)));
            let cover = rep.finalize();

            // Soundness vs greedy-derived OPT upper bound.
            let g = greedy_max_cover(&system, k).coverage as f64;
            let opt_ub = g / (1.0 - 1.0 / std::f64::consts::E);
            assert!(
                cover.estimate <= opt_ub * 1.25 + 4.0,
                "zoo[{idx}] seed {seed} k={k} alpha={alpha}: estimate {} > OPT ≤ {opt_ub}",
                cover.estimate
            );

            // Reporting validity.
            assert!(cover.sets.len() <= k);
            assert!(cover.sets.iter().all(|&s| (s as usize) < m));
            let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
            let _ = coverage_of(&system, &chosen); // must not panic

            // Space accounting is positive and finite.
            assert!(rep.space_words() < 100_000_000);
        }
    }
}

/// A large RMAT instance through the batched ingestion path: the final
/// state (estimate, winner, space) must be bit-identical to ingesting
/// the whole stream as one chunk on one thread, at any chunk size and
/// thread count, and the chunk size must not inflate space.
#[test]
fn batched_rmat_matches_serial_and_space_no_regression() {
    let system = rmat_incidence(4096, 512, 60_000, RmatParams::default(), 0xA11);
    let n = system.num_elements();
    let m = system.num_sets();
    let k = 8;
    let alpha = 3.0;
    let config = fast_config(0xA11, n);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(7));

    // Serial whole-stream reference.
    let mut serial = maxkcov::core::MaxCoverEstimator::new(n, m, k, alpha, &config);
    serial.observe_batch(&edges);
    let serial_space = serial.space_words();
    let serial_out = serial.finalize();

    for threads in [1usize, 2, 4] {
        for batch in [1usize, 64, 4096] {
            let config = config.clone().with_threads(threads);
            let mut est = maxkcov::core::MaxCoverEstimator::new(n, m, k, alpha, &config);
            for chunk in edges.chunks(batch) {
                est.observe_batch(chunk);
            }
            assert_eq!(
                est.space_words(),
                serial_space,
                "threads={threads} batch={batch}: batched path changed space"
            );
            let out = est.finalize();
            assert_eq!(
                serial_out.estimate.to_bits(),
                out.estimate.to_bits(),
                "threads={threads} batch={batch}: estimate diverged"
            );
            assert_eq!(
                serial_out.winning_z, out.winning_z,
                "threads={threads} batch={batch}"
            );
            assert_eq!(
                serial_out.winner, out.winner,
                "threads={threads} batch={batch}"
            );
        }
    }
}

/// Smoke test at the machine's maximum parallelism: oversubscribing
/// threads beyond the lane count must clamp gracefully and still agree
/// with the serial result.
#[test]
fn batched_smoke_at_max_threads() {
    let max_threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let system = rmat_incidence(1024, 128, 12_000, RmatParams::default(), 0x5A0);
    let n = system.num_elements();
    let m = system.num_sets();
    let edges = edge_stream(&system, ArrivalOrder::RoundRobin);
    let config = fast_config(9, n);

    let serial = maxkcov::core::MaxCoverEstimator::run(n, m, 4, 2.5, &config, &edges, edges.len());
    let wide = maxkcov::core::MaxCoverEstimator::run(
        n,
        m,
        4,
        2.5,
        &config.clone().with_threads(max_threads * 2),
        &edges,
        1024,
    );
    assert_eq!(serial.estimate.to_bits(), wide.estimate.to_bits());
    assert_eq!(serial.winning_z, wide.winning_z);
    assert_eq!(serial.space_words, wide.space_words);
}

#[test]
fn empty_and_singleton_streams() {
    for (n, m, k) in [(1usize, 1usize, 1usize), (2, 1, 1), (10, 3, 2)] {
        let config = fast_config(1, n);
        let rep = MaxCoverReporter::new(n, m, k, 1.5, &config);
        // No edges at all.
        let cover = rep.finalize();
        assert!(cover.estimate >= 0.0);
        // One edge.
        let mut rep = MaxCoverReporter::new(n, m, k, 1.5, &config);
        rep.observe(maxkcov::stream::Edge::new(0, 0));
        let cover = rep.finalize();
        assert!(cover.estimate <= n as f64 + 1.0);
    }
}
