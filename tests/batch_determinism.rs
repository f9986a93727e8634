//! Differential determinism suite for the batched ingestion engine
//! (the test harness the ingestion refactor is gated on): for every
//! generator family × arrival order × seed, the batched / multi-threaded
//! estimator must finalize to a *bit-identical* outcome to the serial
//! whole-stream reference (one chunk) — at any thread count and any
//! batch size, one-edge chunks included.
//!
//! This is the contract documented on `EstimatorConfig::threads`: lanes
//! are mutually independent seeded states, so sharding whole lanes
//! across threads and amortizing hashes over chunks can never change
//! the answer, only the wall-clock.

use maxkcov::core::{EstimateOutcome, EstimatorConfig, MaxCoverEstimator};
use maxkcov::stream::gen::{
    planted_cover, rmat_incidence, uniform_incidence, zipf_popularity, RmatParams,
};
use maxkcov::stream::{edge_stream, ArrivalOrder, SetSystem};

/// Coarse z-grid config so the full matrix stays fast.
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

fn generator_zoo(seed: u64) -> Vec<(&'static str, SetSystem)> {
    vec![
        ("uniform", uniform_incidence(600, 48, 0.04, seed)),
        ("zipf", zipf_popularity(500, 40, 14, 1.1, seed)),
        ("planted", planted_cover(500, 40, 5, 0.8, 12, seed).system),
        (
            "rmat",
            rmat_incidence(512, 64, 5_000, RmatParams::default(), seed),
        ),
    ]
}

fn assert_outcomes_identical(a: &EstimateOutcome, b: &EstimateOutcome, ctx: &str) {
    assert_eq!(
        a.estimate.to_bits(),
        b.estimate.to_bits(),
        "{ctx}: estimate"
    );
    assert_eq!(a.trivial, b.trivial, "{ctx}: trivial flag");
    assert_eq!(a.winning_z, b.winning_z, "{ctx}: winning z");
    assert_eq!(a.winner, b.winner, "{ctx}: winning subroutine");
    assert_eq!(a.space_words, b.space_words, "{ctx}: space accounting");
}

/// The full differential matrix: generators × arrival orders × seeds,
/// batched at threads ∈ {1, 2, 4} and several batch sizes, all compared
/// bit-for-bit against the serial whole-stream reference.
#[test]
fn batched_matches_serial_across_generators_orders_seeds() {
    let orders = [
        ArrivalOrder::SetContiguous,
        ArrivalOrder::ElementContiguous,
        ArrivalOrder::RoundRobin,
        ArrivalOrder::Shuffled(0xC0FFEE),
    ];
    for seed in [1u64, 42, 1009] {
        for (name, system) in generator_zoo(seed) {
            let n = system.num_elements();
            let m = system.num_sets();
            let k = 4;
            let alpha = 3.0;
            let config = fast_config(seed ^ 0xBA7C4, n);
            for order in orders {
                let edges = edge_stream(&system, order);
                let serial = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, edges.len());
                for threads in [1usize, 2, 4] {
                    let config = config.clone().with_threads(threads);
                    for batch in [1usize, 7, 256] {
                        let batched =
                            MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, batch);
                        assert_outcomes_identical(
                            &serial,
                            &batched,
                            &format!(
                                "{name} seed={seed} order={order:?} threads={threads} batch={batch}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Interleaving per-edge `observe` with `observe_batch` mid-stream (the
/// way a reader that sometimes buffers would) is also exact.
#[test]
fn mixed_observe_and_batch_is_exact() {
    let system = uniform_incidence(400, 32, 0.05, 77);
    let n = system.num_elements();
    let m = system.num_sets();
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(3));
    let config = fast_config(0x717, n).with_threads(4);

    let serial = MaxCoverEstimator::run(400, 32, 3, 2.0, &config, &edges, edges.len());

    let mut est = MaxCoverEstimator::new(n, m, 3, 2.0, &config);
    let mut i = 0usize;
    let mut step = 1usize;
    while i < edges.len() {
        if step.is_multiple_of(3) {
            est.observe(edges[i]);
            i += 1;
        } else {
            let hi = (i + step * 5).min(edges.len());
            est.observe_batch(&edges[i..hi]);
            i = hi;
        }
        step += 1;
    }
    let mixed = est.finalize();
    assert_outcomes_identical(&serial, &mixed, "mixed observe/observe_batch");
}

/// Empty batches and degenerate thread counts (0, huge) are inert.
#[test]
fn degenerate_batches_and_thread_counts() {
    let system = uniform_incidence(300, 24, 0.06, 5);
    let edges = edge_stream(&system, ArrivalOrder::RoundRobin);
    let config = fast_config(12, 300);
    let serial = MaxCoverEstimator::run(300, 24, 2, 2.0, &config, &edges, edges.len());

    for threads in [0usize, 1, 64] {
        let config = config.clone().with_threads(threads);
        let mut est = MaxCoverEstimator::new(300, 24, 2, 2.0, &config);
        est.observe_batch(&[]);
        for chunk in edges.chunks(13) {
            est.observe_batch(chunk);
            est.observe_batch(&[]);
        }
        let out = est.finalize();
        assert_outcomes_identical(
            &serial,
            &out,
            &format!("threads={threads} with empty batches"),
        );
    }
}
