//! Batched ingestion across chunk sizes, thread counts and stream
//! shards: wall-clock of a full pass through `MaxCoverEstimator` on an
//! RMAT workload, with speedups relative to 256-edge chunks on one
//! thread. The estimates must be bit-identical in every configuration —
//! the bench asserts it while measuring.

use std::hint::black_box;

use kcov_bench::{coarse_config, fmt, median_secs, print_table};
use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_stream::gen::{rmat_incidence, RmatParams};
use kcov_stream::{edge_stream, ArrivalOrder};

/// The chunk size every speedup is relative to (on one thread).
const BASE_BATCH: usize = 256;

fn main() {
    let (n, m, k, alpha) = (50_000usize, 4_000usize, 64usize, 8.0f64);
    let system = rmat_incidence(n, m, 600_000, RmatParams::default(), 11);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(5));
    let total = edges.len() as f64;
    let config = coarse_config(3, n, 1);

    let reference = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, BASE_BATCH);
    let timed_run = |config: &EstimatorConfig, batch: usize, what: String| {
        let out = MaxCoverEstimator::run(n, m, k, alpha, config, &edges, batch);
        assert_eq!(
            reference.estimate.to_bits(),
            out.estimate.to_bits(),
            "{what} diverged"
        );
        median_secs(
            || {
                black_box(MaxCoverEstimator::run(
                    n, m, k, alpha, config, &edges, batch,
                ));
            },
            3,
        )
    };
    let base_secs = timed_run(&config, BASE_BATCH, format!("batch={BASE_BATCH}"));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for &batch in &[BASE_BATCH, 4096, 65_536] {
        for &threads in &[1usize, 2, 4] {
            let secs = if (batch, threads) == (BASE_BATCH, 1) {
                base_secs
            } else {
                let config = config.clone().with_threads(threads);
                timed_run(&config, batch, format!("batch={batch} threads={threads}"))
            };
            rows.push(vec![
                "observe_batch".into(),
                batch.to_string(),
                threads.to_string(),
                fmt(secs * 1e3),
                fmt(total / secs / 1e6),
                format!("{:.2}", base_secs / secs),
            ]);
        }
    }

    print_table(
        &format!(
            "ingestion: batch sizes x threads (rmat n={n} m={m}, {} edges, k={k}, alpha={alpha})",
            edges.len()
        ),
        &["path", "batch", "threads", "ms", "Medges/s", "speedup"],
        &rows,
    );
    println!("all configurations produced bit-identical estimates");

    // shard_merge group: the stream split across S merged estimator
    // replicas (DESIGN.md §8). Timing includes replica cloning and the
    // finalize-time merge fold.
    let mut shard_rows: Vec<Vec<String>> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let config = config.clone().with_shards(shards);
        let secs = timed_run(&config, 4096, format!("shards={shards}"));
        shard_rows.push(vec![
            "run".into(),
            "4096".into(),
            shards.to_string(),
            fmt(secs * 1e3),
            fmt(total / secs / 1e6),
            format!("{:.2}", base_secs / secs),
        ]);
    }
    print_table(
        "shard_merge: stream sharded across merged replicas",
        &["path", "batch", "shards", "ms", "Medges/s", "speedup"],
        &shard_rows,
    );
    println!("all shard counts produced estimates identical to one shard");
}
