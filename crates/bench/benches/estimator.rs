//! Benchmark of the paper's estimator end to end (E2 companion — the
//! wall-clock side of the space/approximation trade-off): a full pass
//! plus finalize on a mid-size instance. Std-only timing harness.

use std::hint::black_box;

use kcov_bench::{fmt, median_secs, print_table};
use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_stream::gen::uniform_fixed_size;
use kcov_stream::{edge_stream, ArrivalOrder};

fn main() {
    let system = uniform_fixed_size(5_000, 1_000, 50, 3);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
    let mut e2e: Vec<Vec<String>> = Vec::new();
    {
        let alpha = 8.0f64;
        let secs = median_secs(
            || {
                let mut config = EstimatorConfig::practical(7);
                config.reps = Some(1);
                black_box(MaxCoverEstimator::run(
                    5_000, 1_000, 32, alpha, &config, &edges, 1024,
                ));
            },
            3,
        );
        e2e.push(vec![
            format!("end_to_end alpha={alpha}"),
            fmt(secs * 1e3),
            fmt(edges.len() as f64 / secs / 1e6),
        ]);
    }
    print_table(
        "estimator end-to-end (full pass + finalize)",
        &["run", "ms", "Medges/s"],
        &e2e,
    );
}
