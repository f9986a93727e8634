//! Quickstart: estimate and report a maximum k-cover from a single pass
//! over an edge-arrival stream.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use maxkcov::baselines::greedy_max_cover;
use maxkcov::core::{EstimatorConfig, MaxCoverEstimator, MaxCoverReporter};
use maxkcov::sketch::SpaceUsage;
use maxkcov::stream::gen::planted_cover;
use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder};

fn main() {
    // A set system with a known planted optimum: 10 disjoint sets
    // jointly covering 80% of 5000 elements, hidden among 500 decoys.
    let (n, m, k) = (5_000usize, 500usize, 10usize);
    let inst = planted_cover(n, m, k, 0.8, 100, 2024);
    println!(
        "instance: n={n} m={m} k={k}, planted OPT = {}",
        inst.planted_coverage
    );

    // The stream: (set, element) pairs in adversarially shuffled order —
    // the general edge-arrival model. No algorithm below ever sees a
    // set as a contiguous object.
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(7));
    println!("stream: {} edges in arbitrary order", edges.len());

    // Offline yardstick (needs the whole instance in memory).
    let greedy = greedy_max_cover(&inst.system, k);
    println!("offline greedy coverage: {}", greedy.coverage);

    // --- Estimation (Theorem 3.1): Õ(m/α²) space. ---
    // Ingest through the batched engine: chunks amortise per-edge
    // dispatch and `threads` shards the guess × repetition lanes. The
    // result is bit-identical to a per-edge `observe` loop at any
    // thread count.
    let alpha = 4.0;
    let config = EstimatorConfig::practical(42).with_threads(2);
    let mut estimator = MaxCoverEstimator::new(n, m, k, alpha, &config);
    for chunk in edges.chunks(4096) {
        estimator.observe_batch(chunk);
    }
    let out = estimator.finalize();
    println!(
        "\nestimate (alpha = {alpha}): {:.0}   [true OPT {}, sound: estimate <= OPT]",
        out.estimate, inst.planted_coverage
    );
    println!(
        "estimator state: {} words (vs {} words to store the stream)",
        estimator.space_words(),
        edges.len()
    );
    println!(
        "winning guess z = {}, subroutine = {:?}",
        out.winning_z, out.winner
    );

    // --- Reporting (Theorem 3.2): Õ(m/α² + k) space. ---
    let mut reporter = MaxCoverReporter::new(n, m, k, alpha, &config);
    for chunk in edges.chunks(4096) {
        reporter.observe_batch(chunk);
    }
    let cover = reporter.finalize();
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    let real = coverage_of(&inst.system, &chosen);
    println!(
        "\nreported k-cover: {} sets with real coverage {} ({}% of planted OPT)",
        cover.sets.len(),
        real,
        100 * real / inst.planted_coverage
    );
}
