//! Distributed sketching: shard the edge stream across workers, sketch
//! each shard independently, merge, then solve — the deployment pattern
//! the mergeable-sketch substrate (KMV / CountSketch) enables.
//!
//! Here four "workers" each see a quarter of a shuffled edge stream,
//! build per-set bottom-t coverage summaries (the BEM-style sketch),
//! and a coordinator merges them and runs greedy over the merged
//! summaries. The merged result is bit-identical to a single-machine
//! pass (sketches are exactly mergeable), demonstrated live.
//!
//! The finale runs the same pattern through the *whole* paper stack:
//! `MaxCoverEstimator` replicas over stream shards, folded back with
//! `merge` (DESIGN.md §8) — same estimate as the serial pass.
//!
//! ```text
//! cargo run --release --example distributed_merge
//! ```

use maxkcov::baselines::{greedy_max_cover, SketchedGreedy};
use maxkcov::core::{EstimatorConfig, MaxCoverEstimator};
use maxkcov::sketch::SpaceUsage;
use maxkcov::stream::gen::zipf_set_sizes;
use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder};

fn main() {
    let (n, m, k) = (20_000usize, 2_000usize, 25usize);
    let system = zipf_set_sizes(n, m, 2_000, 1.05, 11);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(3));
    println!("corpus: n={n} m={m}, {} edges, budget k={k}", edges.len());

    // Four workers, same seed (the sketches must share hash functions —
    // in a real deployment the coordinator distributes the seed).
    let workers = 4;
    let seed = 99;
    let t = 64;
    let shard_size = edges.len().div_ceil(workers);
    let mut shards: Vec<SketchedGreedy> = (0..workers)
        .map(|_| SketchedGreedy::new(m, t, seed))
        .collect();
    for (w, chunk) in edges.chunks(shard_size).enumerate() {
        for &e in chunk {
            shards[w].observe(e);
        }
    }
    for (w, s) in shards.iter().enumerate() {
        println!(
            "worker {w}: sketched its shard in {} words",
            s.space_words()
        );
    }

    // Coordinator: merge and solve.
    let mut merged = shards.remove(0);
    for s in &shards {
        merged.merge(s);
    }
    let distributed = merged.finish(k);

    // Reference: one machine sees everything.
    let mut single = SketchedGreedy::new(m, t, seed);
    for &e in &edges {
        single.observe(e);
    }
    let centralized = single.finish(k);

    assert_eq!(distributed.chosen, centralized.chosen);
    assert_eq!(
        distributed.estimated_coverage,
        centralized.estimated_coverage
    );
    println!("\nmerged result == single-pass result (exactly): OK");

    let chosen: Vec<usize> = distributed.chosen.to_vec();
    let real = coverage_of(&system, &chosen);
    let greedy = greedy_max_cover(&system, k);
    println!(
        "distributed cover: {} sets, real coverage {} ({}% of offline greedy {})",
        chosen.len(),
        real,
        100 * real / greedy.coverage.max(1),
        greedy.coverage
    );
    println!(
        "estimate from merged sketches: {:.0}",
        distributed.estimated_coverage
    );

    // The same pattern through the full estimator stack: each worker
    // runs a complete `MaxCoverEstimator` replica over its shard, and
    // the coordinator folds them with `merge` at finalize. The paper's
    // Õ(m/α²)-space estimate is identical to a single-machine pass.
    let alpha = 4.0;
    let config = EstimatorConfig::practical(seed);
    let serial = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, 8192);
    let sharded_config = config.clone().with_shards(workers);
    let sharded = MaxCoverEstimator::run(n, m, k, alpha, &sharded_config, &edges, 8192);
    assert_eq!(serial.estimate.to_bits(), sharded.estimate.to_bits());
    println!(
        "\nfull-stack shard merge ({workers} estimator replicas): estimate {:.0} == serial {:.0}: OK",
        sharded.estimate, serial.estimate
    );
}
