//! Micro-benchmarks of the sketch substrate (E7 companion): per-update
//! throughput of every sketch on the estimator's hot path, plus the
//! batched entry points. Run with `cargo bench -p kcov-bench --bench
//! sketches` — std-only timing harness, no external dependency.

use std::hint::black_box;

use kcov_bench::{fmt, median_ns_per_op, print_table};
use kcov_sketch::{
    ContributingConfig, CountSketch, F2Contributing, F2HeavyHitter, Kmv, L0Estimator,
};

const RUNS: usize = 5;
const MIN_MS: u64 = 10;

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, ns: f64| {
        rows.push(vec![name.to_string(), fmt(ns), fmt(1e9 / ns / 1e6)]);
    };

    {
        let mut kmv = Kmv::new(64, 1);
        let mut i = 0u64;
        row(
            "kmv64_insert",
            median_ns_per_op(
                || {
                    i = i.wrapping_add(0x9e3779b97f4a7c15);
                    kmv.insert(black_box(i));
                },
                RUNS,
                MIN_MS,
            ),
        );
    }
    {
        // Batched KMV: amortizes the cut-off lookup over the chunk.
        let mut kmv = Kmv::new(64, 1);
        let mut i = 0u64;
        let chunk: Vec<u64> = (0..1024u64)
            .map(|j| j.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let ns_chunk = median_ns_per_op(
            || {
                i = i.wrapping_add(1);
                kmv.insert_batch(black_box(&chunk));
            },
            RUNS,
            MIN_MS,
        );
        row("kmv64_insert_batch1024(per-item)", ns_chunk / 1024.0);
    }
    {
        let mut est = L0Estimator::new(64, 5, 1);
        let mut i = 0u64;
        row(
            "l0_64x5_insert",
            median_ns_per_op(
                || {
                    i = i.wrapping_add(0x9e3779b97f4a7c15);
                    est.insert(black_box(i));
                },
                RUNS,
                MIN_MS,
            ),
        );
    }
    for width in [64usize, 4096] {
        let mut cs = CountSketch::new(5, width, 1);
        let mut i = 0u64;
        row(
            &format!("count_sketch_w{width}_insert"),
            median_ns_per_op(
                || {
                    i = i.wrapping_add(1);
                    cs.insert(black_box(i % 10_000));
                },
                RUNS,
                MIN_MS,
            ),
        );
        for j in 0..10_000u64 {
            cs.insert(j);
        }
        let mut i = 0u64;
        row(
            &format!("count_sketch_w{width}_query"),
            median_ns_per_op(
                || {
                    i = i.wrapping_add(1);
                    black_box(cs.query(black_box(i % 10_000)));
                },
                RUNS,
                MIN_MS,
            ),
        );
    }
    for phi in [0.1f64, 0.01] {
        let mut hh = F2HeavyHitter::for_phi(phi, 1);
        let mut i = 0u64;
        row(
            &format!("heavy_hitter_phi{phi}_insert"),
            median_ns_per_op(
                || {
                    i = i.wrapping_add(1);
                    hh.insert(black_box(i % 3_000));
                },
                RUNS,
                MIN_MS,
            ),
        );
    }
    {
        let mut fc = F2Contributing::new(ContributingConfig::new(0.05, 1024), 100_000, 100_000, 1);
        let mut i = 0u64;
        row(
            "contributing_g0.05_r1024_insert",
            median_ns_per_op(
                || {
                    i = i.wrapping_add(1);
                    fc.insert(black_box(i % 20_000));
                },
                RUNS,
                MIN_MS,
            ),
        );
    }
    {
        // Batched contributing: one sampling-hash evaluation per item.
        let mut fc = F2Contributing::new(ContributingConfig::new(0.05, 1024), 100_000, 100_000, 1);
        let chunk: Vec<u64> = (0..1024u64).map(|j| j % 20_000).collect();
        let ns_chunk = median_ns_per_op(|| fc.insert_batch(black_box(&chunk)), RUNS, MIN_MS);
        row("contributing_insert_batch1024(per-item)", ns_chunk / 1024.0);
    }

    print_table("sketch micro-benchmarks", &["op", "ns/op", "Mops/s"], &rows);
}
