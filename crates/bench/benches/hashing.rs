//! Micro-benchmarks of the polynomial hash at the degrees the estimator
//! uses — every sketch update bottoms out in these evaluations.
//! Std-only timing harness.

use std::hint::black_box;

use kcov_bench::{fmt, median_ns_per_op, print_table};
use kcov_hash::{four_wise, log_wise, pairwise};

const RUNS: usize = 5;
const MIN_MS: u64 = 10;

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, ns: f64| {
        rows.push(vec![name.to_string(), fmt(ns), fmt(1e9 / ns / 1e6)]);
    };

    for (name, h) in [
        ("pairwise", pairwise(1)),
        ("four_wise", four_wise(1)),
        ("log_wise_1e6", log_wise(1_000_000, 1_000_000, 1)),
    ] {
        let mut i = 0u64;
        row(
            name,
            median_ns_per_op(
                || {
                    i = i.wrapping_add(0x9e3779b97f4a7c15);
                    black_box(h.hash(black_box(i)));
                },
                RUNS,
                MIN_MS,
            ),
        );
    }

    print_table(
        "hash micro-benchmarks",
        &["hash", "ns/eval", "Mevals/s"],
        &rows,
    );
}
