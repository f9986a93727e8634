//! E10 — the *approximation* side of the trade-off: the effective
//! approximation factor `OPT / estimate` as α grows, on instances with
//! known planted optima. Theorem 3.1 promises `OPT/estimate ≤ Õ(α)`
//! whenever the estimate is accepted; this experiment traces the actual
//! curve, plus the two-pass extension's improvement at equal α.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_quality
//! ```

use kcov_bench::{coarse_config, fmt, print_table};
use kcov_core::{run_two_pass, MaxCoverEstimator};
use kcov_stream::gen::planted_cover;
use kcov_stream::{coverage_of, edge_stream, ArrivalOrder};

fn main() {
    println!("E10: effective approximation factor vs alpha (planted OPT)");
    let (n, m, k) = (12_000usize, 1_500usize, 30usize);
    let inst = planted_cover(n, m, k, 0.8, 60, 13);
    let opt = inst.planted_coverage as f64;
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
    println!("instance: n={n} m={m} k={k}, OPT = {opt}, {} edges", edges.len());

    let mut rows = Vec::new();
    // The alphas where the two-pass cover's factor is no better than
    // the single-pass estimate's.
    let mut not_lower = Vec::new();
    for alpha in [2.0f64, 4.0, 8.0, 16.0, 32.0] {
        let config = coarse_config(17, n, 2);
        let single = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, 1024);
        let two = run_two_pass(n, m, k, alpha, &config, &edges, 1024);
        let chosen: Vec<usize> = two.sets.iter().map(|&s| s as usize).collect();
        let two_real = coverage_of(&inst.system, &chosen) as f64;
        if opt / two_real.max(1.0) >= opt / single.estimate.max(1.0) {
            not_lower.push(fmt(alpha));
        }
        rows.push(vec![
            fmt(alpha),
            fmt(single.estimate),
            fmt(opt / single.estimate.max(1.0)),
            fmt(two.estimate),
            fmt(two_real),
            fmt(opt / two_real.max(1.0)),
        ]);
    }
    print_table(
        "single-pass estimate and two-pass reported cover vs alpha",
        &[
            "alpha",
            "1p estimate",
            "OPT/1p-est",
            "2p estimate",
            "2p real cov",
            "OPT/2p-cov",
        ],
        &rows,
    );
    println!("\nshape check: OPT/estimate grows at most linearly in alpha (Thm 3.1's");
    println!("Õ(α) factor with practical constants).");
    if not_lower.is_empty() {
        println!("OPT/2p-cov < OPT/1p-est at every alpha.");
    } else {
        println!("OPT/2p-cov >= OPT/1p-est at alpha = {}.", not_lower.join(", "));
    }
}
