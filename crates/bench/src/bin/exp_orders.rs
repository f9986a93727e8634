//! E11 — arrival-order robustness: the point of the *general* streaming
//! model is that the algorithm's guarantees hold for every edge order.
//! This experiment runs the estimator on the same instances under
//! set-contiguous, element-contiguous, round-robin and adversarially
//! shuffled orders, and reports the spread of the estimates; it also
//! shows the set-arrival baselines breaking when fed a non-contiguous
//! order (their structural assumption, not a bug).
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_orders
//! ```

use kcov_baselines::SwapStreaming;
use kcov_bench::{coarse_config, fmt, print_table};
use kcov_core::MaxCoverEstimator;
use kcov_stream::gen::{planted_cover, zipf_set_sizes};
use kcov_stream::{coverage_of, edge_stream, ArrivalOrder, SetSystem};

fn orders() -> Vec<(&'static str, ArrivalOrder)> {
    vec![
        ("set-contiguous", ArrivalOrder::SetContiguous),
        ("element-contiguous", ArrivalOrder::ElementContiguous),
        ("round-robin", ArrivalOrder::RoundRobin),
        ("shuffled(1)", ArrivalOrder::Shuffled(1)),
        ("shuffled(2)", ArrivalOrder::Shuffled(2)),
    ]
}

fn main() {
    println!("E11: arrival-order robustness");
    let workloads: Vec<(&str, SetSystem, usize)> = vec![
        (
            "planted",
            planted_cover(6_000, 800, 20, 0.8, 40, 3).system,
            20,
        ),
        ("zipf", zipf_set_sizes(6_000, 800, 900, 1.05, 4), 20),
    ];
    let alpha = 6.0;
    for (name, system, k) in &workloads {
        let n = system.num_elements();
        let m = system.num_sets();
        let mut rows = Vec::new();
        let mut ests = Vec::new();
        for (oname, order) in orders() {
            let edges = edge_stream(system, order);
            let config = coarse_config(13, n, 2);
            let out = MaxCoverEstimator::run(n, m, *k, alpha, &config, &edges, 1024);
            ests.push(out.estimate);
            rows.push(vec![
                oname.into(),
                fmt(out.estimate),
                format!("{:?}", out.winner),
            ]);
        }
        let max = ests.iter().cloned().fold(f64::MIN, f64::max);
        let min = ests.iter().cloned().fold(f64::MAX, f64::min);
        print_table(
            &format!("estimator across orders   [{name}: n={n} m={m} k={k} alpha={alpha}]"),
            &["order", "estimate", "winner"],
            &rows,
        );
        println!("spread max/min = {:.2}", max / min.max(1.0));
    }

    // Set-arrival baseline fed a *simulated* non-contiguous order: we
    // split each set into two halves presented as separate "sets"
    // (the honest way a set-arrival algorithm experiences interleaving:
    // it cannot re-associate the halves). Coverage credit collapses.
    let (name, system, k) = &workloads[0];
    let halves: Vec<Vec<u32>> = system
        .sets()
        .iter()
        .flat_map(|s| {
            let mid = s.len() / 2;
            [s[..mid].to_vec(), s[mid..].to_vec()]
        })
        .collect();
    let split = SetSystem::new(system.num_elements(), halves);
    let whole_res = SwapStreaming::run(system, *k);
    let split_res = SwapStreaming::run(&split, *k);
    // Map split choices back to original sets (j/2) to measure the real
    // coverage the user would obtain.
    let mapped: Vec<usize> = split_res.chosen.iter().map(|&j| j / 2).collect();
    let whole_cov = coverage_of(system, &whole_res.chosen);
    let split_cov = coverage_of(system, &mapped);
    println!(
        "\nset-arrival swap on {name}: contiguous sets → {whole_cov}, sets split in half (interleaving) → {split_cov}"
    );
    println!("\nshape check: the estimator's spread across orders stays a small");
    println!("constant; the set-arrival baseline loses coverage under interleaving.");
}
