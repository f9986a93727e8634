//! E1 — Table 1 regenerated with *measured* numbers: coverage ratio and
//! space (words) of every implemented algorithm class on shared
//! workloads.
//!
//! Rows mirror the paper's Table 1:
//!   * offline greedy (the 1/(1−1/e) yardstick — not streaming),
//!   * set-arrival: Saha–Getoor swap \[37\], Sieve-Streaming \[9\],
//!     McGregor–Vu (2+ε) \[34\],
//!   * edge-arrival Õ(m): BEM-style sketched greedy \[12\], McGregor–Vu
//!     element sampling \[34\],
//!   * edge-arrival Õ(m/α²): this paper's estimator and reporter at
//!     several α, each followed by the space-ledger leaf (lane indices
//!     collapsed) that holds most of its words.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_table1
//! ```

use kcov_baselines::{
    greedy_max_cover, mv_set_arrival, MvEdgeArrival, SieveStreaming, SketchedGreedy, SwapStreaming,
};
use kcov_bench::{collapsed_ledger_leaves, fmt, print_table};
use kcov_core::MaxCoverReporter;
use kcov_sketch::SpaceUsage;
use kcov_stream::gen::{planted_cover, uniform_fixed_size, zipf_set_sizes};
use kcov_stream::{coverage_of, edge_stream, ArrivalOrder, SetSystem};

struct Workload {
    name: &'static str,
    system: SetSystem,
    k: usize,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "uniform",
            system: uniform_fixed_size(8_000, 1_500, 120, 1),
            k: 20,
        },
        Workload {
            name: "zipf",
            system: zipf_set_sizes(8_000, 1_500, 1_200, 1.05, 2),
            k: 20,
        },
        Workload {
            name: "planted",
            system: planted_cover(8_000, 1_500, 20, 0.8, 100, 3).system,
            k: 20,
        },
    ]
}

fn main() {
    println!("E1: Table 1 with measured coverage and space");
    println!("coverage column = real coverage of the returned sets / greedy coverage");
    println!("(estimation-only rows report their estimate / greedy coverage instead)");

    for w in workloads() {
        let n = w.system.num_elements();
        let m = w.system.num_sets();
        let k = w.k;
        let edges = edge_stream(&w.system, ArrivalOrder::Shuffled(99));
        let greedy = greedy_max_cover(&w.system, k);
        let gcov = greedy.coverage as f64;

        let mut rows: Vec<Vec<String>> = Vec::new();
        rows.push(vec![
            "greedy (offline)".into(),
            "-".into(),
            "1/(1-1/e)".into(),
            "1.000".into(),
            format!("{}", w.system.total_edges()),
        ]);

        // Set-arrival baselines.
        {
            let r = SwapStreaming::run(&w.system, k);
            let mut alg = SwapStreaming::new(k);
            for i in 0..m {
                alg.observe_set(i, w.system.set(i));
            }
            rows.push(vec![
                "Saha-Getoor swap [37]".into(),
                "set".into(),
                "O(1)".into(),
                fmt(real_cov(&w.system, &r.chosen) / gcov),
                alg.peak_space_words().to_string(),
            ]);
        }
        {
            let r = SieveStreaming::run(&w.system, k, 0.2);
            let mut alg = SieveStreaming::new(k, 0.2);
            for i in 0..m {
                alg.observe_set(i, w.system.set(i));
            }
            rows.push(vec![
                "Sieve-Streaming [9]".into(),
                "set".into(),
                "2+eps".into(),
                fmt(real_cov(&w.system, &r.chosen) / gcov),
                alg.peak_space_words().to_string(),
            ]);
        }
        {
            let r = mv_set_arrival(&w.system, k, 0.2);
            rows.push(vec![
                "McGregor-Vu thresh [34]".into(),
                "set".into(),
                "2+eps".into(),
                fmt(real_cov(&w.system, &r.chosen) / gcov),
                "~k".into(),
            ]);
        }

        // Edge-arrival Õ(m)-space baselines.
        {
            let mut alg = SketchedGreedy::new(m, 48, 5);
            for &e in &edges {
                alg.observe(e);
            }
            let r = alg.finish(k);
            rows.push(vec![
                "BEM sketched greedy [12]".into(),
                "edge".into(),
                "O(1)".into(),
                fmt(real_cov(&w.system, &r.chosen) / gcov),
                alg.space_words().to_string(),
            ]);
        }
        {
            let mut alg = MvEdgeArrival::new(n, m, k, 0.4, 7);
            for &e in &edges {
                alg.observe(e);
            }
            let r = alg.finish();
            rows.push(vec![
                "MV element sampling [34]".into(),
                "edge".into(),
                "1/(1-1/e-eps)".into(),
                fmt(real_cov(&w.system, &r.chosen) / gcov),
                alg.space_words().to_string(),
            ]);
        }

        // This paper, several alphas.
        let mut top_leaves = Vec::new();
        for alpha in [4.0, 8.0, 16.0] {
            // Coarse guess grid (see kcov_bench::coarse_config docs).
            let config = kcov_bench::coarse_config(21, n, 1);
            let mut alg = MaxCoverReporter::new(n, m, k, alpha, &config);
            alg.observe_batch(&edges);
            let (leaf, words) = collapsed_ledger_leaves(&alg)
                .into_iter()
                .max_by_key(|&(_, words)| words)
                .expect("a non-empty ledger");
            top_leaves.push(format!(
                "  this paper alpha={alpha}: largest ledger leaf {leaf} = {words} words ({:.0}%)",
                100.0 * words as f64 / alg.space_words() as f64
            ));
            let r = alg.finalize();
            let chosen: Vec<usize> = r.sets.iter().map(|&s| s as usize).collect();
            rows.push(vec![
                format!("this paper alpha={alpha}"),
                "edge".into(),
                format!("O~({alpha})"),
                fmt(real_cov(&w.system, &chosen) / gcov),
                r.space_words.to_string(),
            ]);
        }

        print_table(
            &format!(
                "workload {}   [n={n} m={m} k={k} greedy={}]",
                w.name, greedy.coverage
            ),
            &[
                "algorithm",
                "arrival",
                "guarantee",
                "cov/greedy",
                "space(words)",
            ],
            &rows,
        );
        for line in top_leaves {
            println!("{line}");
        }
    }
}

fn real_cov(system: &SetSystem, chosen: &[usize]) -> f64 {
    coverage_of(system, chosen) as f64
}
