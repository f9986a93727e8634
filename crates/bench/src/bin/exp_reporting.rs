//! E5 — the reporting variant (Theorem 3.2): real coverage of the
//! reported k-cover vs greedy and the planted optimum, and its
//! `Õ(m/α² + k)` space.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_reporting
//! ```

use kcov_baselines::greedy_max_cover;
use kcov_bench::{fmt, print_table};
use kcov_core::MaxCoverReporter;
use kcov_stream::gen::{common_heavy, few_large, planted_cover};
use kcov_stream::{coverage_of, edge_stream, ArrivalOrder, SetSystem};

struct Case {
    name: &'static str,
    system: SetSystem,
    k: usize,
    opt_hint: Option<usize>,
}

fn main() {
    println!("E5: reporting an alpha-approximate k-cover (Theorem 3.2)");
    let planted = planted_cover(8_000, 1_200, 40, 0.75, 20, 5);
    let cases = vec![
        Case {
            name: "planted",
            k: 40,
            opt_hint: Some(planted.planted_coverage),
            system: planted.system,
        },
        Case {
            name: "common-heavy",
            system: common_heavy(8_000, 1_200, 2),
            k: 24,
            opt_hint: None,
        },
        Case {
            name: "few-large",
            system: few_large(8_000, 1_000, 4, 1_500, 3),
            k: 24,
            opt_hint: None,
        },
    ];

    for alpha in [4.0f64, 8.0, 16.0] {
        let mut rows = Vec::new();
        for case in &cases {
            let n = case.system.num_elements();
            let m = case.system.num_sets();
            let edges = edge_stream(&case.system, ArrivalOrder::Shuffled(31));
            let greedy = greedy_max_cover(&case.system, case.k).coverage as f64;
            // Coarse guess grid (see kcov_bench::coarse_config docs).
            let config = kcov_bench::coarse_config(7, n, 1);
            let mut rep = MaxCoverReporter::new(n, m, case.k, alpha, &config);
            rep.observe_batch(&edges);
            let r = rep.finalize();
            let chosen: Vec<usize> = r.sets.iter().map(|&s| s as usize).collect();
            let cov = coverage_of(&case.system, &chosen) as f64;
            rows.push(vec![
                case.name.into(),
                case.opt_hint.map(|o| o.to_string()).unwrap_or("-".into()),
                fmt(greedy),
                r.sets.len().to_string(),
                fmt(cov),
                fmt(cov / greedy),
                fmt(r.estimate),
                format!("{:?}", r.winner),
                r.space_words.to_string(),
            ]);
        }
        print_table(
            &format!("reported covers at alpha={alpha}"),
            &[
                "workload",
                "planted OPT",
                "greedy",
                "|sets|",
                "real cov",
                "cov/greedy",
                "estimate",
                "winner",
                "space(words)",
            ],
            &rows,
        );
    }
    println!("\nshape check: real coverage within ~alpha of greedy; estimate <= real");
    println!("coverage-ish (sound); space shrinks as alpha grows.");
}
