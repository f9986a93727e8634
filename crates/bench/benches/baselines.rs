//! Benchmarks of the baselines (E1 companion): end-to-end wall-clock of
//! each algorithm class on a shared mid-size workload. Std-only timing
//! harness.

use std::hint::black_box;

use kcov_baselines::{
    greedy_max_cover, mv_set_arrival, MvEdgeArrival, SieveStreaming, SketchedGreedy, SwapStreaming,
};
use kcov_bench::{fmt, median_secs, print_table};
use kcov_stream::gen::uniform_fixed_size;
use kcov_stream::{edge_stream, ArrivalOrder};

fn main() {
    let (n, m, k) = (5_000usize, 800usize, 20usize);
    let system = uniform_fixed_size(n, m, 60, 1);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(2));
    let total = edges.len() as f64;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut bench = |name: &str, f: &mut dyn FnMut()| {
        let secs = median_secs(f, 5);
        rows.push(vec![
            name.to_string(),
            fmt(secs * 1e3),
            fmt(total / secs / 1e6),
        ]);
    };

    bench("greedy_offline", &mut || {
        black_box(greedy_max_cover(&system, k));
    });
    bench("sieve_streaming", &mut || {
        black_box(SieveStreaming::run(&system, k, 0.2));
    });
    bench("saha_getoor_swap", &mut || {
        black_box(SwapStreaming::run(&system, k));
    });
    bench("mv_set_arrival", &mut || {
        black_box(mv_set_arrival(&system, k, 0.2));
    });
    bench("mv_edge_arrival", &mut || {
        black_box(MvEdgeArrival::run(n, m, k, 0.4, 3, &edges));
    });
    bench("bem_sketched_greedy", &mut || {
        black_box(SketchedGreedy::run(m, 48, 5, &edges, k));
    });

    print_table(
        &format!(
            "baselines end-to-end (n={n}, m={m}, k={k}, {} edges)",
            edges.len()
        ),
        &["algorithm", "ms", "Medges/s"],
        &rows,
    );
}
