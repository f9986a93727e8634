//! Developer utility: space breakdown of the oracle's subroutines and
//! the full estimator — the quick check that a constants change moved
//! the component you meant. Sweeps α twice and writes the
//! machine-readable breakdown to `results/BENCH_space.json`:
//!
//! * unfed: every estimator as built, before any edge (the allocated
//!   skeletons; data-dependent leaves read 0);
//! * fed: every estimator after ingesting one fixed planted stream,
//!   per ledger leaf, plus the peak total over the stream — the
//!   resident words Theorem 3.1 bounds.
//!
//! Both are deterministic functions of the parameters and the fixed
//! stream, so the file is stable across hosts.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin prof_space
//! ```

use kcov_bench::{bench_out_path, collapsed_ledger_leaves, log_log_slope};
use kcov_core::*;
use kcov_obs::json::Json;
use kcov_sketch::SpaceUsage;
use kcov_stream::gen::planted_cover;
use kcov_stream::{edge_stream, ArrivalOrder};
use std::collections::BTreeMap;

fn ledger_rows(leaves: &BTreeMap<String, u64>) -> Json {
    Json::Arr(
        leaves
            .iter()
            .map(|(path, words)| {
                Json::obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("ledger_words", Json::Num(*words as f64)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let (n, m, k) = (20_000usize, 2_000usize, 40usize);

    // Single-point deep dive at alpha = 16 (the historical default).
    let alpha = 16.0;
    let params = Params::practical(m, n, k, alpha);
    println!(
        "s_alpha={} w={} phi1={} phi2={} B={} cap={}",
        params.s_alpha,
        params.large_set_w(),
        params.phi1(),
        params.phi2(),
        params.num_supersets(params.large_set_w()),
        params.small_set_edge_cap
    );
    let lc = LargeCommon::new(n, &params, false, 1);
    let ls = LargeSet::new(n, &params, 2);
    let ss = SmallSet::new(n, &params, 3);
    println!("LargeCommon: {} words", lc.space_words());
    println!(
        "LargeSet:    {} words ({} reps)",
        ls.space_words(),
        ls.num_reps()
    );
    println!(
        "SmallSet:    {} words ({} lanes)",
        ss.space_words(),
        ss.num_lanes()
    );
    let o = Oracle::new(n, &params, false, 4);
    println!("Oracle:      {} words", o.space_words());
    let mut config = EstimatorConfig::practical(5);
    config.reps = Some(1);
    let est = MaxCoverEstimator::new(n, m, k, alpha, &config);
    println!(
        "Estimator:   {} words ({} lanes)",
        est.space_words(),
        est.num_lanes()
    );

    // Alpha sweep: per-subroutine and full-estimator words per alpha.
    // The estimator column should fall roughly like alpha^-2 (the
    // Theorem 3.1 trade-off) until additive terms flatten it.
    println!("\nalpha sweep (n={n} m={m} k={k}):");
    println!(
        "{:>7}  {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "alpha", "large_common", "large_set", "small_set", "oracle", "estimator", "lanes"
    );
    let alphas = [2.0f64, 4.0, 8.0, 16.0, 32.0];
    let mut sweep = Vec::new();
    let mut est_words = Vec::new();
    for &a in &alphas {
        let params = Params::practical(m, n, k, a);
        let lc = LargeCommon::new(n, &params, false, 1);
        let ls = LargeSet::new(n, &params, 2);
        let ss = SmallSet::new(n, &params, 3);
        let o = Oracle::new(n, &params, false, 4);
        let mut config = EstimatorConfig::practical(5);
        config.reps = Some(1);
        let est = MaxCoverEstimator::new(n, m, k, a, &config);
        println!(
            "{a:>7}  {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
            lc.space_words(),
            ls.space_words(),
            ss.space_words(),
            o.space_words(),
            est.space_words(),
            est.num_lanes()
        );
        est_words.push(est.space_words() as f64);
        sweep.push(Json::obj(vec![
            ("alpha", Json::Num(a)),
            ("large_common_words", Json::Num(lc.space_words() as f64)),
            ("large_set_words", Json::Num(ls.space_words() as f64)),
            ("small_set_words", Json::Num(ss.space_words() as f64)),
            ("oracle_words", Json::Num(o.space_words() as f64)),
            ("estimator_words", Json::Num(est.space_words() as f64)),
            ("lanes", Json::Num(est.num_lanes() as f64)),
        ]));
    }
    let slope = log_log_slope(&alphas, &est_words);
    println!("\nlog-log slope of estimator words vs alpha: {slope:.2} (ideal -2)");

    // Fed sweep: one fixed planted stream (OPT = 0.8·n by construction,
    // decoys of 100 inside the planted region) through the full
    // estimator at every alpha, in the chunk size the CLI's batched
    // path uses. The peak is sampled after each sixteenth of the
    // stream: a SmallSet lane that overflows frees its storage, so the
    // words after ingest can sit below the peak.
    let planted = planted_cover(n, m, k, 0.8, 100, 1);
    let edges = edge_stream(&planted.system, ArrivalOrder::Shuffled(1));
    println!(
        "\nfed sweep ({} planted edges, default repetitions):",
        edges.len()
    );
    println!(
        "{:>7}  {:>12} {:>12} {:>12}",
        "alpha", "small_set", "estimator", "peak"
    );
    let mut fed = Vec::new();
    let mut fed_words = Vec::new();
    for &a in &alphas {
        let mut est = MaxCoverEstimator::new(n, m, k, a, &EstimatorConfig::practical(5));
        let mut peak = est.space_words();
        for part in edges.chunks(edges.len().div_ceil(16)) {
            for chunk in part.chunks(1024) {
                est.observe_batch(chunk);
            }
            peak = peak.max(est.space_words());
        }
        let leaves = collapsed_ledger_leaves(&est);
        let small_set: u64 = leaves
            .iter()
            .filter(|(p, _)| p.contains("/small_set/"))
            .map(|(_, w)| w)
            .sum();
        println!(
            "{a:>7}  {small_set:>12} {:>12} {peak:>12}",
            est.space_words()
        );
        fed_words.push(est.space_words() as f64);
        fed.push(Json::obj(vec![
            ("alpha", Json::Num(a)),
            ("lanes", Json::Num(est.num_lanes() as f64)),
            ("estimator_words", Json::Num(est.space_words() as f64)),
            ("peak_words", Json::Num(peak as f64)),
            ("leaves", ledger_rows(&leaves)),
        ]));
    }
    // Informational: the gate is leaf by leaf above.
    let fed_slope = log_log_slope(&alphas, &fed_words);
    println!("log-log slope of fed estimator words vs alpha: {fed_slope:.2}");

    // Space-attribution ledger (DESIGN.md §13) of the unfed alpha = 16
    // deep dive: leaf words aggregated across lanes (lane indices
    // collapse to `lane*`), so the section stays compact while every
    // `ledger_words` leaf is gated by bench_compare under the
    // any-increase-fails space rule.
    let deep_dive_leaves = collapsed_ledger_leaves(&est);

    let doc = Json::obj(vec![
        ("experiment", Json::Str("space".into())),
        (
            "workload",
            Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("m", Json::Num(m as f64)),
                ("k", Json::Num(k as f64)),
            ]),
        ),
        ("sweep", Json::Arr(sweep)),
        ("estimator_alpha_space_slope", Json::Num(slope)),
        ("space_ledger", ledger_rows(&deep_dive_leaves)),
        (
            "fed",
            Json::obj(vec![
                (
                    "stream",
                    Json::Str("planted_cover(n, m, k, 0.8, 100, seed 1), shuffled(1)".into()),
                ),
                ("edges", Json::Num(edges.len() as f64)),
                ("sweep", Json::Arr(fed)),
                ("fed_loglog_slope", Json::Num(fed_slope)),
            ]),
        ),
    ]);
    // The breakdown is a deterministic function of the parameters and
    // the fixed stream, so there is no smoke variant: a fresh run on any
    // host must reproduce the committed baseline word-for-word.
    let path = bench_out_path("results/BENCH_space.json");
    let path = path.as_str();
    match std::fs::write(path, doc.render_pretty(2)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
