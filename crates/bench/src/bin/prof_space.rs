//! Developer utility: static space breakdown of the oracle's
//! subroutines and the full estimator — the quick check that a
//! constants change moved the component you meant. Sweeps α and writes
//! the machine-readable breakdown to `results/BENCH_space.json` (the
//! numbers are deterministic functions of the parameters, so the file
//! is stable across hosts).
//!
//! ```text
//! cargo run --release -p kcov-bench --bin prof_space
//! ```

use kcov_bench::{bench_out_path, log_log_slope};
use kcov_core::*;
use kcov_obs::json::Json;
use kcov_sketch::SpaceUsage;

fn main() {
    let (n, m, k) = (20_000usize, 2_000usize, 40usize);

    // Single-point deep dive at alpha = 16 (the historical default).
    let alpha = 16.0;
    let params = Params::practical(m, n, k, alpha);
    println!("s_alpha={} w={} phi1={} phi2={} B={} cap={}",
        params.s_alpha, params.large_set_w(), params.phi1(), params.phi2(),
        params.num_supersets(params.large_set_w()), params.small_set_edge_cap);
    let lc = LargeCommon::new(n, &params, false, 1);
    let ls = LargeSet::new(n, &params, 2);
    let ss = SmallSet::new(n, &params, 3);
    println!("LargeCommon: {} words", lc.space_words());
    println!("LargeSet:    {} words ({} reps)", ls.space_words(), ls.num_reps());
    println!("SmallSet:    {} words ({} lanes)", ss.space_words(), ss.num_lanes());
    let o = Oracle::new(n, &params, false, 4);
    println!("Oracle:      {} words", o.space_words());
    let mut config = EstimatorConfig::practical(5);
    config.reps = Some(1);
    let est = MaxCoverEstimator::new(n, m, k, alpha, &config);
    println!("Estimator:   {} words ({} lanes)", est.space_words(), est.num_lanes());

    // Alpha sweep: per-subroutine and full-estimator words per alpha.
    // The estimator column should fall roughly like alpha^-2 (the
    // Theorem 3.1 trade-off) until additive terms flatten it.
    println!("\nalpha sweep (n={n} m={m} k={k}):");
    println!("{:>7}  {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "alpha", "large_common", "large_set", "small_set", "oracle", "estimator", "lanes");
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
        println!("{a:>7}  {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
            lc.space_words(), ls.space_words(), ss.space_words(),
            o.space_words(), est.space_words(), est.num_lanes());
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

    // Space-attribution ledger (DESIGN.md §13) of the alpha = 16 deep
    // dive: leaf words aggregated across lanes (lane indices collapse
    // to `lane*`), so the section stays compact while every
    // `ledger_words` leaf is gated by bench_compare under the
    // any-increase-fails space rule.
    let ledger = est.space_ledger_tree();
    let mut by_path: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for row in ledger.rows().iter().filter(|r| r.children == 0) {
        let norm: Vec<&str> = row
            .path
            .split('/')
            .map(|seg| {
                let lane_idx = seg.strip_prefix("lane").is_some_and(|d| d.parse::<u64>().is_ok());
                if lane_idx { "lane*" } else { seg }
            })
            .collect();
        *by_path.entry(norm.join("/")).or_insert(0) += row.total.words;
    }
    assert_eq!(
        by_path.values().sum::<u64>(),
        est.space_words() as u64,
        "aggregated ledger leaves must attribute every estimator word"
    );
    let ledger_rows: Vec<Json> = by_path
        .iter()
        .map(|(path, words)| {
            Json::obj(vec![
                ("path", Json::Str(path.clone())),
                ("ledger_words", Json::Num(*words as f64)),
            ])
        })
        .collect();

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
        ("space_ledger", Json::Arr(ledger_rows)),
    ]);
    // The breakdown is a deterministic function of the parameters, so
    // there is no smoke variant: a fresh run on any host must reproduce
    // the committed baseline word-for-word.
    let path = bench_out_path("results/BENCH_space.json");
    let path = path.as_str();
    match std::fs::write(path, doc.render_pretty(2)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
