//! E6 — universe reduction fidelity (Lemma 3.5 / Theorem 3.6).
//!
//! (a) Lemma 3.5 head-on: for `|S| ≥ z`, `Pr[|h(S)| ≥ z/4] ≥ 3/4` under
//!     a 4-wise independent hash — measured success rates across z.
//! (b) End-to-end: the estimate of the full estimator with and without
//!     a correctly-guessed reduction lane, showing the reduction
//!     preserves the answer up to the lemma's constant.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_universe_reduction
//! ```

use kcov_bench::{fmt, print_table};
use kcov_core::{EstimatorConfig, MaxCoverEstimator, UniverseReducer};
use kcov_stream::gen::planted_cover;
use kcov_stream::{edge_stream, ArrivalOrder};

fn main() {
    println!("E6: universe reduction (Lemma 3.5, Theorem 3.6)");

    // (a) Image-size success rates.
    let mut rows = Vec::new();
    for z in [16u64, 64, 256, 1024, 4096] {
        for ratio in [1usize, 2, 4] {
            let size = z as usize * ratio;
            let members: Vec<u64> = (0..size as u64).map(|x| x * 1_000_003 + 17).collect();
            let trials = 400;
            let mut ok = 0;
            let mut image_sum = 0usize;
            for seed in 0..trials {
                let r = UniverseReducer::new(z, 9000 + seed);
                let img = r.image_size(&members);
                image_sum += img;
                if img >= (z / 4) as usize {
                    ok += 1;
                }
            }
            rows.push(vec![
                z.to_string(),
                size.to_string(),
                fmt(ok as f64 / trials as f64),
                fmt(image_sum as f64 / trials as f64),
                fmt(z as f64 / 4.0),
            ]);
        }
    }
    print_table(
        "(a) Lemma 3.5: Pr[|h(S)| >= z/4] for |S| >= z (bound: 3/4)",
        &["z", "|S|", "success rate", "mean |h(S)|", "z/4"],
        &rows,
    );

    // (b) End-to-end: full grid vs single correct z lane.
    let inst = planted_cover(8_000, 1_000, 30, 0.75, 30, 3);
    let opt = inst.planted_coverage as f64;
    let n = inst.system.num_elements();
    let m = inst.system.num_sets();
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
    let mut rows = Vec::new();
    for (label, zs) in [
        ("full guess grid", None),
        ("correct z only (4096)", Some(vec![4096u64])),
        ("z too small (64)", Some(vec![64u64])),
        ("z too large (8192)", Some(vec![8192u64])),
    ] {
        let mut config = EstimatorConfig::practical(13);
        config.z_guesses = zs;
        config.reps = Some(2);
        let out = MaxCoverEstimator::run(n, m, 30, 8.0, &config, &edges, 1024);
        rows.push(vec![
            label.into(),
            fmt(out.estimate),
            fmt(out.estimate / opt),
            out.winning_z.to_string(),
        ]);
    }
    print_table(
        &format!("(b) end-to-end with planted OPT = {opt}"),
        &["configuration", "estimate", "estimate/OPT", "winning z"],
        &rows,
    );
    println!("\nshape check: (a) success rate >= 3/4 everywhere (Lemma 3.5);");
    println!("(b) the full grid matches the correct-z lane; wrong z degrades gracefully.");
}
