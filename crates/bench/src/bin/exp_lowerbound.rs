//! E4 — the Theorem 3.3 lower bound, traced empirically: distinguishing
//! the §5 DSJ hard instances needs space growing like `m/α²`.
//!
//! (a) Width sweep at fixed (m, α): success probability of the
//!     `L2`/`L∞` distinguisher transitions from chance to reliable as
//!     the sketch width crosses `Θ(m/α²)`.
//! (b) α sweep at fixed success target: the minimal width achieving
//!     ≥ 90% success scales like `1/α²` (log-log slope ≈ −2).
//! (c) The reduction direction: the full `MaxCoverEstimator` decides
//!     DSJ, and a one-way protocol simulation reports its message size.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_lowerbound
//! ```

use kcov_bench::{fmt, log_log_slope, print_table};
use kcov_lowerbound::distinguisher::l2_sweep_point;
use kcov_lowerbound::{run_one_way_protocol, OracleDistinguisher};
use kcov_stream::gen::{dsj_max_cover_instance, DsjKind};
use kcov_stream::Edge;

fn main() {
    println!("E4: lower-bound hard instances (Theorem 3.3, Section 5)");

    // (a) Width sweep.
    let (m, alpha, ipp) = (8192usize, 16usize, 384usize);
    let trials = 12;
    let mut rows = Vec::new();
    for width in [4usize, 16, 64, 128, 256, 512, 1024, 4096] {
        let stats = l2_sweep_point(m, alpha, ipp, 5, width, trials, 11);
        rows.push(vec![
            width.to_string(),
            fmt(width as f64 / (m as f64 / (alpha * alpha) as f64)),
            fmt(stats.no_recall),
            fmt(stats.yes_recall),
            fmt(stats.success()),
            stats.space_words.to_string(),
        ]);
    }
    print_table(
        &format!(
            "(a) success vs sketch width   [m={m} alpha={alpha}, m/alpha^2={}]",
            m / (alpha * alpha)
        ),
        &[
            "width",
            "width/(m/a^2)",
            "no-recall",
            "yes-recall",
            "success",
            "space(words)",
        ],
        &rows,
    );

    // (b) Minimal sufficient width vs alpha.
    let m = 8192usize;
    let mut rows = Vec::new();
    let mut alphas_f = Vec::new();
    let mut widths_f = Vec::new();
    for alpha in [8usize, 16, 32, 64] {
        let ipp = (m / (2 * alpha)).min((m - 1) / alpha - 1);
        let mut found = None;
        let mut width = 2usize;
        while width <= m {
            let stats = l2_sweep_point(m, alpha, ipp, 5, width, 10, 23 + alpha as u64);
            if stats.success() >= 0.9 {
                found = Some(width);
                break;
            }
            width *= 2;
        }
        let w = found.unwrap_or(m);
        rows.push(vec![
            alpha.to_string(),
            w.to_string(),
            fmt(m as f64 / (alpha * alpha) as f64),
            fmt(w as f64 * (alpha * alpha) as f64 / m as f64),
        ]);
        alphas_f.push(alpha as f64);
        widths_f.push(w as f64);
    }
    print_table(
        &format!("(b) minimal width for 90% success vs alpha   [m={m}]"),
        &["alpha", "min width", "m/alpha^2", "width*(a^2/m)"],
        &rows,
    );
    let slope = log_log_slope(&alphas_f, &widths_f);
    println!("fitted log-log slope of min-width vs alpha: {slope:.2}   (paper: -2)");

    // (c) Reduction direction: the estimator decides DSJ as a one-way
    // protocol.
    let (m, alpha, ipp) = (2048usize, 64usize, 16usize);
    let mut rows = Vec::new();
    for seed in 0..4u64 {
        for kind in [DsjKind::No, DsjKind::Yes] {
            let inst = dsj_max_cover_instance(m, alpha, ipp, kind, seed);
            let (decided_no, space) =
                OracleDistinguisher::new(m, alpha, 2.0, 77 + seed).decide_no_case(&inst);
            // Also simulate the one-way protocol for message sizes.
            let players: Vec<Vec<Edge>> = inst
                .players
                .iter()
                .enumerate()
                .map(|(i, t)| t.iter().map(|&j| Edge::new(j, i as u32)).collect())
                .collect();
            let mut est = kcov_core::MaxCoverEstimator::new(
                alpha,
                m,
                1,
                2.0,
                &kcov_core::EstimatorConfig::practical(77 + seed),
            );
            let run = run_one_way_protocol(&mut est, &players);
            rows.push(vec![
                format!("{kind:?}"),
                seed.to_string(),
                if decided_no { "No" } else { "Yes" }.into(),
                fmt(run.answer),
                space.to_string(),
                run.max_message_words().to_string(),
            ]);
        }
    }
    print_table(
        &format!("(c) estimator as DSJ protocol   [m={m} alpha={alpha} players]"),
        &[
            "case",
            "seed",
            "decided",
            "answer",
            "space(words)",
            "max message(words)",
        ],
        &rows,
    );
    println!("\nshape check: (a) success transitions around width ~ m/alpha^2;");
    println!("(b) slope ~ -2; (c) all cases decided correctly.");
}
