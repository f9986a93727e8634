//! E2 — the headline trade-off (Theorem 3.1 / abstract): measured space
//! of `EstimateMaxCover` scales as `Θ̃(m/α²)`.
//!
//! Two sweeps on uniform instances:
//!   (a) fixed `m`, α ∈ {2, 4, 8, 16, 32}: fitted log-log slope of
//!       space vs α should be ≈ −2;
//!   (b) fixed α, m doubling: fitted slope of space vs m should be ≈ +1.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_tradeoff
//! ```

use kcov_bench::{fmt, log_log_slope, print_table};
use kcov_core::MaxCoverEstimator;
use kcov_sketch::SpaceUsage;
use kcov_stream::gen::uniform_fixed_size;
use kcov_stream::{edge_stream, ArrivalOrder};

fn measure(n: usize, m: usize, k: usize, alpha: f64, seed: u64) -> (f64, usize, f64) {
    let system = uniform_fixed_size(n, m, (n / 50).max(4), seed);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(seed));
    // Coarse guess grid, 1 rep: space scaling is per-lane (see
    // kcov_bench::coarse_config docs).
    let config = kcov_bench::coarse_config(seed ^ 0xabc, n, 1);
    let mut est = MaxCoverEstimator::new(n, m, k, alpha, &config);
    let t0 = std::time::Instant::now();
    for chunk in edges.chunks(1024) {
        est.observe_batch(chunk);
    }
    let out = est.finalize();
    let secs = t0.elapsed().as_secs_f64();
    (out.estimate, est.space_words(), secs)
}

fn main() {
    println!("E2: space/approximation trade-off of EstimateMaxCover (Theorem 3.1)");
    println!("expectation: space ∝ m/α² — slope vs α ≈ -2, slope vs m ≈ +1");

    // Sweep (a): alpha at fixed m. The measured space decomposes as
    // `c·(m/α²)·L(α) + floor`: `L(α)` is the number of dyadic class-size
    // levels the contributing-class finder runs (`≈ log(3sα)`, one of
    // the log factors the paper's Õ(·) suppresses), and `floor` is the
    // α-independent skeleton (hash coefficients, per-level AMS cells,
    // the Õ(1) fallback branch), estimated at α = √m where the m/α²
    // term is O(1). The fit is on the floor-subtracted, per-level
    // component — exactly the `m/α²` the theorem claims.
    let (n, m, k) = (20_000usize, 4_000usize, 64usize);
    let sqrt_m = (m as f64).sqrt();
    // Floor probe: k reduced so k·α < m keeps the non-trivial path.
    let k_floor = ((m as f64 / (2.0 * sqrt_m)) as usize).clamp(1, k);
    let (_, floor_raw, _) = measure(n, m, k_floor, sqrt_m, 7);
    let levels = |alpha: f64| -> f64 {
        let p = kcov_core::Params::practical(m, n, k, alpha);
        let r1 = (3.0 * p.s_alpha).max(2.0);
        // One unsampled level + subsampled levels with modulus in
        // (survivors=12, next_pow2(r1)].
        let max_level = (r1.log2().ceil()).max(0.0);
        1.0 + (max_level - 12f64.log2().floor()).max(0.0)
    };
    let floor_words = (floor_raw as f64 / levels(sqrt_m)).max(0.0);
    let alphas = [2.0, 4.0, 8.0, 16.0];
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &alpha in &alphas {
        let (est, words, secs) = measure(n, m, k, alpha, 7);
        let lv = levels(alpha);
        let component = (words as f64 / lv - floor_words).max(1.0);
        rows.push(vec![
            fmt(alpha),
            words.to_string(),
            fmt(lv),
            fmt(component),
            fmt(m as f64 / (alpha * alpha)),
            fmt(est),
            fmt(secs),
        ]);
        xs.push(alpha);
        ys.push(component);
    }
    print_table(
        &format!(
            "(a) space vs alpha   [n={n} m={m} k={k}; per-level floor={floor_words:.0} words]"
        ),
        &[
            "alpha",
            "space(words)",
            "levels L(α)",
            "(space/L)-floor",
            "m/alpha^2",
            "estimate",
            "sec",
        ],
        &rows,
    );
    let slope_a = log_log_slope(&xs, &ys);
    println!("fitted log-log slope of (space/L − floor) vs alpha: {slope_a:.2}   (paper: -2)");

    // Sweep (b): m at fixed alpha.
    let alpha = 8.0;
    let ms = [1_000usize, 2_000, 4_000, 8_000, 16_000];
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &m in &ms {
        let (est, words, secs) = measure(n, m, k, alpha, 11);
        rows.push(vec![
            m.to_string(),
            words.to_string(),
            fmt(m as f64 / (alpha * alpha)),
            fmt(est),
            fmt(secs),
        ]);
        xs.push(m as f64);
        ys.push(words as f64);
    }
    print_table(
        &format!("(b) space vs m   [n={n} alpha={alpha} k={k}]"),
        &["m", "space(words)", "m/alpha^2", "estimate", "sec"],
        &rows,
    );
    let slope_b = log_log_slope(&xs, &ys);
    println!("fitted log-log slope vs m: {slope_b:.2}   (paper: +1)");
}
