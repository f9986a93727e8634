//! Shared utilities for the experiment binaries (`src/bin/exp_*.rs`)
//! and the dependency-free timing benches (`benches/*.rs`).
//!
//! Each experiment binary regenerates one row of the experiment index in
//! DESIGN.md §5 / EXPERIMENTS.md, printing fixed-width tables to stdout.
//! The benches use [`median_ns_per_op`] / [`time_once`] — a std-only
//! harness (calibrated batch sizes, median of repeated batches) so the
//! workspace builds offline with no external crates.

use std::time::Instant;

pub mod compare;

/// True when `KCOV_BENCH_SMOKE` is set (non-empty, not `"0"`): the
/// experiment binaries shrink to a seconds-scale fixed workload meant
/// for the CI regression gate, keeping the JSON schema unchanged.
pub fn bench_smoke() -> bool {
    std::env::var("KCOV_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Output path for a `BENCH_*.json` file: `KCOV_BENCH_OUT` overrides
/// `default` so CI can write fresh results next to (not on top of) the
/// committed ones.
pub fn bench_out_path(default: &str) -> String {
    std::env::var("KCOV_BENCH_OUT").unwrap_or_else(|_| default.to_string())
}

/// Median nanoseconds per call of `op` (one logical element per call).
/// Calibrates the batch size until one batch takes ≥ `min_batch_ms`,
/// then reports the median over `runs` batches — the standard defense
/// against timer granularity and transient noise without an external
/// benchmarking dependency.
pub fn median_ns_per_op<F: FnMut()>(mut op: F, runs: usize, min_batch_ms: u64) -> f64 {
    assert!(runs >= 1);
    // Calibration: double the batch until it runs long enough to time.
    let mut batch: u64 = 16;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        let el = t.elapsed();
        if el.as_millis() >= min_batch_ms as u128 || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// Wall-clock seconds of a single invocation (for end-to-end runs too
/// slow to batch); returns `(seconds, result)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median wall-clock seconds of `runs` invocations of `f`.
pub fn median_secs(mut f: impl FnMut(), runs: usize) -> f64 {
    assert!(runs >= 1);
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// An estimator config with a coarser z-guess grid (factor 4 instead of
/// 2) and `reps` repetitions per guess. Costs only a constant factor in
/// the approximation (a guess within 4× of OPT still exists) and makes
/// the polylog lane-count constants commensurate with laptop-scale
/// instances; every experiment states when it uses this.
pub fn coarse_config(seed: u64, n: usize, reps: usize) -> kcov_core::EstimatorConfig {
    let mut config = kcov_core::EstimatorConfig::practical(seed);
    let mut zs = Vec::new();
    let mut z = 16u64;
    while z < 2 * n as u64 {
        zs.push(z);
        z *= 4;
    }
    config.z_guesses = Some(zs);
    config.reps = Some(reps.max(1));
    config
}

/// Per-phase cost breakdown of the estimator's batched hot path over a
/// prepared stream (see DESIGN.md §12/§15): a *single* timed ingest,
/// attributed post-hoc by the estimator's own time ledger
/// ([`kcov_core::MaxCoverEstimator::time_ledger_tree`]) instead of the
/// old re-run-each-phase pricing, so no phase is ever paid twice and
/// the breakdown is exactly the one `maxkcov prof --time` reports.
///
/// * `hash_ns` — shared per-batch preprocessing: fingerprint-column
///   fill (the only place raw ids are hashed) plus the universe mix
///   (the `fingerprints` and `universe` ledger leaves).
/// * `lane_reject_ns` — every lane's universe reduction (the
///   `lane*/reducer` leaves): the work spent deciding an edge does
///   *not* reach a sketch.
/// * `sketch_update_ns` — the lanes' oracle subtrees: admission gates
///   plus sketch updates for surviving edges.
/// * `total_ns` — full batched-ingest wall clock; the three attributed
///   parts are nested inside it, so their sum is ≤ `total_ns` with the
///   gap being loop overhead.
#[derive(Debug, Clone, Copy)]
pub struct HotPathBreakdown {
    /// Fingerprint fill + universe mix time, ns.
    pub hash_ns: u64,
    /// Lane universe-reduction time, ns.
    pub lane_reject_ns: u64,
    /// Oracle (admission + sketch-update) time, ns.
    pub sketch_update_ns: u64,
    /// Full batched-ingest wall clock, ns.
    pub total_ns: u64,
}

/// Split a time ledger into the three hot-path phases: shared
/// preprocessing leaves, per-lane `reducer` leaves, and everything else
/// under each lane (the oracle subtree, including any direct ns parked
/// on the lane node by the bare-leaf apportion fallback).
fn ledger_phases(ledger: &kcov_obs::TimeLedger) -> (u64, u64, u64) {
    let root = &ledger.root;
    let hash = root.get("fingerprints").map_or(0, |n| n.total_ns())
        + root.get("universe").map_or(0, |n| n.total_ns());
    let mut reject = 0u64;
    let mut update = 0u64;
    for (name, lane) in root.children() {
        if !name.starts_with("lane") {
            continue;
        }
        update += lane.own.ns;
        for (child, node) in lane.children() {
            if child == "reducer" {
                reject += node.total_ns();
            } else {
                update += node.total_ns();
            }
        }
    }
    (hash, reject, update)
}

/// Measure a [`HotPathBreakdown`] by driving `est` over `edges` in
/// chunks of `batch` exactly once, with a live recorder attached so the
/// batch-granular clocks run; the ledger delta across the ingest is the
/// attribution. The estimator ends in the same state as a plain batched
/// ingest of the stream, with its original recorder restored.
pub fn hot_path_breakdown(
    est: &mut kcov_core::MaxCoverEstimator,
    edges: &[kcov_stream::Edge],
    batch: usize,
) -> HotPathBreakdown {
    let batch = batch.max(1);
    assert!(
        est.fingerprints().is_some(),
        "hot-path breakdown needs a non-trivial estimator"
    );
    let (hash0, reject0, update0) = ledger_phases(&est.time_ledger_tree());
    let rec = kcov_obs::Recorder::enabled();
    est.attach_recorder(&rec);
    let t = Instant::now();
    for chunk in edges.chunks(batch) {
        est.observe_batch(chunk);
    }
    let total_ns = t.elapsed().as_nanos() as u64;
    est.attach_recorder(&kcov_obs::Recorder::disabled());
    let (hash, reject, update) = ledger_phases(&est.time_ledger_tree());
    HotPathBreakdown {
        hash_ns: hash.saturating_sub(hash0),
        lane_reject_ns: reject.saturating_sub(reject0),
        sketch_update_ns: update.saturating_sub(update0),
        total_ns,
    }
}

/// Print a fixed-width table: a header row and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Least-squares slope of `log y` against `log x` — the empirical
/// power-law exponent of a sweep (e.g. space vs α should give ≈ −2).
pub fn log_log_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points");
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.max(1e-12).ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(&a, &b)| (a - mx) * (b - my)).sum();
    let var: f64 = lx.iter().map(|&a| (a - mx) * (a - mx)).sum();
    cov / var
}

/// Leaf words of an estimator's space ledger (DESIGN.md §13) with lane
/// indices collapsed, so `estimator/lane3/small_set/edges` and
/// `estimator/lane7/small_set/edges` sum under
/// `estimator/lane*/small_set/edges`. Asserts that the leaves
/// attribute every word.
pub fn collapsed_ledger_leaves(
    value: &impl kcov_sketch::SpaceUsage,
) -> std::collections::BTreeMap<String, u64> {
    let mut ledger = kcov_obs::SpaceLedger::new("estimator");
    value.space_ledger(&mut ledger.root);
    let mut by_path = std::collections::BTreeMap::new();
    for row in ledger.rows().iter().filter(|r| r.children == 0) {
        let norm: Vec<&str> = row
            .path
            .split('/')
            .map(|seg| {
                let lane_idx = seg
                    .strip_prefix("lane")
                    .is_some_and(|d| d.parse::<u64>().is_ok());
                if lane_idx {
                    "lane*"
                } else {
                    seg
                }
            })
            .collect();
        *by_path.entry(norm.join("/")).or_insert(0) += row.total.words;
    }
    assert_eq!(
        by_path.values().sum::<u64>(),
        value.space_words() as u64,
        "aggregated ledger leaves must attribute every word"
    );
    by_path
}

/// Geometric mean.
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|&x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Format a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_perfect_power_law() {
        let xs = [1.0f64, 2.0, 4.0, 8.0];
        let ys: Vec<f64> = xs.iter().map(|&x| 5.0 * x.powf(-2.0)).collect();
        let s = log_log_slope(&xs, &ys);
        assert!((s + 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn slope_of_flat_series_is_zero() {
        let xs = [1.0, 2.0, 4.0];
        let ys = [3.0, 3.0, 3.0];
        assert!(log_log_slope(&xs, &ys).abs() < 1e-9);
    }

    #[test]
    fn geo_mean_basic() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geo_mean(&[8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.0), "12345");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1.2345), "1.234");
    }

    #[test]
    fn median_ns_per_op_is_positive_and_sane() {
        let mut x = 0u64;
        let ns = median_ns_per_op(
            || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            },
            3,
            1,
        );
        assert!(ns > 0.0 && ns < 1e6, "ns/op {ns}");
        assert!(x != 0);
    }

    #[test]
    fn time_once_returns_result() {
        let (secs, v) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn median_secs_smoke() {
        let s = median_secs(|| std::hint::black_box(()), 3);
        assert!(s >= 0.0);
    }

    #[test]
    fn print_table_smoke() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }
}
