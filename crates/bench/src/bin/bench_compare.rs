//! `bench_compare` — the bench regression gate: diff a freshly
//! generated `BENCH_*.json` against its committed baseline and fail on
//! a >25% throughput drop (tolerance overridable), *any* space
//! increase (including the `space_ledger` attribution leaves), a
//! measured `*space_slope` regressing shallower than baseline, or a
//! sibling `*_ns` phase's attribution share drifting above baseline by
//! more than the tolerance in share points (absolute ns stay
//! informational). See [`kcov_bench::compare`] for the leaf
//! classification.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin bench_compare -- \
//!     results/baseline/BENCH_space.json /tmp/BENCH_space.json [--tolerance 0.25]
//! ```
//!
//! Exit status: 0 when every check passes, 1 on any regression or
//! schema mismatch (CI treats that as a failed build).

use std::process::ExitCode;

use kcov_bench::compare::compare_bench;
use kcov_obs::json::Json;

const USAGE: &str = "usage: bench_compare BASELINE.json FRESH.json [--tolerance F]";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            let v = it.next().ok_or("--tolerance needs a value")?;
            tolerance = v.parse().map_err(|_| format!("bad tolerance '{v}'"))?;
            if !(0.0..1.0).contains(&tolerance) {
                return Err("tolerance must be in [0, 1)".into());
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return Err(USAGE.into());
    };
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    let report = compare_bench(&baseline, &fresh, tolerance);
    if !report.gated_anything() {
        return Err(format!(
            "baseline {baseline_path} has no throughput (*edges_per_s), space (*words), \
             slope (*space_slope), or time-share (sibling *_ns) leaves — nothing to \
             gate, refusing to report a vacuous pass"
        ));
    }
    println!(
        "bench_compare: {} vs {} (throughput tolerance {:.0}%)",
        baseline_path,
        fresh_path,
        tolerance * 100.0
    );
    for note in &report.notes {
        println!("  {note}");
    }
    println!("  {} leaves checked", report.checked);
    if !report.speedups.is_empty() {
        // The hot-path headline: measured speedup of the estimator's
        // batched ingestion over the committed baseline, per alpha.
        let ratios: Vec<String> = report
            .speedups
            .iter()
            .map(|(_, r)| format!("{r:.2}x"))
            .collect();
        println!(
            "  estimator edges_per_s speedup vs baseline: {} (min {:.2}x over {} leaves)",
            ratios.join(", "),
            report
                .speedups
                .iter()
                .map(|(_, r)| *r)
                .fold(f64::INFINITY, f64::min),
            report.speedups.len()
        );
    }
    if report.passed() {
        println!("PASS");
        Ok(())
    } else {
        for f in &report.failures {
            eprintln!("FAIL: {f}");
        }
        Err(format!(
            "{} regression check(s) failed",
            report.failures.len()
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
