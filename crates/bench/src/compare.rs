//! Regression comparison of two `BENCH_*.json` documents (a committed
//! baseline under `results/baseline/` vs a freshly generated file).
//!
//! The two documents must have the identical shape — the same keys in
//! the same order, the same array lengths — and every numeric leaf is
//! classified by its key name:
//!
//! * keys ending in `edges_per_s` are **throughput**: the fresh value
//!   may not fall more than `tolerance` (fractionally) below baseline,
//! * keys ending in `words` are **space**: any increase is a failure
//!   (space here is a deterministic function of the parameters, so
//!   there is no noise to tolerate),
//! * keys ending in `space_slope` are **slope**: the measured log-log
//!   space-vs-α slope (deterministic, fixed-seed) may not drift above
//!   baseline by more than `tolerance·|baseline|` — slopes are
//!   negative, so "above" means the scaling got shallower than the
//!   paper's `m/α²` contract,
//! * keys ending in `speedup` or `_ns` or containing `slope` (other
//!   than the gated `space_slope`) are informational (derived ratios
//!   or per-phase wall-clock timings) and are not checked as absolute
//!   values — but when an object holds **two or more** numeric `_ns`
//!   leaves present in both documents, the *shares* of those sibling
//!   phases are gated: absolute timings are host noise, yet how a
//!   fixed workload's wall clock splits across phases is a property of
//!   the code (the time ledger's attribution, DESIGN.md §15). A leaf's
//!   fraction of its group total may not grow more than `tolerance`
//!   (absolute share points) above baseline,
//! * every other leaf is **identity** (workload shape: `n`, `m`, `k`,
//!   `alpha`, `edges`, `lanes`, names, …) and must match exactly — a
//!   mismatch means the two files describe different experiments and
//!   the throughput/space verdicts would be meaningless.

use kcov_obs::json::Json;

/// Outcome of [`compare_bench`]: how many leaves were checked, the
/// regressions/mismatches found, and informational notes (throughput
/// ratios) for the log.
#[derive(Debug, Default)]
pub struct CompareReport {
    /// Leaves checked under any rule (identity, throughput, space).
    pub checked: usize,
    /// Leaves checked under the throughput rule (`*edges_per_s`).
    pub throughput_leaves: usize,
    /// Leaves checked under the space rule (`*words`).
    pub space_leaves: usize,
    /// Leaves checked under the slope rule (`*space_slope`).
    pub slope_leaves: usize,
    /// Leaves checked under the time-share rule (sibling `*_ns` groups).
    pub timeshare_leaves: usize,
    /// Human-readable failure descriptions; empty means pass.
    pub failures: Vec<String>,
    /// Per-throughput-leaf ratio lines, for context in CI logs.
    pub notes: Vec<String>,
    /// Measured fresh/baseline speedup per estimator throughput leaf
    /// (paths under an `estimator` array ending in `edges_per_s`) — the
    /// hot-path ratios the summary line reports.
    pub speedups: Vec<(String, f64)>,
}

impl CompareReport {
    /// True when no regression or shape mismatch was found.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// True when at least one throughput, space, slope, or time-share
    /// leaf was actually gated. A baseline with none of the tracked
    /// keys (`*edges_per_s`, `*words`, `*space_slope`, sibling `*_ns`
    /// groups) compares vacuously — the caller should treat that as an
    /// error, not a pass.
    pub fn gated_anything(&self) -> bool {
        self.throughput_leaves + self.space_leaves + self.slope_leaves + self.timeshare_leaves > 0
    }
}

enum Rule {
    Throughput,
    Space,
    Slope,
    /// `*_ns` leaves: gated on attribution *share*, not value, and
    /// only in sibling groups — the check runs at the object level
    /// (see [`time_share_check`]), so the per-leaf arm is a no-op.
    TimeShare,
    Identity,
    Informational,
}

fn rule_for(key: &str) -> Rule {
    if key.ends_with("space_slope") {
        // Checked before the generic `slope` informational match: the
        // measured space-vs-α slope is deterministic (fixed seeds) and
        // gated, while derived diagnostic slopes stay informational.
        Rule::Slope
    } else if key.ends_with("edges_per_s") {
        Rule::Throughput
    } else if key.ends_with("words") {
        Rule::Space
    } else if key.ends_with("_ns") {
        // Per-phase hot-path timings (hash / lane-reject /
        // sketch-update): absolute values vary per host and stay
        // unchecked, but sibling groups are gated on share drift at the
        // object level.
        Rule::TimeShare
    } else if key.ends_with("speedup") || key.contains("slope") {
        Rule::Informational
    } else {
        Rule::Identity
    }
}

/// Compare `fresh` against `baseline` with the given fractional
/// throughput `tolerance` (0.25 = fail when fresh throughput drops more
/// than 25% below baseline).
pub fn compare_bench(baseline: &Json, fresh: &Json, tolerance: f64) -> CompareReport {
    let mut report = CompareReport::default();
    walk(baseline, fresh, "$", tolerance, &mut report);
    report
}

/// The [`Rule::TimeShare`] gate, run per object: collect the numeric
/// `*_ns` leaves present in both documents; with two or more siblings
/// forming a phase group, gate each leaf's fraction of the group total
/// against baseline + `tol` share points. Lone `_ns` leaves and groups
/// where either total is zero (untraced runs) compare vacuously.
fn time_share_check(
    b: &[(String, Json)],
    f: &[(String, Json)],
    path: &str,
    tol: f64,
    report: &mut CompareReport,
) {
    let mut pairs: Vec<(&str, f64, f64)> = Vec::new();
    for (key, bv) in b {
        if !key.ends_with("_ns") {
            continue;
        }
        if let (Json::Num(bn), Some(Json::Num(fn_))) =
            (bv, f.iter().find(|(k, _)| k == key).map(|(_, v)| v))
        {
            pairs.push((key, *bn, *fn_));
        }
    }
    if pairs.len() < 2 {
        return;
    }
    let bt: f64 = pairs.iter().map(|(_, bv, _)| bv).sum();
    let ft: f64 = pairs.iter().map(|(_, _, fv)| fv).sum();
    if bt <= 0.0 || ft <= 0.0 {
        return;
    }
    for (key, bv, fv) in pairs {
        report.checked += 1;
        report.timeshare_leaves += 1;
        let bs = bv / bt;
        let fs = fv / ft;
        report.notes.push(format!(
            "{path}.{key}: time share {:.1}% vs baseline {:.1}%",
            fs * 100.0,
            bs * 100.0
        ));
        if fs > bs + tol {
            report.failures.push(format!(
                "{path}.{key}: time-share regression, phase grew from {:.1}% to {:.1}% of its \
                 group (tolerance {:.0} share points)",
                bs * 100.0,
                fs * 100.0,
                tol * 100.0
            ));
        }
    }
}

fn walk(base: &Json, fresh: &Json, path: &str, tol: f64, report: &mut CompareReport) {
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            time_share_check(b, f, path, tol, report);
            for (key, bv) in b {
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => walk(bv, fv, &format!("{path}.{key}"), tol, report),
                    None => report.failures.push(format!(
                        "{path}.{key}: present in baseline, missing in fresh"
                    )),
                }
            }
            for (key, _) in f {
                if !b.iter().any(|(k, _)| k == key) {
                    report.failures.push(format!(
                        "{path}.{key}: present in fresh, missing in baseline"
                    ));
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                report.failures.push(format!(
                    "{path}: array length {} in baseline vs {} in fresh",
                    b.len(),
                    f.len()
                ));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                walk(bv, fv, &format!("{path}[{i}]"), tol, report);
            }
        }
        (Json::Num(b), Json::Num(f)) => {
            let key = path.rsplit('.').next().unwrap_or(path);
            let key = key.split('[').next().unwrap_or(key);
            match rule_for(key) {
                Rule::Informational => {}
                // Gated as a sibling group in the enclosing-object arm.
                Rule::TimeShare => {}
                Rule::Identity => {
                    report.checked += 1;
                    if b != f {
                        report.failures.push(format!(
                            "{path}: workload identity changed, baseline {b} vs fresh {f}"
                        ));
                    }
                }
                Rule::Space => {
                    report.checked += 1;
                    report.space_leaves += 1;
                    if f > b {
                        report.failures.push(format!(
                            "{path}: space regression, baseline {b} words vs fresh {f} words"
                        ));
                    }
                }
                Rule::Slope => {
                    report.checked += 1;
                    report.slope_leaves += 1;
                    let ceiling = b + b.abs() * tol;
                    report.notes.push(format!(
                        "{path}: slope {f:.4} vs baseline {b:.4} (ceiling {ceiling:.4})"
                    ));
                    if *f > ceiling {
                        report.failures.push(format!(
                            "{path}: space-slope regression, fresh {f:.4} is above baseline \
                             {b:.4} + {:.0}% tolerance (space scaling with alpha got shallower)",
                            tol * 100.0
                        ));
                    }
                }
                Rule::Throughput => {
                    report.checked += 1;
                    report.throughput_leaves += 1;
                    let floor = b * (1.0 - tol);
                    let ratio = if *b > 0.0 { f / b } else { f64::NAN };
                    report.notes.push(format!(
                        "{path}: {ratio:.2}x baseline ({f:.0} vs {b:.0} edges/s)"
                    ));
                    if path.contains("estimator") && ratio.is_finite() {
                        report.speedups.push((path.to_string(), ratio));
                    }
                    if *f < floor {
                        report.failures.push(format!(
                            "{path}: throughput regression, fresh {f:.0} edges/s is {:.0}% below \
                             baseline {b:.0} (tolerance {:.0}%)",
                            (1.0 - ratio) * 100.0,
                            tol * 100.0
                        ));
                    }
                }
            }
        }
        (b, f) => {
            report.checked += 1;
            if b != f {
                report.failures.push(format!(
                    "{path}: baseline {} vs fresh {}",
                    b.render(),
                    f.render()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test doc")
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(
            r#"{"n": 100, "rows": [{"alpha": 2, "edges_per_s": 1000.0, "estimator_words": 50}]}"#,
        );
        let r = compare_bench(&d, &d, 0.25);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.checked, 4);
    }

    #[test]
    fn throughput_within_tolerance_passes_beyond_fails() {
        let base = doc(r#"{"edges_per_s": 1000.0}"#);
        let ok = doc(r#"{"edges_per_s": 800.0}"#);
        assert!(compare_bench(&base, &ok, 0.25).passed());
        let faster = doc(r#"{"edges_per_s": 5000.0}"#);
        assert!(compare_bench(&base, &faster, 0.25).passed());
        let slow = doc(r#"{"edges_per_s": 700.0}"#);
        let r = compare_bench(&base, &slow, 0.25);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("throughput regression"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn any_space_increase_fails() {
        let base = doc(r#"{"oracle_words": 100}"#);
        let r = compare_bench(&base, &doc(r#"{"oracle_words": 101}"#), 0.25);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("space regression"),
            "{:?}",
            r.failures
        );
        assert!(compare_bench(&base, &doc(r#"{"oracle_words": 99}"#), 0.25).passed());
        assert!(compare_bench(&base, &doc(r#"{"oracle_words": 100}"#), 0.25).passed());
    }

    #[test]
    fn gated_leaf_counts_distinguish_vacuous_passes() {
        let d = doc(r#"{"n": 100, "rows": [{"edges_per_s": 1000.0, "estimator_words": 50}]}"#);
        let r = compare_bench(&d, &d, 0.25);
        assert_eq!(r.throughput_leaves, 1);
        assert_eq!(r.space_leaves, 1);
        assert!(r.gated_anything());

        // Identity-only documents pass but gate nothing.
        let identity_only = doc(r#"{"n": 100, "name": "x", "k": 5}"#);
        let r = compare_bench(&identity_only, &identity_only, 0.25);
        assert!(r.passed());
        assert!(!r.gated_anything(), "{r:?}");
    }

    #[test]
    fn identity_leaves_must_match_exactly() {
        let base = doc(r#"{"workload": {"n": 100, "name": "x"}}"#);
        let r = compare_bench(
            &base,
            &doc(r#"{"workload": {"n": 101, "name": "x"}}"#),
            0.25,
        );
        assert!(!r.passed());
        assert!(r.failures[0].contains("identity"), "{:?}", r.failures);
        let r = compare_bench(
            &base,
            &doc(r#"{"workload": {"n": 100, "name": "y"}}"#),
            0.25,
        );
        assert!(!r.passed());
    }

    #[test]
    fn shape_drift_fails() {
        let base = doc(r#"{"rows": [{"a": 1}, {"a": 2}]}"#);
        let r = compare_bench(&base, &doc(r#"{"rows": [{"a": 1}]}"#), 0.25);
        assert!(!r.passed());
        assert!(r.failures[0].contains("array length"), "{:?}", r.failures);
        let r = compare_bench(&base, &doc(r#"{"rows": [{"a": 1}, {"b": 2}]}"#), 0.25);
        assert!(!r.passed());
    }

    #[test]
    fn speedup_and_diagnostic_slopes_are_informational() {
        let base = doc(r#"{"speedup": 2.0, "loglog_slope_lanes_vs_alpha": -2.0}"#);
        let fresh = doc(r#"{"speedup": 0.5, "loglog_slope_lanes_vs_alpha": -1.0}"#);
        assert!(compare_bench(&base, &fresh, 0.25).passed());
    }

    #[test]
    fn space_slope_is_gated_against_shallower_scaling() {
        let base = doc(r#"{"estimator_alpha_space_slope": -1.2}"#);
        // Identical and steeper (more negative) slopes pass.
        let r = compare_bench(&base, &base, 0.25);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.slope_leaves, 1);
        assert!(r.gated_anything());
        assert!(compare_bench(
            &base,
            &doc(r#"{"estimator_alpha_space_slope": -1.5}"#),
            0.25
        )
        .passed());
        // Within tolerance: -1.2 + 0.25·1.2 = -0.9 is the ceiling.
        assert!(compare_bench(
            &base,
            &doc(r#"{"estimator_alpha_space_slope": -0.95}"#),
            0.25
        )
        .passed());
        // Above the ceiling: the scaling got shallower than tolerated.
        let r = compare_bench(
            &base,
            &doc(r#"{"estimator_alpha_space_slope": -0.8}"#),
            0.25,
        );
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("space-slope regression"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn ledger_words_leaves_are_gated_as_space() {
        // The nested ledger section's `*ledger_words` leaves fall under
        // the existing any-increase-fails space rule via the `words`
        // suffix.
        let base = doc(r#"{"space_ledger": {"lane0_large_set_ledger_words": 963}}"#);
        let r = compare_bench(
            &base,
            &doc(r#"{"space_ledger": {"lane0_large_set_ledger_words": 964}}"#),
            0.25,
        );
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("space regression"),
            "{:?}",
            r.failures
        );
        let r = compare_bench(&base, &base, 0.25);
        assert!(r.passed());
        assert_eq!(r.space_leaves, 1);
    }

    #[test]
    fn fed_sweep_leaves_are_gated_as_space() {
        // `prof_space`'s fed section nests ledger leaves two arrays
        // deep; each `ledger_words` and the `peak_words` total fall
        // under the any-increase-fails rule, and its slope does not.
        let fed = |edges: u32, peak: u32, slope: f64| {
            doc(&format!(
                r#"{{"fed": {{"sweep": [{{"alpha": 2, "peak_words": {peak}, "leaves":
                [{{"path": "estimator/lane*/small_set/edges", "ledger_words": {edges}}}]}}],
                "fed_loglog_slope": {slope}}}}}"#
            ))
        };
        let base = fed(100, 500, -1.3);
        let r = compare_bench(&base, &fed(90, 500, -0.5), 0.25);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.space_leaves, 2);
        let r = compare_bench(&base, &fed(101, 500, -1.3), 0.25);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("space regression"),
            "{:?}",
            r.failures
        );
        assert!(!compare_bench(&base, &fed(100, 501, -1.3), 0.25).passed());
    }

    #[test]
    fn lone_ns_leaf_stays_informational() {
        // A single `_ns` leaf has no sibling group to take a share of;
        // its absolute value is host noise and must not gate.
        let base = doc(r#"{"total_ns": 100.0}"#);
        let fresh = doc(r#"{"total_ns": 9000.0}"#);
        let r = compare_bench(&base, &fresh, 0.25);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.checked, 0);
        assert!(!r.gated_anything());
    }

    #[test]
    fn ns_sibling_groups_gate_share_drift_not_absolutes() {
        // Uniformly 10x slower wall clock: every share is unchanged, so
        // the group passes even though every absolute value exploded.
        let base = doc(r#"{"hash_ns": 100.0, "lane_reject_ns": 50.0, "sketch_update_ns": 850.0}"#);
        let slower =
            doc(r#"{"hash_ns": 1000.0, "lane_reject_ns": 500.0, "sketch_update_ns": 8500.0}"#);
        let r = compare_bench(&base, &slower, 0.05);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.timeshare_leaves, 3);
        assert!(r.gated_anything());

        // Same total, but the hash phase grew from 10% to 30% of the
        // group — a real attribution shift, gated at 5 share points.
        let shifted =
            doc(r#"{"hash_ns": 300.0, "lane_reject_ns": 50.0, "sketch_update_ns": 650.0}"#);
        let r = compare_bench(&base, &shifted, 0.05);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("time-share regression"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn untraced_zero_ns_groups_compare_vacuously() {
        // An untraced baseline (all-zero attribution) has no shares to
        // gate against; the group must not divide by zero or fail.
        let zeros = doc(r#"{"hash_ns": 0.0, "lane_reject_ns": 0.0}"#);
        let fresh = doc(r#"{"hash_ns": 70.0, "lane_reject_ns": 30.0}"#);
        let r = compare_bench(&zeros, &fresh, 0.05);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.timeshare_leaves, 0);
        assert!(!r.gated_anything());
        let r = compare_bench(&fresh, &zeros, 0.05);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.timeshare_leaves, 0);
    }

    #[test]
    fn estimator_throughput_leaves_report_measured_speedups() {
        let base = doc(
            r#"{"estimator": [{"alpha": 2, "edges_per_s": 1000.0}], "baselines": [{"edges_per_s": 400.0}]}"#,
        );
        let fresh = doc(
            r#"{"estimator": [{"alpha": 2, "edges_per_s": 12000.0}], "baselines": [{"edges_per_s": 400.0}]}"#,
        );
        let r = compare_bench(&base, &fresh, 0.25);
        assert!(r.passed(), "{:?}", r.failures);
        // Only the estimator leaf lands in the speedup summary; the
        // baseline leaf stays a plain throughput note.
        assert_eq!(r.speedups.len(), 1, "{:?}", r.speedups);
        assert!(r.speedups[0].0.contains("estimator"), "{:?}", r.speedups);
        assert!((r.speedups[0].1 - 12.0).abs() < 1e-9, "{:?}", r.speedups);
        assert_eq!(r.notes.len(), 2);
    }
}
