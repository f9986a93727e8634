//! `bench_compare` binary edge cases: each degenerate input must be a
//! clear non-zero exit with a diagnostic on stderr, never a vacuous
//! `PASS`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_bench_compare")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn bench_compare")
}

fn tmp(name: &str, contents: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("bench-compare-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp json");
    path
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn baseline_without_suffix_keys_is_rejected_not_vacuously_passed() {
    // No *edges_per_s / *words leaves anywhere: identity keys only.
    let base = tmp(
        "nosuffix-base.json",
        r#"{"n": 100, "m": 10, "k": 5, "seed": 1}"#,
    );
    let fresh = tmp(
        "nosuffix-fresh.json",
        r#"{"n": 100, "m": 10, "k": 5, "seed": 1}"#,
    );
    let out = run(&[base.to_str().unwrap(), fresh.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "identical suffix-free documents must not PASS: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = stderr(&out);
    assert!(
        err.contains("nothing to gate"),
        "expected a vacuous-gate diagnostic, got: {err}"
    );
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(fresh);
}

#[test]
fn gated_documents_still_pass_and_fail_as_before() {
    let base = tmp(
        "gated-base.json",
        r#"{"n": 100, "edges_per_s": 1000.0, "estimator_words": 50}"#,
    );
    let ok = tmp(
        "gated-ok.json",
        r#"{"n": 100, "edges_per_s": 900.0, "estimator_words": 50}"#,
    );
    let out = run(&[base.to_str().unwrap(), ok.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "within-tolerance run failed: {}",
        stderr(&out)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    let bloated = tmp(
        "gated-bloated.json",
        r#"{"n": 100, "edges_per_s": 1000.0, "estimator_words": 51}"#,
    );
    let out = run(&[base.to_str().unwrap(), bloated.to_str().unwrap()]);
    assert!(!out.status.success(), "space increase must fail");
    assert!(
        stderr(&out).contains("space regression"),
        "{}",
        stderr(&out)
    );
    for p in [base, ok, bloated] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn missing_files_and_malformed_json_are_clear_errors() {
    let out = run(&["/nonexistent/base.json", "/nonexistent/fresh.json"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("read /nonexistent/base.json"),
        "{}",
        stderr(&out)
    );

    let good = tmp("err-good.json", r#"{"edges_per_s": 1.0}"#);
    let bad = tmp("err-bad.json", "{not json");
    let out = run(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("parse"), "{}", stderr(&out));
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}

#[test]
fn usage_and_tolerance_validation() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));

    let a = tmp("tol-a.json", r#"{"edges_per_s": 1.0}"#);
    let out = run(&[
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--tolerance",
        "2.0",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("tolerance"), "{}", stderr(&out));
    let _ = std::fs::remove_file(a);
}
