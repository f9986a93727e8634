//! End-to-end tests of the `maxkcov` CLI binary (gen → stats →
//! greedy/exact → estimate → report over the text format).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_maxkcov")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary should execute")
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("maxkcov-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_stats_greedy_estimate_report_pipeline() {
    let path = tmp_file("planted.txt");
    let path_s = path.to_str().unwrap();

    // gen
    let out = run(&[
        "gen", "--kind", "planted", "--n", "800", "--m", "120", "--k", "8", "--seed", "5", "--out",
        path_s,
    ]);
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stats
    let out = run(&["stats", "--input", path_s]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("n              = 800"), "{text}");
    assert!(text.contains("m              = 120"), "{text}");

    // greedy
    let out = run(&["greedy", "--input", path_s, "--k", "8"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let cov: f64 = text
        .lines()
        .find(|l| l.starts_with("greedy coverage"))
        .and_then(|l| l.split('=').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("greedy coverage line");
    assert!(cov >= 600.0, "planted 0.8 coverage expected, got {cov}");

    // estimate
    let out = run(&[
        "estimate", "--input", path_s, "--k", "8", "--alpha", "4", "--seed", "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("estimate"), "{text}");
    assert!(text.contains("space (words)"), "{text}");

    // report
    let out = run(&[
        "report",
        "--input",
        path_s,
        "--k",
        "8",
        "--alpha",
        "4",
        "--order",
        "roundrobin",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reported sets"), "{text}");
    assert!(text.contains("real coverage"), "{text}");

    std::fs::remove_file(&path).ok();
}

/// A one-element universe: pass 2's tuned guess is clamped to at least
/// 4 pseudo-elements even though 2n = 2, per edge and batched.
#[test]
fn twopass_accepts_a_one_element_universe() {
    let path = tmp_file("one-element.txt");
    let path_s = path.to_str().unwrap();
    std::fs::write(&path, "1 40\n0 0\n1 0\n2 0\n").unwrap();
    for batch in [&[][..], &["--batch", "4"][..]] {
        let mut args = vec!["twopass", "--input", path_s, "--k", "1", "--alpha", "2"];
        args.extend(batch);
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("real coverage"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn twopass_and_setcover_subcommands() {
    let path = tmp_file("tp.txt");
    let out = run(&[
        "gen",
        "--kind",
        "planted",
        "--n",
        "600",
        "--m",
        "90",
        "--k",
        "6",
        "--seed",
        "2",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = run(&[
        "twopass",
        "--input",
        path.to_str().unwrap(),
        "--k",
        "6",
        "--alpha",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("real coverage"), "{text}");

    let out = run(&[
        "setcover",
        "--input",
        path.to_str().unwrap(),
        "--fraction",
        "0.9",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sets used"), "{text}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn budget_subcommand_fits_alpha() {
    let path = tmp_file("budget.txt");
    let out = run(&[
        "gen",
        "--kind",
        "uniform",
        "--n",
        "2000",
        "--m",
        "300",
        "--seed",
        "4",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "budget",
        "--input",
        path.to_str().unwrap(),
        "--k",
        "10",
        "--words",
        "2000000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fitted alpha"), "{text}");
    // An absurdly small budget must fail with a helpful message.
    let out = run(&[
        "budget",
        "--input",
        path.to_str().unwrap(),
        "--k",
        "10",
        "--words",
        "5",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no alpha"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn exact_runs_on_tiny_instances() {
    let path = tmp_file("tiny.txt");
    std::fs::write(&path, "6 3\n0 0\n0 1\n1 2\n1 3\n2 4\n2 5\n").unwrap();
    let out = run(&["exact", "--input", path.to_str().unwrap(), "--k", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exact optimum = 4"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_ingestion_flag_on_all_stream_subcommands() {
    let path = tmp_file("shards.txt");
    let path_s = path.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "600", "--m", "90", "--k", "6", "--seed", "8", "--out",
        path_s,
    ]);
    assert!(out.status.success());

    // estimate: --shards 1 must print exactly what the serial pass
    // prints, and higher shard counts must report the same estimate.
    let serial = run(&[
        "estimate", "--input", path_s, "--k", "6", "--alpha", "4", "--seed", "3",
    ]);
    assert!(serial.status.success());
    let one = run(&[
        "estimate", "--input", path_s, "--k", "6", "--alpha", "4", "--seed", "3", "--shards", "1",
    ]);
    assert!(one.status.success());
    assert_eq!(serial.stdout, one.stdout, "--shards 1 must equal no flag");
    let serial_text = String::from_utf8_lossy(&serial.stdout).to_string();
    let serial_estimate = serial_text
        .lines()
        .find(|l| l.starts_with("estimate"))
        .expect("estimate line")
        .to_string();
    for shards in ["2", "4"] {
        let out = run(&[
            "estimate", "--input", path_s, "--k", "6", "--alpha", "4", "--seed", "3", "--shards",
            shards,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(&serial_estimate),
            "shards={shards}: {text}\nvs {serial_estimate}"
        );
    }

    // report: same cover sets under sharding.
    let serial = run(&[
        "report", "--input", path_s, "--k", "6", "--alpha", "4", "--seed", "3",
    ]);
    assert!(serial.status.success());
    let serial_sets = String::from_utf8_lossy(&serial.stdout)
        .lines()
        .find(|l| l.starts_with("reported sets"))
        .expect("reported sets line")
        .to_string();
    let out = run(&[
        "report", "--input", path_s, "--k", "6", "--alpha", "4", "--seed", "3", "--shards", "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(&serial_sets), "{text}\nvs {serial_sets}");

    // twopass and budget accept the flag and produce output.
    let out = run(&[
        "twopass", "--input", path_s, "--k", "6", "--alpha", "4", "--shards", "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("real coverage"));
    let out = run(&[
        "budget", "--input", path_s, "--k", "6", "--words", "2000000", "--shards", "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fitted alpha"));

    // Every stream subcommand prints the same answer at the default
    // chunk size, in one-edge chunks and in 1000-edge chunks.
    for head in [
        &["estimate", "--alpha", "4"][..],
        &["report", "--alpha", "4"][..],
        &["twopass", "--alpha", "4"][..],
        &["budget", "--words", "2000000"][..],
    ] {
        let outs: Vec<Vec<u8>> = [&[][..], &["--batch", "1"][..], &["--batch", "1000"][..]]
            .into_iter()
            .map(|batch| {
                let mut args = head.to_vec();
                args.extend(["--input", path_s, "--k", "6", "--seed", "3"]);
                args.extend_from_slice(batch);
                let out = run(&args);
                assert!(
                    out.status.success(),
                    "{args:?}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                out.stdout
            })
            .collect();
        assert_eq!(
            outs[0], outs[1],
            "{}: --batch 1 must equal the default",
            head[0]
        );
        assert_eq!(
            outs[0], outs[2],
            "{}: --batch 1000 must equal the default",
            head[0]
        );
    }

    // --shards 0 is rejected on every stream subcommand.
    for cmd in [
        &[
            "estimate", "--input", path_s, "--k", "6", "--alpha", "4", "--shards", "0",
        ][..],
        &[
            "report", "--input", path_s, "--k", "6", "--alpha", "4", "--shards", "0",
        ][..],
        &[
            "twopass", "--input", path_s, "--k", "6", "--alpha", "4", "--shards", "0",
        ][..],
        &[
            "budget", "--input", path_s, "--k", "6", "--words", "2000000", "--shards", "0",
        ][..],
    ] {
        let out = run(cmd);
        assert!(!out.status.success(), "{cmd:?} should fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--shards must be >= 1"),
            "{cmd:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_usage_fails_with_usage_message() {
    for args in [
        &["frobnicate"][..],
        &["estimate", "--input"][..],
        &["estimate", "--k", "3"][..],
        &[][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "missing usage for {args:?}: {err}");
    }
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    let path = tmp_file("flags.txt");
    let path_s = path.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "400", "--m", "60", "--k", "5", "--seed", "1", "--out",
        path_s,
    ]);
    assert!(out.status.success());

    // A typo'd flag fails loudly instead of being silently ignored…
    let out = run(&[
        "estimate", "--input", path_s, "--k", "5", "--alpha", "4", "--allpha", "9",
    ]);
    assert!(!out.status.success(), "typo'd flag must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --allpha"), "{err}");
    assert!(err.contains("'estimate'"), "{err}");

    // …flags valid elsewhere are rejected where they make no sense…
    let out = run(&["stats", "--input", path_s, "--alpha", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --alpha"));
    let out = run(&[
        "gen",
        "--kind",
        "planted",
        "--n",
        "10",
        "--m",
        "5",
        "--out",
        path_s,
        "--metrics",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --metrics"));

    // …and repeating a flag is an error, not a silent overwrite.
    let out = run(&[
        "estimate", "--input", path_s, "--k", "5", "--alpha", "4", "--alpha", "8",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate flag --alpha"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_and_metrics_add_output_without_changing_estimates() {
    let path = tmp_file("obs.txt");
    let path_s = path.to_str().unwrap();
    let trace = tmp_file("obs.ndjson");
    let trace_s = trace.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "800", "--m", "120", "--k", "8", "--seed", "5", "--out",
        path_s,
    ]);
    assert!(out.status.success());

    let base = &[
        "estimate", "--input", path_s, "--k", "8", "--alpha", "4", "--seed", "3",
    ][..];
    let plain = run(base);
    assert!(plain.status.success());

    // --trace alone: stdout byte-identical to the plain run.
    let mut args = base.to_vec();
    args.extend(["--trace", trace_s]);
    let traced = run(&args);
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace must not change stdout"
    );

    // The trace file is line-delimited JSON (every line with seq and
    // kind) with the required records, and its accounting closes: the
    // auditor checks the ledger against the summary, and the
    // subroutines' ledger subtrees partition it.
    let t = maxkcov::obs::audit::Trace::read(trace_s).expect("trace parses");
    assert!(t.violations().is_empty(), "{:?}", t.violations());
    assert!(
        t.space_rows.iter().any(|r| r.path == "estimator/lane0"),
        "per-lane ledger subtrees present"
    );
    assert!(!t.subroutines.is_empty(), "per-subroutine records present");
    let (_, summary_space, summary_edges) = t.summary.expect("summary record");
    let subroutine_space: u64 = t.subroutine_words().iter().map(|w| w.2.unwrap()).sum();
    assert_eq!(subroutine_space, summary_space);
    assert!(t.phases.contains_key("ingest"));
    assert!(t.phases.contains_key("finalize"));

    // The reported space and edge count agree with the normal output.
    let text = String::from_utf8_lossy(&plain.stdout);
    let stdout_space: u64 = text
        .lines()
        .find(|l| l.starts_with("space (words)"))
        .and_then(|l| l.split('=').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("space line");
    assert_eq!(summary_space, stdout_space);
    let stdout_edges: u64 = text
        .lines()
        .find(|l| l.starts_with("stream edges"))
        .and_then(|l| l.split('=').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("edges line");
    assert_eq!(summary_edges, stdout_edges);

    // --metrics: the plain lines come first, then the summary table.
    let mut args = base.to_vec();
    args.push("--metrics");
    let metrics = run(&args);
    assert!(metrics.status.success());
    let mtext = String::from_utf8_lossy(&metrics.stdout);
    assert!(
        mtext.starts_with(&*String::from_utf8_lossy(&plain.stdout)),
        "normal output must be an unchanged prefix:\n{mtext}"
    );
    assert!(mtext.contains("edges.total"), "{mtext}");
    assert!(
        mtext.contains("large_common"),
        "subroutine diagnostics shown: {mtext}"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn heartbeat_flag_is_validated() {
    let path = tmp_file("hb-validate.txt");
    let path_s = path.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "300", "--m", "40", "--k", "4", "--seed", "2", "--out",
        path_s,
    ]);
    assert!(out.status.success());

    // Zero cadence is rejected.
    let out = run(&[
        "estimate",
        "--input",
        path_s,
        "--k",
        "4",
        "--alpha",
        "4",
        "--heartbeat",
        "0",
        "--metrics",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--heartbeat must be >= 1"));

    // Heartbeats land in the event log, so a sink must be requested.
    let out = run(&[
        "estimate",
        "--input",
        path_s,
        "--k",
        "4",
        "--alpha",
        "4",
        "--heartbeat",
        "100",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--heartbeat requires --trace or --metrics")
    );

    // Non-streaming subcommands do not take the flag at all.
    let out = run(&["stats", "--input", path_s, "--heartbeat", "100"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --heartbeat"));

    std::fs::remove_file(&path).ok();
}

/// A trace file reduced to its deterministic content: wall-clock
/// payloads are dropped (`ns` fields, `*_ns` histograms, `time_ns.*`
/// counters) and every surviving line must be byte-identical across
/// identical runs — the heartbeat determinism contract of DESIGN.md §10.
fn normalized_trace(path: &std::path::Path) -> Vec<String> {
    use maxkcov::obs::json::Json;
    let text = std::fs::read_to_string(path).expect("trace file");
    let mut out = Vec::new();
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON: {e}\n{line}"));
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .expect("kind")
            .to_string();
        let str_of = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        if kind == "counter" && str_of("key").is_some_and(|k| k.starts_with("time_ns.")) {
            continue;
        }
        if kind == "histogram" && str_of("name").is_some_and(|n| n.ends_with("_ns")) {
            continue;
        }
        let Json::Obj(entries) = doc else {
            panic!("non-object line: {line}")
        };
        let kept: Vec<_> = entries.into_iter().filter(|(k, _)| k != "ns").collect();
        out.push(Json::Obj(kept).render());
    }
    out
}

#[test]
fn heartbeat_keeps_stdout_identical_and_traces_deterministic() {
    let path = tmp_file("hb-det.txt");
    let path_s = path.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "900", "--m", "130", "--k", "8", "--seed", "11",
        "--out", path_s,
    ]);
    assert!(out.status.success());

    // Heartbeats must not perturb any estimate/report output line.
    for cmd in ["estimate", "report", "twopass"] {
        let base = &[
            cmd, "--input", path_s, "--k", "8", "--alpha", "4", "--seed", "6",
        ][..];
        let plain = run(base);
        assert!(plain.status.success(), "{cmd} plain run failed");
        let trace = tmp_file(&format!("hb-det-{cmd}.ndjson"));
        let mut args = base.to_vec();
        args.extend(["--heartbeat", "400", "--trace", trace.to_str().unwrap()]);
        let beating = run(&args);
        assert!(beating.status.success(), "{cmd} heartbeat run failed");
        assert_eq!(
            plain.stdout, beating.stdout,
            "--heartbeat must not change {cmd} stdout"
        );
        std::fs::remove_file(&trace).ok();
    }

    // Two identical sharded + threaded + batched traced runs agree
    // byte-for-byte once wall-clock payloads are stripped.
    let t1 = tmp_file("hb-det-1.ndjson");
    let t2 = tmp_file("hb-det-2.ndjson");
    for t in [&t1, &t2] {
        let out = run(&[
            "estimate",
            "--input",
            path_s,
            "--k",
            "8",
            "--alpha",
            "4",
            "--seed",
            "6",
            "--shards",
            "3",
            "--threads",
            "2",
            "--batch",
            "128",
            "--heartbeat",
            "400",
            "--trace",
            t.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (n1, n2) = (normalized_trace(&t1), normalized_trace(&t2));
    assert!(!n1.is_empty());
    assert_eq!(
        n1, n2,
        "identical runs must produce identical traces modulo wall-clock"
    );
    assert!(
        n1.iter().any(|l| l.contains("\"kind\":\"heartbeat\"")),
        "sharded trace carries heartbeat events"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&t1).ok();
    std::fs::remove_file(&t2).ok();
}

#[test]
fn trace_summarize_renders_and_checks_a_trace() {
    let path = tmp_file("ts.txt");
    let path_s = path.to_str().unwrap();
    let trace = tmp_file("ts.ndjson");
    let trace_s = trace.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "700", "--m", "110", "--k", "7", "--seed", "9", "--out",
        path_s,
    ]);
    assert!(out.status.success());
    let out = run(&[
        "estimate",
        "--input",
        path_s,
        "--k",
        "7",
        "--alpha",
        "4",
        "--seed",
        "4",
        "--batch",
        "256",
        "--heartbeat",
        "500",
        "--trace",
        trace_s,
    ]);
    assert!(out.status.success());

    // The summary renders phases, heartbeats, histograms, and the
    // invariant verdict, and exits zero on a healthy trace.
    let out = run(&["trace-summarize", trace_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "phase",
        "ingest",
        "finalize",
        "summary estimate",
        "heartbeats",
        "ingest.batch_edges",
        "invariants OK",
    ] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }

    // An orphan time_ns counter (no matching phase events) trips the
    // invariant check: non-zero exit, violation named on stderr.
    let mut ndjson = std::fs::read_to_string(&trace).unwrap();
    ndjson.push_str("{\"seq\":99999,\"kind\":\"counter\",\"key\":\"time_ns.bogus\",\"value\":5}\n");
    std::fs::write(&trace, &ndjson).unwrap();
    let out = run(&["trace-summarize", trace_s]);
    assert!(!out.status.success(), "corrupt trace must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("time_ns.bogus"), "{err}");

    // Arity and I/O errors are reported, not panicked.
    let out = run(&["trace-summarize"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one argument"));
    let out = run(&["trace-summarize", "/nonexistent/trace.ndjson"]);
    assert!(!out.status.success());

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();
}

/// Degenerate traces must be clear non-zero exits, not quiet
/// summaries of nothing: an empty file has no events to audit, and a
/// trace carrying heartbeats but no histograms has lost the delta
/// records every heartbeat writes.
#[test]
fn trace_summarize_rejects_empty_and_histogram_free_traces() {
    // Empty file (and a whitespace-only one, which parses to zero
    // events the same way).
    let empty = tmp_file("empty.ndjson");
    let empty_s = empty.to_str().unwrap();
    for contents in ["", "\n\n  \n"] {
        std::fs::write(&empty, contents).unwrap();
        let out = run(&["trace-summarize", empty_s]);
        assert!(!out.status.success(), "empty trace must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("contains no events"), "{err}");
    }
    std::fs::remove_file(&empty).ok();

    // Heartbeats but no histogram events: every heartbeat records a
    // fill/eviction delta, so this shape only arises from truncation
    // or hand-editing. The summary still renders, then the invariant
    // check fails.
    let beats = tmp_file("beats-only.ndjson");
    let beats_s = beats.to_str().unwrap();
    let ndjson = concat!(
        "{\"seq\":0,\"kind\":\"heartbeat\",\"stage\":\"ingest\",\"shard\":0,\
         \"at_edges\":500,\"lane\":0,\"lc_fill\":3,\"ls_fill\":2,\"ss_fill\":1,\
         \"evictions\":0,\"space_words\":100}\n",
        "{\"seq\":1,\"kind\":\"heartbeat\",\"stage\":\"ingest\",\"shard\":0,\
         \"at_edges\":1000,\"lane\":0,\"lc_fill\":4,\"ls_fill\":2,\"ss_fill\":1,\
         \"evictions\":1,\"space_words\":100}\n",
    );
    std::fs::write(&beats, ndjson).unwrap();
    let out = run(&["trace-summarize", beats_s]);
    assert!(
        !out.status.success(),
        "heartbeats without histograms must fail"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no histogram events"),
        "expected the heartbeat/histogram invariant, got: {err}"
    );
    assert!(err.contains("2 heartbeat row(s)"), "{err}");
    std::fs::remove_file(&beats).ok();
}

/// The `prof` subcommand: attribution report from a traced run or a
/// live run, self-auditing the ledger invariants with a non-zero exit
/// on violation.
#[test]
fn prof_renders_attribution_and_audits_the_ledger() {
    let path = tmp_file("prof.txt");
    let path_s = path.to_str().unwrap();
    let trace = tmp_file("prof.ndjson");
    let trace_s = trace.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "700", "--m", "110", "--k", "7", "--seed", "9", "--out",
        path_s,
    ]);
    assert!(out.status.success());
    let out = run(&[
        "estimate", "--input", path_s, "--k", "7", "--alpha", "4", "--seed", "4", "--batch", "256",
        "--trace", trace_s,
    ]);
    assert!(out.status.success());

    // Trace mode: sorted attribution plus the invariant verdict.
    let out = run(&["prof", trace_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "ledger nodes",
        "estimator/",
        "upd/word",
        "total:",
        "ledger invariants OK",
    ] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }

    // --top truncates the leaf table and says what it dropped.
    let out = run(&["prof", trace_s, "--top", "3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("more leaves"));

    // Live mode reruns the estimator and audits its own ledger.
    let out = run(&[
        "prof", "--input", path_s, "--k", "7", "--alpha", "4", "--seed", "4", "--shards", "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("live run"), "{text}");
    assert!(text.contains("ledger invariants OK"), "{text}");

    // A tampered trace (a ledger leaf the tree never had) must be a
    // non-zero exit naming the violation.
    let mut ndjson = std::fs::read_to_string(&trace).unwrap();
    ndjson.push_str(
        "{\"seq\":99999,\"kind\":\"ledger\",\"path\":\"estimator/bogus\",\
         \"words\":7,\"updates\":0,\"touched_words\":0,\"children\":0}\n",
    );
    std::fs::write(&trace, &ndjson).unwrap();
    let out = run(&["prof", trace_s]);
    assert!(!out.status.success(), "tampered ledger must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invariant violated"), "{err}");

    // Flag and arity validation: trace and --input are exclusive, a
    // bare call has nothing to profile, and stream-only flags are
    // rejected.
    let out = run(&[
        "prof", trace_s, "--input", path_s, "--k", "7", "--alpha", "4",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not both"));
    let out = run(&["prof"]);
    assert!(!out.status.success());
    let out = run(&[
        "prof",
        "--input",
        path_s,
        "--k",
        "7",
        "--alpha",
        "4",
        "--heartbeat",
        "100",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --heartbeat"));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();
}

/// `prof --time`: the time-attribution twin of the ledger report —
/// rendered trees and folded stacks from a trace or a live run, with
/// the ns-conservation audit deciding the exit status.
#[test]
fn prof_time_renders_folded_stacks_and_audits_conservation() {
    let path = tmp_file("proftime.txt");
    let path_s = path.to_str().unwrap();
    let trace = tmp_file("proftime.ndjson");
    let trace_s = trace.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "700", "--m", "110", "--k", "7", "--seed", "9", "--out",
        path_s,
    ]);
    assert!(out.status.success());
    let out = run(&[
        "estimate",
        "--input",
        path_s,
        "--k",
        "7",
        "--alpha",
        "4",
        "--seed",
        "4",
        "--batch",
        "256",
        "--heartbeat",
        "500",
        "--trace",
        trace_s,
    ]);
    assert!(out.status.success());

    // Trace mode: per-tree report plus the invariant verdict.
    let out = run(&["prof", trace_s, "--time"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["time nodes", "estimator", "time invariants OK"] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }

    // Folded mode: every stdout line is a flamegraph.pl-ready
    // "frame;frame;... ns" stack, nothing else (no banner, no verdict).
    let out = run(&["prof", trace_s, "--time", "--folded"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "folded output is empty");
    for line in &lines {
        let (stack, ns) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad stack: {line}"));
        assert!(
            !stack.is_empty() && !stack.contains('/'),
            "unfolded path in: {line}"
        );
        ns.parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric sample count: {line}"));
    }
    assert!(
        lines.iter().any(|l| l.starts_with("estimator;")),
        "no estimator frames in:\n{text}"
    );

    // --folded is a rendering of --time, not a mode of its own.
    let out = run(&["prof", trace_s, "--folded"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--folded"));

    // Live mode reruns the ingest with the batch clocks on and audits
    // attribution against its own wall-clock budget.
    let out = run(&[
        "prof", "--input", path_s, "--k", "7", "--alpha", "4", "--seed", "4", "--time",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("live run"), "{text}");
    assert!(text.contains("time invariants OK"), "{text}");
    let out = run(&[
        "prof", "--input", path_s, "--k", "7", "--alpha", "4", "--seed", "4", "--shards", "2",
        "--time", "--folded",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stdout).trim().is_empty());

    // Tampering with a single time_ledger leaf breaks the parent-sum
    // walk: both prof --time and trace-summarize must refuse the trace.
    let ndjson = std::fs::read_to_string(&trace).unwrap();
    let mut tampered = String::new();
    let mut done = false;
    for line in ndjson.lines() {
        if !done && line.contains("\"kind\":\"time_ledger\"") && line.contains("\"children\":0") {
            if let Some(i) = line.find("\"ns\":") {
                let digits: String = line[i + 5..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                let bumped: u64 = digits.parse::<u64>().unwrap() + 999_999_999_999;
                tampered.push_str(&line[..i + 5]);
                tampered.push_str(&bumped.to_string());
                tampered.push_str(&line[i + 5 + digits.len()..]);
                tampered.push('\n');
                done = true;
                continue;
            }
        }
        tampered.push_str(line);
        tampered.push('\n');
    }
    assert!(done, "no time_ledger leaf found to tamper with");
    std::fs::write(&trace, &tampered).unwrap();
    for args in [
        &["prof", trace_s, "--time"][..],
        &["trace-summarize", trace_s][..],
    ] {
        let out = run(args);
        assert!(
            !out.status.success(),
            "{args:?} accepted a tampered time ledger"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invariant violated"), "{err}");
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();
}

/// Overhead budget for the batch-granular clocks: a traced ingest must
/// hold at least 95% of untraced throughput. Timing-sensitive, so it
/// is ignored by default and run explicitly (in release) by the CI
/// bench-smoke job.
#[test]
#[ignore = "timing-sensitive; CI bench-smoke runs it in release"]
fn traced_ingest_overhead_stays_within_budget() {
    use maxkcov::core::{EstimatorConfig, MaxCoverEstimator};
    use maxkcov::obs::Recorder;
    use maxkcov::stream::gen::zipf_popularity;
    use maxkcov::stream::{edge_stream, ArrivalOrder};
    use std::time::Instant;

    // 1 600 sets of 30 popularity-drawn elements, fed in batches of 1024.
    let system = zipf_popularity(20_000, 1_600, 30, 1.05, 7);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(3));
    let (n, m) = (system.num_elements(), system.num_sets());
    let config = EstimatorConfig::practical(11);
    let batches: Vec<&[_]> = edges.chunks(1024).collect();

    // The host's speed drifts by up to a third over seconds, so runs
    // timed one after the other compare host states, not code. Each
    // pass therefore feeds an untraced and a traced estimator batch by
    // batch in turn (swapping which goes first every batch), so both
    // sides see the same host. Over 5 passes each side keeps, per
    // batch, its fastest time (a stall only ever adds time), and its
    // rate is the stream over the sum of those.
    let recorders = [Recorder::disabled(), Recorder::enabled()];
    let mut fastest = [
        vec![f64::INFINITY; batches.len()],
        vec![f64::INFINITY; batches.len()],
    ];
    for _ in 0..5 {
        let mut ests = recorders.each_ref().map(|rec| {
            let mut est = MaxCoverEstimator::new(n, m, 20, 4.0, &config);
            est.attach_recorder(rec);
            est
        });
        for (i, batch) in batches.iter().enumerate() {
            for side in [i % 2, 1 - i % 2] {
                let t = Instant::now();
                ests[side].observe_batch(batch);
                fastest[side][i] = fastest[side][i].min(t.elapsed().as_secs_f64());
            }
        }
    }
    let [untraced, traced] = fastest.map(|t| edges.len() as f64 / t.iter().sum::<f64>());
    assert!(
        traced >= 0.95 * untraced,
        "tracing overhead above budget: {traced:.0} edges/s traced vs {untraced:.0} untraced \
         ({:.1}% slowdown, budget 5%)",
        (1.0 - traced / untraced) * 100.0
    );
}

#[test]
fn malformed_input_reports_line() {
    let path = tmp_file("bad.txt");
    std::fs::write(&path, "4 2\n9 9\n").unwrap();
    let out = run(&["stats", "--input", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A rejected argument exits 1 with an `error:` line naming it, and
/// never reaches an assertion.
fn assert_clean_rejection(args: &[&str], want: &str) {
    let out = run(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1: {err}");
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    assert!(err.contains(want), "{args:?}: expected {want:?} in {err}");
}

#[test]
fn bad_shape_args_are_errors_not_panics() {
    let path = tmp_file("shape.txt");
    let path_s = path.to_str().unwrap();
    let out = run(&[
        "gen", "--kind", "planted", "--n", "300", "--m", "40", "--k", "4", "--seed", "1", "--out",
        path_s,
    ]);
    assert!(out.status.success());
    let replica = tmp_file("shape.bin");
    let replica_s = replica.to_str().unwrap();
    let subcommands: [&[&str]; 5] = [
        &["estimate"],
        &["report"],
        &["twopass"],
        &[
            "worker", "--shards", "2", "--shard", "0", "--out", replica_s,
        ],
        &["prof"],
    ];
    let shapes = [
        (["--k", "0", "--alpha", "2"], "--k must be >= 1"),
        (
            ["--k", "2", "--alpha", "0"],
            "--alpha must be a finite number >= 1",
        ),
        (
            ["--k", "2", "--alpha", "0.5"],
            "--alpha must be a finite number >= 1",
        ),
        (
            ["--k", "2", "--alpha", "nan"],
            "--alpha must be a finite number >= 1",
        ),
        (
            ["--k", "2", "--alpha", "inf"],
            "--alpha must be a finite number >= 1",
        ),
    ];
    for cmd in subcommands {
        for (shape, want) in &shapes {
            let mut args = cmd.to_vec();
            args.extend(["--input", path_s]);
            args.extend(shape);
            assert_clean_rejection(&args, want);
        }
    }
    assert!(
        !replica.exists(),
        "a rejected worker must not write a replica"
    );
    for (n, m) in [("0", "5"), ("5", "0")] {
        assert_clean_rejection(
            &[
                "gen", "--kind", "uniform", "--n", n, "--m", m, "--out", path_s,
            ],
            "--n and --m must be >= 1",
        );
    }
    assert_clean_rejection(
        &[
            "gen", "--kind", "planted", "--n", "10", "--m", "5", "--k", "0", "--out", path_s,
        ],
        "--k must be >= 1",
    );
    // Per-kind shapes the generators cannot build.
    let kinds = [
        ("planted", "100", "5", "10", "--k <= --m"),
        ("planted", "4", "50", "10", "--k <= --n"),
        ("common", "4", "2", "1", "--n >= 8"),
        ("common", "100", "3", "1", "--m >= 4"),
        ("few-large", "2", "1", "1", "--m >= 2"),
        ("few-large", "3", "10", "1", "3 large set(s)"),
    ];
    for (kind, n, m, k, want) in kinds {
        let args = [
            "gen", "--kind", kind, "--n", n, "--m", m, "--k", k, "--out", path_s,
        ];
        assert_clean_rejection(&args, want);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_instance_headers_are_rejected() {
    let path = tmp_file("oversized.txt");
    let path_s = path.to_str().unwrap();
    // An element id past u32::MAX (aliasing to 1 if narrowed), and a set
    // count past u32::MAX (a ~100 GB allocation if trusted).
    for text in ["4294967300 2\n0 4294967297\n", "4 4294967300\n0 1\n"] {
        std::fs::write(&path, text).unwrap();
        assert_clean_rejection(&["stats", "--input", path_s], "exceeds the u32 id range");
        assert_clean_rejection(
            &["estimate", "--input", path_s, "--k", "1", "--alpha", "2"],
            "exceeds the u32 id range",
        );
    }
    std::fs::remove_file(&path).ok();
}
