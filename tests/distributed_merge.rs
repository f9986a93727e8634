//! Coordinator–worker differential harness (DESIGN.md §11): N worker
//! processes each ingest one contiguous stream shard and serialize
//! their full estimator replica; `merge-from` folds the replica files
//! through the commutative merge. The result must be **bit-identical**
//! to a single-process `--shards N` run — same stdout, same trace
//! events — modulo wall-clock `ns` fields, which are normalized away
//! exactly as in `tests/cli.rs`.

use std::path::{Path, PathBuf};
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

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("maxkcov-dist-{}-{name}", std::process::id()));
    p
}

/// Stdout minus nondeterministic timing lines (`time_ns.*` counters
/// and `*_ns` histograms in the `--metrics` summary).
fn normalized_stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains("time_ns.") && !l.contains("_ns"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Trace lines with wall-clock payloads removed: `time_ns.*` counter
/// lines and `*_ns` histogram lines are dropped, and the `ns` field is
/// stripped from every remaining event.
fn normalized_trace(path: &Path) -> Vec<String> {
    use maxkcov::obs::json::Json;
    let text = std::fs::read_to_string(path).expect("trace file");
    let mut out = Vec::new();
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON: {e}\n{line}"));
        let kind = doc.get("kind").and_then(Json::as_str).expect("kind").to_string();
        let str_of = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        if kind == "counter" && str_of("key").is_some_and(|k| k.starts_with("time_ns.")) {
            continue;
        }
        if kind == "histogram" && str_of("name").is_some_and(|n| n.ends_with("_ns")) {
            continue;
        }
        let Json::Obj(entries) = doc else { panic!("non-object line: {line}") };
        let kept: Vec<_> = entries.into_iter().filter(|(k, _)| k != "ns").collect();
        out.push(Json::Obj(kept).render());
    }
    out
}

/// Generate a test instance; returns its path.
fn gen_instance(label: &str, kind: &str, seed: &str) -> PathBuf {
    let path = tmp(&format!("{label}-{kind}-{seed}.txt"));
    let out = run(&[
        "gen", "--kind", kind, "--n", "400", "--m", "36", "--k", "5", "--seed", seed,
        "--out", path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    path
}

const K: &str = "5";
const ALPHA: &str = "2.0";
const BATCH: &str = "64";
const HEARTBEAT: &str = "150";

/// One single-process coordinator run with `--shards n`. Always passes
/// `--batch` so the N = 1 case uses the same batched engine (and hence
/// the same heartbeat boundaries) as the workers.
fn coordinator(input: &Path, seed: &str, n_shards: usize, trace: &Path) -> Output {
    let shards = n_shards.to_string();
    let out = run(&[
        "estimate", "--input", input.to_str().unwrap(), "--k", K, "--alpha", ALPHA,
        "--seed", seed, "--batch", BATCH, "--shards", &shards,
        "--heartbeat", HEARTBEAT, "--metrics", "--trace", trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "coordinator failed: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// Run worker `i` of `n_shards`, writing its replica to the returned
/// path. `extra` appends snapshot/resume/stop-after flags.
fn worker(
    label: &str,
    input: &Path,
    seed: &str,
    n_shards: usize,
    i: usize,
    extra: &[&str],
) -> (Output, PathBuf) {
    let replica = tmp(&format!("{label}-r{i}.bin"));
    let wtrace = tmp(&format!("{label}-w{i}.ndjson"));
    let shards = n_shards.to_string();
    let shard = i.to_string();
    let mut args = vec![
        "worker", "--input", input.to_str().unwrap(), "--k", K, "--alpha", ALPHA,
        "--seed", seed, "--batch", BATCH, "--shards", &shards, "--shard", &shard,
        "--heartbeat", HEARTBEAT, "--trace", wtrace.to_str().unwrap(),
    ];
    let replica_s = replica.to_str().unwrap().to_string();
    args.extend(["--out", &replica_s]);
    args.extend_from_slice(extra);
    (run(&args), replica)
}

fn merge_from(replicas: &[&Path], trace: &Path) -> Output {
    let mut args = vec!["merge-from"];
    for r in replicas {
        args.push(r.to_str().unwrap());
    }
    args.extend(["--metrics", "--trace", trace.to_str().unwrap()]);
    run(&args)
}

/// The headline differential: generators × seeds × worker counts
/// {1, 2, 4, 7}, each N-process pipeline byte-identical to the
/// single-process `--shards N` run.
#[test]
fn n_process_pipeline_matches_single_process_run() {
    for kind in ["zipf", "planted"] {
        for seed in ["3", "11"] {
            let input = gen_instance("diff", kind, seed);
            for n_shards in [1usize, 2, 4, 7] {
                let label = format!("diff-{kind}-{seed}-{n_shards}");
                let ctrace = tmp(&format!("{label}-coord.ndjson"));
                let coord = coordinator(&input, seed, n_shards, &ctrace);

                let replicas: Vec<PathBuf> = (0..n_shards)
                    .map(|i| {
                        let (out, replica) = worker(&label, &input, seed, n_shards, i, &[]);
                        assert!(
                            out.status.success(),
                            "worker {i}/{n_shards} failed: {}",
                            String::from_utf8_lossy(&out.stderr)
                        );
                        replica
                    })
                    .collect();
                let mtrace = tmp(&format!("{label}-merge.ndjson"));
                let refs: Vec<&Path> = replicas.iter().map(PathBuf::as_path).collect();
                let merged = merge_from(&refs, &mtrace);
                assert!(
                    merged.status.success(),
                    "merge-from failed: {}",
                    String::from_utf8_lossy(&merged.stderr)
                );

                assert_eq!(
                    normalized_stdout(&coord),
                    normalized_stdout(&merged),
                    "stdout diverged: {kind} seed {seed} N = {n_shards}"
                );
                assert_eq!(
                    normalized_trace(&ctrace),
                    normalized_trace(&mtrace),
                    "trace diverged: {kind} seed {seed} N = {n_shards}"
                );

                for r in &replicas {
                    std::fs::remove_file(r).ok();
                }
                std::fs::remove_file(&ctrace).ok();
                std::fs::remove_file(&mtrace).ok();
            }
            std::fs::remove_file(&input).ok();
        }
    }
}

/// merge-from sorts replicas by shard id before folding, so the
/// output is byte-identical for *every* ordering of the file list.
#[test]
fn merge_order_permutation_invariance() {
    let input = gen_instance("perm", "zipf", "7");
    let replicas: Vec<PathBuf> = (0..4)
        .map(|i| {
            let (out, replica) = worker("perm", &input, "7", 4, i, &[]);
            assert!(out.status.success());
            replica
        })
        .collect();

    let canonical_trace = tmp("perm-canonical.ndjson");
    let refs: Vec<&Path> = replicas.iter().map(PathBuf::as_path).collect();
    let canonical = merge_from(&refs, &canonical_trace);
    assert!(canonical.status.success());

    for (name, order) in [
        ("reversed", vec![3usize, 2, 1, 0]),
        ("rotated", vec![1, 2, 3, 0]),
        ("interleaved", vec![2, 0, 3, 1]),
    ] {
        let trace = tmp(&format!("perm-{name}.ndjson"));
        let permuted: Vec<&Path> = order.iter().map(|&i| replicas[i].as_path()).collect();
        let out = merge_from(&permuted, &trace);
        assert!(out.status.success(), "{name} order failed");
        assert_eq!(
            normalized_stdout(&canonical),
            normalized_stdout(&out),
            "stdout depends on file order ({name})"
        );
        assert_eq!(
            normalized_trace(&canonical_trace),
            normalized_trace(&trace),
            "trace depends on file order ({name})"
        );
        std::fs::remove_file(&trace).ok();
    }

    for r in &replicas {
        std::fs::remove_file(r).ok();
    }
    std::fs::remove_file(&canonical_trace).ok();
    std::fs::remove_file(&input).ok();
}

/// Kill one worker mid-shard (`--stop-after`, non-zero exit), restart
/// it from its periodic snapshot, and verify the merged output is
/// still bit-identical to the uninterrupted single-process run.
#[test]
fn killed_worker_restarts_from_snapshot_bit_identical() {
    let input = gen_instance("crash", "planted", "13");
    let seed = "13";
    let n_shards = 4;

    let ctrace = tmp("crash-coord.ndjson");
    let coord = coordinator(&input, seed, n_shards, &ctrace);

    // Shards 0, 2, 3 run to completion.
    let mut replicas: Vec<PathBuf> = Vec::new();
    for i in [0usize, 2, 3] {
        let (out, replica) = worker("crash", &input, seed, n_shards, i, &[]);
        assert!(out.status.success());
        replicas.push(replica);
    }

    // Shard 1 crashes mid-chunk: batch 64, snapshot at the first
    // 64-edge boundary, killed at ≥ 65 edges. The final replica must
    // never have been written.
    let snap = tmp("crash-snap.bin");
    let snap_s = snap.to_str().unwrap().to_string();
    let (out, dead_replica) = worker(
        "crash-dead", &input, seed, n_shards, 1,
        &["--snapshot", &snap_s, "--snapshot-every", "64", "--stop-after", "65"],
    );
    assert!(!out.status.success(), "--stop-after must exit non-zero");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("simulated crash"),
        "stderr should explain the stop: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dead_replica.exists(), "crashed worker must not write its replica");
    assert!(snap.exists(), "periodic snapshot must exist before the crash point");

    // Restart shard 1 from the snapshot; it resumes at the recorded
    // offset without replaying edges (stdout reports the resume point).
    let (out, replica1) = worker("crash-resume", &input, seed, n_shards, 1, &["--resume", &snap_s]);
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("(resumed at 64)"),
        "worker should resume at the snapshot offset: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    replicas.push(replica1);

    let mtrace = tmp("crash-merge.ndjson");
    let refs: Vec<&Path> = replicas.iter().map(PathBuf::as_path).collect();
    let merged = merge_from(&refs, &mtrace);
    assert!(merged.status.success(), "{}", String::from_utf8_lossy(&merged.stderr));

    assert_eq!(normalized_stdout(&coord), normalized_stdout(&merged));
    assert_eq!(normalized_trace(&ctrace), normalized_trace(&mtrace));

    for r in &replicas {
        std::fs::remove_file(r).ok();
    }
    for p in [&ctrace, &mtrace, &snap, &input] {
        std::fs::remove_file(p).ok();
    }
}

/// Decoded `KCOVWIRE` replicas carry the exact space ledger: every
/// decoded worker state attributes each resident word, the wire v3
/// telemetry sidecars restore nonzero heat, and folding the decoded
/// replicas keeps the word sum exact while adding the heat counters.
#[test]
fn decoded_replicas_preserve_ledger_words_and_heat() {
    use maxkcov::core::MaxCoverEstimator;
    use maxkcov::obs::audit::space_ledger_violations;
    use maxkcov::sketch::{SpaceUsage, WireEncode};
    let input = gen_instance("ledger", "planted", "17");
    let n_shards = 3;
    let replicas: Vec<PathBuf> = (0..n_shards)
        .map(|i| {
            let (out, replica) = worker("ledger", &input, "17", n_shards, i, &[]);
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            replica
        })
        .collect();
    let mut decoded: Vec<MaxCoverEstimator> = replicas
        .iter()
        .map(|r| {
            let bytes = std::fs::read(r).expect("replica bytes");
            MaxCoverEstimator::from_bytes(&bytes).expect("decode replica")
        })
        .collect();

    let mut updates = 0u64;
    let mut touched = 0u64;
    for (i, est) in decoded.iter().enumerate() {
        let ledger = est.space_ledger_tree();
        let violations = space_ledger_violations(&ledger, est.space_words() as u64);
        assert!(violations.is_empty(), "worker {i}: {violations:?}");
        assert!(
            ledger.root.total_updates() > 0,
            "worker {i}: heat must survive the wire round trip"
        );
        updates += ledger.root.total_updates();
        touched += ledger.root.total_touched_words();
    }

    let mut merged = decoded.remove(0);
    for r in &decoded {
        merged.merge(r);
    }
    let ledger = merged.space_ledger_tree();
    let violations = space_ledger_violations(&ledger, merged.space_words() as u64);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(ledger.root.total_updates(), updates, "heat adds across decoded workers");
    assert_eq!(ledger.root.total_touched_words(), touched);

    for r in &replicas {
        std::fs::remove_file(r).ok();
    }
    std::fs::remove_file(&input).ok();
}

/// Truncations and corruptions of a replica file must be rejected with
/// a clean decode error — never a panic (exit 101), never a success.
#[test]
fn corrupted_and_truncated_replicas_are_rejected() {
    let input = gen_instance("fuzz", "zipf", "5");
    let (out, replica) = worker("fuzz", &input, "5", 2, 0, &[]);
    assert!(out.status.success());
    let bytes = std::fs::read(&replica).expect("replica bytes");
    assert!(bytes.len() > 512, "replica unexpectedly small: {}", bytes.len());

    let mangled = tmp("fuzz-mangled.bin");
    let mangled_s = mangled.to_str().unwrap();

    // Truncation sweep: dense over the header + shape/state section
    // openings (every new wire section starts in this prefix), then
    // sampled through the body, plus the final byte.
    let mut cuts: Vec<usize> = (0..256.min(bytes.len())).collect();
    cuts.extend((256..bytes.len()).step_by(bytes.len() / 64 + 1));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        std::fs::write(&mangled, &bytes[..cut]).unwrap();
        let out = run(&["merge-from", mangled_s]);
        assert!(
            !out.status.success(),
            "truncation to {cut} bytes was accepted"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "truncation to {cut} crashed: {stderr}");
        assert!(!stderr.contains("panicked"), "truncation to {cut} panicked: {stderr}");
        assert!(stderr.contains("decode"), "no decode error for cut {cut}: {stderr}");
    }

    // Single-byte-flip sweep: dense over the framing prefix, sampled
    // through the body. A flip may land in a telemetry counter and
    // decode successfully — but it must never panic.
    let mut flips: Vec<usize> = (0..128.min(bytes.len())).collect();
    flips.extend((128..bytes.len()).step_by(bytes.len() / 64 + 1));
    for flip in flips {
        let mut corrupted = bytes.clone();
        corrupted[flip] ^= 0xa5;
        std::fs::write(&mangled, &corrupted).unwrap();
        let out = run(&["merge-from", mangled_s]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "flip at {flip} panicked: {stderr}");
        assert!(!stderr.contains("panicked"), "flip at {flip} panicked: {stderr}");
    }

    std::fs::remove_file(&mangled).ok();
    std::fs::remove_file(&replica).ok();
    std::fs::remove_file(&input).ok();
}

/// Worker flag validation: out-of-range shard, orphaned
/// `--snapshot-every`, and resuming a snapshot into the wrong shard
/// all fail fast with a clear error.
#[test]
fn worker_flag_and_resume_validation() {
    let input = gen_instance("val", "zipf", "9");
    let input_s = input.to_str().unwrap();

    let out = run(&[
        "worker", "--input", input_s, "--k", K, "--alpha", ALPHA, "--shards", "2",
        "--shard", "2", "--out", "/dev/null",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    let out = run(&[
        "worker", "--input", input_s, "--k", K, "--alpha", ALPHA, "--shards", "2",
        "--shard", "0", "--out", "/dev/null", "--snapshot-every", "10",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--snapshot"));

    // A finished replica doubles as a snapshot — but only for its own
    // shard.
    let (out, replica) = worker("val", &input, "9", 2, 0, &[]);
    assert!(out.status.success());
    let replica_s = replica.to_str().unwrap().to_string();
    let (out, _) = worker("val-wrong", &input, "9", 2, 1, &["--resume", &replica_s]);
    assert!(!out.status.success(), "resuming shard 0's snapshot as shard 1 must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("belongs to shard"));

    std::fs::remove_file(&replica).ok();
    std::fs::remove_file(&input).ok();
}
