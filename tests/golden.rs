//! Golden-file pins on the CLI's end-to-end bytes.
//!
//! Each test runs a fixed command matrix through the `maxkcov` binary
//! and renders it as a transcript: every command as a `$ maxkcov ...`
//! line followed by its stdout verbatim, and every file it writes as a
//! `# <file>: <len> bytes, fnv1a64 <digest>` line (instances and
//! replica files are digested, not stored — a replica is ~145 KB). The
//! transcript must equal the committed file under `tests/golden/` byte
//! for byte. Commands run inside a scratch directory with relative
//! file names, so no machine-specific path reaches the transcript.
//!
//! On a mismatch the test prints the regenerated transcript in full.
//! A deliberate output change is re-pinned by replacing the golden file
//! with that transcript and explaining the change in review.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory that is removed when the transcript is done.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("maxkcov-golden-{pid}-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Builds a transcript by running commands in one scratch directory.
struct Transcript {
    dir: Scratch,
    text: String,
}

impl Transcript {
    fn new(name: &str) -> Self {
        Transcript {
            dir: Scratch::new(name),
            text: String::new(),
        }
    }

    /// Run one command, append it and its stdout, and return the stdout.
    fn run(&mut self, args: &[&str]) -> String {
        self.run_kept(args, |_| true)
    }

    /// Run one command and append it, but only the stdout lines `keep`
    /// accepts (the rest carry wall-clock values); return all stdout.
    fn run_kept(&mut self, args: &[&str], mut keep: impl FnMut(&str) -> bool) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_maxkcov"))
            .args(args)
            .current_dir(&self.dir.0)
            .output()
            .expect("binary should execute");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        writeln!(self.text, "$ maxkcov {}", args.join(" ")).unwrap();
        for line in stdout.lines().filter(|line| keep(line)) {
            writeln!(self.text, "{line}").unwrap();
        }
        stdout
    }

    /// Append the length and digest of a file the commands wrote.
    fn digest(&mut self, file: &str) {
        let bytes = std::fs::read(self.dir.0.join(file)).expect("file written");
        let digest = fnv1a64(&bytes);
        writeln!(
            self.text,
            "# {file}: {} bytes, fnv1a64 {digest:016x}",
            bytes.len()
        )
        .unwrap();
    }

    /// Compare against `tests/golden/<name>`, printing the regenerated
    /// transcript on a mismatch.
    fn check(self, name: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        let want = std::fs::read_to_string(&path).unwrap_or_default();
        if self.text == want {
            return;
        }
        let first = self
            .text
            .lines()
            .zip(want.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| self.text.lines().count().min(want.lines().count()));
        let text = &self.text;
        eprintln!("\n---- regenerated {name} ----\n{text}---- end {name} ----");
        panic!(
            "{} differs from the regenerated transcript at line {} (printed above)",
            path.display(),
            first + 1
        );
    }
}

/// Every generator kind × seed, each instance estimated at four shard
/// counts. The shard counts include a non-power-of-two (7) so merge
/// order and ragged shard boundaries are pinned, not just halvings.
#[test]
fn estimate_matrix_matches_golden() {
    let mut t = Transcript::new("matrix");
    for kind in ["uniform", "zipf", "planted"] {
        for seed in ["3", "11"] {
            let input = format!("{kind}-{seed}.txt");
            t.run(&[
                "gen", "--kind", kind, "--n", "400", "--m", "60", "--k", "6", "--seed", seed,
                "--out", &input,
            ]);
            t.digest(&input);
            for shards in ["1", "2", "4", "7"] {
                t.run(&[
                    "estimate", "--input", &input, "--k", "6", "--alpha", "4", "--seed", seed,
                    "--batch", "128", "--shards", shards,
                ]);
            }
        }
    }
    t.check("estimate_matrix.txt");
}

/// The distributed path: three workers write replica files whose wire
/// bytes are pinned, and their merge must print what the single-process
/// `--shards 3` run prints.
#[test]
fn worker_pipeline_matches_golden() {
    let mut t = Transcript::new("workers");
    let input = "zipf-11.txt";
    t.run(&[
        "gen", "--kind", "zipf", "--n", "400", "--m", "60", "--k", "6", "--seed", "11", "--out",
        input,
    ]);
    t.digest(input);
    let replicas: Vec<String> = (0..3).map(|i| format!("rep-{i}.bin")).collect();
    for (i, replica) in replicas.iter().enumerate() {
        t.run(&[
            "worker",
            "--input",
            input,
            "--k",
            "6",
            "--alpha",
            "4",
            "--seed",
            "11",
            "--shards",
            "3",
            "--shard",
            &i.to_string(),
            "--batch",
            "128",
            "--out",
            replica,
        ]);
        t.digest(replica);
    }
    let mut merge_args = vec!["merge-from"];
    merge_args.extend(replicas.iter().map(String::as_str));
    let merged = t.run(&merge_args);
    let coord = t.run(&[
        "estimate", "--input", input, "--k", "6", "--alpha", "4", "--seed", "11", "--batch", "128",
        "--shards", "3",
    ]);
    assert_eq!(
        merged, coord,
        "merged replicas disagree with the single-process sharded run"
    );
    t.check("worker_pipeline.txt");
}

/// The observability surfaces on every trace shape: a traced estimate
/// at one and at three shards, a trivial-branch estimate (k·α ≥ m) and
/// a two-pass run. Each keeps its deterministic lines: the `--metrics`
/// subroutine table, the whole `prof` report, and `trace-summarize`'s
/// summary and subroutine-space lines.
#[test]
fn observability_matches_golden() {
    let mut t = Transcript::new("observability");
    let input = "planted-5.txt";
    t.run(&[
        "gen", "--kind", "planted", "--n", "800", "--m", "120", "--k", "8", "--seed", "5", "--out",
        input,
    ]);
    let runs: [(&str, &[&str]); 4] = [
        ("shards1.ndjson", &["estimate", "--k", "8", "--shards", "1"]),
        ("shards3.ndjson", &["estimate", "--k", "8", "--shards", "3"]),
        ("trivial.ndjson", &["estimate", "--k", "40"]),
        ("twopass.ndjson", &["twopass", "--k", "8"]),
    ];
    for (trace, head) in runs {
        let mut args = head.to_vec();
        args.extend([
            "--input",
            input,
            "--alpha",
            "4",
            "--seed",
            "5",
            "--metrics",
            "--trace",
            trace,
        ]);
        let mut in_table = false;
        t.run_kept(&args, |line| {
            in_table |= line.starts_with("subroutine ");
            in_table
        });
        t.run(&["prof", trace]);
        t.run_kept(&["trace-summarize", trace], |line| {
            line.starts_with("summary ") || line.starts_with("subroutine space (words)")
        });
    }
    t.check("observability.txt");
}

/// One answer-quality case: a generator family at the CLI `gen` shape.
/// The OPT bound is exact where the instance is structured enough for
/// branch and bound, the planted optimum where one is planted, and
/// otherwise greedy's `(1 − 1/e)` bound, `greedy / (1 − 1/e)` ≥ OPT.
fn answer_case(kind: &str, seed: u64) -> (maxkcov::stream::SetSystem, &'static str, f64, usize) {
    use maxkcov::baselines::{greedy_max_cover, max_cover_exact};
    use maxkcov::stream::gen;
    let (n, m, k) = (2_000usize, 400usize, 6usize);
    let greedy_bound = |system: &maxkcov::stream::SetSystem| {
        let greedy = greedy_max_cover(system, k).coverage;
        (greedy as f64 / (1.0 - 1.0 / std::f64::consts::E), greedy)
    };
    let (system, source, (bound, opt)) = match kind {
        "planted" => {
            let inst = gen::planted_cover(n, m, k, 0.8, (n / k) / 4, seed);
            let opt = inst.planted_coverage;
            (inst.system, "planted", (opt as f64, opt))
        }
        "uniform" => {
            let system = gen::uniform_fixed_size(n, m, n / 50, seed);
            let g = greedy_bound(&system);
            (system, "greedy", g)
        }
        "zipf" => {
            let system = gen::zipf_set_sizes(n, m, n / 5, 1.05, seed);
            let g = greedy_bound(&system);
            (system, "greedy", g)
        }
        "few-large" => {
            let system = gen::few_large(n, m, 3, n / 5, seed);
            let opt = max_cover_exact(&system, k).1;
            (system, "exact", (opt as f64, opt))
        }
        "many-small" => {
            let system = gen::many_small(n, m, k, 0.6, seed);
            let opt = max_cover_exact(&system, k).1;
            (system, "exact", (opt as f64, opt))
        }
        "common" => {
            let system = gen::common_heavy(n, m, seed);
            let g = greedy_bound(&system);
            (system, "greedy", g)
        }
        other => unreachable!("unknown family {other}"),
    };
    (system, source, bound, opt)
}

/// The estimator's answers on 180 runs: six generator families × α ∈
/// {2, 4, 8, 16, 32} × seeds 1–6. Each line pins the estimate, the
/// winning subroutine and guess `z`, and est/OPT; every estimate must
/// stay at or below its OPT bound. A change that moves answers
/// re-records this file, and its diff is the before/after table.
#[test]
fn answers_matches_golden() {
    use maxkcov::core::{EstimatorConfig, MaxCoverEstimator};
    use maxkcov::stream::{edge_stream, ArrivalOrder};
    let k = 6;
    let mut t = Transcript::new("answers");
    for kind in [
        "planted",
        "uniform",
        "zipf",
        "few-large",
        "many-small",
        "common",
    ] {
        for seed in 1..=6u64 {
            let (system, source, bound, opt) = answer_case(kind, seed);
            let (n, m) = (system.num_elements(), system.num_sets());
            let edges = edge_stream(&system, ArrivalOrder::Shuffled(seed));
            for alpha in [2.0f64, 4.0, 8.0, 16.0, 32.0] {
                let mut est =
                    MaxCoverEstimator::new(n, m, k, alpha, &EstimatorConfig::practical(seed));
                for chunk in edges.chunks(1024) {
                    est.observe_batch(chunk);
                }
                let out = est.finalize();
                assert!(
                    out.estimate <= bound,
                    "{kind} seed {seed} alpha {alpha}: estimate {} above the {source} bound {bound}",
                    out.estimate
                );
                let winner = out.winner.map_or("none".to_string(), |w| format!("{w:?}"));
                writeln!(
                    t.text,
                    "{kind} seed={seed} alpha={alpha} est={:.1} winner={winner} z={} opt={opt} ({source}) est/opt={:.4}",
                    out.estimate,
                    out.winning_z,
                    out.estimate / opt as f64
                )
                .unwrap();
            }
        }
    }
    t.check("answers.txt");
}

/// The two-pass refinement's answers are sound on the same 90-run
/// grid as `answers_matches_golden` (six families × α ∈ {2, 4, 8, 16,
/// 32} × seeds 1–3): the estimate and the real coverage of the
/// reported sets stay at or below the OPT bound, and at most `k` sets
/// are reported. Not pinned: pass 2's answers are free to move.
#[test]
fn two_pass_answers_stay_below_the_opt_bound() {
    use maxkcov::core::{run_two_pass, EstimatorConfig};
    use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder};
    let k = 6;
    for kind in [
        "planted",
        "uniform",
        "zipf",
        "few-large",
        "many-small",
        "common",
    ] {
        for seed in 1..=3u64 {
            let (system, source, bound, _) = answer_case(kind, seed);
            let (n, m) = (system.num_elements(), system.num_sets());
            let edges = edge_stream(&system, ArrivalOrder::Shuffled(seed));
            for alpha in [2.0f64, 4.0, 8.0, 16.0, 32.0] {
                let config = EstimatorConfig::practical(seed);
                let cover = run_two_pass(n, m, k, alpha, &config, &edges, 1024);
                let at = format!("{kind} seed {seed} alpha {alpha}");
                assert!(
                    cover.sets.len() <= k,
                    "{at}: {} sets reported",
                    cover.sets.len()
                );
                assert!(
                    cover.estimate <= bound,
                    "{at}: estimate {} above the {source} bound {bound}",
                    cover.estimate
                );
                let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
                let real = coverage_of(&system, &chosen) as f64;
                assert!(
                    real <= bound,
                    "{at}: real coverage {real} above the {source} bound {bound}"
                );
            }
        }
    }
}

/// With k·α ≥ m pass 1 answers from the trivial branch, but pass 2
/// still runs its oracle lanes, so a subroutine reports the cover. The
/// instance is the CLI's `gen --kind planted --n 800 --m 120 --k 8
/// --seed 5` at `--k 40 --alpha 4` (k·α = 160 ≥ 120).
#[test]
fn two_pass_runs_its_oracles_in_the_trivial_regime() {
    use maxkcov::baselines::greedy_max_cover;
    use maxkcov::core::{run_two_pass, EstimatorConfig};
    use maxkcov::stream::{coverage_of, edge_stream, gen, ArrivalOrder};
    let (n, m, k, alpha) = (800usize, 120usize, 40usize, 4.0f64);
    let system = gen::planted_cover(n, m, 8, 0.8, (n / 8) / 4, 5).system;
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(0));
    let cover = run_two_pass(n, m, k, alpha, &EstimatorConfig::practical(5), &edges, 1024);
    assert!(
        cover.winner.is_some(),
        "pass 2 must report a subroutine winner"
    );
    assert!(
        !cover.sets.is_empty() && cover.sets.len() <= k,
        "{} sets",
        cover.sets.len()
    );
    let bound = greedy_max_cover(&system, k).coverage as f64 / (1.0 - 1.0 / std::f64::consts::E);
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    assert!(
        cover.estimate <= bound,
        "estimate {} above {bound}",
        cover.estimate
    );
    assert!(coverage_of(&system, &chosen) as f64 <= bound);
}
