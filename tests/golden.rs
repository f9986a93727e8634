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
        writeln!(self.text, "# {file}: {} bytes, fnv1a64 {digest:016x}", bytes.len()).unwrap();
    }

    /// Compare against `tests/golden/<name>`, printing the regenerated
    /// transcript on a mismatch.
    fn check(self, name: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
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
            "worker", "--input", input, "--k", "6", "--alpha", "4", "--seed", "11", "--shards",
            "3", "--shard", &i.to_string(), "--batch", "128", "--out", replica,
        ]);
        t.digest(replica);
    }
    let mut merge_args = vec!["merge-from"];
    merge_args.extend(replicas.iter().map(String::as_str));
    let merged = t.run(&merge_args);
    let coord = t.run(&[
        "estimate", "--input", input, "--k", "6", "--alpha", "4", "--seed", "11", "--batch",
        "128", "--shards", "3",
    ]);
    assert_eq!(merged, coord, "merged replicas disagree with the single-process sharded run");
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
            "--input", input, "--alpha", "4", "--seed", "5", "--metrics", "--trace", trace,
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
