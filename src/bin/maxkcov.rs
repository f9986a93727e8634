//! `maxkcov` — command-line front end.
//!
//! ```text
//! maxkcov gen      --kind uniform|zipf|planted|common|few-large|many-small \
//!                  --n N --m M [--k K] [--seed S] --out FILE
//! maxkcov stats    --input FILE
//! maxkcov greedy   --input FILE --k K
//! maxkcov exact    --input FILE --k K
//! maxkcov estimate --input FILE --k K --alpha A [--seed S] [--order ORDER] \
//!                  [--threads T] [--batch B] [--shards S]
//! maxkcov report   --input FILE --k K --alpha A [--seed S] [--order ORDER] \
//!                  [--threads T] [--batch B] [--shards S]
//! ```
//!
//! `ORDER` is one of `set`, `element`, `roundrobin`, `shuffle:SEED`
//! (default `shuffle:0`). Instances use the plain-text format of
//! `kcov_stream::io`. Every stream command ingests through the batched
//! engine in chunks of `--batch B` edges (default 1024), and
//! `--threads T` shards the guess × repetition lanes across `T` OS
//! threads; neither changes a result bit. `--shards S` partitions the
//! *stream* across `S` full estimator replicas (scoped threads) merged
//! at finalize — estimates are identical to one shard's up to the merge
//! contract of DESIGN.md §8.
//!
//! Observability: `--metrics` appends a human summary (counters,
//! gauges, per-subroutine estimates) after the normal output, and
//! `--trace FILE` writes the full structured NDJSON event log. With
//! either enabled, `--heartbeat N` additionally captures a per-lane
//! fill snapshot every `N` (shard-local) edges — cadenced by edge
//! count only, never wall-clock, so estimates stay bit-identical
//! (DESIGN.md §10). All of these only *add* output — estimates and the
//! default output lines are byte-identical with or without them.
//! Unknown flags are rejected per subcommand rather than silently
//! ignored; every flag is registered exactly once in [`FLAG_SPECS`].
//!
//! `maxkcov trace-summarize FILE` renders an NDJSON trace written by
//! `--trace`: aggregate phase timings, heartbeat fill (and cumulative
//! lane-ns) trajectories, histogram percentiles, and the time-ledger
//! leaf report, and re-checks the trace's accounting invariants (phase
//! event nanos vs `time_ns.*` counters, the space ledger's root vs the
//! summary total and a ledger subtree per subroutine, heartbeat
//! eviction monotonicity vs the final sketch totals, both ledgers'
//! parent sums, and ns conservation against the batch wall clock),
//! failing on violation. Every check lives in `kcov_obs::audit`,
//! shared with finalize and `prof`.
//!
//! `maxkcov prof` renders the space-attribution ledger (DESIGN.md §13)
//! as a sorted words / % / updates / updates-per-word report — either
//! from a `--trace` file's `"ledger"` events (`maxkcov prof TRACE`,
//! re-checking the parent-sum, summary-total, and per-subroutine
//! subtree invariants like `trace-summarize`) or from a live run (`maxkcov
//! prof --input FILE --k K --alpha A …`, checking the exact-sum
//! invariant against the estimator's `space_words`). Violations exit
//! non-zero. `maxkcov prof --time` renders the *time*-attribution
//! ledger instead (DESIGN.md §15) — sorted ns / % per leaf, audited
//! for parent sums and ns conservation — and `--folded` switches the
//! output to Brendan Gregg folded-stacks text (`frame;frame;... ns`,
//! one line per leaf) ready for `flamegraph.pl` or
//! `inferno-flamegraph`.
//!
//! Distributed ingestion (DESIGN.md §11): `maxkcov worker` ingests one
//! contiguous shard of the stream (`--shards N --shard I`) and writes
//! its full serialized estimator replica (versioned wire format) to
//! `--out FILE`; `maxkcov merge-from FILE...` decodes the replicas,
//! folds them through the commutative merge, and finalizes — emitting
//! the same estimate, metrics, and trace events as a single-process
//! `--shards N` run (byte-identical modulo wall-clock `ns` fields).
//! Workers checkpoint with `--snapshot FILE --snapshot-every E` and
//! recover with `--resume FILE` (resuming at the recorded edge offset,
//! no replay of ingested edges); `--stop-after E` simulates a crash.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::time::Instant;

use kcov_baselines::{greedy_max_cover, max_cover_exact};
use kcov_core::{crosses_beat, EstimatorConfig, MaxCoverEstimator, MaxCoverReporter, ParamMode};
use kcov_obs::audit::{self, Trace};
use kcov_obs::{render_folded, render_report, Recorder, Row, Time, Value};
use kcov_sketch::{SpaceUsage, WireEncode};
use kcov_stream::gen;
use kcov_stream::{
    coverage_of, edge_stream, read_set_system, write_set_system, ArrivalOrder, CoverageStats,
    SetSystem,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  maxkcov gen      --kind KIND --n N --m M [--k K] [--seed S] --out FILE
  maxkcov stats    --input FILE
  maxkcov greedy   --input FILE --k K
  maxkcov exact    --input FILE --k K
  maxkcov estimate --input FILE --k K --alpha A [--seed S] [--order ORDER] [--mode paper|practical]
                   [--threads T] [--batch B] [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov report   --input FILE --k K --alpha A [--seed S] [--order ORDER] [--mode paper|practical]
                   [--threads T] [--batch B] [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov twopass  --input FILE --k K --alpha A [--seed S] [--order ORDER] [--threads T] [--batch B]
                   [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov setcover --input FILE [--fraction F]
  maxkcov budget   --input FILE --k K --words W [--seed S] [--order ORDER] [--threads T] [--batch B]
                   [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov worker   --input FILE --k K --alpha A --shards N --shard I --out FILE [--seed S]
                   [--order ORDER] [--mode paper|practical] [--threads T] [--batch B]
                   [--snapshot FILE --snapshot-every E] [--resume FILE] [--stop-after E]
                   [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov merge-from FILE... [--metrics] [--trace FILE]
  maxkcov trace-summarize FILE
  maxkcov prof     TRACE [--top N] [--time [--folded]]
  maxkcov prof     --input FILE --k K --alpha A [--seed S] [--order ORDER] [--mode paper|practical]
                   [--threads T] [--batch B] [--shards S] [--top N] [--time [--folded]]
KIND: uniform | zipf | planted | common | few-large | many-small
ORDER: set | element | roundrobin | shuffle:SEED (default shuffle:0)
--batch B ingests B edges per observe_batch call (default 1024; no per-edge mode);
--threads T shards lanes across T threads. Results are bit-identical either way.
--shards S partitions the stream across S estimator replicas merged at
finalize; estimates are identical to the serial pass (DESIGN.md sec. 8).
--metrics prints a counters/gauges/subroutine summary after the normal output;
--trace FILE writes the structured NDJSON event log; --heartbeat N (with either)
snapshots per-lane fills every N edges into the event log. None changes estimates.
trace-summarize renders phase timings, heartbeat trajectories, and histogram
percentiles from a --trace file and re-checks its accounting invariants.
worker ingests shard I of N (contiguous split of the arrival order) and writes
its serialized replica to --out; merge-from folds replica files through the
commutative merge and finalizes, matching a single-process --shards N run.
--snapshot FILE --snapshot-every E checkpoints the worker every E shard edges;
--resume FILE restarts from a checkpoint (no replay); --stop-after E simulates
a crash after E edges (exits non-zero, periodic snapshots left for recovery).
prof renders the space-attribution ledger (words / % / updates / upd-per-word)
from a --trace file's ledger events or from a live run, re-checking the ledger
invariants (parent sums, summary total, per-subroutine subtrees); --top N limits
the report to the N hottest leaves (default 20, 0 = all). prof --time renders
the time-attribution ledger instead (ns / % per leaf, DESIGN.md sec. 15),
re-checking its parent-sum and ns-conservation invariants; --folded emits
Brendan Gregg folded-stacks text (one 'path ns' line per leaf, frames joined
by ';') ready for flamegraph.pl / inferno-flamegraph.";

/// Whether a flag takes a value or is a bare boolean.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    Value,
    Bool,
}

/// One CLI flag: registered in [`FLAG_SPECS`] exactly once, with the
/// subcommands that accept it. Adding a flag means adding one row here
/// (plus the USAGE string) — nothing else to keep in sync.
struct FlagSpec {
    name: &'static str,
    kind: FlagKind,
    commands: &'static [&'static str],
}

/// The streaming subcommands: everything that ingests an edge stream
/// through an estimator and therefore shares the ingestion/observability
/// flag set.
const STREAM_CMDS: &[&str] = &["estimate", "report", "twopass", "budget", "worker"];

/// Subcommands that can *run* an ingestion pass: the streaming
/// subcommands plus `prof`'s live mode (which profiles the ledger
/// instead of reporting estimates, but configures ingestion the same
/// way).
const RUN_CMDS: &[&str] = &["estimate", "report", "twopass", "budget", "worker", "prof"];

/// Subcommands with an observability surface. `merge-from` never
/// ingests (no `--heartbeat`) but emits the merged trace and metrics.
const OBS_CMDS: &[&str] = &[
    "estimate",
    "report",
    "twopass",
    "budget",
    "worker",
    "merge-from",
];

const FLAG_SPECS: &[FlagSpec] = &[
    FlagSpec {
        name: "kind",
        kind: FlagKind::Value,
        commands: &["gen"],
    },
    FlagSpec {
        name: "n",
        kind: FlagKind::Value,
        commands: &["gen"],
    },
    FlagSpec {
        name: "m",
        kind: FlagKind::Value,
        commands: &["gen"],
    },
    FlagSpec {
        name: "out",
        kind: FlagKind::Value,
        commands: &["gen", "worker"],
    },
    FlagSpec {
        name: "k",
        kind: FlagKind::Value,
        commands: &[
            "gen", "greedy", "exact", "estimate", "report", "twopass", "budget", "worker", "prof",
        ],
    },
    FlagSpec {
        name: "seed",
        kind: FlagKind::Value,
        commands: &[
            "gen", "estimate", "report", "twopass", "budget", "worker", "prof",
        ],
    },
    FlagSpec {
        name: "input",
        kind: FlagKind::Value,
        commands: &[
            "stats", "greedy", "exact", "setcover", "estimate", "report", "twopass", "budget",
            "worker", "prof",
        ],
    },
    FlagSpec {
        name: "alpha",
        kind: FlagKind::Value,
        commands: &["estimate", "report", "twopass", "worker", "prof"],
    },
    FlagSpec {
        name: "words",
        kind: FlagKind::Value,
        commands: &["budget"],
    },
    FlagSpec {
        name: "fraction",
        kind: FlagKind::Value,
        commands: &["setcover"],
    },
    FlagSpec {
        name: "top",
        kind: FlagKind::Value,
        commands: &["prof"],
    },
    FlagSpec {
        name: "order",
        kind: FlagKind::Value,
        commands: RUN_CMDS,
    },
    FlagSpec {
        name: "mode",
        kind: FlagKind::Value,
        commands: RUN_CMDS,
    },
    FlagSpec {
        name: "threads",
        kind: FlagKind::Value,
        commands: RUN_CMDS,
    },
    FlagSpec {
        name: "batch",
        kind: FlagKind::Value,
        commands: RUN_CMDS,
    },
    FlagSpec {
        name: "shards",
        kind: FlagKind::Value,
        commands: RUN_CMDS,
    },
    FlagSpec {
        name: "shard",
        kind: FlagKind::Value,
        commands: &["worker"],
    },
    FlagSpec {
        name: "snapshot",
        kind: FlagKind::Value,
        commands: &["worker"],
    },
    FlagSpec {
        name: "snapshot-every",
        kind: FlagKind::Value,
        commands: &["worker"],
    },
    FlagSpec {
        name: "resume",
        kind: FlagKind::Value,
        commands: &["worker"],
    },
    FlagSpec {
        name: "stop-after",
        kind: FlagKind::Value,
        commands: &["worker"],
    },
    FlagSpec {
        name: "trace",
        kind: FlagKind::Value,
        commands: OBS_CMDS,
    },
    FlagSpec {
        name: "heartbeat",
        kind: FlagKind::Value,
        commands: STREAM_CMDS,
    },
    FlagSpec {
        name: "metrics",
        kind: FlagKind::Bool,
        commands: OBS_CMDS,
    },
    FlagSpec {
        name: "time",
        kind: FlagKind::Bool,
        commands: &["prof"],
    },
    FlagSpec {
        name: "folded",
        kind: FlagKind::Bool,
        commands: &["prof"],
    },
];

/// Look up a flag for a subcommand in [`FLAG_SPECS`].
fn flag_spec(cmd: &str, key: &str) -> Option<&'static FlagSpec> {
    FLAG_SPECS
        .iter()
        .find(|s| s.name == key && s.commands.contains(&cmd))
}

/// Parse `--key value` (and bare boolean `--key`) flags after the
/// subcommand, rejecting flags the subcommand does not accept.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{a}'"))?;
        if flags.contains_key(key) {
            return Err(format!("duplicate flag --{key}"));
        }
        let spec = flag_spec(cmd, key)
            .ok_or_else(|| format!("unknown flag --{key} for subcommand '{cmd}'"))?;
        match spec.kind {
            FlagKind::Bool => {
                flags.insert(key.to_string(), "true".to_string());
            }
            FlagKind::Value => {
                let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), val.clone());
            }
        }
    }
    Ok(flags)
}

/// `--trace FILE` / `--metrics` / `--heartbeat N` — the CLI
/// observability surface.
struct ObsOpts {
    trace: Option<String>,
    metrics: bool,
    heartbeat: Option<u64>,
}

impl ObsOpts {
    fn parse(flags: &HashMap<String, String>) -> Result<ObsOpts, String> {
        let opts = ObsOpts {
            trace: flags.get("trace").cloned(),
            metrics: flags.contains_key("metrics"),
            heartbeat: match flags.get("heartbeat") {
                None => None,
                Some(s) => {
                    let every: u64 = parse_num(s, "heartbeat")?;
                    if every == 0 {
                        return Err("--heartbeat must be >= 1".into());
                    }
                    Some(every)
                }
            },
        };
        if opts.heartbeat.is_some() && opts.trace.is_none() && !opts.metrics {
            return Err(
                "--heartbeat requires --trace or --metrics (heartbeats go to the event log)".into(),
            );
        }
        Ok(opts)
    }

    /// A live recorder only when some output was requested, so the
    /// default path keeps the zero-cost disabled handle.
    fn recorder(&self) -> Recorder {
        if self.trace.is_some() || self.metrics {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Wire the recorder and heartbeat cadence into the estimator
    /// config, returning the recorder handle for spans/emission.
    fn configure(&self, config: &mut EstimatorConfig) -> Recorder {
        let rec = self.recorder();
        config.recorder = rec.clone();
        config.heartbeat_every = self.heartbeat;
        rec
    }

    /// Append metrics/trace output *after* the normal result lines
    /// (default stdout stays byte-identical when neither is requested).
    fn emit(&self, rec: &Recorder) -> Result<(), String> {
        if self.metrics {
            print!("{}", rec.summary_table());
            let subs = rec.events_of("subroutine");
            if !subs.is_empty() {
                // A subroutine's words are its space-ledger subtree's.
                let ledger = rec.events_of("ledger");
                let words_at = |path: &str| {
                    ledger
                        .iter()
                        .find(|ev| ev.str_field("path") == Some(path))
                        .and_then(|ev| ev.u64_field("words"))
                };
                println!("subroutine                                estimate      space");
                for ev in &subs {
                    let lane = ev.u64_field("lane").unwrap_or(0);
                    let name = ev.str_field("name").unwrap_or("?");
                    let est = ev.f64_field("estimate").unwrap_or(f64::NAN);
                    let words = words_at(&audit::subroutine_path(lane, name)).unwrap_or(0);
                    let est = if est.is_finite() {
                        format!("{est:.1}")
                    } else {
                        "-".to_string()
                    };
                    println!("  lane{lane:<3} {name:<30}  {est:>10}  {words:>9}");
                }
            }
        }
        if let Some(path) = &self.trace {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            rec.write_ndjson(BufWriter::new(file))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        Ok(())
    }
}

fn req<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: '{s}'"))
}

/// `--k` and `--alpha`, the estimator's shape: `k >= 1` and a finite
/// `alpha >= 1`. Every estimator-building subcommand parses them here,
/// so a bad value is an error instead of a constructor assertion.
fn parse_shape(flags: &HashMap<String, String>) -> Result<(usize, f64), String> {
    let k: usize = parse_num(req(flags, "k")?, "k")?;
    if k == 0 {
        return Err("--k must be >= 1".into());
    }
    let alpha: f64 = parse_num(req(flags, "alpha")?, "alpha")?;
    if !(alpha.is_finite() && alpha >= 1.0) {
        return Err(format!(
            "--alpha must be a finite number >= 1, got '{alpha}'"
        ));
    }
    Ok((k, alpha))
}

fn load(flags: &HashMap<String, String>) -> Result<SetSystem, String> {
    let path = req(flags, "input")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_set_system(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

fn parse_order(flags: &HashMap<String, String>) -> Result<ArrivalOrder, String> {
    match flags.get("order").map(String::as_str) {
        None => Ok(ArrivalOrder::Shuffled(0)),
        Some("set") => Ok(ArrivalOrder::SetContiguous),
        Some("element") => Ok(ArrivalOrder::ElementContiguous),
        Some("roundrobin") => Ok(ArrivalOrder::RoundRobin),
        Some(s) if s.starts_with("shuffle:") => {
            Ok(ArrivalOrder::Shuffled(parse_num(&s[8..], "shuffle seed")?))
        }
        Some(s) => Err(format!("unknown order '{s}'")),
    }
}

fn parse_config(flags: &HashMap<String, String>) -> Result<EstimatorConfig, String> {
    let seed = match flags.get("seed") {
        Some(s) => parse_num(s, "seed")?,
        None => 0,
    };
    let mut config = EstimatorConfig::practical(seed);
    match flags.get("mode").map(String::as_str) {
        None | Some("practical") => {}
        Some("paper") => config.mode = ParamMode::Paper,
        Some(s) => return Err(format!("unknown mode '{s}'")),
    }
    if let Some(t) = flags.get("threads") {
        config.threads = parse_num(t, "threads")?;
    }
    if let Some(s) = flags.get("shards") {
        let shards: usize = parse_num(s, "shards")?;
        if shards == 0 {
            return Err("--shards must be >= 1".into());
        }
        config.shards = shards;
    }
    Ok(config)
}

/// `--batch B` chunk size (default 1024).
fn parse_batch(flags: &HashMap<String, String>) -> Result<usize, String> {
    let Some(s) = flags.get("batch") else {
        return Ok(1024);
    };
    let b: usize = parse_num(s, "batch")?;
    if b == 0 {
        return Err("--batch must be >= 1".into());
    }
    Ok(b)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no subcommand".into());
    };
    if cmd == "trace-summarize" {
        // Takes a positional FILE argument instead of --flags.
        let [path] = rest else {
            return Err("trace-summarize takes exactly one argument: the trace file".into());
        };
        return cmd_trace_summarize(path);
    }
    if cmd == "merge-from" {
        // Takes positional replica FILEs plus --flags.
        let (files, flags) = split_positional(cmd, rest)?;
        return cmd_merge_from(&files, &flags);
    }
    if cmd == "prof" {
        // Takes either a positional TRACE file or --input for a live run.
        let (files, flags) = split_positional(cmd, rest)?;
        return cmd_prof(&files, &flags);
    }
    if !matches!(
        cmd.as_str(),
        "gen"
            | "stats"
            | "greedy"
            | "exact"
            | "estimate"
            | "report"
            | "twopass"
            | "setcover"
            | "budget"
            | "worker"
    ) {
        return Err(format!("unknown subcommand '{cmd}'"));
    }
    let flags = parse_flags(cmd, rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "stats" => cmd_stats(&flags),
        "greedy" => cmd_greedy(&flags),
        "exact" => cmd_exact(&flags),
        "estimate" => cmd_estimate(&flags),
        "report" => cmd_report(&flags),
        "twopass" => cmd_twopass(&flags),
        "setcover" => cmd_setcover(&flags),
        "budget" => cmd_budget(&flags),
        "worker" => cmd_worker(&flags),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Split `args` into positional operands and `--flag` arguments, then
/// parse the flags for `cmd`. Value-taking flags consume the following
/// argument, so positionals and flags can be freely interleaved.
fn split_positional(
    cmd: &str,
    args: &[String],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flag_args = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            flag_args.push(a.clone());
            if let Some(spec) = flag_spec(cmd, key) {
                if spec.kind == FlagKind::Value {
                    if let Some(v) = it.next() {
                        flag_args.push(v.clone());
                    }
                }
            }
        } else {
            positional.push(a.clone());
        }
    }
    let flags = parse_flags(cmd, &flag_args)?;
    Ok((positional, flags))
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = req(flags, "kind")?;
    let n: usize = parse_num(req(flags, "n")?, "n")?;
    let m: usize = parse_num(req(flags, "m")?, "m")?;
    if n == 0 || m == 0 {
        // The instance reader rejects an empty universe or collection.
        return Err("--n and --m must be >= 1".into());
    }
    let seed: u64 = match flags.get("seed") {
        Some(s) => parse_num(s, "seed")?,
        None => 0,
    };
    let k: usize = match flags.get("k") {
        Some(s) => parse_num(s, "k")?,
        None => (m / 20).max(1),
    };
    if k == 0 {
        return Err("--k must be >= 1".into());
    }
    // Each kind's shape preconditions are checked here, so a bad shape
    // is an error rather than a generator assertion.
    let system = match kind {
        "uniform" => gen::uniform_fixed_size(n, m, (n / 50).max(2).min(n), seed),
        "zipf" => gen::zipf_set_sizes(n, m, (n / 5).max(2).min(n), 1.05, seed),
        "planted" => {
            // With k <= n every planted set is non-empty and the decoy
            // size below stays under the planted set size.
            if k > m.min(n) {
                return Err("--kind planted needs --k <= --m and --k <= --n".into());
            }
            gen::planted_cover(n, m, k, 0.8, ((n / k) / 4).max(1), seed).system
        }
        "common" => {
            if n < 8 || m < 4 {
                return Err("--kind common needs --n >= 8 and --m >= 4".into());
            }
            gen::common_heavy(n, m, seed)
        }
        "few-large" => {
            let (num_large, large_size) = (3.min(m - 1).max(1), (n / 5).max(1));
            if num_large >= m || num_large * large_size > n * 3 / 4 {
                return Err(format!(
                    "--kind few-large needs --m >= 2 and its {num_large} large set(s) of \
                     {large_size} element(s) to fit in 3/4 of --n"
                ));
            }
            gen::few_large(n, m, num_large, large_size, seed)
        }
        "many-small" => gen::many_small(n, m, k.min(m), 0.6, seed),
        other => return Err(format!("unknown kind '{other}'")),
    };
    let path = req(flags, "out")?;
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    write_set_system(&system, BufWriter::new(file)).map_err(|e| format!("write: {e}"))?;
    println!(
        "wrote {path}: n={} m={} edges={}",
        system.num_elements(),
        system.num_sets(),
        system.total_edges()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let system = load(flags)?;
    let st = CoverageStats::of(&system);
    println!("n              = {}", st.n);
    println!("m              = {}", st.m);
    println!("edges          = {}", st.total_edges);
    println!("max set size   = {}", st.max_set_size);
    println!("max frequency  = {}", st.max_frequency);
    println!("covered elems  = {}", st.covered_elements);
    Ok(())
}

fn cmd_greedy(flags: &HashMap<String, String>) -> Result<(), String> {
    let system = load(flags)?;
    let k: usize = parse_num(req(flags, "k")?, "k")?;
    let r = greedy_max_cover(&system, k);
    println!("greedy coverage = {}", r.coverage);
    println!("sets = {:?}", r.chosen);
    Ok(())
}

fn cmd_exact(flags: &HashMap<String, String>) -> Result<(), String> {
    let system = load(flags)?;
    let k: usize = parse_num(req(flags, "k")?, "k")?;
    if system.num_sets() > 64 {
        eprintln!(
            "warning: exact search on m = {} sets may take very long",
            system.num_sets()
        );
    }
    let (chosen, cov) = max_cover_exact(&system, k);
    println!("exact optimum = {cov}");
    println!("sets = {chosen:?}");
    Ok(())
}

fn cmd_estimate(flags: &HashMap<String, String>) -> Result<(), String> {
    let (k, alpha) = parse_shape(flags)?;
    let system = load(flags)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let batch = parse_batch(flags)?;
    let edges = edge_stream(&system, order);
    let mut est =
        MaxCoverEstimator::new(system.num_elements(), system.num_sets(), k, alpha, &config);
    let span = rec.span("ingest");
    est.ingest_sharded(&edges, config.shards, batch);
    span.finish();
    let out = est.finalize();
    println!("estimate      = {:.1}", out.estimate);
    println!("winning z     = {}", out.winning_z);
    println!("winner        = {:?}", out.winner);
    println!("trivial       = {}", out.trivial);
    println!("space (words) = {}", est.space_words());
    println!("stream edges  = {}", edges.len());
    obs.emit(&rec)
}

/// Serialize a replica to `path` atomically (tmp + rename), so a
/// crash mid-write never leaves a truncated snapshot behind. Returns
/// the encoded size in bytes.
fn write_replica(path: &str, est: &MaxCoverEstimator) -> Result<usize, String> {
    let bytes = est.to_bytes();
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {tmp} -> {path}: {e}"))?;
    Ok(bytes.len())
}

fn cmd_worker(flags: &HashMap<String, String>) -> Result<(), String> {
    let (k, alpha) = parse_shape(flags)?;
    let system = load(flags)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let shards = config.shards;
    let shard: usize = parse_num(req(flags, "shard")?, "shard")?;
    if shard >= shards {
        return Err(format!(
            "--shard {shard} out of range for --shards {shards}"
        ));
    }
    let out_path = req(flags, "out")?;
    let batch = parse_batch(flags)?;
    let snapshot = flags.get("snapshot").cloned();
    let snapshot_every: u64 = match flags.get("snapshot-every") {
        Some(s) => parse_num(s, "snapshot-every")?,
        None => 0,
    };
    if snapshot_every > 0 && snapshot.is_none() {
        return Err("--snapshot-every needs --snapshot FILE".into());
    }
    let stop_after: Option<u64> = match flags.get("stop-after") {
        Some(s) => Some(parse_num(s, "stop-after")?),
        None => None,
    };

    // This worker owns the `shard`-th of `shards` contiguous chunks of
    // the arrival order — the same split `ingest_sharded` uses, so the
    // replica it writes is the state an in-process shard would hold.
    let edges = edge_stream(&system, order);
    let chunk_len = edges.len().div_ceil(shards);
    let lo = (shard * chunk_len).min(edges.len());
    let hi = (lo + chunk_len).min(edges.len());
    let chunk = &edges[lo..hi];

    let (n, m) = (system.num_elements(), system.num_sets());
    let mut est = match flags.get("resume") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
            let mut est =
                MaxCoverEstimator::from_bytes(&bytes).map_err(|e| format!("decode {path}: {e}"))?;
            if est.shape() != (n, m, k, alpha) {
                return Err(format!(
                    "snapshot {path} was built for a different instance shape"
                ));
            }
            if est.shard() != shard as u64 {
                return Err(format!(
                    "snapshot {path} belongs to shard {}, not {shard}",
                    est.shard()
                ));
            }
            if est.edges_seen() > chunk.len() as u64 {
                return Err(format!(
                    "snapshot {path} records {} edges but shard {shard} only holds {}",
                    est.edges_seen(),
                    chunk.len()
                ));
            }
            est.attach_recorder(&rec);
            est
        }
        None => {
            let mut est = MaxCoverEstimator::new(n, m, k, alpha, &config);
            est.set_shard(shard as u64);
            est
        }
    };

    // Resume at the recorded offset: snapshots are written at batch
    // boundaries, so the remaining sub-chunk boundaries line up with an
    // uninterrupted run and the final replica is bit-identical.
    let skip = est.edges_seen() as usize;
    rec.provenance(
        "worker-start",
        shard as u64,
        skip as u64,
        req(flags, "input")?,
    );
    let span = rec.span("ingest");
    let mut stopped = false;
    for sub in chunk[skip..].chunks(batch) {
        est.observe_batch(sub);
        let done = est.edges_seen();
        // The simulated crash pre-empts this batch's snapshot, so
        // recovery genuinely replays from the previous checkpoint.
        if stop_after.is_some_and(|stop| done >= stop) {
            stopped = true;
            break;
        }
        // The heartbeat cadence rule: a pure function of the chunking,
        // never of the clock.
        if crosses_beat(done - sub.len() as u64, sub.len() as u64, snapshot_every) {
            let path = snapshot
                .as_deref()
                .expect("--snapshot-every implies --snapshot");
            write_replica(path, &est)?;
            rec.provenance("snapshot", shard as u64, done, path);
        }
    }
    span.finish();
    if stopped {
        rec.provenance("crash", shard as u64, est.edges_seen(), "stop-after");
        obs.emit(&rec)?;
        eprintln!(
            "worker shard {shard}: stopped after {} edges (simulated crash; periodic snapshots kept)",
            est.edges_seen()
        );
        std::process::exit(3);
    }
    rec.provenance("worker-done", shard as u64, est.edges_seen(), out_path);
    let bytes = write_replica(out_path, &est)?;
    println!("worker shard   = {shard}/{shards}");
    println!("chunk edges    = {} (resumed at {skip})", chunk.len());
    println!("shard edges    = {}", est.edges_seen());
    println!("replica        = {out_path} ({bytes} bytes)");
    obs.emit(&rec)
}

fn cmd_merge_from(files: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    if files.is_empty() {
        return Err("merge-from needs at least one replica file".into());
    }
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.recorder();
    let mut replicas = Vec::with_capacity(files.len());
    for path in files {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        let start = rec.is_enabled().then(Instant::now);
        let est =
            MaxCoverEstimator::from_bytes(&bytes).map_err(|e| format!("decode {path}: {e}"))?;
        let ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        replicas.push((est, ns));
    }
    let (n0, m0, k0, alpha0) = replicas[0].0.shape();
    for (i, (est, _)) in replicas.iter().enumerate() {
        let (n, m, k, alpha) = est.shape();
        if (n, m, k, alpha.to_bits()) != (n0, m0, k0, alpha0.to_bits())
            || est.num_lanes() != replicas[0].0.num_lanes()
        {
            return Err(format!(
                "replica {} was built for a different instance or configuration than {}",
                files[i], files[0]
            ));
        }
    }
    // Deterministic fold order: ascending shard id, exactly the order
    // the in-process `--shards N` fold uses (shard 0 is the base). The
    // output is therefore independent of how FILEs were listed.
    replicas.sort_by_key(|(est, _)| est.shard());
    for w in replicas.windows(2) {
        if w[0].0.shard() == w[1].0.shard() {
            return Err(format!("two replicas claim shard {}", w[0].0.shard()));
        }
    }

    // Event mimicry (DESIGN.md §11): a single replica — or an entirely
    // empty stream — corresponds to the serial ingestion path (no shard
    // events, no merge span); multiple non-empty replicas correspond to
    // `ingest_sharded` (one "shard" event per non-empty shard, then the
    // merge span). Empty replicas are dropped: the in-process splitter
    // never creates them.
    let serial = files.len() == 1 || replicas.iter().all(|(est, _)| est.edges_seen() == 0);
    let base = if serial {
        let (mut base, _) = replicas.remove(0);
        base.attach_recorder(&rec);
        let span = rec.span("ingest");
        span.finish();
        base
    } else {
        replicas.retain(|(est, _)| est.edges_seen() > 0);
        let mut iter = replicas.into_iter();
        let (mut base, base_ns) = iter.next().expect("at least one non-empty replica");
        base.attach_recorder(&rec);
        let rest: Vec<_> = iter.collect();
        let span = rec.span("ingest");
        for (shard, edges, ns) in std::iter::once((base.shard(), base.edges_seen(), base_ns))
            .chain(rest.iter().map(|(r, ns)| (r.shard(), r.edges_seen(), *ns)))
        {
            rec.event(
                "shard",
                &[
                    ("shard", Value::from(shard)),
                    ("edges", Value::from(edges)),
                    ("ns", Value::from(ns)),
                ],
            );
        }
        let merge_span = rec.span("merge");
        for (replica, _) in &rest {
            base.merge(replica);
        }
        merge_span.finish();
        span.finish();
        base
    };
    let out = base.finalize();
    println!("estimate      = {:.1}", out.estimate);
    println!("winning z     = {}", out.winning_z);
    println!("winner        = {:?}", out.winner);
    println!("trivial       = {}", out.trivial);
    println!("space (words) = {}", base.space_words());
    println!("stream edges  = {}", base.edges_seen());
    obs.emit(&rec)
}

fn cmd_twopass(flags: &HashMap<String, String>) -> Result<(), String> {
    let (k, alpha) = parse_shape(flags)?;
    let system = load(flags)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let batch = parse_batch(flags)?;
    let edges = edge_stream(&system, order);
    let (n, m) = (system.num_elements(), system.num_sets());
    let cover = kcov_core::run_two_pass(n, m, k, alpha, &config, &edges, batch);
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    println!("reported sets  = {:?}", cover.sets);
    println!("real coverage  = {}", coverage_of(&system, &chosen));
    println!("estimate       = {:.1}", cover.estimate);
    println!("winner         = {:?}", cover.winner);
    println!("space (words)  = {} (pass 2)", cover.space_words);
    obs.emit(&rec)
}

fn cmd_budget(flags: &HashMap<String, String>) -> Result<(), String> {
    let system = load(flags)?;
    let k: usize = parse_num(req(flags, "k")?, "k")?;
    let words: usize = parse_num(req(flags, "words")?, "words (space budget)")?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let (n, m) = (system.num_elements(), system.num_sets());
    let Some(mut fit) = kcov_core::fit_alpha_to_budget(n, m, k, words, &config) else {
        return Err(format!(
            "no alpha in [1, sqrt(m)] fits {words} words; smallest possible is {}",
            kcov_core::predict_space_words(n, m, k, (m as f64).sqrt().max(1.0), &config)
        ));
    };
    println!("budget         = {words} words");
    println!("fitted alpha   = {:.2}", fit.alpha);
    println!("predicted max  = {} words", fit.predicted_words);
    let batch = parse_batch(flags)?;
    let edges = edge_stream(&system, order);
    let span = rec.span("ingest");
    fit.estimator.ingest_sharded(&edges, config.shards, batch);
    span.finish();
    let out = fit.estimator.finalize();
    println!("estimate       = {:.1}", out.estimate);
    println!("actual space   = {} words", fit.estimator.space_words());
    obs.emit(&rec)
}

/// `maxkcov prof` — render the space-attribution ledger, from a trace
/// file (positional) or a live run (`--input`), re-checking the ledger
/// invariants either way.
fn cmd_prof(files: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let top: usize = match flags.get("top") {
        Some(s) => parse_num(s, "top")?,
        None => 20,
    };
    let time = flags.contains_key("time");
    if flags.contains_key("folded") && !time {
        return Err("--folded needs --time (folded stacks are a time-ledger rendering)".into());
    }
    let folded = flags.contains_key("folded");
    match (files, flags.contains_key("input")) {
        ([path], false) if time => cmd_prof_time_trace(path, top, folded),
        ([path], false) => cmd_prof_trace(path, top),
        ([], true) if time => cmd_prof_time_live(flags, top, folded),
        ([], true) => cmd_prof_live(flags, top),
        ([], false) => Err("prof needs a TRACE file or --input FILE for a live run".into()),
        (_, true) => Err("prof takes a TRACE file or --input, not both".into()),
        (_, false) => Err("prof takes exactly one TRACE file".into()),
    }
}

/// Print an audit verdict: `ok` on stdout when there are no violations
/// (if given), else every violation on stderr and an error counting them
/// as `what`.
fn verdict(violations: &[String], ok: Option<&str>, what: &str) -> Result<(), String> {
    if violations.is_empty() {
        if let Some(ok) = ok {
            println!("{ok}");
        }
        return Ok(());
    }
    for v in violations {
        eprintln!("invariant violated: {v}");
    }
    Err(format!("{} {what}", violations.len()))
}

/// `maxkcov prof --time TRACE` — render the time-attribution ledger of
/// a trace (one report per emitted tree: `estimator`, and `pass2` for
/// two-pass traces), or its folded stacks with `--folded`, re-checking
/// the time invariants either way.
fn cmd_prof_time_trace(path: &str, top: usize, folded: bool) -> Result<(), String> {
    let t = Trace::read(path)?;
    if t.time_rows.is_empty() {
        return Err(format!(
            "trace {path} contains no time_ledger events (written by --trace since the \
             time-attribution ledger landed; re-run the traced command)"
        ));
    }
    if folded {
        // Folded stacks only on stdout, so the output pipes straight
        // into flamegraph.pl / inferno-flamegraph.
        print!("{}", render_folded(&t.time_rows));
    } else {
        println!("trace          = {path}");
        println!("time nodes     = {}", t.time_rows.len());
        // Emission order groups each tree's preorder rows contiguously;
        // rendering per root keeps the % column scaled per tree.
        let mut trees: Vec<&[Row<Time>]> = Vec::new();
        let mut start = 0;
        for (i, row) in t.time_rows.iter().enumerate().skip(1) {
            if !row.path.contains('/') {
                trees.push(&t.time_rows[start..i]);
                start = i;
            }
        }
        trees.push(&t.time_rows[start..]);
        for rows in trees {
            println!();
            print!("{}", render_report(rows, top));
        }
        println!();
    }
    let ok = (!folded).then_some("time invariants OK");
    verdict(
        &t.time_violations(),
        ok,
        &format!("time invariant(s) violated in {path}"),
    )
}

/// Ingest `--input` for a live `prof` run, in `--batch` chunks and
/// `--shards` replicas, with `rec` attached. Returns the estimator, the
/// run's one-line description, the ingest wall clock, and its
/// parallelism (threads × shards: how many attributed intervals can
/// overlap).
fn prof_ingest(
    flags: &HashMap<String, String>,
    rec: Recorder,
) -> Result<(MaxCoverEstimator, String, u64, u64), String> {
    let (k, alpha) = parse_shape(flags)?;
    let system = load(flags)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    config.recorder = rec;
    let batch = parse_batch(flags)?;
    let edges = edge_stream(&system, order);
    let mut est =
        MaxCoverEstimator::new(system.num_elements(), system.num_sets(), k, alpha, &config);
    let t0 = Instant::now();
    est.ingest_sharded(&edges, config.shards, batch);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let parallelism = (config.threads.max(1) * config.shards.max(1)) as u64;
    let run = format!("{} edges, k={k}, alpha={alpha}", edges.len());
    Ok((est, run, wall_ns, parallelism))
}

/// `maxkcov prof --time --input FILE …` — run an ingest with the
/// batch-granular clocks live and render the resulting time ledger (or
/// folded stacks), auditing leaves-only attribution and ns
/// conservation against the measured ingest wall clock.
fn cmd_prof_time_live(
    flags: &HashMap<String, String>,
    top: usize,
    folded: bool,
) -> Result<(), String> {
    // The batch-granular clocks only run against a live recorder
    // (disabled-recorder runs must stay zero-overhead), so attach one
    // even though prof never emits its event stream.
    let (est, run, wall_ns, parallelism) = prof_ingest(flags, Recorder::enabled())?;
    let times = est.time_ledger_tree();
    if folded {
        print!("{}", times.folded());
    } else {
        println!("live run       = {run}");
        println!("time nodes     = {}", times.rows().len());
        println!();
        print!("{}", times.report(top));
        println!();
    }
    let violations = audit::time_ledger_violations(&times, wall_ns, parallelism);
    let ok = (!folded).then_some("time invariants OK");
    verdict(&violations, ok, "time invariant(s) violated")
}

fn cmd_prof_trace(path: &str, top: usize) -> Result<(), String> {
    let t = Trace::read(path)?;
    if t.space_rows.is_empty() {
        return Err(format!(
            "trace {path} contains no ledger events (written by --trace since the \
             space-attribution ledger landed; re-run the traced command)"
        ));
    }
    println!("trace          = {path}");
    println!("ledger nodes   = {}", t.space_rows.len());
    println!();
    print!("{}", render_report(&t.space_rows, top));
    println!();
    verdict(
        &t.space_violations(),
        Some("ledger invariants OK"),
        &format!("ledger invariant(s) violated in {path}"),
    )
}

fn cmd_prof_live(flags: &HashMap<String, String>, top: usize) -> Result<(), String> {
    let (est, run, _, _) = prof_ingest(flags, Recorder::disabled())?;
    let ledger = est.space_ledger_tree();
    println!("live run       = {run}");
    println!("ledger nodes   = {}", ledger.rows().len());
    println!();
    print!("{}", ledger.report(top));
    println!();
    let violations = audit::space_ledger_violations(&ledger, est.space_words() as u64);
    verdict(
        &violations,
        Some("ledger invariants OK"),
        "ledger invariant(s) violated",
    )
}

fn cmd_trace_summarize(path: &str) -> Result<(), String> {
    let t = Trace::read(path)?;
    if t.lines == 0 {
        return Err(format!("trace {path} contains no events"));
    }
    println!("trace          = {path}");
    println!("events         = {}", t.lines);
    if !t.phases.is_empty() {
        println!();
        println!("phase                    calls      total ns");
        for (name, (calls, ns)) in &t.phases {
            println!("  {name:<22} {calls:>5}  {ns:>12}");
        }
    }
    if let Some((est, words, edges)) = t.summary {
        println!();
        println!("summary estimate         = {est:.1}");
        println!("summary space (words)    = {words}");
        println!("summary edges            = {edges}");
        if !t.subroutines.is_empty() {
            let subs = t.subroutine_words();
            println!(
                "subroutine space (words) = {} across {} subroutines",
                subs.iter().filter_map(|s| s.2).sum::<u64>(),
                subs.len()
            );
        }
    }
    if !t.beats.is_empty() {
        println!();
        println!("heartbeats (fills and cumulative lane ns summed over lanes)");
        println!("  stage     shard    at_edges  lanes   lc_fill   ls_fill   ss_fill  evictions     space            ns");
        for ((stage, shard, at), row) in &t.beats {
            println!(
                "  {stage:<8} {shard:>6}  {at:>10}  {lanes:>5}  {lc:>8}  {ls:>8}  {ss:>8}  {ev:>9}  {sp:>8}  {ns:>12}",
                lanes = row.lanes,
                lc = row.lc_fill,
                ls = row.ls_fill,
                ss = row.ss_fill,
                ev = row.evictions,
                sp = row.space_words,
                ns = row.ns,
            );
        }
    }
    if !t.time_rows.is_empty() {
        println!();
        println!(
            "time ledger ({} nodes; prof --time for the full report)",
            t.time_rows.len()
        );
        for (stage, root, threads, ns) in &t.time_meta {
            println!(
                "  stage {stage:<9} root {root:<10} threads {threads}  {ns:>12} ns attributed"
            );
        }
    }
    if !t.histograms.is_empty() {
        println!();
        println!("histogram                   count         sum        mean       p50       p90       p99       max");
        for (name, h) in &t.histograms {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            println!(
                "  {name:<24} {count:>8}  {sum:>10}  {mean:>10.1}  {p50:>8}  {p90:>8}  {p99:>8}  {max:>8}",
                count = h.count(),
                sum = h.sum(),
                mean = h.mean(),
                p50 = q(0.5),
                p90 = q(0.9),
                p99 = q(0.99),
                max = h.max().unwrap_or(0),
            );
        }
    }
    println!();
    verdict(
        &t.violations(),
        Some("invariants OK"),
        &format!("trace invariant(s) violated in {path}"),
    )
}

fn cmd_setcover(flags: &HashMap<String, String>) -> Result<(), String> {
    let system = load(flags)?;
    let fraction: f64 = match flags.get("fraction") {
        Some(s) => parse_num(s, "fraction")?,
        None => 1.0,
    };
    if !(0.0..=1.0).contains(&fraction) {
        return Err("fraction must be in [0, 1]".into());
    }
    let r = kcov_baselines::partial_set_cover(&system, fraction);
    println!("target fraction = {fraction}");
    println!("sets used       = {}", r.chosen.len());
    println!("covered         = {}", r.covered);
    println!("complete        = {}", r.complete);
    println!("sets            = {:?}", r.chosen);
    Ok(())
}

fn cmd_report(flags: &HashMap<String, String>) -> Result<(), String> {
    let (k, alpha) = parse_shape(flags)?;
    let system = load(flags)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let batch = parse_batch(flags)?;
    let edges = edge_stream(&system, order);
    let mut rep =
        MaxCoverReporter::new(system.num_elements(), system.num_sets(), k, alpha, &config);
    let span = rec.span("ingest");
    rep.ingest_sharded(&edges, config.shards, batch);
    span.finish();
    let cover = rep.finalize();
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    println!("reported sets  = {:?}", cover.sets);
    println!("real coverage  = {}", coverage_of(&system, &chosen));
    println!("estimate       = {:.1}", cover.estimate);
    println!("winner         = {:?}", cover.winner);
    println!("space (words)  = {}", cover.space_words);
    obs.emit(&rec)
}
