//! The untraced run: closed-loop repetitions of one workload, each a
//! complete answer (set up, ingest, ship, merge, finalize), measured
//! from outside the library and checked for correctness.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_sketch::{WireEncode, WireError};
use kcov_stream::{read_edges, Edge};

use crate::alloc;
use crate::metrics::{Measured, Report, Summary, END_TO_END};
use crate::workload::{rep_seeds, Input, Scale, Workload, BATCH};

/// Pure calls (parse and construct, decode and merge, finalize) are
/// repeated at least this often and for at least `MIN_TIMED`, and the
/// fastest call counts: the host's interference only ever adds time.
const MIN_CALLS: usize = 3;
const MIN_TIMED: Duration = Duration::from_millis(100);

/// Steps of one host-speed slice, and the fastest slice's seconds on the
/// reference host (an otherwise idle 2-core Xeon VM).
const SLICE_STEPS: u64 = 250_000;
const REFERENCE_SLICE_S: f64 = 0.001_08;

/// The host's current speed, from a fixed integer kernel that belongs to
/// the benchmark, not the library, so no change under test can move it.
/// Slices run at every phase boundary of every repetition and the
/// fastest counts. The host's interference (bursts, and slow spells
/// lasting minutes, that slow every instruction stream alike) moves the
/// kernel as it moves the estimator, so timings are reported as they
/// would read at the reference speed.
struct HostSpeed {
    fastest_s: f64,
    state: u64,
}

impl HostSpeed {
    fn sample(&mut self) {
        for _ in 0..5 {
            let t = Instant::now();
            let mut x = self.state;
            for _ in 0..SLICE_STEPS {
                // splitmix64
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
            }
            self.state = black_box(x);
            self.fastest_s = self.fastest_s.min(t.elapsed().as_secs_f64());
        }
    }

    /// How much slower than the reference the host ran at its fastest.
    fn slowdown(&self) -> f64 {
        self.fastest_s / REFERENCE_SLICE_S
    }
}

/// One timed answer.
struct Rep {
    setup_s: f64,
    /// Seconds per ingest call, in call order (replica clones, then each
    /// replica's batches).
    calls_s: Vec<f64>,
    finalize_ms: f64,
    merge_ms: f64,
    words: f64,
    heap_bytes: f64,
    replica_bytes: f64,
    estimate: f64,
    failures: Vec<String>,
}

/// Run `w` closed-loop for at least `seconds` of timed repetitions, and
/// at least its `min_reps`.
pub fn run(w: &Workload, scale: &Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let input = w.input(scale, seed);
    let mut host = HostSpeed {
        fastest_s: f64::INFINITY,
        state: seed,
    };
    let mut seeds = rep_seeds(seed);
    let first = seeds.next().expect("endless seed stream");
    // Sharded workloads first ingest serially with the first
    // repetition's seed: the reference that repetition's merged answer
    // must reproduce bit for bit. (No other warm-up is needed: the
    // timings keep each call's fastest repetition.)
    let serial = if input.shards > 1 {
        Some(repetition(&input, first, 1, &mut host)?.estimate)
    } else {
        None
    };
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    for rep_seed in std::iter::once(first).chain(seeds) {
        if reps.len() >= input.min_reps && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut rep = repetition(&input, rep_seed, input.shards, &mut host)?;
        if let Some(serial) =
            serial.filter(|s| reps.is_empty() && s.to_bits() != rep.estimate.to_bits())
        {
            rep.failures.push(format!(
                "merged estimate {} differs from the serial {serial} for the same seed",
                rep.estimate
            ));
        }
        reps.push(rep);
    }
    Ok(report(w.name, &input, &reps, host.slowdown()))
}

/// Ingest throughput over the fastest repetition of every call position
/// (repetitions run seconds apart, so a burst of interference rarely hits
/// one batch in all of them), with the quartiles of the repetitions' own
/// throughputs.
fn ingest_rate(edges: f64, reps: &[Rep]) -> Summary {
    let fastest: f64 = (0..reps[0].calls_s.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.calls_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let walls: Vec<f64> = reps
        .iter()
        .map(|r| edges / r.calls_s.iter().sum::<f64>())
        .collect();
    Summary {
        value: edges / fastest,
        ..Summary::median_of(&walls)
    }
}

fn report(workload: &'static str, input: &Input, reps: &[Rep], slowdown: f64) -> Report {
    // Timings: the fastest repetition, at the reference host speed.
    let timed = |f: fn(&Rep) -> f64| {
        Summary::min_of(&reps.iter().map(f).collect::<Vec<_>>()).scaled(1.0 / slowdown)
    };
    let fixed = &reps[..input.min_reps];
    let det = |f: fn(&Rep) -> f64| Summary::median_of(&fixed.iter().map(f).collect::<Vec<_>>());
    let log_ratios: Vec<f64> = fixed
        .iter()
        .filter(|r| r.estimate > 0.0)
        .map(|r| (input.opt_ref / r.estimate).ln())
        .collect();
    let opt_ratio = (log_ratios.iter().sum::<f64>() / log_ratios.len().max(1) as f64).exp();
    let values = [
        timed(|r| r.setup_s),
        ingest_rate(input.edges as f64, reps).scaled(slowdown),
        timed(|r| r.finalize_ms),
        timed(|r| r.merge_ms),
        det(|r| r.words),
        det(|r| r.heap_bytes),
        det(|r| r.replica_bytes),
        Summary {
            samples: fixed.len(),
            ..Summary::one(opt_ratio)
        },
    ];
    let mut failures = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("repetition {i}: {f}")));
    }
    Report {
        workload,
        host_slowdown: Some(slowdown),
        ops: reps.len(),
        failed_ops: reps.iter().filter(|r| !r.failures.is_empty()).count(),
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, summary)| Measured {
                name: m.name,
                unit: m.unit,
                summary,
            })
            .collect(),
    }
}

/// One answer with estimator seed `seed`, ingested by `shards` replicas.
/// `Err` only for harness errors; failed checks land in `failures`.
fn repetition(
    input: &Input,
    seed: u64,
    shards: usize,
    host: &mut HostSpeed,
) -> Result<Rep, String> {
    host.sample();
    let config = EstimatorConfig::practical(seed);
    let (setup_s, setup) = fastest(|| {
        read_edges(&input.bytes[..]).map(|(n, m, edges)| {
            (
                MaxCoverEstimator::new(n, m, input.k, input.alpha, &config),
                edges,
            )
        })
    });
    let (est, edges) = setup.map_err(|e| format!("stream bytes do not parse: {e}"))?;
    let (mut replicas, calls_s) = ingest(est, &edges, shards);
    drop(edges);
    host.sample();

    let mut failures = Vec::new();
    let shipped: Vec<Vec<u8>> = replicas.iter().map(WireEncode::to_bytes).collect();
    for (i, bytes) in shipped.iter().enumerate() {
        match MaxCoverEstimator::from_bytes(bytes) {
            Ok(r) if r.to_bytes() == *bytes => {}
            Ok(_) => failures.push(format!("replica {i} does not re-encode byte-identically")),
            Err(e) => failures.push(format!("replica {i} does not decode: {e}")),
        }
    }
    let (merge_s, merged) = fastest(|| coordinator(&shipped));
    // A serial answer is the ingested estimator itself (the decode above
    // is its checkpoint round trip); a sharded one is the coordinator's,
    // or, when a replica did not decode (a failure already recorded),
    // the in-memory replicas folded directly.
    let fin = match merged {
        Ok(merged) if shards > 1 => merged,
        _ => {
            let mut fin = replicas.remove(0);
            for replica in &replicas {
                fin.merge(replica);
            }
            fin
        }
    };
    drop(replicas);

    let (finalize_s, outcome) = fastest(|| fin.finalize());
    host.sample();
    check_answer(input, fin.edges_seen(), outcome.estimate, &mut failures);
    Ok(Rep {
        setup_s,
        calls_s,
        finalize_ms: finalize_s * 1e3,
        merge_ms: merge_s * 1e3,
        words: outcome.space_words as f64,
        heap_bytes: alloc::held_bytes(fin) as f64,
        replica_bytes: shipped.iter().map(Vec::len).sum::<usize>() as f64,
        estimate: outcome.estimate,
        failures,
    })
}

/// The checks every answer must pass: it saw the whole stream, and its
/// estimate is positive and no larger than OPT's upper bound.
pub fn check_answer(input: &Input, edges_seen: u64, estimate: f64, failures: &mut Vec<String>) {
    if edges_seen != input.edges as u64 {
        failures.push(format!(
            "edges_seen {edges_seen} != stream length {}",
            input.edges
        ));
    }
    if estimate.is_nan() || estimate <= 0.0 || estimate > input.opt_upper {
        failures.push(format!(
            "estimate {estimate} outside (0, {}]",
            input.opt_upper
        ));
    }
}

/// The closed-loop client: one replica per contiguous shard (clones of
/// the fresh estimator, as sharded ingestion makes them), each fed its
/// shard in `BATCH`-edge calls, one replica after another. Returns the
/// replicas and the seconds each call took.
pub fn ingest(
    est: MaxCoverEstimator,
    edges: &[Edge],
    shards: usize,
) -> (Vec<MaxCoverEstimator>, Vec<f64>) {
    let mut calls = Vec::new();
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        calls.push(t.elapsed().as_secs_f64());
    };
    let mut replicas = vec![est];
    for shard in 1..shards {
        timed(&mut || {
            let mut replica = replicas[0].clone();
            replica.set_shard(shard as u64);
            replicas.push(replica);
        });
    }
    let part = edges.len().div_ceil(shards).max(1);
    for (replica, part) in replicas.iter_mut().zip(edges.chunks(part)) {
        for batch in part.chunks(BATCH) {
            timed(&mut || replica.observe_batch(batch));
        }
    }
    (replicas, calls)
}

/// The coordinator side: decode every shipped replica and fold them in
/// shard order with `merge`.
fn coordinator(shipped: &[Vec<u8>]) -> Result<MaxCoverEstimator, WireError> {
    let mut merged = MaxCoverEstimator::from_bytes(&shipped[0])?;
    for bytes in &shipped[1..] {
        merged.merge(&MaxCoverEstimator::from_bytes(bytes)?);
    }
    Ok(merged)
}

/// Seconds of the fastest call of `f` (see `MIN_CALLS`), and the last
/// call's result.
fn fastest<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    for calls in 1.. {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        if calls >= MIN_CALLS && start.elapsed() >= MIN_TIMED {
            return (best, out);
        }
    }
    unreachable!("the loop returns")
}
