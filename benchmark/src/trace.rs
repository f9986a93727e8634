//! The traced run: per-layer metrics from clock pairs around public
//! calls, kept as spans in memory (written as NDJSON on request), plus
//! the shadow-fidelity guard.
//!
//! End-to-end numbers come from the untraced run. This run makes one
//! pass whatever `--seconds` says: the real estimator, one clock pair
//! per `observe_batch`, and the shadow pipeline, one clock pair per
//! layer call, take the stream batch by batch in turn.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use kcov_baselines::{MvEdgeArrival, SketchedGreedy};
use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_obs::json::Json;
use kcov_obs::Recorder;
use kcov_sketch::{SpaceUsage, WireEncode};
use kcov_stream::read_edges;

use crate::alloc;
use crate::metrics::{quantile, Measured, Report, Summary, PER_LAYER};
use crate::run::{check_answer, ingest};
use crate::shadow::{Counters, Shadow};
use crate::workload::{rep_seeds, Scale, Workload, BATCH};

/// One timed call.
struct Span {
    name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    start: u64,
    end: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Batch (or replica) index the call belongs to.
    batch: usize,
    /// Shadow lane, for per-lane calls.
    lane: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: usize,
        lane: Option<usize>,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            batch,
            lane,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: usize,
        lane: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, batch, lane);
        let out = f();
        self.close(id);
        out
    }

    fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans named `name`, in nanoseconds.
    fn total_ns(&self, name: &str) -> u64 {
        self.of(name).map(|s| s.end - s.start).sum()
    }

    /// Self time per span name: duration minus the time its children cover.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// One JSON object per span.
    pub fn write_ndjson(&self, workload: &str, mut w: impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
            let line = Json::obj(vec![
                ("workload", workload.into()),
                ("id", id.into()),
                ("name", s.name.into()),
                ("start_ns", s.start.into()),
                ("end_ns", s.end.into()),
                ("parent", opt(s.parent)),
                ("batch", s.batch.into()),
                ("lane", opt(s.lane)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Setups timed per traced run (medians reported).
const SETUPS: usize = 5;
/// Alternating recorder-on/off pairs behind `obs.trace_overhead`.
const OVERHEAD_PAIRS: usize = 3;
/// Largest `estimate.shadow_gap` the fidelity guard accepts.
const SHADOW_GAP_LIMIT: f64 = 0.1;

/// The traced run of `w`. The report's single operation is the traced
/// answer; it fails on a wrong answer or a failed fidelity guard.
pub fn trace(w: &Workload, scale: &Scale, seed: u64, tr: &mut Tracer) -> Result<Report, String> {
    let input = w.input(scale, seed);
    let config = EstimatorConfig::practical(rep_seeds(seed).next().expect("endless seed stream"));
    let (k, alpha) = (input.k, input.alpha);
    let mut failures = Vec::new();

    let mut setup = None;
    for i in 0..SETUPS {
        let root = tr.open("setup", None, i, None);
        let (n, m, edges) = tr
            .time("io.read_edges", Some(root), i, None, || {
                read_edges(&input.bytes[..])
            })
            .map_err(|e| format!("stream bytes do not parse: {e}"))?;
        let est = tr.time("estimate.new", Some(root), i, None, || {
            MaxCoverEstimator::new(n, m, k, alpha, &config)
        });
        tr.close(root);
        setup = Some((n, m, edges, est));
    }
    let (n, m, edges, mut est) = setup.expect("at least one setup");

    // The real estimator, one clock pair per public call, and the shadow
    // (on every workload that has lanes to shadow) take each batch in
    // turn, alternating which goes first, so the host's interference
    // falls on both alike.
    let mut shadow = est
        .fingerprints()
        .is_some()
        .then(|| Shadow::new(n, m, k, alpha, config.seed));
    for (b, batch) in edges.chunks(BATCH).enumerate() {
        let mut real = |tr: &mut Tracer| {
            tr.time("estimate.observe_batch", None, b, None, || {
                est.observe_batch(batch)
            })
        };
        match &mut shadow {
            Some(s) if b % 2 == 1 => {
                s.observe_batch(batch, b, tr);
                real(tr);
            }
            Some(s) => {
                real(tr);
                s.observe_batch(batch, b, tr);
            }
            None => real(tr),
        }
    }
    let outcome = tr.time("estimate.finalize", None, 0, None, || est.finalize());
    check_answer(&input, est.edges_seen(), outcome.estimate, &mut failures);
    let shadow = shadow.map(|s| (s.finalize(tr), s.space_words(), s.counters()));
    let e2e_ns = tr.total_ns("estimate.observe_batch") as f64;
    let shadow_ns = tr.total_ns("shadow.batch") as f64;
    let shadow_gap = if shadow.is_some() {
        (shadow_ns / e2e_ns - 1.0).abs()
    } else {
        0.0
    };
    if let Some(((estimate, z), words, _)) = &shadow {
        if estimate.to_bits() != outcome.estimate.to_bits() || *z != outcome.winning_z {
            failures.push(format!(
                "shadow answers {estimate} at z={z}, the estimator {} at z={}",
                outcome.estimate, outcome.winning_z
            ));
        }
        if *words != outcome.space_words {
            failures.push(format!(
                "shadow holds {words} words, the estimator {}",
                outcome.space_words
            ));
        }
        if shadow_gap > SHADOW_GAP_LIMIT {
            failures.push(format!(
                "shadow time differs from the estimator's by {shadow_gap:.3}"
            ));
        }
    }

    // Ship and merge: the serial estimator itself, or fresh shard replicas.
    let sharded = (input.shards > 1).then(|| {
        ingest(
            MaxCoverEstimator::new(n, m, k, alpha, &config),
            &edges,
            input.shards,
        )
        .0
    });
    let replicas: Vec<&MaxCoverEstimator> =
        sharded.as_ref().map_or(vec![&est], |r| r.iter().collect());
    let replica_words: usize = replicas.iter().map(|r| r.space_words()).sum();
    let shipped: Vec<Vec<u8>> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| tr.time("wire.encode", None, i, None, || r.to_bytes()))
        .collect();
    drop(sharded);
    let mut decoded = Vec::new();
    for (i, bytes) in shipped.iter().enumerate() {
        match tr.time("wire.decode", None, i, None, || {
            MaxCoverEstimator::from_bytes(bytes)
        }) {
            Ok(r) => decoded.push(r),
            Err(e) => failures.push(format!("replica {i} does not decode: {e}")),
        }
    }
    let mut decoded = decoded.into_iter();
    let merged = decoded.next();
    if let Some(mut merged) = merged.filter(|_| input.shards > 1) {
        for (i, r) in decoded.enumerate() {
            tr.time("estimate.merge", None, i + 1, None, || merged.merge(&r));
        }
        est = merged;
    }
    let heap_share = 8.0 * est.space_words() as f64 / alloc::held_bytes(est) as f64;

    let overhead = trace_overhead(&edges[..edges.len() / 8], n, m, k, alpha, &config, tr);

    let mut mv = MvEdgeArrival::new(n, m, k, 0.4, config.seed);
    tr.time("baselines.mv", None, 0, None, || {
        edges.iter().for_each(|&e| mv.observe(e))
    });
    let mut bem = SketchedGreedy::new(m, 48, config.seed);
    tr.time("baselines.bem", None, 0, None, || {
        edges.iter().for_each(|&e| bem.observe(e))
    });

    let edges_f = edges.len() as f64;
    let selfs = tr.self_ns();
    let layer_ns = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let per_edge = |name: &str| layer_ns(name) / edges_f;
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    let median_ms = |name: &str| {
        let d: Vec<f64> = tr
            .of(name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect();
        Summary::median_of(&d)
    };
    let layers = [
        "fingerprint.fill_block",
        "universe.mix_batch",
        "universe.map_premixed_batch",
        "large_common.observe_fp_batch",
        "large_set.observe_fp_batch",
        "small_set.observe_fp_batch",
    ];
    let unattributed = if shadow.is_some() {
        1.0 - layers.iter().map(|l| layer_ns(l)).sum::<f64>() / shadow_ns
    } else {
        0.0
    };
    let mut batch_ms: Vec<f64> = tr
        .of("estimate.observe_batch")
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    batch_ms.sort_by(f64::total_cmp);
    let batch = |p: f64| Summary {
        samples: batch_ms.len(),
        ..Summary::one(quantile(&batch_ms, p))
    };
    let c = shadow.as_ref().map(|s| &s.2);
    let count = |f: fn(&Counters) -> u64| c.map_or(0.0, |c| f(c) as f64);

    let values: [Summary; 32] = [
        median_ms("io.read_edges"),
        median_ms("estimate.new"),
        Summary::one(per_edge("fingerprint.fill_block")),
        Summary::one(per_edge("universe.mix_batch")),
        Summary::one(per_edge("universe.map_premixed_batch")),
        Summary::one(per_edge("large_common.observe_fp_batch")),
        Summary::one(per_edge("large_set.observe_fp_batch")),
        Summary::one(per_edge("small_set.observe_fp_batch")),
        Summary::one(count(|c| c.large_set.updates) / edges_f),
        Summary::one(count(|c| c.large_set.evictions) / edges_f),
        Summary::one(count(|c| c.small_set.fill)),
        Summary::one(count(|c| c.small_set.prunes)),
        Summary::one(ms("large_common.finalize")),
        Summary::one(ms("large_set.finalize")),
        Summary::one(ms("small_set.finalize")),
        Summary::one(count(|c| c.large_common_words)),
        Summary::one(count(|c| c.large_set_words)),
        Summary::one(count(|c| c.small_set_words)),
        Summary::one(count(|c| c.lanes)),
        Summary::one(count(|c| c.idle_lanes)),
        Summary::one(heap_share),
        Summary::one(ms("wire.encode")),
        Summary::one(ms("wire.decode")),
        Summary::one(shipped.iter().map(Vec::len).sum::<usize>() as f64 / replica_words as f64),
        Summary::one(ms("estimate.merge")),
        batch(0.5),
        batch(0.99),
        Summary::one(unattributed),
        Summary::one(shadow_gap),
        Summary::one(overhead),
        Summary::one(tr.total_ns("baselines.mv") as f64 / edges_f),
        Summary::one(tr.total_ns("baselines.bem") as f64 / edges_f),
    ];
    Ok(Report {
        workload: w.name,
        host_slowdown: None,
        ops: 1,
        failed_ops: usize::from(!failures.is_empty()),
        failures,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), summary)| Measured {
                name,
                unit,
                summary,
            })
            .collect(),
    })
}

/// Ingest time with the recorder enabled over ingest time with it
/// disabled, medians of alternating pairs over a stream prefix.
fn trace_overhead(
    prefix: &[kcov_stream::Edge],
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
    tr: &mut Tracer,
) -> f64 {
    for pair in 0..OVERHEAD_PAIRS {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            let (name, rec) = if enabled {
                ("obs.recorder_on", Recorder::enabled())
            } else {
                ("obs.recorder_off", Recorder::disabled())
            };
            let mut est =
                MaxCoverEstimator::new(n, m, k, alpha, &config.clone().with_recorder(rec));
            tr.time(name, None, pair, None, || {
                prefix.chunks(BATCH).for_each(|b| est.observe_batch(b))
            });
        }
    }
    let median = |name: &str| {
        Summary::median_of(
            &tr.of(name)
                .map(|s| (s.end - s.start) as f64)
                .collect::<Vec<_>>(),
        )
        .value
    };
    median("obs.recorder_on") / median("obs.recorder_off")
}
