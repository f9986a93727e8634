//! Two-pass refinement — an *extension* beyond the paper.
//!
//! The paper is strictly single-pass; its guess grid pays a `log n`
//! factor in space because every `z = 2^i` runs its own oracle in
//! parallel. When the stream can be replayed (stored logs, repeatable
//! scans — the setting of the multi-pass lines of Table 1's set-cover
//! relatives [6, 17]), a second pass removes that factor:
//!
//! * **Pass 1** — the single-pass estimator on a coarse grid produces a
//!   constant-factor-correct guess `ẑ` of the optimal coverage.
//! * **Pass 2** — a single universe-reduced `(α, δ, η)`-oracle tuned to
//!   `z = Θ(ẑ)` runs with the *entire* space/repetition budget,
//!   reporting the cover.
//!
//! Space drops from `Õ(log n · m/α²)` to `Õ(m/α²)` per pass, and the
//! lone oracle can afford more repetitions for the same footprint.

use std::time::Instant;

use kcov_obs::{apportion_by_heat, LedgerNode, Recorder, SketchStats, TimeLedger};
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::Edge;

use crate::estimate::{EstimatorConfig, MaxCoverEstimator};
use crate::fingerprint::{EdgeFingerprints, FingerprintBlock};
use crate::oracle::Oracle;
use crate::params::{ParamMode, Params};
use crate::report::ReportedCover;
use crate::telemetry::{self, HeartbeatSnap, IngestHists, LaneBeat, LaneTimes, StageTimes};
use crate::universe::UniverseReducer;

/// Pass 1: estimate the optimal coverage size.
#[derive(Debug, Clone)]
pub struct TwoPassFirst {
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: EstimatorConfig,
    estimator: MaxCoverEstimator,
}

impl TwoPassFirst {
    /// Start pass 1 with a coarse internal grid (factor-4 guesses, one
    /// repetition — pass 2 restores the lost constants).
    pub fn new(n: usize, m: usize, k: usize, alpha: f64, config: &EstimatorConfig) -> Self {
        let mut pass1_config = config.clone();
        if pass1_config.z_guesses.is_none() {
            let mut zs = Vec::new();
            let mut z = 4u64;
            while z < 2 * n as u64 {
                zs.push(z);
                z *= 4;
            }
            pass1_config.z_guesses = Some(zs);
        }
        pass1_config.reps = Some(pass1_config.reps.unwrap_or(1));
        pass1_config.reporting = false;
        TwoPassFirst {
            n,
            m,
            k,
            alpha,
            config: config.clone(),
            estimator: MaxCoverEstimator::new(n, m, k, alpha, &pass1_config),
        }
    }

    /// Observe one edge of pass 1.
    pub fn observe(&mut self, edge: Edge) {
        self.estimator.observe(edge);
    }

    /// Observe a chunk of pass-1 edges through the batched ingestion
    /// engine (bit-identical to repeated [`TwoPassFirst::observe`]).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        self.estimator.observe_batch(edges);
    }

    /// Merge another pass-1 state built from the same instance shape,
    /// configuration and seed (delegates to
    /// [`MaxCoverEstimator::merge`], so the merged state hands the same
    /// `ẑ` guess to pass 2 as serial ingestion would).
    pub fn merge(&mut self, other: &Self) {
        self.estimator.merge(&other.estimator);
    }

    /// Ingest pass-1 edges through sharded replicas (see
    /// [`MaxCoverEstimator::ingest_sharded`]). Must be called on a
    /// freshly constructed pass-1 state.
    pub fn ingest_sharded(&mut self, edges: &[Edge], shards: usize, batch: usize) {
        self.estimator.ingest_sharded(edges, shards, batch);
    }

    /// Finish pass 1 and build pass 2 around the guess.
    pub fn into_second_pass(self) -> TwoPassSecond {
        let out = self.estimator.finalize();
        // ẑ: prefer the winning z (it already passed the acceptance
        // test); fall back to the estimate, then to n.
        let guess = if out.winning_z > 0 {
            out.winning_z
        } else if out.estimate >= 1.0 {
            out.estimate as u64
        } else {
            self.n as u64
        };
        // Oversample the guess by 4× (the estimate is a lower bound on
        // OPT up to the approximation factor; Lemma 3.5 tolerates
        // |S| ≥ z, so a modestly large z only costs constants).
        let z = (4 * guess).next_power_of_two().clamp(4, 2 * self.n as u64);
        let params = match self.config.mode {
            ParamMode::Paper => Params::paper(self.m, z as usize, self.k, self.alpha),
            ParamMode::Practical => Params::practical(self.m, z as usize, self.k, self.alpha),
        };
        let reps = self.config.reps.unwrap_or(params.reduction_reps).max(2);
        let mut seq = kcov_hash::SeedSequence::labeled(self.config.seed, "two-pass-second");
        // Pass-2 hash-once front end: drawn first (before any lane) from
        // the pass-2 sequence, so it is independent of pass 1's.
        let fps = EdgeFingerprints::new(
            seq.next_seed(),
            Params::hash_degree(self.config.mode, self.m, self.n),
        );
        let lanes = (0..reps)
            .map(|_| {
                (
                    UniverseReducer::with_base(z, seq.next_seed(), fps.elem_base().clone()),
                    Oracle::with_base(
                        z as usize,
                        &params,
                        true,
                        seq.next_seed(),
                        fps.set_base().clone(),
                    ),
                )
            })
            .collect();
        TwoPassSecond {
            k: self.k,
            z,
            pass1_estimate: out.estimate,
            fps,
            block: FingerprintBlock::default(),
            lanes,
            rec: self.config.recorder.clone(),
            edges_seen: 0,
            heartbeat_every: self.config.effective_heartbeat(),
            shard_id: 0,
            heartbeats: Vec::new(),
            hists: IngestHists::default(),
            last_stats: SketchStats::default(),
            times: StageTimes::default(),
            lane_times: vec![LaneTimes::default(); reps],
        }
    }
}

/// Pass 2: a single tuned, reporting oracle (repeated for confidence).
#[derive(Debug, Clone)]
pub struct TwoPassSecond {
    k: usize,
    z: u64,
    pass1_estimate: f64,
    /// The pass-2 hash-once front end: one fingerprint pair per raw
    /// edge, shared by every repetition lane.
    fps: EdgeFingerprints,
    /// Reusable fingerprint-column scratch (never serialized or merged).
    block: FingerprintBlock,
    lanes: Vec<(UniverseReducer, Oracle)>,
    rec: Recorder,
    edges_seen: u64,
    /// Heartbeat cadence in shard-local edges (0 = off); same contract
    /// as the single-pass estimator (see `telemetry` module docs).
    heartbeat_every: u64,
    shard_id: u64,
    heartbeats: Vec<HeartbeatSnap>,
    hists: IngestHists,
    last_stats: SketchStats,
    /// Batch-granular wall totals for the shared fingerprint fill
    /// (pass 2 has no shared universe mix or trivial branch, so only
    /// `hash_ns` is populated).
    times: StageTimes,
    /// Batch-granular wall totals per repetition lane, parallel to
    /// `lanes` (the lanes are plain tuples, so the time state rides in
    /// a sibling vector).
    lane_times: Vec<LaneTimes>,
}

impl TwoPassSecond {
    /// The tuned pseudo-universe size.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Observe one edge of pass 2 (hash once, share across lanes).
    pub fn observe(&mut self, edge: Edge) {
        self.edges_seen += 1;
        let (fp_set, fp_elem) = self.fps.fingerprint(edge);
        for (reducer, oracle) in &mut self.lanes {
            oracle.observe_fp(Edge::new(edge.set, reducer.map_fp(fp_elem) as u32), fp_set);
        }
        if self.heartbeat_every != 0 && self.edges_seen.is_multiple_of(self.heartbeat_every) {
            self.capture_heartbeat();
        }
    }

    /// Observe a chunk of pass-2 edges: each repetition lane reduces and
    /// consumes the chunk in arrival order (bit-identical to repeated
    /// [`TwoPassSecond::observe`]).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        if edges.is_empty() {
            return;
        }
        // Same batch-granular timing contract as the single-pass
        // estimator: a handful of monotonic reads per chunk (never per
        // edge), none at all while the recorder is disabled.
        let timed = self.rec.is_enabled();
        let start = timed.then(Instant::now);
        let seen_before = self.edges_seen;
        self.edges_seen += edges.len() as u64;
        let mut block = std::mem::take(&mut self.block);
        self.fps.fill_block(edges, &mut block);
        if let Some(start) = start {
            self.times.hash_ns += start.elapsed().as_nanos() as u64;
        }
        let mut scratch = Vec::with_capacity(edges.len());
        for ((reducer, oracle), times) in self.lanes.iter_mut().zip(&mut self.lane_times) {
            let lane_start = timed.then(Instant::now);
            reducer.map_fp_batch(edges, &block.fp_elem, &mut scratch);
            let reduced_at = lane_start.map(|_| Instant::now());
            oracle.observe_fp_batch(&scratch, &block.fp_set);
            if let (Some(lane_start), Some(reduced_at)) = (lane_start, reduced_at) {
                times.reduce_ns += (reduced_at - lane_start).as_nanos() as u64;
                times.ingest_ns += lane_start.elapsed().as_nanos() as u64;
            }
        }
        self.block = block;
        if let Some(start) = start {
            self.hists.batch_edges.record(edges.len() as u64);
            self.hists.batch_ns.record(start.elapsed().as_nanos() as u64);
        }
        if telemetry::crosses_beat(seen_before, edges.len() as u64, self.heartbeat_every) {
            self.capture_heartbeat();
        }
    }

    /// Snapshot every repetition lane's fill state into the
    /// replica-local heartbeat buffer (same contract as
    /// `MaxCoverEstimator::capture_heartbeat`; `z` reports the tuned
    /// pseudo-universe shared by all lanes).
    fn capture_heartbeat(&mut self) {
        let mut lanes = Vec::with_capacity(self.lanes.len());
        let mut total = SketchStats::default();
        for (i, (reducer, oracle)) in self.lanes.iter().enumerate() {
            let (lc, ls, ss) = oracle.heartbeat_stats();
            let ss = ss.unwrap_or_default();
            let mut agg = lc;
            agg.absorb(ls);
            agg.absorb(ss);
            lanes.push(LaneBeat {
                lane: i as u64,
                z: self.z,
                lc_fill: lc.fill,
                ls_fill: ls.fill,
                ss_fill: ss.fill,
                evictions: agg.evictions,
                space_words: (oracle.space_words() + reducer.space_words()) as u64,
                ns: self.lane_times.get(i).map_or(0, |t| t.ingest_ns),
            });
            total.absorb(agg);
        }
        self.hists.record_beat_delta(total, &mut self.last_stats);
        self.heartbeats.push(HeartbeatSnap {
            shard: self.shard_id,
            at_edges: self.edges_seen,
            lanes,
        });
    }

    /// Merge another pass-2 state derived from the same pass-1 guess
    /// and seed: every repetition lane's oracle is merged; reducers are
    /// checked to compute the same universe map.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.k, self.z, self.lanes.len(), self.pass1_estimate.to_bits()),
            (other.k, other.z, other.lanes.len(), other.pass1_estimate.to_bits()),
            "TwoPassSecond merge requires identical configuration (pass-1 guess)"
        );
        assert!(
            self.fps.same_function(&other.fps),
            "TwoPassSecond merge requires identical hash functions (fingerprints)"
        );
        self.edges_seen += other.edges_seen;
        self.heartbeats.extend(other.heartbeats.iter().cloned());
        self.hists.merge(&other.hists);
        self.last_stats.absorb(other.last_stats);
        self.times.merge(&other.times);
        for (times, other_times) in self.lane_times.iter_mut().zip(&other.lane_times) {
            times.merge(other_times);
        }
        for ((reducer, oracle), (other_reducer, other_oracle)) in
            self.lanes.iter_mut().zip(&other.lanes)
        {
            assert!(
                reducer.same_function(other_reducer),
                "TwoPassSecond merge requires identical hash functions"
            );
            oracle.merge(other_oracle);
        }
    }

    /// Ingest pass-2 edges through sharded replicas folded back with
    /// [`TwoPassSecond::merge`]. Must be called on a fresh pass-2 state
    /// (straight out of [`TwoPassFirst::into_second_pass`]).
    pub fn ingest_sharded(&mut self, edges: &[Edge], shards: usize, batch: usize) {
        let shards = shards.max(1);
        if shards == 1 || edges.is_empty() {
            for chunk in edges.chunks(batch.max(1)) {
                self.observe_batch(chunk);
            }
            return;
        }
        let chunk_len = edges.len().div_ceil(shards);
        let mut parts = edges.chunks(chunk_len);
        let own = parts.next().unwrap_or(&[]);
        let mut replicas: Vec<TwoPassSecond> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .enumerate()
                .map(|(i, part)| {
                    let mut replica = self.clone();
                    replica.shard_id = i as u64 + 1;
                    s.spawn(move || {
                        for chunk in part.chunks(batch.max(1)) {
                            replica.observe_batch(chunk);
                        }
                        replica
                    })
                })
                .collect();
            for chunk in own.chunks(batch.max(1)) {
                self.observe_batch(chunk);
            }
            replicas.extend(handles.into_iter().map(|h| h.join().expect("shard worker panicked")));
        });
        for replica in &replicas {
            self.merge(replica);
        }
    }

    /// Finish pass 2: the best repetition's reported cover.
    pub fn finalize(&self) -> ReportedCover {
        let mut best: Option<(f64, usize, crate::Witness)> = None;
        for (i, (_, oracle)) in self.lanes.iter().enumerate() {
            let out = oracle.finalize();
            if let (est, Some(w)) = (out.estimate, out.witness) {
                if best.as_ref().is_none_or(|(b, _, _)| est > *b) {
                    best = Some((est, i, w));
                }
            }
        }
        match best {
            Some((est, lane, witness)) => {
                let mut sets = self.lanes[lane].1.expand_witness(&witness);
                sets.truncate(self.k);
                sets.sort_unstable();
                sets.dedup();
                ReportedCover {
                    sets,
                    estimate: est.max(self.pass1_estimate.min(self.z as f64)),
                    winner: self.lanes[lane].1.finalize().winner,
                    space_words: self.space_words(),
                }
            }
            None => ReportedCover {
                sets: Vec::new(),
                estimate: self.pass1_estimate,
                winner: None,
                space_words: self.space_words(),
            },
        }
    }

    /// Build the pass-2 time-attribution ledger: a tree rooted at
    /// `"pass2"` mirroring the pass-2 space ledger's paths
    /// (`fingerprints`, per-lane `reducer` plus the oracle subtree),
    /// apportioned by heat exactly like
    /// [`MaxCoverEstimator::time_ledger_tree`](crate::MaxCoverEstimator::time_ledger_tree).
    pub fn time_ledger_tree(&self) -> TimeLedger {
        let mut ledger = TimeLedger::new("pass2");
        let root = &mut ledger.root;
        root.leaf("fingerprints", self.times.hash_ns);
        for (i, (_, oracle)) in self.lanes.iter().enumerate() {
            let times = self.lane_times.get(i).copied().unwrap_or_default();
            let ln = root.child(&format!("lane{i}"));
            ln.leaf("reducer", times.reduce_ns);
            let mut space = LedgerNode::new();
            oracle.space_ledger(&mut space);
            apportion_by_heat(times.oracle_ns(), &space, ln);
        }
        ledger
    }
}

// ---- wire format ----------------------------------------------------

/// Payload tag of a full pass-2 replica.
pub const TAG_TWOPASS: u64 = 0x0054_574f_5041_5353; // "TWOPASS"
const SEC_SHAPE: u64 = 0x0053_4841_5045; // "SHAPE"
const SEC_STATE: u64 = 0x0053_5441_5445; // "STATE"
const SEC_TELEMETRY: u64 = 0x0054_454c_454d; // "TELEM"

impl TwoPassSecond {
    /// Attach an observability recorder after wire reconstruction (same
    /// contract as [`MaxCoverEstimator::attach_recorder`]).
    pub fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
    }
}

impl kcov_sketch::WireEncode for TwoPassSecond {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::{put_f64, put_header, put_section, put_u64};
        put_header(out, TAG_TWOPASS);
        put_section(out, SEC_SHAPE, |out| {
            put_u64(out, self.k as u64);
            put_u64(out, self.z);
            put_f64(out, self.pass1_estimate);
            put_u64(out, self.edges_seen);
            put_u64(out, self.heartbeat_every);
            put_u64(out, self.shard_id);
        });
        put_section(out, SEC_STATE, |out| {
            self.fps.encode(out);
            put_u64(out, self.lanes.len() as u64);
            for (reducer, oracle) in &self.lanes {
                reducer.encode(out);
                oracle.encode(out);
            }
        });
        put_section(out, SEC_TELEMETRY, |out| {
            put_u64(out, self.heartbeats.len() as u64);
            for snap in &self.heartbeats {
                snap.encode(out);
            }
            self.hists.encode(out);
            self.last_stats.encode(out);
            self.times.encode(out);
            put_u64(out, self.lane_times.len() as u64);
            for times in &self.lane_times {
                times.encode(out);
            }
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{
            err, expect_section_end, take_f64, take_header, take_section, take_u64,
        };
        take_header(input, TAG_TWOPASS)?;

        let mut shape = take_section(input, SEC_SHAPE)?;
        let k = take_u64(&mut shape)? as usize;
        let z = take_u64(&mut shape)?;
        let pass1_estimate = take_f64(&mut shape)?;
        let edges_seen = take_u64(&mut shape)?;
        let heartbeat_every = take_u64(&mut shape)?;
        let shard_id = take_u64(&mut shape)?;
        expect_section_end(SEC_SHAPE, shape)?;
        if k < 1 || z < 1 {
            return Err(err("pass-2 shape needs k, z >= 1"));
        }

        let mut state = take_section(input, SEC_STATE)?;
        let fps = EdgeFingerprints::decode(&mut state)?;
        let num = take_u64(&mut state)? as usize;
        if num > state.len() {
            return Err(err("pass-2 lane count exceeds input"));
        }
        let lanes = (0..num)
            .map(|_| {
                let reducer = UniverseReducer::decode(&mut state)?;
                if reducer.z() != z {
                    return Err(err(format!(
                        "pass-2 reducer range {} disagrees with z {z}",
                        reducer.z()
                    )));
                }
                Ok((reducer, Oracle::decode(&mut state)?))
            })
            .collect::<Result<Vec<_>, kcov_sketch::WireError>>()?;
        if lanes.is_empty() {
            return Err(err("pass-2 state has no lanes"));
        }
        expect_section_end(SEC_STATE, state)?;

        let mut telem = take_section(input, SEC_TELEMETRY)?;
        let num_snaps = take_u64(&mut telem)? as usize;
        if num_snaps > telem.len() {
            return Err(err("pass-2 heartbeat count exceeds input"));
        }
        let heartbeats = (0..num_snaps)
            .map(|_| HeartbeatSnap::decode(&mut telem))
            .collect::<Result<Vec<_>, _>>()?;
        let hists = IngestHists::decode(&mut telem)?;
        let last_stats = SketchStats::decode(&mut telem)?;
        let times = StageTimes::decode(&mut telem)?;
        let num_lt = take_u64(&mut telem)? as usize;
        if num_lt != lanes.len() {
            return Err(err(format!(
                "pass-2 lane-time count {num_lt} disagrees with {} lanes",
                lanes.len()
            )));
        }
        let lane_times = (0..num_lt)
            .map(|_| LaneTimes::decode(&mut telem))
            .collect::<Result<Vec<_>, _>>()?;
        expect_section_end(SEC_TELEMETRY, telem)?;

        Ok(TwoPassSecond {
            k,
            z,
            pass1_estimate,
            fps,
            block: FingerprintBlock::default(),
            lanes,
            rec: Recorder::disabled(),
            edges_seen,
            heartbeat_every,
            shard_id,
            heartbeats,
            hists,
            last_stats,
            times,
            lane_times,
        })
    }
}

impl SpaceUsage for TwoPassSecond {
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        self.fps.space_ledger(node.child("fingerprints"));
        for (i, (r, o)) in self.lanes.iter().enumerate() {
            let ln = node.child_indexed("lane", i);
            r.space_ledger(ln.child("reducer"));
            o.space_ledger(ln);
        }
    }
}

impl TwoPassSecond {
    /// Emit the pass-2 observability snapshot (heartbeats, ingest
    /// histograms, the `twopass` event, and the pass-2 time ledger)
    /// against the configured recorder; a no-op when it is disabled.
    /// The `run_two_pass*` drivers call this themselves — drivers that
    /// ingest pass 2 manually (e.g. the CLI's batched loop) call it
    /// once after [`TwoPassSecond::finalize`].
    pub fn record_snapshot(&self, cover: &ReportedCover) {
        record_two_pass(&self.rec, self, cover);
    }
}

/// Convenience: run both passes over a replayable stream.
pub fn run_two_pass(
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
    edges: &[Edge],
) -> ReportedCover {
    let rec = config.recorder.clone();
    let mut first = TwoPassFirst::new(n, m, k, alpha, config);
    let span = rec.span("pass1");
    for &e in edges {
        first.observe(e);
    }
    span.finish();
    let mut second = first.into_second_pass();
    let span = rec.span("pass2");
    for &e in edges {
        second.observe(e);
    }
    span.finish();
    let cover = second.finalize();
    record_two_pass(&rec, &second, &cover);
    cover
}

/// Convenience: run both passes with `config.shards` sharded replicas
/// per pass (pass 1 via [`TwoPassFirst::ingest_sharded`], pass 2 via
/// [`TwoPassSecond::ingest_sharded`]). Matches [`run_two_pass`] up to
/// the merge-equivalence contract (DESIGN.md §8).
pub fn run_two_pass_sharded(
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
    edges: &[Edge],
    batch: usize,
) -> ReportedCover {
    let rec = config.recorder.clone();
    let shards = config.shards.max(1);
    let mut first = TwoPassFirst::new(n, m, k, alpha, config);
    let span = rec.span("pass1");
    first.ingest_sharded(edges, shards, batch);
    span.finish();
    let mut second = first.into_second_pass();
    let span = rec.span("pass2");
    second.ingest_sharded(edges, shards, batch);
    span.finish();
    let cover = second.finalize();
    record_two_pass(&rec, &second, &cover);
    cover
}

/// Emit the pass-2 observability snapshot (no-op when disabled).
fn record_two_pass(rec: &kcov_obs::Recorder, second: &TwoPassSecond, cover: &ReportedCover) {
    if !rec.is_enabled() {
        return;
    }
    telemetry::emit_heartbeats(rec, "pass2", &second.heartbeats);
    second.hists.emit(rec, "pass2.ingest");
    rec.event(
        "twopass",
        &[
            ("z", kcov_obs::Value::from(second.z())),
            ("estimate", kcov_obs::Value::from(cover.estimate)),
            ("sets", kcov_obs::Value::from(cover.sets.len())),
            ("space_words", kcov_obs::Value::from(cover.space_words)),
            ("reps", kcov_obs::Value::from(second.lanes.len())),
        ],
    );
    rec.gauge("twopass.z", second.z() as f64);
    rec.gauge("twopass.space_words", cover.space_words as f64);
    // Pass-2 time-attribution ledger, same finalize contract as the
    // single-pass estimator (leaves-only, ns-conserving): pass 2 runs
    // lanes serially, so the wall budget is the plain batch total.
    let times = second.time_ledger_tree();
    let violations =
        kcov_obs::audit::time_ledger_violations(&times, second.hists.batch_ns.sum(), 1);
    assert!(
        violations.is_empty(),
        "pass-2 time ledger violations: {violations:?}"
    );
    times.emit(rec);
    rec.event(
        "time_ledger_meta",
        &[
            ("stage", kcov_obs::Value::from("pass2")),
            ("root", kcov_obs::Value::from(times.name())),
            ("threads", kcov_obs::Value::from(1u64)),
            ("ns", kcov_obs::Value::from(times.total_ns())),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MaxCoverReporter;
    use kcov_stream::gen::planted_cover;
    use kcov_stream::{coverage_of, edge_stream, ArrivalOrder};

    #[test]
    fn two_pass_reports_a_useful_cover() {
        let inst = planted_cover(2_000, 250, 12, 0.8, 40, 3);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
        let config = EstimatorConfig::practical(9);
        let cover = run_two_pass(2_000, 250, 12, 4.0, &config, &edges);
        assert!(!cover.sets.is_empty());
        assert!(cover.sets.len() <= 12);
        let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
        let cov = coverage_of(&inst.system, &chosen) as f64;
        assert!(
            cov >= inst.planted_coverage as f64 / (4.0 * 30.0),
            "two-pass cover too weak: {cov}"
        );
    }

    #[test]
    fn second_pass_z_tracks_pass1_guess() {
        let inst = planted_cover(4_000, 300, 10, 0.5, 50, 5);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
        let config = EstimatorConfig::practical(3);
        let mut first = TwoPassFirst::new(4_000, 300, 10, 4.0, &config);
        for &e in &edges {
            first.observe(e);
        }
        let second = first.into_second_pass();
        // OPT = 2000; ẑ·4 rounded to a power of two should be within
        // a factor ~32 of OPT (pass 1 is only α-approximate).
        assert!(second.z() >= 64, "z {} too small", second.z());
        assert!(second.z() <= 8_000, "z {} too large", second.z());
    }

    #[test]
    fn two_pass_uses_less_space_than_single_pass_grid() {
        let inst = planted_cover(8_000, 500, 16, 0.7, 40, 7);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(4));
        let config = EstimatorConfig::practical(11);
        // Single-pass reporter with the full default grid.
        let mut single = MaxCoverReporter::new(8_000, 500, 16, 8.0, &config);
        for &e in &edges {
            single.observe(e);
        }
        let single_space = single.finalize().space_words;
        // Two-pass: pass 2 space only (pass 1 is also cheaper — coarse
        // grid, 1 rep — but the comparison of interest is steady state).
        let mut first = TwoPassFirst::new(8_000, 500, 16, 8.0, &config);
        for &e in &edges {
            first.observe(e);
        }
        let mut second = first.into_second_pass();
        for &e in &edges {
            second.observe(e);
        }
        let two_space = second.space_words();
        assert!(
            (two_space as f64) < 0.5 * single_space as f64,
            "two-pass {two_space} vs single {single_space}"
        );
    }

    #[test]
    fn empty_stream_degrades_gracefully() {
        let config = EstimatorConfig::practical(1);
        let cover = run_two_pass(100, 50, 5, 2.0, &config, &[]);
        assert!(cover.sets.is_empty());
    }

    #[test]
    fn sharded_two_pass_matches_serial() {
        let inst = planted_cover(1_000, 150, 8, 0.7, 30, 13);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(3));
        let config = EstimatorConfig::practical(7);
        let serial = run_two_pass(1_000, 150, 8, 4.0, &config, &edges);
        for shards in [2usize, 4] {
            let sharded_config = config.clone().with_shards(shards);
            let out = run_two_pass_sharded(1_000, 150, 8, 4.0, &sharded_config, &edges, 128);
            assert_eq!(serial.sets, out.sets, "shards={shards}");
            assert_eq!(
                serial.estimate.to_bits(),
                out.estimate.to_bits(),
                "shards={shards}"
            );
        }
    }
}
