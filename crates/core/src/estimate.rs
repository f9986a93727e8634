//! `EstimateMaxCover` — the top-level single-pass estimator (paper §3,
//! Fig 1, Theorems 3.1 / 3.6).
//!
//! * Trivial regime: when `k·α ≥ m`, return `n/α` (any `k` sets out of
//!   `m ≤ k·α` contain a `1/α` fraction of the best coverage by
//!   Observation 2.4 — Fig 1's first line).
//! * Otherwise, for every guess `z ∈ {2^i}` of the optimal coverage size
//!   in parallel, and `log(1/δ)` repetitions per guess: reduce the
//!   universe onto `[z]` pseudo-elements with a fresh 4-wise hash
//!   (Lemma 3.5) and feed the reduced stream to an `(α, δ, η)`-oracle.
//! * Answer: the maximum `est_z` over guesses with `est_z ≥ z/(4α)`
//!   (Theorem 3.6's acceptance test).

use std::time::Instant;

use kcov_obs::{
    apportion_by_heat, audit, LedgerNode, Recorder, SketchStats, SpaceLedger, TimeLedger, Value,
};
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::Edge;

use crate::fingerprint::{EdgeFingerprints, FingerprintBlock};
use crate::oracle::{Oracle, OracleOutput, SubroutineKind};
use crate::params::{ParamMode, Params};
use crate::telemetry::{self, HeartbeatSnap, IngestHists, LaneBeat, LaneTimes, StageTimes};
use crate::universe::UniverseReducer;
use crate::Witness;

/// Configuration of the estimator.
#[derive(Debug, Clone)]
pub struct EstimatorConfig {
    /// Constant regime for all derived parameters.
    pub mode: ParamMode,
    /// Root seed.
    pub seed: u64,
    /// Repetitions per `z` guess (Fig 1's `log(1/δ)`); `None` uses the
    /// mode default.
    pub reps: Option<usize>,
    /// Explicit `z` guesses; `None` uses powers of two `4, 8, …, ≥ n`.
    pub z_guesses: Option<Vec<u64>>,
    /// Maintain reporting witnesses (Theorem 3.2 machinery).
    pub reporting: bool,
    /// Worker threads for the batched ingestion path
    /// ([`MaxCoverEstimator::observe_batch`]): lanes are sharded across
    /// this many scoped threads per batch. Lanes are mutually
    /// independent and each lane consumes every batch in arrival order,
    /// so any value — including `1`, the serial default — produces
    /// bit-identical results; `0` is treated as `1`.
    pub threads: usize,
    /// Stream shards for the sharded ingestion path
    /// ([`MaxCoverEstimator::ingest_sharded`]): the edge stream is
    /// partitioned into this many contiguous shards, each fed to its own
    /// full estimator replica (a clone sharing every seed), and the
    /// replicas are folded back with [`MaxCoverEstimator::merge`] at
    /// finalize. `0` is treated as `1` (plain serial ingestion).
    pub shards: usize,
    /// Observability sink: a cheap clonable handle recording phase
    /// timings, per-lane/per-subroutine snapshots, and sketch telemetry.
    /// The default ([`Recorder::disabled`]) makes every probe a no-op —
    /// no clock reads, no locking, no allocation — and the determinism
    /// and merge contracts are untouched either way (events are emitted
    /// only from the coordinating thread, never from ingestion workers).
    pub recorder: Recorder,
    /// In-flight heartbeat cadence, in edges: capture a per-lane fill
    /// snapshot at the first observation boundary at or after every
    /// multiple of this many (shard-local) edges, emitted as
    /// `"heartbeat"` events at finalize. Cadenced by edge count only —
    /// never wall-clock — so estimates are bit-identical with
    /// heartbeats on or off (DESIGN.md §10). `None` (the default)
    /// disables capture; ignored while the recorder is disabled.
    pub heartbeat_every: Option<u64>,
}

impl EstimatorConfig {
    /// Practical-mode defaults.
    pub fn practical(seed: u64) -> Self {
        EstimatorConfig {
            mode: ParamMode::Practical,
            seed,
            reps: None,
            z_guesses: None,
            reporting: false,
            threads: 1,
            shards: 1,
            recorder: Recorder::disabled(),
            heartbeat_every: None,
        }
    }

    /// Builder-style thread count for the batched ingestion path.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style shard count for the sharded ingestion path.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style observability recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Builder-style heartbeat cadence (in edges).
    pub fn with_heartbeat(mut self, every: u64) -> Self {
        self.heartbeat_every = (every > 0).then_some(every);
        self
    }

    /// The effective heartbeat cadence: 0 (off) unless both a cadence
    /// is configured and the recorder is enabled — capture without a
    /// sink would be pure overhead.
    pub(crate) fn effective_heartbeat(&self) -> u64 {
        if self.recorder.is_enabled() {
            self.heartbeat_every.unwrap_or(0)
        } else {
            0
        }
    }
}

/// One `(z, repetition)` lane.
#[derive(Debug, Clone)]
struct Lane {
    z: u64,
    reducer: UniverseReducer,
    oracle: Oracle,
    /// Batch-granular wall totals for the time-attribution ledger
    /// (plain replica-local data; only the owning worker writes it).
    times: LaneTimes,
}

impl Lane {
    /// Feed one chunk through this lane given the estimator's shared
    /// columns (hashed once against the *raw* stream): `umix` is the
    /// lane-invariant universe mix already applied to the element
    /// fingerprints, so reduction is one widening multiply per edge
    /// (into the caller's scratch buffer); the reduced chunk plus the
    /// set-fingerprint column then drive the oracle's batched path.
    /// Set ids pass through universe reduction unchanged, so one
    /// `fp_set` column serves every lane.
    /// When `timed`, the chunk is bracketed by the lane's only clock
    /// reads (three `Instant`s per chunk, accumulated into
    /// [`LaneTimes`]) — the per-edge loops below stay clock-free, and
    /// untimed ingestion takes a single branch per call.
    fn ingest_fp(
        &mut self,
        edges: &[Edge],
        fp_set: &[u64],
        umix: &[u64],
        scratch: &mut Vec<Edge>,
        timed: bool,
    ) {
        let start = timed.then(Instant::now);
        self.reducer.map_premixed_batch(edges, umix, scratch);
        let reduced_at = start.map(|_| Instant::now());
        self.oracle.observe_fp_batch(scratch, fp_set);
        if let (Some(start), Some(reduced_at)) = (start, reduced_at) {
            self.times.reduce_ns += (reduced_at - start).as_nanos() as u64;
            self.times.ingest_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Merge a sibling lane built from the same config and seed.
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.z, other.z,
            "Lane merge requires identical configuration (z guess)"
        );
        assert!(
            self.reducer.same_function(&other.reducer),
            "Lane merge requires identical hash functions"
        );
        self.oracle.merge(&other.oracle);
        self.times.merge(&other.times);
    }
}

/// State of the trivial regime (`k·α ≥ m`, Fig 1 line 1).
///
/// The paper returns `n/α` outright; that silently assumes the family
/// covers `Θ(n)` elements. We instead track the coverage of the whole
/// family with an `L0` sketch per Observation-2.4 group (`⌈m/k⌉ ≤ α+1`
/// groups of `k` consecutive sets) and return the best group's sound
/// `(2/3)`-discounted estimate — at most `n/α`-ish but never above the
/// true optimum.
#[derive(Debug, Clone)]
struct TrivialState {
    k: usize,
    groups: Vec<kcov_sketch::L0Estimator>,
    total: kcov_sketch::L0Estimator,
}

impl TrivialState {
    fn new(m: usize, k: usize, seed: u64) -> Self {
        let mut seq = kcov_hash::SeedSequence::labeled(seed, "trivial-branch");
        let num_groups = m.div_ceil(k.max(1)).max(1);
        TrivialState {
            k,
            groups: (0..num_groups)
                .map(|_| kcov_sketch::L0Estimator::new(32, 3, seq.next_seed()))
                .collect(),
            total: kcov_sketch::L0Estimator::new(48, 3, seq.next_seed()),
        }
    }

    fn observe_batch(&mut self, edges: &[Edge]) {
        for edge in edges {
            self.total.insert(edge.elem as u64);
            let g = (edge.set as usize / self.k.max(1)).min(self.groups.len() - 1);
            self.groups[g].insert(edge.elem as u64);
        }
    }

    /// Merge a sibling trivial state (bit-exact: every group and the
    /// total are union-merged `L0` sketches).
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.k, self.groups.len()),
            (other.k, other.groups.len()),
            "TrivialState merge requires identical configuration (k, groups)"
        );
        for (g, og) in self.groups.iter_mut().zip(&other.groups) {
            g.merge(og);
        }
        self.total.merge(&other.total);
    }

    /// Sound estimate: max of (best group's coverage, total/⌈m/k⌉),
    /// both discounted by the L0 error.
    fn estimate(&self) -> f64 {
        let best_group = self
            .groups
            .iter()
            .map(|g| g.estimate())
            .fold(0.0f64, f64::max);
        let by_total = self.total.estimate() / self.groups.len() as f64;
        (2.0 / 3.0) * best_group.max(by_total)
    }

    /// The best group's set indices (for reporting; Observation 2.4).
    fn best_group_sets(&self, m: usize) -> Vec<u32> {
        let best = self
            .groups
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.estimate().partial_cmp(&b.1.estimate()).expect("no NaN"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let lo = best * self.k;
        (lo..(lo + self.k).min(m)).map(|s| s as u32).collect()
    }
}

impl SpaceUsage for TrivialState {
    /// The whole-family `total` sketch and the Observation-2.4 `groups`
    /// family (aggregated into one shared child, like every
    /// variable-count structure in the stack).
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        self.total.space_ledger(node.child("total"));
        let groups = node.child("groups");
        for g in &self.groups {
            g.space_ledger(groups);
        }
    }
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct EstimateOutcome {
    /// The final α-approximate estimate of `|C(OPT)|`.
    pub estimate: f64,
    /// Whether the trivial `k·α ≥ m` branch answered.
    pub trivial: bool,
    /// Winning guess `z` (0 in the trivial branch).
    pub winning_z: u64,
    /// Winning subroutine.
    pub winner: Option<SubroutineKind>,
    /// Reporting witness of the winning lane.
    pub witness: Option<Witness>,
    /// Index of the winning lane (for witness expansion).
    pub winning_lane: Option<usize>,
    /// Resident space at finalize, in words.
    pub space_words: usize,
}

/// Single-pass streaming `Õ(α)`-approximate estimator of the optimal
/// coverage size of `Max k-Cover` in `Õ(m/α²)` space (Theorem 3.1).
#[derive(Debug, Clone)]
pub struct MaxCoverEstimator {
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    threads: usize,
    trivial: Option<TrivialState>,
    /// The hash-once front end: one set and one element fingerprint per
    /// raw edge, shared by every lane (`None` in the trivial regime).
    fps: Option<EdgeFingerprints>,
    /// Reusable fingerprint-column scratch for the batched path. Pure
    /// scratch: never serialized, never merged, and absent from space
    /// accounting (it is transient working memory, not sketch state).
    block: FingerprintBlock,
    /// Reusable reduced-chunk scratch, one per ingest worker (index 0 on
    /// the serial path): each lane's range-reduced copy of the chunk.
    /// Pure scratch like `block`: never serialized, merged or counted.
    reduced: Vec<Vec<Edge>>,
    lanes: Vec<Lane>,
    rec: Recorder,
    /// Stream edges ingested (telemetry: merged by addition; every lane
    /// consumes every edge, so this is also each lane's edge count).
    edges_seen: u64,
    /// Heartbeat cadence in edges (0 = off; see
    /// [`EstimatorConfig::heartbeat_every`]).
    heartbeat_every: u64,
    /// Which stream shard this replica ingests (0 = coordinator);
    /// stamped onto buffered heartbeats for deterministic emission.
    shard_id: u64,
    /// Buffered heartbeat snapshots, plain data — never emitted from
    /// ingestion threads; concatenated on merge, sorted and emitted at
    /// finalize.
    heartbeats: Vec<HeartbeatSnap>,
    /// Ingestion histograms (batch sizes/nanos, heartbeat deltas).
    hists: IngestHists,
    /// Aggregate sketch stats at the previous heartbeat (delta base).
    last_stats: SketchStats,
    /// Batch-granular wall totals for the lane-invariant stages
    /// (fingerprint fill, universe mix, trivial branch) — the
    /// stage-level raw material of the time-attribution ledger.
    times: StageTimes,
}

impl MaxCoverEstimator {
    /// Create an estimator for a stream over `n` elements and `m` sets,
    /// budget `k` and approximation target `α ∈ [1, √m]`.
    pub fn new(n: usize, m: usize, k: usize, alpha: f64, config: &EstimatorConfig) -> Self {
        // Fig 1 line 1: trivial regime.
        if (k as f64) * alpha >= m as f64 {
            return MaxCoverEstimator {
                trivial: Some(TrivialState::new(m, k, config.seed ^ 0x7121a1)),
                ..Self::empty(n, m, k, alpha, config)
            };
        }
        Self::with_lanes(n, m, k, alpha, config)
    }

    /// The estimator's `(z, rep)` lanes, built whatever `k·α` is: `new`
    /// past its trivial check, and pass 2 of the two-pass refinement,
    /// which runs its oracle lanes even when `k·α ≥ m`. Seeds are drawn
    /// in a fixed order (fingerprints, universe mix, then one oracle
    /// seed per lane) that the benchmark's shadow pipeline mirrors.
    pub(crate) fn with_lanes(
        n: usize,
        m: usize,
        k: usize,
        alpha: f64,
        config: &EstimatorConfig,
    ) -> Self {
        let mut seq = kcov_hash::SeedSequence::labeled(config.seed, "estimate-max-cover");
        // Hash-once front end: one estimator-global fingerprint pair per
        // raw edge, at a degree sized for the *full* instance (m·n key
        // space) so every lane's cheap downstream mix composes soundly.
        let fps = EdgeFingerprints::new(config.seed, Params::hash_degree(config.mode, m, n));
        // One universe-reduction mix for every `(z, rep)` lane: the mix
        // column is evaluated once per chunk and each lane applies only
        // its own range reduction. The coupling across lanes this
        // introduces is harmless (Lemma 3.5 is per lane; the final max
        // needs no cross-lane independence) and it removes one degree-4
        // polynomial evaluation per lane per edge plus all but one copy
        // of the mix coefficients.
        let umix = UniverseReducer::shared_mix(
            kcov_hash::SeedSequence::labeled(config.seed, "universe-mix").next_seed(),
        );
        let zs: Vec<u64> = config.z_guesses.clone().unwrap_or_else(|| {
            let mut zs = Vec::new();
            let mut z = 4u64;
            while z < 2 * n as u64 {
                zs.push(z);
                z *= 2;
            }
            zs
        });
        let mut lanes = Vec::new();
        for &z in &zs {
            let params = Params::for_mode(config.mode, m, z as usize, k, alpha);
            let reps = config.reps.unwrap_or(params.reduction_reps).max(1);
            for _ in 0..reps {
                lanes.push(Lane {
                    z,
                    reducer: UniverseReducer::with_shared_mix(
                        z,
                        umix.clone(),
                        fps.elem_base().clone(),
                    ),
                    oracle: Oracle::with_base(
                        z as usize,
                        &params,
                        config.reporting,
                        seq.next_seed(),
                        fps.set_base().clone(),
                    ),
                    times: LaneTimes::default(),
                });
            }
        }
        MaxCoverEstimator {
            fps: Some(fps),
            lanes,
            ..Self::empty(n, m, k, alpha, config)
        }
    }

    /// An estimator with neither a trivial state nor lanes yet.
    fn empty(n: usize, m: usize, k: usize, alpha: f64, config: &EstimatorConfig) -> Self {
        assert!(n >= 1 && m >= 1 && k >= 1, "need n, m, k >= 1");
        assert!(alpha >= 1.0, "alpha must be >= 1");
        MaxCoverEstimator {
            n,
            m,
            k,
            alpha,
            threads: config.threads.max(1),
            trivial: None,
            fps: None,
            block: FingerprintBlock::default(),
            reduced: Vec::new(),
            lanes: Vec::new(),
            rec: config.recorder.clone(),
            edges_seen: 0,
            heartbeat_every: config.effective_heartbeat(),
            shard_id: 0,
            heartbeats: Vec::new(),
            hists: IngestHists::default(),
            last_stats: SketchStats::default(),
            times: StageTimes::default(),
        }
    }

    /// Observe one `(set, element)` edge: the batched engine on a
    /// one-edge chunk, with no clocks and no batch histogram.
    ///
    /// A one-edge chunk costs about 10–12× an edge's share of a
    /// 1024-edge chunk (E30), so feed streams through
    /// [`MaxCoverEstimator::observe_batch`] and keep this for callers
    /// that really see one edge at a time. Heartbeats fire at each
    /// multiple of the cadence.
    pub fn observe(&mut self, edge: Edge) {
        let seen_before = self.edges_seen;
        self.edges_seen += 1;
        self.dispatch_batch(&[edge], false);
        if telemetry::crosses_beat(seen_before, 1, self.heartbeat_every) {
            self.capture_heartbeat();
        }
    }

    /// Observe a chunk of edges through the batched ingestion engine.
    ///
    /// Determinism guarantee: lanes are mutually independent (each owns
    /// its seeded reducer hash and oracle state) and every lane consumes
    /// every chunk in arrival order, so the final state — and therefore
    /// [`MaxCoverEstimator::finalize`] — is bit-identical for *any*
    /// chunking, one-edge [`MaxCoverEstimator::observe`] calls included,
    /// and *any* thread count. With `threads > 1` the lanes are sharded
    /// across `std::thread::scope` workers per chunk.
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        if edges.is_empty() {
            return;
        }
        // Batch telemetry: one clock read per *batch* (never per edge),
        // recorded into replica-local histograms — no sink access here,
        // so this path stays safe on ingestion worker threads.
        let timed = self.rec.is_enabled();
        let start = timed.then(Instant::now);
        let seen_before = self.edges_seen;
        self.edges_seen += edges.len() as u64;
        self.dispatch_batch(edges, timed);
        if let Some(start) = start {
            self.hists.batch_edges.record(edges.len() as u64);
            self.hists
                .batch_ns
                .record(start.elapsed().as_nanos() as u64);
        }
        // Capture at the first batch boundary at or after each multiple
        // of the cadence (one snapshot per batch even when a big batch
        // crosses several multiples) — a pure function of the chunking.
        if telemetry::crosses_beat(seen_before, edges.len() as u64, self.heartbeat_every) {
            self.capture_heartbeat();
        }
    }

    /// The batched ingestion engine behind [`MaxCoverEstimator::observe_batch`].
    ///
    /// Hash-once: the fingerprint columns for the whole chunk are filled
    /// exactly once (two batched base evaluations against the raw
    /// stream), then shared read-only by every lane — serial or across
    /// the scoped worker threads.
    ///
    /// Time attribution is batch-granular: when `timed`, a handful of
    /// monotonic reads per *chunk* (stage boundaries plus one bracket
    /// per lane, each accumulated into replica-local plain `u64`s),
    /// never per edge; none at all otherwise.
    fn dispatch_batch(&mut self, edges: &[Edge], timed: bool) {
        if let Some(t) = &mut self.trivial {
            let start = timed.then(Instant::now);
            t.observe_batch(edges);
            if let Some(start) = start {
                self.times.trivial_ns += start.elapsed().as_nanos() as u64;
            }
            return;
        }
        let mut block = std::mem::take(&mut self.block);
        let start = timed.then(Instant::now);
        self.fps
            .as_ref()
            .expect("non-trivial estimator has fingerprints")
            .fill_block(edges, &mut block);
        if let Some(start) = start {
            self.times.hash_ns += start.elapsed().as_nanos() as u64;
        }
        // Lane-invariant universe mix: one column for every lane.
        if let Some(first) = self.lanes.first() {
            let start = timed.then(Instant::now);
            first.reducer.mix_batch(&block.fp_elem, &mut block.umix);
            if let Some(start) = start {
                self.times.universe_ns += start.elapsed().as_nanos() as u64;
            }
        }
        let (fp_set, umix) = (&block.fp_set[..], &block.umix[..]);
        let threads = self.threads.clamp(1, self.lanes.len().max(1));
        self.reduced.resize_with(threads, Vec::new);
        if threads <= 1 {
            let scratch = &mut self.reduced[0];
            for lane in &mut self.lanes {
                lane.ingest_fp(edges, fp_set, umix, scratch, timed);
            }
        } else {
            let shard = self.lanes.len().div_ceil(threads);
            std::thread::scope(|s| {
                for (chunk, scratch) in self.lanes.chunks_mut(shard).zip(&mut self.reduced) {
                    s.spawn(move || {
                        for lane in chunk {
                            lane.ingest_fp(edges, fp_set, umix, scratch, timed);
                        }
                    });
                }
            });
        }
        self.block = block;
    }

    /// Snapshot every lane's fill state into the replica-local
    /// heartbeat buffer (plain data — the recorder sink is never
    /// touched here, so capture is safe on sharded worker threads).
    fn capture_heartbeat(&mut self) {
        let mut lanes = Vec::with_capacity(self.lanes.len().max(1));
        let mut total = SketchStats::default();
        if let Some(t) = &self.trivial {
            lanes.push(LaneBeat {
                lane: 0,
                z: 0,
                lc_fill: 0,
                ls_fill: 0,
                ss_fill: 0,
                evictions: 0,
                space_words: t.space_words() as u64,
                ns: self.times.trivial_ns,
            });
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            let (lc, ls, ss) = lane.oracle.heartbeat_stats();
            let ss = ss.unwrap_or_default();
            let mut agg = lc;
            agg.absorb(ls);
            agg.absorb(ss);
            lanes.push(LaneBeat {
                lane: i as u64,
                z: lane.z,
                lc_fill: lc.fill,
                ls_fill: ls.fill,
                ss_fill: ss.fill,
                evictions: agg.evictions,
                space_words: (lane.oracle.space_words() + lane.reducer.space_words()) as u64,
                ns: lane.times.ingest_ns,
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

    /// Merge another estimator built from the same instance shape,
    /// configuration and seed, as if this estimator had also observed
    /// every edge `other` observed.
    ///
    /// This is the top of the merge monoid lifted through the whole
    /// stack (sketches → subroutines → oracle → lanes): merging two
    /// replicas that ingested disjoint shards of a stream yields a state
    /// equivalent to single-stream ingestion of the concatenation (see
    /// DESIGN.md §8 for which layers are bit-exact and which satisfy a
    /// canonical-equivalence contract). Merge is commutative and
    /// associative; a freshly constructed replica is the identity.
    ///
    /// Panics when the two estimators were built from different shapes,
    /// configurations, or seeds.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.n, self.m, self.k, self.alpha.to_bits()),
            (other.n, other.m, other.k, other.alpha.to_bits()),
            "MaxCoverEstimator merge requires identical configuration (instance shape)"
        );
        self.edges_seen += other.edges_seen;
        self.heartbeats.extend(other.heartbeats.iter().cloned());
        self.hists.merge(&other.hists);
        self.last_stats.absorb(other.last_stats);
        self.times.merge(&other.times);
        match (&mut self.trivial, &other.trivial) {
            (Some(a), Some(b)) => {
                a.merge(b);
                return;
            }
            (None, None) => {}
            _ => panic!("MaxCoverEstimator merge requires identical configuration (regime)"),
        }
        if let (Some(a), Some(b)) = (&self.fps, &other.fps) {
            assert!(
                a.same_function(b),
                "MaxCoverEstimator merge requires identical hash functions (fingerprints)"
            );
        }
        assert_eq!(
            self.lanes.len(),
            other.lanes.len(),
            "MaxCoverEstimator merge requires identical configuration (lane count)"
        );
        for (lane, other_lane) in self.lanes.iter_mut().zip(&other.lanes) {
            lane.merge(other_lane);
        }
    }

    /// Ingest `edges` through `shards` full estimator replicas on scoped
    /// threads, then fold the replicas back into `self` with
    /// [`MaxCoverEstimator::merge`].
    ///
    /// The stream is split into `shards` contiguous chunks; replica `i`
    /// (a clone of `self`, sharing every seed) consumes chunk `i`
    /// through the batched engine in sub-chunks of `batch`. `self`
    /// consumes the first chunk inline. Must be called on a freshly
    /// constructed estimator (a fresh replica is the merge identity, so
    /// cloning pre-fed state would double-count its edges).
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
        // Workers only *measure* (a plain Instant each, no sink access);
        // the coordinator emits every event after the join, so the sink
        // lock is never touched from an ingestion thread.
        let timed = self.rec.is_enabled();
        let mut replicas: Vec<(MaxCoverEstimator, u64)> = Vec::new();
        let mut own_ns = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .enumerate()
                .map(|(i, part)| {
                    let mut replica = self.clone();
                    // Stamp the replica's heartbeats with its shard id so
                    // finalize can emit them in deterministic order.
                    replica.shard_id = i as u64 + 1;
                    s.spawn(move || {
                        let start = timed.then(Instant::now);
                        for chunk in part.chunks(batch.max(1)) {
                            replica.observe_batch(chunk);
                        }
                        let ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        (replica, ns)
                    })
                })
                .collect();
            let start = timed.then(Instant::now);
            for chunk in own.chunks(batch.max(1)) {
                self.observe_batch(chunk);
            }
            own_ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            replicas.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked")),
            );
        });
        if timed {
            self.rec.event(
                "shard",
                &[
                    ("shard", Value::from(0u64)),
                    ("edges", Value::from(own.len() as u64)),
                    ("ns", Value::from(own_ns)),
                ],
            );
            for (i, (replica, ns)) in replicas.iter().enumerate() {
                self.rec.event(
                    "shard",
                    &[
                        ("shard", Value::from(i as u64 + 1)),
                        ("edges", Value::from(replica.edges_seen)),
                        ("ns", Value::from(*ns)),
                    ],
                );
            }
        }
        let merge_span = self.rec.span("merge");
        for (replica, _) in &replicas {
            self.merge(replica);
        }
        merge_span.finish();
    }

    /// Finalize after the pass (Theorem 3.6 acceptance). When the
    /// configured recorder is enabled, this also emits the finalize-time
    /// snapshot: one "lane" event per `(z, rep)` lane, per-subroutine
    /// "subroutine"/"sketch" events, a closing "summary" event, and the
    /// space ledger whose subtrees carry each subroutine's words.
    pub fn finalize(&self) -> EstimateOutcome {
        let span = self.rec.span("finalize");
        let outcome = self.finalize_outcome();
        self.record_snapshot(&outcome);
        span.finish();
        outcome
    }

    fn finalize_outcome(&self) -> EstimateOutcome {
        if let Some(t) = &self.trivial {
            return EstimateOutcome {
                estimate: t.estimate().min(self.n as f64 / 1.0),
                trivial: true,
                winning_z: 0,
                winner: None,
                witness: None,
                winning_lane: None,
                space_words: self.space_words(),
            };
        }
        // est_z = max over the z's repetitions.
        let mut per_lane: Vec<(usize, u64, OracleOutput)> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| (i, lane.z, lane.oracle.finalize()))
            .collect();
        // Prefer qualifying lanes (est_z ≥ z/(4α)); among them, the
        // largest estimate. Fall back to the best overall estimate.
        per_lane.sort_by(|a, b| a.2.estimate.partial_cmp(&b.2.estimate).expect("no NaN"));
        let qualifying = per_lane
            .iter()
            .rev()
            .find(|(_, z, out)| out.estimate >= *z as f64 / (4.0 * self.alpha));
        let pick = qualifying.or_else(|| per_lane.last());
        match pick {
            Some(&(idx, z, ref out)) if out.estimate > 0.0 => EstimateOutcome {
                estimate: out.estimate,
                trivial: false,
                winning_z: z,
                winner: out.winner,
                witness: out.witness.clone(),
                winning_lane: Some(idx),
                space_words: self.space_words(),
            },
            _ => EstimateOutcome {
                estimate: 0.0,
                trivial: false,
                winning_z: 0,
                winner: None,
                witness: None,
                winning_lane: None,
                space_words: self.space_words(),
            },
        }
    }

    /// Emit the finalize-time observability snapshot (a no-op when the
    /// recorder is disabled). The per-lane oracle finalizations here
    /// re-run the (cheap, state-free) estimate extraction; they do not
    /// mutate any stream state.
    fn record_snapshot(&self, outcome: &EstimateOutcome) {
        self.record_stage("estimate", "estimator", |rec| {
            if let Some(t) = &self.trivial {
                rec.event(
                    "subroutine",
                    &[
                        ("lane", Value::from(0u64)),
                        ("name", Value::from("trivial")),
                        ("estimate", Value::from(t.estimate())),
                    ],
                );
            }
            if self.fps.is_some() {
                // The estimator-global hash-once front end, shared by every
                // lane (lanes count 1-word handles on the shared bases).
                rec.event(
                    "subroutine",
                    &[
                        ("lane", Value::from(0u64)),
                        ("name", Value::from("fingerprints")),
                        ("estimate", Value::from(f64::NAN)),
                    ],
                );
            }
            if !self.lanes.is_empty() {
                // The lane-invariant universe-reduction mix, shared by every
                // lane and attributed once (lanes count 1-word handles).
                rec.event(
                    "subroutine",
                    &[
                        ("lane", Value::from(0u64)),
                        ("name", Value::from("universe")),
                        ("estimate", Value::from(f64::NAN)),
                    ],
                );
            }
            for (i, lane) in self.lanes.iter().enumerate() {
                let out = lane.oracle.finalize();
                let qualifying = out.estimate >= lane.z as f64 / (4.0 * self.alpha);
                rec.event(
                    "lane",
                    &[
                        ("lane", Value::from(i as u64)),
                        ("z", Value::from(lane.z)),
                        ("edges", Value::from(self.edges_seen)),
                        ("estimate", Value::from(out.estimate)),
                        (
                            "winner",
                            Value::from(out.winner.map_or("none", SubroutineKind::name)),
                        ),
                        ("qualifying", Value::from(qualifying)),
                    ],
                );
                lane.oracle.record_snapshot(rec, i);
                rec.event(
                    "subroutine",
                    &[
                        ("lane", Value::from(i as u64)),
                        ("name", Value::from("reducer")),
                        ("estimate", Value::from(f64::NAN)),
                    ],
                );
            }
            rec.event(
                "summary",
                &[
                    ("estimate", Value::from(outcome.estimate)),
                    ("winning_z", Value::from(outcome.winning_z)),
                    (
                        "winner",
                        Value::from(outcome.winner.map_or("none", SubroutineKind::name)),
                    ),
                    ("trivial", Value::from(outcome.trivial)),
                    ("space_words", Value::from(outcome.space_words)),
                    ("edges", Value::from(self.edges_seen)),
                ],
            );
            rec.gauge("estimate", outcome.estimate);
            rec.gauge("space_words", outcome.space_words as f64);
            rec.incr("edges.total", self.edges_seen);
            rec.incr("lanes.total", self.lanes.len() as u64);
            // Space-attribution ledger, emitted after every pre-existing
            // event so their sequence numbers are untouched. Its finalize
            // contract (DESIGN.md §13): leaves-only attribution summing to
            // `space_words` exactly.
            let ledger = self.space_ledger_tree();
            let violations = audit::space_ledger_violations(&ledger, outcome.space_words as u64);
            assert!(
                violations.is_empty(),
                "space ledger violations: {violations:?}"
            );
            ledger.emit(rec);
        });
    }

    /// Emit one stage's ingest telemetry around `body`'s events (a no-op
    /// when the recorder is disabled): the buffered heartbeats tagged
    /// `stage` and the ingest histograms before them, then the
    /// time-attribution ledger rooted at `root` and its
    /// `time_ledger_meta`. The single-pass estimator is stage
    /// `estimate`; pass 2 of the two-pass refinement is stage `pass2`.
    pub(crate) fn record_stage(&self, stage: &str, root: &str, body: impl FnOnce(&Recorder)) {
        let rec = &self.rec;
        if !rec.is_enabled() {
            return;
        }
        telemetry::emit_heartbeats(rec, stage, &self.heartbeats);
        let hists = match stage {
            "estimate" => "ingest".to_string(),
            _ => format!("{stage}.ingest"),
        };
        self.hists.emit(rec, &hists);
        body(rec);
        // Time-attribution ledger (DESIGN.md §15). Its finalize
        // contract: leaves-only attribution and ns conservation against
        // the measured batch wall clock, at most `threads` lanes
        // overlapping.
        let times = self.time_ledger_rooted(root);
        let threads = self.threads.max(1) as u64;
        let violations = audit::time_ledger_violations(&times, self.hists.batch_ns.sum(), threads);
        assert!(
            violations.is_empty(),
            "{root} time ledger violations: {violations:?}"
        );
        times.emit(rec);
        rec.event(
            "time_ledger_meta",
            &[
                ("stage", Value::from(stage)),
                ("root", Value::from(times.name())),
                ("threads", Value::from(threads)),
                ("ns", Value::from(times.total_ns())),
            ],
        );
    }

    /// Convenience: run over a finite edge stream through
    /// [`MaxCoverEstimator::ingest_sharded`] with `config.shards`
    /// replicas, in chunks of `batch` edges. The outcome, resident
    /// space included, is the same for every shard count and chunk size
    /// (every sketch merges to the serial state — DESIGN.md §8).
    pub fn run(
        n: usize,
        m: usize,
        k: usize,
        alpha: f64,
        config: &EstimatorConfig,
        edges: &[Edge],
        batch: usize,
    ) -> EstimateOutcome {
        let mut est = MaxCoverEstimator::new(n, m, k, alpha, config);
        let span = est.rec.span("ingest");
        est.ingest_sharded(edges, config.shards, batch);
        span.finish();
        est.finalize()
    }

    /// Access a lane's oracle (witness expansion in the report module).
    pub(crate) fn lane_oracle(&self, idx: usize) -> &Oracle {
        &self.lanes[idx].oracle
    }

    /// The trivial branch's best Observation-2.4 group, when active.
    pub(crate) fn trivial_best_group(&self) -> Option<Vec<u32>> {
        self.trivial.as_ref().map(|t| t.best_group_sets(self.m))
    }

    /// Number of `(z, rep)` lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The hash-once front end (`None` in the trivial regime).
    /// Profiling aid: benches time [`EdgeFingerprints::fill_block`]
    /// against the raw stream to price the hash phase separately.
    pub fn fingerprints(&self) -> Option<&EdgeFingerprints> {
        self.fps.as_ref()
    }

    /// Attach an observability recorder after wire reconstruction (the
    /// recorder is process-local and never serialized; a decoded replica
    /// wakes up with a disabled one).
    pub fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
    }

    /// Stamp this replica with its stream-shard id so buffered
    /// heartbeats sort deterministically at finalize. Worker processes
    /// call this with their shard index; in-process sharding does the
    /// equivalent internally.
    pub fn set_shard(&mut self, shard_id: u64) {
        self.shard_id = shard_id;
    }

    /// Total stream edges ingested (telemetry).
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// The stream-shard id stamped by [`MaxCoverEstimator::set_shard`].
    pub fn shard(&self) -> u64 {
        self.shard_id
    }

    /// The instance shape this estimator was built for.
    pub fn shape(&self) -> (usize, usize, usize, f64) {
        (self.n, self.m, self.k, self.alpha)
    }

    /// Build the space-attribution ledger for the current state: a tree
    /// rooted at `"estimator"` attributing every resident word to a
    /// `lane{i}/subroutine/component` path, with per-component heat
    /// counters (DESIGN.md §13). The finalize invariant — Σ leaf words
    /// == [`SpaceUsage::space_words`] exactly — holds at any point, not
    /// just at finalize, because both walk the same structures.
    pub fn space_ledger_tree(&self) -> SpaceLedger {
        let mut ledger = SpaceLedger::new("estimator");
        self.space_ledger(&mut ledger.root);
        ledger
    }

    /// Build the time-attribution ledger for the current state: a tree
    /// rooted at `"estimator"` whose *paths mirror the space ledger's*
    /// (`trivial`, `fingerprints`, the shared `universe` mix, per-lane
    /// `reducer` plus the oracle's subroutine/sketch subtree) and whose
    /// leaf values are the batch-granular wall totals, apportioned onto
    /// sketch leaves by the space ledger's heat counters
    /// ([`apportion_by_heat`], DESIGN.md §15).
    ///
    /// Shape is a pure function of configuration; *values* are
    /// wall-clock and carry no determinism promise. Recomputed on
    /// demand from the merged `ns` totals, so Σ shard trees == the
    /// merged tree exactly. All-zero (but correctly shaped) when the
    /// recorder was disabled or every edge came through the one-edge
    /// [`MaxCoverEstimator::observe`], which records no time.
    pub fn time_ledger_tree(&self) -> TimeLedger {
        self.time_ledger_rooted("estimator")
    }

    fn time_ledger_rooted(&self, root: &str) -> TimeLedger {
        let mut ledger = TimeLedger::new(root);
        let root = &mut ledger.root;
        if let Some(t) = &self.trivial {
            let mut space = LedgerNode::new();
            t.space_ledger(&mut space);
            apportion_by_heat(self.times.trivial_ns, &space, root.child("trivial"));
        }
        if self.fps.is_some() {
            root.leaf("fingerprints", self.times.hash_ns);
        }
        if !self.lanes.is_empty() {
            root.leaf("universe", self.times.universe_ns);
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            let ln = root.child(&format!("lane{i}"));
            ln.leaf("reducer", lane.times.reduce_ns);
            let mut space = LedgerNode::new();
            lane.oracle.space_ledger(&mut space);
            apportion_by_heat(lane.times.oracle_ns(), &space, ln);
        }
        ledger
    }
}

// ---- wire format ----------------------------------------------------
//
// The estimator is the root of the full-state format: a versioned
// header (magic, version, payload tag) followed by length-prefixed
// sections, so `merge-from` can reject foreign or stale replica files
// before decoding anything and a corrupt section length cannot walk
// into a neighbor. Inner types reuse the plain tagged encodings.

const TAG_TRIVIAL: u64 = 0x5456; // "TV"
const TAG_LANE: u64 = 0x4c4e; // "LN"
/// Payload tag of a full `MaxCoverEstimator` replica.
pub const TAG_ESTIMATOR: u64 = 0x4553_5449_4d41_5445; // "ESTIMATE"
const SEC_SHAPE: u64 = 0x0053_4841_5045; // "SHAPE"
const SEC_STATE: u64 = 0x0053_5441_5445; // "STATE"
const SEC_TELEMETRY: u64 = 0x0054_454c_454d; // "TELEM"

impl kcov_sketch::WireEncode for TrivialState {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::{put_l0_full, put_u64};
        put_u64(out, TAG_TRIVIAL);
        put_u64(out, self.k as u64);
        put_u64(out, self.groups.len() as u64);
        for g in &self.groups {
            put_l0_full(out, g);
        }
        put_l0_full(out, &self.total);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{err, take_l0_full, take_u64, take_vec};
        if take_u64(input)? != TAG_TRIVIAL {
            return Err(err("bad TrivialState tag"));
        }
        let k = take_u64(input)? as usize;
        let n = take_u64(input)? as usize;
        if n > input.len() {
            return Err(err("TrivialState group count exceeds input"));
        }
        let groups = take_vec(input, n, take_l0_full)?;
        if groups.is_empty() {
            // `observe` indexes `groups.len() - 1`.
            return Err(err("TrivialState needs at least one group"));
        }
        let total = take_l0_full(input)?;
        Ok(TrivialState { k, groups, total })
    }
}

impl kcov_sketch::WireEncode for Lane {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::put_u64;
        put_u64(out, TAG_LANE);
        put_u64(out, self.z);
        self.reducer.encode(out);
        self.oracle.encode(out);
        self.times.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{err, take_u64};
        if take_u64(input)? != TAG_LANE {
            return Err(err("bad Lane tag"));
        }
        let z = take_u64(input)?;
        let reducer = UniverseReducer::decode(input)?;
        if reducer.z() != z {
            return Err(err(format!(
                "Lane z {z} disagrees with its reducer's range {}",
                reducer.z()
            )));
        }
        let oracle = Oracle::decode(input)?;
        if oracle.shape().0 as u64 != z {
            return Err(err(format!(
                "Lane z {z} disagrees with its oracle's universe {}",
                oracle.shape().0
            )));
        }
        let times = LaneTimes::decode(input)?;
        Ok(Lane {
            z,
            reducer,
            oracle,
            times,
        })
    }
}

impl kcov_sketch::WireEncode for MaxCoverEstimator {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::{put_f64, put_header, put_section, put_u64};
        put_header(out, TAG_ESTIMATOR);
        put_section(out, SEC_SHAPE, |out| {
            put_u64(out, self.n as u64);
            put_u64(out, self.m as u64);
            put_u64(out, self.k as u64);
            put_f64(out, self.alpha);
            put_u64(out, self.threads as u64);
            put_u64(out, self.edges_seen);
            put_u64(out, self.heartbeat_every);
            put_u64(out, self.shard_id);
        });
        put_section(out, SEC_STATE, |out| match &self.trivial {
            Some(t) => {
                put_u64(out, 1);
                t.encode(out);
            }
            None => {
                put_u64(out, 0);
                self.fps
                    .as_ref()
                    .expect("non-trivial estimator has fingerprints")
                    .encode(out);
                put_u64(out, self.lanes.len() as u64);
                for lane in &self.lanes {
                    lane.encode(out);
                }
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
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{
            err, expect_section_end, take_f64, take_header, take_section, take_u64, take_vec,
        };
        take_header(input, TAG_ESTIMATOR)?;

        let mut shape = take_section(input, SEC_SHAPE)?;
        let n = take_u64(&mut shape)? as usize;
        let m = take_u64(&mut shape)? as usize;
        let k = take_u64(&mut shape)? as usize;
        let alpha = take_f64(&mut shape)?;
        let threads = take_u64(&mut shape)? as usize;
        let edges_seen = take_u64(&mut shape)?;
        let heartbeat_every = take_u64(&mut shape)?;
        let shard_id = take_u64(&mut shape)?;
        expect_section_end(SEC_SHAPE, shape)?;
        if n < 1 || m < 1 || k < 1 {
            return Err(err("estimator shape needs n, m, k >= 1"));
        }
        if alpha.is_nan() || alpha < 1.0 {
            return Err(err("estimator alpha must be >= 1"));
        }

        let mut state = take_section(input, SEC_STATE)?;
        let (trivial, fps, lanes) = match take_u64(&mut state)? {
            1 => (Some(TrivialState::decode(&mut state)?), None, Vec::new()),
            0 => {
                let fps = EdgeFingerprints::decode(&mut state)?;
                let num = take_u64(&mut state)? as usize;
                if num > state.len() {
                    return Err(err("estimator lane count exceeds input"));
                }
                let lanes = take_vec(&mut state, num, |state| {
                    let lane = Lane::decode(state)?;
                    if lane.oracle.shape().1 != m {
                        return Err(err(format!(
                            "lane built for {} sets in an estimator over {m}",
                            lane.oracle.shape().1
                        )));
                    }
                    Ok(lane)
                })?;
                (None, Some(fps), lanes)
            }
            flag => return Err(err(format!("bad estimator regime flag {flag}"))),
        };
        expect_section_end(SEC_STATE, state)?;

        let mut telem = take_section(input, SEC_TELEMETRY)?;
        let num_snaps = take_u64(&mut telem)? as usize;
        if num_snaps > telem.len() {
            return Err(err("estimator heartbeat count exceeds input"));
        }
        let heartbeats = take_vec(&mut telem, num_snaps, HeartbeatSnap::decode)?;
        let hists = IngestHists::decode(&mut telem)?;
        let last_stats = SketchStats::decode(&mut telem)?;
        let times = StageTimes::decode(&mut telem)?;
        expect_section_end(SEC_TELEMETRY, telem)?;

        Ok(MaxCoverEstimator {
            n,
            m,
            k,
            alpha,
            threads: threads.max(1),
            trivial,
            fps,
            block: FingerprintBlock::default(),
            reduced: Vec::new(),
            lanes,
            rec: Recorder::disabled(),
            edges_seen,
            heartbeat_every,
            shard_id,
            heartbeats,
            hists,
            last_stats,
            times,
        })
    }
}

impl SpaceUsage for MaxCoverEstimator {
    /// The root of the space-attribution tree. Child names deliberately
    /// match the finalize-time `"subroutine"` event names (`trivial`,
    /// `fingerprints`, the shared `universe` mix — counted once, each
    /// lane's reducer carries a 1-word handle — and per-lane
    /// `reducer`/`set_base`/`large_common`/`large_set`/`small_set`), so
    /// each subroutine's words are a subtree total
    /// ([`kcov_obs::audit::subroutine_path`]).
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        if let Some(t) = &self.trivial {
            t.space_ledger(node.child("trivial"));
        }
        if let Some(fps) = &self.fps {
            fps.space_ledger(node.child("fingerprints"));
        }
        if let Some(lane) = self.lanes.first() {
            node.leaf("universe", lane.reducer.mix_words());
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            let ln = node.child_indexed("lane", i);
            lane.reducer.space_ledger(ln.child("reducer"));
            lane.oracle.space_ledger(ln);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_baselines::greedy_max_cover;
    use kcov_stream::gen::{common_heavy, few_large, many_small, planted_cover};
    use kcov_stream::{edge_stream, ArrivalOrder};

    /// Test config: coarser z-grid (factor 4) and 2 reps — a constant-
    /// factor coarsening that keeps tests fast; experiments use the
    /// full grid in release builds.
    fn fast_config(seed: u64, n: usize) -> EstimatorConfig {
        let mut config = EstimatorConfig::practical(seed);
        let mut zs = Vec::new();
        let mut z = 16u64;
        while z < 2 * n as u64 {
            zs.push(z);
            z *= 4;
        }
        config.z_guesses = Some(zs);
        config.reps = Some(2);
        config
    }

    fn estimate(
        system: &kcov_stream::SetSystem,
        k: usize,
        alpha: f64,
        seed: u64,
    ) -> EstimateOutcome {
        let config = fast_config(seed, system.num_elements());
        let edges = edge_stream(system, ArrivalOrder::Shuffled(seed));
        MaxCoverEstimator::run(
            system.num_elements(),
            system.num_sets(),
            k,
            alpha,
            &config,
            &edges,
            1024,
        )
    }

    #[test]
    fn trivial_branch_when_k_alpha_exceeds_m() {
        // k·α = 40 ≥ m = 20 → trivial regime: the estimate is the best
        // Observation-2.4 group's (discounted) coverage, sound even
        // when the family covers little of U.
        let config = EstimatorConfig::practical(1);
        let mut est = MaxCoverEstimator::new(100, 20, 10, 4.0, &config);
        assert_eq!(est.num_lanes(), 0);
        // Feed a family covering exactly 40 elements: sets 0..10 cover
        // two elements each (sets 10..20 are empty).
        for s in 0..10u32 {
            est.observe(Edge::new(s, 2 * s));
            est.observe(Edge::new(s, 2 * s + 1));
        }
        let out = est.finalize();
        assert!(out.trivial);
        // Group {0..10} covers 20 elements; sound and within a small
        // factor of the true OPT(10) = 20.
        assert!(out.estimate <= 22.0, "overestimate: {}", out.estimate);
        assert!(out.estimate >= 8.0, "uselessly small: {}", out.estimate);
    }

    #[test]
    fn trivial_branch_empty_family_estimates_zero() {
        // The paper's literal `return n/α` would report 25 here; the
        // coverage-tracked variant correctly reports 0.
        let config = EstimatorConfig::practical(1);
        let est = MaxCoverEstimator::new(100, 20, 10, 4.0, &config);
        let out = est.finalize();
        assert!(out.trivial);
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn sandwich_on_planted_instance() {
        // est ∈ [OPT/Õ(α), OPT] on a planted instance.
        let inst = planted_cover(2000, 200, 10, 0.8, 40, 5);
        let opt = inst.planted_coverage as f64; // 1600
        let out = estimate(&inst.system, 10, 4.0, 7);
        assert!(out.estimate > 0.0, "estimator silent");
        assert!(
            out.estimate <= opt * 1.1,
            "overestimate: {} vs OPT {opt}",
            out.estimate
        );
        assert!(
            out.estimate >= opt / (4.0 * 40.0),
            "underestimate: {} vs OPT {opt}",
            out.estimate
        );
    }

    #[test]
    fn never_overestimates_across_regimes_and_seeds() {
        let cases: Vec<(kcov_stream::SetSystem, usize, f64)> = vec![
            (common_heavy(1000, 300, 1), 10, 5.0),
            (few_large(1000, 200, 3, 250, 2), 10, 5.0),
            (many_small(1000, 300, 30, 0.6, 3), 30, 5.0),
        ];
        for (i, (system, k, opt_like)) in cases.into_iter().enumerate() {
            let _ = opt_like;
            let g = greedy_max_cover(&system, k).coverage as f64;
            let opt_ub = g / (1.0 - 1.0 / std::f64::consts::E);
            for seed in 0..3u64 {
                let out = estimate(&system, k, 5.0, seed);
                assert!(
                    out.estimate <= opt_ub * 1.1,
                    "case {i} seed {seed}: {} > {opt_ub}",
                    out.estimate
                );
            }
        }
    }

    #[test]
    fn space_decreases_with_alpha() {
        let config = EstimatorConfig::practical(3);
        let small_alpha = MaxCoverEstimator::new(4000, 1000, 8, 2.0, &config).space_words();
        let large_alpha = MaxCoverEstimator::new(4000, 1000, 8, 16.0, &config).space_words();
        assert!(
            small_alpha as f64 > 1.5 * large_alpha as f64,
            "alpha=2 {small_alpha} vs alpha=16 {large_alpha}"
        );
    }

    #[test]
    fn single_z_guess_config() {
        let mut config = EstimatorConfig::practical(5);
        config.z_guesses = Some(vec![512]);
        config.reps = Some(2);
        let est = MaxCoverEstimator::new(2000, 300, 10, 4.0, &config);
        assert_eq!(est.num_lanes(), 2);
    }

    #[test]
    fn order_invariance_of_estimates() {
        // Single-pass sketches here are order-insensitive by
        // construction; the full estimator inherits that.
        let inst = planted_cover(800, 120, 8, 0.7, 30, 9);
        let config = fast_config(11, 800);
        let n = inst.system.num_elements();
        let m = inst.system.num_sets();
        let e1 = edge_stream(&inst.system, ArrivalOrder::SetContiguous);
        let e2 = edge_stream(&inst.system, ArrivalOrder::Shuffled(4));
        let r1 = MaxCoverEstimator::run(n, m, 8, 3.0, &config, &e1, 1024);
        let r2 = MaxCoverEstimator::run(n, m, 8, 3.0, &config, &e2, 1024);
        let rel = (r1.estimate - r2.estimate).abs() / r1.estimate.max(1.0);
        assert!(
            rel < 0.35,
            "order sensitivity too high: {} vs {}",
            r1.estimate,
            r2.estimate
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 1")]
    fn alpha_below_one_rejected() {
        let _ = MaxCoverEstimator::new(10, 10, 2, 0.9, &EstimatorConfig::practical(1));
    }

    #[test]
    fn merge_matches_serial_ingestion() {
        let inst = planted_cover(800, 120, 8, 0.7, 30, 21);
        let n = inst.system.num_elements();
        let m = inst.system.num_sets();
        let config = fast_config(13, n);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
        let mid = edges.len() / 3;

        let mut serial = MaxCoverEstimator::new(n, m, 8, 3.0, &config);
        serial.observe_batch(&edges);
        let mut a = MaxCoverEstimator::new(n, m, 8, 3.0, &config);
        let mut b = a.clone();
        a.observe_batch(&edges[..mid]);
        b.observe_batch(&edges[mid..]);
        a.merge(&b);

        let s = serial.finalize();
        let g = a.finalize();
        assert_eq!(s.estimate.to_bits(), g.estimate.to_bits());
        assert_eq!(s.winning_z, g.winning_z);
        assert_eq!(s.winner, g.winner);
    }

    #[test]
    fn estimators_sharing_a_thread_do_not_see_each_others_scratch() {
        // The batch kernels take their columns from a per-thread pool.
        // Two estimators of different shapes, fed alternately on one
        // thread with chunks of different lengths, must end in the
        // same bytes as each one fed alone on a fresh thread.
        use kcov_sketch::WireEncode;
        let a_inst = planted_cover(800, 120, 8, 0.7, 30, 21).system;
        let b_inst = few_large(2000, 300, 3, 500, 8);
        let build = |sys: &kcov_stream::SetSystem, k, alpha, seed| {
            let config = fast_config(seed, sys.num_elements());
            MaxCoverEstimator::new(sys.num_elements(), sys.num_sets(), k, alpha, &config)
        };
        let (a_edges, b_edges) = (
            edge_stream(&a_inst, ArrivalOrder::Shuffled(2)),
            edge_stream(&b_inst, ArrivalOrder::Shuffled(3)),
        );
        let (a_chunk, b_chunk) = (1000, 37);
        let alone = |mut est: MaxCoverEstimator, edges: Vec<Edge>, chunk: usize| {
            std::thread::spawn(move || {
                for c in edges.chunks(chunk) {
                    est.observe_batch(c);
                }
                est.to_bytes()
            })
            .join()
            .unwrap()
        };
        let a_alone = alone(build(&a_inst, 8, 3.0, 13), a_edges.clone(), a_chunk);
        let b_alone = alone(build(&b_inst, 10, 6.0, 19), b_edges.clone(), b_chunk);
        let (mut a, mut b) = (build(&a_inst, 8, 3.0, 13), build(&b_inst, 10, 6.0, 19));
        let (mut ai, mut bi) = (a_edges.chunks(a_chunk), b_edges.chunks(b_chunk));
        loop {
            let (ca, cb) = (ai.next(), bi.next());
            if ca.is_none() && cb.is_none() {
                break;
            }
            if let Some(c) = ca {
                a.observe_batch(c);
            }
            if let Some(c) = cb {
                b.observe_batch(c);
            }
        }
        assert!(a_alone == a.to_bytes(), "first estimator's bytes moved");
        assert!(b_alone == b.to_bytes(), "second estimator's bytes moved");
    }

    #[test]
    fn merge_matches_serial_in_trivial_regime() {
        let config = EstimatorConfig::practical(1);
        let mut serial = MaxCoverEstimator::new(100, 20, 10, 4.0, &config);
        let mut a = MaxCoverEstimator::new(100, 20, 10, 4.0, &config);
        let mut b = a.clone();
        for s in 0..10u32 {
            serial.observe(Edge::new(s, 2 * s));
            serial.observe(Edge::new(s, 2 * s + 1));
            if s < 5 {
                a.observe(Edge::new(s, 2 * s));
                a.observe(Edge::new(s, 2 * s + 1));
            } else {
                b.observe(Edge::new(s, 2 * s));
                b.observe(Edge::new(s, 2 * s + 1));
            }
        }
        a.merge(&b);
        let s = serial.finalize();
        let g = a.finalize();
        assert!(s.trivial && g.trivial);
        assert_eq!(s.estimate.to_bits(), g.estimate.to_bits());
        assert_eq!(s.space_words, g.space_words);
    }

    #[test]
    fn time_ledger_merges_additively_across_shards() {
        let inst = planted_cover(800, 120, 8, 0.7, 30, 21);
        let n = inst.system.num_elements();
        let m = inst.system.num_sets();
        let config = fast_config(13, n);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));

        for shards in [1usize, 2, 4, 7] {
            let rec = Recorder::enabled();
            let chunk_len = edges.len().div_ceil(shards);
            let mut replicas: Vec<MaxCoverEstimator> = (0..shards)
                .map(|_| {
                    let mut r = MaxCoverEstimator::new(n, m, 8, 3.0, &config);
                    r.attach_recorder(&rec);
                    r
                })
                .collect();
            for (replica, part) in replicas.iter_mut().zip(edges.chunks(chunk_len)) {
                for chunk in part.chunks(64) {
                    replica.observe_batch(chunk);
                }
            }

            // Per-subtree expectations before the fold: attribution is a
            // plain sum of u64 counters, so Σ shard ns must equal the
            // merged ns *exactly* — not approximately.
            let part_total: u64 = replicas
                .iter()
                .map(|r| r.time_ledger_tree().root.total_ns())
                .sum();
            let mut subtree: Vec<(String, u64)> = Vec::new();
            for r in &replicas {
                for (name, node) in r.time_ledger_tree().root.children() {
                    match subtree.iter_mut().find(|(n, _)| n == name) {
                        Some((_, ns)) => *ns += node.total_ns(),
                        None => subtree.push((name.to_string(), node.total_ns())),
                    }
                }
            }
            assert!(
                part_total > 0,
                "shards={shards}: traced ingestion attributed no ns"
            );

            let mut merged = replicas.remove(0);
            for r in &replicas {
                merged.merge(r);
            }
            let ledger = merged.time_ledger_tree();
            assert_eq!(
                ledger.root.total_ns(),
                part_total,
                "shards={shards}: merged root ns is not the exact shard sum"
            );
            for (name, want) in &subtree {
                let got = ledger
                    .root
                    .get(name)
                    .map_or(0, kcov_obs::TimeNode::total_ns);
                assert_eq!(got, *want, "shards={shards}: subtree '{name}' not additive");
            }
            assert!(
                ledger.audit().is_empty(),
                "shards={shards}: merged ledger fails audit: {:?}",
                ledger.audit()
            );
        }
    }

    #[test]
    #[should_panic(expected = "identical configuration (instance shape)")]
    fn merge_rejects_shape_mismatch() {
        let config = fast_config(3, 800);
        let mut a = MaxCoverEstimator::new(800, 120, 8, 3.0, &config);
        let b = MaxCoverEstimator::new(800, 120, 9, 3.0, &config);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration (lane count)")]
    fn merge_rejects_lane_count_mismatch() {
        let mut c1 = fast_config(3, 800);
        let mut c2 = c1.clone();
        c1.reps = Some(2);
        c2.reps = Some(3);
        let mut a = MaxCoverEstimator::new(800, 120, 8, 3.0, &c1);
        let b = MaxCoverEstimator::new(800, 120, 8, 3.0, &c2);
        a.merge(&b);
    }

    #[test]
    fn ingest_sharded_matches_serial_run() {
        let inst = planted_cover(600, 100, 6, 0.7, 20, 31);
        let n = inst.system.num_elements();
        let m = inst.system.num_sets();
        let config = fast_config(17, n);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
        let serial = MaxCoverEstimator::run(n, m, 6, 3.0, &config, &edges, edges.len());
        for shards in [1usize, 3, 4] {
            let sharded_config = config.clone().with_shards(shards);
            let out = MaxCoverEstimator::run(n, m, 6, 3.0, &sharded_config, &edges, 128);
            assert_eq!(
                serial.estimate.to_bits(),
                out.estimate.to_bits(),
                "shards={shards}"
            );
            assert_eq!(serial.winning_z, out.winning_z, "shards={shards}");
            assert_eq!(serial.winner, out.winner, "shards={shards}");
        }
    }

    #[test]
    fn space_ledger_attributes_every_word_per_lane() {
        let inst = planted_cover(600, 100, 6, 0.7, 20, 31);
        let n = inst.system.num_elements();
        let m = inst.system.num_sets();
        let config = fast_config(17, n);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
        let mut est = MaxCoverEstimator::new(n, m, 6, 3.0, &config);
        est.ingest_sharded(&edges, 1, 256);
        let ledger = est.space_ledger_tree();
        let violations = audit::space_ledger_violations(&ledger, est.space_words() as u64);
        assert!(violations.is_empty(), "{violations:?}");
        // Per-lane partial sums match the PR 3 accounting exactly.
        assert!(!est.lanes.is_empty());
        for (i, lane) in est.lanes.iter().enumerate() {
            let node = ledger.root.get(&format!("lane{i}")).expect("lane subtree");
            assert_eq!(
                node.total_words(),
                (lane.oracle.space_words() + lane.reducer.space_words()) as u64,
                "lane {i}"
            );
        }
        let fps = ledger
            .root
            .get("fingerprints")
            .expect("fingerprint subtree");
        assert_eq!(
            fps.total_words(),
            est.fps.as_ref().unwrap().space_words() as u64
        );
        // The stream left heat somewhere in the tree.
        assert!(ledger.root.total_updates() > 0, "no heat recorded");
    }

    #[test]
    fn space_ledger_covers_the_trivial_regime() {
        let config = EstimatorConfig::practical(1);
        let mut est = MaxCoverEstimator::new(100, 20, 10, 4.0, &config);
        for s in 0..10u32 {
            est.observe(Edge::new(s, 2 * s));
            est.observe(Edge::new(s, 2 * s + 1));
        }
        let ledger = est.space_ledger_tree();
        let violations = audit::space_ledger_violations(&ledger, est.space_words() as u64);
        assert!(violations.is_empty(), "{violations:?}");
        let trivial = ledger.root.get("trivial").expect("trivial subtree");
        assert_eq!(
            trivial.total_words(),
            est.trivial.as_ref().unwrap().space_words() as u64
        );
        assert!(trivial.total_updates() > 0, "trivial L0s carry heat");
    }

    #[test]
    fn sharded_ingestion_with_more_shards_than_edges() {
        // chunks() yields fewer parts than shards, so some replicas are
        // never created; the outcome must still match serial ingestion.
        let config = fast_config(19, 800);
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
        let serial = MaxCoverEstimator::run(800, 120, 8, 3.0, &config, &edges, 64);
        let sharded_config = config.clone().with_shards(7);
        let out = MaxCoverEstimator::run(800, 120, 8, 3.0, &sharded_config, &edges, 64);
        assert_eq!(serial.estimate.to_bits(), out.estimate.to_bits());
    }
}
