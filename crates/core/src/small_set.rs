//! `SmallSet` — set + element sampling for covers made of many small
//! sets (paper §4.3, Fig 5).
//!
//! Handles the oracle's case III: `|C(OPT_large)| < |C(OPT)|/2`, i.e. an
//! optimal solution's coverage comes from many sets each contributing
//! less than `|C(OPT)|/(sα)`. Then (Lemma 4.16 / Corollary 4.19)
//! subsampling the *sets* at rate `Θ(1/(sα))` keeps a
//! `Θ(k/(sα))`-cover with coverage `Θ(|C(OPT)|/(sα))` alive, and
//! (Lemma 2.5) subsampling the *elements* to `Θ̃(γ·k')` per coverage
//! guess `γ` preserves constant-factor solutions. The induced
//! sub-instance has `Õ(m/α²)` edges (Lemmas 4.20/4.21), is stored
//! verbatim, and an offline `O(1)`-approximate greedy (`Max k'-Cover`)
//! runs on it after the pass; the result is rescaled by the element
//! sampling rate.
//!
//! Only active when `sα < 2k` (otherwise Claim 4.3 puts the instance in
//! `LargeSet`'s case).

use std::sync::Arc;

use kcov_hash::{KWise, RangeHash, SeedSequence, MERSENNE_P};
use kcov_obs::Space;
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::{Edge, SetSystem};

use crate::params::Params;
use crate::Witness;

/// One γ-guess lane storing its sampled sub-instance. Lanes within a
/// repetition share the repetition's set- and element-sampling hashes:
/// the element samples are *nested* (`L_{γ} ⊇ L_{2γ}` via threshold
/// comparison on one hash value), so a repetition costs two hash
/// evaluations per edge regardless of how many γ guesses it carries.
/// Sharing across guesses is sound — each lane's guarantee (Lemma 2.5
/// for its γ) is individual and the union bound needs no independence
/// between lanes.
#[derive(Debug, Clone)]
struct Lane {
    /// Coverage-ratio guess (kept for experiment logging).
    #[allow(dead_code)]
    gamma: f64,
    /// Element `e ∈ L` iff `rep.ehash(e) < e_keep` (probability `p_elem`).
    e_keep: u64,
    p_elem: f64,
    edges: Vec<Edge>,
    overflowed: bool,
}

/// One repetition: its sampling hashes and its γ lanes.
#[derive(Debug, Clone)]
struct Rep {
    /// Set `S ∈ M` iff `mhash(fp_set) < m_keep` (probability
    /// `≈ c/(sα)`, Lemma 4.16's `18/(sα)`): a 4-wise mix over the
    /// shared set fingerprint, threshold-compared instead of the old
    /// modulo idiom so the gate is one multiply chain and one compare.
    mhash: KWise,
    /// Element-sampling hash, keyed on the *reduced* pseudo-element
    /// (raw ids or fingerprints would bias the nested γ samples: two
    /// raw elements sharing a pseudo-element must share the decision).
    ehash: KWise,
    lanes: Vec<Lane>,
}

/// Single-pass case-III subroutine (Fig 5).
#[derive(Debug, Clone)]
pub struct SmallSet {
    u: usize,
    m: usize,
    /// Sub-cover budget `k' = Θ(k/(sα))` (paper: `36k/(sα)`).
    k_sub: usize,
    m_buckets: u64,
    /// Derived threshold realizing the `1/m_buckets` set-sampling rate:
    /// `MERSENNE_P / m_buckets` (recomputed at decode, never wired).
    /// `m_buckets = 1` gives `m_keep = P`, which every hash output
    /// (`< P`) passes — the always-sample case.
    m_keep: u64,
    edge_cap: usize,
    /// Shared set fingerprint base (hash-once hot path); one `Arc`'d
    /// coefficient table per process, 1-word handle in this holder's
    /// space accounting.
    set_base: Arc<KWise>,
    reps: Vec<Rep>,
}

impl SmallSet {
    /// Create the subroutine for universe size `u` with a private set
    /// fingerprint base (standalone use; estimator lanes share one base
    /// via [`SmallSet::with_base`]).
    pub fn new(u: usize, params: &Params, seed: u64) -> Self {
        let degree = Params::hash_degree(params.mode, params.m, params.n);
        let base_seed = SeedSequence::labeled(seed, "small-set-base").next_seed();
        Self::with_base(u, params, seed, Arc::new(KWise::new(degree, base_seed)))
    }

    /// Create the subroutine consuming set fingerprints under the shared
    /// `set_base`.
    pub fn with_base(u: usize, params: &Params, seed: u64, set_base: Arc<KWise>) -> Self {
        let mut seq = SeedSequence::labeled(seed, "small-set");
        let m = params.m;
        let k = params.k as f64;
        // k' = c·k/(sα); the paper's constant 36 collapses to 4 in
        // practical mode via s_alpha's own calibration.
        let k_sub = ((4.0 * k / params.s_alpha).ceil() as usize).clamp(1, params.k.max(1));
        // Set-sampling probability Θ(1/(sα)) — Lemma 4.16 with c = 2
        // (paper c = 18, absorbed into s_alpha's calibration).
        let p_set = (2.0 / params.s_alpha).min(1.0);
        let m_buckets = ((1.0 / p_set).round() as u64).max(1);
        let lmn = ((m.max(2) * u.max(2)) as f64).ln().max(2.0);
        // γ guesses: the coverage of the surviving k'-cover is |U|/γ for
        // some γ ≤ Θ(sαη); try powers of two up to that bound.
        let gamma_max = (4.0 * params.s_alpha * params.eta).max(2.0);
        let num_gammas = gamma_max.log2().ceil() as u32;
        let mut reps = Vec::new();
        for _ in 0..params.small_set_reps.max(1) {
            let mut lanes = Vec::new();
            for i in 0..=num_gammas {
                let gamma = (1u64 << i) as f64;
                // Element sample target Θ̃(γ·k') (Lemma 2.5).
                let l_target = (2.0 * gamma * k_sub as f64 * lmn).min(u as f64);
                let p_elem = (l_target / u.max(1) as f64).min(1.0);
                lanes.push(Lane {
                    gamma,
                    e_keep: (p_elem * MERSENNE_P as f64) as u64,
                    p_elem,
                    edges: Vec::new(),
                    overflowed: false,
                });
            }
            reps.push(Rep {
                mhash: KWise::new(4, seq.next_seed()),
                ehash: KWise::new(8, seq.next_seed()),
                lanes,
            });
        }
        SmallSet {
            u,
            m,
            k_sub,
            m_buckets,
            m_keep: MERSENNE_P / m_buckets,
            edge_cap: params.small_set_edge_cap,
            set_base,
            reps,
        }
    }

    /// One repetition's view of one edge (shared by the per-edge and
    /// batched paths so they stay state-identical by construction).
    /// `fp_set` is the shared set fingerprint `set_base(edge.set)`.
    #[inline]
    fn rep_observe(rep: &mut Rep, m_keep: u64, edge_cap: usize, edge: Edge, fp_set: u64) {
        if rep.mhash.hash(fp_set) >= m_keep {
            return;
        }
        let eh = rep.ehash.hash(edge.elem as u64);
        for lane in &mut rep.lanes {
            if lane.overflowed || eh >= lane.e_keep {
                continue;
            }
            if lane.edges.len() >= edge_cap {
                // Fig 5: "if S(L,M) > Õ(m/α²) then terminate" — the
                // lane aborts and frees its storage.
                lane.overflowed = true;
                lane.edges = Vec::new();
            } else {
                lane.edges.push(edge);
            }
        }
    }

    /// Observe one `(set, element)` edge (scalar compatibility path:
    /// applies the fingerprint base itself).
    pub fn observe(&mut self, edge: Edge) {
        let fp = self.set_base.hash(edge.set as u64);
        self.observe_fp(edge, fp);
    }

    /// Observe one edge given its precomputed set fingerprint: per
    /// repetition, one 4-wise mix gates membership in `M`, one element
    /// hash is threshold-compared per γ lane.
    #[inline]
    pub fn observe_fp(&mut self, edge: Edge, fp_set: u64) {
        for rep in &mut self.reps {
            Self::rep_observe(rep, self.m_keep, self.edge_cap, edge, fp_set);
        }
    }

    /// Observe a chunk of edges (scalar compatibility path).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        let fps: Vec<u64> = edges.iter().map(|e| self.set_base.hash(e.set as u64)).collect();
        self.observe_fp_batch(edges, &fps);
    }

    /// Observe a chunk given precomputed set fingerprints, columnar and
    /// repetition-outer: per repetition the set-sampling mix runs as one
    /// [`RangeHash::hash_batch`] over the chunk, survivors are gathered,
    /// their element hashes are batched, and the γ lanes consume the
    /// survivor column in arrival order. Each repetition (and therefore
    /// each γ lane, including its overflow cut-off) sees the same hash
    /// values in the same order as [`SmallSet::observe_fp`], so the
    /// final state — stored edges and overflow flags alike — is
    /// identical.
    pub fn observe_fp_batch(&mut self, edges: &[Edge], fps: &[u64]) {
        debug_assert_eq!(edges.len(), fps.len());
        let mut mh = Vec::new();
        let mut eh = Vec::new();
        let mut surv_edges: Vec<Edge> = Vec::with_capacity(edges.len());
        let mut surv_elems: Vec<u64> = Vec::with_capacity(edges.len());
        for rep in &mut self.reps {
            rep.mhash.hash_batch(fps, &mut mh);
            // Branch-free gather: every edge is written, the write
            // index advances by the set gate.
            surv_edges.resize(edges.len(), Edge { set: 0, elem: 0 });
            surv_elems.resize(edges.len(), 0);
            let mut kept = 0;
            for (&edge, &h) in edges.iter().zip(&mh) {
                surv_edges[kept] = edge;
                surv_elems[kept] = edge.elem as u64;
                kept += usize::from(h < self.m_keep);
            }
            if kept == 0 {
                continue;
            }
            rep.ehash.hash_batch(&surv_elems[..kept], &mut eh);
            for lane in &mut rep.lanes {
                if lane.overflowed {
                    continue;
                }
                for (&edge, &e) in surv_edges[..kept].iter().zip(&eh) {
                    if e >= lane.e_keep {
                        continue;
                    }
                    if lane.edges.len() >= self.edge_cap {
                        // Fig 5: "if S(L,M) > Õ(m/α²) then terminate" —
                        // the lane aborts and frees its storage.
                        lane.overflowed = true;
                        lane.edges = Vec::new();
                        break;
                    }
                    lane.edges.push(edge);
                }
            }
        }
    }

    /// Finalize: greedy `Max k'-Cover` on each stored sub-instance,
    /// rescaled by the element-sampling rate; the best accepted lane
    /// wins. `None` when no lane qualifies.
    pub fn finalize(&self) -> Option<(f64, Witness)> {
        let mut best: Option<(f64, Vec<u32>)> = None;
        for lane in self.reps.iter().flat_map(|r| r.lanes.iter()) {
            if lane.overflowed || lane.edges.is_empty() {
                continue;
            }
            let sub = SetSystem::from_edges(self.u, self.m, &lane.edges);
            let g = kcov_baselines::greedy_max_cover(&sub, self.k_sub);
            // Acceptance floor (the paper's `sol = Ω̃(k/α)`): reject
            // lanes whose sampled coverage is statistical noise.
            let floor = (self.k_sub as f64 / 2.0).max(6.0);
            if (g.coverage as f64) < floor {
                continue;
            }
            // Rescale to the full universe; halve against the upward
            // selection bias of maximizing over the sample (Lemma 4.23's
            // no-overestimate guarantee).
            let est = (0.5 * g.coverage as f64 / lane.p_elem.max(1e-300))
                .min(self.u as f64)
                .max(0.0);
            if best.as_ref().is_none_or(|(b, _)| est > *b) {
                let chosen: Vec<u32> = g.chosen.iter().map(|&i| i as u32).collect();
                best = Some((est, chosen));
            }
        }
        best.map(|(est, sets)| (est, Witness::ExplicitSets(sets)))
    }

    /// The sub-cover budget `k'`.
    pub fn k_sub(&self) -> usize {
        self.k_sub
    }

    /// Number of (γ, repetition) lanes.
    pub fn num_lanes(&self) -> usize {
        self.reps.iter().map(|r| r.lanes.len()).sum()
    }

    /// Aggregated lane-storage telemetry: stored edges as fill against
    /// the per-lane cap, overflow terminations as prunes.
    pub fn sketch_stats(&self) -> kcov_obs::SketchStats {
        let mut agg = kcov_obs::SketchStats::default();
        for lane in self.reps.iter().flat_map(|r| r.lanes.iter()) {
            agg.absorb(kcov_obs::SketchStats {
                updates: 0,
                fill: lane.edges.len() as u64,
                capacity: self.edge_cap as u64,
                evictions: 0,
                prunes: u64::from(lane.overflowed),
                merges: 0,
            });
        }
        agg
    }

    /// Merge a subroutine built with the same parameters and seed over a
    /// disjoint stream shard. A lane's serial state overflows exactly
    /// when its surviving-edge count exceeds `edge_cap` (the cap fires
    /// on the arrival *after* the cap-th stored edge), so on disjoint
    /// shards `overflowed = a.overflowed ∨ b.overflowed ∨
    /// (len_a + len_b > edge_cap)` and concatenation of the stored edges
    /// reproduce serial ingestion exactly up to stored-edge order —
    /// which `finalize` is insensitive to, because
    /// `SetSystem::from_edges` sorts and deduplicates member lists.
    /// Panics on configuration or seed mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.u, self.m, self.k_sub, self.m_buckets, self.edge_cap, self.reps.len()),
            (other.u, other.m, other.k_sub, other.m_buckets, other.edge_cap, other.reps.len()),
            "SmallSet merge requires identical configuration"
        );
        assert_eq!(
            self.set_base.hash(0x5eed_c0de),
            other.set_base.hash(0x5eed_c0de),
            "SmallSet merge requires identical hash functions"
        );
        let edge_cap = self.edge_cap;
        for (a, b) in self.reps.iter_mut().zip(&other.reps) {
            assert_eq!(
                a.lanes.len(),
                b.lanes.len(),
                "SmallSet merge requires identical configuration (lane count)"
            );
            assert_eq!(
                (a.mhash.hash(0x5eed_c0de), a.ehash.hash(0x5eed_c0de)),
                (b.mhash.hash(0x5eed_c0de), b.ehash.hash(0x5eed_c0de)),
                "SmallSet merge requires identical hash functions"
            );
            for (la, lb) in a.lanes.iter_mut().zip(&b.lanes) {
                assert_eq!(
                    la.e_keep, lb.e_keep,
                    "SmallSet merge requires identical configuration (lane thresholds)"
                );
                if la.overflowed || lb.overflowed || la.edges.len() + lb.edges.len() > edge_cap {
                    la.overflowed = true;
                    la.edges = Vec::new();
                } else {
                    la.edges.extend_from_slice(&lb.edges);
                }
            }
        }
    }
}

// ---- wire format ----------------------------------------------------

const TAG_SS: u64 = 0x5353; // "SS"

impl kcov_sketch::WireEncode for SmallSet {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::{put_f64, put_kwise, put_u64};
        put_u64(out, TAG_SS);
        put_u64(out, self.u as u64);
        put_u64(out, self.m as u64);
        put_u64(out, self.k_sub as u64);
        put_u64(out, self.m_buckets);
        put_u64(out, self.edge_cap as u64);
        put_kwise(out, &self.set_base);
        put_u64(out, self.reps.len() as u64);
        for rep in &self.reps {
            put_kwise(out, &rep.mhash);
            put_kwise(out, &rep.ehash);
            put_u64(out, rep.lanes.len() as u64);
            for lane in &rep.lanes {
                put_f64(out, lane.gamma);
                put_u64(out, lane.e_keep);
                put_f64(out, lane.p_elem);
                put_u64(out, u64::from(lane.overflowed));
                put_u64(out, lane.edges.len() as u64);
                for e in &lane.edges {
                    put_u64(out, (u64::from(e.set) << 32) | u64::from(e.elem));
                }
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{err, take_f64, take_kwise, take_u64};
        if take_u64(input)? != TAG_SS {
            return Err(err("bad SmallSet tag"));
        }
        let u = take_u64(input)? as usize;
        let m = take_u64(input)? as usize;
        let k_sub = take_u64(input)? as usize;
        let m_buckets = take_u64(input)?;
        if m_buckets < 1 {
            return Err(err("SmallSet set-bucket count must be positive"));
        }
        let edge_cap = take_u64(input)? as usize;
        let set_base = Arc::new(take_kwise(input)?);
        let num_reps = take_u64(input)? as usize;
        if num_reps > input.len() {
            return Err(err("SmallSet repetition count exceeds input"));
        }
        let mut reps = Vec::with_capacity(num_reps);
        let mut lanes_per_rep: Option<usize> = None;
        for _ in 0..num_reps {
            let mhash = take_kwise(input)?;
            let ehash = take_kwise(input)?;
            let num_lanes = take_u64(input)? as usize;
            if num_lanes > input.len() {
                return Err(err("SmallSet lane count exceeds input"));
            }
            if *lanes_per_rep.get_or_insert(num_lanes) != num_lanes {
                return Err(err("SmallSet repetitions disagree on lane count"));
            }
            let mut lanes = Vec::with_capacity(num_lanes);
            for _ in 0..num_lanes {
                let gamma = take_f64(input)?;
                let e_keep = take_u64(input)?;
                let p_elem = take_f64(input)?;
                let overflowed = match take_u64(input)? {
                    0 => false,
                    1 => true,
                    flag => return Err(err(format!("bad SmallSet overflow flag {flag}"))),
                };
                let n = take_u64(input)? as usize;
                if n > input.len() / 8 {
                    return Err(err(format!("truncated SmallSet lane of {n} edges")));
                }
                if overflowed && n != 0 {
                    return Err(err("overflowed SmallSet lane still stores edges"));
                }
                if n > edge_cap {
                    return Err(err(format!(
                        "SmallSet lane stores {n} edges above cap {edge_cap}"
                    )));
                }
                let edges = (0..n)
                    .map(|_| {
                        let packed = take_u64(input)?;
                        let edge = Edge::new((packed >> 32) as u32, packed as u32);
                        // `finalize` rebuilds a SetSystem from these, so
                        // out-of-range ids would panic long after decode.
                        if edge.set as usize >= m || edge.elem as usize >= u {
                            return Err(err(format!(
                                "SmallSet stored edge ({}, {}) outside the {m} x {u} instance",
                                edge.set, edge.elem
                            )));
                        }
                        Ok(edge)
                    })
                    .collect::<Result<Vec<_>, kcov_sketch::WireError>>()?;
                lanes.push(Lane {
                    gamma,
                    e_keep,
                    p_elem,
                    edges,
                    overflowed,
                });
            }
            reps.push(Rep { mhash, ehash, lanes });
        }
        if reps.is_empty() {
            return Err(err("SmallSet has no repetitions"));
        }
        Ok(SmallSet {
            u,
            m,
            k_sub,
            m_buckets,
            m_keep: MERSENNE_P / m_buckets,
            edge_cap,
            set_base,
            reps,
        })
    }
}

impl SpaceUsage for SmallSet {
    /// A 1-word handle on the shared base (coefficients counted once by
    /// their owner), then per repetition its hashes, stored edges and
    /// a 2-word overhead per lane; repetitions aggregate into shared
    /// children. The `edges` heat is *derived from state* (one store per
    /// resident edge) rather than counted on the hot path — stored edges
    /// survive the wire round trip, so decoded replicas report identical
    /// heat for free.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("set_base", 1);
        for r in &self.reps {
            node.leaf("hashes", r.mhash.space_words() + r.ehash.space_words());
            let stored = r.lanes.iter().map(|l| l.edges.len() as u64).sum();
            node.child("edges").add(Space {
                words: stored,
                updates: stored,
                touched_words: stored,
            });
            node.leaf("overhead", 2 * r.lanes.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::gen::{few_large, many_small};
    use kcov_stream::{edge_stream, ArrivalOrder};

    fn feed(ss_alg: &mut SmallSet, edges: &[Edge]) {
        for &e in edges {
            ss_alg.observe(e);
        }
    }

    #[test]
    fn fires_on_many_small_instances() {
        // Regime III: OPT = 50 disjoint sets of 16 (coverage 800 of
        // 2000 = n/2.5 ≥ n/η).
        let ss = many_small(2000, 400, 50, 0.4, 1);
        let params = Params::practical(400, 2000, 50, 8.0);
        assert!(params.small_set_active());
        let mut alg = SmallSet::new(2000, &params, 3);
        feed(&mut alg, &edge_stream(&ss, ArrivalOrder::Shuffled(2)));
        let out = alg.finalize();
        assert!(out.is_some(), "SmallSet must fire on regime III");
        let (est, _) = out.unwrap();
        // Sound: est ≤ OPT = 800; useful: est ≥ OPT/Õ(α).
        assert!(est <= 800.0 * 1.05, "estimate {est} above OPT 800");
        assert!(est >= 800.0 / (8.0 * 16.0), "estimate {est} too small");
    }

    #[test]
    fn witness_sets_are_real_sets() {
        let ss = many_small(1000, 200, 25, 0.5, 7);
        let params = Params::practical(200, 1000, 25, 4.0);
        let mut alg = SmallSet::new(1000, &params, 9);
        feed(&mut alg, &edge_stream(&ss, ArrivalOrder::RoundRobin));
        if let Some((_, Witness::ExplicitSets(sets))) = alg.finalize() {
            assert!(!sets.is_empty());
            assert!(sets.len() <= alg.k_sub());
            assert!(sets.iter().all(|&s| (s as usize) < 200));
        } else {
            panic!("expected explicit sets witness");
        }
    }

    #[test]
    fn estimate_sound_across_seeds() {
        for seed in 0..6u64 {
            let ss = many_small(1000, 200, 40, 0.6, seed);
            let params = Params::practical(200, 1000, 40, 4.0);
            let mut alg = SmallSet::new(1000, &params, 100 + seed);
            feed(&mut alg, &edge_stream(&ss, ArrivalOrder::Shuffled(seed)));
            if let Some((est, _)) = alg.finalize() {
                assert!(est <= 600.0 * 1.1, "seed {seed}: {est} > OPT 600");
            }
        }
    }

    #[test]
    fn k_sub_is_theta_k_over_alpha() {
        // practical s_alpha = w = alpha (alpha < k), so
        // k' = 4k/s_alpha = 4k/alpha.
        let params = Params::practical(1000, 1000, 64, 8.0);
        let alg = SmallSet::new(1000, &params, 1);
        assert_eq!(alg.k_sub(), (4.0 * 64.0 / 8.0) as usize);
    }

    #[test]
    fn lane_storage_respects_cap() {
        let ss = few_large(500, 100, 2, 150, 1);
        let mut params = Params::practical(100, 500, 20, 2.0);
        params.small_set_edge_cap = 16; // force overflow
        let mut alg = SmallSet::new(500, &params, 5);
        feed(&mut alg, &edge_stream(&ss, ArrivalOrder::SetContiguous));
        for lane in alg.reps.iter().flat_map(|r| r.lanes.iter()) {
            assert!(lane.edges.len() <= 16);
        }
    }

    #[test]
    fn empty_stream_is_infeasible() {
        let params = Params::practical(100, 100, 5, 2.0);
        let alg = SmallSet::new(100, &params, 1);
        assert!(alg.finalize().is_none());
    }

    #[test]
    fn merge_matches_serial_on_firing_instance() {
        let ss = many_small(2000, 400, 50, 0.4, 8);
        let params = Params::practical(400, 2000, 50, 8.0);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(17));
        let proto = SmallSet::new(2000, &params, 23);
        let mut serial = proto.clone();
        feed(&mut serial, &edges);
        let (head, tail) = edges.split_at(edges.len() / 4);
        let mut left = proto.clone();
        let mut right = proto;
        feed(&mut left, head);
        feed(&mut right, tail);
        left.merge(&right);
        let a = serial.finalize().expect("fires on regime III");
        let b = left.finalize().expect("merged must fire too");
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "estimate must match");
        assert_eq!(a.1, b.1, "witness must match");
        assert_eq!(serial.space_words(), left.space_words());
    }

    #[test]
    fn merge_reproduces_serial_overflow() {
        // Force the cap low enough that the combined stream overflows
        // while each half alone stays under it.
        let ss = few_large(500, 100, 2, 150, 3);
        let mut params = Params::practical(100, 500, 20, 2.0);
        params.small_set_edge_cap = 64;
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(5));
        let proto = SmallSet::new(500, &params, 5);
        let mut serial = proto.clone();
        feed(&mut serial, &edges);
        let (head, tail) = edges.split_at(edges.len() / 2);
        let mut left = proto.clone();
        let mut right = proto;
        feed(&mut left, head);
        feed(&mut right, tail);
        left.merge(&right);
        for (rs, rm) in serial.reps.iter().zip(&left.reps) {
            for (ls, lm) in rs.lanes.iter().zip(&rm.lanes) {
                assert_eq!(ls.overflowed, lm.overflowed, "overflow flags must agree");
                assert_eq!(ls.edges.len(), lm.edges.len(), "stored edge counts must agree");
            }
        }
        assert!(
            serial.reps.iter().flat_map(|r| r.lanes.iter()).any(|l| l.overflowed),
            "test instance must actually overflow some lane"
        );
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let params = Params::practical(100, 100, 5, 2.0);
        let mut a = SmallSet::new(100, &params, 1);
        let b = SmallSet::new(100, &params, 2);
        a.merge(&b);
    }

    #[test]
    fn fp_path_matches_scalar_path() {
        let ss = many_small(2000, 400, 50, 0.4, 9);
        let params = Params::practical(400, 2000, 50, 8.0);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(19));
        let base = Arc::new(KWise::new(8, 777));
        let proto = SmallSet::with_base(2000, &params, 29, base.clone());
        let mut scalar = proto.clone();
        let mut batched = proto;
        feed(&mut scalar, &edges);
        let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.set as u64)).collect();
        batched.observe_fp_batch(&edges, &fps);
        assert_eq!(scalar.finalize(), batched.finalize());
        assert_eq!(scalar.space_words(), batched.space_words());
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_cap_mismatch() {
        let mut p1 = Params::practical(100, 100, 5, 2.0);
        let p2 = p1.clone();
        p1.small_set_edge_cap += 1;
        let mut a = SmallSet::new(100, &p1, 1);
        let b = SmallSet::new(100, &p2, 1);
        a.merge(&b);
    }

    #[test]
    fn space_counts_stored_edges() {
        let ss = many_small(500, 100, 20, 0.5, 2);
        let params = Params::practical(100, 500, 20, 2.0);
        let mut alg = SmallSet::new(500, &params, 4);
        let before = alg.space_words();
        feed(&mut alg, &edge_stream(&ss, ArrivalOrder::Shuffled(1)));
        assert!(alg.space_words() >= before, "stored edges must count");
    }
}
