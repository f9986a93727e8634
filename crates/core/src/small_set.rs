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

use kcov_baselines::{greedy_max_cover_by, GreedyResult};
use kcov_hash::{KWise, SeedSequence, MERSENNE_P};
use kcov_obs::Space;
use kcov_sketch::scratch::{at_least, with_columns};
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::Edge;

use crate::params::Params;
use crate::Witness;

/// One repetition: its sampling hashes and one nested store for all its
/// γ lanes.
///
/// The lanes share the repetition's set- and element-sampling hashes,
/// so their element samples are *nested*: lane `i` keeps element `e`
/// iff `ehash(e) < e_keep[i]`, and the thresholds rise with γ. Each kept
/// edge is therefore stored once, in `buckets[i]` for the lowest level
/// `i` whose threshold its element hash passes, and lane `i`'s
/// sub-instance is the union of `buckets[0..=i]`. Sharing across
/// guesses is sound — each lane's guarantee (Lemma 2.5 for its γ) is
/// individual and the union bound needs no independence between lanes.
///
/// Overflow (Fig 5: "if S(L,M) > Õ(m/α²) then terminate") is per lane
/// and monotone in the level: lane `i` overflows iff it keeps more than
/// `edge_cap` edges, and lane `i + 1` keeps a superset of lane `i`'s.
/// So the overflowed lanes are the levels `live..`, their buckets are
/// freed, and `stored` — the sum of the live buckets — is the top live
/// lane's sample size, which never exceeds `edge_cap`.
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
    /// Per level, non-decreasing: lane `i` keeps `e` iff
    /// `ehash(e) < e_keep[i]` (probability `p_elem[i]`).
    e_keep: Vec<u64>,
    p_elem: Vec<f64>,
    /// Per level, the kept edges whose element first passes at it.
    buckets: Vec<Vec<Edge>>,
    /// Lanes `0..live` have not overflowed.
    live: usize,
    /// `Σ buckets[..live].len()`.
    stored: usize,
}

impl Rep {
    /// Store one set-sampled edge with element hash `eh`, then drop the
    /// top live lanes while the stored total exceeds `edge_cap` — the
    /// lane aborts and frees its storage on the arrival that takes it
    /// past the cap.
    #[inline]
    fn store(&mut self, edge: Edge, eh: u64, edge_cap: usize) {
        let level = self.e_keep[..self.live].partition_point(|&keep| keep <= eh);
        if level == self.live {
            return;
        }
        self.buckets[level].push(edge);
        self.stored += 1;
        while self.stored > edge_cap {
            self.live -= 1;
            self.stored -= self.buckets[self.live].len();
            self.buckets[self.live] = Vec::new();
        }
    }
}

/// One repetition's stored sample as member lists, built once for all
/// its lanes.
///
/// Only sets with a stored edge get a list, numbered in ascending id
/// order. Greedy breaks heap ties by index, and an order-preserving
/// renumbering keeps every comparison, so the picks map back one to one
/// to what greedy makes on all `m` sets (empty sets never gain).
///
/// Buckets are appended in level order, so each list's level-`i`
/// sub-list is a prefix, and after appending bucket `i` the lists are
/// lane `i`'s sub-instance. What a bucket adds is deduplicated against
/// itself only: the level of a stored edge is a function of its
/// element's hash, so a repeated (set, element) pair — one arriving
/// twice, from two merged shards, or from two raw elements reduced to
/// one pseudo-element — lies in one level. The order within a list is
/// arrival order, which greedy ignores: a marginal gain is a count.
struct Members {
    /// The set ids with stored edges, ascending: list `c` is `ids[c]`'s.
    ids: Vec<u32>,
    /// `slot[set]` is the set's list when `m ≤ stored`; otherwise empty,
    /// and the list is found by binary search in `ids`, so no buffer
    /// grows with `m` beyond the stored edges.
    slot: Vec<u32>,
    /// Member lists, each with capacity for all its stored edges.
    lists: Vec<Vec<u32>>,
    /// Per list, the length up to which it is deduplicated.
    done: Vec<usize>,
    /// The largest stored element + 1: the range of the dedup bit set
    /// and of greedy's cover marks, never the `u` read off the wire.
    universe: usize,
}

impl Members {
    fn new(buckets: &[Vec<Edge>], m: usize, stored: usize) -> Self {
        // Every buffer is sized exactly before it is filled: one grown
        // by doubling past 128 KiB would be freed from an mmap and move
        // glibc's mmap threshold (EXPERIMENTS E31).
        let table = m <= stored;
        let (mut slot, mut sets) = (Vec::new(), Vec::new());
        let mut top = 0;
        let distinct = if table {
            // Count per set; each count is overwritten with its list below.
            slot = vec![0u32; m];
            for bucket in buckets {
                for e in bucket {
                    slot[e.set as usize] += 1;
                    top = top.max(e.elem);
                }
            }
            slot.iter().filter(|&&s| s > 0).count()
        } else {
            sets.reserve_exact(stored);
            sets.extend(buckets.iter().flatten().map(|e| {
                top = top.max(e.elem);
                e.set
            }));
            sets.sort_unstable();
            sets.chunk_by(|a, b| a == b).count()
        };
        let mut ids = Vec::with_capacity(distinct);
        let mut lists = Vec::with_capacity(distinct);
        if table {
            for (set, s) in slot.iter_mut().enumerate().filter(|(_, s)| **s > 0) {
                lists.push(Vec::with_capacity(*s as usize));
                *s = ids.len() as u32;
                ids.push(set as u32);
            }
        } else {
            for run in sets.chunk_by(|a, b| a == b) {
                ids.push(run[0]);
                lists.push(Vec::with_capacity(run.len()));
            }
        }
        let done = vec![0; ids.len()];
        Members {
            ids,
            slot,
            lists,
            done,
            universe: top as usize + 1,
        }
    }

    /// Append one level's bucket, then deduplicate what it added with
    /// the all-zero bit set `seen` of at least `universe` bits (left
    /// all-zero again).
    fn append(&mut self, bucket: &[Edge], seen: &mut [u64]) {
        for e in bucket {
            let c = if self.slot.is_empty() {
                self.ids
                    .binary_search(&e.set)
                    .expect("every stored set has a list")
            } else {
                self.slot[e.set as usize] as usize
            };
            self.lists[c].push(e.elem);
        }
        for (list, done) in self.lists.iter_mut().zip(&mut self.done) {
            if list.len() - *done > 1 {
                let mut kept = *done;
                for r in *done..list.len() {
                    let e = list[r] as usize;
                    let bit = 1u64 << (e % 64);
                    list[kept] = e as u32;
                    kept += usize::from(seen[e / 64] & bit == 0);
                    seen[e / 64] |= bit;
                }
                // Every set bit belongs to a kept element: zero its word.
                for &e in &list[*done..kept] {
                    seen[e as usize / 64] = 0;
                }
                list.truncate(kept);
            }
            *done = list.len();
        }
    }
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
    /// (`< P`) passes — the always-sample case, where the set gate is
    /// skipped rather than evaluated.
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
    /// fingerprint base, for unfed state: a caller that feeds edges
    /// builds with [`SmallSet::with_base`] on a base it holds, whose
    /// fingerprints [`SmallSet::observe_fp_batch`] takes (estimator
    /// lanes share one).
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
        // Element sample target Θ̃(γ·k') (Lemma 2.5), non-decreasing in γ.
        let p_elem: Vec<f64> = (0..=num_gammas)
            .map(|i| {
                let gamma = (1u64 << i) as f64;
                let l_target = (2.0 * gamma * k_sub as f64 * lmn).min(u as f64);
                (l_target / u.max(1) as f64).min(1.0)
            })
            .collect();
        let e_keep: Vec<u64> = p_elem
            .iter()
            .map(|&p| (p * MERSENNE_P as f64) as u64)
            .collect();
        let reps = (0..params.small_set_reps.max(1))
            .map(|_| Rep {
                mhash: KWise::new(4, seq.next_seed()),
                ehash: KWise::new(8, seq.next_seed()),
                e_keep: e_keep.clone(),
                p_elem: p_elem.clone(),
                buckets: vec![Vec::new(); e_keep.len()],
                live: e_keep.len(),
                stored: 0,
            })
            .collect();
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

    /// True when every set passes the set gate (`m_buckets = 1`): hash
    /// outputs lie below `MERSENNE_P`, so the gate is exact without
    /// evaluating `mhash`.
    fn samples_every_set(&self) -> bool {
        self.m_keep >= MERSENNE_P
    }

    /// Observe a chunk given precomputed set fingerprints, columnar and
    /// repetition-outer: per repetition the set-sampling mix runs as one
    /// [`KWise::hash_batch`] over the chunk, survivors are gathered,
    /// their element hashes are batched, and the nested store consumes
    /// the survivor column in arrival order. Each repetition sees the
    /// same hash values in the same order however the stream is cut
    /// into chunks, so the final state — stored edges and overflow
    /// cut-offs alike — does not depend on the chunking. A repetition
    /// whose lanes have all overflowed is skipped without hashing.
    pub fn observe_fp_batch(&mut self, edges: &[Edge], fps: &[u64]) {
        debug_assert_eq!(edges.len(), fps.len());
        let every_set = self.samples_every_set();
        let n = edges.len();
        with_columns(|[elems, mh, eh, surv_idx, surv_elems]| {
            elems.clear();
            elems.extend(edges.iter().map(|e| e.elem as u64));
            for rep in self.reps.iter_mut().filter(|r| r.live > 0) {
                if every_set {
                    rep.ehash.hash_batch(elems, eh);
                    for (&edge, &e) in edges.iter().zip(eh.iter()) {
                        rep.store(edge, e, self.edge_cap);
                    }
                    continue;
                }
                rep.mhash.hash_batch(fps, mh);
                // Branch-free gather of the survivors' positions and
                // elements: every edge is written, the write index
                // advances by the set gate.
                let (dst_idx, dst_elems) = (at_least(surv_idx, n), at_least(surv_elems, n));
                let mut kept = 0;
                for (i, (&elem, &h)) in elems.iter().zip(mh.iter()).enumerate() {
                    dst_idx[kept] = i as u64;
                    dst_elems[kept] = elem;
                    kept += usize::from(h < self.m_keep);
                }
                if kept == 0 {
                    continue;
                }
                rep.ehash.hash_batch(&dst_elems[..kept], eh);
                for (&i, &e) in dst_idx[..kept].iter().zip(eh.iter()) {
                    rep.store(edges[i as usize], e, self.edge_cap);
                }
            }
        });
    }

    /// Finalize: greedy `Max k'-Cover` on each live lane's sub-instance,
    /// rescaled by the element-sampling rate; the best accepted lane
    /// wins. `None` when no lane qualifies.
    ///
    /// Each repetition builds its sub-instance once (see `Members`):
    /// its live buckets are appended level by level to
    /// per-set member lists, so after level `i` the lists hold exactly
    /// lane `i`'s sample and greedy runs on them in place. A lane whose
    /// own bucket is empty is skipped: its sample equals the lane
    /// below's at a rate at least as high, so its estimate cannot beat
    /// that lane's under the strict `>` pick.
    ///
    /// The transient memory is linear in the stored edges, a bit set and
    /// greedy's cover marks over the largest stored element, never in
    /// `m` or `u`.
    pub fn finalize(&self) -> Option<(f64, Witness)> {
        // Acceptance floor (the paper's `sol = Ω̃(k/α)`): reject lanes
        // whose sampled coverage is statistical noise.
        let floor = (self.k_sub as f64 / 2.0).max(6.0);
        let mut best: Option<(f64, Vec<u32>)> = None;
        self.for_each_lane(|p_elem, g| {
            if (g.coverage as f64) < floor {
                return;
            }
            let est = self.lane_estimate(p_elem, g.coverage);
            if best.as_ref().is_none_or(|(b, _)| est > *b) {
                best = Some((est, g.chosen.iter().map(|&s| s as u32).collect()));
            }
        });
        best.map(|(est, sets)| (est, Witness::ExplicitSets(sets)))
    }

    /// A lane's estimate from its sampled coverage: rescaled to the full
    /// universe, then halved — a heuristic discount against the upward
    /// selection bias of maximizing over the sample, not a guarantee.
    /// Maximizing over many sets that each hold a few sampled elements
    /// can inflate the sampled coverage by more than 2×, and answers
    /// above OPT have been measured on fixed-size uniform instances.
    fn lane_estimate(&self, p_elem: f64, coverage: usize) -> f64 {
        (0.5 * coverage as f64 / p_elem.max(1e-300))
            .min(self.u as f64)
            .max(0.0)
    }

    /// Run greedy `Max k'-Cover` on every live lane with a non-empty
    /// bucket, repetition by repetition and level by level, and hand
    /// `visit` the lane's element-sampling rate and greedy's result with
    /// the picks as set ids.
    fn for_each_lane(&self, mut visit: impl FnMut(f64, GreedyResult)) {
        let mut seen = Vec::new();
        for rep in self.reps.iter().filter(|r| r.stored > 0) {
            let buckets = &rep.buckets[..rep.live];
            let mut members = Members::new(buckets, self.m, rep.stored);
            let universe = members.universe;
            if seen.len() < universe.div_ceil(64) {
                seen.resize(universe.div_ceil(64), 0);
            }
            for (bucket, &p_elem) in buckets.iter().zip(&rep.p_elem) {
                if bucket.is_empty() {
                    continue;
                }
                members.append(bucket, &mut seen);
                let lists = &members.lists;
                let mut g = greedy_max_cover_by(lists.len(), universe, self.k_sub, |c| &lists[c]);
                g.chosen
                    .iter_mut()
                    .for_each(|c| *c = members.ids[*c] as usize);
                visit(p_elem, g);
            }
        }
    }

    /// The sub-cover budget `k'`.
    pub fn k_sub(&self) -> usize {
        self.k_sub
    }

    /// Universe and set-id ranges `(u, m)` this subroutine was built for.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.u, self.m)
    }

    /// Number of (γ, repetition) lanes.
    pub fn num_lanes(&self) -> usize {
        self.reps.iter().map(|r| r.e_keep.len()).sum()
    }

    /// Aggregated storage telemetry: per repetition, its stored edges as
    /// fill against the cap its nested store shares, and its overflowed
    /// lanes as prunes.
    pub fn sketch_stats(&self) -> kcov_obs::SketchStats {
        let mut agg = kcov_obs::SketchStats::default();
        for rep in &self.reps {
            agg.absorb(kcov_obs::SketchStats {
                updates: 0,
                fill: rep.stored as u64,
                capacity: self.edge_cap as u64,
                evictions: 0,
                prunes: (rep.e_keep.len() - rep.live) as u64,
                merges: 0,
            });
        }
        agg
    }

    /// Merge a subroutine built with the same parameters and seed over a
    /// disjoint stream shard. A lane's serial state overflows exactly
    /// when its surviving-edge count exceeds `edge_cap`, so on disjoint
    /// shards the merged lane `i` is live iff it is live in both and
    /// its two counts sum to at most `edge_cap`. The merged live prefix
    /// is found from the bucket lengths first, and only its buckets are
    /// appended. That reproduces serial ingestion exactly up to
    /// stored-edge order — which `finalize` is insensitive to, because
    /// greedy ignores the order within a member list.
    /// Panics on configuration or seed mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (
                self.u,
                self.m,
                self.k_sub,
                self.m_buckets,
                self.edge_cap,
                self.reps.len()
            ),
            (
                other.u,
                other.m,
                other.k_sub,
                other.m_buckets,
                other.edge_cap,
                other.reps.len()
            ),
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
                a.e_keep, b.e_keep,
                "SmallSet merge requires identical configuration (lane thresholds)"
            );
            assert_eq!(
                (a.mhash.hash(0x5eed_c0de), a.ehash.hash(0x5eed_c0de)),
                (b.mhash.hash(0x5eed_c0de), b.ehash.hash(0x5eed_c0de)),
                "SmallSet merge requires identical hash functions"
            );
            let (mut live, mut stored) = (0, 0);
            while live < a.live.min(b.live) {
                let add = a.buckets[live].len() + b.buckets[live].len();
                if stored + add > edge_cap {
                    break;
                }
                stored += add;
                live += 1;
            }
            for (bucket, extra) in a.buckets[..live].iter_mut().zip(&b.buckets) {
                bucket.extend_from_slice(extra);
            }
            a.buckets[live..].fill_with(Vec::new);
            a.live = live;
            a.stored = stored;
        }
    }
}

// ---- wire format ----------------------------------------------------
//
// Per repetition: its two hashes, the level count, then per level its
// threshold, rate, overflow flag and bucket. The flags are redundant
// with the live prefix but kept on the wire so decode can check that
// they form a suffix and that no overflowed level stores edges.

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
            put_u64(out, rep.e_keep.len() as u64);
            for (i, bucket) in rep.buckets.iter().enumerate() {
                put_u64(out, rep.e_keep[i]);
                put_f64(out, rep.p_elem[i]);
                put_u64(out, u64::from(i >= rep.live));
                put_u64(out, bucket.len() as u64);
                for e in bucket {
                    put_u64(out, (u64::from(e.set) << 32) | u64::from(e.elem));
                }
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{err, take_f64, take_kwise, take_u64, take_words};
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
        let mut levels_per_rep: Option<usize> = None;
        for _ in 0..num_reps {
            let mhash = take_kwise(input)?;
            let ehash = take_kwise(input)?;
            let num_levels = take_u64(input)? as usize;
            if num_levels > input.len() {
                return Err(err("SmallSet lane count exceeds input"));
            }
            if *levels_per_rep.get_or_insert(num_levels) != num_levels {
                return Err(err("SmallSet repetitions disagree on lane count"));
            }
            let mut rep = Rep {
                mhash,
                ehash,
                e_keep: Vec::with_capacity(num_levels),
                p_elem: Vec::with_capacity(num_levels),
                buckets: Vec::with_capacity(num_levels),
                live: 0,
                stored: 0,
            };
            for i in 0..num_levels {
                let e_keep = take_u64(input)?;
                let p_elem = take_f64(input)?;
                if rep.e_keep.last().is_some_and(|&below| e_keep < below) {
                    return Err(err("SmallSet lane thresholds decrease with the level"));
                }
                let overflowed = match take_u64(input)? {
                    0 => false,
                    1 => true,
                    flag => return Err(err(format!("bad SmallSet overflow flag {flag}"))),
                };
                if !overflowed && rep.live < i {
                    return Err(err("SmallSet overflow flags are not a suffix of the lanes"));
                }
                let n = take_u64(input)? as usize;
                let bucket = take_words(input, n, |packed| {
                    Edge::new((packed >> 32) as u32, packed as u32)
                })
                .ok_or_else(|| err(format!("truncated SmallSet bucket of {n} edges")))?;
                if overflowed && n != 0 {
                    return Err(err("overflowed SmallSet lane still stores edges"));
                }
                if rep.stored + n > edge_cap {
                    return Err(err(format!(
                        "SmallSet lane stores {} edges above cap {edge_cap}",
                        rep.stored + n
                    )));
                }
                // `finalize` indexes by these ids, so out-of-range ones
                // would panic long after decode.
                if let Some(e) = bucket
                    .iter()
                    .find(|e| e.set as usize >= m || e.elem as usize >= u)
                {
                    return Err(err(format!(
                        "SmallSet stored edge ({}, {}) outside the {m} x {u} instance",
                        e.set, e.elem
                    )));
                }
                rep.e_keep.push(e_keep);
                rep.p_elem.push(p_elem);
                rep.buckets.push(bucket);
                rep.live += usize::from(!overflowed);
                rep.stored += n;
            }
            reps.push(rep);
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
    /// their owner), then per repetition its hashes, its stored edges
    /// (one word each, stored once however many lanes share them) and
    /// a 2-word threshold/rate overhead per lane; repetitions aggregate
    /// into shared children. The `edges` heat is *derived from state*
    /// (one store per resident edge) rather than counted on the hot
    /// path — stored edges survive the wire round trip, so decoded
    /// replicas report identical heat for free.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("set_base", 1);
        for r in &self.reps {
            node.leaf("hashes", r.mhash.space_words() + r.ehash.space_words());
            let stored = r.stored as u64;
            node.child("edges").add(Space {
                words: stored,
                updates: stored,
                touched_words: stored,
            });
            node.leaf("overhead", 2 * r.e_keep.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assert_chunking_invariant;
    use kcov_stream::gen::{few_large, many_small};
    use kcov_stream::{edge_stream, ArrivalOrder};

    fn feed(ss_alg: &mut SmallSet, edges: &[Edge]) {
        let fps: Vec<u64> = edges
            .iter()
            .map(|e| ss_alg.set_base.hash(e.set as u64))
            .collect();
        ss_alg.observe_fp_batch(edges, &fps);
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
        for rep in &alg.reps {
            assert!(rep.stored <= 16);
            assert_eq!(
                rep.stored,
                rep.buckets[..rep.live].iter().map(Vec::len).sum::<usize>()
            );
            assert!(
                rep.buckets[rep.live..].iter().all(Vec::is_empty),
                "overflowed lanes free storage"
            );
        }
        assert!(
            alg.reps.iter().any(|r| r.live < r.e_keep.len()),
            "some lane must overflow"
        );
    }

    /// The per-lane store the nested one replaces: every lane keeps its
    /// own copy of each edge it samples and aborts on the arrival after
    /// its `edge_cap`-th edge. Per repetition and lane: the kept edges
    /// (sorted; empty once overflowed) and the overflow flag.
    fn per_lane_reference(proto: &SmallSet, edges: &[Edge]) -> Vec<Vec<(Vec<Edge>, bool)>> {
        let views = proto.reps.iter().map(|rep| {
            let mut lanes = vec![(Vec::new(), false); rep.e_keep.len()];
            for &edge in edges {
                if rep.mhash.hash(proto.set_base.hash(edge.set as u64)) >= proto.m_keep {
                    continue;
                }
                let eh = rep.ehash.hash(edge.elem as u64);
                for ((kept, overflowed), &keep) in lanes.iter_mut().zip(&rep.e_keep) {
                    if *overflowed || eh >= keep {
                        continue;
                    }
                    if kept.len() >= proto.edge_cap {
                        *overflowed = true;
                        kept.clear();
                    } else {
                        kept.push(edge);
                    }
                }
            }
            lanes
        });
        views
            .map(|mut lanes| {
                lanes.iter_mut().for_each(|(kept, _)| kept.sort_unstable());
                lanes
            })
            .collect()
    }

    /// Lane `i`'s view of the nested store: the union of buckets
    /// `0..=i` (sorted) and whether the lane overflowed.
    fn lane_views(ss: &SmallSet) -> Vec<Vec<(Vec<Edge>, bool)>> {
        ss.reps
            .iter()
            .map(|rep| {
                (0..rep.e_keep.len())
                    .map(|i| {
                        if i >= rep.live {
                            return (Vec::new(), true);
                        }
                        let mut kept = rep.buckets[..=i].concat();
                        kept.sort_unstable();
                        (kept, false)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn nested_store_matches_per_lane_reference() {
        let instances = [
            (
                few_large(500, 100, 2, 150, 3),
                Params::practical(100, 500, 20, 2.0),
            ),
            (
                many_small(2000, 400, 50, 0.4, 4),
                Params::practical(400, 2000, 50, 8.0),
            ),
        ];
        let (mut overflowed, mut live) = (false, false);
        for (system, params) in instances {
            let edges = edge_stream(&system, ArrivalOrder::Shuffled(7));
            let fps: Vec<u64> = {
                let probe = SmallSet::new(system.num_elements(), &params, 11);
                edges
                    .iter()
                    .map(|e| probe.set_base.hash(e.set as u64))
                    .collect()
            };
            for cap in [16, 40, 64, params.small_set_edge_cap] {
                let mut params = params.clone();
                params.small_set_edge_cap = cap;
                let proto = SmallSet::new(system.num_elements(), &params, 11);
                let want = per_lane_reference(&proto, &edges);
                let mut whole = proto.clone();
                feed(&mut whole, &edges);
                let mut chunked = proto;
                for (chunk, fp) in edges.chunks(300).zip(fps.chunks(300)) {
                    chunked.observe_fp_batch(chunk, fp);
                }
                assert_eq!(lane_views(&whole), want, "cap {cap}: whole stream");
                assert_eq!(lane_views(&chunked), want, "cap {cap}: 300-edge chunks");
                let flags = want.iter().flatten().map(|(_, o)| *o);
                overflowed |= flags.clone().any(|o| o);
                live |= flags.clone().any(|o| !o);
            }
        }
        assert!(
            overflowed && live,
            "the sweep must cover overflowed and live lanes"
        );
    }
    /// Per lane with a non-empty bucket, in repetition then level order:
    /// estimate bits, greedy coverage and picks. `per_level_rebuild` is
    /// the finalize the one-pass build replaced: every lane's
    /// sub-instance rebuilt from `buckets[0..=i]` over all `m` sets and
    /// handed to greedy as a sorted, deduplicated `SetSystem`.
    type LaneOutcome = (u64, usize, Vec<usize>);

    fn per_level_rebuild(ss: &SmallSet) -> Vec<LaneOutcome> {
        let mut out = Vec::new();
        let mut counts = vec![0usize; ss.m];
        for rep in &ss.reps {
            counts.fill(0);
            for (i, bucket) in rep.buckets[..rep.live].iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                for e in bucket {
                    counts[e.set as usize] += 1;
                }
                let mut sets: Vec<Vec<u32>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                for e in rep.buckets[..=i].iter().flatten() {
                    sets[e.set as usize].push(e.elem);
                }
                let sub = kcov_stream::SetSystem::new(ss.u, sets);
                let g = kcov_baselines::greedy_max_cover(&sub, ss.k_sub);
                let est = (0.5 * g.coverage as f64 / rep.p_elem[i].max(1e-300))
                    .min(ss.u as f64)
                    .max(0.0);
                out.push((est.to_bits(), g.coverage, g.chosen));
            }
        }
        out
    }

    /// The finalize answer picked from per-lane outcomes: the floor,
    /// then the first strictly best estimate.
    fn pick(ss: &SmallSet, lanes: &[LaneOutcome]) -> Option<(f64, Witness)> {
        let floor = (ss.k_sub as f64 / 2.0).max(6.0);
        let mut best: Option<(f64, &[usize])> = None;
        for (bits, coverage, chosen) in lanes {
            let est = f64::from_bits(*bits);
            if (*coverage as f64) >= floor && best.is_none_or(|(b, _)| est > b) {
                best = Some((est, chosen));
            }
        }
        best.map(|(est, c)| {
            (
                est,
                Witness::ExplicitSets(c.iter().map(|&s| s as u32).collect()),
            )
        })
    }

    #[test]
    fn finalize_matches_per_level_rebuild() {
        let instances = [
            (
                few_large(500, 100, 2, 150, 3),
                Params::practical(100, 500, 20, 2.0),
            ),
            (
                many_small(2000, 400, 50, 0.4, 4),
                Params::practical(400, 2000, 50, 8.0),
            ),
        ];
        // (m_buckets = 1, m_buckets > 1, duplicate pairs, empty live
        // bucket, overflowed lane, m-table path, sorted-id path, fired)
        let mut seen_cases = [false; 8];
        for (system, params) in instances {
            let u = system.num_elements();
            let shuffled = edge_stream(&system, ArrivalOrder::Shuffled(7));
            // Repeated pairs: every third edge again at the end, and a
            // folded copy whose elements collide modulo a prime the way
            // universe reduction makes raw elements collide.
            let mut repeated = shuffled.clone();
            repeated.extend(shuffled.iter().step_by(3).copied());
            let folded: Vec<Edge> = shuffled
                .iter()
                .map(|e| Edge::new(e.set, e.elem % 97))
                .collect();
            // A short prefix, repeated, keeps lanes live under the small
            // caps and stores fewer edges than there are sets.
            let mut short = shuffled[..150].to_vec();
            short.extend_from_within(..60);
            for cap in [16, 40, 64, params.small_set_edge_cap] {
                let mut params = params.clone();
                params.small_set_edge_cap = cap;
                let proto = SmallSet::new(u, &params, 11);
                seen_cases[usize::from(proto.m_buckets > 1)] = true;
                for edges in [&shuffled, &repeated, &folded, &short] {
                    let mut whole = proto.clone();
                    feed(&mut whole, edges);
                    // Three contiguous shards merged in turn.
                    let mut merged = proto.clone();
                    for part in edges.chunks(edges.len().div_ceil(3)) {
                        let mut shard = proto.clone();
                        feed(&mut shard, part);
                        merged.merge(&shard);
                    }
                    for (what, ss) in [("whole", &whole), ("merged", &merged)] {
                        let want = per_level_rebuild(ss);
                        let mut got = Vec::new();
                        ss.for_each_lane(|p, g| {
                            got.push((
                                ss.lane_estimate(p, g.coverage).to_bits(),
                                g.coverage,
                                g.chosen,
                            ))
                        });
                        assert_eq!(got, want, "cap {cap}, {what}");
                        assert_eq!(ss.finalize(), pick(ss, &want), "cap {cap}, {what}");
                        for rep in &ss.reps {
                            let mut pairs = rep.buckets.concat();
                            let stored = pairs.len();
                            pairs.sort_unstable();
                            pairs.dedup();
                            seen_cases[2] |= pairs.len() < stored;
                            seen_cases[3] |= rep.buckets[..rep.live].iter().any(Vec::is_empty);
                            seen_cases[4] |= rep.live < rep.e_keep.len();
                            seen_cases[5] |= rep.stored > 0 && ss.m <= rep.stored;
                            seen_cases[6] |= rep.stored > 0 && ss.m > rep.stored;
                        }
                        seen_cases[7] |= ss.finalize().is_some();
                    }
                }
            }
        }
        assert_eq!(seen_cases, [true; 8], "the sweep must reach every case");
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
        // Caps low enough that the combined stream overflows lanes each
        // part alone keeps, merged at pseudo-random split points: the
        // merged store must match serial ingestion bucket for bucket.
        let ss = few_large(500, 100, 2, 150, 3);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(5));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut overflowed = false;
        for cap in [16, 24, 32, 48, 64] {
            let mut params = Params::practical(100, 500, 20, 2.0);
            params.small_set_edge_cap = cap;
            let proto = SmallSet::new(500, &params, 5);
            let mut serial = proto.clone();
            feed(&mut serial, &edges);
            for _ in 0..4 {
                let mut cuts: Vec<usize> = (0..2)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % (edges.len() as u64 + 1)) as usize
                    })
                    .collect();
                cuts.sort_unstable();
                let parts = [
                    &edges[..cuts[0]],
                    &edges[cuts[0]..cuts[1]],
                    &edges[cuts[1]..],
                ];
                let mut merged = proto.clone();
                feed(&mut merged, parts[0]);
                for part in &parts[1..] {
                    let mut shard = proto.clone();
                    feed(&mut shard, part);
                    merged.merge(&shard);
                }
                for (rs, rm) in serial.reps.iter().zip(&merged.reps) {
                    assert_eq!(
                        (rs.live, rs.stored),
                        (rm.live, rm.stored),
                        "cap {cap}, cuts {cuts:?}"
                    );
                    assert_eq!(rs.buckets, rm.buckets, "cap {cap}, cuts {cuts:?}");
                }
                assert_eq!(serial.finalize(), merged.finalize());
            }
            overflowed |= serial.reps.iter().any(|r| r.live < r.e_keep.len());
        }
        assert!(overflowed, "test instance must actually overflow some lane");
    }

    /// One level's wire record: `(e_keep, overflow flag, bucket)`.
    type LevelRecord = (u64, u64, Vec<Edge>);

    /// A one-repetition, unfed `SmallSet` whose encoding ends with its
    /// level records, and a builder that swaps those records for others.
    fn level_records() -> (SmallSet, impl Fn(&[LevelRecord]) -> Vec<u8>) {
        use kcov_sketch::wire::{put_f64, put_u64};
        use kcov_sketch::WireEncode;
        let mut params = Params::practical(100, 500, 20, 2.0);
        params.small_set_reps = 1;
        params.small_set_edge_cap = 4;
        let ss = SmallSet::new(500, &params, 3);
        let mut bytes = Vec::new();
        ss.encode(&mut bytes);
        let rep = &ss.reps[0];
        bytes.truncate(bytes.len() - rep.e_keep.len() * 4 * 8);
        let p_elem = rep.p_elem.clone();
        let build = move |levels: &[LevelRecord]| {
            let mut out = bytes.clone();
            for ((keep, flag, edges), &p) in levels.iter().zip(&p_elem) {
                put_u64(&mut out, *keep);
                put_f64(&mut out, p);
                put_u64(&mut out, *flag);
                put_u64(&mut out, edges.len() as u64);
                for e in edges {
                    put_u64(&mut out, (u64::from(e.set) << 32) | u64::from(e.elem));
                }
            }
            out
        };
        (ss, build)
    }

    #[test]
    fn decode_rejects_inconsistent_nested_store() {
        use kcov_sketch::WireEncode;
        let (ss, build) = level_records();
        let keeps = ss.reps[0].e_keep.clone();
        assert!(keeps.len() >= 3 && keeps[0] < keeps[1], "{keeps:?}");
        let edges = |n: u32| (0..n).map(|i| Edge::new(i, i)).collect::<Vec<_>>();
        // Base case: every record as encoded, then two live buckets of
        // 2 edges each (4 = cap) under overflowed upper levels.
        let valid: Vec<LevelRecord> = keeps.iter().map(|&k| (k, 0, Vec::new())).collect();
        let mut encoded = Vec::new();
        ss.encode(&mut encoded);
        assert_eq!(build(&valid), encoded);
        let mut full = valid.clone();
        full[0].2 = edges(2);
        full[1].2 = edges(2);
        full.iter_mut().skip(2).for_each(|l| l.1 = 1);
        let back = SmallSet::decode(&mut build(&full).as_slice()).expect("valid nested store");
        assert_eq!((back.reps[0].live, back.reps[0].stored), (2, 4));

        let decode_err = |levels: &[LevelRecord]| {
            SmallSet::decode(&mut build(levels).as_slice())
                .expect_err("must reject")
                .message
        };
        let mut holes = valid.clone();
        holes[1].1 = 1;
        assert!(decode_err(&holes).contains("not a suffix"));
        let mut falling = valid.clone();
        falling[1].0 = keeps[0] - 1;
        assert!(decode_err(&falling).contains("decrease"));
        let mut over = valid.clone();
        over[0].2 = edges(3);
        over[1].2 = edges(2);
        assert!(decode_err(&over).contains("above cap"));
        let mut ghost = valid.clone();
        let top = ghost.len() - 1;
        ghost[top].1 = 1;
        ghost[top].2 = edges(1);
        assert!(decode_err(&ghost).contains("still stores"));
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
    fn one_edge_chunks_match_whole_stream() {
        let ss = many_small(2000, 400, 50, 0.4, 9);
        let params = Params::practical(400, 2000, 50, 8.0);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(19));
        let base = Arc::new(KWise::new(8, 777));
        let proto = SmallSet::with_base(2000, &params, 29, base.clone());
        let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.set as u64)).collect();
        assert_chunking_invariant(
            &proto,
            &edges,
            &fps,
            SmallSet::observe_fp_batch,
            SmallSet::finalize,
        );
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
