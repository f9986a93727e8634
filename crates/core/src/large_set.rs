//! `LargeSet` — heavy hitters and contributing classes over superset
//! loads (paper §4.2 and Appendix B; Figs 4, 6, 7).
//!
//! Handles the oracle's case II: some optimal solution's coverage is
//! dominated by sets contributing at least `|C(OPT)|/(sα)` each
//! (`OPT_large`, Definition 4.2). Pipeline per repetition (Fig 7 runs
//! `O(log n)` repetitions so that w.h.p. one of them samples no
//! `w`-common element):
//!
//! 1. **Element sampling** (Appendix B step 1): keep each element in `L`
//!    with probability `ρ = Θ̃(α)/|U|`.
//! 2. **Superset partitioning** (Claim 4.9): hash sets into
//!    `Θ(m·log m/w)` supersets of at most `w = min(k, α)` (per the Fig 2
//!    branch) sets each; the stream of surviving `(set, element)` edges
//!    becomes a stream of superset ids, whose frequency vector `v⃗[i]`
//!    is the total sampled load of superset `i`.
//! 3. **Contributing classes** (Fig 6): one `F2-Contributing(φ₁, 3sα)`
//!    instance for Case 1 (a class of few very loaded supersets) and one
//!    `F2-Contributing(φ₂, r₂)` for Case 2 (a larger class of
//!    `≥ z/α`-loaded supersets); a third branch samples supersets
//!    directly and measures their distinct coverage with `L0` sketches
//!    for contributing classes bigger than `r₂`.
//! 4. **Thresholding** (Fig 6/7): a reported superset whose approximate
//!    load reaches `thr₁/2 = |L|/(36·η·sα)` or `thr₂/2 = |L|/(12·η·α)`
//!    certifies `|C(OPT)| ≥ |U|/Θ̃(α)` (Theorem B.6); `LargeSet` then
//!    returns that guarantee value — a sound lower bound — and the
//!    winning superset as the reporting witness.

use std::sync::Arc;

use kcov_hash::{reduce_to_range, KWise, SeedSequence};
use kcov_sketch::scratch::{at_least, with_columns};
use kcov_sketch::{
    probe_mix, ContributingConfig, F2Contributing, L0Estimator, OaMap, SpaceSink, SpaceUsage,
};
use kcov_stream::Edge;

use crate::params::Params;
use crate::Witness;

/// The bound `⌈2^61/r⌉` below which a raw hash lands in bucket 0 of an
/// `r`-bucket split: `reduce_to_range(h, r) == 0` iff `h·r < 2^61` iff
/// `h < ⌈2^61/r⌉`, so the superset-sampling test is one compare.
fn bucket_zero_below(r: u64) -> u64 {
    (1u64 << 61).div_ceil(r)
}

/// A repetition's sampled supersets in ascending id order: the
/// canonical order for the finalize scan, merge and wire encoding (the
/// table's own entry order is insertion order).
fn sorted_sampled(sampled: &OaMap<L0Estimator>) -> Vec<(u64, &L0Estimator)> {
    let mut out: Vec<(u64, &L0Estimator)> = sampled.iter().collect();
    out.sort_unstable_by_key(|&(sid, _)| sid);
    out
}

/// One repetition of the element-sampled pipeline.
#[derive(Debug, Clone)]
struct Rep {
    /// Element `e ∈ L` iff `probe_mix(e ^ gate_salt) < keep_below`
    /// (probability ρ). Keyed on the *reduced* pseudo-element — two raw
    /// elements mapping to the same pseudo-element must share the
    /// keep/reject decision, so the gate must never move to raw ids or
    /// their fingerprints. Pseudo-elements are already 4-wise hash
    /// outputs, so the salted finalizer only decorrelates repetitions;
    /// the whole rejection test is one multiply-mix and one compare
    /// against a threshold fixed at configuration time (`ρ·2^64`),
    /// replacing the degree-8 polynomial that used to fire for every
    /// edge of every repetition.
    gate_salt: u64,
    keep_below: u64,
    /// Superset id of a set: a 4-wise mix over the shared set
    /// fingerprint (hash-once hot path).
    shash: KWise,
    num_supersets: u64,
    /// Cases 1 and 2 share one two-tier contributing-class finder over
    /// the superset ids `[num_supersets]`: one sampling hash, one dyadic
    /// level schedule up to r₂, one CountSketch per level. Levels within
    /// the Case-1 class-size bound (≤ 3sα) carry the wide
    /// `φ₁`-calibrated sketch — which serves Case 2 at those sizes at
    /// least as accurately as the `φ₂` shape would — and only the deeper
    /// Case-2-only levels carry the narrow `φ₂` shape. The split finders
    /// this replaces fed byte-identical substreams to two sketches per
    /// shared level.
    cntr: F2Contributing,
    /// Case 2 fallback: directly sampled supersets with distinct-element
    /// coverage sketches (classes larger than r₂), superset id → sketch.
    /// Order-sensitive consumers walk [`sorted_sampled`]; stats and the
    /// ledger are commutative sums over entry order.
    ssel_buckets: u64,
    ssel_hash: KWise,
    sampled: OaMap<L0Estimator>,
    sample_seed: u64,
}

/// Outcome of one repetition.
#[derive(Debug, Clone, Copy)]
struct RepHit {
    superset: u64,
    load_estimate: f64,
}

/// Single-pass case-II subroutine (Figs 4, 6, 7).
#[derive(Debug, Clone)]
pub struct LargeSet {
    u: usize,
    m: usize,
    alpha: f64,
    eta: f64,
    s_alpha: f64,
    f: f64,
    /// Expected `|L| = ρ·|U|`.
    l_expected: f64,
    /// Element-sampling rate ρ.
    rho: f64,
    /// Superset size bound `w` chosen by the Fig 2 branch.
    w: f64,
    /// Cover budget `k`.
    k: usize,
    /// Shared set fingerprint base (hash-once hot path); the per-rep
    /// `shash` mixes its output into superset ids. One `Arc`'d
    /// coefficient table per process; this holder counts a 1-word
    /// handle.
    set_base: Arc<KWise>,
    reps: Vec<Rep>,
}

impl LargeSet {
    /// Create the subroutine for universe size `u` with a private set
    /// fingerprint base, for unfed state: a caller that feeds edges
    /// builds with [`LargeSet::with_base`] on a base it holds, whose
    /// fingerprints [`LargeSet::observe_fp_batch`] takes (estimator
    /// lanes share one). `w` is the superset size bound chosen by the
    /// Fig 2 branch (`k` or `α`).
    pub fn new(u: usize, params: &Params, seed: u64) -> Self {
        let degree = Params::hash_degree(params.mode, params.m, params.n);
        let base_seed = SeedSequence::labeled(seed, "large-set-base").next_seed();
        Self::with_base(u, params, seed, Arc::new(KWise::new(degree, base_seed)))
    }

    /// Create the subroutine consuming set fingerprints under the shared
    /// `set_base`.
    pub fn with_base(u: usize, params: &Params, seed: u64, set_base: Arc<KWise>) -> Self {
        let mut seq = SeedSequence::labeled(seed, "large-set-f");
        let m = params.m;
        let w = params.large_set_w();
        let num_supersets = params.num_supersets(w) as u64;
        let rho = (params.large_set_sample / u.max(1) as f64).min(1.0);
        // Gate threshold on the full 64-bit mix range; the saturating
        // float cast maps ρ = 1 to `u64::MAX` (keep everything short of
        // one mix value in 2^64 — the same epsilon the old field-range
        // threshold carried).
        let keep_below = (rho * 2f64.powi(64)) as u64;
        let r1 = (3.0 * params.s_alpha).ceil() as u64;
        // r₂: the largest class size the sparse finder handles; beyond
        // it the direct superset-sampling branch takes over.
        let r2 = (num_supersets / 8).max(8).min(num_supersets.max(1));
        // Superset sampling rate for the fallback: expect ~2·B/r₂ = 16
        // sampled ids, each carrying an Õ(1) distinct-element sketch.
        // This branch must stay Õ(1) total or it flattens the m/α²
        // space curve (it is α-independent).
        let ssel_buckets = (r2 / 2).max(1);
        let reps = (0..params.large_set_reps.max(1))
            .map(|_| {
                let mut c1 = ContributingConfig::new(params.phi1(), r1.max(1));
                let mut c2 = ContributingConfig::new(params.phi2(), r2);
                // Four survivors per size-guess level: enough for the
                // ≥ thr/2 median test (the class representative only has
                // to be *sampled*, not measured precisely — the paired
                // CountSketch supplies the load estimate), and each
                // subsampled level admits `keep/modulus` of the kept
                // elements, so each cut from the old 12 proportionally
                // trims the expected heavy-hitter updates per survivor.
                c1.survivors_per_class = 4;
                c2.survivors_per_class = 4;
                // Superset-id keys are already uniform hash outputs, so
                // the finders' internal sampling hashes need only modest
                // independence — pairwise instead of Θ(log mn) keeps the
                // kept-element path cheap (the dyadic level split only
                // needs pairwise concentration per level).
                c1.sampling_degree = Some(2);
                c2.sampling_degree = Some(2);
                // The Fig 6 thresholds carry 2× slack of their own, so
                // the inner heavy hitters can run leaner than the
                // standalone Theorem 2.10 defaults; φ keeps all of γ
                // and the width multiplier drops to 2 (detection quality
                // is gated by the regime tests, space by exp_tradeoff:
                // the thresholds sit Ω(sα) above the per-row noise even
                // at width 2/φ, and the table is the α²/m space driver).
                for c in [&mut c1, &mut c2] {
                    c.phi_factor = 1.0;
                    c.hh_width_factor = 2.0;
                    // The thresholds compare CountSketch medians against
                    // Ω(|L|/sα)-sized loads, far above the per-row noise,
                    // so 2 rows give the same accept/reject decisions as
                    // the Theorem 2.10 default of 5 at 40% of the update
                    // cost (the hot path pays one row-update per row per
                    // kept element; the even-row median rounds toward
                    // zero, which only makes the threshold test more
                    // conservative).
                    c.hh_rows = 2;
                }
                let cntr_seed = seq.next_seed();
                Rep {
                    gate_salt: seq.next_seed(),
                    keep_below,
                    shash: KWise::new(4, seq.next_seed()),
                    num_supersets,
                    cntr: F2Contributing::new_paired(c1, c2, num_supersets as usize, u, cntr_seed),
                    ssel_buckets,
                    ssel_hash: KWise::new(4, seq.next_seed()),
                    sampled: OaMap::new(),
                    sample_seed: seq.next_seed(),
                }
            })
            .collect();
        LargeSet {
            u,
            m,
            alpha: params.alpha,
            eta: params.eta,
            s_alpha: params.s_alpha,
            f: params.f,
            l_expected: rho * u as f64,
            rho,
            w,
            k: params.k,
            set_base,
            reps,
        }
    }

    /// Observe a chunk given precomputed set fingerprints, columnar and
    /// repetition-outer: per repetition the element gate runs over the
    /// chunk, survivors are gathered into dense columns (branch-free:
    /// every edge is written, the write index advances by the gate), and
    /// the superset-id hash, the contributing-class finder and the
    /// superset-sampling hash consume those columns batched. When every
    /// edge passes the gate (ρ = 1), the chunk's own columns are used
    /// without a copy. The columns come from the per-thread
    /// [`kcov_sketch::scratch`] pool. The final state does not depend on
    /// how the stream is cut into chunks: every per-item decision uses
    /// the same hash values in the same arrival order, and the batched
    /// sketch inserts are documented state-identical to their scalar
    /// loops.
    pub fn observe_fp_batch(&mut self, edges: &[Edge], fps: &[u64]) {
        debug_assert_eq!(edges.len(), fps.len());
        let n = edges.len();
        with_columns(|[elems, surv_fps, surv_elems, sh, sids, csh, sel]| {
            elems.clear();
            elems.extend(edges.iter().map(|e| e.elem as u64));
            for rep in &mut self.reps {
                let (salt, keep_below) = (rep.gate_salt, rep.keep_below);
                let passes = |elem: u64| probe_mix(elem ^ salt) < keep_below;
                let all_pass = keep_below == u64::MAX && elems.iter().all(|&e| passes(e));
                let (kept_fps, kept_elems): (&[u64], &[u64]) = if all_pass {
                    (fps, elems)
                } else {
                    let (dst_fps, dst_elems) = (at_least(surv_fps, n), at_least(surv_elems, n));
                    let mut kept = 0;
                    for (&elem, &fp) in elems.iter().zip(fps) {
                        dst_fps[kept] = fp;
                        dst_elems[kept] = elem;
                        kept += usize::from(passes(elem));
                    }
                    (&surv_fps[..kept], &surv_elems[..kept])
                };
                if kept_fps.is_empty() {
                    continue;
                }
                rep.shash.hash_batch(kept_fps, sh);
                sids.clear();
                sids.extend(sh.iter().map(|&h| reduce_to_range(h, rep.num_supersets)));
                rep.cntr.sampling_hash().hash_batch(sids, csh);
                rep.cntr.insert_batch_prehashed(sids, csh);
                rep.ssel_hash.hash_batch(sids, sel);
                let below = bucket_zero_below(rep.ssel_buckets);
                for ((&sid, &elem), &h) in sids.iter().zip(kept_elems).zip(sel.iter()) {
                    if h < below {
                        let seed = rep.sample_seed ^ sid.wrapping_mul(0x9e3779b97f4a7c15);
                        rep.sampled
                            .get_or_insert_with(sid, || L0Estimator::new(16, 2, seed))
                            .insert(elem);
                    }
                }
            }
        });
    }

    /// Threshold 1 (Fig 7): `|L|/(18·η·sα)`, halved at comparison time
    /// for the `(1 ± 1/2)` frequency estimates.
    fn thr1(&self) -> f64 {
        self.l_expected / (18.0 * self.eta * self.s_alpha)
    }

    /// Threshold 2 (Fig 7): `|L|/(6·η·α)`.
    fn thr2(&self) -> f64 {
        self.l_expected / (6.0 * self.eta * self.alpha)
    }

    /// The certified lower bound returned on success (Theorem B.6:
    /// `|U|/(54·f·η·α)`; the constant is the paper's).
    pub fn guarantee(&self) -> f64 {
        self.u as f64 / (54.0 * self.f * self.eta * self.alpha)
    }

    /// Sound estimate from a hit's approximate load: rescale the sampled
    /// load to the full universe (`/ρ`), discount the within-superset
    /// duplication bound `f` (Claim 4.10), the `(1 ± 1/2)` frequency
    /// error (`2/3`, Fig 6's `2ṽ/(3f)`), and — when the superset bound
    /// `w` exceeds `k` — the Observation 2.4 group factor `k/w` so the
    /// value lower-bounds a *k*-cover's coverage.
    fn hit_estimate(&self, hit: RepHit) -> f64 {
        let mut est = (2.0 / 3.0) * hit.load_estimate / (self.f * self.rho.max(1e-300));
        if self.w > self.k as f64 {
            est *= self.k as f64 / self.w;
        }
        // Extra 1/2 safety margin against sampling fluctuation, then
        // never below the Theorem B.6 certificate.
        (0.5 * est).max(self.guarantee()).min(self.u as f64)
    }

    fn rep_hit(&self, rep: &Rep) -> Option<RepHit> {
        let t1 = 0.5 * self.thr1();
        let t2 = 0.5 * self.thr2();
        // Tier bounds mirror construction: Case 1 searches class sizes
        // up to r₁ = 3sα, Case 2 up to r₂; both read the one shared
        // finder and differ only in which levels they scan and which
        // threshold they apply.
        let r1p2 = ((3.0 * self.s_alpha).ceil() as u64)
            .max(1)
            .next_power_of_two();
        let r2p2 = (rep.num_supersets / 8)
            .max(8)
            .min(rep.num_supersets.max(1))
            .next_power_of_two();
        // Case 1 (small classes, threshold t₁) first, then Case 2
        // (medium classes, t₂); each picks the strongest qualifying hit
        // among the reports of the levels within its bound — largest
        // estimate, ties to the smaller superset id — the order the
        // split finders' est-sorted reports walked. Levels ascend by
        // modulus, so each bound covers a prefix of them: Case 2 reuses
        // Case 1's reports, and the deeper levels are enumerated only
        // when Case 1 finds no hit.
        let domain = rep.cntr.domain_hashes();
        let moduli: Vec<u64> = rep.cntr.level_parts().iter().map(|l| l.0).collect();
        let mut reports = Vec::new();
        for (bound, thr) in [(r1p2, t1), (r2p2, t2)] {
            while reports.len() < moduli.len() && moduli[reports.len()] <= bound {
                reports.push(rep.cntr.level_heavy_hitters(reports.len(), &domain));
            }
            let mut best: Option<(i64, u64)> = None;
            for h in reports.iter().flatten() {
                if (h.est as f64) >= thr
                    && best.is_none_or(|(e, i)| h.est > e || (h.est == e && h.item < i))
                {
                    best = Some((h.est, h.item));
                }
            }
            if let Some((est, item)) = best {
                return Some(RepHit {
                    superset: item,
                    load_estimate: est as f64,
                });
            }
        }
        // Case 2 fallback: directly sampled supersets, distinct coverage.
        // Scan in superset-id order so the returned hit is a pure
        // function of the stream, not of the map's iteration order.
        for (sid, l0) in sorted_sampled(&rep.sampled) {
            let v = l0.estimate();
            if v >= t2 {
                return Some(RepHit {
                    superset: sid,
                    load_estimate: v,
                });
            }
        }
        None
    }

    /// Finalize: `Some((guarantee, witness))` when any repetition
    /// certifies a heavy superset; `None` ("infeasible") otherwise.
    pub fn finalize(&self) -> Option<(f64, Witness)> {
        let mut best: Option<(usize, RepHit)> = None;
        for (i, rep) in self.reps.iter().enumerate() {
            if let Some(hit) = self.rep_hit(rep) {
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| hit.load_estimate > b.load_estimate)
                {
                    best = Some((i, hit));
                }
            }
        }
        best.map(|(rep, hit)| {
            (
                self.hit_estimate(hit),
                Witness::Superset {
                    rep,
                    superset: hit.superset,
                },
            )
        })
    }

    /// Aggregated sketch telemetry over the contributing-class finders'
    /// CountSketches and the directly sampled supersets' `L0` sketches.
    pub fn sketch_stats(&self) -> kcov_obs::SketchStats {
        let mut agg = kcov_obs::SketchStats::default();
        for rep in &self.reps {
            agg.absorb(rep.cntr.stats());
            for (_, l0) in rep.sampled.iter() {
                agg.absorb(l0.stats());
            }
        }
        agg
    }

    /// The member sets of a superset (for reporting): all sets hashing
    /// to `superset` under the repetition's partition.
    pub fn superset_members(&self, rep: usize, superset: u64) -> Vec<u32> {
        let r = &self.reps[rep];
        (0..self.m as u64)
            .filter(|&s| {
                r.shash
                    .hash_to_range(self.set_base.hash(s), r.num_supersets)
                    == superset
            })
            .map(|s| s as u32)
            .collect()
    }

    /// Universe and set-id ranges `(u, m)` this subroutine was built for.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.u, self.m)
    }

    /// Number of repetitions.
    pub fn num_reps(&self) -> usize {
        self.reps.len()
    }

    /// Merge a subroutine built with the same parameters and seed over a
    /// disjoint stream shard. The contributing-class finders merge by
    /// CountSketch addition, exactly; the directly
    /// sampled superset map merges exactly — each sampled id's `L0`
    /// sketch is seeded by `sample_seed ^ f(sid)`, a pure function of
    /// the id, so the same id observed on two shards carries compatible
    /// sketches and their union is the serial sketch. Panics on
    /// configuration or seed mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.u, self.m, self.k, self.reps.len()),
            (other.u, other.m, other.k, other.reps.len()),
            "LargeSet merge requires identical configuration"
        );
        assert_eq!(
            self.set_base.hash(0x5eed_c0de),
            other.set_base.hash(0x5eed_c0de),
            "LargeSet merge requires identical hash functions"
        );
        for (a, b) in self.reps.iter_mut().zip(&other.reps) {
            assert_eq!(
                (a.keep_below, a.num_supersets, a.ssel_buckets),
                (b.keep_below, b.num_supersets, b.ssel_buckets),
                "LargeSet merge requires identical configuration (repetition shape)"
            );
            // `gate_salt` and `sample_seed` derive the element gate and
            // the per-superset-id sketch hashes, so they count as part
            // of the hash-function identity.
            assert_eq!(
                (
                    a.gate_salt,
                    a.shash.hash(0x5eed_c0de),
                    a.ssel_hash.hash(0x5eed_c0de),
                    a.sample_seed
                ),
                (
                    b.gate_salt,
                    b.shash.hash(0x5eed_c0de),
                    b.ssel_hash.hash(0x5eed_c0de),
                    b.sample_seed
                ),
                "LargeSet merge requires identical hash functions"
            );
            a.cntr.merge(&b.cntr);
            for (sid, l0) in sorted_sampled(&b.sampled) {
                match a.sampled.get_mut(sid) {
                    Some(mine) => mine.merge(l0),
                    None => a.sampled.set(sid, l0.clone()),
                }
            }
        }
    }
}

// ---- wire format ----------------------------------------------------

const TAG_LS: u64 = 0x4c53; // "LS"

impl kcov_sketch::WireEncode for LargeSet {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::{put_f64, put_fc_full, put_kwise, put_l0_full, put_u64};
        put_u64(out, TAG_LS);
        put_u64(out, self.u as u64);
        put_u64(out, self.m as u64);
        put_f64(out, self.alpha);
        put_f64(out, self.eta);
        put_f64(out, self.s_alpha);
        put_f64(out, self.f);
        put_f64(out, self.l_expected);
        put_f64(out, self.rho);
        put_f64(out, self.w);
        put_u64(out, self.k as u64);
        put_kwise(out, &self.set_base);
        put_u64(out, self.reps.len() as u64);
        for rep in &self.reps {
            put_u64(out, rep.gate_salt);
            put_u64(out, rep.keep_below);
            put_kwise(out, &rep.shash);
            put_u64(out, rep.num_supersets);
            put_fc_full(out, &rep.cntr);
            put_u64(out, rep.ssel_buckets);
            put_kwise(out, &rep.ssel_hash);
            put_u64(out, rep.sample_seed);
            // Sampled supersets in ascending id order: the encoding of a
            // state is unique, so replica files are comparable bytewise.
            put_u64(out, rep.sampled.len() as u64);
            for (sid, l0) in sorted_sampled(&rep.sampled) {
                put_u64(out, sid);
                put_l0_full(out, l0);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{err, take_f64, take_fc_full, take_kwise, take_l0_full, take_u64};
        if take_u64(input)? != TAG_LS {
            return Err(err("bad LargeSet tag"));
        }
        let u = take_u64(input)? as usize;
        let m = take_u64(input)? as usize;
        let alpha = take_f64(input)?;
        let eta = take_f64(input)?;
        let s_alpha = take_f64(input)?;
        let f = take_f64(input)?;
        let l_expected = take_f64(input)?;
        let rho = take_f64(input)?;
        let w = take_f64(input)?;
        let k = take_u64(input)? as usize;
        let set_base = Arc::new(take_kwise(input)?);
        let num_reps = take_u64(input)? as usize;
        if num_reps > input.len() {
            return Err(err("LargeSet repetition count exceeds input"));
        }
        let mut reps = Vec::with_capacity(num_reps);
        for _ in 0..num_reps {
            let gate_salt = take_u64(input)?;
            let keep_below = take_u64(input)?;
            let shash = take_kwise(input)?;
            let num_supersets = take_u64(input)?;
            if num_supersets < 1 {
                return Err(err("LargeSet superset count must be positive"));
            }
            let cntr = take_fc_full(input)?;
            if cntr.domain() != num_supersets {
                return Err(err(format!(
                    "LargeSet finder domain {} disagrees with its {num_supersets} supersets",
                    cntr.domain()
                )));
            }
            let ssel_buckets = take_u64(input)?;
            if ssel_buckets < 1 {
                return Err(err("LargeSet ssel bucket count must be positive"));
            }
            let ssel_hash = take_kwise(input)?;
            let sample_seed = take_u64(input)?;
            let n = take_u64(input)? as usize;
            if n > input.len() {
                return Err(err("LargeSet sampled-superset count exceeds input"));
            }
            let mut sampled = OaMap::new();
            let mut last: Option<u64> = None;
            for _ in 0..n {
                let sid = take_u64(input)?;
                if last.is_some_and(|p| sid <= p) {
                    return Err(err("LargeSet sampled supersets not strictly ascending"));
                }
                last = Some(sid);
                sampled.set(sid, take_l0_full(input)?);
            }
            reps.push(Rep {
                gate_salt,
                keep_below,
                shash,
                num_supersets,
                cntr,
                ssel_buckets,
                ssel_hash,
                sampled,
                sample_seed,
            });
        }
        if reps.is_empty() {
            return Err(err("LargeSet has no repetitions"));
        }
        Ok(LargeSet {
            u,
            m,
            alpha,
            eta,
            s_alpha,
            f,
            l_expected,
            rho,
            w,
            k,
            set_base,
            reps,
        })
    }
}

impl SpaceUsage for LargeSet {
    /// A 1-word handle on the shared base (coefficients counted once by
    /// their owner), then the `O(log n)` repetitions, aggregated into
    /// shared component subtrees (repetition counts are a parameter, not
    /// structure worth one trace event each): per-rep hashes plus the
    /// 2-word `(gate_salt, keep_below)` gate under `hashes`, the fused
    /// two-tier contributing-class finder under `cntr`, and the directly
    /// sampled supersets under `sampled` (sketches plus a 2-word map
    /// entry per id).
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("set_base", 1);
        for r in &self.reps {
            node.leaf(
                "hashes",
                2 + r.shash.space_words() + r.ssel_hash.space_words(),
            );
            r.cntr.space_ledger(node.child("cntr"));
            let sampled = node.child("sampled");
            for (_, l0) in r.sampled.iter() {
                l0.space_ledger(sampled);
            }
            sampled.leaf("entries", 2 * r.sampled.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assert_chunking_invariant;
    use kcov_hash::MERSENNE_P;
    use kcov_stream::gen::{few_large, many_small};
    use kcov_stream::{edge_stream, ArrivalOrder};

    fn feed(ls: &mut LargeSet, edges: &[Edge]) {
        let fps: Vec<u64> = edges
            .iter()
            .map(|e| ls.set_base.hash(e.set as u64))
            .collect();
        ls.observe_fp_batch(edges, &fps);
    }

    #[test]
    fn fires_on_few_large_instances() {
        // Regime II: 3 disjoint sets of 500 elements dominate (n = 2000,
        // OPT covers ≥ 1500 = 3n/4 ≥ n/η).
        let ss = few_large(2000, 300, 3, 500, 1);
        let params = Params::practical(300, 2000, 10, 6.0);
        let mut ls = LargeSet::new(2000, &params, 7);
        feed(&mut ls, &edge_stream(&ss, ArrivalOrder::Shuffled(3)));
        let out = ls.finalize();
        assert!(out.is_some(), "LargeSet must fire on regime II");
        let (est, _) = out.unwrap();
        assert!(est > 0.0);
        // Sound: guarantee value stays below OPT (≥ 1500).
        assert!(est <= 1514.0, "estimate {est} above OPT");
    }

    #[test]
    fn guarantee_value_scales_inversely_with_alpha() {
        let p4 = Params::practical(300, 2000, 10, 4.0);
        let p16 = Params::practical(300, 2000, 10, 16.0);
        let g4 = LargeSet::new(2000, &p4, 1).guarantee();
        let g16 = LargeSet::new(2000, &p16, 1).guarantee();
        assert!(g4 > g16);
        assert!((g4 / g16 - 4.0).abs() < 1.0, "ratio {}", g4 / g16);
    }

    #[test]
    fn winning_superset_contains_a_large_set() {
        let ss = few_large(2000, 300, 3, 500, 2);
        let params = Params::practical(300, 2000, 10, 6.0);
        let mut ls = LargeSet::new(2000, &params, 11);
        feed(&mut ls, &edge_stream(&ss, ArrivalOrder::RoundRobin));
        let (_, witness) = ls.finalize().expect("fires");
        let Witness::Superset { rep, superset } = witness else {
            panic!("wrong witness kind");
        };
        let members = ls.superset_members(rep, superset);
        assert!(!members.is_empty());
        // The winning superset should contain at least one of the three
        // large sets (ids 0, 1, 2) — that is what made it heavy.
        assert!(
            members.iter().any(|&s| s < 3),
            "superset {members:?} holds no large set"
        );
    }

    #[test]
    fn infeasible_on_many_small_instances() {
        // Regime III: all sets contribute ~16 of 800 = far below
        // z/(sα); no superset accumulates a heavy sampled load relative
        // to thresholds... The subroutine may still fire occasionally
        // (thresholds are probabilistic); what must hold is soundness:
        // the guarantee value never exceeds OPT.
        let ss = many_small(2000, 200, 50, 0.4, 5);
        let params = Params::practical(200, 2000, 50, 8.0);
        let mut ls = LargeSet::new(2000, &params, 13);
        feed(&mut ls, &edge_stream(&ss, ArrivalOrder::Shuffled(9)));
        if let Some((est, _)) = ls.finalize() {
            assert!(est <= 800.0, "estimate {est} above OPT 800");
        }
    }

    #[test]
    fn space_scales_inversely_with_alpha_squared() {
        // phi1 ∝ α²/m drives the dominant Case-1 finder: quadrupling α
        // should cut space substantially.
        let p_small = Params::practical(20_000, 20_000, 64, 4.0);
        let p_large = Params::practical(20_000, 20_000, 64, 16.0);
        let s_small = LargeSet::new(20_000, &p_small, 1).space_words();
        let s_large = LargeSet::new(20_000, &p_large, 1).space_words();
        assert!(
            (s_small as f64) > 2.0 * s_large as f64,
            "space did not shrink: {s_small} vs {s_large}"
        );
    }

    #[test]
    fn empty_stream_is_infeasible() {
        let params = Params::practical(100, 1000, 5, 4.0);
        let ls = LargeSet::new(1000, &params, 1);
        assert!(ls.finalize().is_none());
    }

    #[test]
    fn merge_matches_serial_on_firing_instance() {
        let ss = few_large(2000, 300, 3, 500, 6);
        let params = Params::practical(300, 2000, 10, 6.0);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(21));
        let proto = LargeSet::new(2000, &params, 31);
        let mut serial = proto.clone();
        feed(&mut serial, &edges);
        let (head, tail) = edges.split_at(edges.len() / 2);
        let mut left = proto.clone();
        let mut right = proto;
        feed(&mut left, head);
        feed(&mut right, tail);
        left.merge(&right);
        let a = serial.finalize().expect("fires on regime II");
        let b = left.finalize().expect("merged must fire too");
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "estimate must match");
        assert_eq!(a.1, b.1, "witness must match");
    }

    #[test]
    fn one_edge_chunks_match_whole_stream() {
        let ss = few_large(2000, 300, 3, 500, 8);
        let params = Params::practical(300, 2000, 10, 6.0);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(17));
        let base = Arc::new(KWise::new(8, 555));
        let proto = LargeSet::with_base(2000, &params, 19, base.clone());
        let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.set as u64)).collect();
        assert_chunking_invariant(
            &proto,
            &edges,
            &fps,
            LargeSet::observe_fp_batch,
            LargeSet::finalize,
        );
    }

    #[test]
    fn bucket_zero_bound_is_the_range_reduction() {
        for r in [
            1u64,
            2,
            3,
            7,
            8,
            1000,
            12_345,
            (1 << 61) - 2,
            1 << 61,
            u64::MAX,
        ] {
            let below = bucket_zero_below(r);
            for h in [
                0,
                1,
                below.saturating_sub(1),
                below,
                below + 1,
                MERSENNE_P - 1,
            ] {
                assert_eq!(h < below, reduce_to_range(h, r) == 0, "r = {r}, h = {h}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_rep_count_mismatch() {
        let mut p1 = Params::practical(100, 1000, 5, 4.0);
        let p2 = p1.clone();
        p1.large_set_reps = p2.large_set_reps + 1;
        let mut a = LargeSet::new(1000, &p1, 1);
        let b = LargeSet::new(1000, &p2, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let params = Params::practical(100, 1000, 5, 4.0);
        let mut a = LargeSet::new(1000, &params, 1);
        let b = LargeSet::new(1000, &params, 2);
        a.merge(&b);
    }

    #[test]
    fn superset_membership_is_a_partition() {
        let params = Params::practical(50, 500, 5, 4.0);
        let ls = LargeSet::new(500, &params, 3);
        let b = ls.reps[0].num_supersets;
        let mut seen = [false; 50];
        for sid in 0..b {
            for s in ls.superset_members(0, sid) {
                assert!(!seen[s as usize], "set {s} in two supersets");
                seen[s as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "partition must cover all sets");
    }
}
