//! Algorithm parameters — the paper's Table 2.
//!
//! Table 2 fixes, for instance size `(m, n)`, budget `k` and target
//! approximation `α`:
//!
//! ```text
//! w = min{k, α}
//! s = 9 / (5000·√(2η·log(sα))·log²(mn)) · w/α
//! f = 7·log(mn)                 (superset duplication bound, Claim 4.10)
//! σ = 1 / (2500·log²(mn))       (common-element density threshold)
//! t = 5000·log²(mn) / s         (element-sampling factor of Appendix B)
//! η = 4                          (universe-reduction coverage promise)
//! ```
//!
//! These constants make the analysis go through for astronomically large
//! `(m, n)` but leave no observable behaviour at benchmarkable scales, so
//! [`Params`] supports two modes:
//!
//! * [`ParamMode::Paper`] — the literal Table 2 formulas (with `s` solved
//!   by fixed-point iteration, since it appears inside its own log).
//! * [`ParamMode::Practical`] — identical *functional forms* (every power
//!   of `α`, `k`, `w`, `m`, `n` and every log factor is kept) with the
//!   scalar constants recalibrated so the trade-offs are visible at
//!   `n, m ∈ [10³, 10⁶]`. Every experiment states its mode; scaling
//!   results are mode-independent because the forms are unchanged.

/// Which constant regime to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamMode {
    /// Literal Table 2 constants.
    Paper,
    /// Same formulas, calibrated scalar constants (default).
    Practical,
}

/// Resolved algorithm parameters for one instance shape.
#[derive(Debug, Clone)]
pub struct Params {
    /// Constant regime.
    pub mode: ParamMode,
    /// Number of sets `m`.
    pub m: usize,
    /// Ground-set size `n` (after universe reduction this is the
    /// pseudo-universe size `z`).
    pub n: usize,
    /// Cover budget `k`.
    pub k: usize,
    /// Target approximation factor `α ≥ 1`.
    pub alpha: f64,
    /// `w = min(k, α)` — superset size bound (Table 2).
    pub w: f64,
    /// `s·α` — the bound on `|OPT_large|` (Definition 4.2). Stored as
    /// the product because that is what every formula consumes.
    pub s_alpha: f64,
    /// `f` — max duplicate coverage of a non-common element inside one
    /// superset (Claim 4.10), `Θ(log mn)`.
    pub f: f64,
    /// `σ` — common-element density threshold of the oracle case split.
    pub sigma: f64,
    /// `η = 4` — after universe reduction, the optimum covers at least
    /// `|U|/η` (Definition 3.4 / Theorem 3.6).
    pub eta: f64,
    /// Element-sampling size `|L| = ρ·|U|` used by `LargeSet`
    /// (Appendix B, step 1): `ρ·|U| = t·s·α·η`.
    pub large_set_sample: f64,
    /// Repetitions of the `LargeSet` element-sampling loop (paper:
    /// `O(log n)`).
    pub large_set_reps: usize,
    /// Repetitions inside `SmallSet` per γ-guess (paper: `log n`).
    pub small_set_reps: usize,
    /// Per-(L, M) stored-edge cap in `SmallSet` (Lemma 4.21: `Õ(m/α²)`).
    pub small_set_edge_cap: usize,
    /// Repetitions of the universe-reduction wrapper per `z`-guess
    /// (paper: `log(1/δ)`).
    pub reduction_reps: usize,
}

impl Params {
    /// Natural log of `m·n`, floored at 2 to keep formulas sane on tiny
    /// instances.
    fn log_mn(m: usize, n: usize) -> f64 {
        (((m.max(2)) as f64) * ((n.max(2)) as f64)).ln().max(2.0)
    }

    /// Build parameters in the given constant regime.
    pub fn for_mode(mode: ParamMode, m: usize, n: usize, k: usize, alpha: f64) -> Self {
        match mode {
            ParamMode::Paper => Self::paper(m, n, k, alpha),
            ParamMode::Practical => Self::practical(m, n, k, alpha),
        }
    }

    /// Build parameters with the literal Table 2 constants.
    pub fn paper(m: usize, n: usize, k: usize, alpha: f64) -> Self {
        assert!(alpha >= 1.0, "alpha must be >= 1");
        assert!(k >= 1, "k must be >= 1");
        let lmn = Self::log_mn(m, n);
        let w = (k as f64).min(alpha);
        let eta = 4.0;
        // s = 9/(5000·√(2η·log(sα))·log²(mn)) · w/α, solved by iteration.
        let mut s = w / alpha; // initial guess
        for _ in 0..32 {
            let log_sa = (s * alpha).max(2.0).ln();
            s = 9.0 / (5000.0 * (2.0 * eta * log_sa).sqrt() * lmn * lmn) * (w / alpha);
        }
        let f = 7.0 * lmn;
        let sigma = 1.0 / (2500.0 * lmn * lmn);
        let t = 5000.0 * lmn * lmn / s.max(1e-300);
        let large_set_sample = (t * s * alpha * eta).min(n as f64);
        Params {
            mode: ParamMode::Paper,
            m,
            n,
            k,
            alpha,
            w,
            s_alpha: s * alpha,
            f,
            sigma,
            eta,
            large_set_sample,
            large_set_reps: ((n.max(2) as f64).log2().ceil() as usize).max(1),
            small_set_reps: ((n.max(2) as f64).log2().ceil() as usize).max(1),
            small_set_edge_cap: (((m as f64) * lmn / (alpha * alpha)).ceil() as usize).max(64),
            reduction_reps: 4,
        }
    }

    /// Build parameters with calibrated constants (the default for
    /// experiments at laptop scale). Functional forms match Table 2.
    pub fn practical(m: usize, n: usize, k: usize, alpha: f64) -> Self {
        assert!(alpha >= 1.0, "alpha must be >= 1");
        assert!(k >= 1, "k must be >= 1");
        let lmn = Self::log_mn(m, n);
        let w = (k as f64).min(alpha);
        let eta = 4.0;
        // Same form s ∝ w/α (the polylog dampening set to a constant),
        // so s·α = Θ(w): "large" sets contribute ≥ z/Θ(w), and
        // SmallSet's set-sampling rate Θ(1/(sα)) becomes Θ(1/α) when
        // α ≤ k — the factor the space analysis needs.
        let s_alpha = w.max(2.0);
        // Duplication bound: Θ(log mn) with a small constant.
        let f = (0.5 * lmn).max(2.0);
        // Density threshold: Θ(1/polylog) → constant.
        let sigma = 0.25;
        // Element sample for LargeSet: Θ̃(α) elements (ρ·n = t·s·α·η with
        // the polylogs collapsed to c·log(mn)).
        let large_set_sample = (8.0 * alpha * eta * lmn).min(n as f64);
        Params {
            mode: ParamMode::Practical,
            m,
            n,
            k,
            alpha,
            w,
            s_alpha,
            f,
            sigma,
            eta,
            large_set_sample,
            // One repetition of the Fig 7 pipeline: the paper's O(log n)
            // repetitions drive the no-w-common-element failure mode to
            // 1/poly(n), but with the calibrated 8αη·log(mn) element
            // sample a single repetition already passes every regime
            // test, and repetitions multiply the per-edge sketch-update
            // cost — the dominant term of the batched hot path — one for
            // one (DESIGN.md §12).
            large_set_reps: 1,
            // Same trade as `large_set_reps`: the γ-lane grid inside a
            // single repetition already hedges the sampling-rate guess,
            // and SmallSet's per-edge cost at small α (where its set
            // sampling keeps the most sets) scales linearly in the
            // repetition count.
            small_set_reps: 1,
            // Lemma 4.21's Õ(m/α²): the Õ hides ln² factors, which at
            // laptop scale are the difference between a usable and a
            // starved sub-instance store.
            small_set_edge_cap: (((m as f64) * lmn * lmn / (alpha * alpha)).ceil() as usize)
                .max(1024),
            reduction_reps: 2,
        }
    }

    /// The Fig 2 case split: when `s·α ≥ 2k`, `LargeSet` runs with
    /// superset bound `w = k`; otherwise with `w = α` (and `SmallSet`
    /// also runs).
    pub fn large_set_w(&self) -> f64 {
        if self.s_alpha >= 2.0 * self.k as f64 {
            self.k as f64
        } else {
            self.alpha
        }
    }

    /// Whether `SmallSet` participates (only when `s·α < 2k`; otherwise
    /// Claim 4.3 guarantees `LargeSet`'s case).
    pub fn small_set_active(&self) -> bool {
        self.s_alpha < 2.0 * self.k as f64
    }

    /// Number of supersets `Q = Θ(m·log m / w)` for a given `w`
    /// (Claim 4.9 partitioning). Practical mode uses `2m/w` so supersets
    /// average `w/2` sets.
    pub fn num_supersets(&self, w: f64) -> usize {
        let b = match self.mode {
            ParamMode::Paper => {
                let logm = (self.m.max(2) as f64).ln();
                4.0 * self.m as f64 * logm / w.max(1.0)
            }
            ParamMode::Practical => 2.0 * self.m as f64 / w.max(1.0),
        };
        (b.ceil() as usize).clamp(1, 4 * self.m.max(1))
    }

    /// `φ₁ = Ω̃(α²/m)` — the contributing-class threshold for Case 1 of
    /// `LargeSet` (Eq. 6).
    pub fn phi1(&self) -> f64 {
        let w = self.large_set_w();
        let dampen = match self.mode {
            ParamMode::Paper => {
                let logm = (self.m.max(2) as f64).ln();
                let log_sa = self.s_alpha.max(2.0).ln();
                (w / self.s_alpha) / (8.0 * 4.0 * log_sa * logm)
            }
            ParamMode::Practical => (w / self.s_alpha) / 2.0,
        };
        (dampen * self.alpha * self.alpha / self.m.max(1) as f64).clamp(1e-9, 1.0)
    }

    /// `φ₂ = Ω̃(1)` — the contributing-class threshold for Case 2 of
    /// `LargeSet` (Claim 4.13: `1/(2·log α)`).
    pub fn phi2(&self) -> f64 {
        (1.0 / (2.0 * self.alpha.max(2.0).log2())).clamp(1e-9, 1.0)
    }

    /// Degree of the shared edge-fingerprint hashes. The hash-once hot
    /// path evaluates exactly one set-keyed and one element-keyed
    /// polynomial per edge, so this degree is the per-edge hashing
    /// budget for the *whole* estimator; downstream subroutines only
    /// apply cheap 4-wise mixes to the fingerprints. Practical mode
    /// uses degree 8 (ample independence for every concentration bound
    /// the calibrated constants rely on); Paper mode keeps the literal
    /// `Θ(log mn)`-wise guarantee. Takes the estimator-global `(m, n)`
    /// — not a per-`z` reduced shape — because one fingerprint serves
    /// every lane.
    pub fn hash_degree(mode: ParamMode, m: usize, n: usize) -> usize {
        match mode {
            ParamMode::Practical => 8,
            ParamMode::Paper => {
                let bits = 128 - ((m.max(2) as u128) * (n.max(2) as u128)).leading_zeros();
                (bits as usize).clamp(8, 48)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_table2_shapes() {
        let p = Params::paper(10_000, 10_000, 100, 10.0);
        assert_eq!(p.eta, 4.0);
        assert_eq!(p.w, 10.0); // min(k, alpha)
        let lmn = ((10_000f64) * (10_000f64)).ln();
        assert!((p.f - 7.0 * lmn).abs() < 1e-9);
        assert!((p.sigma - 1.0 / (2500.0 * lmn * lmn)).abs() < 1e-15);
        // s is tiny at this scale.
        assert!(p.s_alpha / p.alpha < 1e-3);
    }

    #[test]
    fn paper_s_fixed_point_converges() {
        // s must satisfy its own equation to high precision.
        let p = Params::paper(100_000, 100_000, 1000, 50.0);
        let lmn = ((100_000f64) * (100_000f64)).ln();
        let s = p.s_alpha / p.alpha;
        let rhs = 9.0 / (5000.0 * (2.0 * 4.0 * (s * p.alpha).max(2.0).ln()).sqrt() * lmn * lmn)
            * (p.w / p.alpha);
        assert!((s - rhs).abs() / rhs < 1e-6, "fixed point not reached");
    }

    #[test]
    fn practical_keeps_functional_forms() {
        // Doubling alpha quarters phi1 (alpha²/m form). Use alphas large
        // enough that the s_alpha floor (max(w/4, 2)) is inactive, so
        // the w/s_alpha dampening is constant.
        let a = Params::practical(10_000, 10_000, 100, 16.0);
        let b = Params::practical(10_000, 10_000, 100, 32.0);
        let ratio = b.phi1() / a.phi1();
        assert!((ratio - 4.0).abs() < 0.2, "phi1 ratio {ratio}");
        // Doubling m halves phi1.
        let c = Params::practical(20_000, 10_000, 100, 16.0);
        assert!((a.phi1() / c.phi1() - 2.0).abs() < 0.2);
    }

    #[test]
    fn case_split_matches_fig2() {
        // Small k relative to s·alpha: the w = k branch.
        let p = Params::practical(1000, 1000, 1, 64.0);
        // s_alpha = max(0.25·w, 2) = 2 >= 2k = 2 → w = k branch.
        assert_eq!(p.large_set_w(), 1.0);
        assert!(!p.small_set_active());
        // Large k: the w = alpha branch + SmallSet.
        let q = Params::practical(1000, 1000, 100, 8.0);
        assert_eq!(q.large_set_w(), 8.0);
        assert!(q.small_set_active());
    }

    #[test]
    fn num_supersets_scales_like_m_over_w() {
        let p = Params::practical(10_000, 1000, 64, 16.0);
        let b16 = p.num_supersets(16.0);
        let b4 = p.num_supersets(4.0);
        assert!((b4 as f64 / b16 as f64 - 4.0).abs() < 0.5);
    }

    #[test]
    fn small_set_edge_cap_scales_like_m_over_alpha_sq() {
        let a = Params::practical(100_000, 10_000, 100, 4.0);
        let b = Params::practical(100_000, 10_000, 100, 8.0);
        let ratio = a.small_set_edge_cap as f64 / b.small_set_edge_cap as f64;
        assert!((ratio - 4.0).abs() < 0.3, "cap ratio {ratio}");
    }

    #[test]
    fn phi2_shrinks_logarithmically() {
        let a = Params::practical(1000, 1000, 10, 4.0);
        let b = Params::practical(1000, 1000, 10, 256.0);
        assert!(a.phi2() > b.phi2());
        assert!(b.phi2() >= 1.0 / (2.0 * 8.0) - 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 1")]
    fn alpha_below_one_rejected() {
        let _ = Params::practical(10, 10, 2, 0.5);
    }

    #[test]
    fn hash_degree_tracks_mode() {
        assert_eq!(
            Params::hash_degree(ParamMode::Practical, 1 << 20, 1 << 20),
            8
        );
        // Paper mode: bits(m·n) clamped to [8, 48].
        assert_eq!(Params::hash_degree(ParamMode::Paper, 2, 2), 8);
        assert_eq!(Params::hash_degree(ParamMode::Paper, 1 << 10, 1 << 10), 21);
        assert_eq!(
            Params::hash_degree(ParamMode::Paper, usize::MAX, usize::MAX),
            48
        );
    }

    #[test]
    fn tiny_instances_do_not_blow_up() {
        let p = Params::practical(1, 1, 1, 1.0);
        assert!(p.f >= 2.0);
        assert!(p.sigma > 0.0);
        assert!(p.num_supersets(1.0) >= 1);
        let q = Params::paper(1, 1, 1, 1.0);
        assert!(q.s_alpha > 0.0);
    }
}
