//! McGregor & Vu (reference \[34\] of the paper) — two baselines:
//!
//! 1. [`mv_set_arrival`]: the `(2 + ε)`-approximate set-arrival
//!    thresholding algorithm (`Õ(k/ε³)` space, Table 1 row 5): guess
//!    `v ≈ OPT` on a geometric grid; take an arriving set while fewer
//!    than `k` are chosen whenever its marginal coverage is `≥ v/(2k)`.
//! 2. [`MvEdgeArrival`]: their `Õ(m/ε²)`-space *edge-arrival*
//!    algorithm (Table 1 row 3): guess `z ≈ OPT`; subsample elements at
//!    rate `p_z ∝ k·log m/(ε²·z)`; store the induced sub-instance and run
//!    offline greedy on it after the pass, rescaling by `1/p_z`. This is
//!    exactly the element-sampling lemma (the paper's Lemma 2.5) turned
//!    into an algorithm, and is the `O(1)`-approximation the paper's
//!    Theorem 3.1 composes with for constant α.

use std::collections::HashSet;

use kcov_hash::{pairwise, SeedSequence, MERSENNE_P};
use kcov_sketch::space::{Space, SpaceSink, SpaceUsage};
use kcov_stream::{Edge, SetSystem};

use crate::greedy::greedy_max_cover;
use crate::CoverResult;

/// Set-arrival `(2 + ε)` thresholding (McGregor–Vu).
pub fn mv_set_arrival(system: &SetSystem, k: usize, epsilon: f64) -> CoverResult {
    assert!(k >= 1, "k must be positive");
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
    let max_singleton = system.max_set_size();
    if max_singleton == 0 {
        return CoverResult {
            chosen: Vec::new(),
            estimated_coverage: 0.0,
        };
    }
    // Guess grid: v in [max_singleton, k·max_singleton].
    let mut guesses = Vec::new();
    let mut v = max_singleton as f64;
    let top = (k * max_singleton) as f64;
    while v <= top * (1.0 + epsilon) {
        guesses.push(v);
        v *= 1.0 + epsilon;
    }
    let mut best = CoverResult {
        chosen: Vec::new(),
        estimated_coverage: 0.0,
    };
    for v in guesses {
        let mut covered: HashSet<u32> = HashSet::new();
        let mut chosen = Vec::new();
        for i in 0..system.num_sets() {
            if chosen.len() >= k {
                break;
            }
            let gain = system
                .set(i)
                .iter()
                .filter(|e| !covered.contains(e))
                .count();
            if gain as f64 >= v / (2.0 * k as f64) {
                chosen.push(i);
                covered.extend(system.set(i).iter().copied());
            }
        }
        if covered.len() as f64 > best.estimated_coverage {
            best = CoverResult {
                chosen,
                estimated_coverage: covered.len() as f64,
            };
        }
    }
    best
}

/// One OPT-guess lane of the edge-arrival algorithm.
#[derive(Debug)]
struct GuessLane {
    /// The OPT guess `z` (kept for experiment logging/debugging).
    #[allow(dead_code)]
    z: f64,
    /// Element-sampling threshold: keep `e` iff `hash(e) < keep_below`.
    keep_below: u64,
    /// Effective sampling probability.
    p: f64,
    /// Stored sampled edges (capped).
    edges: Vec<Edge>,
    overflowed: bool,
}

/// McGregor–Vu style edge-arrival streaming max cover via element
/// sampling + offline greedy (`Õ(m/ε²)` space, constant factor).
#[derive(Debug)]
pub struct MvEdgeArrival {
    n: usize,
    m: usize,
    k: usize,
    hash: kcov_hash::KWise,
    lanes: Vec<GuessLane>,
    cap_per_lane: usize,
    /// Expected sampled coverage for the correct guess; also the
    /// acceptance floor guarding against wild rescaling of tiny counts.
    target_sample: f64,
}

impl MvEdgeArrival {
    /// Create the algorithm for a stream with `n` elements, `m` sets,
    /// solution size `k` and accuracy `epsilon`.
    pub fn new(n: usize, m: usize, k: usize, epsilon: f64, seed: u64) -> Self {
        assert!(n >= 1 && m >= 1 && k >= 1, "need n, m, k >= 1");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        let mut seq = SeedSequence::labeled(seed, "mv-edge-arrival");
        let logm = ((m as f64).ln()).max(1.0);
        // Target: p_z·z ≈ c·k·log m / ε² sampled covered elements.
        let target_sample = (4.0 * k as f64 * logm / (epsilon * epsilon)).max(8.0);
        let mut lanes = Vec::new();
        let mut z = k as f64; // OPT >= k whenever k nonempty disjoint-ish sets exist; start low anyway
        z = z.max(1.0);
        while z <= 2.0 * n as f64 {
            let p = (target_sample / z).min(1.0);
            lanes.push(GuessLane {
                z,
                keep_below: (p * MERSENNE_P as f64) as u64,
                p,
                edges: Vec::new(),
                overflowed: false,
            });
            z *= 2.0;
        }
        // Per-lane storage cap: Õ(m/ε²) overall.
        let cap_per_lane = ((8.0 * m as f64 * logm / (epsilon * epsilon)) as usize).max(64);
        MvEdgeArrival {
            n,
            m,
            k,
            hash: pairwise(seq.next_seed()),
            lanes,
            cap_per_lane,
            target_sample,
        }
    }

    /// Observe one `(set, element)` edge.
    pub fn observe(&mut self, edge: Edge) {
        let h = self.hash.hash(edge.elem as u64);
        for lane in &mut self.lanes {
            if lane.overflowed || h >= lane.keep_below {
                continue;
            }
            if lane.edges.len() >= self.cap_per_lane {
                lane.overflowed = true;
                lane.edges.clear();
                lane.edges.shrink_to_fit();
            } else {
                lane.edges.push(edge);
            }
        }
    }

    /// Finish the pass: greedy on every stored sub-instance, rescale,
    /// return the best accepted estimate.
    pub fn finish(&self) -> CoverResult {
        let mut best = CoverResult {
            chosen: Vec::new(),
            estimated_coverage: 0.0,
        };
        for lane in &self.lanes {
            if lane.overflowed {
                continue;
            }
            let sub = SetSystem::from_edges(self.n, self.m, &lane.edges);
            let g = greedy_max_cover(&sub, self.k);
            // Acceptance floor: for the correct z the sampled greedy
            // coverage concentrates near p·OPT ≈ target; reject guesses
            // whose counts are too small to rescale meaningfully (they
            // would otherwise explode by 1/p). Lanes with p = 1 are
            // exact and always accepted.
            let accepted = lane.p >= 1.0 || (g.coverage as f64) >= self.target_sample / 8.0;
            if !accepted {
                continue;
            }
            let est = (g.coverage as f64 / lane.p).min(self.n as f64);
            if est > best.estimated_coverage {
                best = CoverResult {
                    chosen: g.chosen,
                    estimated_coverage: est,
                };
            }
        }
        best
    }

    /// Run over an edge stream.
    pub fn run(
        n: usize,
        m: usize,
        k: usize,
        epsilon: f64,
        seed: u64,
        edges: &[Edge],
    ) -> CoverResult {
        let mut alg = MvEdgeArrival::new(n, m, k, epsilon, seed);
        for &e in edges {
            alg.observe(e);
        }
        alg.finish()
    }
}

impl SpaceUsage for MvEdgeArrival {
    /// One opaque leaf: each stored edge is one word (two u32s), plus
    /// the shared hash.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        let edges: usize = self.lanes.iter().map(|l| l.edges.len()).sum();
        node.add(Space::resident(edges + self.hash.space_words()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::gen::{planted_cover, uniform_incidence};
    use kcov_stream::{coverage_of, edge_stream, ArrivalOrder};

    #[test]
    fn set_arrival_two_approx_on_random() {
        for seed in 0..5u64 {
            let ss = uniform_incidence(150, 40, 0.06, seed);
            let k = 5;
            let greedy = greedy_max_cover(&ss, k).coverage as f64;
            let r = mv_set_arrival(&ss, k, 0.2);
            // (2+eps) vs OPT; greedy <= OPT so require >= greedy/2.4.
            assert!(
                r.estimated_coverage >= greedy / 2.6,
                "seed {seed}: mv {} vs greedy {greedy}",
                r.estimated_coverage
            );
            assert_eq!(coverage_of(&ss, &r.chosen) as f64, r.estimated_coverage);
        }
    }

    #[test]
    fn set_arrival_empty() {
        let ss = SetSystem::new(5, vec![vec![], vec![]]);
        let r = mv_set_arrival(&ss, 2, 0.1);
        assert_eq!(r.estimated_coverage, 0.0);
    }

    #[test]
    fn edge_arrival_estimates_planted_instance() {
        let inst = planted_cover(2000, 100, 10, 0.8, 40, 7);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
        let r = MvEdgeArrival::run(2000, 100, 10, 0.4, 3, &edges);
        let opt = inst.planted_coverage as f64;
        assert!(
            r.estimated_coverage >= opt / 4.0 && r.estimated_coverage <= 1.5 * opt,
            "estimate {} vs opt {opt}",
            r.estimated_coverage
        );
    }

    #[test]
    fn edge_arrival_order_invariant_distribution() {
        // The algorithm's decisions depend only on which elements are
        // sampled, not on arrival order, so two orders give identical
        // stored sub-instances and identical results.
        let inst = planted_cover(500, 50, 5, 0.6, 20, 11);
        let e1 = edge_stream(&inst.system, ArrivalOrder::SetContiguous);
        let e2 = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
        let r1 = MvEdgeArrival::run(500, 50, 5, 0.4, 9, &e1);
        let r2 = MvEdgeArrival::run(500, 50, 5, 0.4, 9, &e2);
        assert_eq!(r1.estimated_coverage, r2.estimated_coverage);
    }

    #[test]
    fn edge_arrival_space_bounded() {
        let ss = uniform_incidence(4000, 200, 0.02, 3);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(2));
        let mut alg = MvEdgeArrival::new(4000, 200, 5, 0.5, 1);
        for &e in &edges {
            alg.observe(e);
        }
        let cap = alg.cap_per_lane * alg.lanes.len();
        assert!(
            alg.space_words() <= cap + 16,
            "space {} cap {cap}",
            alg.space_words()
        );
    }

    #[test]
    fn small_exact_lane_matches_greedy() {
        // Tiny instance: the p = 1 lane stores everything, so the result
        // at least matches offline greedy.
        let ss = uniform_incidence(60, 20, 0.1, 5);
        let edges = edge_stream(&ss, ArrivalOrder::RoundRobin);
        let r = MvEdgeArrival::run(60, 20, 4, 0.3, 2, &edges);
        let g = greedy_max_cover(&ss, 4);
        assert!(r.estimated_coverage >= g.coverage as f64 * 0.99);
    }
}
