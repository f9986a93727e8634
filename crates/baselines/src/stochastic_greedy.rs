//! Stochastic greedy (a.k.a. lazier-than-lazy greedy; Mirzasoleiman et
//! al., AAAI 2015) — the standard fast offline baseline: each round
//! evaluates only a random sample of `(m/k)·ln(1/ε)` sets and takes the
//! sample's best marginal. Achieves `(1 − 1/e − ε)` in expectation with
//! `O(m·ln(1/ε))` marginal evaluations total, independent of `k`.
//!
//! Included because the paper's experimental successors routinely
//! compare against it, and because `SmallSet`'s offline stage can use
//! it in place of full greedy when sub-instances grow.

use kcov_hash::SplitMix64;
use kcov_stream::SetSystem;

use crate::CoverResult;

/// Stochastic greedy with accuracy parameter `epsilon ∈ (0, 1)`.
pub fn stochastic_greedy(system: &SetSystem, k: usize, epsilon: f64, seed: u64) -> CoverResult {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
    let m = system.num_sets();
    if m == 0 || k == 0 {
        return CoverResult {
            chosen: Vec::new(),
            estimated_coverage: 0.0,
        };
    }
    let mut rng = SplitMix64::new(seed);
    let sample_size = (((m as f64 / k as f64) * (1.0 / epsilon).ln()).ceil() as usize).clamp(1, m);
    let mut covered = vec![false; system.num_elements()];
    let mut taken = vec![false; m];
    let mut chosen = Vec::with_capacity(k.min(m));
    let mut coverage = 0usize;

    for _ in 0..k.min(m) {
        let mut best: Option<(usize, usize)> = None; // (gain, set)
        for _ in 0..sample_size {
            let cand = rng.next_below(m as u64) as usize;
            if taken[cand] {
                continue;
            }
            let gain = system
                .set(cand)
                .iter()
                .filter(|&&e| !covered[e as usize])
                .count();
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, cand));
            }
        }
        match best {
            Some((gain, cand)) if gain > 0 => {
                taken[cand] = true;
                chosen.push(cand);
                for &e in system.set(cand) {
                    covered[e as usize] = true;
                }
                coverage += gain;
            }
            _ => continue, // unlucky sample; try the next round
        }
    }
    CoverResult {
        chosen,
        estimated_coverage: coverage as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::coverage_of;
    use kcov_stream::gen::{planted_cover, uniform_incidence};

    #[test]
    fn reported_coverage_is_exact() {
        let ss = uniform_incidence(120, 40, 0.08, 2);
        let r = stochastic_greedy(&ss, 6, 0.1, 7);
        assert_eq!(coverage_of(&ss, &r.chosen) as f64, r.estimated_coverage);
        assert!(r.chosen.len() <= 6);
    }

    #[test]
    fn tracks_full_greedy_closely() {
        let mut ratios = Vec::new();
        for seed in 0..8u64 {
            let ss = uniform_incidence(200, 60, 0.06, seed);
            let g = crate::greedy::greedy_max_cover(&ss, 8).coverage as f64;
            let s = stochastic_greedy(&ss, 8, 0.1, 100 + seed).estimated_coverage;
            ratios.push(s / g.max(1.0));
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 0.85, "stochastic greedy mean ratio {mean}");
    }

    #[test]
    fn finds_planted_cover_mostly() {
        let inst = planted_cover(1000, 100, 10, 0.8, 20, 5);
        let r = stochastic_greedy(&inst.system, 10, 0.05, 3);
        assert!(
            r.estimated_coverage >= inst.planted_coverage as f64 * 0.6,
            "coverage {} vs planted {}",
            r.estimated_coverage,
            inst.planted_coverage
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ss = uniform_incidence(100, 30, 0.1, 1);
        let a = stochastic_greedy(&ss, 5, 0.2, 9);
        let b = stochastic_greedy(&ss, 5, 0.2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn trivial_inputs() {
        let empty = SetSystem::new(3, vec![]);
        assert_eq!(stochastic_greedy(&empty, 2, 0.1, 1).estimated_coverage, 0.0);
        let ss = SetSystem::new(3, vec![vec![0, 1, 2]]);
        assert_eq!(stochastic_greedy(&ss, 0, 0.1, 1).estimated_coverage, 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon in (0,1)")]
    fn bad_epsilon() {
        let ss = SetSystem::new(2, vec![vec![0]]);
        let _ = stochastic_greedy(&ss, 1, 0.0, 1);
    }
}
