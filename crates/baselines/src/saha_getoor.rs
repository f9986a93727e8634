//! Saha & Getoor (reference \[37\] of the paper) — the first streaming
//! algorithm for maximum coverage ("multi-topic blog-watch"), set
//! arrival, swap-based, constant-factor (4-approximation in their
//! analysis), `Õ(n)` space.
//!
//! Maintain a current solution of at most `k` sets. On the arrival of a
//! set `S`: if the solution is not full, take it; otherwise swap it in
//! when the coverage gained justifies evicting the currently
//! least-contributing set (we use the standard rule: swap when
//! `|S \ C|` exceeds the evictee's exclusive contribution plus a
//! `|C|/(2k)` improvement margin, the thresholded-swap of their §3).

use std::collections::HashMap;

use kcov_sketch::space::{Space, SpaceSink, SpaceUsage};
use kcov_stream::SetSystem;

use crate::CoverResult;

/// Single-pass set-arrival swap streaming.
#[derive(Debug, Clone)]
pub struct SwapStreaming {
    k: usize,
    /// Chosen set indices with their member lists.
    solution: Vec<(usize, Vec<u32>)>,
    /// covered element → multiplicity within the solution.
    covered: HashMap<u32, u32>,
    peak_words: usize,
}

impl SwapStreaming {
    /// Create a swap-streaming run with budget `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        SwapStreaming {
            k,
            solution: Vec::with_capacity(k),
            covered: HashMap::new(),
            peak_words: 0,
        }
    }

    /// Current exact coverage of the maintained solution.
    pub fn coverage(&self) -> usize {
        self.covered.len()
    }

    /// Exclusive contribution of solution slot `slot`: elements covered
    /// by it alone.
    fn exclusive(&self, slot: usize) -> usize {
        self.solution[slot]
            .1
            .iter()
            .filter(|e| self.covered.get(e) == Some(&1))
            .count()
    }

    /// Observe the arrival of a complete set.
    pub fn observe_set(&mut self, index: usize, members: &[u32]) {
        let gain = members
            .iter()
            .filter(|e| !self.covered.contains_key(e))
            .count();
        if self.solution.len() < self.k {
            if gain > 0 || !members.is_empty() {
                self.insert(index, members);
            }
        } else if gain > 0 {
            // Cheapest eviction candidate.
            let (victim, victim_excl) = (0..self.solution.len())
                .map(|s| (s, self.exclusive(s)))
                .min_by_key(|&(_, ex)| ex)
                .expect("solution non-empty");
            let margin = self.covered.len() / (2 * self.k);
            if gain > victim_excl + margin {
                self.evict(victim);
                self.insert(index, members);
            }
        }
        self.peak_words = self.peak_words.max(self.space_words());
    }

    fn insert(&mut self, index: usize, members: &[u32]) {
        for &e in members {
            *self.covered.entry(e).or_insert(0) += 1;
        }
        self.solution.push((index, members.to_vec()));
    }

    fn evict(&mut self, slot: usize) {
        let (_, members) = self.solution.swap_remove(slot);
        for e in members {
            if let Some(c) = self.covered.get_mut(&e) {
                *c -= 1;
                if *c == 0 {
                    self.covered.remove(&e);
                }
            }
        }
    }

    /// The final solution.
    pub fn finish(&self) -> CoverResult {
        CoverResult {
            chosen: self.solution.iter().map(|&(i, _)| i).collect(),
            estimated_coverage: self.covered.len() as f64,
        }
    }

    /// Peak space over the run (words).
    pub fn peak_space_words(&self) -> usize {
        self.peak_words
    }

    /// Convenience: run over a materialized system in set order.
    pub fn run(system: &SetSystem, k: usize) -> CoverResult {
        let mut alg = SwapStreaming::new(k);
        for i in 0..system.num_sets() {
            alg.observe_set(i, system.set(i));
        }
        alg.finish()
    }
}

impl SpaceUsage for SwapStreaming {
    /// One opaque leaf: the kept sets (id plus elements) and a 2-word
    /// entry per covered element.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        let sets: usize = self.solution.iter().map(|(_, s)| s.len() + 1).sum();
        node.add(Space::resident(sets + 2 * self.covered.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::coverage_of;
    use kcov_stream::gen::{few_large, uniform_incidence};

    #[test]
    fn fills_up_then_swaps_for_improvement() {
        let ss = SetSystem::new(
            12,
            vec![
                vec![0],                  // tiny, taken (slot fill)
                vec![1],                  // tiny, taken
                vec![2, 3, 4, 5],         // large: must displace a tiny
                vec![6, 7, 8, 9, 10, 11], // larger still: displaces the other tiny
            ],
        );
        let r = SwapStreaming::run(&ss, 2);
        assert!(r.chosen.contains(&2));
        assert!(r.chosen.contains(&3));
        assert_eq!(r.estimated_coverage, 10.0);
    }

    #[test]
    fn constant_factor_vs_greedy() {
        for seed in 0..6u64 {
            let ss = uniform_incidence(150, 60, 0.05, seed);
            let k = 5;
            let g = crate::greedy::greedy_max_cover(&ss, k).coverage as f64;
            let r = SwapStreaming::run(&ss, k);
            assert!(
                r.estimated_coverage >= g / 4.5,
                "seed {seed}: swap {} greedy {g}",
                r.estimated_coverage
            );
        }
    }

    #[test]
    fn reported_coverage_is_exact() {
        let ss = few_large(400, 50, 3, 80, 2);
        let r = SwapStreaming::run(&ss, 5);
        assert_eq!(coverage_of(&ss, &r.chosen) as f64, r.estimated_coverage);
    }

    #[test]
    fn solution_never_exceeds_k() {
        let ss = uniform_incidence(80, 100, 0.1, 4);
        let mut alg = SwapStreaming::new(3);
        for i in 0..ss.num_sets() {
            alg.observe_set(i, ss.set(i));
            assert!(alg.solution.len() <= 3);
        }
    }

    #[test]
    fn empty_sets_do_not_break() {
        let ss = SetSystem::new(5, vec![vec![], vec![0, 1], vec![]]);
        let r = SwapStreaming::run(&ss, 2);
        assert_eq!(r.estimated_coverage, 2.0);
    }
}
