//! Sieve-Streaming — Badanidiyuru, Mirzasoleiman, Karbasi & Krause
//! (reference \[9\] of the paper): single-pass, *set-arrival*,
//! 2-approximation (more precisely `1/2 − ε`) for monotone submodular
//! maximization, specialized here to coverage.
//!
//! Maintains a geometric grid of guesses `v ≈ OPT`; for each guess it
//! keeps a solution of at most `k` sets, adding an arriving set when its
//! marginal coverage is at least `(v/2 − current)/(k − |chosen|)`.
//! For the coverage function the "oracle" is realized by storing the
//! covered-element set per guess — `Õ(n)` space per guess, which is the
//! `Õ(n)` row of Table 1 (and why set-arrival algorithms do not give
//! edge-arrival bounds in terms of `m`).

use std::collections::HashSet;

use kcov_sketch::space::{Space, SpaceSink, SpaceUsage};
use kcov_stream::SetSystem;

use crate::CoverResult;

/// One threshold state of the sieve.
#[derive(Debug, Clone)]
struct SieveState {
    /// OPT guess `v`.
    v: f64,
    chosen: Vec<usize>,
    covered: HashSet<u32>,
}

/// Single-pass set-arrival Sieve-Streaming for `Max k-Cover`.
#[derive(Debug, Clone)]
pub struct SieveStreaming {
    k: usize,
    one_plus_eps: f64,
    /// Largest singleton set size seen so far.
    max_singleton: usize,
    states: Vec<SieveState>,
    peak_words: usize,
}

impl SieveStreaming {
    /// Create a sieve with solution size `k` and grid resolution `ε`.
    pub fn new(k: usize, epsilon: f64) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        SieveStreaming {
            k,
            one_plus_eps: 1.0 + epsilon,
            max_singleton: 0,
            states: Vec::new(),
            peak_words: 0,
        }
    }

    /// Observe the arrival of a complete set (set-arrival model).
    pub fn observe_set(&mut self, index: usize, members: &[u32]) {
        if members.len() > self.max_singleton {
            self.max_singleton = members.len();
            self.refresh_grid();
        }
        for st in &mut self.states {
            if st.chosen.len() >= self.k {
                continue;
            }
            let gain = members.iter().filter(|e| !st.covered.contains(e)).count();
            let need = (st.v / 2.0 - st.covered.len() as f64) / (self.k - st.chosen.len()) as f64;
            if gain as f64 >= need && gain > 0 {
                st.chosen.push(index);
                st.covered.extend(members.iter().copied());
            }
        }
        self.peak_words = self.peak_words.max(self.space_words());
    }

    /// Re-instantiate the guess grid
    /// `{(1+ε)^j : max_singleton ≤ (1+ε)^j ≤ 2·k·max_singleton}`,
    /// keeping surviving states and discarding out-of-range ones.
    fn refresh_grid(&mut self) {
        let lo = self.max_singleton as f64;
        let hi = 2.0 * self.k as f64 * self.max_singleton as f64;
        self.states.retain(|st| st.v >= lo);
        let mut v = 1.0f64;
        while v < lo {
            v *= self.one_plus_eps;
        }
        while v <= hi {
            let exists = self.states.iter().any(|st| (st.v - v).abs() < 1e-9);
            if !exists {
                self.states.push(SieveState {
                    v,
                    chosen: Vec::new(),
                    covered: HashSet::new(),
                });
            }
            v *= self.one_plus_eps;
        }
    }

    /// Best solution across all guesses.
    pub fn finish(&self) -> CoverResult {
        self.states
            .iter()
            .max_by_key(|st| st.covered.len())
            .map(|st| CoverResult {
                chosen: st.chosen.clone(),
                estimated_coverage: st.covered.len() as f64,
            })
            .unwrap_or(CoverResult {
                chosen: Vec::new(),
                estimated_coverage: 0.0,
            })
    }

    /// Peak space over the whole run (words).
    pub fn peak_space_words(&self) -> usize {
        self.peak_words
    }

    /// Convenience: run over a materialized system in set order.
    pub fn run(system: &SetSystem, k: usize, epsilon: f64) -> CoverResult {
        let mut sieve = SieveStreaming::new(k, epsilon);
        for i in 0..system.num_sets() {
            sieve.observe_set(i, system.set(i));
        }
        sieve.finish()
    }
}

impl SpaceUsage for SieveStreaming {
    /// One opaque leaf: per threshold, its covered elements, chosen
    /// sets and the threshold itself.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        let words = self
            .states
            .iter()
            .map(|st| st.covered.len() + st.chosen.len() + 1)
            .sum();
        node.add(Space::resident(words));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::coverage_of;
    use kcov_stream::gen::{uniform_incidence, zipf_set_sizes};

    #[test]
    fn covers_at_least_half_of_greedy_on_random_instances() {
        for seed in 0..6u64 {
            let ss = uniform_incidence(120, 40, 0.08, seed);
            let k = 5;
            let sieve = SieveStreaming::run(&ss, k, 0.1);
            let greedy = crate::greedy::greedy_max_cover(&ss, k);
            // Sieve guarantees (1/2 - eps)·OPT >= (1/2 - eps)·greedy.
            assert!(
                sieve.estimated_coverage >= 0.4 * greedy.coverage as f64,
                "seed {seed}: sieve {} greedy {}",
                sieve.estimated_coverage,
                greedy.coverage
            );
        }
    }

    #[test]
    fn reported_sets_achieve_reported_coverage() {
        let ss = zipf_set_sizes(300, 50, 80, 1.0, 3);
        let r = SieveStreaming::run(&ss, 6, 0.2);
        assert_eq!(
            coverage_of(&ss, &r.chosen) as f64,
            r.estimated_coverage,
            "sieve coverage must be exact"
        );
        assert!(r.chosen.len() <= 6);
    }

    #[test]
    fn empty_stream() {
        let ss = SetSystem::new(10, vec![]);
        let r = SieveStreaming::run(&ss, 3, 0.1);
        assert_eq!(r.estimated_coverage, 0.0);
        assert!(r.chosen.is_empty());
    }

    #[test]
    fn single_set_stream() {
        let ss = SetSystem::new(10, vec![vec![0, 1, 2]]);
        let r = SieveStreaming::run(&ss, 2, 0.1);
        assert_eq!(r.estimated_coverage, 3.0);
        assert_eq!(r.chosen, vec![0]);
    }

    #[test]
    fn space_grows_with_coverage_not_stream_length() {
        let ss = uniform_incidence(100, 200, 0.05, 9);
        let mut sieve = SieveStreaming::new(4, 0.2);
        for i in 0..ss.num_sets() {
            sieve.observe_set(i, ss.set(i));
        }
        // Per-state coverage <= n, grid has O(log(k·n)/eps) states.
        let states = sieve.states.len();
        assert!(
            sieve.peak_space_words() <= states * (100 + 4 + 1),
            "peak {} states {states}",
            sieve.peak_space_words()
        );
    }

    #[test]
    #[should_panic(expected = "epsilon in (0,1)")]
    fn bad_epsilon_rejected() {
        let _ = SieveStreaming::new(3, 1.5);
    }
}
