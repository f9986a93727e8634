//! Offline swap local search for maximum coverage.
//!
//! Start from any k sets (we seed with greedy) and repeatedly apply
//! improving single swaps (remove one chosen set, add one unchosen) as
//! long as coverage increases by more than a `(1 + ε/k)` factor. The
//! classic analysis gives a 1/2-approximation for exchange-stable
//! solutions; seeded with greedy it only improves on `(1 − 1/e)`. Used
//! as an offline quality ceiling below exact search, and as an ablation
//! partner for greedy in the experiment suite.

use kcov_stream::{coverage_of, SetSystem};

use crate::greedy::greedy_max_cover;
use crate::CoverResult;

/// Swap local search seeded with greedy. `max_rounds` bounds the number
/// of full improvement sweeps; `epsilon` is the minimum relative
/// improvement accepted (both guard termination).
pub fn local_search_max_cover(
    system: &SetSystem,
    k: usize,
    epsilon: f64,
    max_rounds: usize,
) -> CoverResult {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let m = system.num_sets();
    let seed = greedy_max_cover(system, k);
    let mut chosen = seed.chosen;
    let mut coverage = seed.coverage;
    if chosen.is_empty() || k >= m {
        return CoverResult {
            chosen,
            estimated_coverage: coverage as f64,
        };
    }

    for _ in 0..max_rounds {
        let mut improved = false;
        'outer: for slot in 0..chosen.len() {
            // Coverage without the slot's set.
            let mut without: Vec<usize> = chosen.clone();
            without.swap_remove(slot);
            let base = coverage_of(system, &without);
            for candidate in 0..m {
                if chosen.contains(&candidate) {
                    continue;
                }
                without.push(candidate);
                let cov = coverage_of(system, &without);
                without.pop();
                if cov as f64 > coverage as f64 * (1.0 + epsilon / k as f64) {
                    let old = chosen[slot];
                    chosen[slot] = candidate;
                    let _ = old;
                    coverage = cov;
                    improved = true;
                    continue 'outer;
                }
                let _ = base;
            }
        }
        if !improved {
            break;
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
    use kcov_stream::gen::uniform_incidence;

    #[test]
    fn never_worse_than_greedy() {
        for seed in 0..6u64 {
            let ss = uniform_incidence(80, 25, 0.1, seed);
            let g = greedy_max_cover(&ss, 5).coverage as f64;
            let ls = local_search_max_cover(&ss, 5, 0.0, 10);
            assert!(ls.estimated_coverage >= g, "seed {seed}");
            assert_eq!(coverage_of(&ss, &ls.chosen) as f64, ls.estimated_coverage);
        }
    }

    #[test]
    fn fixes_the_classic_greedy_trap() {
        // Greedy takes the middle set; one swap repairs it.
        let ss = SetSystem::new(
            8,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![2, 3, 4, 5, 6]],
        );
        let r = local_search_max_cover(&ss, 2, 0.0, 10);
        assert_eq!(r.estimated_coverage, 8.0);
    }

    #[test]
    fn respects_k() {
        let ss = uniform_incidence(50, 20, 0.15, 3);
        let r = local_search_max_cover(&ss, 4, 0.0, 5);
        assert!(r.chosen.len() <= 4);
        let dedup: std::collections::HashSet<_> = r.chosen.iter().collect();
        assert_eq!(dedup.len(), r.chosen.len());
    }

    #[test]
    fn trivial_cases() {
        let empty = SetSystem::new(5, vec![]);
        let r = local_search_max_cover(&empty, 3, 0.1, 5);
        assert_eq!(r.estimated_coverage, 0.0);
        let ss = SetSystem::new(5, vec![vec![0], vec![1]]);
        let r = local_search_max_cover(&ss, 5, 0.1, 5);
        assert_eq!(r.estimated_coverage, 2.0);
    }
}
