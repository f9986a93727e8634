//! Greedy set cover — the dual problem the paper's introduction and
//! Table 1 footnotes keep in view (its streaming space trade-off is
//! `Θ(mn/α²)` for estimation, Assadi–Khanna–Li \[7\], contrasted with
//! `Θ(m/α²)` here).
//!
//! Offline `H_n`-approximate greedy, plus the partial-cover variant
//! (smallest prefix covering a target fraction), both driven by the
//! same lazy evaluation as [`crate::greedy`]. Used by the examples and
//! as a utility for interpreting max-cover outputs ("how many sets
//! until 90% coverage?").

use std::collections::BinaryHeap;

use kcov_stream::SetSystem;

/// Result of a (partial) set-cover run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCoverResult {
    /// Chosen set indices in pick order.
    pub chosen: Vec<usize>,
    /// Elements covered by the chosen sets.
    pub covered: usize,
    /// Whether every coverable element is covered.
    pub complete: bool,
}

/// Greedy set cover of all *coverable* elements (elements in no set are
/// ignored — a cover of them cannot exist).
pub fn greedy_set_cover(system: &SetSystem) -> SetCoverResult {
    partial_set_cover(system, 1.0)
}

/// Smallest greedy prefix covering at least `fraction` of the coverable
/// elements (`fraction ∈ [0, 1]`).
pub fn partial_set_cover(system: &SetSystem, fraction: f64) -> SetCoverResult {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
    let coverable = {
        let mut seen = vec![false; system.num_elements()];
        for s in system.sets() {
            for &e in s {
                seen[e as usize] = true;
            }
        }
        seen.iter().filter(|&&x| x).count()
    };
    let target = (coverable as f64 * fraction).ceil() as usize;

    let mut covered = vec![false; system.num_elements()];
    let mut count = 0usize;
    let mut chosen = Vec::new();
    let mut heap: BinaryHeap<(usize, usize)> = (0..system.num_sets())
        .map(|i| (system.set(i).len(), i))
        .collect();
    while count < target {
        let mut picked = None;
        while let Some((stale, i)) = heap.pop() {
            if stale == 0 {
                break;
            }
            let fresh = system
                .set(i)
                .iter()
                .filter(|&&e| !covered[e as usize])
                .count();
            if fresh == stale || heap.peek().is_none_or(|&(top, _)| fresh >= top) {
                if fresh > 0 {
                    picked = Some(i);
                }
                break;
            }
            heap.push((fresh, i));
        }
        match picked {
            Some(i) => {
                for &e in system.set(i) {
                    if !covered[e as usize] {
                        covered[e as usize] = true;
                        count += 1;
                    }
                }
                chosen.push(i);
            }
            None => break,
        }
    }
    SetCoverResult {
        chosen,
        covered: count,
        complete: count >= coverable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::gen::uniform_incidence;

    #[test]
    fn covers_everything_coverable() {
        let ss = SetSystem::new(6, vec![vec![0, 1], vec![2, 3], vec![3, 4]]);
        // Element 5 is uncoverable.
        let r = greedy_set_cover(&ss);
        assert!(r.complete);
        assert_eq!(r.covered, 5);
        assert!(r.chosen.len() <= 3);
    }

    #[test]
    fn partial_cover_stops_early() {
        let ss = SetSystem::new(
            10,
            vec![vec![0, 1, 2, 3, 4, 5, 6], vec![7], vec![8], vec![9]],
        );
        let r = partial_set_cover(&ss, 0.7);
        assert_eq!(r.chosen, vec![0]);
        assert_eq!(r.covered, 7);
        assert!(!r.complete);
    }

    #[test]
    fn greedy_cover_size_is_reasonable_on_random() {
        for seed in 0..5u64 {
            let ss = uniform_incidence(100, 50, 0.1, seed);
            let r = greedy_set_cover(&ss);
            assert!(r.complete || r.covered > 0);
            // Each chosen set must have contributed something.
            assert!(r.chosen.len() <= 100);
            let dedup: std::collections::HashSet<_> = r.chosen.iter().collect();
            assert_eq!(dedup.len(), r.chosen.len());
        }
    }

    #[test]
    fn zero_fraction_chooses_nothing() {
        let ss = SetSystem::new(4, vec![vec![0, 1]]);
        let r = partial_set_cover(&ss, 0.0);
        assert!(r.chosen.is_empty());
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn empty_system() {
        let ss = SetSystem::new(5, vec![]);
        let r = greedy_set_cover(&ss);
        assert!(r.complete);
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn ln_n_quality_on_structured_instance() {
        // Optimal cover = 2 disjoint halves; greedy uses at most
        // ~ln(n)·2 sets even with tempting overlaps.
        let mut sets = vec![
            (0u32..50).collect::<Vec<_>>(),
            (50u32..100).collect::<Vec<_>>(),
        ];
        for i in 0..18 {
            sets.push((i * 5..i * 5 + 10).map(|x| x as u32).collect());
        }
        let ss = SetSystem::new(100, sets);
        let r = greedy_set_cover(&ss);
        assert!(r.complete);
        assert!(r.chosen.len() <= 10, "greedy used {} sets", r.chosen.len());
    }
}
