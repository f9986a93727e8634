//! The classic greedy algorithm for maximum coverage — Nemhauser, Wolsey
//! & Fisher (reference \[35\] of the paper), with lazy evaluation.
//!
//! Repeatedly picks the set with the largest marginal coverage; achieves
//! the optimal-in-polynomial-time `1 − 1/e ≈ 0.632` fraction of the
//! optimum (tight under P ≠ NP, Feige \[23\]). This is both the paper's
//! offline yardstick and the `O(1)`-approximate offline solver its
//! `SmallSet` subroutine runs on the stored sub-instance.

use std::collections::BinaryHeap;

use kcov_stream::SetSystem;

/// Result of a greedy run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyResult {
    /// Chosen set indices in pick order.
    pub chosen: Vec<usize>,
    /// Exact coverage of the chosen sets.
    pub coverage: usize,
}

/// Lazy greedy maximum coverage.
///
/// Uses the standard lazy-evaluation trick: marginal gains only decrease
/// (submodularity), so a stale heap key is an upper bound and a popped
/// set whose refreshed gain still tops the heap is safe to take.
pub fn greedy_max_cover(system: &SetSystem, k: usize) -> GreedyResult {
    greedy_max_cover_by(system.num_sets(), system.num_elements(), k, |i| {
        system.set(i)
    })
}

/// [`greedy_max_cover`] on `m` sets over `n` elements given as views:
/// `set(i)` lists set `i`'s members, each `< n` and none twice, in any
/// order (a marginal gain is a count, so the order within a list never
/// matters).
///
/// Ties in the heap go to the higher index, so renumbering the sets in
/// an order-preserving way — dropping empty sets and compacting the ids
/// that remain, say — maps the picks one to one.
pub fn greedy_max_cover_by<'a>(
    m: usize,
    n: usize,
    k: usize,
    set: impl Fn(usize) -> &'a [u32],
) -> GreedyResult {
    let mut covered = vec![false; n];
    let mut chosen = Vec::with_capacity(k.min(m));
    let mut coverage = 0usize;

    // Heap of (stale upper bound on gain, set index).
    let mut heap: BinaryHeap<(usize, usize)> = (0..m).map(|i| (set(i).len(), i)).collect();

    while chosen.len() < k {
        let mut picked = None;
        while let Some((stale_gain, i)) = heap.pop() {
            if stale_gain == 0 {
                break; // nothing can add coverage anymore
            }
            let fresh: usize = set(i).iter().filter(|&&e| !covered[e as usize]).count();
            if fresh == stale_gain || heap.peek().is_none_or(|&(top, _)| fresh >= top) {
                if fresh == 0 {
                    picked = None;
                } else {
                    picked = Some((i, fresh));
                }
                break;
            }
            heap.push((fresh, i));
        }
        match picked {
            Some((i, gain)) => {
                for &e in set(i) {
                    covered[e as usize] = true;
                }
                coverage += gain;
                chosen.push(i);
            }
            None => break, // no set adds coverage
        }
    }
    GreedyResult { chosen, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::coverage_of;
    use kcov_stream::gen::{uniform_incidence, zipf_set_sizes};

    #[test]
    fn empty_inputs() {
        let ss = SetSystem::new(3, vec![]);
        let r = greedy_max_cover(&ss, 2);
        assert!(r.chosen.is_empty());
        assert_eq!(r.coverage, 0);
    }

    #[test]
    fn picks_largest_first() {
        let ss = SetSystem::new(10, vec![vec![0], vec![1, 2, 3, 4], vec![5, 6]]);
        let r = greedy_max_cover(&ss, 1);
        assert_eq!(r.chosen, vec![1]);
        assert_eq!(r.coverage, 4);
    }

    #[test]
    fn respects_marginal_gains() {
        // After taking the big set, the disjoint small set beats the
        // overlapping medium one.
        let ss = SetSystem::new(
            10,
            vec![
                vec![0, 1, 2, 3, 4], // big
                vec![3, 4, 5],       // overlaps big, gain 1
                vec![8, 9],          // disjoint, gain 2
            ],
        );
        let r = greedy_max_cover(&ss, 2);
        assert_eq!(r.chosen, vec![0, 2]);
        assert_eq!(r.coverage, 7);
    }

    #[test]
    fn stops_when_everything_covered() {
        let ss = SetSystem::new(3, vec![vec![0, 1, 2], vec![0], vec![1]]);
        let r = greedy_max_cover(&ss, 3);
        assert_eq!(r.chosen.len(), 1, "no zero-gain picks");
        assert_eq!(r.coverage, 3);
    }

    #[test]
    fn coverage_matches_reported_sets() {
        for seed in 0..5u64 {
            let ss = uniform_incidence(100, 30, 0.1, seed);
            let r = greedy_max_cover(&ss, 5);
            assert_eq!(coverage_of(&ss, &r.chosen), r.coverage, "seed {seed}");
        }
    }

    #[test]
    fn guarantee_vs_exact_on_small_instances() {
        // Greedy >= (1 - 1/e)·OPT on every instance.
        for seed in 0..10u64 {
            let ss = uniform_incidence(25, 12, 0.15, seed);
            let k = 4;
            let (_, opt) = crate::exact::max_cover_exact(&ss, k);
            let g = greedy_max_cover(&ss, k);
            assert!(
                g.coverage as f64 >= (1.0 - 1.0 / std::f64::consts::E) * opt as f64 - 1e-9,
                "seed {seed}: greedy {} vs opt {opt}",
                g.coverage
            );
        }
    }

    #[test]
    fn lazy_picks_are_greedy_valid() {
        // Validate the lazy trajectory: at every step, the picked set's
        // marginal gain equals the maximum marginal gain over all sets
        // (ties may be broken differently than a naive scan, but the
        // gain value at each step must be maximal).
        for seed in 0..6u64 {
            let ss = zipf_set_sizes(200, 40, 60, 1.0, seed);
            let r = greedy_max_cover(&ss, 6);
            let mut covered = vec![false; ss.num_elements()];
            for &pick in &r.chosen {
                let gain_of = |i: usize, covered: &[bool]| {
                    ss.set(i).iter().filter(|&&e| !covered[e as usize]).count()
                };
                let pick_gain = gain_of(pick, &covered);
                let max_gain = (0..ss.num_sets())
                    .map(|i| gain_of(i, &covered))
                    .max()
                    .unwrap();
                assert_eq!(pick_gain, max_gain, "seed {seed}: non-greedy pick {pick}");
                for &e in ss.set(pick) {
                    covered[e as usize] = true;
                }
            }
        }
    }

    /// Tie-heavy instances (many equal-sized sets) and skewed ones.
    fn tie_zoo() -> Vec<SetSystem> {
        let mut zoo: Vec<SetSystem> = (0..6u64)
            .map(|seed| uniform_incidence(40, 30, 0.08, seed))
            .collect();
        zoo.extend((0..4u64).map(|seed| zipf_set_sizes(300, 50, 40, 1.0, seed)));
        zoo
    }

    #[test]
    fn by_views_ignores_member_order() {
        let mut rng = kcov_hash::SplitMix64::new(7);
        for (z, ss) in tie_zoo().iter().enumerate() {
            let permuted: Vec<Vec<u32>> = ss
                .sets()
                .iter()
                .map(|s| {
                    let mut v = s.clone();
                    for i in (1..v.len()).rev() {
                        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                    }
                    v
                })
                .collect();
            for k in [1, 3, 7, 50] {
                let by = greedy_max_cover_by(ss.num_sets(), ss.num_elements(), k, |i| &permuted[i]);
                assert_eq!(by, greedy_max_cover(ss, k), "instance {z}, k = {k}");
            }
        }
    }

    #[test]
    fn by_views_on_compacted_ids_maps_picks_back() {
        for (z, ss) in tie_zoo().iter().enumerate() {
            // Interleave empty sets, then drop every empty set and
            // renumber the rest in ascending order.
            let mut padded = Vec::new();
            for (i, s) in ss.sets().iter().enumerate() {
                padded.push(s.clone());
                padded.extend(std::iter::repeat_n(Vec::new(), i % 3));
            }
            let padded = SetSystem::new(ss.num_elements(), padded);
            let ids: Vec<usize> = (0..padded.num_sets())
                .filter(|&i| !padded.set(i).is_empty())
                .collect();
            for k in [1, 3, 7, 50] {
                let want = greedy_max_cover(&padded, k);
                let by =
                    greedy_max_cover_by(ids.len(), ss.num_elements(), k, |c| padded.set(ids[c]));
                let mapped: Vec<usize> = by.chosen.iter().map(|&c| ids[c]).collect();
                assert_eq!(
                    (mapped, by.coverage),
                    (want.chosen, want.coverage),
                    "instance {z}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn k_zero_returns_nothing() {
        let ss = SetSystem::new(5, vec![vec![0, 1]]);
        let r = greedy_max_cover(&ss, 0);
        assert!(r.chosen.is_empty());
    }

    #[test]
    fn greedy_falls_for_the_tight_trap() {
        // The (1 - 1/e) bound is *tight*: on the trap instance greedy
        // picks the rows and lands near (1 - (1-1/k)^k)·OPT, strictly
        // below optimal.
        let trap = kcov_stream::gen::greedy_trap(6, 1296);
        let r = greedy_max_cover(&trap.system, 6);
        // Greedy must have picked at least one trap row...
        assert!(
            r.chosen.iter().any(|&i| i >= 6),
            "greedy avoided the trap: {:?}",
            r.chosen
        );
        // ...and its coverage sits in the trap band.
        let ratio = r.coverage as f64 / trap.optimal as f64;
        let bound = 1.0 - (1.0 - 1.0 / 6.0f64).powi(6);
        assert!(ratio < 0.75, "ratio {ratio} too good for a trap");
        assert!(
            ratio >= bound - 0.02,
            "ratio {ratio} below the guarantee {bound}"
        );
    }
}
