//! Planted-optimum instances: the optimal k-cover is known by
//! construction, giving sharp ground truth at scales where exact search
//! is infeasible.

use kcov_hash::SplitMix64;

use crate::instance::SetSystem;

/// A set system together with its planted solution.
#[derive(Debug, Clone)]
pub struct PlantedInstance {
    /// The instance.
    pub system: SetSystem,
    /// Indices of the k planted sets.
    pub planted: Vec<usize>,
    /// Exact coverage of the planted sets (which is the optimum whenever
    /// `decoy_size·k < planted coverage`, as guaranteed by construction).
    pub planted_coverage: usize,
}

/// Plant `k` disjoint sets that jointly cover the first
/// `⌊coverage_fraction·n⌋` elements, then add `m − k` decoy sets of size
/// `decoy_size` drawn uniformly from a decoy pool.
///
/// The decoy pool is restricted to the planted region so decoys add no
/// new coverage: any k-cover that is not (essentially) the planted one
/// covers strictly less. This makes `planted_coverage` the exact optimum
/// as long as `decoy_size ≤ planted set size` (asserted).
pub fn planted_cover(
    n: usize,
    m: usize,
    k: usize,
    coverage_fraction: f64,
    decoy_size: usize,
    seed: u64,
) -> PlantedInstance {
    assert!(k >= 1 && k <= m, "need 1 <= k <= m");
    assert!(
        (0.0..=1.0).contains(&coverage_fraction),
        "fraction in [0,1]"
    );
    let covered = ((n as f64 * coverage_fraction) as usize).max(k).min(n);
    let per_set = covered / k;
    assert!(per_set >= 1, "planted sets would be empty");
    assert!(
        decoy_size <= per_set,
        "decoys must not dominate planted sets (decoy {decoy_size} > planted {per_set})"
    );
    let mut rng = SplitMix64::new(seed);

    let mut sets: Vec<Vec<u32>> = Vec::with_capacity(m);
    // Planted sets: a partition of [0, covered) into k runs.
    for i in 0..k {
        let lo = i * per_set;
        let hi = if i + 1 == k {
            covered
        } else {
            (i + 1) * per_set
        };
        sets.push((lo as u32..hi as u32).collect());
    }
    let planted_coverage = covered;
    // Decoys: uniform subsets of the planted region.
    for _ in k..m {
        let mut s = Vec::with_capacity(decoy_size);
        for _ in 0..decoy_size {
            s.push(rng.next_below(covered as u64) as u32);
        }
        sets.push(s);
    }
    // Shuffle set order so the planted sets are not the first k ids.
    let mut perm: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    let mut shuffled = vec![Vec::new(); m];
    let mut planted = Vec::with_capacity(k);
    for (orig, &target) in perm.iter().enumerate() {
        shuffled[target] = std::mem::take(&mut sets[orig]);
        if orig < k {
            planted.push(target);
        }
    }
    planted.sort_unstable();

    PlantedInstance {
        system: SetSystem::new(n, shuffled),
        planted,
        planted_coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage_of;

    #[test]
    fn planted_sets_cover_exactly_the_claimed_amount() {
        let inst = planted_cover(1000, 50, 5, 0.8, 20, 1);
        assert_eq!(inst.planted.len(), 5);
        assert_eq!(
            coverage_of(&inst.system, &inst.planted),
            inst.planted_coverage
        );
        assert_eq!(inst.planted_coverage, 800);
    }

    #[test]
    fn decoys_are_dominated() {
        let inst = planted_cover(500, 40, 4, 0.6, 10, 7);
        // Any 4 decoy sets cover at most 4·10 = 40 < 300.
        let decoys: Vec<usize> = (0..40)
            .filter(|i| !inst.planted.contains(i))
            .take(4)
            .collect();
        assert!(coverage_of(&inst.system, &decoys) <= 40);
    }

    #[test]
    fn planted_is_optimal_brute_force_small() {
        // Small instance: verify the planted solution is optimal by
        // exhaustive search over all k-subsets.
        let inst = planted_cover(40, 8, 2, 0.9, 5, 3);
        let m = inst.system.num_sets();
        let mut best = 0;
        for a in 0..m {
            for b in (a + 1)..m {
                best = best.max(coverage_of(&inst.system, &[a, b]));
            }
        }
        assert_eq!(best, inst.planted_coverage);
    }

    #[test]
    fn set_ids_are_shuffled() {
        // Across seeds, the planted ids should not always be 0..k.
        let mut ever_nontrivial = false;
        for seed in 0..5u64 {
            let inst = planted_cover(100, 20, 3, 0.5, 5, seed);
            if inst.planted != vec![0, 1, 2] {
                ever_nontrivial = true;
            }
        }
        assert!(ever_nontrivial, "planted ids never shuffled");
    }

    #[test]
    fn deterministic() {
        let a = planted_cover(200, 30, 4, 0.7, 10, 9);
        let b = planted_cover(200, 30, 4, 0.7, 10, 9);
        assert_eq!(a.system, b.system);
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    #[should_panic(expected = "decoys must not dominate")]
    fn oversized_decoys_rejected() {
        let _ = planted_cover(100, 10, 5, 0.5, 50, 1);
    }
}
