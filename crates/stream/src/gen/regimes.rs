//! Generators for the three structural regimes of the paper's oracle
//! case analysis (§4):
//!
//! 1. **Common-heavy** — some `β ≤ α` has many `βk`-common elements
//!    (case I, handled by `LargeCommon` / multi-layered set sampling).
//! 2. **Few-large** — an optimal solution's coverage is dominated by a
//!    few sets, each contributing `≥ |C(OPT)|/(sα)` (case II, handled by
//!    `LargeSet` / heavy hitters on superset loads).
//! 3. **Many-small** — an optimal solution consists of many sets of
//!    comparable small contribution (case III, handled by `SmallSet` /
//!    set + element sampling).

use kcov_hash::SplitMix64;

use crate::instance::SetSystem;

use super::uniform::sample_without_replacement;

/// Regime I: a pool of `n/4` *common* elements each belonging to roughly
/// half of all sets, plus rare filler. Any small random collection of
/// sets already covers the common pool, so set sampling succeeds.
pub fn common_heavy(n: usize, m: usize, seed: u64) -> SetSystem {
    assert!(n >= 8 && m >= 4, "instance too small");
    let mut rng = SplitMix64::new(seed);
    let common = n / 4;
    let mut sets = Vec::with_capacity(m);
    for _ in 0..m {
        let mut s = Vec::new();
        for e in 0..common {
            if rng.next_f64() < 0.5 {
                s.push(e as u32);
            }
        }
        // A couple of rare elements outside the common pool.
        for _ in 0..2 {
            s.push(common as u64 as u32 + rng.next_below((n - common) as u64) as u32);
        }
        sets.push(s);
    }
    SetSystem::new(n, sets)
}

/// Regime II: `num_large` pairwise-disjoint large sets of size
/// `large_size` on a dedicated region, plus `m − num_large` tiny decoys
/// (size 2) confined to a small tail region so element frequencies stay
/// low outside the decoy tail. The optimum of `Max k-Cover` for any
/// `k ≥ num_large` is dominated by the large sets.
pub fn few_large(n: usize, m: usize, num_large: usize, large_size: usize, seed: u64) -> SetSystem {
    assert!(num_large >= 1 && num_large < m, "need 1 <= num_large < m");
    assert!(
        num_large * large_size <= n * 3 / 4,
        "large sets must fit in 3/4 of the universe"
    );
    let mut rng = SplitMix64::new(seed);
    let mut sets = Vec::with_capacity(m);
    for i in 0..num_large {
        let lo = (i * large_size) as u32;
        sets.push((lo..lo + large_size as u32).collect());
    }
    // Decoys live in the last quarter of the universe.
    let tail_lo = n * 3 / 4;
    let tail = n - tail_lo;
    for _ in num_large..m {
        let a = tail_lo as u32 + rng.next_below(tail as u64) as u32;
        let b = tail_lo as u32 + rng.next_below(tail as u64) as u32;
        sets.push(vec![a, b]);
    }
    SetSystem::new(n, sets)
}

/// Regime III: `k_opt` pairwise-disjoint small sets of size
/// `n·fraction/k_opt` forming the planted optimum, plus decoys of the
/// same size drawn from the planted region (adding no new coverage).
/// All element frequencies stay `O(m·size/n)` — no common elements — so
/// neither set sampling nor heavy hitters can shortcut the instance.
pub fn many_small(n: usize, m: usize, k_opt: usize, fraction: f64, seed: u64) -> SetSystem {
    assert!(k_opt >= 1 && k_opt <= m, "need 1 <= k_opt <= m");
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
    let covered = ((n as f64 * fraction) as usize).max(k_opt).min(n);
    let size = (covered / k_opt).max(1);
    let mut rng = SplitMix64::new(seed);
    let mut sets = Vec::with_capacity(m);
    for i in 0..k_opt {
        let lo = (i * size) as u32;
        let hi = ((i + 1) * size).min(covered) as u32;
        sets.push((lo..hi).collect());
    }
    for _ in k_opt..m {
        sets.push(sample_without_replacement(
            covered,
            size.min(covered),
            &mut rng,
        ));
    }
    SetSystem::new(n, sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{coverage_of, element_frequencies};

    #[test]
    fn common_heavy_has_high_frequency_head() {
        let ss = common_heavy(400, 200, 1);
        let freq = element_frequencies(&ss);
        let common = 100;
        // Common pool elements appear in ~half the sets.
        let head_min = freq[..common].iter().copied().min().unwrap();
        assert!(head_min > 60, "common element too rare: {head_min}");
        // Tail elements are rare.
        let tail_max = freq[common..].iter().copied().max().unwrap();
        assert!(tail_max < 20, "tail element too common: {tail_max}");
    }

    #[test]
    fn common_heavy_small_collections_cover_the_pool() {
        let ss = common_heavy(400, 200, 2);
        // 16 arbitrary sets should cover nearly all 100 common elements:
        // each misses a given element w.p. 2^-16.
        let chosen: Vec<usize> = (0..16).collect();
        let mut covered = vec![false; 400];
        for &i in &chosen {
            for &e in ss.set(i) {
                covered[e as usize] = true;
            }
        }
        let pool_covered = covered[..100].iter().filter(|&&c| c).count();
        assert!(pool_covered >= 99, "only {pool_covered}/100 common covered");
    }

    #[test]
    fn few_large_structure() {
        let ss = few_large(1000, 100, 3, 200, 5);
        assert_eq!(ss.set(0).len(), 200);
        assert_eq!(ss.set(1).len(), 200);
        assert_eq!(ss.set(2).len(), 200);
        // Large sets are disjoint.
        assert_eq!(coverage_of(&ss, &[0, 1, 2]), 600);
        // Decoys are tiny.
        for i in 3..100 {
            assert!(ss.set(i).len() <= 2);
        }
    }

    #[test]
    fn few_large_optimum_dominated_by_large_sets() {
        let ss = few_large(1000, 100, 3, 200, 7);
        // k = 10: the 3 large sets give 600; the 7 best decoys add <= 14.
        let large_cov = coverage_of(&ss, &[0, 1, 2]);
        assert!(large_cov as f64 / (large_cov + 14) as f64 > 0.97);
    }

    #[test]
    fn many_small_planted_sets_disjoint_and_small() {
        let ss = many_small(1000, 200, 50, 0.8, 3);
        let planted: Vec<usize> = (0..50).collect();
        let cov = coverage_of(&ss, &planted);
        assert_eq!(cov, 50 * 16); // size = 800/50 = 16
        for i in 0..50 {
            assert_eq!(ss.set(i).len(), 16);
        }
    }

    #[test]
    fn many_small_has_no_common_elements() {
        let ss = many_small(1000, 200, 50, 0.8, 3);
        let freq = element_frequencies(&ss);
        let max_f = freq.iter().copied().max().unwrap();
        // Expected decoy frequency: 150 decoys × 16/800 = 3; planted adds 1.
        assert!(
            max_f < 20,
            "max frequency {max_f} too common for regime III"
        );
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(common_heavy(100, 50, 9), common_heavy(100, 50, 9));
        assert_eq!(few_large(400, 40, 2, 80, 9), few_large(400, 40, 2, 80, 9));
        assert_eq!(
            many_small(400, 40, 10, 0.5, 9),
            many_small(400, 40, 10, 0.5, 9)
        );
    }
}
