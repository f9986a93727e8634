//! Exact maximum k-coverage by branch and bound.
//!
//! `Max k-Cover` is NP-hard, but small and medium instances (the scales
//! where tests want sharp ground truth) solve quickly with bitset
//! coverage, greedy seeding and a sum-of-top-sizes upper bound.

use kcov_stream::SetSystem;

/// Dense bitset over the ground set.
#[derive(Debug, Clone, PartialEq)]
struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    fn empty(n: usize) -> Self {
        Bitset {
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    fn from_members(n: usize, members: &[u32]) -> Self {
        let mut b = Bitset::empty(n);
        for &e in members {
            b.words[(e / 64) as usize] |= 1u64 << (e % 64);
        }
        b
    }

    fn union_count(&self, other: &Bitset) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a | b).count_ones() as usize)
            .sum()
    }

    fn union_in_place(&mut self, other: &Bitset) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Exact optimal k-cover: returns `(chosen indices, optimal coverage)`.
///
/// Runs branch and bound over sets ordered by decreasing size, seeded
/// with the greedy solution and pruned with the sum-of-remaining-top-k
/// sizes bound. Exponential in the worst case — intended for instances
/// with `m ≲ 40` or strong structure.
pub fn max_cover_exact(system: &SetSystem, k: usize) -> (Vec<usize>, usize) {
    let m = system.num_sets();
    let n = system.num_elements();
    if k == 0 || m == 0 {
        return (Vec::new(), 0);
    }
    let k = k.min(m);

    // Order sets by decreasing size; keep the original index.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(system.set(i).len()));
    let bitsets: Vec<Bitset> = order
        .iter()
        .map(|&i| Bitset::from_members(n, system.set(i)))
        .collect();
    let sizes: Vec<usize> = order.iter().map(|&i| system.set(i).len()).collect();

    // Greedy seed for the initial lower bound.
    let seed = crate::greedy::greedy_max_cover(system, k);
    let mut best_cov = seed.coverage;
    let mut best_choice: Vec<usize> = seed.chosen.clone();

    // Suffix sums of the largest set sizes for the upper bound: from
    // position i, choosing r more sets adds at most sizes[i..i+r].sum()
    // (sizes are non-increasing).
    struct Ctx<'a> {
        bitsets: &'a [Bitset],
        sizes: &'a [usize],
        order: &'a [usize],
        k: usize,
        best_cov: usize,
        best_choice: Vec<usize>,
    }

    fn recurse(ctx: &mut Ctx<'_>, pos: usize, chosen: &mut Vec<usize>, covered: &Bitset) {
        let cov = covered.count();
        if cov > ctx.best_cov {
            ctx.best_cov = cov;
            ctx.best_choice = chosen.iter().map(|&p| ctx.order[p]).collect();
        }
        if chosen.len() == ctx.k || pos == ctx.bitsets.len() {
            return;
        }
        // Upper bound: current coverage + sizes of the next (k - chosen)
        // sets in the (non-increasing) order.
        let remaining = ctx.k - chosen.len();
        let ub: usize = cov + ctx.sizes[pos..].iter().take(remaining).sum::<usize>();
        if ub <= ctx.best_cov {
            return;
        }
        // Branch 1: take set at `pos` (skip if it adds nothing — any
        // solution containing it is dominated by one with a later set).
        let gain = covered.union_count(&ctx.bitsets[pos]) - cov;
        if gain > 0 {
            let mut next = covered.clone();
            next.union_in_place(&ctx.bitsets[pos]);
            chosen.push(pos);
            recurse(ctx, pos + 1, chosen, &next);
            chosen.pop();
        }
        // Branch 2: skip it.
        recurse(ctx, pos + 1, chosen, covered);
    }

    let mut ctx = Ctx {
        bitsets: &bitsets,
        sizes: &sizes,
        order: &order,
        k,
        best_cov,
        best_choice: best_choice.clone(),
    };
    let mut chosen = Vec::with_capacity(k);
    recurse(&mut ctx, 0, &mut chosen, &Bitset::empty(n));
    best_cov = ctx.best_cov;
    best_choice = ctx.best_choice;
    best_choice.sort_unstable();
    best_choice.truncate(k);
    (best_choice, best_cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::coverage_of;

    #[test]
    fn trivial_cases() {
        let ss = SetSystem::new(4, vec![vec![0, 1], vec![2]]);
        assert_eq!(max_cover_exact(&ss, 0), (vec![], 0));
        let empty = SetSystem::new(4, vec![]);
        assert_eq!(max_cover_exact(&empty, 3), (vec![], 0));
    }

    #[test]
    fn single_best_set() {
        let ss = SetSystem::new(6, vec![vec![0], vec![1, 2, 3], vec![4, 5]]);
        let (chosen, cov) = max_cover_exact(&ss, 1);
        assert_eq!(chosen, vec![1]);
        assert_eq!(cov, 3);
    }

    #[test]
    fn greedy_suboptimal_instance_solved_exactly() {
        // Classic instance where greedy is suboptimal: greedy takes the
        // big middle set first, exact pairs the two halves.
        let ss = SetSystem::new(
            8,
            vec![
                vec![0, 1, 2, 3],    // left half
                vec![4, 5, 6, 7],    // right half
                vec![2, 3, 4, 5, 6], // tempting middle (size 5)
            ],
        );
        let (chosen, cov) = max_cover_exact(&ss, 2);
        assert_eq!(cov, 8);
        assert_eq!(chosen, vec![0, 1]);
    }

    #[test]
    fn k_larger_than_m_takes_everything() {
        let ss = SetSystem::new(5, vec![vec![0], vec![1], vec![2]]);
        let (chosen, cov) = max_cover_exact(&ss, 10);
        assert_eq!(cov, 3);
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use kcov_stream::gen::uniform_incidence;
        for seed in 0..8u64 {
            let ss = uniform_incidence(24, 10, 0.2, seed);
            let k = 3;
            // Brute force over all C(10,3) subsets.
            let mut best = 0;
            for a in 0..10 {
                for b in (a + 1)..10 {
                    for c in (b + 1)..10 {
                        best = best.max(coverage_of(&ss, &[a, b, c]));
                    }
                }
            }
            let (chosen, cov) = max_cover_exact(&ss, k);
            assert_eq!(cov, best, "seed {seed}");
            assert_eq!(
                coverage_of(&ss, &chosen),
                cov,
                "reported sets must achieve cov"
            );
        }
    }

    #[test]
    fn chosen_sets_achieve_reported_coverage() {
        let ss = SetSystem::new(
            30,
            vec![
                vec![0, 1, 2],
                vec![2, 3, 4],
                vec![5, 6],
                vec![0, 5],
                vec![7, 8, 9],
            ],
        );
        let (chosen, cov) = max_cover_exact(&ss, 3);
        assert_eq!(coverage_of(&ss, &chosen), cov);
    }
}
