//! BEM-style edge-arrival sketched greedy — after Bateni, Esfandiari &
//! Mirrokni (reference [12] of the paper): the first constant-factor,
//! `Õ(m)`-space algorithm for edge-arrival max cover. Their construction
//! keeps a small *mergeable* distinct-element sketch per set and runs
//! greedy over the sketches after the pass.
//!
//! We realize the per-set sketch as a shared-hash bottom-t (KMV) summary:
//! with a single pairwise hash `h` over elements, the bottom-t values of
//! a union are computable from the bottom-t values of the parts, so
//! greedy's marginal-gain queries work on merged summaries. Space is
//! `O(m·t)` words; the coverage estimates carry `O(1/√t)` relative error,
//! giving a constant-factor guarantee overall.

use std::collections::BTreeSet;

use kcov_hash::{pairwise, KWise, RangeHash, MERSENNE_P};
use kcov_sketch::space::{Space, SpaceSink, SpaceUsage};
use kcov_stream::Edge;

use crate::CoverResult;

/// Shared-hash bottom-t summary of a set of elements.
#[derive(Debug, Clone, Default)]
struct BottomT {
    vals: BTreeSet<u64>,
}

impl BottomT {
    fn insert(&mut self, h: u64, t: usize) {
        if self.vals.len() < t {
            self.vals.insert(h);
        } else {
            let max = *self.vals.iter().next_back().expect("non-empty");
            if h < max && self.vals.insert(h) {
                self.vals.remove(&max);
            }
        }
    }

    fn merge_into(&self, acc: &mut BTreeSet<u64>, t: usize) {
        for &v in &self.vals {
            acc.insert(v);
        }
        while acc.len() > t {
            let max = *acc.iter().next_back().expect("non-empty");
            acc.remove(&max);
        }
    }
}

/// Estimate distinct count from a bottom-t value set.
fn estimate(vals: &BTreeSet<u64>, t: usize) -> f64 {
    if vals.len() < t {
        vals.len() as f64
    } else {
        let vk = *vals.iter().next_back().expect("non-empty") as f64;
        (t as f64 - 1.0) * MERSENNE_P as f64 / vk
    }
}

/// Edge-arrival sketched greedy: one bottom-t summary per set, offline
/// greedy over merged summaries.
#[derive(Debug)]
pub struct SketchedGreedy {
    t: usize,
    hash: KWise,
    per_set: Vec<BottomT>,
}

impl SketchedGreedy {
    /// `m` sets, summaries of size `t` (relative error `O(1/√t)`).
    pub fn new(m: usize, t: usize, seed: u64) -> Self {
        assert!(t >= 2, "summary size must be >= 2");
        SketchedGreedy {
            t,
            hash: pairwise(seed ^ 0xbe11),
            per_set: vec![BottomT::default(); m],
        }
    }

    /// Observe one `(set, element)` edge (any order, duplicates free).
    #[inline]
    pub fn observe(&mut self, edge: Edge) {
        let h = self.hash.hash(edge.elem as u64);
        self.per_set[edge.set as usize].insert(h, self.t);
    }

    /// After the pass: greedy over sketches. Each round merges every
    /// candidate's summary into the current solution summary and picks
    /// the largest estimated union.
    pub fn finish(&self, k: usize) -> CoverResult {
        let m = self.per_set.len();
        let mut chosen: Vec<usize> = Vec::with_capacity(k.min(m));
        let mut current: BTreeSet<u64> = BTreeSet::new();
        let mut taken = vec![false; m];
        for _ in 0..k.min(m) {
            let base = estimate(&current, self.t);
            let mut best: Option<(f64, usize, BTreeSet<u64>)> = None;
            for (i, summary) in self.per_set.iter().enumerate() {
                if taken[i] || summary.vals.is_empty() {
                    continue;
                }
                let mut union = current.clone();
                summary.merge_into(&mut union, self.t);
                let est = estimate(&union, self.t);
                if best.as_ref().is_none_or(|(b, _, _)| est > *b) {
                    best = Some((est, i, union));
                }
            }
            match best {
                Some((est, i, union)) if est > base + 1e-9 => {
                    chosen.push(i);
                    taken[i] = true;
                    current = union;
                }
                _ => break,
            }
        }
        CoverResult {
            estimated_coverage: estimate(&current, self.t),
            chosen,
        }
    }

    /// Merge another instance built with the same `m`, `t` and seed —
    /// per-set bottom-t summaries merge under union, so shards of an
    /// edge stream can be sketched independently (e.g. one worker per
    /// partition) and combined before the greedy stage. Panics on
    /// shape/seed mismatch.
    pub fn merge(&mut self, other: &SketchedGreedy) {
        assert_eq!(self.per_set.len(), other.per_set.len(), "m mismatch");
        assert_eq!(self.t, other.t, "summary size mismatch");
        assert_eq!(
            self.hash.hash(0x5eed_c0de),
            other.hash.hash(0x5eed_c0de),
            "merge requires identical element hashes"
        );
        for (mine, theirs) in self.per_set.iter_mut().zip(&other.per_set) {
            for &v in &theirs.vals {
                mine.vals.insert(v);
            }
            while mine.vals.len() > self.t {
                let max = *mine.vals.iter().next_back().expect("non-empty");
                mine.vals.remove(&max);
            }
        }
    }

    /// Run over an edge stream.
    pub fn run(m: usize, t: usize, seed: u64, edges: &[Edge], k: usize) -> CoverResult {
        let mut alg = SketchedGreedy::new(m, t, seed);
        for &e in edges {
            alg.observe(e);
        }
        alg.finish(k)
    }
}

impl SpaceUsage for SketchedGreedy {
    /// One opaque leaf: the per-set bottom-k values plus the shared hash.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        let vals: usize = self.per_set.iter().map(|b| b.vals.len()).sum();
        node.add(Space::resident(vals + self.hash.space_words()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_stream::gen::{planted_cover, uniform_incidence};
    use kcov_stream::{coverage_of, edge_stream, ArrivalOrder, SetSystem};

    #[test]
    fn exact_on_small_sets() {
        // Sets smaller than t: summaries are exact, greedy is exact
        // greedy.
        let ss = SetSystem::new(20, vec![vec![0, 1, 2], vec![2, 3], vec![4, 5, 6, 7]]);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(1));
        let r = SketchedGreedy::run(3, 64, 7, &edges, 2);
        assert_eq!(r.estimated_coverage, 7.0);
        assert_eq!(coverage_of(&ss, &r.chosen), 7);
    }

    #[test]
    fn constant_factor_on_planted() {
        let inst = planted_cover(2000, 80, 8, 0.8, 30, 3);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(9));
        let r = SketchedGreedy::run(80, 48, 5, &edges, 8);
        let real = coverage_of(&inst.system, &r.chosen) as f64;
        let opt = inst.planted_coverage as f64;
        assert!(real >= opt / 3.0, "real coverage {real} vs opt {opt}");
        // The estimate itself tracks the real coverage.
        assert!(
            (r.estimated_coverage - real).abs() / real < 0.5,
            "estimate {} vs real {real}",
            r.estimated_coverage
        );
    }

    #[test]
    fn order_invariant() {
        let ss = uniform_incidence(300, 40, 0.05, 5);
        let e1 = edge_stream(&ss, ArrivalOrder::SetContiguous);
        let e2 = edge_stream(&ss, ArrivalOrder::Shuffled(3));
        let r1 = SketchedGreedy::run(40, 32, 11, &e1, 5);
        let r2 = SketchedGreedy::run(40, 32, 11, &e2, 5);
        assert_eq!(r1.chosen, r2.chosen);
        assert_eq!(r1.estimated_coverage, r2.estimated_coverage);
    }

    #[test]
    fn space_linear_in_m_times_t() {
        let ss = uniform_incidence(500, 60, 0.2, 2);
        let edges = edge_stream(&ss, ArrivalOrder::RoundRobin);
        let mut alg = SketchedGreedy::new(60, 16, 1);
        for &e in &edges {
            alg.observe(e);
        }
        assert!(alg.space_words() <= 60 * 16 + 8);
    }

    #[test]
    fn empty_stream() {
        let r = SketchedGreedy::run(10, 8, 1, &[], 3);
        assert!(r.chosen.is_empty());
        assert_eq!(r.estimated_coverage, 0.0);
    }

    #[test]
    fn sharded_merge_equals_single_pass() {
        let ss = uniform_incidence(400, 30, 0.08, 7);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(5));
        let mid = edges.len() / 2;
        let mut a = SketchedGreedy::new(30, 24, 13);
        let mut b = SketchedGreedy::new(30, 24, 13);
        let mut whole = SketchedGreedy::new(30, 24, 13);
        for &e in &edges[..mid] {
            a.observe(e);
            whole.observe(e);
        }
        for &e in &edges[mid..] {
            b.observe(e);
            whole.observe(e);
        }
        a.merge(&b);
        let ra = a.finish(5);
        let rw = whole.finish(5);
        assert_eq!(ra.chosen, rw.chosen);
        assert_eq!(ra.estimated_coverage, rw.estimated_coverage);
    }

    #[test]
    #[should_panic(expected = "identical element hashes")]
    fn merge_rejects_seed_mismatch() {
        let mut a = SketchedGreedy::new(5, 8, 1);
        let b = SketchedGreedy::new(5, 8, 2);
        a.merge(&b);
    }
}
