//! Materialized set systems `(U, F)`.
//!
//! Generators and offline algorithms (greedy, exact, ground truth) work on
//! a materialized [`SetSystem`]; the streaming algorithms only ever see
//! the edge stream derived from one (see [`crate::order`]).

use crate::edge::Edge;

/// A set system: `n` ground elements and `m` sets over them.
///
/// Invariants (enforced by the constructors): every element id is
/// `< num_elements`, each set's member list is sorted and duplicate-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSystem {
    num_elements: usize,
    sets: Vec<Vec<u32>>,
}

impl SetSystem {
    /// Build from raw member lists; sorts and deduplicates each set.
    /// Panics if any element id is out of range.
    pub fn new(num_elements: usize, mut sets: Vec<Vec<u32>>) -> Self {
        for (i, s) in sets.iter_mut().enumerate() {
            s.sort_unstable();
            s.dedup();
            if let Some(&last) = s.last() {
                assert!(
                    (last as usize) < num_elements,
                    "set {i} contains element {last} >= n = {num_elements}"
                );
            }
        }
        SetSystem { num_elements, sets }
    }

    /// Build from an edge list. `num_sets` fixes `m` (empty sets are
    /// allowed and preserved).
    pub fn from_edges(num_elements: usize, num_sets: usize, edges: &[Edge]) -> Self {
        let mut sets = vec![Vec::new(); num_sets];
        for e in edges {
            assert!(
                (e.set as usize) < num_sets,
                "edge references set {} >= m = {num_sets}",
                e.set
            );
            sets[e.set as usize].push(e.elem);
        }
        SetSystem::new(num_elements, sets)
    }

    /// Number of ground elements `n`.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of sets `m`.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Member list of one set (sorted, duplicate-free).
    #[inline]
    pub fn set(&self, i: usize) -> &[u32] {
        &self.sets[i]
    }

    /// All sets.
    pub fn sets(&self) -> &[Vec<u32>] {
        &self.sets
    }

    /// Total number of incidences `Σ |S|` (the stream length).
    pub fn total_edges(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Size of the largest set.
    pub fn max_set_size(&self) -> usize {
        self.sets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// All edges in set-contiguous order (set 0's members, then set 1's…).
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.total_edges());
        for (s, members) in self.sets.iter().enumerate() {
            for &e in members {
                out.push(Edge::new(s as u32, e));
            }
        }
        out
    }

    /// Iterate over `(set, element)` pairs without materializing.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(s, members)| members.iter().map(move |&e| Edge::new(s as u32, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let ss = SetSystem::new(10, vec![vec![3, 1, 3, 2], vec![]]);
        assert_eq!(ss.set(0), &[1, 2, 3]);
        assert_eq!(ss.set(1), &[] as &[u32]);
        assert_eq!(ss.num_sets(), 2);
        assert_eq!(ss.num_elements(), 10);
    }

    #[test]
    #[should_panic(expected = ">= n")]
    fn out_of_range_element_rejected() {
        let _ = SetSystem::new(5, vec![vec![5]]);
    }

    #[test]
    fn from_edges_roundtrip() {
        let edges = vec![
            Edge::new(0, 2),
            Edge::new(1, 0),
            Edge::new(0, 1),
            Edge::new(0, 2),
        ];
        let ss = SetSystem::from_edges(3, 3, &edges);
        assert_eq!(ss.set(0), &[1, 2]);
        assert_eq!(ss.set(1), &[0]);
        assert_eq!(ss.set(2), &[] as &[u32]);
        assert_eq!(ss.total_edges(), 3);
    }

    #[test]
    #[should_panic(expected = ">= m")]
    fn from_edges_rejects_bad_set() {
        let _ = SetSystem::from_edges(3, 1, &[Edge::new(1, 0)]);
    }

    #[test]
    fn edges_enumeration_matches_total() {
        let ss = SetSystem::new(6, vec![vec![0, 1], vec![2], vec![3, 4, 5]]);
        let edges = ss.edges();
        assert_eq!(edges.len(), ss.total_edges());
        assert_eq!(edges.len(), 6);
        let via_iter: Vec<Edge> = ss.iter_edges().collect();
        assert_eq!(edges, via_iter);
    }

    #[test]
    fn max_set_size() {
        let ss = SetSystem::new(6, vec![vec![0], vec![1, 2, 3], vec![]]);
        assert_eq!(ss.max_set_size(), 3);
        let empty = SetSystem::new(5, vec![]);
        assert_eq!(empty.max_set_size(), 0);
    }
}
