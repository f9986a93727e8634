//! Lower-bound hard instances (paper §5).
//!
//! The `Ω(m/α²)` bound reduces the α-player Set Disjointness problem
//! `DSJ[m]` with the *unique intersection promise* to `Max 1-Cover`:
//!
//! * each player `i ∈ [α]` holds `T_i ⊆ [m]`;
//! * **Yes case**: the `T_i` are pairwise disjoint;
//! * **No case**: there is a unique item `j*` contained in *all* `T_i`
//!   (and the sets are otherwise disjoint).
//!
//! The reduction creates one element `e_i` per player and one set `S_j`
//! per item, with `e_i ∈ S_j ⟺ j ∈ T_i`. Claims 5.3/5.4: the optimal
//! 1-cover has size `α` in the No case (the set `S_{j*}` covers every
//! element) and size 1 in the Yes case (every `S_j` is a singleton). An
//! α-approximate estimator therefore distinguishes the cases, and
//! Theorem 5.1/Corollary 5.2 put the `Ω(m/α²)` price on that.

use kcov_hash::SplitMix64;

use crate::edge::Edge;
use crate::instance::SetSystem;

/// Which promise case to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsjKind {
    /// Pairwise-disjoint player sets: optimal 1-cover has size 1.
    Yes,
    /// A unique item common to all players: optimal 1-cover has size α.
    No,
}

/// A generated Set Disjointness instance together with its reduction.
#[derive(Debug, Clone)]
pub struct DsjInstance {
    /// Player sets `T_1, …, T_α` over items `[m]`.
    pub players: Vec<Vec<u32>>,
    /// The promise case.
    pub kind: DsjKind,
    /// The unique intersection item `j*` (No case only).
    pub spike: Option<u32>,
    /// The reduced `Max 1-Cover` instance: `n = α` elements (players),
    /// `m` sets (items).
    pub system: SetSystem,
}

impl DsjInstance {
    /// The edge stream of the reduction, partitioned by player — the
    /// order a one-way protocol delivers it (player 1's edges first,
    /// then player 2's, …).
    pub fn player_ordered_edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for (i, t) in self.players.iter().enumerate() {
            for &j in t {
                out.push(Edge::new(j, i as u32));
            }
        }
        out
    }
}

/// Generate a `DSJ[m]` instance with `alpha` players where each player
/// holds about `items_per_player` items (drawn disjointly), plus the
/// common spike item in the No case.
pub fn dsj_max_cover_instance(
    m: usize,
    alpha: usize,
    items_per_player: usize,
    kind: DsjKind,
    seed: u64,
) -> DsjInstance {
    assert!(alpha >= 2, "need at least two players");
    assert!(
        alpha * items_per_player < m,
        "items do not fit: alpha*items+1 > m"
    );
    let mut rng = SplitMix64::new(seed);

    // A random permutation of items, carved into disjoint chunks.
    let mut perm: Vec<u32> = (0..m as u32).collect();
    for i in (1..m).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    let spike_item = perm[alpha * items_per_player]; // outside all chunks
    let mut players: Vec<Vec<u32>> = (0..alpha)
        .map(|i| perm[i * items_per_player..(i + 1) * items_per_player].to_vec())
        .collect();
    let spike = match kind {
        DsjKind::Yes => None,
        DsjKind::No => {
            for t in players.iter_mut() {
                t.push(spike_item);
            }
            Some(spike_item)
        }
    };

    // Reduction: element e_i per player, set S_j per item.
    let mut sets = vec![Vec::new(); m];
    for (i, t) in players.iter().enumerate() {
        for &j in t {
            sets[j as usize].push(i as u32);
        }
    }
    DsjInstance {
        system: SetSystem::new(alpha, sets),
        players,
        kind,
        spike,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage_of;

    #[test]
    fn yes_case_all_sets_singletons() {
        // Claim 5.4: every set has cardinality <= 1 in the Yes case.
        let inst = dsj_max_cover_instance(100, 8, 10, DsjKind::Yes, 1);
        for j in 0..100 {
            assert!(inst.system.set(j).len() <= 1, "set {j} too large");
        }
        let best = (0..100)
            .map(|j| coverage_of(&inst.system, &[j]))
            .max()
            .unwrap();
        assert_eq!(best, 1);
    }

    #[test]
    fn no_case_spike_covers_everything() {
        // Claim 5.3: the spike set covers all alpha elements.
        let inst = dsj_max_cover_instance(100, 8, 10, DsjKind::No, 2);
        let spike = inst.spike.unwrap() as usize;
        assert_eq!(coverage_of(&inst.system, &[spike]), 8);
        // And every other set is still a singleton.
        for j in 0..100 {
            if j != spike {
                assert!(inst.system.set(j).len() <= 1);
            }
        }
    }

    #[test]
    fn players_pairwise_disjoint_in_yes_case() {
        let inst = dsj_max_cover_instance(200, 10, 15, DsjKind::Yes, 3);
        let mut seen = std::collections::HashSet::new();
        for t in &inst.players {
            for &j in t {
                assert!(seen.insert(j), "item {j} shared between players");
            }
        }
    }

    #[test]
    fn no_case_intersection_is_exactly_the_spike() {
        let inst = dsj_max_cover_instance(200, 10, 15, DsjKind::No, 4);
        let spike = inst.spike.unwrap();
        let mut counts = std::collections::HashMap::new();
        for t in &inst.players {
            for &j in t {
                *counts.entry(j).or_insert(0u32) += 1;
            }
        }
        for (j, c) in counts {
            if j == spike {
                assert_eq!(c, 10, "spike must be in all players");
            } else {
                assert_eq!(c, 1, "item {j} in {c} players");
            }
        }
    }

    #[test]
    fn player_ordered_edges_cover_all_incidences() {
        let inst = dsj_max_cover_instance(60, 4, 8, DsjKind::No, 5);
        let edges = inst.player_ordered_edges();
        assert_eq!(edges.len(), 4 * 8 + 4); // chunk items + spike per player
        let rebuilt = SetSystem::from_edges(4, 60, &edges);
        assert_eq!(&rebuilt, &inst.system);
    }

    #[test]
    fn gap_is_alpha() {
        // The Yes/No optimal 1-cover sizes differ by exactly alpha.
        let alpha = 12;
        let yes = dsj_max_cover_instance(200, alpha, 10, DsjKind::Yes, 6);
        let no = dsj_max_cover_instance(200, alpha, 10, DsjKind::No, 6);
        let best = |s: &SetSystem| {
            (0..s.num_sets())
                .map(|j| coverage_of(s, &[j]))
                .max()
                .unwrap()
        };
        assert_eq!(best(&yes.system), 1);
        assert_eq!(best(&no.system), alpha);
    }

    #[test]
    #[should_panic(expected = "items do not fit")]
    fn oversubscribed_items_rejected() {
        let _ = dsj_max_cover_instance(10, 4, 5, DsjKind::Yes, 1);
    }
}
