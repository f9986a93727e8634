//! One-way protocol simulation (Corollary 5.2's reduction direction).
//!
//! A single-pass streaming algorithm with `S` words of state yields an
//! `r`-player one-way protocol with `S`-word messages: player `i` runs
//! the algorithm over its own chunk of the stream and forwards the
//! state. The simulator runs an actual streaming estimator over
//! player-partitioned input and records the resident state size at
//! every player boundary — the communication cost of the induced
//! protocol.

use kcov_sketch::SpaceUsage;
use kcov_stream::Edge;

/// Anything that consumes an edge stream and produces a scalar estimate
/// with measurable state.
pub trait StreamingEstimator: SpaceUsage {
    /// Observe one edge.
    fn observe(&mut self, edge: Edge);
    /// The answer after the pass.
    fn estimate(&self) -> f64;
}

impl StreamingEstimator for kcov_core::MaxCoverEstimator {
    fn observe(&mut self, edge: Edge) {
        kcov_core::MaxCoverEstimator::observe(self, edge)
    }
    fn estimate(&self) -> f64 {
        self.finalize().estimate
    }
}

/// Result of a protocol simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolRun {
    /// The algorithm's final answer (the last player's output).
    pub answer: f64,
    /// State size (words) at each of the `r − 1` player boundaries —
    /// the sizes of the messages the induced protocol sends.
    pub message_words: Vec<usize>,
}

impl ProtocolRun {
    /// The protocol's communication cost: the largest message.
    pub fn max_message_words(&self) -> usize {
        self.message_words.iter().copied().max().unwrap_or(0)
    }

    /// Total communication across the round.
    pub fn total_words(&self) -> usize {
        self.message_words.iter().sum()
    }
}

/// Run `alg` as a one-way protocol over player-partitioned input:
/// `players[i]` is the edge chunk held by player `i`.
pub fn run_one_way_protocol<A: StreamingEstimator>(
    alg: &mut A,
    players: &[Vec<Edge>],
) -> ProtocolRun {
    let mut message_words = Vec::with_capacity(players.len().saturating_sub(1));
    for (i, chunk) in players.iter().enumerate() {
        for &e in chunk {
            alg.observe(e);
        }
        if i + 1 < players.len() {
            message_words.push(alg.space_words());
        }
    }
    ProtocolRun {
        answer: alg.estimate(),
        message_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_core::{EstimatorConfig, MaxCoverEstimator};
    use kcov_sketch::space::{Space, SpaceSink};
    use kcov_stream::gen::{dsj_max_cover_instance, DsjKind};

    /// A trivial exact counter used to validate the harness itself.
    struct ExactDistinct {
        seen: std::collections::HashSet<u32>,
    }
    impl SpaceUsage for ExactDistinct {
        fn space_ledger(&self, node: &mut impl SpaceSink) {
            node.add(Space::resident(self.seen.len()));
        }
    }
    impl StreamingEstimator for ExactDistinct {
        fn observe(&mut self, edge: Edge) {
            self.seen.insert(edge.elem);
        }
        fn estimate(&self) -> f64 {
            self.seen.len() as f64
        }
    }

    #[test]
    fn boundaries_counted_correctly() {
        let players = vec![
            vec![Edge::new(0, 0), Edge::new(0, 1)],
            vec![Edge::new(1, 1)],
            vec![Edge::new(2, 2)],
        ];
        let mut alg = ExactDistinct {
            seen: std::collections::HashSet::new(),
        };
        let run = run_one_way_protocol(&mut alg, &players);
        assert_eq!(run.message_words, vec![2, 2]);
        assert_eq!(run.answer, 3.0);
        assert_eq!(run.max_message_words(), 2);
        assert_eq!(run.total_words(), 4);
    }

    #[test]
    fn single_player_sends_no_messages() {
        let mut alg = ExactDistinct {
            seen: std::collections::HashSet::new(),
        };
        let run = run_one_way_protocol(&mut alg, &[vec![Edge::new(0, 5)]]);
        assert!(run.message_words.is_empty());
        assert_eq!(run.max_message_words(), 0);
    }

    #[test]
    fn estimator_runs_as_protocol_on_dsj_instances() {
        // The full MaxCoverEstimator, partitioned by player, is a valid
        // one-way protocol; its No-case answer should exceed its
        // Yes-case answer (the Claims 5.3/5.4 gap seen through an
        // α'-approximation).
        let alpha = 8usize;
        let m = 256usize;
        let yes = dsj_max_cover_instance(m, alpha, 16, DsjKind::Yes, 3);
        let no = dsj_max_cover_instance(m, alpha, 16, DsjKind::No, 3);
        let config = EstimatorConfig::practical(7);
        let run_case = |inst: &kcov_stream::gen::DsjInstance| {
            let mut alg = MaxCoverEstimator::new(alpha, m, 1, 2.0, &config);
            // Partition the reduced stream by player.
            let players: Vec<Vec<Edge>> = inst
                .players
                .iter()
                .enumerate()
                .map(|(i, t)| t.iter().map(|&j| Edge::new(j, i as u32)).collect())
                .collect();
            run_one_way_protocol(&mut alg, &players)
        };
        let ry = run_case(&yes);
        let rn = run_case(&no);
        assert!(
            rn.answer > ry.answer,
            "No-case answer {} must exceed Yes-case {}",
            rn.answer,
            ry.answer
        );
        assert!(rn.max_message_words() > 0);
    }
}
