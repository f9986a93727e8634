//! Space accounting.
//!
//! The paper's central claim is a space bound — `Θ̃(m/α²)` words — so this
//! workspace measures space explicitly instead of trusting asymptotics.
//! Every sketch, every sub-algorithm and the full estimator implement
//! [`SpaceUsage`], reporting the number of resident 64-bit words of
//! *algorithmic state*: counters, hash coefficients and stored samples.
//! Transient per-update scratch space is excluded, as is
//! constant per-object overhead (a handful of lengths and parameters),
//! matching how space is counted in the streaming literature.
//!
//! Each type writes its accounting once, as a walk
//! ([`SpaceUsage::space_ledger`]) over its components into a
//! [`SpaceSink`]: explicit `overhead` leaves for the literal constants,
//! heat on the structures updates touch. Walked into a
//! [`LedgerNode`](kcov_obs::LedgerNode) it builds the attribution tree
//! that traces carry and `maxkcov prof` audits; walked into a [`Space`]
//! it is the running total that [`SpaceUsage::space_words`] returns.
//! The tree's leaf sum therefore equals `space_words()` by
//! construction.

pub use kcov_obs::{Space, SpaceSink};

/// Number of resident 64-bit words of algorithmic state.
pub trait SpaceUsage {
    /// Attribute this object's resident words (and, where tracked, its
    /// update heat) into `node`: component children for structured
    /// types, or one leaf (`node.add`) for an opaque one.
    fn space_ledger(&self, node: &mut impl SpaceSink);

    /// Current space in 64-bit words: the total of
    /// [`SpaceUsage::space_ledger`], walked without building a tree.
    fn space_words(&self) -> usize {
        let mut total = Space::default();
        self.space_ledger(&mut total);
        total.words as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_obs::LedgerNode;

    struct Pair(usize, usize);
    impl SpaceUsage for Pair {
        fn space_ledger(&self, node: &mut impl SpaceSink) {
            node.leaf("a", self.0);
            node.child("b").add(Space {
                words: self.1 as u64,
                updates: 4,
                touched_words: 8,
            });
        }
    }

    #[test]
    fn space_words_is_the_walk_total() {
        let p = Pair(7, 3);
        assert_eq!(p.space_words(), 10);
        let mut node = LedgerNode::new();
        p.space_ledger(&mut node);
        assert_eq!(node.total_words(), 10);
        assert_eq!(node.get("a").unwrap().own.words, 7);
        assert_eq!(node.get("b").unwrap().own.updates, 4);
    }

    #[test]
    fn repeated_walks_accumulate_in_the_same_children() {
        let mut node = LedgerNode::new();
        Pair(7, 3).space_ledger(&mut node);
        Pair(1, 1).space_ledger(&mut node);
        assert_eq!(node.children().count(), 2);
        assert_eq!(node.total_words(), 12);
        assert_eq!(node.total_touched_words(), 16);
    }
}
