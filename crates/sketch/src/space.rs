//! Space accounting.
//!
//! The paper's central claim is a space bound — `Θ̃(m/α²)` words — so this
//! workspace measures space explicitly instead of trusting asymptotics.
//! Every sketch, every sub-algorithm and the full estimator implement
//! [`SpaceUsage`], reporting the number of resident 64-bit words of
//! *algorithmic state*: counters, hash coefficients, stored samples and
//! candidate lists. Transient per-update scratch space is excluded, as is
//! constant per-object overhead (a handful of lengths and parameters),
//! matching how space is counted in the streaming literature.
//!
//! [`SpaceUsage::space_ledger`] refines the scalar total into an
//! attribution tree ([`LedgerNode`]): every implementation mirrors its
//! own `space_words` arithmetic term by term (explicit `overhead`
//! leaves for the literal constants), so the ledger's leaf sum equals
//! `space_words()` **exactly** — the finalize invariant the estimator
//! asserts and `maxkcov prof` re-audits from traces.

use kcov_obs::LedgerNode;

/// Number of resident 64-bit words of algorithmic state.
pub trait SpaceUsage {
    /// Current space in 64-bit words.
    fn space_words(&self) -> usize;

    /// Current space in bytes (8 × words).
    fn space_bytes(&self) -> usize {
        self.space_words() * 8
    }

    /// Attribute this object's resident words (and, where tracked, its
    /// update heat) into `node`. The default treats the object as one
    /// opaque leaf; structured implementations add component children
    /// instead and must keep Σ attributed words == `space_words()`.
    fn space_ledger(&self, node: &mut LedgerNode) {
        node.own.words += self.space_words() as u64;
    }
}

/// Sum the space of a slice of accountable components.
pub fn total_words<T: SpaceUsage>(items: &[T]) -> usize {
    items.iter().map(SpaceUsage::space_words).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(usize);
    impl SpaceUsage for Fixed {
        fn space_words(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn bytes_are_eight_times_words() {
        assert_eq!(Fixed(10).space_bytes(), 80);
    }

    #[test]
    fn totals_sum() {
        let items = [Fixed(1), Fixed(2), Fixed(3)];
        assert_eq!(total_words(&items), 6);
    }

    #[test]
    fn empty_total_is_zero() {
        let items: [Fixed; 0] = [];
        assert_eq!(total_words(&items), 0);
    }

    #[test]
    fn default_ledger_is_one_opaque_leaf() {
        let mut node = LedgerNode::new();
        Fixed(7).space_ledger(&mut node);
        Fixed(3).space_ledger(&mut node);
        assert_eq!(node.own.words, 10);
        assert!(node.is_leaf());
        assert_eq!(node.total_words(), Fixed(7).space_words() as u64 + 3);
    }
}
