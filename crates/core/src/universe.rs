//! Universe reduction — paper §3.1 (Lemma 3.5, Theorem 3.6).
//!
//! For each guess `z` of the optimal coverage size, hash the ground set
//! onto pseudo-elements `[z]` with a 4-wise independent function. Lemma
//! 3.5: any subset `S` with `|S| ≥ z` keeps `|h(S)| ≥ z/4` with
//! probability ≥ 3/4 (a second-moment argument on pairwise collisions).
//! The `(α, δ, η)`-oracle then only needs to handle instances whose
//! optimum covers a constant (`1/η = 1/4`) fraction of the universe.

use std::sync::Arc;

use kcov_hash::{four_wise, KWise};
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::Edge;

/// A 4-wise independent map `U → [z]` of the ground set onto
/// pseudo-elements.
///
/// Two constructions coexist: the classic standalone form hashes the
/// raw element id directly (`new`), while the hash-once hot path
/// composes a shared element *fingerprint base* with the estimator's
/// lane-invariant 4-wise mix (`with_shared_mix`) — the base and the mix
/// are evaluated once per edge and every lane only pays its own range
/// reduction.
#[derive(Debug, Clone)]
pub struct UniverseReducer {
    z: u64,
    hash: Arc<KWise>,
    /// Whether `hash` is the lane-invariant shared mix owned by the
    /// enclosing estimator (space: this holder counts a 1-word handle;
    /// the estimator attributes the coefficients once under its
    /// top-level `universe` leaf) or a private mix this reducer owns.
    shared_mix: bool,
    /// Shared element fingerprint base (hash-once path). `None` for
    /// standalone reducers that hash raw ids. Held by `Arc`: every lane
    /// shares one coefficient table, and the space ledger attributes the
    /// words to the owner (the estimator's fingerprint front end).
    base: Option<Arc<KWise>>,
}

impl UniverseReducer {
    /// Create a reducer onto `[z]` pseudo-elements hashing raw ids.
    pub fn new(z: u64, seed: u64) -> Self {
        assert!(z >= 1, "z must be positive");
        UniverseReducer {
            z,
            hash: Arc::new(four_wise(seed)),
            shared_mix: false,
            base: None,
        }
    }

    /// Derive a lane-invariant 4-wise mix for sharing across an
    /// estimator's reducers (one instance per process; see
    /// [`Self::with_shared_mix`]).
    pub fn shared_mix(seed: u64) -> Arc<KWise> {
        Arc::new(four_wise(seed))
    }

    /// Create a reducer onto `[z]` that applies the *shared*
    /// lane-invariant `mix` to element fingerprints under `base`:
    /// `map(e) = mix(base(e))` reduced to `[z]`. The scalar `map` stays
    /// available (it applies the base itself). Every
    /// estimator lane holds the same two `Arc`s; per chunk the mix
    /// column is evaluated once ([`Self::mix_batch`]) and each lane
    /// pays only its own range reduction
    /// ([`Self::map_premixed_batch`]). Sharing the mix couples the
    /// lanes' reductions (nested prefix samples across `z` guesses),
    /// which is harmless: Lemma 3.5 is applied per lane and the final
    /// max never relies on cross-lane independence.
    pub fn with_shared_mix(z: u64, mix: Arc<KWise>, base: Arc<KWise>) -> Self {
        assert!(z >= 1, "z must be positive");
        UniverseReducer {
            z,
            hash: mix,
            shared_mix: true,
            base: Some(base),
        }
    }

    /// Resident words of the mix coefficients — what the owning
    /// estimator attributes under its `universe` leaf when the mix is
    /// shared.
    pub fn mix_words(&self) -> usize {
        self.hash.space_words()
    }

    /// Pseudo-element of `elem` (raw id).
    #[inline]
    pub fn map(&self, elem: u64) -> u64 {
        match &self.base {
            Some(b) => self.hash.hash_to_range(b.hash(elem), self.z),
            None => self.hash.hash_to_range(elem, self.z),
        }
    }

    /// Evaluate the 4-wise mix (not yet range-reduced) over a
    /// fingerprint column. When every lane shares one mix — the
    /// estimator construction — this column is computed once per chunk
    /// and each lane only applies its own range reduction via
    /// [`Self::map_premixed_batch`].
    pub fn mix_batch(&self, fps: &[u64], out: &mut Vec<u64>) {
        self.hash.hash_batch(fps, out);
    }

    /// Reduce a chunk given the *premixed* column (`mixed[i]` must be
    /// `mix(base(edges[i].elem))`, i.e. the output of
    /// [`Self::mix_batch`] on this reducer's mix). Bit-identical to
    /// [`Self::map`] of the raw element: the range reduction
    /// `⌊mixed·z/2^61⌋` is exactly `hash_to_range`'s, so per lane the
    /// whole universe reduction is one widening multiply per edge.
    pub fn map_premixed_batch(&self, edges: &[Edge], mixed: &[u64], out: &mut Vec<Edge>) {
        debug_assert_eq!(edges.len(), mixed.len());
        out.clear();
        out.extend(
            edges
                .iter()
                .zip(mixed)
                .map(|(e, &h)| Edge::new(e.set, ((h as u128 * self.z as u128) >> 61) as u32)),
        );
    }

    /// The pseudo-universe size `z`.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Image size `|h(S)|` of an explicit set (used by tests and the
    /// Lemma 3.5 experiment).
    pub fn image_size(&self, members: &[u64]) -> usize {
        let mut seen = std::collections::HashSet::with_capacity(members.len().min(self.z as usize));
        for &e in members {
            seen.insert(self.map(e));
        }
        seen.len()
    }
}

impl SpaceUsage for UniverseReducer {
    /// State behind a shared `Arc` is attributed to its owner (the
    /// estimator front end for the fingerprint base, the estimator's
    /// `universe` leaf for a shared mix); this holder carries 1-word
    /// handles.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf(
            "hash",
            if self.shared_mix {
                1
            } else {
                self.hash.space_words()
            },
        );
        if self.base.is_some() {
            node.leaf("base", 1);
        }
        node.leaf("overhead", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_into_range() {
        let r = UniverseReducer::new(17, 3);
        for e in 0..1000u64 {
            assert!(r.map(e) < 17);
        }
    }

    #[test]
    fn deterministic() {
        let a = UniverseReducer::new(64, 5);
        let b = UniverseReducer::new(64, 5);
        for e in 0..100u64 {
            assert_eq!(a.map(e), b.map(e));
        }
    }

    #[test]
    fn lemma_3_5_image_at_least_quarter() {
        // |S| = z: with probability >= 3/4, |h(S)| >= z/4. Check the
        // empirical success rate over many seeds comfortably exceeds 3/4
        // (it concentrates near 1 - e^{-1}-ish collision profiles; the
        // lemma's 3/4 is a loose bound).
        let z = 128u64;
        let members: Vec<u64> = (0..z).collect();
        let mut successes = 0;
        let trials = 200;
        for seed in 0..trials {
            let r = UniverseReducer::new(z, 1000 + seed);
            if r.image_size(&members) >= (z / 4) as usize {
                successes += 1;
            }
        }
        assert!(
            successes as f64 / trials as f64 >= 0.75,
            "Lemma 3.5 failed empirically: {successes}/{trials}"
        );
    }

    #[test]
    fn image_never_exceeds_set_size_or_z() {
        let r = UniverseReducer::new(32, 9);
        let small: Vec<u64> = (0..10).collect();
        assert!(r.image_size(&small) <= 10);
        let large: Vec<u64> = (0..1000).collect();
        assert!(r.image_size(&large) <= 32);
    }

    #[test]
    fn coverage_never_increases_under_reduction() {
        // The Theorem 3.6 soundness direction: |h(C)| <= |C| for any C.
        let r = UniverseReducer::new(256, 11);
        for size in [1usize, 5, 50, 500] {
            let members: Vec<u64> = (0..size as u64).map(|x| x * 7 + 1).collect();
            assert!(r.image_size(&members) <= size);
        }
    }

    #[test]
    fn base_variant_is_fingerprint_consistent() {
        let base = Arc::new(KWise::new(8, 77));
        let mix = UniverseReducer::shared_mix(5);
        let r = UniverseReducer::new(64, 5);
        let f = UniverseReducer::with_shared_mix(64, mix.clone(), base.clone());
        let edges: Vec<Edge> = (0..200u32).map(|i| Edge::new(i, i * 3 % 150)).collect();
        let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.elem as u64)).collect();
        let (mut mixed, mut reduced) = (Vec::new(), Vec::new());
        f.mix_batch(&fps, &mut mixed);
        f.map_premixed_batch(&edges, &mixed, &mut reduced);
        for (e, got) in edges.iter().zip(&reduced) {
            // map applies the base and the mix itself; the batched path
            // reduces the premixed fingerprint column.
            assert_eq!(*got, Edge::new(e.set, f.map(e.elem as u64) as u32));
        }
        // With the same mix seed, the base changes the map.
        assert!((0..200).any(|e| r.map(e) != f.map(e)));
    }

    #[test]
    fn z_one_collapses_everything() {
        let r = UniverseReducer::new(1, 2);
        assert_eq!(r.map(123), 0);
        assert_eq!(r.image_size(&[1, 2, 3]), 1);
    }
}
