//! Hash-once edge fingerprints — the shared front of the hot path.
//!
//! Profiling showed the estimator's per-edge cost was dominated by
//! re-hashing the *same* `(set, element)` pair in every lane: each of
//! the ~15 `(z, rep)` lanes evaluated several degree-`Θ(log mn)`
//! polynomials per edge (the `LargeCommon` sampling gate, two
//! `LargeSet` element/partition hashes per repetition, the `SmallSet`
//! set gate). The fix is structural: hash each raw id **once** per
//! edge with a pair of shared polynomial bases, then let every lane
//! consume the resulting *fingerprints* through cheap 4-wise mixes (a
//! degree-4 Horner step instead of a degree-29 one).
//!
//! [`EdgeFingerprints`] owns the two bases; [`FingerprintBlock`] is the
//! reusable scratch holding one fingerprint pair per edge of a batch,
//! filled with the blocked [`RangeHash::hash_batch`] evaluator (proven
//! bit-identical to the scalar path by the `kcov-hash` equivalence
//! suite). The block is pure scratch — never serialized, never merged —
//! while the bases are part of replica state (wire section of the
//! estimator) because every downstream gate decision depends on them.
//!
//! Soundness note: fingerprints are full 61-bit field points under a
//! k-wise independent polynomial, so any downstream family composed as
//! `mix(fingerprint(key))` with an independent 4-wise `mix` is itself
//! 4-wise independent over the original keys (the composition of
//! independent k-wise families is min(k,k')-wise independent up to the
//! negligible 2^-61 fingerprint-collision probability). The paper's
//! concentration arguments need only pairwise/4-wise independence at
//! the gates, so the hot path keeps the guarantees while hashing each
//! id exactly once.

use std::sync::Arc;

use kcov_hash::{KWise, RangeHash, SeedSequence};
use kcov_sketch::wire::{err, put_kwise, take_kwise, WireError};
use kcov_sketch::{SpaceSink, SpaceUsage};
use kcov_stream::Edge;

/// The shared per-edge fingerprint bases: one polynomial over set ids,
/// one over element ids, both of [`crate::Params::hash_degree`] degree.
#[derive(Debug, Clone)]
pub struct EdgeFingerprints {
    set: Arc<KWise>,
    elem: Arc<KWise>,
}

impl EdgeFingerprints {
    /// Derive the two bases from the estimator seed. The set base is
    /// drawn first, then the element base — this order is part of the
    /// determinism contract (changing it changes every gate decision).
    pub fn new(seed: u64, degree: usize) -> Self {
        let mut seq = SeedSequence::labeled(seed, "edge-fingerprints");
        let set = Arc::new(KWise::new(degree, seq.next_seed()));
        let elem = Arc::new(KWise::new(degree, seq.next_seed()));
        EdgeFingerprints { set, elem }
    }

    /// Fingerprint one edge: `(h_set(set), h_elem(elem))`.
    #[inline]
    pub fn fingerprint(&self, edge: Edge) -> (u64, u64) {
        (self.set.hash(edge.set as u64), self.elem.hash(edge.elem as u64))
    }

    /// Fingerprint a batch into the reusable block, using the blocked
    /// evaluator. State-identical to calling [`Self::fingerprint`] per
    /// edge (the scalar-equivalence contract of `hash_batch`).
    pub fn fill_block(&self, edges: &[Edge], block: &mut FingerprintBlock) {
        block.set_keys.clear();
        block.elem_keys.clear();
        block.set_keys.extend(edges.iter().map(|e| e.set as u64));
        block.elem_keys.extend(edges.iter().map(|e| e.elem as u64));
        self.set.hash_batch(&block.set_keys, &mut block.fp_set);
        self.elem.hash_batch(&block.elem_keys, &mut block.fp_elem);
    }

    /// The set-id base. Every subroutine holds a clone of this `Arc`
    /// (one shared coefficient table per process; wire payloads still
    /// encode the coefficients per holder so they stay self-contained).
    pub fn set_base(&self) -> &Arc<KWise> {
        &self.set
    }

    /// The element-id base (consumed by the universe reducers).
    pub fn elem_base(&self) -> &Arc<KWise> {
        &self.elem
    }

    /// Whether both bases agree with `other` (probe-based, like every
    /// merge precondition in the workspace).
    pub fn same_function(&self, other: &EdgeFingerprints) -> bool {
        (0..4).all(|i| {
            let probe = 0x5eed_c0deu64 ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.set.hash(probe) == other.set.hash(probe)
                && self.elem.hash(probe) == other.elem.hash(probe)
        })
    }

}

/// Wire: both coefficient vectors, set base first (the draw order of
/// [`EdgeFingerprints::new`]).
impl kcov_sketch::WireEncode for EdgeFingerprints {
    fn encode(&self, out: &mut Vec<u8>) {
        put_kwise(out, &self.set);
        put_kwise(out, &self.elem);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let set = take_kwise(input).map_err(|e| err(format!("fingerprint set base: {e}")))?;
        let elem = take_kwise(input).map_err(|e| err(format!("fingerprint elem base: {e}")))?;
        Ok(EdgeFingerprints {
            set: Arc::new(set),
            elem: Arc::new(elem),
        })
    }
}

impl SpaceUsage for EdgeFingerprints {
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("set_base", self.set.space_words());
        node.leaf("elem_base", self.elem.space_words());
    }
}

/// Reusable per-batch scratch: one `(fp_set, fp_elem)` pair per edge of
/// the current chunk. Pure transient state — never serialized, never
/// part of merge preconditions.
#[derive(Debug, Clone, Default)]
pub struct FingerprintBlock {
    set_keys: Vec<u64>,
    elem_keys: Vec<u64>,
    /// `h_set(edge.set)` per edge of the chunk.
    pub fp_set: Vec<u64>,
    /// `h_elem(edge.elem)` per edge of the chunk.
    pub fp_elem: Vec<u64>,
    /// Shared universe-reduction mix applied to `fp_elem`, filled by
    /// the estimator's dispatch (one evaluation per chunk, consumed by
    /// every lane's range reduction).
    pub umix: Vec<u64>,
}

impl FingerprintBlock {
    /// Empty block (fills on first use, then reuses its allocations).
    pub fn new() -> Self {
        FingerprintBlock::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_sketch::WireEncode;

    #[test]
    fn block_matches_scalar_fingerprints() {
        let fps = EdgeFingerprints::new(42, 8);
        let edges: Vec<Edge> = (0..137u32).map(|i| Edge::new(i % 19, i * 7 % 113)).collect();
        let mut block = FingerprintBlock::new();
        fps.fill_block(&edges, &mut block);
        assert_eq!(block.fp_set.len(), edges.len());
        for (i, &e) in edges.iter().enumerate() {
            let (s, x) = fps.fingerprint(e);
            assert_eq!(block.fp_set[i], s, "set fp diverged at {i}");
            assert_eq!(block.fp_elem[i], x, "elem fp diverged at {i}");
        }
        // Shrinking reuse must not leave stale lanes.
        fps.fill_block(&edges[..3], &mut block);
        assert_eq!(block.fp_set.len(), 3);
    }

    #[test]
    fn bases_are_independent_and_seed_deterministic() {
        let a = EdgeFingerprints::new(7, 8);
        let b = EdgeFingerprints::new(7, 8);
        let c = EdgeFingerprints::new(8, 8);
        assert!(a.same_function(&b));
        assert!(!a.same_function(&c));
        // Set and element bases must differ from each other.
        assert_ne!(a.set_base().hash(12345), a.elem_base().hash(12345));
    }

    #[test]
    fn wire_roundtrip_preserves_behavior() {
        let fps = EdgeFingerprints::new(99, 8);
        let mut buf = Vec::new();
        fps.encode(&mut buf);
        let mut input = buf.as_slice();
        let back = EdgeFingerprints::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert!(fps.same_function(&back));
        // Truncation fails cleanly.
        let mut short = &buf[..buf.len() - 1];
        assert!(EdgeFingerprints::decode(&mut short).is_err());
    }
}
