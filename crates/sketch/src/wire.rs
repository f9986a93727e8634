//! Wire format: compact, dependency-free binary serialization of every
//! sketch.
//!
//! Purpose: the lower-bound harness (`kcov-lowerbound`) simulates
//! one-way communication protocols whose messages are algorithm states.
//! `SpaceUsage` counts resident words; this module makes the message
//! *literal* — a byte buffer another party can decode into an identical
//! sketch and keep feeding. Also useful for checkpointing long streams
//! and for shipping shard sketches in the distributed-merge pattern.
//!
//! Format: little-endian, length-prefixed vectors, a one-byte tag per
//! sketch type, no versioning (an in-workspace format, not an archive
//! format). Hash functions travel as their full coefficient vectors, so
//! the decoded object is behaviorally identical, not just statistically
//! equivalent.

use kcov_hash::{Fp, KWise, MERSENNE_P};
use kcov_obs::{Histogram, SketchStats};

use crate::contributing::F2Contributing;
use crate::count_sketch::{CountSketch, MAX_WIDTH};
use crate::l0::{Kmv, L0Estimator};

/// Decode error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Build a [`WireError`] from a message (shared by the full-state
/// decoders in `kcov-core`).
pub fn err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

/// A type with a self-describing binary encoding.
pub trait WireEncode: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode from the front of `input`, advancing it past the value.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode a whole buffer, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut input = bytes;
        let v = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(err(format!("{} trailing bytes", input.len())));
        }
        Ok(v)
    }
}

// ---- primitives -----------------------------------------------------
//
// The primitives are `pub`: the full-state encodings (estimator, lanes,
// oracle, subroutines) live next to their private fields in `kcov-core`
// and compose these building blocks there.

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Consume a little-endian `u64`.
pub fn take_u64(input: &mut &[u8]) -> Result<u64, WireError> {
    if input.len() < 8 {
        return Err(err("truncated u64"));
    }
    let (head, rest) = input.split_at(8);
    *input = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

/// Append an `f64` as its bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Consume an `f64` bit pattern.
pub fn take_f64(input: &mut &[u8]) -> Result<f64, WireError> {
    Ok(f64::from_bits(take_u64(input)?))
}

/// Append a length-prefixed `u64` vector.
pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Consume `n` little-endian words as one exactly sized vector of
/// `f(word)`: one bounds check against the remaining input before the
/// allocation, then one straight loop. `None` when fewer than `n` words
/// remain.
pub fn take_words<T>(input: &mut &[u8], n: usize, mut f: impl FnMut(u64) -> T) -> Option<Vec<T>> {
    if n > input.len() / 8 {
        return None;
    }
    let (head, rest) = input.split_at(8 * n);
    *input = rest;
    let words = head.chunks_exact(8);
    Some(
        words
            .map(|w| f(u64::from_le_bytes(w.try_into().expect("8 bytes"))))
            .collect(),
    )
}

/// Consume a length-prefixed `u64` vector.
pub fn take_u64s(input: &mut &[u8]) -> Result<Vec<u64>, WireError> {
    let n = take_u64(input)? as usize;
    take_words(input, n, |w| w).ok_or_else(|| err(format!("truncated vector of {n} u64s")))
}

/// Append a hash function as its full coefficient vector.
pub fn put_kwise(out: &mut Vec<u8>, h: &KWise) {
    put_u64s(out, &h.coefficients());
}

/// Consume a hash function as its coefficient vector, rejecting an
/// empty one (the polynomial-hash constructor would panic on it) and any
/// coefficient `≥ p`: the encoder only writes canonical field elements,
/// so a non-canonical one is corruption, and accepting it would give one
/// state two encodings.
pub fn take_kwise(input: &mut &[u8]) -> Result<KWise, WireError> {
    let n = take_u64(input)? as usize;
    let mut non_canonical = None;
    let coeffs = take_words(input, n, |c| {
        if c >= MERSENNE_P {
            non_canonical.get_or_insert(c);
        }
        Fp::new(c)
    })
    .ok_or_else(|| err(format!("truncated vector of {n} u64s")))?;
    if coeffs.is_empty() {
        return Err(err("empty hash coefficient vector"));
    }
    if let Some(c) = non_canonical {
        return Err(err(format!(
            "hash coefficient {c:#x} is not below 2^61 - 1"
        )));
    }
    Ok(KWise::from_field(coeffs))
}

/// Decode `n` values with `f` into one vector, sized once: its capacity
/// is `n`, capped at what the remaining input could hold if every value
/// took at least its in-memory size on the wire, so a crafted count
/// cannot allocate past its payload. Callers bound `n` first, with the
/// typed error their format defines.
pub fn take_vec<T>(
    input: &mut &[u8],
    n: usize,
    mut f: impl FnMut(&mut &[u8]) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(n.min(input.len() / std::mem::size_of::<T>().max(1)));
    for _ in 0..n {
        out.push(f(input)?);
    }
    Ok(out)
}

// ---- full-state framing ---------------------------------------------
//
// Individual sketches keep their original one-tag framing (an
// in-workspace format). Full replica states — the payloads shipped
// between worker processes and the coordinator — get a *versioned
// header* plus length-prefixed sections, so a reader can reject a
// foreign or stale payload before decoding anything, and a corrupt
// section length cannot walk the cursor into a neighboring section.

/// Magic prefix of every full-state payload ("KCOVWIRE").
pub const WIRE_MAGIC: u64 = 0x4b43_4f56_5749_5245;
/// Version of the full-state wire format. Bump on any layout change;
/// decoders reject every version but their own (full-state payloads are
/// replica checkpoints, not archives — there is nothing to migrate).
/// Version history: 1 = original; 2 = hash-once hot path (fingerprint
/// bases in the estimator state, count-based heavy-hitter candidate
/// pairs, no embedded AMS sketch); 3 = heat counters in the telemetry
/// sidecars (per-repetition KMV updates, per-level CountSketch
/// updates) so decoded replicas carry exact space-ledger heat; 4 =
/// time-attribution ns fields in the telemetry sidecars (per-lane
/// ingest/reduce totals, per-stage hash/universe/trivial totals,
/// per-heartbeat cumulative lane ns) so decoded worker replicas
/// preserve time-ledger attribution; 5 = heavy hitters are their
/// CountSketch alone (no capacity factor, candidate list or
/// prune/eviction counters) and contributing-class finders carry their
/// coordinate domain; 6 = a CountSketch carries its ⌈rows/2⌉ 4-wise mix
/// words instead of per-row bucket and sign hashes; 7 = a `SmallSet`
/// repetition stores each kept edge once, in the bucket of the lowest
/// γ level it passes, instead of once per γ lane; 8 = a finder level is
/// `(modulus, keep, threshold factor, CountSketch)`, without a
/// heavy-hitter record of its own (tag, configuration, item count).
pub const WIRE_VERSION: u64 = 8;

/// Append the versioned full-state header: magic, version, payload tag.
pub fn put_header(out: &mut Vec<u8>, tag: u64) {
    put_u64(out, WIRE_MAGIC);
    put_u64(out, WIRE_VERSION);
    put_u64(out, tag);
}

/// Consume and validate a full-state header.
pub fn take_header(input: &mut &[u8], expect_tag: u64) -> Result<(), WireError> {
    let magic = take_u64(input)?;
    if magic != WIRE_MAGIC {
        return Err(err(format!("bad wire magic {magic:#018x}")));
    }
    let version = take_u64(input)?;
    if version != WIRE_VERSION {
        return Err(err(format!(
            "unsupported wire version {version} (this build reads {WIRE_VERSION})"
        )));
    }
    let tag = take_u64(input)?;
    if tag != expect_tag {
        return Err(err(format!(
            "unexpected payload tag {tag:#x} (expected {expect_tag:#x})"
        )));
    }
    Ok(())
}

/// Append a length-prefixed section: tag, body byte length, body. The
/// length is patched in after the body is written.
pub fn put_section(out: &mut Vec<u8>, tag: u64, body: impl FnOnce(&mut Vec<u8>)) {
    put_u64(out, tag);
    let len_at = out.len();
    put_u64(out, 0);
    body(out);
    let len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Split off a length-prefixed section body, validating the tag and
/// bounds-checking the declared length against the remaining input.
pub fn take_section<'a>(input: &mut &'a [u8], expect_tag: u64) -> Result<&'a [u8], WireError> {
    let tag = take_u64(input)?;
    if tag != expect_tag {
        return Err(err(format!(
            "unexpected section tag {tag:#x} (expected {expect_tag:#x})"
        )));
    }
    let len = take_u64(input)? as usize;
    if input.len() < len {
        return Err(err(format!(
            "truncated section {expect_tag:#x}: {len} bytes declared, {} available",
            input.len()
        )));
    }
    let (body, rest) = input.split_at(len);
    *input = rest;
    Ok(body)
}

/// Require that a section body was fully consumed by its decoder.
pub fn expect_section_end(tag: u64, body: &[u8]) -> Result<(), WireError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(err(format!(
            "{} trailing bytes in section {tag:#x}",
            body.len()
        )))
    }
}

// ---- sketches -------------------------------------------------------

const TAG_KMV: u64 = 0x4b4d56; // "KMV"
const TAG_CS: u64 = 0x4353; // "CS"
const TAG_L0: u64 = 0x4c30; // "L0"
const TAG_FC: u64 = 0x4643; // "FC"
const TAG_HIST: u64 = 0x48495354; // "HIST"

impl WireEncode for Kmv {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_KMV);
        put_u64(out, self.k() as u64);
        put_kwise(out, self.hash());
        put_u64s(out, &self.kept_values());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_KMV {
            return Err(err("bad KMV tag"));
        }
        let k = take_u64(input)? as usize;
        let hash = take_kwise(input)?;
        let vals = take_u64s(input)?;
        Kmv::from_parts(k, hash, vals).map_err(err)
    }
}

impl WireEncode for CountSketch {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_CS);
        put_u64(out, self.rows() as u64);
        put_u64(out, self.width() as u64);
        put_u64(out, self.mix().len() as u64);
        for g in self.mix() {
            put_kwise(out, g);
        }
        put_u64(out, self.table().len() as u64);
        for &c in self.table() {
            put_i64(out, c);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_CS {
            return Err(err("bad CountSketch tag"));
        }
        let rows = take_u64(input)? as usize;
        let width = take_u64(input)? as usize;
        if width > MAX_WIDTH {
            return Err(err(format!(
                "CountSketch width {width} exceeds the cap {MAX_WIDTH}"
            )));
        }
        // The word count and each word's degree are checked by
        // `from_parts`: a crafted degree would otherwise set the cost of
        // every update.
        let words = take_u64(input)? as usize;
        if words > input.len() / 8 {
            return Err(err(format!(
                "truncated list of {words} CountSketch mix words"
            )));
        }
        let mix = take_vec(input, words, take_kwise)?;
        let n = take_u64(input)? as usize;
        let table = (rows.checked_mul(width) == Some(n))
            .then(|| take_words(input, n, |w| w as i64))
            .flatten()
            .ok_or_else(|| err("CountSketch table size mismatch"))?;
        CountSketch::from_parts(rows, width, mix, table).map_err(err)
    }
}

impl WireEncode for L0Estimator {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_L0);
        put_u64(out, self.repetitions().len() as u64);
        for r in self.repetitions() {
            r.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_L0 {
            return Err(err("bad L0Estimator tag"));
        }
        let n = take_u64(input)? as usize;
        if n > input.len() {
            // Each repetition needs at least one byte; cheap sanity cap
            // so a corrupt length cannot drive a huge allocation loop.
            return Err(err("L0Estimator repetition count exceeds input"));
        }
        let reps = take_vec(input, n, Kmv::decode)?;
        L0Estimator::from_parts(reps).map_err(err)
    }
}

impl WireEncode for F2Contributing {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_FC);
        put_u64(out, self.domain());
        put_kwise(out, self.sampling_hash());
        let levels = self.level_parts();
        put_u64(out, levels.len() as u64);
        for (modulus, keep, factor, sketch) in levels {
            put_u64(out, modulus);
            put_u64(out, keep);
            put_f64(out, factor);
            sketch.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_FC {
            return Err(err("bad F2Contributing tag"));
        }
        let domain = take_u64(input)?;
        let hash = take_kwise(input)?;
        let n = take_u64(input)? as usize;
        if n > input.len() {
            return Err(err("F2Contributing level count exceeds input"));
        }
        let levels = take_vec(input, n, |input| {
            Ok((
                take_u64(input)?,
                take_u64(input)?,
                take_f64(input)?,
                CountSketch::decode(input)?,
            ))
        })?;
        F2Contributing::from_parts(hash, domain, levels).map_err(err)
    }
}

impl WireEncode for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_HIST);
        put_u64(out, self.sum());
        put_u64(out, self.min().unwrap_or(0));
        put_u64(out, self.max().unwrap_or(0));
        // Sparse bucket list: the dense array is 65 words but telemetry
        // histograms typically occupy a handful of buckets.
        let buckets: Vec<(usize, u64)> = self.nonzero_buckets().collect();
        put_u64(out, buckets.len() as u64);
        for (i, c) in buckets {
            put_u64(out, i as u64);
            put_u64(out, c);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_HIST {
            return Err(err("bad Histogram tag"));
        }
        let sum = take_u64(input)?;
        let min = take_u64(input)?;
        let max = take_u64(input)?;
        let n = take_u64(input)? as usize;
        if n > input.len() / 16 {
            return Err(err(format!(
                "truncated histogram bucket list of {n} entries"
            )));
        }
        let buckets = take_vec(input, n, |input| {
            Ok((take_u64(input)? as usize, take_u64(input)?))
        })?;
        Histogram::from_parts(&buckets, sum, min, max)
            .ok_or_else(|| err("inconsistent histogram parts"))
    }
}

const TAG_STATS: u64 = 0x53544154; // "STAT"

impl WireEncode for SketchStats {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_STATS);
        put_u64(out, self.updates);
        put_u64(out, self.fill);
        put_u64(out, self.capacity);
        put_u64(out, self.evictions);
        put_u64(out, self.prunes);
        put_u64(out, self.merges);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_STATS {
            return Err(err("bad SketchStats tag"));
        }
        Ok(SketchStats {
            updates: take_u64(input)?,
            fill: take_u64(input)?,
            capacity: take_u64(input)?,
            evictions: take_u64(input)?,
            prunes: take_u64(input)?,
            merges: take_u64(input)?,
        })
    }
}

// ---- telemetry-preserving composites --------------------------------
//
// `from_parts` deliberately zeroes telemetry counters ("telemetry is
// not state"), which is right for the lower-bound harness but wrong for
// replica shipping: a coordinator folding worker files must report the
// same eviction/prune/merge counts as the equivalent in-process run.
// These helpers pair the structural encoding with a counter sidecar and
// restore it after reconstruction.

/// Encode an `L0Estimator` plus its per-repetition telemetry counters
/// (heat updates, evictions, merges — v3 layout).
pub fn put_l0_full(out: &mut Vec<u8>, l0: &L0Estimator) {
    l0.encode(out);
    put_u64(out, l0.repetitions().len() as u64);
    for rep in l0.repetitions() {
        let st = rep.stats();
        put_u64(out, rep.heat_updates());
        put_u64(out, st.evictions);
        put_u64(out, st.merges);
    }
}

/// Decode an `L0Estimator` and restore its telemetry sidecar.
pub fn take_l0_full(input: &mut &[u8]) -> Result<L0Estimator, WireError> {
    let mut l0 = L0Estimator::decode(input)?;
    let n = take_u64(input)? as usize;
    if n > input.len() / 24 {
        return Err(err(format!(
            "truncated L0 telemetry sidecar of {n} entries"
        )));
    }
    let counters = take_vec(input, n, |input| {
        Ok((take_u64(input)?, take_u64(input)?, take_u64(input)?))
    })?;
    l0.restore_telemetry(&counters).map_err(err)?;
    Ok(l0)
}

/// Encode an `F2Contributing` plus its per-level telemetry counters
/// (CountSketch merges and heat updates — v5 layout).
pub fn put_fc_full(out: &mut Vec<u8>, fc: &F2Contributing) {
    fc.encode(out);
    let levels = fc.level_parts();
    put_u64(out, levels.len() as u64);
    for (_, _, _, sketch) in levels {
        put_u64(out, sketch.stats().merges);
        put_u64(out, sketch.heat_updates());
    }
}

/// Decode an `F2Contributing` and restore its telemetry sidecar.
pub fn take_fc_full(input: &mut &[u8]) -> Result<F2Contributing, WireError> {
    let mut fc = F2Contributing::decode(input)?;
    let n = take_u64(input)? as usize;
    if n > input.len() / 16 {
        return Err(err(format!(
            "truncated F2C telemetry sidecar of {n} entries"
        )));
    }
    let counters = take_vec(input, n, |input| Ok((take_u64(input)?, take_u64(input)?)))?;
    fc.restore_telemetry(&counters).map_err(err)?;
    Ok(fc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_canonical_hash_coefficients_are_rejected() {
        let mut good = Vec::new();
        put_u64s(&mut good, &[MERSENNE_P - 1, 3]);
        assert!(take_kwise(&mut good.as_slice()).is_ok());
        // `p + 5` reduces to 5, so accepting it would let `[p + 5, 3]`
        // and `[5, 3]` decode to one state with two encodings.
        for c in [MERSENNE_P, MERSENNE_P + 5, u64::MAX] {
            let mut bad = Vec::new();
            put_u64s(&mut bad, &[c, 3]);
            let e = take_kwise(&mut bad.as_slice()).expect_err("non-canonical coefficient");
            assert!(e.message.contains("not below"), "{e}");
        }
    }

    #[test]
    fn kmv_roundtrip_preserves_behavior() {
        let mut kmv = Kmv::new(16, 7);
        for i in 0..5_000u64 {
            kmv.insert(i * 3);
        }
        let bytes = kmv.to_bytes();
        let mut back = Kmv::from_bytes(&bytes).unwrap();
        assert_eq!(kmv.estimate(), back.estimate());
        // Continued streaming matches.
        let mut original = kmv.clone();
        for i in 0..1_000u64 {
            original.insert(999_000 + i);
            back.insert(999_000 + i);
        }
        assert_eq!(original.estimate(), back.estimate());
    }

    #[test]
    fn count_sketch_roundtrip_and_continue() {
        let mut cs = CountSketch::new(5, 64, 9);
        for i in 0..3_000u64 {
            cs.insert(i % 211);
        }
        let mut back = CountSketch::from_bytes(&cs.to_bytes()).unwrap();
        for i in 0..211u64 {
            assert_eq!(cs.query(i), back.query(i));
        }
        back.insert(3);
        assert_eq!(back.query(3), cs.query(3) + 1);
    }

    #[test]
    fn l0_estimator_roundtrip_and_continue() {
        let mut est = L0Estimator::new(32, 3, 11);
        for i in 0..4_000u64 {
            est.insert(i * 7);
        }
        let mut back = L0Estimator::from_bytes(&est.to_bytes()).unwrap();
        assert_eq!(est.estimate(), back.estimate());
        let mut original = est.clone();
        for i in 0..2_000u64 {
            original.insert(500_000 + i);
            back.insert(500_000 + i);
        }
        assert_eq!(original.estimate(), back.estimate());
    }

    #[test]
    fn contributing_roundtrip_and_continue() {
        use crate::contributing::ContributingConfig;
        let c = ContributingConfig::new(0.25, 64);
        let mut fc = F2Contributing::new(c.clone(), c, 1000, 1000, 41);
        let items: Vec<u64> = (0..300u64).flat_map(|r| [5, 100 + r % 20]).collect();
        fc.insert_batch(&items);
        let mut back = F2Contributing::from_bytes(&fc.to_bytes()).unwrap();
        assert_eq!(fc.report(), back.report());
        let mut original = fc.clone();
        let items: Vec<u64> = (0..200u64).flat_map(|r| [9, 400 + r]).collect();
        original.insert_batch(&items);
        back.insert_batch(&items);
        assert_eq!(original.report(), back.report());
        for (a, b) in original.level_parts().iter().zip(back.level_parts()) {
            assert_eq!(a.2.to_bits(), b.2.to_bits());
            assert_eq!(a.3.table(), b.3.table());
            assert_eq!(a.3.f2_estimate().to_bits(), b.3.f2_estimate().to_bits());
        }
    }

    #[test]
    fn contributing_domain_above_the_cap_is_rejected() {
        use crate::contributing::{ContributingConfig, MAX_DOMAIN};
        let c = ContributingConfig::new(0.5, 16);
        let fc = F2Contributing::new(c.clone(), c, 100, 100, 2);
        let mut bytes = fc.to_bytes();
        // The domain word follows the tag.
        bytes[8..16].copy_from_slice(&(MAX_DOMAIN + 1).to_le_bytes());
        let e = F2Contributing::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("exceeds the cap"), "{e}");
        bytes[8..16].copy_from_slice(&MAX_DOMAIN.to_le_bytes());
        assert_eq!(
            F2Contributing::from_bytes(&bytes).unwrap().domain(),
            MAX_DOMAIN
        );
    }

    #[test]
    fn new_type_truncations_rejected() {
        use crate::contributing::ContributingConfig;
        let c = ContributingConfig::new(0.5, 16);
        let mut fc = F2Contributing::new(c.clone(), c, 100, 100, 2);
        fc.insert_batch(&[1]);
        let bytes = fc.to_bytes();
        for cut in [0usize, 1, 7, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                F2Contributing::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let est = L0Estimator::new(8, 2, 1);
        let bytes = est.to_bytes();
        assert!(L0Estimator::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn new_type_wrong_tags_rejected() {
        // An `L0Estimator` nests `Kmv` encodings, so each must reject
        // the other's outer tag.
        let est = L0Estimator::new(8, 2, 1);
        assert!(Kmv::from_bytes(&est.to_bytes()).is_err());
        let kmv = Kmv::new(8, 1);
        assert!(L0Estimator::from_bytes(&kmv.to_bytes()).is_err());
        let cs = CountSketch::new(2, 8, 1);
        assert!(F2Contributing::from_bytes(&cs.to_bytes()).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let mut kmv = Kmv::new(8, 1);
        kmv.insert(5);
        let bytes = kmv.to_bytes();
        for cut in [0, 1, 7, bytes.len() - 1] {
            assert!(Kmv::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wrong_tag_rejected() {
        let cs = CountSketch::new(2, 8, 1);
        let bytes = cs.to_bytes();
        assert!(Kmv::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let kmv = Kmv::new(8, 1);
        let mut bytes = kmv.to_bytes();
        bytes.push(0);
        let e = Kmv::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn histogram_roundtrip_preserves_everything() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 3, 300, 70_000, u64::MAX] {
            h.record(v);
        }
        let back = Histogram::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(back, h);
        // Merge after the round trip behaves like merge before it.
        let mut extra = Histogram::new();
        extra.record(42);
        let mut a = h.clone();
        a.merge(&extra);
        let mut b = back;
        b.merge(&extra);
        assert_eq!(a, b);
        // Empty histogram round-trips to the identity.
        let empty = Histogram::from_bytes(&Histogram::new().to_bytes()).unwrap();
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn histogram_truncation_and_corruption_rejected() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 9, 1000] {
            h.record(v);
        }
        let bytes = h.to_bytes();
        for cut in [0usize, 1, 7, 8, 31, bytes.len() / 2, bytes.len() - 1] {
            assert!(Histogram::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Histogram::from_bytes(&trailing).is_err());
        // Wrong tag.
        let kmv = Kmv::new(8, 1);
        assert!(Histogram::from_bytes(&kmv.to_bytes()).is_err());
        // Out-of-range bucket index: patch the first bucket entry.
        let mut corrupt = bytes.clone();
        let first_bucket_at = 8 * 5; // tag, sum, min, max, len
        corrupt[first_bucket_at..first_bucket_at + 8].copy_from_slice(&99u64.to_le_bytes());
        assert!(Histogram::from_bytes(&corrupt).is_err());
        // Inconsistent envelope: min > max.
        let mut bad_env = bytes;
        bad_env[16..24].copy_from_slice(&u64::MAX.to_le_bytes()); // min field
        assert!(Histogram::from_bytes(&bad_env).is_err());
    }

    #[test]
    fn full_state_sidecars_restore_ledger_heat() {
        use crate::space::SpaceUsage;
        use kcov_obs::LedgerNode;
        fn ledger(s: &impl SpaceUsage) -> LedgerNode {
            let mut node = LedgerNode::new();
            s.space_ledger(&mut node);
            node
        }
        let mut est = L0Estimator::new(32, 3, 11);
        for i in 0..4_000u64 {
            est.insert(i * 7);
        }
        let mut buf = Vec::new();
        put_l0_full(&mut buf, &est);
        let mut input = buf.as_slice();
        let back = take_l0_full(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(ledger(&back), ledger(&est));
        assert!(
            ledger(&est).total_updates() > 0,
            "heat must be nonzero to test restore"
        );

        use crate::contributing::ContributingConfig;
        let c = ContributingConfig::new(0.25, 64);
        let mut fc = F2Contributing::new(c.clone(), c, 1000, 1000, 41);
        let items: Vec<u64> = (0..300u64).flat_map(|r| [5, 100 + r % 20]).collect();
        fc.insert_batch(&items);
        let mut buf = Vec::new();
        put_fc_full(&mut buf, &fc);
        let mut input = buf.as_slice();
        let back = take_fc_full(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(ledger(&back), ledger(&fc));
        assert!(
            ledger(&fc).total_updates() > 0,
            "heat must be nonzero to test restore"
        );
    }

    #[test]
    fn encoded_size_tracks_space_words() {
        use crate::space::SpaceUsage;
        let mut kmv = Kmv::new(64, 2);
        for i in 0..10_000u64 {
            kmv.insert(i);
        }
        let bytes = kmv.to_bytes().len();
        let words = kmv.space_words();
        // Encoding is words × 8 plus small framing overhead.
        assert!(bytes >= words * 8, "bytes {bytes} vs words {words}");
        assert!(
            bytes <= words * 8 + 64,
            "framing too heavy: {bytes} vs {words}"
        );
    }
}
