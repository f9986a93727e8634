//! Wire format: compact, dependency-free binary serialization.
//!
//! Purpose: the lower-bound harness (`kcov-lowerbound`) simulates
//! one-way communication protocols whose messages are algorithm states.
//! `SpaceUsage` counts resident words; this module makes the message
//! *literal* — a byte buffer another party can decode and keep feeding.
//! It also carries checkpoints and the shard replicas of the
//! distributed-merge pattern.
//!
//! A sketch is a function of its constructor arguments (shape and
//! seeds) and of its input, so only the input-dependent half travels:
//! [`WireState`] writes a value's *state* (kept values, counter tables,
//! telemetry counters) and reads it back into a value the decoder built
//! with the same constructor call — the public coins both parties hold.
//! No hash coefficient, threshold, rate or table shape is ever encoded,
//! so a decoded value has the constructor's shape by construction.
//! Little-endian words, length prefixes only where a length is state.

use kcov_obs::{Histogram, SketchStats};

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

/// A type with a self-describing binary encoding: the estimator root,
/// whose encoding carries the config its decoder builds from, and the
/// telemetry values, which no constructor shapes.
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

/// The state half of a value whose shape its constructor draws: the
/// writer and the reader build the value from the same constructor
/// arguments, and only what the input changed travels.
pub trait WireState {
    /// Append the state of `self`.
    fn put_state(&self, out: &mut Vec<u8>);
    /// Read a state written by [`WireState::put_state`] from the front
    /// of `input` into `self`, a value built by the same constructor
    /// call as the writer's, replacing whatever state it held. Fails on
    /// a state that value cannot hold; `self` is then unspecified.
    fn take_state(&mut self, input: &mut &[u8]) -> Result<(), WireError>;
}

// ---- primitives -----------------------------------------------------
//
// The primitives are `pub`: the state codecs live next to their types'
// private fields (in `kcov-core` for the estimator, lanes, oracle and
// subroutines) and compose these building blocks there.

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

/// Consume `n` little-endian words: one bounds check against the
/// remaining input, then an iterator over the consumed bytes, so the
/// caller decodes them in place or into one exactly sized vector.
pub fn take_words<'a>(
    input: &mut &'a [u8],
    n: usize,
) -> Result<impl ExactSizeIterator<Item = u64> + Clone + 'a, WireError> {
    if n > input.len() / 8 {
        return Err(err(format!("truncated vector of {n} words")));
    }
    let (head, rest) = input.split_at(8 * n);
    *input = rest;
    Ok(head
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))))
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
// Full replica states — the payloads shipped between worker processes
// and the coordinator — get a *versioned header* plus length-prefixed
// sections, so a reader can reject a
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
/// heavy-hitter record of its own (tag, configuration, item count); 9 =
/// a replica is its configuration plus its state: no hash coefficient,
/// threshold, rate, level count or table shape travels, and the decoder
/// rebuilds all of them with the estimator's constructor.
pub const WIRE_VERSION: u64 = 9;

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

// ---- telemetry --------------------------------------------------------
//
// Telemetry values have no constructor-drawn shape: they travel whole.

const TAG_HIST: u64 = 0x48495354; // "HIST"

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
        // The writer lists non-empty buckets in index order and an empty
        // histogram as all zeros: anything else would decode to a
        // histogram with a second encoding.
        let canonical = buckets.windows(2).all(|w| w[0].0 < w[1].0)
            && buckets.iter().all(|&(_, c)| c > 0)
            && (!buckets.is_empty() || min == 0)
            && buckets
                .iter()
                .try_fold(0u64, |total, &(_, c)| total.checked_add(c))
                .is_some();
        canonical
            .then(|| Histogram::from_parts(&buckets, sum, min, max))
            .flatten()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contributing::{ContributingConfig, F2Contributing};
    use crate::count_sketch::CountSketch;
    use crate::l0::{Kmv, L0Estimator};

    fn state(value: &impl WireState) -> Vec<u8> {
        let mut out = Vec::new();
        value.put_state(&mut out);
        out
    }

    /// `value`'s state read into `fresh` (a constructor twin), which
    /// must consume it exactly and re-encode it byte for byte.
    fn through_state<T: WireState>(value: &T, mut fresh: T) -> T {
        let bytes = state(value);
        let mut input = bytes.as_slice();
        fresh
            .take_state(&mut input)
            .expect("a state decodes into its twin");
        assert!(input.is_empty(), "{} bytes left over", input.len());
        assert_eq!(state(&fresh), bytes);
        fresh
    }

    /// Every strict prefix of `value`'s state fails to decode into a
    /// fresh twin.
    fn rejects_truncation<T: WireState>(value: &T, fresh: impl Fn() -> T) {
        let bytes = state(value);
        for cut in 0..bytes.len() {
            let mut input = &bytes[..cut];
            assert!(fresh().take_state(&mut input).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn kmv_state_preserves_behavior() {
        let mut kmv = Kmv::new(16, 7);
        for i in 0..5_000u64 {
            kmv.insert(i * 3);
        }
        let mut back = through_state(&kmv, Kmv::new(16, 7));
        assert_eq!(kmv.estimate(), back.estimate());
        // Continued streaming matches.
        let mut original = kmv.clone();
        for i in 0..1_000u64 {
            original.insert(999_000 + i);
            back.insert(999_000 + i);
        }
        assert_eq!(original.estimate(), back.estimate());
        rejects_truncation(&kmv, || Kmv::new(16, 7));
    }

    #[test]
    fn kmv_state_above_k_is_rejected() {
        let mut kmv = Kmv::new(16, 7);
        kmv.insert_batch(&(0..100).collect::<Vec<u64>>());
        let mut input = state(&kmv);
        let e = Kmv::new(8, 7)
            .take_state(&mut input.as_slice())
            .unwrap_err();
        assert!(e.message.contains("exceed k = 8"), "{e}");
        // A state of fewer values than k fits any summary of that k.
        input = state(&Kmv::new(16, 7));
        assert!(Kmv::new(8, 7).take_state(&mut input.as_slice()).is_ok());
    }

    #[test]
    fn count_sketch_state_roundtrip_and_continue() {
        let mut cs = CountSketch::new(5, 64, 9);
        for i in 0..3_000u64 {
            cs.insert(i % 211);
        }
        let mut back = through_state(&cs, CountSketch::new(5, 64, 9));
        for i in 0..211u64 {
            assert_eq!(cs.query(i), back.query(i));
        }
        back.insert(3);
        assert_eq!(back.query(3), cs.query(3) + 1);
        rejects_truncation(&CountSketch::new(2, 8, 1), || CountSketch::new(2, 8, 1));
    }

    #[test]
    fn l0_estimator_state_roundtrip_and_continue() {
        let mut est = L0Estimator::new(32, 3, 11);
        for i in 0..4_000u64 {
            est.insert(i * 7);
        }
        let mut back = through_state(&est, L0Estimator::new(32, 3, 11));
        assert_eq!(est.estimate(), back.estimate());
        let mut original = est.clone();
        for i in 0..2_000u64 {
            original.insert(500_000 + i);
            back.insert(500_000 + i);
        }
        assert_eq!(original.estimate(), back.estimate());
        rejects_truncation(&L0Estimator::new(8, 2, 1), || L0Estimator::new(8, 2, 1));
    }

    #[test]
    fn contributing_state_roundtrip_and_continue() {
        let c = ContributingConfig::new(0.25, 64);
        let fresh = || F2Contributing::new(c.clone(), c.clone(), 1000, 1000, 41);
        let mut fc = fresh();
        let items: Vec<u64> = (0..300u64).flat_map(|r| [5, 100 + r % 20]).collect();
        fc.insert_batch(&items);
        let mut back = through_state(&fc, fresh());
        assert_eq!(fc.report(), back.report());
        let mut original = fc.clone();
        let items: Vec<u64> = (0..200u64).flat_map(|r| [9, 400 + r]).collect();
        original.insert_batch(&items);
        back.insert_batch(&items);
        assert_eq!(original.report(), back.report());
        assert_eq!(state(&original), state(&back));
        let c = ContributingConfig::new(0.5, 16);
        let mut small = F2Contributing::new(c.clone(), c.clone(), 100, 100, 2);
        small.insert_batch(&[1]);
        rejects_truncation(&small, || {
            F2Contributing::new(c.clone(), c.clone(), 100, 100, 2)
        });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Histogram::new().to_bytes();
        bytes.push(0);
        let e = Histogram::from_bytes(&bytes).unwrap_err();
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
        assert!(Histogram::from_bytes(&SketchStats::default().to_bytes()).is_err());
        // Out-of-range bucket index: patch the first bucket entry.
        let mut corrupt = bytes.clone();
        let first_bucket_at = 8 * 5; // tag, sum, min, max, len
        corrupt[first_bucket_at..first_bucket_at + 8].copy_from_slice(&99u64.to_le_bytes());
        assert!(Histogram::from_bytes(&corrupt).is_err());
        // Inconsistent envelope: min > max.
        let mut bad_env = bytes.clone();
        bad_env[16..24].copy_from_slice(&u64::MAX.to_le_bytes()); // min field
        assert!(Histogram::from_bytes(&bad_env).is_err());
        // Non-canonical bucket lists: an empty bucket, then two buckets
        // out of index order.
        let mut empty_bucket = bytes.clone();
        empty_bucket[48..56].copy_from_slice(&0u64.to_le_bytes());
        assert!(Histogram::from_bytes(&empty_bucket).is_err());
        let mut swapped = bytes.clone();
        swapped[40..56].copy_from_slice(&bytes[56..72]);
        swapped[56..72].copy_from_slice(&bytes[40..56]);
        assert!(Histogram::from_bytes(&swapped).is_err());
        // An empty histogram with a minimum.
        let mut empty = Histogram::new().to_bytes();
        empty[16..24].copy_from_slice(&3u64.to_le_bytes());
        assert!(Histogram::from_bytes(&empty).is_err());
    }

    #[test]
    fn states_carry_ledger_heat() {
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
        let back = through_state(&est, L0Estimator::new(32, 3, 11));
        assert_eq!(ledger(&back), ledger(&est));
        assert!(ledger(&est).total_updates() > 0, "heat must be nonzero");

        let c = ContributingConfig::new(0.25, 64);
        let fresh = || F2Contributing::new(c.clone(), c.clone(), 1000, 1000, 41);
        let mut fc = fresh();
        let items: Vec<u64> = (0..300u64).flat_map(|r| [5, 100 + r % 20]).collect();
        fc.insert_batch(&items);
        let back = through_state(&fc, fresh());
        assert_eq!(ledger(&back), ledger(&fc));
        assert!(ledger(&fc).total_updates() > 0, "heat must be nonzero");
    }

    #[test]
    fn state_size_tracks_space_words() {
        use crate::space::SpaceUsage;
        let mut kmv = Kmv::new(64, 2);
        for i in 0..10_000u64 {
            kmv.insert(i);
        }
        // The kept values plus a length and three counters; the rank
        // hash's 2 words stay home.
        let bytes = state(&kmv).len();
        assert_eq!(bytes, 8 * (kmv.space_words() - 2 + 4));
    }
}
