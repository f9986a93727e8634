//! Exhaustive wire-format hardening: every `WireEncode` type —
//! individual sketches, telemetry, and the full estimator state that
//! roots the distributed replica files — must (a)
//! round-trip to byte-identical encodings, (b) reject **every** strict
//! truncation with a typed error, and (c) survive a single-byte-flip
//! corruption sweep without ever panicking (flips may decode
//! successfully when they land in free payload like a counter value;
//! they must never bring the process down).

use maxkcov::core::{
    EdgeFingerprints, EstimatorConfig, LargeCommon, LargeSet, MaxCoverEstimator, Oracle, Params,
    SmallSet, UniverseReducer,
};
use maxkcov::hash::MERSENNE_P;
use maxkcov::obs::{Histogram, Recorder, SketchStats};
use maxkcov::sketch::{
    ContributingConfig, CountSketch, F2Contributing, Kmv, L0Estimator, WireEncode,
};
use maxkcov::stream::gen::zipf_popularity;
use maxkcov::stream::{edge_stream, ArrivalOrder};

/// Truncation cut points: every strict prefix for small encodings;
/// for large ones, dense over the framing prefix (headers and every
/// section opening live there), sampled through the body, and the
/// final 16 bytes.
fn cut_points(len: usize) -> Vec<usize> {
    if len <= 2048 {
        return (0..len).collect();
    }
    let mut cuts: Vec<usize> = (0..512).collect();
    cuts.extend((512..len).step_by(len / 256 + 1));
    cuts.extend(len - 16..len);
    cuts
}

/// Byte-flip positions, sampled the same way.
fn flip_points(len: usize) -> Vec<usize> {
    if len <= 1024 {
        return (0..len).collect();
    }
    let mut flips: Vec<usize> = (0..256).collect();
    flips.extend((256..len).step_by(len / 256 + 1));
    flips
}

/// The full battery for one value: round-trip byte identity, the
/// truncation sweep, and the corruption sweep.
fn exhaust<T: WireEncode>(label: &str, value: &T) {
    let bytes = value.to_bytes();
    let decoded = T::from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
    assert_eq!(
        decoded.to_bytes(),
        bytes,
        "{label}: decoded value re-encodes differently"
    );

    // Decode consumes the whole buffer, so every strict prefix must
    // run out of input somewhere and surface a typed error.
    for cut in cut_points(bytes.len()) {
        match T::from_bytes(&bytes[..cut]) {
            Err(e) => assert!(
                !e.to_string().is_empty(),
                "{label}: truncation to {cut} produced an empty error"
            ),
            Ok(_) => panic!(
                "{label}: truncation to {cut} of {} was accepted",
                bytes.len()
            ),
        }
    }

    // Corruption never panics; when it happens to decode, the value
    // must still be usable enough to re-encode.
    for flip in flip_points(bytes.len()) {
        let mut corrupted = bytes.clone();
        corrupted[flip] ^= 0xa5;
        if let Ok(v) = T::from_bytes(&corrupted) {
            let _ = v.to_bytes();
        }
    }
}

#[test]
fn individual_sketches_roundtrip_and_reject_mangling() {
    let items: Vec<u64> = (0..300).map(|i| i * 2654435761 % 1000).collect();

    // The skewed stream holds a genuinely heavy item.
    let skewed: Vec<u64> = items.iter().copied().chain([42; 200]).collect();
    let mut kmv = Kmv::new(16, 7);
    let mut l0 = L0Estimator::new(8, 5, 3);
    for &x in &items {
        kmv.insert(x);
        l0.insert(x);
    }
    exhaust("Kmv", &kmv);
    exhaust("L0Estimator", &l0);

    // A one-level finder is Theorem 2.10's heavy hitter: the unsampled
    // level alone, at φ = γ.
    let mut one_level = ContributingConfig::new(0.05, 1);
    one_level.phi_factor = 1.0;
    let mut hh = F2Contributing::new(one_level.clone(), one_level, 1000, 1000, 23);
    hh.insert_batch(&skewed);
    assert_eq!(hh.num_levels(), 1);
    exhaust("F2Contributing(one level)", &hh);
    let c = ContributingConfig::new(0.1, 64);
    let mut fc = F2Contributing::new(c.clone(), c, 40, 1000, 29);
    fc.insert_batch(&skewed);
    exhaust("F2Contributing", &fc);

    // The paired two-tier finder (DESIGN.md §14): its level schedule
    // mixes the wide Case-1 heavy-hitter config on shallow levels with
    // the narrow Case-2 config past the wide tier's class-size bound,
    // so the per-level self-describing encoding is what keeps a
    // round-trip honest — exercise it with deliberately divergent
    // tier configs.
    let mut wide = ContributingConfig::new(0.02, 8);
    let mut narrow = ContributingConfig::new(0.25, 256);
    for c in [&mut wide, &mut narrow] {
        c.survivors_per_class = 4;
        c.sampling_degree = Some(2);
        c.hh_rows = 2;
    }
    wide.hh_width_factor = 2.0;
    let mut paired = F2Contributing::new(wide, narrow, 1000, 5000, 31);
    paired.insert_batch(&skewed);
    exhaust("F2Contributing(paired)", &paired);

    let mut cs = CountSketch::new(3, 32, 13);
    for &x in &items {
        cs.update(x, (x % 7) as i64 - 3);
    }
    exhaust("CountSketch", &cs);
}

#[test]
fn telemetry_types_roundtrip_and_reject_mangling() {
    let mut hist = Histogram::new();
    for v in [0u64, 1, 2, 17, 1000, 65_000, u64::MAX / 2] {
        hist.record(v);
    }
    exhaust("Histogram", &hist);
    exhaust("Histogram(empty)", &Histogram::new());

    let stats = SketchStats {
        updates: 500,
        fill: 12,
        capacity: 64,
        evictions: 3,
        prunes: 1,
        merges: 2,
    };
    exhaust("SketchStats", &stats);
    exhaust("UniverseReducer", &UniverseReducer::new(64, 99));
}

/// The hash-once front end and every subroutine that now carries a
/// shared set-fingerprint base section: these encodings were reshaped
/// by the batched hot-path refactor (DESIGN.md §12), so each gets the
/// full battery standalone, fed through its fingerprint entry points.
#[test]
fn hash_once_structures_roundtrip_and_reject_mangling() {
    exhaust("EdgeFingerprints(d8)", &EdgeFingerprints::new(77, 8));
    exhaust("EdgeFingerprints(d16)", &EdgeFingerprints::new(78, 16));

    let system = zipf_popularity(500, 40, 12, 1.1, 11);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(4));
    let params = Params::practical(40, 500, 6, 3.0);
    let fps = EdgeFingerprints::new(91, Params::hash_degree(params.mode, 40, 500));
    let fp_sets: Vec<u64> = edges.iter().map(|e| fps.fingerprint(*e).0).collect();

    let mut oracle = Oracle::with_base(500, &params, false, 13, fps.set_base().clone());
    let mut lc = LargeCommon::with_base(500, &params, false, 15, fps.set_base().clone());
    let mut ls = LargeSet::with_base(500, &params, 17, fps.set_base().clone());
    let mut ss = SmallSet::with_base(500, &params, 19, fps.set_base().clone());
    for (chunk, fp_chunk) in edges.chunks(64).zip(fp_sets.chunks(64)) {
        oracle.observe_fp_batch(chunk, fp_chunk);
        lc.observe_fp_batch(chunk, fp_chunk);
        ls.observe_fp_batch(chunk, fp_chunk);
        ss.observe_fp_batch(chunk, fp_chunk);
    }
    exhaust("Oracle", &oracle);
    exhaust("LargeCommon", &lc);
    exhaust("LargeSet", &ls);
    exhaust("SmallSet", &ss);

    // A hash coefficient written as its non-canonical twin `c + p` is
    // the same field element, but the wire rejects it: a state has one
    // encoding.
    let c = fps.set_base().coefficients()[0];
    reject_non_canonical_coefficient("Oracle", &oracle, c);
    reject_non_canonical_coefficient("LargeCommon", &lc, c);
    reject_non_canonical_coefficient("LargeSet", &ls, c);
    reject_non_canonical_coefficient("SmallSet", &ss, c);
}

/// `LargeCommon` ingests each β layer from the next-wider layer's
/// survivors, so its bucket counts must not grow in lane order. A
/// snapshot whose schedule does (raise any later layer's count above
/// the one before it) must fail at decode, not ingest a wrong sample
/// on resume.
#[test]
fn large_common_growing_bucket_schedule_is_rejected() {
    let (n, m) = (500usize, 2000usize);
    let params = Params::practical(m, n, 4, 8.0);
    let fps = EdgeFingerprints::new(91, Params::hash_degree(params.mode, m, n));
    let lc = LargeCommon::with_base(n, &params, false, 15, fps.set_base().clone());
    let bytes = lc.to_bytes();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    // Each layer's encoding opens with `(β, buckets)`, β = 1, 2, 4, ...:
    // the byte offset of every layer's bucket count.
    let mut at_buckets: Vec<usize> = Vec::new();
    let mut at = 0;
    while at + 16 <= bytes.len() {
        let beta = (1u64 << at_buckets.len()) as f64;
        if word(at) == beta.to_bits() && word(at + 8).is_power_of_two() {
            at_buckets.push(at + 8);
            at += 16;
        } else {
            at += 1;
        }
    }
    assert_eq!(at_buckets.len(), 4, "α = 8 builds β = 1, 2, 4, 8");
    let counts: Vec<u64> = at_buckets.iter().map(|&at| word(at)).collect();
    assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    assert!(LargeCommon::from_bytes(&bytes).is_ok());
    for (i, &at) in at_buckets.iter().enumerate().skip(1) {
        let mut corrupted = bytes.clone();
        corrupted[at..at + 8].copy_from_slice(&(counts[i - 1] * 2).to_le_bytes());
        match LargeCommon::from_bytes(&corrupted) {
            Err(e) => assert!(e.to_string().contains("exceed"), "layer {i}: {e}"),
            Ok(_) => panic!("layer {i}: a growing bucket schedule was accepted"),
        }
    }
}

/// A KMV's kept values travel ascending, distinct and below `p`, so the
/// decoder can take them as they are: a swapped pair, a repeat or a
/// non-hash value is a typed error, never silently re-sorted (which
/// would give one state two encodings).
#[test]
fn kmv_kept_values_must_be_canonical() {
    let mut kmv = Kmv::new(16, 7);
    for i in 0..300u64 {
        kmv.insert(i * 2654435761 % 1000);
    }
    let bytes = kmv.to_bytes();
    let kept = kmv.kept_values();
    assert_eq!(kept.len(), 16, "the summary must be saturated");
    // The kept values close the encoding.
    let at = bytes.len() - 8 * kept.len();
    let with = |vals: &[u64]| {
        let mut out = bytes[..at].to_vec();
        vals.iter().for_each(|v| out.extend(v.to_le_bytes()));
        out
    };
    assert_eq!(with(&kept), bytes);
    let mut swapped = kept.clone();
    swapped.swap(3, 4);
    let mut repeated = kept.clone();
    repeated[4] = repeated[3];
    let mut above = kept.clone();
    *above.last_mut().unwrap() = MERSENNE_P;
    for (what, vals, message) in [
        ("swapped", swapped, "not strictly ascending"),
        ("repeated", repeated, "not strictly ascending"),
        ("above p", above, "not below"),
    ] {
        match Kmv::from_bytes(&with(&vals)) {
            Err(e) => assert!(e.to_string().contains(message), "{what}: {e}"),
            Ok(_) => panic!("{what}: non-canonical kept values were accepted"),
        }
    }
}

/// Rewrite the first encoded occurrence of coefficient `c` as `c + p`
/// and require a typed decode error.
fn reject_non_canonical_coefficient<T: WireEncode>(label: &str, value: &T, c: u64) {
    let mut bytes = value.to_bytes();
    let at = bytes
        .windows(8)
        .position(|w| w == c.to_le_bytes())
        .unwrap_or_else(|| panic!("{label}: coefficient {c:#x} not found in its encoding"));
    bytes[at..at + 8].copy_from_slice(&(c + MERSENNE_P).to_le_bytes());
    match T::from_bytes(&bytes) {
        Err(e) => assert!(e.to_string().contains("not below"), "{label}: {e}"),
        Ok(_) => panic!(
            "{label}: non-canonical coefficient {:#x} was accepted",
            c + MERSENNE_P
        ),
    }
}

/// Coarse config so the estimator state stays small enough for the
/// dense part of the sweeps.
fn fast_config(seed: u64, n: usize) -> EstimatorConfig {
    let mut config = EstimatorConfig::practical(seed);
    let mut zs = Vec::new();
    let mut z = 16u64;
    while z < 2 * n as u64 {
        zs.push(z);
        z *= 4;
    }
    config.z_guesses = Some(zs);
    config.reps = Some(2);
    config
}

/// The root of the distributed wire format: a fed estimator in the
/// lane regime. Its encoding nests every core `WireEncode` impl
/// (lanes → reducer + oracle → LargeCommon / LargeSet / SmallSet →
/// sketches → telemetry sidecars), so the truncation sweep crosses
/// every section of the versioned format.
#[test]
fn full_estimator_state_roundtrips_and_rejects_mangling() {
    let system = zipf_popularity(400, 32, 12, 1.1, 5);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
    let config = fast_config(21, 400);
    let mut est = MaxCoverEstimator::new(400, 32, 4, 2.0, &config);
    for chunk in edges.chunks(64) {
        est.observe_batch(chunk);
    }
    exhaust("MaxCoverEstimator", &est);

    // A replica that never saw an edge must also survive the battery
    // (workers of short streams write these).
    let empty = MaxCoverEstimator::new(400, 32, 4, 2.0, &config);
    exhaust("MaxCoverEstimator(empty)", &empty);
}

/// Wire v4 carries the time-attribution sidecars (per-lane and
/// per-stage ns counters). An *untraced* estimator encodes them as
/// zeros, so the battery above never exercises nonzero ns bytes: feed a
/// traced replica here, check the attribution survives the round trip
/// exactly (this is what merge-from relies on to credit replica time),
/// and run the full mangling battery over the populated sidecars.
#[test]
fn traced_estimator_attribution_survives_wire_and_rejects_mangling() {
    let system = zipf_popularity(400, 32, 12, 1.1, 5);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
    let config = fast_config(21, 400);
    let mut est = MaxCoverEstimator::new(400, 32, 4, 2.0, &config);
    est.attach_recorder(&Recorder::enabled());
    for chunk in edges.chunks(64) {
        est.observe_batch(chunk);
    }
    let before = est.time_ledger_tree();
    assert!(
        before.root.total_ns() > 0,
        "traced ingestion accumulated no attribution — sidecars would be vacuous"
    );

    let decoded =
        MaxCoverEstimator::from_bytes(&est.to_bytes()).expect("traced estimator must round-trip");
    let after = decoded.time_ledger_tree();
    assert_eq!(
        after.root.total_ns(),
        before.root.total_ns(),
        "total attribution changed across the wire"
    );
    for (name, node) in before.root.children() {
        let got = after
            .root
            .get(name)
            .map_or(0, maxkcov::obs::TimeNode::total_ns);
        assert_eq!(
            got,
            node.total_ns(),
            "subtree '{name}' ns changed across the wire"
        );
    }

    exhaust("MaxCoverEstimator(traced)", &est);
}

/// The trivial regime (k ≥ m) serializes a different state section.
#[test]
fn trivial_regime_estimator_roundtrips_and_rejects_mangling() {
    let system = zipf_popularity(120, 6, 4, 1.1, 9);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(2));
    let config = fast_config(33, 120);
    let mut est = MaxCoverEstimator::new(120, 6, 6, 1.5, &config);
    for chunk in edges.chunks(32) {
        est.observe_batch(chunk);
    }
    assert!(est.finalize().trivial, "expected the trivial regime");
    exhaust("MaxCoverEstimator(trivial)", &est);
}

/// A replica whose lane ranges were corrupted must fail at decode: a
/// `LargeCommon` with `m` inflated by one flipped byte once decoded and
/// then walked ~4.6·10¹⁶ set ids in finalize. Inflate, one at a time,
/// the estimator's `m`, every oracle's `u` and every subroutine's
/// `(u, m)` the way such a flip does (byte 6 XOR 0xa5), and require a
/// typed error for each.
#[test]
fn inflated_lane_ranges_are_rejected() {
    const TAG_ORACLE: u64 = 0x4f52_4143_4c45;
    const SUBROUTINE_TAGS: [(&str, u64); 3] = [
        ("LargeCommon", 0x4c43),
        ("LargeSet", 0x4c53),
        ("SmallSet", 0x5353),
    ];
    let (n, m, k) = (400usize, 32u64, 4usize);
    let system = zipf_popularity(n, m as usize, 12, 1.1, 5);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
    let config = fast_config(21, n);
    let mut est = MaxCoverEstimator::new(n, m as usize, k, 2.0, &config);
    for chunk in edges.chunks(64) {
        est.observe_batch(chunk);
    }
    let bytes = est.to_bytes();
    let zs = config
        .z_guesses
        .clone()
        .expect("fast_config pins the z guesses");
    let words = |at: usize, len: usize| -> Vec<u64> {
        bytes[at..at + 8 * len]
            .chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect()
    };
    // (label, byte offset of the field) for every range field.
    let mut fields: Vec<(String, usize)> = Vec::new();
    let shape = (0..64).find(|&at| words(at, 3) == [n as u64, m, k as u64]);
    fields.push((
        "estimator m".into(),
        shape.expect("shape section not found") + 8,
    ));
    for at in 0..bytes.len() - 24 {
        let w = words(at, 3);
        if w[0] == TAG_ORACLE && zs.contains(&w[1]) {
            fields.push((format!("Oracle u at {at}"), at + 8));
        }
        for (name, tag) in SUBROUTINE_TAGS {
            if w[0] == tag && zs.contains(&w[1]) && w[2] == m {
                fields.push((format!("{name} u at {at}"), at + 8));
                fields.push((format!("{name} m at {at}"), at + 16));
            }
        }
    }
    let lanes = zs.len() * 2;
    for name in ["Oracle u", "LargeCommon m", "LargeSet u", "SmallSet m"] {
        let found = fields
            .iter()
            .filter(|(label, _)| label.starts_with(name))
            .count();
        assert_eq!(found, lanes, "{name}: expected one field per lane");
    }
    for (label, at) in fields {
        let mut corrupted = bytes.clone();
        corrupted[at + 6] ^= 0xa5;
        match MaxCoverEstimator::from_bytes(&corrupted) {
            Err(e) => assert!(e.to_string().contains("decode"), "{label}: {e}"),
            Ok(_) => panic!("{label}: an inflated range was accepted"),
        }
    }
}
