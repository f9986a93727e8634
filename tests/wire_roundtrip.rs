//! Exhaustive wire-format hardening. The full estimator state that
//! roots the distributed replica files, the telemetry types, and the
//! state of every sketch and subroutine decoded into a value its
//! constructor built must (a) round-trip to byte-identical encodings,
//! (b) reject **every** strict truncation with a typed error, and
//! (c) survive a single-byte-flip corruption sweep without ever
//! panicking. A flip may decode when it lands in free payload like a
//! counter value; the value it decodes to must then re-encode to the
//! flipped bytes, so each state has one encoding.

use maxkcov::core::{
    EdgeFingerprints, EstimatorConfig, LargeCommon, LargeSet, MaxCoverEstimator, Oracle, Params,
    SmallSet,
};
use maxkcov::hash::MERSENNE_P;
use maxkcov::obs::{Histogram, Recorder, SketchStats};
use maxkcov::sketch::{
    ContributingConfig, CountSketch, F2Contributing, Kmv, L0Estimator, WireEncode, WireError,
    WireState,
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

/// The battery over one encoding: `decode` must give back a value whose
/// `encode` is the input, on `bytes` and on every flip it accepts, and
/// must reject every strict prefix with a non-empty typed error.
fn sweep<T>(
    label: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let decoded = decode(bytes).unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
    assert!(
        encode(&decoded) == bytes,
        "{label}: decoded value re-encodes differently"
    );

    // Decode consumes the whole buffer, so every strict prefix must
    // run out of input somewhere and surface a typed error.
    for cut in cut_points(bytes.len()) {
        match decode(&bytes[..cut]) {
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

    for flip in flip_points(bytes.len()) {
        let mut corrupted = bytes.to_vec();
        corrupted[flip] ^= 0xa5;
        if let Ok(v) = decode(&corrupted) {
            assert!(
                encode(&v) == corrupted,
                "{label}: the flip at {flip} decodes to a state with another encoding"
            );
        }
    }
}

/// The battery for one self-describing value.
fn exhaust<T: WireEncode>(label: &str, value: &T) {
    sweep(label, &value.to_bytes(), T::from_bytes, T::to_bytes);
}

/// The battery for one value's state, decoded into values `fresh`
/// builds with the writer's constructor arguments.
fn exhaust_state<T: WireState>(label: &str, value: &T, fresh: impl Fn() -> T) {
    let state = |v: &T| {
        let mut out = Vec::new();
        v.put_state(&mut out);
        out
    };
    let decode = |bytes: &[u8]| {
        let mut input = bytes;
        let mut v = fresh();
        v.take_state(&mut input)?;
        match input.len() {
            0 => Ok(v),
            n => Err(maxkcov::sketch::wire::err(format!("{n} trailing bytes"))),
        }
    };
    sweep(label, &state(value), decode, state);
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
    exhaust_state("Kmv", &kmv, || Kmv::new(16, 7));
    exhaust_state("L0Estimator", &l0, || L0Estimator::new(8, 5, 3));

    // A one-level finder is Theorem 2.10's heavy hitter: the unsampled
    // level alone, at φ = γ.
    let mut one_level = ContributingConfig::new(0.05, 1);
    one_level.phi_factor = 1.0;
    let hh_fresh = || F2Contributing::new(one_level.clone(), one_level.clone(), 1000, 1000, 23);
    let mut hh = hh_fresh();
    hh.insert_batch(&skewed);
    assert_eq!(hh.num_levels(), 1);
    exhaust_state("F2Contributing(one level)", &hh, hh_fresh);
    let c = ContributingConfig::new(0.1, 64);
    let fc_fresh = || F2Contributing::new(c.clone(), c.clone(), 40, 1000, 29);
    let mut fc = fc_fresh();
    fc.insert_batch(&skewed);
    exhaust_state("F2Contributing", &fc, fc_fresh);

    // The paired two-tier finder (DESIGN.md §14): its level schedule
    // mixes the wide Case-1 heavy-hitter shape on shallow levels with
    // the narrow Case-2 shape past the wide tier's class-size bound,
    // so its state holds tables of two widths.
    let mut wide = ContributingConfig::new(0.02, 8);
    let mut narrow = ContributingConfig::new(0.25, 256);
    for c in [&mut wide, &mut narrow] {
        c.survivors_per_class = 4;
        c.sampling_degree = Some(2);
        c.hh_rows = 2;
    }
    wide.hh_width_factor = 2.0;
    let paired_fresh = || F2Contributing::new(wide.clone(), narrow.clone(), 1000, 5000, 31);
    let mut paired = paired_fresh();
    paired.insert_batch(&skewed);
    exhaust_state("F2Contributing(paired)", &paired, paired_fresh);

    let mut cs = CountSketch::new(3, 32, 13);
    for &x in &items {
        cs.update(x, (x % 7) as i64 - 3);
    }
    exhaust_state("CountSketch", &cs, || CountSketch::new(3, 32, 13));
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
}

/// Every subroutine, fed through its fingerprint entry points, has its
/// state decoded into a twin built on the same shared set base.
#[test]
fn hash_once_structures_roundtrip_and_reject_mangling() {
    let system = zipf_popularity(500, 40, 12, 1.1, 11);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(4));
    let params = Params::practical(40, 500, 6, 3.0);
    let fps = EdgeFingerprints::new(91, Params::hash_degree(params.mode, 40, 500));
    let fp_sets: Vec<u64> = edges.iter().map(|e| fps.fingerprint(*e).0).collect();
    let base = || fps.set_base().clone();

    let oracle_fresh = || Oracle::with_base(500, &params, false, 13, base());
    let lc_fresh = || LargeCommon::with_base(500, &params, true, 15, base());
    let ls_fresh = || LargeSet::with_base(500, &params, 17, base());
    let ss_fresh = || SmallSet::with_base(500, &params, 19, base());
    let (mut oracle, mut lc, mut ls, mut ss) = (oracle_fresh(), lc_fresh(), ls_fresh(), ss_fresh());
    for (chunk, fp_chunk) in edges.chunks(64).zip(fp_sets.chunks(64)) {
        oracle.observe_fp_batch(chunk, fp_chunk);
        lc.observe_fp_batch(chunk, fp_chunk);
        ls.observe_fp_batch(chunk, fp_chunk);
        ss.observe_fp_batch(chunk, fp_chunk);
    }
    exhaust_state("Oracle", &oracle, oracle_fresh);
    exhaust_state("LargeCommon(reporting)", &lc, lc_fresh);
    exhaust_state("LargeSet", &ls, ls_fresh);
    exhaust_state("SmallSet", &ss, ss_fresh);
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
    let mut bytes = Vec::new();
    kmv.put_state(&mut bytes);
    let kept = kmv.kept_values().to_vec();
    assert_eq!(kept.len(), 16, "the summary must be saturated");
    // The kept values follow their count and precede three counters.
    let with = |vals: &[u64]| {
        let mut out = bytes[..8].to_vec();
        vals.iter().for_each(|v| out.extend(v.to_le_bytes()));
        out.extend(&bytes[8 + 8 * kept.len()..]);
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
        match Kmv::new(16, 7).take_state(&mut with(&vals).as_slice()) {
            Err(e) => assert!(e.to_string().contains(message), "{what}: {e}"),
            Ok(()) => panic!("{what}: non-canonical kept values were accepted"),
        }
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

/// A replica whose ranges were corrupted must fail at decode: a
/// `LargeCommon` with `m` inflated by one flipped byte once decoded and
/// then walked ~4.6·10¹⁶ set ids in finalize. The ranges now live in
/// the SHAPE section alone: inflate, one at a time, the estimator's `n`,
/// `m` and every `z` guess (a lane's universe) the way such a flip does
/// (byte 6 XOR 0xa5), and require a typed error for each.
#[test]
fn inflated_lane_ranges_are_rejected() {
    let (n, m, k) = (400usize, 32usize, 4usize);
    let system = zipf_popularity(n, m, 12, 1.1, 5);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
    let config = fast_config(21, n);
    let mut est = MaxCoverEstimator::new(n, m, k, 2.0, &config);
    for chunk in edges.chunks(64) {
        est.observe_batch(chunk);
    }
    let bytes = est.to_bytes();
    let zs = config
        .z_guesses
        .clone()
        .expect("fast_config pins the z guesses");
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    // The header (magic, version, tag) and the SHAPE section's tag and
    // length, then n, m, k, α, mode, seed, reps, reporting, the guess
    // count and the guesses.
    let shape = 40;
    assert_eq!([word(shape), word(shape + 8)], [n as u64, m as u64]);
    assert_eq!(word(shape + 64), zs.len() as u64);
    let mut fields = vec![("n".to_string(), shape), ("m".to_string(), shape + 8)];
    for (i, &z) in zs.iter().enumerate() {
        let at = shape + 72 + 8 * i;
        assert_eq!(word(at), z);
        fields.push((format!("z guess {z}"), at));
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
