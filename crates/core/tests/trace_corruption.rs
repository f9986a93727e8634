//! Corruption sweep over a written NDJSON trace: every truncation
//! prefix and every single-bit flip at every byte. Traces are untrusted
//! input to `maxkcov trace-summarize` and `maxkcov prof`, so
//! `Trace::parse` must return a trace or an error, and the auditor must
//! return its violations, without panicking on any of them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_obs::audit::Trace;
use kcov_obs::Recorder;
use kcov_stream::gen::planted_cover;
use kcov_stream::{edge_stream, ArrivalOrder};

/// A trivial-branch (k·α ≥ m) trace with heartbeats, histograms and
/// both ledgers: a few KB that exercise every event kind the auditor
/// reads.
fn trace() -> Vec<u8> {
    let inst = planted_cover(300, 12, 8, 0.8, 20, 9);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
    let rec = Recorder::enabled();
    let mut config = EstimatorConfig::practical(19);
    config.recorder = rec.clone();
    config.heartbeat_every = Some(100);
    let (n, m) = (inst.system.num_elements(), inst.system.num_sets());
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    let span = rec.span("ingest");
    for chunk in edges.chunks(64) {
        est.observe_batch(chunk);
    }
    span.finish();
    assert!(est.finalize().trivial);
    let mut bytes = Vec::new();
    rec.write_ndjson(&mut bytes).unwrap();
    bytes
}

/// Parse and audit `bytes`, failing the test on a panic. Returns
/// whether the trace parsed and passed every check.
fn check(bytes: &[u8], what: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        Trace::parse(bytes, "t").is_ok_and(|t| t.violations().is_empty())
    }))
    .unwrap_or_else(|_| panic!("the trace auditor panicked on {what}"))
}

#[test]
fn every_truncation_parses_or_errors_without_panicking() {
    let bytes = trace();
    assert!(bytes.len() > 1_000, "{} bytes", bytes.len());
    assert!(check(&bytes, "the intact trace"));
    let mut rejected = 0;
    for len in 0..bytes.len() {
        if !check(&bytes[..len], &format!("the {len}-byte prefix")) {
            rejected += 1;
        }
    }
    // A prefix cut inside a line is a parse error; most cuts at a line
    // boundary drop events another check depends on.
    assert!(
        rejected > bytes.len() / 2,
        "{rejected} of {} rejected",
        bytes.len()
    );
}

#[test]
fn bit_flips_parse_or_error_without_panicking() {
    let bytes = trace();
    let mut rejected = 0;
    let mut flips = 0;
    for pos in 0..bytes.len() {
        // Low bits turn digits into digits and quotes into other
        // punctuation; the high bit makes the line invalid UTF-8.
        for bit in 0..8 {
            let mask = 1u8 << bit;
            let mut flipped = bytes.clone();
            flipped[pos] ^= mask;
            flips += 1;
            if !check(&flipped, &format!("byte {pos} ^ {mask:#04x}")) {
                rejected += 1;
            }
        }
    }
    assert!(
        rejected > 0 && rejected < flips,
        "{rejected} of {flips} rejected"
    );
}
