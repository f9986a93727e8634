//! Corruption sweep over a generated instance file: every truncation
//! prefix and a sampled single-byte flip at every position. Instance
//! files are untrusted input, so `read_edges` must return `Ok` or a
//! `ParseError` and never panic, and the streaming `EdgeChunkReader`
//! must reach the same verdict: the same edges, or the same error.
//! Both share one line reader, so each is also held to the
//! `BufRead::lines` reader it replaced (`reference`), the chunked one
//! through a buffer small enough that lines straddle its end.

mod reference;

use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kcov_hash::SplitMix64;
use kcov_stream::gen::uniform_fixed_size;
use kcov_stream::{read_edges, write_set_system};
use reference::read_chunked;

/// Parse `bytes` all three ways, failing the test on a panic or a
/// disagreement. Returns whether the input parsed.
fn check(bytes: &[u8], what: &str) -> bool {
    let whole = catch_unwind(AssertUnwindSafe(|| read_edges(bytes)))
        .unwrap_or_else(|_| panic!("read_edges panicked on {what}"));
    // Through a 5-byte buffer most lines straddle its end.
    let chunked = catch_unwind(AssertUnwindSafe(|| {
        read_chunked(BufReader::with_capacity(5, bytes), 7)
    }))
    .unwrap_or_else(|_| panic!("EdgeChunkReader panicked on {what}"));
    let want = reference::read_edges(bytes);
    assert_eq!(
        whole, want,
        "read_edges and the reference disagree on {what}"
    );
    assert_eq!(
        chunked, want,
        "EdgeChunkReader and the reference disagree on {what}"
    );
    whole.is_ok()
}

fn instance() -> Vec<u8> {
    let system = uniform_fixed_size(40, 12, 4, 9);
    let mut bytes = Vec::new();
    write_set_system(&system, &mut bytes).unwrap();
    bytes
}

#[test]
fn every_truncation_parses_or_errors_identically() {
    let bytes = instance();
    assert!(check(&bytes, "the intact instance"));
    let mut rejected = 0;
    for len in 0..bytes.len() {
        if !check(&bytes[..len], &format!("the {len}-byte prefix")) {
            rejected += 1;
        }
    }
    // Prefixes ending before the header, or inside a data line's first
    // field, are errors; the rest parse to an edge prefix.
    assert!(
        rejected > 0 && rejected < bytes.len(),
        "{rejected} of {} rejected",
        bytes.len()
    );
}

#[test]
fn sampled_byte_flips_parse_or_error_identically() {
    let bytes = instance();
    let mut rng = SplitMix64::new(0xf11b);
    let mut rejected = 0;
    let mut flips = 0;
    for pos in 0..bytes.len() {
        // A low-bit flip (digit to digit, newline to vertical tab) and
        // one random non-zero mask (often non-ASCII or invalid UTF-8).
        let random = (rng.next_u64() % 255 + 1) as u8;
        for mask in [0x01, random] {
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
