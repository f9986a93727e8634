//! Property-based tests of the stream substrate: arrival orders are
//! permutations, I/O round-trips, generators respect their contracts,
//! and chunked iteration reproduces the flat stream exactly.
//!
//! Cases are generated by a deterministic SplitMix64-driven harness (no
//! external dependency): every run explores the same seed grid, so a
//! failure names a reproducible case index.

use kcov_hash::SplitMix64;
use kcov_stream::gen::{uniform_incidence, zipf_set_sizes};
use kcov_stream::{
    coverage_of, edge_stream, edge_stream_chunked, element_frequencies, read_edges,
    read_set_system, write_edges, write_set_system, ArrivalOrder, Edge, EdgeChunkReader, SetSystem,
};

const CASES: u64 = 48;

fn small_system(rng: &mut SplitMix64) -> SetSystem {
    let n = 1 + rng.next_below(39) as usize;
    let m = 1 + rng.next_below(14) as usize;
    uniform_incidence(n, m, 0.3, rng.next_below(10_000))
}

/// Every arrival order emits the same edge multiset.
#[test]
fn orders_are_permutations() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0DE5 ^ case);
        let ss = small_system(&mut rng);
        let shuffle_seed = rng.next_below(100);
        let mut reference = edge_stream(&ss, ArrivalOrder::SetContiguous);
        reference.sort();
        for order in [
            ArrivalOrder::ElementContiguous,
            ArrivalOrder::RoundRobin,
            ArrivalOrder::Shuffled(shuffle_seed),
        ] {
            let mut got = edge_stream(&ss, order);
            got.sort();
            assert_eq!(got, reference, "case {case}: {order:?}");
        }
    }
}

/// SetSystem ↔ text round-trips exactly.
#[test]
fn io_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x10 ^ case.wrapping_mul(0x9E37));
        let ss = small_system(&mut rng);
        let mut buf = Vec::new();
        write_set_system(&ss, &mut buf).unwrap();
        let back = read_set_system(&buf[..]).unwrap();
        assert_eq!(ss, back, "case {case}");
    }
}

/// Raw edge streams round-trip preserving order and duplicates.
#[test]
fn edge_io_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xED6E ^ case.wrapping_mul(0x85EB));
        let ss = small_system(&mut rng);
        let seed = rng.next_below(100);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(seed));
        let mut buf = Vec::new();
        write_edges(
            ss.num_elements().max(1),
            ss.num_sets().max(1),
            &edges,
            &mut buf,
        )
        .unwrap();
        let (_, _, back) = read_edges(&buf[..]).unwrap();
        assert_eq!(edges, back, "case {case}");
    }
}

/// Coverage equals the number of elements with positive frequency when
/// all sets are chosen.
#[test]
fn full_coverage_matches_frequencies() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC0F ^ case.wrapping_mul(0x1337));
        let ss = small_system(&mut rng);
        let all: Vec<usize> = (0..ss.num_sets()).collect();
        let cov = coverage_of(&ss, &all);
        let covered = element_frequencies(&ss).iter().filter(|&&f| f > 0).count();
        assert_eq!(cov, covered, "case {case}");
    }
}

/// Zipf generator: sizes are non-increasing and within bounds.
#[test]
fn zipf_sizes_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x21F ^ case);
        let seed = rng.next_below(1000);
        let ss = zipf_set_sizes(300, 30, 100, 1.0, seed);
        for i in 1..30 {
            assert!(
                ss.set(i).len() <= ss.set(i - 1).len() + 1,
                "case {case}: sizes must be (weakly) decreasing"
            );
        }
        for i in 0..30 {
            assert!(!ss.set(i).is_empty(), "case {case}");
            assert!(ss.set(i).len() <= 100, "case {case}");
        }
    }
}

/// From-edges construction tolerates duplicate edges.
#[test]
fn from_edges_dedups() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xDED ^ case.wrapping_mul(0xBEEF));
        let n = 2 + rng.next_below(18) as usize;
        let e = Edge::new(0, rng.next_below(n as u64) as u32);
        let ss = SetSystem::from_edges(n, 2, &[e, e, e]);
        assert_eq!(ss.set(0).len(), 1, "case {case}");
        assert_eq!(ss.total_edges(), 1, "case {case}");
    }
}

/// Chunked iteration: for any chunk size, the concatenation of chunks
/// is exactly the flat stream, in order.
#[test]
fn chunked_stream_concat_equals_flat() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC4 ^ case.wrapping_mul(0xFACE));
        let ss = small_system(&mut rng);
        let seed = rng.next_below(100);
        let chunk_size = 1 + rng.next_below(17) as usize;
        let flat = edge_stream(&ss, ArrivalOrder::Shuffled(seed));
        let mut chunked = edge_stream_chunked(&ss, ArrivalOrder::Shuffled(seed), chunk_size);
        assert_eq!(chunked.len(), flat.len(), "case {case}");
        let mut concat = Vec::new();
        while let Some(chunk) = chunked.next_chunk() {
            assert!(!chunk.is_empty(), "case {case}: chunks must be non-empty");
            assert!(chunk.len() <= chunk_size, "case {case}");
            concat.extend_from_slice(chunk);
        }
        assert_eq!(concat, flat, "case {case}: chunk size {chunk_size}");
    }
}

/// The file-backed chunk reader reproduces `read_edges` exactly for any
/// chunk size, including shape metadata.
#[test]
fn edge_chunk_reader_matches_read_edges() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF11E ^ case.wrapping_mul(0xD00D));
        let ss = small_system(&mut rng);
        let seed = rng.next_below(100);
        let chunk_size = 1 + rng.next_below(17) as usize;
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(seed));
        let mut buf = Vec::new();
        write_edges(
            ss.num_elements().max(1),
            ss.num_sets().max(1),
            &edges,
            &mut buf,
        )
        .unwrap();
        let (n, m, flat) = read_edges(&buf[..]).unwrap();
        let mut reader = EdgeChunkReader::new(&buf[..], chunk_size).unwrap();
        assert_eq!((reader.n(), reader.m()), (n, m), "case {case}");
        let mut concat = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            assert!(chunk.len() <= chunk_size, "case {case}");
            concat.extend_from_slice(chunk);
        }
        assert_eq!(concat, flat, "case {case}: chunk size {chunk_size}");
    }
}
