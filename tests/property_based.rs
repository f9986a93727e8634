//! Property-based tests on cross-crate invariants, driven by a
//! deterministic SplitMix64 case harness (no external dependency):
//! every run explores the same seed grid, so a failure names a
//! reproducible case index.

use maxkcov::baselines::{greedy_max_cover, max_cover_exact, SieveStreaming};
use maxkcov::core::{EstimatorConfig, MaxCoverEstimator};
use maxkcov::hash::SplitMix64;
use maxkcov::sketch::{L0Estimator, SpaceUsage};
use maxkcov::stream::gen::uniform_incidence;
use maxkcov::stream::{coverage_of, edge_stream, ArrivalOrder, SetSystem};

const CASES: u64 = 24;

/// Greedy is always within (1 - 1/e) of the exact optimum.
#[test]
fn greedy_factor_holds() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x6EE ^ case);
        let seed = rng.next_below(5000);
        let m = 4 + rng.next_below(10) as usize;
        let k = 1 + rng.next_below(4) as usize;
        let ss = uniform_incidence(30, m, 0.15, seed);
        let (_, opt) = max_cover_exact(&ss, k);
        let g = greedy_max_cover(&ss, k);
        assert!(
            g.coverage as f64 >= (1.0 - 1.0 / std::f64::consts::E) * opt as f64 - 1e-9,
            "case {case}"
        );
        assert!(g.coverage <= opt, "case {case}");
    }
}

/// Coverage is monotone and subadditive in the chosen collection.
#[test]
fn coverage_monotone_subadditive() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC0 ^ case.wrapping_mul(0x9E37));
        let seed = rng.next_below(5000);
        let ss = uniform_incidence(50, 12, 0.2, seed);
        let a: Vec<usize> = vec![0, 1, 2];
        let b: Vec<usize> = vec![3, 4];
        let ab: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        let ca = coverage_of(&ss, &a);
        let cb = coverage_of(&ss, &b);
        let cab = coverage_of(&ss, &ab);
        assert!(cab >= ca && cab >= cb, "case {case}");
        assert!(cab <= ca + cb, "case {case}");
    }
}

/// The L0 estimator is within (1 ± 1/2) across random stream sizes and
/// seeds (Theorem 2.12 interface).
#[test]
fn l0_within_half() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x10 ^ case.wrapping_mul(0x85EB));
        let seed = rng.next_below(5000);
        let distinct = 50 + rng.next_below(4950);
        let mut est = L0Estimator::with_default_accuracy(seed);
        for i in 0..distinct {
            est.insert(i.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed));
        }
        let e = est.estimate();
        assert!(
            e >= distinct as f64 * 0.5,
            "case {case}: est {e} vs {distinct}"
        );
        assert!(
            e <= distinct as f64 * 1.5,
            "case {case}: est {e} vs {distinct}"
        );
    }
}

/// The estimator never meaningfully exceeds the exact optimum
/// (soundness half of the (α, δ, η)-oracle contract), its space is
/// positive — and 64-edge chunks on two threads return bit-identical
/// outcomes to the serial whole-stream pass.
#[test]
fn estimator_sound_on_random_instances() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xE57 ^ case.wrapping_mul(0x1337));
        let seed = rng.next_below(300);
        let ss = uniform_incidence(300, 40, 0.05, seed);
        let k = 4;
        let (_, opt) = max_cover_exact(&ss, k);
        let edges = edge_stream(&ss, ArrivalOrder::Shuffled(seed));
        let mut config = EstimatorConfig::practical(seed ^ 0xfeed);
        config.z_guesses = Some(vec![32, 128, 512]);
        config.reps = Some(1);
        let mut est = MaxCoverEstimator::new(300, 40, k, 3.0, &config);
        est.observe_batch(&edges);
        let out = est.finalize();
        assert!(
            out.estimate <= opt as f64 * 1.25,
            "case {case}: estimate {} vs exact OPT {}",
            out.estimate,
            opt
        );
        assert!(est.space_words() > 0, "case {case}");

        // Batched + threaded ingestion is bit-identical.
        let batched =
            MaxCoverEstimator::run(300, 40, k, 3.0, &config.clone().with_threads(2), &edges, 64);
        assert_eq!(
            out.estimate.to_bits(),
            batched.estimate.to_bits(),
            "case {case}: batched path diverged"
        );
        assert_eq!(out.winning_z, batched.winning_z, "case {case}");
    }
}

/// Sieve streaming returns a valid solution: at most k sets whose
/// reported coverage is exact.
#[test]
fn sieve_solutions_valid() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x51E ^ case.wrapping_mul(0xBEEF));
        let seed = rng.next_below(5000);
        let k = 1 + rng.next_below(7) as usize;
        let ss = uniform_incidence(100, 30, 0.1, seed);
        let r = SieveStreaming::run(&ss, k, 0.2);
        assert!(r.chosen.len() <= k, "case {case}");
        let dedup: std::collections::HashSet<_> = r.chosen.iter().collect();
        assert_eq!(
            dedup.len(),
            r.chosen.len(),
            "case {case}: duplicate sets chosen"
        );
        assert_eq!(
            coverage_of(&ss, &r.chosen) as f64,
            r.estimated_coverage,
            "case {case}"
        );
    }
}

/// SetSystem edge round-trip: from_edges(edges(s)) == s.
#[test]
fn set_system_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5E7 ^ case.wrapping_mul(0xD00D));
        let seed = rng.next_below(5000);
        let ss = uniform_incidence(40, 10, 0.25, seed);
        let rebuilt = SetSystem::from_edges(40, 10, &ss.edges());
        assert_eq!(ss, rebuilt, "case {case}");
    }
}
