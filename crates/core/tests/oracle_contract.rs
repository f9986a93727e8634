//! The `(α, δ, η)`-oracle contract (Definition 3.4) as executable
//! properties over random and structured instances:
//!
//! 1. **Soundness** — the oracle's output never (meaningfully) exceeds
//!    the optimal coverage.
//! 2. **Conditional usefulness** — when the optimum covers ≥ `|U|/η`,
//!    the output is at least `|C(OPT)|/Õ(α)`.
//! 3. **Witness validity** — any witness expands to real set indices
//!    whose true coverage backs a constant fraction of the estimate.

use std::sync::Arc;

use kcov_baselines::greedy_max_cover;
use kcov_core::{Oracle, Params, Witness};
use kcov_hash::{KWise, SeedSequence};
use kcov_stream::gen::{community_sets, planted_cover, uniform_fixed_size, zipf_set_sizes};
use kcov_stream::{coverage_of, edge_stream, ArrivalOrder, Edge, SetSystem};

/// An oracle on a set fingerprint base the caller holds (drawn from the
/// seed and label of `Oracle::new`'s private base), fed `edges`.
fn fed_oracle(u: usize, params: &Params, reporting: bool, seed: u64, edges: &[Edge]) -> Oracle {
    let degree = Params::hash_degree(params.mode, params.m, params.n);
    let base = KWise::new(
        degree,
        SeedSequence::labeled(seed, "oracle-base").next_seed(),
    );
    let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.set as u64)).collect();
    let mut oracle = Oracle::with_base(u, params, reporting, seed, Arc::new(base));
    oracle.observe_fp_batch(edges, &fps);
    oracle
}

fn run_oracle(system: &SetSystem, k: usize, alpha: f64, seed: u64) -> (Oracle, f64) {
    let params = Params::practical(system.num_sets(), system.num_elements(), k, alpha);
    let edges = edge_stream(system, ArrivalOrder::Shuffled(seed));
    let oracle = fed_oracle(system.num_elements(), &params, true, seed, &edges);
    let est = oracle.finalize().estimate;
    (oracle, est)
}

/// Upper bound on OPT from greedy (OPT ≤ greedy/(1 − 1/e)).
fn opt_upper(system: &SetSystem, k: usize) -> f64 {
    greedy_max_cover(system, k).coverage as f64 / (1.0 - 1.0 / std::f64::consts::E)
}

#[test]
fn soundness_across_workload_zoo() {
    let zoo: Vec<(&str, SetSystem, usize)> = vec![
        ("uniform", uniform_fixed_size(1_500, 300, 30, 1), 10),
        ("zipf", zipf_set_sizes(1_500, 300, 400, 1.1, 2), 10),
        (
            "planted",
            planted_cover(1_500, 300, 10, 0.8, 30, 3).system,
            10,
        ),
        ("communities", community_sets(1_500, 300, 6, 40, 4, 4), 10),
    ];
    for (name, system, k) in zoo {
        for seed in 0..3u64 {
            let (_, est) = run_oracle(&system, k, 4.0, seed);
            let ub = opt_upper(&system, k);
            assert!(
                est <= ub * 1.15,
                "{name} seed {seed}: oracle overestimates ({est} > OPT ≤ {ub})"
            );
        }
    }
}

#[test]
fn usefulness_when_eta_promise_holds() {
    // Instances engineered so OPT ≥ |U|/4 (the η-promise): the oracle
    // must return at least OPT/Õ(α).
    let alpha = 4.0;
    let promise_zoo: Vec<(&str, SetSystem, usize, f64)> = vec![
        (
            "planted-dense",
            planted_cover(1_200, 240, 12, 0.6, 30, 5).system,
            12,
            720.0,
        ),
        (
            "zipf-dense",
            zipf_set_sizes(1_200, 240, 700, 0.9, 6),
            12,
            900.0, // 12 large zipf sets easily cover > 900 of 1200
        ),
    ];
    for (name, system, k, opt_lb) in promise_zoo {
        let (_, est) = run_oracle(&system, k, alpha, 9);
        assert!(
            est >= opt_lb / (alpha * 30.0),
            "{name}: estimate {est} below OPT({opt_lb})/Õ(α)"
        );
    }
}

#[test]
fn witness_backs_the_estimate() {
    let inst = planted_cover(1_200, 240, 12, 0.7, 30, 7);
    let (oracle, est) = run_oracle(&inst.system, 12, 4.0, 3);
    let out = oracle.finalize();
    let Some(witness) = out.witness else {
        panic!("expected a witness at estimate {est}");
    };
    let sets = oracle.expand_witness(&witness);
    assert!(!sets.is_empty());
    let chosen: Vec<usize> = sets.iter().map(|&s| s as usize).collect();
    let cov = coverage_of(&inst.system, &chosen) as f64;
    // The witness collection's true coverage supports the estimate up
    // to the documented slack (group/duplication factors ≤ ~4).
    assert!(
        cov * 4.0 >= est,
        "witness coverage {cov} cannot back estimate {est}"
    );
}

#[test]
fn witness_kinds_match_winners() {
    let inst = planted_cover(1_200, 240, 12, 0.7, 30, 11);
    let (oracle, _) = run_oracle(&inst.system, 12, 4.0, 5);
    let out = oracle.finalize();
    if let (Some(kind), Some(witness)) = (out.winner, out.witness) {
        use kcov_core::SubroutineKind::*;
        match (kind, &witness) {
            (LargeCommon, Witness::SampledGroup { .. })
            | (LargeSet, Witness::Superset { .. })
            | (SmallSet, Witness::ExplicitSets(_)) => {}
            other => panic!("winner/witness mismatch: {other:?}"),
        }
    }
}

#[test]
fn oracle_handles_duplicate_heavy_streams() {
    // Every edge repeated 5 times (duplicates must not inflate
    // coverage estimates — the L0/di-distinct machinery's job).
    let system = uniform_fixed_size(800, 160, 25, 13);
    let k = 8;
    let params = Params::practical(160, 800, k, 4.0);
    let edges: Vec<Edge> = edge_stream(&system, ArrivalOrder::Shuffled(2))
        .into_iter()
        .flat_map(|e| [e; 5])
        .collect();
    let oracle = fed_oracle(800, &params, false, 17, &edges);
    let est = oracle.finalize().estimate;
    let ub = opt_upper(&system, k);
    assert!(
        est <= ub * 1.15,
        "duplicates inflated the estimate: {est} > {ub}"
    );
}
