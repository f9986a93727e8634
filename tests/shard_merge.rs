//! Differential suite for the mergeable-state refactor (the harness the
//! shard-merge lift is gated on): two or more estimator replicas built
//! from the same config + seed, fed disjoint shards of the edge stream,
//! and folded back with `merge` must finalize to the same outcome as
//! single-stream serial ingestion — for every generator family ×
//! arrival order × seed × shard count, including uneven and empty
//! splits — and the merge itself must be associative and commutative.
//!
//! Outcome comparison includes `space_words`: every sketch merges into
//! exactly the state serial ingestion builds (linear tables add, keyed
//! samples union), so merged and serial states have the same resident
//! words (DESIGN.md §8).

use maxkcov::core::{
    EstimateOutcome, EstimatorConfig, MaxCoverEstimator, MaxCoverReporter,
};
use maxkcov::stream::gen::{
    planted_cover, rmat_incidence, uniform_incidence, zipf_popularity, RmatParams,
};
use maxkcov::stream::{edge_stream, ArrivalOrder, Edge, SetSystem};

/// Coarse z-grid config so the full matrix stays fast.
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

fn generator_zoo(seed: u64) -> Vec<(&'static str, SetSystem)> {
    vec![
        ("uniform", uniform_incidence(600, 48, 0.04, seed)),
        ("zipf", zipf_popularity(500, 40, 14, 1.1, seed)),
        ("planted", planted_cover(500, 40, 5, 0.8, 12, seed).system),
        ("rmat", rmat_incidence(512, 64, 5_000, RmatParams::default(), seed)),
    ]
}

/// Outcome equality under the merge contract: estimate, branch, winner
/// and resident words must all be identical.
fn assert_outcomes_equivalent(a: &EstimateOutcome, b: &EstimateOutcome, ctx: &str) {
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{ctx}: estimate");
    assert_eq!(a.trivial, b.trivial, "{ctx}: trivial flag");
    assert_eq!(a.winning_z, b.winning_z, "{ctx}: winning z");
    assert_eq!(a.winner, b.winner, "{ctx}: winning subroutine");
    assert_eq!(a.space_words, b.space_words, "{ctx}: space words");
}

/// Feed `edges` into a fresh replica of `proto` as one chunk.
fn fed_replica(proto: &MaxCoverEstimator, edges: &[Edge]) -> MaxCoverEstimator {
    let mut est = proto.clone();
    est.observe_batch(edges);
    est
}

/// The full differential matrix: generators × arrival orders × seeds ×
/// shard counts {1, 2, 4, 7}, merged at finalize and compared against
/// the serial whole-stream reference.
#[test]
fn sharded_matches_serial_across_generators_orders_seeds() {
    let orders = [
        ArrivalOrder::SetContiguous,
        ArrivalOrder::ElementContiguous,
        ArrivalOrder::Shuffled(0xC0FFEE),
    ];
    for seed in [1u64, 42] {
        for (name, system) in generator_zoo(seed) {
            let n = system.num_elements();
            let m = system.num_sets();
            let k = 4;
            let alpha = 3.0;
            let config = fast_config(seed ^ 0x54A2D, n);
            for order in orders {
                let edges = edge_stream(&system, order);
                let serial = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, edges.len());
                for shards in [1usize, 2, 4, 7] {
                    let config = config.clone().with_shards(shards);
                    let sharded = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, 64);
                    assert_outcomes_equivalent(
                        &serial,
                        &sharded,
                        &format!("{name} seed={seed} order={order:?} shards={shards}"),
                    );
                }
            }
        }
    }
}

/// Uneven and empty splits: merging replicas fed wildly unbalanced
/// shards — including completely empty ones — is exact. A fresh replica
/// is the merge identity.
#[test]
fn uneven_and_empty_splits_merge_exactly() {
    let system = uniform_incidence(500, 40, 0.05, 9);
    let n = system.num_elements();
    let m = system.num_sets();
    let config = fast_config(0xE11, n);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(7));
    let serial = MaxCoverEstimator::run(n, m, 4, 3.0, &config, &edges, edges.len());
    let proto = MaxCoverEstimator::new(n, m, 4, 3.0, &config);

    // Split points producing: an empty first shard, a one-edge shard, a
    // huge middle shard, and an empty tail shard.
    let cuts = [0usize, 1, edges.len() - 2, edges.len(), edges.len()];
    let mut merged = proto.clone();
    let mut lo = 0usize;
    for &hi in &cuts {
        let part = fed_replica(&proto, &edges[lo..hi]);
        merged.merge(&part);
        lo = hi;
    }
    let tail = fed_replica(&proto, &edges[lo..]);
    merged.merge(&tail);
    assert_outcomes_equivalent(&serial, &merged.finalize(), "uneven/empty splits");
}

/// `merge` is associative and commutative on the finalize outcome:
/// `(a ⊔ b) ⊔ c ≡ a ⊔ (b ⊔ c)` and `a ⊔ b ≡ b ⊔ a` for replicas fed
/// disjoint thirds of the stream.
#[test]
fn merge_is_associative_and_commutative() {
    for (name, system) in generator_zoo(7) {
        let n = system.num_elements();
        let m = system.num_sets();
        let config = fast_config(0xA550C, n);
        let edges = edge_stream(&system, ArrivalOrder::Shuffled(11));
        let third = edges.len() / 3;
        let proto = MaxCoverEstimator::new(n, m, 4, 3.0, &config);
        let a = fed_replica(&proto, &edges[..third]);
        let b = fed_replica(&proto, &edges[third..2 * third]);
        let c = fed_replica(&proto, &edges[2 * third..]);

        // (a ⊔ b) ⊔ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_outcomes_equivalent(
            &left.finalize(),
            &right.finalize(),
            &format!("{name}: associativity"),
        );

        // b ⊔ a ⊔ c (commuted first pair).
        let mut commuted = b.clone();
        commuted.merge(&a);
        commuted.merge(&c);
        assert_outcomes_equivalent(
            &left.finalize(),
            &commuted.finalize(),
            &format!("{name}: commutativity"),
        );

        // And both agree with serial single-stream ingestion.
        let serial = MaxCoverEstimator::run(n, m, 4, 3.0, &config, &edges, edges.len());
        assert_outcomes_equivalent(&serial, &left.finalize(), &format!("{name}: vs serial"));
    }
}

/// The reporter (reporting machinery on: group trackers, witnesses)
/// reports the same cover sets from merged shards as from the serial
/// stream.
#[test]
fn reporter_sharded_matches_serial() {
    let inst = planted_cover(600, 80, 6, 0.7, 20, 15);
    let n = inst.system.num_elements();
    let m = inst.system.num_sets();
    let config = fast_config(0x8e9, n);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
    let serial = MaxCoverReporter::run(n, m, 6, 3.0, &config, &edges, edges.len());
    for shards in [2usize, 4, 7] {
        let config = config.clone().with_shards(shards);
        let sharded = MaxCoverReporter::run(n, m, 6, 3.0, &config, &edges, 64);
        assert_eq!(serial.sets, sharded.sets, "shards={shards}: cover sets");
        assert_eq!(
            serial.estimate.to_bits(),
            sharded.estimate.to_bits(),
            "shards={shards}: estimate"
        );
        assert_eq!(serial.winner, sharded.winner, "shards={shards}: winner");
    }
}

/// Merged space equals serial space (DESIGN.md §8): the sharded
/// driver's replicas fold into exactly the serial state, so
/// `space_words` matches word for word on every zoo workload. Everything
/// here is seeded, so this is a deterministic regression pin.
#[test]
fn merged_space_equals_serial_on_zoo() {
    for seed in [1u64, 42] {
        for (name, system) in generator_zoo(seed) {
            let n = system.num_elements();
            let m = system.num_sets();
            let config = fast_config(seed ^ 0x5ACE, n);
            let edges = edge_stream(&system, ArrivalOrder::Shuffled(3));
            let serial = MaxCoverEstimator::run(n, m, 4, 3.0, &config, &edges, edges.len());
            for shards in [2usize, 4] {
                let config = config.clone().with_shards(shards);
                let sharded = MaxCoverEstimator::run(n, m, 4, 3.0, &config, &edges, 64);
                assert_outcomes_equivalent(
                    &serial,
                    &sharded,
                    &format!("{name} seed={seed} shards={shards}"),
                );
            }
        }
    }
}

/// The space ledger under merge: every replica and the merged state
/// attribute exactly their `space_words`, and the heat counters
/// (updates, touched words) are additive — the merged ledger's totals
/// equal the sum of the shard replicas' totals.
#[test]
fn ledger_words_stay_exact_and_heat_adds_across_shards() {
    use maxkcov::obs::audit::space_ledger_violations;
    use maxkcov::sketch::SpaceUsage;
    let inst = planted_cover(600, 80, 6, 0.7, 20, 15);
    let n = inst.system.num_elements();
    let m = inst.system.num_sets();
    let config = fast_config(0x1ED6, n);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(4));
    let proto = MaxCoverEstimator::new(n, m, 6, 3.0, &config);
    for shards in [2usize, 4] {
        let chunk = edges.len().div_ceil(shards);
        let replicas: Vec<MaxCoverEstimator> =
            edges.chunks(chunk).map(|part| fed_replica(&proto, part)).collect();
        let mut updates = 0u64;
        let mut touched = 0u64;
        for (i, r) in replicas.iter().enumerate() {
            let ledger = r.space_ledger_tree();
            let violations = space_ledger_violations(&ledger, r.space_words() as u64);
            assert!(violations.is_empty(), "shard {i}: {violations:?}");
            updates += ledger.root.total_updates();
            touched += ledger.root.total_touched_words();
        }
        assert!(updates > 0, "shards must record heat");
        let mut merged = proto.clone();
        for r in &replicas {
            merged.merge(r);
        }
        let ledger = merged.space_ledger_tree();
        let violations = space_ledger_violations(&ledger, merged.space_words() as u64);
        assert!(violations.is_empty(), "shards={shards}: {violations:?}");
        assert_eq!(ledger.root.total_updates(), updates, "shards={shards}: updates are additive");
        assert_eq!(
            ledger.root.total_touched_words(),
            touched,
            "shards={shards}: touched words are additive"
        );
    }
}

/// The trivial regime (`k·α ≥ m`) merges bit-exactly — every group and
/// the total are union-merged L0 sketches, so even the space accounting
/// agrees.
#[test]
fn trivial_branch_shards_merge_bit_exactly() {
    let system = uniform_incidence(200, 12, 0.1, 21);
    let n = system.num_elements();
    let m = system.num_sets();
    let config = EstimatorConfig::practical(31);
    let edges = edge_stream(&system, ArrivalOrder::RoundRobin);
    // k·α = 8·4 = 32 ≥ m = 12 → trivial regime.
    let serial = MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, edges.len());
    assert!(serial.trivial);
    for shards in [2usize, 5] {
        let config = config.clone().with_shards(shards);
        let sharded = MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 32);
        assert!(sharded.trivial);
        assert_eq!(serial.estimate.to_bits(), sharded.estimate.to_bits());
        assert_eq!(serial.space_words, sharded.space_words, "trivial merge is bit-exact");
    }
}
