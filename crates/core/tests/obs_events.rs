//! Contract suite for the observability layer: enabling a recorder
//! must never change an estimate (bit-for-bit), and the emitted events
//! must account exactly — per-lane edge counts match the stream
//! length, the subroutines' space-ledger subtrees sum to the reported
//! total, shard timings cover every shard, and the phase spans cover
//! ingest/merge/finalize.

use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_obs::audit::Trace;
use kcov_obs::Recorder;
use kcov_sketch::SpaceUsage;
use kcov_stream::gen::planted_cover;
use kcov_stream::{edge_stream, ArrivalOrder, Edge};

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

fn workload() -> (usize, usize, Vec<Edge>) {
    let inst = planted_cover(1_500, 150, 8, 0.8, 30, 5);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
    (inst.system.num_elements(), inst.system.num_sets(), edges)
}

#[test]
fn recorder_never_changes_the_estimate() {
    let (n, m, edges) = workload();
    let plain = fast_config(3, n);
    let mut traced = fast_config(3, n);
    traced.recorder = Recorder::enabled();
    let a = MaxCoverEstimator::run(n, m, 8, 4.0, &plain, &edges, 1024);
    let b = MaxCoverEstimator::run(n, m, 8, 4.0, &traced, &edges, 1024);
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    assert_eq!(a.winning_z, b.winning_z);
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.space_words, b.space_words);
    // Same for the sharded path.
    let plain = plain.with_shards(3);
    let mut traced = fast_config(3, n).with_shards(3);
    traced.recorder = Recorder::enabled();
    let a = MaxCoverEstimator::run(n, m, 8, 4.0, &plain, &edges, 64);
    let b = MaxCoverEstimator::run(n, m, 8, 4.0, &traced, &edges, 64);
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
}

#[test]
fn lane_events_account_for_every_edge() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(7, n);
    config.recorder = rec.clone();
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    est.observe_batch(&edges);
    let out = est.finalize();

    let lanes = rec.events_of("lane");
    assert_eq!(lanes.len(), est.num_lanes(), "one lane event per (z, rep) lane");
    for ev in &lanes {
        // Every lane consumes every edge of the stream.
        assert_eq!(ev.u64_field("edges").unwrap(), edges.len() as u64);
        assert!(ev.str_field("winner").is_some());
        assert!(ev.field("qualifying").is_some());
    }
    assert_eq!(est.edges_seen(), edges.len() as u64);

    let summary = &rec.events_of("summary")[0];
    assert_eq!(summary.u64_field("edges").unwrap(), edges.len() as u64);
    assert_eq!(
        summary.f64_field("estimate").unwrap().to_bits(),
        out.estimate.to_bits()
    );
}

#[test]
fn subroutine_space_snapshots_sum_to_the_total() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(11, n);
    config.recorder = rec.clone();
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    est.observe_batch(&edges);
    est.finalize();

    // The auditor checks that the ledger root is the summary total and
    // that every subroutine has a ledger subtree; those subtrees (the
    // per-lane subroutines plus the estimator-global front end and
    // universe mix) partition the total.
    let trace = Trace::of(&rec).expect("events parse back");
    assert!(trace.violations().is_empty(), "{:?}", trace.violations());
    assert_eq!(trace.summary.map(|s| s.1), Some(est.space_words() as u64));
    let words = trace.subroutine_words();
    let sum: u64 = words.iter().map(|w| w.2.unwrap()).sum();
    assert_eq!(sum, est.space_words() as u64);
    assert_eq!(rec.events_of("lane").len(), est.num_lanes());
    for name in ["fingerprints", "universe"] {
        assert!(
            words.iter().any(|&(_, n, w)| n == name && w > Some(0)),
            "{name} must be accounted"
        );
    }
}

#[test]
fn shard_events_cover_the_stream_and_merge_is_timed() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(13, n).with_shards(4);
    config.recorder = rec.clone();
    MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 64);

    let shards = rec.events_of("shard");
    assert_eq!(shards.len(), 4, "one shard event per replica");
    let edge_sum: u64 = shards.iter().map(|e| e.u64_field("edges").unwrap()).sum();
    assert_eq!(edge_sum, edges.len() as u64, "shard edge counts partition the stream");

    let phases: Vec<String> = rec
        .events_of("phase")
        .iter()
        .map(|e| e.str_field("phase").unwrap().to_string())
        .collect();
    assert!(phases.contains(&"ingest".to_string()));
    assert!(phases.contains(&"merge".to_string()));
    assert!(phases.contains(&"finalize".to_string()));
}

#[test]
fn disabled_recorder_emits_nothing() {
    let (n, m, edges) = workload();
    let config = fast_config(17, n);
    assert!(!config.recorder.is_enabled());
    MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 1024);
    assert!(config.recorder.events().is_empty());
    assert!(config.recorder.counters().is_empty());
    let mut buf = Vec::new();
    config.recorder.write_ndjson(&mut buf).unwrap();
    assert!(buf.is_empty(), "the disabled recorder writes no NDJSON");
}

#[test]
fn heartbeats_fire_on_edge_count_cadence() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(23, n).with_heartbeat(500);
    config.recorder = rec.clone();
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    for &e in &edges {
        est.observe(e);
    }
    est.finalize();

    let beats = rec.events_of("heartbeat");
    assert!(!beats.is_empty(), "expected heartbeats on a {}-edge stream", edges.len());
    // Per-edge ingestion captures at exact multiples of the cadence,
    // one event per lane per snapshot.
    let expected_snaps = edges.len() as u64 / 500;
    assert_eq!(beats.len() as u64, expected_snaps * est.num_lanes() as u64);
    for b in &beats {
        assert_eq!(b.u64_field("at_edges").unwrap() % 500, 0);
        assert_eq!(b.str_field("stage"), Some("estimate"));
        assert_eq!(b.u64_field("shard"), Some(0));
        assert!(b.field("lc_fill").is_some());
        assert!(b.field("space_words").is_some());
    }
    // Fill trajectories are non-decreasing per lane in this workload's
    // early phase — at minimum the last snapshot's space must be
    // positive and lane ids must cycle 0..num_lanes.
    let lanes: Vec<u64> = beats.iter().map(|b| b.u64_field("lane").unwrap()).collect();
    for (i, &l) in lanes.iter().enumerate() {
        assert_eq!(l, i as u64 % est.num_lanes() as u64, "lane order within each beat");
    }
    // The per-heartbeat delta histograms rode along.
    let hists = rec.events_of("histogram");
    assert!(hists
        .iter()
        .any(|h| h.str_field("name") == Some("ingest.fill_delta")));
}

#[test]
fn heartbeats_are_bit_neutral_across_seeds_shards_threads() {
    let (n, m, edges) = workload();
    for seed in [3u64, 29] {
        for (shards, threads) in [(1usize, 1usize), (1, 4), (3, 2)] {
            let plain = fast_config(seed, n).with_shards(shards).with_threads(threads);
            let mut beating = plain.clone().with_heartbeat(300);
            beating.recorder = Recorder::enabled();
            let a = MaxCoverEstimator::run(n, m, 8, 4.0, &plain, &edges, 128);
            let b = MaxCoverEstimator::run(n, m, 8, 4.0, &beating, &edges, 128);
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "seed {seed} shards {shards} threads {threads}"
            );
            assert_eq!(a.winning_z, b.winning_z);
            assert_eq!(a.winner, b.winner);
            assert_eq!(a.space_words, b.space_words);
        }
    }
}

#[test]
fn sharded_heartbeats_are_sorted_and_deterministic() {
    let (n, m, edges) = workload();
    let run = || {
        let rec = Recorder::enabled();
        let mut config = fast_config(31, n).with_shards(3).with_heartbeat(400);
        config.recorder = rec.clone();
        MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 128);
        rec.events_of("heartbeat")
    };
    let beats = run();
    assert!(!beats.is_empty());
    // Emission order is sorted by (shard, at_edges, lane) regardless of
    // worker scheduling.
    let keys: Vec<(u64, u64, u64)> = beats
        .iter()
        .map(|b| {
            (
                b.u64_field("shard").unwrap(),
                b.u64_field("at_edges").unwrap(),
                b.u64_field("lane").unwrap(),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "heartbeats must emit in deterministic order");
    assert!(keys.iter().any(|k| k.0 > 0), "replica shards must contribute beats");
    // And the full heartbeat payload is identical across two runs —
    // modulo the trailing `ns` field, the cumulative lane wall clock,
    // which like every field named exactly `ns` is a wall-clock
    // payload excluded from determinism comparisons (DESIGN.md §10).
    let strip_ns = |line: String| match line.rfind(",\"ns\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line,
    };
    let again = run();
    let lines: Vec<String> = beats.iter().map(|b| strip_ns(b.to_json_line())).collect();
    let lines2: Vec<String> = again.iter().map(|b| strip_ns(b.to_json_line())).collect();
    assert_eq!(lines, lines2, "heartbeat events must be byte-identical across runs");
}

#[test]
fn heartbeat_without_recorder_captures_nothing() {
    let (n, m, edges) = workload();
    let config = fast_config(37, n).with_heartbeat(100);
    assert!(!config.recorder.is_enabled());
    // No sink → no capture; outputs still match a heartbeat-free run.
    let out = MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 1024);
    let base = MaxCoverEstimator::run(n, m, 8, 4.0, &fast_config(37, n), &edges, 1024);
    assert_eq!(out.estimate.to_bits(), base.estimate.to_bits());
}

#[test]
fn two_pass_heartbeats_tag_both_stages() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(41, n).with_heartbeat(400);
    config.recorder = rec.clone();
    let cover = kcov_core::run_two_pass(n, m, 8, 4.0, &config, &edges, 1024);
    // Heartbeat neutrality on the reported cover too.
    let plain = fast_config(41, n);
    let base = kcov_core::run_two_pass(n, m, 8, 4.0, &plain, &edges, 1024);
    assert_eq!(cover.sets, base.sets);
    assert_eq!(cover.estimate.to_bits(), base.estimate.to_bits());
    let stages: std::collections::BTreeSet<String> = rec
        .events_of("heartbeat")
        .iter()
        .map(|b| b.str_field("stage").unwrap().to_string())
        .collect();
    assert!(stages.contains("estimate"), "pass-1 heartbeats present: {stages:?}");
    assert!(stages.contains("pass2"), "pass-2 heartbeats present: {stages:?}");
}

#[test]
fn batched_ingestion_records_batch_histograms() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(43, n);
    config.recorder = rec.clone();
    let batched = MaxCoverEstimator::run(n, m, 8, 4.0, &config, &edges, 256);
    let serial = MaxCoverEstimator::run(n, m, 8, 4.0, &fast_config(43, n), &edges, edges.len());
    assert_eq!(batched.estimate.to_bits(), serial.estimate.to_bits());
    let hists = rec.events_of("histogram");
    let batch_hist = hists
        .iter()
        .find(|h| h.str_field("name") == Some("ingest.batch_edges"))
        .expect("batch-size histogram present");
    assert_eq!(
        batch_hist.u64_field("sum").unwrap(),
        edges.len() as u64,
        "batch sizes sum to the stream length"
    );
    assert_eq!(
        batch_hist.u64_field("count").unwrap(),
        edges.len().div_ceil(256) as u64
    );
    assert!(hists
        .iter()
        .any(|h| h.str_field("name") == Some("ingest.batch_ns")));
}

/// Words attributed to a ledger path, from the emitted "ledger" events.
fn ledger_words(events: &[kcov_obs::Event], path: &str) -> Option<u64> {
    events
        .iter()
        .find(|e| e.str_field("path") == Some(path))
        .map(|e| e.u64_field("words").unwrap())
}

#[test]
fn ledger_rows_attribute_every_word_exactly() {
    let (n, m, edges) = workload();
    let rec = Recorder::enabled();
    let mut config = fast_config(47, n);
    config.recorder = rec.clone();
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    est.observe_batch(&edges);
    est.finalize();

    // The auditor re-checks the emitted rows: child counts and parent
    // sums for words and both heat counters, the root against the
    // summary, and every subroutine and lane subtree against its event.
    let trace = Trace::of(&rec).expect("events parse back");
    assert!(
        trace.space_violations().is_empty(),
        "{:?}",
        trace.space_violations()
    );
    let root = &trace.space_rows[0];
    assert_eq!(root.path, "estimator");
    assert_eq!(root.total.words, est.space_words() as u64);
    // Attribution lives on leaves only: leaf words partition the total.
    let leaf_sum: u64 = trace
        .space_rows
        .iter()
        .filter(|r| r.children == 0)
        .map(|r| r.total.words)
        .sum();
    assert_eq!(
        leaf_sum,
        est.space_words() as u64,
        "leaves must partition the total"
    );
    assert!(!trace.subroutines.is_empty());
    // The heat layer saw the stream: some component recorded updates.
    assert!(root.total.updates > 0, "heat counters must be harvested");
    assert!(root.total.touched_words > 0);
}

#[test]
fn trivial_regime_ledger_covers_the_whole_estimator() {
    let inst = planted_cover(300, 12, 8, 0.8, 20, 9);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
    let rec = Recorder::enabled();
    let mut config = EstimatorConfig::practical(19);
    config.recorder = rec.clone();
    let (n, m) = (inst.system.num_elements(), inst.system.num_sets());
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    est.observe_batch(&edges);
    let out = est.finalize();
    assert!(out.trivial);
    let rows = rec.events_of("ledger");
    assert_eq!(
        ledger_words(&rows, "estimator/trivial"),
        Some(est.space_words() as u64),
        "the trivial branch owns every resident word"
    );
    assert_eq!(ledger_words(&rows, "estimator"), Some(est.space_words() as u64));
    // The per-group L0 sketches saw every edge.
    let trivial = rows
        .iter()
        .find(|e| e.str_field("path") == Some("estimator/trivial"))
        .unwrap();
    assert!(trivial.u64_field("updates").unwrap() > 0);
}

#[test]
fn trivial_regime_snapshot_accounts_exactly() {
    // k·α ≥ m → the trivial branch; its single subroutine snapshot is
    // the whole space.
    let inst = planted_cover(300, 12, 8, 0.8, 20, 9);
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
    let rec = Recorder::enabled();
    let mut config = EstimatorConfig::practical(19);
    config.recorder = rec.clone();
    let (n, m) = (inst.system.num_elements(), inst.system.num_sets());
    let mut est = MaxCoverEstimator::new(n, m, 8, 4.0, &config);
    est.observe_batch(&edges);
    let out = est.finalize();
    assert!(out.trivial);
    let subs = rec.events_of("subroutine");
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].str_field("name").unwrap(), "trivial");
    assert_eq!(
        Trace::of(&rec).unwrap().subroutine_words(),
        [(0, "trivial", Some(est.space_words() as u64))]
    );
    assert!(rec.events_of("lane").is_empty(), "no lanes run in the trivial regime");
}
