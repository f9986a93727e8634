//! E9 — stream throughput: edges/second of the estimator (per α) and of
//! every streaming baseline on a shared workload, plus the batched
//! ingestion engine's threads × batch-size matrix on the default RMAT
//! workload. Not a paper figure (the paper does not evaluate
//! wall-clock), but a required deployment-side view of the trade-off:
//! space is not the only cost of small α.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_throughput
//! ```

use std::time::Instant;

use kcov_baselines::{MvEdgeArrival, SketchedGreedy};
use kcov_bench::{bench_out_path, bench_smoke, coarse_config, fmt, print_table};
use kcov_core::{EstimatorConfig, MaxCoverEstimator};
use kcov_obs::json::Json;
use kcov_stream::gen::{rmat_incidence, uniform_fixed_size, RmatParams};
use kcov_stream::{edge_stream, ArrivalOrder, Edge};

fn throughput<F: FnMut(Edge)>(edges: &[Edge], mut observe: F) -> f64 {
    // Repeat the pass until enough wall clock accumulates: the scalar
    // baselines run millions of edges per second, so a single pass over
    // the smoke workload lasts ~2 ms and its reading is scheduler
    // noise — which the bench_compare gate would then flag as a fake
    // regression. Re-feeding a stateful algorithm is fine here; only
    // the per-edge cost is being priced, not the answer.
    let t0 = Instant::now();
    let mut seen = 0u64;
    for _ in 0..1000 {
        for &e in edges {
            observe(e);
        }
        seen += edges.len() as u64;
        if t0.elapsed().as_millis() >= 100 {
            break;
        }
    }
    seen as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    println!("E9: per-edge throughput of the streaming algorithms");
    // KCOV_BENCH_SMOKE shrinks every workload to a seconds-scale fixed
    // instance for the CI regression gate; the JSON schema is unchanged
    // so bench_compare can diff smoke runs against a smoke baseline.
    let smoke = bench_smoke();
    if smoke {
        println!("(KCOV_BENCH_SMOKE: reduced workloads)");
    }
    // Smoke k stays below m/32 so even alpha=32 avoids the trivial
    // `k*alpha >= m` branch — the hot-path breakdown needs lanes.
    let (n, m, k) = if smoke {
        (5_000usize, 500usize, 12usize)
    } else {
        (50_000usize, 5_000usize, 64usize)
    };
    let system = uniform_fixed_size(n, m, if smoke { 40 } else { 100 }, 1);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(9));
    println!("workload: n={n} m={m} k={k}, {} edges", edges.len());

    let mut rows = Vec::new();
    let mut json_estimator = Vec::new();
    let mut json_baselines = Vec::new();
    for alpha in [2.0f64, 8.0, 32.0] {
        let mut config = EstimatorConfig::practical(3);
        config.reps = Some(1);
        // The production hot path: batched ingestion through the shared
        // fingerprint block (DESIGN.md §12), attributed per phase —
        // hash+mix, lane rejection, sketch updates — by the estimator's
        // own time ledger (DESIGN.md §15), so these are the exact
        // numbers `maxkcov prof --time` reports. Best of three runs:
        // the regression gate compares against a committed baseline, so
        // one slow-scheduled pass must not read as a fake regression.
        let runs = if smoke { 3 } else { 1 };
        let mut est = MaxCoverEstimator::new(n, m, k, alpha, &config);
        let mut b = kcov_bench::hot_path_breakdown(&mut est, &edges, 8192);
        for _ in 1..runs {
            let mut fresh = MaxCoverEstimator::new(n, m, k, alpha, &config);
            let rb = kcov_bench::hot_path_breakdown(&mut fresh, &edges, 8192);
            if rb.total_ns < b.total_ns {
                b = rb;
                est = fresh;
            }
        }
        let eps = edges.len() as f64 * 1e9 / b.total_ns as f64;
        let per_edge = |ns: u64| ns as f64 / edges.len() as f64;
        rows.push(vec![
            format!("this paper alpha={alpha}"),
            fmt(eps / 1e6),
            est.num_lanes().to_string(),
        ]);
        println!(
            "  alpha={alpha}: hash {:.0} + lane-reject {:.0} + sketch-update {:.0} ns/edge",
            per_edge(b.hash_ns),
            per_edge(b.lane_reject_ns),
            per_edge(b.sketch_update_ns)
        );
        json_estimator.push(Json::obj(vec![
            ("alpha", Json::Num(alpha)),
            ("edges_per_s", Json::Num(eps)),
            ("lanes", Json::Num(est.num_lanes() as f64)),
            ("hash_ns", Json::Num(b.hash_ns as f64)),
            ("lane_reject_ns", Json::Num(b.lane_reject_ns as f64)),
            ("sketch_update_ns", Json::Num(b.sketch_update_ns as f64)),
        ]));
    }
    {
        let mut alg = SketchedGreedy::new(m, 48, 5);
        let eps = throughput(&edges, |e| alg.observe(e));
        rows.push(vec!["BEM sketched greedy".into(), fmt(eps / 1e6), "-".into()]);
        json_baselines.push(Json::obj(vec![
            ("name", Json::Str("bem_sketched_greedy".into())),
            ("edges_per_s", Json::Num(eps)),
        ]));
    }
    {
        let mut alg = MvEdgeArrival::new(n, m, k, 0.4, 7);
        let eps = throughput(&edges, |e| alg.observe(e));
        rows.push(vec!["MV element sampling".into(), fmt(eps / 1e6), "-".into()]);
        json_baselines.push(Json::obj(vec![
            ("name", Json::Str("mv_element_sampling".into())),
            ("edges_per_s", Json::Num(eps)),
        ]));
    }
    print_table(
        "edge-arrival observe throughput",
        &["algorithm", "Medges/s", "(z,rep) lanes"],
        &rows,
    );
    println!("\nshape check: throughput falls with the lane count (log n guesses),");
    println!("not with alpha directly; the Õ(m) baselines are faster per edge but");
    println!("hold asymptotically more state.");

    // Batched ingestion matrix: threads × batch size on the default RMAT
    // workload. Every cell must produce the bit-identical estimate of
    // the serial pass (one thread, the CLI's 1024-edge chunks) — the
    // engine's determinism contract.
    println!("\nE9b: batched ingestion engine, threads x batch size (rmat workload)");
    let (bn, bm, bk, balpha) = if smoke {
        (5_000usize, 400usize, 16usize, 8.0f64)
    } else {
        (50_000usize, 4_000usize, 64usize, 8.0f64)
    };
    let bsystem = rmat_incidence(
        bn,
        bm,
        if smoke { 60_000 } else { 600_000 },
        RmatParams::default(),
        11,
    );
    let bedges = edge_stream(&bsystem, ArrivalOrder::Shuffled(5));
    let bconfig = coarse_config(3, bn, 2);
    println!("workload: n={bn} m={bm} k={bk} alpha={balpha}, {} edges", bedges.len());

    let t0 = Instant::now();
    let reference = MaxCoverEstimator::run(bn, bm, bk, balpha, &bconfig, &bedges, 1024);
    let serial_eps = bedges.len() as f64 / t0.elapsed().as_secs_f64();

    let mut matrix = vec![vec![
        "serial".into(),
        "1024".into(),
        fmt(serial_eps / 1e6),
        "1.00".into(),
        format!("{:.1}", reference.estimate),
    ]];
    let mut json_batched = Vec::new();
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let batch_sizes: &[usize] = if smoke { &[1024] } else { &[1024, 16_384] };
    for &threads in thread_counts {
        for &batch in batch_sizes {
            let config = bconfig.clone().with_threads(threads);
            let t0 = Instant::now();
            let out = MaxCoverEstimator::run(bn, bm, bk, balpha, &config, &bedges, batch);
            let eps = bedges.len() as f64 / t0.elapsed().as_secs_f64();
            assert_eq!(
                reference.estimate.to_bits(),
                out.estimate.to_bits(),
                "estimate diverged at threads={threads} batch={batch}"
            );
            matrix.push(vec![
                threads.to_string(),
                batch.to_string(),
                fmt(eps / 1e6),
                format!("{:.2}", eps / serial_eps),
                format!("{:.1}", out.estimate),
            ]);
            json_batched.push(Json::obj(vec![
                ("threads", Json::Num(threads as f64)),
                ("batch", Json::Num(batch as f64)),
                ("edges_per_s", Json::Num(eps)),
                ("speedup", Json::Num(eps / serial_eps)),
            ]));
        }
    }
    print_table(
        "batched ingestion: threads x batch size",
        &["threads", "batch", "Medges/s", "speedup", "estimate"],
        &matrix,
    );
    println!("\nall cells bit-identical to the serial estimate — thread");
    println!("count and chunking change wall-clock only, never the answer.");

    // Sharded ingestion matrix: the stream is partitioned across S full
    // estimator replicas (scoped threads) merged at finalize. Every
    // cell must report the identical estimate of the serial pass (the
    // merge contract of DESIGN.md §8); the timing column includes the
    // replica clones and the final merge fold.
    println!("\nE12: sharded ingestion, shards x batch size (same rmat workload)");
    let mut shard_matrix = vec![vec![
        "serial".into(),
        "1024".into(),
        fmt(serial_eps / 1e6),
        "1.00".into(),
        format!("{:.1}", reference.estimate),
    ]];
    let mut json_sharded = Vec::new();
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    for &shards in shard_counts {
        for &batch in batch_sizes {
            let config = bconfig.clone().with_shards(shards);
            let t0 = Instant::now();
            let out = MaxCoverEstimator::run(bn, bm, bk, balpha, &config, &bedges, batch);
            let eps = bedges.len() as f64 / t0.elapsed().as_secs_f64();
            assert_eq!(
                reference.estimate.to_bits(),
                out.estimate.to_bits(),
                "estimate diverged at shards={shards} batch={batch}"
            );
            shard_matrix.push(vec![
                shards.to_string(),
                batch.to_string(),
                fmt(eps / 1e6),
                format!("{:.2}", eps / serial_eps),
                format!("{:.1}", out.estimate),
            ]);
            json_sharded.push(Json::obj(vec![
                ("shards", Json::Num(shards as f64)),
                ("batch", Json::Num(batch as f64)),
                ("edges_per_s", Json::Num(eps)),
                ("speedup", Json::Num(eps / serial_eps)),
            ]));
        }
    }
    print_table(
        "sharded ingestion: shards x batch size",
        &["shards", "batch", "Medges/s", "speedup", "estimate"],
        &shard_matrix,
    );
    println!("\nall cells identical to the serial estimate — sharding the stream");
    println!("across merged replicas never changes the answer. Each shard runs a");
    println!("full replica, so S shards cost S times the state. On a single-core");
    println!("container a speedup over the serial row comes from chunk size and");
    println!("scheduling, not from shard parallelism.");

    // Machine-readable twin of the tables above (timings vary per host;
    // the schema and the determinism assertions do not).
    let doc = Json::obj(vec![
        ("experiment", Json::Str("throughput".into())),
        (
            "workload",
            Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("m", Json::Num(m as f64)),
                ("k", Json::Num(k as f64)),
                ("edges", Json::Num(edges.len() as f64)),
            ]),
        ),
        ("estimator", Json::Arr(json_estimator)),
        ("baselines", Json::Arr(json_baselines)),
        (
            "rmat_workload",
            Json::obj(vec![
                ("n", Json::Num(bn as f64)),
                ("m", Json::Num(bm as f64)),
                ("k", Json::Num(bk as f64)),
                ("alpha", Json::Num(balpha)),
                ("edges", Json::Num(bedges.len() as f64)),
                ("serial_edges_per_s", Json::Num(serial_eps)),
            ]),
        ),
        ("batched", Json::Arr(json_batched)),
        ("sharded", Json::Arr(json_sharded)),
    ]);
    let path = bench_out_path("results/BENCH_throughput.json");
    let path = path.as_str();
    match std::fs::write(path, doc.render_pretty(2)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
