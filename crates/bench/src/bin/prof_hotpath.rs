//! Developer utility: raw per-operation timings of the sketch hot path
//! and a full oracle observe — the quick number to check after touching
//! anything on the update path (criterion benches give the rigorous
//! version; this prints in seconds, not minutes).
//!
//! ```text
//! cargo run --release -p kcov-bench --bin prof_hotpath
//! ```

use std::time::Instant;

fn main() {
    // Raw component timings at 200k ops each.
    let mut hh = kcov_sketch::F2HeavyHitter::for_phi(0.01, 1);
    let t = Instant::now();
    for i in 0..200_000u64 { hh.insert(i % 5000); }
    println!("F2HeavyHitter insert: {:?}/op", t.elapsed() / 200_000);

    let mut cs = kcov_sketch::CountSketch::new(5, 4096, 1);
    let t = Instant::now();
    for i in 0..200_000u64 { cs.insert(i % 5000); }
    println!("CountSketch insert:   {:?}/op", t.elapsed() / 200_000);
    let t = Instant::now();
    let mut acc = 0i64;
    for i in 0..200_000u64 { acc += cs.query(i % 5000); }
    println!("CountSketch query:    {:?}/op ({acc})", t.elapsed() / 200_000);

    let mut fc = kcov_sketch::F2Contributing::new(kcov_sketch::ContributingConfig::new(0.01, 64), 10_000, 10_000, 1);
    let t = Instant::now();
    for i in 0..200_000u64 { fc.insert(i % 5000); }
    println!("F2Contributing insert:{:?}/op", t.elapsed() / 200_000);

    // Full oracle observe.
    let params = kcov_core::Params::practical(400, 2000, 50, 8.0);
    let mut oracle = kcov_core::Oracle::new(2000, &params, false, 3);
    let t = Instant::now();
    for i in 0..200_000u64 { oracle.observe(kcov_stream::Edge::new((i % 400) as u32, (i % 2000) as u32)); }
    println!("Oracle observe:       {:?}/op", t.elapsed() / 200_000);

    // Per-subroutine ingest cost at a representative lane: the three
    // oracle cases priced separately over the same fingerprinted chunk
    // stream, to see which case dominates the sketch-update phase.
    {
        let (n, m, k, alpha) = (20_000usize, 2_000usize, 64usize, 8.0f64);
        let system = kcov_stream::gen::uniform_fixed_size(n, m, 60, 1);
        let edges = kcov_stream::edge_stream(&system, kcov_stream::ArrivalOrder::Shuffled(9));
        let base = std::sync::Arc::new(kcov_hash::KWise::new(8, 4242));
        let fps: Vec<u64> = edges
            .iter()
            .map(|e| base.hash(e.set as u64))
            .collect();
        println!("Per-subroutine batched ingest ({} edges, z sweep):", edges.len());
        for z in [256usize, 4096, 16384] {
            let params = kcov_core::Params::practical(m, z, k, alpha);
            let mut lc = kcov_core::LargeCommon::with_base(z, &params, false, 7, base.clone());
            let t = Instant::now();
            for (chunk, fchunk) in edges.chunks(8192).zip(fps.chunks(8192)) {
                lc.observe_fp_batch(chunk, fchunk);
            }
            let lc_ns = t.elapsed().as_nanos() as u64;
            let mut ls = kcov_core::LargeSet::with_base(z, &params, 7, base.clone());
            let t = Instant::now();
            for (chunk, fchunk) in edges.chunks(8192).zip(fps.chunks(8192)) {
                ls.observe_fp_batch(chunk, fchunk);
            }
            let ls_ns = t.elapsed().as_nanos() as u64;
            let ss_ns = if params.small_set_active() {
                let mut ss = kcov_core::SmallSet::with_base(z, &params, 7, base.clone());
                let t = Instant::now();
                for (chunk, fchunk) in edges.chunks(8192).zip(fps.chunks(8192)) {
                    ss.observe_fp_batch(chunk, fchunk);
                }
                t.elapsed().as_nanos() as u64
            } else {
                0
            };
            let per = |ns: u64| ns as f64 / edges.len() as f64;
            println!(
                "  z={z:6}: large_common {:7.1} + large_set {:7.1} + small_set {:7.1} ns/edge",
                per(lc_ns),
                per(ls_ns),
                per(ss_ns)
            );
        }
    }

    // Estimator hot path, per phase: hash+mix / lane reject / sketch
    // update, attributed by the time ledger over one full batched
    // ingest (DESIGN.md §12/§15).
    let (n, m, k, alpha) = (20_000usize, 2_000usize, 64usize, 8.0f64);
    let system = kcov_stream::gen::uniform_fixed_size(n, m, 60, 1);
    let edges = kcov_stream::edge_stream(&system, kcov_stream::ArrivalOrder::Shuffled(9));
    let mut config = kcov_core::EstimatorConfig::practical(3);
    config.reps = Some(1);
    let mut est = kcov_core::MaxCoverEstimator::new(n, m, k, alpha, &config);
    let b = kcov_bench::hot_path_breakdown(&mut est, &edges, 8192);
    let per_edge = |ns: u64| ns as f64 / edges.len() as f64;
    println!(
        "Estimator batched ingest ({} edges, {} lanes, alpha={alpha}):",
        edges.len(),
        est.num_lanes()
    );
    println!("  hash+mix phase:      {:8.1} ns/edge", per_edge(b.hash_ns));
    println!("  lane-reject phase:   {:8.1} ns/edge", per_edge(b.lane_reject_ns));
    println!("  sketch-update phase: {:8.1} ns/edge", per_edge(b.sketch_update_ns));
    println!(
        "  total:               {:8.1} ns/edge ({:.3} Medges/s)",
        per_edge(b.total_ns),
        edges.len() as f64 * 1e3 / b.total_ns as f64,
    );
}
