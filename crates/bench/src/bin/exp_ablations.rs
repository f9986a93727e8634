//! E8 — ablations of the design choices DESIGN.md calls out:
//!
//! (a) **Multi-layered set sampling** (§4.1): the paper samples at every
//!     rate `β_g·k/m` for `β_g = 2^i ≤ α` instead of the single classic
//!     rate. On an instance whose common elements live at a *mid*
//!     frequency layer, only the matching layer fires — the single-rate
//!     variant (layer β = 1 alone) misses it.
//! (b) **Universe reduction** (§3.1): running the oracle directly on the
//!     raw universe fails when `OPT ≪ n/η`; the z-guess grid restores
//!     the estimate. This is why Fig 1 wraps the oracle at all.
//! (c) **Offline solver inside `SmallSet`**: full lazy greedy vs
//!     stochastic greedy vs local search on the same instances —
//!     quality/time of the `O(1)`-approximation the paper assumes.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_ablations
//! ```

use std::sync::Arc;
use std::time::Instant;

use kcov_baselines::{greedy_max_cover, local_search_max_cover, stochastic_greedy};
use kcov_bench::{fmt, print_table};
use kcov_core::{EstimatorConfig, LargeCommon, MaxCoverEstimator, Params};
use kcov_hash::{KWise, SeedSequence};
use kcov_stream::gen::{planted_cover, uniform_fixed_size, zipf_set_sizes};
use kcov_stream::{edge_stream, ArrivalOrder, SetSystem};

/// Instance whose common elements sit at frequency ≈ m/(β*·k): only the
/// β ≥ β* sampling layers can cover them.
fn mid_layer_instance(n: usize, m: usize, k: usize, beta_star: usize, seed: u64) -> SetSystem {
    use kcov_hash::SplitMix64;
    let mut rng = SplitMix64::new(seed);
    let common = n / 4;
    let freq = (m / (beta_star * k)).max(2);
    let mut sets: Vec<Vec<u32>> = vec![Vec::new(); m];
    // Each common element appears in exactly `freq` random sets.
    for e in 0..common as u32 {
        for _ in 0..freq {
            let s = rng.next_below(m as u64) as usize;
            sets[s].push(e);
        }
    }
    // Rare filler so no set is empty.
    for s in sets.iter_mut() {
        s.push(common as u32 + rng.next_below((n - common) as u64) as u32);
    }
    SetSystem::new(n, sets)
}

fn main() {
    println!("E8: ablations");

    // (a) Multi-layered set sampling: per-layer certified estimates.
    // The classic single-rate policy samples at the *top* rate β = α
    // (enough to cover every common element); its certified value
    // divides by α. The multi-layer variant keeps the layer matching
    // the instance's common-frequency β*, dividing only by ≈ β* — an
    // α/β* factor, visible directly in the per-layer values.
    let (n, m, k) = (8_000usize, 2_000usize, 25usize);
    let alpha = 16.0;
    let mut rows = Vec::new();
    for beta_star in [1usize, 4, 16] {
        let system = mid_layer_instance(n, m, k, beta_star, 3);
        let params = Params::practical(m, n, k, alpha);
        // The set fingerprint base this experiment holds, drawn from the
        // seed and label `LargeCommon::new` uses for its private one.
        let base_seed = SeedSequence::labeled(9, "large-common-base").next_seed();
        let base = Arc::new(KWise::new(
            Params::hash_degree(params.mode, m, n),
            base_seed,
        ));
        let mut lc = LargeCommon::with_base(n, &params, false, 9, base.clone());
        let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
        let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.set as u64)).collect();
        lc.observe_fp_batch(&edges, &fps);
        let lanes = lc.lane_values();
        // Certified value of a firing layer β: (2/3)·VAL/β (Fig 3).
        let cert = |(b, v, t): &(f64, f64, f64)| {
            if v >= t {
                (2.0 / 3.0) * v / b
            } else {
                0.0
            }
        };
        let best_multi = lanes.iter().map(cert).fold(0.0f64, f64::max);
        let top_only = lanes.last().map(cert).unwrap_or(0.0);
        rows.push(vec![
            beta_star.to_string(),
            fmt(best_multi),
            fmt(top_only),
            fmt(best_multi / top_only.max(1e-9)),
        ]);
    }
    print_table(
        "(a) multi-layered set sampling: best layer vs single top-rate (β = α) policy",
        &["beta*", "multi-layer est", "top-rate-only est", "multi/top ratio"],
        &rows,
    );

    // (b) Universe reduction.
    let inst = planted_cover(40_000, 1_500, 20, 0.02, 8, 5); // OPT = 800 ≪ n/4
    let nn = inst.system.num_elements();
    let mm = inst.system.num_sets();
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
    let mut rows = Vec::new();
    for (label, zs) in [
        ("no reduction (z = n)", Some(vec![nn as u64])),
        ("full z grid (Fig 1)", None),
    ] {
        let mut config = EstimatorConfig::practical(11);
        config.z_guesses = zs;
        config.reps = Some(2);
        let out = MaxCoverEstimator::run(nn, mm, 20, 8.0, &config, &edges, 1024);
        rows.push(vec![
            label.into(),
            fmt(out.estimate),
            fmt(out.estimate / inst.planted_coverage as f64),
            out.winning_z.to_string(),
        ]);
    }
    print_table(
        &format!(
            "(b) universe reduction with OPT = {} ≪ n/η = {}",
            inst.planted_coverage,
            nn / 4
        ),
        &["configuration", "estimate", "est/OPT", "winning z"],
        &rows,
    );

    // (c) Offline solvers.
    let mut rows = Vec::new();
    for (wname, system, k) in [
        ("uniform", uniform_fixed_size(4_000, 800, 80, 1), 16usize),
        ("zipf", zipf_set_sizes(4_000, 800, 800, 1.1, 2), 16usize),
    ] {
        let t0 = Instant::now();
        let g = greedy_max_cover(&system, k);
        let tg = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let sg = stochastic_greedy(&system, k, 0.1, 7);
        let ts = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let ls = local_search_max_cover(&system, k, 0.01, 3);
        let tl = t0.elapsed().as_secs_f64();
        rows.push(vec![
            wname.into(),
            format!("{} ({:.3}s)", g.coverage, tg),
            format!("{} ({:.3}s)", sg.estimated_coverage, ts),
            format!("{} ({:.3}s)", ls.estimated_coverage, tl),
        ]);
    }
    print_table(
        "(c) offline O(1)-approx solvers (quality (time))",
        &["workload", "lazy greedy", "stochastic greedy", "local search"],
        &rows,
    );
    println!("\nshape check: (a) the multi-layer estimate beats the single top-rate");
    println!("policy by ≈ α/β* — the factor Lemma 4.6 attributes to trying every");
    println!("rate; (b) the reduction grid tracks the raw-universe oracle to a small");
    println!("constant — its role is the worst-case η-promise of Theorem 3.6, not a");
    println!("win on benign instances; (c) greedy-class solvers agree within a few");
    println!("percent, so SmallSet's inner O(1)-approximation is not a bottleneck.");
}
