//! E3 — the §4 case analysis as an ablation: which oracle subroutine
//! wins on each of the three structural regimes, and what each
//! subroutine alone estimates.
//!
//! The paper's correctness argument is "on any instance at least one of
//! the three subroutines succeeds"; this experiment shows each regime
//! exercising its designated subroutine.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_regimes
//! ```

use std::sync::Arc;

use kcov_baselines::greedy_max_cover;
use kcov_bench::{fmt, print_table};
use kcov_core::{LargeCommon, LargeSet, Oracle, Params, SmallSet, SubroutineKind};
use kcov_hash::{KWise, SeedSequence};
use kcov_stream::gen::{common_heavy, few_large, planted_cover};
use kcov_stream::{edge_stream, ArrivalOrder, SetSystem};

struct Regime {
    name: &'static str,
    system: SetSystem,
    k: usize,
    expected: SubroutineKind,
}

fn regimes() -> Vec<Regime> {
    vec![
        Regime {
            name: "I: common-heavy",
            system: common_heavy(6_000, 1_200, 1),
            k: 20,
            expected: SubroutineKind::LargeCommon,
        },
        Regime {
            name: "II: few-large",
            system: few_large(6_000, 900, 4, 1_100, 2),
            k: 20,
            expected: SubroutineKind::LargeSet,
        },
        Regime {
            // k = 1 puts the oracle in the sα ≥ 2k branch (Claim 4.3):
            // SmallSet is off and the guarantee rests on LargeSet alone.
            name: "II': single-dominant (k=1)",
            system: few_large(6_000, 900, 1, 1_500, 4),
            k: 1,
            expected: SubroutineKind::LargeSet,
        },
        Regime {
            name: "III: many-small (needle)",
            system: planted_cover(6_000, 1_200, 80, 0.5, 3, 3).system,
            k: 80,
            expected: SubroutineKind::SmallSet,
        },
    ]
}

fn main() {
    println!("E3: oracle subroutine ablation across the paper's three regimes");
    let alpha = 8.0;
    let mut rows = Vec::new();
    for regime in regimes() {
        let n = regime.system.num_elements();
        let m = regime.system.num_sets();
        let k = regime.k;
        let params = Params::practical(m, n, k, alpha);
        let edges = edge_stream(&regime.system, ArrivalOrder::Shuffled(42));
        let greedy = greedy_max_cover(&regime.system, k).coverage as f64;

        // Each layer consumes the set fingerprints of a base this
        // experiment holds, one base per layer, drawn from the seed and
        // label that layer's private-base constructor uses.
        let degree = Params::hash_degree(params.mode, m, n);
        let base = |seed: u64, label: &str| {
            let base = KWise::new(degree, SeedSequence::labeled(seed, label).next_seed());
            let fps: Vec<u64> = edges.iter().map(|e| base.hash(e.set as u64)).collect();
            (Arc::new(base), fps)
        };
        // Full oracle (universe reduction skipped: regimes are built
        // with OPT covering a constant fraction already).
        let (b, fps) = base(7, "oracle-base");
        let mut oracle = Oracle::with_base(n, &params, false, 7, b);
        oracle.observe_fp_batch(&edges, &fps);
        // Standalone subroutines for the ablation columns.
        let (b, fps) = base(17, "large-common-base");
        let mut lc = LargeCommon::with_base(n, &params, false, 17, b);
        lc.observe_fp_batch(&edges, &fps);
        let (b, fps) = base(27, "large-set-base");
        let mut ls = LargeSet::with_base(n, &params, 27, b);
        ls.observe_fp_batch(&edges, &fps);
        let ss = params.small_set_active().then(|| {
            let (b, fps) = base(37, "small-set-base");
            let mut ss = SmallSet::with_base(n, &params, 37, b);
            ss.observe_fp_batch(&edges, &fps);
            ss
        });
        let out = oracle.finalize();
        let sub_est = |r: Option<(f64, kcov_core::Witness)>| {
            r.map(|(v, _)| fmt(v))
                .unwrap_or_else(|| "infeasible".into())
        };
        rows.push(vec![
            regime.name.into(),
            fmt(greedy),
            sub_est(lc.finalize()),
            sub_est(ls.finalize()),
            ss.as_ref()
                .map(|s| sub_est(s.finalize()))
                .unwrap_or_else(|| "off".into()),
            format!("{:?}", out.winner),
            format!("{:?} (expected)", regime.expected),
        ]);
    }
    print_table(
        &format!("per-regime subroutine estimates   [alpha={alpha}]"),
        &[
            "regime",
            "greedy",
            "LargeCommon",
            "LargeSet",
            "SmallSet",
            "winner",
            "expected",
        ],
        &rows,
    );
    println!("\nshape check: each regime's designated subroutine is feasible (the");
    println!("paper's case analysis guarantees *feasibility*, not that it beats the");
    println!("other — sound — answers; on II the opportunistic SmallSet may win,");
    println!("which is why row II' pins k = 1, where SmallSet is provably off).");
}
