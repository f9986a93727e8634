//! E7 — substrate validation (Theorems 2.10, 2.11, 2.12): accuracy and
//! space of the sketches the max-coverage algorithm is built from.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_sketches
//! ```
//!
//! Exits 1 when a heavy hitter or a planted class goes unreported: both
//! sketches promise complete recall at these margins.

use kcov_bench::{fmt, print_table};
use kcov_sketch::{ContributingConfig, F2Contributing, L0Estimator, SpaceUsage};

fn main() {
    println!("E7: sketch substrate accuracy/space (Theorems 2.10-2.12)");
    let mut incomplete = Vec::new();

    // L0 estimation: error vs space (Theorem 2.12 wants (1±1/2), Õ(1)).
    let mut rows = Vec::new();
    for k in [16usize, 32, 64, 128, 256] {
        let mut max_rel = 0.0f64;
        let mut space = 0usize;
        for seed in 0..10u64 {
            let mut est = L0Estimator::new(k, 5, seed);
            let truth = 40_000u64;
            for i in 0..truth {
                est.insert(i.wrapping_mul(0x9e3779b97f4a7c15));
            }
            let rel = (est.estimate() - truth as f64).abs() / truth as f64;
            max_rel = max_rel.max(rel);
            space = space.max(est.space_words());
        }
        rows.push(vec![
            k.to_string(),
            space.to_string(),
            fmt(max_rel),
            fmt(1.0 / (k as f64).sqrt()),
        ]);
    }
    print_table(
        "L0 estimation: worst relative error over 10 seeds (n=40k distinct)",
        &["bottom-k", "space(words)", "max rel err", "1/sqrt(k)"],
        &rows,
    );

    // F2 heavy hitters: recall of planted heavy items (Theorem 2.10), on
    // a one-level finder: the unsampled level alone, at φ = γ, with the
    // Theorem 2.10 shape (5 rows, width 32/φ). Noise items are ids
    // 0..5000 and the heavy items follow them; the finder's domain is
    // exactly those ids.
    let mut rows = Vec::new();
    for phi in [0.2f64, 0.05, 0.01] {
        let mut recall_hits = 0usize;
        let mut recall_total = 0usize;
        let mut space = 0usize;
        let mut config = ContributingConfig::new(phi, 1);
        config.phi_factor = 1.0;
        for seed in 0..10u64 {
            // Heavy items sized to be exactly phi-heavy with margin 2x.
            let noise_items = 5_000u64;
            let heavy_count = (0.5 / phi) as u64;
            let f2_noise = noise_items as f64;
            let heavy_freq = ((2.0 * phi * f2_noise).sqrt() as u64 + 2).max(
                (2.0 * phi / (1.0 - 2.0 * phi * heavy_count as f64).max(0.1) * f2_noise).sqrt()
                    as u64
                    + 2,
            );
            let domain = (noise_items + heavy_count) as usize;
            let mut hh = F2Contributing::new(config.clone(), config.clone(), domain, domain, seed);
            let heavy: Vec<u64> = (0..heavy_count)
                .flat_map(|h| std::iter::repeat_n(noise_items + h, heavy_freq as usize))
                .collect();
            hh.insert_batch(&heavy);
            hh.insert_batch(&(0..noise_items).collect::<Vec<u64>>());
            let f2 = heavy_count as f64 * (heavy_freq * heavy_freq) as f64 + f2_noise;
            let out = hh.report();
            for h in 0..heavy_count {
                if (heavy_freq * heavy_freq) as f64 >= phi * f2 {
                    recall_total += 1;
                    if out.iter().any(|x| x.item == noise_items + h) {
                        recall_hits += 1;
                    }
                }
            }
            space = space.max(hh.space_words());
        }
        if recall_hits < recall_total {
            incomplete.push(format!("heavy hitters at phi {phi}"));
        }
        rows.push(vec![
            fmt(phi),
            format!("{recall_hits}/{recall_total}"),
            space.to_string(),
            fmt(1.0 / phi),
        ]);
    }
    print_table(
        "F2 heavy hitters: recall of phi-heavy items (Theorem 2.10)",
        &["phi", "recall", "space(words)", "1/phi"],
        &rows,
    );

    // F2-Contributing: detection of a planted contributing class of
    // medium coordinates (not individually heavy) — Theorem 2.11. The
    // class sits at ids 50 000.. inside the finder's 100 000-id domain,
    // past the 3000 noise ids.
    let mut rows = Vec::new();
    for class_size in [8u64, 64, 256] {
        let mut found = 0usize;
        let trials = 10u64;
        for seed in 0..trials {
            let config = ContributingConfig::new(0.25, 1024);
            let mut fc = F2Contributing::new(config.clone(), config, 100_000, 100_000, seed);
            // class: class_size coords of frequency 64; noise: 3000 of 1.
            let class: Vec<u64> = (0..64).flat_map(|_| 50_000..50_000 + class_size).collect();
            fc.insert_batch(&class);
            fc.insert_batch(&(0..3000).collect::<Vec<u64>>());
            if fc
                .report()
                .iter()
                .any(|r| (50_000..50_000 + class_size).contains(&r.item))
            {
                found += 1;
            }
        }
        if found < trials as usize {
            incomplete.push(format!("contributing class of size {class_size}"));
        }
        rows.push(vec![class_size.to_string(), format!("{found}/{trials}")]);
    }
    print_table(
        "F2-Contributing: planted class detection (Theorem 2.11)",
        &["class size", "detected"],
        &rows,
    );
    println!("\nshape check: errors track 1/sqrt(space); recall complete; classes of");
    println!("all sizes detected via level sampling.");
    if !incomplete.is_empty() {
        eprintln!("exp_sketches: incomplete recall: {}", incomplete.join(", "));
        std::process::exit(1);
    }
}
