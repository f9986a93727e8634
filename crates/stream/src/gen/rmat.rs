//! R-MAT-style bipartite incidence generator (Chakrabarti–Zhan–
//! Faloutsos): recursively biased quadrant descent produces the
//! power-law degree distributions *on both sides* (set sizes and
//! element frequencies) seen in real web/social/term-document corpora —
//! skew that the uniform and Zipf generators only produce one side at a
//! time.

use kcov_hash::SplitMix64;

use crate::edge::Edge;
use crate::instance::SetSystem;

/// R-MAT quadrant probabilities. Must be positive and sum to ≤ 1; the
/// remainder goes to the fourth quadrant (`d = 1 − a − b − c`).
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Top-left (hub-hub) probability.
    pub a: f64,
    /// Top-right.
    pub b: f64,
    /// Bottom-left.
    pub c: f64,
}

impl Default for RmatParams {
    /// The canonical skewed setting (a = 0.57).
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generate `edges` incidences over `m` sets × `n` elements (rounded up
/// to powers of two internally, then rejected back into range).
/// Duplicate incidences collapse, so the resulting system can have
/// fewer than `edges` distinct pairs.
pub fn rmat_incidence(
    n: usize,
    m: usize,
    edges: usize,
    params: RmatParams,
    seed: u64,
) -> SetSystem {
    assert!(n >= 1 && m >= 1, "need n, m >= 1");
    let RmatParams { a, b, c } = params;
    assert!(
        a > 0.0 && b > 0.0 && c > 0.0,
        "probabilities must be positive"
    );
    let d = 1.0 - a - b - c;
    assert!(d > 0.0, "a + b + c must be < 1");
    let set_bits = (m.next_power_of_two()).trailing_zeros();
    let elem_bits = (n.next_power_of_two()).trailing_zeros();
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        // Descend set bits and element bits simultaneously: at each
        // level pick a quadrant (set-bit, elem-bit) with (a, b, c, d).
        let mut set = 0u32;
        let mut elem = 0u32;
        for level in 0..set_bits.max(elem_bits) {
            let u = rng.next_f64();
            let (sb, eb) = if u < a {
                (0, 0)
            } else if u < a + b {
                (0, 1)
            } else if u < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            if level < set_bits {
                set = (set << 1) | sb;
            }
            if level < elem_bits {
                elem = (elem << 1) | eb;
            }
        }
        if (set as usize) < m && (elem as usize) < n {
            out.push(Edge::new(set, elem));
        }
    }
    SetSystem::from_edges(n, m, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::element_frequencies;

    #[test]
    fn dimensions_and_edge_budget() {
        let ss = rmat_incidence(1000, 500, 8000, RmatParams::default(), 1);
        assert_eq!(ss.num_elements(), 1000);
        assert_eq!(ss.num_sets(), 500);
        // Duplicates collapse, so at most the budget.
        assert!(ss.total_edges() <= 8000);
        assert!(
            ss.total_edges() > 4000,
            "too many duplicates: {}",
            ss.total_edges()
        );
    }

    #[test]
    fn both_sides_are_skewed() {
        let ss = rmat_incidence(2048, 2048, 60_000, RmatParams::default(), 3);
        // Set sizes: max far above mean.
        let sizes: Vec<usize> = (0..ss.num_sets()).map(|i| ss.set(i).len()).collect();
        let mean_size = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max_size = *sizes.iter().max().unwrap() as f64;
        assert!(
            max_size > 8.0 * mean_size,
            "set sizes not skewed: max {max_size} mean {mean_size}"
        );
        // Element frequencies: same.
        let freq = element_frequencies(&ss);
        let mean_f = freq.iter().map(|&f| f as f64).sum::<f64>() / freq.len() as f64;
        let max_f = *freq.iter().max().unwrap() as f64;
        assert!(
            max_f > 8.0 * mean_f,
            "frequencies not skewed: max {max_f} mean {mean_f}"
        );
    }

    #[test]
    fn uniform_quadrants_give_unskewed_output() {
        let params = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let ss = rmat_incidence(1024, 1024, 30_000, params, 5);
        let sizes: Vec<usize> = (0..1024).map(|i| ss.set(i).len()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / 1024.0;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(
            max < 4.0 * mean,
            "uniform RMAT too skewed: max {max} mean {mean}"
        );
    }

    #[test]
    fn deterministic() {
        let a = rmat_incidence(100, 100, 500, RmatParams::default(), 9);
        let b = rmat_incidence(100, 100, 500, RmatParams::default(), 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "a + b + c must be < 1")]
    fn overfull_probabilities_rejected() {
        let _ = rmat_incidence(
            10,
            10,
            10,
            RmatParams {
                a: 0.5,
                b: 0.3,
                c: 0.3,
            },
            1,
        );
    }
}
