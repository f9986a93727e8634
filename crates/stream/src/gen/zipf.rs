//! Zipfian workloads: power-law set sizes and element popularity, the
//! shape of the corpora motivating streaming coverage (documents × words,
//! blog-watch topics \[37\], neighborhoods of power-law graphs).

use kcov_hash::SplitMix64;

use crate::instance::SetSystem;

/// Sets whose sizes follow a Zipf law: the i-th largest set has size
/// `≈ max_size / (i+1)^exponent` (at least 1), members uniform.
pub fn zipf_set_sizes(n: usize, m: usize, max_size: usize, exponent: f64, seed: u64) -> SetSystem {
    assert!(max_size <= n, "max size cannot exceed n");
    assert!(exponent >= 0.0, "exponent must be non-negative");
    let mut rng = SplitMix64::new(seed);
    let mut sets = Vec::with_capacity(m);
    for i in 0..m {
        let size = ((max_size as f64 / ((i + 1) as f64).powf(exponent)).round() as usize)
            .clamp(1, max_size);
        sets.push(super::uniform::sample_without_replacement(
            n, size, &mut rng,
        ));
    }
    SetSystem::new(n, sets)
}

/// Sets of fixed size whose members follow a Zipfian popularity law:
/// element `e` is drawn with probability `∝ 1/(e+1)^exponent`. Produces
/// skewed element frequencies (a few very common elements), the regime
/// where the paper's set-sampling subroutine shines.
pub fn zipf_popularity(n: usize, m: usize, set_size: usize, exponent: f64, seed: u64) -> SetSystem {
    assert!(set_size <= n, "set size cannot exceed n");
    assert!(exponent >= 0.0, "exponent must be non-negative");
    let mut rng = SplitMix64::new(seed);
    // Cumulative Zipf weights for inverse-transform sampling.
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for e in 0..n {
        acc += 1.0 / ((e + 1) as f64).powf(exponent);
        cum.push(acc);
    }
    let total = acc;
    let mut sets = Vec::with_capacity(m);
    for _ in 0..m {
        let mut members = std::collections::HashSet::with_capacity(set_size);
        // Rejection loop; bounded since set_size <= n.
        let mut guard = 0usize;
        while members.len() < set_size {
            let u = rng.next_f64() * total;
            let e = cum.partition_point(|&c| c < u).min(n - 1);
            members.insert(e as u32);
            guard += 1;
            if guard > 1000 * set_size + 1000 {
                // Pathologically skewed distributions: fill with the
                // lowest-index unused elements to terminate.
                for cand in 0..n as u32 {
                    if members.len() >= set_size {
                        break;
                    }
                    members.insert(cand);
                }
            }
        }
        sets.push(members.into_iter().collect());
    }
    SetSystem::new(n, sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::element_frequencies;

    #[test]
    fn set_sizes_follow_zipf() {
        let ss = zipf_set_sizes(1000, 50, 400, 1.0, 3);
        assert_eq!(ss.set(0).len(), 400);
        assert_eq!(ss.set(1).len(), 200);
        assert_eq!(ss.set(3).len(), 100);
        // Tail sets are small but non-empty.
        assert!(!ss.set(49).is_empty());
    }

    #[test]
    fn exponent_zero_gives_equal_sizes() {
        let ss = zipf_set_sizes(100, 10, 30, 0.0, 1);
        for i in 0..10 {
            assert_eq!(ss.set(i).len(), 30);
        }
    }

    #[test]
    fn popularity_skews_frequencies() {
        let ss = zipf_popularity(200, 100, 10, 1.2, 5);
        let freq = element_frequencies(&ss);
        // Element 0 must be far more common than the median element.
        let mut sorted = freq.clone();
        sorted.sort_unstable();
        let median = sorted[100];
        assert!(
            freq[0] as f64 > 3.0 * (median.max(1) as f64),
            "freq[0] = {} median = {median}",
            freq[0]
        );
    }

    #[test]
    fn popularity_sets_have_requested_size() {
        let ss = zipf_popularity(50, 20, 8, 1.0, 7);
        for i in 0..20 {
            assert_eq!(ss.set(i).len(), 8);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            zipf_set_sizes(100, 10, 40, 1.0, 2),
            zipf_set_sizes(100, 10, 40, 1.0, 2)
        );
        assert_eq!(
            zipf_popularity(100, 10, 5, 1.0, 2),
            zipf_popularity(100, 10, 5, 1.0, 2)
        );
    }

    #[test]
    fn extreme_exponent_terminates() {
        // Huge exponent concentrates almost all mass on element 0; the
        // guard must still terminate with full-size sets.
        let ss = zipf_popularity(20, 5, 10, 8.0, 11);
        for i in 0..5 {
            assert_eq!(ss.set(i).len(), 10);
        }
    }
}
