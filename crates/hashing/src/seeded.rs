//! Deterministic seed derivation.
//!
//! Everything in this workspace is driven by explicit `u64` seeds so that
//! experiments and tests are exactly reproducible. [`SplitMix64`] is the
//! canonical tiny generator for deriving hash-function coefficients and
//! [`SeedSequence`] hands out independent sub-seeds for the many parallel
//! sub-algorithms the paper composes (guesses of `z`, repetitions,
//! frequency layers, ...).

/// SplitMix64: a 64-bit PRNG with excellent statistical quality for its
/// size and a one-word state. Used only to expand a user seed into hash
/// coefficients and sub-seeds — never as the "randomness" whose limited
/// independence the analysis relies on (that comes from [`crate::KWise`]).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Uses rejection sampling to avoid
    /// modulo bias. Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Hands out a stream of decorrelated sub-seeds derived from a root seed
/// and a stable label, so that structurally different components never
/// share randomness even when given the same root seed.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    rng: SplitMix64,
}

impl SeedSequence {
    /// Create a sequence from a root seed.
    pub fn new(root: u64) -> Self {
        SeedSequence {
            rng: SplitMix64::new(root ^ 0xa076_1d64_78bd_642f),
        }
    }

    /// Create a sequence from a root seed and a component label; different
    /// labels yield unrelated sequences.
    pub fn labeled(root: u64, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SeedSequence {
            rng: SplitMix64::new(root ^ h),
        }
    }

    /// Next sub-seed.
    pub fn next_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_across_seeds() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut rng = SplitMix64::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn labeled_sequences_are_independent() {
        let mut a = SeedSequence::labeled(42, "large-common");
        let mut b = SeedSequence::labeled(42, "small-set");
        assert_ne!(a.next_seed(), b.next_seed());
    }

    #[test]
    fn sequence_reproducible() {
        let s1: Vec<u64> = {
            let mut s = SeedSequence::new(3);
            (0..8).map(|_| s.next_seed()).collect()
        };
        let s2: Vec<u64> = {
            let mut s = SeedSequence::new(3);
            (0..8).map(|_| s.next_seed()).collect()
        };
        assert_eq!(s1, s2);
    }
}
