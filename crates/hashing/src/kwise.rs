//! Convenience constructors for the independence degrees the paper uses,
//! plus the 4-wise ±1 sign hash for AMS `F2` sketching.

use crate::poly::PolyHash;
use crate::RangeHash;

/// A named k-wise independent hash function (thin wrapper over
/// [`PolyHash`] recording its intent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWise {
    inner: PolyHash,
}

impl KWise {
    /// A k-wise independent function with the given degree and seed.
    pub fn new(k: usize, seed: u64) -> Self {
        KWise {
            inner: PolyHash::new(k, seed),
        }
    }

    /// Independence degree.
    pub fn independence(&self) -> usize {
        self.inner.degree()
    }

    /// Space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }

    /// Full description for serialization (see [`PolyHash::coefficients`]).
    pub fn coefficients(&self) -> Vec<u64> {
        self.inner.coefficients()
    }

    /// Rebuild from a coefficient vector.
    pub fn from_coefficients(coeffs: &[u64]) -> Self {
        KWise {
            inner: PolyHash::from_coefficients(coeffs),
        }
    }
}

impl RangeHash for KWise {
    #[inline]
    fn hash(&self, key: u64) -> u64 {
        self.inner.hash(key)
    }

    #[inline]
    fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        self.inner.hash_batch(keys, out);
    }
}

/// Pairwise (2-wise) independent hash — Lemma 4.16's sampling, KMV ranks.
pub fn pairwise(seed: u64) -> KWise {
    KWise::new(2, seed)
}

/// 4-wise independent hash — universe reduction (Lemma 3.5), AMS signs.
pub fn four_wise(seed: u64) -> KWise {
    KWise::new(4, seed)
}

/// `Θ(log(mn))`-wise independent hash, the degree used by set sampling
/// with few random bits (Appendix A.1), superset partitioning (Claim 4.9)
/// and substream sampling (Claim 2.8). The degree is `log2(m·n)` clamped
/// to `[8, 48]` — `Θ(log(mn))` while keeping the Horner evaluation cheap
/// on the hot path.
pub fn log_wise(m: usize, n: usize, seed: u64) -> KWise {
    let prod = (m.max(1) as u128) * (n.max(1) as u128);
    let bits = 128 - prod.leading_zeros() as usize;
    let degree = bits.clamp(8, 48);
    KWise::new(degree, seed)
}

/// A 4-wise independent ±1 hash, as required by AMS `F2` estimation.
#[derive(Debug, Clone)]
pub struct SignHash {
    inner: PolyHash,
}

impl SignHash {
    /// Create a sign hash from a seed.
    pub fn new(seed: u64) -> Self {
        SignHash {
            inner: PolyHash::new(4, seed),
        }
    }

    /// The sign (+1 or −1) assigned to `key`.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        if self.inner.hash(key) & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }

    /// Full description for serialization.
    pub fn coefficients(&self) -> Vec<u64> {
        self.inner.coefficients()
    }

    /// Rebuild from a coefficient vector.
    pub fn from_coefficients(coeffs: &[u64]) -> Self {
        SignHash {
            inner: PolyHash::from_coefficients(coeffs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_degrees() {
        assert_eq!(pairwise(1).independence(), 2);
        assert_eq!(four_wise(1).independence(), 4);
        let lw = log_wise(1 << 20, 1 << 20, 1);
        assert!(lw.independence() >= 8);
        assert!(lw.independence() <= 96);
    }

    #[test]
    fn log_wise_grows_with_universe() {
        let small = log_wise(16, 16, 1).independence();
        let large = log_wise(1 << 30, 1 << 30, 1).independence();
        assert!(large > small);
    }

    #[test]
    fn log_wise_handles_zero_sizes() {
        // Degenerate m = 0 or n = 0 must not panic.
        let h = log_wise(0, 0, 1);
        assert!(h.independence() >= 8);
    }

    #[test]
    fn sign_hash_is_plus_minus_one_and_balanced() {
        let s = SignHash::new(55);
        let mut sum = 0i64;
        for k in 0..4096u64 {
            let v = s.sign(k);
            assert!(v == 1 || v == -1);
            sum += v;
        }
        // Balanced to within ~4 sigma (sigma = 64).
        assert!(sum.abs() < 300, "sign bias too large: {sum}");
    }

    #[test]
    fn sign_hash_deterministic() {
        let a = SignHash::new(9);
        let b = SignHash::new(9);
        for k in 0..100u64 {
            assert_eq!(a.sign(k), b.sign(k));
        }
    }

    #[test]
    fn kwise_range_hash_delegates() {
        let k = KWise::new(3, 7);
        let p = PolyHash::new(3, 7);
        for key in 0..64u64 {
            assert_eq!(k.hash(key), p.hash(key));
        }
    }
}
