//! Elements of the prime field `GF(p)` with `p = 2^61 − 1` (a Mersenne
//! prime), the standard field for polynomial hashing: reduction needs no
//! division, and `p > 2^60` comfortably exceeds every universe size used
//! by the max-coverage algorithms (`n, m ≤ 2^32` in this workspace). The
//! only arithmetic the workspace needs, the Horner step, lives next to
//! its one caller in [`crate::poly`].

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// An element of `GF(2^61 − 1)`, kept in canonical form `0 ≤ v < p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp(u64);

impl Fp {
    /// Additive identity.
    pub const ZERO: Fp = Fp(0);
    /// Multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Construct from an arbitrary `u64`, reducing mod p.
    #[inline]
    pub fn new(v: u64) -> Self {
        Fp(reduce_partial(v))
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Reduce any `u64` into `[0, p)`: one fold (`2^61 ≡ 1`) leaves at most
/// `p + 7`, and one conditional subtraction finishes.
#[inline]
fn reduce_partial(v: u64) -> u64 {
    let mut x = (v & MERSENNE_P) + (v >> 61);
    if x >= MERSENNE_P {
        x -= MERSENNE_P;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(Fp::new(MERSENNE_P).value(), 0);
        assert_eq!(Fp::new(MERSENNE_P + 5).value(), 5);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MERSENNE_P);
    }
}
