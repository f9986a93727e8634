//! Offline and streaming baselines for maximum k-coverage.
//!
//! These populate the "other rows" of the paper's Table 1 and provide
//! ground truth:
//!
//! * [`exact`] — branch-and-bound exact `Max k-Cover` (ground truth on
//!   small/medium instances).
//! * [`greedy`] — the classic lazy greedy of Nemhauser–Wolsey–Fisher
//!   (reference \[35\]), the `1/(1−1/e)` offline baseline; also the
//!   `O(1)`-approximate offline solver invoked inside the paper's
//!   `SmallSet` subroutine.
//! * [`sieve`] — Sieve-Streaming (Badanidiyuru et al. \[9\]): set-arrival,
//!   `Õ(n)`-space (stores covered-element sets), 2-approximation.
//! * [`mcgregor_vu`] — McGregor & Vu \[34\]: the set-arrival `(2 + ε)`
//!   thresholding algorithm, and their `Õ(m/ε²)`-space *edge-arrival*
//!   element-sampling + offline-greedy algorithm (Table 1, row 3).
//! * [`saha_getoor`] — Saha & Getoor \[37\]: the swap-based set-arrival
//!   streaming algorithm (the first streaming max-cover algorithm).
//! * [`bateni`] — Bateni–Esfandiari–Mirrokni-style \[12\] edge-arrival
//!   algorithm: one mergeable bottom-k coverage sketch per set, offline
//!   greedy over sketches; `Õ(m)` space, constant factor.
//!
//! Every streaming baseline implements `SpaceUsage` so Table 1 can be
//! regenerated with *measured* space.

pub mod bateni;
pub mod exact;
pub mod greedy;
pub mod local_search;
pub mod mcgregor_vu;
pub mod saha_getoor;
pub mod set_cover;
pub mod sieve;
pub mod stochastic_greedy;

pub use bateni::SketchedGreedy;
pub use exact::max_cover_exact;
pub use greedy::{greedy_max_cover, GreedyResult};
pub use local_search::local_search_max_cover;
pub use mcgregor_vu::{mv_set_arrival, MvEdgeArrival};
pub use saha_getoor::SwapStreaming;
pub use set_cover::{greedy_set_cover, partial_set_cover, SetCoverResult};
pub use sieve::SieveStreaming;
pub use stochastic_greedy::stochastic_greedy;

/// A k-cover produced by any algorithm: chosen set indices and the
/// algorithm's own estimate of their coverage (exact for offline
/// algorithms, an estimate for sketched ones).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverResult {
    /// Chosen set indices (at most k).
    pub chosen: Vec<usize>,
    /// The algorithm's estimate of the chosen coverage.
    pub estimated_coverage: f64,
}
