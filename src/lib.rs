//! # maxkcov
//!
//! Single-pass streaming **maximum k-coverage** with tight
//! space/approximation trade-offs — a from-scratch Rust implementation
//! of
//!
//! > Piotr Indyk, Ali Vakilian. *Tight Trade-offs for the Maximum
//! > k-Coverage Problem in the General Streaming Model.* PODS 2019.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`core`] ([`kcov_core`]) — the paper's contribution:
//!   [`core::MaxCoverEstimator`] (`Õ(m/α²)` space, Theorem 3.1) and
//!   [`core::MaxCoverReporter`] (`Õ(m/α² + k)`, Theorem 3.2) over
//!   edge-arrival streams.
//! * [`sketch`] ([`kcov_sketch`]) — the vector-sketching toolkit (§2):
//!   `L0`, CountSketch, `F2` heavy hitters, `F2`-contributing
//!   classes, and the [`sketch::SpaceUsage`] accounting trait.
//! * [`stream`] ([`kcov_stream`]) — set systems, arrival orders,
//!   workload generators (including the §5 hard instances).
//! * [`baselines`] ([`kcov_baselines`]) — greedy, exact, and the
//!   streaming baselines of Table 1.
//! * [`lowerbound`] ([`kcov_lowerbound`]) — the Theorem 3.3 harness:
//!   protocol simulation and hard-instance distinguishers.
//! * [`hash`] ([`kcov_hash`]) — limited-independence hash families
//!   (Appendix A).
//!
//! ## Quick start
//!
//! ```
//! use maxkcov::core::{EstimatorConfig, MaxCoverEstimator};
//! use maxkcov::stream::{edge_stream, ArrivalOrder, gen::planted_cover};
//!
//! // 100 sets over 1000 elements with a planted 5-cover of 800.
//! let inst = planted_cover(1000, 100, 5, 0.8, 40, 7);
//! let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
//!
//! // Estimate the optimum within a factor ~4 in one pass.
//! let out = MaxCoverEstimator::run(1000, 100, 5, 4.0,
//!     &EstimatorConfig::practical(42), &edges, 1024);
//! assert!(out.estimate > 0.0 && out.estimate <= 1.2 * inst.planted_coverage as f64);
//! ```

pub use kcov_baselines as baselines;
pub use kcov_core as core;
pub use kcov_hash as hash;
pub use kcov_lowerbound as lowerbound;
pub use kcov_obs as obs;
pub use kcov_sketch as sketch;
pub use kcov_stream as stream;
