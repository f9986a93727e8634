//! Workload generators.
//!
//! Each generator returns a materialized [`crate::SetSystem`]; stream it
//! with [`crate::edge_stream`] in any arrival order. All generators are
//! seeded and deterministic.
//!
//! * [`uniform`] — Erdős–Rényi-style incidence: each (set, element) pair
//!   present independently, or fixed-size uniform sets.
//! * [`zipf`] — Zipfian set sizes and/or element popularity, the shape of
//!   real coverage corpora (documents × topics, neighborhoods in
//!   power-law graphs).
//! * [`planted`] — instances with a known planted optimal k-cover, so
//!   experiments have sharp ground truth at scales where exact search is
//!   infeasible.
//! * [`regimes`] — the three structural regimes distinguished by the
//!   paper's oracle case analysis (§4): many common elements
//!   (`LargeCommon`'s case), coverage dominated by few large sets
//!   (`LargeSet`'s case), coverage spread over many small sets
//!   (`SmallSet`'s case).
//! * [`disjointness`] — the §5 lower-bound instances: α-player Set
//!   Disjointness with the unique-intersection promise, reduced to
//!   `Max 1-Cover`.
//! * [`communities`] — overlapping-community corpora where coverage
//!   saturates (near-duplicate sets), stressing soundness.

pub mod communities;
pub mod disjointness;
pub mod greedy_trap;
pub mod planted;
pub mod regimes;
pub mod rmat;
pub mod uniform;
pub mod zipf;

pub use communities::community_sets;
pub use disjointness::{dsj_max_cover_instance, DsjInstance, DsjKind};
pub use greedy_trap::{greedy_trap, GreedyTrap};
pub use planted::{planted_cover, PlantedInstance};
pub use regimes::{common_heavy, few_large, many_small};
pub use rmat::{rmat_incidence, RmatParams};
pub use uniform::{uniform_fixed_size, uniform_incidence};
pub use zipf::{zipf_popularity, zipf_set_sizes};
