//! Streaming sketches used by the maximum-coverage algorithms of
//! Indyk & Vakilian (PODS 2019).
//!
//! The paper's §2 reviews the vector-sketching toolkit its algorithms
//! compose; this crate implements each tool from scratch:
//!
//! * [`l0`] — distinct-element (`L0`) estimation (Theorem 2.12), built on
//!   bottom-k / KMV summaries with median boosting.
//! * [`ams_f2`] — the Alon–Matias–Szegedy second frequency moment sketch
//!   (reference [5]), needed for heavy-hitter thresholds.
//! * [`count_sketch`] — the Charikar–Chen–Farach-Colton CountSketch
//!   (reference [18]), the linear sketch behind `F2` heavy hitters.
//! * [`heavy_hitter`] — insertion-only `φ`-heavy-hitter tracking with
//!   `(1 ± 1/2)`-approximate frequencies (Theorem 2.10).
//! * [`contributing`] — `γ`-contributing class detection via per-level
//!   subsampling + heavy hitters (Theorem 2.11, after Indyk–Woodruff [29]).
//! * [`count_min`] — CountMin sketch, an auxiliary `L1` frequency
//!   estimator used by baselines.
//! * [`space`] — the [`SpaceUsage`] accounting trait every sketch and
//!   every algorithm in the workspace implements, so the paper's
//!   space/approximation trade-offs are *measured* in words, not assumed.
//!
//! All sketches process streams of `u64` item identifiers, are seeded
//! explicitly, and are insertion-only unless documented otherwise
//! (CountSketch and CountMin also accept signed updates).

pub mod ams_f2;
pub mod arena;
pub mod bjkst;
pub mod contributing;
pub mod count_min;
pub mod count_sketch;
pub mod heavy_hitter;
pub mod l0;
pub mod space;
pub mod wire;

pub use ams_f2::AmsF2;
pub use arena::{probe_mix, OaMap, SortedSlab};
pub use bjkst::Bjkst;
pub use contributing::{ContributingConfig, ContributingReport, F2Contributing};
pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use heavy_hitter::{F2HeavyHitter, HeavyHitterConfig, HeavyItem};
pub use l0::{Kmv, L0Estimator};
pub use space::SpaceUsage;
pub use wire::{WireEncode, WireError};
