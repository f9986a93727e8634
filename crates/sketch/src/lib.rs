//! Streaming sketches used by the maximum-coverage algorithms of
//! Indyk & Vakilian (PODS 2019).
//!
//! The paper's §2 reviews the vector-sketching toolkit its algorithms
//! compose; this crate implements each tool from scratch:
//!
//! * [`l0`] — distinct-element (`L0`) estimation (Theorem 2.12), built on
//!   bottom-k / KMV summaries with median boosting.
//! * [`count_sketch`] — the Charikar–Chen–Farach-Colton CountSketch
//!   (reference \[18\]), the linear sketch behind `F2` heavy hitters; its
//!   `F2` estimate also sets the heavy-hitter thresholds.
//! * [`contributing`] — `γ`-contributing class detection via per-level
//!   subsampling + heavy hitters (Theorem 2.11, after Indyk–Woodruff \[29\]);
//!   each level's thresholded CountSketch query is the insertion-only
//!   `φ`-heavy hitter with `(1 ± 1/2)`-approximate frequencies of
//!   Theorem 2.10.
//! * [`space`] — the [`SpaceUsage`] accounting trait every sketch and
//!   every algorithm in the workspace implements, so the paper's
//!   space/approximation trade-offs are *measured* in words, not assumed.
//! * [`wire`] — the binary encoding that ships sketch states and replica
//!   states between processes.
//! * [`scratch`] — the per-thread reusable columns the batched kernels
//!   work in (not state).
//!
//! All sketches process streams of `u64` item identifiers, are seeded
//! explicitly, and are insertion-only unless documented otherwise
//! (CountSketch also accepts signed updates).

pub mod arena;
pub mod contributing;
pub mod count_sketch;
pub mod l0;
pub mod scratch;
pub mod space;
pub mod wire;

pub use arena::{probe_mix, OaMap, SortedSlab};
pub use contributing::{ContributingConfig, ContributingReport, F2Contributing, HeavyItem};
pub use count_sketch::CountSketch;
pub use l0::{Kmv, L0Estimator};
pub use space::{SpaceSink, SpaceUsage};
pub use wire::{WireEncode, WireError, WireState};
