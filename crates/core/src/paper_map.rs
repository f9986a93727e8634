//! # Paper → code map
//!
//! Navigation aid: every theorem, lemma, claim, figure and table of
//! Indyk & Vakilian (PODS 2019) with the item that implements it and
//! the test(s) that check it empirically. This module contains no code.
//!
//! | Paper artifact | Implementation | Checked by |
//! |---|---|---|
//! | **Fig 1** `EstimateMaxCover` | [`crate::MaxCoverEstimator`] | `estimate::tests`, `tests/end_to_end.rs` |
//! | **Fig 2** `Oracle` | [`crate::Oracle`] | `oracle::tests` (all three regimes) |
//! | **Fig 3** `LargeCommon` | [`crate::LargeCommon`] | `large_common::tests` |
//! | **Fig 4** `LargeSetSimple` | folded into [`crate::LargeSet`] (the `Ucmn = ∅` case is the ρ = 1 special case) | `large_set::tests` |
//! | **Fig 5** `SmallSet` | [`crate::SmallSet`] | `small_set::tests` |
//! | **Fig 6** `LargeSetComplete` | [`crate::LargeSet`] (three-branch `rep_hit`) | `large_set::tests` |
//! | **Fig 7** `LargeSet` wrapper | [`crate::LargeSet`] (`large_set_reps` repetitions) | `large_set::tests` |
//! | **Table 1** | `kcov-baselines` (each row) + this crate | `tests/baselines_vs_core.rs`, `exp_table1` |
//! | **Table 2** | [`crate::Params`] (`Paper` and `Practical` modes) | `params::tests`, `tests/paper_mode.rs` |
//! | **Thm 2.10** (F2 heavy hitters) | `kcov_sketch::F2HeavyHitter` | its unit tests + `exp_sketches` |
//! | **Thm 2.11** (F2-Contributing) | `kcov_sketch::F2Contributing` | its unit tests + `exp_sketches` |
//! | **Thm 2.12** (L0 estimation) | `kcov_sketch::L0Estimator` | its unit tests + `exp_sketches` |
//! | **Def 2.1** (λ-common elements) | `kcov_stream::common_elements` | `coverage::tests` |
//! | **Obs 2.4** (group partitioning) | `LargeCommon` reporting groups; `LargeSet::hit_estimate`'s `k/w` factor | `large_common::tests::reporting_groups_yield_concrete_sets` |
//! | **Lemma 2.3 / A.5–A.7** (set sampling, limited independence) | `kcov_hash::log_wise` + `LargeCommon` layers | `large_common::tests`, `exp_ablations` (a) |
//! | **Lemma 2.5** (element sampling) | `SmallSet` γ lanes; `kcov_baselines::MvEdgeArrival` | `small_set::tests` |
//! | **Lemma 3.5** (universe reduction collisions) | [`crate::UniverseReducer`] | `universe::tests::lemma_3_5_image_at_least_quarter`, `exp_universe_reduction` |
//! | **Thm 3.1** (estimation, `Õ(m/α²)`) | [`crate::MaxCoverEstimator`] | `exp_tradeoff` (slope), `tests/end_to_end.rs` (sandwich) |
//! | **Thm 3.2** (reporting, `Õ(m/α² + k)`) | [`crate::MaxCoverReporter`] | `report::tests`, `exp_reporting` |
//! | **Thm 3.3** (lower bound `Ω(m/α²)`) | `kcov-lowerbound` | `exp_lowerbound`, `tests/lower_bound_integration.rs` |
//! | **Thm 3.6** ((α,δ,η)-oracle wrapper) | [`crate::estimate`] acceptance test `est_z ≥ z/(4α)` | `estimate::tests` |
//! | **Def 3.4** ((α,δ,η)-oracle) | [`crate::Oracle`] contract | `tests/oracle_contract.rs` |
//! | **Claim 4.3** (`sα ≥ 2k` ⇒ case II) | [`crate::Params::small_set_active`] | `params::tests::case_split_matches_fig2` |
//! | **Claims 4.9/4.10** (superset partition) | `LargeSet` partition hash | `large_set::tests::superset_membership_is_a_partition` |
//! | **Lemma 4.16 / Cor 4.19** (set subsampling survival) | `SmallSet` M-sampling | `small_set::tests::fires_on_many_small_instances` |
//! | **Lemmas 4.20/4.21** (`Õ(m/α²)` sub-instance) | `Params::small_set_edge_cap` | `params::tests::small_set_edge_cap_scales_like_m_over_alpha_sq` |
//! | **§5 reduction, Claims 5.3/5.4** | `kcov_stream::gen::disjointness` | its unit tests (`gap_is_alpha`) |
//! | **Thm 5.1 / Cor 5.2** (DSJ communication) | `kcov_lowerbound::protocol` | `protocol::tests`, `exp_lowerbound` (c) |
//! | **Appendix A** (limited-independence Chernoff) | `kcov_hash` families + empirical statistics tests | `kcov-hash` unit tests |
//! | **Appendix B** (common-element handling) | `LargeSet` element sampling + bounded class sizes + L0 fallback | `large_set::tests`, `oracle::tests` |
