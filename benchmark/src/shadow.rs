//! The shadow pipeline: `MaxCoverEstimator`'s non-trivial Practical-mode
//! construction rebuilt from `kcov_core`'s public constructors, so every
//! layer call can be timed from outside the library. The fidelity guard
//! in `trace` checks it against the real estimator (estimate bits,
//! winning `z`, resident words), so a change to the estimator's
//! construction that the shadow does not follow fails loudly instead of
//! skewing the per-layer numbers.

use kcov_core::{
    EdgeFingerprints, FingerprintBlock, LargeCommon, LargeSet, ParamMode, Params, SmallSet,
    UniverseReducer,
};
use kcov_hash::SeedSequence;
use kcov_obs::SketchStats;
use kcov_sketch::SpaceUsage;
use kcov_stream::Edge;

use crate::trace::Tracer;

/// One `(z, repetition)` lane: its universe reducer and the oracle's
/// three subroutines (`SmallSet` only when active).
struct Lane {
    z: u64,
    reducer: UniverseReducer,
    lc: LargeCommon,
    ls: LargeSet,
    ss: Option<SmallSet>,
}

pub struct Shadow {
    alpha: f64,
    fps: EdgeFingerprints,
    lanes: Vec<Lane>,
    block: FingerprintBlock,
    scratch: Vec<Edge>,
}

/// Per-layer work counters of a finished pass.
pub struct Counters {
    pub lanes: u64,
    /// Lanes whose `LargeSet` took no update and whose `SmallSet` stores
    /// no edge.
    pub idle_lanes: u64,
    pub large_set: SketchStats,
    pub small_set: SketchStats,
    pub large_common_words: u64,
    pub large_set_words: u64,
    pub small_set_words: u64,
}

impl Shadow {
    /// Mirror of `MaxCoverEstimator::new(n, m, k, alpha,
    /// &EstimatorConfig::practical(seed))` outside the trivial regime.
    pub fn new(n: usize, m: usize, k: usize, alpha: f64, seed: u64) -> Shadow {
        let fps = EdgeFingerprints::new(seed, Params::hash_degree(ParamMode::Practical, m, n));
        let mix =
            UniverseReducer::shared_mix(SeedSequence::labeled(seed, "universe-mix").next_seed());
        let mut lane_seeds = SeedSequence::labeled(seed, "estimate-max-cover");
        let mut lanes = Vec::new();
        let mut z = 4u64;
        while z < 2 * n as u64 {
            let params = Params::practical(m, z as usize, k, alpha);
            let u = z as usize;
            for _ in 0..params.reduction_reps.max(1) {
                // The oracle draws its subroutines' seeds in this order.
                let mut oracle = SeedSequence::labeled(lane_seeds.next_seed(), "oracle");
                let base = fps.set_base();
                let lc =
                    LargeCommon::with_base(u, &params, false, oracle.next_seed(), base.clone());
                let ls = LargeSet::with_base(u, &params, oracle.next_seed(), base.clone());
                let ss = params
                    .small_set_active()
                    .then(|| SmallSet::with_base(u, &params, oracle.next_seed(), base.clone()));
                let reducer =
                    UniverseReducer::with_shared_mix(z, mix.clone(), fps.elem_base().clone());
                lanes.push(Lane {
                    z,
                    reducer,
                    lc,
                    ls,
                    ss,
                });
            }
            z *= 2;
        }
        Shadow {
            alpha,
            fps,
            lanes,
            block: FingerprintBlock::new(),
            scratch: Vec::new(),
        }
    }

    /// Drive one batch through the layers the estimator's batched path
    /// calls, one span per call: fingerprints, the shared universe mix,
    /// then per lane its range reduction and each subroutine.
    pub fn observe_batch(&mut self, edges: &[Edge], batch: usize, tr: &mut Tracer) {
        let Shadow {
            fps,
            lanes,
            block,
            scratch,
            ..
        } = self;
        let root = tr.open("shadow.batch", None, batch, None);
        let at = Some(root);
        tr.time("fingerprint.fill_block", at, batch, None, || {
            fps.fill_block(edges, block)
        });
        if let Some(first) = lanes.first() {
            tr.time("universe.mix_batch", at, batch, None, || {
                first.reducer.mix_batch(&block.fp_elem, &mut block.umix)
            });
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            let l = Some(i);
            tr.time("universe.map_premixed_batch", at, batch, l, || {
                lane.reducer.map_premixed_batch(edges, &block.umix, scratch)
            });
            tr.time("large_common.observe_fp_batch", at, batch, l, || {
                lane.lc.observe_fp_batch(scratch, &block.fp_set)
            });
            tr.time("large_set.observe_fp_batch", at, batch, l, || {
                lane.ls.observe_fp_batch(scratch, &block.fp_set)
            });
            if let Some(ss) = &mut lane.ss {
                tr.time("small_set.observe_fp_batch", at, batch, l, || {
                    ss.observe_fp_batch(scratch, &block.fp_set)
                });
            }
        }
        tr.close(root);
    }

    /// Mirror of `MaxCoverEstimator::finalize` (each lane's `Oracle`
    /// finalize, then the lane pick): `(estimate, winning z)`.
    pub fn finalize(&self, tr: &mut Tracer) -> (f64, u64) {
        let root = tr.open("shadow.finalize", None, 0, None);
        let at = Some(root);
        let mut per_lane: Vec<(u64, f64)> = Vec::with_capacity(self.lanes.len());
        for (i, lane) in self.lanes.iter().enumerate() {
            let l = Some(i);
            let candidates = [
                tr.time("large_common.finalize", at, 0, l, || lane.lc.finalize()),
                tr.time("large_set.finalize", at, 0, l, || lane.ls.finalize()),
                match &lane.ss {
                    Some(ss) => tr.time("small_set.finalize", at, 0, l, || ss.finalize()),
                    None => None,
                },
            ];
            // The oracle clamps to its universe, which is the lane's z.
            let best = candidates
                .into_iter()
                .flatten()
                .map(|(est, _)| est.min(lane.z as f64))
                .fold(0.0, |best, est| if est > best { est } else { best });
            per_lane.push((lane.z, best));
        }
        tr.close(root);
        // Prefer qualifying lanes (est ≥ z/(4α)); a stable sort keeps
        // the estimator's tie order.
        per_lane.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
        let pick = per_lane
            .iter()
            .rev()
            .find(|&&(z, est)| est >= z as f64 / (4.0 * self.alpha))
            .or(per_lane.last());
        match pick {
            Some(&(z, est)) if est > 0.0 => (est, z),
            _ => (0.0, 0),
        }
    }

    /// Resident words as the estimator counts them: fingerprints, the
    /// shared mix once, and per lane its reducer, the oracle's 1-word
    /// handle on the set base, and the subroutines.
    pub fn space_words(&self) -> usize {
        self.fps.space_words()
            + self.lanes.first().map_or(0, |l| l.reducer.mix_words())
            + self
                .lanes
                .iter()
                .map(|l| {
                    1 + l.reducer.space_words()
                        + l.lc.space_words()
                        + l.ls.space_words()
                        + l.ss.as_ref().map_or(0, SpaceUsage::space_words)
                })
                .sum::<usize>()
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            lanes: self.lanes.len() as u64,
            idle_lanes: 0,
            large_set: SketchStats::default(),
            small_set: SketchStats::default(),
            large_common_words: 0,
            large_set_words: 0,
            small_set_words: 0,
        };
        for lane in &self.lanes {
            let ls = lane.ls.sketch_stats();
            let ss = lane
                .ss
                .as_ref()
                .map(SmallSet::sketch_stats)
                .unwrap_or_default();
            if ls.updates == 0 && ss.fill == 0 {
                c.idle_lanes += 1;
            }
            c.large_set.absorb(ls);
            c.small_set.absorb(ss);
            c.large_common_words += lane.lc.space_words() as u64;
            c.large_set_words += lane.ls.space_words() as u64;
            c.small_set_words += lane.ss.as_ref().map_or(0, SpaceUsage::space_words) as u64;
        }
        c
    }
}
