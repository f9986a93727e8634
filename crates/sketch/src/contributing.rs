//! `γ`-contributing class detection — Theorem 2.11, after Indyk & Woodruff
//! (reference \[29\] of the paper).
//!
//! Partition the coordinates of `a⃗` into dyadic frequency classes
//! `R_t = { j : 2^{t−1} < a⃗[j] ≤ 2^t }` (Definition 2.7). A class is
//! `γ`-contributing when `|R_t| · 2^{2t} ≥ γ·F2(a⃗)`. The `F2-Contributing`
//! routine (paper §2.2, pseudocode after Theorem 2.11) guesses the class
//! size `n_t ∈ {2^i}` in parallel; for each guess it subsamples
//! *coordinates* at a rate that keeps ~polylog members of a class of that
//! size alive (Claim 2.8), and feeds the surviving substream to an
//! `F2`-heavy-hitter structure: Lemma 2.9 shows a surviving member of a
//! `γ`-contributing class is an `Ω̃(γ)`-heavy hitter of the sampled
//! substream. The union of per-level reports therefore contains a member
//! of every `γ`-contributing class, with `(1 ± 1/2)`-approximate
//! frequencies, in `Õ(1/γ)` space.
//!
//! Each level's `F2` heavy hitter (Theorem 2.10: every coordinate with
//! `a⃗[i]² ≥ φ·F2` of the level's substream, with a `(1 ± 1/2)`
//! frequency estimate) is a CountSketch alone (Charikar–Chen–
//! Farach-Colton, reference \[18\]) plus one threshold factor.
//! Coordinates are ids in a known domain `[d]`, so
//! [`F2Contributing::report`] enumerates the domain at query time, runs
//! it once through the sampling hash, and point-queries each level's
//! sketch on that level's survivors: an id is reported when its
//! median-of-rows estimate `est` is positive with `est² ≥ REPORT_SLACK ·
//! φ · F̂2`. `F̂2` comes from the same table (each row *is* a
//! width-bucketed AMS estimator; see [`CountSketch::f2_estimate`]), so no
//! second sketch is needed. The state is the linear table, so batched
//! ingestion and shard merging are state-identical to serial insertion.
//!
//! Every level's CountSketch is addressed by one shared mix (equal
//! copies of the same 4-wise words, see [`crate::count_sketch`]), so a
//! coordinate's mix words are evaluated once per update, or once per
//! domain id at query time, and handed to every level it enters.

use kcov_hash::{log_wise, KWise, SeedSequence};
use kcov_obs::SketchStats;

use crate::count_sketch::{CountSketch, MAX_WIDTH};
use crate::space::{SpaceSink, SpaceUsage};

/// Configuration for [`F2Contributing`].
#[derive(Debug, Clone)]
pub struct ContributingConfig {
    /// Contribution threshold `γ`.
    pub gamma: f64,
    /// `r`: only look for contributing classes of size ≤ `r` (the paper's
    /// `F2-Contributing(γ, r)` second argument, crucial in Appendix B to
    /// keep common-element noise out of the reported supersets).
    pub max_class_size: u64,
    /// Expected number of surviving members of a class whose size matches
    /// the level's guess (the paper's `12·log m`; practical default 16).
    pub survivors_per_class: u64,
    /// The heavy-hitter threshold used inside each level is
    /// `φ = γ · phi_factor`. The paper divides by `Θ(log n · log^{c+1} m)`
    /// (Lemma 2.9); `phi_factor` is that reciprocal, exposed as a knob.
    pub phi_factor: f64,
    /// CountSketch width multiplier for the per-level heavy hitters
    /// (`width = hh_width_factor / φ`). The default (32) gives tight
    /// `(1 ± 1/2)` frequency estimates; callers whose thresholds carry
    /// their own slack (e.g. `LargeSet`) can run leaner.
    pub hh_width_factor: f64,
    /// CountSketch rows for the per-level heavy hitters (every level
    /// shares one mix of `⌈hh_rows/2⌉` words).
    pub hh_rows: usize,
    /// Independence degree of the shared coordinate-sampling hash.
    /// `None` (the default) uses the paper's `Θ(log(mn))`-wise degree
    /// (Claim 2.8). Callers that feed the finder *already-fingerprinted*
    /// keys — outputs of an upstream `Θ(log(mn))`-wise hash — can pass a
    /// small fixed degree here: the composition stays as independent as
    /// the weaker stage, and the Horner loop on the per-update hot path
    /// shrinks accordingly.
    pub sampling_degree: Option<usize>,
}

impl ContributingConfig {
    /// Defaults for a threshold `γ` and class-size bound `r`.
    pub fn new(gamma: f64, max_class_size: u64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        assert!(max_class_size >= 1, "class size bound must be >= 1");
        ContributingConfig {
            gamma,
            max_class_size,
            survivors_per_class: 16,
            phi_factor: 0.25,
            hh_width_factor: 32.0,
            hh_rows: 5,
            sampling_degree: None,
        }
    }
}

/// Report slack of every level's heavy-hitter query: a level reports an
/// id whose estimate `est` is positive with `est² ≥ REPORT_SLACK · φ ·
/// F̂2`. Below 1 it absorbs the `(1 ± 1/2)` error of both estimates, so
/// no true `φ`-heavy hitter is missed (Theorem 2.10's recall); precision
/// is recovered by the caller's own thresholds.
pub const REPORT_SLACK: f64 = 0.125;

/// One coordinate a level reports, with its `(1 ± 1/2)`-approximate
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyItem {
    /// The item (vector coordinate).
    pub item: u64,
    /// `(1 ± 1/2)`-approximate frequency `a⃗[item]`.
    pub est: i64,
}

/// One reported coordinate: which size-guess level found it, the
/// coordinate, and its `(1 ± 1/2)`-approximate frequency *in the full
/// stream* (coordinates are sampled whole, so the substream frequency of
/// a surviving coordinate equals its true frequency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContributingReport {
    /// Level index (class-size guess `2^level`).
    pub level: u32,
    /// The coordinate.
    pub item: u64,
    /// Approximate frequency.
    pub est: i64,
}

/// The largest coordinate domain a finder enumerates. `report` holds
/// every domain id and its sampling hash, so this caps its working set
/// at 256 MB; a decoded finder whose domain exceeds it is rejected.
pub const MAX_DOMAIN: u64 = 1 << 24;

/// Single-pass `γ`-contributing class finder (Theorem 2.11 interface).
#[derive(Debug, Clone)]
pub struct F2Contributing {
    /// Coordinates are ids in `[0, domain)`; `report` enumerates them.
    domain: u64,
    /// One shared `Θ(log mn)`-wise sampling hash; level `i` keeps a
    /// coordinate iff `hash(j) mod 2^i < keep_i`. The levels are nested
    /// (the classic dyadic structure), each individually as independent
    /// as the hash — and the hash is evaluated once per update instead
    /// of once per level.
    hash: KWise,
    levels: Vec<Level>,
}

/// One size-guess level: its sampling filter and the Theorem 2.10 heavy
/// hitter over the substream the filter keeps, a CountSketch queried at
/// a threshold against its own `F2` estimate.
#[derive(Debug, Clone)]
struct Level {
    /// Keep a coordinate iff `hash(j) mod 2^i < keep`, i.e. with
    /// probability `keep / 2^i`.
    modulus: u64,
    keep: u64,
    /// `REPORT_SLACK · φ`: the level reports an id whose estimate `est`
    /// is positive with `est² ≥ factor · F̂2`.
    factor: f64,
    sketch: CountSketch,
}

impl F2Contributing {
    /// A finder over coordinates in `[0, m)` (ids outside the domain are
    /// never reported) for two thresholded searches over one item
    /// stream, e.g. `LargeSet`'s Case-1/Case-2 pair: one dyadic level
    /// schedule guessing class sizes `2^0, 2^1, …` up to
    /// `max(wide.max_class_size, narrow.max_class_size)`, with one shared
    /// sampling hash. Levels whose modulus stays within
    /// `wide.max_class_size` carry `wide`'s heavy-hitter shape and
    /// threshold; deeper levels carry `narrow`'s. A single search passes
    /// the same config twice.
    ///
    /// Two separate finders would give every shared-modulus level
    /// byte-identical substreams. This schedule keeps one structure per
    /// level: the overlap tier uses the wide (smaller-`φ`) sketch, which
    /// estimates at least as tightly as either search alone, and only
    /// the class sizes one search reaches alone pay for their own levels.
    ///
    /// The two configs must agree on `survivors_per_class`,
    /// `sampling_degree` and `hh_rows` (they share the level schedule,
    /// the hash and the mix). `m` and `n` size the `Θ(log(mn))`-wise
    /// sampling hash (Claim 2.8). Panics when `m` exceeds
    /// [`MAX_DOMAIN`].
    pub fn new(
        wide: ContributingConfig,
        narrow: ContributingConfig,
        m: usize,
        n: usize,
        seed: u64,
    ) -> Self {
        assert!(m as u64 <= MAX_DOMAIN, "domain {m} exceeds MAX_DOMAIN");
        assert_eq!(
            wide.survivors_per_class, narrow.survivors_per_class,
            "paired finders share the level schedule"
        );
        assert_eq!(
            wide.sampling_degree, narrow.sampling_degree,
            "paired finders share the sampling hash"
        );
        assert_eq!(wide.hh_rows, narrow.hh_rows, "paired finders share the mix");
        let mut seq = SeedSequence::labeled(seed, "f2-contributing");
        let wide_p2 = wide.max_class_size.max(1).next_power_of_two();
        let max_class = wide.max_class_size.max(narrow.max_class_size);
        let max_level = max_class.max(1).next_power_of_two().trailing_zeros();
        let hash = match wide.sampling_degree {
            Some(d) => KWise::new(d, seq.next_seed()),
            None => log_wise(m, n, seq.next_seed()),
        };
        let mix = CountSketch::draw_mix(wide.hh_rows, seq.next_seed());
        let level = |modulus: u64, keep: u64| {
            let c = if modulus <= wide_p2 { &wide } else { &narrow };
            let phi = (c.gamma * c.phi_factor).clamp(1e-9, 1.0);
            let width = ((c.hh_width_factor / phi).ceil() as usize).clamp(8, MAX_WIDTH);
            Level {
                modulus,
                keep,
                factor: REPORT_SLACK * phi,
                sketch: CountSketch::with_mix(c.hh_rows, width, mix.clone()),
            }
        };
        // Levels whose modulus does not exceed `survivors_per_class`
        // sample with probability 1 and are therefore identical to the
        // unsampled level — build one unsampled level plus the truly
        // subsampled ones. (Classes of size ≤ survivors are caught by
        // the unsampled heavy hitter directly, exactly as in the paper's
        // small-i guesses.)
        let mut levels = vec![level(1, 1)];
        for i in 1..=max_level {
            let modulus = 1u64 << i;
            if modulus > wide.survivors_per_class {
                levels.push(level(modulus, wide.survivors_per_class));
            }
        }
        F2Contributing {
            domain: m as u64,
            hash,
            levels,
        }
    }

    /// Observe a chunk of updates. The shared sampling hash is evaluated
    /// once per item for the whole chunk (through the blocked
    /// [`KWise::hash_batch`] evaluator); each level then consumes its
    /// surviving sub-chunk. Chunking never changes the state: every
    /// level's sketch is linear.
    pub fn insert_batch(&mut self, items: &[u64]) {
        crate::scratch::with_columns(|[hashes]| {
            self.hash.hash_batch(items, hashes);
            self.insert_batch_prehashed(items, hashes);
        });
    }

    /// [`F2Contributing::insert_batch`] with the sampling hashes already
    /// evaluated: `hashes[i]` must equal `self.sampling_hash().hash(items[i])`.
    /// Lets a caller that holds the hashes for another purpose (e.g.
    /// `LargeSet`'s batched columns) skip the second evaluation.
    pub fn insert_batch_prehashed(&mut self, items: &[u64], hashes: &[u64]) {
        debug_assert_eq!(items.len(), hashes.len());
        debug_assert!(
            items
                .first()
                .is_none_or(|&i| self.hash.hash(i) == hashes[0]),
            "prehashed values disagree with the sampling hash"
        );
        // One blocked mix pass over the chunk; each level then gathers
        // the (sampling hash, mix words) entries of its survivors and
        // feeds the words to its sketch, so every survivor is mixed once
        // however many levels it enters.
        crate::scratch::with_columns(|[mixed, surv_h, surv_m, next_h, next_m]| {
            let sketch = &self.levels[0].sketch;
            let words = sketch.mix_words();
            sketch.mix_batch(items, mixed);
            // Successive dyadic levels are usually *nested*: `keep` fits
            // inside the previous level's admitted window (`keep ≤
            // min(prev_keep, prev_modulus)`), or the previous level
            // admitted everything. Whenever that holds, the gather
            // filters the previous level's survivor column instead of
            // rescanning the whole chunk, so the scan work telescopes
            // geometrically with depth. A level that admits its whole
            // source (`keep ≥ modulus`, e.g. modulus 1) feeds that source
            // to its sketch without a copy. Membership is unchanged
            // either way. `surv` is the previous level's survivor count
            // in `surv_h`/`surv_m`, or `None` when it kept the chunk.
            let mut surv: Option<usize> = None;
            let mut prev: Option<(u64, u64)> = None;
            for level in &mut self.levels {
                let nested = prev.is_some_and(|(pm, pk)| pk >= pm || level.keep <= pk.min(pm));
                let (src_h, src_m): (&[u64], &[u64]) = match surv {
                    Some(n) if nested => (&surv_h[..n], &surv_m[..n * words]),
                    _ => (hashes, mixed),
                };
                if level.keep >= level.modulus {
                    level.sketch.insert_mixed(src_m);
                    if !nested {
                        surv = None;
                    }
                } else {
                    let (dst_h, dst_m) = (
                        crate::scratch::at_least(next_h, src_h.len()),
                        crate::scratch::at_least(next_m, src_m.len()),
                    );
                    let kept = gather(src_h, src_m, level.modulus - 1, level.keep, dst_h, dst_m);
                    level.sketch.insert_mixed(&dst_m[..kept * words]);
                    std::mem::swap(surv_h, next_h);
                    std::mem::swap(surv_m, next_m);
                    surv = Some(kept);
                }
                prev = Some((level.modulus, level.keep));
            }
        });
    }

    /// Report a representative of every contributing class: the union of
    /// per-level heavy hitters over the domain, deduplicated by
    /// coordinate, sorted by decreasing estimate. When a coordinate is
    /// reported by several levels, the estimate from the *highest* level
    /// is kept: its substream is the sparsest, so its CountSketch
    /// collision noise is the smallest.
    pub fn report(&self) -> Vec<ContributingReport> {
        let domain = self.domain_hashes();
        let mut out: Vec<ContributingReport> = Vec::new();
        for (i, level) in self.levels.iter().enumerate() {
            let level_idx = level.modulus.trailing_zeros();
            for HeavyItem { item, est } in self.level_heavy_hitters(i, &domain) {
                out.push(ContributingReport {
                    level: level_idx,
                    item,
                    est,
                });
            }
        }
        out.sort_by(|a, b| a.item.cmp(&b.item).then(b.level.cmp(&a.level)));
        out.dedup_by_key(|r| r.item);
        out.sort_by(|a, b| b.est.cmp(&a.est).then(a.item.cmp(&b.item)));
        out
    }

    /// The sampling hash and the mix words (the
    /// [`CountSketch::mix_batch`] layout) of every domain id, in id
    /// order: one blocked pass each, shared by every level's
    /// [`F2Contributing::level_heavy_hitters`].
    pub fn domain_hashes(&self) -> (Vec<u64>, Vec<u64>) {
        let ids: Vec<u64> = (0..self.domain).collect();
        let (mut sampling, mut mixed) = (Vec::new(), Vec::new());
        self.hash.hash_batch(&ids, &mut sampling);
        self.levels[0].sketch.mix_batch(&ids, &mut mixed);
        (sampling, mixed)
    }

    /// The heavy hitters of level `level` (Theorem 2.10's thresholded
    /// point query): every domain id its sampling filter keeps (`hash &
    /// (modulus − 1) < keep`, the test the update path applies) whose
    /// estimate `est` is positive with `est² ≥ factor · F̂2`, in
    /// ascending id order. The stream is insertion-only, so an estimate
    /// ≤ 0 approximates no heavy frequency and is never reported.
    /// `domain` is [`F2Contributing::domain_hashes`].
    pub fn level_heavy_hitters(
        &self,
        level: usize,
        domain: &(Vec<u64>, Vec<u64>),
    ) -> Vec<HeavyItem> {
        let level = &self.levels[level];
        let (sampling, mixed) = domain;
        let words = level.sketch.mix_words();
        let mask = level.modulus - 1;
        let (mut ids, mut surv_m) = (Vec::new(), Vec::new());
        for ((id, &h), g) in (0u64..).zip(sampling).zip(mixed.chunks_exact(words)) {
            if h & mask < level.keep {
                ids.push(id);
                surv_m.extend_from_slice(g);
            }
        }
        let thr = level.factor * level.sketch.f2_estimate();
        let mut ests = Vec::new();
        level.sketch.query_mixed(&surv_m, &mut ests);
        ids.into_iter()
            .zip(ests)
            .filter(|&(_, est)| est > 0 && (est as f64) * (est as f64) >= thr)
            .map(|(item, est)| HeavyItem { item, est })
            .collect()
    }

    /// Number of size-guess levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The coordinate domain size: ids are in `[0, domain)`.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// The shared sampling hash (wire serialization).
    pub fn sampling_hash(&self) -> &KWise {
        &self.hash
    }

    /// Every level's `(modulus, keep, threshold factor, sketch)`, in
    /// level order (wire serialization).
    pub fn level_parts(&self) -> Vec<(u64, u64, f64, &CountSketch)> {
        self.levels
            .iter()
            .map(|l| (l.modulus, l.keep, l.factor, &l.sketch))
            .collect()
    }

    /// Rebuild from parts (inverse of the accessors). Fails on a domain
    /// above [`MAX_DOMAIN`], an empty or malformed level schedule, a
    /// threshold factor outside `(0, 1]`, or levels whose CountSketches
    /// carry different mixes.
    pub fn from_parts(
        hash: KWise,
        domain: u64,
        levels: Vec<(u64, u64, f64, CountSketch)>,
    ) -> Result<Self, String> {
        if domain > MAX_DOMAIN {
            return Err(format!("domain {domain} exceeds the cap {MAX_DOMAIN}"));
        }
        let Some(first) = levels.first() else {
            return Err("need at least one level".into());
        };
        let mut prev = 0u64;
        for &(modulus, keep, factor, ref sketch) in &levels {
            if !modulus.is_power_of_two() || keep == 0 || keep > modulus {
                return Err(format!("malformed level (modulus {modulus}, keep {keep})"));
            }
            if modulus <= prev {
                return Err("level moduli must be strictly increasing".into());
            }
            prev = modulus;
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(format!("level threshold factor {factor} is not in (0, 1]"));
            }
            if sketch.mix() != first.3.mix() {
                return Err("finder levels carry different CountSketch mixes".into());
            }
        }
        Ok(F2Contributing {
            domain,
            hash,
            levels: levels
                .into_iter()
                .map(|(modulus, keep, factor, sketch)| Level {
                    modulus,
                    keep,
                    factor,
                    sketch,
                })
                .collect(),
        })
    }

    /// Merge a finder built with the same configuration and seed over a
    /// disjoint stream shard. Coordinate sampling is a pure function of
    /// the shared hash, so each level's surviving substream is the
    /// disjoint union of the shards' substreams, and the level sketches
    /// add: every report and estimate is bit-identical to single-stream
    /// ingestion. Panics on configuration or seed mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.domain, self.levels.len()),
            (other.domain, other.levels.len()),
            "F2Contributing merge requires identical configuration (domain, levels)"
        );
        assert_eq!(
            self.hash.hash(0x5eed_c0de),
            other.hash.hash(0x5eed_c0de),
            "F2Contributing merge requires identical hash functions"
        );
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            assert_eq!(
                (a.modulus, a.keep, a.factor.to_bits()),
                (b.modulus, b.keep, b.factor.to_bits()),
                "F2Contributing merge requires identical configuration (level schedule)"
            );
            a.sketch.merge(&b.sketch);
        }
    }

    /// Restore per-level CountSketch telemetry counters
    /// (`(merges, sketch_updates)` pairs, level order) after wire
    /// reconstruction. Fails when the slice length disagrees with the
    /// level count.
    pub fn restore_telemetry(&mut self, counters: &[(u64, u64)]) -> Result<(), String> {
        if counters.len() != self.levels.len() {
            return Err(format!(
                "{} telemetry entries for {} levels",
                counters.len(),
                self.levels.len()
            ));
        }
        for (level, &(merges, cs_updates)) in self.levels.iter_mut().zip(counters) {
            level.sketch.restore_telemetry(cs_updates, merges);
        }
        Ok(())
    }

    /// Telemetry snapshot aggregated over the levels: each level's
    /// CountSketch (fill = capacity = cells), with `updates` the length
    /// of the substream the level kept.
    pub fn stats(&self) -> SketchStats {
        let mut agg = SketchStats::default();
        for level in &self.levels {
            agg.absorb(SketchStats {
                updates: level.sketch.heat_updates(),
                ..level.sketch.stats()
            });
        }
        agg
    }
}

/// Branch-free compaction of one level's survivors: copy every
/// (sampling hash, mix words) entry of the source into `dst_h`/`dst_m`
/// (each at least as long as its source) and advance the write index by
/// the membership test `h & mask < keep`. Returns the survivor count.
/// One word per entry (two-row sketches, every `LargeSet` finder)
/// copies scalars; without that arm `planted-a8` ingest falls by a
/// median 6–9% (EXPERIMENTS.md E25).
fn gather(
    src_h: &[u64],
    src_m: &[u64],
    mask: u64,
    keep: u64,
    dst_h: &mut [u64],
    dst_m: &mut [u64],
) -> usize {
    if src_h.is_empty() {
        return 0;
    }
    let words = src_m.len() / src_h.len();
    let mut k = 0;
    if words == 1 {
        for (&h, &g) in src_h.iter().zip(src_m) {
            dst_h[k] = h;
            dst_m[k] = g;
            k += usize::from(h & mask < keep);
        }
    } else {
        for (&h, g) in src_h.iter().zip(src_m.chunks_exact(words)) {
            dst_h[k] = h;
            dst_m[k * words..(k + 1) * words].copy_from_slice(g);
            k += usize::from(h & mask < keep);
        }
    }
    k
}

impl SpaceUsage for F2Contributing {
    /// The shared sampling hash, the per-level CountSketches (aggregated
    /// into one `levels/countsketch` subtree — level counts vary with `α`, and
    /// per-level children would multiply trace events without changing
    /// any audit), and a 2-word `overhead` leaf per level for the
    /// `(modulus, keep)` schedule.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("hash", self.hash.space_words());
        let levels = node.child("levels");
        for level in &self.levels {
            level.sketch.space_ledger(levels.child("countsketch"));
        }
        node.leaf("overhead", 2 * self.levels.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_obs::LedgerNode;

    /// A finder for one search: the same config on both tiers.
    fn finder(c: ContributingConfig, m: usize, n: usize, seed: u64) -> F2Contributing {
        F2Contributing::new(c.clone(), c, m, n, seed)
    }

    /// A one-level finder: the unsampled level alone, Theorem 2.10's
    /// heavy hitter for threshold `φ = phi` over the ids `[0, m)`.
    fn heavy_hitter(phi: f64, m: usize, seed: u64) -> F2Contributing {
        let mut c = ContributingConfig::new(phi, 1);
        c.phi_factor = 1.0;
        let fc = finder(c, m, m, seed);
        assert_eq!(fc.num_levels(), 1);
        fc
    }

    /// The heavy hitters of level `level` over the finder's domain.
    fn heavy(fc: &F2Contributing, level: usize) -> Vec<HeavyItem> {
        fc.level_heavy_hitters(level, &fc.domain_hashes())
    }

    /// A frequency vector's (item, freq) pairs in round-robin order.
    fn round_robin(freqs: &[(u64, u64)]) -> Vec<u64> {
        let max_f = freqs.iter().map(|&(_, f)| f).max().unwrap_or(0);
        (0..max_f)
            .flat_map(|round| {
                freqs
                    .iter()
                    .filter(move |&&(_, f)| round < f)
                    .map(|&(item, _)| item)
            })
            .collect()
    }

    /// Feed a frequency vector in round-robin order.
    fn feed(fc: &mut F2Contributing, freqs: &[(u64, u64)]) {
        fc.insert_batch(&round_robin(freqs));
    }

    /// Each level's counter table, in level order.
    fn tables(fc: &F2Contributing) -> Vec<Vec<i64>> {
        fc.level_parts()
            .iter()
            .map(|l| l.3.table().to_vec())
            .collect()
    }

    #[test]
    fn single_heavy_coordinate_is_its_own_class() {
        // One coordinate with freq 512 against 100 coords of freq 1:
        // class {512-freq coord} contributes 512^2/(512^2+100) ≈ 1.
        let mut fc = finder(ContributingConfig::new(0.5, 64), 1000, 1000, 7);
        feed(&mut fc, &[(42, 512)]);
        fc.insert_batch(&(100..200).collect::<Vec<u64>>());
        let rep = fc.report();
        assert!(
            rep.iter().any(|r| r.item == 42),
            "missing the heavy class: {rep:?}"
        );
        let est = rep.iter().find(|r| r.item == 42).unwrap().est;
        assert!((256..=768).contains(&est), "estimate {est}");
    }

    #[test]
    fn heavy_level_recalls_every_phi_heavy_item() {
        // One dominant item against 200 noise items: found, with its
        // frequency within (1 ± 1/2).
        let mut hh = heavy_hitter(0.1, 1_200, 1);
        feed(&mut hh, &[(7, 1_000)]);
        hh.insert_batch(&(1_000..1_200).collect::<Vec<u64>>());
        let out = heavy(&hh, 0);
        let est = out.iter().find(|h| h.item == 7).expect("dominant item").est;
        assert!((500..=1500).contains(&est), "estimate {est}");
        // Theorem 2.10 recall: three heavy items (freq 400) and 2000
        // noise items (freq 1). F2 = 3·160000 + 2000 = 482000, and
        // 400²/482000 = 0.33 ≥ φ = 0.05.
        let mut hh = heavy_hitter(0.05, 2_100, 42);
        feed(&mut hh, &[(1, 400), (2, 400), (3, 400)]);
        hh.insert_batch(&(100..2_100).collect::<Vec<u64>>());
        let out = heavy(&hh, 0);
        for item in [1u64, 2, 3] {
            assert!(out.iter().any(|h| h.item == item), "missing {item}");
        }
    }

    #[test]
    fn heavy_level_reports_no_strict_heavy_on_a_uniform_stream() {
        // Every frequency is 3, F2 = 2700, and the strict bar 0.3·F2 =
        // 810 needs a frequency ≥ 28.5. The slacked report may carry
        // extras (the theorem only promises recall), but nothing may
        // pass the strict threshold.
        let mut hh = heavy_hitter(0.3, 300, 5);
        feed(&mut hh, &(0..300).map(|i| (i, 3)).collect::<Vec<_>>());
        let f2 = hh.level_parts()[0].3.f2_estimate();
        let strict: Vec<_> = heavy(&hh, 0)
            .into_iter()
            .filter(|h| (h.est as f64) * (h.est as f64) >= 0.3 * f2)
            .collect();
        assert!(strict.is_empty(), "false strict heavy hitters: {strict:?}");
    }

    #[test]
    fn level_reports_are_the_thresholded_point_query_of_their_survivors() {
        // Per level: every domain id the update path's sampling test
        // keeps, point-queried, and kept when its estimate is positive
        // and its square reaches REPORT_SLACK · φ · F̂2; in id order.
        let mut hh = heavy_hitter(0.02, 400, 6);
        hh.insert_batch(&(0..3_000u64).map(|i| i * i % 211).collect::<Vec<_>>());
        let mut fc = finder(ContributingConfig::new(0.1, 512), 2_000, 2_000, 29);
        feed(&mut fc, &(0..200).map(|i| (i * 7, 20)).collect::<Vec<_>>());
        for fc in [&hh, &fc] {
            let domain = fc.domain_hashes();
            assert_eq!(domain.0.len(), fc.domain() as usize);
            assert_eq!(domain.1.len(), 3 * fc.domain() as usize);
            let mut reported = 0;
            for (i, (modulus, keep, factor, sketch)) in fc.level_parts().into_iter().enumerate() {
                let thr = factor * sketch.f2_estimate();
                let want: Vec<HeavyItem> = (0..fc.domain())
                    .filter(|&id| fc.sampling_hash().hash(id) % modulus < keep)
                    .map(|item| HeavyItem {
                        item,
                        est: sketch.query(item),
                    })
                    .filter(|h| h.est > 0 && (h.est as f64) * (h.est as f64) >= thr)
                    .collect();
                let got = fc.level_heavy_hitters(i, &domain);
                assert_eq!(got, want, "level {i}");
                reported += got.len();
            }
            assert!(reported > 0);
        }
        // The one level's factor is REPORT_SLACK · φ, bit for bit.
        assert_eq!(hh.level_parts()[0].2, REPORT_SLACK * 0.02);
    }

    #[test]
    fn results_follow_id_order_per_level_and_estimate_order_in_the_report() {
        let mut hh = heavy_hitter(0.01, 10, 8);
        feed(&mut hh, &[(1, 300), (2, 600), (3, 450)]);
        let items: Vec<u64> = heavy(&hh, 0).iter().map(|h| h.item).collect();
        assert_eq!(items, vec![1, 2, 3]);
        let rep = hh.report();
        let items: Vec<u64> = rep.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![2, 3, 1]);
        assert!(rep.windows(2).all(|w| w[0].est >= w[1].est));
    }

    #[test]
    fn large_class_of_medium_coordinates_detected() {
        // 64 coordinates of frequency 32 each: the class R_5 contributes
        // all of F2 (plus tiny noise); a singleton heavy hitter does NOT
        // exist (32^2 = 1024 vs F2 = 64*1024 = 65536, ratio 1/64), so only
        // the level-sampling mechanism can find it.
        let mut fc = finder(ContributingConfig::new(0.5, 256), 10_000, 10_000, 11);
        let freqs: Vec<(u64, u64)> = (0..64).map(|i| (i as u64, 32)).collect();
        feed(&mut fc, &freqs);
        let rep = fc.report();
        assert!(
            rep.iter().any(|r| r.item < 64),
            "no member of the contributing class found: {rep:?}"
        );
        // The found member's estimate should be near 32 (within 1±1/2).
        let member = rep.iter().find(|r| r.item < 64).unwrap();
        assert!(
            (16..=48).contains(&member.est),
            "member estimate {} out of band",
            member.est
        );
    }

    #[test]
    fn respects_class_size_bound() {
        // With max_class_size = 1 only level 0 exists: the unsampled
        // stream.
        let fc = finder(ContributingConfig::new(0.5, 1), 100, 100, 3);
        assert_eq!(fc.num_levels(), 1);
    }

    #[test]
    fn report_deduplicates_items() {
        let mut fc = finder(ContributingConfig::new(0.3, 128), 1000, 1000, 5);
        feed(&mut fc, &[(9, 300)]);
        let rep = fc.report();
        let count = rep.iter().filter(|r| r.item == 9).count();
        assert_eq!(count, 1, "item must appear once: {rep:?}");
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let fc = finder(ContributingConfig::new(0.2, 64), 100, 100, 1);
        assert!(fc.report().is_empty());
        assert!(heavy(&heavy_hitter(0.1, 100, 1), 0).is_empty());
    }

    #[test]
    fn space_scales_inversely_with_gamma() {
        let coarse = finder(ContributingConfig::new(0.5, 64), 1000, 1000, 1);
        let fine = finder(ContributingConfig::new(0.005, 64), 1000, 1000, 1);
        assert!(fine.space_words() > coarse.space_words());
    }

    #[test]
    fn levels_cover_size_bound() {
        let fc = finder(ContributingConfig::new(0.1, 100), 1000, 1000, 1);
        // One unsampled level + subsampled levels 32, 64, 128 (moduli
        // above survivors_per_class = 16), covering sizes up to 128 ≥
        // 100.
        assert_eq!(fc.num_levels(), 4);
    }

    #[test]
    fn paired_tiers_split_the_schedule_at_the_wide_bound() {
        // Levels within the wide class-size bound carry the wide shape
        // and threshold, deeper ones the narrow.
        let (mut wide, mut narrow) = (
            ContributingConfig::new(0.05, 64),
            ContributingConfig::new(0.5, 512),
        );
        for c in [&mut wide, &mut narrow] {
            c.phi_factor = 1.0;
        }
        let fc = F2Contributing::new(wide, narrow, 1000, 1000, 4);
        let shapes: Vec<(u64, f64, usize)> = fc
            .level_parts()
            .iter()
            .map(|l| (l.0, l.2, l.3.width()))
            .collect();
        let (w, n) = (REPORT_SLACK * 0.05, REPORT_SLACK * 0.5);
        assert_eq!(
            shapes,
            vec![
                (1, w, 640),
                (32, w, 640),
                (64, w, 640),
                (128, n, 64),
                (256, n, 64),
                (512, n, 64)
            ]
        );
    }

    #[test]
    fn two_contributing_classes_both_represented() {
        // Class A: one coord of freq 256 (contribution 65536).
        // Class B: 16 coords of freq 64 (contribution 16*4096 = 65536).
        // Both classes are ~0.5-contributing.
        let mut fc = finder(ContributingConfig::new(0.25, 64), 10_000, 10_000, 23);
        let mut freqs: Vec<(u64, u64)> = vec![(0, 256)];
        freqs.extend((1..=16).map(|i| (i as u64, 64)));
        feed(&mut fc, &freqs);
        let rep = fc.report();
        assert!(rep.iter().any(|r| r.item == 0), "class A missing: {rep:?}");
        assert!(
            rep.iter().any(|r| (1..=16).contains(&r.item)),
            "class B missing: {rep:?}"
        );
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn invalid_gamma_rejected() {
        let _ = ContributingConfig::new(-0.1, 10);
    }

    #[test]
    fn merge_is_serial_ingestion_and_commutes() {
        let mut freqs: Vec<(u64, u64)> = vec![(0, 256)];
        freqs.extend((1..=16).map(|i| (i as u64, 64)));
        let items = round_robin(&freqs);
        for proto in [
            finder(ContributingConfig::new(0.25, 64), 1000, 1000, 19),
            heavy_hitter(0.05, 100, 13),
        ] {
            let (mut left, mut right, mut serial) = (proto.clone(), proto.clone(), proto);
            serial.insert_batch(&items);
            let (a, b) = items.split_at(items.len() / 3);
            left.insert_batch(a);
            right.insert_batch(b);
            let mut ba = right.clone();
            ba.merge(&left);
            left.merge(&right);
            for merged in [&left, &ba] {
                assert_eq!(tables(merged), tables(&serial));
                assert_eq!(merged.report(), serial.report());
                assert_eq!(merged.stats().updates, serial.stats().updates);
            }
            assert_eq!(left.stats().merges, left.num_levels() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let mut a = finder(ContributingConfig::new(0.5, 16), 100, 100, 1);
        let b = finder(ContributingConfig::new(0.5, 16), 100, 100, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_level_mismatch() {
        let mut a = finder(ContributingConfig::new(0.5, 16), 100, 100, 1);
        let b = finder(ContributingConfig::new(0.5, 256), 100, 100, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_threshold_mismatch() {
        let mut a = heavy_hitter(0.1, 100, 1);
        let b = heavy_hitter(0.2, 100, 1);
        a.merge(&b);
    }

    #[test]
    fn stats_count_the_tables_and_each_levels_substream() {
        let mut hh = heavy_hitter(0.1, 5_000, 3);
        hh.insert_batch(&(0..5_000).collect::<Vec<u64>>());
        let st = hh.stats();
        assert_eq!(st.updates, 5_000);
        assert_eq!((st.fill, st.capacity), (5 * 320, 5 * 320));
        assert_eq!((st.evictions, st.prunes, st.merges), (0, 0, 0));
        let mut fc = finder(ContributingConfig::new(0.25, 64), 1000, 1000, 19);
        feed(&mut fc, &[(4, 128), (9, 40)]);
        let st = fc.stats();
        // Level 0 is unsampled, so it alone sees the whole stream.
        assert!(st.updates >= 168);
        assert!(st.capacity > 0);
        assert_eq!(st.merges, 0);
    }

    #[test]
    fn ledger_counts_the_shape_and_restores_heat() {
        // One level at φ = 0.1: a 5-row CountSketch of width ⌈32/φ⌉ =
        // 320, three 4-word mix words (one per two rows), the sampling
        // hash and the 2-word (modulus, keep) schedule; the table's heat
        // is the stream length.
        let mut hh = heavy_hitter(0.1, 100, 4);
        hh.insert_batch(&(0..1_000u64).map(|i| i % 97).collect::<Vec<_>>());
        let mut node = LedgerNode::new();
        hh.space_ledger(&mut node);
        let hash = hh.sampling_hash().space_words();
        assert_eq!(hh.space_words(), hash + 5 * 320 + 3 * 4 + 2);
        let cs = node.get("levels").unwrap().get("countsketch").unwrap();
        assert_eq!(cs.total_words(), 5 * 320 + 3 * 4);
        assert_eq!(cs.total_updates(), 1_000);

        let mut fc = finder(ContributingConfig::new(0.25, 64), 1000, 1000, 19);
        feed(&mut fc, &[(4, 128), (9, 40)]);
        let mut node = LedgerNode::new();
        fc.space_ledger(&mut node);
        // The sampling hash, then per level a CountSketch (table and its
        // copy of the 4-word mix words, one per two rows) and the 2-word
        // (modulus, keep) schedule.
        let levels: usize = fc
            .level_parts()
            .iter()
            .map(|l| l.3.rows() * l.3.width() + 4 * l.3.rows().div_ceil(2) + 2)
            .sum();
        let want = fc.sampling_hash().space_words() + levels;
        assert_eq!(node.total_words(), want as u64);
        assert_eq!(fc.space_words(), want);
        assert_eq!(
            node.get("hash").unwrap().own.words,
            fc.sampling_hash().space_words() as u64
        );
        assert_eq!(
            node.get("overhead").unwrap().own.words,
            2 * fc.num_levels() as u64
        );
        // Level 0 is unsampled: its CountSketch saw every update, so the
        // aggregated subtree carries at least the full stream's heat.
        assert!(node.get("levels").unwrap().total_updates() >= 168);

        // The restore path re-applies inner-sketch heat exactly.
        let heat: Vec<(u64, u64)> = fc
            .level_parts()
            .iter()
            .map(|l| (l.3.stats().merges, l.3.heat_updates()))
            .collect();
        let mut back =
            F2Contributing::from_parts(fc.sampling_hash().clone(), fc.domain(), owned_levels(&fc))
                .unwrap();
        // Clones keep heat; clobber it to prove restore actually writes.
        let zeros = vec![(0u64, 0); fc.num_levels()];
        back.restore_telemetry(&zeros).unwrap();
        let mut zeroed = LedgerNode::new();
        back.space_ledger(&mut zeroed);
        assert_ne!(zeroed, node, "zeroed heat must be visible in the ledger");
        back.restore_telemetry(&heat).unwrap();
        let mut back_node = LedgerNode::new();
        back.space_ledger(&mut back_node);
        assert_eq!(back_node, node);
        assert!(back.restore_telemetry(&heat[..1]).is_err());
    }

    /// The finder's level parts, cloned.
    fn owned_levels(fc: &F2Contributing) -> Vec<(u64, u64, f64, CountSketch)> {
        fc.level_parts()
            .into_iter()
            .map(|(m, k, f, cs)| (m, k, f, cs.clone()))
            .collect()
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut fc = finder(ContributingConfig::new(0.3, 64), 500, 500, 3);
        feed(&mut fc, &[(4, 128), (9, 40)]);
        let levels = owned_levels(&fc);
        let hash = fc.sampling_hash().clone();
        let back = F2Contributing::from_parts(hash.clone(), 500, levels.clone()).unwrap();
        assert_eq!(fc.report(), back.report());
        assert!(F2Contributing::from_parts(hash.clone(), 500, Vec::new()).is_err());
        let cs = levels[0].3.clone();
        let bad = vec![(3u64, 1u64, 0.01, cs.clone())];
        assert!(F2Contributing::from_parts(hash.clone(), 500, bad).is_err());
        // A threshold factor must be finite and in (0, 1].
        for factor in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let e = F2Contributing::from_parts(hash.clone(), 500, vec![(1, 1, factor, cs.clone())])
                .unwrap_err();
            assert!(e.contains("threshold factor"), "{factor}: {e}");
        }
        assert!(F2Contributing::from_parts(hash.clone(), 500, vec![(1, 1, 1.0, cs)]).is_ok());
        let e = F2Contributing::from_parts(hash, MAX_DOMAIN + 1, levels).unwrap_err();
        assert!(e.contains("exceeds the cap"), "{e}");
    }

    #[test]
    fn insert_batch_is_chunking_invariant() {
        // Nested and non-nested level schedules, one and three mix words,
        // and the one-level heavy hitter; one-item chunks are the serial
        // stream.
        let items: Vec<u64> = (0..3_000u64).map(|i| (i * i + 7 * i) % 1_500).collect();
        let configs = [
            (ContributingConfig::new(0.1, 512), 5),
            (ContributingConfig::new(0.3, 64), 2),
            (ContributingConfig::new(0.05, 1), 5),
        ];
        for (mut config, rows) in configs {
            config.hh_rows = rows;
            config.survivors_per_class = 3;
            let proto = finder(config, 1_500, 1_500, 71);
            let mut serial = proto.clone();
            for item in &items {
                serial.insert_batch(std::slice::from_ref(item));
            }
            for chunk in [5usize, 64, 1_000, items.len()] {
                let mut batched = proto.clone();
                for block in items.chunks(chunk) {
                    batched.insert_batch(block);
                }
                assert_eq!(
                    tables(&batched),
                    tables(&serial),
                    "rows {rows} chunk {chunk}"
                );
                assert_eq!(batched.stats().updates, serial.stats().updates);
                assert_eq!(batched.report(), serial.report());
            }
        }
    }

    #[test]
    fn from_parts_rejects_levels_with_different_mixes() {
        let fc = finder(ContributingConfig::new(0.1, 512), 500, 500, 3);
        let mut levels = owned_levels(&fc);
        let hash = fc.sampling_hash().clone();
        assert!(F2Contributing::from_parts(hash.clone(), 500, levels.clone()).is_ok());
        let last = levels.last_mut().unwrap();
        last.3 = CountSketch::new(last.3.rows(), last.3.width(), 99);
        let e = F2Contributing::from_parts(hash, 500, levels).unwrap_err();
        assert!(e.contains("different CountSketch mixes"), "{e}");
    }

    #[test]
    fn report_enumerates_exactly_the_domain() {
        // The same heavy coordinate inside and outside a 100-id domain:
        // only the in-domain finder reports it.
        for (item, found) in [(42u64, true), (100, false), (5_000, false)] {
            let mut fc = finder(ContributingConfig::new(0.5, 16), 100, 100, 7);
            feed(&mut fc, &[(item, 300)]);
            let rep = fc.report();
            assert_eq!(
                rep.iter().any(|r| r.item == item),
                found,
                "item {item}: {rep:?}"
            );
            assert!(rep.iter().all(|r| r.item < 100));
        }
    }
}
