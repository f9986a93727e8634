//! `γ`-contributing class detection — Theorem 2.11, after Indyk & Woodruff
//! (reference [29] of the paper).
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
//! Coordinates are ids in a known domain `[d]`. The per-level heavy
//! hitters store only their CountSketches; [`F2Contributing::report`]
//! enumerates the domain at query time, runs it once through the
//! sampling hash, and point-queries each level's sketch on that level's
//! survivors.
//!
//! Every level's CountSketch is addressed by one shared mix (equal
//! copies of the same 4-wise words, see [`crate::count_sketch`]), so a
//! coordinate's mix words are evaluated once per update, or once per
//! domain id at query time, and handed to every level it enters.

use kcov_hash::{log_wise, KWise, RangeHash, SeedSequence};
use kcov_obs::SketchStats;

use crate::count_sketch::CountSketch;
use crate::heavy_hitter::{F2HeavyHitter, HeavyHitterConfig, HeavyItem};
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

#[derive(Debug, Clone)]
struct Level {
    /// Keep a coordinate iff `hash(j) mod 2^i < keep`, i.e. with
    /// probability `keep / 2^i`.
    modulus: u64,
    keep: u64,
    hh: F2HeavyHitter,
}

impl F2Contributing {
    /// Create a finder for threshold `config.gamma`, guessing class sizes
    /// `2^0, 2^1, …` up to `config.max_class_size`, over coordinates in
    /// `[0, m)`: ids outside the domain are never reported. `m` and `n`
    /// size the `Θ(log(mn))`-wise sampling hashes (Claim 2.8). Panics
    /// when `m` exceeds [`MAX_DOMAIN`].
    pub fn new(config: ContributingConfig, m: usize, n: usize, seed: u64) -> Self {
        assert!(m as u64 <= MAX_DOMAIN, "domain {m} exceeds MAX_DOMAIN");
        let mut seq = SeedSequence::labeled(seed, "f2-contributing");
        let max_level = config.max_class_size.max(1).next_power_of_two().trailing_zeros();
        let phi = (config.gamma * config.phi_factor).clamp(1e-9, 1.0);
        let hh_config = |phi: f64| {
            let mut c = HeavyHitterConfig::for_phi(phi);
            c.width_factor = config.hh_width_factor;
            c.rows = config.hh_rows;
            c
        };
        let hash = match config.sampling_degree {
            Some(d) => KWise::new(d, seq.next_seed()),
            None => log_wise(m, n, seq.next_seed()),
        };
        let mix = CountSketch::draw_mix(config.hh_rows, seq.next_seed());
        // Levels whose modulus does not exceed `survivors_per_class`
        // sample with probability 1 and are therefore identical to the
        // unsampled level — build one unsampled level plus the truly
        // subsampled ones. (Classes of size ≤ survivors are caught by
        // the unsampled heavy hitter directly, exactly as in the paper's
        // small-i guesses.)
        let mut levels = vec![Level {
            modulus: 1,
            keep: 1,
            hh: F2HeavyHitter::with_mix(hh_config(phi), mix.clone()),
        }];
        for i in 1..=max_level {
            let modulus = 1u64 << i;
            if modulus <= config.survivors_per_class {
                continue;
            }
            levels.push(Level {
                modulus,
                keep: config.survivors_per_class,
                hh: F2HeavyHitter::with_mix(hh_config(phi), mix.clone()),
            });
        }
        F2Contributing {
            domain: m as u64,
            hash,
            levels,
        }
    }

    /// Two-tier finder: one dyadic level schedule up to
    /// `max(wide.max_class_size, narrow.max_class_size)`, with one
    /// shared sampling hash. Levels whose modulus stays within
    /// `wide.max_class_size` carry `wide`'s heavy-hitter shape; deeper
    /// levels carry `narrow`'s.
    ///
    /// A caller that runs two thresholded searches over the *same item
    /// stream* (e.g. `LargeSet`'s Case-1/Case-2 pair, whose class-size
    /// bounds differ but whose dyadic subsampling is identical) would
    /// otherwise instantiate two finders whose shared-modulus levels
    /// receive byte-identical substreams — every CountSketch on those
    /// levels is duplicated work. The paired
    /// schedule keeps exactly one structure per level: the overlap tier
    /// uses the wide (smaller-`φ`) sketch, which estimates at least as
    /// tightly as either original, and only the class sizes one search
    /// reaches alone pay for their own levels.
    ///
    /// The two configs must agree on `survivors_per_class`,
    /// `sampling_degree` and `hh_rows` (they share the level schedule,
    /// the hash and the mix).
    pub fn new_paired(
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
        let hh_config = |c: &ContributingConfig| {
            let phi = (c.gamma * c.phi_factor).clamp(1e-9, 1.0);
            let mut h = HeavyHitterConfig::for_phi(phi);
            h.width_factor = c.hh_width_factor;
            h.rows = c.hh_rows;
            h
        };
        let hash = match wide.sampling_degree {
            Some(d) => KWise::new(d, seq.next_seed()),
            None => log_wise(m, n, seq.next_seed()),
        };
        let mix = CountSketch::draw_mix(wide.hh_rows, seq.next_seed());
        let tier = |modulus: u64| {
            if modulus <= wide_p2 {
                hh_config(&wide)
            } else {
                hh_config(&narrow)
            }
        };
        let mut levels = vec![Level {
            modulus: 1,
            keep: 1,
            hh: F2HeavyHitter::with_mix(tier(1), mix.clone()),
        }];
        for i in 1..=max_level {
            let modulus = 1u64 << i;
            if modulus <= wide.survivors_per_class {
                continue;
            }
            levels.push(Level {
                modulus,
                keep: wide.survivors_per_class,
                hh: F2HeavyHitter::with_mix(tier(modulus), mix.clone()),
            });
        }
        F2Contributing {
            domain: m as u64,
            hash,
            levels,
        }
    }

    /// Observe one stream update to coordinate `item`.
    pub fn insert(&mut self, item: u64) {
        let h = self.hash.hash(item);
        let sketch = self.levels[0].hh.sketch();
        let (words, n) = (sketch.mix_item(item), sketch.mix_words());
        for level in &mut self.levels {
            // Moduli are powers of two (validated by `from_parts` and by
            // construction), so the residue is a mask — value-identical
            // to `h % modulus`, minus the division.
            if h & (level.modulus - 1) < level.keep {
                level.hh.insert_mixed(&words[..n]);
            }
        }
    }

    /// Observe a chunk of updates. The shared sampling hash is evaluated
    /// once per item for the whole chunk (through the blocked
    /// [`RangeHash::hash_batch`] evaluator); each level then consumes its
    /// surviving sub-chunk, so every per-level heavy hitter sees the
    /// exact items the per-item path feeds it.
    pub fn insert_batch(&mut self, items: &[u64]) {
        let mut hashes: Vec<u64> = Vec::new();
        self.hash.hash_batch(items, &mut hashes);
        self.insert_batch_prehashed(items, &hashes);
    }

    /// [`F2Contributing::insert_batch`] with the sampling hashes already
    /// evaluated: `hashes[i]` must equal `self.sampling_hash().hash(items[i])`.
    /// Lets a caller that owns two finders over the same item stream and
    /// the same sampling hash (e.g. `LargeSet`'s paired case-1/case-2
    /// finders) evaluate the hash batch once and feed both.
    pub fn insert_batch_prehashed(&mut self, items: &[u64], hashes: &[u64]) {
        debug_assert_eq!(items.len(), hashes.len());
        debug_assert!(
            items.first().is_none_or(|&i| self.hash.hash(i) == hashes[0]),
            "prehashed values disagree with the sampling hash"
        );
        // One blocked mix pass over the chunk; each level then gathers
        // the (sampling hash, mix words) entries of its survivors and
        // feeds the words to its sketch, so every survivor is mixed once
        // however many levels it enters.
        let sketch = self.levels[0].hh.sketch();
        let words = sketch.mix_words();
        let mut mixed = Vec::new();
        sketch.mix_batch(items, &mut mixed);
        // Successive dyadic levels are usually *nested*: `keep` fits
        // inside the previous level's admitted window (`keep ≤
        // min(prev_keep, prev_modulus)`), or the previous level admitted
        // everything. Whenever that holds, the gather filters the
        // previous level's survivor column instead of rescanning the
        // whole chunk, so the scan work telescopes geometrically with
        // depth. Membership is unchanged either way.
        let n = items.len();
        let (mut surv_h, mut surv_m) = (vec![0u64; n], vec![0u64; n * words]);
        let (mut next_h, mut next_m) = (surv_h.clone(), surv_m.clone());
        let mut surv = 0;
        let mut prev: Option<(u64, u64)> = None;
        for level in &mut self.levels {
            let nested = prev.is_some_and(|(pm, pk)| pk >= pm || level.keep <= pk.min(pm));
            let (src_h, src_m): (&[u64], &[u64]) = if nested {
                (&surv_h[..surv], &surv_m[..surv * words])
            } else {
                (hashes, &mixed)
            };
            let kept = gather(src_h, src_m, level.modulus - 1, level.keep, &mut next_h, &mut next_m);
            level.hh.insert_mixed(&next_m[..kept * words]);
            std::mem::swap(&mut surv_h, &mut next_h);
            std::mem::swap(&mut surv_m, &mut next_m);
            surv = kept;
            prev = Some((level.modulus, level.keep));
        }
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
        self.levels[0].hh.sketch().mix_batch(&ids, &mut mixed);
        (sampling, mixed)
    }

    /// The heavy hitters of level `level` among the domain ids its
    /// sampling filter keeps (`hash & (modulus − 1) < keep`, the test the
    /// update path applies), in ascending id order. `domain` is
    /// [`F2Contributing::domain_hashes`].
    pub fn level_heavy_hitters(&self, level: usize, domain: &(Vec<u64>, Vec<u64>)) -> Vec<HeavyItem> {
        let level = &self.levels[level];
        let (sampling, mixed) = domain;
        let words = level.hh.sketch().mix_words();
        let mask = level.modulus - 1;
        let (mut ids, mut surv_m) = (Vec::new(), Vec::new());
        for ((id, &h), g) in (0u64..).zip(sampling).zip(mixed.chunks_exact(words)) {
            if h & mask < level.keep {
                ids.push(id);
                surv_m.extend_from_slice(g);
            }
        }
        level.hh.heavy_hitters_mixed(&ids, &surv_m)
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

    /// Per-level `(modulus, keep, heavy hitter)` triples (wire
    /// serialization).
    pub fn level_parts(&self) -> Vec<(u64, u64, &F2HeavyHitter)> {
        self.levels.iter().map(|l| (l.modulus, l.keep, &l.hh)).collect()
    }

    /// Rebuild from parts (inverse of the accessors). Fails on a domain
    /// above [`MAX_DOMAIN`], an empty or malformed level schedule, or
    /// levels whose CountSketches carry different mixes.
    pub fn from_parts(
        hash: KWise,
        domain: u64,
        levels: Vec<(u64, u64, F2HeavyHitter)>,
    ) -> Result<Self, String> {
        if domain > MAX_DOMAIN {
            return Err(format!("domain {domain} exceeds the cap {MAX_DOMAIN}"));
        }
        if levels.is_empty() {
            return Err("need at least one level".into());
        }
        let mut prev = 0u64;
        for &(modulus, keep, _) in &levels {
            if !modulus.is_power_of_two() || keep == 0 || keep > modulus {
                return Err(format!("malformed level (modulus {modulus}, keep {keep})"));
            }
            if modulus <= prev {
                return Err("level moduli must be strictly increasing".into());
            }
            prev = modulus;
        }
        if levels.iter().any(|(_, _, hh)| hh.sketch().mix() != levels[0].2.sketch().mix()) {
            return Err("finder levels carry different CountSketch mixes".into());
        }
        Ok(F2Contributing {
            domain,
            hash,
            levels: levels
                .into_iter()
                .map(|(modulus, keep, hh)| Level { modulus, keep, hh })
                .collect(),
        })
    }

    /// Merge a finder built with the same configuration and seed over a
    /// disjoint stream shard. Coordinate sampling is a pure function of
    /// the shared hash, so each level's surviving substream is the
    /// disjoint union of the shards' substreams and the per-level heavy
    /// hitters merge under their own contract. Panics on configuration
    /// or seed mismatch.
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
                (a.modulus, a.keep),
                (b.modulus, b.keep),
                "F2Contributing merge requires identical configuration (level schedule)"
            );
            a.hh.merge(&b.hh);
        }
    }

    /// Restore per-level heavy-hitter telemetry counters
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
            level.hh.restore_telemetry(merges, cs_updates);
        }
        Ok(())
    }

    /// Telemetry snapshot aggregated over the per-level heavy hitters.
    pub fn stats(&self) -> SketchStats {
        let mut agg = SketchStats::default();
        for level in &self.levels {
            agg.absorb(level.hh.stats());
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
    /// The shared sampling hash, the per-level heavy hitters (aggregated
    /// into one `levels` subtree — level counts vary with `α`, and
    /// per-level children would multiply trace events without changing
    /// any audit), and a 2-word `overhead` leaf per level for the
    /// `(modulus, keep)` schedule.
    fn space_ledger(&self, node: &mut impl SpaceSink) {
        node.leaf("hash", self.hash.space_words());
        let levels = node.child("levels");
        for level in &self.levels {
            level.hh.space_ledger(levels);
        }
        node.leaf("overhead", 2 * self.levels.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcov_obs::LedgerNode;

    /// Feed a frequency vector (item, freq) pairs in round-robin order.
    fn feed(fc: &mut F2Contributing, freqs: &[(u64, u64)]) {
        let max_f = freqs.iter().map(|&(_, f)| f).max().unwrap_or(0);
        for round in 0..max_f {
            for &(item, f) in freqs {
                if round < f {
                    fc.insert(item);
                }
            }
        }
    }

    #[test]
    fn single_heavy_coordinate_is_its_own_class() {
        // One coordinate with freq 512 against 100 coords of freq 1:
        // class {512-freq coord} contributes 512^2/(512^2+100) ≈ 1.
        let mut fc = F2Contributing::new(ContributingConfig::new(0.5, 64), 1000, 1000, 7);
        feed(&mut fc, &[(42, 512)]);
        for i in 0..100u64 {
            fc.insert(100 + i);
        }
        let rep = fc.report();
        assert!(rep.iter().any(|r| r.item == 42), "missing the heavy class: {rep:?}");
        let est = rep.iter().find(|r| r.item == 42).unwrap().est;
        assert!((256..=768).contains(&est), "estimate {est}");
    }

    #[test]
    fn large_class_of_medium_coordinates_detected() {
        // 64 coordinates of frequency 32 each: the class R_5 contributes
        // all of F2 (plus tiny noise); a singleton heavy hitter does NOT
        // exist (32^2 = 1024 vs F2 = 64*1024 = 65536, ratio 1/64), so only
        // the level-sampling mechanism can find it.
        let mut fc = F2Contributing::new(ContributingConfig::new(0.5, 256), 10_000, 10_000, 11);
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
        // stream. A contributing class of ~64 medium coordinates is then
        // findable only if each member alone is a phi-heavy hitter, which
        // it is not; the report must NOT contain low-frequency noise
        // either.
        let fc = F2Contributing::new(ContributingConfig::new(0.5, 1), 100, 100, 3);
        assert_eq!(fc.num_levels(), 1);
    }

    #[test]
    fn report_deduplicates_items() {
        let mut fc = F2Contributing::new(ContributingConfig::new(0.3, 128), 1000, 1000, 5);
        feed(&mut fc, &[(9, 300)]);
        let rep = fc.report();
        let count = rep.iter().filter(|r| r.item == 9).count();
        assert_eq!(count, 1, "item must appear once: {rep:?}");
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let fc = F2Contributing::new(ContributingConfig::new(0.2, 64), 100, 100, 1);
        assert!(fc.report().is_empty());
    }

    #[test]
    fn space_scales_inversely_with_gamma() {
        let coarse = F2Contributing::new(ContributingConfig::new(0.5, 64), 1000, 1000, 1);
        let fine = F2Contributing::new(ContributingConfig::new(0.005, 64), 1000, 1000, 1);
        assert!(fine.space_words() > coarse.space_words());
    }

    #[test]
    fn levels_cover_size_bound() {
        let fc = F2Contributing::new(ContributingConfig::new(0.1, 100), 1000, 1000, 1);
        // One unsampled level + subsampled levels 32, 64, 128 (moduli
        // above survivors_per_class = 16), covering sizes up to 128 ≥
        // 100.
        assert_eq!(fc.num_levels(), 4);
    }

    #[test]
    fn two_contributing_classes_both_represented() {
        // Class A: one coord of freq 256 (contribution 65536).
        // Class B: 16 coords of freq 64 (contribution 16*4096 = 65536).
        // Both classes are ~0.5-contributing.
        let mut fc = F2Contributing::new(ContributingConfig::new(0.25, 64), 10_000, 10_000, 23);
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
    fn merge_matches_serial_report() {
        let proto = F2Contributing::new(ContributingConfig::new(0.25, 64), 1000, 1000, 19);
        let mut left = proto.clone();
        let mut right = proto.clone();
        let mut serial = proto.clone();
        let mut freqs: Vec<(u64, u64)> = vec![(0, 256)];
        freqs.extend((1..=16).map(|i| (i as u64, 64)));
        // Split the round-robin stream at round 100: the first chunk to
        // the left shard, the rest to the right.
        let max_f = freqs.iter().map(|&(_, f)| f).max().unwrap();
        for round in 0..max_f {
            for &(item, f) in &freqs {
                if round < f {
                    serial.insert(item);
                    if round < 100 {
                        left.insert(item);
                    } else {
                        right.insert(item);
                    }
                }
            }
        }
        left.merge(&right);
        assert_eq!(left.report(), serial.report());
    }

    #[test]
    #[should_panic(expected = "identical hash functions")]
    fn merge_rejects_seed_mismatch() {
        let mut a = F2Contributing::new(ContributingConfig::new(0.5, 16), 100, 100, 1);
        let b = F2Contributing::new(ContributingConfig::new(0.5, 16), 100, 100, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merge_rejects_level_mismatch() {
        let mut a = F2Contributing::new(ContributingConfig::new(0.5, 16), 100, 100, 1);
        let b = F2Contributing::new(ContributingConfig::new(0.5, 256), 100, 100, 1);
        a.merge(&b);
    }

    #[test]
    fn stats_aggregate_over_levels() {
        let mut fc = F2Contributing::new(ContributingConfig::new(0.25, 64), 1000, 1000, 19);
        feed(&mut fc, &[(4, 128), (9, 40)]);
        let st = fc.stats();
        // Level 0 is unsampled, so it alone sees the whole stream.
        assert!(st.updates >= 168);
        assert!(st.capacity > 0);
        assert_eq!(st.merges, 0);
    }

    #[test]
    fn ledger_counts_the_shape_and_restores_heat() {
        let mut fc = F2Contributing::new(ContributingConfig::new(0.25, 64), 1000, 1000, 19);
        feed(&mut fc, &[(4, 128), (9, 40)]);
        let mut node = LedgerNode::new();
        fc.space_ledger(&mut node);
        // The sampling hash, then per level a heavy hitter (CountSketch
        // table and its copy of the 4-word mix words, one per two rows)
        // and the 2-word (modulus, keep) schedule.
        let levels: usize = fc
            .level_parts()
            .iter()
            .map(|(_, _, hh)| {
                let cs = hh.sketch();
                cs.rows() * cs.width() + 4 * cs.rows().div_ceil(2) + 2
            })
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
            .map(|(_, _, hh)| (hh.stats().merges, hh.sketch().heat_updates()))
            .collect();
        let levels: Vec<(u64, u64, F2HeavyHitter)> = fc
            .level_parts()
            .into_iter()
            .map(|(m, k, hh)| (m, k, hh.clone()))
            .collect();
        let mut back =
            F2Contributing::from_parts(fc.sampling_hash().clone(), fc.domain(), levels).unwrap();
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

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut fc = F2Contributing::new(ContributingConfig::new(0.3, 64), 500, 500, 3);
        feed(&mut fc, &[(4, 128), (9, 40)]);
        let levels: Vec<(u64, u64, F2HeavyHitter)> = fc
            .level_parts()
            .into_iter()
            .map(|(m, k, hh)| (m, k, hh.clone()))
            .collect();
        let hash = fc.sampling_hash().clone();
        let back = F2Contributing::from_parts(hash.clone(), 500, levels.clone()).unwrap();
        assert_eq!(fc.report(), back.report());
        assert!(F2Contributing::from_parts(hash.clone(), 500, Vec::new()).is_err());
        let bad = vec![(3u64, 1u64, F2HeavyHitter::for_phi(0.5, 1))];
        assert!(F2Contributing::from_parts(hash.clone(), 500, bad).is_err());
        let e = F2Contributing::from_parts(hash, MAX_DOMAIN + 1, levels).unwrap_err();
        assert!(e.contains("exceeds the cap"), "{e}");
    }

    #[test]
    fn insert_matches_insert_batch_under_any_chunking() {
        // Nested and non-nested level schedules, one and three mix words.
        let items: Vec<u64> = (0..3_000u64).map(|i| (i * i + 7 * i) % 1_500).collect();
        let configs = [(ContributingConfig::new(0.1, 512), 5), (ContributingConfig::new(0.3, 64), 2)];
        for (mut config, rows) in configs {
            config.hh_rows = rows;
            config.survivors_per_class = 3;
            let proto = F2Contributing::new(config, 1_500, 1_500, 71);
            let mut serial = proto.clone();
            for &item in &items {
                serial.insert(item);
            }
            for chunk in [1usize, 5, 64, 1_000, items.len()] {
                let mut batched = proto.clone();
                for block in items.chunks(chunk) {
                    batched.insert_batch(block);
                }
                for ((_, _, a), (_, _, b)) in batched.level_parts().iter().zip(serial.level_parts()) {
                    assert_eq!(a.sketch().table(), b.sketch().table(), "rows {rows} chunk {chunk}");
                    assert_eq!(a.items_seen(), b.items_seen());
                }
                assert_eq!(batched.report(), serial.report());
            }
        }
    }

    #[test]
    fn from_parts_rejects_levels_with_different_mixes() {
        let fc = F2Contributing::new(ContributingConfig::new(0.1, 512), 500, 500, 3);
        let mut levels: Vec<(u64, u64, F2HeavyHitter)> = fc
            .level_parts()
            .into_iter()
            .map(|(m, k, hh)| (m, k, hh.clone()))
            .collect();
        let hash = fc.sampling_hash().clone();
        assert!(F2Contributing::from_parts(hash.clone(), 500, levels.clone()).is_ok());
        let last = levels.last_mut().unwrap();
        last.2 = F2HeavyHitter::new(last.2.config().clone(), 99);
        let e = F2Contributing::from_parts(hash, 500, levels).unwrap_err();
        assert!(e.contains("different CountSketch mixes"), "{e}");
    }

    #[test]
    fn report_enumerates_exactly_the_domain() {
        // The same heavy coordinate inside and outside a 100-id domain:
        // only the in-domain finder reports it.
        for (item, found) in [(42u64, true), (100, false), (5_000, false)] {
            let mut fc = F2Contributing::new(ContributingConfig::new(0.5, 16), 100, 100, 7);
            feed(&mut fc, &[(item, 300)]);
            let rep = fc.report();
            assert_eq!(rep.iter().any(|r| r.item == item), found, "item {item}: {rep:?}");
            assert!(rep.iter().all(|r| r.item < 100));
        }
    }

    #[test]
    fn level_reports_use_the_update_path_sampling_filter() {
        // Every id a level reports survives that level's sampling test.
        let mut fc = F2Contributing::new(ContributingConfig::new(0.1, 512), 2_000, 2_000, 29);
        let freqs: Vec<(u64, u64)> = (0..200).map(|i| (i * 7, 20)).collect();
        feed(&mut fc, &freqs);
        let domain = fc.domain_hashes();
        assert_eq!(domain.0.len(), 2_000);
        assert_eq!(domain.1.len(), 2_000 * 3);
        for (i, (modulus, keep, _)) in fc.level_parts().into_iter().enumerate() {
            for h in fc.level_heavy_hitters(i, &domain) {
                assert!(fc.sampling_hash().hash(h.item) % modulus < keep);
            }
        }
    }
}
