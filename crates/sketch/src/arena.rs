//! Cache-resident sketch arenas: compact, contiguous storage primitives
//! shared by every sketch family.
//!
//! PR 8's space ledger attributed most of the estimator's resident words
//! — and `maxkcov prof` most of its sketch-update time — to thousands of
//! small node-based containers: a `BTreeSet` per KMV summary and a
//! `HashMap` per `LargeSet` repetition. Each hides pointer-chasing, per-node
//! allocation and poor locality behind an innocent API. This module
//! replaces them with two flat structures:
//!
//! * [`SortedSlab`] — a bottom-k summary as one sorted array. The
//!   saturated hot path rejects a non-improving value with a single
//!   compare against the cached maximum (the last slot), and an
//!   accepted value costs one `memmove` inside a line-sized buffer.
//! * [`OaMap`] — a `u64`-keyed map stored IndexMap-style: entries live
//!   densely in one `Vec<(u64, V)>` in insertion order, and a
//!   power-of-two `u32` index (linear probing, load ≤ ½, no tombstones)
//!   maps keys to entry positions. Scans read only live entries.
//!
//! Both are *logically* equivalent to the `std` containers they
//! replace: the sketch state they hold (the value set, the key→value
//! map) is identical, and the space ledger counts logical entries, not
//! slots. The unit tests below check each against its `std` model
//! (`BTreeSet` bottom-k, `HashMap`). `OaMap`'s entry order is
//! deterministic but not canonical, so every consumer sorts before it
//! can affect an estimate, a trace byte or a wire byte; the golden files under `tests/golden/`
//! pin those bytes end to end.

/// SplitMix64 finalizer — the probe mix for [`OaMap`], also exported
/// for salted one-compare gates over keys that are themselves hash
/// outputs (e.g. `LargeSet`'s per-repetition element-sampling gate,
/// where the input pseudo-element already carries 4-wise independence
/// and the finalizer only decorrelates repetitions).
#[inline]
pub fn probe_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---- SortedSlab ------------------------------------------------------

/// A bottom-k summary stored as one sorted (ascending) flat array.
///
/// Replaces `BTreeSet<u64>` in KMV summaries: same value set, same
/// ascending iteration, but the saturated reject path is one compare
/// against the last slot and an accepted insert is one binary search
/// plus one `memmove` — no per-node allocation, no pointer chasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedSlab {
    cap: usize,
    vals: Vec<u64>,
}

impl SortedSlab {
    /// An empty slab keeping at most `cap` values.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "SortedSlab needs capacity >= 1");
        SortedSlab {
            cap,
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of kept values.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no values are kept.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// True once `cap` values are resident.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.vals.len() == self.cap
    }

    /// The current maximum (the eviction cut-off), if any.
    #[inline]
    pub fn max(&self) -> Option<u64> {
        self.vals.last().copied()
    }

    /// Insert `v` while below capacity. Returns `false` on duplicates.
    /// Panics when full — callers must switch to
    /// [`SortedSlab::insert_evict`] at saturation.
    pub fn insert_unsaturated(&mut self, v: u64) -> bool {
        assert!(!self.is_full(), "insert_unsaturated on a full slab");
        match self.vals.binary_search(&v) {
            Ok(_) => false,
            Err(idx) => {
                self.vals.insert(idx, v);
                true
            }
        }
    }

    /// Insert `v` into a full slab, evicting the current maximum.
    /// Returns `false` (no state change) when `v` is a duplicate or does
    /// not beat the maximum.
    #[inline]
    pub fn insert_evict(&mut self, v: u64) -> bool {
        debug_assert!(self.is_full());
        if v >= self.vals[self.cap - 1] {
            return false;
        }
        match self.vals.binary_search(&v) {
            Ok(_) => false,
            Err(idx) => {
                // One shift drops the maximum and opens slot `idx`.
                self.vals.copy_within(idx..self.cap - 1, idx + 1);
                self.vals[idx] = v;
                true
            }
        }
    }

    /// The kept values, ascending.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.vals
    }

    /// Rebuild from values that are already strictly ascending (the
    /// caller's contract: a decoder checks it, a merge builds it), with
    /// no re-sort. Panics when they exceed `cap`.
    pub fn from_sorted(cap: usize, vals: Vec<u64>) -> Self {
        assert!(cap >= 1, "SortedSlab needs capacity >= 1");
        debug_assert!(vals.windows(2).all(|w| w[0] < w[1]), "unsorted values");
        assert!(vals.len() <= cap, "values exceed slab capacity");
        // No up-front reservation: `cap` may come from untrusted wire
        // bytes (the decoder validates value counts, not capacities),
        // and the slab only ever grows to the values actually inserted.
        SortedSlab { cap, vals }
    }
}

// ---- OaMap -----------------------------------------------------------

/// Empty marker in [`OaMap`]'s index.
const EMPTY: u32 = u32::MAX;

/// `u64 → V` map stored IndexMap-style: entries live densely in one
/// `Vec<(u64, V)>`, and a power-of-two `u32` index (linear probing,
/// load ≤ ½) maps a key's probe slot to its entry position. Replaces
/// `std` `HashMap`s in per-repetition sample tables.
///
/// Iteration order is entry order — deterministic for a fixed operation
/// sequence but *not* canonical (insertion order); consumers sort by key
/// before any order-sensitive use, exactly as they already did for the
/// `std` maps.
#[derive(Debug, Clone)]
pub struct OaMap<V> {
    entries: Vec<(u64, V)>,
    index: Vec<u32>,
}

impl<V> Default for OaMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> OaMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        OaMap {
            entries: Vec::new(),
            index: Vec::new(),
        }
    }

    /// An empty map with room for `n` entries before regrowth.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        if n > 0 {
            m.entries.reserve_exact(n);
            m.reindex((2 * n).next_power_of_two().max(8));
        }
        m
    }

    /// Number of resident entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuild the index at `slots` slots from the entry order.
    fn reindex(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= 2 * self.entries.len());
        self.index.clear();
        self.index.resize(slots, EMPTY);
        let mask = slots - 1;
        for (pos, &(k, _)) in self.entries.iter().enumerate() {
            let mut i = probe_mix(k) as usize & mask;
            while self.index[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.index[i] = pos as u32;
        }
    }

    /// Shared probe: the index slot holding `key`'s entry position, or
    /// the empty slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        debug_assert!(!self.index.is_empty());
        let mask = self.index.len() - 1;
        let mut i = probe_mix(key) as usize & mask;
        loop {
            let pos = self.index[i];
            if pos == EMPTY || self.entries[pos as usize].0 == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Entry position of `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        match self.index[self.probe(key)] {
            EMPTY => None,
            pos => Some(pos as usize),
        }
    }

    /// Entry position of `key`, appending `default()` first when absent.
    #[inline]
    fn find_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> usize {
        if 2 * (self.entries.len() + 1) > self.index.len() {
            self.reindex((2 * self.index.len()).max(8));
        }
        let i = self.probe(key);
        if self.index[i] == EMPTY {
            assert!(
                self.entries.len() < EMPTY as usize,
                "OaMap entry positions must fit below u32::MAX"
            );
            self.index[i] = self.entries.len() as u32;
            self.entries.push((key, default()));
        }
        self.index[i] as usize
    }

    /// Borrow the value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|pos| &self.entries[pos].1)
    }

    /// Mutably borrow the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|pos| &mut self.entries[pos].1)
    }

    /// Mutably borrow the value for `key`, inserting `default()` first
    /// when absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        let pos = self.find_or_insert_with(key, default);
        &mut self.entries[pos].1
    }

    /// Insert or overwrite.
    #[inline]
    pub fn set(&mut self, key: u64, value: V) {
        match self.find(key) {
            Some(pos) => self.entries[pos].1 = value,
            None => _ = self.find_or_insert_with(key, || value),
        }
    }

    /// Iterate entries in entry order (not canonical — sort before any
    /// order-sensitive use).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    #[test]
    fn slab_matches_btreeset_bottom_k() {
        let k = 16;
        let mut slab = SortedSlab::new(k);
        let mut tree: BTreeSet<u64> = BTreeSet::new();
        let mut x = 7u64;
        for _ in 0..5_000 {
            x = probe_mix(x);
            let v = x % 997; // force duplicates
            if slab.is_full() {
                slab.insert_evict(v);
            } else {
                slab.insert_unsaturated(v);
            }
            tree.insert(v);
            while tree.len() > k {
                let max = *tree.iter().next_back().unwrap();
                tree.remove(&max);
            }
            let want: Vec<u64> = tree.iter().copied().collect();
            assert_eq!(slab.values(), &want[..]);
        }
    }

    #[test]
    fn slab_saturated_reject_is_stateless() {
        let mut slab = SortedSlab::new(4);
        for v in [10u64, 20, 30, 40] {
            assert!(slab.insert_unsaturated(v));
        }
        let before = slab.values().to_vec();
        assert!(!slab.insert_evict(40)); // equal to max
        assert!(!slab.insert_evict(99)); // above max
        assert!(!slab.insert_evict(20)); // duplicate below max
        assert_eq!(slab.values(), &before[..]);
        assert!(slab.insert_evict(15));
        assert_eq!(slab.values(), &[10, 15, 20, 30]);
    }

    #[test]
    fn slab_from_sorted_keeps_values() {
        let slab = SortedSlab::from_sorted(8, vec![1, 3, 5]);
        assert_eq!(slab.values(), &[1, 3, 5]);
        assert_eq!(slab.len(), 3);
        assert!(!slab.is_full());
    }

    #[test]
    #[should_panic(expected = "values exceed slab capacity")]
    fn slab_from_sorted_rejects_overflow() {
        let _ = SortedSlab::from_sorted(2, vec![1, 2, 3]);
    }

    fn sorted_entries(oa: &OaMap<i64>) -> Vec<(u64, i64)> {
        let mut got: Vec<(u64, i64)> = oa.iter().map(|(k, v)| (k, *v)).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn oamap_matches_std_hashmap() {
        // Starts far below its final size (growth past `with_capacity`)
        // and includes key 0.
        let mut oa: OaMap<i64> = OaMap::with_capacity(4);
        let mut std_map: HashMap<u64, i64> = HashMap::new();
        let mut x = 3u64;
        for round in 0..3_000i64 {
            x = probe_mix(x);
            let key = if round % 97 == 0 { 0 } else { x % 513 };
            *oa.get_or_insert_with(key, || 0) += round % 7;
            *std_map.entry(key).or_insert(0) += round % 7;
        }
        assert_eq!(oa.len(), std_map.len());
        let mut want: Vec<(u64, i64)> = std_map.iter().map(|(k, v)| (*k, *v)).collect();
        want.sort_unstable();
        assert_eq!(sorted_entries(&oa), want);
        for (k, v) in &want {
            assert_eq!(oa.get(*k), Some(v));
        }
        for k in 513..1_000u64 {
            assert_eq!(oa.get(k), None);
        }
        assert_eq!(oa.get(u64::MAX), None);
    }

    #[test]
    fn oamap_get_mut_and_overwrite() {
        let mut oa: OaMap<u64> = OaMap::with_capacity(4);
        assert!(oa.is_empty());
        oa.set(9, 1);
        *oa.get_mut(9).unwrap() += 5;
        assert_eq!(oa.get(9), Some(&6));
        oa.set(9, 0);
        assert_eq!(oa.get(9), Some(&0));
        assert_eq!(oa.len(), 1);
        assert!(oa.get_mut(10).is_none());
    }

    #[test]
    fn oamap_zero_key_and_growth() {
        let mut oa: OaMap<u64> = OaMap::new();
        oa.set(0, 42); // 0 must be an ordinary key, not a sentinel
        for k in 1..1_000u64 {
            oa.set(k, k);
        }
        assert_eq!(oa.get(0), Some(&42));
        assert_eq!(oa.len(), 1_000);
    }
}
