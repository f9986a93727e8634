//! In-flight heartbeat telemetry of the estimator (and so of both
//! passes of the two-pass refinement).
//!
//! Determinism contract (DESIGN.md §10): heartbeats are cadenced by
//! **edge count only** — a snapshot is captured at the first
//! observation boundary at or after every multiple of
//! `heartbeat_every` edges, so the set of snapshots is a pure function
//! of the stream split, never of wall-clock or scheduling. Snapshots
//! are *buffered* as plain data in the owning (replica-local) state —
//! ingestion workers never touch the recorder sink — carried through
//! [`merge`](crate::MaxCoverEstimator::merge) by concatenation, and
//! emitted once at finalize, sorted by `(shard, at_edges, lane)`.
//! Wall-clock appears only in event *payloads* (`*_ns` histograms),
//! never in cadence decisions, so estimates are bit-identical with
//! heartbeats on or off across `--threads`/`--shards`/`--batch`.

use kcov_obs::{Histogram, Recorder, SketchStats, Value};

/// One lane's fill state at a heartbeat: per-subroutine resident
/// entries plus the lane's total resident space.
#[derive(Debug, Clone)]
pub(crate) struct LaneBeat {
    /// Lane index within the owning estimator / pass.
    pub lane: u64,
    /// The lane's `z` guess (0 in the trivial regime).
    pub z: u64,
    /// `LargeCommon` resident entries.
    pub lc_fill: u64,
    /// `LargeSet` resident entries.
    pub ls_fill: u64,
    /// `SmallSet` resident entries (0 when inactive).
    pub ss_fill: u64,
    /// Evictions so far across the lane's sketches.
    pub evictions: u64,
    /// Lane resident space in words.
    pub space_words: u64,
    /// Cumulative wall nanoseconds this lane has spent in batched
    /// ingest at capture time (wall-clock *payload* — the `ns` field
    /// name marks it nondeterministic for trace diffing; cadence never
    /// depends on it).
    pub ns: u64,
}

/// One heartbeat: where in the (shard-local) stream it was captured
/// plus every lane's [`LaneBeat`].
#[derive(Debug, Clone)]
pub(crate) struct HeartbeatSnap {
    /// Shard id of the replica that captured it (0 = the coordinating
    /// estimator's own chunk, or the whole stream when unsharded).
    pub shard: u64,
    /// Shard-local edges ingested when the snapshot was taken.
    pub at_edges: u64,
    /// Per-lane fill state, in lane order.
    pub lanes: Vec<LaneBeat>,
}

/// The ingestion histograms riding along with heartbeat state:
/// deterministic shape metrics (batch sizes, per-heartbeat fill and
/// eviction deltas) plus the wall-clock payload (`batch_ns`). Merged
/// exactly like the estimator state they are attached to.
#[derive(Debug, Clone, Default)]
pub(crate) struct IngestHists {
    /// Edges per `observe_batch` call.
    pub batch_edges: Histogram,
    /// Nanoseconds per `observe_batch` call (wall-clock payload — the
    /// `_ns` suffix marks it nondeterministic for trace diffing).
    pub batch_ns: Histogram,
    /// Fill growth between consecutive heartbeats.
    pub fill_delta: Histogram,
    /// Evictions between consecutive heartbeats.
    pub eviction_delta: Histogram,
}

impl IngestHists {
    /// Fold a replica's histograms into this one.
    pub fn merge(&mut self, other: &IngestHists) {
        self.batch_edges.merge(&other.batch_edges);
        self.batch_ns.merge(&other.batch_ns);
        self.fill_delta.merge(&other.fill_delta);
        self.eviction_delta.merge(&other.eviction_delta);
    }

    /// Record the per-heartbeat sketch delta.
    pub fn record_beat_delta(&mut self, current: SketchStats, last: &mut SketchStats) {
        let delta = current.delta_since(last);
        self.fill_delta.record(delta.fill);
        self.eviction_delta.record(delta.evictions);
        *last = current;
    }

    /// Emit every non-empty histogram under `<prefix>.<name>`.
    pub fn emit(&self, rec: &Recorder, prefix: &str) {
        for (name, hist) in [
            ("batch_edges", &self.batch_edges),
            ("batch_ns", &self.batch_ns),
            ("fill_delta", &self.fill_delta),
            ("eviction_delta", &self.eviction_delta),
        ] {
            if !hist.is_empty() {
                rec.histogram(&format!("{prefix}.{name}"), hist);
            }
        }
    }
}

/// Emit buffered heartbeats as `"heartbeat"` events — one per lane per
/// snapshot, tagged with `stage` — sorted by `(shard, at_edges, lane)`
/// so sharded and threaded runs produce identical event order.
pub(crate) fn emit_heartbeats(rec: &Recorder, stage: &str, snaps: &[HeartbeatSnap]) {
    if snaps.is_empty() || !rec.is_enabled() {
        return;
    }
    let mut order: Vec<&HeartbeatSnap> = snaps.iter().collect();
    order.sort_by_key(|s| (s.shard, s.at_edges));
    for snap in order {
        for beat in &snap.lanes {
            rec.event(
                "heartbeat",
                &[
                    ("stage", Value::from(stage)),
                    ("shard", Value::from(snap.shard)),
                    ("at_edges", Value::from(snap.at_edges)),
                    ("lane", Value::from(beat.lane)),
                    ("z", Value::from(beat.z)),
                    ("lc_fill", Value::from(beat.lc_fill)),
                    ("ls_fill", Value::from(beat.ls_fill)),
                    ("ss_fill", Value::from(beat.ss_fill)),
                    ("evictions", Value::from(beat.evictions)),
                    ("space_words", Value::from(beat.space_words)),
                    ("ns", Value::from(beat.ns)),
                ],
            );
        }
    }
}

/// Batch-granular wall-clock totals for one `(z, rep)` lane: the raw
/// material of the time-attribution ledger (DESIGN.md §15). One
/// monotonic clock read per batched chunk per lane — the per-edge hot
/// loop never reads a clock — accumulated into plain `u64`s owned by
/// the lane, so ingestion workers write only their own state and the
/// disabled-recorder path stays one branch. Merged by addition, so
/// Σ shard ns == merged ns exactly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneTimes {
    /// Total wall nanoseconds in the lane's batched ingest call
    /// (universe reduction + oracle update).
    pub ingest_ns: u64,
    /// Wall nanoseconds in the universe-reduction half (the oracle's
    /// share is `ingest_ns - reduce_ns`).
    pub reduce_ns: u64,
}

impl LaneTimes {
    /// Fold a replica lane's totals into this one.
    pub fn merge(&mut self, other: &LaneTimes) {
        self.ingest_ns += other.ingest_ns;
        self.reduce_ns += other.reduce_ns;
    }

    /// The oracle's share of the lane interval (saturating: the two
    /// clock reads bracket nested intervals, so this never underflows
    /// on trusted data, but wire-decoded values are untrusted).
    pub fn oracle_ns(&self) -> u64 {
        self.ingest_ns.saturating_sub(self.reduce_ns)
    }
}

/// Batch-granular wall-clock totals for the lane-invariant stage work
/// of one estimator / pass: the shared hash-once fingerprint fill, the
/// shared universe mix, and the trivial-regime branch. Same ownership
/// and merge rules as [`LaneTimes`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageTimes {
    /// Wall nanoseconds filling the fingerprint block (both base
    /// evaluations, shared by every lane).
    pub hash_ns: u64,
    /// Wall nanoseconds evaluating the shared universe mix column.
    pub universe_ns: u64,
    /// Wall nanoseconds in the trivial-regime batch path.
    pub trivial_ns: u64,
}

impl StageTimes {
    /// Fold a replica's totals into this one.
    pub fn merge(&mut self, other: &StageTimes) {
        self.hash_ns += other.hash_ns;
        self.universe_ns += other.universe_ns;
        self.trivial_ns += other.trivial_ns;
    }
}

/// Whether ingesting `added` more edges after `seen_before` crosses a
/// multiple of `every` (the batched-path cadence test: capture at the
/// first observation boundary at or after each multiple). Worker
/// snapshots use the same rule.
pub fn crosses_beat(seen_before: u64, added: u64, every: u64) -> bool {
    every > 0 && added > 0 && (seen_before + added) / every > seen_before / every
}

// ---- wire format ----------------------------------------------------
//
// Buffered heartbeats and ingestion histograms travel with the replica:
// the coordinator's finalize must emit a worker's beats exactly as an
// in-process replica's, so they are state as far as the wire format is
// concerned.

use kcov_sketch::wire::{err, put_u64, take_u64, WireEncode, WireError};

const TAG_BEAT: u64 = 0x42454154; // "BEAT"
const TAG_SNAP: u64 = 0x534e4150; // "SNAP"
const TAG_IHIST: u64 = 0x4948; // "IH"
const TAG_LTIME: u64 = 0x4c54; // "LT"
const TAG_STIME: u64 = 0x5354; // "ST"

impl WireEncode for LaneTimes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_LTIME);
        put_u64(out, self.ingest_ns);
        put_u64(out, self.reduce_ns);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_LTIME {
            return Err(err("bad LaneTimes tag"));
        }
        Ok(LaneTimes {
            ingest_ns: take_u64(input)?,
            reduce_ns: take_u64(input)?,
        })
    }
}

impl WireEncode for StageTimes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_STIME);
        put_u64(out, self.hash_ns);
        put_u64(out, self.universe_ns);
        put_u64(out, self.trivial_ns);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_STIME {
            return Err(err("bad StageTimes tag"));
        }
        Ok(StageTimes {
            hash_ns: take_u64(input)?,
            universe_ns: take_u64(input)?,
            trivial_ns: take_u64(input)?,
        })
    }
}

impl WireEncode for LaneBeat {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_BEAT);
        put_u64(out, self.lane);
        put_u64(out, self.z);
        put_u64(out, self.lc_fill);
        put_u64(out, self.ls_fill);
        put_u64(out, self.ss_fill);
        put_u64(out, self.evictions);
        put_u64(out, self.space_words);
        put_u64(out, self.ns);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_BEAT {
            return Err(err("bad LaneBeat tag"));
        }
        Ok(LaneBeat {
            lane: take_u64(input)?,
            z: take_u64(input)?,
            lc_fill: take_u64(input)?,
            ls_fill: take_u64(input)?,
            ss_fill: take_u64(input)?,
            evictions: take_u64(input)?,
            space_words: take_u64(input)?,
            ns: take_u64(input)?,
        })
    }
}

impl WireEncode for HeartbeatSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_SNAP);
        put_u64(out, self.shard);
        put_u64(out, self.at_edges);
        put_u64(out, self.lanes.len() as u64);
        for beat in &self.lanes {
            beat.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_SNAP {
            return Err(err("bad HeartbeatSnap tag"));
        }
        let shard = take_u64(input)?;
        let at_edges = take_u64(input)?;
        let n = take_u64(input)? as usize;
        if n > input.len() / 64 {
            return Err(err(format!("truncated heartbeat of {n} lane beats")));
        }
        let lanes = (0..n)
            .map(|_| LaneBeat::decode(input))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HeartbeatSnap {
            shard,
            at_edges,
            lanes,
        })
    }
}

impl WireEncode for IngestHists {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, TAG_IHIST);
        self.batch_edges.encode(out);
        self.batch_ns.encode(out);
        self.fill_delta.encode(out);
        self.eviction_delta.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if take_u64(input)? != TAG_IHIST {
            return Err(err("bad IngestHists tag"));
        }
        Ok(IngestHists {
            batch_edges: Histogram::decode(input)?,
            batch_ns: Histogram::decode(input)?,
            fill_delta: Histogram::decode(input)?,
            eviction_delta: Histogram::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosses_beat_fires_on_each_multiple() {
        assert!(!crosses_beat(0, 99, 100));
        assert!(crosses_beat(0, 100, 100));
        assert!(crosses_beat(99, 1, 100));
        assert!(!crosses_beat(100, 99, 100));
        assert!(crosses_beat(100, 100, 100));
        // A big batch crossing several multiples still fires (once —
        // the caller captures a single snapshot at the batch end).
        assert!(crosses_beat(0, 1000, 100));
        // Disabled cadence never fires.
        assert!(!crosses_beat(0, 1000, 0));
        assert!(!crosses_beat(50, 0, 100));
    }

    #[test]
    fn heartbeats_emit_sorted_by_shard_then_position() {
        let rec = Recorder::enabled();
        let beat = |lane| LaneBeat {
            lane,
            z: 8,
            lc_fill: 1,
            ls_fill: 2,
            ss_fill: 3,
            evictions: 0,
            space_words: 10,
            ns: 0,
        };
        let snaps = vec![
            HeartbeatSnap {
                shard: 1,
                at_edges: 200,
                lanes: vec![beat(0)],
            },
            HeartbeatSnap {
                shard: 0,
                at_edges: 100,
                lanes: vec![beat(0), beat(1)],
            },
            HeartbeatSnap {
                shard: 1,
                at_edges: 100,
                lanes: vec![beat(0)],
            },
        ];
        emit_heartbeats(&rec, "estimate", &snaps);
        let events = rec.events_of("heartbeat");
        let keys: Vec<(u64, u64, u64)> = events
            .iter()
            .map(|e| {
                (
                    e.u64_field("shard").unwrap(),
                    e.u64_field("at_edges").unwrap(),
                    e.u64_field("lane").unwrap(),
                )
            })
            .collect();
        assert_eq!(
            keys,
            vec![(0, 100, 0), (0, 100, 1), (1, 100, 0), (1, 200, 0)]
        );
        assert!(events
            .iter()
            .all(|e| e.str_field("stage") == Some("estimate")));
    }
}
