//! # kcov-obs — zero-dependency structured observability
//!
//! One instrumentation spine for the whole workspace: a cheap clonable
//! [`Recorder`] handle that collects **counters**, **gauges**, and
//! structured **events** (with monotonic [`PhaseSpan`] timing), renders
//! them as an NDJSON event log or a human summary table — and whose
//! disabled form is a `None` behind an `Option`, so every probe
//! early-returns on a single branch and the determinism and merge
//! contracts of the estimator stack are untouched.
//!
//! Design rules enforced across the workspace:
//!
//! * **No locks on per-edge paths.** Sketches maintain plain `u64`
//!   rare-event counters (evictions, prunes, level rises, merges) next
//!   to the branches where those events already happen; the counters
//!   are *harvested* into a `Recorder` once, at finalize, as
//!   [`SketchStats`] snapshots. The shared sink is only touched at
//!   phase boundaries (ingest / merge / finalize), never per item.
//! * **Observation never perturbs results.** The recorder is a pure
//!   side channel: nothing in the estimator reads it back, replicas
//!   cloned for sharded ingestion share the same sink but only write
//!   to it from the coordinating thread, and the disabled handle makes
//!   every probe a no-op.
//! * **Zero dependencies.** NDJSON rendering, escaping, and the
//!   [`json`] parser used by the bench emitters and CI validation are
//!   hand-rolled over `std`.
//!
//! Attribution lives in [`ledger`] (one tree type for space and time)
//! and every accounting invariant in [`audit`] (live and from traces).

pub mod audit;
pub mod json;
pub mod ledger;

pub use ledger::{
    apportion_by_heat, render_folded, render_report, Ledger, LedgerNode, Metric, Node, Row, Space,
    SpaceLedger, SpaceSink, Time, TimeLedger, TimeNode,
};

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A dynamically typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (estimates, rates).
    F64(f64),
    /// String (names, labels).
    Str(String),
    /// Boolean (flags).
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    fn render_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => push_json_f64(out, *v),
            Value::Str(s) => push_json_str(out, s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 prints the shortest representation that
        // round-trips, and never produces NaN/Inf here.
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{:.1}", v));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // NDJSON must stay valid JSON: encode non-finite as null.
        out.push_str("null");
    }
}

/// One structured event: a kind plus ordered key/value fields, stamped
/// with a monotone per-recorder sequence number.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (order of emission).
    pub seq: u64,
    /// Event kind (`"phase"`, `"lane"`, `"subroutine"`, `"sketch"`,
    /// `"shard"`, `"summary"`, …).
    pub kind: String,
    /// Ordered fields as emitted.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Render this event as one NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":");
        push_json_str(&mut out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            v.render_json(&mut out);
        }
        out.push('}');
        out
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A `U64` field, if present and of that type.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// An `F64` field, if present and of that type.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.field(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// A `Str` field, if present and of that type.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    events: Vec<Event>,
    seq: u64,
}

/// A cheap clonable recorder handle. The default (and
/// [`Recorder::disabled`]) form carries no state: every probe is a
/// single `Option` branch, no allocation, no lock. The enabled form
/// shares one mutex-guarded sink across clones, so estimator replicas
/// moved onto scoped threads can keep the same handle.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Mutex<State>>>);

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Recorder(disabled)"),
            Some(_) => f.write_str("Recorder(enabled)"),
        }
    }
}

impl Recorder {
    /// The no-op handle: every probe early-returns.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A live recorder with an empty sink.
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(Mutex::new(State::default()))))
    }

    /// Whether probes on this handle record anything. Callers building
    /// non-trivial keys or field vectors should gate on this first so
    /// the disabled path allocates nothing.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn state(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.0
            .as_ref()
            .map(|m| m.lock().expect("recorder sink poisoned"))
    }

    /// Add `by` to the counter `key`.
    pub fn incr(&self, key: &str, by: u64) {
        if let Some(mut st) = self.state() {
            *st.counters.entry(key.to_string()).or_insert(0) += by;
        }
    }

    /// Set the gauge `key` to `value` (last write wins).
    pub fn gauge(&self, key: &str, value: f64) {
        if let Some(mut st) = self.state() {
            st.gauges.insert(key.to_string(), value);
        }
    }

    /// Emit a structured event.
    pub fn event(&self, kind: &str, fields: &[(&str, Value)]) {
        if let Some(mut st) = self.state() {
            let seq = st.seq;
            st.seq += 1;
            st.events.push(Event {
                seq,
                kind: kind.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Start a monotonic phase span. On [`PhaseSpan::finish`] (or drop)
    /// the elapsed nanoseconds are added to the counter
    /// `time_ns.<phase>` and a `"phase"` event is emitted. On a
    /// disabled recorder the span reads no clock.
    pub fn span(&self, phase: &str) -> PhaseSpan {
        PhaseSpan {
            rec: self.clone(),
            phase: if self.is_enabled() {
                phase.to_string()
            } else {
                String::new()
            },
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Record a sketch telemetry snapshot as a `"sketch"` event.
    /// `scope` names where the sketch sits in the stack (e.g.
    /// `"lane3.large_set.rep0"`), `kind` the sketch type.
    pub fn sketch(&self, scope: &str, kind: &str, stats: SketchStats) {
        if !self.is_enabled() {
            return;
        }
        self.event(
            "sketch",
            &[
                ("scope", scope.into()),
                ("sketch", kind.into()),
                ("updates", stats.updates.into()),
                ("fill", stats.fill.into()),
                ("capacity", stats.capacity.into()),
                ("evictions", stats.evictions.into()),
                ("prunes", stats.prunes.into()),
                ("merges", stats.merges.into()),
            ],
        );
    }

    /// Record a distributed-ingestion provenance event: which worker
    /// reached which lifecycle `stage` (`"worker-start"`,
    /// `"snapshot"`, `"worker-done"`, `"replica"`), on which shard,
    /// after how many edges. `detail` carries free-form context such
    /// as the snapshot path. Provenance is worker-local narration —
    /// coordinator traces never carry it, so differential byte
    /// comparisons against single-process runs stay clean.
    pub fn provenance(&self, stage: &str, shard: u64, edges: u64, detail: &str) {
        if !self.is_enabled() {
            return;
        }
        self.event(
            "provenance",
            &[
                ("stage", stage.into()),
                ("shard", shard.into()),
                ("edges", edges.into()),
                ("detail", detail.into()),
            ],
        );
    }

    /// Record a [`Histogram`] as one `"histogram"` event. Non-empty
    /// buckets are emitted as flat `b<i>` fields (events carry scalar
    /// values only), alongside the `count`/`sum`/`min`/`max` envelope —
    /// enough for [`Histogram::from_parts`] to rebuild the histogram
    /// from the NDJSON line.
    pub fn histogram(&self, name: &str, hist: &Histogram) {
        if !self.is_enabled() {
            return;
        }
        let mut fields: Vec<(String, Value)> = vec![
            ("name".to_string(), name.into()),
            ("count".to_string(), hist.count().into()),
            ("sum".to_string(), hist.sum().into()),
            ("min".to_string(), hist.min().unwrap_or(0).into()),
            ("max".to_string(), hist.max().unwrap_or(0).into()),
        ];
        for (i, c) in hist.nonzero_buckets() {
            fields.push((format!("b{i}"), c.into()));
        }
        if let Some(mut st) = self.state() {
            let seq = st.seq;
            st.seq += 1;
            st.events.push(Event {
                seq,
                kind: "histogram".to_string(),
                fields,
            });
        }
    }

    /// Snapshot of all counters, sorted by key.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.state()
            .map(|st| st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Snapshot of all gauges, sorted by key.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.state()
            .map(|st| st.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Snapshot of all events in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.state().map(|st| st.events.clone()).unwrap_or_default()
    }

    /// Events of one kind, in emission order.
    pub fn events_of(&self, kind: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// Write the full sink as NDJSON: every event in emission order,
    /// then one `"counter"` line per counter and one `"gauge"` line per
    /// gauge (sorted by key), so a log is self-contained. Flushes `w`,
    /// so a buffered writer's last write error is returned, not dropped.
    pub fn write_ndjson<W: Write>(&self, mut w: W) -> io::Result<()> {
        let Some(st) = self.state() else {
            return Ok(());
        };
        for e in &st.events {
            writeln!(w, "{}", e.to_json_line())?;
        }
        let mut seq = st.seq;
        for (k, v) in &st.counters {
            let mut line = String::new();
            line.push_str("{\"seq\":");
            line.push_str(&seq.to_string());
            line.push_str(",\"kind\":\"counter\",\"key\":");
            push_json_str(&mut line, k);
            line.push_str(",\"value\":");
            line.push_str(&v.to_string());
            line.push('}');
            writeln!(w, "{line}")?;
            seq += 1;
        }
        for (k, v) in &st.gauges {
            let mut line = String::new();
            line.push_str("{\"seq\":");
            line.push_str(&seq.to_string());
            line.push_str(",\"kind\":\"gauge\",\"key\":");
            push_json_str(&mut line, k);
            line.push_str(",\"value\":");
            push_json_f64(&mut line, *v);
            line.push('}');
            writeln!(w, "{line}")?;
            seq += 1;
        }
        w.flush()
    }

    /// Human summary: counters, gauges, and an event census by kind.
    pub fn summary_table(&self) -> String {
        let Some(st) = self.state() else {
            return String::new();
        };
        let mut out = String::new();
        if !st.counters.is_empty() {
            out.push_str("counter                                   value\n");
            for (k, v) in &st.counters {
                out.push_str(&format!("{k:<40}  {v}\n"));
            }
        }
        if !st.gauges.is_empty() {
            out.push_str("gauge                                     value\n");
            for (k, v) in &st.gauges {
                out.push_str(&format!("{k:<40}  {v}\n"));
            }
        }
        let mut census: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &st.events {
            *census.entry(e.kind.as_str()).or_insert(0) += 1;
        }
        if !census.is_empty() {
            out.push_str("events\n");
            for (k, v) in census {
                out.push_str(&format!("  {k:<38}  {v}\n"));
            }
        }
        out
    }
}

/// RAII timer returned by [`Recorder::span`].
#[must_use = "a span measures until dropped; bind it with `let _span = …`"]
pub struct PhaseSpan {
    rec: Recorder,
    phase: String,
    start: Option<Instant>,
}

impl PhaseSpan {
    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            self.rec.incr(&format!("time_ns.{}", self.phase), ns);
            self.rec.event(
                "phase",
                &[("phase", self.phase.as_str().into()), ("ns", ns.into())],
            );
        }
    }
}

/// Aggregate telemetry snapshot of one sketch (or a family of
/// repetitions): maintained as plain fields inside the sketches and
/// harvested at finalize via [`Recorder::sketch`].
///
/// `updates` is only filled where the sketch already tracked it (e.g.
/// the substream length of each `F2Contributing` level); `0` means "not
/// tracked", not "no updates". Counters are merged by addition when
/// sketch replicas merge, and reset to zero by wire-format
/// reconstruction — they are telemetry, not state, and never
/// participate in merge compatibility checks or `space_words`
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Items observed, where the sketch already counts them.
    pub updates: u64,
    /// Resident entries right now (buffer fill; a fixed table's cells).
    pub fill: u64,
    /// Configured capacity of that buffer (0 = unbounded/fixed table).
    pub capacity: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Bulk shrink passes (`SmallSet` overflows).
    pub prunes: u64,
    /// Merge invocations absorbed into this state.
    pub merges: u64,
}

impl SketchStats {
    /// Accumulate another snapshot (for families of repetitions /
    /// levels): all fields add, including fill and capacity.
    pub fn absorb(&mut self, other: SketchStats) {
        self.updates += other.updates;
        self.fill += other.fill;
        self.capacity += other.capacity;
        self.evictions += other.evictions;
        self.prunes += other.prunes;
        self.merges += other.merges;
    }

    /// The change since `baseline`, saturating at zero per field — the
    /// delta-harvesting hook behind in-flight heartbeat snapshots.
    /// Monotone counters (updates, evictions, prunes, merges) yield the
    /// exact increment; `fill` can legitimately shrink between
    /// snapshots (prunes, level rises), in which case its delta
    /// saturates to zero and the shrink shows up in `prunes` instead.
    pub fn delta_since(&self, baseline: &SketchStats) -> SketchStats {
        SketchStats {
            updates: self.updates.saturating_sub(baseline.updates),
            fill: self.fill.saturating_sub(baseline.fill),
            capacity: self.capacity.saturating_sub(baseline.capacity),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            prunes: self.prunes.saturating_sub(baseline.prunes),
            merges: self.merges.saturating_sub(baseline.merges),
        }
    }
}

/// Number of log₂ buckets in a [`Histogram`]: bucket 0 holds the value
/// `0`, bucket `i ∈ [1, 64]` holds values `v` with `2^(i-1) ≤ v < 2^i`
/// (i.e. `v.bits() == i`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable log₂-bucket histogram of `u64` samples.
///
/// The workhorse of in-flight streaming telemetry: batch sizes,
/// per-batch ingest nanoseconds, and per-heartbeat sketch fill /
/// eviction deltas are all recorded here. Design constraints:
///
/// * **Cheap on hot paths** — [`Histogram::record`] is a leading-zeros
///   instruction plus four adds; no allocation, no lock, no clock.
/// * **Mergeable** — [`Histogram::merge`] adds bucket counts and sums
///   and takes min/max envelopes, so stream-sharded replicas fold their
///   histograms exactly like the estimator state they ride on
///   (commutative, associative, `Histogram::new()` is the identity).
/// * **Wire-encodable** — `kcov-sketch`'s `WireEncode` ships histograms
///   with checkpointed sketch state (impl lives there to keep this
///   crate dependency-free).
///
/// Percentiles are resolved to the *upper bound* of the containing
/// bucket, clamped to the observed `[min, max]` envelope — an
/// overestimate by at most 2× by construction, which is the standard
/// precision contract for log-bucket telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (the merge identity).
    pub fn new() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `v`: 0 for 0, else `64 - v.leading_zeros()`
    /// (the bit length of `v`).
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive value range `[lo, hi]` of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) resolved to the upper bound of
    /// its bucket, clamped to the observed `[min, max]`. Returns `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q · count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bounds(i).1.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Bucket counts, dense (length [`HISTOGRAM_BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Non-empty buckets as `(bucket index, count)` in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuild a histogram from its parts (the inverse of the
    /// `histogram` event encoding and the wire format): sparse
    /// `(bucket, count)` pairs plus the `sum`/`min`/`max` envelope.
    /// Returns `None` on an out-of-range bucket index or an envelope
    /// inconsistent with the buckets (empty buckets with a non-zero
    /// envelope, or min > max).
    pub fn from_parts(buckets: &[(usize, u64)], sum: u64, min: u64, max: u64) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            if i >= HISTOGRAM_BUCKETS {
                return None;
            }
            h.counts[i] += c;
            h.count += c;
        }
        if h.count == 0 {
            return (sum == 0 && max == 0).then_some(Histogram::new());
        }
        if min > max {
            return None;
        }
        h.sum = sum;
        h.min = min;
        h.max = max;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        rec.incr("a", 3);
        rec.gauge("g", 1.5);
        rec.event("kind", &[("x", 1u64.into())]);
        let _span = rec.span("phase");
        drop(_span);
        assert!(!rec.is_enabled());
        assert!(rec.counters().is_empty());
        assert!(rec.gauges().is_empty());
        assert!(rec.events().is_empty());
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(rec.summary_table().is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let rec = Recorder::enabled();
        rec.incr("edges", 10);
        rec.incr("edges", 5);
        rec.gauge("estimate", 1.0);
        rec.gauge("estimate", 2.0);
        assert_eq!(rec.counters(), vec![("edges".to_string(), 15)]);
        assert_eq!(rec.gauges(), vec![("estimate".to_string(), 2.0)]);
    }

    #[test]
    fn clones_share_one_sink() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.incr("x", 1);
        rec.incr("x", 1);
        assert_eq!(rec.counters(), vec![("x".to_string(), 2)]);
    }

    #[test]
    fn span_times_into_counter_and_event() {
        let rec = Recorder::enabled();
        {
            let _span = rec.span("ingest");
        }
        let counters = rec.counters();
        assert_eq!(counters.len(), 1);
        assert!(counters[0].0 == "time_ns.ingest");
        let phases = rec.events_of("phase");
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].str_field("phase"), Some("ingest"));
        assert!(phases[0].u64_field("ns").is_some());
    }

    #[test]
    fn events_are_sequenced_in_emission_order() {
        let rec = Recorder::enabled();
        rec.event("a", &[]);
        rec.event("b", &[("k", "v".into())]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[0].kind.as_str()), (0, "a"));
        assert_eq!((events[1].seq, events[1].kind.as_str()), (1, "b"));
    }

    #[test]
    fn ndjson_lines_parse_and_round_trip() {
        let rec = Recorder::enabled();
        rec.event(
            "lane",
            &[
                ("lane", 3usize.into()),
                ("estimate", 12.5f64.into()),
                ("winner", "LargeSet".into()),
                ("qualifying", true.into()),
                ("delta", Value::I64(-4)),
            ],
        );
        rec.incr("edges", 7);
        rec.gauge("alpha", 4.0);
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let parsed = json::Json::parse(line).expect("valid JSON line");
            assert!(parsed.get("kind").is_some(), "{line}");
            assert!(parsed.get("seq").is_some(), "{line}");
        }
        let lane = json::Json::parse(lines[0]).unwrap();
        assert_eq!(lane.get("lane").and_then(json::Json::as_f64), Some(3.0));
        assert_eq!(
            lane.get("estimate").and_then(json::Json::as_f64),
            Some(12.5)
        );
        assert_eq!(
            lane.get("winner").and_then(json::Json::as_str),
            Some("LargeSet")
        );
        assert_eq!(lane.get("delta").and_then(json::Json::as_f64), Some(-4.0));
    }

    #[test]
    fn string_escaping_survives_the_parser() {
        let rec = Recorder::enabled();
        rec.event("e", &[("s", "a\"b\\c\nd\te\u{1}".into())]);
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = json::Json::parse(text.trim()).unwrap();
        assert_eq!(
            parsed.get("s").and_then(json::Json::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
    }

    #[test]
    fn sketch_stats_absorb_adds_everything() {
        let mut a = SketchStats {
            updates: 1,
            fill: 2,
            capacity: 3,
            evictions: 4,
            prunes: 5,
            merges: 6,
        };
        a.absorb(SketchStats {
            updates: 10,
            fill: 20,
            capacity: 30,
            evictions: 40,
            prunes: 50,
            merges: 60,
        });
        assert_eq!(
            a,
            SketchStats {
                updates: 11,
                fill: 22,
                capacity: 33,
                evictions: 44,
                prunes: 55,
                merges: 66,
            }
        );
    }

    #[test]
    fn sketch_event_carries_all_stat_fields() {
        let rec = Recorder::enabled();
        rec.sketch(
            "lane0.large_set",
            "f2hh",
            SketchStats {
                updates: 9,
                fill: 4,
                capacity: 8,
                evictions: 1,
                prunes: 2,
                merges: 3,
            },
        );
        let events = rec.events_of("sketch");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.str_field("scope"), Some("lane0.large_set"));
        assert_eq!(e.str_field("sketch"), Some("f2hh"));
        assert_eq!(e.u64_field("updates"), Some(9));
        assert_eq!(e.u64_field("fill"), Some(4));
        assert_eq!(e.u64_field("capacity"), Some(8));
        assert_eq!(e.u64_field("evictions"), Some(1));
        assert_eq!(e.u64_field("prunes"), Some(2));
        assert_eq!(e.u64_field("merges"), Some(3));
    }

    #[test]
    fn summary_table_lists_counters_gauges_and_census() {
        let rec = Recorder::enabled();
        rec.incr("edges", 3);
        rec.gauge("estimate", 7.5);
        rec.event("lane", &[]);
        rec.event("lane", &[]);
        let table = rec.summary_table();
        assert!(table.contains("edges"), "{table}");
        assert!(table.contains("estimate"), "{table}");
        assert!(table.contains("lane"), "{table}");
        assert!(table.contains('2'), "{table}");
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i - 1].
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "hi of bucket {i}");
            if lo > 0 {
                assert_eq!(Histogram::bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_records_envelope_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 5, 9, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1115);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 1115.0 / 6.0).abs() < 1e-12);
        // Quantiles resolve to bucket upper bounds, clamped to [min, max]:
        // p0 → bucket of the smallest sample; p100 → exactly max.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(1000));
        // Median (rank 3 of 6) lands in bucket 3 ([4,7]) → upper bound 7.
        assert_eq!(h.quantile(0.5), Some(7));
        // A log-bucket quantile never undershoots the true value by
        // construction: check against the sorted samples.
        let sorted = [0u64, 1, 5, 9, 100, 1000];
        for (idx, &v) in sorted.iter().enumerate() {
            let q = (idx + 1) as f64 / sorted.len() as f64;
            assert!(h.quantile(q).unwrap() >= v, "q={q} under {v}");
        }
    }

    #[test]
    fn histogram_merge_is_additive_and_has_identity() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 17, 0, 255] {
            a.record(v);
            whole.record(v);
        }
        for v in [1u64, 1, 4096] {
            b.record(v);
            whole.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, whole);
        // Commutative.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, whole);
        // Identity.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a);
        let mut id2 = Histogram::new();
        id2.merge(&a);
        assert_eq!(id2, a);
    }

    #[test]
    fn histogram_event_round_trips_through_from_parts() {
        let mut h = Histogram::new();
        for v in [0u64, 2, 2, 9, 70000] {
            h.record(v);
        }
        let rec = Recorder::enabled();
        rec.histogram("batch_edges", &h);
        let events = rec.events_of("histogram");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.str_field("name"), Some("batch_edges"));
        assert_eq!(e.u64_field("count"), Some(5));
        assert_eq!(e.u64_field("sum"), Some(70013));
        assert_eq!(e.u64_field("min"), Some(0));
        assert_eq!(e.u64_field("max"), Some(70000));
        // Rebuild from the sparse b<i> fields.
        let buckets: Vec<(usize, u64)> = e
            .fields
            .iter()
            .filter_map(|(k, v)| {
                let i: usize = k.strip_prefix('b')?.parse().ok()?;
                match v {
                    Value::U64(c) => Some((i, *c)),
                    _ => None,
                }
            })
            .collect();
        let back = Histogram::from_parts(
            &buckets,
            e.u64_field("sum").unwrap(),
            e.u64_field("min").unwrap(),
            e.u64_field("max").unwrap(),
        )
        .expect("reconstructible");
        assert_eq!(back, h);
    }

    #[test]
    fn histogram_from_parts_rejects_inconsistent_inputs() {
        // Out-of-range bucket index.
        assert!(Histogram::from_parts(&[(65, 1)], 1, 1, 1).is_none());
        // min > max with samples present.
        assert!(Histogram::from_parts(&[(1, 1)], 1, 5, 2).is_none());
        // Empty buckets demand a zero envelope.
        assert!(Histogram::from_parts(&[], 3, 0, 0).is_none());
        assert_eq!(Histogram::from_parts(&[], 0, 0, 0), Some(Histogram::new()));
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let rec = Recorder::enabled();
        rec.gauge("bad", f64::NAN);
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = json::Json::parse(text.trim()).unwrap();
        assert!(matches!(parsed.get("value"), Some(json::Json::Null)));
    }
}
