//! The trace auditor: the one implementation of every accounting
//! invariant the estimator's observability output satisfies.
//!
//! Each rule is checked in two places with the same code and wording:
//! live, on in-memory ledgers ([`space_ledger_violations`],
//! [`time_ledger_violations`], the estimator's finalize contract and
//! `maxkcov prof --input`), and from a written NDJSON trace ([`Trace`],
//! behind `maxkcov trace-summarize` and `maxkcov prof TRACE`), where the
//! rows carry subtree totals and the tree schema becomes the parent-sum
//! rule of [`parent_sum_violations`]. Every check returns all
//! violations rather than stopping at the first.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader};

use crate::json::Json;
use crate::ledger::{Ledger, Metric, Row, Space, Time};
use crate::{Histogram, Recorder};

/// Fields accumulated per `(stage, shard, at_edges)` heartbeat row.
#[derive(Debug, Default)]
pub struct BeatRow {
    /// Lanes reporting at this point.
    pub lanes: u64,
    /// `LargeCommon` fill summed over the lanes.
    pub lc_fill: u64,
    /// `LargeSet` fill summed over the lanes.
    pub ls_fill: u64,
    /// `SmallSet` fill summed over the lanes.
    pub ss_fill: u64,
    /// Cumulative evictions summed over the lanes.
    pub evictions: u64,
    /// Resident words summed over the lanes.
    pub space_words: u64,
    /// Cumulative per-lane ingest wall clock summed over the row's
    /// lanes — the heartbeat-aligned time trajectory (0 when the run was
    /// untimed).
    pub ns: u64,
}

/// Everything the auditor and its renderers read from one NDJSON trace.
#[derive(Debug, Default)]
pub struct Trace {
    /// Non-blank lines.
    pub lines: usize,
    /// phase name → (calls, total ns) from `"phase"` events.
    pub phases: BTreeMap<String, (u64, u64)>,
    /// `"counter"` lines, keyed as written (includes `time_ns.*`).
    pub counters: BTreeMap<String, u64>,
    /// Every `"subroutine"` event as `(lane, name)`; its words are its
    /// ledger subtree's (see [`Trace::subroutine_words`]).
    pub subroutines: Vec<(u64, String)>,
    /// `(estimate, space_words, edges)` from the `"summary"` event.
    pub summary: Option<(f64, u64, u64)>,
    /// `(stage, shard, at_edges)` → per-row aggregate over lanes.
    pub beats: BTreeMap<(String, u64, u64), BeatRow>,
    /// Reconstructed `"histogram"` events, in emission order.
    pub histograms: Vec<(String, Histogram)>,
    /// `"ledger"` rows in emission order (preorder, subtree totals).
    pub space_rows: Vec<Row<Space>>,
    /// `"time_ledger"` rows in emission order. A two-pass trace holds
    /// two trees (`estimator/...` then `pass2/...`), told apart by their
    /// root path segment.
    pub time_rows: Vec<Row<Time>>,
    /// `"time_ledger_meta"` events as `(stage, root, threads, ns)` — one
    /// per emitted time tree, carrying its wall budget factors.
    pub time_meta: Vec<(String, String, u64, u64)>,
    /// Sum of `"sketch"` event `evictions` and how many contributed —
    /// the finalize-time totals the heartbeat trajectories stay below.
    pub sketch_evictions: u64,
    /// Number of `"sketch"` events.
    pub sketch_events: u64,
}

fn json_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

/// A ledger row from its event: `path`, the metric's fields, `children`.
/// Errs with the name of the first missing field.
fn parse_row<M: Metric>(doc: &Json) -> Result<Row<M>, &'static str> {
    let path = doc.get("path").and_then(Json::as_str).ok_or("path")?;
    let counters = M::FIELDS
        .iter()
        .map(|&f| json_u64(doc, f).ok_or(f))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Row {
        path: path.to_string(),
        total: M::from_counters(&counters),
        children: json_u64(doc, "children").ok_or("children")? as usize,
    })
}

impl Trace {
    /// Read and parse the trace file at `path`.
    pub fn read(path: &str) -> Result<Trace, String> {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        Trace::parse(BufReader::new(file), path)
    }

    /// Audit a live recorder's events exactly as if read back from the
    /// trace it would write.
    pub fn of(rec: &Recorder) -> Result<Trace, String> {
        let mut ndjson = Vec::new();
        rec.write_ndjson(&mut ndjson).map_err(|e| e.to_string())?;
        Trace::parse(&ndjson[..], "recorder")
    }

    /// Parse NDJSON trace lines; `label` prefixes error locations. Every
    /// line must be a JSON object carrying `seq` and `kind`, and every
    /// kind the auditor reads must carry the fields it needs.
    pub fn parse(reader: impl BufRead, label: &str) -> Result<Trace, String> {
        let mut out = Trace::default();
        for (i, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("read {label}: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            out.lines += 1;
            let at = format!("{label}:{}", i + 1);
            let doc = Json::parse(&line).map_err(|e| format!("{at}: {e}"))?;
            let kind = doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{at}: missing \"kind\""))?;
            if json_u64(&doc, "seq").is_none() {
                return Err(format!("{at}: missing \"seq\""));
            }
            let bad = |field: &str| format!("{at}: {kind} event missing \"{field}\"");
            let u = |key: &str| json_u64(&doc, key).ok_or_else(|| bad(key));
            let s = |key: &str| doc.get(key).and_then(Json::as_str).ok_or_else(|| bad(key));
            match kind {
                "phase" => {
                    let e = out.phases.entry(s("phase")?.to_string()).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += u("ns")?;
                }
                "counter" => {
                    out.counters.insert(s("key")?.to_string(), u("value")?);
                }
                "subroutine" => out.subroutines.push((u("lane")?, s("name")?.to_string())),
                "sketch" => {
                    out.sketch_evictions += u("evictions")?;
                    out.sketch_events += 1;
                }
                "ledger" => out.space_rows.push(parse_row(&doc).map_err(bad)?),
                "time_ledger" => out.time_rows.push(parse_row(&doc).map_err(bad)?),
                "time_ledger_meta" => out.time_meta.push((
                    s("stage")?.to_string(),
                    s("root")?.to_string(),
                    u("threads")?,
                    u("ns")?,
                )),
                "summary" => {
                    let est = doc
                        .get("estimate")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("estimate"))?;
                    out.summary = Some((est, u("space_words")?, u("edges")?));
                }
                "heartbeat" => {
                    let key = (s("stage")?.to_string(), u("shard")?, u("at_edges")?);
                    let row = out.beats.entry(key).or_default();
                    let opt = |key: &str| json_u64(&doc, key).unwrap_or(0);
                    row.lanes += 1;
                    row.lc_fill += opt("lc_fill");
                    row.ls_fill += opt("ls_fill");
                    row.ss_fill += opt("ss_fill");
                    row.evictions += opt("evictions");
                    row.space_words += opt("space_words");
                    row.ns += opt("ns");
                }
                "histogram" => {
                    let name = s("name")?;
                    let mut buckets: Vec<(usize, u64)> = Vec::new();
                    if let Json::Obj(entries) = &doc {
                        for (k, v) in entries {
                            if let Some(idx) =
                                k.strip_prefix('b').and_then(|s| s.parse::<usize>().ok())
                            {
                                buckets.push((idx, v.as_f64().unwrap_or(0.0) as u64));
                            }
                        }
                    }
                    let hist = Histogram::from_parts(&buckets, u("sum")?, u("min")?, u("max")?)
                        .ok_or_else(|| format!("{at}: inconsistent histogram '{name}'"))?;
                    let count = u("count")?;
                    if hist.count() != count {
                        return Err(format!(
                            "{at}: histogram '{name}' says count={count} but buckets sum to {}",
                            hist.count()
                        ));
                    }
                    out.histograms.push((name.to_string(), hist));
                }
                // Other kinds (shard, twopass, gauge, …) are valid
                // trace content but carry nothing the auditor needs.
                _ => {}
            }
        }
        Ok(out)
    }

    /// Every invariant of the trace: [`Trace::event_violations`],
    /// [`Trace::space_violations`] and [`Trace::time_violations`].
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.event_violations();
        out.extend(self.space_violations());
        out.extend(self.time_violations());
        out
    }

    /// Invariants across the plain events: phase event nanos sum to the
    /// matching `time_ns.*` counter in both directions, heartbeats imply
    /// histogram events, and heartbeat eviction trajectories are
    /// monotone and end below the finalize-time sketch totals.
    pub fn event_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, &(_, total_ns)) in &self.phases {
            match self.counters.get(&format!("time_ns.{name}")) {
                Some(&c) if c == total_ns => {}
                Some(&c) => violations.push(format!(
                    "phase '{name}': events sum to {total_ns} ns but counter time_ns.{name} = {c}"
                )),
                None => violations.push(format!(
                    "phase '{name}': {total_ns} ns of events but no time_ns.{name} counter"
                )),
            }
        }
        for (key, &value) in &self.counters {
            if let Some(name) = key.strip_prefix("time_ns.") {
                if !self.phases.contains_key(name) {
                    violations.push(format!(
                        "counter {key} = {value} has no matching phase events"
                    ));
                }
            }
        }
        // Every heartbeat records a fill/eviction delta into the ingest
        // histograms, so a trace with heartbeats but no histogram events
        // has been truncated or hand-edited.
        if !self.beats.is_empty() && self.histograms.is_empty() {
            violations.push(format!(
                "{} heartbeat row(s) but no histogram events (every heartbeat records a delta)",
                self.beats.len()
            ));
        }
        // The final per-shard snapshots can never exceed the
        // finalize-time sketch totals: the merged totals include every
        // shard's evictions plus any the merge itself performed. Only the
        // estimate-stage trajectories count: pass-2 lanes evict into
        // sketches no "sketch" event covers.
        let last = self.monotone_beats("evictions", |r| r.evictions, &mut violations);
        if self.sketch_events > 0 && !last.is_empty() {
            let beats_total: u64 = last
                .iter()
                .filter(|((stage, _), _)| *stage == "estimate")
                .map(|(_, v)| v)
                .sum();
            if beats_total > self.sketch_evictions {
                violations.push(format!(
                    "final heartbeats record {beats_total} evictions across shards but the \
                     finalize-time sketch totals only {}",
                    self.sketch_evictions
                ));
            }
        }
        violations
    }

    /// Each `"subroutine"` event as `(lane, name, words)`, in event
    /// order: the words are the total of its ledger subtree at
    /// [`subroutine_path`], `None` when the trace holds no such row.
    pub fn subroutine_words(&self) -> Vec<(u64, &str, Option<u64>)> {
        let words: HashMap<&str, u64> = self
            .space_rows
            .iter()
            .map(|r| (r.path.as_str(), r.total.words))
            .collect();
        self.subroutines
            .iter()
            .map(|(lane, name)| {
                let path = subroutine_path(*lane, name);
                (*lane, name.as_str(), words.get(path.as_str()).copied())
            })
            .collect()
    }

    /// Invariants of the `"ledger"` rows (DESIGN.md §13): parent sums,
    /// the root's words against the summary total, and a subtree for
    /// every `"subroutine"` event.
    pub fn space_violations(&self) -> Vec<String> {
        let rows = &self.space_rows;
        let mut violations = parent_sum_violations(rows);
        let root = rows.iter().find(|r| !r.path.contains('/'));
        if let (Some(root), Some((_, summary_words, _))) = (root, self.summary) {
            violations.extend(space_total_violation(
                &root.path,
                root.total.words,
                summary_words,
            ));
        }
        for (lane, name, words) in self.subroutine_words() {
            if words.is_none() {
                violations.push(format!(
                    "subroutine '{name}' (lane {lane}) has no ledger subtree at '{}'",
                    subroutine_path(lane, name)
                ));
            }
        }
        violations
    }

    /// Invariants of the `"time_ledger"` rows (DESIGN.md §15): parent
    /// sums; every tree and its `"time_ledger_meta"` event pair up with
    /// equal totals; ns conservation — a tree's total never exceeds its
    /// stage's measured batch wall clock (`*.batch_ns` histogram sum)
    /// times the worker-thread count; and heartbeat `ns` trajectories
    /// are monotone in stream position.
    pub fn time_violations(&self) -> Vec<String> {
        let rows = &self.time_rows;
        let mut violations = parent_sum_violations(rows);
        for root in rows.iter().filter(|r| !r.path.contains('/')) {
            if !self.time_meta.iter().any(|(_, m, _, _)| *m == root.path) {
                violations.push(format!(
                    "time ledger root '{}' has no time_ledger_meta",
                    root.path
                ));
            }
        }
        for (stage, root, threads, meta_ns) in &self.time_meta {
            match rows.iter().find(|r| &r.path == root) {
                Some(r) if r.total.ns == *meta_ns => {}
                Some(r) => violations.push(format!(
                    "time ledger root '{root}' attributes {} ns but its meta event reports {meta_ns}",
                    r.total.ns
                )),
                None => violations.push(format!(
                    "time_ledger_meta for stage '{stage}' has no time ledger rows at root '{root}'"
                )),
            }
            // The batch-granular clocks only run inside `observe_batch`,
            // whose wall intervals the `batch_ns` histogram records
            // (merged additively across shards and replicas, exactly like
            // the ledger's ns totals).
            let hist = match stage.as_str() {
                "estimate" => "ingest.batch_ns",
                "pass2" => "pass2.ingest.batch_ns",
                other => {
                    violations.push(format!("time_ledger_meta names unknown stage '{other}'"));
                    continue;
                }
            };
            let wall: u64 = self
                .histograms
                .iter()
                .filter(|(name, _)| name == hist)
                .map(|(_, h)| h.sum())
                .sum();
            violations.extend(time_budget_violation(root, *meta_ns, wall, *threads));
        }
        // Heartbeat `ns` payloads are cumulative per lane, so each
        // (stage, shard) trajectory summed over its lanes is monotone.
        self.monotone_beats("ns", |r| r.ns, &mut violations);
        violations
    }

    /// Check that `value` never drops along each (stage, shard)
    /// heartbeat trajectory (the map iterates `at_edges` ascending
    /// within a group). Returns each trajectory's maximum.
    fn monotone_beats(
        &self,
        what: &str,
        value: fn(&BeatRow) -> u64,
        violations: &mut Vec<String>,
    ) -> BTreeMap<(&str, u64), u64> {
        let mut last: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        for ((stage, shard, at), row) in &self.beats {
            let prev = last.entry((stage.as_str(), *shard)).or_insert(0);
            let v = value(row);
            if v < *prev {
                violations.push(format!(
                    "heartbeat {what} not monotone: stage '{stage}' shard {shard} \
                     drops from {prev} to {v} at {at} edges"
                ));
            }
            *prev = (*prev).max(v);
        }
        last
    }
}

/// The space-ledger path whose subtree holds a `"subroutine"` event's
/// words. The estimator's lane-subtree child names are the subroutine
/// event names by construction; `trivial`, `fingerprints` and the
/// shared `universe` mix are estimator-global (their events carry
/// lane 0).
pub fn subroutine_path(lane: u64, name: &str) -> String {
    match name {
        "trivial" | "fingerprints" | "universe" => format!("estimator/{name}"),
        _ => format!("estimator/lane{lane}/{name}"),
    }
}

/// The parent-sum rule over flattened rows: every interior row's
/// declared child count matches the rows present, and its subtree total
/// equals the sum of its immediate children's.
pub fn parent_sum_violations<M: Metric>(rows: &[Row<M>]) -> Vec<String> {
    let mut violations = Vec::new();
    for parent in rows.iter().filter(|r| r.children > 0) {
        let prefix = format!("{}/", parent.path);
        let children: Vec<&Row<M>> = rows
            .iter()
            .filter(|r| {
                r.path
                    .strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .collect();
        if children.len() != parent.children {
            violations.push(format!(
                "{} '{}' declares {} children but the trace holds {}",
                M::EVENT,
                parent.path,
                parent.children,
                children.len()
            ));
            continue;
        }
        let sum = children
            .iter()
            .fold(M::default(), |acc, r| acc.plus(r.total));
        if sum != parent.total {
            violations.push(format!(
                "{} '{}' totals ({}) != children sum ({})",
                M::EVENT,
                parent.path,
                parent.total.describe(),
                sum.describe()
            ));
        }
    }
    violations
}

/// The space ledger's live contract: leaves-only attribution, and the
/// tree attributes exactly `space_words` resident words — a word it
/// misses or double-counts is a bug, not a rounding artifact.
pub fn space_ledger_violations(ledger: &Ledger<Space>, space_words: u64) -> Vec<String> {
    let mut violations = ledger.audit();
    violations.extend(space_total_violation(
        ledger.name(),
        ledger.total_words(),
        space_words,
    ));
    violations
}

/// The time ledger's live contract: leaves-only attribution, and ns
/// conservation — every attributed interval nests inside a measured
/// wall interval and at most `parallelism` of them overlap, so the total
/// never exceeds `wall_ns × parallelism`.
pub fn time_ledger_violations(
    ledger: &Ledger<Time>,
    wall_ns: u64,
    parallelism: u64,
) -> Vec<String> {
    let mut violations = ledger.audit();
    violations.extend(time_budget_violation(
        ledger.name(),
        ledger.total_ns(),
        wall_ns,
        parallelism,
    ));
    violations
}

fn space_total_violation(root: &str, words: u64, space_words: u64) -> Option<String> {
    (words != space_words).then(|| {
        format!("ledger '{root}' attributes {words} words but space_words is {space_words}")
    })
}

fn time_budget_violation(root: &str, ns: u64, wall_ns: u64, parallelism: u64) -> Option<String> {
    let parallelism = parallelism.max(1);
    let budget = wall_ns.saturating_mul(parallelism);
    (ns > budget).then(|| {
        format!(
            "time ledger '{root}' attributes {ns} ns but the wall budget is {budget} ns \
             ({wall_ns} ns x {parallelism})"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{SpaceLedger, SpaceSink, TimeLedger};
    use crate::Recorder;

    /// A small healthy trace: a space and a time tree, their meta event,
    /// the summary and subroutine events, one phase with its counter,
    /// and two heartbeats with the batch histogram.
    fn healthy() -> Recorder {
        let rec = Recorder::enabled();
        let mut space = SpaceLedger::new("estimator");
        space
            .root
            .child("lane0")
            .child("large_set")
            .leaf("rows", 30);
        space.root.child("fingerprints").leaf("set_base", 8);
        let mut times = TimeLedger::new("estimator");
        times.root.child("lane0").leaf("large_set", 600);
        times.root.leaf("fingerprints", 100);
        let mut batch = Histogram::new();
        batch.record(1000);
        for (at, ns) in [(100u64, 300u64), (200, 700)] {
            rec.event(
                "heartbeat",
                &[
                    ("stage", "estimate".into()),
                    ("shard", 0u64.into()),
                    ("at_edges", at.into()),
                    ("evictions", 1u64.into()),
                    ("ns", ns.into()),
                ],
            );
        }
        rec.histogram("ingest.batch_ns", &batch);
        for (lane, name) in [(0u64, "fingerprints"), (0, "large_set")] {
            rec.event(
                "subroutine",
                &[("lane", lane.into()), ("name", name.into())],
            );
        }
        rec.event("lane", &[("lane", 0u64.into())]);
        rec.event(
            "summary",
            &[
                ("estimate", 1.0f64.into()),
                ("space_words", 38u64.into()),
                ("edges", 9u64.into()),
            ],
        );
        space.emit(&rec);
        times.emit(&rec);
        rec.event(
            "time_ledger_meta",
            &[
                ("stage", "estimate".into()),
                ("root", "estimator".into()),
                ("threads", 1u64.into()),
                ("ns", 700u64.into()),
            ],
        );
        drop(rec.span("ingest"));
        rec
    }

    fn ndjson(rec: &Recorder) -> String {
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn parse(text: &str) -> Trace {
        Trace::parse(text.as_bytes(), "t").expect("parses")
    }

    /// Replace the first occurrence of `from` on the first line
    /// containing `marker`.
    fn tamper(text: &str, marker: &str, from: &str, to: &str) -> String {
        let mut done = false;
        let mut out = String::new();
        for line in text.lines() {
            if !done && line.contains(marker) && line.contains(from) {
                out.push_str(&line.replacen(from, to, 1));
                done = true;
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert!(done, "nothing to tamper: {marker} / {from}");
        out
    }

    fn violations_of(text: &str) -> Vec<String> {
        parse(text).violations()
    }

    #[test]
    fn healthy_trace_parses_and_passes_every_check() {
        let t = Trace::of(&healthy()).expect("parses");
        assert_eq!(t.space_rows.len(), 6);
        assert_eq!(t.time_rows.len(), 4);
        assert_eq!(t.beats.len(), 2);
        assert_eq!(t.summary.map(|s| s.1), Some(38));
        assert_eq!(
            t.subroutine_words(),
            [(0, "fingerprints", Some(8)), (0, "large_set", Some(30))]
        );
        assert!(t.violations().is_empty(), "{:?}", t.violations());
    }

    #[test]
    fn tampered_rows_break_the_parent_sum_rule_for_both_metrics() {
        let text = ndjson(&healthy());
        let v = violations_of(&tamper(
            &text,
            "\"path\":\"estimator/fingerprints/set_base\"",
            "\"words\":8",
            "\"words\":9",
        ));
        assert!(
            v.iter()
                .any(|m| m.contains("ledger 'estimator/fingerprints' totals (8 words")),
            "{v:?}"
        );
        let v = violations_of(&tamper(
            &text,
            "\"path\":\"estimator/fingerprints\",\"ns\"",
            "\"ns\":100",
            "\"ns\":101",
        ));
        assert!(
            v.iter()
                .any(|m| m
                    .contains("time_ledger 'estimator' totals (700 ns) != children sum (701 ns)")),
            "{v:?}"
        );
        // A row the tree never had changes its parent's child count.
        let extra = format!(
            "{text}{{\"seq\":999,\"kind\":\"ledger\",\"path\":\"estimator/bogus\",\
             \"words\":0,\"updates\":0,\"touched_words\":0,\"children\":0}}\n"
        );
        let v = violations_of(&extra);
        assert!(
            v.iter()
                .any(|m| m.contains("declares 2 children but the trace holds 3")),
            "{v:?}"
        );
    }

    #[test]
    fn totals_meta_and_budget_are_cross_checked() {
        let text = ndjson(&healthy());
        let v = violations_of(&tamper(
            &text,
            "\"kind\":\"summary\"",
            "\"space_words\":38",
            "\"space_words\":39",
        ));
        assert_eq!(
            v,
            ["ledger 'estimator' attributes 38 words but space_words is 39"]
        );
        let v = violations_of(&tamper(
            &text,
            "\"name\":\"large_set\"",
            "\"lane\":0",
            "\"lane\":1",
        ));
        assert_eq!(
            v,
            ["subroutine 'large_set' (lane 1) has no ledger subtree at 'estimator/lane1/large_set'"]
        );
        let v = violations_of(&tamper(
            &text,
            "time_ledger_meta",
            "\"ns\":700",
            "\"ns\":701",
        ));
        assert!(
            v.iter().any(|m| m.contains("its meta event reports 701")),
            "{v:?}"
        );
        let v = violations_of(&tamper(
            &text,
            "time_ledger_meta",
            "\"root\":\"estimator\"",
            "\"root\":\"pass2\"",
        ));
        assert!(
            v.iter()
                .any(|m| m.contains("root 'estimator' has no time_ledger_meta")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.contains("no time ledger rows at root 'pass2'")),
            "{v:?}"
        );
        let v = violations_of(&tamper(
            &text,
            "time_ledger_meta",
            "\"estimate\"",
            "\"bogus\"",
        ));
        assert!(
            v.iter().any(|m| m.contains("unknown stage 'bogus'")),
            "{v:?}"
        );
        // The wall budget is the batch histogram sum times the threads.
        let v = violations_of(&tamper(
            &text,
            "ingest.batch_ns",
            "\"sum\":1000",
            "\"sum\":600",
        ));
        assert!(
            v.iter()
                .any(|m| m.contains("wall budget is 600 ns (600 ns x 1)")),
            "{v:?}"
        );
    }

    #[test]
    fn event_rules_cover_phases_heartbeats_and_evictions() {
        let text = ndjson(&healthy());
        let orphan = format!(
            "{text}{{\"seq\":999,\"kind\":\"counter\",\"key\":\"time_ns.bogus\",\"value\":5}}\n"
        );
        let v = violations_of(&orphan);
        assert_eq!(
            v,
            ["counter time_ns.bogus = 5 has no matching phase events"]
        );
        let v = violations_of(&tamper(
            &text,
            "\"at_edges\":200",
            "\"ns\":700",
            "\"ns\":200",
        ));
        assert!(
            v.iter().any(|m| m.contains("heartbeat ns not monotone")),
            "{v:?}"
        );
        let v = violations_of(&tamper(
            &text,
            "\"at_edges\":200",
            "\"evictions\":1",
            "\"evictions\":0",
        ));
        assert!(
            v.iter()
                .any(|m| m.contains("heartbeat evictions not monotone")),
            "{v:?}"
        );
        let sketch = format!("{text}{{\"seq\":999,\"kind\":\"sketch\",\"evictions\":0}}\n");
        let v = violations_of(&sketch);
        assert!(
            v.iter()
                .any(|m| m.contains("finalize-time sketch totals only 0")),
            "{v:?}"
        );
        let no_hist: String = text
            .lines()
            .filter(|l| !l.contains("\"histogram\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let v = parse(&no_hist).event_violations();
        assert!(
            v.iter()
                .any(|m| m.contains("2 heartbeat row(s) but no histogram events")),
            "{v:?}"
        );
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let err = |text: &str| Trace::parse(text.as_bytes(), "t").unwrap_err();
        assert!(err("not json\n").starts_with("t:1:"));
        assert_eq!(err("{\"seq\":0}\n"), "t:1: missing \"kind\"");
        assert_eq!(err("\n{\"kind\":\"phase\"}\n"), "t:2: missing \"seq\"");
        assert_eq!(
            err("{\"seq\":0,\"kind\":\"ledger\",\"path\":\"r\",\"words\":1,\"children\":0}\n"),
            "t:1: ledger event missing \"updates\""
        );
        assert!(err("{\"seq\":0,\"kind\":\"histogram\",\"name\":\"h\",\"count\":2,\"sum\":1,\"min\":1,\"max\":1,\"b1\":1}\n")
            .contains("says count=2 but buckets sum to 1"));
        assert!(Trace::read("/nonexistent/trace.ndjson")
            .unwrap_err()
            .starts_with("open "));
    }

    #[test]
    fn live_contracts_use_the_same_rules() {
        let mut space = SpaceLedger::new("estimator");
        space.root.child("lane0").leaf("rows", 30);
        assert!(space_ledger_violations(&space, 30).is_empty());
        assert_eq!(
            space_ledger_violations(&space, 31),
            ["ledger 'estimator' attributes 30 words but space_words is 31"]
        );
        space.root.child("lane0").own.words = 1;
        assert_eq!(space_ledger_violations(&space, 31).len(), 1);

        let mut times = TimeLedger::new("pass2");
        times.root.leaf("fingerprints", 900);
        assert!(time_ledger_violations(&times, 450, 2).is_empty());
        assert_eq!(
            time_ledger_violations(&times, 450, 1),
            ["time ledger 'pass2' attributes 900 ns but the wall budget is 450 ns (450 ns x 1)"]
        );
        // Zero parallelism still grants one worker's wall.
        assert!(time_ledger_violations(&times, 900, 0).is_empty());
    }
}
