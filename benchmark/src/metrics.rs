//! Metric definitions, sample summaries, the result documents, and the
//! `compare` verdicts. `BENCHMARK.json` at the repository root declares
//! the same names, units, directions and bounds; a test keeps the two in
//! step.

use kcov_obs::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen.
    pub bound: f64,
    /// A pure function of the run seed: compared exactly, spread ignored.
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    deterministic: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ingest_edges_per_s", "edges/s", Better::Higher, 0.25, false),
    e2e("finalize_ms", "ms", Better::Lower, 0.15, false),
    e2e("merge_ms", "ms", Better::Lower, 0.25, false),
    e2e("resident_words", "words", Better::Lower, 0.10, true),
    e2e("heap_bytes", "bytes", Better::Lower, 0.15, true),
    e2e("replica_bytes", "bytes", Better::Lower, 0.10, true),
    e2e("opt_ratio", "ratio", Better::Lower, 0.25, true),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 32] = [
    ("io.read_edges_ms", "ms", Better::Lower),
    ("estimate.new_ms", "ms", Better::Lower),
    ("fingerprint.ns_per_edge", "ns", Better::Lower),
    ("universe.mix_ns_per_edge", "ns", Better::Lower),
    ("universe.reduce_ns_per_edge", "ns", Better::Lower),
    ("large_common.ns_per_edge", "ns", Better::Lower),
    ("large_set.ns_per_edge", "ns", Better::Lower),
    ("small_set.ns_per_edge", "ns", Better::Lower),
    ("large_set.updates_per_edge", "count", Better::Lower),
    ("large_set.evictions_per_edge", "count", Better::Lower),
    ("small_set.stored_edges", "count", Better::Lower),
    ("small_set.overflowed_lanes", "count", Better::Lower),
    ("large_common.finalize_ms", "ms", Better::Lower),
    ("large_set.finalize_ms", "ms", Better::Lower),
    ("small_set.finalize_ms", "ms", Better::Lower),
    ("large_common.words", "words", Better::Lower),
    ("large_set.words", "words", Better::Lower),
    ("small_set.words", "words", Better::Lower),
    ("estimate.lanes", "count", Better::Lower),
    ("estimate.idle_lanes", "count", Better::Lower),
    ("estimate.accounted_heap_share", "ratio", Better::Higher),
    ("wire.encode_ms", "ms", Better::Lower),
    ("wire.decode_ms", "ms", Better::Lower),
    ("wire.bytes_per_word", "bytes/word", Better::Lower),
    ("estimate.merge_ms", "ms", Better::Lower),
    ("estimate.batch_p50_ms", "ms", Better::Lower),
    ("estimate.batch_p99_ms", "ms", Better::Lower),
    ("estimate.unattributed_share", "ratio", Better::Lower),
    ("estimate.shadow_gap", "ratio", Better::Lower),
    ("obs.trace_overhead", "ratio", Better::Lower),
    ("baselines.mv_ns_per_edge", "ns", Better::Lower),
    ("baselines.bem_ns_per_edge", "ns", Better::Lower),
];

/// A metric's reported value with the quartiles and size of its sample
/// (quartiles by the "exclusive" method of Python's
/// `statistics.quantiles`). The value is the sample's median, or for a
/// timing its fastest repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// The median of a non-empty sample.
    pub fn median_of(values: &[f64]) -> Summary {
        Summary::with(values, |sorted| quantile(sorted, 0.5))
    }

    /// The smallest value of a non-empty sample.
    pub fn min_of(values: &[f64]) -> Summary {
        Summary::with(values, |sorted| sorted[0])
    }

    fn with(values: &[f64], value: impl Fn(&[f64]) -> f64) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            value: value(&sorted),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            samples: sorted.len(),
        }
    }

    /// A single reading.
    pub fn one(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// Every number multiplied by `factor > 0`.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            value: self.value * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            ..self
        }
    }

    /// Interquartile range as a share of the value (0 when the value is).
    pub fn rel_iqr(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Linear interpolation at 1-based position `(n + 1)·p`, clamped to the
/// sample (the median of an even sample is the mean of the middle two).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n);
    let frac = pos - lo as f64;
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// One metric's result.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// One workload's result: operations attempted and failed, and metrics.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// Untraced runs: the host's slowdown against the reference speed,
    /// which the timings are divided by.
    pub host_slowdown: Option<f64>,
    pub ops: usize,
    pub failures: Vec<String>,
    /// Operations with at least one failure (an operation may fail
    /// several checks).
    pub failed_ops: usize,
    pub metrics: Vec<Measured>,
}

impl Report {
    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: ops {} failed_ops {}\n",
            self.workload, self.ops, self.failed_ops
        );
        if let Some(s) = self.host_slowdown {
            out.push_str(&format!(
                "  host slowdown {s:.4} (timings are divided by it)\n"
            ));
        }
        for m in &self.metrics {
            let s = m.summary;
            out.push_str(&format!(
                "  {:<30} {:>16.6} {:<10} IQR {:>12.6} ({:>5.1}%)  n={}\n",
                m.name,
                s.value,
                m.unit,
                s.q3 - s.q1,
                100.0 * s.rel_iqr(),
                s.samples
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }

    /// Entry of the `--out` document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary;
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("unit", m.unit.into()),
                        ("value", s.value.into()),
                        ("q1", s.q1.into()),
                        ("q3", s.q3.into()),
                        ("samples", s.samples.into()),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("name", self.workload.into()),
            (
                "host_slowdown",
                self.host_slowdown.map_or(Json::Null, Json::from),
            ),
            ("ops", self.ops.into()),
            ("failed_ops", self.failed_ops.into()),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`. With several workloads the metric keys
/// are prefixed `workload/`.
pub fn result_line(reports: &[Report]) -> String {
    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", r.workload, m.name)
            };
            metrics.push((
                key,
                Json::obj(vec![
                    ("value", m.summary.value.into()),
                    ("unit", m.unit.into()),
                ]),
            ));
        }
    }
    Json::obj(vec![
        ("correct", reports.iter().all(|r| r.failed_ops == 0).into()),
        (
            "attempted",
            reports.iter().map(|r| r.ops).sum::<usize>().into(),
        ),
        (
            "failed",
            reports.iter().map(|r| r.failed_ops).sum::<usize>().into(),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// A `compare` verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread of either side is wider than the bound.
    Unresolved,
}

/// Judge `new` against `base` under `metric`'s direction and bound.
pub fn verdict(metric: &EndToEnd, base: &Summary, new: &Summary) -> Verdict {
    if !metric.deterministic && (base.rel_iqr() > metric.bound || new.rel_iqr() > metric.bound) {
        return Verdict::Unresolved;
    }
    let change = (new.value - base.value) / base.value.abs().max(f64::MIN_POSITIVE);
    let worsening = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let sample = [3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let s = Summary::median_of(&sample);
        assert_eq!((s.q1, s.value, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(Summary::min_of(&sample).value, 1.0);
        assert_eq!(Summary::one(4.0).rel_iqr(), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let m = &END_TO_END[2]; // finalize_ms: lower is better, 15%
        let at = |v: f64| Summary {
            value: v,
            q1: v,
            q3: v,
            samples: 5,
        };
        assert_eq!(verdict(m, &at(100.0), &at(120.0)), Verdict::Worse);
        assert_eq!(verdict(m, &at(100.0), &at(110.0)), Verdict::Same);
        assert_eq!(verdict(m, &at(100.0), &at(80.0)), Verdict::Better);
        let wide = Summary {
            value: 100.0,
            q1: 75.0,
            q3: 125.0,
            samples: 5,
        };
        assert_eq!(verdict(m, &wide, &at(100.0)), Verdict::Unresolved);
        // Deterministic metrics ignore spread: any move past the bound counts.
        let words = &END_TO_END[4];
        assert_eq!(verdict(words, &wide, &at(115.0)), Verdict::Worse);
    }
}
