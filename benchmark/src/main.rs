//! `benchmark` — the end-to-end and per-layer benchmark of the maxkcov
//! estimator.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! `--trace 0` (the default) runs each workload closed-loop for `S`
//! seconds of timed repetitions and reports the end-to-end metrics with
//! their value, IQR and sample count; `--out` writes them as a document
//! `compare` reads. `--trace 1` makes the traced run instead: per-layer
//! metrics from clock pairs around public calls and the shadow-fidelity
//! guard; `--out` writes its spans as NDJSON. Without `--workload` every
//! workload runs. `--smoke` shrinks every workload to a second or less.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and the metric values.
//!
//! Exit codes: 0 when the run completed (failed operations are counted
//! in the output, not in the exit code), 1 when a traced run fails its
//! guard or `compare` finds a metric worse, 2 on a harness error.

mod alloc;
mod metrics;
mod run;
mod shadow;
mod trace;
mod workload;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use kcov_obs::json::Json;

use metrics::{result_line, verdict, Report, Summary, Verdict, END_TO_END};
use trace::Tracer;
use workload::{Workload, FULL, SMOKE, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       benchmark compare BASE.json NEW.json";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workloads =
                    vec![workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => a.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => parse(&args).and_then(|a| bench(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn bench(a: &Args) -> Result<ExitCode, String> {
    let scale = if a.smoke { &SMOKE } else { &FULL };
    let mut reports = Vec::new();
    let mut spans = Vec::new();
    for w in &a.workloads {
        let report = if a.trace {
            let mut tr = Tracer::new();
            let report = trace::trace(w, scale, a.seed, &mut tr)?;
            if a.out.is_some() {
                tr.write_ndjson(w.name, &mut spans)
                    .map_err(|e| e.to_string())?;
            }
            report
        } else {
            run::run(w, scale, a.seed, a.seconds)?
        };
        print!("{}", report.render());
        reports.push(report);
    }
    if let Some(path) = &a.out {
        let body = if a.trace {
            spans
        } else {
            Json::obj(vec![
                ("seed", a.seed.into()),
                ("seconds", a.seconds.into()),
                ("smoke", a.smoke.into()),
                (
                    "workloads",
                    Json::Arr(reports.iter().map(Report::to_json).collect()),
                ),
            ])
            .render_pretty(2)
            .into_bytes()
        };
        fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result_line(&reports));
    let guard_failed = a.trace && reports.iter().any(|r| r.failed_ops > 0);
    Ok(if guard_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The workloads of a `--out` document: `(name, metrics object)`.
fn load(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no workloads array"))?;
    workloads
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Json::as_str);
            match (name, w.get("metrics")) {
                (Some(name), Some(metrics)) => Ok((name.to_string(), metrics.clone())),
                _ => Err(format!("{path}: workload entry without name or metrics")),
            }
        })
        .collect()
}

fn summary(metrics: &Json, name: &str) -> Option<Summary> {
    let m = metrics.get(name)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        samples: num("samples")? as usize,
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base_path, new_path] = args else {
        return Err("compare needs BASE.json and NEW.json".into());
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let (mut compared, mut worse) = (0, false);
    for (name, base_metrics) in &base {
        let Some((_, new_metrics)) = new.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(b), Some(n)) = (
                summary(base_metrics, metric.name),
                summary(new_metrics, metric.name),
            ) else {
                continue;
            };
            let v = verdict(metric, &b, &n);
            compared += 1;
            worse |= v == Verdict::Worse;
            println!(
                "{:<16} {:<20} {:>16.6} {:>16.6} {:>8.4} {:>5.0}%  {}",
                name,
                metric.name,
                b.value,
                n.value,
                n.value / b.value,
                metric.bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    if compared == 0 {
        return Err("the two documents share no workload metric".into());
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    /// `(name, unit, better, bound)` of a metric entry.
    type Decl = (String, String, String, Option<f64>);

    fn spec() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// The metric entries of a section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<Decl> {
        let spec = spec();
        let entries = spec
            .get(section)
            .and_then(Json::as_arr)
            .expect("section present");
        entries
            .iter()
            .map(|e| {
                let s = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    e.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn emitted(r: &Report) -> Vec<(String, String)> {
        r.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn names_units(d: &[Decl]) -> Vec<(String, String)> {
        d.iter()
            .map(|(n, u, _, _)| (n.clone(), u.clone()))
            .collect()
    }

    #[test]
    fn declared_workloads_and_metrics_match_the_code() {
        let spec = spec();
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads present")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    Some(m.bound),
                )
            })
            .collect::<Vec<Decl>>();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.as_str().into(), None))
            .collect::<Vec<Decl>>();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn smoke_run_and_trace_emit_every_declared_metric() {
        let (e2e, layers) = (
            names_units(&declared("end_to_end")),
            names_units(&declared("per_layer")),
        );
        for w in &WORKLOADS {
            let r = run::run(w, &SMOKE, 1, 0.0).expect("smoke run");
            assert_eq!(r.failed_ops, 0, "{}: {:?}", w.name, r.failures);
            assert_eq!(emitted(&r), e2e, "{}", w.name);
            let t = trace::trace(w, &SMOKE, 1, &mut Tracer::new()).expect("smoke trace");
            assert_eq!(t.failed_ops, 0, "{}: {:?}", w.name, t.failures);
            assert_eq!(emitted(&t), layers, "{}", w.name);
        }
    }

    #[test]
    fn identical_runs_hold_identical_heap_bytes() {
        let w = workload::find("planted-a2").expect("workload exists");
        let heap = || {
            let r = run::run(w, &SMOKE, 3, 0.0).expect("smoke run");
            let heap = r.metrics.iter().find(|m| m.name == "heap_bytes");
            heap.expect("heap_bytes emitted").summary.value
        };
        let first = heap();
        assert!(first > 0.0);
        assert_eq!(first, heap());
    }
}
