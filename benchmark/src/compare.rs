//! `compare <a.json> <b.json>`: is `b` worse than `a`?
//!
//! Both files are results files written by the `all` mode. For every
//! workload and end-to-end metric the medians over the untraced runs are
//! compared under the metric's direction and bound from `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::stat::{median, spread};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of `BENCHMARK.json`.
pub fn end_to_end_specs(benchmark_json: &Value) -> Result<Vec<MetricSpec>, String> {
    benchmark_json
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("an end_to_end metric lacks {key:?}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("an end_to_end metric lacks a bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The median got worse by more than the bound.
    Worse,
    /// A side's own run-to-run spread exceeds the bound: the runs cannot
    /// tell a change of that size from noise.
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Share by which `b` is worse than `a` (negative: better).
    pub worse_by: f64,
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Values of `metric` over the untraced runs of `workload`.
fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    untraced_runs(results, workload)
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn untraced_runs<'a>(results: &'a Value, workload: &'a str) -> impl Iterator<Item = &'a Value> {
    results
        .get("runs")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter(move |run| {
            run.get("workload").and_then(Value::as_str) == Some(workload)
                && run.get("trace").and_then(Value::as_f64) == Some(0.0)
        })
}

/// Failed operations as a share of those attempted, over a side's runs.
fn failed_share(results: &Value, workload: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        untraced_runs(results, workload)
            .filter_map(|run| run.get(key)?.as_f64())
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

fn workloads_of(results: &Value) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in results.get("runs").map_or(&[][..], Value::as_arr) {
        if let Some(w) = run.get("workload").and_then(Value::as_str) {
            if !names.iter().any(|n| n == w) {
                names.push(w.to_string());
            }
        }
    }
    names
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from `a` to `b`.
    pub more_failures: Vec<(String, f64, f64)>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.more_failures.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }
}

pub fn compare(a: &Value, b: &Value, specs: &[MetricSpec]) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    let mut more_failures = Vec::new();
    for workload in workloads_of(a) {
        for spec in specs {
            let va = values(a, &workload, &spec.name);
            let vb = values(b, &workload, &spec.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}: {} is missing from one of the files",
                    spec.name
                ));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if spec.higher_is_better {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            // Quartiles of fewer than four runs say little; then only the
            // medians are compared.
            let spread_of = |v: &[f64]| if v.len() >= 4 { spread(v) } else { None };
            let widest = match (spread_of(&va), spread_of(&vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = if worse_by > spec.bound {
                Verdict::Worse
            } else if widest.is_some_and(|s| s > spec.bound) {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                unit: spec.unit.clone(),
                a: ma,
                b: mb,
                worse_by,
                spread: widest,
                verdict,
            });
        }
        let (fa, fb) = (failed_share(a, &workload), failed_share(b, &workload));
        if fb > fa {
            more_failures.push((workload, fa, fb));
        }
    }
    Ok(Comparison {
        rows,
        more_failures,
    })
}

pub fn print(c: &Comparison) {
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread"
    );
    for r in &c.rows {
        println!(
            "{:<20} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>8}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread
                .map_or_else(|| "n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for (workload, fa, fb) in &c.more_failures {
        println!("{workload}: failed_share rose from {fa} to {fb}: worse");
    }
}

/// Read and parse a JSON file.
pub fn load(path: &std::path::Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<MetricSpec> {
        vec![
            MetricSpec {
                name: "query_p50_ms".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: 0.1,
            },
            MetricSpec {
                name: "queries_per_s".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: 0.1,
            },
        ]
    }

    fn results(p50: &[f64], qps: &[f64], failed: f64) -> Value {
        Value::obj(vec![(
            "runs",
            Value::Arr(
                p50.iter()
                    .zip(qps)
                    .map(|(p, q)| {
                        let metric = |v: f64| Value::obj(vec![("value", Value::Num(v))]);
                        Value::obj(vec![
                            ("workload", Value::str("w")),
                            ("trace", Value::Num(0.0)),
                            ("attempted", Value::Num(100.0)),
                            ("failed", Value::Num(failed)),
                            (
                                "metrics",
                                Value::obj(vec![
                                    ("query_p50_ms", metric(*p)),
                                    ("queries_per_s", metric(*q)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn the_same_numbers_pass() {
        let a = results(&STEADY, &STEADY, 0.0);
        let c = compare(&a, &a, &specs()).unwrap();
        assert!(c.passed());
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn a_twofold_slowdown_is_worse_in_both_directions() {
        let a = results(&STEADY, &STEADY, 0.0);
        let slow: Vec<f64> = STEADY.iter().map(|v| v * 2.0).collect();
        let fewer: Vec<f64> = STEADY.iter().map(|v| v / 2.0).collect();
        let c = compare(&a, &results(&slow, &fewer, 0.0), &specs()).unwrap();
        assert!(!c.passed());
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Worse));
        // Getting better by as much is no regression.
        let c = compare(&a, &results(&fewer, &slow, 0.0), &specs()).unwrap();
        assert!(c.passed());
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved_not_ok() {
        let noisy = [10.0, 14.0, 7.0, 12.0, 8.0];
        let a = results(&noisy, &STEADY, 0.0);
        let c = compare(&a, &a, &specs()).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        assert_eq!(c.rows[1].verdict, Verdict::Ok);
        assert!(c.passed(), "unresolved alone does not fail the comparison");
    }

    #[test]
    fn more_failed_operations_fail_the_comparison() {
        let a = results(&STEADY, &STEADY, 0.0);
        let b = results(&STEADY, &STEADY, 1.0);
        let c = compare(&a, &b, &specs()).unwrap();
        assert!(!c.passed());
        assert_eq!(c.more_failures.len(), 1);
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let a = results(&STEADY, &STEADY, 0.0);
        let empty = Value::obj(vec![("runs", Value::Arr(vec![]))]);
        assert!(compare(&a, &empty, &specs()).is_err());
    }
}
