//! From a workload's outcome to named metrics, and the two ways of
//! running: one workload (the driver's contract) or all of them.

use std::path::PathBuf;
use std::time::Instant;

use crate::harness::{package_dir, Env, Outcome, Sample, Scratch, BREAKDOWN_SLICES};
use crate::json::Value;
use crate::stat::{median, percentile, tail_percentile, Rng};
use crate::trace::{Span, Tracer};
use crate::{layers, probes, workloads};

/// The end-to-end metrics, as `BENCHMARK.json` lists them: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("query_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("state_bytes_per_raw_byte", "B/B"),
];

/// Per-layer metrics taken from the traced workload itself.
pub const FROM_WORKLOAD: [(&str, &str); 15] = [
    ("trace_overhead_pct", "%"),
    ("core.breakdown_share.io", "share"),
    ("core.breakdown_share.tokenizing", "share"),
    ("core.breakdown_share.parsing", "share"),
    ("core.breakdown_share.convert", "share"),
    ("core.breakdown_share.nodb", "share"),
    ("core.breakdown_share.engine", "share"),
    ("core.breakdown_share.planning", "share"),
    ("core.breakdown_share.processing", "share"),
    ("core.rows_scanned_per_row_returned", "ratio"),
    ("rawcache.hit_ratio", "ratio"),
    ("rawcache.evictions", "count"),
    ("posmap.bytes", "B"),
    ("posmap.evictions", "count"),
    ("sqlparse.parse_us", "us"),
];

/// Per-layer metrics from the probes, the same in every traced run.
pub const FROM_PROBES: [(&str, &str); 24] = [
    ("rawcsv.newline_floor_mb_s", "MB/s"),
    ("rawcsv.tokenize_mb_s", "MB/s"),
    ("rawcsv.parse_int_ns_per_field", "ns"),
    ("rawcsv.parse_float_ns_per_field", "ns"),
    ("rawcsv.parse_str_ns_per_field", "ns"),
    ("stats.observe_ns_per_value", "ns"),
    ("posmap.jump_ns_per_field", "ns"),
    ("posmap.scan_from_start_ns_per_field", "ns"),
    ("rawcache.export_rows_per_s", "1/s"),
    ("rawcache.gather_rows_per_s", "1/s"),
    ("engine.plan_us", "us"),
    ("engine.exec_rows_per_s", "1/s"),
    ("storage.load_s", "s"),
    ("storage.query_p50_ms", "ms"),
    ("warm_x_loaded", "x"),
    ("cold_x_floor", "x"),
    ("core.tail_replay_ms", "ms"),
    ("server.ping_us", "us"),
    ("server.wire_overhead_ms", "ms"),
    ("server.client_scaling", "x"),
    ("core.prepared_hit_ratio", "ratio"),
    ("core.admission_peak_in_flight", "count"),
    ("core.admission_peak_waiting", "count"),
    ("core.admission_rejected", "count"),
];

/// The unit of a metric this benchmark reports.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&FROM_WORKLOAD)
        .chain(&FROM_PROBES)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// One run's result: what the driver reads, plus what is only printed.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub args: RunArgs,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line: end-to-end ones for an untraced run,
    /// per-layer ones for a traced run.
    pub metrics: Vec<(String, f64)>,
    /// Printed, not gated: the tail, sample counts, per-class medians.
    pub diagnostics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl RunResult {
    fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = unit_of(name).unwrap_or("");
                    (
                        name.clone(),
                        Value::obj(vec![
                            ("value", Value::Num(*value)),
                            ("unit", Value::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }

    /// The record kept in a results file for `compare`.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("workload", Value::str(self.args.workload.clone())),
            ("seed", Value::Num(self.args.seed as f64)),
            ("seconds", Value::Num(self.args.seconds)),
            ("trace", Value::Num(f64::from(u8::from(self.args.traced)))),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            (
                "notes",
                Value::Arr(self.notes.iter().map(Value::str).collect()),
            ),
            (
                "diagnostics",
                Value::Obj(
                    self.diagnostics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Value::obj(vec![
                                    ("value", Value::Num(*value)),
                                    ("unit", Value::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Everything a person wants to see, before the result line.
    pub fn print_human(&self) {
        println!(
            "# {} seed {} {} s {}{}",
            self.args.workload,
            self.args.seed,
            self.args.seconds,
            if self.args.traced {
                "traced"
            } else {
                "untraced"
            },
            if self.args.quick {
                " (quick: 1/50 scale)"
            } else {
                ""
            },
        );
        for note in &self.notes {
            println!("#   {note}");
        }
        for (name, value) in &self.metrics {
            println!("#   {name} = {value} {}", unit_of(name).unwrap_or(""));
        }
        for (name, value, unit) in &self.diagnostics {
            println!("#   ({name} = {value} {unit})");
        }
    }
}

fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_ms)
        .collect()
}

fn end_to_end(out: &Outcome) -> Vec<(String, f64)> {
    let correct = out.samples.iter().filter(|s| s.ok).count();
    vec![
        ("query_p50_ms", median(&latencies(&out.samples, |_| true))),
        ("queries_per_s", correct as f64 / out.busy_s),
        ("setup_s", median(&out.setup_s)),
        (
            "state_bytes_per_raw_byte",
            out.state_bytes as f64 / out.raw_bytes as f64,
        ),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

fn diagnostics(out: &Outcome) -> Vec<(String, f64, &'static str)> {
    let all = latencies(&out.samples, |_| true);
    let failed = out.samples.iter().filter(|s| !s.ok).count();
    let mut d = vec![
        ("samples".to_string(), all.len() as f64, "count"),
        ("ops_attempted".to_string(), all.len() as f64, "count"),
        ("ops_failed".to_string(), failed as f64, "count"),
        (
            "failed_share".to_string(),
            failed as f64 / all.len().max(1) as f64,
            "share",
        ),
        ("harness_s".to_string(), out.harness_s, "s"),
    ];
    if let Some(p) = tail_percentile(all.len()) {
        d.push(("query_tail_percentile".to_string(), p, "%"));
        d.push(("query_tail_ms".to_string(), percentile(&all, p), "ms"));
    }
    let mut classes: Vec<&'static str> = out.samples.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let of_class = latencies(&out.samples, |s| s.class == class);
        d.push((format!("p50_ms.{class}"), median(&of_class), "ms"));
        d.push((format!("samples.{class}"), of_class.len() as f64, "count"));
    }
    d
}

fn from_workload(out: &Outcome, quick: bool) -> Vec<(String, f64)> {
    let traced = latencies(&out.samples, |s| s.traced);
    let untraced = latencies(&out.samples, |s| !s.traced);
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (median(&traced) / median(&untraced) - 1.0) * 100.0
    };
    let c = &out.counters;
    let total: f64 = c.breakdown_s.iter().sum();
    let mut m = vec![("trace_overhead_pct".to_string(), overhead)];
    for (slice, seconds) in BREAKDOWN_SLICES.iter().zip(c.breakdown_s) {
        let share = if total > 0.0 { seconds / total } else { 0.0 };
        m.push((format!("core.breakdown_share.{slice}"), share));
    }
    m.extend([
        (
            "core.rows_scanned_per_row_returned".to_string(),
            c.rows_scanned as f64 / c.rows_returned.max(1) as f64,
        ),
        (
            "rawcache.hit_ratio".to_string(),
            c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        ),
        ("rawcache.evictions".to_string(), out.cache_evictions as f64),
        ("posmap.bytes".to_string(), out.map_bytes as f64),
        ("posmap.evictions".to_string(), out.map_evictions as f64),
        (
            "sqlparse.parse_us".to_string(),
            layers::sqlparse_parse_us(&out.sql_texts, probes::budget(quick)),
        ),
    ]);
    m
}

/// Run one workload once. Spans of a traced run are appended to `spans`.
pub fn run_once(
    args: &RunArgs,
    run_index: u64,
    spans: &mut Vec<Span>,
) -> Result<RunResult, String> {
    if std::env::var_os("NODB_TEST_FAULTS").is_some() {
        return Err(
            "NODB_TEST_FAULTS is set: the library would inject I/O faults into the measurement; \
             unset it"
                .to_string(),
        );
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let scratch = Scratch::new(&args.workload)?;
    let mut env = Env {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        dir: scratch.path(),
        // Eight thread slots a run: the main thread and up to four clients.
        tracer: Tracer::new(Instant::now(), run_index * 8),
        trace_rng: Rng::new(args.seed ^ 0x7ace_7ace),
        extra_spans: Vec::new(),
    };
    let out = workloads::run(&args.workload, &mut env)?;
    let attempted = out.samples.len() as u64;
    let failed = out.samples.iter().filter(|s| !s.ok).count() as u64;
    let mut notes = out.notes.clone();
    notes.extend(out.violations.iter().map(|v| format!("VIOLATION: {v}")));
    let metrics = if args.traced {
        let t = Instant::now();
        let mut m = from_workload(&out, args.quick);
        m.extend(
            probes::run(&mut env)?
                .into_iter()
                .map(|(n, v)| (n.to_string(), v)),
        );
        notes.push(format!(
            "layer probes took {:.3} s",
            t.elapsed().as_secs_f64()
        ));
        m
    } else {
        end_to_end(&out)
    };
    spans.extend(env.tracer.into_spans());
    spans.extend(env.extra_spans);
    if attempted == 0 {
        return Err(format!("{}: no operation was attempted", args.workload));
    }
    if let Some((name, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is {value}", args.workload));
    }
    Ok(RunResult {
        args: args.clone(),
        correct: failed == 0 && out.violations.is_empty(),
        attempted,
        failed,
        metrics,
        diagnostics: diagnostics(&out),
        notes,
    })
}

/// Where results and traces go: `benchmark/out/`, which git ignores.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

pub const PAGE_CACHE_CAVEAT: &str = "# files are read from the OS page cache: latencies are this \
sandbox's CPU cost, not a device's";
