//! What the five workloads share: the per-run scratch directory, the
//! reference answers, the per-operation record and the warm-up routine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nodb_core::{NoDb, NoDbConfig, QueryCtx, QueryReport};
use nodb_engine::QueryResult;
use nodb_storage::{ConventionalDb, DbProfile};

use crate::datasets::Dataset;
use crate::digest::{Expect, Rendered};
use crate::json::Value;
use crate::queries::{Check, Query};
use crate::stat::Rng;
use crate::trace::{Span, SpanId, Tracer};

/// A directory under `benchmark/tmp/` that is removed when dropped, so a
/// run leaves nothing behind whether its checks pass or fail. It is inside
/// the benchmark's own directory because a run may write only inside its
/// checkout.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = package_dir().join("tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Gone too when this was the last run using it; fails, harmlessly,
        // while another run's directory is still inside.
        if let Some(tmp) = self.path.parent() {
            let _ = std::fs::remove_dir(tmp);
        }
    }
}

/// The `benchmark/` directory: where `cargo run` says the manifest is, else
/// where it was when this was compiled.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// What one run of one workload is given.
pub struct Env<'a> {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// A traced run: about half the operations (drawn from `trace_rng`)
    /// record spans, the rest run exactly as in an untraced run, and the
    /// difference between the two halves is the tracing overhead.
    pub traced: bool,
    pub quick: bool,
    pub dir: &'a Path,
    pub tracer: Tracer,
    pub trace_rng: Rng,
    /// Spans recorded on other threads (the clients of `serve_mixed`).
    pub extra_spans: Vec<Span>,
}

impl Env<'_> {
    /// Decide whether the next operation records spans.
    pub fn next_op_traced(&mut self) -> bool {
        let on = self.traced && self.trace_rng.below(2) == 0;
        self.tracer.enabled = on;
        on
    }

    /// Record spans for set-up and probes of a traced run.
    pub fn trace_all(&mut self) {
        self.tracer.enabled = self.traced;
    }
}

/// Set-up is repeated and its median reported, so that one slow start does
/// not read as a regression.
pub const WARM_SETUP_REPS: usize = 5;
pub const REGISTER_SETUP_REPS: usize = 50;

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: &'static str,
    pub latency_ms: f64,
    pub traced: bool,
    pub ok: bool,
}

/// Sums of what the program reports about its own queries.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Seconds per `Breakdown` slice, in [`BREAKDOWN_SLICES`] order.
    pub breakdown_s: [f64; 8],
    pub reports: u64,
    pub rows_scanned: u64,
    pub rows_returned: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub raw_bytes_read: u64,
    pub not_fully_cached: u64,
}

pub const BREAKDOWN_SLICES: [&str; 8] = [
    "io",
    "tokenizing",
    "parsing",
    "convert",
    "nodb",
    "engine",
    "planning",
    "processing",
];

impl Counters {
    pub fn add(&mut self, r: &QueryReport) {
        let b = &r.breakdown;
        for (sum, slice) in self.breakdown_s.iter_mut().zip([
            b.io,
            b.tokenizing,
            b.parsing,
            b.convert,
            b.nodb,
            b.engine,
            b.planning,
            b.processing,
        ]) {
            *sum += slice.as_secs_f64();
        }
        self.reports += 1;
        self.rows_scanned += r.rows_scanned;
        self.rows_returned += r.rows_returned;
        self.cache_hits += r.cache_hits;
        self.cache_misses += r.cache_misses;
        self.raw_bytes_read += r.io.bytes_read;
        self.not_fully_cached += u64::from(!r.fully_cached);
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Denominator of `queries_per_s`: the time callers spent waiting for
    /// the program during the timed phase. With one client that is the sum
    /// of the latencies (the harness's answer checking is not the
    /// program's time); with several it is the wall time of the phase.
    pub busy_s: f64,
    /// Every repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Harness work outside the program: generating files, reference
    /// answers.
    pub harness_s: f64,
    pub state_bytes: u64,
    pub raw_bytes: u64,
    /// Failed checks that are not a wrong answer to one operation.
    pub violations: Vec<String>,
    pub counters: Counters,
    pub map_bytes: u64,
    pub map_evictions: u64,
    pub cache_evictions: u64,
    /// The SQL texts the workload sends (for `sqlparse.parse_us`).
    pub sql_texts: Vec<String>,
    /// Printed before the result line.
    pub notes: Vec<String>,
}

/// One finished in-process operation of a workload.
pub struct Op<'a> {
    pub workload: &'static str,
    pub class: &'static str,
    /// The operation's root span.
    pub root: SpanId,
    pub latency_ms: f64,
    pub traced: bool,
    /// The program's report on the query, when it answered at all.
    pub report: Option<&'a QueryReport>,
    /// Whether it answered, and correctly.
    pub ok: bool,
}

impl Outcome {
    /// Book one operation: its sample, its time, the program's counters,
    /// and what its span should say.
    pub fn book(&mut self, tracer: &mut Tracer, op: Op) {
        if let Some(report) = op.report {
            self.counters.add(report);
            report_attrs(tracer, op.root, report);
        }
        op_attrs(
            tracer,
            op.root,
            op.workload,
            op.class,
            self.samples.len(),
            op.ok,
        );
        self.busy_s += op.latency_ms / 1e3;
        self.samples.push(Sample {
            class: op.class,
            latency_ms: op.latency_ms,
            traced: op.traced,
            ok: op.ok,
        });
    }

    /// Record what `db` holds for table `t`. `state_bytes` keeps the most
    /// seen so far: under a budget the structures are evicted and rebuilt,
    /// what is resident when the phase ends depends on how the scan
    /// threads interleaved, and the peak is the space the speed was bought
    /// with. Without evictions the peak is the state at the end.
    pub fn record_state(&mut self, db: &NoDb, raw_bytes: u64) {
        if let Some(s) = db.snapshot("t") {
            let state = (s.map_bytes + s.row_index_bytes + s.cache_bytes) as u64;
            self.state_bytes = self.state_bytes.max(state);
            self.map_bytes = self.map_bytes.max(s.map_bytes as u64);
            self.map_evictions = s.map_evictions;
            self.cache_evictions = s.cache_evictions;
        }
        self.raw_bytes = raw_bytes;
    }
}

/// The loaded-DBMS contestant as the source of reference answers: an
/// executor that reads its own binary storage, not the raw file.
pub struct Oracle {
    db: ConventionalDb,
    pub load_s: f64,
    /// Latency of every reference query, by SQL text.
    pub latency_ms: Vec<(String, f64)>,
}

impl Oracle {
    pub fn load(data: &Dataset, dir: &Path) -> Result<Oracle, String> {
        let store = dir.join(format!("loaded-{}", data.name));
        std::fs::create_dir_all(&store).map_err(|e| format!("create {}: {e}", store.display()))?;
        // The column store: its load costs most and its queries least, and
        // one run asks it for dozens of reference answers.
        let mut db = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        let t = Instant::now();
        db.load_csv("t", &data.path, data.schema(), false, &[])
            .map_err(|e| format!("load {} into the reference DBMS: {e}", data.name))?;
        Ok(Oracle {
            db,
            load_s: t.elapsed().as_secs_f64(),
            latency_ms: Vec::new(),
        })
    }

    pub fn run(&mut self, sql: &str) -> Result<QueryResult, String> {
        let t = Instant::now();
        let result = self
            .db
            .query(sql)
            .map_err(|e| format!("reference DBMS failed on {sql:?}: {e}"))?;
        self.latency_ms
            .push((sql.to_string(), t.elapsed().as_secs_f64() * 1e3));
        Ok(result)
    }

    pub fn expect(&mut self, q: &Query) -> Result<Expect, String> {
        Ok(match &q.check {
            Check::Unordered | Check::Ordered => Expect::Rows {
                digest: Rendered::of_result(&self.run(&q.sql)?).digest(),
                ordered: q.check == Check::Ordered,
            },
            Check::BareLimit { unlimited, limit } => {
                let all = Rendered::of_result(&self.run(unlimited)?);
                Expect::AnyOf {
                    count: (all.row_hashes.len() as u64).min(*limit),
                    members: all.row_hashes.into_iter().collect(),
                }
            }
        })
    }

    pub fn expect_all(&mut self, queries: &[Query]) -> Result<Vec<Expect>, String> {
        queries.iter().map(|q| self.expect(q)).collect()
    }
}

/// A fresh instance with the defaults every workload but one runs under.
pub fn default_instance() -> NoDb {
    NoDb::new(NoDbConfig::builder().build())
}

/// `register_csv_with_schema` of `path` as table `t`, inside a span.
pub fn register(
    db: &mut NoDb,
    data: &Dataset,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let span = tracer.begin("NoDb::register_csv_with_schema");
    let r = db.register_csv_with_schema("t", path, data.schema(), false);
    tracer.end(span);
    r.map_err(|e| format!("register {}: {e}", path.display()))
}

/// One in-process query, timed as its caller sees it, under a root span
/// named `root` (`"op"` for an operation of a workload). The root span is
/// returned still carrying no attributes; the caller adds the class, the
/// sequence number and the verdict.
pub fn timed_query(
    db: &NoDb,
    tracer: &mut Tracer,
    root: &'static str,
    sql: &str,
) -> (Result<(QueryResult, QueryReport), String>, f64, SpanId) {
    let t = Instant::now();
    let root = tracer.begin(root);
    let call = tracer.begin("NoDb::query_reported");
    let r = db.query_reported(sql, &QueryCtx::unbounded());
    tracer.end(call);
    tracer.end(root);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    (r.map_err(|e| e.to_string()), latency_ms, root)
}

/// Attach the program's own counters for one query to its span.
fn report_attrs(tracer: &mut Tracer, span: SpanId, r: &QueryReport) {
    if !tracer.enabled {
        return;
    }
    for (key, n) in [
        ("rows_scanned", r.rows_scanned),
        ("rows_returned", r.rows_returned),
        ("cache_hits", r.cache_hits),
        ("cache_misses", r.cache_misses),
        ("raw_bytes_read", r.io.bytes_read),
        ("source_changed", r.source_changed),
    ] {
        tracer.attr(span, key, Value::Num(n as f64));
    }
    tracer.attr(span, "fully_cached", Value::Bool(r.fully_cached));
    tracer.attr(span, "prepared_hit", Value::Bool(r.prepared_hit));
    tracer.attr(
        span,
        "engine_total_us",
        Value::Num(r.total.as_secs_f64() * 1e6),
    );
}

/// Name the operation a root span stands for.
pub fn op_attrs(
    tracer: &mut Tracer,
    span: SpanId,
    workload: &'static str,
    class: &'static str,
    seq: usize,
    ok: bool,
) {
    if !tracer.enabled {
        return;
    }
    tracer.attr(span, "workload", Value::str(workload));
    tracer.attr(span, "class", Value::str(class));
    tracer.attr(span, "seq", Value::Num(seq as f64));
    tracer.attr(span, "ok", Value::Bool(ok));
}

/// Build an instance over `path` and run `warm_sql` until every statement
/// reports `fully_cached`: the steady state the warm workloads start from.
pub fn warm_instance(
    data: &Dataset,
    path: &Path,
    warm_sql: &[&str],
    tracer: &mut Tracer,
) -> Result<NoDb, String> {
    let mut db = default_instance();
    register(&mut db, data, path, tracer)?;
    for _pass in 0..6 {
        let mut all_cached = true;
        for sql in warm_sql {
            let span = tracer.begin("NoDb::query_reported");
            let r = db.query_reported(sql, &QueryCtx::unbounded());
            tracer.end(span);
            let (_, report) = r.map_err(|e| format!("warm-up {sql:?}: {e}"))?;
            all_cached &= report.fully_cached;
        }
        if all_cached {
            return Ok(db);
        }
    }
    Err("warm-up: a query class is still not fully cached after six passes".to_string())
}

/// Repeat `build` `reps` times, timing each; the last instance built is the
/// one the timed phase uses.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("reps >= 1"), times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop() {
        let s = Scratch::new("unit").unwrap();
        let path = s.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        assert!(path.starts_with(package_dir()));
        drop(s);
        assert!(!path.exists());
    }

    #[test]
    fn repeat_setup_times_every_repetition_and_keeps_the_last() {
        let mut n = 0;
        let (last, times) = repeat_setup(3, || {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!((last, times.len()), (3, 3));
    }
}
