//! Cancellation-check overhead benchmark — ISSUE 6's acceptance measurement.
//!
//! Resilience must be close to free on the hot path: the cooperative
//! deadline/cancel checks (one atomic load + occasional `Instant::now` every
//! batch of rows, plus a stop-flag test per block refill) ride on every
//! scan whether or not a caller sets a deadline. This bench measures warm
//! (fully-cached) filter+aggregate queries in two modes at equal thread
//! counts:
//!
//! * `no_ctx` — `NoDb::query`, the pre-ISSUE entry point (unbounded context
//!   built internally).
//! * `ctx` — `NoDb::query_with_ctx` with a generous 60 s deadline, so every
//!   cooperative check actually polls the clock against a live deadline.
//! * `epoch` — `NoDb::query` with `detect_updates` *on* (ISSUE 10): every
//!   query re-validates the table's source epoch under the planning lock
//!   (one `open`/`stat`/two-page read) and the warm path carries the
//!   torn-row fence checks.
//!
//! All modes must be within run-to-run noise of each other (<5% — far
//! inside the CI gate's 25% budget). Records land in
//! `BENCH_resilience.json` with the `mode` ablation column and feed the CI
//! perf gate. `NODB_BENCH_ROWS` overrides the row count.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a bench harness aborts on a failed setup step rather than report it"
)]

use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use nodb_bench::report::{update_bench_json, BenchRecord};
use nodb_bench::workload::scratch_dir;
use nodb_core::{NoDb, NoDbConfig, QueryCtx};
use nodb_rawcsv::{GeneratorConfig, Schema};

const COLS: usize = 8;

fn rows() -> u64 {
    std::env::var("NODB_BENCH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

fn config(threads: usize) -> NoDbConfig {
    NoDbConfig {
        scan_threads: threads,
        detect_updates: false,
        ..NoDbConfig::default()
    }
}

/// A db whose cache fully covers every attribute the query touches: run the
/// query twice so the second-and-later executions are pure warm path.
fn warmed_db(path: &PathBuf, schema: &Schema, cfg: NoDbConfig, sql: &str) -> NoDb {
    let mut db = NoDb::new(cfg);
    db.register_csv_with_schema("t", path, schema.clone(), false)
        .unwrap();
    db.query(sql).unwrap();
    let r = db.query(sql).unwrap();
    assert!(
        db.admin().last_report().unwrap().fully_cached,
        "warm query must be served from the cache"
    );
    black_box(r.len());
    db
}

fn bench_resilience(c: &mut Criterion) {
    let rows = rows();
    let dir = scratch_dir("bench_resilience").expect("scratch dir");
    let gen = GeneratorConfig::uniform_ints(COLS, rows, 0x6E51);
    let mut path = dir.clone();
    path.push("data.csv");
    gen.generate_file(&path).expect("generate dataset");
    let schema = gen.schema();

    // A ~50% selective filter + aggregates over a warm cache.
    let queries: [(&str, String); 2] = [
        (
            "ctx_agg",
            "SELECT COUNT(*), SUM(c1), MIN(c5), MAX(c5), AVG(c1) FROM t \
             WHERE c5 < 500000000"
                .into(),
        ),
        (
            "ctx_filter",
            "SELECT c1, c5 FROM t WHERE c5 < 300000000".into(),
        ),
    ];

    let mut group = c.benchmark_group(format!("resilience_{rows}_rows"));
    group.sample_size(6);
    let samples: RefCell<Vec<BenchRecord>> = RefCell::new(Vec::new());
    for threads in [1usize, 4] {
        for (name, sql) in &queries {
            let db = warmed_db(&path, &schema, config(threads), sql);
            // A second instance with update detection on: the per-query
            // epoch re-validation and the fence checks ride every query.
            let db_epoch = warmed_db(
                &path,
                &schema,
                NoDbConfig {
                    detect_updates: true,
                    ..config(threads)
                },
                sql,
            );
            let expect = db.query(sql).unwrap();
            // A deadline far in the future: every cooperative check pays the
            // full "live deadline" cost, but the query never trips it.
            let deadline = QueryCtx::from_timeout_ms(60_000);
            for mode in ["no_ctx", "ctx", "epoch"] {
                let durations = RefCell::new(Vec::new());
                group.bench_function(format!("{name}_{mode}_threads_{threads}"), |b| {
                    b.iter(|| {
                        let t = Instant::now();
                        let r = match mode {
                            "no_ctx" => db.query(sql).unwrap(),
                            "epoch" => db_epoch.query(sql).unwrap(),
                            _ => db.query_with_ctx(sql, &deadline).unwrap(),
                        };
                        durations.borrow_mut().push(t.elapsed());
                        assert_eq!(r, expect, "{name} {mode} changed the answer");
                        black_box(r.len())
                    })
                });
                samples.borrow_mut().push(
                    BenchRecord::from_samples(*name, threads, rows, &durations.borrow())
                        .with_mode(mode),
                );
            }
        }
    }
    group.finish();

    let records = samples.into_inner();
    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop(); // crates/
    out.pop(); // workspace root
    out.push("BENCH_resilience.json");
    update_bench_json(&out, &records).expect("write BENCH_resilience.json");
    for threads in [1usize, 4] {
        for (name, _) in &queries {
            let at = |mode: &str| {
                records
                    .iter()
                    .find(|r| r.name == *name && r.scan_threads == threads && r.mode == mode)
                    .map(|r| r.mean_ms)
                    .unwrap_or(f64::NAN)
            };
            let (plain_ms, ctx_ms, epoch_ms) = (at("no_ctx"), at("ctx"), at("epoch"));
            println!(
                "threads={threads:<2} {name:<12} no_ctx {plain_ms:>9.3} ms  \
                 ctx {ctx_ms:>9.3} ms ({:+.1}%)  \
                 epoch {epoch_ms:>9.3} ms ({:+.1}%)",
                (ctx_ms / plain_ms - 1.0) * 100.0,
                (epoch_ms / plain_ms - 1.0) * 100.0
            );
        }
    }
    println!("wrote {}", out.display());

    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
