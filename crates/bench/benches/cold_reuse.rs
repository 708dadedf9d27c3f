//! Cold-scan and snapshot-restart benchmark.
//!
//! `cold_reuse_cold` is the fully cold baseline at each thread count: a
//! fresh registration per iteration under a cache-only configuration
//! (positional map off) whose tight cache budget admits roughly half the
//! rows of the two requested columns. The bench and the record keep the
//! `cold_reuse` name so the CI gate's saved baselines still line up.
//!
//! The records land in `BENCH_cold_reuse.json` (merged by configuration key,
//! so CI's reduced row count coexists with full-size local runs) and feed
//! the CI perf gate. `NODB_BENCH_ROWS` overrides the row count.
//!
//! The **snapshot restart mode** (ISSUE 9; full adaptive config:
//! map + cache + stats): `snapshot_warm` measures a query against a
//! long-lived warm table; `snapshot_restart` measures the first query after
//! a process restart that restored the sidecar at open; `snapshot_cold` is
//! the first query after a restart with no sidecar, paying full cold
//! re-discovery inside the query; `snapshot_restore_open` is the one-time
//! open+restore boot cost itself. Acceptance: restart-then-query lands
//! within 1.25× of warm-query, vs. the much slower full-cold baseline.

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

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nodb_bench::report::{update_bench_json, BenchRecord};
use nodb_bench::workload::scratch_dir;
use nodb_core::{NoDb, NoDbConfig};
use nodb_rawcsv::{GeneratorConfig, Schema};

const COLS: usize = 8;

fn rows() -> u64 {
    std::env::var("NODB_BENCH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

/// Cache-only cold configuration: no row index, every scan reads raw bytes.
fn config(rows: u64, threads: usize) -> NoDbConfig {
    NoDbConfig {
        enable_positional_map: false,
        enable_cache: true,
        enable_stats: false,
        selective_tokenizing: true,
        detailed_timing: false,
        detect_updates: false,
        scan_threads: threads,
        // ~60% of the two requested int columns (16 bytes buffered per row
        // in the cache's accounting).
        cache_budget_bytes: (rows as usize) * 16 * 6 / 10,
        ..NoDbConfig::default()
    }
}

/// Full adaptive configuration for the snapshot restart mode: positional
/// map + cache + stats all on, budgets sized so the queried columns fit
/// entirely (a restored table then answers fully warm).
fn snap_config(rows: u64, threads: usize, restore: bool) -> NoDbConfig {
    NoDbConfig {
        enable_positional_map: true,
        enable_cache: true,
        enable_stats: true,
        selective_tokenizing: true,
        detailed_timing: false,
        detect_updates: false,
        scan_threads: threads,
        snapshot_persistence: restore,
        cache_budget_bytes: (rows as usize) * 64,
        map_budget_bytes: (rows as usize) * 64,
        ..NoDbConfig::default()
    }
}

fn fresh_db(path: &PathBuf, schema: &Schema, cfg: NoDbConfig) -> NoDb {
    let mut db = NoDb::new(cfg);
    db.register_csv_with_schema("t", path, schema.clone(), false)
        .unwrap();
    db
}

/// A db that has answered `sql` once: whatever the budgets admit is warm.
fn warmed_db(path: &PathBuf, schema: &Schema, cfg: NoDbConfig, sql: &str) -> NoDb {
    let db = fresh_db(path, schema, cfg);
    db.query(sql).unwrap();
    db
}

fn bench_cold_reuse(c: &mut Criterion) {
    let rows = rows();
    let dir = scratch_dir("bench_cold_reuse").expect("scratch dir");
    let gen = GeneratorConfig::uniform_ints(COLS, rows, 0xC01D);
    let mut path = dir.clone();
    path.push("data.csv");
    gen.generate_file(&path).expect("generate dataset");
    let schema = gen.schema();
    let sql = "SELECT c1, c5 FROM t WHERE c5 < 300000000";

    let expect = fresh_db(&path, &schema, config(rows, 1))
        .query(sql)
        .unwrap()
        .len();

    let mut group = c.benchmark_group(format!("cold_reuse_{rows}_rows"));
    group.sample_size(4);
    let samples: RefCell<Vec<BenchRecord>> = RefCell::new(Vec::new());
    for threads in [2usize, 4, 8] {
        let durations = RefCell::new(Vec::new());
        group.bench_function(format!("cold_reuse_cold_threads_{threads}"), |b| {
            b.iter_batched(
                || fresh_db(&path, &schema, config(rows, threads)),
                |db| {
                    let t = Instant::now();
                    let r = db.query(sql).unwrap();
                    durations.borrow_mut().push(t.elapsed());
                    assert_eq!(r.len(), expect, "threads={threads} changed the answer");
                    black_box(r.len())
                },
                BatchSize::LargeInput,
            )
        });
        samples.borrow_mut().push(BenchRecord::from_samples(
            "cold_reuse_cold",
            threads,
            rows,
            &durations.borrow(),
        ));
    }
    // --- snapshot restart mode (ISSUE 9) -------------------------------
    // One sidecar, written once from a fully warmed table, serves every
    // restart iteration: restoring it is what makes a reopened process
    // answer warm instead of re-discovering everything cold.
    {
        let warm = warmed_db(&path, &schema, snap_config(rows, 4, false), sql);
        for (table, result) in warm.admin().snapshot_now() {
            result.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
        }
    }
    for threads in [2usize, 4, 8] {
        // Four measurements per thread count:
        //  * `snapshot_warm` — steady-state query in a long-lived process;
        //  * `snapshot_restart` — the first query after a process restart
        //    that restored the sidecar at open (setup = open + restore);
        //    the acceptance ratio compares this against `snapshot_warm`;
        //  * `snapshot_cold` — the first query after a restart with no
        //    restore: cold re-discovery happens *inside* the query;
        //  * `snapshot_restore_open` — the one-time boot cost a restart
        //    pays (open + register + restore), reported separately so the
        //    restore price is visible rather than hidden in setup.
        type Setup<'a> = Box<dyn Fn() -> NoDb + 'a>;
        let first_query: [(&str, Setup); 3] = [
            (
                "snapshot_warm",
                Box::new(|| warmed_db(&path, &schema, snap_config(rows, threads, false), sql)),
            ),
            (
                "snapshot_restart",
                Box::new(|| fresh_db(&path, &schema, snap_config(rows, threads, true))),
            ),
            (
                "snapshot_cold",
                Box::new(|| fresh_db(&path, &schema, snap_config(rows, threads, false))),
            ),
        ];
        for (name, setup) in first_query {
            let durations = RefCell::new(Vec::new());
            group.bench_function(format!("{name}_threads_{threads}"), |b| {
                b.iter_batched(
                    &setup,
                    |db| {
                        let t = Instant::now();
                        let r = db.query(sql).unwrap();
                        durations.borrow_mut().push(t.elapsed());
                        assert_eq!(
                            r.len(),
                            expect,
                            "{name} threads={threads} changed the answer"
                        );
                        black_box(r.len())
                    },
                    BatchSize::LargeInput,
                )
            });
            samples.borrow_mut().push(BenchRecord::from_samples(
                name,
                threads,
                rows,
                &durations.borrow(),
            ));
        }
        let durations = RefCell::new(Vec::new());
        group.bench_function(format!("snapshot_restore_open_threads_{threads}"), |b| {
            b.iter(|| {
                let t = Instant::now();
                let db = fresh_db(&path, &schema, snap_config(rows, threads, true));
                durations.borrow_mut().push(t.elapsed());
                black_box(db)
            })
        });
        samples.borrow_mut().push(BenchRecord::from_samples(
            "snapshot_restore_open",
            threads,
            rows,
            &durations.borrow(),
        ));
    }
    group.finish();

    let records = samples.into_inner();
    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop(); // crates/
    out.pop(); // workspace root
    out.push("BENCH_cold_reuse.json");
    update_bench_json(&out, &records).expect("write BENCH_cold_reuse.json");
    for threads in [2usize, 4, 8] {
        let at = |name: &str| {
            records
                .iter()
                .find(|r| r.name == name && r.scan_threads == threads)
                .map(|r| r.mean_ms)
                .unwrap_or(f64::NAN)
        };
        let (fully_cold, warm, restart, cold, open) = (
            at("cold_reuse_cold"),
            at("snapshot_warm"),
            at("snapshot_restart"),
            at("snapshot_cold"),
            at("snapshot_restore_open"),
        );
        println!(
            "threads={threads:<2} fully-cold {fully_cold:>8.2} ms  snapshot: warm {warm:>8.2} ms  \
             restart {restart:>8.2} ms  cold {cold:>8.2} ms  open+restore {open:>8.2} ms  \
             (restart/warm {:.2}x, cold/warm {:.2}x)",
            restart / warm,
            cold / warm
        );
    }
    println!("wrote {}", out.display());

    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_cold_reuse);
criterion_main!(benches);
