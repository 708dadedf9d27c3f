//! Cold-scan scaling benchmark for the parallel partitioned raw scan.
//!
//! Measures the same cold query — no positional map, no cache, no
//! statistics, selective tokenizing on — over a generated 1M-row file at
//! `scan_threads` ∈ {1, 2, 4, 8}. This is the ISSUE's acceptance
//! measurement: on multi-core CI hardware 4 threads must be ≥ 2× faster
//! than 1 (on a single-core box the curve is flat — the partitioned path
//! still runs, it just has nowhere to scale).
//!
//! Besides the criterion output, every run rewrites
//! `BENCH_parallel_scan.json` at the workspace root via
//! [`nodb_bench::report::BenchRecord`], so the scaling trajectory is
//! tracked across PRs. Row count is overridable through
//! `NODB_BENCH_ROWS` for quick local runs.

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

/// Cold configuration: pure scan, nothing adaptive, no per-row timing.
fn cold_config(scan_threads: usize) -> NoDbConfig {
    NoDbConfig {
        enable_positional_map: false,
        enable_cache: false,
        enable_stats: false,
        selective_tokenizing: true,
        detailed_timing: false,
        detect_updates: false,
        scan_threads,
        ..NoDbConfig::default()
    }
}

fn fresh_db(path: &PathBuf, schema: &Schema, threads: usize) -> NoDb {
    let mut db = NoDb::new(cold_config(threads));
    db.register_csv_with_schema("t", path, schema.clone(), false)
        .unwrap();
    db
}

fn bench_parallel_scan(c: &mut Criterion) {
    let rows = rows();
    let dir = scratch_dir("bench_parallel_scan").expect("scratch dir");
    let gen = GeneratorConfig::uniform_ints(COLS, rows, 0x9A54);
    let mut path = dir.clone();
    path.push("data.csv");
    gen.generate_file(&path).expect("generate dataset");
    let schema = gen.schema();
    let sql = "SELECT c1, c5 FROM t WHERE c3 > 500000000";

    // Reference row count: every thread count must return the same answer.
    let expect = fresh_db(&path, &schema, 1).query(sql).unwrap().len();

    let mut group = c.benchmark_group(format!("parallel_scan_{rows}_rows"));
    group.sample_size(4);
    let samples: RefCell<Vec<BenchRecord>> = RefCell::new(Vec::new());
    for threads in [1usize, 2, 4, 8] {
        let durations = RefCell::new(Vec::new());
        group.bench_function(format!("cold_threads_{threads}"), |b| {
            b.iter_batched(
                || fresh_db(&path, &schema, threads),
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
            "cold_scan",
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
    out.push("BENCH_parallel_scan.json");
    update_bench_json(&out, &records).expect("write BENCH_parallel_scan.json");
    let base = records
        .iter()
        .find(|r| r.scan_threads == 1)
        .map(|r| r.mean_ms);
    for r in &records {
        let speedup = base.map(|b| b / r.mean_ms).unwrap_or(0.0);
        println!(
            "scan_threads={:<2} mean {:>9.2} ms  min {:>9.2} ms  speedup {speedup:>5.2}x",
            r.scan_threads, r.mean_ms, r.min_ms
        );
    }
    println!("wrote {}", out.display());

    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_parallel_scan);
criterion_main!(benches);
