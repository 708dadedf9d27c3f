//! Multi-client throughput benchmark for the concurrent table registry.
//!
//! One shared `NoDb` instance, one pre-warmed table, and `clients` ∈
//! {1, 2, 4, 8} threads each issuing the same read-mostly query over and
//! over. Before PR 2 the facade took `&mut self`, so this workload could
//! not even be expressed; now warm queries stream under the table's read
//! lock and the curve shows how far concurrent clients scale before the
//! lock and the memory bus push back. A second, cold-ish variant alternates
//! attribute pairs so some queries re-scan the file under the read lock
//! while others are served from cache — the mixed mode the registry's
//! staged merge was built for.
//!
//! Every run rewrites `BENCH_concurrent_queries.json` at the workspace root
//! via [`nodb_bench::report::BenchRecord`] with a `clients` column, so the
//! multi-client trajectory is tracked across PRs. Row count is overridable
//! through `NODB_BENCH_ROWS` for quick local runs.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a bench harness aborts on a failed setup step rather than report it"
)]

use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nodb_bench::report::{update_bench_json, BenchRecord};
use nodb_bench::workload::scratch_dir;
use nodb_core::{NoDb, NoDbConfig};
use nodb_rawcsv::{GeneratorConfig, Schema};

const COLS: usize = 8;
/// Queries issued per client per iteration.
const QUERIES_PER_CLIENT: usize = 8;

fn rows() -> u64 {
    std::env::var("NODB_BENCH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000)
}

fn shared_db(path: &PathBuf, schema: &Schema) -> Arc<NoDb> {
    let cfg = NoDbConfig {
        detailed_timing: false,
        detect_updates: false,
        ..NoDbConfig::default()
    };
    let mut db = NoDb::new(cfg);
    db.register_csv_with_schema("t", path, schema.clone(), false)
        .unwrap();
    Arc::new(db)
}

/// Issue `QUERIES_PER_CLIENT` queries from each of `clients` threads
/// against one shared instance; returns total rows returned (sanity) and
/// every individual query latency (the tail-percentile columns).
fn hammer(db: &Arc<NoDb>, clients: usize, sql: &str) -> (usize, Vec<Duration>) {
    std::thread::scope(|s| {
        (0..clients)
            .map(|_| {
                let db = Arc::clone(db);
                s.spawn(move || {
                    let mut total = 0usize;
                    let mut lat = Vec::with_capacity(QUERIES_PER_CLIENT);
                    for _ in 0..QUERIES_PER_CLIENT {
                        let t = Instant::now();
                        total += db.query(sql).unwrap().len();
                        lat.push(t.elapsed());
                    }
                    (total, lat)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, Vec::new()), |(total, mut all), (t, lat)| {
                all.extend(lat);
                (total + t, all)
            })
    })
}

fn bench_concurrent_queries(c: &mut Criterion) {
    let rows = rows();
    let dir = scratch_dir("bench_concurrent_queries").expect("scratch dir");
    let gen = GeneratorConfig::uniform_ints(COLS, rows, 0xC11E);
    let mut path = dir.clone();
    path.push("data.csv");
    gen.generate_file(&path).expect("generate dataset");
    let schema = gen.schema();
    let warm_sql = "SELECT c1, c5 FROM t WHERE c3 > 500000000";

    // Reference answer (and warm-up correctness pin).
    let expect = {
        let db = shared_db(&path, &schema);
        db.query(warm_sql).unwrap().len()
    };

    let mut group = c.benchmark_group(format!("concurrent_queries_{rows}_rows"));
    group.sample_size(4);
    let samples: RefCell<Vec<BenchRecord>> = RefCell::new(Vec::new());
    for clients in [1usize, 2, 4, 8] {
        // Warm shared cache: every query streams under the read lock.
        let durations = RefCell::new(Vec::new());
        let latencies = RefCell::new(Vec::new());
        group.bench_function(format!("warm_clients_{clients}"), |b| {
            b.iter_batched(
                || {
                    let db = shared_db(&path, &schema);
                    assert_eq!(db.query(warm_sql).unwrap().len(), expect);
                    db
                },
                |db| {
                    let t = Instant::now();
                    let (total, lat) = hammer(&db, clients, warm_sql);
                    durations.borrow_mut().push(t.elapsed());
                    latencies.borrow_mut().extend(lat);
                    assert_eq!(total, expect * clients * QUERIES_PER_CLIENT);
                    black_box(total)
                },
                BatchSize::LargeInput,
            )
        });
        samples.borrow_mut().push(
            BenchRecord::from_samples_clients(
                "warm_shared_cache",
                NoDbConfig::default().effective_scan_threads(),
                clients,
                rows,
                &durations.borrow(),
            )
            .with_percentiles(&latencies.borrow()),
        );

        // Mixed: clients rotate attribute pairs, so scans that grow the
        // map/cache interleave with pure cache reads on the same table.
        let durations = RefCell::new(Vec::new());
        let latencies = RefCell::new(Vec::new());
        group.bench_function(format!("mixed_clients_{clients}"), |b| {
            b.iter_batched(
                || shared_db(&path, &schema),
                |db| {
                    let t = Instant::now();
                    let (total, lat) = std::thread::scope(|s| {
                        (0..clients)
                            .map(|k| {
                                let db = Arc::clone(&db);
                                s.spawn(move || {
                                    let mut total = 0usize;
                                    let mut lat = Vec::with_capacity(QUERIES_PER_CLIENT);
                                    for q in 0..QUERIES_PER_CLIENT {
                                        let a = (k + q) % (COLS - 1);
                                        let sql = format!(
                                            "SELECT c{a}, c{} FROM t WHERE c3 > 500000000",
                                            a + 1
                                        );
                                        let t = Instant::now();
                                        total += db.query(&sql).unwrap().len();
                                        lat.push(t.elapsed());
                                    }
                                    (total, lat)
                                })
                            })
                            .collect::<Vec<_>>()
                            .into_iter()
                            .map(|h| h.join().unwrap())
                            .fold((0usize, Vec::new()), |(total, mut all), (t, lat)| {
                                all.extend(lat);
                                (total + t, all)
                            })
                    });
                    durations.borrow_mut().push(t.elapsed());
                    latencies.borrow_mut().extend(lat);
                    assert_eq!(total, expect * clients * QUERIES_PER_CLIENT);
                    black_box(total)
                },
                BatchSize::LargeInput,
            )
        });
        samples.borrow_mut().push(
            BenchRecord::from_samples_clients(
                "mixed_shared_scans",
                NoDbConfig::default().effective_scan_threads(),
                clients,
                rows,
                &durations.borrow(),
            )
            .with_percentiles(&latencies.borrow()),
        );
    }
    group.finish();

    let records = samples.into_inner();
    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop(); // crates/
    out.pop(); // workspace root
    out.push("BENCH_concurrent_queries.json");
    update_bench_json(&out, &records).expect("write BENCH_concurrent_queries.json");
    for name in ["warm_shared_cache", "mixed_shared_scans"] {
        let base = records
            .iter()
            .find(|r| r.name == name && r.clients == 1)
            .map(|r| r.mean_ms);
        for r in records.iter().filter(|r| r.name == name) {
            // Throughput scaling: 1-client wall time × clients / N-client
            // wall time (1.0 = no contention penalty at all).
            let scale = base
                .map(|b| b * r.clients as f64 / r.mean_ms)
                .unwrap_or(0.0);
            println!(
                "{name:<20} clients={:<2} mean {:>9.2} ms  min {:>9.2} ms  p50/p95/p99 {:>7.2}/{:>7.2}/{:>7.2} ms  throughput x{scale:>5.2}",
                r.clients, r.mean_ms, r.min_ms, r.p50_ms, r.p95_ms, r.p99_ms
            );
        }
    }
    println!("wrote {}", out.display());

    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_concurrent_queries);
criterion_main!(benches);
