//! Concurrency property tests for the shared table registry: N threads × M
//! queries against one `NoDb` instance must produce, query for query, the
//! results a sequential run produces, and must leave the table's adaptive
//! structures — positional map, row index, cache contents, statistics —
//! exactly where a *sequential replay* of the same query set leaves them.
//!
//! Why this is a meaningful invariant: every query's side-effect merge is
//! frontier-based (row-index replay, chunk subsumption, cache admission
//! from current coverage, statistics observation frontiers), so any
//! interleaving of full-scan merges converges to the state of running the
//! distinct queries once each. The tests run the same workload through both
//! paths and diff the state field by field.
//!
//! `NODB_TEST_SCAN_THREADS` pins `scan_threads` (CI runs 1 and 4 on top of
//! the default auto-detect); unset, both 1 and 4 are exercised.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::prelude::*;

mod common;
use common::assert_same_state;

fn scratch(tag: &str, n: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_conc_{tag}_{n}_{}", std::process::id()));
    p
}

/// Thread counts to drive `NoDbConfig::scan_threads` with: the pinned value
/// from `NODB_TEST_SCAN_THREADS`, or {1, 4}.
fn scan_thread_counts() -> Vec<usize> {
    match std::env::var("NODB_TEST_SCAN_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 4],
    }
}

/// Repetition multiplier for the racy tests: `NODB_TEST_STRESS=k` runs
/// `4k`× the default rounds (CI's claim-race stress job pins 8 scan threads
/// and sets it to 1; unset = 1×).
fn stress_rounds() -> u64 {
    std::env::var("NODB_TEST_STRESS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|v| v.max(1) * 4)
        .unwrap_or(1)
}

fn mk_db(path: &std::path::Path, schema: Schema, scan_threads: usize) -> NoDb {
    let cfg = NoDbConfig {
        scan_threads,
        ..NoDbConfig::default()
    };
    let mut db = NoDb::new(cfg);
    db.register_csv_with_schema("t", path, schema, false)
        .unwrap();
    db
}

/// The acceptance invariant: two threads issuing queries against the same
/// registered table concurrently return results byte-identical to running
/// them sequentially.
#[test]
fn two_concurrent_queries_match_sequential() {
    let cols = 5;
    let gen = GeneratorConfig::uniform_ints(cols, 800, 0xC0C0);
    let path = scratch("pair", 0);
    gen.generate_file(&path).unwrap();
    let q1 = "SELECT c0, c2 FROM t WHERE c1 < 600000000";
    let q2 = "SELECT c3 FROM t WHERE c4 >= 250000000";

    // A first complete scan learns the table's extent. Both instances take
    // one before the race: a file's first scan converts projection-only
    // columns for the surviving rows alone and caches none of them, so
    // without it the cached state would depend on which query finished
    // first.
    let first = "SELECT COUNT(*) FROM t";
    for threads in scan_thread_counts() {
        // Sequential reference.
        let seq = mk_db(&path, gen.schema(), threads);
        seq.query(first).unwrap();
        let (e1, e2) = (seq.query(q1).unwrap(), seq.query(q2).unwrap());

        // Two threads, same shared instance, both cold.
        let db = Arc::new(mk_db(&path, gen.schema(), threads));
        db.query(first).unwrap();
        let (r1, r2) = std::thread::scope(|s| {
            let d1 = Arc::clone(&db);
            let d2 = Arc::clone(&db);
            let h1 = s.spawn(move || d1.query(q1).unwrap());
            let h2 = s.spawn(move || d2.query(q2).unwrap());
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(r1, e1, "threads={threads}: q1 concurrent vs sequential");
        assert_eq!(r2, e2, "threads={threads}: q2 concurrent vs sequential");
        assert_same_state(&format!("threads={threads}"), &db, &seq, cols);
    }
    std::fs::remove_file(path).unwrap();
}

/// N threads × M passes over the same query set against one shared table:
/// every result equals the sequential answer, and the final positional map,
/// cache and statistics equal a sequential replay of the workload.
#[test]
fn thread_storm_equals_sequential_replay() {
    let cols = 6;
    let rows = 600;
    let gen = GeneratorConfig::uniform_ints(cols, rows, 0x57011);
    let path = scratch("storm", 0);
    gen.generate_file(&path).unwrap();
    let queries: Vec<String> = vec![
        "SELECT c1 FROM t WHERE c2 < 500000000".to_string(),
        "SELECT c3, c1 FROM t".to_string(),
        "SELECT COUNT(*) FROM t WHERE c2 >= 500000000".to_string(),
        "SELECT c5 FROM t WHERE c0 < 900000000".to_string(),
    ];

    for threads in scan_thread_counts() {
        // Sequential replay: the same workload, one query at a time.
        let seq = mk_db(&path, gen.schema(), threads);
        let mut expect = Vec::new();
        for _pass in 0..2 {
            for q in &queries {
                expect.push(seq.query(q).unwrap());
            }
        }

        let db = Arc::new(mk_db(&path, gen.schema(), threads));
        let n_clients = 4;
        let results: Vec<Vec<QueryResult>> = std::thread::scope(|s| {
            (0..n_clients)
                .map(|_| {
                    let db = Arc::clone(&db);
                    let queries = queries.clone();
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for _pass in 0..2 {
                            for q in &queries {
                                out.push(db.query(q).unwrap());
                            }
                        }
                        out
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });

        for (c, client) in results.iter().enumerate() {
            assert_eq!(
                client.len(),
                expect.len(),
                "threads={threads} client {c}: result count"
            );
            for (qi, r) in client.iter().enumerate() {
                assert_eq!(
                    r, &expect[qi],
                    "threads={threads} client {c} query {qi}: concurrent result"
                );
            }
        }
        assert_same_state(&format!("threads={threads} storm"), &db, &seq, cols);
        // Row count learned exactly once, identically.
        assert_eq!(db.snapshot("t").unwrap().row_count, Some(rows));
        assert_eq!(seq.snapshot("t").unwrap().row_count, Some(rows));
    }
    std::fs::remove_file(path).unwrap();
}

/// Concurrent queries with *disjoint* attribute sets racing their cold
/// scans: both stage full-table side effects; frontier-based merging must
/// land the union of their structures, same as any sequential order.
#[test]
fn racing_cold_scans_merge_to_union_state() {
    let cols = 6;
    let gen = GeneratorConfig::uniform_ints(cols, 700, 0xD15);
    let path = scratch("union", 0);
    gen.generate_file(&path).unwrap();
    let queries = ["SELECT c0 FROM t", "SELECT c2 FROM t", "SELECT c4 FROM t"];

    for threads in scan_thread_counts() {
        let seq = mk_db(&path, gen.schema(), threads);
        for q in &queries {
            seq.query(q).unwrap();
        }

        let db = Arc::new(mk_db(&path, gen.schema(), threads));
        std::thread::scope(|s| {
            for q in &queries {
                let db = Arc::clone(&db);
                s.spawn(move || db.query(q).unwrap());
            }
        });
        assert_same_state(&format!("threads={threads} union"), &db, &seq, cols);
    }
    std::fs::remove_file(path).unwrap();
}

/// Claim-race stress: concurrent clients rescanning a table whose cache
/// holds only a partial prefix (tight budget, positional map off, so every
/// rescan resolves the whole file from raw bytes). Each scan's workers
/// claim its slices from one shared cursor, so N clients × 8 workers
/// exercise every claim interleaving; results and final state must still
/// equal the sequential replay. `NODB_TEST_STRESS` multiplies the rounds.
#[test]
fn racing_cold_rescans_with_partial_cache_and_stealing() {
    let cols = 4;
    let gen = GeneratorConfig::uniform_ints(cols, 900, 0x57EA1);
    let path = scratch("claim", 0);
    gen.generate_file(&path).unwrap();
    let sql = "SELECT c1 FROM t WHERE c2 < 700000000";
    let mk = |threads: usize| {
        let cfg = NoDbConfig {
            enable_positional_map: false,
            cache_budget_bytes: 2_500, // partial prefix only
            scan_threads: threads,
            ..NoDbConfig::default()
        };
        let mut db = NoDb::new(cfg);
        db.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        db
    };

    for round in 0..stress_rounds() {
        for threads in scan_thread_counts() {
            let seq = mk(threads.max(2));
            let expect = seq.query(sql).unwrap();
            seq.query(sql).unwrap(); // sequential replay of the rescan

            let db = Arc::new(mk(threads.max(2)));
            db.query(sql).unwrap(); // populate the partial cache
            let results: Vec<QueryResult> = std::thread::scope(|s| {
                (0..4)
                    .map(|_| {
                        let db = Arc::clone(&db);
                        s.spawn(move || db.query(sql).unwrap())
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            for (c, r) in results.iter().enumerate() {
                assert_eq!(
                    r, &expect,
                    "round {round} threads {threads} client {c}: rescan result"
                );
            }
            assert_same_state(
                &format!("round {round} threads {threads} claim-race"),
                &db,
                &seq,
                cols,
            );
        }
    }
    std::fs::remove_file(path).unwrap();
}

/// Telemetry under concurrency: per-query hit/miss tallies ride with each
/// scan, so a warm rerun's report shows its own hits even while other
/// threads hammer the same table, and the cache's lifetime totals equal the
/// sum of what the individual queries saw.
#[test]
fn telemetry_tallies_survive_concurrency() {
    let cols = 4;
    let rows = 300u64;
    let gen = GeneratorConfig::uniform_ints(cols, rows, 0x7E1E);
    let path = scratch("telemetry", 0);
    gen.generate_file(&path).unwrap();
    let sql = "SELECT c1, c2 FROM t";

    for threads in scan_thread_counts() {
        let db = Arc::new(mk_db(&path, gen.schema(), threads));
        db.query(sql).unwrap(); // cold: populates the cache
        let n_clients = 4u64;
        let per_query: Vec<(u64, u64)> = std::thread::scope(|s| {
            (0..n_clients)
                .map(|_| {
                    let db = Arc::clone(&db);
                    s.spawn(move || {
                        db.query(sql).unwrap();
                        let rep = db.admin().last_report().unwrap();
                        (rep.cache_hits, rep.cache_misses)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Every warm rerun is fully cached: 2 attrs × rows hits, no misses.
        // (last_report is last-writer-wins, but each tally here is read
        // after the thread's own query, and every query has the same shape,
        // so the values are deterministic.)
        for (hits, misses) in &per_query {
            assert_eq!(*hits, 2 * rows, "threads={threads}: per-query hits");
            assert_eq!(*misses, 0, "threads={threads}: per-query misses");
        }
        // Lifetime totals: no tally dropped, none double-counted.
        let h = db.table_handle("t").unwrap();
        let total_hits = h.read().cache().metrics().hits;
        assert_eq!(
            total_hits,
            n_clients * 2 * rows,
            "threads={threads}: lifetime hit total"
        );
    }
    std::fs::remove_file(path).unwrap();
}

/// Eviction racing fully-cached scans: while 4 clients run filter and
/// aggregate queries on a warmed table, an operator thread keeps flipping
/// the cache budget between one that evicts the queried columns and an
/// ample one. A query planned as fully cached reads its columns under the
/// guard it planned with, so an eviction can only land before its plan or
/// after its read: every answer equals the sequential one, none errors, and
/// the cache never holds more than its budget.
#[test]
fn budget_flips_racing_fully_cached_scans() {
    let cols = 4;
    let gen = GeneratorConfig::uniform_ints(cols, 2_000, 0xE71C);
    let path = scratch("evict", 0);
    gen.generate_file(&path).unwrap();
    let queries = [
        "SELECT c1 FROM t WHERE c2 < 300000000",
        "SELECT COUNT(*), SUM(c1) FROM t WHERE c2 >= 500000000",
        "SELECT MIN(c3), MAX(c3), AVG(c0) FROM t",
        "SELECT c1, c3 FROM t WHERE c3 < 200000000 AND c0 >= 100000000",
    ];
    let ample = NoDbConfig::default().cache_budget_bytes;
    let tight = 6_000; // below one queried column: 2 000 rows x 8 B
    let within_budget = |db: &NoDb| {
        let h = db.table_handle("t").unwrap();
        let t = h.read();
        let (used, budget) = (t.cache().bytes_used(), t.cache().budget());
        assert!(
            used <= budget,
            "cache holds {used} B over its {budget} B budget"
        );
    };

    for threads in scan_thread_counts() {
        let seq = mk_db(&path, gen.schema(), threads);
        let expect: Vec<QueryResult> = queries.iter().map(|q| seq.query(q).unwrap()).collect();

        let db = mk_db(&path, gen.schema(), threads);
        for q in &queries {
            db.query(q).unwrap(); // warm: every queried column cached
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let flipper = s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    for budget in [tight, ample] {
                        db.admin().set_cache_budget(budget);
                        within_budget(&db);
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                }
            });
            let clients: Vec<_> = (0..4)
                .map(|c| {
                    let (db, expect) = (&db, &expect);
                    s.spawn(move || {
                        for round in 0..8 * stress_rounds() {
                            for (qi, q) in queries.iter().enumerate() {
                                let r = db.query(q).unwrap_or_else(|e| {
                                    panic!("threads={threads} client {c} round {round}: {e}")
                                });
                                assert_eq!(
                                    r, expect[qi],
                                    "threads={threads} client {c} round {round} query {qi}"
                                );
                                within_budget(db);
                            }
                        }
                    })
                })
                .collect();
            for h in clients {
                h.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            flipper.join().unwrap();
        });

        // Quiesced at the ample budget (the flipper's last setting): one
        // more round answers like a fresh cold instance.
        assert_eq!(db.config().cache_budget_bytes, ample);
        let cold = mk_db(&path, gen.schema(), threads);
        for q in &queries {
            assert_eq!(db.query(q).unwrap(), cold.query(q).unwrap(), "{q}");
            within_budget(&db);
        }
    }
    std::fs::remove_file(path).unwrap();
}

/// A fully-cached query executes under the read guard it planned with, so
/// however it ends it must release that guard: an engine error (`SUM` over
/// a string column, which the planner lets through and the fold rejects),
/// a deadline tripped mid-stream, and a `LIMIT` that stops the engine
/// pulling (`LIMIT 0`, `LIMIT 5`). After each, a budget change from another
/// thread — it takes every table's write lock — completes, and the table
/// answers like a cold instance. The stream tallies only the windows it
/// streamed: one for the failed `SUM` and for `LIMIT 5`, none for
/// `LIMIT 0`, some but not all for the tripped deadline.
#[test]
fn cached_queries_release_the_read_guard_however_they_end() {
    use nodb_repro::core::{EngineError, QueryCtx};
    use std::time::Duration;

    const WINDOW: u64 = nodb_repro::engine::batch::BATCH_SIZE as u64;
    let rows = 60_000u64;
    let path = scratch("release", 0);
    let mut csv = String::new();
    for i in 0..rows {
        csv.push_str(&format!("{i},{},s{}\n", (i * 7_919) % 1_000, i % 97));
    }
    std::fs::write(&path, csv).unwrap();
    let schema = Schema::new(vec![
        ColumnDef::new("c0", ColumnType::Int),
        ColumnDef::new("c1", ColumnType::Int),
        ColumnDef::new("c2", ColumnType::Str),
    ]);
    let checks = [
        "SELECT COUNT(*), SUM(c1), MIN(c2), MAX(c0) FROM t WHERE c1 < 500",
        "SELECT c0, c2 FROM t WHERE c1 < 3",
        "SELECT c1, COUNT(*) FROM t GROUP BY c1 ORDER BY c1 DESC LIMIT 4",
    ];

    for threads in scan_thread_counts() {
        let db = Arc::new(mk_db(&path, schema.clone(), threads));
        for q in checks.iter().chain(["SELECT c2 FROM t"].iter()) {
            db.query(q).unwrap(); // warm: every column cached
        }
        let hits = || {
            let h = db.table_handle("t").unwrap();
            let t = h.read();
            t.cache().metrics().hits
        };
        // Another thread changes the budget (to the one in force) and must
        // get every table's write lock; a leaked read guard would hang it,
        // so the wait is bounded and a hung thread is left detached.
        let budget_change_completes = |tag: &str| {
            let (tx, rx) = std::sync::mpsc::channel();
            let (db, budget) = (Arc::clone(&db), db.config().cache_budget_bytes);
            let changer = std::thread::spawn(move || {
                db.admin().set_cache_budget(budget);
                tx.send(()).unwrap();
            });
            let done = rx.recv_timeout(Duration::from_secs(60));
            assert!(
                done.is_ok(),
                "threads={threads} {tag}: the read guard leaked"
            );
            changer.join().unwrap();
        };
        let answers_like_cold = |tag: &str| {
            let cold = mk_db(&path, schema.clone(), threads);
            for q in &checks {
                let r = db.query_reported(q, &QueryCtx::unbounded()).unwrap();
                assert!(r.1.fully_cached, "threads={threads} {tag}: {q}");
                assert_eq!(r.0, cold.query(q).unwrap(), "threads={threads} {tag}: {q}");
            }
        };

        // An engine error at the first window.
        let before = hits();
        let err = db.query("SELECT SUM(c2) FROM t").unwrap_err();
        assert!(err.to_string().contains("SUM over non-numeric"), "{err}");
        assert_eq!(
            hits() - before,
            WINDOW,
            "threads={threads}: one window streamed"
        );
        budget_change_completes("engine error");
        answers_like_cold("engine error");

        // LIMIT ends the stream because the engine stops pulling.
        for (n, streamed) in [(0u64, 0u64), (5, WINDOW)] {
            let sql = format!("SELECT c0, c2 FROM t LIMIT {n}");
            let before = hits();
            let (r, rep) = db.query_reported(&sql, &QueryCtx::unbounded()).unwrap();
            let tag = format!("LIMIT {n}");
            assert_eq!(r.len() as u64, n, "threads={threads} {tag}");
            assert!(rep.fully_cached, "threads={threads} {tag}");
            assert_eq!(rep.rows_scanned, streamed, "threads={threads} {tag}: rows");
            assert_eq!(
                rep.cache_hits,
                2 * streamed,
                "threads={threads} {tag}: hits"
            );
            assert_eq!(
                hits() - before,
                2 * streamed,
                "threads={threads} {tag}: metrics"
            );
            budget_change_completes(&tag);
            answers_like_cold(&tag);
        }

        // A deadline tripped mid-stream: bisect the timeout until one trips
        // after the first window and before the last.
        let sql = "SELECT COUNT(*), SUM(c0), MAX(c1) FROM t WHERE c1 >= 0";
        let (mut lo, mut hi) = (Duration::ZERO, Duration::from_millis(500));
        let mut tripped = false;
        for _ in 0..40 {
            let timeout = (lo + hi) / 2;
            let before = hits();
            let r = db.query_with_ctx(sql, &QueryCtx::with_timeout(timeout));
            let streamed = (hits() - before) / 2;
            match r {
                Ok(_) => hi = timeout,
                Err(EngineError::DeadlineExceeded) if streamed == 0 => lo = timeout,
                Err(EngineError::DeadlineExceeded) => {
                    assert!(streamed < rows, "threads={threads}: stopped early");
                    // Every fold range streams whole windows; the last one's
                    // last window ends at the row count.
                    let part = streamed % WINDOW;
                    assert!(
                        part == 0 || part == rows % WINDOW,
                        "threads={threads}: whole windows"
                    );
                    tripped = true;
                }
                Err(e) => panic!("threads={threads}: {e}"),
            }
            budget_change_completes(&format!("deadline {timeout:?}"));
            if tripped {
                break;
            }
        }
        assert!(tripped, "threads={threads}: no deadline tripped mid-stream");
        answers_like_cold("deadline");
    }
    std::fs::remove_file(path).unwrap();
}
