//! Facade-level resilience tests (ISSUE 6): deadlines, cooperative
//! cancellation, partial-state reuse after an aborted scan, and the
//! malformed-row quarantine surfaced through [`QueryReport`].
//!
//! The slow scans here are made *reliably* slow by the deterministic fault
//! injector (`io_fault_seed` + aggressive `io_fault_one_in`): every second
//! block refill injects a transient `EIO`, a short read or latency, and each
//! `EIO` costs one retry-backoff sleep. That turns a few-MB cold scan into
//! hundreds of milliseconds of wall clock without huge files — enough for a
//! mid-scan deadline or cancel to land deterministically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb_repro::core::{CancelToken, ParseErrorPolicy, QueryCtx};
use nodb_repro::engine::EngineError;
use nodb_repro::prelude::*;
use nodb_repro::rawcsv::RawCsvError;
use nodb_server::{NoDbClient, Server, ServerConfig};

mod common;

fn scratch(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_resil_{tag}_{}", std::process::id()));
    p
}

/// A config whose cold scan of a few-MB file reliably takes hundreds of
/// milliseconds: tiny blocks (many refills), faults on every other refill,
/// backoff on each transient error. A scan's 64 small slices let partial
/// partitions complete early, so an aborted scan still banks a warm prefix.
fn slow_chaos_cfg(timeout_ms: u64) -> NoDbConfig {
    NoDbConfig {
        scan_threads: 2,
        io_block_size: 4096,
        io_fault_seed: 0xD15C,
        io_fault_one_in: 1,
        io_retry_attempts: 2,
        io_retry_backoff_ms: 4,
        query_timeout_ms: timeout_ms,
        ..NoDbConfig::pm_c()
    }
}

fn gen_table(tag: &str, rows: u64) -> (std::path::PathBuf, GeneratorConfig) {
    let gen = GeneratorConfig::uniform_ints(5, rows, 0xE51);
    let path = scratch(tag);
    gen.generate_file(&path).unwrap();
    (path, gen)
}

/// Reference answer from a fresh, fault-free, unbounded instance.
fn reference_answer(path: &std::path::Path, gen: &GeneratorConfig, sql: &str) -> QueryResult {
    let mut db = NoDb::new(NoDbConfig::pm_c());
    db.register_csv_with_schema("t", path, gen.schema(), false)
        .unwrap();
    db.query(sql).unwrap()
}

/// Acceptance criterion: a query whose `query_timeout_ms` expires mid-scan
/// fails with `DeadlineExceeded` within 2× the timeout, the partial frontier
/// it banked leaves the table strictly warmer than a fresh one, and an
/// unbounded re-run on the *same* table succeeds with the right answer.
#[test]
fn deadline_trips_within_bound_and_banks_partial_state() {
    let (path, gen) = gen_table("deadline", 60_000);
    let sql = "SELECT COUNT(*), SUM(c1) FROM t WHERE c2 < 800000000";
    let timeout_ms = 60u64;

    let mut db = NoDb::new(slow_chaos_cfg(timeout_ms));
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();

    // A fresh table has banked nothing yet.
    let fresh = db.snapshot("t").unwrap();
    assert_eq!(fresh.map_bytes + fresh.cache_bytes, 0, "fresh frontier");

    let start = Instant::now();
    let err = db.query(sql).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, EngineError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(2 * timeout_ms),
        "deadline honored within 2x: took {elapsed:?} for a {timeout_ms}ms budget"
    );

    // The aborted scan still merged its completed prefix: strictly warmer
    // than the fresh table, per "queries as advisors" applied to failures.
    let after = db.snapshot("t").unwrap();
    assert!(
        after.map_bytes + after.cache_bytes > 0,
        "partial frontier banked (map={} cache={})",
        after.map_bytes,
        after.cache_bytes
    );

    // Same table, unbounded context: completes and answers correctly.
    let rerun = db.query_with_ctx(sql, &QueryCtx::unbounded()).unwrap();
    assert_eq!(rerun, reference_answer(&path, &gen, sql));
    std::fs::remove_file(path).ok();
}

/// A deadline that falls mid-scan at the smallest block size (4 KiB, so a
/// batch is at most a window of lines) ends the scan at 1, 4 and 8 workers
/// alike: each worker polls the query context once per batch, and every
/// refill polls the stop flag, so the query fails with `DeadlineExceeded`
/// within twice its budget, and an unbounded rerun answers correctly.
#[test]
fn deadline_ends_a_smallest_block_scan_at_any_worker_count() {
    // Enough faults that even 8 workers sharing the retry backoffs run
    // well past the budget.
    let (path, gen) = gen_table("deadline_batch", 150_000);
    let sql = "SELECT COUNT(*), SUM(c1) FROM t WHERE c2 < 800000000";
    let timeout_ms = 60u64;
    let expect = reference_answer(&path, &gen, sql);
    for threads in [1usize, 4, 8] {
        let cfg = NoDbConfig {
            scan_threads: threads,
            ..slow_chaos_cfg(timeout_ms)
        };
        let mut db = NoDb::new(cfg);
        db.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        let start = Instant::now();
        let err = db.query(sql).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, EngineError::DeadlineExceeded),
            "threads {threads}: expected DeadlineExceeded, got {err:?}"
        );
        assert!(
            elapsed < Duration::from_millis(2 * timeout_ms),
            "threads {threads}: took {elapsed:?} for a {timeout_ms}ms budget"
        );
        let rerun = db.query_with_ctx(sql, &QueryCtx::unbounded()).unwrap();
        assert_eq!(rerun, expect, "threads {threads}");
    }
    std::fs::remove_file(path).ok();
}

/// A scan that ran out of time leaves the rows of its completed slices in the
/// row index (ISSUE 20). The rerun reads only the bytes behind them: the
/// known rows are served from the cache, with no pass over the file to
/// re-learn their numbers, and the table ends where one uninterrupted
/// row-at-a-time pass would have left it. A query under a deadline
/// converts whole columns even on the file's first scan, so the stopped
/// query caches its projection-only `c1` over the prefix as well.
#[test]
fn rerun_after_deadline_reads_only_the_unknown_tail() {
    let sql = "SELECT COUNT(*), SUM(c1) FROM t WHERE c2 < 800000000";
    for threads in [1usize, 4] {
        let (path, gen) = gen_table(&format!("deadline_tail{threads}"), 80_000);
        // 64 slices at either worker count, 16 or more to a worker. The
        // fault injector paces the scan from below: seed 3's first draw is
        // a transient `EIO` and every slice opens its own injector, so no
        // slice finishes without sleeping one 60 ms retry backoff — no
        // worker is through more than three slices, far short of its share,
        // when the 200 ms deadline falls, while the first slice (two
        // backoffs and some parsing) is.
        let cfg = NoDbConfig {
            scan_threads: threads,
            io_block_size: 64 << 10,
            io_fault_seed: 3,
            io_fault_one_in: 1,
            io_retry_backoff_ms: 60,
            ..NoDbConfig::pm_c()
        };
        let mut db = NoDb::new(cfg);
        db.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();

        let err = db
            .query_with_ctx(sql, &QueryCtx::with_timeout(Duration::from_millis(200)))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::DeadlineExceeded),
            "expected DeadlineExceeded, got {err:?}"
        );
        let file = std::fs::read(&path).unwrap();
        let known_end = {
            let handle = db.table_handle("t").unwrap();
            let t = handle.read();
            let idx = t.map().row_index();
            assert!(!idx.is_complete());
            assert!(
                !idx.is_empty() && idx.len() < 80_000,
                "stopped mid-file, {} rows known",
                idx.len()
            );
            assert_eq!(t.cache().coverage(1), idx.len(), "prefix cached");
            let last = *idx.starts().last().unwrap() as usize;
            last + file[last..].iter().position(|&b| b == b'\n').unwrap() + 1
        };
        let tail = (file.len() - known_end) as u64;

        let (result, report) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
        assert_eq!(result, reference_answer(&path, &gen, sql));
        assert!(
            report.io.bytes_read <= tail + 2 * cfg.io_block_size as u64,
            "threads {threads}: read {} bytes for a {tail}-byte tail behind {known_end} known bytes",
            report.io.bytes_read
        );

        // Row index, cache and statistics equal one full pass; only the map
        // chunk stays the stopped scan's (the rerun found its attributes
        // indexed and collected no second one).
        // Both runs convert whole columns: the first has a deadline, the
        // rerun finds the table touched.
        let mut model = common::NaiveModel::load(&path, &gen.schema(), &cfg);
        model.query_whole(&[2], &[1]);
        let handle = db.table_handle("t").unwrap();
        let t = handle.read();
        assert_eq!(t.map().row_index().starts(), model.map.row_index().starts());
        assert!(t.map().row_index().is_complete());
        assert_eq!(t.cache().bytes_used(), model.cache.bytes_used());
        for attr in [1usize, 2] {
            assert_eq!(t.cache().coverage(attr), 80_000);
            for row in (0..80_000).step_by(997) {
                assert_eq!(
                    t.cache().column(attr).and_then(|c| c.datum(row)),
                    model.cache.column(attr).and_then(|c| c.datum(row))
                );
            }
            assert_eq!(t.stats().observed_upto(attr), 80_000);
            assert_eq!(
                format!("{:?}", t.stats().attr(attr).unwrap().export_state()),
                format!("{:?}", model.stats.attr(attr).unwrap().export_state()),
                "threads {threads}: statistics of c{attr}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Parse errors follow conversion. A file's first filtered scan converts a
/// projection-only column for the rows its predicate keeps alone, so a
/// malformed cell of that column in a rejected row is not judged: under
/// the strict policy the first query answers, and the second — which
/// converts the column whole — fails with exactly the error an unfiltered
/// first scan (a whole conversion) reports for the cell. Under the
/// permissive policy the first query quarantines only the malformed cells
/// it converts, the second all of them, and the cached third none.
#[test]
fn parse_errors_follow_conversion() {
    let schema = Schema::new(vec![
        ColumnDef::new("a", ColumnType::Int),
        ColumnDef::new("b", ColumnType::Int),
    ]);
    let sql = "SELECT b FROM t WHERE a < 3";
    let open = |path: &std::path::Path, threads: usize, policy: ParseErrorPolicy| {
        let mut db = NoDb::new(NoDbConfig {
            scan_threads: threads,
            parse_errors: policy,
            ..NoDbConfig::default()
        });
        db.register_csv_with_schema("t", path, schema.clone(), false)
            .unwrap();
        db
    };
    // Row 1's `b` is malformed, and its `a` fails the predicate.
    let rejected = scratch("conv_strict");
    std::fs::write(&rejected, "0,10\n5,7x\n1,30\n2,40\n6,60\n").unwrap();
    // Row 3's `b` is malformed too, in a row the predicate keeps.
    let both = scratch("conv_permissive");
    std::fs::write(&both, "0,10\n5,7x\n1,30\n2,bad\n6,60\n").unwrap();
    for threads in [1usize, 4] {
        let tag = format!("threads {threads}");
        let db = open(&rejected, threads, ParseErrorPolicy::Strict);
        let first = db.query(sql).unwrap();
        let want: Vec<Vec<Datum>> = [10, 30, 40].map(|v| vec![Datum::Int(v)]).into();
        assert_eq!(first.rows, want, "{tag}");
        let err = db.query(sql).unwrap_err();
        let whole = open(&rejected, threads, ParseErrorPolicy::Strict)
            .query("SELECT b FROM t")
            .unwrap_err();
        assert_eq!(err.to_string(), whole.to_string(), "{tag}");
        assert!(
            matches!(
                &err,
                EngineError::Csv(RawCsvError::ParseField { row: 1, attr: 1, text, .. })
                    if text == "7x"
            ),
            "{tag}: {err:?}"
        );

        let db = open(&both, threads, ParseErrorPolicy::Permissive);
        let mut tallies = Vec::new();
        for _ in 0..3 {
            let (r, report) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
            let want = [Datum::Int(10), Datum::Int(30), Datum::Null];
            assert_eq!(r.rows, want.map(|d| vec![d]), "{tag}");
            let rows: Vec<u64> = report.quarantine_samples.iter().map(|s| s.row).collect();
            tallies.push((report.rows_quarantined, rows, report.fully_cached));
        }
        assert_eq!(
            tallies,
            [
                (1, vec![3], false),
                (2, vec![1, 3], false),
                (0, vec![], true)
            ],
            "{tag}"
        );
    }
    std::fs::remove_file(rejected).ok();
    std::fs::remove_file(both).ok();
}

/// A token cancelled from another thread mid-scan aborts the query with
/// `Cancelled`; the registry and table remain fully usable afterwards.
#[test]
fn cancel_token_aborts_mid_scan() {
    let (path, gen) = gen_table("cancel", 60_000);
    let sql = "SELECT SUM(c0) FROM t";

    let mut db = NoDb::new(slow_chaos_cfg(0));
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();

    let ctx = QueryCtx::unbounded();
    let token: CancelToken = ctx.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(25));
        token.cancel();
    });
    let err = db.query_with_ctx(sql, &ctx).unwrap_err();
    canceller.join().unwrap();
    assert!(
        matches!(err, EngineError::Cancelled),
        "expected Cancelled, got {err:?}"
    );

    // Table and registry still healthy: the same query completes unbounded.
    assert!(db.snapshot("t").is_some());
    let rerun = db.query(sql).unwrap();
    assert_eq!(rerun, reference_answer(&path, &gen, sql));
    std::fs::remove_file(path).ok();
}

/// A fully-cached aggregate folds on its scan's workers, each over its own
/// range of cache windows, and every worker polls the query context once
/// per window. So a cancel or a deadline that trips mid-fold stops them all
/// within a window or so: at 1, 4 and 8 workers the query, stopped a
/// quarter of the way into the time the whole fold takes (`full`, measured
/// first on the same table), fails with the stop error before three
/// quarters of it — a worker that ran its range out would take about all
/// of it — and the same query answers correctly afterwards. The fold holds
/// the table's read guard, and nothing it runs takes a table lock: a query
/// that saw the file grow and queued for the write lock behind that guard
/// gets it once the stopped query returns, and answers with the appended
/// rows.
#[test]
fn stopped_parallel_fold_releases_the_table() {
    stopped_fold_releases_the_table("fold_stop", false);
}

/// The same for a query after an append, whose cached rows fold on every
/// worker under the read guard and whose appended rows are read from the
/// file only after them: stopped in the cached rows' fold, it returns as
/// soon, reads no appended row, and releases the table to the queued
/// appender; the query answers over every appended row afterwards.
#[test]
fn stopped_partially_cached_fold_releases_the_table() {
    stopped_fold_releases_the_table("partial_fold_stop", true);
}

/// The body of the two tests above: `appended` appends two rows between
/// timing the fully-cached fold and stopping it.
fn stopped_fold_releases_the_table(tag: &str, appended: bool) {
    let rows = 200_000u64;
    let (path, gen) = gen_table(tag, rows);
    // A computed predicate runs row at a time: a fold long enough to stop
    // in its middle. `SUM` over an Int column keeps the fold on every
    // worker.
    let sql = "SELECT COUNT(*), SUM(c1), MIN(c2) FROM t \
               WHERE c0 % 7 + c1 % 5 + c2 % 3 + c3 % 11 + c4 % 13 \
               + (c0 - c1) % 17 + (c2 + c3) % 19 - c4 % 23 > 30";
    let expect = reference_answer(&path, &gen, sql);
    for threads in [1usize, 4, 8] {
        let mut db = NoDb::new(NoDbConfig {
            scan_threads: threads,
            ..NoDbConfig::pm_c()
        });
        db.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        db.query("SELECT * FROM t").unwrap();
        let full = (0..3)
            .map(|_| {
                let t = Instant::now();
                let (r, rep) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
                assert!(rep.fully_cached, "threads {threads}");
                assert_eq!(r, expect, "threads {threads}");
                t.elapsed()
            })
            .min()
            .unwrap();
        let stop_at = full / 4;
        let append = |path: &std::path::Path| {
            let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            std::io::Write::write_all(&mut f, b"1,2,3,4,5\n6,7,8,9,10\n").unwrap();
        };
        let mut grown = 0;
        if appended {
            append(&path);
            grown += 2;
        }

        // A deadline a quarter of the way in.
        let t = Instant::now();
        let err = db
            .query_with_ctx(sql, &QueryCtx::with_timeout(stop_at))
            .unwrap_err();
        let took = t.elapsed();
        assert!(
            matches!(err, EngineError::DeadlineExceeded),
            "threads {threads}: {err:?}"
        );
        assert!(
            took < full * 3 / 4,
            "threads {threads}: stopped after {took:?}; the whole fold takes {full:?}"
        );
        if appended {
            let handle = db.table_handle("t").unwrap();
            let table = handle.read();
            assert!(
                !table.map().row_index().is_complete(),
                "threads {threads}: the appended rows were read"
            );
        }

        // A cancel a quarter of the way in, with an appender queued for
        // the write lock behind the fold's read guard.
        let ctx = QueryCtx::unbounded();
        let token = ctx.cancel_token();
        let (stopped, counted) = std::thread::scope(|s| {
            let db = &db;
            let (path, ctx) = (&path, &ctx);
            let appender = s.spawn(move || {
                std::thread::sleep(stop_at / 2);
                append(path);
                let r = db.query("SELECT COUNT(*) FROM t").unwrap();
                (r, Instant::now())
            });
            let t = Instant::now();
            s.spawn(move || {
                std::thread::sleep(stop_at);
                token.cancel();
            });
            let err = db.query_with_ctx(sql, ctx).unwrap_err();
            ((err, t, t.elapsed()), appender.join().unwrap())
        });
        let (err, started, took) = stopped;
        assert!(
            matches!(err, EngineError::Cancelled),
            "threads {threads}: {err:?}"
        );
        assert!(
            took < full * 3 / 4,
            "threads {threads}: stopped after {took:?}; the whole fold takes {full:?}"
        );
        let (count, counted_at) = counted;
        assert_eq!(
            count.scalar(),
            Some(&Datum::Int((rows + grown) as i64 + 2)),
            "threads {threads}"
        );
        // Unblocked, the appender's query would have answered long before
        // the cancel: it waited for the fold's guard.
        assert!(
            counted_at >= started + stop_at,
            "threads {threads}: the appender ran behind the fold"
        );

        // The table still serves the fold, over the appended rows too.
        let after = db.query(sql).unwrap();
        assert_eq!(
            after,
            reference_answer(&path, &gen, sql),
            "threads {threads}"
        );
        // Back to the generated rows for the next thread count.
        gen.generate_file(&path).unwrap();
    }
    std::fs::remove_file(path).ok();
}

/// A token cancelled *before* the query starts fails fast without touching
/// the table, and the instance keeps serving queries.
#[test]
fn pre_cancelled_query_fails_fast() {
    let (path, gen) = gen_table("precancel", 500);
    let mut db = NoDb::new(NoDbConfig::pm_c());
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();

    let ctx = QueryCtx::unbounded();
    ctx.cancel_token().cancel();
    let err = db.query_with_ctx("SELECT c0 FROM t", &ctx).unwrap_err();
    assert!(matches!(err, EngineError::Cancelled));
    let fresh = db.snapshot("t").unwrap();
    assert_eq!(fresh.map_bytes + fresh.cache_bytes, 0, "nothing scanned");

    let ok = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ok.scalar(), Some(&Datum::Int(500)));
    std::fs::remove_file(path).ok();
}

/// A TCP client that vanishes mid-query: the server's disconnect watchdog
/// must trip the query's [`CancelToken`] (counted in `disconnect_cancels`),
/// and the table must keep answering other connections correctly — the
/// aborted scan's partial frontier merges, nothing wedges.
#[test]
fn client_disconnect_mid_query_cancels_and_table_survives() {
    let (path, gen) = gen_table("disconnect", 60_000);
    let sql = "SELECT SUM(c0) FROM t";

    // The chaos config makes the cold scan reliably slow (hundreds of ms),
    // so the disconnect lands mid-scan. No server-side deadline: only the
    // watchdog can stop this query.
    let mut db = NoDb::new(slow_chaos_cfg(0));
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scan_budget: 4,
            admission_queue: 16,
            prepared_statements: 8,
            query_timeout_ms: 0,
        },
    )
    .unwrap();

    // Fire the query and hang up: send the request frame, give the scan a
    // moment to start, then drop the socket without reading any response.
    let mut doomed = NoDbClient::connect(server.local_addr()).unwrap();
    doomed.send_only(&format!("QUERY {sql}")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(doomed);

    // The watchdog sees EOF within one poll tick and cancels the query.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().disconnect_cancels == 0 {
        assert!(
            Instant::now() < deadline,
            "watchdog never cancelled the orphaned query: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The table is unharmed: a fresh connection gets the right answer.
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();
    let resp = client.query(sql).unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert_eq!(resp.body, reference_answer(&path, &gen, sql).to_string());
    client.quit().unwrap();

    let stats = server.shutdown();
    assert!(stats.disconnect_cancels >= 1);
    assert!(
        stats.queries_err >= 1,
        "the cancelled query surfaced as an error: {stats:?}"
    );
    assert_eq!(
        stats.queries_ok, 1,
        "only the second client's query succeeded"
    );
    std::fs::remove_file(path).ok();
}

/// A server over a slow-scanning table `t` (the chaos config) plus a tiny
/// fast table `small`, with no server-side deadline.
fn slow_server(
    tag: &str,
) -> (
    Server,
    std::path::PathBuf,
    std::path::PathBuf,
    GeneratorConfig,
) {
    let (path, gen) = gen_table(tag, 60_000);
    let small = scratch(&format!("{tag}_small"));
    std::fs::write(&small, "1,2\n3,4\n").unwrap();
    let mut db = NoDb::new(slow_chaos_cfg(0));
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();
    db.register_csv_with_schema(
        "small",
        &small,
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
        ]),
        false,
    )
    .unwrap();
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scan_budget: 4,
            admission_queue: 16,
            prepared_statements: 8,
            query_timeout_ms: 0,
        },
    )
    .unwrap();
    (server, path, small, gen)
}

/// The connection's watchdog re-arms for every query: a client that hangs
/// up during its *second* query still cancels it, and only that query.
#[test]
fn disconnect_during_second_query_cancels_it() {
    let (server, path, small, _) = slow_server("second_query");
    let mut doomed = NoDbClient::connect(server.local_addr()).unwrap();
    let first = doomed.query("SELECT SUM(a) FROM small").unwrap();
    assert!(first.is_ok(), "{}", first.status);
    doomed.send_only("QUERY SELECT SUM(c0) FROM t").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(doomed);

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().active_connections > 0 {
        assert!(
            Instant::now() < deadline,
            "connection never closed: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.shutdown();
    assert_eq!(stats.disconnect_cancels, 1, "{stats:?}");
    assert_eq!(stats.queries_ok, 1, "the first query answered: {stats:?}");
    assert_eq!(stats.queries_err, 1, "the second was cancelled: {stats:?}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(small).ok();
}

/// A request pipelined while a slow query runs parks the watchdog instead
/// of tripping it: both queries are answered, in order, and neither is
/// cancelled.
#[test]
fn pipelined_request_is_answered_in_order() {
    let (server, path, small, gen) = slow_server("pipelined");
    let slow_sql = "SELECT SUM(c0) FROM t";
    let fast_sql = "SELECT SUM(a) FROM small";
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();
    client.send_only(&format!("QUERY {slow_sql}")).unwrap();
    // Sends the second request while the first scans, then reads the
    // first response.
    let slow = client.command(&format!("QUERY {fast_sql}")).unwrap();
    let mut stream = client.stream();
    let fast_status = nodb_server::protocol::read_frame(&mut stream).unwrap();
    let fast_body = nodb_server::protocol::read_frame(&mut stream).unwrap();

    assert!(slow.is_ok(), "{}", slow.status);
    assert_eq!(
        slow.body,
        reference_answer(&path, &gen, slow_sql).to_string()
    );
    assert!(fast_status.is_some_and(|s| s.starts_with("OK")));
    assert!(
        fast_body.is_some_and(|b| b.starts_with("sum(a)") && b.contains("\n4 ")),
        "second response answers the second request"
    );
    client.quit().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.queries_ok, 2, "{stats:?}");
    assert_eq!(stats.disconnect_cancels, 0, "{stats:?}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(small).ok();
}

/// The permissive parse-error policy quarantines malformed rows and surfaces
/// the tally + capped samples in [`QueryReport`]; strict (the default)
/// aborts the query instead.
#[test]
fn quarantine_surfaces_in_query_report() {
    let path = scratch("quar");
    std::fs::write(&path, "1,10\n2,oops\n3,30\nbad,40\n5,50\n").unwrap();
    let schema = Schema::new(vec![
        ColumnDef::new("a", ColumnType::Int),
        ColumnDef::new("b", ColumnType::Int),
    ]);

    // Strict aborts on the first malformed cell.
    let mut strict = NoDb::new(NoDbConfig {
        scan_threads: 1,
        ..NoDbConfig::pm_c()
    });
    strict
        .register_csv_with_schema("t", &path, schema.clone(), false)
        .unwrap();
    assert!(strict.query("SELECT a, b FROM t").is_err());

    // Permissive answers with NULL tombstones and reports the quarantine.
    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 1,
        parse_errors: ParseErrorPolicy::Permissive,
        ..NoDbConfig::pm_c()
    });
    db.register_csv_with_schema("t", &path, schema, false)
        .unwrap();
    let r = db.query("SELECT a, b FROM t").unwrap();
    assert_eq!(r.rows.len(), 5, "every row kept");
    assert_eq!(r.rows[1][1], Datum::Null, "bad cell tombstoned");
    assert_eq!(r.rows[3][0], Datum::Null, "bad cell tombstoned");

    let rep = db.admin().last_report().unwrap();
    assert_eq!(rep.rows_quarantined, 2);
    let sampled: Vec<(u64, usize)> = rep
        .quarantine_samples
        .iter()
        .map(|s| (s.row, s.attr))
        .collect();
    assert_eq!(sampled, vec![(1, 1), (3, 0)]);

    // Warm rerun: cached tombstones, nothing newly quarantined.
    let r2 = db.query("SELECT a, b FROM t").unwrap();
    assert_eq!(r, r2);
    let rep2 = db.admin().last_report().unwrap();
    assert_eq!(
        rep2.rows_quarantined, 0,
        "cached path re-quarantines nothing"
    );
    std::fs::remove_file(path).ok();
}
