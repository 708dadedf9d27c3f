//! End-to-end tests for the nodb-server network front-end (ISSUE 8): real
//! TCP clients against a [`Server`] fronting a shared `NoDb` instance.
//!
//! The core invariant mirrors `concurrent_queries.rs`: M clients × N
//! queries over the wire must return, byte for byte, the bodies a
//! sequential in-process replay produces, and must leave the server's
//! table in exactly the replay's adaptive state — even though the server
//! adds admission control and a prepared-statement cache on top.
//!
//! The acceptance criterion from the issue rides here too: with 32
//! concurrent clients and a scan budget of 8, the budget's high-water mark
//! never exceeds 8 (asserted via [`ScanBudget`] telemetry, not sampling).

use std::sync::Arc;

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::prelude::*;
use nodb_server::{NoDbClient, Server, ServerConfig};

mod common;
use common::assert_same_state;

fn scratch(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_server_{tag}_{}", std::process::id()));
    p
}

/// A `NoDb` with table `t` registered from `path`. `scan_threads: 1` keeps
/// the per-query fan-out deterministic whether or not a budget clamps it
/// (a grant for 1 is always exactly 1), so server state and sequential
/// replay state are comparable field by field.
fn mk_db(path: &std::path::Path, schema: Schema, scan_threads: usize) -> NoDb {
    let mut db = NoDb::new(NoDbConfig {
        scan_threads,
        ..NoDbConfig::default()
    });
    db.register_csv_with_schema("t", path, schema, false)
        .unwrap();
    db
}

fn server_config(budget: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scan_budget: budget,
        admission_queue: 64,
        prepared_statements: 64,
        query_timeout_ms: 0,
    }
}

/// M TCP clients × N queries × 2 passes return byte-identical bodies to a
/// sequential in-process replay, and the server's table lands in the
/// replay's exact adaptive state. Every pass-2 status must report a
/// prepared-statement hit: by then each client has itself planned all four
/// statements, the table generation never moves, and capacity (64) far
/// exceeds the working set, so a miss would be a cache bug.
#[test]
fn tcp_storm_matches_sequential_replay() {
    let cols = 6;
    let gen = GeneratorConfig::uniform_ints(cols, 600, 0x57011);
    let path = scratch("storm");
    gen.generate_file(&path).unwrap();
    let queries: Vec<String> = vec![
        "SELECT c1 FROM t WHERE c2 < 500000000".to_string(),
        "SELECT c3, c1 FROM t".to_string(),
        "SELECT COUNT(*) FROM t WHERE c2 >= 500000000".to_string(),
        "SELECT c5 FROM t WHERE c0 < 900000000".to_string(),
    ];

    // Sequential replay: same workload, one query at a time, no server.
    let seq = mk_db(&path, gen.schema(), 1);
    let mut expect = Vec::new();
    for _pass in 0..2 {
        for q in &queries {
            expect.push(seq.query(q).unwrap().to_string());
        }
    }

    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(8)).unwrap();
    let addr = server.local_addr();

    let n_clients = 4;
    std::thread::scope(|s| {
        for c in 0..n_clients {
            let queries = &queries;
            let expect = &expect;
            s.spawn(move || {
                let mut client = NoDbClient::connect(addr).unwrap();
                for pass in 0..2 {
                    for (qi, q) in queries.iter().enumerate() {
                        let resp = client.query(q).unwrap();
                        assert!(
                            resp.is_ok(),
                            "client {c} pass {pass} query {qi}: {}",
                            resp.status
                        );
                        assert_eq!(
                            resp.body,
                            expect[pass * queries.len() + qi],
                            "client {c} pass {pass} query {qi}: body"
                        );
                        if pass == 1 {
                            assert!(
                                resp.status.contains("prepared=1"),
                                "client {c} pass {pass} query {qi}: expected a \
                                 prepared-statement hit, got {}",
                                resp.status
                            );
                        }
                    }
                }
                client.quit().unwrap();
            });
        }
    });

    assert_same_state("tcp storm", server.db(), &seq, cols);
    let prepared = server.db().admin().prepared_stats().unwrap();
    assert!(
        prepared.hits >= (n_clients * queries.len()) as u64,
        "every pass-2 query hit the prepared cache: {prepared:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.queries_ok, (n_clients * queries.len() * 2) as u64);
    assert_eq!(stats.queries_err, 0);
    std::fs::remove_file(path).unwrap();
}

/// The issue's acceptance criterion: 32 concurrent TCP clients against a
/// scan budget of 8, every query answers correctly, and telemetry proves
/// the number of scan permits in flight never exceeded the budget — with
/// `scan_threads: 4` configured, unbounded fan-out would run 128 threads.
#[test]
fn budget_cap_holds_under_32_clients() {
    let cols = 5;
    let gen = GeneratorConfig::uniform_ints(cols, 20_000, 0xB0D6E7);
    let path = scratch("cap");
    gen.generate_file(&path).unwrap();
    let queries = [
        "SELECT COUNT(*) FROM t",
        "SELECT c1 FROM t WHERE c2 > 900000000",
        "SELECT COUNT(*), SUM(c3) FROM t WHERE c4 < 500000000",
    ];

    let reference = mk_db(&path, gen.schema(), 4);
    let expect: Vec<String> = queries
        .iter()
        .map(|q| reference.query(q).unwrap().to_string())
        .collect();

    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 4)), server_config(8)).unwrap();
    let addr = server.local_addr();

    let n_clients = 32;
    std::thread::scope(|s| {
        for c in 0..n_clients {
            let queries = &queries;
            let expect = &expect;
            s.spawn(move || {
                let mut client = NoDbClient::connect(addr).unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    let resp = client.query(q).unwrap();
                    assert!(resp.is_ok(), "client {c} query {qi}: {}", resp.status);
                    assert_eq!(resp.body, expect[qi], "client {c} query {qi}: body");
                }
                client.quit().unwrap();
            });
        }
    });

    let t = server.budget().telemetry();
    assert!(
        t.peak_in_flight <= 8,
        "scan budget exceeded: peak {} > capacity 8",
        t.peak_in_flight
    );
    assert_eq!(t.in_flight, 0, "all grants returned");
    assert_eq!(t.waiting, 0, "no stuck waiters");
    assert_eq!(t.admitted, (n_clients * queries.len()) as u64);
    assert_eq!(t.rejected, 0, "queue of 64 never overflows with 32 clients");
    let stats = server.shutdown();
    assert_eq!(stats.queries_ok, (n_clients * queries.len()) as u64);
    assert_eq!(stats.connections, n_clients as u64);
    std::fs::remove_file(path).unwrap();
}

/// Prepared-statement hits are visible over the wire (`prepared=` in the
/// `OK` status line) and in the admin stats, and the second run of the same
/// SQL skips planning entirely in its report breakdown.
#[test]
fn prepared_hits_visible_over_wire() {
    let gen = GeneratorConfig::uniform_ints(3, 400, 0x9E9);
    let path = scratch("prep");
    gen.generate_file(&path).unwrap();

    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(2)).unwrap();
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();

    let sql = "SELECT c0, c2 FROM t WHERE c1 < 700000000";
    let cold = client.query(sql).unwrap();
    assert!(cold.is_ok(), "{}", cold.status);
    assert!(cold.status.contains("prepared=0"), "{}", cold.status);

    let warm = client.query(sql).unwrap();
    assert!(warm.is_ok(), "{}", warm.status);
    assert!(warm.status.contains("prepared=1"), "{}", warm.status);
    assert_eq!(cold.body, warm.body, "same answer either way");

    let stats = server.db().admin().prepared_stats().unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    let report = server.db().admin().last_report().unwrap();
    assert!(report.prepared_hit);
    assert_eq!(
        report.breakdown.planning,
        std::time::Duration::ZERO,
        "prepared hit skips parse/plan"
    );

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

/// `SNAPSHOT` over the wire persists every table's sidecar on demand and
/// `SNAPSHOT?` reports the persistence counters — even on a database
/// opened without `snapshot_persistence` (an explicit request is its own
/// authorization).
#[test]
fn snapshot_verbs_over_wire() {
    let gen = GeneratorConfig::uniform_ints(3, 300, 0x54AF);
    let path = scratch("snapverb");
    gen.generate_file(&path).unwrap();

    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(2)).unwrap();
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();

    // Warm some adaptive state so the sidecar has something to hold.
    let q = client
        .query("SELECT c1 FROM t WHERE c0 < 800000000")
        .unwrap();
    assert!(q.is_ok(), "{}", q.status);

    let before = client.command("SNAPSHOT?").unwrap();
    assert!(before.is_ok(), "{}", before.status);
    assert!(before.body.contains("saves=0"), "{}", before.body);

    let snap = client.command("SNAPSHOT").unwrap();
    assert!(snap.is_ok(), "{}", snap.status);
    assert_eq!(snap.body.trim(), "t=ok");
    let sidecar = nodb_repro::snapshot::sidecar_path(&path);
    assert!(sidecar.exists(), "SNAPSHOT wrote the sidecar");

    let after = client.command("SNAPSHOT?").unwrap();
    assert!(after.is_ok(), "{}", after.status);
    assert!(after.body.contains("saves=1"), "{}", after.body);
    assert!(after.body.contains("save_failures=0"), "{}", after.body);

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(&sidecar).unwrap();
    std::fs::remove_file(path).unwrap();
}

/// Bounded overload retry (ISSUE 10 satellite): against a saturated
/// budget with a zero-length admission queue, a plain client surfaces
/// `ERR overloaded` immediately, while a client opted into
/// `retry_overloaded` rides out the saturation with backoff and gets the
/// answer once the permit frees up.
#[test]
fn retry_overloaded_rides_out_saturation() {
    let gen = GeneratorConfig::uniform_ints(5, 60_000, 0x0B5C);
    let path = scratch("overload");
    gen.generate_file(&path).unwrap();
    // The permit-holding query must stay in flight for hundreds of ms:
    // same deterministic slow-scan recipe as the resilience suite (tiny
    // blocks, a fault every refill, retry backoff on each).
    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 1,
        io_block_size: 4096,
        io_fault_seed: 0x0B5C,
        io_fault_one_in: 1,
        io_retry_attempts: 2,
        io_retry_backoff_ms: 4,
        ..NoDbConfig::default()
    });
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scan_budget: 1,
            admission_queue: 0,
            prepared_statements: 8,
            query_timeout_ms: 0,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let sql = "SELECT COUNT(*), SUM(c1) FROM t";

    // Client A grabs the only permit and holds it for the whole slow scan.
    let mut holder = NoDbClient::connect(addr).unwrap();
    holder.send_only(&format!("QUERY {sql}")).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));

    // A plain client is bounced immediately — the back-pressure signal.
    let mut plain = NoDbClient::connect(addr).unwrap();
    let bounced = plain.query(sql).unwrap();
    assert!(
        bounced.status.starts_with("ERR overloaded"),
        "expected an immediate rejection, got {}",
        bounced.status
    );

    // A retrying client backs off and wins once the holder finishes. The
    // budget is generous (the backoff caps at 128 ms/attempt, so 64
    // attempts ≈ 8 s) because the holder's chaos scan can stretch well
    // past its usual few hundred ms when the whole suite runs in parallel.
    let mut patient = NoDbClient::connect(addr).unwrap().retry_overloaded(64);
    let resp = patient.query(sql).unwrap();
    assert!(resp.is_ok(), "retry never got through: {}", resp.status);

    // Drain the holder's response: same answer, and telemetry shows both
    // the rejection(s) and zero stuck waiters.
    let hold_resp = holder.command("PING").map(|_| ());
    assert!(hold_resp.is_ok(), "holder connection still healthy");
    let t = server.budget().telemetry();
    assert!(t.rejected >= 1, "the bounce was counted: {t:?}");
    assert_eq!(t.waiting, 0, "no stuck waiters");
    plain.quit().unwrap();
    patient.quit().unwrap();
    holder.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

/// `EPOCH?` over the wire, and `source_changed=` in the QUERY status
/// line: a freshly served table reports generation 0 and no torn tail;
/// after an external rewrite the next query heals and the report shows
/// the bumped generation and re-keyed length.
#[test]
fn epoch_verb_over_wire() {
    let gen = GeneratorConfig::uniform_ints(3, 500, 0xE9);
    let path = scratch("epochverb");
    gen.generate_file(&path).unwrap();

    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(2)).unwrap();
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();

    let q = client.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(q.is_ok(), "{}", q.status);
    assert!(q.status.contains("source_changed=0"), "{}", q.status);

    let before = client.command("EPOCH?").unwrap();
    assert!(before.is_ok(), "{}", before.status);
    assert!(before.body.contains("source_changes=0"), "{}", before.body);
    assert!(
        before.body.contains("table=t generation=0"),
        "{}",
        before.body
    );
    assert!(before.body.contains("torn_tail=0"), "{}", before.body);

    // External rewrite between queries: reconciled at the planning probe,
    // generation bumps, the epoch re-keys to the new length.
    let gen2 = GeneratorConfig::uniform_ints(3, 250, 0xBEE);
    gen2.generate_file(&path).unwrap();
    let q2 = client.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(q2.is_ok(), "{}", q2.status);
    assert!(q2.body.contains("250"), "cold-correct answer: {}", q2.body);

    let after = client.command("EPOCH?").unwrap();
    assert!(after.is_ok(), "{}", after.status);
    assert!(
        after.body.contains("table=t generation=1"),
        "{}",
        after.body
    );
    let len = std::fs::metadata(&path).unwrap().len();
    assert!(
        after.body.contains(&format!("len={len} trusted_len={len}")),
        "{}",
        after.body
    );

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

/// The non-query protocol surface: PING, TABLES, SCHEMA, PANEL, REPORT,
/// and the error paths (bad SQL, unknown table, unknown command) — all
/// without wedging the connection.
#[test]
fn protocol_surface_round_trips() {
    let gen = GeneratorConfig::uniform_ints(3, 200, 0xAB);
    let path = scratch("proto");
    gen.generate_file(&path).unwrap();

    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(2)).unwrap();
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();

    assert!(client.ping().unwrap());

    let tables = client.command("TABLES").unwrap();
    assert!(tables.is_ok());
    assert_eq!(tables.body.trim(), "t");

    let schema = client.command("SCHEMA t").unwrap();
    assert!(schema.is_ok());
    assert!(schema.body.contains("c0"), "schema lists columns");

    // REPORT before any query: an error, not a wedged connection.
    let no_report = client.command("REPORT").unwrap();
    assert!(!no_report.is_ok(), "{}", no_report.status);

    let q = client.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(q.is_ok());
    assert!(q.status.contains("rows=1"), "{}", q.status);

    let report = client.command("REPORT").unwrap();
    assert!(report.is_ok());
    assert!(!report.body.is_empty(), "report body has the plan");
    assert!(report.body.contains("install="), "lock-side slice shown");
    assert!(
        report.body.contains("(admit=") && report.body.contains("lock="),
        "waits of `proc` shown: {}",
        report.body
    );

    let panel = client.command("PANEL t").unwrap();
    assert!(panel.is_ok());
    assert!(!panel.body.is_empty(), "panel body rendered");

    let stats = client.command("STATS").unwrap();
    assert!(stats.is_ok());
    assert!(stats.body.contains("budget_capacity=2"), "{}", stats.body);

    for bad in [
        "QUERY SELECT nope FROM t",
        "QUERY SELECT c0 FROM missing",
        "SCHEMA missing",
        "PANEL missing",
        "FROBNICATE",
    ] {
        let resp = client.command(bad).unwrap();
        assert!(resp.status.starts_with("ERR"), "{bad}: {}", resp.status);
    }
    // Connection still healthy after every error.
    assert!(client.ping().unwrap());

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

/// The served path adds no timer to a query: over one
/// connection, a warm aggregate's client round trip exceeds the same SQL's
/// in-process `query_reported` time on the same `NoDb` by ≤ 5 ms in the
/// median. The table is big enough that every query takes over a
/// millisecond, in a release build too (about 3.7 ms on a 2-core x86-64
/// VM) — shorter ones finished before a per-query watchdog's 20 ms peek
/// started, which hid the tax this guards against. An unoptimized build
/// takes 45–60 ms a query, and one wire-minus-direct difference spreads
/// ±20 ms on a busy machine, so the median is taken over 120 interleaved
/// pairs: a median of 30 crossed 5 ms about once in ten debug runs.
#[test]
fn wire_overhead_is_not_a_timer() {
    let gen = GeneratorConfig::uniform_ints(5, 750_000, 0x3A7E);
    let path = scratch("wire_overhead");
    gen.generate_file(&path).unwrap();
    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(2)).unwrap();
    let mut client = NoDbClient::connect(server.local_addr()).unwrap();
    let sql = "SELECT COUNT(*), SUM(c1) FROM t WHERE c2 < 500000000";
    assert!(client.query(sql).unwrap().is_ok(), "warm-up");

    let mut overhead_ms = Vec::new();
    for _ in 0..120 {
        let t = std::time::Instant::now();
        let resp = client.query(sql).unwrap();
        let wire = t.elapsed();
        assert!(resp.is_ok(), "{}", resp.status);
        let t = std::time::Instant::now();
        server
            .db()
            .query_reported(sql, &nodb_repro::core::QueryCtx::unbounded())
            .unwrap();
        let direct = t.elapsed();
        assert!(
            direct >= std::time::Duration::from_millis(1),
            "query too short to expose a timer: {direct:?}"
        );
        overhead_ms.push((wire.as_secs_f64() - direct.as_secs_f64()) * 1e3);
    }
    overhead_ms.sort_by(f64::total_cmp);
    let median = overhead_ms[overhead_ms.len() / 2];
    assert!(
        median <= 5.0,
        "median wire overhead {median:.2} ms; all: {overhead_ms:.2?}"
    );

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(path).unwrap();
}

/// A client that reads its answer and then hangs up while its connection
/// is idle cancels nothing: the watchdog only trips a query still running.
#[test]
fn idle_hang_up_is_not_a_disconnect_cancel() {
    let gen = GeneratorConfig::uniform_ints(3, 2_000, 0x1D7E);
    let path = scratch("idle_hangup");
    gen.generate_file(&path).unwrap();
    let server = Server::start(Arc::new(mk_db(&path, gen.schema(), 1)), server_config(2)).unwrap();
    let sessions = 20;
    for _ in 0..sessions {
        let mut client = NoDbClient::connect(server.local_addr()).unwrap();
        let resp = client.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(resp.is_ok(), "{}", resp.status);
        drop(client);
    }
    let stats = server.shutdown();
    assert_eq!(stats.queries_ok, sessions);
    assert_eq!(stats.disconnect_cancels, 0, "{stats:?}");
    std::fs::remove_file(path).unwrap();
}
