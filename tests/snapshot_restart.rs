//! Restart-simulation tests for the snapshot persistence layer (ISSUE 9):
//! a process that snapshots its adaptive state, dies, and reopens must land
//! in exactly the state it left — same positional-map coverage, same cache
//! contents, same statistics — and must answer every query byte-identically
//! to the process that never died. Mutations of the underlying file between
//! death and reopen must be classified: an appended tail replays on top of
//! the restored prefix, a replaced file degrades the table to cold.

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::prelude::*;
use nodb_repro::snapshot;

mod common;
use common::assert_same_state;

fn scratch(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_snaprestart_{tag}_{}", std::process::id()));
    p
}

fn config(persistence: bool) -> NoDbConfig {
    NoDbConfig {
        scan_threads: 2,
        snapshot_persistence: persistence,
        ..NoDbConfig::default()
    }
}

fn mk_db(path: &std::path::Path, schema: Schema, persistence: bool) -> NoDb {
    let mut db = NoDb::new(config(persistence));
    db.register_csv_with_schema("t", path, schema, false)
        .unwrap();
    db
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(snapshot::sidecar_path(path)).ok();
    std::fs::remove_file(path).ok();
}

/// The core recovery contract: snapshot, "crash", reopen — the reopened
/// instance answers every query byte-identically AND its adaptive state
/// (map, cache, stats) matches the survivor field by field.
#[test]
fn restart_restores_state_and_results_byte_identically() {
    let cols = 5;
    let gen = GeneratorConfig::uniform_ints(cols, 800, 0x5EED1);
    let path = scratch("roundtrip");
    gen.generate_file(&path).unwrap();
    let queries = [
        "SELECT c1 FROM t WHERE c2 < 600000000",
        "SELECT c3, c0 FROM t",
        "SELECT COUNT(*), SUM(c4) FROM t WHERE c1 >= 300000000",
    ];

    let survivor = mk_db(&path, gen.schema(), true);
    let expect: Vec<String> = queries
        .iter()
        .map(|q| survivor.query(q).unwrap().to_string())
        .collect();
    for (table, r) in survivor.admin().snapshot_now() {
        r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
    }

    // "Crash": a separate instance reopens from the sidecar alone.
    let reborn = mk_db(&path, gen.schema(), true);
    let stats = reborn.admin().snapshot_stats();
    assert_eq!(stats.restores, 1, "sidecar was restored: {stats:?}");
    assert_eq!(stats.restores_rejected, 0, "{stats:?}");

    assert_same_state("restart", &reborn, &survivor, cols);
    for (q, want) in queries.iter().zip(&expect) {
        assert_eq!(
            &reborn.query(q).unwrap().to_string(),
            want,
            "restored table changed the answer to {q}"
        );
        // Restart ≈ warm, without a timer: the restored state answers the
        // first query of every shape the survivor warmed without reading a
        // raw byte.
        let rep = reborn.admin().last_report().unwrap();
        assert!(rep.fully_cached, "{q}: {rep:?}");
        assert_eq!((rep.io.bytes_read, rep.io.read_calls), (0, 0), "{q}");
    }
    cleanup(&path);
}

/// Write-behind: with `snapshot_persistence` on, queries alone produce the
/// sidecar — no explicit `snapshot_now` — and a restart restores from it.
#[test]
fn write_behind_persists_without_explicit_snapshot() {
    let gen = GeneratorConfig::uniform_ints(4, 500, 0x5EED2);
    let path = scratch("writebehind");
    gen.generate_file(&path).unwrap();

    let db = mk_db(&path, gen.schema(), true);
    let want = db
        .query("SELECT c0, c2 FROM t WHERE c1 < 700000000")
        .unwrap()
        .to_string();
    let stats = db.admin().snapshot_stats();
    assert!(
        stats.saves >= 1,
        "write-behind saved after the scan: {stats:?}"
    );
    assert!(
        snapshot::sidecar_path(&path).exists(),
        "sidecar rides along for free"
    );
    drop(db);

    let reborn = mk_db(&path, gen.schema(), true);
    assert_eq!(reborn.admin().snapshot_stats().restores, 1);
    assert_eq!(
        reborn
            .query("SELECT c0, c2 FROM t WHERE c1 < 700000000")
            .unwrap()
            .to_string(),
        want
    );
    cleanup(&path);
}

/// The knob gates restore: a database opened with `snapshot_persistence`
/// off ignores an existing sidecar entirely (and writes none).
#[test]
fn persistence_off_ignores_sidecar() {
    let gen = GeneratorConfig::uniform_ints(3, 300, 0x5EED3);
    let path = scratch("knoboff");
    gen.generate_file(&path).unwrap();

    let warm = mk_db(&path, gen.schema(), true);
    warm.query("SELECT c1 FROM t").unwrap();
    drop(warm);
    assert!(snapshot::sidecar_path(&path).exists());

    let cold = mk_db(&path, gen.schema(), false);
    let stats = cold.admin().snapshot_stats();
    assert_eq!(stats.restores, 0, "{stats:?}");
    assert_eq!(stats.restores_rejected, 0, "{stats:?}");
    let handle = cold.table_handle("t").unwrap();
    assert_eq!(
        handle.read().map().row_index().len(),
        0,
        "table opened fully cold"
    );
    cold.query("SELECT c1 FROM t").unwrap();
    cleanup(&path);
}

/// §4.2 appends: rows appended after the snapshot must appear in the first
/// post-restart query. The restored prefix state is kept (restore counted,
/// not rejected) and the tail is replayed by the normal scan machinery.
#[test]
fn appended_tail_replays_on_restored_prefix() {
    let cols = 4;
    let gen = GeneratorConfig::uniform_ints(cols, 600, 0x5EED4);
    let path = scratch("append");
    gen.generate_file(&path).unwrap();
    let sql = "SELECT c1, c3 FROM t WHERE c0 < 800000000";

    let warm = mk_db(&path, gen.schema(), true);
    warm.query(sql).unwrap();
    for (table, r) in warm.admin().snapshot_now() {
        r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
    }
    drop(warm);

    gen.append_rows(&path, 200).unwrap();

    // Reference: a cold instance on the appended file.
    let reference = mk_db(&path, gen.schema(), false);
    let want = reference.query(sql).unwrap().to_string();
    let want_count = reference
        .query("SELECT COUNT(*) FROM t")
        .unwrap()
        .to_string();

    let reborn = mk_db(&path, gen.schema(), true);
    let stats = reborn.admin().snapshot_stats();
    assert_eq!(stats.restores, 1, "append keeps the prefix: {stats:?}");
    assert_eq!(stats.restores_rejected, 0, "{stats:?}");
    assert_eq!(
        reborn.query(sql).unwrap().to_string(),
        want,
        "appended rows visible after restore"
    );
    assert_eq!(
        reborn.query("SELECT COUNT(*) FROM t").unwrap().to_string(),
        want_count,
        "row count covers the appended tail"
    );
    cleanup(&path);
}

/// A replaced file (same path, different content) fails the fingerprint
/// check: the restore is rejected, the table starts cold, and every answer
/// reflects the new file — stale adaptive state never leaks into results.
#[test]
fn replaced_file_degrades_to_cold() {
    let cols = 4;
    let old = GeneratorConfig::uniform_ints(cols, 500, 0x5EED5);
    let path = scratch("replace");
    old.generate_file(&path).unwrap();
    let sql = "SELECT c0, c2 FROM t WHERE c1 < 500000000";

    let warm = mk_db(&path, old.schema(), true);
    warm.query(sql).unwrap();
    for (table, r) in warm.admin().snapshot_now() {
        r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
    }
    drop(warm);

    // Replace: different seed, different row count, same path and schema.
    let new = GeneratorConfig::uniform_ints(cols, 450, 0x0FF5E7);
    new.generate_file(&path).unwrap();
    let reference = mk_db(&path, new.schema(), false);
    let want = reference.query(sql).unwrap().to_string();

    let reborn = mk_db(&path, new.schema(), true);
    let stats = reborn.admin().snapshot_stats();
    assert_eq!(stats.restores, 0, "{stats:?}");
    assert_eq!(stats.restores_rejected, 1, "stale fingerprint: {stats:?}");
    assert_eq!(
        reborn.query(sql).unwrap().to_string(),
        want,
        "cold-degraded table answers from the new file"
    );
    assert_same_state("replaced", &reborn, &reference, cols);
    cleanup(&path);
}

/// Concurrent queries while write-behind snapshots are landing: answers
/// stay correct, the final sidecar is valid (atomic rename — never torn),
/// no temp files leak, and a restart from it round-trips.
#[test]
fn concurrent_queries_during_write_behind() {
    let cols = 5;
    let gen = GeneratorConfig::uniform_ints(cols, 700, 0x5EED6);
    let path = scratch("concurrent");
    gen.generate_file(&path).unwrap();
    let queries = [
        "SELECT c1 FROM t WHERE c2 < 400000000",
        "SELECT c3 FROM t WHERE c0 >= 100000000",
        "SELECT COUNT(*) FROM t WHERE c4 < 900000000",
        "SELECT c2, c4 FROM t",
    ];

    // Sequential replay for expected bodies.
    let seq = mk_db(&path, gen.schema(), false);
    let expect: Vec<String> = queries
        .iter()
        .map(|q| seq.query(q).unwrap().to_string())
        .collect();

    let db = std::sync::Arc::new(mk_db(&path, gen.schema(), true));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = std::sync::Arc::clone(&db);
            let queries = &queries;
            let expect = &expect;
            s.spawn(move || {
                for _pass in 0..3 {
                    for (q, want) in queries.iter().zip(expect) {
                        assert_eq!(&db.query(q).unwrap().to_string(), want, "{q}");
                    }
                }
            });
        }
    });
    let stats = db.admin().snapshot_stats();
    assert!(stats.saves >= 1, "write-behind ran: {stats:?}");
    assert_eq!(stats.save_failures, 0, "{stats:?}");
    drop(db);

    // No temp droppings; the sidecar decodes cleanly and restores.
    let dir = path.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&format!("{}", path.file_name().unwrap().to_string_lossy())))
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");

    let reborn = mk_db(&path, gen.schema(), true);
    assert_eq!(reborn.admin().snapshot_stats().restores, 1);
    for (q, want) in queries.iter().zip(&expect) {
        assert_eq!(
            &reborn.query(q).unwrap().to_string(),
            want,
            "{q} after restart"
        );
    }
    cleanup(&path);
}

/// Property-style restart harness: across several seeds and query orders,
/// interleaving snapshot / crash / reopen at every step never changes any
/// answer relative to an instance that never restarts.
#[test]
fn restart_at_every_step_is_invisible_in_results() {
    let cols = 4;
    let queries = [
        "SELECT c0 FROM t WHERE c1 < 500000000",
        "SELECT COUNT(*) FROM t WHERE c2 >= 200000000",
        "SELECT c3, c1 FROM t WHERE c0 < 900000000",
    ];
    for seed in [0xA11CEu64, 0xB0B, 0xCAFE] {
        let gen = GeneratorConfig::uniform_ints(cols, 400, seed);
        let path = scratch(&format!("prop{seed:x}"));
        gen.generate_file(&path).unwrap();

        let stable = mk_db(&path, gen.schema(), false);
        let expect: Vec<String> = queries
            .iter()
            .map(|q| stable.query(q).unwrap().to_string())
            .collect();

        // Run the same sequence, crashing and reopening between every query.
        let mut restarting = mk_db(&path, gen.schema(), true);
        for (q, want) in queries.iter().zip(&expect) {
            assert_eq!(
                &restarting.query(q).unwrap().to_string(),
                want,
                "seed {seed:#x}: {q}"
            );
            for (table, r) in restarting.admin().snapshot_now() {
                r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
            }
            restarting = mk_db(&path, gen.schema(), true);
        }
        // After the final reopen the survivor and the restarter agree on
        // every answer again.
        for (q, want) in queries.iter().zip(&expect) {
            assert_eq!(
                &restarting.query(q).unwrap().to_string(),
                want,
                "seed {seed:#x}: {q} after final restart"
            );
        }
        cleanup(&path);
    }
}

const AGG: &str = "SELECT SUM(c1), MAX(c1), COUNT(*) FROM t";

/// Warm a table on `path` with [`AGG`] (which caches `c1`) and write its
/// sidecar.
fn write_sidecar_after_agg(path: &std::path::Path, schema: Schema) {
    let warm = mk_db(path, schema, true);
    warm.query(AGG).unwrap();
    for (table, r) in warm.admin().snapshot_now() {
        r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
    }
}

/// Rewrite one digit of the last row's `c1` in place: same length, same
/// head, a different value than the one the sidecar cached.
fn rewrite_last_c1_digit(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let body = &bytes[..bytes.len() - 1];
    let start = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut fields = body[start..].split(|&b| b == b',');
    let c0 = fields.next().unwrap().len();
    let c1 = fields.next().unwrap().len();
    let digit = &mut bytes[start + c0 + 1 + c1 - 1];
    *digit = b'0' + (*digit - b'0' + 1) % 10;
    std::fs::write(path, &bytes).unwrap();
}

/// Reopen `path` from its sidecar and assert the restore was rejected and
/// the table answers and ends exactly like a never-snapshotted instance.
fn assert_restores_cold(case: &str, path: &std::path::Path, schema: Schema, cols: usize) {
    let cold = mk_db(path, schema.clone(), false);
    let want = cold.query(AGG).unwrap().to_string();

    let reborn = mk_db(path, schema, true);
    let stats = reborn.admin().snapshot_stats();
    assert_eq!(stats.restores, 0, "{case}: {stats:?}");
    assert_eq!(stats.restores_rejected, 1, "{case}: {stats:?}");
    assert_eq!(
        reborn.query(AGG).unwrap().to_string(),
        want,
        "{case}: a stale cached value leaked into the answer"
    );
    assert_same_state(case, &reborn, &cold, cols);
}

/// A grown file is not an append when the bytes it grew from changed: the
/// sidecar's epoch re-hashes its old tail region, finds the rewritten
/// digit, and the table starts cold instead of serving the cached value.
#[test]
fn grown_file_with_rewritten_old_tail_restores_cold() {
    let cols = 4;
    let gen = GeneratorConfig::uniform_ints(cols, 600, 0x5EED7);
    let path = scratch("grown_rewrite");
    gen.generate_file(&path).unwrap();
    write_sidecar_after_agg(&path, gen.schema());

    rewrite_last_c1_digit(&path);
    gen.append_rows(&path, 50).unwrap();

    assert_restores_cold("grown+rewritten", &path, gen.schema(), cols);
    cleanup(&path);
}

/// Same length, same head, mtime put back: only the old tail region's hash
/// tells the rewrite apart from no change at all.
#[test]
fn same_length_tail_rewrite_with_kept_mtime_restores_cold() {
    let cols = 4;
    let gen = GeneratorConfig::uniform_ints(cols, 600, 0x5EED8);
    let path = scratch("kept_mtime");
    gen.generate_file(&path).unwrap();
    write_sidecar_after_agg(&path, gen.schema());

    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
    rewrite_last_c1_digit(&path);
    std::fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(mtime)
        .unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), mtime);

    assert_restores_cold("same-length+mtime", &path, gen.schema(), cols);
    cleanup(&path);
}

/// The torn-row fence survives the sidecar: captured while the file ended
/// in an unterminated row, the restored table replays from the old fence
/// once the terminator and more rows land, re-reading the formerly torn
/// row.
#[test]
fn torn_tail_sidecar_replays_from_its_fence() {
    let cols = 4;
    let gen = GeneratorConfig::uniform_ints(cols, 621, 0x5EED9);
    let path = scratch("torn_fence");
    gen.generate_file(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    // End of row 600 (the 601st line), minus its terminator.
    let torn_end = full
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(600)
        .map(|(i, _)| i)
        .unwrap();
    std::fs::write(&path, &full[..torn_end]).unwrap();
    write_sidecar_after_agg(&path, gen.schema());

    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&full[torn_end..]).unwrap();
    drop(f);

    let cold = mk_db(&path, gen.schema(), false);
    let want = cold.query(AGG).unwrap().to_string();
    let want_count = cold.query("SELECT COUNT(*) FROM t").unwrap().to_string();

    let reborn = mk_db(&path, gen.schema(), true);
    let stats = reborn.admin().snapshot_stats();
    assert_eq!(stats.restores, 1, "append keeps the prefix: {stats:?}");
    assert_eq!(stats.restores_rejected, 0, "{stats:?}");
    assert_eq!(reborn.query(AGG).unwrap().to_string(), want);
    assert_eq!(
        reborn.query("SELECT COUNT(*) FROM t").unwrap().to_string(),
        want_count,
        "the formerly torn row and the 20 appended rows are counted once"
    );
    cleanup(&path);
}
