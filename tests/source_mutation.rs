//! Source-mutation safety (ISSUE 10): the backing file is not ours — an
//! external writer may append, truncate, rewrite or atomically replace it
//! at any moment, including mid-scan. These tests pin the contract at the
//! facade level:
//!
//! * between queries, any invalidating change quarantines the adaptive
//!   state and the next query answers cold against the live file;
//! * mid-scan, the epoch guard raises `SourceChanged` instead of merging
//!   poisoned partials, and the facade self-heals with a bounded cold
//!   rescan (`source_change_retries`), surfaced in `QueryReport`;
//! * a trailing torn row (no newline yet) is fenced off until terminated;
//! * the chaos matrix: a mutator thread races an 8-thread query storm
//!   through every mutation kind, and every single answer is either from
//!   one consistent epoch or a clean `SourceChanged` error — never a
//!   mixed-epoch row set.
//!
//! The whole file rides the `NODB_TEST_FAULTS` chaos CI job automatically:
//! the env seed overlays transient I/O faults under every scan here, so
//! epoch handling is exercised with and without flaky I/O beneath it.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nodb_repro::core::{NoDb, QueryCtx};
use nodb_repro::engine::EngineError;
use nodb_repro::prelude::*;

mod common;

fn scratch(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_srcmut_{tag}_{}", std::process::id()));
    p
}

/// A config whose cold scan of a few-MB file reliably takes hundreds of
/// milliseconds (same recipe as the resilience suite: tiny blocks, a fault
/// every refill, retry backoff), so a file mutation landed ~40ms in is
/// deterministically *mid-scan*.
fn slow_chaos_cfg() -> NoDbConfig {
    NoDbConfig {
        scan_threads: 2,
        io_block_size: 4096,
        io_fault_seed: 0xE70C,
        io_fault_one_in: 1,
        io_retry_attempts: 2,
        io_retry_backoff_ms: 4,
        ..NoDbConfig::pm_c()
    }
}

fn gen_table(tag: &str, rows: u64) -> (std::path::PathBuf, GeneratorConfig) {
    let gen = GeneratorConfig::uniform_ints(5, rows, 0xE70);
    let path = scratch(tag);
    gen.generate_file(&path).unwrap();
    (path, gen)
}

/// Reference answer from a fresh, fault-free instance over the file's
/// *current* content.
fn oracle(path: &std::path::Path, schema: Schema, sql: &str) -> QueryResult {
    let mut db = NoDb::new(NoDbConfig::pm_c());
    db.register_csv_with_schema("t", path, schema, false)
        .unwrap();
    db.query(sql).unwrap()
}

/// Truncate `path` to the largest newline boundary at or below `target`.
fn truncate_at_line(path: &std::path::Path, target: usize) -> u64 {
    let content = std::fs::read(path).unwrap();
    let cut = content[..target]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .unwrap();
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(cut as u64).unwrap();
    f.sync_all().unwrap();
    cut as u64
}

/// An invalidating change *between* queries: reconciled silently at the
/// planning probe (no `SourceChanged`, no retry), the adaptive state is
/// quarantined, and the next answer is cold-correct against the live file.
#[test]
fn between_query_rewrite_quarantines_and_recovers() {
    let (path, gen) = gen_table("between", 3_000);
    let sql = "SELECT COUNT(*), SUM(c1) FROM t";
    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 2,
        ..NoDbConfig::pm_c()
    });
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();

    let (r1, rep1) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
    assert_eq!(r1, oracle(&path, gen.schema(), sql));
    assert_eq!(rep1.source_changed, 0);
    let warm = db.snapshot("t").unwrap();
    assert!(warm.map_bytes + warm.cache_bytes > 0, "first query warmed");

    // Rewrite wholesale: different row count, same schema.
    let gen2 = GeneratorConfig::uniform_ints(5, 1_700, 0xBEEF);
    gen2.generate_file(&path).unwrap();

    let (r2, rep2) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
    assert_eq!(r2, oracle(&path, gen.schema(), sql), "cold-correct answer");
    assert_eq!(
        rep2.source_changed, 0,
        "planning-time reconciliation is not a mid-scan self-heal"
    );

    let (source_changes, rows) = db.admin().epoch_report();
    assert_eq!(source_changes, 0);
    assert_eq!(rows.len(), 1);
    let (name, generation, epoch) = &rows[0];
    assert_eq!(name, "t");
    assert!(*generation >= 1, "quarantine bumped the generation");
    assert_eq!(
        epoch.len,
        std::fs::metadata(&path).unwrap().len(),
        "epoch re-keyed to the live file"
    );
    assert_eq!(epoch.trusted_len, epoch.len, "no torn tail");
    std::fs::remove_file(path).ok();
}

/// An append costs a scan of the appended bytes, not of the table (ISSUE
/// 20): the row index already holds the row numbers of everything before
/// them, so the known rows are served from the cache without opening the
/// file and only the tail is read — by `COUNT(*)`, which needs no attribute,
/// and by a filter + aggregate over cached columns alike. After each query
/// the table holds exactly what one row-at-a-time pass over the grown file
/// would leave behind.
#[test]
fn post_append_queries_read_only_the_appended_tail() {
    // Each query with the attributes its predicate reads and those the
    // engine uses.
    let filter = (
        "SELECT COUNT(*), SUM(c1) FROM t WHERE c3 < 500000000",
        vec![3],
        vec![1],
    );
    let count = ("SELECT COUNT(*) FROM t", vec![], vec![]);
    for threads in [1usize, 4] {
        // ~5.5 MB: a pass over the whole file cannot hide in the bound.
        let (path, gen) = gen_table(&format!("tailonly{threads}"), 100_000);
        let cfg = NoDbConfig {
            scan_threads: threads,
            ..NoDbConfig::default()
        };
        let mut db = NoDb::new(cfg);
        db.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        let mut model = common::NaiveModel::load(&path, &gen.schema(), &cfg);

        // A first complete scan, so the filter converts and caches `c1`
        // whole: a file's first filtered scan would convert it for the
        // surviving rows alone.
        db.query(count.0).unwrap();
        model.query(&count.1, &count.2);
        assert_eq!(
            db.query(filter.0).unwrap(),
            oracle(&path, gen.schema(), filter.0)
        );
        model.query(&filter.1, &filter.2);
        common::assert_matches_model(&format!("threads {threads} warm-up"), &db, &model);

        for (sql, pred, used) in [&count, &filter] {
            let tag = format!("threads {threads} after append: {sql}");
            let before = std::fs::metadata(&path).unwrap().len();
            gen.append_rows(&path, 250).unwrap();
            let tail = std::fs::metadata(&path).unwrap().len() - before;
            let (result, report) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
            assert_eq!(result, oracle(&path, gen.schema(), sql), "{tag}");
            assert!(
                report.io.bytes_read <= tail + 2 * cfg.io_block_size as u64,
                "{tag}: read {} bytes for a {tail}-byte tail",
                report.io.bytes_read
            );
            model.note_appended(&path);
            model.query(pred, used);
            common::assert_matches_model(&tag, &db, &model);
        }
        std::fs::remove_file(path).ok();
    }
}

/// A warm query plans under the table's read lock after a read-only epoch
/// probe. After an append the probe sees the file moved, so the query
/// escalates: it reconciles the append under the write lock (the generation
/// moves once, the prepared plan is dropped), then answers with the
/// appended rows. The query after it finds the file unchanged and is fully
/// cached again, with no further reconcile.
#[test]
fn a_query_after_an_append_escalates_and_sees_the_appended_rows() {
    let (path, gen) = gen_table("escalate", 2_000);
    let mut db = NoDb::new(NoDbConfig::default());
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();
    db.admin().enable_prepared_statements(4);
    let sql = "SELECT c0, c2 FROM t WHERE c1 < 600000000";
    let ctx = QueryCtx::unbounded();
    let generation = |db: &NoDb| db.admin().epoch_report().1[0].1;

    // A first complete scan, so the next one caches `c0` whole.
    db.query("SELECT COUNT(*) FROM t").unwrap();
    db.query(sql).unwrap();
    let (_, warm) = db.query_reported(sql, &ctx).unwrap();
    assert!(warm.fully_cached && warm.prepared_hit);
    assert_eq!(generation(&db), 0);

    gen.append_rows(&path, 300).unwrap();
    let (result, report) = db.query_reported(sql, &ctx).unwrap();
    assert_eq!(
        result,
        oracle(&path, gen.schema(), sql),
        "appended rows answered"
    );
    assert!(
        !report.fully_cached,
        "the appended tail is read from the file"
    );
    assert!(
        !report.prepared_hit,
        "the plan of the old generation is dropped"
    );
    assert_eq!(report.source_changed, 0, "an append is no source change");
    assert_eq!(generation(&db), 1, "the append is reconciled once");

    let (again, report) = db.query_reported(sql, &ctx).unwrap();
    assert_eq!(again, result);
    assert!(report.fully_cached && report.prepared_hit);
    assert_eq!(generation(&db), 1);
    assert_eq!(db.admin().epoch_report().0, 0, "no invalidation counted");
    std::fs::remove_file(path).ok();
}

/// Truncation landing mid-scan: the guard raises `SourceChanged`, the
/// facade quarantines and retries cold, and the *same call* returns the
/// right answer for the truncated file with the self-heal counted in its
/// report and in the instance-wide epoch report.
#[test]
fn mid_scan_truncation_self_heals_within_one_call() {
    let (path, gen) = gen_table("heal", 60_000);
    let sql = "SELECT COUNT(*), SUM(c2) FROM t";
    let mut db = NoDb::new(slow_chaos_cfg());
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();
    let db = Arc::new(db);

    let full = std::fs::metadata(&path).unwrap().len() as usize;
    let mutator = {
        let path = path.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            truncate_at_line(&path, full / 2)
        })
    };
    let (result, report) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
    mutator.join().unwrap();

    assert!(
        report.source_changed >= 1,
        "the truncation was detected mid-scan and healed: {report:?}"
    );
    assert_eq!(
        result,
        oracle(&path, gen.schema(), sql),
        "answer reflects the truncated file, no pre-truncation rows leaked"
    );
    let (source_changes, _) = db.admin().epoch_report();
    assert!(source_changes >= 1, "instance-wide counter recorded");

    // The table stays healthy and fully re-learns the new epoch.
    let again = db.query(sql).unwrap();
    assert_eq!(again, oracle(&path, gen.schema(), sql));
    std::fs::remove_file(path).ok();
}

/// With `source_change_retries = 0` the same mid-scan truncation surfaces
/// as a clean `SourceChanged` error — no partial install, and the next
/// query (post-quarantine) answers cold-correct.
#[test]
fn retries_exhausted_surface_source_changed() {
    let (path, gen) = gen_table("exhaust", 60_000);
    let sql = "SELECT SUM(c0) FROM t";
    let mut db = NoDb::new(NoDbConfig {
        source_change_retries: 0,
        ..slow_chaos_cfg()
    });
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();

    let full = std::fs::metadata(&path).unwrap().len() as usize;
    let mutator = {
        let path = path.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            truncate_at_line(&path, full / 2)
        })
    };
    let err = db.query(sql).unwrap_err();
    mutator.join().unwrap();
    assert!(
        matches!(err, EngineError::SourceChanged { .. }),
        "expected SourceChanged, got {err:?}"
    );

    // The failed attempt still quarantined: the rerun answers correctly.
    let rerun = db.query(sql).unwrap();
    assert_eq!(rerun, oracle(&path, gen.schema(), sql));
    std::fs::remove_file(path).ok();
}

/// The torn-row fence end-to-end: a final line with no trailing newline is
/// invisible (a writer is mid-append), and becomes visible — correctly
/// parsed — once its newline lands.
#[test]
fn torn_trailing_row_is_fenced_until_terminated() {
    let path = scratch("torn");
    std::fs::write(&path, "1,10\n2,20\n3,3").unwrap();
    let schema = Schema::new(vec![
        ColumnDef::new("a", ColumnType::Int),
        ColumnDef::new("b", ColumnType::Int),
    ]);
    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 2,
        ..NoDbConfig::pm_c()
    });
    db.register_csv_with_schema("t", &path, schema, false)
        .unwrap();

    let r = db.query("SELECT COUNT(*), SUM(b) FROM t").unwrap();
    assert_eq!(
        r.rows[0],
        vec![Datum::Int(2), Datum::Int(30)],
        "the torn `3,3` tail is fenced off, not parsed as a short row"
    );
    let (_, rows) = db.admin().epoch_report();
    assert!(
        rows[0].2.trusted_len < rows[0].2.len,
        "epoch records the torn tail"
    );

    // The writer finishes the row (append: prefix state is kept).
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"0\n4,40\n").unwrap();
    f.sync_all().unwrap();

    let r = db.query("SELECT COUNT(*), SUM(b) FROM t").unwrap();
    assert_eq!(
        r.rows[0],
        vec![Datum::Int(4), Datum::Int(100)],
        "completed row 3,30 and the new row both visible"
    );
    std::fs::remove_file(path).ok();
}

/// ISSUE 10 satellite: admin budget setters must reach every *live* table
/// (shrinking evicts immediately) and newly registered tables must adopt
/// the updated budgets.
#[test]
fn budget_setters_propagate_to_live_and_future_tables() {
    let (p1, gen) = gen_table("budget1", 4_000);
    let p2 = scratch("budget2");
    gen.generate_file(&p2).unwrap();
    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 2,
        ..NoDbConfig::pm_c()
    });
    db.register_csv_with_schema("t", &p1, gen.schema(), false)
        .unwrap();
    db.query("SELECT SUM(c0), SUM(c1) FROM t").unwrap();
    {
        let h = db.table_handle("t").unwrap();
        let t = h.read();
        assert!(
            t.cache().bytes_used() > 2_000,
            "table warmed past the target"
        );
        assert!(t.map().bytes_used() > 1_000);
    }

    db.admin().set_cache_budget(2_000);
    db.admin().set_map_budget(1_000);
    {
        let h = db.table_handle("t").unwrap();
        let t = h.read();
        assert_eq!(t.cache().budget(), 2_000, "live cache budget");
        assert_eq!(t.map().policy().budget_bytes, 1_000, "live map budget");
        assert!(
            t.cache().bytes_used() <= 2_000,
            "shrink evicted immediately"
        );
        assert!(t.map().bytes_used() <= 1_000, "shrink evicted immediately");
    }

    // A table registered *after* the setters adopts the new budgets.
    db.register_csv_with_schema("t2", &p2, gen.schema(), false)
        .unwrap();
    {
        let h = db.table_handle("t2").unwrap();
        let t = h.read();
        assert_eq!(t.cache().budget(), 2_000);
        assert_eq!(t.map().policy().budget_bytes, 1_000);
    }

    // Queries still answer correctly under the tightened budgets.
    let r = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(4_000)));
    std::fs::remove_file(p1).ok();
    std::fs::remove_file(p2).ok();
}

// ---------------------------------------------------------------------------
// The mutation matrix: every mutation kind racing a query storm.
// ---------------------------------------------------------------------------

/// The mutator's ground truth: the file's logical content as lines, plus
/// the epoch id every current row carries in `c0`.
struct MutatorState {
    path: std::path::PathBuf,
    lines: Vec<String>,
    epoch: u64,
    seq: u64,
}

impl MutatorState {
    fn row(&mut self) -> String {
        self.seq += 1;
        format!("{},{},{}", self.epoch, self.seq, self.seq * 7 % 1_000)
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Append `n` complete rows (same epoch, old bytes untouched).
    fn append(&mut self, n: usize) {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .unwrap();
        for _ in 0..n {
            let l = self.row();
            f.write_all(l.as_bytes()).unwrap();
            f.write_all(b"\n").unwrap();
            self.lines.push(l);
        }
    }

    /// A torn append: half a row without its newline, a pause (queries race
    /// against the torn state), then the rest. The fence must hide the row
    /// until the newline lands.
    fn torn_append(&mut self) {
        let l = self.row();
        let split = l.len() / 2;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .unwrap();
        f.write_all(&l.as_bytes()[..split]).unwrap();
        f.sync_all().ok();
        std::thread::sleep(Duration::from_millis(5));
        f.write_all(&l.as_bytes()[split..]).unwrap();
        f.write_all(b"\n").unwrap();
        self.lines.push(l);
    }

    /// Truncate back to `keep` rows (a newline boundary by construction).
    fn truncate(&mut self, keep: usize) {
        self.lines.truncate(keep);
        let len = self.bytes().len() as u64;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .unwrap();
        f.set_len(len).unwrap();
    }

    /// In-place rewrite (truncate-to-zero + write): a new epoch, with a
    /// window where queries see an empty or partially written file.
    fn rewrite_in_place(&mut self, rows: usize) {
        self.epoch += 1;
        self.lines.clear();
        for _ in 0..rows {
            let l = self.row();
            self.lines.push(l);
        }
        std::fs::write(&self.path, self.bytes()).unwrap();
    }

    /// Atomic replace: write the new epoch to a sibling temp file and
    /// rename it over the original (the delete+recreate kind — the file is
    /// never missing, which is what a sane external writer does).
    fn replace_via_rename(&mut self, rows: usize) {
        self.epoch += 1;
        self.lines.clear();
        for _ in 0..rows {
            let l = self.row();
            self.lines.push(l);
        }
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, self.bytes()).unwrap();
        std::fs::rename(&tmp, &self.path).unwrap();
    }
}

/// The acceptance matrix: append / torn append / truncate / in-place
/// rewrite / atomic replace, each interleaved with an 8-thread query storm.
/// Every query must either answer from ONE epoch (`MIN(c0) == MAX(c0)` —
/// a mixed-epoch merge would straddle two ids) or fail cleanly with
/// `SourceChanged`; no other error is acceptable. After the mutator
/// quiesces, the storm's table must converge to a fresh-cold oracle.
#[test]
fn mutation_matrix_never_serves_mixed_epoch_rows() {
    let path = scratch("matrix");
    let schema = Schema::new(vec![
        ColumnDef::new("epoch", ColumnType::Int),
        ColumnDef::new("seq", ColumnType::Int),
        ColumnDef::new("val", ColumnType::Int),
    ]);
    let mut state = MutatorState {
        path: path.clone(),
        lines: Vec::new(),
        epoch: 0,
        seq: 0,
    };
    state.rewrite_in_place(5_000);

    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 2,
        io_block_size: 4096,
        source_change_retries: 2,
        ..NoDbConfig::pm_c()
    });
    db.register_csv_with_schema("t", &path, schema.clone(), false)
        .unwrap();
    let db = Arc::new(db);
    let done = Arc::new(AtomicBool::new(false));
    let clean_failures = Arc::new(AtomicU64::new(0));
    let sql = "SELECT MIN(epoch), MAX(epoch), COUNT(*) FROM t";

    let storm: Vec<_> = (0..8)
        .map(|worker| {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            let clean_failures = Arc::clone(&clean_failures);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !done.load(Ordering::Relaxed) {
                    match db.query(sql) {
                        Ok(r) => {
                            let row = &r.rows[0];
                            assert_eq!(
                                row[0], row[1],
                                "worker {worker}: mixed-epoch answer {row:?}"
                            );
                            if row[2] == Datum::Int(0) {
                                // Caught the empty window of an in-place
                                // rewrite; MIN/MAX are NULL and equal.
                                assert_eq!(row[0], Datum::Null);
                            }
                            served += 1;
                        }
                        Err(EngineError::SourceChanged { .. }) => {
                            // Retries exhausted under rapid mutation: the
                            // one failure the contract allows.
                            clean_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("worker {worker}: dirty failure {e:?}"),
                    }
                }
                served
            })
        })
        .collect();

    // The matrix, twice over, with real pauses so queries land in every
    // window (steady state, torn tail, truncated, empty, fresh epoch).
    for round in 0..2 {
        state.append(300);
        std::thread::sleep(Duration::from_millis(15));
        state.torn_append();
        std::thread::sleep(Duration::from_millis(15));
        state.truncate(2_000 + round * 500);
        std::thread::sleep(Duration::from_millis(15));
        state.rewrite_in_place(3_000);
        std::thread::sleep(Duration::from_millis(15));
        state.replace_via_rename(4_000);
        std::thread::sleep(Duration::from_millis(15));
    }
    done.store(true, Ordering::Relaxed);
    let served: u64 = storm.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        served > 0,
        "the storm answered queries while racing mutations"
    );

    // Quiesced: the raced instance must converge to a fresh-cold oracle on
    // the final file — same answer, and the final epoch id.
    let converged = db.query(sql).unwrap();
    assert_eq!(converged, oracle(&path, schema, sql));
    assert_eq!(converged.rows[0][0], Datum::Int(state.epoch as i64));
    assert_eq!(
        converged.rows[0][2],
        Datum::Int(state.lines.len() as i64),
        "row count matches the mutator's ground truth"
    );
    std::fs::remove_file(path).ok();
}
