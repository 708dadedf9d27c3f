//! The client surface: registering raw files and running queries.
//!
//! [`NoDb`] is what applications (and `nodb-server` connections) hold:
//! `register_*`, `query`/`query_with_ctx`, `snapshot`, `schema`. Everything
//! operational — budgets, update probes, the scan-thread budget, the
//! prepared-statement cache, the last query report — lives behind
//! [`NoDb::admin`] on the [`Admin`] surface, so
//! the type a request handler touches has exactly the methods a request
//! needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nodb_engine::{execute, plan_select, EngineError, EngineResult, QueryResult};
use nodb_rawcsv::tokenizer::TokenizerConfig;
use nodb_rawcsv::{infer, Schema};
use nodb_sqlparse::parse_select;
use nodb_stats::estimate::NoStats;
use parking_lot::RwLockWriteGuard;

use crate::admission::ScanBudget;
use crate::api::admin::Admin;
use crate::api::prepared::{CachedPlan, PreparedCache};
use crate::config::NoDbConfig;
use crate::ctx::QueryCtx;
use crate::metrics::{timed, QueryReport, SystemSnapshot};
use crate::rawscan::{self, ScanTelemetry, TelemetryHandle};
use crate::registry::{TableHandle, TableRegistry};
use crate::table::RawTable;

/// The NoDB system: a set of registered raw files and their adaptive
/// auxiliary structures, queryable with SQL from the first second.
///
/// Queries take `&self` and may run concurrently from many threads; the
/// per-table locking discipline is documented on [`crate::registry`]. The
/// operational knobs live on [`NoDb::admin`] and also take `&self`, so an
/// operator can turn the demo's storage sliders on a live `Arc<NoDb>`
/// while clients keep querying (each query works from a config snapshot
/// taken at its start).
///
/// Two optional serving-layer features are installed through the admin
/// surface and change `query_with_ctx`'s behavior for every caller:
///
/// * a [`ScanBudget`] — queries acquire scan-thread permits from one
///   global semaphore before touching any table lock, so N concurrent
///   queries never run more than the budget's capacity of scan threads in
///   total (and queries past the bounded admission queue fail fast with
///   [`EngineError::Overloaded`]);
/// * a [`PreparedCache`] — repeat SQL strings skip parse+plan; a hit is
///   visible as `QueryReport::prepared_hit` with a zero
///   `Breakdown::planning` slice.
pub struct NoDb {
    pub(crate) config: parking_lot::RwLock<NoDbConfig>,
    pub(crate) tables: TableRegistry,
    pub(crate) last_report: Mutex<Option<QueryReport>>,
    pub(crate) scan_budget: parking_lot::RwLock<Option<Arc<ScanBudget>>>,
    pub(crate) prepared: parking_lot::RwLock<Option<Arc<PreparedCache>>>,
    pub(crate) snapshot_counters: SnapshotCounters,
    /// Lifetime count of source-epoch invalidations (quarantine + cold
    /// rescan after a backing file was truncated/rewritten), across every
    /// query — the instance-level view behind the server's `EPOCH?` verb.
    pub(crate) source_changes: AtomicU64,
}

/// Atomic backing for [`crate::metrics::SnapshotTelemetry`]; incremented
/// from restore (registration) and write-behind (query tail) paths without
/// any lock.
#[derive(Default)]
pub(crate) struct SnapshotCounters {
    pub(crate) saves: AtomicU64,
    pub(crate) save_failures: AtomicU64,
    pub(crate) restores: AtomicU64,
    pub(crate) restores_rejected: AtomicU64,
}

impl SnapshotCounters {
    pub(crate) fn snapshot(&self) -> crate::metrics::SnapshotTelemetry {
        crate::metrics::SnapshotTelemetry {
            saves: self.saves.load(Ordering::Relaxed),
            save_failures: self.save_failures.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            restores_rejected: self.restores_rejected.load(Ordering::Relaxed),
        }
    }
}

impl NoDb {
    /// A new instance with the given configuration. Out-of-range I/O knobs
    /// are clamped here ([`NoDbConfig::validated`]) so every query runs on
    /// a sane block size.
    pub fn new(config: NoDbConfig) -> Self {
        NoDb {
            config: parking_lot::RwLock::new(config.validated()),
            tables: TableRegistry::new(),
            last_report: Mutex::new(None),
            scan_budget: parking_lot::RwLock::new(None),
            prepared: parking_lot::RwLock::new(None),
            snapshot_counters: SnapshotCounters::default(),
            source_changes: AtomicU64::new(0),
        }
    }

    /// The operational/administrative surface: budgets, update probes,
    /// admission control, prepared statements, query reports.
    pub fn admin(&self) -> Admin<'_> {
        Admin { db: self }
    }

    /// Configuration in force (a copy; the live budgets can move under the
    /// interactive knobs).
    pub fn config(&self) -> NoDbConfig {
        *self.config.read()
    }

    /// Register a raw file, sniffing the delimiter (comma, tab, semicolon
    /// or pipe) and inferring the schema from a bounded sample — the only
    /// bytes touched before the first query.
    pub fn register_csv(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> EngineResult<()> {
        let inferred = infer::infer_schema_sniffed(&path, 100)?;
        self.register_csv_with_options(
            name,
            path,
            inferred.schema,
            inferred.has_header,
            inferred.tokenizer,
        )
    }

    /// Register with an explicit tokenizer configuration (delimiter, quote
    /// character). Quoted files keep selective tokenizing, caching and
    /// statistics but bypass the positional map (see `rawscan`).
    pub fn register_csv_with_options(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        schema: Schema,
        has_header: bool,
        tokenizer: TokenizerConfig,
    ) -> EngineResult<()> {
        let mut table =
            RawTable::register_with_tokenizer(path, schema, has_header, &self.config(), tokenizer)?;
        self.restore_snapshot_if_enabled(&mut table);
        self.tables.insert(name, table);
        Ok(())
    }

    /// Register a raw CSV file with a known schema.
    pub fn register_csv_with_schema(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        schema: Schema,
        has_header: bool,
    ) -> EngineResult<()> {
        let mut table = RawTable::register(path, schema, has_header, &self.config())?;
        self.restore_snapshot_if_enabled(&mut table);
        self.tables.insert(name, table);
        Ok(())
    }

    /// Restore a freshly registered table's sidecar snapshot when the knob
    /// is on. Restore failures of every kind leave the table cold and are
    /// only counted — registration never fails because a *hint* was bad.
    fn restore_snapshot_if_enabled(&self, table: &mut RawTable) {
        let config = self.config();
        if !config.snapshot_persistence {
            return;
        }
        match table.try_restore_snapshot(&config) {
            crate::table::RestoreOutcome::Restored { .. } => {
                self.snapshot_counters
                    .restores
                    .fetch_add(1, Ordering::Relaxed);
            }
            crate::table::RestoreOutcome::Rejected(_) => {
                self.snapshot_counters
                    .restores_rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
            crate::table::RestoreOutcome::NoSidecar => {}
        }
    }

    /// Write-behind: persist `handle`'s adaptive state if it grew since the
    /// last save. The signature check and the capture run under the read
    /// lock: the save is claimed by swapping the last saved signature for
    /// the new one, so of several queries that see the same growth, one
    /// saves it. The encode and the fsync'd atomic write run with no lock
    /// held, so concurrent queries stream on undisturbed. Failures are
    /// counted and the signature reset, so the next query retries.
    pub(crate) fn write_snapshot_behind(&self, handle: &TableHandle) {
        let captured = {
            let table = handle.read();
            let sig = table.snapshot_signature();
            let last = table.last_snapshot_sig.load(Ordering::Relaxed);
            let claimed = sig != last
                && table
                    .last_snapshot_sig
                    .compare_exchange(last, sig, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            claimed.then(|| (table.path().to_path_buf(), table.capture_snapshot()))
        };
        let Some((path, snap)) = captured else { return };
        match nodb_snapshot::save_snapshot(&path, &snap) {
            Ok(_) => {
                self.snapshot_counters.saves.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.snapshot_counters
                    .save_failures
                    .fetch_add(1, Ordering::Relaxed);
                // Retry on the next query that grows state (or the next
                // save attempt of any kind).
                handle.read().last_snapshot_sig.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Execute one SQL query. Everything adaptive happens as a side effect:
    /// update detection, access planning, map/cache/statistics population.
    ///
    /// Takes `&self`: any number of threads may call this concurrently on
    /// one instance. A query plans and scans under the table's read lock.
    /// The write lock is taken only to reconcile a file change found by
    /// the pre-query probe, and to install what a raw scan staged; a fully
    /// cached query never takes it. If another query reconciles a file
    /// change before the install, this query answers from what it read and
    /// installs nothing.
    pub fn query(&self, sql: &str) -> EngineResult<QueryResult> {
        let ctx = QueryCtx::from_timeout_ms(self.config().query_timeout_ms);
        self.query_with_ctx(sql, &ctx)
    }

    /// Execute one SQL query under a caller-supplied [`QueryCtx`]: a
    /// deadline and/or a [`crate::ctx::CancelToken`] another thread can
    /// trip. The scan polls the context cooperatively (partition workers,
    /// block refills, batch loops); a stopped query
    /// fails with [`EngineError::Cancelled`] /
    /// [`EngineError::DeadlineExceeded`] *after* merging whatever
    /// map/cache/statistics partials completed, so the retry starts warmer
    /// than the original (see `rawscan`'s partial-merge docs).
    pub fn query_with_ctx(&self, sql: &str, ctx: &QueryCtx) -> EngineResult<QueryResult> {
        self.query_reported(sql, ctx).map(|(result, _)| result)
    }

    /// Like [`Self::query_with_ctx`], but also returns this query's own
    /// [`QueryReport`]. Under concurrency this is the only race-free way to
    /// read a report: `Admin::last_report` is last-writer-wins across all
    /// in-flight queries, while the report returned here is the one this
    /// call produced. The serving layer uses it to stamp per-response
    /// status (rows, prepared-hit, cache state, latency).
    pub fn query_reported(
        &self,
        sql: &str,
        ctx: &QueryCtx,
    ) -> EngineResult<(QueryResult, QueryReport)> {
        let t0 = Instant::now();
        ctx.check()?;
        let mut config = self.config();

        // Admission first, before any table lock: a query holding the
        // table's write lock while waiting for scan-thread permits could
        // deadlock against admitted queries that need that same lock. The
        // grant rides to the end of the function and releases on every
        // exit path (including errors), and it *clamps* the config's
        // thread fan-out — granted permits are what the scan may spawn.
        let budget = self.scan_budget.read().clone();
        let mut admission_wait = Duration::ZERO;
        let mut lock_wait = Duration::ZERO;
        let grant = match budget.as_ref() {
            Some(b) => {
                let grant = timed(&mut admission_wait, || {
                    b.acquire(config.effective_scan_threads(), ctx)
                })?;
                config.scan_threads = grant.permits();
                Some(grant)
            }
            None => None,
        };
        // The budget's recent grants overlapped other queries
        // (`ScanGrant::shared`): a fully-cached aggregate then folds on this
        // thread alone, as a helper thread would only take a CPU from them.
        let shared = grant.as_ref().is_some_and(|g| g.shared());

        // Plan resolution: a prepared-cache entry whose table handle is
        // still the registered one short-circuits parse+plan; validity
        // against file state (generation) is decided below, under the same
        // table lock fresh planning would take, after the update probe.
        let prepared_cache = self.prepared.read().clone();
        let mut planning = Duration::ZERO;
        let mut cached_entry: Option<CachedPlan> = None;
        if let Some(cache) = prepared_cache.as_ref() {
            if let Some(entry) = cache.lookup(sql) {
                let live = self
                    .tables
                    .get(&entry.table)
                    .zip(entry.handle.upgrade())
                    .is_some_and(|(current, seen)| Arc::ptr_eq(&current, &seen));
                if live {
                    cached_entry = Some(entry);
                } else {
                    cache.note_invalidated();
                }
            }
        }
        let (table_name, handle, parsed_stmt) = match &cached_entry {
            Some(entry) => {
                let handle = self
                    .tables
                    .get(&entry.table)
                    .ok_or_else(|| EngineError::UnknownTable(entry.table.clone()))?;
                (entry.table.clone(), handle, None)
            }
            None => {
                let tp = Instant::now();
                let stmt = parse_select(sql)?;
                planning += tp.elapsed();
                let handle = self
                    .tables
                    .get(&stmt.table)
                    .ok_or_else(|| EngineError::UnknownTable(stmt.table.clone()))?;
                (stmt.table.clone(), handle, Some(stmt))
            }
        };
        let telemetry: TelemetryHandle = Arc::new(Mutex::new(ScanTelemetry::default()));

        // Planning under the read guard the scan then runs under: update
        // probe, cached-plan validation or statistics-driven planning, usage
        // counters. A file that moved is reconciled under the write lock,
        // downgraded back to a read guard, so no writer lands between the
        // reconcile and the plan. The whole plan+scan region lives in one
        // block so the guard is dead before the post-query snapshot
        // write-behind re-locks the table.
        let (planned, prepared_hit, result, engine_elapsed) = {
            let mut guard = timed(&mut lock_wait, || handle.read());
            if config.detect_updates && !guard.epoch_unchanged() {
                drop(guard);
                let mut table = timed(&mut lock_wait, || handle.write());
                // `check_updates` classifies again: another query may have
                // reconciled the change meanwhile. An epoch that cannot be
                // re-captured (the file never holds still) escapes as
                // `SourceChanged` before any scan ran; count it like the
                // mid-scan kind.
                table.check_updates().inspect_err(|e| {
                    if matches!(e, EngineError::SourceChanged { .. }) {
                        self.source_changes.fetch_add(1, Ordering::Relaxed);
                    }
                })?;
                guard = RwLockWriteGuard::downgrade(table);
            }
            let (planned, prepared_hit) = {
                let table = &*guard;
                match cached_entry {
                    Some(entry) if entry.generation == table.generation => {
                        if let Some(cache) = prepared_cache.as_ref() {
                            cache.note_hit();
                        }
                        (entry.planned, true)
                    }
                    stale => {
                        if stale.is_some() {
                            // Generation moved (append/replace reconciled by the
                            // probe above): the cached plan is for old file
                            // state, replan exactly as a fresh query would.
                            if let Some(cache) = prepared_cache.as_ref() {
                                cache.note_invalidated();
                            }
                        }
                        let tp = Instant::now();
                        let stmt = match parsed_stmt {
                            Some(stmt) => stmt,
                            None => parse_select(sql)?,
                        };
                        let planned = if config.enable_stats {
                            plan_select(&stmt, &table.schema, &table.stats)?
                        } else {
                            plan_select(&stmt, &table.schema, &NoStats)?
                        };
                        planning += tp.elapsed();
                        if let Some(cache) = prepared_cache.as_ref() {
                            cache.insert(
                                sql,
                                &table_name,
                                &handle,
                                table.generation,
                                planned.clone(),
                            );
                        }
                        (planned, false)
                    }
                }
            };
            for &attr in &planned.scan.attrs {
                if let Some(count) = guard.attr_access.get(attr) {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            }

            // Engine (pipeline-above-the-scan) time, measured around the
            // execute call. A raw scan has staged its batches by then; a
            // fully-cached one streams lazily inside the call and times
            // itself (`ScanTelemetry::cached_stream`), and that time is
            // charged out of the engine's slice below, so the report
            // separates scan work from engine work either way. A
            // fully-cached aggregate folded on helper threads adds their
            // time (`ScanTelemetry::fold_helpers`) and takes off the calling
            // thread's wait for them (`fold_wait`): the engine slice is then
            // the workers' summed fold time, as a parallel raw scan's
            // phase slices are summed thread time.
            let mut engine_elapsed = Duration::ZERO;
            let mut source_retries = config.source_change_retries;
            let mut source_changes = 0u64;
            let outcome: EngineResult<QueryResult> = loop {
                if let Err(e) = ctx.check() {
                    drop(guard);
                    break Err(e);
                }
                // One scan: it prepares and reads under the planning guard;
                // a fully-cached one executes under it too, a raw scan
                // installs under a fresh write lock and executes under no
                // lock. The engine takes no table lock. Every exit leaves
                // the table unlocked, so the `SourceChanged` handler below
                // can re-acquire it.
                let e = match rawscan::scan_shared(
                    &handle,
                    guard,
                    &config,
                    planned.scan.clone(),
                    &telemetry,
                    ctx.clone(),
                    shared,
                    &mut lock_wait,
                    |source| {
                        let t = Instant::now();
                        (execute(&planned, source), t.elapsed())
                    },
                ) {
                    Ok((r, elapsed)) => {
                        engine_elapsed = elapsed;
                        break r;
                    }
                    Err(e) => e,
                };
                // Self-healing cold rescan: the backing file was truncated
                // or rewritten mid-scan. Quarantine the now epoch-mismatched
                // adaptive state, re-key the table to the fresh epoch, and
                // retry cold — bounded by `source_change_retries`, so a file
                // mutating faster than it can be scanned still surfaces the
                // error. Besides the guard's own `SourceChanged`, a
                // *raw-data* error on a file whose epoch moved since
                // planning is treated the same way: a rewrite can misalign
                // in-flight reads into parse errors before any bounds check
                // fires, and blaming the data would mask the real cause.
                let heal = source_retries > 0
                    && match &e {
                        EngineError::SourceChanged { .. } => true,
                        EngineError::Csv(_) if config.detect_updates => {
                            let t = timed(&mut lock_wait, || handle.read());
                            t.epoch().is_dead(t.path())
                        }
                        _ => false,
                    };
                if !heal {
                    break Err(e);
                }
                source_retries -= 1;
                source_changes += 1;
                let mut table = timed(&mut lock_wait, || handle.write());
                if let Err(e) = table.quarantine() {
                    break Err(e);
                }
                guard = RwLockWriteGuard::downgrade(table);
            };
            if source_changes > 0 {
                rawscan::lock_recover(&telemetry).source_changed = source_changes;
                self.source_changes
                    .fetch_add(source_changes, Ordering::Relaxed);
            }
            (planned, prepared_hit, outcome?, engine_elapsed)
        };

        let total = t0.elapsed();
        let mut tel = rawscan::lock_recover(&telemetry);
        let mut breakdown = tel.breakdown;
        let scan_time = breakdown.io
            + breakdown.tokenizing
            + breakdown.parsing
            + breakdown.convert
            + breakdown.nodb;
        breakdown.engine =
            (engine_elapsed + tel.fold_helpers).saturating_sub(tel.cached_stream + tel.fold_wait);
        breakdown.planning = planning;
        // Processing = everything not attributed to a scan phase, the
        // engine pipeline or planning. The admission and lock waits are
        // parts of it, clamped into it: a parallel scan's phase slices sum
        // over its workers and can exceed the wall clock they ran in.
        breakdown.processing = total.saturating_sub(scan_time + breakdown.engine + planning);
        breakdown.admission_wait = admission_wait.min(breakdown.processing);
        breakdown.lock_wait = lock_wait.min(breakdown.processing - breakdown.admission_wait);
        let report = QueryReport {
            total,
            breakdown,
            io: tel.io,
            rows_scanned: tel.rows_scanned,
            rows_returned: result.len() as u64,
            cache_hits: tel.cache_hits,
            cache_misses: tel.cache_misses,
            fully_cached: tel.fully_cached,
            prepared_hit,
            installed_chunk: tel.installed_chunk,
            rows_quarantined: tel.rows_quarantined,
            quarantine_samples: std::mem::take(&mut tel.quarantine_samples),
            source_changed: tel.source_changed,
            plan: planned.explain(),
        };
        drop(tel);
        *rawscan::lock_recover(&self.last_report) = Some(report.clone());
        // Write-behind persistence: after the query is fully answered (and
        // its report published), save the table's adaptive state if this
        // query grew it. Never fails the query — save errors are counted
        // in the snapshot telemetry and retried on the next growth.
        if config.snapshot_persistence {
            self.write_snapshot_behind(&handle);
        }
        Ok((result, report))
    }

    /// The Figure 2 monitoring panel for one table.
    pub fn snapshot(&self, table: &str) -> Option<SystemSnapshot> {
        self.tables.get(table).map(|h| h.read().snapshot())
    }

    /// Schema of a registered table.
    pub fn schema(&self, table: &str) -> Option<Schema> {
        self.tables.get(table).map(|h| h.read().schema().clone())
    }

    /// Names of every registered table, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.names()
    }

    /// Shared handle to a registered table (experiment harness / tests).
    /// Lock it (`read`/`write`) to inspect or tweak the adaptive state.
    pub fn table_handle(&self, name: &str) -> Option<TableHandle> {
        self.tables.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::{Datum, GeneratorConfig};
    use std::path::PathBuf;

    fn tmp_csv(cols: usize, rows: u64, seed: u64) -> (PathBuf, GeneratorConfig) {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_facade_{cols}_{rows}_{seed}_{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = GeneratorConfig::uniform_ints(cols, rows, seed);
        cfg.generate_file(&p).unwrap();
        (p, cfg)
    }

    #[test]
    fn facade_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<NoDb>();
        assert_shareable::<TableHandle>();
    }

    #[test]
    fn zero_load_query_and_adaptive_speedup_state() {
        let (p, gen) = tmp_csv(6, 1000, 11);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();

        let r1 = db
            .query("SELECT c1, c4 FROM t WHERE c2 > 500000000")
            .unwrap();
        let rep1 = db.admin().last_report().unwrap();
        assert_eq!(rep1.rows_scanned, 1000);
        assert!(!rep1.fully_cached);
        assert!(rep1.io.bytes_read > 0);

        // The file's first scan converted `c1` and `c4` for the surviving
        // rows alone, so it cached only the predicate's `c2`.
        let resident = db.table_handle("t").unwrap().read().cache().resident();
        assert_eq!(resident, vec![(2, 1000)]);

        // The second run converts them whole from the raw file.
        let r2 = db
            .query("SELECT c1, c4 FROM t WHERE c2 > 500000000")
            .unwrap();
        let rep2 = db.admin().last_report().unwrap();
        assert_eq!(r1, r2, "adaptive rerun must be identical");
        assert!(!rep2.fully_cached);
        assert!(rep2.io.bytes_read > 0);

        let r3 = db
            .query("SELECT c1, c4 FROM t WHERE c2 > 500000000")
            .unwrap();
        let rep3 = db.admin().last_report().unwrap();
        assert_eq!(r1, r3, "adaptive rerun must be identical");
        assert!(rep3.fully_cached, "third run served from cache");
        assert_eq!(rep3.io.bytes_read, 0);
        assert!(rep3.cache_hits > 0, "cached rerun tallies its own hits");
        // The warm query's time splits into scan side (zeroed here: no file
        // access) and the engine pipeline, which the report now separates.
        assert!(
            rep3.breakdown.engine > std::time::Duration::ZERO,
            "engine phase measured"
        );
        assert!(rep3.breakdown.engine <= rep3.total);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn snapshot_evolves_with_queries() {
        let (p, gen) = tmp_csv(5, 200, 12);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        let s0 = db.snapshot("t").unwrap();
        assert_eq!(s0.map_bytes + s0.cache_bytes, 0);
        db.query("SELECT c0 FROM t").unwrap();
        let s1 = db.snapshot("t").unwrap();
        assert!(s1.map_bytes > 0 || s1.cache_bytes > 0);
        assert_eq!(s1.attr_access_counts[0], (0, 1));
        assert_eq!(s1.row_count, Some(200));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn schema_inference_path_works_end_to_end() {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_facade_infer_{}", std::process::id()));
        std::fs::write(&p, "id,name,score\n1,alice,2.5\n2,bob,3.5\n").unwrap();
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv("people", &p).unwrap();
        let r = db.query("SELECT name FROM people WHERE score > 3").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::from("bob")]]);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn aggregates_over_raw_files() {
        let (p, gen) = tmp_csv(3, 500, 13);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Datum::Int(500)));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn append_detected_next_query_sees_new_rows() {
        let (p, gen) = tmp_csv(3, 100, 14);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Datum::Int(100))
        );
        gen.append_rows(&p, 50).unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Datum::Int(150)),
            "appended rows visible to the next query"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn replacement_detected_and_state_dropped() {
        let (p, gen) = tmp_csv(3, 100, 15);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        db.query("SELECT c0 FROM t").unwrap();
        assert!(db.snapshot("t").unwrap().cache_bytes > 0);
        // Replace with a smaller file of the same shape.
        let gen2 = GeneratorConfig::uniform_ints(3, 10, 99);
        gen2.generate_file(&p).unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Datum::Int(10))
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn budget_knobs_apply_immediately() {
        let (p, gen) = tmp_csv(4, 200, 16);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        db.query("SELECT c0, c1 FROM t").unwrap();
        assert!(db.snapshot("t").unwrap().cache_bytes > 0);
        db.admin().set_cache_budget(0);
        db.admin().set_map_budget(0);
        let s = db.snapshot("t").unwrap();
        assert_eq!(s.cache_bytes, 0);
        assert_eq!(s.map_bytes, 0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn unknown_table_is_reported() {
        let db = NoDb::new(NoDbConfig::default());
        assert!(matches!(
            db.query("SELECT a FROM missing"),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn baseline_config_answers_but_learns_nothing() {
        let (p, gen) = tmp_csv(4, 300, 17);
        let mut db = NoDb::new(NoDbConfig::baseline());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        db.query("SELECT c1 FROM t").unwrap();
        db.query("SELECT c1 FROM t").unwrap();
        let rep = db.admin().last_report().unwrap();
        assert!(!rep.fully_cached);
        assert!(rep.io.bytes_read > 0, "baseline re-reads every query");
        let s = db.snapshot("t").unwrap();
        assert_eq!(s.map_bytes + s.cache_bytes, 0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn concurrent_queries_share_one_table() {
        let (p, gen) = tmp_csv(5, 400, 18);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        let sql = "SELECT c1, c3 FROM t WHERE c2 < 700000000";
        let expect = db.query(sql).unwrap();

        let db = Arc::new(db);
        let results: Vec<QueryResult> = std::thread::scope(|s| {
            (0..6)
                .map(|_| {
                    let db = Arc::clone(&db);
                    s.spawn(move || db.query(sql).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r, expect, "concurrent query must match sequential");
        }
        std::fs::remove_file(p).unwrap();
    }

    /// The lock contract of a warm query: one that finds the file unchanged
    /// and every column cached plans, streams and saves under the table's
    /// read lock alone. With another thread holding a read guard — under
    /// which any `write()` would block — a fresh plan, a prepared hit and
    /// the snapshot write-behind all complete.
    #[test]
    fn fully_cached_queries_never_take_the_write_lock() {
        let (p, gen) = tmp_csv(4, 2_000, 23);
        let mut db = NoDb::new(NoDbConfig {
            snapshot_persistence: true,
            ..NoDbConfig::default()
        });
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        db.admin().enable_prepared_statements(8);
        let prepared = "SELECT c1 FROM t WHERE c2 > 100";
        let fresh = "SELECT c2, c1 FROM t WHERE c1 < 500000000";
        // A first complete scan, so the next one converts and caches whole
        // columns.
        db.query("SELECT COUNT(*) FROM t").unwrap();
        let cold = db.query(prepared).unwrap();
        let handle = db.table_handle("t").unwrap();
        let ctx = QueryCtx::default();
        let (tx, rx) = std::sync::mpsc::channel();
        let answered = std::thread::scope(|s| {
            // Owned by this closure, so a failed wait below drops it while
            // unwinding and the blocked query can finish.
            let guard = handle.read();
            let db = &db;
            let ctx = &ctx;
            s.spawn(move || {
                for sql in [prepared, fresh] {
                    tx.send((sql, db.query_reported(sql, ctx))).unwrap();
                }
            });
            let answered: Vec<QueryResult> = [(prepared, true), (fresh, false)]
                .into_iter()
                .map(|(sql, want_hit)| {
                    let (got, outcome) = rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("a fully-cached query waited for the table's write lock");
                    assert_eq!(got, sql);
                    let (result, report) = outcome.unwrap();
                    assert!(report.fully_cached, "{sql}");
                    assert_eq!(report.prepared_hit, want_hit, "{sql}");
                    result
                })
                .collect();
            drop(guard);
            answered
        });
        assert_eq!(answered[0], cold);
        assert_eq!(answered[1], db.query(fresh).unwrap());
        assert!(db.admin().snapshot_stats().saves > 0, "write-behind ran");
        std::fs::remove_file(nodb_snapshot::sidecar_path(&p)).unwrap();
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn prepared_cache_hits_skip_parse_and_plan() {
        let (p, gen) = tmp_csv(4, 300, 19);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        db.admin().enable_prepared_statements(8);
        let sql = "SELECT c1 FROM t WHERE c2 > 100";
        let r1 = db.query(sql).unwrap();
        let rep1 = db.admin().last_report().unwrap();
        assert!(!rep1.prepared_hit, "first run plans from scratch");
        let r2 = db.query(sql).unwrap();
        let rep2 = db.admin().last_report().unwrap();
        assert_eq!(r1, r2, "prepared rerun must be identical");
        assert!(rep2.prepared_hit, "second run served from the plan cache");
        assert_eq!(
            rep2.breakdown.planning,
            Duration::ZERO,
            "prepared hit deletes the planning slice"
        );
        assert!(
            rep1.breakdown.planning > Duration::ZERO,
            "cold run records parse+plan time"
        );
        let stats = db.admin().prepared_stats().unwrap();
        assert_eq!(stats.hits, 1);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn prepared_cache_invalidated_by_append() {
        let (p, gen) = tmp_csv(3, 100, 20);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        db.admin().enable_prepared_statements(8);
        let sql = "SELECT COUNT(*) FROM t";
        assert_eq!(db.query(sql).unwrap().scalar(), Some(&Datum::Int(100)));
        assert_eq!(db.query(sql).unwrap().scalar(), Some(&Datum::Int(100)));
        assert!(db.admin().last_report().unwrap().prepared_hit);
        gen.append_rows(&p, 25).unwrap();
        assert_eq!(
            db.query(sql).unwrap().scalar(),
            Some(&Datum::Int(125)),
            "append visible despite the cached plan"
        );
        let rep = db.admin().last_report().unwrap();
        assert!(
            !rep.prepared_hit,
            "generation bump forces a replan after append"
        );
        let stats = db.admin().prepared_stats().unwrap();
        assert!(stats.invalidations >= 1);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn scan_budget_clamps_fan_out_and_tracks_peaks() {
        let (p, gen) = tmp_csv(4, 2000, 21);
        let mut db = NoDb::new(NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        });
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        let budget = Arc::new(crate::admission::ScanBudget::new(2));
        db.admin().install_scan_budget(Arc::clone(&budget));
        let expect = {
            // Reference result from a budget-free instance.
            let mut free = NoDb::new(NoDbConfig::default());
            free.register_csv_with_schema("t", &p, gen.schema(), false)
                .unwrap();
            free.query("SELECT COUNT(*) FROM t").unwrap()
        };
        let db = Arc::new(db);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let db = Arc::clone(&db);
                let expect = expect.clone();
                s.spawn(move || {
                    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap(), expect);
                });
            }
        });
        let t = budget.telemetry();
        assert!(
            t.peak_in_flight <= t.capacity,
            "budget never exceeded: {t:?}"
        );
        assert_eq!(t.admitted, 6);
        assert_eq!(t.in_flight, 0, "all grants returned");
        std::fs::remove_file(p).unwrap();
    }

    /// A budget grant sets only how many workers claim a scan's slices,
    /// never the slices: a cold bare `LIMIT` at `scan_threads: 4` installs
    /// the same prefix whether four workers ran it or the one permit a
    /// budget granted.
    #[test]
    fn budget_grant_leaves_a_cold_bare_limit_the_same_state() {
        let (p, gen) = tmp_csv(4, 20_000, 23);
        let run = |budget: Option<Arc<crate::admission::ScanBudget>>| {
            let mut db = NoDb::new(NoDbConfig {
                scan_threads: 4,
                ..NoDbConfig::default()
            });
            db.register_csv_with_schema("t", &p, gen.schema(), false)
                .unwrap();
            if let Some(budget) = budget {
                db.admin().install_scan_budget(budget);
            }
            let sql = "SELECT c0, c2 FROM t WHERE c1 < 300000000 LIMIT 10";
            let rows = db.query(sql).unwrap();
            (db, rows)
        };
        let budget = Arc::new(crate::admission::ScanBudget::new(1));
        let (free, a) = run(None);
        let (granted, b) = run(Some(Arc::clone(&budget)));
        assert_eq!(a, b);
        assert_eq!(budget.telemetry().peak_in_flight, 1, "one permit granted");
        let (hf, hg) = (
            free.table_handle("t").unwrap(),
            granted.table_handle("t").unwrap(),
        );
        let (tf, tg) = (hf.read(), hg.read());
        assert!(
            !tf.map.row_index().is_complete(),
            "the LIMIT stopped the scan"
        );
        assert_eq!(tf.map.row_index().starts(), tg.map.row_index().starts());
        for attr in 0..4 {
            assert_eq!(
                tf.map.coverage(attr),
                tg.map.coverage(attr),
                "chunk c{attr}"
            );
            assert_eq!(
                tf.cache.coverage(attr),
                tg.cache.coverage(attr),
                "cache c{attr}"
            );
            assert_eq!(
                tf.stats.observed_upto(attr),
                tg.stats.observed_upto(attr),
                "stats c{attr}"
            );
        }
        std::fs::remove_file(p).unwrap();
    }

    /// A fully-cached query's stream — the predicate kernel over the cache
    /// windows — runs inside the engine's call, but its time is charged to
    /// `processing`, where a scan's time outside every phase slice goes, not
    /// to `engine`: a `COUNT(*)` whose work is almost all kernel reports
    /// less engine time than processing.
    #[test]
    fn cached_stream_time_stays_in_processing() {
        let (p, gen) = tmp_csv(4, 120_000, 41);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        let sql = "SELECT COUNT(*) FROM t WHERE c3 < 500000000";
        db.query(sql).unwrap();
        let (mut engine, mut processing) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..5 {
            let (_, rep) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
            assert!(rep.fully_cached && rep.rows_scanned == 120_000, "{rep:?}");
            engine += rep.breakdown.engine;
            processing += rep.breakdown.processing;
        }
        assert!(
            engine < processing,
            "engine {engine:?}, processing {processing:?}"
        );
        std::fs::remove_file(p).unwrap();
    }

    /// A fully-cached aggregate folded on several workers reports what the
    /// serial fold does: its ranges add their streamed rows and hits, so
    /// `rows_scanned`, `cache_hits` and the cache's hit ratio are equal at
    /// `scan_threads` 1 and 4, and the engine slice stays above zero while
    /// `processing` is clamped into the wall clock.
    #[test]
    fn parallel_fold_reports_the_serial_telemetry() {
        let rows = 12 * nodb_engine::batch::BATCH_SIZE as u64 + 77;
        let (p, gen) = tmp_csv(4, rows, 43);
        let sql = "SELECT COUNT(*), SUM(c1), MIN(c2), MAX(c0) FROM t WHERE c3 < 500000000";
        let run = |threads: usize| {
            let mut db = NoDb::new(NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            });
            db.register_csv_with_schema("t", &p, gen.schema(), false)
                .unwrap();
            db.query("SELECT * FROM t").unwrap();
            let (r, rep) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
            assert!(rep.fully_cached, "threads {threads}: {rep:?}");
            assert!(rep.breakdown.engine > Duration::ZERO, "threads {threads}");
            assert!(
                rep.breakdown.total() <= rep.total || rep.breakdown.processing.is_zero(),
                "threads {threads}: {rep:?}"
            );
            let ratio = db.snapshot("t").unwrap().cache_hit_ratio;
            (r, rep.rows_scanned, rep.cache_hits, ratio)
        };
        let serial = run(1);
        assert_eq!(serial.1, rows);
        assert_eq!(serial.2, rows * 4);
        assert_eq!(run(4), serial);
        std::fs::remove_file(p).unwrap();
    }

    /// The admission and lock waits are reported as parts of `processing`:
    /// a query queued behind a held permit shows its wait, a query started
    /// while another thread holds the table's write guard shows its lock
    /// wait, and the waits never exceed the slice they belong to.
    #[test]
    fn waits_are_sub_slices_of_processing() {
        let (p, gen) = tmp_csv(3, 500, 22);
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &p, gen.schema(), false)
            .unwrap();
        let budget = Arc::new(crate::admission::ScanBudget::new(1));
        db.admin().install_scan_budget(Arc::clone(&budget));
        let sql = "SELECT SUM(c1) FROM t";
        db.query(sql).unwrap();

        let (_, solo) = db.query_reported(sql, &QueryCtx::unbounded()).unwrap();
        let bd = solo.breakdown;
        assert!(bd.admission_wait + bd.lock_wait <= bd.processing, "{bd:?}");

        let held = budget.acquire(1, &QueryCtx::unbounded()).unwrap();
        let queued = std::thread::scope(|s| {
            let q = s.spawn(|| db.query_reported(sql, &QueryCtx::unbounded()));
            while budget.telemetry().waiting == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            q.join().unwrap().unwrap().1
        });
        let bd = queued.breakdown;
        assert!(bd.admission_wait >= Duration::from_millis(20), "{bd:?}");
        assert!(bd.admission_wait + bd.lock_wait <= bd.processing, "{bd:?}");

        // Another thread holds the table's write guard while the query
        // starts: the wait for it is lock time. The guard is held 25 ms
        // from the query's admission, a parse away from its lock request.
        let handle = db.table_handle("t").unwrap();
        let guard = handle.write();
        let blocked = std::thread::scope(|s| {
            let q = s.spawn(|| db.query_reported(sql, &QueryCtx::unbounded()));
            while budget.telemetry().in_flight == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(25));
            drop(guard);
            q.join().unwrap().unwrap().1
        });
        let bd = blocked.breakdown;
        assert!(bd.lock_wait >= Duration::from_millis(20), "{bd:?}");
        assert!(bd.admission_wait + bd.lock_wait <= bd.processing, "{bd:?}");
        std::fs::remove_file(p).unwrap();
    }
}
