//! The operator surface: everything about *running* a NoDb instance that a
//! query handler should not touch.
//!
//! Obtained via [`NoDb::admin`]; borrows the instance, so it is free to
//! mint on every call. Splitting this off the client facade keeps the
//! request-handling surface minimal (register/query/snapshot) while the
//! serving layer and the experiment harness get budgets, update probes,
//! admission control, prepared statements and report retrieval here.

use std::sync::Arc;

use nodb_engine::{EngineError, EngineResult};

use crate::admission::{BudgetTelemetry, ScanBudget};
use crate::api::client::NoDb;
use crate::api::prepared::{PreparedCache, PreparedStats};
use crate::metrics::QueryReport;
use crate::rawscan;
use crate::{EpochChange, SourceEpoch};

/// Administrative view over a [`NoDb`] (see the module docs).
pub struct Admin<'a> {
    pub(crate) db: &'a NoDb,
}

impl Admin<'_> {
    /// Report for the most recent query on this instance (owned: concurrent
    /// queries each publish their report as they finish, last writer wins).
    pub fn last_report(&self) -> Option<QueryReport> {
        rawscan::lock_recover(&self.db.last_report).clone()
    }

    /// Change the positional-map budget for every registered table (the
    /// demo's interactive storage knob). Shrinking evicts immediately.
    pub fn set_map_budget(&self, bytes: usize) {
        self.db.config.write().map_budget_bytes = bytes;
        self.db
            .tables
            .for_each(|_, h| h.write().map.set_budget(bytes));
    }

    /// Change the cache budget for every registered table.
    pub fn set_cache_budget(&self, bytes: usize) {
        self.db.config.write().cache_budget_bytes = bytes;
        self.db
            .tables
            .for_each(|_, h| h.write().cache.set_budget(bytes));
    }

    /// Force an update probe on one table (the harness uses this to test
    /// §4.2 updates without issuing a query). Reconciles the table exactly
    /// like the pre-query probe: appends keep prefix state, a truncated or
    /// rewritten file quarantines the adaptive structures.
    pub fn probe_updates(&self, table: &str) -> EngineResult<EpochChange> {
        let h = self
            .db
            .tables
            .get(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        let change = h.write().check_updates()?;
        Ok(change)
    }

    /// Per-table source-epoch report plus the instance-wide invalidation
    /// count (the server's `EPOCH?` verb): one row per table, sorted by
    /// name, with the epoch the table is currently keyed to and its
    /// file-state generation.
    pub fn epoch_report(&self) -> (u64, Vec<(String, u64, SourceEpoch)>) {
        use std::sync::atomic::Ordering;
        let mut rows = Vec::new();
        self.db.tables.for_each(|name, handle| {
            let t = handle.read();
            rows.push((name.to_string(), t.generation, *t.epoch()));
        });
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        (self.db.source_changes.load(Ordering::Relaxed), rows)
    }

    /// Install a shared scan-thread budget: from now on every query
    /// acquires its scan threads from `budget` before touching any table
    /// lock, and its granted permits cap the scan's worker fan-out. One
    /// budget may govern several `NoDb` instances.
    pub fn install_scan_budget(&self, budget: Arc<ScanBudget>) {
        *self.db.scan_budget.write() = Some(budget);
    }

    /// Remove the scan-thread budget: queries go back to per-query
    /// `scan_threads` fan-out. In-flight grants drain harmlessly.
    pub fn remove_scan_budget(&self) {
        *self.db.scan_budget.write() = None;
    }

    /// The installed scan budget, if any.
    pub fn scan_budget(&self) -> Option<Arc<ScanBudget>> {
        self.db.scan_budget.read().clone()
    }

    /// Telemetry of the installed scan budget, if any.
    pub fn budget_telemetry(&self) -> Option<BudgetTelemetry> {
        self.db.scan_budget.read().as_ref().map(|b| b.telemetry())
    }

    /// Turn on the prepared-statement cache with room for `capacity`
    /// distinct SQL strings; repeat queries then skip parse+plan
    /// (`QueryReport::prepared_hit`). Idempotent: re-enabling replaces the
    /// cache (and its statistics) with a fresh one.
    pub fn enable_prepared_statements(&self, capacity: usize) -> Arc<PreparedCache> {
        let cache = Arc::new(PreparedCache::new(capacity));
        *self.db.prepared.write() = Some(Arc::clone(&cache));
        cache
    }

    /// Turn the prepared-statement cache off (queries plan from scratch
    /// again).
    pub fn disable_prepared_statements(&self) {
        *self.db.prepared.write() = None;
    }

    /// Counters of the prepared-statement cache, if enabled.
    pub fn prepared_stats(&self) -> Option<PreparedStats> {
        self.db.prepared.read().as_ref().map(|c| c.stats())
    }

    /// Persist every registered table's adaptive state to its sidecar
    /// *now* (shutdown hooks, the server's `SNAPSHOT` verb) instead of
    /// waiting for write-behind. Works regardless of the
    /// `snapshot_persistence` knob — an explicit request is its own
    /// authorization. Returns one `(table, result)` row per table; a
    /// failed save reports its error and leaves that table's previous
    /// sidecar (if any) intact, thanks to the atomic-rename protocol.
    pub fn snapshot_now(&self) -> Vec<(String, Result<(), String>)> {
        use std::sync::atomic::Ordering;
        let mut out = Vec::new();
        self.db.tables.for_each(|name, handle| {
            let (path, snap, sig) = {
                let table = handle.read();
                (
                    table.path().to_path_buf(),
                    table.capture_snapshot(),
                    table.snapshot_signature(),
                )
            };
            let result = match nodb_snapshot::save_snapshot(&path, &snap) {
                Ok(_) => {
                    self.db
                        .snapshot_counters
                        .saves
                        .fetch_add(1, Ordering::Relaxed);
                    handle
                        .read()
                        .last_snapshot_sig
                        .store(sig, Ordering::Relaxed);
                    Ok(())
                }
                Err(e) => {
                    self.db
                        .snapshot_counters
                        .save_failures
                        .fetch_add(1, Ordering::Relaxed);
                    // As after a failed write-behind: the next query
                    // re-saves, whether or not it grew anything.
                    handle.read().last_snapshot_sig.store(0, Ordering::Relaxed);
                    Err(e.to_string())
                }
            };
            out.push((name.to_string(), result));
        });
        out
    }

    /// Counters of the snapshot persistence layer (saves, save failures,
    /// restores, rejected restores).
    pub fn snapshot_stats(&self) -> crate::metrics::SnapshotTelemetry {
        self.db.snapshot_counters.snapshot()
    }
}
