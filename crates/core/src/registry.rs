//! The concurrent table registry — shared ownership of per-file adaptive
//! state.
//!
//! Before this module the facade owned a `HashMap<String, RawTable>` and
//! `NoDb::query` took `&mut self`, so one instance could run exactly one
//! query at a time and every reader serialized behind the table's auxiliary
//! structures. NoDB's economics point the other way: the positional map and
//! raw-data cache only pay off when *many* queries share them. The registry
//! makes that sharing possible:
//!
//! * every table lives behind its own [`TableHandle`]
//!   (`Arc<RwLock<RawTable>>`), so queries against different tables never
//!   contend at all;
//! * the name → handle map sits behind its own `RwLock`, touched only to
//!   register a table or resolve a name (a query holds it just long enough
//!   to clone the `Arc`);
//! * per-query lock discipline is *staged* (see `rawscan::scan_shared`):
//!   a query plans and scans under one **read** lock — the update probe is
//!   read-only, and the planning side effects (access counts, access plan
//!   LRU touches, cache query tick) are atomic — and workers only need
//!   shared borrows. Only a file change found by the probe takes the
//!   **write** lock before planning, to reconcile it, and downgrades it in
//!   place into the read lock. A scan that read rows from the file then,
//!   once its engine has returned, releases the read lock and takes a short
//!   write lock to install the staged positional-map chunk, cache columns
//!   and statistics (nothing, if another query reconciled a file change in
//!   between). A query answered entirely from the cache never takes the
//!   write lock at all.
//!
//! The poison-free `RwLock` comes from the workspace's `parking_lot`
//! stand-in: a panicking scan must not wedge every later query on the same
//! table. That guarantee is load-bearing for resilience — worker panics are
//! already contained at the scan's worker boundary
//! (`EngineError::WorkerPanic`), and should a panic ever unwind while a
//! guard is held, the next `read()`/`write()` on the same handle still
//! succeeds against structurally valid state (every mutation of `RawTable`
//! state goes through append/install operations that are individually
//! complete). `one_bad_query_never_bricks_the_table` below pins this down.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::table::RawTable;

/// Shared, lockable ownership of one registered table.
///
/// Cloning the handle is cheap (`Arc`); the `RwLock` arbitrates between
/// concurrent scans (readers) and structure installs / update reconciliation
/// (writers). Queries plan and stream under the read side, and hold the
/// write side only to reconcile a file change or merge a raw scan.
pub type TableHandle = Arc<RwLock<RawTable>>;

/// Name → [`TableHandle`] map shared by every query on a [`crate::NoDb`]
/// instance.
#[derive(Default)]
pub struct TableRegistry {
    inner: RwLock<HashMap<String, TableHandle>>,
}

impl TableRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TableRegistry::default()
    }

    /// Register `table` under `name`, replacing any previous table with the
    /// same name. In-flight queries against a replaced table keep their own
    /// `Arc` and finish against the old state.
    pub fn insert(&self, name: impl Into<String>, table: RawTable) -> TableHandle {
        let handle: TableHandle = Arc::new(RwLock::new(table));
        self.inner.write().insert(name.into(), Arc::clone(&handle));
        handle
    }

    /// Handle for `name`, if registered. The registry lock is released
    /// before this returns; callers lock the handle itself.
    pub fn get(&self, name: &str) -> Option<TableHandle> {
        self.inner.read().get(name).cloned()
    }

    /// Registered table names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Run `f` over every registered table's handle (budget knobs, harness
    /// sweeps). Handles are cloned out first so `f` may lock freely without
    /// holding the registry lock.
    pub fn for_each(&self, mut f: impl FnMut(&str, &TableHandle)) {
        let handles: Vec<(String, TableHandle)> = self
            .inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, h) in &handles {
            f(name, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoDbConfig;
    use nodb_rawcsv::GeneratorConfig;

    fn sample_table(rows: u64) -> (std::path::PathBuf, RawTable) {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_registry_{rows}_{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let gen = GeneratorConfig::uniform_ints(2, rows, 7);
        gen.generate_file(&p).unwrap();
        let t = RawTable::register(&p, gen.schema(), false, &NoDbConfig::default()).unwrap();
        (p, t)
    }

    #[test]
    fn insert_get_and_names() {
        let (p, t) = sample_table(5);
        let reg = TableRegistry::new();
        assert!(reg.get("t").is_none());
        reg.insert("t", t);
        assert!(reg.get("t").is_some());
        assert_eq!(reg.names(), vec!["t".to_string()]);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn handles_survive_replacement() {
        let (p1, t1) = sample_table(5);
        let (p2, t2) = sample_table(9);
        let reg = TableRegistry::new();
        reg.insert("t", t1);
        let old = reg.get("t").unwrap();
        reg.insert("t", t2);
        // The old handle still points at the old table's state.
        assert_eq!(old.read().path(), p1.as_path());
        assert_eq!(reg.get("t").unwrap().read().path(), p2.as_path());
        std::fs::remove_file(p1).unwrap();
        std::fs::remove_file(p2).unwrap();
    }

    #[test]
    fn one_bad_query_never_bricks_the_table() {
        // A thread panics while holding the table's write lock (the worst
        // spot: mid-"query" with exclusive access). The registry's lock is
        // poison-free, so the next query on the same handle proceeds and
        // sees valid state.
        let (p, t) = sample_table(6);
        let reg = TableRegistry::new();
        reg.insert("t", t);
        let handle = reg.get("t").unwrap();
        let h2 = reg.get("t").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = h2.write();
            panic!("query blew up while holding the write lock");
        }));
        assert!(result.is_err(), "the panic fired");
        // Both lock modes still work on the same handle.
        assert_eq!(handle.read().path(), p.as_path());
        handle.write().generation += 1;
        assert_eq!(handle.read().generation, 1);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn for_each_visits_every_table() {
        let (p1, t1) = sample_table(3);
        let (p2, t2) = sample_table(4);
        let reg = TableRegistry::new();
        reg.insert("a", t1);
        reg.insert("b", t2);
        let mut seen = Vec::new();
        reg.for_each(|name, _| seen.push(name.to_string()));
        seen.sort_unstable();
        assert_eq!(seen, vec!["a".to_string(), "b".to_string()]);
        std::fs::remove_file(p1).unwrap();
        std::fs::remove_file(p2).unwrap();
    }
}
