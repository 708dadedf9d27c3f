//! Prepared-statement cache: repeat queries skip parse + plan.
//!
//! Exploration workloads (the paper's target) re-issue the same handful of
//! SQL strings as the analyst drills in, and a serving layer multiplies
//! that repetition across connections. This LRU maps SQL text to its
//! `PlannedQuery` so the facade can jump straight to the scan; the deleted
//! work shows up as `Breakdown::planning == 0` and
//! `QueryReport::prepared_hit == true`.
//!
//! Staleness is handled in two layers:
//!
//! * each entry pins the table it was planned against by **handle
//!   identity** (a `Weak` to the registry's `Arc`) — re-registering a
//!   table under the same name installs a fresh `Arc`, so old entries fail
//!   the `ptr_eq` check and are replanned;
//! * each entry records the table's **file-state generation**; the facade
//!   re-validates it *after* the per-query update probe, under the same
//!   table lock planning would take, so an appended/replaced file replans
//!   exactly when fresh planning would have seen the new state.
//!
//! The cache never returns a plan the caller may use blindly: hits hand
//! back the entry and the facade decides validity under the table lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Weak;

use nodb_engine::PlannedQuery;
use parking_lot::Mutex;

use crate::registry::TableHandle;

/// Weak alias matching [`TableHandle`]'s `Arc` payload.
type WeakHandle = Weak<parking_lot::RwLock<crate::table::RawTable>>;

/// Default number of distinct SQL strings kept.
pub const DEFAULT_PREPARED_CAPACITY: usize = 64;

/// One cached plan, as handed to the facade for validation.
#[derive(Clone)]
pub struct CachedPlan {
    /// Table the statement targets (registry key).
    pub table: String,
    /// Identity of the handle the plan was made against.
    pub handle: WeakHandle,
    /// File-state generation at plan time.
    pub generation: u64,
    /// The parse+plan product being reused.
    pub planned: PlannedQuery,
}

/// Lifetime counters (tests assert on these; the server reports them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreparedStats {
    /// Lookups that returned a plan which then validated.
    pub hits: u64,
    /// Lookups that found nothing (or a plan that failed validation).
    pub misses: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
    /// Cached plans that failed validation (stale generation / replaced
    /// handle) and were replanned. A subset of `misses`.
    pub invalidations: u64,
}

struct Inner {
    map: HashMap<String, CachedPlan>,
    /// Keys from least- to most-recently used.
    order: Vec<String>,
}

/// LRU cache of `SQL text → validated-on-use plan`.
pub struct PreparedCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PreparedCache {
    /// Cache holding at most `capacity` distinct SQL strings.
    pub fn new(capacity: usize) -> Self {
        PreparedCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Fetch the cached plan for `sql`, bumping it to most-recently-used.
    /// The caller MUST validate the entry ([`CachedPlan::handle`] /
    /// [`CachedPlan::generation`]) before trusting the plan, then report
    /// the outcome via [`Self::note_hit`] / [`Self::note_invalidated`].
    pub fn lookup(&self, sql: &str) -> Option<CachedPlan> {
        let mut inner = self.inner.lock();
        let found = inner.map.get(sql).cloned();
        if found.is_some() {
            touch(&mut inner.order, sql);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Record that a looked-up plan validated and was used.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that a looked-up plan failed validation (it counts as a miss;
    /// the caller replans and re-inserts).
    pub fn note_invalidated(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert (or replace) the plan for `sql`, evicting the least-recently
    /// used entry past capacity.
    pub fn insert(
        &self,
        sql: &str,
        table: &str,
        handle: &TableHandle,
        generation: u64,
        planned: PlannedQuery,
    ) {
        let mut inner = self.inner.lock();
        let entry = CachedPlan {
            table: table.to_string(),
            handle: std::sync::Arc::downgrade(handle),
            generation,
            planned,
        };
        if inner.map.insert(sql.to_string(), entry).is_none() && inner.map.len() > self.capacity {
            if let Some(victim) = inner.order.first().cloned() {
                inner.map.remove(&victim);
                inner.order.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        touch(&mut inner.order, sql);
    }

    /// Drop every cached plan (admin surface; also useful in tests).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PreparedStats {
        PreparedStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Move `key` to the most-recently-used end of `order`.
fn touch(order: &mut Vec<String>, key: &str) {
    if let Some(pos) = order.iter().position(|k| k == key) {
        let k = order.remove(pos);
        order.push(k);
    } else {
        order.push(key.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RawTable;
    use crate::NoDbConfig;
    use nodb_rawcsv::GeneratorConfig;
    use nodb_sqlparse::parse_select;
    use nodb_stats::estimate::NoStats;
    use std::sync::Arc;

    fn plan_for(handle: &TableHandle, sql: &str) -> PlannedQuery {
        let stmt = parse_select(sql).unwrap();
        nodb_engine::plan_select(&stmt, &handle.read().schema, &NoStats).unwrap()
    }

    fn test_table() -> (std::path::PathBuf, TableHandle) {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_prepared_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let gen = GeneratorConfig::uniform_ints(3, 50, 7);
        gen.generate_file(&p).unwrap();
        let t = RawTable::register(&p, gen.schema(), false, &NoDbConfig::default()).unwrap();
        (p, Arc::new(parking_lot::RwLock::new(t)))
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let (p, h) = test_table();
        let cache = PreparedCache::new(2);
        let plan = plan_for(&h, "SELECT c0 FROM t");
        cache.insert("q1", "t", &h, 0, plan.clone());
        cache.insert("q2", "t", &h, 0, plan.clone());
        assert!(cache.lookup("q1").is_some(), "q1 now most-recently used");
        cache.note_hit();
        cache.insert("q3", "t", &h, 0, plan);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("q2").is_none(), "LRU victim was q2");
        assert!(cache.lookup("q1").is_some());
        assert!(cache.lookup("q3").is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1, "only the evicted q2 lookup missed");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn weak_handle_detects_replacement() {
        let (p, h) = test_table();
        let cache = PreparedCache::new(4);
        cache.insert("q", "t", &h, 0, plan_for(&h, "SELECT c0 FROM t"));
        let entry = cache.lookup("q").unwrap();
        let upgraded = entry.handle.upgrade().unwrap();
        assert!(Arc::ptr_eq(&upgraded, &h), "same registration validates");
        drop(upgraded);
        drop(h); // table dropped from the registry
        let entry = cache.lookup("q").unwrap();
        assert!(entry.handle.upgrade().is_none(), "stale handle detected");
        std::fs::remove_file(p).unwrap();
    }
}
