//! The conventional load-then-query DBMS facade — the race contestants.
//!
//! Three profiles model the paper's comparators (§4.3) as *real storage
//! engines*, not cost multipliers:
//!
//! * [`DbProfile::PostgresLike`] — 8 KiB slotted-page row store, optional
//!   secondary B-tree indexes, ANALYZE-style statistics at load.
//! * [`DbProfile::MySqlLike`] — 16 KiB pages and a clustered B-tree on the
//!   first attribute built during load (InnoDB-style), making its load the
//!   slowest of the row stores.
//! * [`DbProfile::DbmsXLike`] — a column store: the most expensive load
//!   (one segment per column) and the fastest analytical queries.
//!
//! All profiles share `nodb-engine` above the scan, mirroring the paper's
//! setup where only data access differs.

use std::collections::HashMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb_engine::{execute, plan_select, EngineError, EngineResult, QueryResult, ScanSource};
use nodb_rawcsv::reader::BlockScanner;
use nodb_rawcsv::tokenizer::{TokenizerConfig, Tokens};
use nodb_rawcsv::{parser, Datum, Schema};
use nodb_sqlparse::parse_select;
use nodb_stats::{PredicateSketch, TableStats};

use crate::colstore::ColumnStore;
use crate::error::StorageResult;
use crate::heap::HeapFile;
use crate::index::BTreeIndex;
use crate::scan::{row_id, ColScanSource, HeapScanSource, IndexScanSource};
use crate::tuple::encode_row;

/// Which conventional system to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbProfile {
    /// 8 KiB row store + optional secondary indexes.
    PostgresLike,
    /// 16 KiB row store + clustered index on attribute 0 built at load.
    MySqlLike,
    /// Column store (per-column segments).
    DbmsXLike,
}

impl DbProfile {
    /// Display name used by the race harness.
    pub fn name(self) -> &'static str {
        match self {
            DbProfile::PostgresLike => "PostgreSQL-like",
            DbProfile::MySqlLike => "MySQL-like",
            DbProfile::DbmsXLike => "DBMS-X-like",
        }
    }

    fn page_size(self) -> usize {
        match self {
            DbProfile::PostgresLike => 8192,
            DbProfile::MySqlLike => 16384,
            DbProfile::DbmsXLike => 8192, // unused (column store)
        }
    }
}

/// What happened during a load (the race's initialization phase).
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Wall-clock time for parse + write.
    pub load_time: Duration,
    /// Wall-clock time for index builds.
    pub index_time: Duration,
    /// Binary bytes written to storage.
    pub bytes_written: u64,
    /// Rows loaded.
    pub rows: u64,
}

impl LoadReport {
    /// Total initialization time.
    pub fn total_time(&self) -> Duration {
        self.load_time + self.index_time
    }
}

enum TableStorage {
    Heap(Arc<HeapFile>),
    Col(Arc<ColumnStore>),
}

struct LoadedTable {
    schema: Schema,
    storage: TableStorage,
    indexes: HashMap<usize, BTreeIndex>,
    stats: TableStats,
}

/// A conventional DBMS instance: load first, query after.
pub struct ConventionalDb {
    profile: DbProfile,
    dir: PathBuf,
    pool_pages: usize,
    tables: HashMap<String, LoadedTable>,
}

impl ConventionalDb {
    /// New instance storing binary data under `dir`.
    pub fn new(profile: DbProfile, dir: impl AsRef<Path>) -> Self {
        ConventionalDb {
            profile,
            dir: dir.as_ref().to_path_buf(),
            pool_pages: 1024,
            tables: HashMap::new(),
        }
    }

    /// Profile in force.
    pub fn profile(&self) -> DbProfile {
        self.profile
    }

    /// Load a CSV file into table `name`, building the profile's storage
    /// plus B-tree indexes on `index_attrs` (the "contestant tuning" of
    /// §4.3). Statistics are collected during the load pass (ANALYZE).
    pub fn load_csv(
        &mut self,
        name: &str,
        csv_path: impl AsRef<Path>,
        schema: Schema,
        has_header: bool,
        index_attrs: &[usize],
    ) -> StorageResult<LoadReport> {
        let start = Instant::now();
        let tokenizer = TokenizerConfig::default();
        let mut scanner = BlockScanner::open_default(&csv_path)?;
        let mut tokens = Tokens::new();
        let nattrs = schema.len();
        let mut stats = TableStats::default();

        // Effective index set per profile: MySQL-like always clusters on 0.
        let mut index_set: Vec<usize> = index_attrs.to_vec();
        if self.profile == DbProfile::MySqlLike && !index_set.contains(&0) {
            index_set.push(0);
        }
        index_set.sort_unstable();
        index_set.dedup();

        let mut indexes: HashMap<usize, BTreeIndex> =
            index_set.iter().map(|&a| (a, BTreeIndex::new())).collect();
        let mut index_time = Duration::ZERO;

        let mut row_buf: Vec<Datum> = Vec::with_capacity(nattrs);
        let mut enc_buf: Vec<u8> = Vec::new();
        let mut rows = 0u64;

        enum W {
            Heap(crate::heap::HeapWriter, u64 /*page_size*/),
            Col(crate::colstore::ColumnStoreWriter),
        }
        let mut writer = match self.profile {
            DbProfile::DbmsXLike => W::Col(ColumnStore::create(
                self.dir.join(format!("{name}.cols")),
                nattrs,
            )?),
            p => W::Heap(
                HeapFile::create(
                    self.dir.join(format!("{name}.heap")),
                    p.page_size(),
                    self.pool_pages,
                )?,
                p.page_size() as u64,
            ),
        };

        let mut skipped_header = !has_header;
        while let Some(line) = scanner.next_line()? {
            if !skipped_header {
                skipped_header = true;
                continue;
            }
            // Conventional load: the FULL tuple is tokenized, parsed and
            // converted — this is exactly the up-front cost NoDB avoids.
            tokenizer.tokenize_into(line.bytes, &mut tokens);
            row_buf.clear();
            for attr in 0..nattrs {
                let d = match tokens.get(attr) {
                    Some(span) => {
                        parser::parse_field(span.of(line.bytes), schema.ty(attr), rows, attr)?
                    }
                    None => Datum::Null,
                };
                stats.attr_mut(attr).observe(&d);
                row_buf.push(d);
            }
            // Index maintenance (timed separately).
            if !indexes.is_empty() {
                let t = Instant::now();
                let rid = match &writer {
                    W::Heap(_, _) => {
                        // Row id assigned after append; compute below. Use a
                        // placeholder path: heap row ids are (page, slot),
                        // which we can only know post-append, so index after.
                        u64::MAX
                    }
                    W::Col(_) => rows,
                };
                if rid != u64::MAX {
                    for (&attr, ix) in indexes.iter_mut() {
                        ix.insert(&row_buf[attr], rid);
                    }
                }
                index_time += t.elapsed();
            }
            match &mut writer {
                W::Heap(w, _) => {
                    enc_buf.clear();
                    encode_row(&row_buf, &mut enc_buf);
                    w.append(&enc_buf)?;
                }
                W::Col(w) => w.append(&row_buf)?,
            }
            rows += 1;
        }

        let (storage, bytes_written) = match writer {
            W::Heap(w, page_size) => {
                let (heap, bytes) = w.finish()?;
                let heap = Arc::new(heap);
                // Build heap indexes in a second pass now that (page, slot)
                // row ids exist — like CREATE INDEX after COPY.
                if !indexes.is_empty() {
                    let t = Instant::now();
                    build_heap_indexes(&heap, nattrs, &mut indexes, page_size as usize)?;
                    index_time += t.elapsed();
                }
                (TableStorage::Heap(heap), bytes)
            }
            W::Col(w) => {
                let (store, bytes) = w.finish()?;
                (TableStorage::Col(Arc::new(store)), bytes)
            }
        };

        let load_time = start.elapsed() - index_time;
        self.tables.insert(
            name.to_string(),
            LoadedTable {
                schema,
                storage,
                indexes,
                stats,
            },
        );
        Ok(LoadReport {
            load_time,
            index_time,
            bytes_written,
            rows,
        })
    }

    /// Execute a SQL query over loaded tables.
    pub fn query(&mut self, sql: &str) -> EngineResult<QueryResult> {
        let stmt = parse_select(sql)?;
        let table = self
            .tables
            .get_mut(&stmt.table)
            .ok_or_else(|| EngineError::UnknownTable(stmt.table.clone()))?;

        let planned = plan_select(&stmt, &table.schema, &table.stats)?;

        let schema = &table.schema;
        let source: Box<dyn ScanSource<'_>> = match &table.storage {
            TableStorage::Heap(heap) => match pick_index_rows(table, &planned) {
                Some(ids) => Box::new(IndexScanSource::new(
                    Arc::clone(heap),
                    schema,
                    planned.scan.clone(),
                    ids,
                )),
                None => Box::new(HeapScanSource::new(
                    Arc::clone(heap),
                    schema,
                    planned.scan.clone(),
                )),
            },
            TableStorage::Col(store) => {
                Box::new(ColScanSource::new(store, schema, planned.scan.clone())?)
            }
        };
        execute(&planned, source)
    }

    /// Schema of a loaded table.
    pub fn schema(&self, table: &str) -> Option<&Schema> {
        self.tables.get(table).map(|t| &t.schema)
    }
}

/// Second-pass index build over a finished heap.
fn build_heap_indexes(
    heap: &Arc<HeapFile>,
    nattrs: usize,
    indexes: &mut HashMap<usize, BTreeIndex>,
    _page_size: usize,
) -> StorageResult<()> {
    let attrs: Vec<usize> = {
        let mut a: Vec<usize> = indexes.keys().copied().collect();
        a.sort_unstable();
        a
    };
    let mut vals: Vec<Datum> = Vec::new();
    for pg in 0..heap.npages() {
        let tuples: Vec<Vec<u8>> =
            heap.with_page(pg, |p| p.tuples().map(|t| t.to_vec()).collect())?;
        for (slot, t) in tuples.iter().enumerate() {
            vals.clear();
            let mut r = crate::tuple::TupleReader::new(t);
            r.project(&attrs, nattrs, &mut vals);
            for (i, &attr) in attrs.iter().enumerate() {
                if let Some(ix) = indexes.get_mut(&attr) {
                    ix.insert(&vals[i], row_id(pg, slot));
                }
            }
        }
    }
    Ok(())
}

/// If the pushed predicate has a conjunct over an indexed attribute, return
/// the candidate row ids from the most selective such index.
fn pick_index_rows(table: &LoadedTable, planned: &nodb_engine::PlannedQuery) -> Option<Vec<u64>> {
    let pred = planned.scan.predicate.as_ref()?;
    let mut conjuncts = Vec::new();
    nodb_engine::sketch::split_conjuncts(pred, &mut conjuncts);
    let mut best: Option<Vec<u64>> = None;
    for c in &conjuncts {
        let Some((pos, sketch)) = nodb_engine::sketch::sketch_conjunct(c) else {
            continue;
        };
        let attr = planned.scan.attrs[pos];
        let Some(ix) = table.indexes.get(&attr) else {
            continue;
        };
        let ids = match &sketch {
            PredicateSketch::Eq(v) => ix.lookup_eq(v),
            PredicateSketch::Lt(v) => ix.lookup_range(Bound::Unbounded, Bound::Excluded(v)),
            PredicateSketch::Le(v) => ix.lookup_range(Bound::Unbounded, Bound::Included(v)),
            PredicateSketch::Gt(v) => ix.lookup_range(Bound::Excluded(v), Bound::Unbounded),
            PredicateSketch::Ge(v) => ix.lookup_range(Bound::Included(v), Bound::Unbounded),
            PredicateSketch::Between(lo, hi) => {
                ix.lookup_range(Bound::Included(lo), Bound::Included(hi))
            }
            _ => continue,
        };
        if best.as_ref().map(|b| ids.len() < b.len()).unwrap_or(true) {
            best = Some(ids);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::GeneratorConfig;

    fn setup(profile: DbProfile, index_attrs: &[usize]) -> (ConventionalDb, LoadReport, PathBuf) {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "nodb_dbms_{:?}_{}_{}",
            profile,
            index_attrs.len(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("data.csv");
        let cfg = GeneratorConfig::uniform_ints(5, 2000, 7);
        cfg.generate_file(&csv).unwrap();
        let mut db = ConventionalDb::new(profile, &dir);
        let report = db
            .load_csv("t", &csv, cfg.schema(), false, index_attrs)
            .unwrap();
        (db, report, dir)
    }

    #[test]
    fn postgres_like_loads_and_queries() {
        let (mut db, report, dir) = setup(DbProfile::PostgresLike, &[]);
        assert_eq!(report.rows, 2000);
        assert!(report.bytes_written > 0);
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Datum::Int(2000)));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn column_store_answers_projections() {
        let (mut db, _, dir) = setup(DbProfile::DbmsXLike, &[]);
        let r = db.query("SELECT c0, c4 FROM t LIMIT 5").unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.columns, vec!["c0", "c4"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn filtered_query_matches_across_profiles() {
        let (mut pg, _, d1) = setup(DbProfile::PostgresLike, &[]);
        let (mut my, _, d2) = setup(DbProfile::MySqlLike, &[]);
        let (mut dx, _, d3) = setup(DbProfile::DbmsXLike, &[]);
        let sql = "SELECT COUNT(*), SUM(c2) FROM t WHERE c1 < 500000000";
        let a = pg.query(sql).unwrap();
        let b = my.query(sql).unwrap();
        let c = dx.query(sql).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        for d in [d1, d2, d3] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn index_scan_agrees_with_heap_scan() {
        let (mut indexed, report, d1) = setup(DbProfile::PostgresLike, &[1]);
        let (mut plain, _, d2) = setup(DbProfile::PostgresLike, &[]);
        assert!(report.index_time > Duration::ZERO);
        let sql = "SELECT c0, c1 FROM t WHERE c1 BETWEEN 100000000 AND 200000000 ORDER BY c0";
        let a = indexed.query(sql).unwrap();
        let b = plain.query(sql).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        std::fs::remove_dir_all(d1).unwrap();
        std::fs::remove_dir_all(d2).unwrap();
    }

    #[test]
    fn mysql_like_builds_clustered_index() {
        let (mut db, report, dir) = setup(DbProfile::MySqlLike, &[]);
        assert!(report.index_time > Duration::ZERO, "clustered index build");
        let r = db.query("SELECT c0 FROM t WHERE c0 = 0").unwrap();
        // Equality on the clustered key goes through the index path.
        let _ = r;
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unknown_table_errors() {
        let (mut db, _, dir) = setup(DbProfile::PostgresLike, &[]);
        assert!(matches!(
            db.query("SELECT a FROM nope"),
            Err(EngineError::UnknownTable(_))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
