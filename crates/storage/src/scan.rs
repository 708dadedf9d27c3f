//! [`ScanSource`] implementations over loaded storage.
//!
//! Each source decodes a row at a time and evaluates the pushed predicate
//! on it through [`SliceRow`] — the loaded DBMS's own filter, independent of
//! the raw scan's columnar kernels — then pushes the surviving row into
//! output columns typed from the table's schema.

use std::sync::Arc;

use nodb_engine::batch::{Batch, Column, SliceRow, BATCH_SIZE};
use nodb_engine::{EngineResult, ScanRequest, ScanSource};
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::{ColumnType, Datum, Schema};

use crate::colstore::ColumnStore;
use crate::heap::HeapFile;

/// One output batch in the making: a typed column per requested attribute,
/// typed from the table's schema.
struct TypedRows {
    cols: Vec<TypedColumn>,
    rows: usize,
}

impl TypedRows {
    fn new(types: &[ColumnType]) -> Self {
        TypedRows {
            cols: types.iter().map(|&t| TypedColumn::new(t)).collect(),
            rows: 0,
        }
    }

    /// Append `row` (one value per requested attribute, drained) when it
    /// passes the request's pushed predicate.
    fn push_if(&mut self, req: &ScanRequest, row: &mut Vec<Datum>) {
        if req
            .predicate
            .as_ref()
            .is_some_and(|p| !p.eval_filter(&SliceRow(row)))
        {
            row.clear();
            return;
        }
        for (col, d) in self.cols.iter_mut().zip(row.drain(..)) {
            col.push_owned(d);
        }
        self.rows += 1;
    }

    fn is_full(&self) -> bool {
        self.rows >= BATCH_SIZE
    }

    /// The batch, or `None` when no row survived.
    fn finish(self) -> Option<Batch> {
        let cols = self.cols.into_iter().map(Column::Typed).collect();
        (self.rows > 0).then(|| Batch::dense(cols, self.rows))
    }
}

/// The schema types of the requested attributes.
fn request_types(schema: &Schema, req: &ScanRequest) -> Vec<ColumnType> {
    req.attrs.iter().map(|&a| schema.ty(a)).collect()
}

/// Sequential scan over a heap file: page at a time through the buffer pool,
/// decoding only requested attributes (tagged encoding supports skipping).
pub struct HeapScanSource {
    heap: Arc<HeapFile>,
    req: ScanRequest,
    nattrs: usize,
    types: Vec<ColumnType>,
    page_no: u64,
    scratch: Vec<Datum>,
}

impl HeapScanSource {
    /// Scan `heap` (whose tuples follow `schema`) per `req`.
    pub fn new(heap: Arc<HeapFile>, schema: &Schema, req: ScanRequest) -> Self {
        HeapScanSource {
            heap,
            nattrs: schema.len(),
            types: request_types(schema, &req),
            req,
            page_no: 0,
            scratch: Vec::new(),
        }
    }
}

impl ScanSource for HeapScanSource {
    fn next_batch(&mut self) -> EngineResult<Option<Batch>> {
        let mut out = TypedRows::new(&self.types);
        while self.page_no < self.heap.npages() && !out.is_full() {
            let page_no = self.page_no;
            self.page_no += 1;
            // Copy tuples out under the pool lock, then decode outside it.
            let tuples: Vec<Vec<u8>> = self
                .heap
                .with_page(page_no, |p| p.tuples().map(|t| t.to_vec()).collect())?;
            for t in tuples {
                let mut r = crate::tuple::TupleReader::new(&t);
                r.project(&self.req.attrs, self.nattrs, &mut self.scratch);
                out.push_if(&self.req, &mut self.scratch);
            }
        }
        Ok(out.finish())
    }
}

/// Scan over a column store: requested column segments are read once at
/// construction (sequential I/O), then streamed as batches.
pub struct ColScanSource {
    cols: Vec<Vec<Datum>>,
    req: ScanRequest,
    types: Vec<ColumnType>,
    nrows: usize,
    at: usize,
}

impl ColScanSource {
    /// Build by reading the needed segments of `store` (whose columns
    /// follow `schema`).
    pub fn new(store: &ColumnStore, schema: &Schema, req: ScanRequest) -> EngineResult<Self> {
        let mut cols = Vec::with_capacity(req.attrs.len());
        for &a in &req.attrs {
            cols.push(
                store
                    .read_column(a)
                    .map_err(nodb_engine::EngineError::from)?,
            );
        }
        Ok(ColScanSource {
            cols,
            types: request_types(schema, &req),
            req,
            nrows: store.nrows() as usize,
            at: 0,
        })
    }
}

impl ScanSource for ColScanSource {
    fn next_batch(&mut self) -> EngineResult<Option<Batch>> {
        let mut out = TypedRows::new(&self.types);
        let mut row_buf: Vec<Datum> = Vec::with_capacity(self.cols.len());
        while self.at < self.nrows && !out.is_full() {
            let r = self.at;
            self.at += 1;
            for c in &self.cols {
                row_buf.push(c.get(r).cloned().unwrap_or(Datum::Null));
            }
            out.push_if(&self.req, &mut row_buf);
        }
        Ok(out.finish())
    }
}

/// Row-id based fetch from a heap file (index scan). `row_ids` must be
/// ascending for sequential page access; the full pushed predicate is
/// re-evaluated as a residual (the index conjunct is a superset filter).
pub struct IndexScanSource {
    heap: Arc<HeapFile>,
    nattrs: usize,
    types: Vec<ColumnType>,
    req: ScanRequest,
    row_ids: std::vec::IntoIter<u64>,
}

/// Pack (page, slot) into a row id.
pub fn row_id(page_no: u64, slot: usize) -> u64 {
    (page_no << 16) | slot as u64
}

/// Unpack a row id.
pub fn unpack_row_id(id: u64) -> (u64, usize) {
    (id >> 16, (id & 0xffff) as usize)
}

impl IndexScanSource {
    /// Fetch the given rows (ascending ids) of `heap` (whose tuples follow
    /// `schema`) and apply `req`.
    pub fn new(heap: Arc<HeapFile>, schema: &Schema, req: ScanRequest, row_ids: Vec<u64>) -> Self {
        IndexScanSource {
            heap,
            nattrs: schema.len(),
            types: request_types(schema, &req),
            req,
            row_ids: row_ids.into_iter(),
        }
    }
}

impl ScanSource for IndexScanSource {
    fn next_batch(&mut self) -> EngineResult<Option<Batch>> {
        let mut out = TypedRows::new(&self.types);
        let mut scratch: Vec<Datum> = Vec::with_capacity(self.types.len());
        for id in self.row_ids.by_ref() {
            let (page_no, slot) = unpack_row_id(id);
            let tuple: Option<Vec<u8>> = self
                .heap
                .with_page(page_no, |p| p.tuple(slot).map(|t| t.to_vec()))?;
            let Some(t) = tuple else { continue };
            let mut r = crate::tuple::TupleReader::new(&t);
            r.project(&self.req.attrs, self.nattrs, &mut scratch);
            out.push_if(&self.req, &mut scratch);
            if out.is_full() {
                break;
            }
        }
        Ok(out.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::encode_row;
    use nodb_rawcsv::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
            ColumnDef::new("s", ColumnType::Str),
        ])
    }

    fn tmp_path(tag: &str, rows: usize) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_scan_{tag}_{}_{}",
            rows,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    fn row(i: i64) -> [Datum; 3] {
        [
            Datum::Int(i),
            Datum::Int(i * 2),
            Datum::from(format!("r{i}")),
        ]
    }

    fn make_heap(rows: usize) -> Arc<HeapFile> {
        let mut w = HeapFile::create(tmp_path("heap", rows), 4096, 8).unwrap();
        let mut buf = Vec::new();
        for i in 0..rows as i64 {
            buf.clear();
            encode_row(&row(i), &mut buf);
            w.append(&buf).unwrap();
        }
        let (heap, _) = w.finish().unwrap();
        Arc::new(heap)
    }

    /// Drain `s`, asserting every position of every batch is typed as the
    /// schema says; returns the rows seen.
    fn drain_typed(mut s: impl ScanSource, req: &ScanRequest) -> Vec<Vec<Datum>> {
        let mut rows = Vec::new();
        while let Some(b) = s.next_batch().unwrap() {
            assert_eq!(b.ncols(), req.attrs.len());
            for (i, &a) in req.attrs.iter().enumerate() {
                match b.column(i) {
                    Column::Typed(c) => assert_eq!(c.ty(), schema().ty(a), "position {i}"),
                    Column::Nulls(_) => panic!("position {i} left the scan untyped"),
                }
            }
            rows.extend((0..b.rows()).map(|r| b.row(r)));
        }
        rows
    }

    #[test]
    fn heap_scan_projects_and_counts() {
        let heap = make_heap(3000);
        let req = ScanRequest::project(vec![0, 2]);
        let s = HeapScanSource::new(heap, &schema(), req.clone());
        let rows = drain_typed(s, &req);
        assert_eq!(rows.len(), 3000);
        assert_eq!(rows[2999], vec![Datum::Int(2999), Datum::from("r2999")]);
    }

    #[test]
    fn col_scan_emits_typed_columns() {
        let dir = tmp_path("col", 2500);
        let mut w = ColumnStore::create(&dir, 3).unwrap();
        for i in 0..2500 {
            w.append(&row(i)).unwrap();
        }
        let (store, _) = w.finish().unwrap();
        let req = ScanRequest::project(vec![1, 2]);
        let s = ColScanSource::new(&store, &schema(), req.clone()).unwrap();
        let rows = drain_typed(s, &req);
        assert_eq!(rows.len(), 2500);
        assert_eq!(rows[7], vec![Datum::Int(14), Datum::from("r7")]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn heap_scan_applies_predicate() {
        use nodb_engine::RExpr;
        use nodb_sqlparse::ast::BinOp;
        let heap = make_heap(100);
        let req = ScanRequest {
            attrs: vec![0, 1],
            predicate: Some(RExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(10))),
            }),
            materialize: vec![true, true],
        };
        let s = HeapScanSource::new(heap, &schema(), req.clone());
        let rows = drain_typed(s, &req);
        assert_eq!(rows.len(), 5); // i*2 < 10 → i in 0..5
        assert_eq!(rows[4], vec![Datum::Int(4), Datum::Int(8)]);
    }

    #[test]
    fn index_scan_fetches_by_row_id() {
        let heap = make_heap(2000);
        let ids = vec![row_id(0, 0), row_id(0, 5), row_id(1, 0)];
        let req = ScanRequest::project(vec![0, 2]);
        let s = IndexScanSource::new(heap, &schema(), req.clone(), ids);
        let rows = drain_typed(s, &req);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Datum::Int(0), Datum::from("r0")]);
        assert_eq!(rows[1], vec![Datum::Int(5), Datum::from("r5")]);
    }

    #[test]
    fn row_id_round_trip() {
        let id = row_id(1234, 56);
        assert_eq!(unpack_row_id(id), (1234, 56));
    }
}
