//! The pluggable scan boundary.
//!
//! The paper's whole architecture hangs on one observation: only the *scan
//! operator* needs to change for in-situ processing; everything above it is
//! a stock query engine. [`ScanSource`] is that boundary. The planner
//! produces a [`ScanRequest`] (which attributes, which pushed predicate);
//! each storage backend — PostgresRaw-style raw scan, naive external-files
//! scan, loaded row/column stores — answers with batches.
//!
//! A source that owns its batches ([`QueueSource`]; [`MemSource`]; the
//! loaded stores) implements [`ScanSource<'a>`] for every `'a`. A raw-file
//! scan is a *lazy* source instead, pulled while it holds the table's read
//! guard: below its cache frontier it yields borrowed windows of the
//! cache's columns ([`crate::batch::Column::Window`]), running the pushed
//! predicate one window at a time as the engine pulls; only when the
//! engine pulls past them does it read the rows after the frontier from
//! the file, and it stops when the engine stops pulling.

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::{ColumnType, Datum};

use crate::batch::{Batch, Column};
use crate::error::{EngineError, EngineResult};
use crate::exec::AggPartial;
use crate::expr::RExpr;

/// What the planner asks of a scan.
#[derive(Debug, Clone)]
pub struct ScanRequest {
    /// File attribute indices the scan must read, ascending. The scan's
    /// output batches have one column per entry, in this order.
    pub attrs: Vec<usize>,
    /// Predicate over *positions into `attrs`* to evaluate before
    /// materializing a tuple (selective tuple formation). Rows failing it
    /// are never formed.
    pub predicate: Option<RExpr>,
    /// `materialize[i]` is false when `attrs[i]` is consumed only by the
    /// predicate: the source may emit NULL for that column instead of
    /// materializing the value (the engine never reads it).
    pub materialize: Vec<bool>,
    /// A bare `LIMIT n` pushed below the engine: the query returns the first
    /// `n` rows the scan yields, in file order, so a source may stop reading
    /// once it has yielded `n` rows that pass the predicate (it may yield
    /// more; the engine keeps the first `n`). Set by the planner only when
    /// nothing above the scan reorders or folds rows — no aggregate, no
    /// `ORDER BY`; `None` means "read everything". Sources that ignore it
    /// stay correct: the engine stops pulling batches at `n` rows anyway.
    pub limit: Option<u64>,
}

impl ScanRequest {
    /// Request reading `attrs` with no predicate.
    pub fn project(attrs: Vec<usize>) -> Self {
        let materialize = vec![true; attrs.len()];
        ScanRequest {
            attrs,
            predicate: None,
            materialize,
            limit: None,
        }
    }

    /// Highest attribute index touched (drives selective tokenizing: the
    /// tokenizer may abort each tuple after this attribute).
    pub fn max_attr(&self) -> Option<usize> {
        self.attrs.iter().max().copied()
    }
}

/// A stream of batches satisfying a [`ScanRequest`]; `'a` is how long the
/// columns a batch borrows live (see [`crate::batch`]).
pub trait ScanSource<'a> {
    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self) -> EngineResult<Option<Batch<'a>>>;

    /// Rows this source still expects to yield, when it knows exactly
    /// (staged and in-memory batches). A source that filters as it streams
    /// reports none: an upper bound such as the table's row count would
    /// make a selective query reserve rows it never fills. The executor
    /// uses it to pre-size result vectors instead of growth-doubling.
    fn size_hint(&self) -> Option<usize> {
        None
    }

    /// Fold every batch this source still yields into `partial`: by
    /// default one fold over [`Self::next_batch`], in row order. A source
    /// that can cut its rows into contiguous ranges may instead fold each
    /// range into a partial of its own on a thread of its own and merge
    /// them into `partial` in row order ([`AggPartial::merge`]), when the
    /// aggregation is [`AggPartial::order_free`] — a raw-file scan does for
    /// the rows below its cache frontier, and then absorbs the rows after
    /// it.
    fn aggregate(&mut self, partial: &mut AggPartial<'_>) -> EngineResult<()> {
        partial.absorb_source(self)
    }
}

/// A [`ScanSource`] over batches that were produced before execution
/// began, yielded in order with an exact size hint.
pub struct QueueSource {
    batches: std::collections::VecDeque<Batch<'static>>,
    remaining: usize,
}

impl QueueSource {
    /// Source over already-materialized batches, yielded in order.
    pub fn new(batches: std::collections::VecDeque<Batch<'static>>) -> Self {
        let remaining = batches.iter().map(Batch::rows).sum();
        QueueSource { batches, remaining }
    }
}

impl<'a> ScanSource<'a> for QueueSource {
    fn next_batch(&mut self) -> EngineResult<Option<Batch<'a>>> {
        let b = self.batches.pop_front();
        if let Some(b) = &b {
            self.remaining -= b.rows();
        }
        Ok(b)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// In-memory scan source over materialized rows — the reference
/// implementation used by engine unit tests and by loaded column stores
/// that pre-filter.
///
/// Each column is typed by its first non-NULL value and emitted as
/// [`Column::Typed`]; an all-NULL column is emitted as [`Column::Nulls`]. A
/// later value of another type is an [`EngineError::Execution`], never a
/// silent coercion.
pub struct MemSource {
    rows: std::vec::IntoIter<Vec<Datum>>,
    /// Per column: the type of its first non-NULL value (`None`: all NULL).
    types: Vec<Option<ColumnType>>,
    batch_size: usize,
}

impl MemSource {
    /// Source over `rows`, each of `ncols` values (missing trailing values
    /// read as NULL).
    pub fn new(rows: Vec<Vec<Datum>>, ncols: usize) -> Self {
        let types = (0..ncols)
            .map(|c| {
                rows.iter()
                    .find_map(|r| r.get(c).and_then(Datum::column_type))
            })
            .collect();
        MemSource {
            rows: rows.into_iter(),
            types,
            batch_size: crate::batch::BATCH_SIZE,
        }
    }

    /// Override the batch size (tests).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Apply a [`ScanRequest`] to full-width rows: project `attrs`, evaluate
    /// the predicate. A convenience for tests and simple backends.
    pub fn from_table(table: &[Vec<Datum>], req: &ScanRequest) -> Self {
        let mut out = Vec::new();
        for row in table {
            let projected: Vec<Datum> = req
                .attrs
                .iter()
                .map(|&a| row.get(a).cloned().unwrap_or(Datum::Null))
                .collect();
            if let Some(pred) = &req.predicate {
                if !pred.eval_filter(&crate::batch::SliceRow(&projected)) {
                    continue;
                }
            }
            out.push(projected);
        }
        MemSource::new(out, req.attrs.len())
    }
}

impl<'a> ScanSource<'a> for MemSource {
    fn next_batch(&mut self) -> EngineResult<Option<Batch<'a>>> {
        let mut cols: Vec<Option<TypedColumn>> =
            self.types.iter().map(|t| t.map(TypedColumn::new)).collect();
        let mut rows = 0;
        for row in self.rows.by_ref().take(self.batch_size) {
            let mut vals = row.into_iter();
            for (c, col) in cols.iter_mut().enumerate() {
                let d = vals.next().unwrap_or(Datum::Null);
                // An all-NULL column has no typed storage and no non-NULL.
                let Some(col) = col else { continue };
                match d.column_type() {
                    Some(ty) if ty != col.ty() => {
                        return Err(EngineError::Execution(format!(
                            "column {c} mixes {:?} and {ty:?} values",
                            col.ty()
                        )))
                    }
                    _ => col.push_owned(d),
                }
            }
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        let cols = cols
            .into_iter()
            .map(|c| c.map_or(Column::Nulls(rows), Column::Typed))
            .collect();
        Ok(Some(Batch::dense(cols, rows)))
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_sqlparse::ast::BinOp;

    fn table() -> Vec<Vec<Datum>> {
        (0..10i64)
            .map(|i| vec![Datum::Int(i), Datum::Int(i * 10), Datum::Int(i % 3)])
            .collect()
    }

    #[test]
    fn mem_source_batches() {
        let req = ScanRequest::project(vec![0, 2]);
        let mut s = MemSource::from_table(&table(), &req).with_batch_size(4);
        let b1 = s.next_batch().unwrap().unwrap();
        assert_eq!(b1.rows(), 4);
        assert_eq!(b1.ncols(), 2);
        let b2 = s.next_batch().unwrap().unwrap();
        assert_eq!(b2.rows(), 4);
        let b3 = s.next_batch().unwrap().unwrap();
        assert_eq!(b3.rows(), 2);
        assert!(s.next_batch().unwrap().is_none());
    }

    #[test]
    fn pushed_predicate_filters_in_source() {
        let req = ScanRequest {
            attrs: vec![0, 1],
            predicate: Some(RExpr::Binary {
                op: BinOp::Gt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(50))),
            }),
            materialize: vec![true, true],
            limit: None,
        };
        let mut s = MemSource::from_table(&table(), &req);
        assert_eq!(s.size_hint(), Some(4));
        let b = s.next_batch().unwrap().unwrap();
        assert_eq!(b.rows(), 4); // rows 6..9 have c1 > 50
        assert_eq!(b.value(0, 0), Datum::Int(6));
    }

    #[test]
    fn mem_source_types_columns_and_rejects_mixed_types() {
        let rows = vec![
            vec![Datum::Null, Datum::Null, Datum::from("a")],
            vec![Datum::Float(1.5), Datum::Null, Datum::Null],
        ];
        let b = MemSource::new(rows, 3).next_batch().unwrap().unwrap();
        assert!(matches!(b.column(0), Column::Typed(c) if c.ty() == ColumnType::Float));
        assert!(matches!(b.column(1), Column::Nulls(2)), "all-NULL column");
        assert!(matches!(b.column(2), Column::Typed(c) if c.ty() == ColumnType::Str));
        assert_eq!(b.row(1), vec![Datum::Float(1.5), Datum::Null, Datum::Null]);
        // An Int after a Float is refused, not coerced.
        let mixed = vec![
            vec![Datum::Float(1.5)],
            vec![Datum::Null],
            vec![Datum::Int(2)],
        ];
        let err = MemSource::new(mixed, 1).next_batch().unwrap_err();
        assert!(matches!(err, EngineError::Execution(_)), "{err:?}");
    }

    #[test]
    fn queue_source_drains_in_order() {
        let mut q = std::collections::VecDeque::new();
        for v in [1, 2] {
            q.extend(
                MemSource::new(vec![vec![Datum::Int(v)]], 1)
                    .next_batch()
                    .unwrap(),
            );
        }
        let mut s = QueueSource::new(q);
        assert_eq!(s.size_hint(), Some(2));
        assert_eq!(s.next_batch().unwrap().unwrap().value(0, 0), Datum::Int(1));
        assert_eq!(s.size_hint(), Some(1));
        assert_eq!(s.next_batch().unwrap().unwrap().value(0, 0), Datum::Int(2));
        assert!(s.next_batch().unwrap().is_none());
    }

    #[test]
    fn max_attr_reports_selective_tokenize_bound() {
        let req = ScanRequest::project(vec![2, 7, 4]);
        assert_eq!(req.max_attr(), Some(7));
    }
}
