//! Columnar batches flowing between operators.
//!
//! # The typed-batch / selection-vector contract
//!
//! A [`Batch`] is a set of equal-length [`Column`]s plus an optional
//! **selection vector**. Columns come in three storage classes:
//!
//! * [`Column::Typed`] — owned cache-format typed storage
//!   ([`nodb_rawcache::TypedColumn`]: value vector + null bitmap). A raw
//!   scan's slices emit it: each exports a segment of its freshly parsed
//!   partial columns (`TypedColumn::export_range` / `gather`) and moves it
//!   into the batch, which outlives the partials. The loaded stores and
//!   `MemSource` push their rows into columns typed from the schema (or,
//!   for `MemSource`, from each column's first non-NULL value).
//! * [`Column::Window`] — a **borrowed window** of a longer typed column:
//!   physical row `i` is row `base + i` of the backing column. A raw-file
//!   scan lends the engine the cache's own columns this way for the rows
//!   below its cache frontier,
//!   one `BATCH_SIZE`-row window per batch, while it holds the table's read
//!   guard; nothing is copied. This is why [`Batch`] and
//!   [`crate::ScanSource`] carry a lifetime: a window batch cannot outlive
//!   the column it borrows. Sources of owned batches implement
//!   `ScanSource<'a>` for every `'a`.
//! * [`Column::Nulls`] — an all-NULL column of known length, used for
//!   predicate-only scan positions (`ScanRequest::materialize[i] == false`):
//!   the predicate ran against the real values, so the output batch never
//!   materializes them (late materialization).
//!
//! Every typed kernel — the predicate kernels, the aggregate folds, the
//! GROUP BY key hash, the top-n threshold — reads a column through one
//! [`ColView`] (backing column + `base`, from [`Column::view`]), so an
//! owned column (`base` 0) and a window run the same loop.
//!
//! The selection vector (`sel`) is a sorted list of *physical* row indices:
//! logical row `r` of the batch is physical row `sel[r]` of every column.
//! A filter over a typed batch can therefore pass the full segment
//! downstream and let aggregation iterate only the selected indices,
//! deferring (or entirely skipping) the gather. Every accessor —
//! [`Batch::value`], [`Batch::row`], [`BatchRow`] — resolves through the
//! selection, so row-at-a-time fallbacks stay oblivious and correct.
//!
//! Selection vectors come from the predicate kernels
//! ([`crate::expr::RExpr::filter_columnar`]), which run over borrowed
//! [`ColView`]s before any batch exists. Each kernel matches its column's
//! type against its constants' types once, then runs one branch-free loop
//! over the value vector: it writes every candidate index and advances the
//! output length by whether the row passed. A window that holds a NULL also
//! reads the bitmap word of each row; one without tests no NULL bit.

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

/// Default number of rows per batch.
pub const BATCH_SIZE: usize = 1024;

/// One column of a batch; see the module docs for the storage classes.
#[derive(Debug)]
pub enum Column<'a> {
    /// Owned typed cache-format storage (values + null bitmap), enabling
    /// vectorized kernels.
    Typed(TypedColumn),
    /// Rows `[base, base + len)` of a longer typed column, borrowed in
    /// place (a raw-file scan's window of a cache column).
    Window {
        /// The backing column.
        col: &'a TypedColumn,
        /// Backing row of physical row 0.
        base: usize,
        /// Physical rows in the window.
        len: usize,
    },
    /// All-NULL column of the given physical length (late materialization
    /// of predicate-only positions).
    Nulls(usize),
}

impl<'a> Column<'a> {
    /// Physical rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Typed(c) => c.len(),
            Column::Window { len, .. } | Column::Nulls(len) => *len,
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed storage every kernel reads: physical row `i` is row
    /// `base + i` of the view's column (`base` 0 for owned storage). `None`
    /// for an all-NULL column.
    #[inline]
    pub fn view(&self) -> Option<ColView<'_>> {
        match self {
            Column::Typed(col) => Some(ColView { col, base: 0 }),
            Column::Window { col, base, .. } => Some(ColView { col, base: *base }),
            Column::Nulls(_) => None,
        }
    }

    /// Value at physical row `i` (NULL past the end, which only a ragged
    /// caller can reach).
    #[inline]
    pub fn datum(&self, i: usize) -> Datum {
        match self.view() {
            Some(v) if i < self.len() => v.datum(i),
            _ => Datum::Null,
        }
    }
}

/// A column-major batch of values. All columns have the same physical
/// length; with a selection vector attached, the batch's *logical* rows are
/// the selected physical rows, in order (see module docs).
#[derive(Debug, Default)]
pub struct Batch<'a> {
    cols: Vec<Column<'a>>,
    /// Sorted physical indices of the logical rows; `None` = dense.
    sel: Option<Vec<u32>>,
    rows: usize,
}

impl<'a> Batch<'a> {
    /// Build from storage-class columns plus an optional selection vector.
    ///
    /// # Panics
    /// Panics when column lengths differ, or when a selected index is out
    /// of range.
    pub fn from_parts(cols: Vec<Column<'a>>, sel: Option<Vec<u32>>) -> Self {
        let phys = cols.first().map(Column::len).unwrap_or(0);
        for c in &cols {
            assert_eq!(c.len(), phys, "ragged batch");
        }
        let rows = match &sel {
            Some(s) => {
                debug_assert!(s.iter().all(|&i| (i as usize) < phys), "selection range");
                s.len()
            }
            None => phys,
        };
        Batch { cols, sel, rows }
    }

    /// A dense batch of `rows` rows over `cols`: column-less when the
    /// request reads no attribute (see [`Self::rows_only`]).
    ///
    /// # Panics
    /// Panics when a column does not hold exactly `rows` rows.
    pub fn dense(cols: Vec<Column<'a>>, rows: usize) -> Self {
        if cols.is_empty() {
            return Batch::rows_only(rows);
        }
        let batch = Batch::from_parts(cols, None);
        assert_eq!(batch.rows, rows, "ragged batch");
        batch
    }

    /// A batch with no columns but a logical row count — `COUNT(*)`-style
    /// scans request zero attributes yet still stream row cardinality.
    pub fn rows_only(rows: usize) -> Self {
        Batch {
            cols: Vec::new(),
            sel: None,
            rows,
        }
    }

    /// Number of logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// True when the batch has no logical rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `c`'s storage (physical rows; combine with
    /// [`Self::selection`] for the logical view).
    #[inline]
    pub fn column(&self, c: usize) -> &Column<'a> {
        &self.cols[c]
    }

    /// The selection vector, when the batch carries one.
    #[inline]
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Physical index of logical row `r`.
    #[inline]
    fn phys(&self, r: usize) -> usize {
        match &self.sel {
            Some(s) => s[r] as usize,
            None => r,
        }
    }

    /// Value at logical (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Datum {
        self.cols[col].datum(self.phys(row))
    }

    /// Extract logical row `r` as an owned vector.
    pub fn row(&self, r: usize) -> Vec<Datum> {
        let p = self.phys(r);
        self.cols.iter().map(|c| c.datum(p)).collect()
    }
}

/// Random access to one logical row, the index space being defined by the
/// evaluation context (scan attribute positions for pushed predicates, batch
/// column positions above the scan).
pub trait RowAccess {
    /// Value of column `col` in this row. Owned: typed columns materialize
    /// the datum on read, so references into storage are not available.
    fn value(&self, col: usize) -> Datum;
}

/// A row borrowed from a batch (selection-aware).
pub struct BatchRow<'a> {
    batch: &'a Batch<'a>,
    row: usize,
}

impl<'a> BatchRow<'a> {
    /// Borrow logical row `row` of `batch`.
    pub fn new(batch: &'a Batch<'a>, row: usize) -> Self {
        BatchRow { batch, row }
    }
}

impl RowAccess for BatchRow<'_> {
    #[inline]
    fn value(&self, col: usize) -> Datum {
        self.batch.value(self.row, col)
    }
}

/// A row backed by a plain slice: a source that resolves one row of values
/// at a time evaluates its pushed predicate through this before it appends
/// the row to a batch.
pub struct SliceRow<'a>(pub &'a [Datum]);

impl RowAccess for SliceRow<'_> {
    #[inline]
    fn value(&self, col: usize) -> Datum {
        self.0[col].clone()
    }
}

/// Borrowed columnar view for the vectorized predicate kernels
/// ([`crate::expr::RExpr::filter_columnar`]): the kernels run over these
/// before any batch (or any copy) exists, so a scan can filter borrowed
/// cache segments and materialize only the survivors. Physical row `i` of
/// the view reads `col` at `base + i` (a zero-copy window into a longer
/// cache column).
pub struct ColView<'a> {
    /// Backing typed storage.
    pub col: &'a TypedColumn,
    /// First backing row of the view.
    pub base: usize,
}

impl ColView<'_> {
    /// Value at view row `i` (row-at-a-time fallback path).
    #[inline]
    pub fn datum(&self, i: usize) -> Datum {
        self.col.datum(self.base + i).unwrap_or(Datum::Null)
    }
}

/// A row adapter over a set of column views (the kernels' row-at-a-time
/// fallback evaluates arbitrary expressions through this).
pub struct ViewRow<'a> {
    /// The viewed columns.
    pub cols: &'a [ColView<'a>],
    /// View row index.
    pub row: usize,
}

impl RowAccess for ViewRow<'_> {
    #[inline]
    fn value(&self, col: usize) -> Datum {
        self.cols[col].datum(self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::ColumnType;

    fn typed(ty: ColumnType, vals: &[Datum]) -> Column<'static> {
        let mut c = TypedColumn::new(ty);
        for v in vals {
            c.push(v);
        }
        Column::Typed(c)
    }

    fn typed_int(vals: &[Option<i64>]) -> Column<'static> {
        let vals: Vec<Datum> = vals
            .iter()
            .map(|v| v.map_or(Datum::Null, Datum::Int))
            .collect();
        typed(ColumnType::Int, &vals)
    }

    /// A dense (Int, Str) batch.
    fn int_str(rows: &[(i64, &str)]) -> Batch<'static> {
        let ints: Vec<Datum> = rows.iter().map(|r| Datum::Int(r.0)).collect();
        let strs: Vec<Datum> = rows.iter().map(|r| Datum::from(r.1)).collect();
        Batch::dense(
            vec![typed(ColumnType::Int, &ints), typed(ColumnType::Str, &strs)],
            rows.len(),
        )
    }

    #[test]
    fn push_and_read_back() {
        let b = int_str(&[(1, "a"), (2, "b")]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.value(1, 0), Datum::Int(2));
        assert_eq!(b.row(0), vec![Datum::Int(1), Datum::from("a")]);
        let counted = Batch::dense(Vec::new(), 7);
        assert_eq!((counted.rows(), counted.ncols()), (7, 0));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        let _ = Batch::from_parts(vec![typed_int(&[Some(1)]), Column::Nulls(0)], None);
    }

    #[test]
    fn row_access_adapters() {
        let b = Batch::dense(vec![typed_int(&[Some(7)]), typed_int(&[Some(8)])], 1);
        let r = BatchRow::new(&b, 0);
        assert_eq!(r.value(1), Datum::Int(8));
        let vals = [Datum::Int(9)];
        let s = SliceRow(&vals);
        assert_eq!(s.value(0), Datum::Int(9));
    }

    #[test]
    fn typed_batch_with_selection_is_transparent() {
        let b = Batch::from_parts(
            vec![
                typed_int(&[Some(10), None, Some(30), Some(40)]),
                Column::Nulls(4),
            ],
            Some(vec![0, 2, 3]),
        );
        assert_eq!(b.rows(), 3);
        assert_eq!(b.value(0, 0), Datum::Int(10));
        assert_eq!(b.value(1, 0), Datum::Int(30));
        assert_eq!(b.value(2, 0), Datum::Int(40));
        assert_eq!(b.value(1, 1), Datum::Null, "unmaterialized column");
        assert_eq!(b.row(1), vec![Datum::Int(30), Datum::Null]);
    }

    #[test]
    fn windows_read_through_their_base() {
        let backing = match typed_int(&[Some(1), None, Some(3), Some(4), Some(5)]) {
            Column::Typed(c) => c,
            _ => unreachable!(),
        };
        let window = |base, len| Column::Window {
            col: &backing,
            base,
            len,
        };
        let w = window(1, 3);
        assert_eq!((w.len(), w.view().map(|v| v.base)), (3, Some(1)));
        assert_eq!(w.datum(0), Datum::Null);
        assert_eq!(w.datum(2), Datum::Int(4));
        assert_eq!(w.datum(3), Datum::Null, "past the window, not the column");
    }

    #[test]
    fn view_row_reads_through_the_window() {
        let tc = match typed_int(&[Some(4), None, Some(6)]) {
            Column::Typed(c) => c,
            _ => unreachable!(),
        };
        let views = [ColView { col: &tc, base: 1 }];
        let row = |row| ViewRow { cols: &views, row }.value(0);
        assert_eq!(row(0), Datum::Null);
        assert_eq!(row(1), Datum::Int(6));
        assert_eq!(row(2), Datum::Null, "past the end");
    }
}
