//! Columnar batches flowing between operators.
//!
//! # The typed-batch / selection-vector contract
//!
//! A [`Batch`] is a set of equal-length [`Column`]s plus an optional
//! **selection vector**. Columns come in two storage classes:
//!
//! * [`Column::Typed`] — cache-format typed storage
//!   ([`nodb_rawcache::TypedColumn`]: value vector + null bitmap). Every
//!   source emits it: the raw-file scan exports a segment of the raw cache
//!   or of a cold slice's freshly parsed partial columns
//!   (`TypedColumn::export_range` / `gather`) and moves it straight into the
//!   batch; the loaded stores and `MemSource` push their rows into columns
//!   typed from the schema (or, for `MemSource`, from each column's first
//!   non-NULL value). Vectorized predicate and aggregate kernels read the
//!   value vectors directly.
//! * [`Column::Nulls`] — an all-NULL column of known length, used for
//!   predicate-only scan positions (`ScanRequest::materialize[i] == false`):
//!   the predicate ran against the real values, so the output batch never
//!   materializes them (late materialization).
//!
//! Concatenating the two classes ([`Column::append`]) keeps a column typed:
//! NULL rows pad the typed side.
//!
//! The selection vector (`sel`) is a sorted list of *physical* row indices:
//! logical row `r` of the batch is physical row `sel[r]` of every column.
//! A filter over a typed batch can therefore pass the full segment
//! downstream and let aggregation iterate only the selected indices,
//! deferring (or entirely skipping) the gather. Every accessor —
//! [`Batch::value`], [`Batch::row`], [`BatchRow`] — resolves through the
//! selection, so row-at-a-time fallbacks stay oblivious and correct.
//! [`Batch::extend_from`] materializes selections as needed.

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

/// Default number of rows per batch.
pub const BATCH_SIZE: usize = 1024;

/// One column of a batch; see the module docs for the storage classes.
#[derive(Debug)]
pub enum Column {
    /// Typed cache-format storage (values + null bitmap), enabling
    /// vectorized kernels.
    Typed(TypedColumn),
    /// All-NULL column of the given physical length (late materialization
    /// of predicate-only positions).
    Nulls(usize),
}

impl Column {
    /// Physical rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Typed(c) => c.len(),
            Column::Nulls(n) => *n,
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at physical row `i` (NULL past the end, which only a ragged
    /// caller can reach).
    #[inline]
    pub fn datum(&self, i: usize) -> Datum {
        match self {
            Column::Typed(c) => c.datum(i).unwrap_or(Datum::Null),
            Column::Nulls(_) => Datum::Null,
        }
    }

    /// The physical rows `sel[i]`, in order, as a new column of the same
    /// storage class.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Typed(c) => Column::Typed(c.gather(sel, 0)),
            Column::Nulls(_) => Column::Nulls(sel.len()),
        }
    }

    /// Append `other` (restricted to `other_sel` when given) after this
    /// column's rows. Typed segments concatenate; a [`Column::Nulls`] side
    /// meeting a typed one becomes NULL rows of the typed column, in either
    /// order, so the result stays typed.
    pub fn append(&mut self, other: Column, other_sel: Option<&[u32]>) {
        let other = match other_sel {
            Some(sel) => other.gather(sel),
            None => other,
        };
        match (&mut *self, other) {
            (Column::Typed(a), Column::Typed(b)) => a.append_segment(b),
            (Column::Typed(a), Column::Nulls(m)) => (0..m).for_each(|_| a.push_null()),
            (Column::Nulls(n), Column::Nulls(m)) => *n += m,
            (Column::Nulls(n), Column::Typed(b)) => {
                let mut a = TypedColumn::new(b.ty());
                (0..*n).for_each(|_| a.push_null());
                a.append_segment(b);
                *self = Column::Typed(a);
            }
        }
    }
}

/// A column-major batch of values. All columns have the same physical
/// length; with a selection vector attached, the batch's *logical* rows are
/// the selected physical rows, in order (see module docs).
#[derive(Debug, Default)]
pub struct Batch {
    cols: Vec<Column>,
    /// Sorted physical indices of the logical rows; `None` = dense.
    sel: Option<Vec<u32>>,
    rows: usize,
}

impl Batch {
    /// Build from storage-class columns plus an optional selection vector.
    ///
    /// # Panics
    /// Panics when column lengths differ, or when a selected index is out
    /// of range.
    pub fn from_parts(cols: Vec<Column>, sel: Option<Vec<u32>>) -> Self {
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
    pub fn dense(cols: Vec<Column>, rows: usize) -> Self {
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
    pub fn column(&self, c: usize) -> &Column {
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

    /// Resolve the selection vector into dense columns (no-op when dense).
    pub fn materialize(&mut self) {
        if let Some(sel) = self.sel.take() {
            for c in &mut self.cols {
                *c = c.gather(&sel);
            }
        }
    }

    /// Append every row of `other` after this batch's rows.
    ///
    /// This is the reorder-free concatenation the parallel scan relies on:
    /// per-partition output batches are stitched back together in partition
    /// order, so downstream operators observe exactly the row order a
    /// sequential scan would have produced. An empty batch *adopts* the
    /// other's storage (typed columns and selection travel through intact);
    /// otherwise columns append pairwise ([`Column::append`]).
    ///
    /// # Panics
    /// Panics when the column counts differ.
    pub fn extend_from(&mut self, other: Batch) {
        assert_eq!(self.cols.len(), other.cols.len(), "batch arity mismatch");
        if self.rows == 0 {
            *self = other;
            return;
        }
        self.materialize();
        let sel = other.sel.as_deref();
        let rows = other.rows;
        for (col, ocol) in self.cols.iter_mut().zip(other.cols) {
            col.append(ocol, sel);
        }
        self.rows += rows;
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
    batch: &'a Batch,
    row: usize,
}

impl<'a> BatchRow<'a> {
    /// Borrow logical row `row` of `batch`.
    pub fn new(batch: &'a Batch, row: usize) -> Self {
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

    fn typed(ty: ColumnType, vals: &[Datum]) -> Column {
        let mut c = TypedColumn::new(ty);
        for v in vals {
            c.push(v);
        }
        Column::Typed(c)
    }

    fn typed_int(vals: &[Option<i64>]) -> Column {
        let vals: Vec<Datum> = vals
            .iter()
            .map(|v| v.map_or(Datum::Null, Datum::Int))
            .collect();
        typed(ColumnType::Int, &vals)
    }

    /// A dense (Int, Str) batch.
    fn int_str(rows: &[(i64, &str)]) -> Batch {
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
    fn extend_from_preserves_row_order() {
        let mut a = int_str(&[(1, "a")]);
        a.extend_from(int_str(&[(2, "b"), (3, "c")]));
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(0), vec![Datum::Int(1), Datum::from("a")]);
        assert_eq!(a.row(2), vec![Datum::Int(3), Datum::from("c")]);
        // Extending with an empty batch is a no-op.
        a.extend_from(int_str(&[]));
        assert_eq!(a.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn extend_from_rejects_arity_mismatch() {
        let mut a = Batch::dense(vec![typed_int(&[Some(1)])], 1);
        a.extend_from(int_str(&[(2, "b")]));
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
    fn empty_batch_adopts_typed_storage() {
        let mut acc = Batch::dense(vec![typed_int(&[])], 0);
        let typed = Batch::from_parts(vec![typed_int(&[Some(1), Some(2)])], Some(vec![1]));
        acc.extend_from(typed);
        assert_eq!(acc.rows(), 1);
        assert!(matches!(acc.column(0), Column::Typed(_)), "storage adopted");
        assert_eq!(acc.value(0, 0), Datum::Int(2));
        // A second typed extend materializes the selection and concatenates.
        acc.extend_from(Batch::from_parts(vec![typed_int(&[None, Some(9)])], None));
        assert_eq!(acc.rows(), 3);
        assert_eq!(acc.row(1), vec![Datum::Null]);
        assert_eq!(acc.row(2), vec![Datum::Int(9)]);
    }

    #[test]
    fn nulls_and_typed_extend_stay_typed_in_either_order() {
        // Typed ⊕ Nulls: the NULL rows pad the typed column.
        let mut t = Batch::dense(vec![typed_int(&[Some(5)])], 1);
        t.extend_from(Batch::from_parts(vec![Column::Nulls(3)], Some(vec![0, 2])));
        assert_eq!(t.rows(), 3);
        assert!(matches!(t.column(0), Column::Typed(_)));
        assert_eq!(t.row(0), vec![Datum::Int(5)]);
        assert_eq!(t.value(1, 0), Datum::Null);
        assert_eq!(t.value(2, 0), Datum::Null);
        // Nulls ⊕ Typed under a selection: NULLs first, then the selected
        // typed rows, in order.
        let mut n = Batch::dense(vec![Column::Nulls(2)], 2);
        n.extend_from(Batch::from_parts(
            vec![typed_int(&[Some(1), None, Some(3), Some(4)])],
            Some(vec![1, 2, 3]),
        ));
        assert_eq!(n.rows(), 5);
        assert!(matches!(n.column(0), Column::Typed(_)));
        let got: Vec<Datum> = (0..5).map(|r| n.value(r, 0)).collect();
        assert_eq!(
            got,
            vec![
                Datum::Null,
                Datum::Null,
                Datum::Null,
                Datum::Int(3),
                Datum::Int(4)
            ]
        );
        // Nulls ⊕ Nulls stays all-NULL.
        let mut both = Batch::dense(vec![Column::Nulls(1)], 1);
        both.extend_from(Batch::dense(vec![Column::Nulls(2)], 2));
        assert!(matches!(both.column(0), Column::Nulls(3)));
    }

    #[test]
    fn materialize_resolves_selection() {
        let mut b = Batch::from_parts(
            vec![typed_int(&[Some(1), Some(2), Some(3)])],
            Some(vec![0, 2]),
        );
        b.materialize();
        assert_eq!(b.selection(), None);
        assert_eq!(b.column(0).len(), 2);
        assert_eq!(b.row(1), vec![Datum::Int(3)]);
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
