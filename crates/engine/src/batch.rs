//! Columnar batches flowing between operators.
//!
//! # The typed-batch / selection-vector contract
//!
//! A [`Batch`] is a set of equal-length [`Column`]s plus an optional
//! **selection vector**. Columns come in three storage classes:
//!
//! * [`Column::Typed`] — cache-format typed storage
//!   ([`nodb_rawcache::TypedColumn`]: value vector + null bitmap). This is
//!   how every batch leaves the raw-file scan *without per-cell `Datum`
//!   boxing*, whatever fed it: the scan exports a segment of the raw cache
//!   or of a cold slice's freshly parsed partial columns
//!   (`TypedColumn::export_range` / `gather`) and moves it straight into the
//!   batch. Vectorized predicate and aggregate kernels read the value
//!   vectors directly.
//! * [`Column::Datums`] — one boxed [`Datum`] per row. This is the
//!   **fallback** representation; it engages whenever values are produced
//!   cell by cell (`MemSource`, loaded stores pushing through
//!   [`Batch::push_value`] — the raw-file scan no longer does) or whenever
//!   batches of mixed storage classes are concatenated. Every operator
//!   accepts it; the kernels simply fall back to row-at-a-time evaluation
//!   over it.
//! * [`Column::Nulls`] — an all-NULL column of known length, used for
//!   predicate-only scan positions (`ScanRequest::materialize[i] == false`):
//!   the predicate ran against the real values, so the output batch never
//!   materializes them (late materialization).
//!
//! The selection vector (`sel`) is a sorted list of *physical* row indices:
//! logical row `r` of the batch is physical row `sel[r]` of every column.
//! A filter over a typed batch can therefore pass the full segment
//! downstream and let aggregation iterate only the selected indices,
//! deferring (or entirely skipping) the gather. Every accessor —
//! [`Batch::value`], [`Batch::row`], [`BatchRow`] — resolves through the
//! selection, so row-at-a-time fallbacks stay oblivious and correct.
//! Mutating appenders require a dense batch; [`Batch::extend_from`]
//! materializes selections as needed.

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

/// Default number of rows per batch.
pub const BATCH_SIZE: usize = 1024;

/// One column of a batch; see the module docs for the storage classes.
#[derive(Debug)]
pub enum Column {
    /// Boxed datums — the universal fallback representation.
    Datums(Vec<Datum>),
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
            Column::Datums(v) => v.len(),
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
            Column::Datums(v) => v.get(i).cloned().unwrap_or(Datum::Null),
            Column::Typed(c) => c.datum(i).unwrap_or(Datum::Null),
            Column::Nulls(_) => Datum::Null,
        }
    }

    /// Append one value, degrading storage class when the value cannot be
    /// represented (a non-NULL into a [`Column::Nulls`]).
    pub fn push(&mut self, d: Datum) {
        match self {
            Column::Datums(v) => v.push(d),
            Column::Typed(c) => c.push_owned(d),
            Column::Nulls(n) => {
                if d.is_null() {
                    *n += 1;
                } else {
                    let mut v = vec![Datum::Null; *n];
                    v.push(d);
                    *self = Column::Datums(v);
                }
            }
        }
    }

    /// The physical rows `sel[i]`, in order, as a new column of the same
    /// storage class.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Datums(v) => {
                Column::Datums(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
            Column::Typed(c) => Column::Typed(c.gather(sel, 0)),
            Column::Nulls(_) => Column::Nulls(sel.len()),
        }
    }

    /// Append `other` (restricted to `other_sel` when given) after this
    /// column's rows. Matching typed storage concatenates segments; any
    /// mixed pairing degrades this column to [`Column::Datums`].
    pub fn append(&mut self, other: Column, other_sel: Option<&[u32]>) {
        // All-null tails never force a representation change.
        let other_rows = other_sel.map(<[u32]>::len).unwrap_or(other.len());
        if let Column::Nulls(_) = other {
            for _ in 0..other_rows {
                self.push(Datum::Null);
            }
            return;
        }
        match (&mut *self, other, other_sel) {
            (Column::Typed(a), Column::Typed(b), None) => a.append_segment(b),
            (Column::Typed(a), Column::Typed(b), Some(sel)) => a.append_segment(b.gather(sel, 0)),
            (Column::Datums(a), b, sel) => match sel {
                None => {
                    if let Column::Datums(bv) = b {
                        a.extend(bv);
                    } else {
                        for i in 0..b.len() {
                            a.push(b.datum(i));
                        }
                    }
                }
                Some(sel) => {
                    for &i in sel {
                        a.push(b.datum(i as usize));
                    }
                }
            },
            (this, b, sel) => {
                // Typed vs Datums, or an all-NULL prefix meeting real data:
                // degrade to datums and retry.
                let mut v: Vec<Datum> = Vec::with_capacity(this.len() + other_rows);
                for i in 0..this.len() {
                    v.push(this.datum(i));
                }
                let mut col = Column::Datums(v);
                col.append(b, sel);
                *self = col;
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
    /// Empty batch with `ncols` datum-storage columns, each with capacity
    /// for [`BATCH_SIZE`] rows.
    pub fn with_columns(ncols: usize) -> Self {
        Batch {
            cols: (0..ncols)
                .map(|_| Column::Datums(Vec::with_capacity(BATCH_SIZE)))
                .collect(),
            sel: None,
            rows: 0,
        }
    }

    /// Build directly from datum columns.
    ///
    /// # Panics
    /// Panics if the columns have differing lengths.
    pub fn from_columns(cols: Vec<Vec<Datum>>) -> Self {
        Batch::from_parts(cols.into_iter().map(Column::Datums).collect(), None)
    }

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

    /// True when the batch reached its target size.
    pub fn is_full(&self) -> bool {
        self.rows >= BATCH_SIZE
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

    /// Append one value to column `c` (caller keeps columns aligned and
    /// finishes the row with [`Self::finish_row`]). Requires a dense batch.
    #[inline]
    pub fn push_value(&mut self, c: usize, d: Datum) {
        debug_assert!(self.sel.is_none(), "cannot push into a selected batch");
        self.cols[c].push(d);
    }

    /// Declare one full row appended across all columns.
    #[inline]
    pub fn finish_row(&mut self) {
        self.rows += 1;
        debug_assert!(self.cols.iter().all(|c| c.len() == self.rows));
    }

    /// Append a row given as a slice of datums.
    pub fn push_row(&mut self, row: &[Datum]) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        debug_assert!(self.sel.is_none(), "cannot push into a selected batch");
        for (c, d) in row.iter().enumerate() {
            self.cols[c].push(d.clone());
        }
        self.rows += 1;
    }

    /// Extract logical row `r` as an owned vector.
    pub fn row(&self, r: usize) -> Vec<Datum> {
        let p = self.phys(r);
        self.cols.iter().map(|c| c.datum(p)).collect()
    }

    /// Keep only the logical rows whose index is in `keep` (ascending).
    pub fn take(&self, keep: &[usize]) -> Batch {
        let phys: Vec<u32> = keep.iter().map(|&r| self.phys(r) as u32).collect();
        Batch {
            cols: self.cols.iter().map(|c| c.gather(&phys)).collect(),
            sel: None,
            rows: keep.len(),
        }
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
    /// otherwise columns append pairwise, degrading to datum storage when
    /// the classes mix.
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

    /// Consume into dense datum columns (materializing any selection).
    pub fn into_columns(mut self) -> Vec<Vec<Datum>> {
        self.materialize();
        self.cols
            .into_iter()
            .map(|c| match c {
                Column::Datums(v) => v,
                other => (0..other.len()).map(|i| other.datum(i)).collect(),
            })
            .collect()
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
/// cache segments and materialize only the survivors.
pub enum ColView<'a> {
    /// Typed column; physical row `i` of the view reads `col` at
    /// `base + i` (a zero-copy window into a longer cache column).
    Typed {
        /// Backing typed storage.
        col: &'a TypedColumn,
        /// First backing row of the view.
        base: usize,
    },
    /// Boxed datums.
    Datums(&'a [Datum]),
    /// All-NULL column.
    Nulls,
}

impl ColView<'_> {
    /// Value at view row `i` (row-at-a-time fallback path).
    #[inline]
    pub fn datum(&self, i: usize) -> Datum {
        match self {
            ColView::Typed { col, base } => col.datum(base + i).unwrap_or(Datum::Null),
            ColView::Datums(v) => v.get(i).cloned().unwrap_or(Datum::Null),
            ColView::Nulls => Datum::Null,
        }
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

    fn typed_int(vals: &[Option<i64>]) -> Column {
        let mut c = TypedColumn::new(ColumnType::Int);
        for v in vals {
            match v {
                Some(v) => c.push(&Datum::Int(*v)),
                None => c.push(&Datum::Null),
            }
        }
        Column::Typed(c)
    }

    #[test]
    fn push_and_read_back() {
        let mut b = Batch::with_columns(2);
        b.push_row(&[Datum::Int(1), Datum::from("a")]);
        b.push_row(&[Datum::Int(2), Datum::from("b")]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.value(1, 0), Datum::Int(2));
        assert_eq!(b.row(0), vec![Datum::Int(1), Datum::from("a")]);
    }

    #[test]
    fn take_filters_rows() {
        let mut b = Batch::with_columns(1);
        for i in 0..5 {
            b.push_row(&[Datum::Int(i)]);
        }
        let t = b.take(&[0, 2, 4]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.value(1, 0), Datum::Int(2));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        let _ = Batch::from_columns(vec![vec![Datum::Int(1)], vec![]]);
    }

    #[test]
    fn extend_from_preserves_row_order() {
        let mut a = Batch::with_columns(2);
        a.push_row(&[Datum::Int(1), Datum::from("a")]);
        let mut b = Batch::with_columns(2);
        b.push_row(&[Datum::Int(2), Datum::from("b")]);
        b.push_row(&[Datum::Int(3), Datum::from("c")]);
        a.extend_from(b);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(0), vec![Datum::Int(1), Datum::from("a")]);
        assert_eq!(a.row(2), vec![Datum::Int(3), Datum::from("c")]);
        // Extending with an empty batch is a no-op.
        a.extend_from(Batch::with_columns(2));
        assert_eq!(a.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn extend_from_rejects_arity_mismatch() {
        let mut a = Batch::with_columns(1);
        a.extend_from(Batch::with_columns(2));
    }

    #[test]
    fn row_access_adapters() {
        let mut b = Batch::with_columns(2);
        b.push_row(&[Datum::Int(7), Datum::Int(8)]);
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
        // take() composes the selections.
        let t = b.take(&[0, 2]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.value(1, 0), Datum::Int(40));
    }

    #[test]
    fn empty_batch_adopts_typed_storage() {
        let mut acc = Batch::with_columns(1);
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
    fn mixed_storage_extend_degrades_to_datums() {
        let mut acc = Batch::with_columns(1);
        acc.push_row(&[Datum::Int(1)]);
        acc.extend_from(Batch::from_parts(vec![typed_int(&[Some(2)])], None));
        assert_eq!(acc.rows(), 2);
        assert_eq!(acc.value(1, 0), Datum::Int(2));
        assert!(matches!(acc.column(0), Column::Datums(_)));
        // Nulls columns extend anything without changing its class.
        let mut t = Batch::from_parts(vec![typed_int(&[Some(5)])], None);
        t.extend_from(Batch::from_parts(vec![Column::Nulls(2)], None));
        assert_eq!(t.rows(), 3);
        assert!(matches!(t.column(0), Column::Typed(_)));
        assert_eq!(t.value(2, 0), Datum::Null);
    }

    #[test]
    fn into_columns_materializes_selection() {
        let b = Batch::from_parts(
            vec![typed_int(&[Some(1), Some(2), Some(3)])],
            Some(vec![0, 2]),
        );
        assert_eq!(b.into_columns(), vec![vec![Datum::Int(1), Datum::Int(3)]]);
    }

    #[test]
    fn view_row_reads_all_classes() {
        let datums = [Datum::from("x")];
        let tc = match typed_int(&[Some(4)]) {
            Column::Typed(c) => c,
            _ => unreachable!(),
        };
        let views = [
            ColView::Typed { col: &tc, base: 0 },
            ColView::Datums(&datums),
            ColView::Nulls,
        ];
        let row = ViewRow {
            cols: &views,
            row: 0,
        };
        assert_eq!(row.value(0), Datum::Int(4));
        assert_eq!(row.value(1), Datum::from("x"));
        assert_eq!(row.value(2), Datum::Null);
    }
}
