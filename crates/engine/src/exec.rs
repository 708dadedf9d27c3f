//! Pipeline execution above the scan: projection, hash aggregation, sort,
//! limit (a bounded top-n under `ORDER BY`).
//!
//! Aggregation is columnar and has one path. Each batch is resolved to
//! dense group ids through an open-addressing table over the typed key
//! columns; a global aggregate is the case without keys, where every row is
//! in group 0. Each (aggregate, column type) pairing with a typed kernel is
//! one `Fold` over a typed accumulator, driven over a batch in one of two
//! ways: reduced, in a local accumulator that continues group 0's state and
//! is stored back once per batch, or scattered into each row's group state
//! by id. Only computed expressions and the pairings without a fold — COUNT
//! DISTINCT, MIN/MAX over strings or booleans, SUM/AVG over non-numbers —
//! go value by value through the scalar accumulator.
//!
//! That state is one type, [`AggPartial`]: the group table plus every
//! aggregate's per-group states over the rows folded so far. [`execute`]
//! folds its source into one partial (`ScanSource::aggregate`). A source
//! that cuts its rows into contiguous ranges — a raw-file scan's cached
//! rows, on its granted workers — folds each range into a partial of its
//! own and merges them in row order ([`AggPartial::merge`]): a later
//! partial's groups join in their arrival order, so the groups come out in
//! the serial fold's order; COUNT adds, SUM and AVG add their exact `i128`
//! Int sums, COUNT DISTINCT unions its hash sets, and MIN/MAX keeps the
//! earlier extreme unless the later one beats it under `total_cmp`. AVG
//! keeps its Int values exactly too, beside a float sum for Float values,
//! so an Int column's average does not depend on where the ranges were
//! cut. Only float addition depends on order: an aggregation with a SUM or
//! AVG over anything but a bare Int column runs as one range
//! ([`AggPartial::order_free`]). The merged answer is then the serial
//! fold's, byte for byte, and the error a failing range reports is the
//! lowest range's first one, the serial fold's.
//!
//! `ORDER BY … LIMIT n` keeps a bounded top-n: a heap of the `n` best rows
//! under (sort keys, arrival ordinal), so the answer is exactly the stable
//! sort's prefix. Once the heap is full and the first key is a bare column
//! that arrives typed, a threshold kernel reads that column once per batch
//! against the **bound** — the first key of the heap's worst row — and
//! selects, branch-free through the batch's selection, the rows whose key
//! beats or ties it, with NULL the smallest key and floats under
//! [`f64::total_cmp`]. Only those rows have their keys evaluated and
//! compared; ~`n·ln(N/n)` of `N` rows enter. Before the heap fills, and for
//! a computed first key, every row takes that row-at-a-time path. One
//! comparator (`cmp_sort_keys`) orders the top-n, the unlimited sort and
//! the sort of aggregate output.
//!
//! Kept deliberately boring — this is the part of the system the paper says
//! should *not* change between PostgresRaw and a conventional DBMS ("the
//! rest of the query plan, generated by the optimizer, works without any
//! changes"). Every system wrapper in the experiment harness runs exactly
//! this code; only the [`ScanSource`] differs.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use nodb_rawcache::column::NullMask;
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;
use nodb_sqlparse::ast::AggFunc;

use crate::batch::{Batch, BatchRow, ColView};
use crate::error::{EngineError, EngineResult};
use crate::expr::{null_bit, RExpr};
use crate::group::GroupTable;
use crate::hash::hash_datum;
use crate::planner::{AggCall, AggOutput, AggSpec, Pipeline, PlannedQuery};
use crate::result::QueryResult;
use crate::source::ScanSource;

/// Ceiling on hint-driven `Vec` pre-sizing: a selective predicate can make a
/// source's row-count hint a wild over-estimate, so never reserve more than
/// this many rows up front (growth doubling takes over beyond it).
const MAX_RESERVE_ROWS: usize = 1 << 20;

/// Execute a planned query against a scan source, materializing the result.
/// Every batch column is typed — owned, or a borrowed window of a longer
/// column ([`crate::batch::Column`]) — or all-NULL; every typed kernel reads
/// it through its [`ColView`]. Aggregates
/// run a batch at a time: GROUP BY hashes its key columns into dense group
/// ids (bare keys straight from the typed storage), a global aggregate puts
/// every row in group 0, and each bare argument column is folded into the
/// per-group states by typed kernels. Projections, computed keys and
/// arguments, and the (aggregate, type) pairings without a kernel evaluate
/// row-at-a-time through [`BatchRow`].
///
/// `LIMIT n` bounds the work as well as the output: a plain projection
/// stops pulling batches once it holds `n` rows — a lazy source then stops
/// reading — and `ORDER BY … LIMIT n` keeps a bounded top-n instead of
/// sorting every row. Both return exactly what sorting everything
/// ([`sort_rows`]) and truncating would.
pub fn execute<'a>(
    planned: &PlannedQuery,
    mut source: Box<dyn ScanSource<'a> + '_>,
) -> EngineResult<QueryResult> {
    let pipeline = &planned.pipeline;
    // A limit beyond the address space keeps every row.
    let limit = pipeline
        .limit
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let mut rows: Vec<Vec<Datum>> = match (&pipeline.aggregate, limit) {
        (Some(agg), _) => {
            let mut partial = AggPartial::new(agg);
            source.aggregate(&mut partial)?;
            let mut rows = partial.finish();
            if !pipeline.order_by.is_empty() {
                sort_rows(&mut rows, &pipeline.order_by);
            }
            rows.truncate(limit.unwrap_or(usize::MAX));
            rows
        }
        (None, _) if pipeline.order_by.is_empty() => {
            run_projection(pipeline, source.as_mut(), limit)?
        }
        (None, Some(n)) => run_top_n(pipeline, source.as_mut(), n)?,
        (None, None) => {
            let mut rows = run_projection(pipeline, source.as_mut(), None)?;
            sort_rows(&mut rows, &pipeline.order_by);
            rows
        }
    };
    if pipeline.hidden_sort_columns > 0 {
        let keep = pipeline.column_names.len();
        for r in &mut rows {
            r.truncate(keep);
        }
    }
    Ok(QueryResult {
        columns: pipeline.column_names.clone(),
        rows,
    })
}

/// Project the source's rows in arrival order, pulling no batch once
/// `limit` rows are held.
fn run_projection(
    pipeline: &Pipeline,
    source: &mut dyn ScanSource<'_>,
    limit: Option<usize>,
) -> EngineResult<Vec<Vec<Datum>>> {
    let cap = limit.unwrap_or(usize::MAX);
    // Pre-size from the rows the source knows it holds instead of
    // growth-doubling through reallocations.
    let mut rows = Vec::with_capacity(
        source
            .size_hint()
            .unwrap_or(0)
            .min(cap)
            .min(MAX_RESERVE_ROWS),
    );
    while rows.len() < cap {
        let Some(batch) = source.next_batch()? else {
            break;
        };
        for r in 0..batch.rows().min(cap - rows.len()) {
            let row_ref = BatchRow::new(&batch, r);
            let row: Vec<Datum> = pipeline
                .projections
                .iter()
                .map(|p| p.eval(&row_ref))
                .collect();
            rows.push(row);
        }
    }
    Ok(rows)
}

/// One row held by [`run_top_n`]: its sort-key values, its arrival ordinal
/// (the tie-break that makes the order total and equal to a stable sort's)
/// and its projected values. Ordered worst-last, so a max-heap's top is the
/// row the next better one evicts.
struct Ranked<'a> {
    keys: Vec<Datum>,
    ordinal: usize,
    row: Vec<Datum>,
    order: &'a [(usize, bool)],
}

impl Ranked<'_> {
    fn rank(&self, keys: &[Datum], ordinal: usize) -> Ordering {
        cmp_sort_keys(self.order, self.keys.iter().zip(keys)).then(self.ordinal.cmp(&ordinal))
    }
}

impl PartialEq for Ranked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked<'_> {}

impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank(&other.keys, other.ordinal)
    }
}

/// The one sort comparator: two rows' values of each `ORDER BY` key, paired
/// in key order, compared under [`Datum::total_cmp`] and the key's
/// direction. [`sort_rows`] pairs a row's values at each key's column, the
/// top-n its evaluated key vectors.
fn cmp_sort_keys<'d>(
    order: &[(usize, bool)],
    pairs: impl IntoIterator<Item = (&'d Datum, &'d Datum)>,
) -> Ordering {
    for (&(_, asc), (x, y)) in order.iter().zip(pairs) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return if asc { o } else { o.reverse() };
        }
    }
    Ordering::Equal
}

/// `ORDER BY … LIMIT n` as a bounded top-n: the `n` best rows under
/// (sort keys, arrival ordinal), in that order — exactly the first `n` rows
/// of the stable [`sort_rows`], ties included. The heap holds at most
/// `min(n, rows seen)` rows, so a huge `n` reserves nothing it does not
/// fill.
///
/// A row is offered to the heap by evaluating its sort keys and comparing
/// them, with its ordinal, to the worst kept row's; only a row that enters
/// has its full projection built. Once the heap is full and the first key
/// is a bare column that arrives typed, each batch first runs
/// [`top_n_contenders`] against the worst kept row's first key, the
/// **bound**: a row whose first key is worse than the bound cannot enter,
/// so only the rows that beat or tie it are offered. The bound is taken
/// once per batch; rows entering mid-batch only tighten the heap, and each
/// contender still meets the full comparison. Until the heap is full, and
/// for a computed first key or one that arrives all-NULL, every row is
/// offered.
fn run_top_n(
    pipeline: &Pipeline,
    source: &mut dyn ScanSource<'_>,
    n: usize,
) -> EngineResult<Vec<Vec<Datum>>> {
    let order = &pipeline.order_by[..];
    if n == 0 {
        return Ok(Vec::new());
    }
    // The batch column and direction of a first key the kernel can read.
    let first = order
        .first()
        .and_then(|&(col, asc)| match pipeline.projections[col] {
            RExpr::Col(c) => Some((c, asc)),
            _ => None,
        });
    let mut heap: BinaryHeap<Ranked<'_>> =
        BinaryHeap::with_capacity(source.size_hint().unwrap_or(0).min(n).min(MAX_RESERVE_ROWS));
    let mut keys: Vec<Datum> = Vec::with_capacity(order.len());
    let mut contenders: Vec<u32> = Vec::new();
    let mut ordinal = 0usize;
    while let Some(batch) = source.next_batch()? {
        let bounded = match (first, heap.peek()) {
            (Some((c, asc)), Some(worst)) if heap.len() == n => {
                let column = batch.column(c);
                column.view().is_some_and(|view| {
                    let (phys, sel) = (column.len(), batch.selection());
                    top_n_contenders(view, phys, sel, &worst.keys[0], asc, &mut contenders);
                    true
                })
            }
            _ => false,
        };
        let mut offer = |r: usize| {
            let row_ref = BatchRow::new(&batch, r);
            keys.clear();
            keys.extend(
                order
                    .iter()
                    .map(|&(col, _)| pipeline.projections[col].eval(&row_ref)),
            );
            let full = heap.len() == n;
            // A later row that ties the worst kept one ranks after it.
            if full
                && !heap
                    .peek()
                    .is_some_and(|worst| worst.rank(&keys, ordinal + r).is_gt())
            {
                return;
            }
            let entry = Ranked {
                keys: std::mem::replace(&mut keys, Vec::with_capacity(order.len())),
                ordinal: ordinal + r,
                row: pipeline
                    .projections
                    .iter()
                    .map(|p| p.eval(&row_ref))
                    .collect(),
                order,
            };
            if full {
                if let Some(mut worst) = heap.peek_mut() {
                    *worst = entry;
                }
            } else {
                heap.push(entry);
            }
        };
        if bounded {
            contenders.iter().for_each(|&r| offer(r as usize));
        } else {
            (0..batch.rows()).for_each(offer);
        }
        ordinal += batch.rows();
    }
    Ok(heap.into_sorted_vec().into_iter().map(|e| e.row).collect())
}

/// The top-n threshold kernel: write to `out`, ascending, the logical rows
/// of a batch whose first sort key — the `phys` physical rows of `view`,
/// read through the batch's selection `sel` — beats or ties `bound` under
/// the key's direction (`asc`).
/// Only these rows can enter a full top-n whose worst row's first key is
/// `bound`; a tie goes on to the later keys and the ordinal.
///
/// Keys order as [`Datum::total_cmp`]: the column's type is matched against
/// the bound's once per batch, floats compare under [`f64::total_cmp`] (an
/// Int against a Float as `f64`), and a key of another type class orders
/// the same way for every row. NULL is the smallest key, read from the
/// bitmap words: under ASC it beats any non-NULL bound, under DESC it loses
/// to one, and it ties a NULL bound. Each candidate is written and the
/// output advanced by whether it is kept, as the predicate kernels write a
/// selection.
fn top_n_contenders(
    view: ColView<'_>,
    phys: usize,
    sel: Option<&[u32]>,
    bound: &Datum,
    asc: bool,
    out: &mut Vec<u32>,
) {
    let loses = if asc {
        Ordering::Greater
    } else {
        Ordering::Less
    };
    let keeps = |o: Ordering| o != loses;
    let null_keeps = keeps(Datum::Null.total_cmp(bound));
    let ColView { col, base } = view;
    // Physical rows `0..phys` of the window, as the loops index them.
    let window = base..base + phys;
    let nulls = (col.nulls(), base);
    use TypedColumn::{Bool, Float, Int, Str};
    match (col, bound) {
        (Int { values, .. }, Datum::Int(k)) => {
            let values = &values[window];
            contenders(phys, nulls, sel, null_keeps, out, |p| {
                keeps(values[p].cmp(k))
            });
        }
        (Int { values, .. }, Datum::Float(k)) => {
            let values = &values[window];
            contenders(phys, nulls, sel, null_keeps, out, |p| {
                keeps((values[p] as f64).total_cmp(k))
            });
        }
        (Float { values, .. }, Datum::Float(k)) => {
            let values = &values[window];
            contenders(phys, nulls, sel, null_keeps, out, |p| {
                keeps(values[p].total_cmp(k))
            });
        }
        (Float { values, .. }, &Datum::Int(k)) => {
            let (values, k) = (&values[window], k as f64);
            contenders(phys, nulls, sel, null_keeps, out, |p| {
                keeps(values[p].total_cmp(&k))
            });
        }
        (Str { values, .. }, Datum::Str(k)) => {
            let values = &values[window];
            contenders(phys, nulls, sel, null_keeps, out, |p| {
                keeps(values[p].cmp(k))
            });
        }
        (Bool { values, .. }, Datum::Bool(k)) => {
            let values = &values[window];
            contenders(phys, nulls, sel, null_keeps, out, |p| {
                keeps(values[p].cmp(k))
            });
        }
        // A NULL bound or one of another type class: every non-NULL key
        // orders against it as any value of the column's type does.
        _ => {
            let any = match col {
                Int { .. } => Datum::Int(0),
                Float { .. } => Datum::Float(0.0),
                Str { .. } => Datum::from(""),
                Bool { .. } => Datum::Bool(false),
            };
            let kept = keeps(any.total_cmp(bound));
            contenders(phys, nulls, sel, null_keeps, out, |_| kept);
        }
    }
}

/// [`top_n_contenders`]' loop over a window of `phys` physical rows whose
/// NULL bits start at bit `base` of `nulls`: logical row `r` is physical
/// row `sel[r]` (`r` without a selection) and is kept when `keeps(p)` holds
/// for its physical row `p`, or `null_keeps` for a NULL row. A window
/// without NULLs tests no bit.
#[inline(always)]
fn contenders(
    phys: usize,
    (nulls, base): (&NullMask, usize),
    sel: Option<&[u32]>,
    null_keeps: bool,
    out: &mut Vec<u32>,
    keeps: impl Fn(usize) -> bool,
) {
    if nulls.count_nulls(base, base + phys) > 0 {
        let words = nulls.words();
        write_kept(phys, sel, out, |p| {
            let null = null_bit(words, base + p);
            keeps(p) & !null | null & null_keeps
        });
    } else {
        write_kept(phys, sel, out, keeps);
    }
}

/// Write the logical rows whose physical row passes `keep` to `out`:
/// every candidate is written and the length advances by `keep as usize`.
#[inline(always)]
fn write_kept(phys: usize, sel: Option<&[u32]>, out: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let rows = sel.map_or(phys, <[u32]>::len);
    out.clear();
    out.resize(rows, 0);
    let mut n = 0;
    match sel {
        Some(s) => {
            for (r, &p) in s.iter().enumerate() {
                out[n] = r as u32;
                n += usize::from(keep(p as usize));
            }
        }
        None => {
            for p in 0..rows {
                out[n] = p as u32;
                n += usize::from(keep(p));
            }
        }
    }
    out.truncate(n);
}

/// Accumulator for one aggregate call within one group (group 0 of a
/// global aggregate). The typed kernels ([`Fold`]) fold into it through a
/// copy of its accumulator; everything else through [`AggState::update`].
enum AggState {
    Count(u64),
    CountDistinct(HashSet<u64>),
    Sum(Sum),
    Avg(Avg),
    Min(Option<Datum>),
    Max(Option<Datum>),
}

/// SUM's accumulator: integers add exactly in `int` and floats in `float`;
/// the answer is an Int unless a float was added or the total leaves i64.
#[derive(Clone, Copy, Default)]
struct Sum {
    int: i128,
    float: f64,
    any_float: bool,
    non_null: u64,
}

/// AVG's accumulator: like [`Sum`], integers add exactly in `int` and
/// floats in `float`, so an Int column's average does not depend on the
/// order its values were added in; `non_null` counts both.
#[derive(Clone, Copy, Default)]
struct Avg {
    int: i128,
    float: f64,
    non_null: u64,
}

/// MIN (`MAX = false`) or MAX (`MAX = true`) of a run of values of one
/// type, merged into the state's `Option<Datum>` when stored.
#[derive(Clone, Copy)]
struct Extreme<T, const MAX: bool>(Option<T>);

impl AggState {
    fn new(call: &AggCall) -> Self {
        match (call.func, call.distinct) {
            (AggFunc::Count, true) => AggState::CountDistinct(HashSet::new()),
            (AggFunc::Count, false) => AggState::Count(0),
            (AggFunc::Sum, _) => AggState::Sum(Sum::default()),
            (AggFunc::Avg, _) => AggState::Avg(Avg::default()),
            (AggFunc::Min, _) => AggState::Min(None),
            (AggFunc::Max, _) => AggState::Max(None),
        }
    }

    /// Fold one argument value, whatever its type: NULL updates nothing,
    /// and SUM/AVG fail on a value that is not a number. This is the
    /// reference the typed folds ([`Fold`]) must equal on the pairings they
    /// cover, so it does its own arithmetic.
    fn update(&mut self, d: &Datum) -> EngineResult<()> {
        if d.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::CountDistinct(set) => {
                set.insert(hash_datum(d));
            }
            AggState::Sum(s) => {
                match d {
                    Datum::Int(v) => s.int += i128::from(*v),
                    Datum::Float(v) => {
                        s.float += v;
                        s.any_float = true;
                    }
                    _ => {
                        return Err(EngineError::Execution(format!(
                            "SUM over non-numeric value {d}"
                        )))
                    }
                }
                s.non_null += 1;
            }
            AggState::Avg(a) => {
                match d {
                    Datum::Int(v) => a.int += i128::from(*v),
                    Datum::Float(v) => a.float += v,
                    _ => {
                        return Err(EngineError::Execution(format!(
                            "AVG over non-numeric value {d}"
                        )))
                    }
                }
                a.non_null += 1;
            }
            AggState::Min(_) | AggState::Max(_) => self.extreme(d),
        }
        Ok(())
    }

    /// Fold in `later`, the same call's state over the rows right after
    /// this one's (see [`AggPartial::merge`]).
    fn merge(&mut self, later: AggState) {
        match (self, later) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.extend(b),
            (AggState::Sum(a), AggState::Sum(b)) => {
                a.int += b.int;
                a.float += b.float;
                a.any_float |= b.any_float;
                a.non_null += b.non_null;
            }
            (AggState::Avg(a), AggState::Avg(b)) => {
                a.int += b.int;
                a.float += b.float;
                a.non_null += b.non_null;
            }
            (s, AggState::Min(Some(v)) | AggState::Max(Some(v))) => s.extreme(&v),
            _ => {}
        }
    }

    /// MIN/MAX of one non-NULL value: keep a copy of `d` when it beats the
    /// current extreme under [`Datum::total_cmp`].
    #[inline]
    fn extreme(&mut self, d: &Datum) {
        let (cur, beats) = match self {
            AggState::Min(cur) => (cur, Ordering::Less),
            AggState::Max(cur) => (cur, Ordering::Greater),
            _ => return,
        };
        if cur.as_ref().is_none_or(|c| d.total_cmp(c) == beats) {
            *cur = Some(d.clone());
        }
    }

    fn finish(self) -> Datum {
        match self {
            AggState::Count(n) => Datum::Int(n as i64),
            AggState::CountDistinct(set) => Datum::Int(set.len() as i64),
            AggState::Sum(s) => {
                if s.non_null == 0 {
                    Datum::Null
                } else if s.any_float {
                    Datum::Float(s.float + s.int as f64)
                } else if let Ok(v) = i64::try_from(s.int) {
                    Datum::Int(v)
                } else {
                    Datum::Float(s.int as f64)
                }
            }
            AggState::Avg(a) => {
                if a.non_null == 0 {
                    Datum::Null
                } else {
                    Datum::Float((a.float + a.int as f64) / a.non_null as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Datum::Null),
        }
    }
}

/// A typed accumulator, taken out of an [`AggState`] and put back.
trait Acc: Copy {
    /// The accumulator that continues `state`.
    fn load(state: &AggState) -> Self;
    /// Put the accumulator back into `state`.
    fn store(self, state: &mut AggState);
}

/// One (aggregate, column type) pairing with a typed kernel: how its
/// accumulator folds one non-NULL value of type `T`. [`drive`] runs it over
/// a batch, reducing into group 0 or scattering into each row's group.
trait Fold<T>: Acc {
    fn fold(&mut self, v: T);
}

/// COUNT, SUM and AVG continue from a copy of their state's accumulator.
macro_rules! acc_in_state {
    ($($acc:ty => $variant:ident),*) => {$(
        impl Acc for $acc {
            fn load(state: &AggState) -> Self {
                match state {
                    AggState::$variant(a) => *a,
                    _ => <$acc>::default(),
                }
            }

            fn store(self, state: &mut AggState) {
                if let AggState::$variant(a) = state {
                    *a = self;
                }
            }
        }
    )*};
}
acc_in_state!(u64 => Count, Sum => Sum, Avg => Avg);

/// COUNT over any column, or COUNT(*): only whether a value is there.
impl Fold<()> for u64 {
    #[inline]
    fn fold(&mut self, (): ()) {
        *self += 1;
    }
}

impl Fold<i64> for Sum {
    #[inline]
    fn fold(&mut self, v: i64) {
        self.int += i128::from(v);
        self.non_null += 1;
    }
}

impl Fold<f64> for Sum {
    #[inline]
    fn fold(&mut self, v: f64) {
        self.float += v;
        self.any_float = true;
        self.non_null += 1;
    }
}

impl Fold<i64> for Avg {
    #[inline]
    fn fold(&mut self, v: i64) {
        self.int += i128::from(v);
        self.non_null += 1;
    }
}

impl Fold<f64> for Avg {
    #[inline]
    fn fold(&mut self, v: f64) {
        self.float += v;
        self.non_null += 1;
    }
}

/// An extreme starts each run empty and is merged when stored: the state
/// may hold a value of the other numeric type, and the first of equal
/// values stays, so merging a run's extreme equals folding its values.
impl<T: Num, const MAX: bool> Acc for Extreme<T, MAX> {
    fn load(_: &AggState) -> Self {
        Extreme(None)
    }

    fn store(self, state: &mut AggState) {
        if let Some(v) = self.0 {
            state.extreme(&v.into());
        }
    }
}

impl<T: Num, const MAX: bool> Fold<T> for Extreme<T, MAX> {
    #[inline]
    fn fold(&mut self, v: T) {
        let beats = if MAX {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        if self.0.is_none_or(|b| v.total_cmp(&b) == beats) {
            self.0 = Some(v);
        }
    }
}

/// The numeric column types with typed kernels.
trait Num: Copy + Into<Datum> {
    /// [`Datum::total_cmp`] between two values of this type.
    fn total_cmp(&self, other: &Self) -> Ordering;
}

impl Num for i64 {
    fn total_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

impl Num for f64 {
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }
}

/// One output row of an aggregation: group key values and finished
/// aggregates, in SELECT-list order.
fn output_row(spec: &AggSpec, key: &[Datum], finished: &mut [Option<Datum>]) -> Vec<Datum> {
    spec.output
        .iter()
        .map(|o| match o {
            AggOutput::Group(i) => key[*i].clone(),
            AggOutput::Agg(i) => finished[*i].take().unwrap_or(Datum::Null),
        })
        .collect()
}

/// An aggregation's running state over the rows folded so far, with or
/// without GROUP BY: the group table resolves each logical row of a batch
/// to a dense group id, then every aggregate folds the batch into its
/// per-group states (`GroupedAgg::fold`). Without group keys every row is
/// in group 0, which exists before the first batch, so an aggregate over no
/// rows still answers one row (COUNT 0, NULL for the rest). Output rows come
/// in group-arrival order.
///
/// [`execute`] folds a whole source into one partial. A source that cuts
/// its rows into contiguous ranges may fold each range into a partial of
/// its own, on a thread of its own, and [`Self::merge`] them in row order:
/// the answer is then the serial fold's, byte for byte, when the
/// aggregation is [`Self::order_free`].
pub struct AggPartial<'p> {
    spec: &'p AggSpec,
    table: GroupTable<'p>,
    aggs: Vec<GroupedAgg<'p>>,
    /// Group ids of the batch being absorbed (reused across batches).
    ids: Vec<u32>,
}

impl<'p> AggPartial<'p> {
    /// The partial of `spec` over no rows.
    pub fn new(spec: &'p AggSpec) -> Self {
        AggPartial {
            spec,
            table: GroupTable::new(&spec.group_exprs),
            aggs: spec
                .aggs
                .iter()
                .map(|call| GroupedAgg {
                    call,
                    states: Vec::new(),
                })
                .collect(),
            ids: Vec::new(),
        }
    }

    /// The aggregation this partial folds.
    pub fn spec(&self) -> &'p AggSpec {
        self.spec
    }

    /// Whether partials of contiguous ranges, merged in row order, answer
    /// exactly what one fold over every row does. Every merge rule is exact
    /// but float addition, which depends on order: the aggregation is
    /// order-free unless a SUM or AVG adds floats, that is, takes anything
    /// but a bare column that `int_column` says holds Int values.
    pub fn order_free(&self, int_column: impl Fn(usize) -> bool) -> bool {
        self.spec
            .aggs
            .iter()
            .all(|call| match (call.func, &call.arg) {
                (AggFunc::Sum | AggFunc::Avg, Some(RExpr::Col(c))) => int_column(*c),
                (AggFunc::Sum | AggFunc::Avg, _) => false,
                _ => true,
            })
    }

    /// Fold one batch. Row at a time, the first failing (row, aggregate)
    /// update would have ended the query; that one is reported.
    pub fn absorb(&mut self, batch: &Batch<'_>) -> EngineResult<()> {
        let groups = self.table.assign(batch, &mut self.ids)?;
        let mut failed: Option<(usize, EngineError)> = None;
        for agg in &mut self.aggs {
            if let Err((r, e)) = agg.fold(batch, groups, self.table.len()) {
                if failed.as_ref().is_none_or(|&(first, _)| r < first) {
                    failed = Some((r, e));
                }
            }
        }
        failed.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Fold every batch `source` still yields, in order, stopping at the
    /// first failure.
    pub fn absorb_source<'a, S: ScanSource<'a> + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> EngineResult<()> {
        while let Some(batch) = source.next_batch()? {
            self.absorb(&batch)?;
        }
        Ok(())
    }

    /// Fold in `later`, the partial of the rows right after this one's.
    /// Its groups are walked in their arrival order, so a group new to this
    /// partial arrives where the serial fold would have created it. Per
    /// group, COUNT adds, SUM and AVG add their Int sums exactly (and their
    /// float sums, the order-dependent part), COUNT DISTINCT unions its
    /// sets, and MIN/MAX keeps this partial's extreme unless `later`'s
    /// beats it, as the serial fold keeps the first of equal values.
    pub fn merge(&mut self, later: AggPartial<'p>) -> EngineResult<()> {
        let ids = later
            .table
            .keys()
            .map(|key| self.table.insert_key(key))
            .collect::<EngineResult<Vec<u32>>>()?;
        let groups = self.table.len();
        for (agg, theirs) in self.aggs.iter_mut().zip(later.aggs) {
            agg.grow(groups);
            for (&g, state) in ids.iter().zip(theirs.states) {
                agg.states[g as usize].merge(state);
            }
        }
        Ok(())
    }

    /// The output rows, one per group in arrival order.
    pub fn finish(self) -> Vec<Vec<Datum>> {
        let groups = self.table.len();
        let mut states: Vec<std::vec::IntoIter<AggState>> = self
            .aggs
            .into_iter()
            .map(|mut a| {
                a.grow(groups);
                a.states.into_iter()
            })
            .collect();
        let mut finished: Vec<Option<Datum>> = Vec::with_capacity(states.len());
        self.table
            .keys()
            .map(|key| {
                finished.clear();
                finished.extend(states.iter_mut().map(|s| s.next().map(AggState::finish)));
                output_row(self.spec, key, &mut finished)
            })
            .collect()
    }
}

/// One aggregate call of an aggregation: its accumulators, indexed by group
/// id.
struct GroupedAgg<'a> {
    call: &'a AggCall,
    states: Vec<AggState>,
}

impl GroupedAgg<'_> {
    /// Add states for the groups new since the last batch (`groups` in all).
    fn grow(&mut self, groups: usize) {
        let call = self.call;
        self.states.resize_with(groups, || AggState::new(call));
    }

    /// Fold every logical row `r` of `batch` into the state of its group:
    /// `ids[r]`, or group 0 when `ids` is `None` (see
    /// [`GroupTable::assign`]). A bare-column argument over a typed column,
    /// and COUNT(*), run a typed [`Fold`] through [`drive`]; every other
    /// pairing replays [`AggState::update`] per row. On failure, returns the
    /// first logical row whose update failed, with its error.
    fn fold(
        &mut self,
        batch: &Batch<'_>,
        ids: Option<&[u32]>,
        groups: usize,
    ) -> Result<(), (usize, EngineError)> {
        self.grow(groups);
        let states = &mut self.states[..];
        let replay = |states: &mut [AggState], value: &dyn Fn(usize) -> Datum| {
            for r in 0..batch.rows() {
                let g = ids.map_or(0, |ids| ids[r] as usize);
                states[g].update(&value(r)).map_err(|e| (r, e))?;
            }
            Ok(())
        };
        match &self.call.arg {
            // COUNT(*): the driver's row count.
            None => {
                drive::<(), u64>(states, ids, None, batch.rows(), |_| Some(()));
                Ok(())
            }
            Some(RExpr::Col(c)) => {
                let column = batch.column(*c);
                match column.view() {
                    // NULL updates nothing, whatever the aggregate.
                    None => Ok(()),
                    Some(view) => {
                        let (phys, sel) = (column.len(), batch.selection());
                        if fold_typed(self.call, states, view, phys, sel, ids) {
                            Ok(())
                        } else {
                            replay(states, &|r| batch.value(r, *c))
                        }
                    }
                }
            }
            Some(e) => replay(states, &|r| e.eval(&BatchRow::new(batch, r))),
        }
    }
}

/// Run the typed fold `A` over a batch's logical rows: `rows` of them, at
/// the physical indices `sel` names (all of `0..rows` without one), where
/// `value(p)` is physical row `p`'s value (`None` for NULL, which folds
/// nothing). Without `ids` it **reduces**: one accumulator, loaded from
/// group 0's state, folds the whole batch in a local and is stored back
/// once. With `ids` it **scatters**: each row's value is folded into the
/// state of its group `ids[r]`.
#[inline]
fn drive<T, A: Fold<T>>(
    states: &mut [AggState],
    ids: Option<&[u32]>,
    sel: Option<&[u32]>,
    rows: usize,
    value: impl Fn(usize) -> Option<T>,
) {
    match ids {
        None => {
            let mut acc = A::load(&states[0]);
            let mut fold = |p: usize| {
                if let Some(v) = value(p) {
                    acc.fold(v);
                }
            };
            match sel {
                Some(s) => s.iter().for_each(|&p| fold(p as usize)),
                None => (0..rows).for_each(fold),
            }
            acc.store(&mut states[0]);
        }
        Some(ids) => {
            let mut scatter = |p: usize, g: usize| {
                if let Some(v) = value(p) {
                    let mut acc = A::load(&states[g]);
                    acc.fold(v);
                    acc.store(&mut states[g]);
                }
            };
            match sel {
                Some(s) => s
                    .iter()
                    .zip(ids)
                    .for_each(|(&p, &g)| scatter(p as usize, g as usize)),
                None => ids
                    .iter()
                    .enumerate()
                    .for_each(|(p, &g)| scatter(p, g as usize)),
            }
        }
    }
}

/// Fold a typed column — the `phys` physical rows of `view` — through the
/// [`Fold`] of its (aggregate, column type) pairing — COUNT over any
/// column, SUM/AVG/MIN/MAX over Int and Float — with
/// [`AggState::update`]'s semantics. The pairing is matched once per batch,
/// and a window without NULLs skips the per-row NULL test. Returns `false`
/// when the pairing has no fold and the caller must replay scalar updates.
fn fold_typed(
    call: &AggCall,
    states: &mut [AggState],
    view: ColView<'_>,
    phys: usize,
    sel: Option<&[u32]>,
    ids: Option<&[u32]>,
) -> bool {
    let ColView { col, base } = view;
    let window = base..base + phys;
    let nulls = col.nulls();
    let any_null = nulls.count_nulls(base, base + phys) > 0;
    let words = nulls.words();
    let rows = sel.map_or(phys, <[u32]>::len);
    // `drive` the fold `$acc` over the values `$get(p)` of the non-NULL rows.
    macro_rules! fold {
        ($acc:ty, $get:expr) => {
            if any_null {
                drive::<_, $acc>(states, ids, sel, rows, |p| {
                    (!null_bit(words, base + p)).then(|| $get(p))
                })
            } else {
                drive::<_, $acc>(states, ids, sel, rows, |p| Some($get(p)))
            }
        };
    }
    use TypedColumn::{Float, Int};
    match (call.func, call.distinct, col) {
        (AggFunc::Count, false, _) => fold!(u64, |_| ()),
        (AggFunc::Sum, _, Int { values, .. }) => {
            let values = &values[window];
            fold!(Sum, |p| values[p])
        }
        (AggFunc::Sum, _, Float { values, .. }) => {
            let values = &values[window];
            fold!(Sum, |p| values[p])
        }
        (AggFunc::Avg, _, Int { values, .. }) => {
            let values = &values[window];
            fold!(Avg, |p| values[p])
        }
        (AggFunc::Avg, _, Float { values, .. }) => {
            let values = &values[window];
            fold!(Avg, |p| values[p])
        }
        (AggFunc::Min, _, Int { values, .. }) => {
            let values = &values[window];
            fold!(Extreme<i64, false>, |p| values[p])
        }
        (AggFunc::Max, _, Int { values, .. }) => {
            let values = &values[window];
            fold!(Extreme<i64, true>, |p| values[p])
        }
        (AggFunc::Min, _, Float { values, .. }) => {
            let values = &values[window];
            fold!(Extreme<f64, false>, |p| values[p])
        }
        (AggFunc::Max, _, Float { values, .. }) => {
            let values = &values[window];
            fold!(Extreme<f64, true>, |p| values[p])
        }
        _ => return false,
    }
    true
}

/// Sort rows by the given (column, ascending) keys; NULLs sort first on
/// ascending keys (matching [`Datum::total_cmp`]).
pub fn sort_rows(rows: &mut [Vec<Datum>], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| cmp_sort_keys(keys, keys.iter().map(|&(col, _)| (&a[col], &b[col]))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::planner::plan_select;
    use crate::source::{MemSource, ScanRequest};
    use nodb_rawcsv::{ColumnDef, ColumnType, Schema};
    use nodb_sqlparse::parse_select;
    use nodb_stats::estimate::NoStats;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
            ColumnDef::new("s", ColumnType::Str),
        ])
    }

    fn table() -> Vec<Vec<Datum>> {
        // a: 0..10, b: a % 3, s: "x{a%2}"
        (0..10i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(i % 3),
                    Datum::from(format!("x{}", i % 2)),
                ]
            })
            .collect()
    }

    fn run(sql: &str) -> QueryResult {
        let stmt = parse_select(sql).unwrap();
        let planned = plan_select(&stmt, &schema(), &NoStats).unwrap();
        let source = MemSource::from_table(&table(), &planned.scan);
        execute(&planned, Box::new(source)).unwrap()
    }

    #[test]
    fn select_project_filter() {
        let r = run("SELECT a FROM t WHERE b = 1");
        assert_eq!(r.len(), 3); // a ∈ {1, 4, 7}
        assert_eq!(r.rows[0], vec![Datum::Int(1)]);
    }

    #[test]
    fn expression_projection() {
        let r = run("SELECT a * 2 + 1 FROM t WHERE a < 3 ORDER BY a * 2 + 1");
        let vals: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 3, 5]);
    }

    #[test]
    fn count_star_and_column() {
        let r = run("SELECT COUNT(*) FROM t");
        assert_eq!(r.scalar(), Some(&Datum::Int(10)));
    }

    #[test]
    fn group_by_with_aggregates() {
        let r = run("SELECT b, COUNT(*), SUM(a), MIN(a), MAX(a) FROM t GROUP BY b ORDER BY b");
        assert_eq!(r.len(), 3);
        // b = 0 → a ∈ {0,3,6,9}: count 4, sum 18, min 0, max 9.
        assert_eq!(
            r.rows[0],
            vec![
                Datum::Int(0),
                Datum::Int(4),
                Datum::Int(18),
                Datum::Int(0),
                Datum::Int(9)
            ]
        );
    }

    #[test]
    fn avg_returns_float() {
        let r = run("SELECT AVG(a) FROM t");
        assert_eq!(r.scalar(), Some(&Datum::Float(4.5)));
    }

    #[test]
    fn count_distinct() {
        let r = run("SELECT COUNT(DISTINCT s) FROM t");
        assert_eq!(r.scalar(), Some(&Datum::Int(2)));
    }

    #[test]
    fn order_desc_and_limit() {
        let r = run("SELECT a FROM t ORDER BY a DESC LIMIT 3");
        let vals: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![9, 8, 7]);
    }

    #[test]
    fn sum_empty_group_is_null() {
        let r = run("SELECT SUM(a) FROM t WHERE a > 100");
        assert_eq!(r.scalar(), Some(&Datum::Null));
        let c = run("SELECT COUNT(*) FROM t WHERE a > 100");
        assert_eq!(c.scalar(), Some(&Datum::Int(0)));
    }

    #[test]
    fn like_and_in_filters() {
        let r = run("SELECT a FROM t WHERE s LIKE 'x1' AND a IN (1, 3, 4)");
        let vals: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 3]);
    }

    #[test]
    fn null_grouping_groups_together() {
        // Build a table with NULLs in b.
        let table: Vec<Vec<Datum>> = vec![
            vec![Datum::Int(1), Datum::Null, Datum::from("x")],
            vec![Datum::Int(2), Datum::Null, Datum::from("x")],
            vec![Datum::Int(3), Datum::Int(1), Datum::from("x")],
        ];
        let stmt = parse_select("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b").unwrap();
        let planned = plan_select(&stmt, &schema(), &NoStats).unwrap();
        let source = MemSource::from_table(&table, &planned.scan);
        let r = execute(&planned, Box::new(source)).unwrap();
        assert_eq!(r.len(), 2);
        // NULL sorts first.
        assert_eq!(r.rows[0], vec![Datum::Null, Datum::Int(2)]);
    }

    #[test]
    fn sum_int_overflow_promotes_to_float() {
        let big = i64::MAX / 2;
        let table: Vec<Vec<Datum>> = (0..4)
            .map(|_| vec![Datum::Int(big), Datum::Int(0), Datum::from("x")])
            .collect();
        let stmt = parse_select("SELECT SUM(a) FROM t").unwrap();
        let planned = plan_select(&stmt, &schema(), &NoStats).unwrap();
        let source = MemSource::from_table(&table, &planned.scan);
        let r = execute(&planned, Box::new(source)).unwrap();
        match r.scalar().unwrap() {
            Datum::Float(v) => assert!(*v > 1e18),
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// AVG over Int values sums them exactly, so the answer does not depend
    /// on the order the values arrive in. Near `i64::MAX` a sequential `f64`
    /// sum loses the `1` (`2^63 + 1.0 == 2^63`) and would answer 0 in this
    /// order; the exact sum is 1, so the average is 1/3 in every order and
    /// at every cut into two merged partials.
    #[test]
    fn avg_of_ints_is_exact() {
        let (big, one) = (Datum::Int(i64::MAX), Datum::Int(1));
        let orders = [
            [big.clone(), one.clone(), Datum::Int(-i64::MAX)],
            [Datum::Int(-i64::MAX), big.clone(), one.clone()],
            [one, Datum::Int(-i64::MAX), big],
        ];
        let sequential: f64 = orders[0].iter().filter_map(Datum::as_float).sum();
        assert_eq!(sequential, 0.0, "the f64 sum this replaces");
        let stmt = parse_select("SELECT AVG(a) FROM t").unwrap();
        let planned = plan_select(&stmt, &schema(), &NoStats).unwrap();
        let spec = planned.pipeline.aggregate.as_ref().unwrap();
        for values in orders {
            let table: Vec<Vec<Datum>> = values
                .iter()
                .map(|v| vec![v.clone(), Datum::Int(0), Datum::from("x")])
                .collect();
            let source = MemSource::from_table(&table, &planned.scan);
            let r = execute(&planned, Box::new(source)).unwrap();
            assert_eq!(r.scalar(), Some(&Datum::Float(1.0 / 3.0)), "{values:?}");
            for cut in 0..=table.len() {
                let mut first = AggPartial::new(spec);
                let mut later = AggPartial::new(spec);
                first
                    .absorb_source(&mut MemSource::from_table(&table[..cut], &planned.scan))
                    .unwrap();
                later
                    .absorb_source(&mut MemSource::from_table(&table[cut..], &planned.scan))
                    .unwrap();
                first.merge(later).unwrap();
                assert_eq!(first.finish(), vec![vec![Datum::Float(1.0 / 3.0)]]);
            }
        }
    }

    /// The row-at-a-time aggregation the batch drivers replaced: per row a
    /// [`BatchRow`], a `Vec<Datum>` key, a probe, and one
    /// [`AggState::update`] per aggregate (COUNT(*) counts the row),
    /// stopping at the first failure. The probe is a linear search under the
    /// group table's equality: every key value hashes alike and compares
    /// equal under `total_cmp`. Without keys there is exactly one group, on
    /// empty input too.
    fn scalar_grouped(spec: &AggSpec, batches: Vec<Batch>) -> EngineResult<Vec<Vec<Datum>>> {
        let same = |a: &[Datum], b: &[Datum]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| hash_datum(x) == hash_datum(y) && x.total_cmp(y).is_eq())
        };
        let mut keys: Vec<Vec<Datum>> = Vec::new();
        let mut states: Vec<Vec<AggState>> = Vec::new();
        if spec.group_exprs.is_empty() {
            keys.push(Vec::new());
            states.push(spec.aggs.iter().map(AggState::new).collect());
        }
        for batch in &batches {
            for r in 0..batch.rows() {
                let row = BatchRow::new(batch, r);
                let key: Vec<Datum> = spec.group_exprs.iter().map(|g| g.eval(&row)).collect();
                let gi = match keys.iter().position(|k| same(k, &key)) {
                    Some(gi) => gi,
                    None => {
                        keys.push(key);
                        states.push(spec.aggs.iter().map(AggState::new).collect());
                        keys.len() - 1
                    }
                };
                for (a, call) in spec.aggs.iter().enumerate() {
                    match (&call.arg, &mut states[gi][a]) {
                        (None, AggState::Count(n)) => *n += 1,
                        (None, _) => unreachable!("only COUNT takes `*`"),
                        (Some(e), state) => state.update(&e.eval(&row))?,
                    }
                }
            }
        }
        Ok(keys
            .iter()
            .zip(states)
            .map(|(key, s)| {
                let mut finished: Vec<_> = s.into_iter().map(|s| Some(s.finish())).collect();
                output_row(spec, key, &mut finished)
            })
            .collect())
    }

    /// GROUP BY a batch at a time equals the row-at-a-time reference
    /// ([`scalar_grouped`]) — rows, their order, and the error when one
    /// fails — compared by `Debug` text so NaN and −0.0 count. Keys: NULLs,
    /// NaN and ±0.0 floats, strings, booleans, two columns, a column typed
    /// Int in some batches and Float in others (bare and through an
    /// expression, so Int 1 meets Float 1.0), and a unique key whose groups
    /// outgrow the table mid-batch. Batches: empty, dense, and carrying a
    /// selection over junk rows the aggregation must not read.
    #[test]
    fn grouped_aggregate_equals_scalar_replay() {
        let names = ["ki", "kf", "ks", "kb", "m", "seq", "vi", "vf", "vs"];
        let types = [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Str,
            ColumnType::Bool,
            ColumnType::Int, // Float in odd batches
            ColumnType::Int,
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Str,
        ];
        let schema = Schema::new(
            names
                .iter()
                .zip(types)
                .map(|(n, t)| ColumnDef::new(*n, t))
                .collect(),
        );
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut pick = |n: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % n
        };
        let int = [
            None,
            Some(-1),
            Some(0),
            Some(1),
            Some(2),
            Some(i64::MAX),
            Some(i64::MIN),
        ];
        let float = [
            f64::NAN,
            -f64::NAN,
            -0.0,
            0.0,
            1.0,
            1.5,
            f64::INFINITY,
            1e300,
        ];
        let strs = ["", "a", "abcd", "abcdefghi", "b"];
        let mut seq = 0i64;
        let mut row = |batch: usize| -> Vec<Datum> {
            seq += 1;
            let null_or = |d: Datum, pick: &mut dyn FnMut(usize) -> usize| {
                if pick(6) == 0 {
                    Datum::Null
                } else {
                    d
                }
            };
            let m = if batch.is_multiple_of(2) {
                Datum::Int(pick(3) as i64)
            } else {
                Datum::Float([-0.0, 0.0, 1.0, 2.5][pick(4)])
            };
            vec![
                int[pick(int.len())].map_or(Datum::Null, Datum::Int),
                null_or(Datum::Float(float[pick(float.len())]), &mut pick),
                null_or(Datum::from(strs[pick(strs.len())]), &mut pick),
                null_or(Datum::Bool(pick(2) == 0), &mut pick),
                null_or(m, &mut pick),
                Datum::Int(seq),
                int[pick(int.len())].map_or(Datum::Null, Datum::Int),
                null_or(Datum::Float(float[pick(float.len())]), &mut pick),
                null_or(Datum::from(["x", "yy", ""][pick(3)]), &mut pick),
            ]
        };
        // (logical rows, behind a selection over junk rows?)
        let shapes: &[(usize, bool)] = if cfg!(miri) {
            &[(0, false), (9, true), (0, true), (30, false), (7, true)]
        } else {
            &[
                (0, false),
                (700, true),
                (0, true),
                (1500, false),
                (1, true),
                (999, true),
            ]
        };
        // Per batch: its physical rows, and the selection when it has one.
        type Rows = Vec<Vec<Datum>>;
        let mut data: Vec<(Rows, Option<Vec<u32>>)> = shapes
            .iter()
            .enumerate()
            .map(|(b, &(n, selected))| {
                let logical: Vec<Vec<Datum>> = (0..n).map(|_| row(b)).collect();
                if !selected {
                    return (logical, None);
                }
                let mut phys = Vec::new();
                for r in logical {
                    phys.push(row(b));
                    phys.push(r);
                }
                phys.extend((0..3).map(|_| row(b)));
                (phys, Some((0..n as u32).map(|i| 2 * i + 1).collect()))
            })
            .collect();
        // The first logical row fails `AVG(vs)` but not `SUM(ks)`.
        let (rows, sel) = &mut data[1];
        let first = &mut rows[sel.as_ref().map_or(0, |s| s[0] as usize)];
        first[2] = Datum::Null;
        first[8] = Datum::from("x");
        let batches = |attrs: &[usize], data: &[(Rows, Option<Vec<u32>>)]| {
            data.iter()
                .enumerate()
                .map(|(b, (rows, sel))| {
                    let cols = attrs
                        .iter()
                        .map(|&a| {
                            // One batch reads `kb` as a never-materialized
                            // all-NULL column.
                            if names[a] == "kb" && b == 3 {
                                return Column::Nulls(rows.len());
                            }
                            let ty = match (names[a], b % 2) {
                                ("m", 1) => ColumnType::Float,
                                _ => types[a],
                            };
                            let mut tc = TypedColumn::new(ty);
                            rows.iter().for_each(|r| tc.push(&r[a]));
                            Column::Typed(tc)
                        })
                        .collect();
                    Batch::from_parts(cols, sel.clone())
                })
                .collect::<Vec<Batch<'static>>>()
        };
        let queries = [
            "SELECT ki, COUNT(*), COUNT(vi), SUM(vi), AVG(vi), MIN(vi), MAX(vi) FROM t GROUP BY ki",
            "SELECT kf, COUNT(vf), SUM(vf), AVG(vf), MIN(vf), MAX(vf) FROM t GROUP BY kf",
            "SELECT ks, COUNT(DISTINCT vs), MIN(vs), MAX(vs), COUNT(vs), MIN(kb) FROM t GROUP BY ks",
            "SELECT kb, COUNT(*), SUM(vi), MAX(vf), COUNT(kb) FROM t GROUP BY kb",
            "SELECT ks, ki, COUNT(*), SUM(vf), MIN(vi) FROM t GROUP BY ki, ks",
            "SELECT m, COUNT(*), SUM(m), MIN(m), SUM(vi) FROM t GROUP BY m",
            "SELECT m * 1, COUNT(*), SUM(vf), MAX(m) FROM t GROUP BY m * 1",
            "SELECT ki % 3, SUM(vi * 2), MAX(vf + 1), COUNT(DISTINCT vi) FROM t GROUP BY ki % 3",
            "SELECT seq, COUNT(*), SUM(vf), MAX(ks) FROM t GROUP BY seq",
            "SELECT kb, SUM(vs) FROM t GROUP BY kb",
            "SELECT kb, SUM(ks), AVG(vs) FROM t GROUP BY kb",
            // Zero keys: one group, reduced a batch at a time.
            "SELECT COUNT(*), COUNT(vi), SUM(vi), AVG(vi), MIN(vi), MAX(vi) FROM t",
            "SELECT SUM(vf), AVG(vf), MIN(vf), MAX(vf), SUM(m), MIN(m), MAX(m), AVG(m) FROM t",
            "SELECT COUNT(DISTINCT vs), MIN(vs), MAX(ks), COUNT(kb), SUM(vi * 2), MAX(vf + 1) FROM t",
            "SELECT SUM(ks), AVG(vs) FROM t",
        ];
        for sql in queries {
            let got = against_scalar(sql, &schema, &|attrs| batches(attrs, &data));
            if sql.contains("SUM(ks), AVG(vs)") {
                // The two failing aggregates fail at different rows: the
                // earlier row's error wins, not the earlier aggregate's.
                let err = format!("{got:?}");
                assert!(err.contains("AVG over non-numeric value x"), "{sql}: {err}");
            }
        }

        // Zero keys over every aggregate, each column type (Int values whose
        // SUM overflows i64, Float NaN and −0.0, Bool, Str) at each NULL
        // density (none, every other row, all) and selection (none, sparse,
        // empty), folded over two batches.
        let values: [(ColumnType, &str, Vec<Datum>); 4] = [
            (
                ColumnType::Int,
                "i",
                [i64::MAX, i64::MAX - 1, -5, 0, 7, i64::MIN]
                    .map(Datum::Int)
                    .to_vec(),
            ),
            (
                ColumnType::Float,
                "f",
                [f64::NAN, -0.0, 0.0, 1.5, -2.25, 1e300]
                    .map(Datum::Float)
                    .to_vec(),
            ),
            (
                ColumnType::Bool,
                "b",
                [true, false, false].map(Datum::Bool).to_vec(),
            ),
            (
                ColumnType::Str,
                "s",
                ["b", "a", "", "c", "a"].map(Datum::from).to_vec(),
            ),
        ];
        let rows = if cfg!(miri) { 12 } else { 24 };
        let mut defs = Vec::new();
        let mut cols: Vec<TypedColumn> = Vec::new();
        for (ty, prefix, vals) in &values {
            for null_every in [0usize, 2, 1] {
                defs.push(ColumnDef::new(format!("{prefix}{null_every}"), *ty));
                let mut tc = TypedColumn::new(*ty);
                for i in 0..rows {
                    if null_every != 0 && i % null_every == 0 {
                        tc.push_null();
                    } else {
                        tc.push(&vals[i % vals.len()]);
                    }
                }
                cols.push(tc);
            }
        }
        let schema = Schema::new(defs);
        let sparse: Vec<u32> = (0..rows as u32).step_by(3).collect();
        for sel in [None, Some(sparse), Some(Vec::new())] {
            let twice = |attrs: &[usize]| {
                let batch = || {
                    let cols = attrs
                        .iter()
                        .map(|&a| Column::Typed(cols[a].export_range(0, rows)));
                    Batch::from_parts(cols.collect(), sel.clone())
                };
                vec![batch(), batch()]
            };
            for def in schema.columns() {
                let c = &def.name;
                for calls in [
                    format!("COUNT({c}), COUNT(DISTINCT {c}), MIN({c}), MAX({c}), COUNT(*)"),
                    format!("SUM({c})"),
                    format!("AVG({c})"),
                ] {
                    let sql = format!("SELECT {calls} FROM t");
                    let got = against_scalar(&sql, &schema, &twice);
                    if sql == "SELECT SUM(i0) FROM t" && sel.is_none() {
                        // The Int SUM overflows i64 and promotes to Float.
                        let sum = got.unwrap()[0][0].clone();
                        assert!(matches!(sum, Datum::Float(v) if v > 1e19), "{sum:?}");
                    }
                }
            }
        }
        // No batch at all still answers one row.
        let sql = "SELECT COUNT(*), COUNT(i0), SUM(f0), MIN(s0), AVG(i2) FROM t";
        let got = against_scalar(sql, &schema, &|_| Vec::new()).unwrap();
        let (zero, null) = (Datum::Int(0), Datum::Null);
        assert_eq!(
            got,
            [[zero.clone(), zero, null.clone(), null.clone(), null]]
        );
    }

    /// Run `sql`'s aggregation over `batches(attrs)` (the scan's attributes)
    /// through one [`AggPartial`] and through [`scalar_grouped`], assert the
    /// two answers — rows, their order, or the error — have the same `Debug`
    /// text (so NaN and −0.0 count) and, without keys, one row; return the
    /// answer. When the aggregation is [`AggPartial::order_free`] (every
    /// SUM/AVG over a column that is Int or all-NULL in every batch), the
    /// batches cut at every point into two ranges, each folded into a
    /// partial of its own and merged in row order, answer the same — the
    /// lower range's error first.
    fn against_scalar(
        sql: &str,
        schema: &Schema,
        batches: &dyn Fn(&[usize]) -> Vec<Batch<'static>>,
    ) -> EngineResult<Vec<Vec<Datum>>> {
        let planned = plan_select(&parse_select(sql).unwrap(), schema, &NoStats).unwrap();
        let spec = planned.pipeline.aggregate.as_ref().unwrap();
        let attrs = &planned.scan.attrs;
        let fold = |batches: &[Batch<'static>]| {
            let mut partial = AggPartial::new(spec);
            batches
                .iter()
                .try_for_each(|b| partial.absorb(b))
                .map(|()| partial)
        };
        let all = batches(attrs);
        let got = fold(&all).map(AggPartial::finish);
        let want = scalar_grouped(spec, batches(attrs));
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{sql}");
        if let (true, Ok(rows)) = (spec.group_exprs.is_empty(), &got) {
            assert_eq!(rows.len(), 1, "{sql}: one row");
        }
        let int_column = |c: usize| {
            all.iter().all(|b| match b.column(c).view() {
                Some(v) => matches!(v.col, TypedColumn::Int { .. }),
                None => true,
            })
        };
        if AggPartial::new(spec).order_free(int_column) {
            for cut in 0..=all.len() {
                let merged = fold(&all[..cut]).and_then(|mut first| {
                    first.merge(fold(&all[cut..])?)?;
                    Ok(first.finish())
                });
                let (merged, got) = (format!("{merged:?}"), format!("{got:?}"));
                assert_eq!(merged, got, "{sql}: ranges cut before batch {cut}");
            }
        }
        got
    }

    /// A global aggregate and the same aggregates grouped by a constant key
    /// fail with the same error: the first failing row's, then the first
    /// failing aggregate's within it (row-major). `s1` is NULL until row 3;
    /// `s2` is a string from row 0, so `SUM(s2)` fails first, and before
    /// `AVG(s2)` on the same row.
    #[test]
    fn global_and_grouped_aggregates_report_the_same_error() {
        let schema = Schema::new(vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("s1", ColumnType::Str),
            ColumnDef::new("s2", ColumnType::Str),
        ]);
        let table: Vec<Vec<Datum>> = (0..6)
            .map(|i| {
                let s1 = if i < 3 {
                    Datum::Null
                } else {
                    Datum::from(format!("one{i}"))
                };
                vec![Datum::Int(0), s1, Datum::from(format!("two{i}"))]
            })
            .collect();
        for sql in [
            "SELECT SUM(s1), SUM(s2) FROM t",
            "SELECT k, SUM(s1), SUM(s2) FROM t GROUP BY k",
            "SELECT SUM(s2), AVG(s2) FROM t",
            "SELECT k, SUM(s2), AVG(s2) FROM t GROUP BY k",
        ] {
            let planned = plan_select(&parse_select(sql).unwrap(), &schema, &NoStats).unwrap();
            let source = MemSource::from_table(&table, &planned.scan);
            let err = execute(&planned, Box::new(source)).unwrap_err();
            assert_eq!(
                err.to_string(),
                EngineError::Execution("SUM over non-numeric value two0".into()).to_string(),
                "{sql}"
            );
        }
    }

    /// `ORDER BY … LIMIT n` through the bounded top-n equals the unlimited
    /// query's stable sort truncated to `n`, compared by `Debug` text so NaN,
    /// −0.0 and the order among tied rows count too. The keys are far from
    /// total: few distinct values, NULLs, NaN next to ±0.0, mixed
    /// directions, and keys over unselected (hidden) columns; `id` tells
    /// tied rows apart in the output.
    #[test]
    fn top_n_equals_stable_sort_then_truncate() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("f", ColumnType::Float),
            ColumnDef::new("s", ColumnType::Str),
        ]);
        let floats = [f64::NAN, -0.0, 0.0, 1.5, -2.5, f64::NAN];
        let table: Vec<Vec<Datum>> = (0..61i64)
            .map(|i| {
                let k = (i * 7) % 11;
                vec![
                    Datum::Int(i),
                    if k % 5 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(k % 3)
                    },
                    if k == 4 {
                        Datum::Null
                    } else {
                        Datum::Float(floats[k as usize % 6])
                    },
                    Datum::from(["x", "y", ""][(k % 3) as usize]),
                ]
            })
            .collect();
        let queries = [
            "SELECT id, a FROM t ORDER BY a",
            "SELECT id, a FROM t ORDER BY a DESC",
            "SELECT id, f FROM t ORDER BY f DESC, a",
            "SELECT id, f, a FROM t ORDER BY f, a DESC",
            "SELECT id FROM t ORDER BY s DESC, f",
            "SELECT id, s FROM t WHERE a IS NOT NULL ORDER BY a * 2 DESC, s",
            "SELECT * FROM t WHERE id > 10 ORDER BY s, f DESC, a",
        ];
        // `limit` is set on the plan directly: SQL integers stop at
        // `i64::MAX`, and the engine must take any `u64`.
        let run = |sql: &str, limit: Option<u64>| {
            let mut planned = plan_select(&parse_select(sql).unwrap(), &schema, &NoStats).unwrap();
            planned.pipeline.limit = limit;
            // Small batches, so the heap carries rows across batches.
            let source = MemSource::from_table(&table, &planned.scan).with_batch_size(7);
            execute(&planned, Box::new(source)).unwrap()
        };
        for sql in queries {
            let all = run(sql, None);
            let len = all.rows.len() as u64;
            assert!(len > 2, "{sql}");
            for n in [0, 1, len - 1, len, len + 1, u64::MAX] {
                let limited = run(sql, Some(n));
                let mut expect = all.rows.clone();
                expect.truncate(usize::try_from(n).unwrap_or(usize::MAX));
                assert_eq!(limited.columns, all.columns, "{sql} LIMIT {n}");
                assert_eq!(
                    format!("{:?}", limited.rows),
                    format!("{expect:?}"),
                    "{sql} LIMIT {n}"
                );
            }
        }
    }

    /// The threshold kernel keeps exactly the rows whose first key does not
    /// lose to the bound under [`Datum::total_cmp`] and the key's direction:
    /// each column type (with and without NULLs) against a bound of every
    /// type, NULL included — NaN of both signs, ±0.0, an Int bound over a
    /// Float column and the reverse — under ASC and DESC, dense and through
    /// a selection.
    #[test]
    fn top_n_contenders_keep_the_rows_that_beat_or_tie_the_bound() {
        let columns: [(ColumnType, Vec<Datum>); 4] = [
            (
                ColumnType::Int,
                [-3, 0, 1, 2, i64::MAX, i64::MIN, 1]
                    .map(Datum::Int)
                    .to_vec(),
            ),
            (
                ColumnType::Float,
                [f64::NAN, -f64::NAN, -0.0, 0.0, 1.0, 1.5, f64::NEG_INFINITY]
                    .map(Datum::Float)
                    .to_vec(),
            ),
            (
                ColumnType::Str,
                ["", "a", "b", "ba", "a"].map(Datum::from).to_vec(),
            ),
            (
                ColumnType::Bool,
                [true, false, true].map(Datum::Bool).to_vec(),
            ),
        ];
        let bounds = [
            Datum::Null,
            Datum::Int(0),
            Datum::Int(1),
            Datum::Int(-4),
            Datum::Float(f64::NAN),
            Datum::Float(-f64::NAN),
            Datum::Float(-0.0),
            Datum::Float(0.0),
            Datum::Float(1.0),
            Datum::from(""),
            Datum::from("b"),
            Datum::Bool(false),
            Datum::Bool(true),
        ];
        let rows = if cfg!(miri) { 70 } else { 150 }; // crosses a bitmap word
        let sparse: Vec<u32> = (0..rows as u32).filter(|p| p % 3 != 1).collect();
        let mut out = Vec::new();
        for (ty, vals) in &columns {
            for null_every in [0usize, 4] {
                let mut tc = TypedColumn::new(*ty);
                for p in 0..rows {
                    if null_every != 0 && p % null_every == 1 {
                        tc.push_null();
                    } else {
                        tc.push(&vals[p % vals.len()]);
                    }
                }
                for bound in &bounds {
                    for asc in [true, false] {
                        for sel in [None, Some(&sparse[..])] {
                            let view = ColView { col: &tc, base: 0 };
                            top_n_contenders(view, rows, sel, bound, asc, &mut out);
                            let loses = if asc {
                                Ordering::Greater
                            } else {
                                Ordering::Less
                            };
                            let logical = sel.map_or(rows, <[u32]>::len);
                            let want: Vec<u32> = (0..logical as u32)
                                .filter(|&r| {
                                    let p = sel.map_or(r, |s| s[r as usize]) as usize;
                                    let key = tc.datum(p).unwrap_or(Datum::Null);
                                    key.total_cmp(bound) != loses
                                })
                                .collect();
                            let tag = format!(
                                "{ty:?} nulls {null_every} bound {bound:?} asc {asc} sel {}",
                                sel.is_some()
                            );
                            assert_eq!(out, want, "{tag}");
                        }
                    }
                }
            }
        }
    }

    /// The top-n with its threshold kernel equals the unlimited query's
    /// stable sort truncated to `n` over the same batches, compared by
    /// `Debug` text. Batches carry selections over junk rows; first keys of
    /// each type, NULL-heavy ones (so the heap's bound is NULL under ASC and
    /// DESC), an all-equal key where the ordinal decides, a key typed Int in
    /// some batches and Float in others, a key that one batch delivers as
    /// [`Column::Nulls`], a computed first key before a typed one, and a
    /// first key over a hidden sort column.
    #[test]
    fn top_n_kernel_equals_stable_sort_then_truncate() {
        let names = ["id", "ki", "kf", "ks", "kb", "kc", "kn", "m"];
        let types = [
            ColumnType::Int,
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Str,
            ColumnType::Bool,
            ColumnType::Int,
            ColumnType::Int,
            ColumnType::Int, // Float in odd batches
        ];
        let schema = Schema::new(
            names
                .iter()
                .zip(types)
                .map(|(n, t)| ColumnDef::new(*n, t))
                .collect(),
        );
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut pick = |n: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % n
        };
        let floats = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.5, -2.5, f64::INFINITY];
        let strs = ["", "a", "ab", "b", "abc"];
        let mut id = 0i64;
        let mut row = |batch: usize| -> Vec<Datum> {
            id += 1;
            let null_or = |d: Datum, pick: &mut dyn FnMut(usize) -> usize| {
                if pick(8) == 0 {
                    Datum::Null
                } else {
                    d
                }
            };
            let m = if batch.is_multiple_of(2) {
                Datum::Int(pick(5) as i64 - 2)
            } else {
                Datum::Float([-0.0, 0.0, 1.0, 2.5, -1.5][pick(5)])
            };
            vec![
                Datum::Int(id),
                null_or(Datum::Int(pick(9) as i64 - 4), &mut pick),
                null_or(Datum::Float(floats[pick(floats.len())]), &mut pick),
                null_or(Datum::from(strs[pick(strs.len())]), &mut pick),
                null_or(Datum::Bool(pick(2) == 0), &mut pick),
                Datum::Int(7),
                if pick(50) == 0 {
                    Datum::Int(pick(4) as i64)
                } else {
                    Datum::Null
                },
                m,
            ]
        };
        // (logical rows, behind a selection over junk rows?)
        let shapes: &[(usize, bool)] = if cfg!(miri) {
            &[(9, false), (0, true), (12, true), (7, false), (10, true)]
        } else {
            &[
                (300, false),
                (0, true),
                (700, true),
                (1, true),
                (1024, false),
                (999, true),
                (0, false),
                (450, true),
            ]
        };
        type Rows = Vec<Vec<Datum>>;
        let data: Vec<(Rows, Option<Vec<u32>>)> = shapes
            .iter()
            .enumerate()
            .map(|(b, &(n, selected))| {
                let logical: Rows = (0..n).map(|_| row(b)).collect();
                if !selected {
                    return (logical, None);
                }
                let mut phys = Vec::new();
                for r in logical {
                    phys.push(row(b));
                    phys.push(r);
                }
                phys.push(row(b));
                (phys, Some((0..n as u32).map(|i| 2 * i + 1).collect()))
            })
            .collect();
        let total: usize = shapes.iter().map(|&(n, _)| n).sum();
        let batches = |attrs: &[usize]| -> std::collections::VecDeque<Batch<'static>> {
            data.iter()
                .enumerate()
                .map(|(b, (rows, sel))| {
                    let cols = attrs
                        .iter()
                        .map(|&a| {
                            // One batch delivers `kb` as an all-NULL column.
                            if names[a] == "kb" && b == 5 {
                                return Column::Nulls(rows.len());
                            }
                            let ty = match (names[a], b % 2) {
                                ("m", 1) => ColumnType::Float,
                                _ => types[a],
                            };
                            let mut tc = TypedColumn::new(ty);
                            rows.iter().for_each(|r| tc.push(&r[a]));
                            Column::Typed(tc)
                        })
                        .collect();
                    Batch::from_parts(cols, sel.clone())
                })
                .collect()
        };
        let queries = [
            "SELECT id, ki FROM t ORDER BY ki",
            "SELECT id, ki FROM t ORDER BY ki DESC",
            "SELECT id, kf FROM t ORDER BY kf",
            "SELECT id, kf FROM t ORDER BY kf DESC, ki",
            "SELECT id, ks FROM t ORDER BY ks",
            "SELECT id, ks, kf FROM t ORDER BY ks DESC, kf DESC",
            "SELECT id, kb FROM t ORDER BY kb, kf DESC",
            "SELECT id, kb FROM t ORDER BY kb DESC",
            "SELECT id FROM t ORDER BY kc",
            "SELECT id, kb FROM t ORDER BY kc DESC, kb",
            "SELECT id, kn FROM t ORDER BY kn",
            "SELECT id, kn FROM t ORDER BY kn DESC",
            "SELECT id, m FROM t ORDER BY m",
            "SELECT id, m FROM t ORDER BY m DESC, ks",
            "SELECT id, ks FROM t ORDER BY ki * 2 DESC, kf",
            "SELECT id FROM t ORDER BY ks DESC, id",
            "SELECT id, ki FROM t ORDER BY kf DESC",
        ];
        let run = |sql: &str, limit: Option<u64>| {
            let mut planned = plan_select(&parse_select(sql).unwrap(), &schema, &NoStats).unwrap();
            planned.pipeline.limit = limit;
            let source = crate::source::QueueSource::new(batches(&planned.scan.attrs));
            execute(&planned, Box::new(source)).unwrap()
        };
        for sql in queries {
            let all = run(sql, None);
            assert_eq!(all.rows.len(), total, "{sql}");
            let len = total as u64;
            for n in [0, 1, 5, 37, 700, len - 1, len, len + 1, u64::MAX] {
                let limited = run(sql, Some(n));
                let mut expect = all.rows.clone();
                expect.truncate(usize::try_from(n).unwrap_or(usize::MAX));
                assert_eq!(limited.columns, all.columns, "{sql} LIMIT {n}");
                assert_eq!(
                    format!("{:?}", limited.rows),
                    format!("{expect:?}"),
                    "{sql} LIMIT {n}"
                );
            }
        }
    }

    /// Batches of borrowed windows answer exactly as owned batches of the
    /// same rows: one long column per type — Int, Float with NaN and ±0.0,
    /// Str and Bool, each with NULLs — is lent to the engine a window at a
    /// time, at bases off the 64-row bitmap words (0, 37, 1 029, …), dense
    /// and behind a selection that skips rows (one window selecting none).
    /// Every aggregate, GROUP BY, `ORDER BY … LIMIT`, projection and a
    /// pushed predicate run over the windows and over `MemSource` batches of
    /// the logical rows, compared by `Debug` text so NaN and −0.0 count. A
    /// kernel that forgot a window's `base` reads the wrong rows here.
    #[test]
    fn borrowed_windows_equal_owned_batches() {
        let names = ["id", "k", "i", "f", "s", "b"];
        let types = [
            ColumnType::Int,
            ColumnType::Int,
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Str,
            ColumnType::Bool,
        ];
        let schema = Schema::new(
            names
                .iter()
                .zip(types)
                .map(|(n, t)| ColumnDef::new(*n, t))
                .collect(),
        );
        let len = if cfg!(miri) { 300 } else { 3_000 };
        let floats = [f64::NAN, -0.0, 0.0, 1.5, -2.25, -f64::NAN, 1e300];
        let strs = ["", "a", "ab", "b", "zz"];
        // Row `p` of every column, NULL on a per-column stride.
        let value = |c: usize, p: usize| -> Datum {
            let h = p.wrapping_mul(0x9e37_79b9) >> 7;
            if c > 0 && (p + c).is_multiple_of(4 + c) {
                return Datum::Null;
            }
            match c {
                0 => Datum::Int(p as i64),
                1 => Datum::Int((h % 5) as i64),
                2 => Datum::Int((h % 1_000) as i64 - 500),
                3 => Datum::Float(floats[h % floats.len()]),
                4 => Datum::from(strs[h % strs.len()]),
                _ => Datum::Bool(h.is_multiple_of(3)),
            }
        };
        let cols: Vec<TypedColumn> = types
            .iter()
            .enumerate()
            .map(|(c, &ty)| {
                let mut tc = TypedColumn::new(ty);
                (0..len).for_each(|p| tc.push(&value(c, p)));
                tc
            })
            .collect();
        let cuts: &[usize] = if cfg!(miri) {
            &[0, 37, 64, 101, 230, 300]
        } else {
            &[0, 37, 1_029, 1_100, 1_101, 2_053, 2_500, 3_000]
        };
        // Selected backing rows: every row, or all but every third (and
        // none of the window starting at 1 101 / 101).
        let picked = |selected: bool, p: usize| {
            !selected
                || (p % 3 != 1
                    && !cuts
                        .windows(2)
                        .any(|w| w[0] % 1_000 == 101 && (w[0]..w[1]).contains(&p)))
        };

        /// Lends `cols` (the scan's attributes) a window at a time, with the
        /// pushed predicate's selection over the picked rows.
        struct Windows<'c> {
            cols: Vec<&'c TypedColumn>,
            cuts: &'c [usize],
            next: usize,
            predicate: Option<RExpr>,
            picked: &'c dyn Fn(usize) -> bool,
        }
        impl<'c> ScanSource<'c> for Windows<'c> {
            fn next_batch(&mut self) -> EngineResult<Option<Batch<'c>>> {
                let Some(w) = self.cuts.get(self.next..self.next + 2) else {
                    return Ok(None);
                };
                self.next += 1;
                let (lo, rows) = (w[0], w[1] - w[0]);
                let views: Vec<ColView<'_>> = self
                    .cols
                    .iter()
                    .map(|&col| ColView { col, base: lo })
                    .collect();
                let passed = match &self.predicate {
                    Some(p) => p.filter_columnar(&views, rows),
                    None => (0..rows as u32).collect(),
                };
                let sel: Vec<u32> = passed
                    .into_iter()
                    .filter(|&r| (self.picked)(lo + r as usize))
                    .collect();
                let columns = self
                    .cols
                    .iter()
                    .map(|&col| Column::Window {
                        col,
                        base: lo,
                        len: rows,
                    })
                    .collect();
                let dense = sel.len() == rows;
                Ok(Some(Batch::from_parts(columns, (!dense).then_some(sel))))
            }
        }

        let queries = [
            "SELECT COUNT(*), COUNT(i), SUM(i), AVG(i), MIN(i), MAX(i), COUNT(DISTINCT i) FROM t",
            "SELECT COUNT(f), SUM(f), AVG(f), MIN(f), MAX(f), COUNT(DISTINCT f) FROM t",
            "SELECT COUNT(s), MIN(s), MAX(s), COUNT(DISTINCT s), COUNT(b), MIN(b), MAX(b) FROM t",
            "SELECT k, COUNT(*), SUM(i), AVG(f), MIN(s), MAX(b) FROM t GROUP BY k",
            "SELECT s, b, COUNT(*), SUM(f), MAX(i) FROM t GROUP BY s, b",
            "SELECT f, COUNT(*), MIN(id) FROM t GROUP BY f",
            "SELECT id, i, f FROM t ORDER BY f DESC, i LIMIT 50",
            "SELECT id, s FROM t ORDER BY s, id DESC LIMIT 7",
            "SELECT id, b, i FROM t ORDER BY i LIMIT 100",
            "SELECT id FROM t ORDER BY b DESC, f LIMIT 300",
            "SELECT id, k, i, f, s, b FROM t",
            "SELECT id, i * 2, f FROM t LIMIT 1500",
            "SELECT id, f, s FROM t WHERE i < 0 AND s >= 'ab'",
            "SELECT k, COUNT(*), SUM(f) FROM t WHERE f > -1.0 OR b GROUP BY k",
            "SELECT id, i FROM t WHERE s IS NULL ORDER BY i DESC LIMIT 20",
        ];
        for selected in [false, true] {
            let picked = |p: usize| picked(selected, p);
            let table: Vec<Vec<Datum>> = (0..len)
                .filter(|&p| picked(p))
                .map(|p| (0..names.len()).map(|c| value(c, p)).collect())
                .collect();
            for sql in queries {
                let planned = plan_select(&parse_select(sql).unwrap(), &schema, &NoStats).unwrap();
                let windows = Windows {
                    cols: planned.scan.attrs.iter().map(|&a| &cols[a]).collect(),
                    cuts,
                    next: 0,
                    predicate: planned.scan.predicate.clone(),
                    picked: &picked,
                };
                let got = execute(&planned, Box::new(windows)).unwrap();
                let owned = MemSource::from_table(&table, &planned.scan);
                let want = execute(&planned, Box::new(owned)).unwrap();
                assert!(!want.rows.is_empty(), "{sql}");
                assert_eq!(
                    format!("{:?}", got.rows),
                    format!("{:?}", want.rows),
                    "{sql} (selected {selected})"
                );
            }
        }
    }

    /// A bare `LIMIT n` stops pulling batches once it holds `n` rows (a
    /// source that runs dry first is pulled once more, to see it end).
    #[test]
    fn bare_limit_stops_pulling_batches() {
        struct Counting(MemSource, std::rc::Rc<std::cell::Cell<usize>>);
        impl<'a> ScanSource<'a> for Counting {
            fn next_batch(&mut self) -> EngineResult<Option<Batch<'a>>> {
                self.1.set(self.1.get() + 1);
                self.0.next_batch()
            }
        }
        for (n, pulls) in [(0u64, 0usize), (3, 1), (4, 1), (5, 2), (10, 3), (99, 4)] {
            let stmt = parse_select(&format!("SELECT a FROM t LIMIT {n}")).unwrap();
            let planned = plan_select(&stmt, &schema(), &NoStats).unwrap();
            let pulled = std::rc::Rc::new(std::cell::Cell::new(0));
            let source = Counting(
                MemSource::from_table(&table(), &planned.scan).with_batch_size(4),
                pulled.clone(),
            );
            let r = execute(&planned, Box::new(source)).unwrap();
            let vals: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
            let want: Vec<i64> = (0..10).take(n as usize).collect();
            assert_eq!(vals, want, "LIMIT {n}");
            assert_eq!(pulled.get(), pulls, "LIMIT {n}: batches pulled");
        }
    }

    #[test]
    fn scan_request_project_helper() {
        let req = ScanRequest::project(vec![0, 1]);
        let mut src = MemSource::from_table(&table(), &req);
        let mut rows = 0;
        while let Some(b) = src.next_batch().unwrap() {
            rows += b.rows();
        }
        assert_eq!(rows, 10);
    }
}
