//! Pipeline execution above the scan: projection, hash aggregation, sort,
//! limit (a bounded top-n under `ORDER BY`).
//!
//! Aggregation is columnar. A global aggregate folds each batch column
//! whole; a grouped one resolves each batch to dense group ids through an
//! open-addressing table over the typed key columns and scatters every
//! aggregate's argument column into per-group state arrays. Only computed
//! expressions and the (aggregate, column type) pairings without a typed
//! kernel — COUNT DISTINCT, MIN/MAX/SUM/AVG over strings or booleans — go
//! value by value through the scalar accumulator.
//!
//! Kept deliberately boring — this is the part of the system the paper says
//! should *not* change between PostgresRaw and a conventional DBMS ("the
//! rest of the query plan, generated by the optimizer, works without any
//! changes"). Every system wrapper in the experiment harness runs exactly
//! this code; only the [`ScanSource`] differs.

use std::collections::{BinaryHeap, HashSet};

use nodb_rawcache::column::NullMask;
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;
use nodb_sqlparse::ast::AggFunc;
use nodb_stats::ndv::hash_datum;

use crate::batch::{Batch, BatchRow, Column};
use crate::error::{EngineError, EngineResult};
use crate::expr::RExpr;
use crate::group::GroupTable;
use crate::planner::{AggCall, AggOutput, AggSpec, Pipeline, PlannedQuery};
use crate::result::QueryResult;
use crate::source::ScanSource;

/// Ceiling on hint-driven `Vec` pre-sizing: a selective predicate can make a
/// source's row-count hint a wild over-estimate, so never reserve more than
/// this many rows up front (growth doubling takes over beyond it).
const MAX_RESERVE_ROWS: usize = 1 << 20;

/// Execute a planned query against a scan source, materializing the result.
/// Every batch column is [`Column::Typed`] or [`Column::Nulls`]. Aggregates
/// run a batch at a time: a global aggregate folds a bare column through
/// typed kernels; GROUP BY hashes its key columns into dense group ids
/// (bare keys straight from the typed storage) and scatters each bare
/// argument column into per-group states. Projections, computed keys and
/// arguments, and the (aggregate, type) pairings without a kernel evaluate
/// row-at-a-time through [`BatchRow`].
///
/// `LIMIT n` bounds the work as well as the output: a plain projection
/// stops pulling batches once it holds `n` rows, and `ORDER BY … LIMIT n`
/// keeps a bounded top-n instead of sorting every row. Both return exactly
/// what sorting everything ([`sort_rows`]) and truncating would.
pub fn execute(
    planned: &PlannedQuery,
    mut source: Box<dyn ScanSource + '_>,
) -> EngineResult<QueryResult> {
    let pipeline = &planned.pipeline;
    // A limit beyond the address space keeps every row.
    let limit = pipeline
        .limit
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let mut rows: Vec<Vec<Datum>> = match (&pipeline.aggregate, limit) {
        (Some(agg), _) => {
            let mut rows = run_aggregate(agg, source.as_mut())?;
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
    source: &mut dyn ScanSource,
    limit: Option<usize>,
) -> EngineResult<Vec<Vec<Datum>>> {
    let cap = limit.unwrap_or(usize::MAX);
    // Pre-size from the source's known row count (cache coverage or posmap
    // line count) instead of growth-doubling through reallocations.
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
    fn rank(&self, keys: &[Datum], ordinal: usize) -> std::cmp::Ordering {
        cmp_sort_keys(self.order, &self.keys, keys).then(self.ordinal.cmp(&ordinal))
    }
}

impl PartialEq for Ranked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Ranked<'_> {}

impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank(&other.keys, other.ordinal)
    }
}

/// Compare two rows' sort-key values (one per `ORDER BY` key, in key
/// order) under the keys' directions — [`sort_rows`]'s order.
fn cmp_sort_keys(order: &[(usize, bool)], a: &[Datum], b: &[Datum]) -> std::cmp::Ordering {
    for (&(_, asc), (x, y)) in order.iter().zip(a.iter().zip(b)) {
        let o = x.total_cmp(y);
        if o != std::cmp::Ordering::Equal {
            return if asc { o } else { o.reverse() };
        }
    }
    std::cmp::Ordering::Equal
}

/// `ORDER BY … LIMIT n` as a bounded top-n: the `n` best rows under
/// (sort keys, arrival ordinal), in that order — exactly the first `n` rows
/// of the stable [`sort_rows`], ties included. Each row's sort keys are
/// evaluated first; its full projection only when it enters the top-n. The
/// heap holds at most `min(n, rows seen)` rows, so a huge `n` reserves
/// nothing it does not fill.
fn run_top_n(
    pipeline: &Pipeline,
    source: &mut dyn ScanSource,
    n: usize,
) -> EngineResult<Vec<Vec<Datum>>> {
    let order = &pipeline.order_by[..];
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut heap: BinaryHeap<Ranked<'_>> =
        BinaryHeap::with_capacity(source.size_hint().unwrap_or(0).min(n).min(MAX_RESERVE_ROWS));
    let mut keys: Vec<Datum> = Vec::with_capacity(order.len());
    let mut ordinal = 0usize;
    while let Some(batch) = source.next_batch()? {
        for r in 0..batch.rows() {
            let row_ref = BatchRow::new(&batch, r);
            keys.clear();
            keys.extend(
                order
                    .iter()
                    .map(|&(col, _)| pipeline.projections[col].eval(&row_ref)),
            );
            let full = heap.len() == n;
            // A later row that ties the worst kept one ranks after it.
            if !full
                || heap
                    .peek()
                    .is_some_and(|worst| worst.rank(&keys, ordinal).is_gt())
            {
                let entry = Ranked {
                    keys: std::mem::replace(&mut keys, Vec::with_capacity(order.len())),
                    ordinal,
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
            }
            ordinal += 1;
        }
    }
    Ok(heap.into_sorted_vec().into_iter().map(|e| e.row).collect())
}

/// Accumulator for one aggregate call within one group.
enum AggState {
    Count(u64),
    CountDistinct(HashSet<u64>),
    Sum {
        int: i128,
        float: f64,
        any_float: bool,
        non_null: u64,
    },
    Avg {
        sum: f64,
        non_null: u64,
    },
    Min(Option<Datum>),
    Max(Option<Datum>),
}

impl AggState {
    fn new(call: &AggCall) -> Self {
        match (call.func, call.distinct) {
            (AggFunc::Count, true) => AggState::CountDistinct(HashSet::new()),
            (AggFunc::Count, false) => AggState::Count(0),
            (AggFunc::Sum, _) => AggState::Sum {
                int: 0,
                float: 0.0,
                any_float: false,
                non_null: 0,
            },
            (AggFunc::Avg, _) => AggState::Avg {
                sum: 0.0,
                non_null: 0,
            },
            (AggFunc::Min, _) => AggState::Min(None),
            (AggFunc::Max, _) => AggState::Max(None),
        }
    }

    fn update(&mut self, value: Option<&Datum>) -> EngineResult<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) gets None (count the row); COUNT(e) counts
                // non-null values of e.
                match value {
                    None => *n += 1,
                    Some(d) if !d.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(d) = value {
                    if !d.is_null() {
                        set.insert(hash_datum(d));
                    }
                }
            }
            AggState::Sum {
                int,
                float,
                any_float,
                non_null,
            } => match value {
                Some(Datum::Int(v)) => {
                    *int += *v as i128;
                    *non_null += 1;
                }
                Some(Datum::Float(v)) => {
                    *float += v;
                    *any_float = true;
                    *non_null += 1;
                }
                Some(Datum::Null) | None => {}
                Some(other) => {
                    return Err(EngineError::Execution(format!(
                        "SUM over non-numeric value {other}"
                    )))
                }
            },
            AggState::Avg { sum, non_null } => match value {
                Some(d) if !d.is_null() => match d.as_float() {
                    Some(v) => {
                        *sum += v;
                        *non_null += 1;
                    }
                    None => {
                        return Err(EngineError::Execution(format!(
                            "AVG over non-numeric value {d}"
                        )))
                    }
                },
                _ => {}
            },
            AggState::Min(_) | AggState::Max(_) => {
                if let Some(d) = value.filter(|d| !d.is_null()) {
                    self.extreme(d);
                }
            }
        }
        Ok(())
    }

    /// MIN/MAX of one non-NULL value: keep a copy of `d` when it beats the
    /// current extreme under [`Datum::total_cmp`].
    #[inline]
    fn extreme(&mut self, d: &Datum) {
        let (cur, beats) = match self {
            AggState::Min(cur) => (cur, std::cmp::Ordering::Less),
            AggState::Max(cur) => (cur, std::cmp::Ordering::Greater),
            _ => return,
        };
        if cur.as_ref().is_none_or(|c| d.total_cmp(c) == beats) {
            *cur = Some(d.clone());
        }
    }

    /// Bulk `COUNT(*)`: every logical row counts, no values consulted.
    fn add_rows(&mut self, n: u64) {
        if let AggState::Count(c) = self {
            *c += n;
        } else {
            debug_assert!(false, "add_rows is COUNT(*)-only");
        }
    }

    /// Columnar update: fold a whole batch column (restricted to `sel` when
    /// given) into this accumulator. Typed numeric columns run as tight
    /// loops over the value vectors; every other pairing replays the
    /// row-at-a-time [`Self::update`] per value, so the result is always
    /// identical to the scalar path.
    fn update_from_column(&mut self, col: &Column, sel: Option<&[u32]>) -> EngineResult<()> {
        // All-NULL columns update nothing (COUNT skips NULLs, SUM/AVG/
        // MIN/MAX ignore them, DISTINCT sets never see them).
        if matches!(col, Column::Nulls(_)) {
            return Ok(());
        }
        if let Column::Typed(tc) = col {
            if self.update_typed(tc, sel) {
                return Ok(());
            }
        }
        // No kernel for this pairing (SUM/AVG/MIN/MAX over string or bool
        // columns, COUNT DISTINCT): replay the scalar updates.
        match sel {
            Some(s) => {
                for &i in s {
                    let d = col.datum(i as usize);
                    self.update(Some(&d))?;
                }
            }
            None => {
                for i in 0..col.len() {
                    let d = col.datum(i);
                    self.update(Some(&d))?;
                }
            }
        }
        Ok(())
    }

    /// The typed numeric kernels; returns `false` when this (state, column)
    /// pairing has none and the caller must replay scalar updates.
    fn update_typed(&mut self, tc: &TypedColumn, sel: Option<&[u32]>) -> bool {
        /// Iterate the selected physical indices.
        macro_rules! for_sel {
            ($len:expr, $i:ident, $body:expr) => {
                match sel {
                    Some(s) => {
                        for &idx in s {
                            let $i = idx as usize;
                            $body
                        }
                    }
                    None => {
                        for $i in 0..$len {
                            $body
                        }
                    }
                }
            };
        }
        match (self, tc) {
            (AggState::Count(n), tc) => {
                let nulls = tc.nulls();
                if !nulls.any_null() {
                    *n += sel.map(<[u32]>::len).unwrap_or(tc.len()) as u64;
                } else {
                    for_sel!(tc.len(), i, {
                        if !nulls.is_null(i) {
                            *n += 1;
                        }
                    });
                }
                true
            }
            (AggState::Sum { int, non_null, .. }, TypedColumn::Int { values, nulls }) => {
                if !nulls.any_null() {
                    match sel {
                        Some(s) => {
                            for &idx in s {
                                *int += values[idx as usize] as i128;
                            }
                            *non_null += s.len() as u64;
                        }
                        None => {
                            for v in values {
                                *int += *v as i128;
                            }
                            *non_null += values.len() as u64;
                        }
                    }
                } else {
                    for_sel!(values.len(), i, {
                        if !nulls.is_null(i) {
                            *int += values[i] as i128;
                            *non_null += 1;
                        }
                    });
                }
                true
            }
            (
                AggState::Sum {
                    float,
                    any_float,
                    non_null,
                    ..
                },
                TypedColumn::Float { values, nulls },
            ) => {
                if !nulls.any_null() {
                    for_sel!(values.len(), i, {
                        *float += values[i];
                    });
                    let added = sel.map(<[u32]>::len).unwrap_or(values.len()) as u64;
                    *non_null += added;
                    if added > 0 {
                        *any_float = true;
                    }
                } else {
                    for_sel!(values.len(), i, {
                        if !nulls.is_null(i) {
                            *float += values[i];
                            *any_float = true;
                            *non_null += 1;
                        }
                    });
                }
                true
            }
            (AggState::Avg { sum, non_null }, TypedColumn::Int { values, nulls }) => {
                if !nulls.any_null() {
                    for_sel!(values.len(), i, {
                        *sum += values[i] as f64;
                        *non_null += 1;
                    });
                } else {
                    for_sel!(values.len(), i, {
                        if !nulls.is_null(i) {
                            *sum += values[i] as f64;
                            *non_null += 1;
                        }
                    });
                }
                true
            }
            (AggState::Avg { sum, non_null }, TypedColumn::Float { values, nulls }) => {
                if !nulls.any_null() {
                    for_sel!(values.len(), i, {
                        *sum += values[i];
                        *non_null += 1;
                    });
                } else {
                    for_sel!(values.len(), i, {
                        if !nulls.is_null(i) {
                            *sum += values[i];
                            *non_null += 1;
                        }
                    });
                }
                true
            }
            (AggState::Min(cur), TypedColumn::Int { values, nulls }) => {
                let mut best: Option<i64> = None;
                for_sel!(values.len(), i, {
                    if !nulls.is_null(i) && best.map(|b| values[i] < b).unwrap_or(true) {
                        best = Some(values[i]);
                    }
                });
                if let Some(b) = best {
                    let d = Datum::Int(b);
                    if cur
                        .as_ref()
                        .map(|c| d.total_cmp(c) == std::cmp::Ordering::Less)
                        .unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
                true
            }
            (AggState::Max(cur), TypedColumn::Int { values, nulls }) => {
                let mut best: Option<i64> = None;
                for_sel!(values.len(), i, {
                    if !nulls.is_null(i) && best.map(|b| values[i] > b).unwrap_or(true) {
                        best = Some(values[i]);
                    }
                });
                if let Some(b) = best {
                    let d = Datum::Int(b);
                    if cur
                        .as_ref()
                        .map(|c| d.total_cmp(c) == std::cmp::Ordering::Greater)
                        .unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
                true
            }
            (AggState::Min(cur), TypedColumn::Float { values, nulls }) => {
                let mut best: Option<f64> = None;
                for_sel!(values.len(), i, {
                    if !nulls.is_null(i)
                        && best
                            .map(|b| values[i].total_cmp(&b) == std::cmp::Ordering::Less)
                            .unwrap_or(true)
                    {
                        best = Some(values[i]);
                    }
                });
                if let Some(b) = best {
                    let d = Datum::Float(b);
                    if cur
                        .as_ref()
                        .map(|c| d.total_cmp(c) == std::cmp::Ordering::Less)
                        .unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
                true
            }
            (AggState::Max(cur), TypedColumn::Float { values, nulls }) => {
                let mut best: Option<f64> = None;
                for_sel!(values.len(), i, {
                    if !nulls.is_null(i)
                        && best
                            .map(|b| values[i].total_cmp(&b) == std::cmp::Ordering::Greater)
                            .unwrap_or(true)
                    {
                        best = Some(values[i]);
                    }
                });
                if let Some(b) = best {
                    let d = Datum::Float(b);
                    if cur
                        .as_ref()
                        .map(|c| d.total_cmp(c) == std::cmp::Ordering::Greater)
                        .unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
                true
            }
            _ => false,
        }
    }

    fn finish(self) -> Datum {
        match self {
            AggState::Count(n) => Datum::Int(n as i64),
            AggState::CountDistinct(set) => Datum::Int(set.len() as i64),
            AggState::Sum {
                int,
                float,
                any_float,
                non_null,
            } => {
                if non_null == 0 {
                    Datum::Null
                } else if any_float {
                    Datum::Float(float + int as f64)
                } else if let Ok(v) = i64::try_from(int) {
                    Datum::Int(v)
                } else {
                    Datum::Float(int as f64)
                }
            }
            AggState::Avg { sum, non_null } => {
                if non_null == 0 {
                    Datum::Null
                } else {
                    Datum::Float(sum / non_null as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Datum::Null),
        }
    }
}

fn run_aggregate(spec: &AggSpec, source: &mut dyn ScanSource) -> EngineResult<Vec<Vec<Datum>>> {
    if spec.group_exprs.is_empty() {
        run_global(spec, source)
    } else {
        run_grouped(spec, source)
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

/// Aggregation without GROUP BY: one group, every batch folded whole.
fn run_global(spec: &AggSpec, source: &mut dyn ScanSource) -> EngineResult<Vec<Vec<Datum>>> {
    let mut state: Vec<AggState> = spec.aggs.iter().map(AggState::new).collect();
    while let Some(batch) = source.next_batch()? {
        // Whole-batch kernels: COUNT(*) counts logical rows, bare-column
        // arguments fold the column (honoring the selection vector),
        // expression arguments evaluate row-at-a-time.
        for (a, call) in spec.aggs.iter().enumerate() {
            match &call.arg {
                None => state[a].add_rows(batch.rows() as u64),
                Some(RExpr::Col(c)) => {
                    state[a].update_from_column(batch.column(*c), batch.selection())?
                }
                Some(e) => {
                    for r in 0..batch.rows() {
                        let v = e.eval(&BatchRow::new(&batch, r));
                        state[a].update(Some(&v))?;
                    }
                }
            }
        }
    }
    let mut finished: Vec<Option<Datum>> = state.into_iter().map(|s| Some(s.finish())).collect();
    Ok(vec![output_row(spec, &[], &mut finished)])
}

/// Aggregation with GROUP BY, a batch at a time: the [`GroupTable`]
/// resolves each logical row to a dense group id, then every aggregate
/// scatters the batch into its per-group states ([`GroupedAgg::scatter`]).
/// Output rows come in group-arrival order.
fn run_grouped(spec: &AggSpec, source: &mut dyn ScanSource) -> EngineResult<Vec<Vec<Datum>>> {
    let mut table = GroupTable::new(&spec.group_exprs);
    let mut aggs: Vec<GroupedAgg<'_>> = spec
        .aggs
        .iter()
        .map(|call| GroupedAgg {
            call,
            states: Vec::new(),
        })
        .collect();
    let mut ids: Vec<u32> = Vec::new();
    while let Some(batch) = source.next_batch()? {
        table.assign(&batch, &mut ids)?;
        // Row at a time, the first failing (row, aggregate) update would
        // have ended the query; report that one.
        let mut failed: Option<(usize, EngineError)> = None;
        for agg in &mut aggs {
            if let Err((r, e)) = agg.scatter(&batch, &ids, table.len()) {
                if failed.as_ref().is_none_or(|&(first, _)| r < first) {
                    failed = Some((r, e));
                }
            }
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
    }
    let mut states: Vec<std::vec::IntoIter<AggState>> =
        aggs.into_iter().map(|a| a.states.into_iter()).collect();
    let mut finished: Vec<Option<Datum>> = Vec::with_capacity(states.len());
    Ok(table
        .keys()
        .map(|key| {
            finished.clear();
            finished.extend(states.iter_mut().map(|s| s.next().map(AggState::finish)));
            output_row(spec, key, &mut finished)
        })
        .collect())
}

/// One aggregate call of a grouped aggregation: its accumulators, indexed
/// by group id.
struct GroupedAgg<'a> {
    call: &'a AggCall,
    states: Vec<AggState>,
}

impl GroupedAgg<'_> {
    /// Fold every logical row `r` of `batch` into the state of its group
    /// `ids[r]`, after adding states for the groups new in this batch (there
    /// are `groups` in all). A bare-column argument over a typed column
    /// runs a typed kernel ([`scatter_typed`]); every other pairing replays
    /// [`AggState::update`] per row. On failure, returns the first logical
    /// row whose update failed, with its error.
    fn scatter(
        &mut self,
        batch: &Batch,
        ids: &[u32],
        groups: usize,
    ) -> Result<(), (usize, EngineError)> {
        let call = self.call;
        self.states.resize_with(groups, || AggState::new(call));
        let states = &mut self.states[..];
        let replay = |states: &mut [AggState], value: &dyn Fn(usize) -> Datum| {
            for (r, &g) in ids.iter().enumerate() {
                states[g as usize]
                    .update(Some(&value(r)))
                    .map_err(|e| (r, e))?;
            }
            Ok(())
        };
        match &call.arg {
            None => {
                for &g in ids {
                    states[g as usize].add_rows(1);
                }
                Ok(())
            }
            Some(RExpr::Col(c)) => match batch.column(*c) {
                // NULL updates nothing, whatever the aggregate.
                Column::Nulls(_) => Ok(()),
                Column::Typed(tc) if scatter_typed(call, states, tc, batch.selection(), ids) => {
                    Ok(())
                }
                Column::Typed(_) => replay(states, &|r| batch.value(r, *c)),
            },
            Some(e) => replay(states, &|r| e.eval(&BatchRow::new(batch, r))),
        }
    }
}

/// Call `f(p, g)` for every logical row: `p` its physical index in the
/// batch's columns, `g` its group id. The selection is matched once, not per
/// row.
#[inline]
fn for_rows(sel: Option<&[u32]>, ids: &[u32], mut f: impl FnMut(usize, usize)) {
    match sel {
        Some(s) => {
            for (&p, &g) in s.iter().zip(ids) {
                f(p as usize, g as usize);
            }
        }
        None => {
            for (p, &g) in ids.iter().enumerate() {
                f(p, g as usize);
            }
        }
    }
}

/// The typed grouped kernels: fold a typed column into the states of each
/// logical row's group, with [`AggState::update`]'s semantics — COUNT over
/// any column, SUM/AVG/MIN/MAX over Int and Float. The (aggregate, column)
/// pairing is matched once per batch; returns `false` when it has no kernel
/// and the caller must replay scalar updates.
fn scatter_typed(
    call: &AggCall,
    states: &mut [AggState],
    tc: &TypedColumn,
    sel: Option<&[u32]>,
    ids: &[u32],
) -> bool {
    /// Apply `f` to each non-NULL value and its row's group state.
    fn each<T: Copy>(
        states: &mut [AggState],
        values: &[T],
        nulls: &NullMask,
        sel: Option<&[u32]>,
        ids: &[u32],
        f: impl Fn(&mut AggState, T),
    ) {
        for_rows(sel, ids, |p, g| {
            if !nulls.is_null(p) {
                f(&mut states[g], values[p]);
            }
        });
    }
    let nulls = tc.nulls();
    match (call.func, call.distinct, tc) {
        (AggFunc::Count, false, _) => for_rows(sel, ids, |p, g| {
            if let (false, AggState::Count(n)) = (nulls.is_null(p), &mut states[g]) {
                *n += 1;
            }
        }),
        (AggFunc::Sum, _, TypedColumn::Int { values, .. }) => {
            each(states, values, nulls, sel, ids, |s, v| {
                if let AggState::Sum { int, non_null, .. } = s {
                    *int += i128::from(v);
                    *non_null += 1;
                }
            })
        }
        (AggFunc::Sum, _, TypedColumn::Float { values, .. }) => {
            each(states, values, nulls, sel, ids, |s, v| {
                if let AggState::Sum {
                    float,
                    any_float,
                    non_null,
                    ..
                } = s
                {
                    *float += v;
                    *any_float = true;
                    *non_null += 1;
                }
            })
        }
        (AggFunc::Avg, _, TypedColumn::Int { values, .. }) => {
            each(states, values, nulls, sel, ids, |s, v| {
                if let AggState::Avg { sum, non_null } = s {
                    *sum += v as f64;
                    *non_null += 1;
                }
            })
        }
        (AggFunc::Avg, _, TypedColumn::Float { values, .. }) => {
            each(states, values, nulls, sel, ids, |s, v| {
                if let AggState::Avg { sum, non_null } = s {
                    *sum += v;
                    *non_null += 1;
                }
            })
        }
        (AggFunc::Min | AggFunc::Max, _, TypedColumn::Int { values, .. }) => {
            each(states, values, nulls, sel, ids, |s, v| {
                s.extreme(&Datum::Int(v))
            })
        }
        (AggFunc::Min | AggFunc::Max, _, TypedColumn::Float { values, .. }) => {
            each(states, values, nulls, sel, ids, |s, v| {
                s.extreme(&Datum::Float(v))
            })
        }
        _ => return false,
    }
    true
}

/// Sort rows by the given (column, ascending) keys; NULLs sort first on
/// ascending keys (matching [`Datum::total_cmp`]).
pub fn sort_rows(rows: &mut [Vec<Datum>], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for &(col, asc) in keys {
            let o = a[col].total_cmp(&b[col]);
            if o != std::cmp::Ordering::Equal {
                return if asc { o } else { o.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The columnar fold equals the scalar replay it stands in for, for
    /// every aggregate over every column type, null density and selection
    /// shape — folded twice, so merging into a non-empty accumulator is
    /// covered too. The Int values overflow i64 under SUM (promotion to
    /// Float); the Float values hold NaN and −0.0.
    #[test]
    fn update_from_column_equals_scalar_replay() {
        let values: [(ColumnType, Vec<Datum>); 4] = [
            (
                ColumnType::Int,
                [i64::MAX, i64::MAX - 1, -5, 0, 7, i64::MIN]
                    .map(Datum::Int)
                    .to_vec(),
            ),
            (
                ColumnType::Float,
                [f64::NAN, -0.0, 0.0, 1.5, -2.25, 1e300]
                    .map(Datum::Float)
                    .to_vec(),
            ),
            (
                ColumnType::Bool,
                [true, false, false].map(Datum::Bool).to_vec(),
            ),
            (
                ColumnType::Str,
                ["b", "a", "", "c", "a"].map(Datum::from).to_vec(),
            ),
        ];
        let funcs = [
            (AggFunc::Count, false),
            (AggFunc::Count, true),
            (AggFunc::Sum, false),
            (AggFunc::Avg, false),
            (AggFunc::Min, false),
            (AggFunc::Max, false),
        ];
        const ROWS: usize = 24;
        let sparse: Vec<u32> = (0..ROWS as u32).step_by(3).collect();
        for (ty, vals) in &values {
            for null_every in [0usize, 2, 1] {
                let mut tc = TypedColumn::new(*ty);
                for i in 0..ROWS {
                    if null_every != 0 && i % null_every == 0 {
                        tc.push_null();
                    } else {
                        tc.push(&vals[i % vals.len()]);
                    }
                }
                let col = Column::Typed(tc);
                for sel in [None, Some(&sparse[..]), Some(&[][..])] {
                    for &(func, distinct) in &funcs {
                        let call = AggCall {
                            func,
                            arg: Some(RExpr::Col(0)),
                            distinct,
                        };
                        let tag = format!("{ty:?} null_every {null_every} sel {sel:?} {func:?}");
                        let fold = || -> EngineResult<Datum> {
                            let mut s = AggState::new(&call);
                            s.update_from_column(&col, sel)?;
                            s.update_from_column(&col, sel)?;
                            Ok(s.finish())
                        };
                        let replay = || -> EngineResult<Datum> {
                            let mut s = AggState::new(&call);
                            let rows: Vec<usize> = match sel {
                                Some(s) => s.iter().map(|&i| i as usize).collect(),
                                None => (0..col.len()).collect(),
                            };
                            for &i in rows.iter().chain(&rows) {
                                s.update(Some(&col.datum(i)))?;
                            }
                            Ok(s.finish())
                        };
                        // Debug text compares NaN and −0.0 exactly.
                        assert_eq!(format!("{:?}", fold()), format!("{:?}", replay()), "{tag}");
                    }
                }
            }
        }
        // The Int SUM over every row overflows i64 and promotes to Float.
        let mut s = AggState::new(&AggCall {
            func: AggFunc::Sum,
            arg: Some(RExpr::Col(0)),
            distinct: false,
        });
        let mut tc = TypedColumn::new(ColumnType::Int);
        for v in [i64::MAX, i64::MAX] {
            tc.push(&Datum::Int(v));
        }
        s.update_from_column(&Column::Typed(tc), None).unwrap();
        assert!(matches!(s.finish(), Datum::Float(v) if v > 1e19));
    }

    /// The row-at-a-time grouped aggregation the group table replaced: per
    /// row a [`BatchRow`], a `Vec<Datum>` key, a probe, and one
    /// [`AggState::update`] per aggregate, stopping at the first failure.
    /// The probe is a linear search under the group table's equality: every
    /// key value hashes alike and compares equal under `total_cmp`.
    fn scalar_grouped(spec: &AggSpec, batches: Vec<Batch>) -> EngineResult<Vec<Vec<Datum>>> {
        let same = |a: &[Datum], b: &[Datum]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| hash_datum(x) == hash_datum(y) && x.total_cmp(y).is_eq())
        };
        let mut keys: Vec<Vec<Datum>> = Vec::new();
        let mut states: Vec<Vec<AggState>> = Vec::new();
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
                    let value = call.arg.as_ref().map(|e| e.eval(&row));
                    states[gi][a].update(value.as_ref())?;
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
        use crate::source::QueueSource;
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
                .collect::<Vec<Batch>>()
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
        ];
        for sql in queries {
            let planned = plan_select(&parse_select(sql).unwrap(), &schema, &NoStats).unwrap();
            let spec = planned.pipeline.aggregate.as_ref().unwrap();
            let attrs = &planned.scan.attrs;
            let mut source = QueueSource::new(batches(attrs, &data).into());
            let got = run_grouped(spec, &mut source);
            let want = scalar_grouped(spec, batches(attrs, &data));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{sql}");
        }
        // The two failing aggregates fail at different rows: the earlier
        // row's error wins, not the earlier aggregate's.
        let sql = "SELECT kb, SUM(ks), AVG(vs) FROM t GROUP BY kb";
        let planned = plan_select(&parse_select(sql).unwrap(), &schema, &NoStats).unwrap();
        let mut source = QueueSource::new(batches(&planned.scan.attrs, &data).into());
        let err = run_grouped(planned.pipeline.aggregate.as_ref().unwrap(), &mut source);
        assert!(
            format!("{err:?}").contains("AVG over non-numeric value x"),
            "{err:?}"
        );
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

    /// A bare `LIMIT n` stops pulling batches once it holds `n` rows (a
    /// source that runs dry first is pulled once more, to see it end).
    #[test]
    fn bare_limit_stops_pulling_batches() {
        struct Counting(MemSource, std::rc::Rc<std::cell::Cell<usize>>);
        impl ScanSource for Counting {
            fn next_batch(&mut self) -> EngineResult<Option<crate::batch::Batch>> {
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
