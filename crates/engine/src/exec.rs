//! Pipeline execution above the scan: projection, hash aggregation, sort,
//! limit.
//!
//! Kept deliberately boring — this is the part of the system the paper says
//! should *not* change between PostgresRaw and a conventional DBMS ("the
//! rest of the query plan, generated by the optimizer, works without any
//! changes"). Every system wrapper in the experiment harness runs exactly
//! this code; only the [`ScanSource`] differs.

use std::collections::{HashMap, HashSet};

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;
use nodb_sqlparse::ast::AggFunc;
use nodb_stats::ndv::hash_datum;

use crate::batch::{BatchRow, Column};
use crate::error::{EngineError, EngineResult};
use crate::expr::RExpr;
use crate::planner::{AggCall, AggOutput, AggSpec, Pipeline, PlannedQuery};
use crate::result::QueryResult;
use crate::source::ScanSource;

/// Ceiling on hint-driven `Vec` pre-sizing: a selective predicate can make a
/// source's row-count hint a wild over-estimate, so never reserve more than
/// this many rows up front (growth doubling takes over beyond it).
const MAX_RESERVE_ROWS: usize = 1 << 20;

/// Execute a planned query against a scan source, materializing the result.
/// Every batch column is [`Column::Typed`] or [`Column::Nulls`]: global
/// aggregates over a bare column fold it through typed kernels, and the
/// rest — projections, group keys, computed arguments, and the
/// (state, type) pairings without a kernel — evaluate row-at-a-time through
/// [`BatchRow`].
pub fn execute(
    planned: &PlannedQuery,
    mut source: Box<dyn ScanSource + '_>,
) -> EngineResult<QueryResult> {
    let pipeline = &planned.pipeline;
    let mut rows: Vec<Vec<Datum>> = match &pipeline.aggregate {
        Some(agg) => run_aggregate(agg, source.as_mut())?,
        None => run_projection(pipeline, source.as_mut())?,
    };

    if !pipeline.order_by.is_empty() {
        sort_rows(&mut rows, &pipeline.order_by);
    }
    if let Some(n) = pipeline.limit {
        rows.truncate(n as usize);
    }
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

fn run_projection(
    pipeline: &Pipeline,
    source: &mut dyn ScanSource,
) -> EngineResult<Vec<Vec<Datum>>> {
    // Pre-size from the source's known row count (cache coverage or posmap
    // line count) instead of growth-doubling through reallocations.
    let mut rows = Vec::with_capacity(source.size_hint().unwrap_or(0).min(MAX_RESERVE_ROWS));
    while let Some(batch) = source.next_batch()? {
        for r in 0..batch.rows() {
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

/// Group key wrapper: hashing via the stats hash (Int/Float unify), equality
/// via the total order so NULL groups with NULL and NaN with NaN.
struct Key(Vec<Datum>);

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for d in &self.0 {
            state.write_u64(hash_datum(d));
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.total_cmp(b) == std::cmp::Ordering::Equal)
    }
}

impl Eq for Key {}

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
            AggState::Min(cur) => {
                if let Some(d) = value {
                    if !d.is_null()
                        && cur
                            .as_ref()
                            .map(|c| d.total_cmp(c) == std::cmp::Ordering::Less)
                            .unwrap_or(true)
                    {
                        *cur = Some(d.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(d) = value {
                    if !d.is_null()
                        && cur
                            .as_ref()
                            .map(|c| d.total_cmp(c) == std::cmp::Ordering::Greater)
                            .unwrap_or(true)
                    {
                        *cur = Some(d.clone());
                    }
                }
            }
        }
        Ok(())
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
    // Insertion-ordered hash groups: map key → dense index, states in a Vec,
    // the map pre-sized from the source's row hint (groups never exceed
    // rows; the cap keeps a selective hint from reserving absurdly).
    let mut index: HashMap<Key, usize> =
        HashMap::with_capacity(source.size_hint().unwrap_or(0).min(1024));
    let mut keys: Vec<Vec<Datum>> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let global = spec.group_exprs.is_empty();
    if global {
        keys.push(Vec::new());
        states.push(spec.aggs.iter().map(AggState::new).collect());
    }

    // Reused per-row key buffer: cleared each row, moved into the map only
    // when a new group appears (no per-hit clone, no per-row allocation).
    let mut key_buf: Vec<Datum> = Vec::with_capacity(spec.group_exprs.len());

    while let Some(batch) = source.next_batch()? {
        if global {
            // Whole-batch kernels: COUNT(*) counts logical rows, bare-column
            // arguments fold the column (honoring the selection vector),
            // expression arguments evaluate row-at-a-time.
            let state = &mut states[0];
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
            continue;
        }
        for r in 0..batch.rows() {
            let row = BatchRow::new(&batch, r);
            key_buf.clear();
            key_buf.extend(spec.group_exprs.iter().map(|g| g.eval(&row)));
            let probe = Key(std::mem::take(&mut key_buf));
            let gi = match index.get(&probe) {
                Some(&gi) => {
                    key_buf = probe.0; // hand the buffer back, no clone
                    gi
                }
                None => {
                    let gi = keys.len();
                    keys.push(probe.0.clone());
                    index.insert(probe, gi);
                    states.push(spec.aggs.iter().map(AggState::new).collect());
                    key_buf = Vec::with_capacity(spec.group_exprs.len());
                    gi
                }
            };
            for (a, call) in spec.aggs.iter().enumerate() {
                let value = call.arg.as_ref().map(|e| e.eval(&row));
                states[gi][a].update(value.as_ref())?;
            }
        }
    }

    // Materialize output rows in group-arrival order.
    let mut rows = Vec::with_capacity(keys.len());
    for (key, group_states) in keys.into_iter().zip(states) {
        let mut finished: Vec<Option<Datum>> =
            group_states.into_iter().map(|s| Some(s.finish())).collect();
        let row: Vec<Datum> = spec
            .output
            .iter()
            .map(|o| match o {
                AggOutput::Group(i) => key[*i].clone(),
                AggOutput::Agg(i) => finished[*i].take().unwrap_or(Datum::Null),
            })
            .collect();
        rows.push(row);
    }
    Ok(rows)
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
