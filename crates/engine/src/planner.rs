//! Query planning: name resolution, predicate pushdown, selectivity-ordered
//! conjuncts, projection pruning, aggregate lowering.
//!
//! The output is deliberately split at the paper's architectural seam:
//! a [`ScanRequest`] describing everything the storage layer must do
//! (attributes + pushed predicate — i.e. selective tokenizing, parsing and
//! tuple formation — and a bare `LIMIT`, so the scan can stop once enough
//! rows survive), and a [`Pipeline`] of conventional operators that run
//! unchanged above *any* scan source.

use nodb_rawcsv::Schema;
use nodb_sqlparse::ast::{AggFunc, Expr, OrderKey, SelectItem, SelectStmt};
use nodb_stats::SelectivityEstimator;

use crate::error::{EngineError, EngineResult};
use crate::expr::{resolve_expr, RExpr};
use crate::sketch::{join_conjuncts, sketch_conjunct, split_conjuncts};
use crate::source::ScanRequest;

/// One aggregate call, resolved over scan-output positions.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The function.
    pub func: AggFunc,
    /// Argument (`None` = `COUNT(*)`).
    pub arg: Option<RExpr>,
    /// DISTINCT modifier.
    pub distinct: bool,
}

/// Where each output column of an aggregate comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOutput {
    /// `group_exprs[i]`.
    Group(usize),
    /// `aggs[i]`.
    Agg(usize),
}

/// Aggregation specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Group-key expressions over scan positions (empty = one global group).
    pub group_exprs: Vec<RExpr>,
    /// Aggregate calls.
    pub aggs: Vec<AggCall>,
    /// Output column sources, in SELECT-list order.
    pub output: Vec<AggOutput>,
}

/// Operators above the scan.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Projection expressions over scan positions (unused when `aggregate`
    /// is present).
    pub projections: Vec<RExpr>,
    /// Output column names, in order.
    pub column_names: Vec<String>,
    /// Aggregation, if any.
    pub aggregate: Option<AggSpec>,
    /// Sort keys as (output column position, ascending).
    pub order_by: Vec<(usize, bool)>,
    /// Row limit: the engine keeps the first `limit` rows of its output (of
    /// the sorted output under `ORDER BY`, where it keeps a bounded top-n
    /// instead of sorting every row). When nothing above the scan reorders
    /// or folds rows, the planner also pushes it into
    /// [`ScanRequest::limit`] so the scan can stop early; this field still
    /// truncates, since a source may yield more.
    pub limit: Option<u64>,
    /// Number of trailing projection columns that exist only as sort keys
    /// (`ORDER BY` on unselected columns); dropped after sorting.
    pub hidden_sort_columns: usize,
}

/// A fully planned single-table query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// What the storage layer must produce.
    pub scan: ScanRequest,
    /// What the engine does above it.
    pub pipeline: Pipeline,
    /// Estimated selectivity of the pushed predicate (1.0 when none) —
    /// recorded for EXPLAIN output and experiment logging.
    pub estimated_selectivity: f64,
}

impl PlannedQuery {
    /// Human-readable plan description (an EXPLAIN-lite).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        if let Some(n) = self.pipeline.limit {
            s.push_str(&format!("Limit {n}\n"));
        }
        if !self.pipeline.order_by.is_empty() {
            let keys: Vec<String> = self
                .pipeline
                .order_by
                .iter()
                .map(|(c, asc)| {
                    let name = self
                        .pipeline
                        .column_names
                        .get(*c)
                        .map(String::as_str)
                        .unwrap_or("<hidden>");
                    format!("{} {}", name, if *asc { "ASC" } else { "DESC" })
                })
                .collect();
            s.push_str(&format!("Sort [{}]\n", keys.join(", ")));
        }
        if let Some(agg) = &self.pipeline.aggregate {
            s.push_str(&format!(
                "HashAggregate groups={} aggs={}\n",
                agg.group_exprs.len(),
                agg.aggs.len()
            ));
        } else {
            s.push_str(&format!(
                "Project [{}]\n",
                self.pipeline.column_names.join(", ")
            ));
        }
        // A pushed LIMIT goes before the estimate, which stays last: readers
        // of the plan text parse it to the end of the line.
        let limit = self
            .scan
            .limit
            .map_or(String::new(), |n| format!(" limit={n}"));
        s.push_str(&format!(
            "Scan attrs={:?} pushed_predicate={}{limit} est_selectivity={:.4}",
            self.scan.attrs,
            self.scan.predicate.is_some(),
            self.estimated_selectivity,
        ));
        s
    }
}

/// Plan a parsed SELECT against a table schema, consulting `estimator` to
/// order the pushed conjuncts (cheapest-most-selective first).
pub fn plan_select(
    stmt: &SelectStmt,
    schema: &Schema,
    estimator: &dyn SelectivityEstimator,
) -> EngineResult<PlannedQuery> {
    // 1. Expand the SELECT list.
    let items = expand_items(stmt, schema)?;

    // 2. Collect every referenced column name across all clauses.
    let mut names: Vec<String> = Vec::new();
    for (expr, _) in &items {
        expr.referenced_columns(&mut names);
    }
    if let Some(f) = &stmt.filter {
        f.referenced_columns(&mut names);
    }
    for g in &stmt.group_by {
        g.referenced_columns(&mut names);
    }
    for k in &stmt.order_by {
        // `ORDER BY alias` references an output column, not a file attribute.
        if let Expr::Column(n) = &k.expr {
            if items.iter().any(|(_, iname)| iname == n) {
                continue;
            }
        }
        k.expr.referenced_columns(&mut names);
    }

    // 3. Resolve names to file attributes; build the pruned attribute set.
    let mut attrs: Vec<usize> = Vec::new();
    for n in &names {
        let idx = schema
            .index_of(n)
            .ok_or_else(|| EngineError::Planning(format!("unknown column {n:?}")))?;
        if !attrs.contains(&idx) {
            attrs.push(idx);
        }
    }
    attrs.sort_unstable();
    let resolve = |name: &str| -> Option<usize> {
        schema
            .index_of(name)
            .and_then(|a| attrs.binary_search(&a).ok())
    };

    // 4. Pushed predicate: resolve, split, order by selectivity, rejoin.
    let mut estimated_selectivity = 1.0f64;
    let predicate = match &stmt.filter {
        Some(f) => {
            if f.contains_aggregate() {
                return Err(EngineError::Planning(
                    "aggregates are not allowed in WHERE".into(),
                ));
            }
            let resolved = resolve_expr(f, &resolve)?;
            let mut conjuncts = Vec::new();
            split_conjuncts(&resolved, &mut conjuncts);
            let mut priced: Vec<(f64, RExpr)> = conjuncts
                .into_iter()
                .map(|c| {
                    let sel = match sketch_conjunct(&c) {
                        Some((pos, sketch)) => estimator.selectivity(attrs[pos], &sketch),
                        None => nodb_stats::estimate::defaults::RANGE,
                    };
                    (sel, c)
                })
                .collect();
            // Stable sort keeps the written order among equal estimates.
            priced.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            estimated_selectivity = priced
                .iter()
                .map(|(s, _)| s)
                .product::<f64>()
                .clamp(0.0, 1.0);
            let ordered: Vec<RExpr> = priced.into_iter().map(|(_, c)| c).collect();
            join_conjuncts(&ordered)
        }
        None => None,
    };

    // 5. Aggregate vs plain projection.
    let has_agg = stmt.group_by.is_empty() && items.iter().any(|(e, _)| e.contains_aggregate())
        || !stmt.group_by.is_empty();

    let (mut pipeline_projections, column_names, aggregate) = if has_agg {
        plan_aggregate(stmt, &items, &resolve)?
    } else {
        let mut projections = Vec::with_capacity(items.len());
        let mut names = Vec::with_capacity(items.len());
        for (expr, name) in &items {
            projections.push(resolve_expr(expr, &resolve)?);
            names.push(name.clone());
        }
        (projections, names, None)
    };

    // 6. ORDER BY keys reference output columns (by alias/name or by
    //    structural equality with a projected expression); for plain
    //    projections, keys over unselected columns become hidden trailing
    //    sort columns.
    let mut hidden_sort_columns = 0usize;
    let order_by = resolve_order_by(
        &stmt.order_by,
        &items,
        &column_names,
        &mut pipeline_projections,
        aggregate.as_ref(),
        &resolve,
        &mut hidden_sort_columns,
    )?;

    // 7. Materialization flags: predicate-only positions need not be formed
    //    into tuples (selective tuple formation).
    let mut materialize = vec![false; attrs.len()];
    let mut mark = |e: &RExpr| {
        let mut cols = Vec::new();
        e.columns(&mut cols);
        for c in cols {
            materialize[c] = true;
        }
    };
    for p in &pipeline_projections {
        mark(p);
    }
    if let Some(agg) = &aggregate {
        for g in &agg.group_exprs {
            mark(g);
        }
        for a in &agg.aggs {
            if let Some(arg) = &a.arg {
                mark(arg);
            }
        }
    }

    // 8. LIMIT pushdown: with no aggregate and no ORDER BY the answer is the
    //    first `n` rows the scan yields, so the scan may stop there.
    let scan_limit = stmt
        .limit
        .filter(|_| aggregate.is_none() && order_by.is_empty());

    Ok(PlannedQuery {
        scan: ScanRequest {
            attrs,
            predicate,
            materialize,
            limit: scan_limit,
        },
        pipeline: Pipeline {
            projections: pipeline_projections,
            column_names,
            aggregate,
            order_by,
            limit: stmt.limit,
            hidden_sort_columns,
        },
        estimated_selectivity,
    })
}

/// Expand `*` and attach output names.
fn expand_items(stmt: &SelectStmt, schema: &Schema) -> EngineResult<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (_, col) in schema.iter() {
                    out.push((Expr::Column(col.name.clone()), col.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| display_expr(expr));
                out.push((expr.clone(), name));
            }
        }
    }
    if out.is_empty() {
        return Err(EngineError::Planning("empty SELECT list".into()));
    }
    Ok(out)
}

/// Lower an aggregate query.
fn plan_aggregate(
    stmt: &SelectStmt,
    items: &[(Expr, String)],
    resolve: &impl Fn(&str) -> Option<usize>,
) -> EngineResult<(Vec<RExpr>, Vec<String>, Option<AggSpec>)> {
    // Resolve group keys.
    let mut group_exprs = Vec::with_capacity(stmt.group_by.len());
    for g in &stmt.group_by {
        if g.contains_aggregate() {
            return Err(EngineError::Planning(
                "aggregates not allowed in GROUP BY".into(),
            ));
        }
        group_exprs.push(resolve_expr(g, resolve)?);
    }

    let mut aggs: Vec<AggCall> = Vec::new();
    let mut output = Vec::with_capacity(items.len());
    let mut names = Vec::with_capacity(items.len());

    for (expr, name) in items {
        names.push(name.clone());
        match expr {
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                if *distinct && *func != AggFunc::Count {
                    return Err(EngineError::Planning(
                        "DISTINCT is only supported with COUNT".into(),
                    ));
                }
                let arg = match arg {
                    Some(a) => {
                        if a.contains_aggregate() {
                            return Err(EngineError::Planning("nested aggregates".into()));
                        }
                        Some(resolve_expr(a, resolve)?)
                    }
                    None => None,
                };
                aggs.push(AggCall {
                    func: *func,
                    arg,
                    distinct: *distinct,
                });
                output.push(AggOutput::Agg(aggs.len() - 1));
            }
            plain => {
                if plain.contains_aggregate() {
                    return Err(EngineError::Planning(
                        "expressions over aggregates are not supported; select the aggregate directly".into(),
                    ));
                }
                let resolved = resolve_expr(plain, resolve)?;
                // Must match a group key.
                let pos = group_exprs
                    .iter()
                    .position(|g| *g == resolved)
                    .ok_or_else(|| {
                        EngineError::Planning(format!(
                            "column {name:?} must appear in GROUP BY or an aggregate"
                        ))
                    })?;
                output.push(AggOutput::Group(pos));
            }
        }
    }

    Ok((
        Vec::new(),
        names,
        Some(AggSpec {
            group_exprs,
            aggs,
            output,
        }),
    ))
}

/// Resolve ORDER BY keys to output column positions. For non-aggregate
/// queries, keys over unselected expressions are appended as hidden
/// projections (dropped again after the sort).
#[allow(clippy::too_many_arguments)]
fn resolve_order_by(
    keys: &[OrderKey],
    items: &[(Expr, String)],
    column_names: &[String],
    projections: &mut Vec<RExpr>,
    aggregate: Option<&AggSpec>,
    resolve: &impl Fn(&str) -> Option<usize>,
    hidden: &mut usize,
) -> EngineResult<Vec<(usize, bool)>> {
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        // By output name / alias first.
        if let Expr::Column(name) = &key.expr {
            if let Some(pos) = column_names.iter().position(|c| c == name) {
                out.push((pos, key.ascending));
                continue;
            }
        }
        // By structural equality with a selected expression.
        let matched = items.iter().position(|(e, _)| e == &key.expr).or_else(|| {
            // Or with a resolved projection (non-aggregate case only).
            if aggregate.is_none() {
                resolve_expr(&key.expr, resolve)
                    .ok()
                    .and_then(|r| projections.iter().position(|p| *p == r))
            } else {
                None
            }
        });
        if let Some(pos) = matched {
            out.push((pos, key.ascending));
            continue;
        }
        if aggregate.is_none() {
            // Hidden sort column: evaluate but never output.
            let resolved = resolve_expr(&key.expr, resolve)?;
            projections.push(resolved);
            *hidden += 1;
            out.push((projections.len() - 1, key.ascending));
            continue;
        }
        return Err(EngineError::Planning(
            "ORDER BY must reference a selected column or group key".into(),
        ));
    }
    Ok(out)
}

/// Render an expression for use as a default column name.
pub fn display_expr(e: &Expr) -> String {
    match e {
        Expr::Column(n) => n.clone(),
        Expr::Literal(l) => l.to_string(),
        Expr::Binary { op, left, right } => {
            format!(
                "{} {} {}",
                display_expr(left),
                op.symbol(),
                display_expr(right)
            )
        }
        Expr::Neg(e) => format!("-{}", display_expr(e)),
        Expr::Not(e) => format!("NOT {}", display_expr(e)),
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => format!(
            "{} {}BETWEEN {} AND {}",
            display_expr(expr),
            if *negated { "NOT " } else { "" },
            display_expr(lo),
            display_expr(hi)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "{} {}IN ({})",
            display_expr(expr),
            if *negated { "NOT " } else { "" },
            list.iter().map(display_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE '{}'",
            display_expr(expr),
            if *negated { "NOT " } else { "" },
            pattern
        ),
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            display_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Agg {
            func,
            arg,
            distinct,
        } => format!(
            "{}({}{})",
            func.name().to_lowercase(),
            if *distinct { "DISTINCT " } else { "" },
            arg.as_ref()
                .map(|a| display_expr(a))
                .unwrap_or_else(|| "*".into())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::{ColumnDef, ColumnType};
    use nodb_sqlparse::parse_select;
    use nodb_stats::estimate::NoStats;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
            ColumnDef::new("c", ColumnType::Str),
            ColumnDef::new("d", ColumnType::Float),
        ])
    }

    fn plan(sql: &str) -> PlannedQuery {
        plan_select(&parse_select(sql).unwrap(), &schema(), &NoStats).unwrap()
    }

    #[test]
    fn projection_pruning_collects_all_clauses() {
        let p = plan("SELECT a FROM t WHERE d > 0.5 ORDER BY a");
        assert_eq!(p.scan.attrs, vec![0, 3]);
        // d is predicate-only → not materialized; a is.
        assert_eq!(p.scan.materialize, vec![true, false]);
    }

    #[test]
    fn wildcard_expands_schema_order() {
        let p = plan("SELECT * FROM t");
        assert_eq!(p.scan.attrs, vec![0, 1, 2, 3]);
        assert_eq!(p.pipeline.column_names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn predicate_is_pushed_not_kept() {
        let p = plan("SELECT a FROM t WHERE b = 1 AND a < 5");
        assert!(p.scan.predicate.is_some());
        assert!(p.estimated_selectivity < 0.1);
    }

    #[test]
    fn aggregate_lowering() {
        let p = plan("SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a");
        let agg = p.pipeline.aggregate.unwrap();
        assert_eq!(agg.group_exprs.len(), 1);
        assert_eq!(agg.aggs.len(), 2);
        assert_eq!(
            agg.output,
            vec![AggOutput::Group(0), AggOutput::Agg(0), AggOutput::Agg(1)]
        );
    }

    #[test]
    fn global_aggregate_without_group() {
        let p = plan("SELECT COUNT(*), AVG(d) FROM t");
        let agg = p.pipeline.aggregate.unwrap();
        assert!(agg.group_exprs.is_empty());
        assert_eq!(agg.aggs.len(), 2);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let r = plan_select(
            &parse_select("SELECT a, b, COUNT(*) FROM t GROUP BY a").unwrap(),
            &schema(),
            &NoStats,
        );
        assert!(r.is_err());
    }

    #[test]
    fn order_by_alias_and_position() {
        let p = plan("SELECT a AS x, b FROM t ORDER BY x DESC, b");
        assert_eq!(p.pipeline.order_by, vec![(0, false), (1, true)]);
    }

    #[test]
    fn order_by_unselected_column_becomes_hidden() {
        let p = plan("SELECT a FROM t ORDER BY b DESC");
        assert_eq!(p.pipeline.hidden_sort_columns, 1);
        assert_eq!(p.pipeline.projections.len(), 2);
        assert_eq!(p.pipeline.column_names, vec!["a"]);
        assert_eq!(p.pipeline.order_by, vec![(1, false)]);
        // But aggregates still reject unsortable keys.
        let r = plan_select(
            &parse_select("SELECT COUNT(*) FROM t GROUP BY a ORDER BY b").unwrap(),
            &schema(),
            &NoStats,
        );
        assert!(r.is_err());
    }

    #[test]
    fn unknown_column_rejected() {
        let r = plan_select(
            &parse_select("SELECT nope FROM t").unwrap(),
            &schema(),
            &NoStats,
        );
        assert!(matches!(r, Err(EngineError::Planning(_))));
    }

    #[test]
    fn where_aggregate_rejected() {
        let r = plan_select(
            &parse_select("SELECT a FROM t WHERE COUNT(*) > 1").unwrap(),
            &schema(),
            &NoStats,
        );
        assert!(r.is_err());
    }

    #[test]
    fn explain_mentions_scan() {
        let p = plan("SELECT a FROM t WHERE b > 2 ORDER BY a LIMIT 3");
        let text = p.explain();
        assert!(text.contains("Scan"));
        assert!(text.contains("Limit 3"));
        assert!(text.contains("Sort"));
        assert!(!text.contains("limit="), "a sorted LIMIT is not pushed");
        // A bare LIMIT is pushed into the scan and shown on its line.
        let p = plan("SELECT a FROM t WHERE b > 2 LIMIT 3");
        assert_eq!(p.scan.limit, Some(3));
        assert_eq!(p.pipeline.limit, Some(3));
        let text = p.explain();
        assert!(text.contains("Limit 3"));
        let scan_line = text.lines().find(|l| l.starts_with("Scan")).unwrap();
        assert!(
            scan_line.contains(" pushed_predicate=true limit=3 est_selectivity="),
            "{scan_line}"
        );
    }

    #[test]
    fn sorted_and_aggregate_limits_are_not_pushed() {
        for sql in [
            "SELECT a FROM t ORDER BY b LIMIT 5",
            "SELECT a, b FROM t ORDER BY a DESC LIMIT 5",
            "SELECT COUNT(*) FROM t LIMIT 5",
            "SELECT a, COUNT(*) FROM t GROUP BY a LIMIT 5",
            "SELECT a FROM t",
        ] {
            let p = plan(sql);
            assert_eq!(p.scan.limit, None, "{sql}");
            assert!(!p.explain().contains("limit="), "{sql}");
        }
        assert_eq!(
            plan("SELECT COUNT(*) FROM t LIMIT 5").pipeline.limit,
            Some(5)
        );
        // LIMIT 0 is pushed too: the scan may read nothing at all.
        assert_eq!(plan("SELECT a FROM t LIMIT 0").scan.limit, Some(0));
    }

    #[test]
    fn conjunct_ordering_puts_selective_first() {
        // With NoStats, Eq (0.005) sorts before a range (1/3).
        let p = plan("SELECT a FROM t WHERE b > 2 AND a = 1");
        let pred = p.scan.predicate.unwrap();
        let mut parts = Vec::new();
        crate::sketch::split_conjuncts(&pred, &mut parts);
        assert!(matches!(
            &parts[0],
            RExpr::Binary {
                op: nodb_sqlparse::ast::BinOp::Eq,
                ..
            }
        ));
    }
}
