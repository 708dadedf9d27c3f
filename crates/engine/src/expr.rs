//! Resolved expressions and their evaluation.
//!
//! [`RExpr`] mirrors the parser's AST with column *names* replaced by column
//! *positions*. The position space is contextual: a predicate pushed into a
//! scan indexes the scan's requested-attribute list; expressions above the
//! scan index batch columns. Evaluation follows SQL three-valued logic.

use std::cmp::Ordering;

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;
use nodb_sqlparse::ast::{AggFunc, BinOp, Expr, Literal};

use crate::batch::{ColView, RowAccess, ViewRow};
use crate::error::{EngineError, EngineResult};

/// A resolved (column-index-based) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Column at a position in the contextual row.
    Col(usize),
    /// Constant.
    Const(Datum),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<RExpr>,
        /// Right operand.
        right: Box<RExpr>,
    },
    /// Numeric negation.
    Neg(Box<RExpr>),
    /// Boolean NOT (3VL).
    Not(Box<RExpr>),
    /// BETWEEN (inclusive, possibly negated).
    Between {
        /// Tested expression.
        expr: Box<RExpr>,
        /// Lower bound.
        lo: Box<RExpr>,
        /// Upper bound.
        hi: Box<RExpr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// IN list (possibly negated).
    InList {
        /// Tested expression.
        expr: Box<RExpr>,
        /// Elements.
        list: Vec<RExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// LIKE with a precompiled pattern.
    Like {
        /// Tested expression.
        expr: Box<RExpr>,
        /// Compiled matcher.
        pattern: LikePattern,
        /// NOT LIKE.
        negated: bool,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<RExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
}

impl RExpr {
    /// Column positions referenced by this expression, deduplicated.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            RExpr::Col(c) => {
                if !out.contains(c) {
                    out.push(*c);
                }
            }
            RExpr::Const(_) => {}
            RExpr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            RExpr::Neg(e) | RExpr::Not(e) => e.columns(out),
            RExpr::Between { expr, lo, hi, .. } => {
                expr.columns(out);
                lo.columns(out);
                hi.columns(out);
            }
            RExpr::InList { expr, list, .. } => {
                expr.columns(out);
                for e in list {
                    e.columns(out);
                }
            }
            RExpr::Like { expr, .. } | RExpr::IsNull { expr, .. } => expr.columns(out),
        }
    }

    /// Rewrite every column index through `f` (used to translate between
    /// index spaces, e.g. file attributes → scan positions).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> RExpr {
        match self {
            RExpr::Col(c) => RExpr::Col(f(*c)),
            RExpr::Const(d) => RExpr::Const(d.clone()),
            RExpr::Binary { op, left, right } => RExpr::Binary {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            RExpr::Neg(e) => RExpr::Neg(Box::new(e.map_columns(f))),
            RExpr::Not(e) => RExpr::Not(Box::new(e.map_columns(f))),
            RExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => RExpr::Between {
                expr: Box::new(expr.map_columns(f)),
                lo: Box::new(lo.map_columns(f)),
                hi: Box::new(hi.map_columns(f)),
                negated: *negated,
            },
            RExpr::InList {
                expr,
                list,
                negated,
            } => RExpr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            RExpr::Like {
                expr,
                pattern,
                negated,
            } => RExpr::Like {
                expr: Box::new(expr.map_columns(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            RExpr::IsNull { expr, negated } => RExpr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
        }
    }

    /// Evaluate against one row. Scalar results are datums; boolean results
    /// are `Datum::Bool` or `Datum::Null` (unknown).
    pub fn eval<R: RowAccess>(&self, row: &R) -> Datum {
        match self {
            RExpr::Col(c) => row.value(*c),
            RExpr::Const(d) => d.clone(),
            RExpr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            RExpr::Neg(e) => match e.eval(row) {
                Datum::Int(v) => Datum::Int(v.wrapping_neg()),
                Datum::Float(v) => Datum::Float(-v),
                _ => Datum::Null,
            },
            RExpr::Not(e) => match e.eval(row) {
                Datum::Bool(b) => Datum::Bool(!b),
                _ => Datum::Null,
            },
            RExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row);
                let lo = lo.eval(row);
                let hi = hi.eval(row);
                let ge_lo = compare_bool(&v, &lo, |o| o != Ordering::Less);
                let le_hi = compare_bool(&v, &hi, |o| o != Ordering::Greater);
                let within = and3(ge_lo, le_hi);
                negate3(within, *negated)
            }
            RExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row);
                if v.is_null() {
                    return Datum::Null;
                }
                let mut saw_null = false;
                for e in list {
                    let item = e.eval(row);
                    match v.sql_cmp(&item) {
                        Some(Ordering::Equal) => return negate3(Some(true), *negated),
                        None if item.is_null() => saw_null = true,
                        _ => {}
                    }
                }
                if saw_null {
                    Datum::Null
                } else {
                    negate3(Some(false), *negated)
                }
            }
            RExpr::Like {
                expr,
                pattern,
                negated,
            } => match expr.eval(row) {
                Datum::Str(s) => negate3(Some(pattern.matches(&s)), *negated),
                Datum::Null => Datum::Null,
                _ => Datum::Null,
            },
            RExpr::IsNull { expr, negated } => {
                let is_null = expr.eval(row).is_null();
                Datum::Bool(is_null != *negated)
            }
        }
    }

    /// Evaluate as a filter: `true` only when the result is `Bool(true)`
    /// (SQL WHERE discards both false and unknown).
    #[inline]
    pub fn eval_filter<R: RowAccess>(&self, row: &R) -> bool {
        matches!(self.eval(row), Datum::Bool(true))
    }

    /// Vectorized WHERE over columnar views: the ascending view-row indices
    /// in `[0, rows)` for which this predicate evaluates to `Bool(true)`.
    ///
    /// Conjunctions refine the selection vector kernel by kernel; supported
    /// shapes (comparison / BETWEEN / IN-list / LIKE / IS NULL over a column
    /// and constants, and OR-trees of them) run as typed loops over the
    /// column storage with no per-row `Datum` materialization. Any other
    /// sub-expression falls back to row-at-a-time [`Self::eval_filter`] over
    /// the *current* candidates, so the result is always exactly the
    /// row-at-a-time answer — the kernels are a fast path, never a semantic
    /// change (property-tested below and in `tests/property_based.rs`).
    pub fn filter_columnar(&self, cols: &[ColView<'_>], rows: usize) -> Vec<u32> {
        let mut sel: Option<Vec<u32>> = None;
        self.refine_columnar(cols, rows, &mut sel);
        sel.unwrap_or_else(|| (0..rows as u32).collect())
    }

    /// Narrow `sel` (None = all rows) to the rows passing this predicate.
    fn refine_columnar(&self, cols: &[ColView<'_>], rows: usize, sel: &mut Option<Vec<u32>>) {
        if let RExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } = self
        {
            left.refine_columnar(cols, rows, sel);
            right.refine_columnar(cols, rows, sel);
            return;
        }
        if !self.kernel(cols, rows, sel) {
            retain_rows(rows, sel, |i| self.eval_filter(&ViewRow { cols, row: i }));
        }
    }

    /// Try the typed kernel for this (non-AND) predicate shape. Returns
    /// `false` when no kernel applies — the caller then evaluates
    /// row-at-a-time.
    fn kernel(&self, cols: &[ColView<'_>], rows: usize, sel: &mut Option<Vec<u32>>) -> bool {
        match self {
            RExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                // AND below an OR: both sides must kernelize, else the whole
                // subtree is handed back for row-wise evaluation.
                let mut narrowed = sel.clone();
                if left.kernel(cols, rows, &mut narrowed) && right.kernel(cols, rows, &mut narrowed)
                {
                    *sel = narrowed;
                    true
                } else {
                    false
                }
            }
            RExpr::Binary {
                op: BinOp::Or,
                left,
                right,
            } => {
                let mut ls = sel.clone();
                let mut rs = sel.clone();
                if left.kernel(cols, rows, &mut ls) && right.kernel(cols, rows, &mut rs) {
                    let l = ls.unwrap_or_else(|| (0..rows as u32).collect());
                    let r = rs.unwrap_or_else(|| (0..rows as u32).collect());
                    *sel = Some(union_sorted(&l, &r));
                    true
                } else {
                    false
                }
            }
            RExpr::Binary { op, left, right } => {
                let pred = match op {
                    BinOp::Eq => |o: Ordering| o == Ordering::Equal,
                    BinOp::NotEq => |o: Ordering| o != Ordering::Equal,
                    BinOp::Lt => |o: Ordering| o == Ordering::Less,
                    BinOp::Le => |o: Ordering| o != Ordering::Greater,
                    BinOp::Gt => |o: Ordering| o == Ordering::Greater,
                    BinOp::Ge => |o: Ordering| o != Ordering::Less,
                    _ => return false, // arithmetic is not a filter shape
                };
                let (col, konst, flipped) = match (&**left, &**right) {
                    (RExpr::Col(c), RExpr::Const(k)) => (*c, k, false),
                    (RExpr::Const(k), RExpr::Col(c)) => (*c, k, true),
                    _ => return false,
                };
                let Some(tc) = typed_col(cols, col) else {
                    return false;
                };
                retain_rows(rows, sel, |i| {
                    // sql_cmp(k, v) is the exact reverse of sql_cmp(v, k)
                    // whenever either is Some, so one typed compare serves
                    // both operand orders.
                    match typed_cmp(tc.0, tc.1 + i, konst) {
                        Some(o) => pred(if flipped { o.reverse() } else { o }),
                        None => false,
                    }
                });
                true
            }
            RExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let (RExpr::Col(c), RExpr::Const(lo), RExpr::Const(hi)) = (&**expr, &**lo, &**hi)
                else {
                    return false;
                };
                let Some(tc) = typed_col(cols, *c) else {
                    return false;
                };
                let negated = *negated;
                retain_rows(rows, sel, |i| {
                    let p = tc.1 + i;
                    let ge_lo = typed_cmp(tc.0, p, lo).map(|o| o != Ordering::Less);
                    let le_hi = typed_cmp(tc.0, p, hi).map(|o| o != Ordering::Greater);
                    match and3(ge_lo, le_hi) {
                        Some(b) => b != negated,
                        None => false,
                    }
                });
                true
            }
            RExpr::InList {
                expr,
                list,
                negated,
            } => {
                let RExpr::Col(c) = &**expr else {
                    return false;
                };
                let items: Option<Vec<&Datum>> = list
                    .iter()
                    .map(|e| match e {
                        RExpr::Const(d) => Some(d),
                        _ => None,
                    })
                    .collect();
                let Some(items) = items else { return false };
                let Some(tc) = typed_col(cols, *c) else {
                    return false;
                };
                let negated = *negated;
                retain_rows(rows, sel, |i| {
                    let p = tc.1 + i;
                    if tc.0.nulls().is_null(p) {
                        return false;
                    }
                    let mut saw_null = false;
                    for item in &items {
                        match typed_cmp(tc.0, p, item) {
                            Some(Ordering::Equal) => return !negated,
                            None if item.is_null() => saw_null = true,
                            _ => {}
                        }
                    }
                    !saw_null && negated
                });
                true
            }
            RExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let RExpr::Col(c) = &**expr else {
                    return false;
                };
                let Some((col, base)) = typed_col(cols, *c) else {
                    return false;
                };
                let negated = *negated;
                match col {
                    TypedColumn::Str { values, nulls, .. } => {
                        retain_rows(rows, sel, |i| {
                            let p = base + i;
                            !nulls.is_null(p) && pattern.matches(&values[p]) != negated
                        });
                    }
                    // Non-string typed column: LIKE over a non-string value
                    // is UNKNOWN, so nothing passes.
                    _ => retain_rows(rows, sel, |_| false),
                }
                true
            }
            RExpr::IsNull { expr, negated } => {
                let RExpr::Col(c) = &**expr else {
                    return false;
                };
                let Some((col, base)) = typed_col(cols, *c) else {
                    return false;
                };
                let negated = *negated;
                retain_rows(rows, sel, |i| col.nulls().is_null(base + i) != negated);
                true
            }
            _ => false,
        }
    }
}

/// The typed column behind view position `c` and its first backing row.
#[inline]
fn typed_col<'a>(cols: &'a [ColView<'a>], c: usize) -> Option<(&'a TypedColumn, usize)> {
    cols.get(c).map(|v| (v.col, v.base))
}

/// [`Datum::sql_cmp`] of the typed value at `p` against a constant, without
/// materializing the datum: `None` for NULL on either side or a type
/// mismatch, numerics compare across Int/Float.
#[inline]
fn typed_cmp(col: &TypedColumn, p: usize, rhs: &Datum) -> Option<Ordering> {
    if col.nulls().is_null(p) {
        return None;
    }
    match (col, rhs) {
        (TypedColumn::Int { values, .. }, Datum::Int(b)) => Some(values[p].cmp(b)),
        (TypedColumn::Int { values, .. }, Datum::Float(b)) => (values[p] as f64).partial_cmp(b),
        (TypedColumn::Float { values, .. }, Datum::Float(b)) => values[p].partial_cmp(b),
        (TypedColumn::Float { values, .. }, Datum::Int(b)) => values[p].partial_cmp(&(*b as f64)),
        (TypedColumn::Str { values, .. }, Datum::Str(b)) => Some(values[p].as_ref().cmp(&**b)),
        (TypedColumn::Bool { values, .. }, Datum::Bool(b)) => Some(values[p].cmp(b)),
        _ => None,
    }
}

/// Narrow a selection in place: `None` means "all `rows` rows" and becomes
/// the passing subset; `Some` retains only passing candidates.
fn retain_rows(rows: usize, sel: &mut Option<Vec<u32>>, mut keep: impl FnMut(usize) -> bool) {
    match sel {
        Some(s) => s.retain(|&i| keep(i as usize)),
        None => {
            let mut out = Vec::with_capacity(rows);
            for i in 0..rows {
                if keep(i) {
                    out.push(i as u32);
                }
            }
            *sel = Some(out);
        }
    }
}

/// Union of two ascending index lists, ascending and deduplicated.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(next);
    }
    out
}

fn eval_binary<R: RowAccess>(op: BinOp, left: &RExpr, right: &RExpr, row: &R) -> Datum {
    match op {
        BinOp::And => {
            // Short-circuit on definite false.
            let l = left.eval(row);
            if matches!(l, Datum::Bool(false)) {
                return Datum::Bool(false);
            }
            let r = right.eval(row);
            match (as_bool3(&l), as_bool3(&r)) {
                (Some(a), Some(b)) => Datum::Bool(a && b),
                (Some(false), _) | (_, Some(false)) => Datum::Bool(false),
                _ => Datum::Null,
            }
        }
        BinOp::Or => {
            let l = left.eval(row);
            if matches!(l, Datum::Bool(true)) {
                return Datum::Bool(true);
            }
            let r = right.eval(row);
            match (as_bool3(&l), as_bool3(&r)) {
                (Some(a), Some(b)) => Datum::Bool(a || b),
                (Some(true), _) | (_, Some(true)) => Datum::Bool(true),
                _ => Datum::Null,
            }
        }
        BinOp::Eq => cmp_to_bool(left, right, row, |o| o == Ordering::Equal),
        BinOp::NotEq => cmp_to_bool(left, right, row, |o| o != Ordering::Equal),
        BinOp::Lt => cmp_to_bool(left, right, row, |o| o == Ordering::Less),
        BinOp::Le => cmp_to_bool(left, right, row, |o| o != Ordering::Greater),
        BinOp::Gt => cmp_to_bool(left, right, row, |o| o == Ordering::Greater),
        BinOp::Ge => cmp_to_bool(left, right, row, |o| o != Ordering::Less),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            arith(op, &left.eval(row), &right.eval(row))
        }
    }
}

fn cmp_to_bool<R: RowAccess>(
    left: &RExpr,
    right: &RExpr,
    row: &R,
    pred: impl Fn(Ordering) -> bool,
) -> Datum {
    let l = left.eval(row);
    let r = right.eval(row);
    match l.sql_cmp(&r) {
        Some(o) => Datum::Bool(pred(o)),
        None => Datum::Null,
    }
}

fn compare_bool(a: &Datum, b: &Datum, pred: impl Fn(Ordering) -> bool) -> Option<bool> {
    a.sql_cmp(b).map(pred)
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn negate3(v: Option<bool>, negated: bool) -> Datum {
    match v {
        Some(b) => Datum::Bool(b != negated),
        None => Datum::Null,
    }
}

fn as_bool3(d: &Datum) -> Option<bool> {
    match d {
        Datum::Bool(b) => Some(*b),
        _ => None,
    }
}

/// SQL arithmetic: Int⊕Int stays Int (wrapping; division truncates, by-zero
/// yields NULL), any Float operand promotes to Float, NULL propagates.
fn arith(op: BinOp, l: &Datum, r: &Datum) -> Datum {
    match (l, r) {
        (Datum::Int(a), Datum::Int(b)) => {
            let (a, b) = (*a, *b);
            match op {
                BinOp::Add => Datum::Int(a.wrapping_add(b)),
                BinOp::Sub => Datum::Int(a.wrapping_sub(b)),
                BinOp::Mul => Datum::Int(a.wrapping_mul(b)),
                BinOp::Div => {
                    if b == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(a.wrapping_div(b))
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(a.wrapping_rem(b))
                    }
                }
                _ => Datum::Null,
            }
        }
        _ => match (l.as_float(), r.as_float()) {
            (Some(a), Some(b)) => {
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Datum::Null;
                        }
                        a / b
                    }
                    BinOp::Mod => {
                        if b == 0.0 {
                            return Datum::Null;
                        }
                        a % b
                    }
                    _ => return Datum::Null,
                };
                Datum::Float(v)
            }
            _ => Datum::Null,
        },
    }
}

/// Precompiled LIKE pattern with `%` (any run) and `_` (any one char).
#[derive(Debug, Clone, PartialEq)]
pub struct LikePattern {
    tokens: Vec<LikeToken>,
    /// Fast path: pattern is `prefix%` with no other wildcards.
    prefix_only: Option<String>,
    source: String,
}

#[derive(Debug, Clone, PartialEq)]
enum LikeToken {
    Literal(String),
    AnyRun,
    AnyOne,
}

impl LikePattern {
    /// Compile a LIKE pattern.
    pub fn compile(pattern: &str) -> Self {
        let mut tokens = Vec::new();
        let mut lit = String::new();
        for ch in pattern.chars() {
            match ch {
                '%' => {
                    if !lit.is_empty() {
                        tokens.push(LikeToken::Literal(std::mem::take(&mut lit)));
                    }
                    if tokens.last() != Some(&LikeToken::AnyRun) {
                        tokens.push(LikeToken::AnyRun);
                    }
                }
                '_' => {
                    if !lit.is_empty() {
                        tokens.push(LikeToken::Literal(std::mem::take(&mut lit)));
                    }
                    tokens.push(LikeToken::AnyOne);
                }
                c => lit.push(c),
            }
        }
        if !lit.is_empty() {
            tokens.push(LikeToken::Literal(lit));
        }
        let prefix_only = match tokens.as_slice() {
            [LikeToken::Literal(p), LikeToken::AnyRun] => Some(p.clone()),
            _ => None,
        };
        LikePattern {
            tokens,
            prefix_only,
            source: pattern.to_string(),
        }
    }

    /// Pattern text as written.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Prefix when the pattern is a pure `prefix%` (selectivity estimation).
    pub fn as_prefix(&self) -> Option<&str> {
        self.prefix_only.as_deref()
    }

    /// Match `s` against the pattern.
    pub fn matches(&self, s: &str) -> bool {
        if let Some(p) = &self.prefix_only {
            return s.starts_with(p.as_str());
        }
        match_tokens(&self.tokens, s)
    }
}

fn match_tokens(tokens: &[LikeToken], s: &str) -> bool {
    match tokens.first() {
        None => s.is_empty(),
        Some(LikeToken::Literal(lit)) => s
            .strip_prefix(lit.as_str())
            .is_some_and(|rest| match_tokens(&tokens[1..], rest)),
        Some(LikeToken::AnyOne) => {
            let mut chars = s.chars();
            match chars.next() {
                Some(_) => match_tokens(&tokens[1..], chars.as_str()),
                None => false,
            }
        }
        Some(LikeToken::AnyRun) => {
            if tokens.len() == 1 {
                return true;
            }
            // Try every suffix (including the empty one).
            let mut rest = s;
            loop {
                if match_tokens(&tokens[1..], rest) {
                    return true;
                }
                let mut chars = rest.chars();
                if chars.next().is_none() {
                    return false;
                }
                rest = chars.as_str();
            }
        }
    }
}

/// Resolve an AST expression against a name → position lookup.
///
/// `resolve` returns the column position for a name, or `None` for unknown
/// names (reported as planning errors). Aggregates are rejected here — the
/// planner lowers them before resolution.
pub fn resolve_expr(expr: &Expr, resolve: &impl Fn(&str) -> Option<usize>) -> EngineResult<RExpr> {
    Ok(match expr {
        Expr::Column(name) => RExpr::Col(
            resolve(name)
                .ok_or_else(|| EngineError::Planning(format!("unknown column {name:?}")))?,
        ),
        Expr::Literal(l) => RExpr::Const(literal_to_datum(l)),
        Expr::Binary { op, left, right } => RExpr::Binary {
            op: *op,
            left: Box::new(resolve_expr(left, resolve)?),
            right: Box::new(resolve_expr(right, resolve)?),
        },
        Expr::Neg(e) => RExpr::Neg(Box::new(resolve_expr(e, resolve)?)),
        Expr::Not(e) => RExpr::Not(Box::new(resolve_expr(e, resolve)?)),
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => RExpr::Between {
            expr: Box::new(resolve_expr(expr, resolve)?),
            lo: Box::new(resolve_expr(lo, resolve)?),
            hi: Box::new(resolve_expr(hi, resolve)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => RExpr::InList {
            expr: Box::new(resolve_expr(expr, resolve)?),
            list: list
                .iter()
                .map(|e| resolve_expr(e, resolve))
                .collect::<EngineResult<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => RExpr::Like {
            expr: Box::new(resolve_expr(expr, resolve)?),
            pattern: LikePattern::compile(pattern),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => RExpr::IsNull {
            expr: Box::new(resolve_expr(expr, resolve)?),
            negated: *negated,
        },
        Expr::Agg { func, .. } => {
            return Err(EngineError::Planning(format!(
                "aggregate {} not allowed in this context",
                agg_name(*func)
            )))
        }
    })
}

fn agg_name(f: AggFunc) -> &'static str {
    f.name()
}

/// Convert an AST literal to a datum.
pub fn literal_to_datum(l: &Literal) -> Datum {
    match l {
        Literal::Int(v) => Datum::Int(*v),
        Literal::Float(v) => Datum::Float(*v),
        Literal::Str(s) => Datum::Str(s.clone().into_boxed_str()),
        Literal::Bool(b) => Datum::Bool(*b),
        Literal::Null => Datum::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SliceRow;

    fn row(vals: &[Datum]) -> Vec<Datum> {
        vals.to_vec()
    }

    fn eval(e: &RExpr, vals: &[Datum]) -> Datum {
        e.eval(&SliceRow(vals))
    }

    #[test]
    fn comparisons_and_3vl() {
        let e = RExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(RExpr::Col(0)),
            right: Box::new(RExpr::Const(Datum::Int(5))),
        };
        assert_eq!(eval(&e, &row(&[Datum::Int(7)])), Datum::Bool(true));
        assert_eq!(eval(&e, &row(&[Datum::Int(3)])), Datum::Bool(false));
        assert_eq!(eval(&e, &row(&[Datum::Null])), Datum::Null);
    }

    #[test]
    fn and_or_short_circuit_with_null() {
        let null_gt = RExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(RExpr::Const(Datum::Null)),
            right: Box::new(RExpr::Const(Datum::Int(0))),
        };
        let t = RExpr::Const(Datum::Bool(true));
        let f = RExpr::Const(Datum::Bool(false));
        let and_nf = RExpr::Binary {
            op: BinOp::And,
            left: Box::new(null_gt.clone()),
            right: Box::new(f),
        };
        assert_eq!(
            eval(&and_nf, &[]),
            Datum::Bool(false),
            "NULL AND FALSE = FALSE"
        );
        let or_nt = RExpr::Binary {
            op: BinOp::Or,
            left: Box::new(null_gt.clone()),
            right: Box::new(t),
        };
        assert_eq!(eval(&or_nt, &[]), Datum::Bool(true), "NULL OR TRUE = TRUE");
        let not_n = RExpr::Not(Box::new(null_gt));
        assert_eq!(eval(&not_n, &[]), Datum::Null, "NOT NULL = NULL");
    }

    #[test]
    fn between_inclusive() {
        let e = RExpr::Between {
            expr: Box::new(RExpr::Col(0)),
            lo: Box::new(RExpr::Const(Datum::Int(1))),
            hi: Box::new(RExpr::Const(Datum::Int(3))),
            negated: false,
        };
        assert_eq!(eval(&e, &row(&[Datum::Int(1)])), Datum::Bool(true));
        assert_eq!(eval(&e, &row(&[Datum::Int(3)])), Datum::Bool(true));
        assert_eq!(eval(&e, &row(&[Datum::Int(4)])), Datum::Bool(false));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = RExpr::InList {
            expr: Box::new(RExpr::Col(0)),
            list: vec![RExpr::Const(Datum::Int(1)), RExpr::Const(Datum::Null)],
            negated: false,
        };
        assert_eq!(eval(&e, &row(&[Datum::Int(1)])), Datum::Bool(true));
        // 2 IN (1, NULL) is UNKNOWN, not FALSE.
        assert_eq!(eval(&e, &row(&[Datum::Int(2)])), Datum::Null);
    }

    #[test]
    fn arithmetic_int_float_rules() {
        let add = |l: Datum, r: Datum| arith(BinOp::Add, &l, &r);
        assert_eq!(add(Datum::Int(2), Datum::Int(3)), Datum::Int(5));
        assert_eq!(add(Datum::Int(2), Datum::Float(0.5)), Datum::Float(2.5));
        assert_eq!(
            arith(BinOp::Div, &Datum::Int(7), &Datum::Int(2)),
            Datum::Int(3)
        );
        assert_eq!(
            arith(BinOp::Div, &Datum::Int(7), &Datum::Int(0)),
            Datum::Null
        );
        assert_eq!(
            arith(BinOp::Mod, &Datum::Int(7), &Datum::Int(4)),
            Datum::Int(3)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(LikePattern::compile("ab%").matches("abcdef"));
        assert!(!LikePattern::compile("ab%").matches("axb"));
        assert!(LikePattern::compile("%cd%").matches("abcdef"));
        assert!(LikePattern::compile("a_c").matches("abc"));
        assert!(!LikePattern::compile("a_c").matches("abbc"));
        assert!(LikePattern::compile("%").matches(""));
        assert!(LikePattern::compile("a%c%e").matches("abcde"));
        assert!(!LikePattern::compile("a%c%e").matches("abde"));
        assert_eq!(LikePattern::compile("pre%").as_prefix(), Some("pre"));
        assert_eq!(LikePattern::compile("p%e").as_prefix(), None);
    }

    #[test]
    fn eval_filter_discards_unknown() {
        let e = RExpr::Const(Datum::Null);
        assert!(!e.eval_filter(&SliceRow(&[])));
        let t = RExpr::Const(Datum::Bool(true));
        assert!(t.eval_filter(&SliceRow(&[])));
    }

    #[test]
    fn resolve_maps_names() {
        use nodb_sqlparse::parse_select;
        let stmt = parse_select("SELECT a FROM t WHERE a + b > 2").unwrap();
        let filter = stmt.filter.unwrap();
        let r = resolve_expr(&filter, &|n| match n {
            "a" => Some(0),
            "b" => Some(1),
            _ => None,
        })
        .unwrap();
        let mut cols = Vec::new();
        r.columns(&mut cols);
        assert_eq!(cols, vec![0, 1]);
        assert!(resolve_expr(&filter, &|_| None).is_err());
    }

    #[test]
    fn columnar_filter_matches_rowwise_eval() {
        use nodb_rawcsv::ColumnType;
        // Deterministic mini-fuzz: typed int/float/str columns with nulls,
        // predicates over every kernel shape (+ unsupported ones forcing the
        // fallback), compared row for row against eval_filter.
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..80 {
            let rows = (next() % 60) as usize;
            let mut ints = TypedColumn::new(ColumnType::Int);
            let mut floats = TypedColumn::new(ColumnType::Float);
            let mut strs = TypedColumn::new(ColumnType::Str);
            for _ in 0..rows {
                match next() % 5 {
                    0 => ints.push(&Datum::Null),
                    _ => ints.push(&Datum::Int((next() % 20) as i64 - 10)),
                }
                match next() % 6 {
                    0 => floats.push(&Datum::Null),
                    _ => floats.push(&Datum::Float((next() % 40) as f64 / 4.0 - 5.0)),
                }
                match next() % 5 {
                    0 => strs.push(&Datum::Null),
                    _ => strs.push(&Datum::Str(format!("s{}", next() % 8).into_boxed_str())),
                }
            }
            let views = [&ints, &floats, &strs].map(|col| ColView { col, base: 0 });
            let cmp = |op: BinOp, c: usize, k: Datum| RExpr::Binary {
                op,
                left: Box::new(RExpr::Col(c)),
                right: Box::new(RExpr::Const(k)),
            };
            let k = (next() % 20) as i64 - 10;
            let preds = [
                cmp(BinOp::Lt, 0, Datum::Int(k)),
                cmp(BinOp::Ge, 0, Datum::Float(k as f64 + 0.5)),
                cmp(BinOp::Eq, 1, Datum::Int(k)),
                cmp(BinOp::NotEq, 0, Datum::Int(k)),
                cmp(BinOp::Eq, 0, Datum::Str("oops".into())), // type mismatch
                cmp(BinOp::Eq, 2, Datum::from("s3")),
                // Constant on the left flips the comparison.
                RExpr::Binary {
                    op: BinOp::Gt,
                    left: Box::new(RExpr::Const(Datum::Int(k))),
                    right: Box::new(RExpr::Col(0)),
                },
                RExpr::Between {
                    expr: Box::new(RExpr::Col(0)),
                    lo: Box::new(RExpr::Const(Datum::Int(-3))),
                    hi: Box::new(RExpr::Const(Datum::Int(5))),
                    negated: case % 2 == 0,
                },
                RExpr::InList {
                    expr: Box::new(RExpr::Col(0)),
                    list: vec![
                        RExpr::Const(Datum::Int(1)),
                        RExpr::Const(Datum::Null),
                        RExpr::Const(Datum::Int(k)),
                    ],
                    negated: case % 2 == 1,
                },
                RExpr::Like {
                    expr: Box::new(RExpr::Col(2)),
                    pattern: LikePattern::compile("s%"),
                    negated: case % 2 == 0,
                },
                RExpr::Like {
                    expr: Box::new(RExpr::Col(0)),
                    pattern: LikePattern::compile("s%"),
                    negated: false,
                },
                RExpr::IsNull {
                    expr: Box::new(RExpr::Col(1)),
                    negated: case % 2 == 1,
                },
                // AND chain (refinement), OR of kernels (union), and an
                // arithmetic comparison that has no kernel (fallback).
                RExpr::Binary {
                    op: BinOp::And,
                    left: Box::new(cmp(BinOp::Ge, 0, Datum::Int(-5))),
                    right: Box::new(cmp(BinOp::Le, 1, Datum::Float(2.5))),
                },
                RExpr::Binary {
                    op: BinOp::Or,
                    left: Box::new(cmp(BinOp::Lt, 0, Datum::Int(-7))),
                    right: Box::new(cmp(BinOp::Gt, 1, Datum::Float(3.0))),
                },
                RExpr::Binary {
                    op: BinOp::Or,
                    left: Box::new(RExpr::Binary {
                        op: BinOp::And,
                        left: Box::new(cmp(BinOp::Gt, 0, Datum::Int(0))),
                        right: Box::new(cmp(BinOp::Lt, 0, Datum::Int(4))),
                    }),
                    right: Box::new(RExpr::IsNull {
                        expr: Box::new(RExpr::Col(0)),
                        negated: false,
                    }),
                },
                RExpr::Binary {
                    op: BinOp::Gt,
                    left: Box::new(RExpr::Binary {
                        op: BinOp::Add,
                        left: Box::new(RExpr::Col(0)),
                        right: Box::new(RExpr::Col(1)),
                    }),
                    right: Box::new(RExpr::Const(Datum::Int(0))),
                },
            ];
            for (pi, pred) in preds.iter().enumerate() {
                let fast = pred.filter_columnar(&views, rows);
                let slow: Vec<u32> = (0..rows)
                    .filter(|&i| {
                        pred.eval_filter(&ViewRow {
                            cols: &views,
                            row: i,
                        })
                    })
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(fast, slow, "case {case} pred {pi}");
            }
        }
    }

    #[test]
    fn map_columns_translates_space() {
        let e = RExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(RExpr::Col(10)),
            right: Box::new(RExpr::Col(20)),
        };
        let m = e.map_columns(&|c| c / 10 - 1);
        let mut cols = Vec::new();
        m.columns(&mut cols);
        assert_eq!(cols, vec![0, 1]);
    }
}
