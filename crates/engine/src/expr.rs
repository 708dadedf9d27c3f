//! Resolved expressions and their evaluation.
//!
//! [`RExpr`] mirrors the parser's AST with column *names* replaced by column
//! *positions*. The position space is contextual: a predicate pushed into a
//! scan indexes the scan's requested-attribute list; expressions above the
//! scan index batch columns. Evaluation follows SQL three-valued logic.

use std::cmp::Ordering;

use nodb_rawcache::column::NullMask;
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
    /// Conjunctions refine the selection vector kernel by kernel. Supported
    /// shapes (comparison / BETWEEN / IN-list / LIKE / IS NULL over a column
    /// and constants, and OR-trees of them) run as typed loops over the
    /// column storage with no per-row `Datum`:
    ///
    /// * **Match once.** Each kernel matches the column's type against its
    ///   constants' types once per call and then runs one monomorphized
    ///   loop. A comparison turns its operator into a mask of accepted
    ///   orderings ({Less, Equal, Greater}; `<>` is Less|Greater, a
    ///   constant on the left swaps Less and Greater) and runs the loop
    ///   instantiated for that mask, whose per-row test is the operator
    ///   itself (`<>` as "less or greater"). Int against Float compares as
    ///   `f64`, as [`Datum::sql_cmp`] does; a NaN, a NULL constant or a type
    ///   mismatch gives no ordering, so the row fails.
    /// * **Select without a branch.** Every kernel ends in one select step
    ///   that writes the candidate index unconditionally and advances the
    ///   output length by `keep as usize`. With no selection yet it fills
    ///   from `0..rows`; refining an AND compacts the selection in place.
    /// * **NULL words.** When the window holds a NULL, `keep` is ANDed with
    ///   the row's validity bit, read from the bitmap word; a window
    ///   without one tests no bit. IS NULL reads the words alone.
    ///
    /// Any other sub-expression (and BETWEEN with bounds of two types)
    /// falls back to row-at-a-time [`Self::eval_filter`] over the *current*
    /// candidates, so the result is always exactly the row-at-a-time answer
    /// — the kernels are a fast path, never a semantic change
    /// (property-tested below and in `tests/property_based.rs`).
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
            select(rows, sel, |i| self.eval_filter(&ViewRow { cols, row: i }));
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
                let Some(mask) = op_mask(*op) else {
                    return false; // arithmetic is not a filter shape
                };
                let (c, k, mask) = match (&**left, &**right) {
                    (RExpr::Col(c), RExpr::Const(k)) => (*c, k, mask),
                    (RExpr::Const(k), RExpr::Col(c)) => (*c, k, swap_mask(mask)),
                    _ => return false,
                };
                let Some(view) = cols.get(c) else {
                    return false;
                };
                match mask {
                    LT => compare::<LT>(view, k, rows, sel),
                    LE => compare::<LE>(view, k, rows, sel),
                    EQ => compare::<EQ>(view, k, rows, sel),
                    NE => compare::<NE>(view, k, rows, sel),
                    GE => compare::<GE>(view, k, rows, sel),
                    _ => compare::<GT>(view, k, rows, sel),
                }
                true
            }
            RExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let (Some(view), RExpr::Const(lo), RExpr::Const(hi)) =
                    (view_of(cols, expr), &**lo, &**hi)
                else {
                    return false;
                };
                match negated {
                    false => between::<false>(view, lo, hi, rows, sel),
                    true => between::<true>(view, lo, hi, rows, sel),
                }
            }
            RExpr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Option<Vec<&Datum>> = list
                    .iter()
                    .map(|e| match e {
                        RExpr::Const(d) => Some(d),
                        _ => None,
                    })
                    .collect();
                let (Some(view), Some(items)) = (view_of(cols, expr), items) else {
                    return false;
                };
                in_list(view, &items, *negated, rows, sel);
                true
            }
            RExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let Some(view) = view_of(cols, expr) else {
                    return false;
                };
                like(view, pattern, *negated, rows, sel);
                true
            }
            RExpr::IsNull { expr, negated } => {
                let Some(view) = view_of(cols, expr) else {
                    return false;
                };
                is_null(view, *negated, rows, sel);
                true
            }
            _ => false,
        }
    }
}

/// The view behind a bare column operand.
fn view_of<'c, 'v>(cols: &'c [ColView<'v>], e: &RExpr) -> Option<&'c ColView<'v>> {
    match e {
        RExpr::Col(c) => cols.get(*c),
        _ => None,
    }
}

/// Ordering bits: a comparison operator is the mask of the orderings it
/// accepts, and its kernel is instantiated once per mask.
const LT: u8 = 1;
const EQ: u8 = 2;
const GT: u8 = 4;
const LE: u8 = LT | EQ;
const GE: u8 = EQ | GT;
const NE: u8 = LT | GT;

/// The orderings a comparison operator accepts; `None` for arithmetic and
/// the boolean connectives.
fn op_mask(op: BinOp) -> Option<u8> {
    Some(match op {
        BinOp::Eq => EQ,
        BinOp::NotEq => NE,
        BinOp::Lt => LT,
        BinOp::Le => LE,
        BinOp::Gt => GT,
        BinOp::Ge => GE,
        _ => return None,
    })
}

/// The mask of the same comparison with its operands swapped: `k < c` is
/// `c > k`.
fn swap_mask(mask: u8) -> u8 {
    (mask & EQ) | (mask & LT) << 2 | (mask & GT) >> 2
}

/// Whether `v` stands in one of the orderings `OP` accepts against `k`:
/// the operator itself, with `partial_cmp`'s semantics. Two values that are
/// unordered (a NaN) stand in none, so every operator, `<>` included,
/// rejects them; `-0.0` equals `0.0`.
#[inline(always)]
fn accepts<const OP: u8, T: PartialOrd + ?Sized>(v: &T, k: &T) -> bool {
    match OP {
        LT => v < k,
        LE => v <= k,
        EQ => v == k,
        GE => v >= k,
        GT => v > k,
        _ => matches!(v.partial_cmp(k), Some(Ordering::Less | Ordering::Greater)),
    }
}

/// `column <OP> k`, `OP` the mask of the orderings the operator accepts.
fn compare<const OP: u8>(view: &ColView<'_>, k: &Datum, rows: usize, sel: &mut Option<Vec<u32>>) {
    let base = view.base;
    match (view.col, k) {
        (TypedColumn::Int { values, nulls }, Datum::Int(k)) => {
            select_values(values, nulls, base, rows, sel, |v| accepts::<OP, _>(v, k));
        }
        (TypedColumn::Int { values, nulls }, Datum::Float(k)) => {
            select_values(values, nulls, base, rows, sel, |&v| {
                accepts::<OP, _>(&(v as f64), k)
            });
        }
        // A Float value orders against any numeric constant as `f64`.
        (TypedColumn::Float { values, nulls }, k) => match k.as_float() {
            Some(k) => select_values(values, nulls, base, rows, sel, |v| accepts::<OP, _>(v, &k)),
            None => select_nothing(sel),
        },
        (TypedColumn::Str { values, nulls, .. }, Datum::Str(k)) => {
            select_values(values, nulls, base, rows, sel, |v| accepts::<OP, str>(v, k));
        }
        (TypedColumn::Bool { values, nulls }, Datum::Bool(k)) => {
            select_values(values, nulls, base, rows, sel, |v| accepts::<OP, _>(v, k));
        }
        // A NULL constant or a type mismatch orders no row.
        _ => select_nothing(sel),
    }
}

/// `column [NOT] BETWEEN lo AND hi` in one pass: BETWEEN needs `v >= lo`
/// and `v <= hi`, NOT BETWEEN (`NEGATED`) needs `v < lo` or `v > hi`; an
/// unordered bound fails its side, as in [`RExpr::eval`]'s 3VL. Returns
/// `false` for bounds the column orders in two different ways (an Int
/// column between an Int and a Float, or a NULL or mistyped bound).
fn between<const NEGATED: bool>(
    view: &ColView<'_>,
    lo: &Datum,
    hi: &Datum,
    rows: usize,
    sel: &mut Option<Vec<u32>>,
) -> bool {
    #[inline(always)]
    fn within<const NEGATED: bool, T: PartialOrd + ?Sized>(v: &T, lo: &T, hi: &T) -> bool {
        if NEGATED {
            accepts::<LT, T>(v, lo) | accepts::<GT, T>(v, hi)
        } else {
            accepts::<GE, T>(v, lo) & accepts::<LE, T>(v, hi)
        }
    }
    let base = view.base;
    match (view.col, lo, hi) {
        (TypedColumn::Int { values, nulls }, Datum::Int(lo), Datum::Int(hi)) => {
            select_values(values, nulls, base, rows, sel, |v| {
                within::<NEGATED, _>(v, lo, hi)
            });
        }
        (TypedColumn::Int { values, nulls }, Datum::Float(lo), Datum::Float(hi)) => {
            select_values(values, nulls, base, rows, sel, |&v| {
                within::<NEGATED, _>(&(v as f64), lo, hi)
            });
        }
        (TypedColumn::Float { values, nulls }, lo, hi) => {
            let (Some(lo), Some(hi)) = (lo.as_float(), hi.as_float()) else {
                return false;
            };
            select_values(values, nulls, base, rows, sel, |v| {
                within::<NEGATED, _>(v, &lo, &hi)
            });
        }
        (TypedColumn::Str { values, nulls, .. }, Datum::Str(lo), Datum::Str(hi)) => {
            select_values(values, nulls, base, rows, sel, |v| {
                within::<NEGATED, str>(v, lo, hi)
            });
        }
        (TypedColumn::Bool { values, nulls }, Datum::Bool(lo), Datum::Bool(hi)) => {
            select_values(values, nulls, base, rows, sel, |v| {
                within::<NEGATED, _>(v, lo, hi)
            });
        }
        _ => return false,
    }
    true
}

/// `column [NOT] IN (items)`. The items are converted to the column's type
/// once; an item of another type equals no row. A NULL item makes every
/// miss UNKNOWN, so NOT IN then passes nothing.
fn in_list(
    view: &ColView<'_>,
    items: &[&Datum],
    negated: bool,
    rows: usize,
    sel: &mut Option<Vec<u32>>,
) {
    if negated && items.iter().any(|d| d.is_null()) {
        return select_nothing(sel);
    }
    let base = view.base;
    match view.col {
        TypedColumn::Int { values, nulls } => {
            // An Int value equals a Float item as `f64`, as in `sql_cmp`.
            let ints: Vec<i64> = items.iter().filter_map(|d| d.as_int()).collect();
            let floats: Vec<f64> = items
                .iter()
                .filter_map(|d| match d {
                    Datum::Float(f) => Some(*f),
                    _ => None,
                })
                .collect();
            select_values(values, nulls, base, rows, sel, |&v| {
                let f = v as f64;
                (ints.contains(&v) | floats.contains(&f)) != negated
            });
        }
        TypedColumn::Float { values, nulls } => {
            let ks: Vec<f64> = items.iter().filter_map(|d| d.as_float()).collect();
            select_values(values, nulls, base, rows, sel, |&v| {
                ks.contains(&v) != negated
            });
        }
        TypedColumn::Str { values, nulls, .. } => {
            let ks: Vec<&str> = items.iter().filter_map(|d| d.as_str()).collect();
            select_values(values, nulls, base, rows, sel, |v| {
                ks.contains(&&**v) != negated
            });
        }
        TypedColumn::Bool { values, nulls } => {
            let ks: Vec<bool> = items.iter().filter_map(|d| d.as_bool()).collect();
            select_values(values, nulls, base, rows, sel, |v| {
                ks.contains(v) != negated
            });
        }
    }
}

/// `column [NOT] LIKE pattern`: the per-row matcher, selected without a
/// branch. LIKE over a non-string value is UNKNOWN, so nothing passes.
fn like(
    view: &ColView<'_>,
    pattern: &LikePattern,
    negated: bool,
    rows: usize,
    sel: &mut Option<Vec<u32>>,
) {
    match view.col {
        TypedColumn::Str { values, nulls, .. } => {
            select_values(values, nulls, view.base, rows, sel, |v| {
                pattern.matches(v) != negated
            });
        }
        _ => select_nothing(sel),
    }
}

/// `column IS [NOT] NULL`, from the bitmap words alone.
fn is_null(view: &ColView<'_>, negated: bool, rows: usize, sel: &mut Option<Vec<u32>>) {
    let (nulls, base) = (view.col.nulls(), view.base);
    if nulls.count_nulls(base, base + rows) == 0 {
        // No NULL in the window: IS NOT NULL keeps every candidate, IS
        // NULL none.
        if !negated {
            select_nothing(sel);
        }
    } else {
        let words = nulls.words();
        select(rows, sel, |i| null_bit(words, base + i) != negated);
    }
}

/// Whether backing row `p` is NULL, from its bitmap word.
#[inline(always)]
pub(crate) fn null_bit(words: &[u64], p: usize) -> bool {
    words[p / 64] >> (p % 64) & 1 == 1
}

/// Run `keep` over the values of view rows `[0, rows)` (backing rows
/// `base..base + rows`) through [`select`]. A NULL row never passes: when
/// the window holds a NULL, `keep` is ANDed with the row's validity bit;
/// a window without one tests no bit.
#[inline(always)]
fn select_values<T>(
    values: &[T],
    nulls: &NullMask,
    base: usize,
    rows: usize,
    sel: &mut Option<Vec<u32>>,
    keep: impl Fn(&T) -> bool,
) {
    let window = &values[base..base + rows];
    if nulls.count_nulls(base, base + rows) == 0 {
        select(rows, sel, |i| keep(&window[i]));
    } else {
        let words = nulls.words();
        select(rows, sel, |i| keep(&window[i]) & !null_bit(words, base + i));
    }
}

/// The select step every kernel ends in: narrow `sel` (`None` = all `rows`
/// rows) to the rows `keep` accepts. Each candidate is written
/// unconditionally and the output length advances by `keep as usize`, so a
/// predicate passing half the rows mispredicts no branch. With no selection
/// yet it fills from `0..rows`; an existing selection is compacted in place.
#[inline(always)]
fn select(rows: usize, sel: &mut Option<Vec<u32>>, keep: impl Fn(usize) -> bool) {
    match sel {
        Some(s) => {
            let mut n = 0;
            for j in 0..s.len() {
                let i = s[j];
                s[n] = i;
                n += usize::from(keep(i as usize));
            }
            s.truncate(n);
        }
        None => {
            let mut out = vec![0u32; rows];
            let mut n = 0;
            for i in 0..rows {
                out[n] = i as u32;
                n += usize::from(keep(i));
            }
            out.truncate(n);
            *sel = Some(out);
        }
    }
}

/// The empty selection: no row passes.
fn select_nothing(sel: &mut Option<Vec<u32>>) {
    *sel = Some(Vec::new());
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
        use crate::batch::BATCH_SIZE;
        use nodb_rawcsv::ColumnType;
        // Deterministic mini-fuzz: typed int/float/str/bool columns,
        // predicates over every kernel shape (+ unsupported ones forcing the
        // fallback), compared row for row against eval_filter. Views start
        // at bases off the 64-row bitmap words, windows span several words
        // and run past BATCH_SIZE, and a case's columns hold no NULL, only
        // NULLs, or one in five.
        let (cases, max_rows, bases): (usize, usize, &[usize]) = if cfg!(miri) {
            (9, 100, &[0, 37, 64])
        } else {
            (96, BATCH_SIZE * 2 + 100, &[0, 37, 64, BATCH_SIZE + 5])
        };
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        // Ints past 2^53 round when compared as `f64`.
        let big = 1i64 << 53;
        for case in 0..cases {
            let base = bases[case % bases.len()];
            let rows = next() as usize % max_rows;
            let null_one_in = [0, 1, 5][case / bases.len() % 3];
            let mut null = || null_one_in != 0 && next() % null_one_in == 0;
            let (mut nulls_at, mut draws) = (Vec::new(), Vec::new());
            for _ in 0..base + rows {
                nulls_at.push([null(), null(), null(), null()]);
            }
            for _ in 0..base + rows {
                draws.push([next(), next(), next(), next()]);
            }
            let mut ints = TypedColumn::new(ColumnType::Int);
            let mut floats = TypedColumn::new(ColumnType::Float);
            let mut strs = TypedColumn::new(ColumnType::Str);
            let mut bools = TypedColumn::new(ColumnType::Bool);
            for (n, d) in nulls_at.iter().zip(&draws) {
                let pick = |is_null: bool, v: Datum| if is_null { Datum::Null } else { v };
                let int = match d[0] % 10 {
                    0 => big + (d[0] / 10 % 5) as i64 - 2,
                    1 => [i64::MAX, i64::MIN, -big - 1][(d[0] / 10 % 3) as usize],
                    _ => (d[0] % 20) as i64 - 10,
                };
                let float = match d[1] % 12 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    _ => (d[1] % 40) as f64 / 4.0 - 5.0,
                };
                ints.push(&pick(n[0], Datum::Int(int)));
                floats.push(&pick(n[1], Datum::Float(float)));
                strs.push(&pick(n[2], Datum::from(format!("s{}", d[2] % 8).as_str())));
                bools.push(&pick(n[3], Datum::Bool(d[3] % 2 == 0)));
            }
            let views = [&ints, &floats, &strs, &bools].map(|col| ColView { col, base });
            let cmp = |op: BinOp, c: usize, k: Datum| RExpr::Binary {
                op,
                left: Box::new(RExpr::Col(c)),
                right: Box::new(RExpr::Const(k)),
            };
            let and = |l: RExpr, r: RExpr| RExpr::Binary {
                op: BinOp::And,
                left: Box::new(l),
                right: Box::new(r),
            };
            let or = |l: RExpr, r: RExpr| RExpr::Binary {
                op: BinOp::Or,
                left: Box::new(l),
                right: Box::new(r),
            };
            let between = |c: usize, lo: Datum, hi: Datum, negated: bool| RExpr::Between {
                expr: Box::new(RExpr::Col(c)),
                lo: Box::new(RExpr::Const(lo)),
                hi: Box::new(RExpr::Const(hi)),
                negated,
            };
            let in_list = |c: usize, items: Vec<Datum>, negated: bool| RExpr::InList {
                expr: Box::new(RExpr::Col(c)),
                list: items.into_iter().map(RExpr::Const).collect(),
                negated,
            };
            let is_null = |c: usize, negated: bool| RExpr::IsNull {
                expr: Box::new(RExpr::Col(c)),
                negated,
            };
            let k = (next() % 20) as i64 - 10;
            let odd = case % 2 == 1;
            let mut preds = vec![
                cmp(BinOp::Lt, 0, Datum::Int(k)),
                cmp(BinOp::Ge, 0, Datum::Float(k as f64 + 0.5)),
                cmp(BinOp::Eq, 1, Datum::Int(k)),
                cmp(BinOp::NotEq, 0, Datum::Int(k)),
                cmp(BinOp::Eq, 0, Datum::Str("oops".into())), // type mismatch
                cmp(BinOp::Eq, 2, Datum::from("s3")),
                cmp(BinOp::Lt, 2, Datum::from("s5")),
                // Constant on the left swaps Less and Greater.
                RExpr::Binary {
                    op: BinOp::Gt,
                    left: Box::new(RExpr::Const(Datum::Int(k))),
                    right: Box::new(RExpr::Col(0)),
                },
                RExpr::Binary {
                    op: BinOp::Le,
                    left: Box::new(RExpr::Const(Datum::Float(0.0))),
                    right: Box::new(RExpr::Col(1)),
                },
                // Ints beyond 2^53 against Float constants round as f64.
                cmp(BinOp::Eq, 0, Datum::Float(big as f64)),
                cmp(BinOp::Gt, 0, Datum::Float(big as f64)),
                cmp(BinOp::Le, 0, Datum::Float(i64::MAX as f64)),
                cmp(BinOp::Eq, 0, Datum::Int(big + 1)),
                // NaN orders nothing; -0.0 equals 0.0.
                cmp(BinOp::NotEq, 1, Datum::Float(f64::NAN)),
                cmp(BinOp::Eq, 1, Datum::Float(-0.0)),
                cmp(BinOp::Ge, 1, Datum::Float(0.0)),
                // NULL constants, either side.
                cmp(BinOp::Lt, 0, Datum::Null),
                RExpr::Binary {
                    op: BinOp::NotEq,
                    left: Box::new(RExpr::Const(Datum::Null)),
                    right: Box::new(RExpr::Col(2)),
                },
                // Bool columns.
                cmp(BinOp::Eq, 3, Datum::Bool(true)),
                cmp(BinOp::Lt, 3, Datum::Bool(true)),
                cmp(BinOp::NotEq, 3, Datum::Bool(false)),
                cmp(BinOp::Gt, 3, Datum::Int(0)), // type mismatch
                between(0, Datum::Int(-3), Datum::Int(5), !odd),
                between(0, Datum::Float(-2.5), Datum::Float(big as f64), odd),
                between(0, Datum::Int(-3), Datum::Float(5.5), odd), // mixed: fallback
                between(1, Datum::Int(-1), Datum::Float(2.5), !odd),
                between(1, Datum::Float(f64::NAN), Datum::Float(2.5), odd),
                between(1, Datum::Float(3.0), Datum::Float(-3.0), true), // lo > hi
                between(2, Datum::from("s2"), Datum::from("s5"), odd),
                between(3, Datum::Bool(false), Datum::Bool(false), !odd),
                between(0, Datum::Null, Datum::Int(5), true),
                in_list(0, vec![Datum::Int(1), Datum::Null, Datum::Int(k)], odd),
                in_list(0, vec![Datum::Int(k), Datum::Float(big as f64)], !odd),
                in_list(
                    1,
                    vec![Datum::Float(-0.0), Datum::Int(2), Datum::Float(f64::NAN)],
                    odd,
                ),
                in_list(
                    2,
                    vec![Datum::from("s1"), Datum::Int(1), Datum::from("s6")],
                    !odd,
                ),
                in_list(3, vec![Datum::Bool(true)], odd),
                in_list(1, vec![], odd),
                RExpr::Like {
                    expr: Box::new(RExpr::Col(2)),
                    pattern: LikePattern::compile("s%"),
                    negated: !odd,
                },
                RExpr::Like {
                    expr: Box::new(RExpr::Col(2)),
                    pattern: LikePattern::compile("%3"),
                    negated: odd,
                },
                RExpr::Like {
                    expr: Box::new(RExpr::Col(0)),
                    pattern: LikePattern::compile("s%"),
                    negated: false,
                },
                is_null(1, odd),
                is_null(2, !odd),
                is_null(3, odd),
                // AND chains (refinement, the third step compacting a
                // selection that is already `Some`), OR of kernels (union),
                // and an arithmetic comparison that has no kernel (fallback).
                and(
                    cmp(BinOp::Ge, 0, Datum::Int(-5)),
                    cmp(BinOp::Le, 1, Datum::Float(2.5)),
                ),
                and(
                    and(cmp(BinOp::Ge, 0, Datum::Int(-8)), is_null(2, true)),
                    cmp(BinOp::Eq, 3, Datum::Bool(odd)),
                ),
                and(
                    cmp(BinOp::NotEq, 1, Datum::Float(0.0)),
                    and(
                        in_list(2, vec![Datum::from("s1"), Datum::from("s2")], odd),
                        between(0, Datum::Int(-6), Datum::Int(6), false),
                    ),
                ),
                or(
                    cmp(BinOp::Lt, 0, Datum::Int(-7)),
                    cmp(BinOp::Gt, 1, Datum::Float(3.0)),
                ),
                or(
                    and(
                        cmp(BinOp::Gt, 0, Datum::Int(0)),
                        cmp(BinOp::Lt, 0, Datum::Int(4)),
                    ),
                    is_null(0, false),
                ),
                and(
                    cmp(BinOp::Gt, 3, Datum::Bool(false)),
                    RExpr::Binary {
                        op: BinOp::Gt,
                        left: Box::new(RExpr::Binary {
                            op: BinOp::Add,
                            left: Box::new(RExpr::Col(0)),
                            right: Box::new(RExpr::Col(1)),
                        }),
                        right: Box::new(RExpr::Const(Datum::Int(0))),
                    },
                ),
            ];
            // Each of the six operators over each column type, against
            // constants that hit values, NaN, and both zeros.
            let ops = [
                BinOp::Lt,
                BinOp::Le,
                BinOp::Eq,
                BinOp::NotEq,
                BinOp::Ge,
                BinOp::Gt,
            ];
            for op in ops {
                preds.extend([
                    cmp(op, 0, Datum::Int(k)),
                    cmp(op, 0, Datum::Float(k as f64 + 0.5)),
                    cmp(op, 1, Datum::Float(k as f64 / 4.0)),
                    cmp(op, 1, Datum::Int(k)),
                    cmp(op, 1, Datum::Float(f64::NAN)),
                    cmp(op, 1, Datum::Float(-0.0)),
                    cmp(op, 1, Datum::Float(0.0)),
                    cmp(op, 2, Datum::from(format!("s{}", k.rem_euclid(8)).as_str())),
                    cmp(op, 3, Datum::Bool(odd)),
                ]);
            }
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
                assert_eq!(fast, slow, "case {case} base {base} rows {rows} pred {pi}");
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
