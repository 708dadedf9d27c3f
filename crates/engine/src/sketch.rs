//! Extraction of [`PredicateSketch`]es from resolved conjuncts.
//!
//! The optimizer orders WHERE conjuncts by estimated selectivity (§3.3: the
//! statistics help "ordering operators such as joins and selections"). To do
//! that it reduces each conjunct to a sketch — `attr ⊙ constant` shapes the
//! statistics store can price. Anything more exotic is [`Opaque`] and gets a
//! textbook default.
//!
//! [`Opaque`]: PredicateSketch::Opaque

use nodb_rawcsv::Datum;
use nodb_sqlparse::ast::BinOp;
use nodb_stats::PredicateSketch;

use crate::expr::RExpr;

/// Split a predicate into top-level AND conjuncts.
pub fn split_conjuncts(expr: &RExpr, out: &mut Vec<RExpr>) {
    match expr {
        RExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Reassemble conjuncts into one AND tree (left-deep, in slice order).
pub fn join_conjuncts(conjuncts: &[RExpr]) -> Option<RExpr> {
    let mut iter = conjuncts.iter().cloned();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, c| RExpr::Binary {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(c),
    }))
}

/// Sketch one conjunct as `(column, sketch)` when it has a priceable shape.
///
/// The column index is in whatever space `expr` is resolved in; callers
/// translate to file attributes before consulting statistics.
pub fn sketch_conjunct(expr: &RExpr) -> Option<(usize, PredicateSketch)> {
    match expr {
        RExpr::Binary { op, left, right } if op.is_comparison() => {
            // col ⊙ const or const ⊙ col (flip the operator).
            match (&**left, &**right) {
                (RExpr::Col(c), RExpr::Const(v)) => Some((*c, cmp_sketch(*op, v.clone()))),
                (RExpr::Const(v), RExpr::Col(c)) => Some((*c, cmp_sketch(flip(*op), v.clone()))),
                _ => None,
            }
        }
        RExpr::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => match (&**expr, &**lo, &**hi) {
            (RExpr::Col(c), RExpr::Const(l), RExpr::Const(h)) => {
                Some((*c, PredicateSketch::Between(l.clone(), h.clone())))
            }
            _ => None,
        },
        RExpr::InList {
            expr,
            list,
            negated: false,
        } => match &**expr {
            RExpr::Col(c) if list.iter().all(|e| matches!(e, RExpr::Const(_))) => {
                Some((*c, PredicateSketch::InList(list.len())))
            }
            _ => None,
        },
        RExpr::IsNull { expr, negated } => match &**expr {
            RExpr::Col(c) => Some((
                *c,
                if *negated {
                    PredicateSketch::IsNotNull
                } else {
                    PredicateSketch::IsNull
                },
            )),
            _ => None,
        },
        RExpr::Like {
            expr,
            pattern,
            negated: false,
        } => match (&**expr, pattern.as_prefix()) {
            (RExpr::Col(c), Some(_)) => Some((*c, PredicateSketch::StrPrefix)),
            _ => None,
        },
        _ => None,
    }
}

fn cmp_sketch(op: BinOp, v: Datum) -> PredicateSketch {
    match op {
        BinOp::Eq => PredicateSketch::Eq(v),
        BinOp::NotEq => PredicateSketch::NotEq(v),
        BinOp::Lt => PredicateSketch::Lt(v),
        BinOp::Le => PredicateSketch::Le(v),
        BinOp::Gt => PredicateSketch::Gt(v),
        BinOp::Ge => PredicateSketch::Ge(v),
        _ => PredicateSketch::Opaque,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_cmp(op: BinOp, c: usize, v: i64) -> RExpr {
        RExpr::Binary {
            op,
            left: Box::new(RExpr::Col(c)),
            right: Box::new(RExpr::Const(Datum::Int(v))),
        }
    }

    #[test]
    fn split_and_rejoin_round_trips() {
        let e = RExpr::Binary {
            op: BinOp::And,
            left: Box::new(col_cmp(BinOp::Gt, 0, 1)),
            right: Box::new(RExpr::Binary {
                op: BinOp::And,
                left: Box::new(col_cmp(BinOp::Lt, 1, 2)),
                right: Box::new(col_cmp(BinOp::Eq, 2, 3)),
            }),
        };
        let mut parts = Vec::new();
        split_conjuncts(&e, &mut parts);
        assert_eq!(parts.len(), 3);
        let rejoined = join_conjuncts(&parts).unwrap();
        let mut parts2 = Vec::new();
        split_conjuncts(&rejoined, &mut parts2);
        assert_eq!(parts, parts2);
    }

    #[test]
    fn or_is_one_conjunct() {
        let e = RExpr::Binary {
            op: BinOp::Or,
            left: Box::new(col_cmp(BinOp::Gt, 0, 1)),
            right: Box::new(col_cmp(BinOp::Lt, 1, 2)),
        };
        let mut parts = Vec::new();
        split_conjuncts(&e, &mut parts);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn sketches_comparison_shapes() {
        let (c, s) = sketch_conjunct(&col_cmp(BinOp::Lt, 3, 10)).unwrap();
        assert_eq!(c, 3);
        assert_eq!(s, PredicateSketch::Lt(Datum::Int(10)));

        // Flipped: 10 > col3  ≡  col3 < 10.
        let flipped = RExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(RExpr::Const(Datum::Int(10))),
            right: Box::new(RExpr::Col(3)),
        };
        let (c2, s2) = sketch_conjunct(&flipped).unwrap();
        assert_eq!(c2, 3);
        assert_eq!(s2, PredicateSketch::Lt(Datum::Int(10)));
    }

    #[test]
    fn sketches_between_in_isnull_prefix() {
        let between = RExpr::Between {
            expr: Box::new(RExpr::Col(1)),
            lo: Box::new(RExpr::Const(Datum::Int(1))),
            hi: Box::new(RExpr::Const(Datum::Int(9))),
            negated: false,
        };
        assert!(matches!(
            sketch_conjunct(&between),
            Some((1, PredicateSketch::Between(_, _)))
        ));

        let inlist = RExpr::InList {
            expr: Box::new(RExpr::Col(2)),
            list: vec![RExpr::Const(Datum::Int(1)), RExpr::Const(Datum::Int(2))],
            negated: false,
        };
        assert!(matches!(
            sketch_conjunct(&inlist),
            Some((2, PredicateSketch::InList(2)))
        ));

        let isnull = RExpr::IsNull {
            expr: Box::new(RExpr::Col(0)),
            negated: false,
        };
        assert!(matches!(
            sketch_conjunct(&isnull),
            Some((0, PredicateSketch::IsNull))
        ));

        let like = RExpr::Like {
            expr: Box::new(RExpr::Col(4)),
            pattern: crate::expr::LikePattern::compile("ab%"),
            negated: false,
        };
        assert!(matches!(
            sketch_conjunct(&like),
            Some((4, PredicateSketch::StrPrefix))
        ));
    }

    #[test]
    fn col_to_col_is_unsketchable() {
        let e = RExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(RExpr::Col(0)),
            right: Box::new(RExpr::Col(1)),
        };
        assert!(sketch_conjunct(&e).is_none());
    }
}
