//! Per-slice statistics sketches: the part of an attribute's statistics
//! that does not depend on the order rows arrive in.
//!
//! An accumulator ([`crate::AttrStats`]) holds the min/max bounds and the
//! row and NULL counts. The bounds are *order-independent*: a value moves
//! the same bound whenever it arrives, and merging two pairs of them (min
//! of mins, max of maxes) is idempotent, commutative and associative. The
//! counts are plain sums, but a slice must add them only for rows the
//! accumulator has not seen yet.
//!
//! The scan splits its statistics work along that line. Each worker builds
//! a [`ColumnSketch`] — the bounds of its slice — over the slice's typed
//! partial column, in parallel and outside any lock: one typed kernel and
//! two compares per non-null value, nothing boxed. The install
//! ([`crate::TableStats::absorb`]) then merges the bounds and counts the
//! rows beyond the observation frontier by null-mask popcounts, in global
//! row order — so the install reads no value at all.

use std::cmp::Ordering;

use nodb_rawcache::column::NullMask;
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

/// A non-null value in its typed form: everything a sketch or an
/// observation needs without boxing it into a [`Datum`] first. Each method
/// agrees with the `Datum` the value would box into ([`Self::datum`]).
pub(crate) trait Value: Copy {
    /// [`Datum::total_cmp`] of two values of the type.
    fn total_cmp(self, other: Self) -> Ordering;
    /// [`Datum::total_cmp`] against a recorded bound.
    fn cmp_bound(self, bound: &Datum) -> Ordering;
    /// Box the value (only when it is kept).
    fn datum(self) -> Datum;
}

impl Value for i64 {
    fn total_cmp(self, other: Self) -> Ordering {
        self.cmp(&other)
    }
    fn cmp_bound(self, bound: &Datum) -> Ordering {
        match bound {
            Datum::Int(b) => self.cmp(b),
            other => self.datum().total_cmp(other),
        }
    }
    fn datum(self) -> Datum {
        Datum::Int(self)
    }
}

impl Value for f64 {
    fn total_cmp(self, other: Self) -> Ordering {
        f64::total_cmp(&self, &other)
    }
    fn cmp_bound(self, bound: &Datum) -> Ordering {
        match bound {
            Datum::Float(b) => f64::total_cmp(&self, b),
            other => self.datum().total_cmp(other),
        }
    }
    fn datum(self) -> Datum {
        Datum::Float(self)
    }
}

impl Value for bool {
    fn total_cmp(self, other: Self) -> Ordering {
        self.cmp(&other)
    }
    fn cmp_bound(self, bound: &Datum) -> Ordering {
        self.datum().total_cmp(bound)
    }
    fn datum(self) -> Datum {
        Datum::Bool(self)
    }
}

impl Value for &str {
    fn total_cmp(self, other: Self) -> Ordering {
        // Byte-wise order: differing first bytes decide without a memcmp,
        // which is nearly every compare against a column's running bounds.
        match (self.as_bytes().first(), other.as_bytes().first()) {
            (Some(a), Some(b)) if a != b => a.cmp(b),
            _ => self.cmp(other),
        }
    }
    fn cmp_bound(self, bound: &Datum) -> Ordering {
        match bound {
            Datum::Str(b) => self.cmp(&**b),
            other => self.datum().total_cmp(other),
        }
    }
    fn datum(self) -> Datum {
        Datum::Str(self.into())
    }
}

/// The order-independent statistics of some rows of one attribute: the
/// bounds of their non-null values.
#[derive(Debug, Clone)]
pub struct ColumnSketch {
    pub(crate) min: Option<Datum>,
    pub(crate) max: Option<Datum>,
}

impl ColumnSketch {
    /// Sketch rows `[from, col.len())` of a scan slice's partial column.
    pub fn build(col: &TypedColumn, from: usize) -> ColumnSketch {
        match col {
            TypedColumn::Int { values, nulls } => sketch(values, nulls, from, |v| *v),
            TypedColumn::Float { values, nulls } => sketch(values, nulls, from, |v| *v),
            TypedColumn::Bool { values, nulls } => sketch(values, nulls, from, |v| *v),
            TypedColumn::Str { values, nulls, .. } => sketch(values, nulls, from, |v| &**v),
        }
    }
}

/// The one sketch kernel, over one typed value vector.
fn sketch<'a, T, V: Value>(
    values: &'a [T],
    nulls: &NullMask,
    from: usize,
    get: impl Fn(&'a T) -> V,
) -> ColumnSketch {
    let mut bounds: Option<(V, V)> = None;
    let mut see = |v: V| match &mut bounds {
        Some((lo, hi)) => {
            if v.total_cmp(*lo) == Ordering::Less {
                *lo = v;
            } else if v.total_cmp(*hi) == Ordering::Greater {
                *hi = v;
            }
        }
        None => bounds = Some((v, v)),
    };
    let rows = values.get(from..).unwrap_or_default();
    if nulls.any_null() {
        for (i, v) in rows.iter().enumerate() {
            if !nulls.is_null(from + i) {
                see(get(v));
            }
        }
    } else {
        rows.iter().for_each(|v| see(get(v)));
    }
    ColumnSketch {
        min: bounds.map(|(lo, _)| lo.datum()),
        max: bounds.map(|(_, hi)| hi.datum()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::ColumnType;

    #[test]
    fn sketch_bounds_follow_the_total_order() {
        let mut col = TypedColumn::new(ColumnType::Float);
        for d in [
            Datum::Float(0.0),
            Datum::Null,
            Datum::Float(-0.0),
            Datum::Float(f64::NAN),
            Datum::Float(-3.5),
        ] {
            col.push(&d);
        }
        let s = ColumnSketch::build(&col, 0);
        assert_eq!(format!("{:?}", s.min), "Some(Float(-3.5))");
        assert_eq!(format!("{:?}", s.max), "Some(Float(NaN))");
        let tail = ColumnSketch::build(&col, 2);
        assert_eq!(format!("{:?}", tail.min), "Some(Float(-3.5))");
        let none = ColumnSketch::build(&col, 5);
        assert!(none.min.is_none() && none.max.is_none());
    }
}
