//! Per-slice statistics sketches: the part of an attribute's statistics
//! that does not depend on the order rows arrive in.
//!
//! An accumulator ([`crate::AttrStats`]) holds two kinds of state. The NDV
//! bitmap and the min/max bounds are *order-independent*: a value sets the
//! same bit and moves the same bound whenever it arrives, and merging two
//! of them (OR, min of mins, max of maxes) is idempotent, commutative and
//! associative. The row and NULL counts and the reservoir sample are
//! *order-dependent* — the reservoir's state is a function of the offer
//! sequence.
//!
//! The scan splits its statistics work along that line. Each worker builds
//! a [`ColumnSketch`] over its slice's typed partial column, in parallel
//! and outside any lock: one typed kernel, one hash and two compares per
//! non-null value, nothing boxed. The install
//! ([`crate::TableStats::absorb`]) then merges the sketch and does the
//! order-dependent part in global row order: counts by null-mask
//! popcounts, and the reservoir advanced through the slice's offered rows
//! by [`crate::Reservoir`]'s skips (`OfferedRows` finds the `i`-th
//! offered row by word popcounts) — so the only values read at install
//! are those that stay in the reservoir.

use std::cmp::Ordering;

use nodb_rawcache::column::NullMask;
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

use crate::ndv::{hash_bool, hash_float, hash_int, hash_str, DistinctCounter};

/// A non-null value in its typed form: everything a sketch or an
/// observation needs without boxing it into a [`Datum`] first. Each method
/// agrees with the `Datum` the value would box into ([`Self::datum`]).
pub(crate) trait Value: Copy {
    /// [`crate::ndv::hash_datum`] of the value.
    fn ndv_hash(self) -> u64;
    /// [`Datum::total_cmp`] of two values of the type.
    fn total_cmp(self, other: Self) -> Ordering;
    /// [`Datum::total_cmp`] against a recorded bound.
    fn cmp_bound(self, bound: &Datum) -> Ordering;
    /// Box the value (only when it is kept).
    fn datum(self) -> Datum;
}

impl Value for i64 {
    fn ndv_hash(self) -> u64 {
        hash_int(self)
    }
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
    fn ndv_hash(self) -> u64 {
        hash_float(self)
    }
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
    fn ndv_hash(self) -> u64 {
        hash_bool(self)
    }
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
    fn ndv_hash(self) -> u64 {
        hash_str(self)
    }
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

/// The order-independent statistics of some rows of one attribute: the NDV
/// bitmap and the bounds of their non-null values.
#[derive(Debug, Clone)]
pub struct ColumnSketch {
    pub(crate) min: Option<Datum>,
    pub(crate) max: Option<Datum>,
    pub(crate) ndv: DistinctCounter,
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
    let mut ndv = DistinctCounter::default_size();
    let mut bounds: Option<(V, V)> = None;
    let mut see = |v: V| {
        ndv.add_hash(v.ndv_hash());
        match &mut bounds {
            Some((lo, hi)) => {
                if v.total_cmp(*lo) == Ordering::Less {
                    *lo = v;
                } else if v.total_cmp(*hi) == Ordering::Greater {
                    *hi = v;
                }
            }
            None => bounds = Some((v, v)),
        }
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
        ndv,
    }
}

/// The rows of `[lo, hi)` of a slice that a scan offers to the reservoir:
/// those whose global number (`row_base` + local row) the sampling stride
/// selects and whose value is not NULL. Read one 64-row word at a time,
/// and found by offer index with a forward-only select: whole words are
/// skipped by their popcount, so reaching the `i`-th offered row costs one
/// step per word passed, not per row.
pub(crate) struct OfferedRows<'a> {
    nulls: &'a [u64],
    lo: usize,
    hi: usize,
    row_base: u64,
    stride: u64,
    /// Select cursor: the current word,
    w: usize,
    /// its offered rows not yet passed,
    bits: u64,
    /// and the offer index of the lowest of them.
    at: u64,
}

impl<'a> OfferedRows<'a> {
    pub(crate) fn new(
        nulls: &'a NullMask,
        lo: usize,
        hi: usize,
        row_base: u64,
        stride: u64,
    ) -> Self {
        let mut rows = OfferedRows {
            nulls: nulls.words(),
            lo,
            hi: hi.max(lo),
            row_base,
            stride: stride.max(1),
            w: lo / 64,
            bits: 0,
            at: 0,
        };
        rows.bits = rows.mask(rows.w);
        rows
    }

    /// Offered rows of word `w`, as a bit mask (bit `p` = local row
    /// `64 w + p`).
    fn mask(&self, w: usize) -> u64 {
        let first = w * 64;
        if first >= self.hi {
            return 0;
        }
        let mut m = !self.nulls.get(w).copied().unwrap_or(0);
        if first < self.lo {
            m &= !0u64 << (self.lo - first);
        }
        if self.hi - first < 64 {
            m &= (1u64 << (self.hi - first)) - 1;
        }
        if self.stride > 1 {
            let g = self.row_base + first as u64;
            let mut picked = 0u64;
            let mut p = (self.stride - g % self.stride) % self.stride;
            while p < 64 {
                picked |= 1u64 << p;
                p += self.stride;
            }
            m &= picked;
        }
        m
    }

    /// How many rows are offered.
    pub(crate) fn count(&self) -> u64 {
        (self.lo / 64..self.hi.div_ceil(64))
            .map(|w| u64::from(self.mask(w).count_ones()))
            .sum()
    }

    /// Local row of the `i`-th offered row (`i` at least the previous
    /// call's), or `None` past the last one.
    pub(crate) fn select(&mut self, i: u64) -> Option<usize> {
        let end = self.hi.div_ceil(64);
        while self.w < end {
            let here = u64::from(self.bits.count_ones());
            if i < self.at + here {
                for _ in self.at..i {
                    self.bits &= self.bits - 1;
                }
                self.at = i;
                return Some(self.w * 64 + self.bits.trailing_zeros() as usize); // lint: cast-ok at most 63
            }
            self.at += here;
            self.w += 1;
            self.bits = self.mask(self.w);
        }
        None
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
        assert_eq!(none.ndv.estimate(), 0.0);
    }

    #[test]
    fn offered_rows_select_equals_a_filter() {
        let mut nulls = NullMask::default();
        for i in 0..300 {
            nulls.push(i % 5 == 0 || (128..200).contains(&i));
        }
        for stride in [1u64, 3, 7, 64, 100] {
            for row_base in [0u64, 5, 64] {
                for (lo, hi) in [(0, 300), (1, 299), (63, 65), (70, 70), (200, 300)] {
                    let expect: Vec<usize> = (lo..hi)
                        .filter(|&r| !nulls.is_null(r))
                        .filter(|&r| (row_base + r as u64).is_multiple_of(stride))
                        .collect();
                    let mut cur = OfferedRows::new(&nulls, lo, hi, row_base, stride);
                    assert_eq!(cur.count(), expect.len() as u64);
                    // Every other index, then the last: skips across words.
                    for (i, &r) in expect.iter().enumerate().step_by(2) {
                        assert_eq!(cur.select(i as u64), Some(r), "stride {stride} [{lo},{hi})");
                    }
                    assert_eq!(cur.select(expect.len() as u64), None);
                }
            }
        }
    }
}
