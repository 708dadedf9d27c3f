//! Per-attribute statistics accumulator.
//!
//! Fed by the scan operator for *requested attributes only* (§3.3: "creates
//! statistics only on requested attributes") and incrementally augmented as
//! queries touch more rows: slice by slice through `AttrStats::absorb`
//! (a worker-built [`ColumnSketch`] plus the row and NULL counts), or value
//! by value through [`AttrStats::observe`].

use std::cmp::Ordering;

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

use crate::sketch::{ColumnSketch, Value};

/// Running statistics for one attribute of one raw file.
#[derive(Debug)]
pub struct AttrStats {
    attr: usize,
    /// Values observed (including NULLs).
    rows_seen: u64,
    /// NULLs observed.
    nulls: u64,
    /// Smallest non-null value (total order).
    min: Option<Datum>,
    /// Largest non-null value (total order).
    max: Option<Datum>,
}

impl AttrStats {
    /// Fresh accumulator for attribute `attr`.
    pub fn new(attr: usize) -> Self {
        AttrStats {
            attr,
            rows_seen: 0,
            nulls: 0,
            min: None,
            max: None,
        }
    }

    /// The attribute index this accumulator describes.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Observe one value: counted, and a non-null one bounded.
    pub fn observe(&mut self, d: &Datum) {
        match d {
            Datum::Null => {
                self.rows_seen += 1;
                self.nulls += 1;
            }
            Datum::Int(v) => self.observe_value(*v),
            Datum::Float(v) => self.observe_value(*v),
            Datum::Str(s) => self.observe_value(&**s),
            Datum::Bool(b) => self.observe_value(*b),
        }
    }

    /// [`Self::observe`] of a non-null value in its typed form: boxed only
    /// if it becomes a bound.
    fn observe_value<V: Value>(&mut self, v: V) {
        self.rows_seen += 1;
        if !matches!(&self.min, Some(m) if v.cmp_bound(m) != Ordering::Less) {
            self.min = Some(v.datum());
        }
        if !matches!(&self.max, Some(m) if v.cmp_bound(m) != Ordering::Greater) {
            self.max = Some(v.datum());
        }
    }

    /// Absorb rows `[from, col.len())` of one scan slice: `sketch`
    /// ([`ColumnSketch::build`] over at least those rows) is merged, and the
    /// rows are counted by null-mask popcounts, without reading any value.
    /// The same state as [`Self::observe`] on each of those rows; merging a
    /// sketch that also covers earlier, already observed rows changes
    /// nothing, because bounds are idempotent.
    pub(crate) fn absorb(&mut self, col: &TypedColumn, sketch: &ColumnSketch, from: usize) {
        let len = col.len();
        if from >= len {
            return;
        }
        if let Some(lo) = &sketch.min {
            if !matches!(&self.min, Some(m) if lo.total_cmp(m) != Ordering::Less) {
                self.min = Some(lo.clone());
            }
        }
        if let Some(hi) = &sketch.max {
            if !matches!(&self.max, Some(m) if hi.total_cmp(m) != Ordering::Greater) {
                self.max = Some(hi.clone());
            }
        }
        self.rows_seen += (len - from) as u64;
        self.nulls += col.nulls().count_nulls(from, len) as u64;
    }

    /// Values observed so far (including NULLs).
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Fraction of observed values that were NULL.
    pub fn null_fraction(&self) -> f64 {
        if self.rows_seen == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows_seen as f64
        }
    }

    /// Observed minimum.
    pub fn min(&self) -> Option<&Datum> {
        self.min.as_ref()
    }

    /// Observed maximum.
    pub fn max(&self) -> Option<&Datum> {
        self.max.as_ref()
    }

    /// Export the full accumulator state for snapshotting.
    pub fn export_state(&self) -> AttrStatsState {
        AttrStatsState {
            attr: self.attr,
            rows_seen: self.rows_seen,
            nulls: self.nulls,
            min: self.min.clone(),
            max: self.max.clone(),
        }
    }

    /// Rebuild an accumulator from [`Self::export_state`]. Returns `None`
    /// when the counts are inconsistent (untrusted sidecar input): more
    /// NULLs than rows seen.
    pub fn from_state(state: AttrStatsState) -> Option<Self> {
        if state.nulls > state.rows_seen {
            return None;
        }
        Some(AttrStats {
            attr: state.attr,
            rows_seen: state.rows_seen,
            nulls: state.nulls,
            min: state.min,
            max: state.max,
        })
    }
}

/// Serializable snapshot of an [`AttrStats`] accumulator.
#[derive(Debug, Clone)]
pub struct AttrStatsState {
    /// Attribute index.
    pub attr: usize,
    /// Values observed (including NULLs).
    pub rows_seen: u64,
    /// NULLs observed.
    pub nulls: u64,
    /// Observed minimum.
    pub min: Option<Datum>,
    /// Observed maximum.
    pub max: Option<Datum>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_null_tracking() {
        let mut s = AttrStats::new(0);
        s.observe(&Datum::Int(5));
        s.observe(&Datum::Null);
        s.observe(&Datum::Int(-3));
        s.observe(&Datum::Int(9));
        assert_eq!(s.min(), Some(&Datum::Int(-3)));
        assert_eq!(s.max(), Some(&Datum::Int(9)));
        assert_eq!(s.rows_seen(), 4);
        assert!((s.null_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn state_round_trip_continues_identically() {
        let mut a = AttrStats::new(5);
        for i in 0..2_000 {
            if i % 13 == 0 {
                a.observe(&Datum::Null);
            } else {
                a.observe(&Datum::Int(i % 97));
            }
        }
        let mut b = AttrStats::from_state(a.export_state()).expect("consistent");
        assert_eq!(a.attr(), b.attr());
        assert_eq!(a.rows_seen(), b.rows_seen());
        assert_eq!(a.null_fraction(), b.null_fraction());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        // Further observations must evolve both identically.
        for i in 0..3_000 {
            let d = Datum::Int(i * 3 + 1);
            a.observe(&d);
            b.observe(&d);
        }
        assert_eq!(
            format!("{:?}", a.export_state()),
            format!("{:?}", b.export_state())
        );
    }

    #[test]
    fn from_state_rejects_inconsistent_counts() {
        let mut a = AttrStats::new(0);
        a.observe(&Datum::Int(1));
        let mut s = a.export_state();
        s.nulls = s.rows_seen + 1;
        assert!(AttrStats::from_state(s).is_none());
    }
}
