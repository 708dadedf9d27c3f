//! Per-attribute statistics accumulator.
//!
//! Fed by the scan operator for *requested attributes only* (§3.3: "creates
//! statistics only on requested attributes") and incrementally augmented as
//! queries touch more rows: slice by slice through `AttrStats::absorb`
//! (a worker-built [`ColumnSketch`] plus the order-dependent counts and
//! reservoir offers), or value by value through [`AttrStats::observe`].

use std::cmp::Ordering;

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

use crate::histogram::EquiDepthHistogram;
use crate::ndv::DistinctCounter;
use crate::sample::{Reservoir, ReservoirState};
use crate::sketch::{ColumnSketch, OfferedRows, Value};

/// Default reservoir capacity per attribute.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 1024;

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
    reservoir: Reservoir,
    ndv: DistinctCounter,
    /// Histogram cache, invalidated when the reservoir changes.
    histogram: Option<(u64, EquiDepthHistogram)>,
}

impl AttrStats {
    /// Fresh accumulator for attribute `attr`. The reservoir seed derives
    /// from the attribute index, keeping runs reproducible.
    pub fn new(attr: usize) -> Self {
        AttrStats {
            attr,
            rows_seen: 0,
            nulls: 0,
            min: None,
            max: None,
            reservoir: Reservoir::new(DEFAULT_SAMPLE_CAPACITY, 0x5eed_0000 + attr as u64),
            ndv: DistinctCounter::default_size(),
            histogram: None,
        }
    }

    /// The attribute index this accumulator describes.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Observe one value and offer it to the reservoir.
    pub fn observe(&mut self, d: &Datum) {
        self.note(d, true);
    }

    /// Observe one value — counted, and a non-null one bounded and hashed
    /// — offering it to the reservoir only when `offer` holds.
    pub(crate) fn note(&mut self, d: &Datum, offer: bool) {
        match d {
            Datum::Null => {
                self.rows_seen += 1;
                self.nulls += 1;
            }
            Datum::Int(v) => self.note_value(*v, offer),
            Datum::Float(v) => self.note_value(*v, offer),
            Datum::Str(s) => self.note_value(&**s, offer),
            Datum::Bool(b) => self.note_value(*b, offer),
        }
    }

    /// [`Self::note`] of a non-null value in its typed form: boxed only if
    /// it becomes a bound or enters the reservoir.
    fn note_value<V: Value>(&mut self, v: V, offer: bool) {
        self.rows_seen += 1;
        if !matches!(&self.min, Some(m) if v.cmp_bound(m) != Ordering::Less) {
            self.min = Some(v.datum());
        }
        if !matches!(&self.max, Some(m) if v.cmp_bound(m) != Ordering::Greater) {
            self.max = Some(v.datum());
        }
        self.ndv.add_hash(v.ndv_hash());
        if offer {
            self.reservoir.offer_with(|| v.datum());
        }
    }

    /// Absorb rows `[from, col.len())` of one scan slice, whose local row 0
    /// is data row `row_base`: `sketch` ([`ColumnSketch::build`] over at
    /// least those rows) is merged, the rows are counted by null-mask
    /// popcounts, and the reservoir is advanced through the rows the
    /// sampling `stride` selects, in row order, without reading any value:
    /// `accept(slot, row)` names each reservoir slot a row is accepted
    /// into, and the caller fills the slots ([`Self::set_sample`]) with the
    /// last row accepted into each. Then the same state as [`Self::note`]
    /// on each of those rows in order; merging a sketch that also covers
    /// earlier, already observed rows changes nothing, because bounds and
    /// NDV bits are idempotent.
    pub(crate) fn absorb(
        &mut self,
        col: &TypedColumn,
        sketch: &ColumnSketch,
        from: usize,
        row_base: u64,
        stride: u64,
        mut accept: impl FnMut(usize, usize),
    ) {
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
        self.ndv.union(&sketch.ndv);
        self.rows_seen += (len - from) as u64;
        self.nulls += col.nulls().count_nulls(from, len) as u64;
        let mut offered = OfferedRows::new(col.nulls(), from, len, row_base, stride);
        self.reservoir.offer_run(offered.count(), |i, slot| {
            if let Some(row) = offered.select(i) {
                accept(slot, row);
            }
        });
    }

    /// Fill reservoir `slot` with the value an [`Self::absorb`] accepted
    /// into it.
    pub(crate) fn set_sample(&mut self, slot: usize, d: Datum) {
        self.reservoir.set(slot, d);
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

    /// Estimated number of distinct non-null values.
    pub fn ndv(&self) -> f64 {
        self.ndv.estimate().max(1.0)
    }

    /// Observed minimum.
    pub fn min(&self) -> Option<&Datum> {
        self.min.as_ref()
    }

    /// Observed maximum.
    pub fn max(&self) -> Option<&Datum> {
        self.max.as_ref()
    }

    /// The current reservoir sample (non-null values, unordered).
    pub fn sample(&self) -> &[Datum] {
        self.reservoir.sample()
    }

    /// Equi-depth histogram over the current sample (rebuilt lazily when the
    /// sample has grown since the last build).
    pub fn histogram(&mut self) -> Option<&EquiDepthHistogram> {
        let seen = self.reservoir.seen();
        let stale = match &self.histogram {
            Some((at, _)) => *at != seen,
            None => true,
        };
        if stale {
            self.histogram =
                EquiDepthHistogram::build(self.reservoir.sample(), 64).map(|h| (seen, h));
        }
        self.histogram.as_ref().map(|(_, h)| h)
    }

    /// Reset (file replaced).
    pub fn clear(&mut self) {
        self.rows_seen = 0;
        self.nulls = 0;
        self.min = None;
        self.max = None;
        self.reservoir.clear();
        self.ndv.clear();
        self.histogram = None;
    }

    /// Export the full accumulator state for snapshotting. The histogram
    /// cache is deliberately excluded — it rebuilds lazily from the
    /// reservoir and keying on `seen` makes the rebuild deterministic.
    pub fn export_state(&self) -> AttrStatsState {
        AttrStatsState {
            attr: self.attr,
            rows_seen: self.rows_seen,
            nulls: self.nulls,
            min: self.min.clone(),
            max: self.max.clone(),
            reservoir: self.reservoir.export_state(),
            ndv_words: self.ndv.words().to_vec(),
        }
    }

    /// Rebuild an accumulator from [`Self::export_state`]. Returns `None`
    /// when any component is inconsistent (untrusted sidecar input) —
    /// nulls exceeding rows seen, a malformed reservoir, or an empty NDV
    /// bitmap.
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
            reservoir: Reservoir::from_state(state.reservoir)?,
            ndv: DistinctCounter::from_words(state.ndv_words)?,
            histogram: None,
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
    /// Full reservoir state (sample + RNG mid-stream).
    pub reservoir: ReservoirState,
    /// NDV linear-counting bitmap words.
    pub ndv_words: Vec<u64>,
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
    fn ndv_counts_distinct() {
        let mut s = AttrStats::new(1);
        for i in 0..50 {
            s.observe(&Datum::Int(i % 10));
        }
        let e = s.ndv();
        assert!((e - 10.0).abs() < 3.0, "ndv = {e}");
    }

    #[test]
    fn histogram_rebuilds_after_growth() {
        let mut s = AttrStats::new(2);
        for i in 0..100 {
            s.observe(&Datum::Int(i));
        }
        let f1 = s.histogram().unwrap().fraction_le(&Datum::Int(50));
        assert!(f1 > 0.3 && f1 < 0.7);
        for i in 100..1000 {
            s.observe(&Datum::Int(i));
        }
        let f2 = s.histogram().unwrap().fraction_le(&Datum::Int(50));
        assert!(f2 < 0.2, "after growth le(50) = {f2}");
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
        assert_eq!(a.ndv(), b.ndv());
        assert_eq!(a.sample(), b.sample());
        // Further observations must evolve both identically (RNG state
        // round-tripped mid-stream).
        for i in 0..3_000 {
            let d = Datum::Int(i * 3 + 1);
            a.observe(&d);
            b.observe(&d);
        }
        assert_eq!(a.sample(), b.sample());
        assert_eq!(a.ndv(), b.ndv());
    }

    #[test]
    fn from_state_rejects_inconsistent_counts() {
        let mut a = AttrStats::new(0);
        a.observe(&Datum::Int(1));
        let mut s = a.export_state();
        s.nulls = s.rows_seen + 1;
        assert!(AttrStats::from_state(s).is_none());
        let mut s2 = a.export_state();
        s2.ndv_words = Vec::new();
        assert!(AttrStats::from_state(s2).is_none());
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = AttrStats::new(3);
        s.observe(&Datum::Int(1));
        s.clear();
        assert_eq!(s.rows_seen(), 0);
        assert!(s.min().is_none());
        assert!(s.histogram().is_none());
    }
}
