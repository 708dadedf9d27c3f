//! Per-table statistics registry and the estimator the optimizer consults.

use std::collections::HashMap;

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

use crate::attr::{AttrStats, AttrStatsState};
use crate::estimate::{default_selectivity, PredicateSketch, SelectivityEstimator};

/// All statistics known for one raw file, keyed by attribute index.
///
/// Populated on the fly by the scan operator; attributes no query has
/// touched have no entry — exactly the paper's "statistics only on requested
/// attributes".
#[derive(Debug, Default)]
pub struct TableStats {
    attrs: HashMap<usize, AttrStats>,
    /// Exact row count once any full scan has completed; before that, the
    /// max rows_seen across attributes serves as a lower bound.
    row_count: Option<u64>,
    /// Per-attribute observation frontier: rows `[0, frontier)` have already
    /// been fed into the accumulator (under the sampling stride). Scans skip
    /// rows below the frontier, so re-scans — and, crucially, concurrent
    /// scans whose side effects are merged one after another — observe every
    /// `(attr, row)` pair at most once. Kept separate from [`AttrStats`] so
    /// an advanced frontier alone never makes an attribute "covered".
    observed: HashMap<usize, u64>,
    /// Sampling stride used by the scan: every `sample_every`-th row of a
    /// scan feeds `observe`. 1 = every row.
    pub sample_every: u64,
}

impl TableStats {
    /// Empty registry with the given sampling stride.
    pub fn new(sample_every: u64) -> Self {
        TableStats {
            attrs: HashMap::new(),
            row_count: None,
            observed: HashMap::new(),
            sample_every: sample_every.max(1),
        }
    }

    /// Accumulator for `attr`, created on first touch.
    pub fn attr_mut(&mut self, attr: usize) -> &mut AttrStats {
        self.attrs
            .entry(attr)
            .or_insert_with(|| AttrStats::new(attr))
    }

    /// Whether the scan should feed `row` (a 0-based data-row index) into
    /// the accumulators under the sampling stride.
    ///
    /// This is the single source of truth for the scan's merge phase
    /// ([`Self::observe_column`]) and any reference model of it. The merge
    /// deliberately walks buffered values in global row order per attribute
    /// instead of merging per-partition accumulators: the reservoir sample
    /// is a sequential-stream algorithm whose state depends on arrival
    /// order, so an order-preserving walk is what keeps `scan_threads = N`
    /// statistics byte-identical to `scan_threads = 1`.
    #[inline]
    pub fn should_sample(&self, row: u64) -> bool {
        row.is_multiple_of(self.sample_every)
    }

    /// Observe one scan slice of `attr` — `col` holds its values for data
    /// rows `[row_base, row_base + col.len())` — from the attribute's
    /// observation frontier on, under the sampling stride: the rows
    /// [`Self::should_sample`] and [`Self::observed_upto`] select, through
    /// [`AttrStats::observe_column`]. The frontier itself is the caller's to
    /// advance ([`Self::advance_observed`]) once all its slices are in.
    pub fn observe_column(&mut self, attr: usize, col: &TypedColumn, row_base: u64) {
        let stride = self.sample_every;
        let first = self
            .observed_upto(attr)
            .max(row_base)
            .next_multiple_of(stride)
            - row_base;
        if first < col.len() as u64 {
            self.attr_mut(attr)
                .observe_column(col, first as usize..col.len(), stride as usize);
        }
    }

    /// Accumulator for `attr`, if any query has touched it.
    pub fn attr(&self, attr: usize) -> Option<&AttrStats> {
        self.attrs.get(&attr)
    }

    /// First row of `attr` not yet fed into the accumulators (0 when the
    /// attribute has never been observed). Scans observe only rows at or
    /// beyond this frontier.
    pub fn observed_upto(&self, attr: usize) -> u64 {
        self.observed.get(&attr).copied().unwrap_or(0)
    }

    /// Advance the observation frontier of `attr` to `upto` (monotone; a
    /// smaller value is ignored). Called when a scan that covered rows
    /// `[0, upto)` finishes — including the merge phase of a parallel or
    /// concurrent scan, which makes repeated merges of the same rows no-ops.
    pub fn advance_observed(&mut self, attr: usize, upto: u64) {
        let e = self.observed.entry(attr).or_insert(0);
        *e = (*e).max(upto);
    }

    /// Attributes with statistics, sorted.
    pub fn covered_attrs(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.attrs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Record the exact row count after a complete scan.
    pub fn set_row_count(&mut self, n: u64) {
        self.row_count = Some(n);
    }

    /// Exact row count if known.
    pub fn known_row_count(&self) -> Option<u64> {
        self.row_count
    }

    /// Reset everything (file replaced).
    pub fn clear(&mut self) {
        self.attrs.clear();
        self.observed.clear();
        self.row_count = None;
    }

    /// File grew: the exact count is stale but per-attribute accumulators
    /// stay valid as a sample of the prefix.
    pub fn note_appended(&mut self) {
        self.row_count = None;
    }

    /// Epoch quarantine: the backing file was truncated or rewritten, so
    /// every accumulator observed rows of a dead file epoch. Alias of
    /// [`Self::clear`] under the name the source-epoch layer uses.
    pub fn quarantine(&mut self) {
        self.clear();
    }

    /// Export the full registry state for snapshotting: every accumulator,
    /// the observation frontiers, and the exact row count when known.
    pub fn export_state(&self) -> TableStatsState {
        let mut attrs: Vec<AttrStatsState> =
            self.attrs.values().map(AttrStats::export_state).collect();
        attrs.sort_by_key(|a| a.attr);
        let mut observed: Vec<(usize, u64)> = self.observed.iter().map(|(&a, &f)| (a, f)).collect();
        observed.sort_unstable();
        TableStatsState {
            attrs,
            observed,
            row_count: self.row_count,
            sample_every: self.sample_every,
        }
    }

    /// Rebuild a registry from [`Self::export_state`]. Returns `None` when
    /// any accumulator fails validation or an accumulator's key disagrees
    /// with its recorded attribute — restored sidecars are untrusted input.
    pub fn from_state(state: TableStatsState) -> Option<Self> {
        let mut attrs = HashMap::new();
        for s in state.attrs {
            let attr = s.attr;
            let restored = AttrStats::from_state(s)?;
            if attrs.insert(attr, restored).is_some() {
                return None; // duplicate attribute entry
            }
        }
        Some(TableStats {
            attrs,
            row_count: state.row_count,
            observed: state.observed.into_iter().collect(),
            sample_every: state.sample_every.max(1),
        })
    }

    /// Selectivity with interior mutability over histogram rebuilds: this
    /// takes `&mut self` because histograms are built lazily from the
    /// reservoir. The optimizer holds the registry mutably during planning.
    pub fn selectivity_mut(&mut self, attr: usize, sketch: &PredicateSketch) -> f64 {
        let Some(stats) = self.attrs.get_mut(&attr) else {
            return default_selectivity(sketch);
        };
        if stats.rows_seen() == 0 {
            return default_selectivity(sketch);
        }
        let null_frac = stats.null_fraction();
        let nonnull = 1.0 - null_frac;
        let ndv = stats.ndv();
        match sketch {
            PredicateSketch::Eq(_) => (nonnull / ndv).clamp(0.0, 1.0),
            PredicateSketch::NotEq(_) => (nonnull * (1.0 - 1.0 / ndv)).clamp(0.0, 1.0),
            PredicateSketch::Lt(v) | PredicateSketch::Le(v) => match stats.histogram() {
                Some(h) => (nonnull * h.fraction_le(v)).clamp(0.0, 1.0),
                None => default_selectivity(sketch),
            },
            PredicateSketch::Gt(v) | PredicateSketch::Ge(v) => match stats.histogram() {
                Some(h) => (nonnull * (1.0 - h.fraction_le(v))).clamp(0.0, 1.0),
                None => default_selectivity(sketch),
            },
            PredicateSketch::Between(lo, hi) => match stats.histogram() {
                Some(h) => (nonnull * h.fraction_between(lo, hi)).clamp(0.0, 1.0),
                None => default_selectivity(sketch),
            },
            PredicateSketch::InList(n) => ((nonnull / ndv) * *n as f64).clamp(0.0, 1.0),
            PredicateSketch::IsNull => null_frac,
            PredicateSketch::IsNotNull => nonnull,
            PredicateSketch::StrPrefix(prefix) => {
                // Fraction of the sample matching the prefix.
                prefix_fraction(stats, prefix).unwrap_or_else(|| default_selectivity(sketch))
            }
            PredicateSketch::Opaque => default_selectivity(sketch),
        }
    }
}

/// Serializable snapshot of a [`TableStats`] registry.
#[derive(Debug, Clone)]
pub struct TableStatsState {
    /// Per-attribute accumulator states, sorted by attribute.
    pub attrs: Vec<AttrStatsState>,
    /// `(attr, frontier)` observation frontiers, sorted by attribute.
    pub observed: Vec<(usize, u64)>,
    /// Exact row count when a full scan has completed.
    pub row_count: Option<u64>,
    /// Sampling stride in force when the snapshot was taken.
    pub sample_every: u64,
}

/// Estimate prefix-match selectivity by scanning the reservoir sample.
fn prefix_fraction(stats: &mut AttrStats, prefix: &str) -> Option<f64> {
    // The reservoir lives behind the accumulator; expose through histogram's
    // underlying sample by re-deriving from min/max is wrong, so instead we
    // rely on a dedicated sample walk.
    let sample = stats.sample();
    if sample.is_empty() {
        return None;
    }
    let hits = sample
        .iter()
        .filter(|d| matches!(d, Datum::Str(s) if s.starts_with(prefix)))
        .count();
    Some(hits as f64 / sample.len() as f64)
}

/// Immutable estimator snapshot facade over `TableStats`.
///
/// The engine's optimizer takes a `&mut TableStats` during planning (see
/// [`TableStats::selectivity_mut`]); this wrapper adapts it to the shared
/// [`SelectivityEstimator`] trait via a `RefCell`, keeping the trait object
/// usable where mutation is awkward.
pub struct StatsEstimator<'a> {
    inner: std::cell::RefCell<&'a mut TableStats>,
}

impl<'a> StatsEstimator<'a> {
    /// Wrap a mutable registry.
    pub fn new(stats: &'a mut TableStats) -> Self {
        StatsEstimator {
            inner: std::cell::RefCell::new(stats),
        }
    }
}

impl SelectivityEstimator for StatsEstimator<'_> {
    fn row_count(&self) -> Option<u64> {
        self.inner.borrow().known_row_count()
    }

    fn selectivity(&self, attr: usize, sketch: &PredicateSketch) -> f64 {
        self.inner.borrow_mut().selectivity_mut(attr, sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `observe_column` over arbitrary slices must leave exactly the state
    /// of the `observe` loop it stands in for: rows seen, NULLs, bounds,
    /// reservoir sample and RNG position, NDV words — and no accumulator at
    /// all where nothing was observed.
    #[test]
    fn observe_column_equals_the_observe_loop() {
        use nodb_rawcsv::ColumnType;
        let value = |ty: ColumnType, i: usize| -> Datum {
            let k = i.wrapping_mul(2_654_435_761) % 10_007;
            if k.is_multiple_of(13) {
                return Datum::Null;
            }
            match ty {
                ColumnType::Int => Datum::Int(k as i64 - 5_000),
                // Integral floats hash like the integer; the rest by bits.
                ColumnType::Float if k.is_multiple_of(3) => Datum::Float((k % 50) as f64),
                ColumnType::Float => Datum::Float(k as f64 / 7.0),
                ColumnType::Bool => Datum::Bool(k.is_multiple_of(2)),
                ColumnType::Str => Datum::Str("abracadabra"[..k % 12].into()),
            }
        };
        let types = [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Bool,
            ColumnType::Str,
        ];
        // More rows than the reservoir holds, so the RNG is drawn from.
        let total = 3_000usize;
        for (attr, &ty) in types.iter().enumerate() {
            let rows: Vec<Datum> = (0..total).map(|i| value(ty, i)).collect();
            for stride in [1u64, 7] {
                for frontier in [0u64, 1_234, total as u64 + 5] {
                    for cuts in [vec![0, total], vec![0, 1, 700, 700, 1_240, 2_999, total]] {
                        let tag = format!("{ty:?} stride {stride} frontier {frontier} {cuts:?}");
                        let (mut by_value, mut by_column) =
                            (TableStats::new(stride), TableStats::new(stride));
                        for t in [&mut by_value, &mut by_column] {
                            t.advance_observed(attr, frontier);
                        }
                        for (row, d) in rows.iter().enumerate() {
                            if by_value.should_sample(row as u64) && row as u64 >= frontier {
                                by_value.attr_mut(attr).observe(d);
                            }
                        }
                        for w in cuts.windows(2) {
                            let mut col = TypedColumn::new(ty);
                            rows[w[0]..w[1]].iter().for_each(|d| col.push(d));
                            by_column.observe_column(attr, &col, w[0] as u64);
                        }
                        assert_eq!(
                            format!("{:?}", by_value.export_state()),
                            format!("{:?}", by_column.export_state()),
                            "{tag}"
                        );
                        assert_eq!(
                            by_column.attr(attr).is_some(),
                            frontier < total as u64,
                            "{tag}: accumulator only where something was observed"
                        );
                    }
                }
            }
        }
    }

    fn observed(n: i64) -> TableStats {
        let mut t = TableStats::new(1);
        let a = t.attr_mut(0);
        for i in 0..n {
            a.observe(&Datum::Int(i));
        }
        t.set_row_count(n as u64);
        t
    }

    #[test]
    fn untouched_attr_uses_defaults() {
        let mut t = TableStats::new(1);
        let s = t.selectivity_mut(5, &PredicateSketch::Eq(Datum::Int(1)));
        assert_eq!(s, crate::estimate::defaults::EQ);
    }

    #[test]
    fn eq_uses_ndv() {
        let mut t = observed(1000);
        let s = t.selectivity_mut(0, &PredicateSketch::Eq(Datum::Int(5)));
        assert!((s - 0.001).abs() < 0.0015, "eq sel = {s}");
    }

    #[test]
    fn range_uses_histogram() {
        let mut t = observed(1000);
        let s = t.selectivity_mut(0, &PredicateSketch::Lt(Datum::Int(250)));
        assert!((s - 0.25).abs() < 0.08, "lt sel = {s}");
        let g = t.selectivity_mut(0, &PredicateSketch::Gt(Datum::Int(250)));
        assert!((g - 0.75).abs() < 0.08, "gt sel = {g}");
    }

    #[test]
    fn between_estimates_interval() {
        let mut t = observed(1000);
        let s = t.selectivity_mut(
            0,
            &PredicateSketch::Between(Datum::Int(100), Datum::Int(300)),
        );
        assert!((s - 0.2).abs() < 0.08, "between sel = {s}");
    }

    #[test]
    fn null_fraction_drives_is_null() {
        let mut t = TableStats::new(1);
        let a = t.attr_mut(0);
        for i in 0..100 {
            if i % 4 == 0 {
                a.observe(&Datum::Null);
            } else {
                a.observe(&Datum::Int(i));
            }
        }
        let s = t.selectivity_mut(0, &PredicateSketch::IsNull);
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn observation_frontier_is_monotone_and_cleared() {
        let mut t = TableStats::new(1);
        assert_eq!(t.observed_upto(2), 0);
        t.advance_observed(2, 100);
        t.advance_observed(2, 50); // smaller is ignored
        assert_eq!(t.observed_upto(2), 100);
        // Frontier alone does not create coverage.
        assert!(t.covered_attrs().is_empty());
        t.clear();
        assert_eq!(t.observed_upto(2), 0);
    }

    #[test]
    fn covered_attrs_lists_touched_only() {
        let mut t = TableStats::new(1);
        t.attr_mut(3).observe(&Datum::Int(1));
        t.attr_mut(1).observe(&Datum::Int(1));
        assert_eq!(t.covered_attrs(), vec![1, 3]);
    }

    #[test]
    fn estimator_facade_answers() {
        let mut t = observed(100);
        let e = StatsEstimator::new(&mut t);
        assert_eq!(e.row_count(), Some(100));
        let s = e.selectivity(0, &PredicateSketch::Lt(Datum::Int(50)));
        assert!(s > 0.3 && s < 0.7);
    }

    #[test]
    fn table_state_round_trip_preserves_everything() {
        let mut t = TableStats::new(2);
        for i in 0..500 {
            t.attr_mut(0).observe(&Datum::Int(i));
            if i % 3 == 0 {
                t.attr_mut(4).observe(&Datum::from("abc"));
            }
        }
        t.advance_observed(0, 500);
        t.advance_observed(4, 500);
        t.set_row_count(500);

        let mut r = TableStats::from_state(t.export_state()).expect("consistent");
        assert_eq!(r.covered_attrs(), t.covered_attrs());
        assert_eq!(r.known_row_count(), t.known_row_count());
        assert_eq!(r.sample_every, t.sample_every);
        for &a in &t.covered_attrs() {
            assert_eq!(r.observed_upto(a), t.observed_upto(a));
            let (ta, ra) = (t.attr(a).unwrap(), r.attr(a).unwrap());
            assert_eq!(ta.rows_seen(), ra.rows_seen());
            assert_eq!(ta.sample(), ra.sample());
        }
        // Selectivity estimates (which rebuild histograms lazily) agree.
        let sk = PredicateSketch::Lt(Datum::Int(100));
        assert_eq!(t.selectivity_mut(0, &sk), r.selectivity_mut(0, &sk));
    }

    #[test]
    fn table_from_state_rejects_duplicates() {
        let mut t = TableStats::new(1);
        t.attr_mut(0).observe(&Datum::Int(1));
        let mut s = t.export_state();
        let dup = s.attrs[0].clone();
        s.attrs.push(dup);
        assert!(TableStats::from_state(s).is_none());
    }

    #[test]
    fn prefix_selectivity_from_sample() {
        let mut t = TableStats::new(1);
        let a = t.attr_mut(0);
        for s in ["apple", "apricot", "banana", "avocado"] {
            a.observe(&Datum::from(s));
        }
        let s = t.selectivity_mut(0, &PredicateSketch::StrPrefix("ap".into()));
        assert!((s - 0.5).abs() < 1e-9, "prefix sel = {s}");
    }
}
