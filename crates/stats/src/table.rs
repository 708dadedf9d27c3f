//! Per-table statistics registry and the estimator the optimizer consults.

use std::collections::HashMap;

use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

use crate::attr::{AttrStats, AttrStatsState};
use crate::estimate::{default_selectivity, PredicateSketch, SelectivityEstimator};
use crate::sketch::ColumnSketch;

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
    /// been counted into the accumulator (and offered to its reservoir under
    /// the sampling stride). Scans skip rows below the frontier, so re-scans
    /// — and, crucially, concurrent scans whose side effects are merged one
    /// after another — observe every `(attr, row)` pair at most once. Kept separate from [`AttrStats`] so
    /// an advanced frontier alone never makes an attribute "covered".
    observed: HashMap<usize, u64>,
    /// Sampling stride of the reservoir: only rows whose number is a
    /// multiple of `sample_every` are offered to it (1 = every row).
    /// Counts, bounds and NDV see every row whatever the stride.
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

    /// Whether data row `row` (0-based) is offered to the reservoir under
    /// the sampling stride. The stride gates reservoir offers only: counts,
    /// bounds and NDV see every row.
    ///
    /// The one sampling rule: [`Self::observe`] applies it row by row, and
    /// the scan's install ([`Self::absorb`]) a 64-row word at a time.
    #[inline]
    pub fn should_sample(&self, row: u64) -> bool {
        row.is_multiple_of(self.sample_every)
    }

    /// Observe the value of `attr` at data row `row`: counted, and a
    /// non-null value bounded and hashed, always; offered to the reservoir
    /// when [`Self::should_sample`] selects the row. Does not move the
    /// observation frontier. The reference behaviour, row by row, of what a
    /// scan installs slice by slice through [`Self::absorb`].
    pub fn observe(&mut self, attr: usize, row: u64, d: &Datum) {
        let offer = self.should_sample(row);
        self.attr_mut(attr).note(d, offer);
    }

    /// Install one scan's slices of `attr`, in row order — each
    /// `(col, sketch, row_base)` holds the slice's values for data rows
    /// `[row_base, row_base + col.len())` and [`ColumnSketch::build`] over
    /// its rows from the attribute's plan-time frontier on (or over all of
    /// them) — from the attribute's observation frontier on, and advance
    /// the frontier past them.
    ///
    /// Equal to [`Self::observe`] on each of those rows in row order: the
    /// sketches' bits and bounds are merged (rows a sketch covers below the
    /// frontier were observed before, so they add nothing), the rows are
    /// counted by popcount, and the reservoir skips straight to the rows it
    /// accepts — of which only the last accepted into each slot is read,
    /// once every slice is in. A slice wholly below the frontier is a
    /// no-op, so absorbing a slice twice equals absorbing it once.
    pub fn absorb<'a>(
        &mut self,
        attr: usize,
        slices: impl IntoIterator<Item = (&'a TypedColumn, &'a ColumnSketch, u64)>,
    ) {
        let stride = self.sample_every;
        let mut frontier = self.observed_upto(attr);
        // Per reservoir slot, the column and row of its latest acceptance.
        let mut taken: Vec<Option<(&TypedColumn, usize)>> = Vec::new();
        for (col, sketch, row_base) in slices {
            let end = row_base + col.len() as u64;
            if frontier >= end {
                continue;
            }
            let from = (frontier.max(row_base) - row_base) as usize; // lint: cast-ok below col.len()
            let accept = |slot: usize, row| {
                if taken.len() <= slot {
                    taken.resize(slot + 1, None);
                }
                taken[slot] = Some((col, row));
            };
            self.attr_mut(attr)
                .absorb(col, sketch, from, row_base, stride, accept);
            frontier = end;
        }
        if let Some(stats) = self.attrs.get_mut(&attr) {
            for (slot, t) in taken.into_iter().enumerate() {
                if let Some((col, row)) = t {
                    // An accepted row is a row of its column, never NULL.
                    stats.set_sample(slot, col.datum(row).unwrap_or(Datum::Null));
                }
            }
        }
        self.advance_observed(attr, frontier);
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
    /// smaller value is ignored) once rows `[0, upto)` are observed.
    /// [`Self::absorb`] advances it past every slice it installs, which
    /// makes repeated installs of the same rows — a re-run, a concurrent
    /// scan's merge — no-ops.
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
    // Neither the bounds nor the histogram's buckets say how many strings
    // share a prefix; the fraction of the sample that does is the estimate.
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

    /// Absorbing worker sketches slice by slice must leave exactly the
    /// state of the row-at-a-time `observe` replay it stands in for: rows
    /// seen, NULLs, bounds, NDV words, reservoir sample, RNG position,
    /// Algorithm L's weight and next acceptance, frontier — and no
    /// accumulator at all where nothing is left to observe. Covers every column
    /// type (floats with NaN and -0.0), NULL densities none / half / all,
    /// fixed and random slice cuts with the frontier inside a slice, a
    /// sketch over the whole slice (rows unknown to the worker) or from the
    /// plan-time frontier, strides 1 and 7, a slice absorbed twice, and a
    /// scan's slices absorbed in one call or one call each.
    #[test]
    fn absorbed_sketches_equal_the_observe_replay() {
        use nodb_rawcsv::ColumnType;
        let value = |ty: ColumnType, nulls: u32, i: usize| -> Datum {
            let k = i.wrapping_mul(2_654_435_761) % 10_007;
            if nulls == 2 || (nulls == 1 && k % 2 == 1) {
                return Datum::Null;
            }
            match ty {
                ColumnType::Int => Datum::Int(k as i64 - 5_000),
                // Integral floats hash like the integer; the rest by bits.
                ColumnType::Float => match k % 5 {
                    0 => Datum::Float((k % 50) as f64),
                    1 if k.is_multiple_of(3) => Datum::Float(f64::NAN),
                    1 => Datum::Float(-0.0),
                    2 => Datum::Float(0.0),
                    _ => Datum::Float(k as f64 / -7.0),
                },
                ColumnType::Bool => Datum::Bool(k.is_multiple_of(4)),
                ColumnType::Str => Datum::Str("abracadabra, sim sala bim"[..k % 26].into()),
            }
        };
        let types = [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Bool,
            ColumnType::Str,
        ];
        // More rows than the reservoir holds, so the skips are exercised
        // (fewer beyond it under the interpreter).
        let total = if cfg!(miri) { 1_100 } else { 3_000 };
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut random_cuts = || {
            let mut cuts: Vec<usize> = (0..6)
                .map(|_| {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (lcg >> 33) as usize % total
                })
                .chain([0, total])
                .collect();
            cuts.sort_unstable();
            cuts
        };
        for (attr, &ty) in types.iter().enumerate() {
            for nulls in 0..3 {
                let rows: Vec<Datum> = (0..total).map(|i| value(ty, nulls, i)).collect();
                for stride in [1u64, 7] {
                    for frontier in [0u64, 1_034, total as u64 + 5] {
                        let cut_sets = [
                            vec![0, total],
                            vec![0, 1, 700, 700, 1_040, total - 1, total],
                            random_cuts(),
                            random_cuts(),
                        ];
                        for (set, cuts) in cut_sets.into_iter().enumerate() {
                            for whole in [false, true] {
                                let tag = format!(
                                    "{ty:?} nulls {nulls} stride {stride} frontier {frontier} \
                                     {cuts:?} whole {whole}"
                                );
                                let (mut by_value, mut by_sketch) =
                                    (TableStats::new(stride), TableStats::new(stride));
                                // Rows below the frontier were observed by
                                // an earlier scan.
                                for t in [&mut by_value, &mut by_sketch] {
                                    for (row, d) in rows.iter().enumerate() {
                                        if row as u64 >= frontier {
                                            break;
                                        }
                                        t.observe(attr, row as u64, d);
                                    }
                                    t.advance_observed(attr, frontier);
                                }
                                for (row, d) in rows.iter().enumerate().skip(frontier as usize) {
                                    by_value.observe(attr, row as u64, d);
                                }
                                by_value.advance_observed(attr, total as u64);
                                let mut slices = Vec::new();
                                for w in cuts.windows(2) {
                                    let mut col = TypedColumn::new(ty);
                                    rows[w[0]..w[1]].iter().for_each(|d| col.push(d));
                                    let from = if whole {
                                        0
                                    } else {
                                        (frontier as usize).saturating_sub(w[0])
                                    };
                                    if from >= col.len() {
                                        continue; // the worker builds no sketch
                                    }
                                    let sketch = ColumnSketch::build(&col, from);
                                    slices.push((col, sketch, w[0] as u64));
                                }
                                let mut parts: Vec<_> =
                                    slices.iter().map(|(c, s, b)| (c, s, *b)).collect();
                                // The second slice comes twice.
                                if let Some(&again) = parts.get(1) {
                                    parts.insert(2, again);
                                }
                                // A scan's slices in one call, or one per
                                // call.
                                if (set + usize::from(whole)).is_multiple_of(2) {
                                    by_sketch.absorb(attr, parts);
                                } else {
                                    parts.into_iter().for_each(|p| by_sketch.absorb(attr, [p]));
                                }
                                assert_eq!(
                                    format!("{:?}", by_value.export_state()),
                                    format!("{:?}", by_sketch.export_state()),
                                    "{tag}"
                                );
                            }
                        }
                    }
                }
            }
            // A slice wholly below the frontier creates no accumulator.
            let mut col = TypedColumn::new(ty);
            col.push(&value(ty, 0, 1));
            let mut t = TableStats::new(1);
            t.advance_observed(attr, 5);
            t.absorb(attr, [(&col, &ColumnSketch::build(&col, 0), 2)]);
            assert!(t.attr(attr).is_none(), "{ty:?}");
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
