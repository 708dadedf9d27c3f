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
    /// Per-attribute observation frontier: rows `[0, frontier)` have already
    /// been counted into the accumulator. Scans skip rows below the
    /// frontier, so re-scans — and, crucially, concurrent scans whose side
    /// effects are merged one after another — observe every `(attr, row)`
    /// pair at most once. Kept separate from [`AttrStats`] so an advanced
    /// frontier alone never makes an attribute "covered".
    observed: HashMap<usize, u64>,
}

impl TableStats {
    /// Empty registry, the same as [`TableStats::default`]. The argument is
    /// ignored: this constructor is kept only for the benchmark package's
    /// `stats.observe_ns_per_value` probe, which calls `TableStats::new(1)`.
    pub fn new(_unused: u64) -> Self {
        TableStats::default()
    }

    /// Accumulator for `attr`, created on first touch.
    pub fn attr_mut(&mut self, attr: usize) -> &mut AttrStats {
        self.attrs
            .entry(attr)
            .or_insert_with(|| AttrStats::new(attr))
    }

    /// Observe one value of `attr`: counted, and a non-null value bounded.
    /// Does not move the observation frontier. The reference
    /// behaviour, row by row, of what a scan installs slice by slice
    /// through [`Self::absorb`].
    pub fn observe(&mut self, attr: usize, d: &Datum) {
        self.attr_mut(attr).observe(d);
    }

    /// Install one scan's slices of `attr`, in row order — each
    /// `(col, sketch, row_base)` holds the slice's values for data rows
    /// `[row_base, row_base + col.len())` and [`ColumnSketch::build`] over
    /// its rows from the attribute's plan-time frontier on (or over all of
    /// them) — from the attribute's observation frontier on, and advance
    /// the frontier past them.
    ///
    /// Equal to [`Self::observe`] on each of those rows in row order: the
    /// sketches' bounds are merged (rows a sketch covers below the
    /// frontier were observed before, so they add nothing) and the rows are
    /// counted by popcount. A slice wholly below the frontier is a no-op,
    /// so absorbing a slice twice equals absorbing it once.
    pub fn absorb<'a>(
        &mut self,
        attr: usize,
        slices: impl IntoIterator<Item = (&'a TypedColumn, &'a ColumnSketch, u64)>,
    ) {
        let mut frontier = self.observed_upto(attr);
        for (col, sketch, row_base) in slices {
            let end = row_base + col.len() as u64;
            if frontier >= end {
                continue;
            }
            let from = (frontier.max(row_base) - row_base) as usize; // below col.len()
            self.attr_mut(attr).absorb(col, sketch, from);
            frontier = end;
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

    /// Reset everything (file replaced).
    pub fn clear(&mut self) {
        self.attrs.clear();
        self.observed.clear();
    }

    /// Epoch quarantine: the backing file was truncated or rewritten, so
    /// every accumulator observed rows of a dead file epoch. Alias of
    /// [`Self::clear`] under the name the source-epoch layer uses.
    pub fn quarantine(&mut self) {
        self.clear();
    }

    /// Export the full registry state for snapshotting: every accumulator
    /// and the observation frontiers.
    pub fn export_state(&self) -> TableStatsState {
        let mut attrs: Vec<AttrStatsState> =
            self.attrs.values().map(AttrStats::export_state).collect();
        attrs.sort_by_key(|a| a.attr);
        let mut observed: Vec<(usize, u64)> = self.observed.iter().map(|(&a, &f)| (a, f)).collect();
        observed.sort_unstable();
        TableStatsState { attrs, observed }
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
            observed: state.observed.into_iter().collect(),
        })
    }
}

/// The planner's estimates. `IS [NOT] NULL` comes from the counts and a
/// range from the observed bounds (`range_fraction`); equality, `<>`, IN,
/// any other shape the statistics say nothing about, and an attribute no
/// scan has observed get [`default_selectivity`].
impl SelectivityEstimator for TableStats {
    fn selectivity(&self, attr: usize, sketch: &PredicateSketch) -> f64 {
        let Some(stats) = self.attrs.get(&attr).filter(|s| s.rows_seen() > 0) else {
            return default_selectivity(sketch);
        };
        let null_frac = stats.null_fraction();
        let nonnull = 1.0 - null_frac;
        match sketch {
            PredicateSketch::IsNull => null_frac,
            PredicateSketch::IsNotNull => nonnull,
            _ => range_fraction(stats, sketch).map_or_else(
                || default_selectivity(sketch),
                |f| (nonnull * f).clamp(0.0, 1.0),
            ),
        }
    }
}

/// Fraction of `stats`' non-NULL values a range sketch keeps, assuming them
/// spread uniformly between the observed minimum and maximum (the textbook
/// uniform assumption). `None` unless both bounds are finite numbers and
/// every constant is a non-NaN number: a string or Bool range, a NaN bound,
/// an attribute with no bounds, or a non-range shape.
fn range_fraction(stats: &AttrStats, sketch: &PredicateSketch) -> Option<f64> {
    let (lo, hi) = (stats.min()?.as_float()?, stats.max()?.as_float()?);
    if !lo.is_finite() || !hi.is_finite() {
        return None;
    }
    // Fraction below `v` (at or below it when `or_equal`). With `lo == hi`
    // every value equals the bound, so it is exactly 0 or 1.
    let below = |v: &Datum, or_equal: bool| -> Option<f64> {
        let x = v.as_float().filter(|x| !x.is_nan())?;
        Some(if x < lo || (x == lo && !or_equal) {
            0.0
        } else if x > hi || (x == hi && or_equal) {
            1.0
        } else {
            (x - lo) / (hi - lo)
        })
    };
    match sketch {
        PredicateSketch::Lt(v) => below(v, false),
        PredicateSketch::Le(v) => below(v, true),
        PredicateSketch::Gt(v) => below(v, true).map(|f| 1.0 - f),
        PredicateSketch::Ge(v) => below(v, false).map(|f| 1.0 - f),
        PredicateSketch::Between(a, b) => Some((below(b, true)? - below(a, false)?).max(0.0)),
        _ => None,
    }
}

/// Serializable snapshot of a [`TableStats`] registry.
#[derive(Debug, Clone)]
pub struct TableStatsState {
    /// Per-attribute accumulator states, sorted by attribute.
    pub attrs: Vec<AttrStatsState>,
    /// `(attr, frontier)` observation frontiers, sorted by attribute.
    pub observed: Vec<(usize, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::defaults;

    /// Absorbing worker sketches slice by slice must leave exactly the
    /// state of the row-at-a-time `observe` replay it stands in for: rows
    /// seen, NULLs, bounds, frontier — and no accumulator at all
    /// where nothing is left to observe. Covers every column type (floats
    /// with NaN and -0.0), NULL densities none / half / all, fixed and
    /// random slice cuts with the frontier inside a slice, a sketch over
    /// the whole slice (rows unknown to the worker) or from the plan-time
    /// frontier, a slice absorbed twice, and a scan's slices absorbed in
    /// one call or one call each.
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
        // Several null-mask words (fewer under the interpreter).
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
                                "{ty:?} nulls {nulls} frontier {frontier} {cuts:?} whole {whole}"
                            );
                            let (mut by_value, mut by_sketch) =
                                (TableStats::default(), TableStats::default());
                            // Rows below the frontier were observed by
                            // an earlier scan.
                            for t in [&mut by_value, &mut by_sketch] {
                                for (row, d) in rows.iter().enumerate() {
                                    if row as u64 >= frontier {
                                        break;
                                    }
                                    t.observe(attr, d);
                                }
                                t.advance_observed(attr, frontier);
                            }
                            for d in rows.iter().skip(frontier as usize) {
                                by_value.observe(attr, d);
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
            // A slice wholly below the frontier creates no accumulator.
            let mut col = TypedColumn::new(ty);
            col.push(&value(ty, 0, 1));
            let mut t = TableStats::default();
            t.advance_observed(attr, 5);
            t.absorb(attr, [(&col, &ColumnSketch::build(&col, 0), 2)]);
            assert!(t.attr(attr).is_none(), "{ty:?}");
        }
    }

    fn observed(n: i64) -> TableStats {
        let mut t = TableStats::default();
        let a = t.attr_mut(0);
        for i in 0..n {
            a.observe(&Datum::Int(i));
        }
        t
    }

    #[test]
    fn untouched_attr_uses_defaults() {
        let t = TableStats::default();
        let s = t.selectivity(5, &PredicateSketch::Eq(Datum::Int(1)));
        assert_eq!(s, defaults::EQ);
    }

    /// `=`, `<>` and IN on an observed attribute keep the defaults a
    /// fresh table answers with, while `IS [NOT] NULL` and a range on the
    /// same attribute read its counts and bounds.
    #[test]
    fn equality_keeps_the_default_on_observed_attributes() {
        let mut t = TableStats::default();
        for i in 0..100 {
            t.observe(
                0,
                &if i % 4 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i)
                },
            );
        }
        for sk in [
            PredicateSketch::Eq(Datum::Int(5)),
            PredicateSketch::NotEq(Datum::Int(5)),
            PredicateSketch::InList(1),
            PredicateSketch::InList(7),
        ] {
            assert_eq!(t.selectivity(0, &sk), default_selectivity(&sk), "{sk:?}");
        }
        assert_eq!(t.selectivity(0, &PredicateSketch::IsNull), 0.25);
        assert_eq!(t.selectivity(0, &PredicateSketch::IsNotNull), 0.75);
        // Non-NULL values 1..=99: 49 of the 98 steps lie below 50.
        let lt = t.selectivity(0, &PredicateSketch::Lt(Datum::Int(50)));
        assert!((lt - 0.75 * 49.0 / 98.0).abs() < 1e-9, "lt sel = {lt}");
    }

    /// Ranges interpolate between the observed bounds, scaled by the
    /// non-NULL fraction.
    #[test]
    fn range_interpolates_between_bounds() {
        let t = observed(1001); // 0..=1000
        let sel = |sk: PredicateSketch| t.selectivity(0, &sk);
        assert!((sel(PredicateSketch::Lt(Datum::Int(250))) - 0.25).abs() < 1e-9);
        assert!((sel(PredicateSketch::Gt(Datum::Int(250))) - 0.75).abs() < 1e-9);
        let between = sel(PredicateSketch::Between(Datum::Int(100), Datum::Int(300)));
        assert!((between - 0.2).abs() < 1e-9, "between sel = {between}");
        // An empty interval, and one past the maximum.
        let empty = PredicateSketch::Between(Datum::Int(300), Datum::Int(100));
        assert_eq!(sel(empty), 0.0);
        let past = sel(PredicateSketch::Between(Datum::Int(900), Datum::Int(5_000)));
        assert!((past - 0.1).abs() < 1e-9, "past sel = {past}");

        // A quarter NULL: every range shrinks by the non-NULL fraction.
        let mut t = TableStats::default();
        let a = t.attr_mut(0);
        for i in 0..=1000 {
            a.observe(&Datum::Int(i));
        }
        for _ in 0..1001 / 3 {
            a.observe(&Datum::Null);
        }
        let nonnull = 1.0 - t.attr(0).unwrap().null_fraction();
        let s = t.selectivity(0, &PredicateSketch::Le(Datum::Int(500)));
        assert!((s - 0.5 * nonnull).abs() < 1e-9, "le sel = {s}");
    }

    /// Constants outside the bounds keep all or none of the non-NULL rows.
    #[test]
    fn range_outside_bounds_is_all_or_nothing() {
        let t = observed(100); // 0..=99
        let sel = |sk: PredicateSketch| t.selectivity(0, &sk);
        assert_eq!(sel(PredicateSketch::Lt(Datum::Int(-5))), 0.0);
        assert_eq!(sel(PredicateSketch::Ge(Datum::Int(-5))), 1.0);
        assert_eq!(sel(PredicateSketch::Le(Datum::Int(500))), 1.0);
        assert_eq!(sel(PredicateSketch::Gt(Datum::Int(500))), 0.0);
        // At the bounds themselves, strictness decides.
        assert_eq!(sel(PredicateSketch::Lt(Datum::Int(0))), 0.0);
        assert_eq!(sel(PredicateSketch::Le(Datum::Int(99))), 1.0);
        assert_eq!(sel(PredicateSketch::Gt(Datum::Int(99))), 0.0);
    }

    /// A column whose every value is the same: 0 or the whole non-NULL
    /// fraction, never a division by zero.
    #[test]
    fn range_over_one_value_is_zero_or_nonnull() {
        let mut t = TableStats::default();
        let a = t.attr_mut(0);
        for i in 0..40 {
            a.observe(&if i % 4 == 0 {
                Datum::Null
            } else {
                Datum::Int(7)
            });
        }
        let sel = |sk: PredicateSketch| t.selectivity(0, &sk);
        assert_eq!(sel(PredicateSketch::Lt(Datum::Int(7))), 0.0);
        assert_eq!(sel(PredicateSketch::Le(Datum::Int(7))), 0.75);
        assert_eq!(sel(PredicateSketch::Gt(Datum::Int(7))), 0.0);
        assert_eq!(sel(PredicateSketch::Ge(Datum::Int(7))), 0.75);
        assert_eq!(sel(PredicateSketch::Lt(Datum::Int(8))), 0.75);
        assert_eq!(sel(PredicateSketch::Gt(Datum::Int(6))), 0.75);
        let around = PredicateSketch::Between(Datum::Int(7), Datum::Int(7));
        assert_eq!(sel(around), 0.75);
    }

    /// Int columns against Float constants (and the reverse) compare as
    /// `f64`.
    #[test]
    fn range_mixes_int_and_float() {
        let t = observed(101); // 0..=100
        let s = t.selectivity(0, &PredicateSketch::Lt(Datum::Float(25.5)));
        assert!((s - 0.255).abs() < 1e-9, "lt sel = {s}");
        let mut f = TableStats::default();
        f.attr_mut(0).observe(&Datum::Float(0.0));
        f.attr_mut(0).observe(&Datum::Float(10.0));
        let s = f.selectivity(0, &PredicateSketch::Ge(Datum::Int(4)));
        assert!((s - 0.6).abs() < 1e-9, "ge sel = {s}");
    }

    /// Where the bounds cannot be interpolated the default stays: a NaN
    /// bound or constant, a string or Bool column, an all-NULL column, a
    /// prefix match.
    #[test]
    fn range_without_numeric_bounds_keeps_the_default() {
        let lt = PredicateSketch::Lt(Datum::Int(5));
        let mut nan = TableStats::default();
        for v in [1.0, f64::NAN, 3.0] {
            nan.attr_mut(0).observe(&Datum::Float(v));
        }
        assert!(matches!(nan.attr(0).unwrap().max(), Some(Datum::Float(v)) if v.is_nan()));
        assert_eq!(nan.selectivity(0, &lt), defaults::RANGE);
        let t = observed(100);
        let nan_const = PredicateSketch::Lt(Datum::Float(f64::NAN));
        assert_eq!(t.selectivity(0, &nan_const), defaults::RANGE);
        let str_const = PredicateSketch::Gt(Datum::from("m"));
        assert_eq!(t.selectivity(0, &str_const), defaults::RANGE);

        let mut strs = TableStats::default();
        for s in ["apple", "apricot", "banana", "avocado"] {
            strs.attr_mut(0).observe(&Datum::from(s));
        }
        let s_lt = PredicateSketch::Lt(Datum::from("b"));
        assert_eq!(strs.selectivity(0, &s_lt), defaults::RANGE);
        let s_between = PredicateSketch::Between(Datum::from("a"), Datum::from("b"));
        assert_eq!(strs.selectivity(0, &s_between), defaults::BETWEEN);
        assert_eq!(
            strs.selectivity(0, &PredicateSketch::StrPrefix),
            defaults::PREFIX
        );

        let mut bools = TableStats::default();
        bools.attr_mut(0).observe(&Datum::Bool(false));
        bools.attr_mut(0).observe(&Datum::Bool(true));
        let b_ge = PredicateSketch::Ge(Datum::Bool(true));
        assert_eq!(bools.selectivity(0, &b_ge), defaults::RANGE);

        let mut nulls = TableStats::default();
        for _ in 0..10 {
            nulls.attr_mut(0).observe(&Datum::Null);
        }
        assert_eq!(nulls.selectivity(0, &lt), defaults::RANGE);
        assert_eq!(nulls.selectivity(0, &PredicateSketch::IsNull), 1.0);
    }

    #[test]
    fn null_fraction_drives_is_null() {
        let mut t = TableStats::default();
        let a = t.attr_mut(0);
        for i in 0..100 {
            if i % 4 == 0 {
                a.observe(&Datum::Null);
            } else {
                a.observe(&Datum::Int(i));
            }
        }
        let s = t.selectivity(0, &PredicateSketch::IsNull);
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn observation_frontier_is_monotone_and_cleared() {
        let mut t = TableStats::default();
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
        let mut t = TableStats::default();
        t.attr_mut(3).observe(&Datum::Int(1));
        t.attr_mut(1).observe(&Datum::Int(1));
        assert_eq!(t.covered_attrs(), vec![1, 3]);
    }

    #[test]
    fn table_state_round_trip_preserves_everything() {
        let mut t = TableStats::default();
        for i in 0..500 {
            t.attr_mut(0).observe(&Datum::Int(i));
            if i % 3 == 0 {
                t.attr_mut(4).observe(&Datum::from("abc"));
            }
        }
        t.advance_observed(0, 500);
        t.advance_observed(4, 500);

        let r = TableStats::from_state(t.export_state()).expect("consistent");
        assert_eq!(
            format!("{:?}", r.export_state()),
            format!("{:?}", t.export_state())
        );
        assert_eq!(r.covered_attrs(), t.covered_attrs());
        let sk = PredicateSketch::Lt(Datum::Int(100));
        assert_eq!(t.selectivity(0, &sk), r.selectivity(0, &sk));
    }

    #[test]
    fn table_from_state_rejects_duplicates() {
        let mut t = TableStats::default();
        t.attr_mut(0).observe(&Datum::Int(1));
        let mut s = t.export_state();
        let dup = s.attrs[0].clone();
        s.attrs.push(dup);
        assert!(TableStats::from_state(s).is_none());
    }
}
