//! Selectivity-estimation vocabulary shared between the statistics store and
//! the query optimizer.
//!
//! The engine describes each conjunct as a [`PredicateSketch`] — just enough
//! structure for cardinality math, independent of expression-tree details —
//! and any [`SelectivityEstimator`] answers with a fraction in `[0, 1]`.

use nodb_rawcsv::Datum;

/// Magic selectivities used when no statistics exist (the classic
/// System-R-era defaults, which are also what a freshly-started PostgresRaw
/// falls back to before its scan operator has observed anything).
pub mod defaults {
    /// Equality without statistics.
    pub const EQ: f64 = 0.005;
    /// Inequality / range without statistics.
    pub const RANGE: f64 = 1.0 / 3.0;
    /// BETWEEN without statistics.
    pub const BETWEEN: f64 = 0.11;
    /// IS NULL without statistics.
    pub const IS_NULL: f64 = 0.01;
    /// String prefix match without statistics.
    pub const PREFIX: f64 = 0.05;
}

/// Shape of one predicate over a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateSketch {
    /// `attr = v`
    Eq(Datum),
    /// `attr <> v`
    NotEq(Datum),
    /// `attr < v`
    Lt(Datum),
    /// `attr <= v`
    Le(Datum),
    /// `attr > v`
    Gt(Datum),
    /// `attr >= v`
    Ge(Datum),
    /// `attr BETWEEN lo AND hi`
    Between(Datum, Datum),
    /// `attr IN (v1, ...)`
    InList(usize),
    /// `attr IS NULL`
    IsNull,
    /// `attr IS NOT NULL`
    IsNotNull,
    /// `attr LIKE 'prefix%'`
    StrPrefix,
    /// Anything the sketcher could not classify.
    Opaque,
}

/// A source of cardinality estimates for one table.
pub trait SelectivityEstimator {
    /// Estimated fraction of rows satisfying `sketch` on `attr`.
    fn selectivity(&self, attr: usize, sketch: &PredicateSketch) -> f64;
}

/// Estimator with no information at all: every answer is a textbook default.
/// Used by the engine when a table has no statistics registered — and by the
/// FIG3/KNOBS ablations that disable on-the-fly statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoStats;

impl SelectivityEstimator for NoStats {
    fn selectivity(&self, _attr: usize, sketch: &PredicateSketch) -> f64 {
        default_selectivity(sketch)
    }
}

/// The no-information default for each sketch shape.
pub fn default_selectivity(sketch: &PredicateSketch) -> f64 {
    match sketch {
        PredicateSketch::Eq(_) => defaults::EQ,
        PredicateSketch::NotEq(_) => 1.0 - defaults::EQ,
        PredicateSketch::Lt(_)
        | PredicateSketch::Le(_)
        | PredicateSketch::Gt(_)
        | PredicateSketch::Ge(_) => defaults::RANGE,
        PredicateSketch::Between(_, _) => defaults::BETWEEN,
        PredicateSketch::InList(n) => (defaults::EQ * *n as f64).min(1.0),
        PredicateSketch::IsNull => defaults::IS_NULL,
        PredicateSketch::IsNotNull => 1.0 - defaults::IS_NULL,
        PredicateSketch::StrPrefix => defaults::PREFIX,
        PredicateSketch::Opaque => defaults::RANGE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_stats_returns_defaults() {
        let e = NoStats;
        assert_eq!(
            e.selectivity(0, &PredicateSketch::Eq(Datum::Int(1))),
            defaults::EQ
        );
    }

    #[test]
    fn in_list_scales_with_arity() {
        let s3 = default_selectivity(&PredicateSketch::InList(3));
        let s1 = default_selectivity(&PredicateSketch::InList(1));
        assert!(s3 > s1);
        assert!(default_selectivity(&PredicateSketch::InList(10_000)) <= 1.0);
    }

    #[test]
    fn complements_sum_to_one() {
        let eq = default_selectivity(&PredicateSketch::Eq(Datum::Int(1)));
        let ne = default_selectivity(&PredicateSketch::NotEq(Datum::Int(1)));
        assert!((eq + ne - 1.0).abs() < 1e-9);
    }
}
