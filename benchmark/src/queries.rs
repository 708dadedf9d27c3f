//! The frozen query generators. Copied here, not imported from
//! `crates/bench`, so that the SQL a workload sends cannot drift with the
//! program.
//!
//! The *shape* of every stream (which columns, which class, in which order)
//! is a constant of the benchmark; `--seed` moves only the constants inside
//! the SQL and the order of a cycle, so that ten seeds measure the same work
//! on ten different inputs.

use crate::datasets::{INT_DOMAIN, WIDE_COLS};
use crate::stat::Rng;

/// How a result is compared with the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Same rows in any order.
    Unordered,
    /// Same rows in the same order: the `ORDER BY` is total.
    Ordered,
    /// Bare `LIMIT n`: `n` rows (or all, if fewer match), each one a row of
    /// `unlimited`.
    BareLimit { unlimited: String, limit: u64 },
}

#[derive(Debug, Clone)]
pub struct Query {
    pub class: &'static str,
    pub sql: String,
    pub check: Check,
}

fn query(class: &'static str, sql: String, check: Check) -> Query {
    Query { class, sql, check }
}

/// A threshold selecting about `share` of a uniform column, moved by up to
/// 2 % either way by the seed.
fn threshold(share: f64, rng: &mut Rng) -> i64 {
    let jitter = 0.98 + 0.04 * rng.unit();
    (share * jitter * INT_DOMAIN as f64) as i64
}

/// Variants per query class: enough distinct SQL texts to exercise the
/// prepared-statement LRU, few enough to compute every reference answer in
/// a second or two.
pub const VARIANTS: usize = 4;

pub const FILTER_PROJECT: &str = "filter_project";
pub const FILTER_AGGREGATE: &str = "filter_aggregate";
pub const GROUP_BY: &str = "group_by";
pub const TOP_K: &str = "top_k";
pub const STRING_PREDICATE: &str = "string_predicate";
pub const NULL_COUNT: &str = "null_count";
pub const SMALL_FILTER: &str = "small_filter";
pub const BARE_LIMIT: &str = "bare_limit";

/// One SQL text of `class` over `narrow`.
fn narrow_query(class: &'static str, variant: usize, rng: &mut Rng) -> Query {
    match class {
        FILTER_PROJECT => query(
            class,
            format!(
                "SELECT c1, c5, c6 FROM t WHERE c3 < {}",
                threshold(0.01, rng)
            ),
            Check::Unordered,
        ),
        FILTER_AGGREGATE => query(
            class,
            format!(
                "SELECT COUNT(*), SUM(c1), MIN(c5), MAX(c5), AVG(c2) FROM t WHERE c3 < {}",
                threshold(0.5, rng)
            ),
            Check::Unordered,
        ),
        GROUP_BY => query(
            class,
            format!(
                "SELECT c4, COUNT(*), SUM(c1) FROM t WHERE c3 < {} GROUP BY c4",
                threshold(0.9, rng)
            ),
            Check::Unordered,
        ),
        // c0 is a dense key, so the order is total.
        TOP_K => query(
            class,
            format!(
                "SELECT c0, c1, c5 FROM t WHERE c3 < {} ORDER BY c1 DESC, c0 LIMIT 100",
                threshold(0.5, rng)
            ),
            Check::Ordered,
        ),
        STRING_PREDICATE => {
            let first = char::from(b'c' + variant as u8);
            let second = char::from(b'a' + rng.below(26) as u8);
            query(
                class,
                format!("SELECT COUNT(*) FROM t WHERE c6 < '{first}{second}'"),
                Check::Unordered,
            )
        }
        NULL_COUNT => {
            let column = if variant.is_multiple_of(2) {
                "c2"
            } else {
                "c6"
            };
            query(
                class,
                format!(
                    "SELECT COUNT(*) FROM t WHERE {column} IS NULL AND c0 >= {}",
                    rng.below(100)
                ),
                Check::Unordered,
            )
        }
        SMALL_FILTER => query(
            class,
            format!(
                "SELECT c0, c1, c5 FROM t WHERE c3 < {}",
                threshold(0.001, rng)
            ),
            Check::Unordered,
        ),
        BARE_LIMIT => {
            let unlimited = format!(
                "SELECT c0, c1, c6 FROM t WHERE c3 < {}",
                threshold(0.2, rng)
            );
            query(
                class,
                format!("{unlimited} LIMIT 100"),
                Check::BareLimit {
                    unlimited,
                    limit: 100,
                },
            )
        }
        other => unreachable!("no narrow query class {other:?}"),
    }
}

/// A pool of distinct SQL texts and the cycle that draws on it: `cycle[i]`
/// is an index into `pool`. A workload walks the cycle again and again,
/// shuffled anew each time, so class shares are exact and not left to a
/// random draw.
#[derive(Debug, Clone)]
pub struct Mix {
    pub pool: Vec<Query>,
    pub cycle: Vec<usize>,
}

impl Mix {
    /// `shares` lists `(class, occurrences per cycle)`. Occurrences of a
    /// class rotate through its [`VARIANTS`] texts.
    fn build(shares: &[(&'static str, usize)], seed: u64) -> Mix {
        let mut rng = Rng::new(seed);
        let mut pool = Vec::new();
        let mut cycle = Vec::new();
        for &(class, count) in shares {
            let base = pool.len();
            for variant in 0..VARIANTS {
                pool.push(narrow_query(class, variant, &mut rng));
            }
            cycle.extend((0..count).map(|i| base + i % VARIANTS));
        }
        Mix { pool, cycle }
    }

    /// One pass over the cycle, in an order drawn from `rng`.
    pub fn shuffled_cycle(&self, rng: &mut Rng) -> Vec<usize> {
        let mut order = self.cycle.clone();
        rng.shuffle(&mut order);
        order
    }
}

/// `warm_analytics`: 25 queries a cycle, 15 of them (60 %) the plain
/// filter + COUNT/SUM/MIN/MAX/AVG. A class that holds 60 % of the
/// operations contains the 40th to 60th latency percentile wherever it
/// ranks among the others, so the median cannot flip between classes from
/// run to run, or when a later change reorders the classes by speed.
pub fn warm_mix(seed: u64) -> Mix {
    Mix::build(
        &[
            (NULL_COUNT, 2),
            (FILTER_PROJECT, 3),
            (STRING_PREDICATE, 1),
            (FILTER_AGGREGATE, 15),
            (GROUP_BY, 3),
            (TOP_K, 1),
        ],
        seed,
    )
}

/// `serve_mixed`: the same classes skewed short, 20 queries a cycle: 80 %
/// small results (bare LIMIT, small filter, top-k) and 20 % aggregates.
/// The bare LIMIT holds 60 % for the reason given at [`warm_mix`] — and
/// because exploration traffic is LIMIT-heavy. (The server answers a query
/// of under about 2 ms some 20 ms sooner than a longer one, and which side
/// a 1.5 ms query lands on changes from run to run; a median that sat in
/// such a class would not repeat.)
pub fn serve_mix(seed: u64) -> Mix {
    Mix::build(
        &[
            (NULL_COUNT, 1),
            (SMALL_FILTER, 2),
            (STRING_PREDICATE, 1),
            (FILTER_AGGREGATE, 2),
            (BARE_LIMIT, 12),
            (TOP_K, 2),
        ],
        seed,
    )
}

/// `cold_first_query`'s one query (the issue's text, with a seeded
/// threshold around 10 %).
pub fn cold_query(seed: u64) -> Query {
    query(
        "cold_filter_project",
        format!(
            "SELECT c1, c5, c6 FROM t WHERE c3 < {}",
            threshold(0.1, &mut Rng::new(seed))
        ),
        Check::Unordered,
    )
}

pub const EXPLORE_EPOCHS: usize = 6;
/// Half the issue's 20, so that a lap takes about two seconds and several
/// fit in a run.
pub const EXPLORE_QUERIES_PER_EPOCH: usize = 10;
const EXPLORE_WINDOW: usize = 10;
/// Which columns and selectivities a lap uses is the same for every seed.
const EXPLORE_SHAPE_SEED: u64 = 0x6e6f_6462;

/// `explore_adaptive`: one lap of select-project queries over a window of
/// ten attributes that slides across `wide` (eight columns an epoch, so six
/// epochs reach column 49). Selectivity is one of 1 %, 10 %, 40 %; every
/// fourth query carries a LIMIT, alternately under a total `ORDER BY` and
/// bare.
pub fn explore_lap(seed: u64) -> Vec<Query> {
    let mut shape = Rng::new(EXPLORE_SHAPE_SEED);
    let mut constants = Rng::new(seed);
    let mut lap = Vec::new();
    for epoch in 0..EXPLORE_EPOCHS {
        let first = epoch * (WIDE_COLS - EXPLORE_WINDOW) / (EXPLORE_EPOCHS - 1);
        for _ in 0..EXPLORE_QUERIES_PER_EPOCH {
            let mut window: Vec<usize> = (first..first + EXPLORE_WINDOW).collect();
            shape.shuffle(&mut window);
            let filter = window[0];
            let mut projected = window[1..3 + shape.below(3) as usize].to_vec();
            projected.sort_unstable();
            let share = [0.01, 0.10, 0.40][shape.below(3) as usize];
            let columns = projected
                .iter()
                .map(|c| format!("c{c}"))
                .collect::<Vec<_>>()
                .join(", ");
            let unlimited = format!(
                "SELECT {columns} FROM t WHERE c{filter} < {}",
                threshold(share, &mut constants)
            );
            lap.push(match lap.len() % 8 {
                // Ordering by every projected column is total up to rows
                // that are equal in all of them.
                3 => query(
                    "explore_top_k",
                    format!("{unlimited} ORDER BY {columns} LIMIT 100"),
                    Check::Ordered,
                ),
                7 => query(
                    "explore_bare_limit",
                    format!("{unlimited} LIMIT 100"),
                    Check::BareLimit {
                        unlimited,
                        limit: 100,
                    },
                ),
                _ => query("explore_filter_project", unlimited, Check::Unordered),
            });
        }
    }
    lap
}

/// `append_then_query`'s round: a `COUNT(*)` and three filter+aggregate
/// queries. Only integer aggregates that fold (count, sum, min, max), so
/// the harness can extend each expected answer by the rows it appended and
/// check every round exactly.
#[derive(Debug, Clone)]
pub struct RoundQuery {
    pub class: &'static str,
    pub sql: String,
    /// Row filter `c<column> < bound`; `None` keeps every row.
    pub filter: Option<(usize, i64)>,
    pub aggregates: Vec<Fold>,
}

/// An aggregate over integer column `.0` the harness can fold itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    CountRows,
    Count(usize),
    Sum(usize),
    Min(usize),
    Max(usize),
}

pub fn append_round(seed: u64) -> Vec<RoundQuery> {
    let mut rng = Rng::new(seed);
    let k1 = threshold(0.5, &mut rng);
    let k2 = threshold(0.3, &mut rng);
    let k3 = 5 + rng.below(10) as i64;
    vec![
        RoundQuery {
            class: "count_after_append",
            sql: "SELECT COUNT(*) FROM t".to_string(),
            filter: None,
            aggregates: vec![Fold::CountRows],
        },
        RoundQuery {
            class: "append_filter_aggregate",
            sql: format!("SELECT COUNT(*), SUM(c1) FROM t WHERE c3 < {k1}"),
            filter: Some((3, k1)),
            aggregates: vec![Fold::CountRows, Fold::Sum(1)],
        },
        // c2 holds NULLs: COUNT(c2) and SUM(c2) skip them.
        RoundQuery {
            class: "append_filter_aggregate",
            sql: format!("SELECT COUNT(c2), SUM(c2), MIN(c3) FROM t WHERE c1 < {k2}"),
            filter: Some((1, k2)),
            aggregates: vec![Fold::Count(2), Fold::Sum(2), Fold::Min(3)],
        },
        RoundQuery {
            class: "append_filter_aggregate",
            sql: format!("SELECT COUNT(*), MAX(c3), MIN(c1) FROM t WHERE c4 < {k3}"),
            filter: Some((4, k3)),
            aggregates: vec![Fold::CountRows, Fold::Max(3), Fold::Min(1)],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_have_exact_class_shares() {
        let warm = warm_mix(11);
        assert_eq!(warm.cycle.len(), 25);
        assert_eq!(warm.pool.len(), 6 * VARIANTS);
        let count = |mix: &Mix, class: &str| {
            mix.cycle
                .iter()
                .filter(|&&i| mix.pool[i].class == class)
                .count()
        };
        assert_eq!(count(&warm, FILTER_AGGREGATE), 15, "60 % of the cycle");
        let serve = serve_mix(11);
        assert_eq!(serve.cycle.len(), 20);
        let short = count(&serve, SMALL_FILTER) + count(&serve, BARE_LIMIT) + count(&serve, TOP_K);
        assert_eq!(short, 16, "80 % small results");
        assert_eq!(count(&serve, BARE_LIMIT), 12, "60 % of the cycle");
    }

    #[test]
    fn the_seed_moves_constants_but_not_shape() {
        let a = explore_lap(1);
        let b = explore_lap(2);
        assert_eq!(a.len(), EXPLORE_EPOCHS * EXPLORE_QUERIES_PER_EPOCH);
        assert_ne!(a[0].sql, b[0].sql);
        let shape = |q: &Query| q.sql.split(" < ").next().unwrap().to_string();
        assert!(a.iter().zip(&b).all(|(x, y)| shape(x) == shape(y)));
        assert_eq!(explore_lap(1)[5].sql, a[5].sql);
        // Every fourth query carries a LIMIT.
        let limits = a.iter().filter(|q| q.sql.contains("LIMIT")).count();
        assert_eq!(limits, a.len() / 4);
        // The last epoch reaches the last column.
        assert!(a.iter().any(|q| q.sql.contains("c49")));
    }

    #[test]
    fn shuffled_cycles_keep_their_members() {
        let mix = warm_mix(3);
        let mut order = mix.shuffled_cycle(&mut Rng::new(9));
        assert_ne!(order, mix.cycle);
        order.sort_unstable();
        let mut expect = mix.cycle.clone();
        expect.sort_unstable();
        assert_eq!(order, expect);
    }
}
