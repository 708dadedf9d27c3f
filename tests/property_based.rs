//! Property-based tests over the core invariants:
//!
//! 1. *Adaptive transparency* — for any dataset and any query, PostgresRaw
//!    (PM+C, any budgets) returns exactly what the stateless baseline
//!    returns, cold and warm.
//! 2. *Parallel transparency* — for any dataset, query and thread count,
//!    the partitioned scan yields identical query results, positional-map
//!    coverage, cache contents and statistics as `scan_threads = 1` — and
//!    the one-worker state equals a naive one-pass model
//!    (`common::NaiveModel`).
//! 3. *Tokenizer equivalence* — selective/resumable tokenizing agrees with
//!    full tokenizing on arbitrary byte soup.
//! 4. *Cache round-trip* — any sequence of typed values read back from the
//!    cache equals what was appended.
//! 5. *Range-estimate sanity* — the planner's range selectivity is
//!    monotone in the constant and inside `[0, non-NULL fraction]`.
//!
//! The randomized cases are driven by a small self-contained deterministic
//! generator (the environment has no registry access, so `proptest` is not
//! available); every case derives from a fixed seed and failures print the
//! case number for replay.

use std::collections::HashMap;

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::engine::batch::BATCH_SIZE;
use nodb_repro::prelude::*;
use nodb_repro::rawcache::{RawCache, TypedColumn};
use nodb_repro::rawcsv::tokenizer::{TokenizerConfig, Tokens};
use nodb_repro::stats::estimate::defaults::RANGE;
use nodb_repro::stats::{PredicateSketch, SelectivityEstimator, TableStats};

mod common;

/// A query's SQL, the attributes its predicate reads (none without a
/// `WHERE`) and the attributes the engine uses — `common::NaiveModel::query`
/// takes the two lists.
type Query<'a> = (&'a str, &'a [usize], &'a [usize]);

/// SplitMix64: tiny, deterministic, plenty for case generation.
struct CaseRng(u64);

impl CaseRng {
    fn new(seed: u64) -> Self {
        CaseRng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform choice from a slice.
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

fn scratch(tag: &str, n: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_prop_{tag}_{n}_{}", std::process::id()));
    p
}

/// Randomized-iteration multiplier: `NODB_TEST_STRESS=k` runs `4k`× the
/// default case count (CI's claim-race stress job sets it to 1; unset = 1×).
fn stress_factor() -> u64 {
    std::env::var("NODB_TEST_STRESS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|v| v.max(1) * 4)
        .unwrap_or(1)
}

#[test]
fn adaptive_equals_baseline() {
    let mut rng = CaseRng::new(0xADA7);
    for case in 0..24u64 {
        let cols = 2 + rng.below(6) as usize;
        let rows = 1 + rng.below(400);
        let seed = rng.below(1_000);
        let proj = rng.below(cols as u64);
        let pred = rng.below(cols as u64);
        let cut = rng.below(1_000_000_000) as i64;
        let map_budget = *rng.pick(&[0usize, 1_000, 1 << 22]);
        let cache_budget = *rng.pick(&[0usize, 1_000, 1 << 22]);

        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("adapt", case);
        gen.generate_file(&path).unwrap();
        let sql = format!("SELECT c{proj} FROM t WHERE c{pred} < {cut}");

        let mut base = NoDb::new(NoDbConfig::baseline());
        base.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        let expect = base.query(&sql).unwrap();

        let cfg = NoDbConfig {
            map_budget_bytes: map_budget,
            cache_budget_bytes: cache_budget,
            ..NoDbConfig::pm_c()
        };
        let mut sys = NoDb::new(cfg);
        sys.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        let cold = sys.query(&sql).unwrap();
        let warm = sys.query(&sql).unwrap();
        assert_eq!(cold, expect, "case {case}: cold ({sql})");
        assert_eq!(warm, expect, "case {case}: warm ({sql})");
        std::fs::remove_file(path).ok();
    }
}

/// The worker-count invariant of the partitioned scan: for random CSVs,
/// schemas and thread counts 2/3/4/8, query results, positional-map
/// coverage, cache contents and statistics must be identical to
/// `scan_threads = 1` — whose state in turn must equal the naive
/// one-pass model, under an ample and a tight cache budget. Results
/// are checked against the stateless baseline.
#[test]
fn parallel_scan_equals_sequential() {
    let mut rng = CaseRng::new(0x9A54);
    for case in 0..16u64 {
        let cols = 2 + rng.below(6) as usize;
        let rows = rng.below(600);
        let seed = rng.below(1_000);
        let threads = *rng.pick(&[2usize, 3, 4, 8]);
        let a1 = rng.below(cols as u64) as usize;
        let a2 = rng.below(cols as u64) as usize;
        let pred = rng.below(cols as u64) as usize;
        let cut = rng.below(1_000_000_000) as i64;
        // Exercise budget pressure on some cases.
        let cache_budget = *rng.pick(&[800usize, 1 << 22, 1 << 30]);

        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("par", case);
        gen.generate_file(&path).unwrap();
        // Each query with the attributes its predicate reads and those the
        // engine uses.
        let queries = [
            (
                format!("SELECT c{a1} FROM t WHERE c{pred} < {cut}"),
                vec![pred],
                vec![a1],
            ),
            (format!("SELECT c{a2}, c{a1} FROM t"), vec![], vec![a1, a2]),
            (
                format!("SELECT COUNT(*) FROM t WHERE c{pred} >= {cut}"),
                vec![pred],
                vec![],
            ),
        ];

        let mk = |cfg: NoDbConfig| {
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            db
        };
        let base = mk(NoDbConfig::baseline());
        let cfg = |scan_threads: usize, cache_budget_bytes: usize| NoDbConfig {
            scan_threads,
            cache_budget_bytes,
            ..NoDbConfig::pm_c()
        };

        // One worker ≡ the naive model, tight and ample budget alike.
        for budget in [800usize, 1 << 30] {
            let one = mk(cfg(1, budget));
            let mut model = common::NaiveModel::load(&path, &gen.schema(), &cfg(1, budget));
            for (qi, (sql, pred, used)) in queries.iter().enumerate() {
                let tag = format!("case {case} budget {budget} query {qi} ({sql})");
                assert_eq!(one.query(sql).unwrap(), base.query(sql).unwrap(), "{tag}");
                model.query(pred, used);
                common::assert_matches_model(&tag, &one, &model);
            }
        }

        let seq = mk(cfg(1, cache_budget));
        let par = mk(cfg(threads, cache_budget));

        for (qi, (sql, _, _)) in queries.iter().enumerate() {
            let a = seq.query(sql).unwrap();
            let b = par.query(sql).unwrap();
            assert_eq!(a, b, "case {case} query {qi} threads {threads}: {sql}");
            assert_eq!(a, base.query(sql).unwrap(), "case {case} query {qi}: {sql}");
        }

        // Post-scan adaptive state must be byte-identical.
        let (hs, hp) = (
            seq.table_handle("t").unwrap(),
            par.table_handle("t").unwrap(),
        );
        let (ts, tp) = (hs.read(), hp.read());
        for attr in 0..cols {
            assert_eq!(
                ts.map().coverage(attr),
                tp.map().coverage(attr),
                "case {case}: posmap coverage of c{attr}"
            );
            assert_eq!(
                ts.cache().coverage(attr),
                tp.cache().coverage(attr),
                "case {case}: cache coverage of c{attr}"
            );
            for row in 0..ts.cache().coverage(attr) {
                assert_eq!(
                    ts.cache().column(attr).and_then(|c| c.datum(row)),
                    tp.cache().column(attr).and_then(|c| c.datum(row)),
                    "case {case}: cache content c{attr} row {row}"
                );
            }
            match (ts.stats().attr(attr), tp.stats().attr(attr)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.rows_seen(),
                        b.rows_seen(),
                        "case {case}: stats rows c{attr}"
                    );
                    assert_eq!(
                        a.null_fraction(),
                        b.null_fraction(),
                        "case {case}: stats nulls c{attr}"
                    );
                }
                other => panic!("case {case}: stats presence differs for c{attr}: {other:?}"),
            }
        }
        assert_eq!(
            ts.map().row_index().len(),
            tp.map().row_index().len(),
            "case {case}: row index size"
        );
        std::fs::remove_file(path).ok();
    }
}

/// A `narrow`-like file of `rows` rows: `c0` sequential int, `c1` nullable
/// uniform int, `c2` float, `c3` nullable string of 4-12 bytes, `c4` bool.
fn mixed_types(rows: u64, seed: u64) -> GeneratorConfig {
    use nodb_repro::rawcsv::ColumnGenSpec;
    let nullable = |mut c: ColumnGenSpec| {
        c.null_fraction = 0.05;
        c
    };
    GeneratorConfig {
        columns: vec![
            ColumnGenSpec::new("c0", ValueDistribution::IntSequential { start: 0 }),
            nullable(ColumnGenSpec::new(
                "c1",
                ValueDistribution::IntUniform {
                    min: 0,
                    max: 999_999,
                },
            )),
            ColumnGenSpec::new(
                "c2",
                ValueDistribution::FloatUniform {
                    min: 0.0,
                    max: 1_000.0,
                },
            ),
            nullable(ColumnGenSpec::new(
                "c3",
                ValueDistribution::StrVar { min: 4, max: 12 },
            )),
            ColumnGenSpec::new("c4", ValueDistribution::BoolBernoulli { p: 0.5 }),
        ],
        rows,
        delimiter: b',',
        header: false,
        seed,
    }
}

/// The same invariant on the shapes the benchmark runs: a `narrow`-like file
/// (sequential and nullable ints, floats, nullable strings, bools) under
/// cache budgets whose edge falls inside the first slice, inside a middle
/// slice and exactly on a slice boundary of the first scan, at 1/2/4/8
/// workers. After each of three queries the table must hold exactly the
/// naive model's state — cache contents and bytes, every statistics
/// accumulator, map coverage — and every cached column must end on a slice
/// boundary: the budget edge decides *which* slice a column stops at, never
/// a row inside one.
#[test]
fn mixed_type_scans_equal_the_naive_model_at_every_budget_edge() {
    use nodb_repro::core::rawscan::SCAN_SLICES;
    use nodb_repro::rawcsv::reader::partition_line_ranges;
    let mut rng = CaseRng::new(0x4A22);
    for case in 0..3 * stress_factor() {
        let gen = mixed_types(200 + rng.below(700), rng.below(1_000));
        let path = scratch("mixed", case);
        gen.generate_file(&path).unwrap();
        // Each query with the attributes its predicate reads and those the
        // engine uses, in two sequences. In the first, at most one evictable
        // column carries any given LRU tick; in the second the columns the
        // next query may evict share their tick (one query cached them), so
        // victim choice hinges on the tie. Both open with the file's first
        // scan, which caches its predicate's `c2` alone.
        let sequences: [[Query<'_>; 3]; 2] = [
            [
                ("SELECT c1, c3 FROM t WHERE c2 < 500.0", &[2], &[1, 3]),
                ("SELECT c3, c4 FROM t WHERE c2 >= 250.0", &[2], &[3, 4]),
                ("SELECT c0, c3 FROM t WHERE c2 < 100.0", &[2], &[0, 3]),
            ],
            [
                ("SELECT c1, c3 FROM t WHERE c2 < 500.0", &[2], &[1, 3]),
                ("SELECT c0, c4 FROM t WHERE c2 >= 250.0", &[2], &[0, 4]),
                ("SELECT c1, c3 FROM t WHERE c0 < 100", &[0], &[1, 3]),
            ],
        ];
        let mk = |cfg: NoDbConfig| {
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            db
        };
        let base = mk(NoDbConfig::baseline());
        let cfg = |scan_threads: usize, cache_budget_bytes: usize| NoDbConfig {
            scan_threads,
            cache_budget_bytes,
            ..NoDbConfig::pm_c()
        };

        // Where the first (cold) scan's slices start, in rows, and what the
        // column it caches takes when it holds a given number of rows. Both
        // sequences open with the same query, and the slices do not depend
        // on the worker count.
        let ample = common::NaiveModel::load(&path, &gen.schema(), &cfg(1, 1 << 30));
        let first_cached = [2];
        let used = |rows: usize| ample.bytes_for_rows(&first_cached, rows);
        let starts: Vec<usize> = partition_line_ranges(&path, SCAN_SLICES)
            .unwrap()
            .iter()
            .map(|r| ample.row_at(r.start))
            .collect();
        let mid = starts.len() / 2;
        let boundary = used(starts[mid]);
        let budgets = [
            used(starts[1] / 2 + 1),                       // inside slice 0
            used((starts[mid] + starts[mid + 1]) / 2 + 1), // inside a middle slice
            boundary,                                      // exactly on a boundary
            1 << 30,
        ];
        for threads in [1usize, 2, 4, 8] {
            for (si, queries) in sequences.iter().enumerate() {
                for budget in budgets {
                    let db = mk(cfg(threads, budget));
                    let mut model =
                        common::NaiveModel::load(&path, &gen.schema(), &cfg(threads, budget));
                    for (qi, &(sql, pred, engine)) in queries.iter().enumerate() {
                        let tag = format!(
                            "case {case} threads {threads} sequence {si} budget {budget} \
                             query {qi} ({sql})"
                        );
                        assert_eq!(db.query(sql).unwrap(), base.query(sql).unwrap(), "{tag}");
                        model.query(pred, engine);
                        common::assert_matches_model(&tag, &db, &model);
                        // A budget edge cuts at a slice boundary: every
                        // column ends where some scan's slice ended.
                        let resident = db.table_handle("t").unwrap().read().cache().resident();
                        for &(attr, rows) in &resident {
                            assert!(model.cuts.contains(&rows), "{tag}: c{attr} ends at {rows}");
                        }
                        if budget == boundary && qi == 0 {
                            let on_boundary: Vec<(usize, usize)> =
                                first_cached.iter().map(|&a| (a, starts[mid])).collect();
                            assert_eq!(resident, on_boundary, "{tag}: first scan");
                        }
                    }
                }
            }
        }
        std::fs::remove_file(path).ok();
    }
}

/// The partial-state rescan invariant (ISSUE 3, ISSUE 20): a scan over a
/// table with a *pre-populated partial cache* — random coverage prefixes
/// induced by random tight budgets — must produce byte-identical results,
/// cache contents and statistics to the one-worker scan, whether the table
/// keeps no row index (every rescan resolves raw bytes) or keeps one and is
/// appended to (known rows as row slices, the tail as byte slices).
/// Exercised across scan_threads 1/2/8 and with an occasional append.
#[test]
fn cold_partial_cache_reuse_equals_sequential() {
    let mut rng = CaseRng::new(0xC01D);
    for case in 0..12 * stress_factor() {
        let cols = 2 + rng.below(6) as usize;
        let rows = 40 + rng.below(500);
        let seed = rng.below(1_000);
        let threads = *rng.pick(&[1usize, 2, 8]);
        let map_draw = rng.below(4) != 0;
        let append = rng.below(3) == 0;
        let a1 = rng.below(cols as u64);
        let pred = rng.below(cols as u64);
        let cut = rng.below(1_000_000_000) as i64;
        // Tight random budget → the first query caches a random prefix.
        let budget = 300 + rng.below(5_000) as usize;
        // Positional map off without an append: there is no row index, so
        // every rescan is all unknown tail. Every append case but one in
        // four keeps the map: known rows, then a tail behind them.
        let map_on = append && map_draw;

        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("coldreuse", case);
        gen.generate_file(&path).unwrap();
        let queries = [
            format!("SELECT c{a1} FROM t WHERE c{pred} < {cut}"),
            format!("SELECT c{a1} FROM t WHERE c{pred} < {cut}"),
            format!("SELECT c{a1}, c{pred} FROM t"),
        ];

        let mk = |scan_threads: usize| {
            let cfg = NoDbConfig {
                enable_positional_map: map_on,
                cache_budget_bytes: budget,
                scan_threads,
                ..NoDbConfig::pm_c()
            };
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            db
        };
        let seq = mk(1);
        let par = mk(threads);

        let tag = format!(
            "case {case} (threads {threads} append {append} map {map_on} \
             budget {budget})"
        );
        for (qi, sql) in queries.iter().enumerate() {
            let a = seq.query(sql).unwrap();
            let b = par.query(sql).unwrap();
            assert_eq!(a, b, "{tag} query {qi}: {sql}");
            if append && qi == 0 {
                gen.append_rows(&path, 1 + rng.below(200)).unwrap();
            }
        }

        // Post-scan adaptive state must be byte-identical.
        let (hs, hp) = (
            seq.table_handle("t").unwrap(),
            par.table_handle("t").unwrap(),
        );
        let (ts, tp) = (hs.read(), hp.read());
        // Hit accounting is slice-independent: slices of unknown rows report
        // zero cache reads (they re-parse instead of peeking) at every
        // worker count, slices of known rows peek the same rows.
        assert_eq!(
            ts.cache().metrics().hits,
            tp.cache().metrics().hits,
            "{tag}: lifetime cache hits"
        );
        for attr in 0..cols {
            assert_eq!(
                ts.cache().coverage(attr),
                tp.cache().coverage(attr),
                "{tag}: cache coverage of c{attr}"
            );
            for row in 0..ts.cache().coverage(attr) {
                assert_eq!(
                    ts.cache().column(attr).and_then(|c| c.datum(row)),
                    tp.cache().column(attr).and_then(|c| c.datum(row)),
                    "{tag}: cache content c{attr} row {row}"
                );
            }
            assert_eq!(
                ts.stats().observed_upto(attr),
                tp.stats().observed_upto(attr),
                "{tag}: stats frontier c{attr}"
            );
            match (ts.stats().attr(attr), tp.stats().attr(attr)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.rows_seen(), b.rows_seen(), "{tag}: stats rows c{attr}");
                }
                other => panic!("{tag}: stats presence differs for c{attr}: {other:?}"),
            }
        }
        std::fs::remove_file(path).ok();
    }
}

/// The scheduling invariant: every combination of `scan_threads`
/// {1, 4, 8} × `io_block_size` {4 KiB, 1 MiB} must produce byte-identical
/// positional map, cache and statistics and identical result batches to the
/// one-worker, 1 MiB-block reference. Worker count and block size only
/// change *how* the bytes are fetched — which worker claims a slice, how
/// many refills a slice takes, where a line straddles a block boundary —
/// never which bytes the scan consumes, so no schedule may perturb
/// results or post-scan adaptive state, including under cache budget
/// pressure, where slice admission must stay decision-identical.
#[test]
fn worker_schedules_and_block_sizes_equal_one_worker_state() {
    let mut rng = CaseRng::new(0x10AD);
    for case in 0..(3 * stress_factor()) {
        let cols = 2 + rng.below(5) as usize;
        // Up to ~100 KiB: one slice spans many 4 KiB blocks at low slice
        // counts and less than one at high counts.
        let rows = 30 + rng.below(3_000);
        let seed = rng.below(1_000);
        let a1 = rng.below(cols as u64);
        let pred = rng.below(cols as u64);
        let cut = rng.below(1_000_000_000) as i64;
        let cache_budget = *rng.pick(&[1_500usize, 1 << 22]);

        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("sched", case);
        gen.generate_file(&path).unwrap();
        let queries = [
            format!("SELECT c{a1} FROM t WHERE c{pred} < {cut}"),
            format!("SELECT c{pred}, c{a1} FROM t"),
        ];

        let run = |threads: usize, block: usize| {
            let cfg = NoDbConfig {
                scan_threads: threads,
                io_block_size: block,
                cache_budget_bytes: cache_budget,
                ..NoDbConfig::pm_c()
            };
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            let results: Vec<_> = queries.iter().map(|q| db.query(q).unwrap()).collect();
            (db, results)
        };

        let (ref_db, ref_results) = run(1, 1 << 20);
        let ref_handle = ref_db.table_handle("t").unwrap();
        let ref_table = ref_handle.read();
        for threads in [1usize, 4, 8] {
            for block in [4096usize, 1 << 20] {
                let tag =
                    format!("case {case} threads {threads} block {block} budget {cache_budget}");
                let (db, results) = run(threads, block);
                assert_eq!(results, ref_results, "{tag}: query results");
                let handle = db.table_handle("t").unwrap();
                let table = handle.read();
                for attr in 0..cols {
                    assert_eq!(
                        ref_table.map().coverage(attr),
                        table.map().coverage(attr),
                        "{tag}: posmap coverage c{attr}"
                    );
                    assert_eq!(
                        ref_table.cache().coverage(attr),
                        table.cache().coverage(attr),
                        "{tag}: cache coverage c{attr}"
                    );
                    for row in 0..ref_table.cache().coverage(attr) {
                        assert_eq!(
                            ref_table.cache().column(attr).and_then(|c| c.datum(row)),
                            table.cache().column(attr).and_then(|c| c.datum(row)),
                            "{tag}: cache content c{attr} row {row}"
                        );
                    }
                    assert_eq!(
                        ref_table.stats().observed_upto(attr),
                        table.stats().observed_upto(attr),
                        "{tag}: stats frontier c{attr}"
                    );
                    match (ref_table.stats().attr(attr), table.stats().attr(attr)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.rows_seen(), b.rows_seen(), "{tag}: stats c{attr}");
                        }
                        other => panic!("{tag}: stats presence differs c{attr}: {other:?}"),
                    }
                }
                assert_eq!(
                    ref_table.map().row_index().len(),
                    table.map().row_index().len(),
                    "{tag}: row index size"
                );
            }
        }
        std::fs::remove_file(path).ok();
    }
}

/// The one-former invariant: every batch that leaves the scan is typed and
/// formed by one function, whatever fed it — raw bytes (cold), the cache
/// (warm), or a mix under a tight budget. For random schemas, predicates
/// (comparisons, BETWEEN, IN, LIKE, AND/OR trees) and aggregates
/// (COUNT/COUNT DISTINCT/SUM/MIN/MAX/AVG, grouped and global), across
/// `scan_threads` {1, 4}, the cold and the warm answer must both equal a
/// loaded column store's (`ConventionalDb`: the same engine over typed
/// batches, but decoded from its own binary segments and filtered
/// row-at-a-time before the batch is formed, never from the raw file), and
/// after every query the table must hold exactly the naive model's state.
/// Every odd case's table spans at least eight `BATCH_SIZE` windows, and
/// each query runs a third time, fully cached unless the budget is tight:
/// at 4 and 8 workers its aggregates then fold one contiguous range of
/// cache windows per worker and merge the partials in row order, and the
/// answer must still equal the loaded DBMS's, row order included.
/// Both sides share the aggregation's fold (`AggPartial`), so this test
/// cannot catch a bug there: the engine's
/// `grouped_aggregate_equals_scalar_replay` unit test checks it against a
/// row-at-a-time reference, and `grouped_aggregates_equal_the_folded_projection`
/// checks it end to end, with and without group keys.
#[test]
fn typed_scan_equals_loaded_dbms() {
    use nodb_repro::storage::{ConventionalDb, DbProfile};
    let mut rng = CaseRng::new(0x7EC7);
    for case in 0..(10 * stress_factor()) {
        let cols = 2 + rng.below(5) as usize;
        let rows = match rng.below(500) {
            r if case % 2 == 1 => 8 * BATCH_SIZE as u64 + 8 * r,
            r => r,
        };
        let seed = rng.below(1_000);
        let strings = rng.below(4) == 0; // every 4th case: string data + LIKE
        let a1 = rng.below(cols as u64) as usize;
        let a2 = rng.below(cols as u64) as usize;
        let pred = rng.below(cols as u64) as usize;
        let cut = rng.below(1_000_000_000) as i64;
        let lo = rng.below(500_000_000) as i64;
        let hi = lo + rng.below(500_000_000) as i64;
        // Tight budgets on some cases so partial coverage (mixed
        // cache/raw rescans) flows through the former too.
        let budget = *rng.pick(&[1_000usize, 1 << 22, 1 << 30]);

        let gen = if strings {
            GeneratorConfig::fixed_width_strings(cols, 1 + rng.below(6) as usize, rows, seed)
        } else {
            GeneratorConfig::uniform_ints(cols, rows, seed)
        };
        let path = scratch("typed", case);
        gen.generate_file(&path).unwrap();
        // Each query with the attributes its predicate reads and those the
        // engine uses.
        let queries: Vec<(String, Vec<usize>, Vec<usize>)> = if strings {
            vec![
                (
                    format!("SELECT c{a1} FROM t WHERE c{pred} LIKE 'a%'"),
                    vec![pred],
                    vec![a1],
                ),
                (
                    format!("SELECT c{a1}, COUNT(*) FROM t GROUP BY c{a1} ORDER BY c{a1} LIMIT 20"),
                    vec![],
                    vec![a1],
                ),
                (
                    format!("SELECT COUNT(DISTINCT c{a2}) FROM t WHERE c{pred} NOT LIKE '%z%'"),
                    vec![pred],
                    vec![a2],
                ),
                (
                    format!("SELECT MIN(c{a1}), MAX(c{a2}) FROM t WHERE c{pred} >= 'c'"),
                    vec![pred],
                    vec![a1, a2],
                ),
            ]
        } else {
            vec![
                (
                    format!("SELECT c{a1}, c{a2} FROM t WHERE c{pred} < {cut}"),
                    vec![pred],
                    vec![a1, a2],
                ),
                (
                    format!("SELECT c{a1} FROM t WHERE c{pred} BETWEEN {lo} AND {hi}"),
                    vec![pred],
                    vec![a1],
                ),
                (
                    format!(
                        "SELECT c{a1} FROM t WHERE c{pred} < {lo} OR c{pred} > {hi} ORDER BY c{a1}"
                    ),
                    vec![pred],
                    vec![a1],
                ),
                (
                    format!(
                        "SELECT COUNT(*), SUM(c{a1}), MIN(c{a2}), MAX(c{a2}), AVG(c{a1}) FROM t \
                         WHERE c{pred} < {cut} AND c{a2} NOT IN (1, 2, {cut})"
                    ),
                    vec![pred, a2],
                    vec![a1, a2],
                ),
                (
                    format!(
                        "SELECT c{a1} % 7, COUNT(*), SUM(c{a2}) FROM t GROUP BY c{a1} % 7 \
                         ORDER BY c{a1} % 7"
                    ),
                    vec![],
                    vec![a1, a2],
                ),
                (
                    format!("SELECT COUNT(DISTINCT c{a1}) FROM t WHERE c{pred} * 2 > {cut}"),
                    vec![pred],
                    vec![a1],
                ),
            ]
        };

        let store = scratch("typed_store", case);
        std::fs::create_dir_all(&store).unwrap();
        let mut loaded = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        loaded
            .load_csv("t", &path, gen.schema(), false, &[])
            .unwrap();

        for threads in [1usize, 4, 8] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                cache_budget_bytes: budget,
                ..NoDbConfig::pm_c()
            };
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            let mut model = common::NaiveModel::load(&path, &gen.schema(), &cfg);
            for (qi, (sql, pred, used)) in queries.iter().enumerate() {
                let tag = format!("case {case} threads {threads} query {qi} ({sql})");
                let expect = loaded.query(sql).unwrap();
                let cold = db.query(sql).unwrap();
                model.query(pred, used);
                common::assert_matches_model(&format!("{tag} cold"), &db, &model);
                let warm = db.query(sql).unwrap();
                model.query(pred, used);
                common::assert_matches_model(&format!("{tag} warm"), &db, &model);
                let cached = db.query(sql).unwrap();
                model.query(pred, used);
                common::assert_matches_model(&format!("{tag} cached"), &db, &model);
                assert_eq!(cold, expect, "{tag}: cold ≡ loaded DBMS");
                assert_eq!(warm, expect, "{tag}: warm ≡ loaded DBMS");
                assert_eq!(cached, expect, "{tag}: cached ≡ loaded DBMS");
                assert_eq!(warm, cold, "{tag}: warm ≡ cold");
            }
        }
        std::fs::remove_dir_all(store).ok();
        std::fs::remove_file(path).ok();
    }
}

/// The batch fetch at the smallest block size: with `io_block_size` =
/// `MIN_IO_BLOCK_SIZE` most windows end inside a line and some lines
/// outgrow a window. Over a plain file whose long string cells straddle
/// refills, a quoted file (every string quoted, some holding `""`) and a
/// CRLF file, at 1, 4 and 8 workers, every cold and warm answer equals the
/// loaded DBMS's over the same values (an unquoted, LF copy of the file),
/// and after every query the table holds exactly the naive model's state.
#[test]
fn smallest_block_scans_equal_the_loaded_dbms_and_the_model() {
    use nodb_repro::core::config::MIN_IO_BLOCK_SIZE;
    use nodb_repro::storage::{ConventionalDb, DbProfile};
    let schema = Schema::new(vec![
        ColumnDef::new("c0", ColumnType::Int),
        ColumnDef::new("c1", ColumnType::Str),
        ColumnDef::new("c2", ColumnType::Int),
        ColumnDef::new("c3", ColumnType::Float),
    ]);
    // Each query with the attributes its predicate reads and those the
    // engine uses.
    let queries: [Query<'_>; 4] = [
        ("SELECT c0, c1 FROM t WHERE c2 < 500", &[2], &[0, 1]),
        (
            "SELECT COUNT(*), SUM(c2), MIN(c1), MAX(c3) FROM t",
            &[],
            &[1, 2, 3],
        ),
        (
            "SELECT c1, c3 FROM t WHERE c0 % 7 = 3 ORDER BY c0",
            &[0],
            &[0, 1, 3],
        ),
        (
            "SELECT COUNT(c1), SUM(c0) FROM t WHERE c1 LIKE '%\"%'",
            &[1],
            &[0, 1],
        ),
    ];
    for (variant, quoted, crlf) in [
        ("plain", false, false),
        ("quoted", true, false),
        ("crlf", false, true),
    ] {
        let mut rng = CaseRng::new(0xB10C);
        let (mut raw, mut loaded_csv) = (String::new(), String::new());
        for row in 0..700u64 {
            let len = if row % 50 == 7 {
                4500 + rng.below(1500)
            } else {
                rng.below(20)
            };
            let mut text: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            if quoted && rng.below(5) == 0 {
                text.insert(text.len() / 2, '"');
            }
            let c2 = if rng.below(25) == 0 {
                String::new()
            } else {
                rng.below(1000).to_string()
            };
            let c3 = format!("{}.{}", rng.below(100), rng.below(100));
            let cell = if quoted {
                format!("\"{}\"", text.replace('"', "\"\""))
            } else {
                text.clone()
            };
            raw.push_str(&format!(
                "{row},{cell},{c2},{c3}{}",
                if crlf { "\r\n" } else { "\n" }
            ));
            loaded_csv.push_str(&format!("{row},{text},{c2},{c3}\n"));
        }
        let path = scratch(&format!("smallest_block_{variant}"), 0);
        let loaded_path = scratch(&format!("smallest_block_{variant}_loaded"), 0);
        std::fs::write(&path, &raw).unwrap();
        std::fs::write(&loaded_path, &loaded_csv).unwrap();
        let store = scratch(&format!("smallest_block_{variant}_store"), 0);
        std::fs::create_dir_all(&store).unwrap();
        let mut loaded = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        loaded
            .load_csv("t", &loaded_path, schema.clone(), false, &[])
            .unwrap();
        let tok = TokenizerConfig {
            delimiter: b',',
            quote: quoted.then_some(b'"'),
        };
        for threads in [1usize, 4, 8] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                io_block_size: MIN_IO_BLOCK_SIZE,
                ..NoDbConfig::default()
            };
            let mut db = NoDb::new(cfg);
            db.register_csv_with_options("t", &path, schema.clone(), false, tok)
                .unwrap();
            let mut model = common::NaiveModel::load_with(&path, &schema, &cfg, tok);
            for (sql, pred, used) in queries {
                let tag = format!("{variant} threads {threads} ({sql})");
                let expect = loaded.query(sql).unwrap();
                for pass in ["cold", "warm"] {
                    assert_eq!(db.query(sql).unwrap(), expect, "{tag} {pass}");
                    model.query(pred, used);
                    common::assert_matches_model(&format!("{tag} {pass}"), &db, &model);
                }
            }
        }
        std::fs::remove_dir_all(store).ok();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(loaded_path).ok();
    }
}

/// A file's first filtered scan converts its projection-only columns only
/// for the rows the predicate keeps. Over seeded files with Int, Float
/// (with `NaN`), Str and Bool projection-only columns, all with NULLs — the
/// strings quoted, some holding `""`, in one file and plain in the other —
/// every query runs three times on a fresh instance at 1, 4 and 8 workers:
/// survivors-only, then whole, then fully cached. Each answer equals the
/// loaded DBMS's (over an unquoted copy of the same values), and after each
/// run the table holds exactly the naive model's state: the first run
/// neither caches nor sketches a projection-only column. The predicates
/// keep no row, ~1 %, ~2 %, ~8 %, ~50 % and every row, as kernels and as
/// row-at-a-time fallbacks (arithmetic, OR, IS NULL); the queries project,
/// aggregate, group, sort under a LIMIT, and take a bare LIMIT (one the
/// survivors never reach, so the scan reads the whole file).
#[test]
fn survivors_only_first_scans_equal_the_loaded_dbms_and_the_model() {
    use nodb_repro::core::QueryCtx;
    use nodb_repro::storage::{ConventionalDb, DbProfile};
    let schema = Schema::new(vec![
        ColumnDef::new("c0", ColumnType::Int),
        ColumnDef::new("c1", ColumnType::Int),
        ColumnDef::new("c2", ColumnType::Float),
        ColumnDef::new("c3", ColumnType::Str),
        ColumnDef::new("c4", ColumnType::Bool),
    ]);
    // Answers hold `NaN`, which `Datum`'s `==` never equals: compare text.
    let text = |r: &QueryResult| format!("{:?}", r.rows);
    let mut rng = CaseRng::new(0x5E1EC7);
    for quoted in [false, true] {
        let rows = 1_500 + rng.below(1_000);
        let (mut raw, mut loaded_csv) = (String::new(), String::new());
        for row in 0..rows {
            let c1 = match rng.below(12) {
                0 => String::new(),
                _ => (rng.below(2_000_000) as i64 - 1_000_000).to_string(),
            };
            let c2 = match rng.below(20) {
                0 => String::new(),
                1 => "NaN".to_string(),
                _ => format!("{}.{}", rng.below(1_000), rng.below(100)),
            };
            let len = rng.below(10);
            let c3: String = (0..len)
                .map(|_| match rng.below(8) {
                    0 => '"',
                    _ => (b'a' + rng.below(26) as u8) as char,
                })
                .collect();
            let cell = if quoted && !c3.is_empty() {
                format!("\"{}\"", c3.replace('"', "\"\""))
            } else {
                c3.clone()
            };
            let c4 = *rng.pick(&["", "true", "false", "false"]);
            raw.push_str(&format!("{row},{c1},{c2},{cell},{c4}\n"));
            loaded_csv.push_str(&format!("{row},{c1},{c2},{c3},{c4}\n"));
        }
        let variant = if quoted { "quoted" } else { "plain" };
        let path = scratch(&format!("survivors_{variant}"), 0);
        let loaded_path = scratch(&format!("survivors_{variant}_loaded"), 0);
        std::fs::write(&path, &raw).unwrap();
        std::fs::write(&loaded_path, &loaded_csv).unwrap();
        let store = scratch(&format!("survivors_{variant}_store"), 0);
        std::fs::create_dir_all(&store).unwrap();
        let mut loaded = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        loaded
            .load_csv("t", &loaded_path, schema.clone(), false, &[])
            .unwrap();
        let tok = TokenizerConfig {
            delimiter: b',',
            quote: quoted.then_some(b'"'),
        };

        // Each filter with the attributes it reads.
        let (half, pct) = (rows / 2, rows / 100);
        let filters: [(String, &[usize]); 7] = [
            ("c0 < 0".to_string(), &[0]),
            ("c0 % 97 = 5".to_string(), &[0]),
            (format!("c0 < {half}"), &[0]),
            ("c0 >= 0".to_string(), &[0]),
            (format!("c0 < {pct} OR c0 > {}", rows - pct), &[0]),
            ("c1 IS NULL".to_string(), &[1]),
            ("c1 IS NULL OR c0 % 2 = 0".to_string(), &[0, 1]),
        ];
        // Each query with the attributes the engine uses.
        let queries = |w: &str| -> [(String, &[usize]); 5] {
            [
                (
                    format!("SELECT c1, c2, c3, c4 FROM t WHERE {w}"),
                    &[1, 2, 3, 4],
                ),
                (
                    format!(
                        "SELECT COUNT(*), SUM(c1), MIN(c2), MAX(c3), COUNT(c4), AVG(c1) \
                         FROM t WHERE {w}"
                    ),
                    &[1, 2, 3, 4],
                ),
                (
                    format!(
                        "SELECT c4, COUNT(*), SUM(c1), MAX(c2), MIN(c3) FROM t WHERE {w} \
                         GROUP BY c4 ORDER BY c4"
                    ),
                    &[1, 2, 3, 4],
                ),
                (
                    format!("SELECT c3, c1 FROM t WHERE {w} ORDER BY c1 DESC, c3 LIMIT 7"),
                    &[1, 3],
                ),
                (
                    format!("SELECT c2, c3, c4 FROM t WHERE {w} LIMIT {rows}"),
                    &[2, 3, 4],
                ),
            ]
        };
        for threads in [1usize, 4, 8] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            };
            for (w, pred) in &filters {
                for (sql, used) in queries(w) {
                    let tag = format!("{variant} threads {threads} ({sql})");
                    let expect = text(&loaded.query(&sql).unwrap());
                    let mut db = NoDb::new(cfg);
                    db.register_csv_with_options("t", &path, schema.clone(), false, tok)
                        .unwrap();
                    let mut model = common::NaiveModel::load_with(&path, &schema, &cfg, tok);
                    for (run, cached) in [
                        ("survivors-only", false),
                        ("whole", false),
                        ("cached", true),
                    ] {
                        let (r, report) = db.query_reported(&sql, &QueryCtx::unbounded()).unwrap();
                        assert_eq!(text(&r), expect, "{tag} {run}");
                        assert_eq!(report.fully_cached, cached, "{tag} {run}");
                        model.query(pred, used);
                        common::assert_matches_model(&format!("{tag} {run}"), &db, &model);
                    }
                }
            }
        }
        std::fs::remove_dir_all(store).ok();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(loaded_path).ok();
    }
}

/// GROUP BY end to end, against an oracle that never enters the engine's
/// aggregation: the test folds the rows of the matching projection
/// (`SELECT key…, arg… FROM t WHERE …`, answered by the stateless baseline)
/// into groups itself, in arrival order, and every grouped answer must
/// equal that fold row for row (by `Debug` text, so NaN and −0.0 count).
/// Over the mixed-type file, its Float column salted with NaN, −0.0 and
/// 0.0 and the whole spanning at least eight `BATCH_SIZE` windows, at 1, 4
/// and 8 workers, from three table states: cold; warm under a budget that
/// caches about half of the query's columns, so the groups span cached and
/// raw batches; and fully cached, where the workers fold one contiguous
/// range of cache windows each and merge them in row order — unless a SUM
/// or AVG adds floats, which folds as one range. Keys are Bool, Str, Float
/// and Int columns, one and two of them, an expression, and none: a global
/// aggregate is the one-group case, one row also when the WHERE matches
/// nothing. Every query pushes a WHERE. A SUM over strings fails at every
/// worker count with the error the serial fold reports, naming the same
/// value.
#[test]
fn grouped_aggregates_equal_the_folded_projection() {
    // (group keys, aggregates as (function, argument), WHERE)
    type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)], &'a str);
    let queries: [Case<'_>; 9] = [
        (
            &["c4"],
            &[("COUNT", "*"), ("SUM", "c1"), ("MIN", "c2"), ("MAX", "c3")],
            "c2 < 700.0",
        ),
        (
            &["c3"],
            &[("COUNT", "c1"), ("AVG", "c1"), ("MAX", "c0")],
            "c0 >= 50",
        ),
        (
            &["c1 % 7", "c4"],
            &[
                ("COUNT", "*"),
                ("SUM", "c2"),
                ("MIN", "c1"),
                ("COUNT", "c3"),
            ],
            "c2 >= 100.0",
        ),
        (&["c2"], &[("COUNT", "*"), ("SUM", "c0")], "c1 < 500000"),
        (
            &["c1"],
            &[("SUM", "c0"), ("MAX", "c2"), ("MIN", "c3"), ("AVG", "c2")],
            "c3 IS NOT NULL",
        ),
        // No keys: the warm `filter_aggregate` shape over Int (`c1` holds
        // NULLs) and Float, and a WHERE no row passes (`c0` starts at 0).
        (
            &[],
            &[
                ("COUNT", "*"),
                ("SUM", "c1"),
                ("MIN", "c2"),
                ("MAX", "c1"),
                ("AVG", "c2"),
            ],
            "c0 >= 50",
        ),
        (
            &[],
            &[
                ("COUNT", "c1"),
                ("SUM", "c2"),
                ("MIN", "c1"),
                ("MAX", "c2"),
                ("AVG", "c1"),
                ("SUM", "c0"),
            ],
            "c2 < 700.0",
        ),
        (
            &[],
            &[
                ("COUNT", "*"),
                ("SUM", "c1"),
                ("MIN", "c2"),
                ("MAX", "c0"),
                ("AVG", "c2"),
            ],
            "c0 < 0",
        ),
        (
            &["c4"],
            &[
                ("COUNT DISTINCT", "c2"),
                ("COUNT DISTINCT", "c3"),
                ("MIN", "c2"),
                ("MAX", "c2"),
                ("COUNT DISTINCT", "c1"),
            ],
            "c1 >= 0",
        ),
    ];
    // One aggregate over its argument's values in arrival order (`*`
    // passes a non-NULL placeholder per row). COUNT DISTINCT counts values
    // under SQL equality: −0.0 is 0.0, and a NaN is the NaN of its bits.
    let fold = |func: &str, values: &[Datum]| -> Datum {
        let vals: Vec<&Datum> = values.iter().filter(|d| !d.is_null()).collect();
        let by = |a: &&&Datum, b: &&&Datum| a.total_cmp(b);
        match (func, vals.first()) {
            ("COUNT", _) => Datum::Int(vals.len() as i64),
            ("COUNT DISTINCT", _) => {
                let distinct: std::collections::HashSet<String> = vals
                    .iter()
                    .map(|d| match d {
                        Datum::Float(f) if *f == 0.0 => "0".to_string(),
                        Datum::Float(f) => format!("{:x}", f.to_bits()),
                        d => format!("{d:?}"),
                    })
                    .collect();
                Datum::Int(distinct.len() as i64)
            }
            (_, None) => Datum::Null,
            ("SUM", Some(Datum::Int(_))) => {
                Datum::Int(vals.iter().map(|d| d.as_int().unwrap()).sum())
            }
            ("SUM", _) => Datum::Float(vals.iter().fold(0.0, |s, d| s + d.as_float().unwrap())),
            ("AVG", _) => Datum::Float(
                vals.iter().fold(0.0, |s, d| s + d.as_float().unwrap()) / vals.len() as f64,
            ),
            ("MIN", _) => (**vals.iter().min_by(by).unwrap()).clone(),
            ("MAX", _) => (**vals.iter().max_by(by).unwrap()).clone(),
            _ => unreachable!("{func}"),
        }
    };
    let mut rng = CaseRng::new(0x6B0C);
    for case in 0..2 * stress_factor() {
        let rows = 8 * BATCH_SIZE as u64 + 300 + rng.below(700);
        let gen = mixed_types(rows, rng.below(1_000));
        let path = scratch("grouped", case);
        gen.generate_file(&path).unwrap();
        // Salt the Float column `c2` with NaN, −0.0 and 0.0.
        let text = std::fs::read_to_string(&path).unwrap();
        let salted: String = text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                let mut f: Vec<&str> = line.split(',').collect();
                f[2] = match i % 23 {
                    3 => "NaN",
                    7 => "-0.0",
                    11 => "0.0",
                    _ => f[2],
                };
                f.join(",") + "\n"
            })
            .collect();
        std::fs::write(&path, salted).unwrap();
        let mk = |cfg: NoDbConfig| {
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            db
        };
        let base = mk(NoDbConfig::baseline());
        let model = common::NaiveModel::load(&path, &gen.schema(), &NoDbConfig::pm_c());
        for (keys, aggs, filter) in queries {
            let args: Vec<&str> = aggs.iter().map(|a| a.1).filter(|&a| a != "*").collect();
            let calls: Vec<String> = aggs
                .iter()
                .map(|(f, a)| match f.strip_suffix(" DISTINCT") {
                    Some(f) => format!("{f}(DISTINCT {a})"),
                    None => format!("{f}({a})"),
                })
                .collect();
            // The key columns (if any) then `tail`, as a SELECT list.
            let list = |tail: &[&str]| -> String {
                let cols: Vec<&str> = keys.iter().chain(tail).copied().collect();
                cols.join(", ")
            };
            let group_by = match keys.join(", ") {
                k if k.is_empty() => k,
                k => format!(" GROUP BY {k}"),
            };
            let calls: Vec<&str> = calls.iter().map(String::as_str).collect();
            let grouped = format!("SELECT {} FROM t WHERE {filter}{group_by}", list(&calls));
            let rows = base
                .query(&format!("SELECT {} FROM t WHERE {filter}", list(&args)))
                .unwrap()
                .rows;
            // Per group, in arrival order: its key and each aggregate's
            // argument values.
            let mut groups: Vec<(Vec<Datum>, Vec<Vec<Datum>>)> = Vec::new();
            let mut index: HashMap<String, usize> = HashMap::new();
            for row in rows {
                let (key, vals) = row.split_at(keys.len());
                let g = *index.entry(format!("{key:?}")).or_insert_with(|| {
                    groups.push((key.to_vec(), vec![Vec::new(); aggs.len()]));
                    groups.len() - 1
                });
                let mut next = vals.iter();
                for (a, &(_, arg)) in aggs.iter().enumerate() {
                    let v = if arg == "*" {
                        Datum::Int(1)
                    } else {
                        next.next().unwrap().clone()
                    };
                    groups[g].1[a].push(v);
                }
            }
            if keys.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), vec![Vec::new(); aggs.len()]));
            }
            let expect: Vec<Vec<Datum>> = groups
                .into_iter()
                .map(|(mut key, vals)| {
                    key.extend(aggs.iter().zip(&vals).map(|(&(f, _), v)| fold(f, v)));
                    key
                })
                .collect();
            let attrs: Vec<usize> = (0..5)
                .filter(|a| grouped.contains(&format!("c{a}")))
                .collect();
            let half = model.bytes_for_rows(&attrs, gen.rows as usize / 2);
            let expect = format!("{expect:?}");
            for threads in [1usize, 4, 8] {
                let cfg = |cache_budget_bytes: usize| NoDbConfig {
                    scan_threads: threads,
                    cache_budget_bytes,
                    ..NoDbConfig::pm_c()
                };
                let tag = format!("case {case} threads {threads} ({grouped})");
                let check = |db: &NoDb, state: &str| {
                    let got = db.query(&grouped).unwrap().rows;
                    assert_eq!(format!("{got:?}"), expect, "{tag}: {state}");
                };
                let cold = mk(cfg(1 << 30));
                check(&cold, "cold");
                // A first complete scan, so the next one converts, and the
                // budget caches, whole columns.
                let partial = mk(cfg(half));
                partial.query("SELECT COUNT(*) FROM t").unwrap();
                check(&partial, "cold, tight budget");
                let resident = partial.table_handle("t").unwrap().read().cache().resident();
                assert!(
                    resident
                        .iter()
                        .any(|&(_, n)| n > 0 && n < gen.rows as usize),
                    "{tag}: the budget caches part of a column: {resident:?}"
                );
                check(&partial, "warm, half cached");
                let full = mk(cfg(1 << 30));
                full.query("SELECT * FROM t").unwrap();
                check(&full, "fully cached");
                let report = full.admin().last_report().unwrap();
                assert!(report.fully_cached, "{tag}: fully cached");
            }
        }
        // SUM over strings fails on its first string in row order: a fully
        // cached fold names the value the serial fold (the stateless
        // baseline's) does, at every worker count.
        let sum_str = "SELECT c4, COUNT(*), SUM(c3) FROM t WHERE c1 >= 0 GROUP BY c4";
        let want = base.query(sum_str).unwrap_err().to_string();
        assert!(want.contains("SUM over non-numeric value"), "{want}");
        for threads in [1usize, 4, 8] {
            let full = mk(NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::pm_c()
            });
            full.query("SELECT * FROM t").unwrap();
            let got = full.query(sum_str).unwrap_err().to_string();
            assert_eq!(got, want, "case {case} threads {threads}");
        }
        std::fs::remove_file(path).ok();
    }
}

/// LIMIT pushdown changes how much is read, never what is returned: a bare
/// `LIMIT n` answers with exactly the first `n` rows of the same query
/// without LIMIT on a fresh instance — which is the loaded DBMS's answer —
/// at every thread count, from every table state the scan can start in:
/// cold, warm (fully cached), partially cached under a tight budget, with
/// the positional map off, and over a quoted file with a header. The limits
/// straddle a batch (`BATCH_SIZE` = 1024) and exceed the matching rows; the
/// predicates keep every row, some, or none.
#[test]
fn limit_pushdown_returns_the_unlimited_prefix() {
    use nodb_repro::storage::{ConventionalDb, DbProfile};
    let mut rng = CaseRng::new(0x11A1);
    for case in 0..stress_factor() {
        let rows = 3_000 + rng.below(1_000);
        let seed = rng.below(1_000);
        let cut = 100_000_000 + rng.below(300_000_000) as i64;
        let gen = GeneratorConfig::uniform_ints(4, rows, seed);
        let path = scratch("limit", case);
        gen.generate_file(&path).unwrap();
        // The same rows with a header and `c2` as a quoted string holding a
        // comma: "v, <c2>".
        let quoted_path = scratch("limit_quoted", case);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut quoted = String::from("c0,c1,c2,c3\n");
        for line in text.lines() {
            let f: Vec<&str> = line.split(',').collect();
            quoted.push_str(&format!("{},{},\"v, {}\",{}\n", f[0], f[1], f[2], f[3]));
        }
        std::fs::write(&quoted_path, quoted).unwrap();
        let quoted_schema = Schema::new(vec![
            ColumnDef::new("c0", ColumnType::Int),
            ColumnDef::new("c1", ColumnType::Int),
            ColumnDef::new("c2", ColumnType::Str),
            ColumnDef::new("c3", ColumnType::Int),
        ]);
        let quote = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let store = scratch("limit_store", case);
        std::fs::create_dir_all(&store).unwrap();
        let mut loaded = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        loaded
            .load_csv("t", &path, gen.schema(), false, &[])
            .unwrap();

        // (label, scan_threads → a table in that state, before the query).
        let register = |cfg: NoDbConfig, quoted: bool| {
            let mut db = NoDb::new(cfg);
            if quoted {
                db.register_csv_with_options("t", &quoted_path, quoted_schema.clone(), true, quote)
                    .unwrap();
            } else {
                db.register_csv_with_schema("t", &path, gen.schema(), false)
                    .unwrap();
            }
            db
        };
        let tight = (rows * 8) as usize;
        let states: [(&str, NoDbConfig, bool, bool); 5] = [
            ("cold", NoDbConfig::pm_c(), false, false),
            ("warm", NoDbConfig::pm_c(), true, false),
            (
                "partially cached",
                NoDbConfig {
                    cache_budget_bytes: tight,
                    ..NoDbConfig::pm_c()
                },
                true,
                false,
            ),
            (
                "map off",
                NoDbConfig {
                    cache_budget_bytes: tight,
                    ..NoDbConfig::cache_only()
                },
                true,
                false,
            ),
            ("quoted with header", NoDbConfig::pm_c(), false, true),
        ];
        for pred in ["", " WHERE c1 < 0", &format!(" WHERE c1 < {cut}")] {
            let unlimited = format!("SELECT c0, c2 FROM t{pred}");
            let expect = register(NoDbConfig::pm_c(), false)
                .query(&unlimited)
                .unwrap();
            assert_eq!(
                expect,
                loaded.query(&unlimited).unwrap(),
                "case {case}: {unlimited}"
            );
            let expect_quoted = register(NoDbConfig::pm_c(), true)
                .query(&unlimited)
                .unwrap();
            let as_strings: Vec<Vec<Datum>> = expect
                .rows
                .iter()
                .map(|r| vec![r[0].clone(), Datum::from(format!("v, {}", r[1]))])
                .collect();
            assert_eq!(
                expect_quoted.rows, as_strings,
                "case {case}: quoted {unlimited}"
            );
            let matching = expect.rows.len() as u64;
            for n in [0, 1, 100, 1023, 1024, 1025, matching + 5] {
                let sql = format!("{unlimited} LIMIT {n}");
                for &(label, base, warm, quoted) in &states {
                    let reference = if quoted { &expect_quoted } else { &expect };
                    let want = &reference.rows[..reference.rows.len().min(n as usize)];
                    for threads in [1usize, 2, 4, 8] {
                        let tag = format!("case {case} {label} threads {threads}: {sql}");
                        let db = register(
                            NoDbConfig {
                                scan_threads: threads,
                                ..base
                            },
                            quoted,
                        );
                        if warm {
                            db.query(&unlimited).unwrap();
                        }
                        let got = db.query(&sql).unwrap();
                        assert_eq!(got.columns, reference.columns, "{tag}");
                        assert_eq!(got.rows, want, "{tag}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(store).ok();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(quoted_path).ok();
    }
}

/// `ORDER BY cX [DESC], c0 [DESC] LIMIT n` answers with the loaded
/// DBMS's sorted prefix — its unlimited `ORDER BY` truncated to `n`, which
/// is also its own `LIMIT n` answer — for a first key of each type (a
/// skewed nullable int with many ties, a nullable float that prints
/// `-0.0000`, a nullable string, a nullable bool, and an int that is NULL
/// in 90 % of the rows, so the top-n's bound is NULL), in both directions,
/// with and without a predicate that leaves selections in the warm batches.
/// Every table state of `limit_pushdown_returns_the_unlimited_prefix`
/// (cold, warm, partially cached, map off, quoted with a header) at 1, 4
/// and 8 scan threads; the limits straddle `BATCH_SIZE` (1024) and exceed
/// the row count.
#[test]
fn order_by_limit_equals_the_loaded_dbms() {
    use nodb_repro::rawcsv::ColumnGenSpec;
    use nodb_repro::storage::{ConventionalDb, DbProfile};
    let mut rng = CaseRng::new(0x0B11);
    for case in 0..stress_factor() {
        let rows = 2_500 + rng.below(1_000);
        let nullable = |fraction: f64, mut c: ColumnGenSpec| {
            c.null_fraction = fraction;
            c
        };
        let gen = GeneratorConfig {
            columns: vec![
                ColumnGenSpec::new("c0", ValueDistribution::IntSequential { start: 0 }),
                nullable(
                    0.1,
                    ColumnGenSpec::new("c1", ValueDistribution::IntZipf { n: 40, s: 1.0 }),
                ),
                nullable(
                    0.1,
                    ColumnGenSpec::new(
                        "c2",
                        ValueDistribution::FloatUniform {
                            min: -0.001,
                            max: 0.001,
                        },
                    ),
                ),
                nullable(
                    0.1,
                    ColumnGenSpec::new("c3", ValueDistribution::StrVar { min: 1, max: 3 }),
                ),
                nullable(
                    0.1,
                    ColumnGenSpec::new("c4", ValueDistribution::BoolBernoulli { p: 0.5 }),
                ),
                nullable(
                    0.9,
                    ColumnGenSpec::new("c5", ValueDistribution::IntUniform { min: 0, max: 9 }),
                ),
            ],
            rows,
            delimiter: b',',
            header: false,
            seed: rng.below(1_000),
        };
        let path = scratch("order_limit", case);
        gen.generate_file(&path).unwrap();
        // The same values behind a header, with each string quoted.
        let quoted_path = scratch("order_limit_quoted", case);
        let mut quoted = String::from("c0,c1,c2,c3,c4,c5\n");
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            let mut f: Vec<String> = line.split(',').map(str::to_owned).collect();
            if !f[3].is_empty() {
                f[3] = format!("\"{}\"", f[3]);
            }
            quoted.push_str(&f.join(","));
            quoted.push('\n');
        }
        std::fs::write(&quoted_path, quoted).unwrap();
        let quote = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let store = scratch("order_limit_store", case);
        std::fs::create_dir_all(&store).unwrap();
        let mut loaded = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        loaded
            .load_csv("t", &path, gen.schema(), false, &[])
            .unwrap();
        let register = |cfg: NoDbConfig, quoted: bool| {
            let mut db = NoDb::new(cfg);
            if quoted {
                db.register_csv_with_options("t", &quoted_path, gen.schema(), true, quote)
                    .unwrap();
            } else {
                db.register_csv_with_schema("t", &path, gen.schema(), false)
                    .unwrap();
            }
            db
        };
        let tight = (rows * 8) as usize;
        // (label, config, warmed by the unlimited query first, quoted file)
        let states: [(&str, NoDbConfig, bool, bool); 5] = [
            ("cold", NoDbConfig::pm_c(), false, false),
            ("warm", NoDbConfig::pm_c(), true, false),
            (
                "partially cached",
                NoDbConfig {
                    cache_budget_bytes: tight,
                    ..NoDbConfig::pm_c()
                },
                true,
                false,
            ),
            (
                "map off",
                NoDbConfig {
                    cache_budget_bytes: tight,
                    ..NoDbConfig::cache_only()
                },
                true,
                false,
            ),
            ("quoted with header", NoDbConfig::pm_c(), false, true),
        ];
        for (i, key) in ["c1", "c2", "c3", "c4", "c5"].iter().enumerate() {
            for (j, dir) in ["", " DESC"].iter().enumerate() {
                let pred = if (i + j) % 2 == 0 {
                    ""
                } else {
                    " WHERE c0 % 3 <> 1"
                };
                // Under `c0 DESC` a later row that ties the first key beats
                // the earlier ones.
                let tie_break = if i % 2 == 0 { " DESC" } else { "" };
                let unlimited =
                    format!("SELECT c0, {key} FROM t{pred} ORDER BY {key}{dir}, c0{tie_break}");
                let sorted = loaded.query(&unlimited).unwrap();
                assert!(sorted.rows.len() > 1_024, "case {case}: {unlimited}");
                for n in [1, 100, 1_024, 1_025, rows + 5] {
                    let sql = format!("{unlimited} LIMIT {n}");
                    let want = &sorted.rows[..sorted.rows.len().min(n as usize)];
                    assert_eq!(
                        loaded.query(&sql).unwrap().rows,
                        want,
                        "case {case}: loaded {sql}"
                    );
                    for &(label, base, warm, quoted) in &states {
                        for threads in [1usize, 4, 8] {
                            let tag = format!("case {case} {label} threads {threads}: {sql}");
                            let db = register(
                                NoDbConfig {
                                    scan_threads: threads,
                                    ..base
                                },
                                quoted,
                            );
                            if warm {
                                db.query(&unlimited).unwrap();
                            }
                            let got = db.query(&sql).unwrap();
                            assert_eq!(got.columns, sorted.columns, "{tag}");
                            assert_eq!(got.rows, want, "{tag}");
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(store).ok();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(quoted_path).ok();
    }
}

/// What a bare LIMIT installs is the prefix an unlimited scan continues
/// from: a cold LIMIT query followed by the unlimited one leaves the state
/// one row-at-a-time pass of the unlimited query alone leaves (ample
/// budgets, threads 1/4/8), and two fresh tables running the LIMIT query at
/// the same thread count end identical. When the unlimited query reads a
/// superset of the LIMIT query's attributes it builds a whole chunk that
/// replaces the LIMIT's prefix chunk, and the state equals the model
/// outright; over the same attributes it finds them indexed and builds no
/// chunk — as after a deadline-stopped scan — so the map keeps the prefix
/// chunk and everything else equals the model.
#[test]
fn limit_then_unlimited_equals_the_naive_model() {
    let mut rng = CaseRng::new(0x11A2);
    for case in 0..2 * stress_factor() {
        let rows = 4_000 + rng.below(4_000);
        let gen = GeneratorConfig::uniform_ints(4, rows, rng.below(1_000));
        let path = scratch("limit_model", case);
        gen.generate_file(&path).unwrap();
        let cut = 200_000_000 + rng.below(300_000_000) as i64;
        let n = 1 + rng.below(1_500);
        let limited = format!("SELECT c1 FROM t WHERE c2 < {cut} LIMIT {n}");
        for (unlimited, used, same_attrs) in [
            (
                format!("SELECT c0, c1 FROM t WHERE c2 < {cut}"),
                vec![0, 1],
                false,
            ),
            (format!("SELECT c1 FROM t WHERE c2 < {cut}"), vec![1], true),
        ] {
            for threads in [1usize, 4, 8] {
                let tag = format!("case {case} threads {threads}: {limited}; {unlimited}");
                let cfg = NoDbConfig {
                    scan_threads: threads,
                    ..NoDbConfig::pm_c()
                };
                let mk = || {
                    let mut db = NoDb::new(cfg);
                    db.register_csv_with_schema("t", &path, gen.schema(), false)
                        .unwrap();
                    db
                };
                let (db, twin) = (mk(), mk());
                let limit_rows = db.query(&limited).unwrap();
                assert_eq!(limit_rows, twin.query(&limited).unwrap(), "{tag}");
                common::assert_same_state(&format!("{tag}: twin"), &db, &twin, 4);
                let prefix = db.table_handle("t").unwrap().read().map().row_index().len();
                assert!(prefix < rows as usize, "{tag}: the LIMIT read a prefix");

                let all = db.query(&unlimited).unwrap();
                assert_eq!(all, mk().query(&unlimited).unwrap(), "{tag}");
                // The LIMIT installed a prefix, so the unlimited query
                // converts whole columns.
                let mut model = common::NaiveModel::load(&path, &gen.schema(), &cfg);
                model.query_whole(&[2], &used);
                if same_attrs {
                    common::assert_matches_model_but_chunks(&tag, &db, &model);
                    let handle = db.table_handle("t").unwrap();
                    for attr in [1, 2] {
                        assert_eq!(handle.read().map().coverage(attr), prefix, "{tag}: c{attr}");
                    }
                } else {
                    common::assert_matches_model(&tag, &db, &model);
                }
            }
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn selective_tokenizing_agrees_with_full() {
    let mut rng = CaseRng::new(0x5E1E);
    let alphabet = [b',', b'a', b'1', b'x', b'.'];
    for case in 0..200u64 {
        let len = rng.below(200) as usize;
        let line: Vec<u8> = (0..len).map(|_| *rng.pick(&alphabet)).collect();
        let upto = rng.below(30) as usize;

        let cfg = TokenizerConfig::default();
        let mut full = Tokens::new();
        let mut sel = Tokens::new();
        cfg.tokenize_into(&line, &mut full);
        let n = cfg.tokenize_selective(&line, upto, &mut sel);
        assert_eq!(n, full.len().min(upto + 1), "case {case}");
        for f in 0..n {
            assert_eq!(sel.get(f), full.get(f), "case {case} field {f}");
        }
    }
}

#[test]
fn resumable_tokenizing_agrees_with_full() {
    let mut rng = CaseRng::new(0x4E5);
    let alphabet = [b',', b'q', b'7'];
    for case in 0..200u64 {
        let len = 1 + rng.below(150) as usize;
        let line: Vec<u8> = (0..len).map(|_| *rng.pick(&alphabet)).collect();
        let cfg = TokenizerConfig::default();
        let mut full = Tokens::new();
        cfg.tokenize_into(&line, &mut full);
        let anchor = rng.below(10) as usize;
        if anchor >= full.len() {
            continue;
        }
        let upto = anchor + rng.below(10) as usize;
        let anchor_off = full.get(anchor).unwrap().start as usize;
        let mut res = Tokens::new();
        cfg.tokenize_from(&line, anchor, anchor_off, upto, &mut res);
        for f in anchor..=upto.min(full.len() - 1) {
            assert_eq!(res.get(f), full.get(f), "case {case} field {f}");
        }
    }
}

#[test]
fn cache_round_trips_arbitrary_values() {
    let mut rng = CaseRng::new(0xCAC4E);
    for case in 0..40u64 {
        let n = rng.below(300) as usize;
        let mut values: [Vec<Datum>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..n {
            let null = |rng: &mut CaseRng| rng.below(3) == 0;
            values[0].push(match null(&mut rng) {
                true => Datum::Null,
                false => Datum::Int(rng.next() as i64),
            });
            values[1].push(match null(&mut rng) {
                true => Datum::Null,
                false => {
                    let len = rng.below(13) as usize;
                    let s: String = (0..len)
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect();
                    Datum::from(s.as_str())
                }
            });
        }
        let cols = [ColumnType::Int, ColumnType::Str]
            .iter()
            .zip(&values)
            .map(|(&ty, vs)| {
                let mut col = TypedColumn::new(ty);
                vs.iter().for_each(|v| col.push(v));
                col
            })
            .collect();
        let mut cache = RawCache::new(1 << 30);
        let tick = cache.begin_query(&[0, 1]);
        cache.append_slice(&[0, 1], cols, 0, n, tick);
        for (attr, vs) in values.iter().enumerate() {
            assert_eq!(cache.coverage(attr), n, "case {case} c{attr}");
            for (i, v) in vs.iter().enumerate() {
                let got = cache.column(attr).and_then(|c| c.datum(i));
                assert_eq!(got.as_ref(), Some(v), "case {case} c{attr} row {i}");
            }
        }
    }
}

/// The planner's range estimate (interpolation between the observed
/// bounds) over random Int and Float columns with NULLs: `<`/`<=` never
/// fall and `>`/`>=` never rise as the constant grows, every answer lies in
/// `[0, non-NULL fraction]`, and the bounds themselves give the extremes.
/// A column with no non-NULL value has no bounds and keeps the default.
#[test]
fn range_estimate_is_monotone_and_bounded() {
    let mut rng = CaseRng::new(0x415);
    for case in 0..60u64 {
        let n = 1 + rng.below(400) as usize;
        let floats = rng.below(2) == 1;
        let null_one_in = 2 + rng.below(8);
        let mut stats = TableStats::default();
        let mut values = Vec::new();
        for _ in 0..n {
            let d = if rng.below(null_one_in) == 0 {
                Datum::Null
            } else if floats {
                Datum::Float((rng.below(20_000) as f64 - 10_000.0) / 10.0)
            } else {
                Datum::Int(rng.below(2_000) as i64 - 1_000)
            };
            if let Some(v) = d.as_float() {
                values.push(v);
            }
            stats.observe(0, &d);
        }
        let nonnull = 1.0 - stats.attr(0).unwrap().null_fraction();
        let sel = |sk: PredicateSketch| stats.selectivity(0, &sk);
        if values.is_empty() {
            assert_eq!(
                sel(PredicateSketch::Lt(Datum::Int(0))),
                RANGE,
                "case {case}"
            );
            continue;
        }
        let mut probes: Vec<f64> = (0..2 + rng.below(18))
            .map(|_| rng.below(2_400) as f64 - 1_200.0 + rng.below(4) as f64 / 4.0)
            .collect();
        probes.sort_by(f64::total_cmp);
        let mut prev: Option<[f64; 4]> = None;
        for v in probes {
            // Integral probes go in as Int constants, the rest as Float.
            let k = if v.fract() == 0.0 {
                Datum::Int(v as i64)
            } else {
                Datum::Float(v)
            };
            let now = [
                sel(PredicateSketch::Lt(k.clone())),
                sel(PredicateSketch::Le(k.clone())),
                sel(PredicateSketch::Gt(k.clone())),
                sel(PredicateSketch::Ge(k)),
            ];
            for f in now {
                assert!(
                    (0.0..=nonnull + 1e-12).contains(&f),
                    "case {case}: {f} outside [0, {nonnull}] at {v}"
                );
            }
            if let Some(p) = prev {
                assert!(
                    now[0] + 1e-12 >= p[0] && now[1] + 1e-12 >= p[1],
                    "case {case}: at {v}"
                );
                assert!(
                    now[2] <= p[2] + 1e-12 && now[3] <= p[3] + 1e-12,
                    "case {case}: at {v}"
                );
            }
            prev = Some(now);
        }
        if let (Some(lo), Some(hi)) = (
            values.iter().copied().reduce(f64::min),
            values.iter().copied().reduce(f64::max),
        ) {
            let (lo, hi) = (Datum::Float(lo), Datum::Float(hi));
            assert_eq!(sel(PredicateSketch::Lt(lo.clone())), 0.0, "case {case}");
            assert_eq!(sel(PredicateSketch::Gt(hi.clone())), 0.0, "case {case}");
            assert!(
                (sel(PredicateSketch::Le(hi)) - nonnull).abs() < 1e-12,
                "case {case}"
            );
            assert!(
                (sel(PredicateSketch::Ge(lo)) - nonnull).abs() < 1e-12,
                "case {case}"
            );
        }
    }
}

#[test]
fn parse_int_matches_std() {
    let mut rng = CaseRng::new(0x147);
    for _ in 0..500 {
        let v = rng.next() as i64;
        let text = v.to_string();
        assert_eq!(
            nodb_repro::rawcsv::parser::parse_int(text.as_bytes()),
            Some(v)
        );
    }
    for v in [0, 1, -1, i64::MAX, i64::MIN] {
        let text = v.to_string();
        assert_eq!(
            nodb_repro::rawcsv::parser::parse_int(text.as_bytes()),
            Some(v)
        );
    }
}

#[test]
fn generated_files_always_queryable() {
    let mut rng = CaseRng::new(0x6E4);
    for case in 0..24u64 {
        let cols = 1 + rng.below(5) as usize;
        let rows = rng.below(200);
        let seed = rng.below(500);
        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("gen", case);
        gen.generate_file(&path).unwrap();
        let mut db = NoDb::new(NoDbConfig::default());
        db.register_csv_with_schema("t", &path, gen.schema(), false)
            .unwrap();
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Datum::Int(rows as i64)), "case {case}");
        std::fs::remove_file(path).ok();
    }
}

/// Compare every piece of post-scan adaptive state between two instances
/// holding the same table: positional-map coverage and row index, cache
/// coverage and contents, statistics. Used by the chaos suite, where the
/// two sides differ only in injected (and retried) I/O faults — wall-clock
/// I/O counters are deliberately *not* compared, since retries legitimately
/// re-issue reads.
fn assert_same_adaptive_state(a: &NoDb, b: &NoDb, cols: usize, label: &str) {
    let (ha, hb) = (a.table_handle("t").unwrap(), b.table_handle("t").unwrap());
    let (ta, tb) = (ha.read(), hb.read());
    for attr in 0..cols {
        assert_eq!(
            ta.map().coverage(attr),
            tb.map().coverage(attr),
            "{label}: posmap coverage of c{attr}"
        );
        assert_eq!(
            ta.cache().coverage(attr),
            tb.cache().coverage(attr),
            "{label}: cache coverage of c{attr}"
        );
        for row in 0..ta.cache().coverage(attr) {
            assert_eq!(
                ta.cache().column(attr).and_then(|c| c.datum(row)),
                tb.cache().column(attr).and_then(|c| c.datum(row)),
                "{label}: cache content c{attr} row {row}"
            );
        }
        match (ta.stats().attr(attr), tb.stats().attr(attr)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.rows_seen(), y.rows_seen(), "{label}: stats rows c{attr}");
                assert_eq!(
                    x.null_fraction(),
                    y.null_fraction(),
                    "{label}: stats nulls c{attr}"
                );
            }
            other => panic!("{label}: stats presence differs for c{attr}: {other:?}"),
        }
    }
    assert_eq!(
        ta.map().row_index().len(),
        tb.map().row_index().len(),
        "{label}: row index size"
    );
    assert_eq!(
        ta.snapshot().row_count,
        tb.snapshot().row_count,
        "{label}: known row count"
    );
}

/// The resilience invariant (ISSUE 6): transient I/O faults that the
/// bounded retry layer clears must be *invisible*. For random datasets and
/// queries, a scan under deterministic fault injection (seeded `EIO`s,
/// short reads and latency on block refills) produces query results — cold
/// and warm — and post-scan adaptive state byte-identical to a fault-free
/// run, across scan_threads {1, 4, 8} × io_block_size {4 KiB, 1 MiB} (the
/// small block puts several refills, and so several fault draws, in a
/// slice).
#[test]
fn faulty_scans_match_fault_free() {
    let mut rng = CaseRng::new(0xFA17);
    for case in 0..4 * stress_factor() {
        let cols = 2 + rng.below(5) as usize;
        let rows = 30 + rng.below(400);
        let seed = rng.below(1_000);
        let fault_seed = 1 + rng.below(u64::MAX - 1);
        let a1 = rng.below(cols as u64);
        let pred = rng.below(cols as u64);
        let cut = rng.below(1_000_000_000) as i64;
        // Tight-ish budget on some cases so eviction paths run under faults.
        let cache_budget = *rng.pick(&[3_000usize, 1 << 22]);

        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("chaos", case);
        gen.generate_file(&path).unwrap();
        let queries = [
            format!("SELECT c{a1} FROM t WHERE c{pred} < {cut}"),
            format!("SELECT COUNT(*) FROM t WHERE c{pred} >= {cut}"),
        ];

        for &threads in &[1usize, 4, 8] {
            for &block in &[4096usize, 1 << 20] {
                let label = format!("case {case} threads {threads} block {block}");
                let mk = |fault_seed: u64| {
                    let cfg = NoDbConfig {
                        scan_threads: threads,
                        io_block_size: block,
                        cache_budget_bytes: cache_budget,
                        // Aggressive injection (~1 refill in 4) with zero
                        // backoff: the default 2 retries must clear every
                        // injected fault (the injector never fires twice in
                        // a row on one source).
                        io_fault_seed: fault_seed,
                        io_fault_one_in: 4,
                        io_retry_backoff_ms: 0,
                        ..NoDbConfig::pm_c()
                    };
                    let mut db = NoDb::new(cfg);
                    db.register_csv_with_schema("t", &path, gen.schema(), false)
                        .unwrap();
                    db
                };
                let clean = mk(0);
                let chaos = mk(fault_seed);
                for (qi, sql) in queries.iter().enumerate() {
                    // Cold then warm on both sides, compared pairwise.
                    for pass in ["cold", "warm"] {
                        let want = clean.query(sql).unwrap();
                        let got = chaos.query(sql).unwrap();
                        assert_eq!(want, got, "{label} q{qi} {pass}: {sql}");
                    }
                }
                assert_same_adaptive_state(&clean, &chaos, cols, &label);
            }
        }
        std::fs::remove_file(path).ok();
    }
}
