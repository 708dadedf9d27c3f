//! Property-based tests over the core invariants:
//!
//! 1. *Adaptive transparency* — for any dataset and any query, PostgresRaw
//!    (PM+C, any budgets) returns exactly what the stateless baseline
//!    returns, cold and warm.
//! 2. *Parallel transparency* — for any dataset, query and thread count,
//!    the partitioned scan yields identical query results, positional-map
//!    coverage, cache contents and statistics as `scan_threads = 1` — and
//!    the one-worker state equals a naive row-at-a-time model
//!    (`common::NaiveModel`).
//! 3. *Tokenizer equivalence* — selective/resumable tokenizing agrees with
//!    full tokenizing on arbitrary byte soup.
//! 4. *Cache round-trip* — any sequence of typed values read back from the
//!    cache equals what was appended.
//! 5. *Histogram sanity* — `fraction_le` is monotone and bounded.
//!
//! The randomized cases are driven by a small self-contained deterministic
//! generator (the environment has no registry access, so `proptest` is not
//! available); every case derives from a fixed seed and failures print the
//! case number for replay.

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::prelude::*;
use nodb_repro::rawcache::{CachePolicy, RawCache};
use nodb_repro::rawcsv::tokenizer::{TokenizerConfig, Tokens};
use nodb_repro::stats::EquiDepthHistogram;

mod common;

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
/// default case count (CI's steal-race stress job sets it to 1; unset = 1×).
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
/// row-at-a-time model, under an ample and a tight cache budget. Results
/// are checked against the stateless baseline.
#[test]
fn parallel_scan_equals_sequential() {
    let mut rng = CaseRng::new(0x9A54);
    for case in 0..16u64 {
        let cols = 2 + rng.below(6) as usize;
        let rows = rng.below(600);
        let seed = rng.below(1_000);
        let threads = *rng.pick(&[2usize, 3, 4, 8]);
        let a1 = rng.below(cols as u64);
        let a2 = rng.below(cols as u64);
        let pred = rng.below(cols as u64);
        let cut = rng.below(1_000_000_000) as i64;
        // Exercise budget pressure on some cases.
        let cache_budget = *rng.pick(&[800usize, 1 << 22, 1 << 30]);

        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = scratch("par", case);
        gen.generate_file(&path).unwrap();
        // Each query with the attributes its scan reads (ascending).
        let sorted = |mut attrs: Vec<u64>| {
            attrs.sort_unstable();
            attrs.dedup();
            attrs.into_iter().map(|a| a as usize).collect::<Vec<_>>()
        };
        let queries = [
            (
                format!("SELECT c{a1} FROM t WHERE c{pred} < {cut}"),
                sorted(vec![a1, pred]),
            ),
            (format!("SELECT c{a2}, c{a1} FROM t"), sorted(vec![a1, a2])),
            (
                format!("SELECT COUNT(*) FROM t WHERE c{pred} >= {cut}"),
                sorted(vec![pred]),
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
            for (qi, (sql, attrs)) in queries.iter().enumerate() {
                let tag = format!("case {case} budget {budget} query {qi} ({sql})");
                assert_eq!(one.query(sql).unwrap(), base.query(sql).unwrap(), "{tag}");
                model.query(attrs);
                common::assert_matches_model(&tag, &one, &model);
            }
        }

        let seq = mk(cfg(1, cache_budget));
        let par = mk(cfg(threads, cache_budget));

        for (qi, (sql, _)) in queries.iter().enumerate() {
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
                    ts.cache().peek(attr, row),
                    tp.cache().peek(attr, row),
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
                    assert_eq!(a.sample(), b.sample(), "case {case}: reservoir c{attr}");
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

/// The same invariant on the shapes the benchmark runs: a `narrow`-like file
/// (sequential and nullable ints, floats, nullable strings, bools) under
/// cache budgets whose edge falls inside the first slice, inside a middle
/// slice and exactly on a slice boundary of the first scan, at 1/2/4/8
/// workers. After each of three queries the table must hold exactly the
/// naive model's state — cache contents and bytes, every statistics
/// accumulator, map coverage.
#[test]
fn mixed_type_scans_equal_the_naive_model_at_every_budget_edge() {
    use nodb_repro::rawcsv::reader::partition_line_ranges;
    use nodb_repro::rawcsv::ColumnGenSpec;
    let mut rng = CaseRng::new(0x4A22);
    for case in 0..3 * stress_factor() {
        let nullable = |mut c: ColumnGenSpec| {
            c.null_fraction = 0.05;
            c
        };
        let gen = GeneratorConfig {
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
            rows: 200 + rng.below(700),
            delimiter: b',',
            header: false,
            seed: rng.below(1_000),
        };
        let path = scratch("mixed", case);
        gen.generate_file(&path).unwrap();
        // Each query with the attributes its scan reads. At most one
        // evictable column carries any given LRU tick, so victim choice
        // never hinges on a tie.
        let queries = [
            ("SELECT c1, c3 FROM t WHERE c2 < 500.0", vec![1, 2, 3]),
            ("SELECT c3, c4 FROM t WHERE c2 >= 250.0", vec![2, 3, 4]),
            ("SELECT c0, c3 FROM t WHERE c2 < 100.0", vec![0, 2, 3]),
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

        for threads in [1usize, 2, 4, 8] {
            // Where the first (cold) scan's slices start, in rows, and what
            // its admission has in use after each row when nothing is
            // refused.
            let mut ample = common::NaiveModel::load(&path, &gen.schema(), &cfg(threads, 1 << 30));
            ample.query(&queries[0].1);
            let used = &ample.bytes_after_row;
            let starts: Vec<usize> =
                partition_line_ranges(&path, cfg(threads, 0).scan_slice_target())
                    .unwrap()
                    .iter()
                    .map(|r| ample.row_at(r.start))
                    .collect();
            let mid = starts.len() / 2;
            let budgets = [
                used[starts[1] / 2],                       // inside slice 0
                used[(starts[mid] + starts[mid + 1]) / 2], // inside a middle slice
                used[starts[mid] - 1],                     // exactly on a boundary
                1 << 30,
            ];
            for budget in budgets {
                let db = mk(cfg(threads, budget));
                let mut model =
                    common::NaiveModel::load(&path, &gen.schema(), &cfg(threads, budget));
                for (qi, (sql, attrs)) in queries.iter().enumerate() {
                    let tag =
                        format!("case {case} threads {threads} budget {budget} query {qi} ({sql})");
                    assert_eq!(db.query(sql).unwrap(), base.query(sql).unwrap(), "{tag}");
                    model.query(attrs);
                    common::assert_matches_model(&tag, &db, &model);
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
/// Exercised across scan_threads 1/2/8, stealing off and on, and with an
/// occasional append.
#[test]
fn cold_partial_cache_reuse_equals_sequential() {
    let mut rng = CaseRng::new(0xC01D);
    for case in 0..12 * stress_factor() {
        let cols = 2 + rng.below(6) as usize;
        let rows = 40 + rng.below(500);
        let seed = rng.below(1_000);
        let threads = *rng.pick(&[1usize, 2, 8]);
        let steal = *rng.pick(&[0usize, 4]);
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
                steal_slices_per_thread: steal,
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
            "case {case} (threads {threads} steal {steal} \
             append {append} map {map_on} budget {budget})"
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
                    ts.cache().peek(attr, row),
                    tp.cache().peek(attr, row),
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
                    assert_eq!(a.sample(), b.sample(), "{tag}: reservoir c{attr}");
                }
                other => panic!("{tag}: stats presence differs for c{attr}: {other:?}"),
            }
        }
        std::fs::remove_file(path).ok();
    }
}

/// The scheduling invariant: every combination of `scan_threads`
/// {1, 4, 8} × stealing {off, on} × `io_block_size` {4 KiB, 1 MiB} must
/// produce byte-identical positional map, cache and statistics and
/// identical result batches to the one-worker, one-slice, 1 MiB-block
/// reference. Slicing and block size only change *how* the bytes are
/// fetched — how many refills a slice takes, where a line straddles a
/// block boundary, how far the page-sized tail steps run past a slice's
/// end — never which bytes the scan consumes, so no schedule may perturb
/// results or post-scan adaptive state, including under cache budget
/// pressure, where admission replays must stay decision-identical.
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

        let run = |threads: usize, steal: usize, block: usize| {
            let cfg = NoDbConfig {
                scan_threads: threads,
                io_block_size: block,
                steal_slices_per_thread: steal,
                cache_budget_bytes: cache_budget,
                ..NoDbConfig::pm_c()
            };
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            let results: Vec<_> = queries.iter().map(|q| db.query(q).unwrap()).collect();
            (db, results)
        };

        let (ref_db, ref_results) = run(1, 0, 1 << 20);
        let ref_handle = ref_db.table_handle("t").unwrap();
        let ref_table = ref_handle.read();
        for threads in [1usize, 4, 8] {
            for steal in [0usize, 4] {
                for block in [4096usize, 1 << 20] {
                    let tag = format!(
                        "case {case} threads {threads} steal {steal} block {block} \
                         budget {cache_budget}"
                    );
                    let (db, results) = run(threads, steal, block);
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
                                ref_table.cache().peek(attr, row),
                                table.cache().peek(attr, row),
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
                                assert_eq!(a.sample(), b.sample(), "{tag}: reservoir c{attr}");
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
/// Both sides fold aggregates through the same typed kernels; the engine's
/// `update_from_column_equals_scalar_replay` unit test checks those kernels
/// against the row-at-a-time accumulator.
#[test]
fn typed_scan_equals_loaded_dbms() {
    use nodb_repro::storage::{ConventionalDb, DbProfile};
    let mut rng = CaseRng::new(0x7EC7);
    for case in 0..(10 * stress_factor()) {
        let cols = 2 + rng.below(5) as usize;
        let rows = rng.below(500);
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
        // Each query with the attributes its scan reads (ascending).
        let sorted = |mut attrs: Vec<usize>| {
            attrs.sort_unstable();
            attrs.dedup();
            attrs
        };
        let queries: Vec<(String, Vec<usize>)> = if strings {
            vec![
                (
                    format!("SELECT c{a1} FROM t WHERE c{pred} LIKE 'a%'"),
                    sorted(vec![a1, pred]),
                ),
                (
                    format!("SELECT c{a1}, COUNT(*) FROM t GROUP BY c{a1} ORDER BY c{a1} LIMIT 20"),
                    vec![a1],
                ),
                (
                    format!("SELECT COUNT(DISTINCT c{a2}) FROM t WHERE c{pred} NOT LIKE '%z%'"),
                    sorted(vec![a2, pred]),
                ),
                (
                    format!("SELECT MIN(c{a1}), MAX(c{a2}) FROM t WHERE c{pred} >= 'c'"),
                    sorted(vec![a1, a2, pred]),
                ),
            ]
        } else {
            vec![
                (
                    format!("SELECT c{a1}, c{a2} FROM t WHERE c{pred} < {cut}"),
                    sorted(vec![a1, a2, pred]),
                ),
                (
                    format!("SELECT c{a1} FROM t WHERE c{pred} BETWEEN {lo} AND {hi}"),
                    sorted(vec![a1, pred]),
                ),
                (
                    format!(
                        "SELECT c{a1} FROM t WHERE c{pred} < {lo} OR c{pred} > {hi} ORDER BY c{a1}"
                    ),
                    sorted(vec![a1, pred]),
                ),
                (
                    format!(
                        "SELECT COUNT(*), SUM(c{a1}), MIN(c{a2}), MAX(c{a2}), AVG(c{a1}) FROM t \
                         WHERE c{pred} < {cut} AND c{a2} NOT IN (1, 2, {cut})"
                    ),
                    sorted(vec![a1, a2, pred]),
                ),
                (
                    format!(
                        "SELECT c{a1} % 7, COUNT(*), SUM(c{a2}) FROM t GROUP BY c{a1} % 7 \
                         ORDER BY c{a1} % 7"
                    ),
                    sorted(vec![a1, a2]),
                ),
                (
                    format!("SELECT COUNT(DISTINCT c{a1}) FROM t WHERE c{pred} * 2 > {cut}"),
                    sorted(vec![a1, pred]),
                ),
            ]
        };

        let store = scratch("typed_store", case);
        std::fs::create_dir_all(&store).unwrap();
        let mut loaded = ConventionalDb::new(DbProfile::DbmsXLike, &store);
        loaded
            .load_csv("t", &path, gen.schema(), false, &[])
            .unwrap();

        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                cache_budget_bytes: budget,
                ..NoDbConfig::pm_c()
            };
            let mut db = NoDb::new(cfg);
            db.register_csv_with_schema("t", &path, gen.schema(), false)
                .unwrap();
            let mut model = common::NaiveModel::load(&path, &gen.schema(), &cfg);
            for (qi, (sql, attrs)) in queries.iter().enumerate() {
                let tag = format!("case {case} threads {threads} query {qi} ({sql})");
                let expect = loaded.query(sql).unwrap();
                let cold = db.query(sql).unwrap();
                model.query(attrs);
                common::assert_matches_model(&format!("{tag} cold"), &db, &model);
                let warm = db.query(sql).unwrap();
                model.query(attrs);
                common::assert_matches_model(&format!("{tag} warm"), &db, &model);
                assert_eq!(cold, expect, "{tag}: cold ≡ loaded DBMS");
                assert_eq!(warm, expect, "{tag}: warm ≡ loaded DBMS");
                assert_eq!(warm, cold, "{tag}: warm ≡ cold");
            }
        }
        std::fs::remove_dir_all(store).ok();
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
        let mut cache = RawCache::new(CachePolicy::default());
        let tick = cache.begin_query(&[0, 1]);
        let mut ints = Vec::new();
        let mut strs = Vec::new();
        for _ in 0..n {
            match rng.below(3) {
                0 => {
                    let v = Datum::Null;
                    assert!(cache.append(0, ColumnType::Int, &v, tick));
                    ints.push(v);
                }
                1 => {
                    let v = Datum::Int(rng.next() as i64);
                    assert!(cache.append(0, ColumnType::Int, &v, tick));
                    ints.push(v);
                }
                _ => {
                    let len = rng.below(13) as usize;
                    let s: String = (0..len)
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect();
                    let v = Datum::from(s.as_str());
                    assert!(cache.append(1, ColumnType::Str, &v, tick));
                    strs.push(v);
                }
            }
        }
        for (i, v) in ints.iter().enumerate() {
            assert_eq!(cache.peek(0, i), Some(v.clone()), "case {case} int row {i}");
        }
        for (i, v) in strs.iter().enumerate() {
            assert_eq!(cache.peek(1, i), Some(v.clone()), "case {case} str row {i}");
        }
    }
}

#[test]
fn histogram_fraction_le_is_monotone() {
    let mut rng = CaseRng::new(0x415);
    for case in 0..60u64 {
        let n = 1 + rng.below(400) as usize;
        let sample: Vec<i64> = (0..n).map(|_| rng.below(2_000) as i64 - 1_000).collect();
        let buckets = 1 + rng.below(40) as usize;
        let datums: Vec<Datum> = sample.iter().map(|&v| Datum::Int(v)).collect();
        let h = EquiDepthHistogram::build(&datums, buckets).unwrap();
        let mut probes: Vec<i64> = (0..2 + rng.below(18))
            .map(|_| rng.below(2_400) as i64 - 1_200)
            .collect();
        probes.sort_unstable();
        let mut prev = 0.0f64;
        for v in probes {
            let f = h.fraction_le(&Datum::Int(v));
            assert!((0.0..=1.0).contains(&f), "case {case}: f = {f}");
            assert!(
                f + 1e-9 >= prev,
                "case {case}: monotonicity {prev} then {f}"
            );
            prev = f;
        }
        let max = sample.iter().max().unwrap();
        assert!(
            (h.fraction_le(&Datum::Int(*max)) - 1.0).abs() < 1e-9,
            "case {case}: max must reach 1.0"
        );
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
                ta.cache().peek(attr, row),
                tb.cache().peek(attr, row),
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
                assert_eq!(x.sample(), y.sample(), "{label}: reservoir c{attr}");
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
