//! Cross-system integration tests: every storage path (adaptive raw scan in
//! all four variants, loaded row/column stores, index scans) must produce
//! identical answers for the same SQL over the same raw file.

use nodb_repro::bench::systems::{race_lineup, Contestant, RawContestant};
use nodb_repro::bench::workload::{scratch_dir, Dataset};
use nodb_repro::core::NoDbConfig;
use nodb_repro::prelude::*;
use nodb_repro::storage::{ConventionalDb, DbProfile};

fn queries() -> Vec<&'static str> {
    vec![
        "SELECT c0 FROM t WHERE c1 < 300000000",
        "SELECT c3, c1 FROM t WHERE c0 > 500000000 AND c2 < 800000000 ORDER BY c3 LIMIT 50",
        "SELECT COUNT(*) FROM t",
        "SELECT COUNT(*), SUM(c1), MIN(c0), MAX(c4) FROM t WHERE c2 BETWEEN 100000000 AND 900000000",
        "SELECT AVG(c2) FROM t WHERE c3 IN (1, 2, 3) OR c3 > 999000000",
        "SELECT c4, COUNT(*) FROM t WHERE c0 < 700000000 GROUP BY c4 ORDER BY c4 LIMIT 20",
        "SELECT c0 + c1 AS s FROM t WHERE c0 % 2 = 0 ORDER BY s DESC LIMIT 10",
        "SELECT * FROM t WHERE c0 < 5000000",
        "SELECT c2 FROM t WHERE NOT (c1 > 100000000) ORDER BY c2",
        "SELECT COUNT(*) FROM t WHERE c0 <> c1",
    ]
}

#[test]
fn all_systems_agree_on_all_queries() {
    let dir = scratch_dir("it_agree").unwrap();
    let data = Dataset::standard(&dir, 5, 3_000, 0xA11).unwrap();
    let schema = data.schema();
    let mut contestants = race_lineup().unwrap();
    for c in contestants.iter_mut() {
        c.init(&data.path, &schema).unwrap();
    }
    for sql in queries() {
        let mut reference: Option<(String, QueryResult)> = None;
        for c in contestants.iter_mut() {
            let (r, _) = c
                .run(sql)
                .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", c.name()));
            match &reference {
                None => reference = Some((c.name(), r)),
                Some((ref_name, expect)) => {
                    assert_eq!(&r, expect, "{} vs {ref_name} on {sql}", c.name());
                }
            }
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn adaptive_reruns_stay_consistent() {
    // Run the same query list three times on one adaptive instance: answers
    // must never change as the map/cache/statistics evolve underneath.
    let dir = scratch_dir("it_rerun").unwrap();
    let data = Dataset::standard(&dir, 5, 2_000, 0xB22).unwrap();
    let mut sys = RawContestant::pm_c();
    sys.init(&data.path, &data.schema()).unwrap();
    let mut first_pass: Vec<QueryResult> = Vec::new();
    for pass in 0..3 {
        for (i, sql) in queries().into_iter().enumerate() {
            let (r, _) = sys.run(sql).unwrap();
            if pass == 0 {
                first_pass.push(r);
            } else {
                assert_eq!(r, first_pass[i], "pass {pass}, query {sql}");
            }
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn tight_budgets_never_affect_correctness() {
    let dir = scratch_dir("it_budget").unwrap();
    let data = Dataset::standard(&dir, 6, 2_000, 0xC33).unwrap();
    let schema = data.schema();

    let mut reference = RawContestant::baseline();
    reference.init(&data.path, &schema).unwrap();

    for (map_b, cache_b) in [
        (0usize, 0usize),
        (500, 500),
        (4_000, 4_000),
        (1 << 20, 1 << 20),
    ] {
        let cfg = NoDbConfig {
            map_budget_bytes: map_b,
            cache_budget_bytes: cache_b,
            ..NoDbConfig::pm_c()
        };
        let mut sys = RawContestant::new(cfg);
        sys.init(&data.path, &schema).unwrap();
        for sql in queries() {
            let (expect, _) = reference.run(sql).unwrap();
            let (a, _) = sys.run(sql).unwrap();
            let (b, _) = sys.run(sql).unwrap(); // warm rerun under pressure
            assert_eq!(a, expect, "budgets ({map_b},{cache_b}) cold on {sql}");
            assert_eq!(b, expect, "budgets ({map_b},{cache_b}) warm on {sql}");
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn loaded_index_choice_is_transparent() {
    let dir = scratch_dir("it_index").unwrap();
    let data = Dataset::standard(&dir, 5, 2_000, 0xD44).unwrap();
    let schema = data.schema();
    let sub = dir.join("pg_idx");
    std::fs::create_dir_all(&sub).unwrap();
    let mut indexed = ConventionalDb::new(DbProfile::PostgresLike, &sub);
    indexed
        .load_csv("t", &data.path, schema.clone(), false, &[0, 2])
        .unwrap();
    let sub2 = dir.join("pg_plain");
    std::fs::create_dir_all(&sub2).unwrap();
    let mut plain = ConventionalDb::new(DbProfile::PostgresLike, &sub2);
    plain.load_csv("t", &data.path, schema, false, &[]).unwrap();
    for sql in queries() {
        assert_eq!(
            indexed.query(sql).unwrap(),
            plain.query(sql).unwrap(),
            "index scan differs on {sql}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn mixed_type_file_with_header_round_trips() {
    let dir = scratch_dir("it_mixed").unwrap();
    let path = dir.join("people.csv");
    let mut content = String::from("id,name,score,active\n");
    for i in 0..500 {
        content.push_str(&format!(
            "{i},person_{:03},{}.{:02},{}\n",
            i % 50,
            i % 90,
            i % 100,
            i % 3 == 0
        ));
    }
    std::fs::write(&path, content).unwrap();

    let mut db = NoDb::new(NoDbConfig::default());
    db.register_csv("people", &path).unwrap(); // schema inference
    let r = db
        .query("SELECT COUNT(*) FROM people WHERE active = true")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(167)));

    let r2 = db
        .query("SELECT name FROM people WHERE name LIKE 'person_00%' AND id < 10 ORDER BY id")
        .unwrap();
    assert_eq!(r2.len(), 10);

    let r3 = db.query("SELECT COUNT(DISTINCT name) FROM people").unwrap();
    assert_eq!(r3.scalar(), Some(&Datum::Int(50)));
    std::fs::remove_dir_all(dir).unwrap();
}
