//! Integration tests for §3.3: on-the-fly statistics must actually change
//! planning decisions as queries accumulate, and never change results.

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::prelude::*;

fn tmp_csv(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_statsplan_{tag}_{}", std::process::id()));
    p
}

/// Build a file where c0 is highly selective for `< 10` (values 0..1000)
/// and c1 is not (constant 5), then check that the optimizer reorders the
/// conjuncts once statistics exist.
#[test]
fn observed_statistics_reorder_conjuncts() {
    let path = tmp_csv("reorder");
    let mut content = String::new();
    for i in 0..2000 {
        content.push_str(&format!("{},5\n", i % 1000));
    }
    std::fs::write(&path, &content).unwrap();

    let schema = Schema::new(vec![
        ColumnDef::new("c0", ColumnType::Int),
        ColumnDef::new("c1", ColumnType::Int),
    ]);
    let mut db = NoDb::new(NoDbConfig::default());
    db.register_csv_with_schema("t", &path, schema, false)
        .unwrap();

    // Written order puts the useless conjunct first. With no statistics,
    // both range conjuncts get the same default, so written order survives.
    let sql = "SELECT c0 FROM t WHERE c1 < 1000000 AND c0 < 10";
    db.query(sql).unwrap();
    let cold_plan = db.admin().last_report().unwrap().plan.clone();

    // Now statistics exist for both attributes: c0 < 10 is ~1%, c1 < 1e6 is
    // ~100%. The selective conjunct must sort first, shrinking the
    // estimated selectivity in the plan.
    db.query(sql).unwrap();
    let warm_plan = db.admin().last_report().unwrap().plan.clone();
    let sel_of = |plan: &str| -> f64 {
        plan.split("est_selectivity=")
            .nth(1)
            .and_then(|s| s.trim().parse::<f64>().ok())
            .unwrap_or(1.0)
    };
    assert!(
        sel_of(&warm_plan) < sel_of(&cold_plan),
        "statistics must sharpen the estimate: cold {cold_plan:?} vs warm {warm_plan:?}"
    );
    assert!(sel_of(&warm_plan) < 0.1, "warm estimate should be ~1%");
    std::fs::remove_file(path).unwrap();
}

/// Statistics survive appends (they still describe the prefix) and are
/// dropped on replacement — mirrored from update handling.
#[test]
fn statistics_follow_update_lifecycle() {
    let path = tmp_csv("lifecycle");
    let gen = GeneratorConfig::uniform_ints(3, 500, 0x11fe);
    gen.generate_file(&path).unwrap();
    let mut db = NoDb::new(NoDbConfig::default());
    db.register_csv_with_schema("t", &path, gen.schema(), false)
        .unwrap();
    db.query("SELECT c1 FROM t WHERE c1 > 0").unwrap();
    let covered = db.snapshot("t").unwrap().stats_attrs;
    assert_eq!(covered, vec![1]);

    // Append: stats stay.
    gen.append_rows(&path, 100).unwrap();
    db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(db.snapshot("t").unwrap().stats_attrs, vec![1]);

    // Replace: stats dropped (until the next touch).
    GeneratorConfig::uniform_ints(3, 50, 0x22)
        .generate_file(&path)
        .unwrap();
    db.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(db.snapshot("t").unwrap().stats_attrs.is_empty());
    std::fs::remove_file(path).unwrap();
}
