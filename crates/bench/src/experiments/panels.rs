//! The two demo panels: Fig 2 (system monitoring) and Fig 3 (execution
//! breakdown).

use nodb_core::NoDbConfig;
use nodb_storage::DbProfile;

use crate::report::{ms, secs, Table};
use crate::systems::{Contestant, LoadedContestant, RawContestant};
use crate::workload::{scratch_dir, sp_query, Dataset, Scale};
use crate::BenchResult;

use super::{agree, ExperimentReport};

/// Fig 2 — the System Monitoring Panel: map/cache utilization, hit ratio
/// and per-attribute usage evolving over a 30-query workload whose focus
/// shifts across the file.
pub fn fig2(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig2",
        "System Monitoring Panel: positional map & cache utilization over an evolving workload",
    );
    let dir = scratch_dir("fig2")?;
    let cols = 10usize;
    let data = Dataset::standard(&dir, cols, scale.rows() / 2, 0xF162)?;
    let schema = data.schema();

    // Budgets sized so the gauges move visibly: the cache can hold roughly
    // half of the attributes, the map all of them.
    let rows = scale.rows() / 2;
    let mut cfg = NoDbConfig::pm_c();
    cfg.cache_budget_bytes = (rows as usize) * 9 * (cols / 2);
    cfg.map_budget_bytes = (rows as usize) * 2 * cols;
    let mut sys = RawContestant::new(cfg);
    sys.init(&data.path, &schema)?;

    let mut t = Table::new(
        "Fig 2 — utilization per query",
        &[
            "q#",
            "attrs",
            "map_util_%",
            "cache_util_%",
            "hit_ratio",
            "evictions",
            "latency_ms",
        ],
    );
    // Workload: drift attribute focus left → right across the file.
    for q in 0..30usize {
        let focus = (q * (cols - 2)) / 29; // 0 → cols-2
        let attrs = [focus, focus + 1];
        let sql = sp_query("t", &attrs, focus, 0.5);
        let (_, lat) = sys.run(&sql)?;
        let snap = sys.db.snapshot("t").ok_or("table t is not registered")?;
        t.row(vec![
            format!("{q}"),
            format!("c{},c{}", attrs[0], attrs[1]),
            format!("{:.1}", snap.map_utilization * 100.0),
            format!("{:.1}", snap.cache_utilization * 100.0),
            format!("{:.2}", snap.cache_hit_ratio),
            format!("{}", snap.cache_evictions),
            ms(lat),
        ]);
    }
    report.tables.push(t);

    let final_snap = sys.db.snapshot("t").ok_or("table t is not registered")?;
    report.notes.push(format!(
        "cache utilization grows from 0% to {:.0}% and saturates at its budget (evictions={}), map holds {} chunks",
        final_snap.cache_utilization * 100.0,
        final_snap.cache_evictions,
        final_snap.map_chunks.len()
    ));
    report.notes.push(
        "matches the demo: both gauges start empty and fill exclusively as a side effect of queries"
            .into(),
    );
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

/// Fig 3 — the Query Execution Breakdown: the same Select-Project query on
/// a cold file, across PostgreSQL-like (load + query), Baseline (naive
/// external files) and PostgresRaw PM+C, with per-phase slices.
pub fn fig3(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "fig3",
        "Query Execution Breakdown: PostgreSQL vs Baseline vs PostgresRaw (PM+C)",
    );
    let dir = scratch_dir("fig3")?;
    let data = Dataset::standard(&dir, 10, scale.rows(), 0xF163)?;
    let schema = data.schema();
    let sql = sp_query("t", &[2, 7], 4, 0.3);

    let mut t = Table::new(
        "Fig 3 — time to first answer (cold system), seconds",
        &[
            "system",
            "init_s",
            "q1_s",
            "io_ms",
            "tok_ms",
            "parse_ms",
            "conv_ms",
            "nodb_ms",
            "engine_ms",
            "proc_ms",
            "total_to_answer_s",
        ],
    );

    // PostgreSQL-like: init = full load; query runs over binary pages.
    let mut pg = LoadedContestant::new(DbProfile::PostgresLike, vec![])?;
    let pg_init = pg.init(&data.path, &schema)?;
    let (pg_r, pg_q) = pg.run(&sql)?;
    t.row(vec![
        pg.name(),
        secs(pg_init),
        secs(pg_q),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        ms(pg_q),
        secs(pg_init + pg_q),
    ]);

    // Baseline and PM+C: zero init, detailed slices.
    let mut raw = [RawContestant::baseline(), RawContestant::pm_c()];
    for sys in &mut raw {
        let init = sys.init(&data.path, &schema)?;
        let (r, q) = sys.run(&sql)?;
        agree(&sys.name(), &sql, &r, &pg_r)?;
        let rep = sys
            .db
            .admin()
            .last_report()
            .ok_or("no query report")?
            .clone();
        t.row(vec![
            sys.name(),
            secs(init),
            secs(q),
            ms(rep.breakdown.io),
            ms(rep.breakdown.tokenizing),
            ms(rep.breakdown.parsing),
            ms(rep.breakdown.convert),
            ms(rep.breakdown.nodb),
            ms(rep.breakdown.engine),
            ms(rep.breakdown.processing),
            secs(init + q),
        ]);
    }
    report.tables.push(t);

    // The adaptive payoff: the same query again on the warm PM+C system.
    let mut warm = Table::new(
        "Fig 3b — PostgresRaw (PM+C), same query warm",
        &[
            "run",
            "latency_ms",
            "io_ms",
            "tok_ms",
            "parse_ms",
            "conv_ms",
            "engine_ms",
            "fully_cached",
        ],
    );
    let [_, mut pmc] = raw;
    for run in 2..=3 {
        let (_, q) = pmc.run(&sql)?;
        let rep = pmc
            .db
            .admin()
            .last_report()
            .ok_or("no query report")?
            .clone();
        warm.row(vec![
            format!("q{run}"),
            ms(q),
            ms(rep.breakdown.io),
            ms(rep.breakdown.tokenizing),
            ms(rep.breakdown.parsing),
            ms(rep.breakdown.convert),
            ms(rep.breakdown.engine),
            format!("{}", rep.fully_cached),
        ]);
    }
    report.tables.push(warm);

    report.notes.push(
        "shape: conventional DBMS pays a large load before its fast first query; both in-situ \
         systems answer immediately; PostgresRaw's first query costs slightly more than Baseline \
         (NoDB-overhead slice) and subsequent runs collapse to cache reads"
            .into(),
    );
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_gauges_move() {
        let r = fig2(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 30);
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn fig3_produces_all_systems() {
        let r = fig3(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 3);
        assert_eq!(r.tables[1].len(), 2);
    }
}
