//! Cross-system experiments: the friendly race (RACE), update handling
//! (UPDATES) and the component/budget ablation (KNOBS).

use std::time::Duration;

use nodb_core::NoDbConfig;
use nodb_rawcsv::Datum;

use crate::report::{ms, secs, Table};
use crate::systems::{race_lineup, Contestant, RawContestant};
use crate::workload::{race_queries, scratch_dir, sp_query, Dataset, Scale};
use crate::BenchResult;

use super::ExperimentReport;

/// RACE — §4.3: every contestant gets the same raw file and the same query
/// sequence; conventional systems must load (and may index) first. The
/// metric is *data-to-query time*: when does each system deliver the answer
/// to query k, counted from the starting shot.
pub fn race(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "race",
        "Friendly race: data-to-query time, PostgresRaw vs conventional DBMS",
    );
    let dir = scratch_dir("race")?;
    let data = Dataset::standard(&dir, 10, scale.rows(), 0xACE)?;
    let schema = data.schema();
    let queries = race_queries("t", 10);

    let mut t = Table::new(
        "RACE — cumulative time to answer query k (seconds since start)",
        &["system", "init_s", "q1", "q3", "q5", "q10", "total_s"],
    );
    let mut first_answer = Vec::new();
    let mut reference: Option<Vec<nodb_engine::QueryResult>> = None;
    for mut sys in race_lineup()? {
        let init = sys.init(&data.path, &schema)?;
        let mut cum = init;
        let mut marks = Vec::new();
        let mut results = Vec::new();
        for q in &queries {
            let (r, d) = sys.run(q)?;
            cum += d;
            marks.push(cum);
            results.push(r);
        }
        match &reference {
            None => reference = Some(results),
            Some(refr) => {
                for (i, (a, b)) in refr.iter().zip(&results).enumerate() {
                    assert_eq!(a, b, "{} disagrees on query {}", sys.name(), i);
                }
            }
        }
        first_answer.push((sys.name(), marks[0]));
        t.row(vec![
            sys.name(),
            secs(init),
            secs(marks[0]),
            secs(marks[2]),
            secs(marks[4]),
            secs(marks[9]),
            secs(cum),
        ]);
    }
    report.tables.push(t);

    let raw_first = first_answer
        .iter()
        .find(|(n, _)| n.contains("PM+C"))
        .map(|(_, d)| *d)
        .unwrap_or_default();
    let best_loaded = first_answer
        .iter()
        .filter(|(n, _)| {
            !n.contains("PostgresRaw") && !n.contains("Baseline") && !n.contains("External")
        })
        .map(|(_, d)| *d)
        .min()
        .unwrap_or_default();
    report.notes.push(format!(
        "PostgresRaw answers its first query in {:.3}s while the fastest conventional system \
         needs {:.3}s just to become usable — the data-to-query gap the paper demonstrates",
        raw_first.as_secs_f64(),
        best_loaded.as_secs_f64()
    ));
    report.notes.push(
        "per-query latency of loaded systems is lower after init; NoDB wins data-to-query time, \
         conventional systems amortize over very long workloads — the paper's stated trade-off"
            .into(),
    );
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

/// UPDATES — §4.2: append to and then replace the raw file *behind the
/// system's back*; the next query must see the new data, reusing prefix
/// state for appends and dropping everything for replacement.
pub fn updates(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "updates",
        "Update detection: appends reuse prefix state, replacement invalidates",
    );
    let dir = scratch_dir("updates")?;
    let rows = scale.rows() / 2;
    let data = Dataset::standard(&dir, 5, rows, 0x0bda)?;
    let schema = data.schema();
    let mut sys = RawContestant::pm_c();
    sys.init(&data.path, &schema)?;

    let count_sql = "SELECT COUNT(*) FROM t";
    let mut t = Table::new(
        "UPDATES — event timeline",
        &[
            "event",
            "count(*)",
            "latency_ms",
            "cache_bytes_before_query",
            "correct",
        ],
    );
    let mut record = |sys: &mut RawContestant, event: &str, expect: i64| -> BenchResult<()> {
        let before = sys
            .db
            .snapshot("t")
            .ok_or("table t is not registered")?
            .cache_bytes;
        let (r, d) = sys.run(count_sql)?;
        let got = r.scalar().cloned().ok_or("COUNT(*) returned no scalar")?;
        t.row(vec![
            event.into(),
            got.to_string(),
            ms(d),
            format!("{before}"),
            format!("{}", got == Datum::Int(expect)),
        ]);
        assert_eq!(got, Datum::Int(expect), "{event}");
        Ok(())
    };

    record(&mut sys, "initial query", rows as i64)?;
    record(&mut sys, "warm query", rows as i64)?;

    // Append 20% more rows.
    let extra = rows / 5;
    data.gen.append_rows(&data.path, extra)?;
    record(&mut sys, "after append (+20%)", (rows + extra) as i64)?;
    record(&mut sys, "warm after append", (rows + extra) as i64)?;

    // Replace the file entirely.
    let gen2 = nodb_rawcsv::GeneratorConfig::uniform_ints(5, rows / 10, 0xDEAD);
    gen2.generate_file(&data.path)?;
    record(&mut sys, "after replacement", (rows / 10) as i64)?;
    report.tables.push(t);

    report.notes.push(
        "appends are detected by the head-fingerprint probe; prefix cache/map state stays valid \
         and only the tail is re-learned; replacement drops all auxiliary structures — both \
         without any user action, as in the demo's text-editor scenario"
            .into(),
    );
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

/// KNOBS — the demo's component toggles and storage-budget sliders:
/// {Baseline, PM, C, PM+C} × map/cache budget sweep, plus the
/// selective-tokenizing ablation.
pub fn knobs(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report =
        ExperimentReport::new("knobs", "Component toggles and budget sweep (ablation)");
    let dir = scratch_dir("knobs")?;
    let rows = scale.rows() / 2;
    let cols = 10usize;
    let data = Dataset::standard(&dir, cols, rows, 0x0b5)?;
    let schema = data.schema();

    // A fixed 8-query workload over a few attributes.
    let queries: Vec<String> = (0..8)
        .map(|i| sp_query("t", &[2 + (i % 3), 6], 4, 0.3 + 0.05 * i as f64))
        .collect();
    let run_total = |cfg: NoDbConfig| -> BenchResult<Duration> {
        let mut sys = RawContestant::new(cfg);
        sys.init(&data.path, &schema)?;
        let mut total = Duration::ZERO;
        for q in &queries {
            let (_, d) = sys.run(q)?;
            total += d;
        }
        Ok(total)
    };

    // (a) component toggles.
    let mut t1 = Table::new(
        "KNOBS(a) — component toggles, total workload time",
        &["configuration", "total_ms"],
    );
    let mut toggles = Vec::new();
    for cfg in [
        NoDbConfig::baseline(),
        NoDbConfig {
            selective_tokenizing: true,
            ..NoDbConfig::baseline()
        },
        NoDbConfig::pm_only(),
        NoDbConfig::cache_only(),
        NoDbConfig::pm_c(),
    ] {
        let label = cfg.label().to_string();
        let total = run_total(cfg)?;
        toggles.push((label.clone(), total));
        t1.row(vec![label, ms(total)]);
    }
    report.tables.push(t1);

    // (b) budget sweep for PM+C: fractions of the "everything fits" budget.
    let full_cache = (rows as usize) * 9 * cols;
    let full_map = (rows as usize) * 2 * cols;
    let mut t2 = Table::new(
        "KNOBS(b) — budget sweep (PM+C), total workload time",
        &["budget_%", "cache_budget_B", "map_budget_B", "total_ms"],
    );
    for pct in [1usize, 10, 50, 100] {
        let cfg = NoDbConfig {
            cache_budget_bytes: full_cache * pct / 100,
            map_budget_bytes: full_map * pct / 100,
            ..NoDbConfig::pm_c()
        };
        let total = run_total(cfg)?;
        t2.row(vec![
            format!("{pct}"),
            format!("{}", cfg.cache_budget_bytes),
            format!("{}", cfg.map_budget_bytes),
            ms(total),
        ]);
    }
    report.tables.push(t2);

    let base = toggles[0].1.as_secs_f64();
    let pmc = toggles[4].1.as_secs_f64();
    report.notes.push(format!(
        "PM+C completes the workload in {:.0}% of Baseline's time; each component helps \
         individually and they compose",
        pmc / base * 100.0
    ));
    report.notes.push(
        "larger budgets monotonically help until everything fits — the demo's storage sliders"
            .into(),
    );
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_produces_lineup_and_agreement() {
        let r = race(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 5);
    }

    #[test]
    fn updates_timeline_is_correct() {
        let r = updates(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 5);
    }

    #[test]
    fn knobs_grids_complete() {
        let r = knobs(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 5);
        assert_eq!(r.tables[1].len(), 4);
    }
}
