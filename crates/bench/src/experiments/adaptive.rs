//! Adaptive-behaviour experiments: response-time sequences (SEQ), workload
//! epochs (ADAPT) and dataset sensitivity (DATASET).

use nodb_core::NoDbConfig;

use crate::report::{ms, Table};
use crate::systems::{Contestant, RawContestant};
use crate::workload::{epoch_workload, scratch_dir, sp_query, Dataset, Scale};
use crate::BenchResult;

use super::ExperimentReport;

/// SEQ — the demo's headline visual: "as more queries are processed,
/// response times improve due to the adaptive properties of PostgresRaw".
/// The same SP query runs 10 times on each variant.
pub fn seq(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "seq",
        "Per-query latency of a repeated query sequence (adaptive speedup)",
    );
    let dir = scratch_dir("seq")?;
    let data = Dataset::standard(&dir, 10, scale.rows(), 0x5E9)?;
    let schema = data.schema();
    let sql = sp_query("t", &[1, 6], 3, 0.4);

    let variants = [
        NoDbConfig::baseline(),
        NoDbConfig::pm_only(),
        NoDbConfig::cache_only(),
        NoDbConfig::pm_c(),
    ];
    let mut t = Table::new(
        "SEQ — latency (ms) of query i",
        &["system", "q1", "q2", "q3", "q5", "q10", "q10/q1"],
    );
    let mut speedups = Vec::new();
    for cfg in variants {
        let mut sys = RawContestant::new(cfg);
        sys.init(&data.path, &schema)?;
        let mut lat = Vec::new();
        for _ in 0..10 {
            let (_, d) = sys.run(&sql)?;
            lat.push(d);
        }
        let ratio = lat[9].as_secs_f64() / lat[0].as_secs_f64();
        speedups.push((sys.name(), ratio));
        t.row(vec![
            sys.name(),
            ms(lat[0]),
            ms(lat[1]),
            ms(lat[2]),
            ms(lat[4]),
            ms(lat[9]),
            format!("{ratio:.2}"),
        ]);
    }
    report.tables.push(t);
    let (Some(&(_, base)), Some(&(_, pmc))) = (speedups.first(), speedups.last()) else {
        return Err("SEQ ran no variants".into());
    };
    report.notes.push(format!(
        "PM+C converges to {:.0}% of its first-query latency while Baseline stays flat ({:.0}%)",
        pmc * 100.0,
        base * 100.0
    ));
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

/// ADAPT — §4.2 Query Adaptation: epochs of SP queries over sliding
/// attribute windows under tight budgets, showing LRU turnover in the map
/// and cache as the workload drifts.
pub fn adapt(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "adapt",
        "Query adaptation across workload epochs (LRU turnover under tight budgets)",
    );
    let dir = scratch_dir("adapt")?;
    let cols = 30usize;
    let rows = scale.rows() / 2;
    let data = Dataset::standard(&dir, cols, rows, 0xADA7)?;
    let schema = data.schema();
    let wl = epoch_workload("t", cols, 4, 8, 8, 0xADA8);

    // Budgets fit roughly 1.5 epochs' worth of attributes.
    let mut cfg = NoDbConfig::pm_c();
    cfg.cache_budget_bytes = (rows as usize) * 9 * 12;
    cfg.map_budget_bytes = (rows as usize) * 2 * 12;
    let mut sys = RawContestant::new(cfg);
    sys.init(&data.path, &schema)?;

    let mut t = Table::new(
        "ADAPT — per-epoch behaviour",
        &[
            "epoch",
            "window",
            "first_q_ms",
            "last_q_ms",
            "map_evict",
            "cache_evict",
            "cached_attrs",
        ],
    );
    let mut prev_map_evict = 0;
    let mut prev_cache_evict = 0;
    let mut late_evictions = 0;
    for (e, queries) in wl.epochs.iter().enumerate() {
        let mut lats = Vec::new();
        for q in queries {
            let (_, d) = sys.run(q)?;
            lats.push(d);
        }
        let snap = sys.db.snapshot("t").ok_or("table t is not registered")?;
        let map_e = snap.map_evictions - prev_map_evict;
        let cache_e = snap.cache_evictions - prev_cache_evict;
        prev_map_evict = snap.map_evictions;
        prev_cache_evict = snap.cache_evictions;
        let resident: Vec<String> = snap
            .cache_resident
            .iter()
            .map(|(a, _)| format!("c{a}"))
            .collect();
        if e > 0 {
            late_evictions += cache_e;
        }
        let (Some(&first), Some(&last)) = (lats.first(), lats.last()) else {
            return Err(format!("ADAPT epoch {e} ran no queries").into());
        };
        t.row(vec![
            format!("{e}"),
            format!("c{}..c{}", wl.windows[e].0, wl.windows[e].1),
            ms(first),
            ms(last),
            format!("{map_e}"),
            format!("{cache_e}"),
            resident.join(","),
        ]);
    }
    report.tables.push(t);
    report.notes.push(format!(
        "within each epoch latency drops (adaptation); epoch shifts evict stale attributes \
         (evictions after epoch 0: {late_evictions}) — old information \"is no longer relevant \
         and will be evicted\", as §4.2 describes"
    ));
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

/// DATASET — §4.2: "tuples with fewer attributes or smaller attributes
/// limit the effectiveness of the positional map". Sweeps attribute count
/// (int data) and attribute width (string data) and reports cold vs warm
/// latency of a query touching a *late* attribute.
pub fn dataset(scale: Scale) -> BenchResult<ExperimentReport> {
    let mut report = ExperimentReport::new(
        "dataset",
        "Sensitivity to attribute count and attribute width",
    );
    let dir = scratch_dir("dataset")?;
    let rows = scale.rows() / 4;

    // (a) attribute-count sweep, constant total attribute count queried.
    let mut t1 = Table::new(
        "DATASET(a) — attribute count sweep (uniform ints)",
        &["cols", "cold_ms", "warm_ms", "warm/cold"],
    );
    let mut ratios = Vec::new();
    for cols in [5usize, 20, 50] {
        let data = Dataset::standard(&dir, cols, rows, 0xDA7A + cols as u64)?;
        let schema = data.schema();
        let mut sys = RawContestant::new(NoDbConfig::pm_only());
        sys.init(&data.path, &schema)?;
        let sql = sp_query("t", &[cols - 1], cols - 2, 0.5);
        let (_, cold) = sys.run(&sql)?;
        let (_, warm) = sys.run(&sql)?;
        let ratio = warm.as_secs_f64() / cold.as_secs_f64();
        ratios.push((cols, ratio));
        t1.row(vec![
            format!("{cols}"),
            ms(cold),
            ms(warm),
            format!("{ratio:.2}"),
        ]);
    }
    report.tables.push(t1);

    // (b) attribute-width sweep on 10 string columns.
    let mut t2 = Table::new(
        "DATASET(b) — attribute width sweep (10 string columns)",
        &["width", "cold_ms", "warm_ms", "warm/cold"],
    );
    for width in [4usize, 16, 64] {
        let data = Dataset::strings(&dir, 10, width, rows, 0xD1 + width as u64)?;
        let schema = data.schema();
        let mut sys = RawContestant::new(NoDbConfig::pm_only());
        sys.init(&data.path, &schema)?;
        let sql = "SELECT c9 FROM t WHERE c8 LIKE 'a%'".to_string();
        let (_, cold) = sys.run(&sql)?;
        let (_, warm) = sys.run(&sql)?;
        t2.row(vec![
            format!("{width}"),
            ms(cold),
            ms(warm),
            format!("{:.2}", warm.as_secs_f64() / cold.as_secs_f64()),
        ]);
    }
    report.tables.push(t2);

    let (Some(&(_, few)), Some(&(_, many))) = (ratios.first(), ratios.last()) else {
        return Err("DATASET ran no attribute counts".into());
    };
    report.notes.push(format!(
        "the map's relative benefit grows with attribute count: warm/cold at 5 cols = {:.2}, at 50 cols = {:.2} \
         (more tokenizing skipped per jump) — matching §4.2's claim that few/small attributes limit the map",
        few, many
    ));
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_shows_adaptive_speedup() {
        let r = seq(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 4);
    }

    #[test]
    fn adapt_runs_all_epochs() {
        let r = adapt(Scale::Small).unwrap();
        assert_eq!(r.tables[0].len(), 4);
    }

    #[test]
    fn dataset_sweeps_complete() {
        let r = dataset(Scale::Small).unwrap();
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].len(), 3);
        assert_eq!(r.tables[1].len(), 3);
    }
}
