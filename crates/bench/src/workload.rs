//! Workload generation: datasets and query sequences for every experiment.

use std::io;
use std::path::{Path, PathBuf};

use nodb_rawcsv::GeneratorConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Experiment scale: `Small` keeps CI runs fast; `Full` is the
/// paper-comparable size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~2 MB files, seconds per experiment.
    Small,
    /// ~100 MB-class files, minutes per experiment.
    Full,
}

impl Scale {
    /// Rows for the standard dataset at this scale.
    pub fn rows(self) -> u64 {
        match self {
            Scale::Small => 20_000,
            Scale::Full => 500_000,
        }
    }

    /// Parse from a CLI flag.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// A generated dataset on disk plus its generator config (for appends).
pub struct Dataset {
    /// File path.
    pub path: PathBuf,
    /// Generator used (re-usable for appends).
    pub gen: GeneratorConfig,
}

impl Dataset {
    /// The standard experiment dataset: `cols` uniform integer attributes.
    pub fn standard(dir: &Path, cols: usize, rows: u64, seed: u64) -> nodb_rawcsv::Result<Dataset> {
        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        let path = dir.join(format!("data_{cols}x{rows}_{seed}.csv"));
        gen.generate_file(&path)?;
        Ok(Dataset { path, gen })
    }

    /// Fixed-width string dataset (attribute-width sensitivity).
    pub fn strings(
        dir: &Path,
        cols: usize,
        width: usize,
        rows: u64,
        seed: u64,
    ) -> nodb_rawcsv::Result<Dataset> {
        let gen = GeneratorConfig::fixed_width_strings(cols, width, rows, seed);
        let path = dir.join(format!("strs_{cols}x{width}x{rows}_{seed}.csv"));
        gen.generate_file(&path)?;
        Ok(Dataset { path, gen })
    }

    /// Schema of the dataset.
    pub fn schema(&self) -> nodb_rawcsv::Schema {
        self.gen.schema()
    }
}

/// Build a simple projection query over the given attributes.
pub fn projection_query(table: &str, attrs: &[usize]) -> String {
    let cols: Vec<String> = attrs.iter().map(|a| format!("c{a}")).collect();
    format!("SELECT {} FROM {}", cols.join(", "), table)
}

/// Build a Select-Project query with a range predicate of roughly the given
/// selectivity over a uniform `[0, 10^9)` integer attribute.
pub fn sp_query(table: &str, proj: &[usize], pred_attr: usize, selectivity: f64) -> String {
    let cut = (selectivity.clamp(0.0, 1.0) * 1e9) as i64;
    format!(
        "{} WHERE c{} < {}",
        projection_query(table, proj),
        pred_attr,
        cut
    )
}

/// The §4.2 *Query Adaptation* workload: epochs of SP queries, each epoch
/// confined to a sliding window of attributes ("queries within each epoch
/// refer to a specific part of the input data file, representing their
/// exploratory behavior").
pub struct EpochWorkload {
    /// Queries grouped by epoch.
    pub epochs: Vec<Vec<String>>,
    /// The attribute window of each epoch (for shading the panel).
    pub windows: Vec<(usize, usize)>,
}

/// Generate `n_epochs` epochs of `per_epoch` queries over a table with
/// `ncols` attributes; each epoch uses a window of `window` attributes that
/// slides across the file.
pub fn epoch_workload(
    table: &str,
    ncols: usize,
    n_epochs: usize,
    per_epoch: usize,
    window: usize,
    seed: u64,
) -> EpochWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = window.min(ncols).max(2);
    let max_start = ncols - window;
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut windows = Vec::with_capacity(n_epochs);
    for e in 0..n_epochs {
        let start = if n_epochs > 1 {
            e * max_start / (n_epochs - 1)
        } else {
            0
        };
        windows.push((start, start + window - 1));
        let mut queries = Vec::with_capacity(per_epoch);
        for _ in 0..per_epoch {
            // 2 projected attrs + 1 predicate attr, all inside the window.
            let a = start + rng.random_range(0..window);
            let mut b = start + rng.random_range(0..window);
            if b == a {
                b = start + (b - start + 1) % window;
            }
            let p = start + rng.random_range(0..window);
            let sel = 0.1 + rng.random::<f64>() * 0.4;
            queries.push(sp_query(table, &[a.min(b), a.max(b)], p, sel));
        }
        epochs.push(queries);
    }
    EpochWorkload { epochs, windows }
}

/// The friendly-race query set (§4.3): a mix of projections, filters and
/// aggregates touching different parts of the file.
pub fn race_queries(table: &str, ncols: usize) -> Vec<String> {
    let c = |i: usize| i.min(ncols - 1);
    vec![
        format!("SELECT c{} FROM {table} WHERE c{} < 100000000", c(0), c(1)),
        format!(
            "SELECT c{}, c{} FROM {table} WHERE c{} > 900000000",
            c(2),
            c(3),
            c(0)
        ),
        format!("SELECT COUNT(*) FROM {table}"),
        format!(
            "SELECT AVG(c{}) FROM {table} WHERE c{} < 500000000",
            c(1),
            c(2)
        ),
        format!(
            "SELECT c{} FROM {table} WHERE c{} BETWEEN 200000000 AND 300000000",
            c(4),
            c(4)
        ),
        format!("SELECT MIN(c{}), MAX(c{}) FROM {table}", c(0), c(0)),
        format!(
            "SELECT c{}, c{} FROM {table} WHERE c{} < 50000000 ORDER BY c{} LIMIT 100",
            c(1),
            c(2),
            c(3),
            c(1)
        ),
        format!(
            "SELECT COUNT(*) FROM {table} WHERE c{} > 500000000 AND c{} < 500000000",
            c(0),
            c(1)
        ),
        format!(
            "SELECT SUM(c{}) FROM {table} WHERE c{} > 100000000",
            c(2),
            c(2)
        ),
        format!("SELECT c{} FROM {table} WHERE c{} = 123456789", c(0), c(0)),
    ]
}

/// Temp directory for one experiment run (unique per process + nanos).
pub fn scratch_dir(tag: &str) -> io::Result<PathBuf> {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "nodb_exp_{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos()
    ));
    std::fs::create_dir_all(&p)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_query_selectivity_maps_to_cut() {
        let q = sp_query("t", &[0, 2], 1, 0.25);
        assert!(q.contains("WHERE c1 < 250000000"), "{q}");
        assert!(q.starts_with("SELECT c0, c2 FROM t"));
    }

    #[test]
    fn epochs_slide_across_attributes() {
        let w = epoch_workload("t", 50, 4, 10, 10, 1);
        assert_eq!(w.epochs.len(), 4);
        assert_eq!(w.windows[0].0, 0);
        assert_eq!(w.windows[3].1, 49);
        assert!(w.windows[1].0 > w.windows[0].0);
        for (e, queries) in w.epochs.iter().enumerate() {
            assert_eq!(queries.len(), 10);
            let (lo, hi) = w.windows[e];
            for q in queries {
                // Every referenced attribute must be inside the window.
                for part in q.split(['c', ' ', ',']).filter(|p| !p.is_empty()) {
                    if let Ok(a) = part.parse::<usize>() {
                        if a < 100 {
                            assert!(a >= lo && a <= hi, "attr {a} outside {lo}..{hi} in {q}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn race_queries_are_parseable() {
        for q in race_queries("t", 10) {
            nodb_sqlparse::parse_select(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn dataset_generation_round_trips() {
        let dir = scratch_dir("workload_test").unwrap();
        let d = Dataset::standard(&dir, 3, 100, 1).unwrap();
        assert!(d.path.exists());
        assert_eq!(d.schema().len(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
