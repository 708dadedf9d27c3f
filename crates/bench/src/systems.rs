//! Unified wrappers over every system in the comparison — the "contestants"
//! of the friendly race, and the PM/C variants of the breakdown panels.

use std::path::Path;
use std::time::{Duration, Instant};

use nodb_core::{NoDb, NoDbConfig};
use nodb_engine::{EngineResult, QueryResult};
use nodb_rawcsv::Schema;
use nodb_storage::{ConventionalDb, DbProfile};

/// One contestant: some system that can (optionally) initialize and then
/// answer queries.
pub trait Contestant {
    /// Display name.
    fn name(&self) -> String;

    /// Perform all initialization (loading, indexing). NoDB systems return
    /// immediately — that's the whole point.
    fn init(&mut self, csv: &Path, schema: &Schema) -> EngineResult<Duration>;

    /// Run one query, returning the result and its latency.
    fn run(&mut self, sql: &str) -> EngineResult<(QueryResult, Duration)>;
}

/// A PostgresRaw-style in-situ contestant (any [`NoDbConfig`] variant).
pub struct RawContestant {
    /// The underlying system (exposed for panel snapshots).
    pub db: NoDb,
    label: String,
}

impl RawContestant {
    /// Contestant with the given configuration.
    pub fn new(config: NoDbConfig) -> Self {
        RawContestant {
            label: config.label().to_string(),
            db: NoDb::new(config),
        }
    }

    /// The paper's PostgresRaw PM+C.
    pub fn pm_c() -> Self {
        Self::new(NoDbConfig::pm_c())
    }

    /// The paper's Baseline (naive external files).
    pub fn baseline() -> Self {
        Self::new(NoDbConfig::baseline())
    }
}

impl Contestant for RawContestant {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn init(&mut self, csv: &Path, schema: &Schema) -> EngineResult<Duration> {
        let t = Instant::now();
        self.db
            .register_csv_with_schema("t", csv, schema.clone(), false)?;
        Ok(t.elapsed())
    }

    fn run(&mut self, sql: &str) -> EngineResult<(QueryResult, Duration)> {
        let t = Instant::now();
        let r = self.db.query(sql)?;
        Ok((r, t.elapsed()))
    }
}

/// A conventional load-then-query contestant.
pub struct LoadedContestant {
    /// The underlying DBMS (exposed for inspection).
    pub db: ConventionalDb,
    profile: DbProfile,
    index_attrs: Vec<usize>,
    _dir: std::path::PathBuf,
}

impl LoadedContestant {
    /// Contestant with the given profile; `index_attrs` models the
    /// contestant's tuning choices ("free to … build additional auxiliary
    /// data structures such as indices", §4.3).
    pub fn new(profile: DbProfile, index_attrs: Vec<usize>) -> std::io::Result<Self> {
        let dir = crate::workload::scratch_dir(&format!("dbms_{profile:?}"))?;
        Ok(LoadedContestant {
            db: ConventionalDb::new(profile, &dir),
            profile,
            index_attrs,
            _dir: dir,
        })
    }
}

impl Contestant for LoadedContestant {
    fn name(&self) -> String {
        if self.index_attrs.is_empty() {
            self.profile.name().to_string()
        } else {
            format!("{} (+{} idx)", self.profile.name(), self.index_attrs.len())
        }
    }

    fn init(&mut self, csv: &Path, schema: &Schema) -> EngineResult<Duration> {
        let report = self
            .db
            .load_csv("t", csv, schema.clone(), false, &self.index_attrs)
            .map_err(nodb_engine::EngineError::from)?;
        Ok(report.total_time())
    }

    fn run(&mut self, sql: &str) -> EngineResult<(QueryResult, Duration)> {
        let t = Instant::now();
        let r = self.db.query(sql)?;
        Ok((r, t.elapsed()))
    }
}

/// The full lineup for the friendly race.
pub fn race_lineup() -> std::io::Result<Vec<Box<dyn Contestant>>> {
    Ok(vec![
        Box::new(RawContestant::pm_c()),
        Box::new(RawContestant::baseline()),
        Box::new(LoadedContestant::new(DbProfile::PostgresLike, vec![])?),
        Box::new(LoadedContestant::new(DbProfile::MySqlLike, vec![])?),
        Box::new(LoadedContestant::new(DbProfile::DbmsXLike, vec![])?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{scratch_dir, Dataset};

    #[test]
    fn all_contestants_agree_on_results() {
        let dir = scratch_dir("systems_test").unwrap();
        let d = Dataset::standard(&dir, 5, 2000, 3).unwrap();
        let schema = d.schema();
        let sql = "SELECT COUNT(*), SUM(c2) FROM t WHERE c1 < 400000000";
        let mut answers = Vec::new();
        for mut c in race_lineup().unwrap() {
            c.init(&d.path, &schema).unwrap();
            let (r, _) = c.run(sql).unwrap();
            answers.push((c.name(), r));
        }
        let (ref_name, reference) = &answers[0];
        for (name, r) in &answers[1..] {
            assert_eq!(r, reference, "{name} disagrees with {ref_name}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn raw_contestant_inits_instantly_loaded_does_not() {
        let dir = scratch_dir("init_test").unwrap();
        let d = Dataset::standard(&dir, 5, 5000, 4).unwrap();
        let schema = d.schema();
        let mut raw = RawContestant::pm_c();
        let raw_init = raw.init(&d.path, &schema).unwrap();
        let mut pg = LoadedContestant::new(DbProfile::PostgresLike, vec![]).unwrap();
        let pg_init = pg.init(&d.path, &schema).unwrap();
        assert!(
            pg_init > raw_init,
            "loading ({pg_init:?}) must dominate registration ({raw_init:?})"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
