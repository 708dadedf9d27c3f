//! Per-file adaptive state: schema, positional map, cache, statistics,
//! update fingerprint.

use std::path::{Path, PathBuf};

use nodb_engine::{EngineError, EngineResult};
use nodb_posmap::{MapPolicy, PositionalMap};
use nodb_rawcache::{CachePolicy, RawCache};
use nodb_rawcsv::reader::fnv1a;
use nodb_rawcsv::tokenizer::TokenizerConfig;
use nodb_rawcsv::{EpochChange, RawCsvError, Schema, SourceEpoch};
use nodb_snapshot::TableSnapshot;
use nodb_stats::TableStats;

use crate::config::NoDbConfig;
use crate::metrics::{ChunkInfo, SystemSnapshot};

/// What restoring a sidecar snapshot did to a freshly registered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// No sidecar file exists — a genuinely fresh table.
    NoSidecar,
    /// The snapshot was valid and matched the file (exactly, or as the
    /// prefix of an appended file); adaptive state was installed.
    Restored {
        /// True when the file grew since capture: the prefix state was
        /// kept and the tail is left for the next scan to discover.
        appended: bool,
    },
    /// The sidecar was unusable (corrupt, truncated, version-skewed, or
    /// the file was truncated or rewritten since capture); the table
    /// starts cold. The string says why, for telemetry and logs — never
    /// for control flow.
    Rejected(String),
}

/// One registered raw file and every adaptive structure hanging off it.
///
/// Nothing here is built at registration time: the map, cache and statistics
/// all start empty and grow exclusively as side effects of queries — the
/// NoDB contract.
pub struct RawTable {
    pub(crate) path: PathBuf,
    pub(crate) schema: Schema,
    pub(crate) has_header: bool,
    pub(crate) tokenizer: TokenizerConfig,
    pub(crate) map: PositionalMap,
    pub(crate) cache: RawCache,
    pub(crate) stats: TableStats,
    /// The source epoch every adaptive structure is keyed to: length,
    /// mtime, sampled head/tail hashes, and the torn-row fence. Re-captured
    /// (and the generation bumped) whenever update detection reconciles a
    /// change; only mutated under the table's write lock.
    pub(crate) epoch: SourceEpoch,
    /// Exact data-row count once any scan has completed.
    pub(crate) row_count: Option<u64>,
    /// Per-attribute access counts (usage panel of Fig 2).
    pub(crate) attr_access: Vec<u64>,
    /// File-state generation, bumped whenever update detection reconciles an
    /// append or replacement. A concurrent query snapshots the generation
    /// while planning under the table's write lock; if it differs when the
    /// query later re-acquires the lock to install its side effects, the
    /// staged state describes an older epoch: the query answers from what
    /// it read and installs nothing. Cached prepared plans are valid for
    /// one generation.
    pub(crate) generation: u64,
    /// Progress signature of the last snapshot written (or restored), so
    /// write-behind skips queries that grew nothing. `0` = never saved.
    pub(crate) last_snapshot_sig: u64,
}

impl RawTable {
    /// Register `path` with the given schema. Cost: one `stat` + 4 KiB head
    /// read for the update fingerprint — *no* data touch.
    pub fn register(
        path: impl AsRef<Path>,
        schema: Schema,
        has_header: bool,
        config: &NoDbConfig,
    ) -> Result<Self, RawCsvError> {
        Self::register_with_tokenizer(path, schema, has_header, config, TokenizerConfig::default())
    }

    /// [`Self::register`] with an explicit tokenizer (non-comma delimiter,
    /// quoted fields).
    pub fn register_with_tokenizer(
        path: impl AsRef<Path>,
        schema: Schema,
        has_header: bool,
        config: &NoDbConfig,
        tokenizer: TokenizerConfig,
    ) -> Result<Self, RawCsvError> {
        let path = path.as_ref().to_path_buf();
        let epoch = SourceEpoch::capture(&path)?;
        let nattrs = schema.len();
        Ok(RawTable {
            path,
            schema,
            has_header,
            tokenizer,
            map: PositionalMap::new(MapPolicy {
                budget_bytes: config.map_budget_bytes,
                trigger: config.combination_trigger,
            }),
            cache: RawCache::new(CachePolicy::with_budget(config.cache_budget_bytes)),
            stats: TableStats::new(config.stats_sample_every),
            epoch,
            row_count: None,
            attr_access: vec![0; nattrs],
            generation: 0,
            last_snapshot_sig: 0,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The raw file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read access to the positional map (harness / tests).
    pub fn map(&self) -> &PositionalMap {
        &self.map
    }

    /// Read access to the binary cache (harness / tests).
    pub fn cache(&self) -> &RawCache {
        &self.cache
    }

    /// Read access to the statistics registry (harness / tests).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The current source epoch (see [`nodb_rawcsv::epoch`]).
    pub fn epoch(&self) -> &SourceEpoch {
        &self.epoch
    }

    /// Probe the file and reconcile adaptive state with any change (§4.2
    /// *Updates*): appends keep all prefix state and replay from the old
    /// torn-row fence; truncation or rewrite quarantines everything.
    pub fn check_updates(&mut self) -> EngineResult<EpochChange> {
        let change = self.epoch.classify(&self.path)?;
        match change {
            EpochChange::Unchanged => {}
            EpochChange::Appended { .. } => {
                self.map.note_appended();
                self.stats.note_appended();
                self.row_count = None;
                self.generation += 1;
                self.rekey(SourceEpoch::try_capture(&self.path)?)?;
            }
            EpochChange::Truncated { .. } | EpochChange::Rewritten => {
                self.quarantine()?;
            }
        }
        Ok(change)
    }

    /// Epoch quarantine: the backing file was truncated, rewritten, or
    /// replaced, so every adaptive structure describes bytes of a dead
    /// epoch. Drops the map (chunks and row index), the cache, and the
    /// statistics atomically (the caller holds the table's
    /// write lock), bumps the generation so staged concurrent state is
    /// discarded at its install fence, resets the snapshot write-behind
    /// signature, and re-captures the epoch from the live file.
    ///
    /// The state drop happens *before* the re-capture, so even when the
    /// file has meanwhile vanished (the error path) no stale state
    /// survives — the next successful probe starts genuinely cold.
    pub(crate) fn quarantine(&mut self) -> EngineResult<()> {
        self.map.quarantine();
        self.cache.quarantine();
        self.stats.quarantine();
        self.row_count = None;
        self.last_snapshot_sig = 0;
        self.generation += 1;
        self.rekey(SourceEpoch::try_capture(&self.path)?)
    }

    /// Key the table to a freshly captured epoch. `None` — the capture
    /// raced a mutation on every attempt — means an external writer is
    /// active right now: that is [`EngineError::SourceChanged`] (retryable,
    /// like any other mid-query mutation), not an I/O failure. The table
    /// keeps its previous epoch, so the next probe classifies the settled
    /// file against it and reconciles then.
    fn rekey(&mut self, captured: Option<SourceEpoch>) -> EngineResult<()> {
        self.epoch = captured.ok_or_else(|| EngineError::SourceChanged {
            table: self.path.display().to_string(),
        })?;
        Ok(())
    }

    /// Try to restore adaptive state from the table's sidecar snapshot.
    /// Called right after registration (before any query). The decoded
    /// map, cache and statistics are installed under the epoch they were
    /// built under, and [`Self::check_updates`] then reconciles that epoch
    /// with the live file exactly as it does before every query: unchanged
    /// keeps everything, an append keeps the prefix and leaves the tail to
    /// the next scan, and a truncation, rewrite or failed probe quarantines
    /// the table back to cold. Any load failure — I/O, corruption, version
    /// skew — leaves the table exactly as cold as it already was.
    /// Restoration honors the config's component switches (a `baseline()`
    /// instance restores nothing) and only adopts statistics captured under
    /// the same sampling stride, since a restored reservoir must continue
    /// the same sample stream.
    pub fn try_restore_snapshot(&mut self, config: &NoDbConfig) -> RestoreOutcome {
        let snap = match nodb_snapshot::load_snapshot(
            &self.path,
            config.io_block_size,
            config.io_profile(),
        ) {
            Ok(Some(s)) => s,
            Ok(None) => return RestoreOutcome::NoSidecar,
            Err(e) => return RestoreOutcome::Rejected(e.to_string()),
        };
        self.epoch = snap.epoch;
        self.row_count = snap.row_count;
        if config.enable_positional_map {
            snap.map.install_into(&mut self.map);
        }
        if config.enable_cache {
            for (attr, col) in snap.columns {
                if attr < self.schema.len() {
                    self.cache.install_restored(attr, col);
                }
            }
        }
        if config.enable_stats && snap.stats.sample_every == config.stats_sample_every {
            if let Some(stats) = TableStats::from_state(snap.stats) {
                self.stats = stats;
            }
        }
        let appended = match self.check_updates() {
            Ok(EpochChange::Unchanged) => false,
            Ok(EpochChange::Appended { .. }) => true,
            Ok(change) => return RestoreOutcome::Rejected(format!("{change:?} since capture")),
            Err(e) => {
                // The probe (or the append's re-key) failed with restored
                // state installed: drop it, like a rewrite.
                let _ = self.quarantine();
                return RestoreOutcome::Rejected(format!("epoch probe: {e}"));
            }
        };
        // Remember what we restored, so the first query only re-writes the
        // sidecar if it actually grew something.
        self.last_snapshot_sig = self.snapshot_signature();
        RestoreOutcome::Restored { appended }
    }

    /// Capture this table's full adaptive state for persistence. The caller
    /// holds (at least) the table's read lock, which is what keeps the
    /// map/cache/statistics mutually consistent.
    pub fn capture_snapshot(&self) -> TableSnapshot {
        TableSnapshot::capture(
            self.epoch,
            self.row_count,
            &self.map,
            &self.cache,
            &self.stats,
        )
    }

    /// Cheap progress signature over the adaptive structures: write-behind
    /// compares it against `last_snapshot_sig` and skips the save
    /// when a query grew nothing. Collisions only cost a skipped (or an
    /// extra) save — never a wrong answer, since the loader re-validates
    /// everything.
    pub fn snapshot_signature(&self) -> u64 {
        let mut buf = Vec::with_capacity(128);
        let mut put = |v: u64| buf.extend_from_slice(&v.to_le_bytes());
        put(self.epoch.len);
        put(self.epoch.head_hash);
        put(self.map.row_index().starts().len() as u64);
        put(u64::from(self.map.row_index().is_complete()));
        put(self.map.bytes_used() as u64);
        put(self.map.chunks().len() as u64);
        for c in self.map.chunks() {
            put(c.attrs().len() as u64);
            put(c.rows() as u64);
        }
        put(self.cache.bytes_used() as u64);
        for (attr, rows) in self.cache.resident() {
            put(attr as u64);
            put(rows as u64);
        }
        for attr in self.stats.covered_attrs() {
            put(attr as u64);
            put(self.stats.observed_upto(attr));
        }
        put(self.row_count.map_or(u64::MAX, |n| n));
        fnv1a(&buf)
    }

    /// Capture the Figure 2 monitoring panel.
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            map_bytes: self.map.bytes_used(),
            map_budget: self.map.policy().budget_bytes,
            map_utilization: self.map.utilization(),
            map_chunks: self
                .map
                .chunks()
                .iter()
                .map(|c| ChunkInfo {
                    attrs: c.attrs().to_vec(),
                    rows: c.rows(),
                    bytes: c.footprint(),
                })
                .collect(),
            row_index_bytes: self.map.row_index().footprint(),
            map_installs: self.map.metrics().installs,
            map_evictions: self.map.metrics().evictions,
            cache_bytes: self.cache.bytes_used(),
            cache_budget: self.cache.policy().budget_bytes,
            cache_utilization: self.cache.utilization(),
            cache_resident: self.cache.resident(),
            cache_hit_ratio: self.cache.metrics().hit_ratio(),
            cache_evictions: self.cache.metrics().evictions,
            stats_attrs: self.stats.covered_attrs(),
            attr_access_counts: self
                .attr_access
                .iter()
                .enumerate()
                .map(|(a, &n)| (a, n))
                .collect(),
            row_count: self.row_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::GeneratorConfig;

    fn tmp_csv(rows: u64) -> (PathBuf, Schema) {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_table_{}_{}",
            rows,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = GeneratorConfig::uniform_ints(3, rows, 1);
        cfg.generate_file(&p).unwrap();
        (p, cfg.schema())
    }

    #[test]
    fn register_touches_no_data() {
        let (p, schema) = tmp_csv(100);
        let t = RawTable::register(&p, schema, false, &NoDbConfig::default()).unwrap();
        assert!(t.map.chunks().is_empty());
        assert_eq!(t.cache.bytes_used(), 0);
        assert!(t.row_count.is_none());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn replace_invalidates_everything() {
        let (p, schema) = tmp_csv(50);
        let mut t = RawTable::register(&p, schema, false, &NoDbConfig::default()).unwrap();
        t.row_count = Some(50);
        std::fs::write(&p, "9,9,9\n").unwrap();
        let change = t.check_updates().unwrap();
        assert_eq!(change, EpochChange::Rewritten);
        assert!(t.row_count.is_none());
        assert_eq!(t.generation, 1, "quarantine bumps the generation");
        assert_eq!(t.epoch.len, 6, "epoch re-captured from the new file");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn truncation_quarantines_everything() {
        // Big enough that the 4 KiB head window is a strict prefix —
        // otherwise the chop below also changes the head and classifies as
        // a rewrite (same quarantine, different label).
        let (p, schema) = tmp_csv(2000);
        let mut t = RawTable::register(&p, schema, false, &NoDbConfig::default()).unwrap();
        t.row_count = Some(2000);
        // Chop the file to a prefix (at whatever byte; head stays intact).
        let content = std::fs::read(&p).unwrap();
        std::fs::write(&p, &content[..content.len() / 2]).unwrap();
        let change = t.check_updates().unwrap();
        assert!(matches!(change, EpochChange::Truncated { .. }));
        assert!(t.row_count.is_none());
        assert!(t.map.chunks().is_empty());
        assert_eq!(t.cache.bytes_used(), 0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn append_keeps_prefix_state() {
        let (p, schema) = tmp_csv(50);
        let cfg_for_append = GeneratorConfig::uniform_ints(3, 50, 1);
        let mut t = RawTable::register(&p, schema, false, &NoDbConfig::default()).unwrap();
        t.row_count = Some(50);
        cfg_for_append.append_rows(&p, 10).unwrap();
        let old_fence = t.epoch.trusted_len;
        let change = t.check_updates().unwrap();
        assert_eq!(
            change,
            EpochChange::Appended {
                old_trusted_len: old_fence
            },
            "replay starts at the old torn-row fence"
        );
        assert!(t.row_count.is_none(), "count must be re-learned");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn capture_exhaustion_classifies_as_source_changed() {
        let (p, schema) = tmp_csv(50);
        let mut t = RawTable::register(&p, schema, false, &NoDbConfig::default()).unwrap();
        let before = t.epoch;
        // Every capture attempt "raced a writer": the bounded loop gives up.
        let mut attempts = 0;
        let churning = SourceEpoch::capture_bounded(&p, |_| {
            attempts += 1;
            Ok(None)
        })
        .unwrap();
        assert!(attempts > 1, "the capture restarted before giving up");
        assert!(churning.is_none());
        let err = t.rekey(churning).unwrap_err();
        assert!(
            matches!(err, EngineError::SourceChanged { .. }),
            "retryable source mutation, not an I/O error: {err:?}"
        );
        assert_eq!(t.epoch, before, "previous epoch kept for the next probe");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn snapshot_starts_empty() {
        let (p, schema) = tmp_csv(10);
        let t = RawTable::register(&p, schema, false, &NoDbConfig::default()).unwrap();
        let s = t.snapshot();
        assert_eq!(s.map_bytes, 0);
        assert_eq!(s.cache_bytes, 0);
        assert!(s.stats_attrs.is_empty());
        std::fs::remove_file(p).unwrap();
    }
}
