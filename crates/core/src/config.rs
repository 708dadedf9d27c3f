//! Configuration knobs — the demo's interactive parameter panel.
//!
//! "The user can enable or disable the NoDB components of PostgresRaw and
//! specify the amount of storage space which is devoted to internal indexes
//! and caches" (§1). Every switch the demo exposes is a field here, plus the
//! ablation flags the experiments toggle. How a scan forms its result batches
//! and how it cuts the file into slices are deliberately not among them:
//! there is one former (`rawscan::segment_batch`) and one planner
//! (`rawscan::plan_slices`, driven by what the row index holds), so no
//! configuration can make the cold, warm and cached answers to a query come
//! out of different code.

/// Smallest accepted [`NoDbConfig::io_block_size`]. Values below one page
/// degenerate (per-line syscalls) or outright break the scanner's tail-read
/// stepping; [`NoDbConfig::validated`] clamps instead of trusting callers.
pub const MIN_IO_BLOCK_SIZE: usize = 4096;

/// Largest accepted [`NoDbConfig::io_block_size`] (256 MiB): past this a
/// typo'd budget would make every scanner buffer a sizeable fraction of
/// RAM for no throughput gain.
pub const MAX_IO_BLOCK_SIZE: usize = 256 << 20;

/// What a scan does with a row whose bytes fail to parse as the schema's
/// type for a requested attribute.
///
/// A cell is judged only when the scan converts it, and a file's first
/// filtered scan (one without a deadline) converts its projection-only
/// columns only for the rows the predicate keeps
/// (`rawscan::survivors_only`): a malformed cell there in a row the
/// predicate rejects is neither reported nor quarantined. The
/// next query that converts the column whole meets it — under `Strict`
/// it fails with the error a whole conversion reports on a first scan,
/// under `Permissive` it quarantines the row then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseErrorPolicy {
    /// Abort the query with the parse error (the historical behavior).
    #[default]
    Strict,
    /// Quarantine the malformed cell: it becomes a NULL tombstone (exactly
    /// how a short row's absent attribute already materializes), the row
    /// keeps its position and row number, and a capped sample of (row, byte
    /// offset, attribute) triples is surfaced through
    /// `ScanTelemetry`/`QueryReport`. Because the tombstone is what gets
    /// cached and observed by statistics, cold scans, warm re-runs and
    /// cache-served scans of the same file stay byte-identical.
    Permissive,
}

/// Full configuration of a [`crate::NoDb`] instance.
#[derive(Debug, Clone, Copy)]
pub struct NoDbConfig {
    /// Enable the adaptive positional map (§3.1).
    pub enable_positional_map: bool,
    /// Enable the adaptive binary cache (§3.2).
    pub enable_cache: bool,
    /// Enable on-the-fly statistics (§3.3).
    pub enable_stats: bool,
    /// Byte budget for the positional map's chunks.
    pub map_budget_bytes: usize,
    /// Byte budget for the cache.
    pub cache_budget_bytes: usize,
    /// Selective tokenizing (§3): abort each tuple once the last needed
    /// attribute is located. Disabling reverts to full-tuple tokenizing —
    /// the KNOBS ablation.
    pub selective_tokenizing: bool,
    /// Block size for sequential raw-file reads. Clamped to
    /// `[MIN_IO_BLOCK_SIZE, MAX_IO_BLOCK_SIZE]` by [`Self::validated`] —
    /// a zero/tiny value would degenerate to per-line syscalls.
    pub io_block_size: usize,
    /// Check the raw file for appends/replacement before every query (§4.2
    /// *Updates*). Also arms the full source-epoch machinery: the torn-row
    /// fence (scans trust only bytes up to the last newline observed at
    /// epoch capture), mid-scan truncation detection, and post-scan epoch
    /// re-validation before any adaptive-state merge (see `nodb_rawcsv::epoch`).
    pub detect_updates: bool,
    /// How many times a facade query transparently retries after
    /// `EngineError::SourceChanged` (the backing file was truncated or
    /// rewritten mid-scan). Each retry quarantines the table's adaptive
    /// state and rescans cold against the fresh epoch, so under the default
    /// of `1` a single concurrent rewrite is invisible to callers; only a
    /// file mutating faster than it can be scanned surfaces the error.
    /// `0` disables the retry (the error surfaces immediately). Retries are
    /// counted in `QueryReport::source_changed`.
    pub source_change_retries: u32,
    /// Number of scan worker threads for raw scans. `0` means auto-detect
    /// (`std::thread::available_parallelism`); `1` = one worker, same path.
    /// The workers only decide how many claim a scan's slices: the slices
    /// themselves come from the file and the row index, up to
    /// `rawscan::SCAN_SLICES` (64) for each half of the scan (the rows the
    /// row index holds, and the unknown tail), and a scan runs no more
    /// workers than it has slices — at most 64 per half. The post-scan
    /// positional map, cache and statistics do not depend on the worker
    /// count (see `rawscan`'s module docs for the merge invariants).
    pub scan_threads: usize,
    /// Per-query deadline in milliseconds for facade queries (`0` = none).
    /// An exceeded deadline unwinds the scan cooperatively with
    /// `EngineError::DeadlineExceeded`; adaptive state built before the
    /// stop is still installed, so the retry starts warmer. Callers wanting
    /// per-query control use `NoDb::query_with_ctx` instead.
    pub query_timeout_ms: u64,
    /// Bounded retry for *transient* raw-file read errors (`EIO`/`EAGAIN`,
    /// interrupted/timed-out reads): how many times a failed block refill
    /// is re-issued before the error aborts the scan. `0` disables retry.
    pub io_retry_attempts: u32,
    /// Base backoff before the first retry, doubling per attempt.
    pub io_retry_backoff_ms: u64,
    /// Chaos knob: non-zero seeds a deterministic fault injector
    /// (`FaultyBlocks`) under every scan's reads — transient `EIO`s, short
    /// reads and injected latency, recoverable by the retry layer. Tests
    /// and CI only; `0` (the default) injects nothing. The env knob
    /// `NODB_TEST_FAULTS` overlays this for whole-suite chaos runs.
    pub io_fault_seed: u64,
    /// Inject a fault on roughly one refill in this many (when
    /// `io_fault_seed` is set). Clamped to at least 1 by
    /// [`Self::validated`].
    pub io_fault_one_in: u32,
    /// What to do with rows whose bytes fail to parse (see
    /// [`ParseErrorPolicy`]).
    pub parse_errors: ParseErrorPolicy,
    /// Snapshot persistence: keep each table's adaptive state (positional
    /// map, cache, statistics) in a crash-safe sidecar file next to the raw
    /// data (`foo.csv.nodb-snap`), written behind queries whenever the
    /// state has grown and restored on registration so restarts resume
    /// warm. The sidecar is a hint, never an authority: any corruption,
    /// truncation, version skew or file-fingerprint mismatch degrades the
    /// table to cold — results are byte-identical with the knob on or off.
    /// Off by default (an in-situ engine writes nothing unless asked).
    pub snapshot_persistence: bool,
}

impl Default for NoDbConfig {
    fn default() -> Self {
        NoDbConfig {
            enable_positional_map: true,
            enable_cache: true,
            enable_stats: true,
            map_budget_bytes: 256 << 20,
            cache_budget_bytes: 1 << 30,
            selective_tokenizing: true,
            io_block_size: 1 << 20,
            detect_updates: true,
            source_change_retries: 1,
            scan_threads: 0,
            query_timeout_ms: 0,
            io_retry_attempts: 2,
            io_retry_backoff_ms: 2,
            io_fault_seed: 0,
            io_fault_one_in: 100,
            parse_errors: ParseErrorPolicy::Strict,
            snapshot_persistence: false,
        }
    }
}

impl NoDbConfig {
    /// The paper's *PostgresRaw PM+C* configuration (everything on).
    pub fn pm_c() -> Self {
        NoDbConfig::default()
    }

    /// The paper's *Baseline* configuration: "does not use any of the
    /// aforementioned techniques and constitutes the naive way of accessing
    /// external files". Every query re-tokenizes and re-parses everything;
    /// no state is kept between queries.
    pub fn baseline() -> Self {
        NoDbConfig {
            enable_positional_map: false,
            enable_cache: false,
            enable_stats: false,
            selective_tokenizing: false,
            ..NoDbConfig::default()
        }
    }

    /// Positional map only (the *PostgresRaw PM* variant).
    pub fn pm_only() -> Self {
        NoDbConfig {
            enable_cache: false,
            ..NoDbConfig::default()
        }
    }

    /// Cache only (the *PostgresRaw C* variant).
    pub fn cache_only() -> Self {
        NoDbConfig {
            enable_positional_map: false,
            ..NoDbConfig::default()
        }
    }

    /// Clamp out-of-range I/O knobs instead of letting them panic or
    /// degenerate downstream: `io_block_size` into
    /// `[MIN_IO_BLOCK_SIZE, MAX_IO_BLOCK_SIZE]` (a zero/tiny block would
    /// turn every scan into per-line syscalls) and `io_fault_one_in` to at
    /// least 1. Applied by `NoDb::new`, so every facade query runs on a
    /// validated snapshot.
    pub fn validated(mut self) -> Self {
        self.io_block_size = self
            .io_block_size
            .clamp(MIN_IO_BLOCK_SIZE, MAX_IO_BLOCK_SIZE);
        self.io_fault_one_in = self.io_fault_one_in.max(1);
        self
    }

    /// The I/O resilience profile every scan of this config runs under:
    /// retry knobs straight from the config, fault injection only when a
    /// seed is set — by the config itself or by the `NODB_TEST_FAULTS` env
    /// overlay (whole-suite chaos runs; config wins when both are set).
    pub fn io_profile(&self) -> nodb_rawcsv::IoProfile {
        let mut seed = self.io_fault_seed;
        let mut one_in = self.io_fault_one_in.max(1);
        if seed == 0 {
            if let Ok(env_seed) = std::env::var("NODB_TEST_FAULTS") {
                if let Ok(parsed) = env_seed.trim().parse::<u64>() {
                    if parsed != 0 {
                        seed = parsed;
                        one_in = 100; // the acceptance criterion's 1%
                    }
                }
            }
        }
        nodb_rawcsv::IoProfile {
            retry_attempts: self.io_retry_attempts,
            retry_backoff_ms: self.io_retry_backoff_ms,
            faults: (seed != 0).then_some(nodb_rawcsv::FaultPlan {
                seed,
                one_in,
                latency_us: 50,
            }),
        }
    }

    /// Resolved scan worker count: `scan_threads`, with `0` mapped to the
    /// machine's available parallelism.
    pub fn effective_scan_threads(&self) -> usize {
        match self.scan_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Start a builder from the paper defaults (PM+C). `build()` folds in
    /// [`Self::validated`], so a built config is always in-range.
    pub fn builder() -> NoDbConfigBuilder {
        NoDbConfigBuilder {
            cfg: NoDbConfig::default(),
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match (self.enable_positional_map, self.enable_cache) {
            (true, true) => "PostgresRaw (PM+C)",
            (true, false) => "PostgresRaw (PM)",
            (false, true) => "PostgresRaw (C)",
            (false, false) => {
                if self.selective_tokenizing {
                    "External files (selective)"
                } else {
                    "Baseline (external files)"
                }
            }
        }
    }
}

/// Fluent construction of a [`NoDbConfig`] with validation folded in:
/// `NoDbConfig::builder().scan_threads(4).build()` yields a config that
/// already passed [`NoDbConfig::validated`], so no caller can forget the
/// clamp. Struct-literal construction of `NoDbConfig` keeps working (the
/// fields stay public for the experiment harness); the builder is the
/// recommended path for application code and the server.
#[derive(Debug, Clone, Copy)]
pub struct NoDbConfigBuilder {
    cfg: NoDbConfig,
}

impl NoDbConfigBuilder {
    /// Start from an existing config instead of the defaults.
    pub fn from_config(cfg: NoDbConfig) -> Self {
        NoDbConfigBuilder { cfg }
    }

    /// Enable/disable the adaptive positional map (§3.1).
    pub fn positional_map(mut self, on: bool) -> Self {
        self.cfg.enable_positional_map = on;
        self
    }

    /// Enable/disable the adaptive binary cache (§3.2).
    pub fn cache(mut self, on: bool) -> Self {
        self.cfg.enable_cache = on;
        self
    }

    /// Enable/disable on-the-fly statistics (§3.3).
    pub fn stats(mut self, on: bool) -> Self {
        self.cfg.enable_stats = on;
        self
    }

    /// Positional-map byte budget.
    pub fn map_budget_bytes(mut self, bytes: usize) -> Self {
        self.cfg.map_budget_bytes = bytes;
        self
    }

    /// Cache byte budget.
    pub fn cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.cfg.cache_budget_bytes = bytes;
        self
    }

    /// Scan worker threads (`0` = auto-detect).
    pub fn scan_threads(mut self, n: usize) -> Self {
        self.cfg.scan_threads = n;
        self
    }

    /// Raw-file read block size (clamped on `build`).
    pub fn io_block_size(mut self, bytes: usize) -> Self {
        self.cfg.io_block_size = bytes;
        self
    }

    /// Per-query deadline in milliseconds (`0` = none).
    pub fn query_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.query_timeout_ms = ms;
        self
    }

    /// Pre-query append/replacement detection on/off.
    pub fn detect_updates(mut self, on: bool) -> Self {
        self.cfg.detect_updates = on;
        self
    }

    /// Transparent cold-rescan retries after a mid-scan source mutation
    /// (`0` = surface `SourceChanged` immediately).
    pub fn source_change_retries(mut self, n: u32) -> Self {
        self.cfg.source_change_retries = n;
        self
    }

    /// Malformed-row policy.
    pub fn parse_errors(mut self, policy: ParseErrorPolicy) -> Self {
        self.cfg.parse_errors = policy;
        self
    }

    /// Sidecar snapshot persistence on/off (warm restarts).
    pub fn snapshot_persistence(mut self, on: bool) -> Self {
        self.cfg.snapshot_persistence = on;
        self
    }

    /// Finish: validation ([`NoDbConfig::validated`]) is applied here, so
    /// built configs are always in-range.
    pub fn build(self) -> NoDbConfig {
        self.cfg.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_folds_in_validation() {
        let cfg = NoDbConfig::builder()
            .scan_threads(4)
            .io_block_size(1) // out of range: clamped by build()
            .query_timeout_ms(250)
            .build();
        assert_eq!(cfg.scan_threads, 4);
        assert_eq!(cfg.io_block_size, MIN_IO_BLOCK_SIZE);
        assert_eq!(cfg.query_timeout_ms, 250);
        let ablation = NoDbConfigBuilder::from_config(NoDbConfig::baseline())
            .stats(true)
            .build();
        assert!(ablation.enable_stats);
        assert!(!ablation.enable_positional_map, "base preset preserved");
    }

    #[test]
    fn presets_match_paper_variants() {
        assert_eq!(NoDbConfig::pm_c().label(), "PostgresRaw (PM+C)");
        assert_eq!(NoDbConfig::baseline().label(), "Baseline (external files)");
        assert!(!NoDbConfig::baseline().enable_positional_map);
        assert!(!NoDbConfig::baseline().selective_tokenizing);
        assert!(NoDbConfig::pm_only().enable_positional_map);
        assert!(!NoDbConfig::pm_only().enable_cache);
    }

    #[test]
    fn scan_threads_zero_means_auto() {
        let cfg = NoDbConfig::default();
        assert_eq!(cfg.scan_threads, 0);
        assert!(cfg.effective_scan_threads() >= 1);
        let one = NoDbConfig {
            scan_threads: 1,
            ..NoDbConfig::default()
        };
        assert_eq!(one.effective_scan_threads(), 1);
        let four = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        };
        assert_eq!(four.effective_scan_threads(), 4);
    }

    #[test]
    fn validated_clamps_io_knobs() {
        let cfg = NoDbConfig {
            io_block_size: 0,
            ..NoDbConfig::default()
        }
        .validated();
        assert_eq!(
            cfg.io_block_size, MIN_IO_BLOCK_SIZE,
            "zero block clamped up"
        );
        let huge = NoDbConfig {
            io_block_size: usize::MAX,
            ..NoDbConfig::default()
        }
        .validated();
        assert_eq!(
            huge.io_block_size, MAX_IO_BLOCK_SIZE,
            "absurd block clamped down"
        );
        let normal = NoDbConfig::default().validated();
        assert_eq!(normal.io_block_size, 1 << 20, "in-range values untouched");
    }
}
