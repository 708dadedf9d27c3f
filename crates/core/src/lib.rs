//! # nodb-core — PostgresRaw in Rust
//!
//! The paper's primary contribution: a query engine that answers SQL over
//! raw CSV files with **zero data-to-query time** — no loading step — and
//! that gets *faster as you use it*, because every query leaves behind
//! positional-map entries, cached binary columns and statistics (§3).
//!
//! ```no_run
//! use nodb_core::{NoDb, NoDbConfig};
//!
//! let mut db = NoDb::new(NoDbConfig::default());
//! db.register_csv("events", "events.csv").unwrap();           // instant
//! let r = db.query("SELECT c0, c7 FROM events WHERE c3 > 100").unwrap();
//! println!("{r}");
//! println!("{}", db.admin().last_report().unwrap().breakdown.panel_row());
//! println!("{}", db.snapshot("events").unwrap().panel());
//! ```
//!
//! `query` takes `&self`: a `NoDb` behind an `Arc` serves any number of
//! threads at once, and queries against the same table share its positional
//! map and cache through the [`registry`]'s per-table `RwLock` (queries plan
//! and stream under the read lock, and a fully-cached one takes nothing
//! else; structure growth is staged and installed under short write locks —
//! see [`rawscan`]'s module docs).
//!
//! Module map: [`api`] (the client/admin facade split — `NoDb` to query,
//! `NoDb::admin` to operate), [`admission`] (the shared scan-thread budget
//! a serving layer installs), [`config`] (the demo's knob panel), [`ctx`]
//! (per-query deadlines and cancellation), [`registry`] (the concurrent
//! table registry), [`table`] (per-file adaptive state), [`rawscan`] (the
//! in-situ scan operator), [`metrics`] (Fig 2 / Fig 3 panels as data).
//!
//! ## Error taxonomy & resilience
//!
//! Queries fail in structured, recoverable ways — an in-situ engine points
//! at files it does not control has to treat failure as a first-class path:
//!
//! * **Deadline / cancellation** — [`EngineError::DeadlineExceeded`] /
//!   [`EngineError::Cancelled`], raised cooperatively (see [`ctx`]) via
//!   [`NoDb::query_with_ctx`] or the `query_timeout_ms` config knob. A
//!   stopped scan merges the completed prefix of its partials first, so the
//!   re-run starts from warmer map/cache/statistics state ("queries as
//!   advisors", applied to failure paths).
//! * **Overload** — with a [`ScanBudget`] installed, a query arriving past
//!   the bounded admission queue fails fast with
//!   [`EngineError::Overloaded`] *before* touching any table state — the
//!   serving layer's back-pressure signal.
//! * **Transient I/O** — `EIO`/`EAGAIN`-class read errors are retried with
//!   bounded exponential backoff inside the block readers
//!   (`io_retry_attempts` / `io_retry_backoff_ms`); only errors that
//!   survive the retries surface, as [`EngineError::Csv`]. Retry counts are
//!   reported in the query's `IoCounters`.
//! * **Malformed rows** — under [`config::ParseErrorPolicy::Strict`] the
//!   first bad cell aborts the query with a precise row/attribute error and
//!   no side effects merged; under `Permissive` the cell is tombstoned as
//!   NULL, the row stays in the result, and the quarantine count plus
//!   row/offset samples surface in [`QueryReport`].
//! * **Worker panics** — contained at the partition-worker boundary and
//!   converted to [`EngineError::WorkerPanic`] (slice index + panic
//!   payload). Locks on the failure path recover from poisoning, so one
//!   crashed query never bricks the shared table — the next query on the
//!   same handle runs normally.
//! * **Source mutation** — the raw files belong to external tools, which
//!   may append, truncate, or rewrite them at any moment. Every table is
//!   keyed to a [`SourceEpoch`] (length, mtime, sampled head/tail hashes),
//!   re-validated under the planning lock at every query (see
//!   [`nodb_rawcsv::epoch`]) and stored whole in the snapshot sidecar, so a
//!   restored table reconciles through the same probe:
//!   appends keep prefix state and replay the tail, truncation/rewrite
//!   quarantines map/cache/statistics and rescans cold. A mutation *during*
//!   a scan (short file, failed post-scan re-validation) raises
//!   [`EngineError::SourceChanged`] without merging any poisoned partials;
//!   the facade quarantines and retries cold up to
//!   `source_change_retries` times, so callers normally still get a
//!   correct answer — `source_changed` in [`QueryReport`] counts how often
//!   it happened. The **torn-row fence**: scans only trust bytes up to the
//!   last newline observed at epoch capture, so a row a concurrent
//!   appender is mid-way through writing is invisible until its
//!   terminator lands (while `detect_updates` is on, an unterminated
//!   final line is therefore not served until a newline ends it).

pub mod admission;
pub mod api;
pub mod config;
pub mod ctx;
pub mod metrics;
pub mod rawscan;
pub mod registry;
pub mod table;
mod worker;

pub use nodb_engine::EngineError;
pub use nodb_rawcsv::{EpochChange, SourceEpoch};

pub use admission::{BudgetTelemetry, ScanBudget, ScanGrant};
pub use api::{Admin, NoDb, PreparedCache, PreparedStats};
pub use config::{NoDbConfig, NoDbConfigBuilder, ParseErrorPolicy};
pub use ctx::{CancelToken, QueryCtx};
pub use metrics::{Breakdown, QueryReport, SnapshotTelemetry, SystemSnapshot};
pub use rawscan::{QuarantineSample, ScanTelemetry, TelemetryHandle};
pub use registry::{TableHandle, TableRegistry};
pub use table::{RawTable, RestoreOutcome};
