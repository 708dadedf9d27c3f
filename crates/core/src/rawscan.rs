//! The in-situ scan operator — the paper's §3 in one module.
//!
//! For every tuple the operator:
//!
//! 1. serves attributes from the **cache** when their row is covered (§3.2);
//! 2. otherwise resolves field positions through the **positional map** —
//!    exact jumps where a chunk stores the attribute, resumable tokenizing
//!    from the nearest anchor where it doesn't (§3.1);
//! 3. falls back to **selective tokenizing** from the line start, aborting
//!    at the last attribute the query needs (§3);
//! 4. converts to binary only what the plan needs (**selective parsing**),
//!    each field span parsed straight into its attribute's typed column —
//!    no value is boxed as a `Datum` between the tokenizer and the engine;
//! 5. evaluates the pushed predicate *before* materializing the tuple
//!    (**selective tuple formation** — tuples "are only created after the
//!    select operator"): resolved values land in typed columns, and one
//!    function, `segment_batch`, runs the predicate over a segment of
//!    them as a columnar kernel and copies out only the surviving rows of
//!    the materialized positions — the same function whether the columns
//!    are a raw slice's fresh partials or the cache's own, so cold, warm
//!    and cached answers are equal by construction;
//! 6. as side effects, populates the positional map, cache and statistics
//!    (§3.1–3.3) and the shared row index.
//!
//! When the cache covers every requested attribute for every known row, the
//! scan never opens the file at all — the paper's "eliminating the need to
//! access hot raw data via caching".
//!
//! # Threading model
//!
//! There is one scan path. Every scan splits its work into line-aligned
//! partition slices, runs them on `NoDbConfig::scan_threads` workers
//! (`crate::worker`; `0` = auto-detect, `1` = one worker, same path) and
//! deterministically merges the partition-local partials in slice order, so
//! the post-scan state does not depend on the worker count.
//!
//! One function decides the slices (`plan_slices`), by one rule: the shared
//! **row index is the source of global row numbers**.
//!
//! * **Rows the index holds** are cut into row ranges. Their workers know
//!   their global row base up front and can therefore use per-row cache
//!   reads and exact positional-map jumps, and a slice the cache covers for
//!   every requested attribute never opens the file.
//! * **The bytes after its last row**, up to the epoch fence, are cut at
//!   byte targets snapped forward to line boundaries
//!   ([`nodb_rawcsv::reader::partition_line_ranges_capped`]). Nothing is
//!   known about these rows — not even how many there are — so their
//!   workers resolve every value from raw bytes, on the fused single-pass
//!   scan ([`nodb_rawcsv::reader::BlockScanner::next_line_tokenized`]) when
//!   the tokenizer is plain, and record the line starts that extend the
//!   index.
//!
//! A first-ever scan has no known rows; a warm scan (some earlier query
//! reached EOF, nothing appended since) has no tail; after an append, or
//! after a scan that stopped early, a scan has both, and re-reads only the
//! tail when the cache covers the rest. A table that keeps no row index
//! (positional map off, quoted fields) is scanned from raw bytes every time
//! it is not fully cached; a partially cached column of such a table is not
//! consulted.
//!
//! Every scanner reads its blocks synchronously on its own thread through
//! the [`nodb_rawcsv::reader::BlockSource`] layer (the file-backed source,
//! wrapped by retry and, in chaos runs, fault injection); the time inside
//! `read` is reported as `IoCounters::stall`. A scan's thread count is
//! exactly its worker count.
//!
//! # Concurrent queries (lock staging)
//!
//! With the table registry (`crate::registry`), several queries may scan
//! the *same* table at once. `scan_shared` splits a scan into three phases
//! and hands the table's lock over once between each, so the write lock is
//! held only for bookkeeping, never for data access:
//!
//! 1. **Prepare** (`prepare_scan`, write lock) — access planning (LRU
//!    touches, cache query tick) and coverage snapshots (cache coverage,
//!    statistics frontiers), captured into a `ScanPrep` together with the
//!    table's file-state generation, under the write guard the query
//!    planned with.
//! 2. **Data** (`scan_data`, read lock) — the prepare guard is *downgraded*
//!    into this phase's read guard, so no writer lands in between and the
//!    `ScanPrep` is exact for the data it reads: same generation, every
//!    planned cache column still resident. `run_partitions` plans the
//!    slices from the row index as it stands, then its workers borrow the
//!    map/cache/schema immutably and stage everything in partition-local
//!    partials, statistics sketches included; fully-cached queries stream
//!    straight off the cache columns.
//!    The source epoch is re-validated (`revalidate_epoch`) before
//!    anything is handed on. Any number of queries can be in this phase
//!    simultaneously.
//! 3. **Install** (`scan_install` → `merge_outputs`, write lock) — staged
//!    partials are installed; the result batches are not touched until the
//!    lock is released. The merge is *frontier-based* and therefore
//!    idempotent under interleaving: the row index skips known rows, chunk
//!    installs go through subsumption, cache admission resumes at the
//!    cache's *current* coverage, and statistics observe only rows beyond
//!    each attribute's observation frontier. Merging the same full-scan
//!    output after another query already merged its own is a no-op, which
//!    is what makes N concurrent queries end in the same state as a
//!    sequential replay.
//!
//! The only window in which the table can change under a prepared scan is
//! between releasing the read guard and taking the install's write lock.
//! Other queries' installs and evictions there only move the frontiers the
//! merge resumes at. A file change there is caught by the **install
//! fence**: when another query reconciled an append or quarantined a
//! rewrite, the table's generation is no longer `prep.generation`, and the
//! scan installs nothing. It publishes its telemetry and answers from what
//! it read — the prepared generation's cache, or raw bytes that passed
//! `revalidate_epoch` — one epoch's answer, linearized at its scan.
//!
//! # Merge invariants
//!
//! Workers never touch shared mutable state; each returns partition-local
//! partials that the driver merges **in partition order**, which makes the
//! post-scan state byte-identical for every worker count and steal
//! interleaving, and equal to a naive row-at-a-time model (property-tested
//! in `tests/property_based.rs`):
//!
//! * *Row index* — the tail slices' line-start lists are replayed in order
//!   ([`nodb_posmap::RowIndex::note_rows`]); offsets are absolute, so
//!   rebasing is concatenation.
//! * *Positional map* — per-partition `ChunkBuilder`s hold line-relative
//!   offsets keyed by local row; `ChunkBuilder::append_partial` rebases by
//!   concatenating in partition order, then the usual install path
//!   (subsumption, LRU, budget) runs once on the merged chunk.
//! * *Cache admission* — workers buffer one value per row per requested
//!   attribute as typed partial columns, and the merge hands them to the
//!   cache one slice at a time, in slice order
//!   (`RawCache::append_slice`). Each column resumes at the cache's
//!   coverage at that moment; a slice whose whole growth provably fits the
//!   free budget goes in as typed segments (vector moves and slice copies),
//!   a slice that straddles the budget edge — or meets a frozen column — is
//!   replayed value by value inside the cache, row-major and
//!   attribute-interleaved, a column stopping for good at its first refused
//!   append. That replay *is* the reference behaviour: a single
//!   row-at-a-time pass over the file. The segment install equals it
//!   because a slice is only installed whole when no append of its replay
//!   could have been refused or could have evicted anything, so both leave
//!   the same columns, bytes and counters; a column that stopped is behind
//!   every later slice's first row and is skipped from then on.
//! * *Statistics* — split by whether the state depends on row order. The
//!   order-independent part — NDV bitmap and min/max — is built by the
//!   workers, in parallel: each sketches its slice's partial columns from
//!   the attribute's plan-time observation frontier on (a byte slice, whose
//!   rows are unknown, sketches all of them) into a `ColumnSketch`. The
//!   install absorbs the sketches slice by slice in row order
//!   (`TableStats::absorb`): it ORs the bitmaps and merges the bounds —
//!   idempotent, so rows a sketch covers below the install-time frontier
//!   change nothing — counts rows and NULLs from the frontier by null-mask
//!   popcounts, and advances the reservoir through the slice's offered
//!   rows (those the shared sampling stride selects) in global row order,
//!   jumping straight to the ones Algorithm L accepts. Accumulators are per
//!   attribute, so this equals an attribute-interleaved row replay, and
//!   the order-dependent reservoir sees the same offer sequence at every
//!   worker count.
//! * *Results* — every slice forms its batches with `segment_batch` over
//!   at most `BATCH_SIZE` scanned rows each, in row order; after the install
//!   (no table lock held) they are concatenated in slice order and re-packed
//!   to full batches (`StagedScan::into_batches`), no reordering anywhere
//!   downstream.
//! * *Telemetry* — `Breakdown` and `IoCounters` are summed; cache hit/miss
//!   tallies travel with the scan (not as global metric diffs), so
//!   concurrent queries never misattribute each other's reads.
//!
//! Under the strict parse-error policy a malformed row aborts the scan
//! without merging any side effects; the permissive policy instead
//! tombstones the malformed cell as NULL and quarantines the row into
//! telemetry.
//!
//! ## Partial merge on cancellation
//!
//! A cancelled or deadline-expired scan is not all-or-nothing: the workers
//! that finished their slices before the stop flag tripped hand back normal
//! partials, and the driver merges the **contiguous completed prefix** of
//! slices through the same frontier-based merge — with the end-of-scan
//! bookkeeping (`row_count`, `mark_complete`, `set_row_count`) withheld,
//! since the file was not fully visited. Statistics observation frontiers
//! *are* advanced over the merged prefix so a re-run never double-observes.
//! The query itself still fails with [`EngineError::Cancelled`] /
//! [`EngineError::DeadlineExceeded`]; the next identical query starts from
//! the warmer map/cache/statistics state the aborted one left behind — the
//! paper's "queries as advisors" principle applied to failure paths.

#![doc = " lint:cancellable — every scan/batch loop in this module must poll the"]
#![doc = " query context (`ctx.check()`) or drive an interrupt-flagged `BlockSource`;"]
#![doc = " enforced by `nodb-lint` (see crates/lint/README.md)."]

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use nodb_engine::batch::{Batch, ColView, Column, BATCH_SIZE};
use nodb_engine::{EngineError, EngineResult, ScanRequest};
use nodb_posmap::{AccessPlan, AttrSource, ChunkBuilder};
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::reader::{partition_line_ranges_capped, LineRange};
use nodb_rawcsv::{IoCounters, RawCsvError};
use parking_lot::RwLockWriteGuard;

use crate::config::NoDbConfig;
use crate::ctx::QueryCtx;
use crate::metrics::timed;
use crate::metrics::{Breakdown, PhaseClock};
use crate::registry::TableHandle;
use crate::table::RawTable;
use crate::worker::{self, Partition, PartitionOutput, ScanContext};
use crate::SourceEpoch;

/// One quarantined malformed cell, sampled for telemetry under
/// [`ParseErrorPolicy::Permissive`](crate::ParseErrorPolicy::Permissive):
/// the row stayed in the result with the
/// offending cell tombstoned as NULL, and this records where it came from so
/// an operator can inspect the raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSample {
    /// Global data-row number of the malformed tuple.
    pub row: u64,
    /// Byte offset of the tuple's line start in the raw file.
    pub offset: u64,
    /// First requested attribute whose cell failed to parse.
    pub attr: usize,
}

impl QuarantineSample {
    /// Cap on samples retained per scan; the quarantined *count* is always
    /// exact, only the per-row detail is sampled.
    pub const MAX_SAMPLES: usize = 8;
}

/// Telemetry the scan writes as it finishes; the facade keeps a handle and
/// reads it after execution.
#[derive(Debug, Default)]
pub struct ScanTelemetry {
    /// Phase breakdown (I/O, tokenizing, parsing, convert, nodb). With
    /// `scan_threads > 1` the slices are summed *thread time* across
    /// workers, so their total can exceed the query's wall clock (and the
    /// facade's derived `processing` remainder can clamp to zero).
    pub breakdown: Breakdown,
    /// Raw-file I/O counters, including the **I/O stall time**
    /// (`IoCounters::stall`): the summed time scan threads spent inside
    /// `read`. It is part of `breakdown.io`, which is what separates
    /// "waiting for bytes" from "tokenizing" in the Figure-3-style
    /// breakdown.
    pub io: IoCounters,
    /// Tuples visited.
    pub rows_scanned: u64,
    /// True when no file access was needed (pure cache scan).
    pub fully_cached: bool,
    /// True when a positional-map chunk was installed at scan end.
    pub installed_chunk: bool,
    /// Cache reads served by this scan. Tallied per scan rather than
    /// derived from global cache-metric deltas so concurrent queries on the
    /// same table never count each other's reads.
    pub cache_hits: u64,
    /// Cache reads refused by this scan (value resolved from raw bytes).
    pub cache_misses: u64,
    /// Partition slices executed by a worker other than their run's owner
    /// (work stealing under skewed line widths). Always 0 with one worker
    /// or static partitioning.
    pub steals: u64,
    /// Rows with at least one malformed cell tombstoned under
    /// [`ParseErrorPolicy::Permissive`](crate::ParseErrorPolicy::Permissive)
    /// (always 0 under strict).
    pub rows_quarantined: u64,
    /// Capped per-row detail of the quarantined rows (first
    /// [`QuarantineSample::MAX_SAMPLES`] in row order).
    pub quarantine_samples: Vec<QuarantineSample>,
    /// The scan stopped before EOF (cancellation or deadline) and merged
    /// only the completed prefix of its partials.
    pub stopped_early: bool,
    /// Source-epoch invalidations this query observed: how many times the
    /// backing file was found truncated/rewritten (at planning, mid-scan,
    /// or at the post-scan re-validation) and the adaptive state was
    /// quarantined for a cold retry. 0 on the happy path.
    pub source_changed: u64,
}

/// Rewrite a slice-local row number in a worker error to the global file
/// row: workers number the rows they report from their slice's start, so the
/// driver adds the preceding slices' row counts before surfacing the error.
fn rebase_row_error(e: EngineError, base: u64) -> EngineError {
    match e {
        EngineError::Csv(RawCsvError::ParseField {
            row,
            attr,
            ty,
            text,
        }) => EngineError::Csv(RawCsvError::ParseField {
            row: row + base,
            attr,
            ty,
            text,
        }),
        EngineError::Csv(RawCsvError::MissingField { row, attr, present }) => {
            EngineError::Csv(RawCsvError::MissingField {
                row: row + base,
                attr,
                present,
            })
        }
        other => other,
    }
}

/// Best-effort extraction of a panic payload's message (`&str` / `String`
/// payloads cover `panic!` and `assert!`; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock a mutex, recovering the guard from a poisoned lock: every value
/// behind these mutexes (telemetry, result slots) is plain data that stays
/// structurally valid even if a panicking thread held the guard, and the
/// panic itself is surfaced separately as [`EngineError::WorkerPanic`].
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // lint: lock-ok this is the recovery shim the poison-lock rule routes to
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared handle to the telemetry a scan publishes when it finishes.
///
/// `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`: scan workers require every
/// scan-adjacent type to be `Send`, and the facade keeps its clone across
/// the engine call. The lock is touched once per query.
pub type TelemetryHandle = Arc<Mutex<ScanTelemetry>>;

/// The scan's only batch former: rows `[lo, hi)` of one typed column per
/// requested attribute become one result batch, filtered columnar. The
/// columns are the cache's own (a fully-cached stream, a cache-covered
/// slice) or a raw slice's fresh partials (`worker::run_partition`) — the
/// former does not know which, so cold, warm and cached answers are formed
/// by the same code.
///
/// The pushed predicate runs as a kernel over the *borrowed* columns
/// (`engine::expr::RExpr::filter_columnar` — selection vector out, no
/// per-cell `Datum`, row-at-a-time fallback inside for unsupported
/// expression shapes). Only then is anything copied, and only for
/// materialized positions (late materialization):
///
/// * selective outcome (< half the rows pass) — survivors are gathered into
///   dense typed columns (`TypedColumn::gather`), nothing else is copied;
/// * mostly-passing outcome — the full segment is exported once
///   (`TypedColumn::export_range`, a `memcpy` for fixed-width types) and the
///   selection vector travels with the batch for the engine's
///   selection-aware kernels;
/// * predicate-only positions (`materialize[i] == false`) become
///   [`Column::Nulls`] either way: the predicate saw the values, the tuple
///   never holds them;
/// * a zero-attribute (`COUNT(*)`) scan yields [`Batch::rows_only`].
pub(crate) fn segment_batch(
    req: &ScanRequest,
    cols: &[&TypedColumn],
    lo: usize,
    hi: usize,
) -> Batch {
    let rows = hi.saturating_sub(lo);
    let mut sel: Option<Vec<u32>> = req.predicate.as_ref().map(|p| {
        let views: Vec<ColView> = cols.iter().map(|&col| ColView { col, base: lo }).collect();
        p.filter_columnar(&views, rows)
    });
    if cols.is_empty() {
        return Batch::rows_only(sel.map_or(rows, |s| s.len()));
    }
    // Selective: gather the survivors dense and drop the selection.
    let gathered = sel.take_if(|s| s.len() * 2 < rows);
    let columns = cols
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let materialized = req.materialize.get(i).copied().unwrap_or(true);
            match (&gathered, materialized) {
                (Some(g), true) => Column::Typed(c.gather(g, lo)),
                (Some(g), false) => Column::Nulls(g.len()),
                (None, true) => Column::Typed(c.export_range(lo, hi)),
                (None, false) => Column::Nulls(rows),
            }
        })
        .collect();
    Batch::from_parts(columns, sel)
}

/// Resolve the cache column handles backing a fully-cached scan or slice:
/// `None` when any requested attribute is not resident with at least `rows`
/// coverage.
pub(crate) fn cached_column_handles<'a>(
    cache: &'a nodb_rawcache::RawCache,
    attrs: &[usize],
    rows: usize,
) -> Option<Vec<&'a TypedColumn>> {
    attrs
        .iter()
        .map(|&a| cache.column(a).filter(|c| c.len() >= rows))
        .collect()
}

/// Everything a scan decides up front, captured under the table's write
/// lock so the data phase can run under a read lock. Tied to the table's
/// file-state `generation`: the install fence installs nothing into a
/// different generation.
pub(crate) struct ScanPrep {
    /// The planner's scan request.
    pub req: ScanRequest,
    /// Positional-map access plan (None when the map is unusable).
    pub plan: Option<AccessPlan>,
    /// Whether this scan collects a new positional-map chunk.
    pub build_chunk: bool,
    /// Cache coverage per requested position at plan time.
    pub cache_cov: Vec<usize>,
    /// Statistics observation frontier per requested position at plan
    /// time: workers sketch only rows at or beyond it. `u64::MAX` when
    /// there is nothing to sketch — statistics are off, or the attribute
    /// has observed every row the table is known to hold.
    pub stats_from: Vec<u64>,
    /// LRU tick from `RawCache::begin_query` protecting this query's columns.
    pub query_tick: u64,
    /// Pure-cache fast path: every requested attribute covered for every
    /// known row.
    pub fully_cached: bool,
    /// Known row count backing `fully_cached`.
    pub cached_rows: u64,
    /// Resolved worker count.
    pub threads: usize,
    /// Partition-slice target (`threads × steal granularity`).
    pub slice_target: usize,
    /// The access plan resolves at least one attribute through a chunk
    /// (exact or anchor). Workers only receive the map when this holds, so
    /// an assist-free scan keeps the fused single-pass fast path.
    pub plan_assists: bool,
    /// File-state generation this prep belongs to: the install fence.
    pub generation: u64,
    /// Raw file path.
    pub path: PathBuf,
    /// Whether the slice starting at byte 0 must skip a header line.
    pub has_header: bool,
    /// Per-query deadline/cancellation state; every execution path of this
    /// scan polls it cooperatively.
    pub ctx: QueryCtx,
    /// Source epoch this scan was planned against (`None` when
    /// `detect_updates` is off — the legacy trust-the-file behavior).
    /// Workers fence every read to the epoch's trusted length, and the
    /// merge phases re-validate it post-scan so a mid-scan rewrite never
    /// installs poisoned partials.
    pub epoch: Option<SourceEpoch>,
}

impl ScanPrep {
    /// The torn-row fence: byte length of the file prefix this scan
    /// trusts (up to the last newline observed at epoch capture). `None`
    /// when mutation detection is off.
    pub fn source_len(&self) -> Option<u64> {
        self.epoch.as_ref().map(|e| e.trusted_len)
    }
}

/// Phase 1 of a scan: access planning and coverage snapshots, run under the
/// table's write lock (access planning touches LRU clocks and the cache
/// query tick). Also publishes the `fully_cached` flag to the telemetry.
fn prepare_scan(
    table: &mut RawTable,
    config: &NoDbConfig,
    req: ScanRequest,
    telemetry: &TelemetryHandle,
    ctx: QueryCtx,
) -> ScanPrep {
    let n = req.attrs.len();
    let cache_cov: Vec<usize> = if config.enable_cache {
        table.cache.coverage_of(&req.attrs)
    } else {
        vec![0; n]
    };
    let query_tick = if config.enable_cache {
        table.cache.begin_query(&req.attrs)
    } else {
        0
    };
    let stats_from: Vec<u64> = req
        .attrs
        .iter()
        .map(|&a| {
            let from = table.stats.observed_upto(a);
            let done = table.row_count.is_some_and(|rc| from >= rc);
            if !config.enable_stats || done {
                u64::MAX
            } else {
                from
            }
        })
        .collect();

    // Quoted fields may contain the delimiter, so a stored offset is not
    // enough to re-tokenize from mid-tuple: the quote state is unknown. The
    // positional map is therefore only used on plain (unquoted) tokenizer
    // configurations; quoted files still get selective tokenizing, caching
    // and statistics.
    let map_usable = config.enable_positional_map && table.tokenizer.quote.is_none();
    let plan = map_usable.then(|| table.map.plan_access(&req.attrs));
    let build_chunk = matches!(&plan, Some(p) if p.should_index);

    // Pure-cache fast path: every requested attribute covered for every
    // known row.
    let (fully_cached, cached_rows) = match table.row_count {
        Some(rc) if config.enable_cache => {
            let all = cache_cov.iter().all(|&c| c as u64 >= rc);
            (all, rc)
        }
        _ => (false, 0),
    };
    lock_recover(telemetry).fully_cached = fully_cached;

    let plan_assists = matches!(&plan, Some(p) if p
        .sources
        .iter()
        .any(|(_, s)| !matches!(s, AttrSource::Scan)));

    ScanPrep {
        req,
        plan,
        build_chunk,
        cache_cov,
        stats_from,
        query_tick,
        fully_cached,
        cached_rows,
        threads: config.effective_scan_threads(),
        slice_target: config.scan_slice_target(),
        plan_assists,
        generation: table.generation,
        path: table.path.clone(),
        has_header: table.has_header,
        ctx,
        epoch: config.detect_updates.then(|| *table.epoch()),
    }
}

/// Post-scan epoch re-validation: run after the data phase and **before**
/// any merge, so a file rewritten or truncated while the scan streamed it
/// can never install poisoned map/cache/statistics partials. An `Appended`
/// verdict is fine — the scanned prefix is still byte-identical. This also
/// narrows the one blind spot of pre-scan validation (a same-length
/// in-place rewrite within mtime granularity) to the window between the
/// last read and this probe.
pub(crate) fn revalidate_epoch(prep: &ScanPrep) -> EngineResult<()> {
    match &prep.epoch {
        Some(epoch) if epoch.is_dead(&prep.path) => Err(source_changed_err(prep)),
        _ => Ok(()),
    }
}

/// The `SourceChanged` error for this scan, labeled with the backing path
/// (the facade knows the table name; the path is what an operator needs).
pub(crate) fn source_changed_err(prep: &ScanPrep) -> EngineError {
    EngineError::SourceChanged {
        table: prep.path.display().to_string(),
    }
}

/// The one place a raw scan's slices are decided, from one rule: **the row
/// index is the source of global row numbers.**
///
/// * Rows the index holds become *row-range* slices with `row_base`/`rows`
///   filled in, so their workers may read the cache per row, jump through
///   map chunks, and serve a fully cached slice without opening the file.
/// * The bytes after the last row it holds, up to the epoch fence, become
///   *byte-range* slices ([`partition_line_ranges_capped`] from an offset
///   inside that row): nothing is known about them, so their workers resolve
///   everything from raw bytes and record the line starts they find.
///
/// A first-ever scan has an empty prefix, a warm scan (index complete) an
/// empty tail that is not even probed, and after an append or a scan that
/// stopped early both halves exist. A table that keeps no row index
/// (positional map off, quoted fields) is all tail on every scan. Each half
/// is cut into up to `prep.slice_target` slices.
fn plan_slices(table: &RawTable, prep: &ScanPrep) -> EngineResult<Vec<Partition>> {
    let idx = table.map.row_index();
    let (starts, complete) = if prep.plan.is_some() {
        (idx.starts(), idx.is_complete())
    } else {
        (&[][..], false)
    };
    // Never past the trusted epoch prefix: bytes beyond the fence (a torn
    // trailing row, a concurrent append) belong to the next epoch.
    let fence = prep.source_len().unwrap_or(u64::MAX);
    let tail = if complete {
        Vec::new()
    } else {
        let from = starts.last().map_or(0, |&last| last + 1);
        partition_line_ranges_capped(&prep.path, prep.slice_target, from, fence)?
    };
    // The known rows end where the tail begins; with no tail they run to the
    // fence (the worker clamps), so an appender can never leak rows of the
    // next epoch into this scan.
    let prefix_end = tail.first().map_or(u64::MAX, |r| r.start);

    let known = starts.len();
    let parts = prep.slice_target.min(known);
    let mut slices = Vec::with_capacity(parts + tail.len());
    for k in 0..parts {
        let (lo, hi) = (known * k / parts, known * (k + 1) / parts);
        slices.push(Partition {
            range: LineRange {
                start: starts[lo],
                // A row the index does not hold starts the tail.
                end: starts.get(hi).copied().unwrap_or(prefix_end),
            },
            skip_header: false, // data-row offsets already skip it
            row_base: Some(lo),
            rows: Some(hi - lo),
        });
    }
    slices.extend(tail.into_iter().map(|range| Partition {
        range,
        skip_header: prep.has_header && range.start == 0,
        row_base: None,
        rows: None,
    }));
    Ok(slices)
}

/// Claim the next partition slice for worker `me`: pop from its own run
/// first, then steal from the peer with the most remaining slices. Claims
/// are `fetch_add` on per-run cursors, so every slice is handed out exactly
/// once regardless of interleaving; the boolean reports a steal.
fn claim_slice(
    me: usize,
    cursors: &[AtomicUsize],
    bounds: &[(usize, usize)],
) -> Option<(usize, bool)> {
    let i = cursors[me].fetch_add(1, Ordering::Relaxed);
    if i < bounds[me].1 {
        return Some((i, false));
    }
    loop {
        let victim = (0..cursors.len())
            .filter(|&j| j != me)
            .map(|j| {
                let next = cursors[j].load(Ordering::Relaxed).max(bounds[j].0);
                (bounds[j].1.saturating_sub(next), j)
            })
            .max();
        match victim {
            Some((remaining, j)) if remaining > 0 => {
                let i = cursors[j].fetch_add(1, Ordering::Relaxed);
                if i < bounds[j].1 {
                    return Some((i, true));
                }
                // Lost the race for the victim's tail; rescan.
            }
            _ => return None,
        }
    }
}

/// What [`run_partitions`] hands back.
pub(crate) struct ScanOutcome {
    /// Completed partition partials — all of them on success, the
    /// contiguous completed prefix when `stopped` is set.
    pub outputs: Vec<PartitionOutput>,
    /// Stolen-slice tally (telemetry).
    pub steals: u64,
    /// Wall time of [`plan_slices`] (it probes the raw file for the tail's
    /// cut points), reported in the breakdown's I/O slice.
    pub planning: Duration,
    /// The cancellation/deadline error that stopped the scan, when one did.
    pub stopped: Option<EngineError>,
}

/// Phase 2 of a raw scan: decide the slices ([`plan_slices`]) and run them
/// on `prep.threads` workers — the calling thread and `prep.threads - 1`
/// scoped threads — over shared borrows of the table, collecting the
/// partials in slice order. Needs only `&RawTable`, so concurrent queries
/// run this phase under the table's read lock.
///
/// Scheduling is a **work-stealing run queue**: each worker owns a
/// contiguous run of slices (adjacent file regions, so a worker streams
/// forward through the file) and claims them via an atomic cursor; a worker
/// whose run drains steals slices from the most-loaded peer. Which worker
/// executes a slice never affects the output — partials are merged in slice
/// order — so every steal interleaving produces the byte-identical
/// post-scan state the merge invariants promise.
///
/// A worker error aborts the scan; the error reported is the
/// lowest-numbered slice's, its slice-local row rebased to the global row
/// number using the preceding slices' row counts.
///
/// Two error classes get special handling:
///
/// * A worker **panic** is contained at the worker boundary
///   (`catch_unwind`) and surfaced as [`EngineError::WorkerPanic`] with the
///   slice index and panic payload — one bad slice never takes down the
///   process or poisons shared state.
/// * **Cancellation / deadline** errors do not abort: the contiguous
///   completed prefix of slices is handed back in
///   [`ScanOutcome::stopped`], so the caller can merge the partials before
///   failing the query (see the module docs on partial merge).
pub(crate) fn run_partitions(
    table: &RawTable,
    config: &NoDbConfig,
    prep: &ScanPrep,
) -> EngineResult<ScanOutcome> {
    let clock = PhaseClock::new(config.detailed_timing);
    let mut planning = Duration::ZERO;
    let t = clock.start();
    let partitions = plan_slices(table, prep)?;
    clock.lap(t, &mut planning);
    // Workers may address per-row adaptive state wherever a slice knows its
    // global rows: the cache always, the map only when the plan actually
    // resolves something through a chunk (an assist-free plan would just
    // cost the fused fast path for nothing).
    let assist = prep.plan.as_ref().filter(|_| prep.plan_assists);
    let ctx = ScanContext {
        config: *config,
        io_profile: config.io_profile(),
        ctx: &prep.ctx,
        req: &prep.req,
        tokenizer: table.tokenizer,
        schema: &table.schema,
        path: &table.path,
        map: assist.map(|_| &table.map),
        plan: assist,
        cache: config.enable_cache.then_some(&table.cache),
        cache_cov: &prep.cache_cov,
        stats_from: &prep.stats_from,
        build_chunk: prep.build_chunk,
        collect_offsets: prep.plan.is_some(),
        source_len: prep.source_len(),
    };

    let workers = prep.threads.min(partitions.len()).max(1);
    let steals = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<EngineResult<PartitionOutput>>>> =
        partitions.iter().map(|_| Mutex::new(None)).collect();
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| {
            (
                partitions.len() * w / workers,
                partitions.len() * (w + 1) / workers,
            )
        })
        .collect();
    let cursors: Vec<AtomicUsize> = bounds.iter().map(|&(lo, _)| AtomicUsize::new(lo)).collect();
    // Errors park in the slice's slot; a worker keeps draining so every
    // lower-numbered slice completes and the driver can report the
    // lowest-slice error with an exact row rebase.
    let drain = |w: usize| {
        while let Some((idx, stolen)) = claim_slice(w, &cursors, &bounds) {
            if stolen {
                steals.fetch_add(1, Ordering::Relaxed);
            }
            // Worker-panic containment: a panicking slice is converted to a
            // structured error right here, so the other workers keep
            // draining and the process (and any lock the panic would
            // otherwise poison) survives.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker::run_partition(&ctx, partitions[idx])
            }))
            .unwrap_or_else(|payload| {
                Err(EngineError::WorkerPanic {
                    partition: idx,
                    message: panic_message(payload),
                })
            });
            *lock_recover(&slots[idx]) = Some(r);
        }
    };
    // The calling thread is worker 0: a scan keeps exactly `workers`
    // threads runnable and a one-worker scan spawns none. A caller that only
    // waited would leave the scheduler `workers` fresh threads to place
    // around the CPU it is about to vacate, and how long two of them share
    // one CPU while another idles differs from scan to scan.
    std::thread::scope(|s| {
        let drain = &drain;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || drain(w))).collect();
        drain(0);
        for h in handles {
            // A panicked worker leaves its claimed slice's slot empty; the
            // collection loop below reports it.
            let _ = h.join();
        }
    });

    let steals = steals.into_inner();
    let collected: Vec<EngineResult<PartitionOutput>> = slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    // `catch_unwind` converts every worker panic in place, so
                    // an empty slot means the worker thread died before
                    // reporting — still surfaced structurally rather than as
                    // a bare string.
                    Err(EngineError::WorkerPanic {
                        partition: idx,
                        message: "worker exited without reporting a result".into(),
                    })
                })
        })
        .collect();
    // Source mutation outranks every other failure, whatever slice it hit:
    // a lower slice's cancellation would otherwise win and merge a prefix
    // of partials read from a file that no longer exists in that form, and
    // a lower slice's parse error (rewrite garbage) would mislabel the
    // root cause.
    if let Some(e) = collected.iter().find_map(|r| match r {
        Err(EngineError::SourceChanged { table }) => Some(EngineError::SourceChanged {
            table: table.clone(),
        }),
        _ => None,
    }) {
        return Err(e);
    }
    let mut results: Vec<PartitionOutput> = Vec::with_capacity(collected.len());
    for r in collected {
        match r {
            Ok(o) => results.push(o),
            Err(e @ (EngineError::Cancelled | EngineError::DeadlineExceeded)) => {
                // Cooperative stop: hand back the contiguous completed
                // prefix so the caller can merge the partials (the NoDB
                // "no work is wasted" promise applied to failure paths).
                return Ok(ScanOutcome {
                    outputs: results,
                    steals,
                    planning,
                    stopped: Some(e),
                });
            }
            Err(e) => {
                // Abort without merging any side effects. Workers number the
                // rows they report slice-locally: the preceding slices' row
                // counts make it the true file row.
                let base: usize = results.iter().map(|o| o.rows).sum();
                return Err(rebase_row_error(e, base as u64));
            }
        }
    }
    Ok(ScanOutcome {
        outputs: results,
        steals,
        planning,
        stopped: None,
    })
}

/// Phase 3 of a raw scan: install the per-partition partials into the
/// table's adaptive structures, in slice order, under exclusive access to
/// the table, and publish the scan telemetry. Its duration is the scan's
/// [`Breakdown::install`] — the time a cold scan keeps every other query
/// off the table. The slices' result batches stay in `outcome`, untouched:
/// re-packing them needs no table ([`StagedScan::into_batches`]). `table`
/// is `None` when the install fence closed ([`scan_install`]): nothing is
/// installed, but the telemetry is published and a stopped scan still
/// fails with its stop error.
///
/// Row index and map chunk are rebased by concatenation. Cache and
/// statistics receive each slice's typed partial columns whole: the
/// statistics absorb the slice's worker-built sketch (NDV bits and bounds
/// merged, rows and NULLs counted by popcount, the reservoir advanced to
/// the rows it accepts — `TableStats::absorb`), then the cache takes
/// ownership and appends them as segments (or, for a slice at the budget
/// edge, replays them value by value itself) — see the module docs on why
/// both equal one row-at-a-time pass. Nothing here walks the values: the
/// only ones read are those that end the install in a reservoir.
///
/// Every sub-merge is **frontier-based** so interleaved queries converge to
/// the sequential-replay state: the row index skips known rows, the chunk
/// install goes through subsumption, each cache column resumes at its
/// *current* coverage, and statistics observe only rows at or beyond each
/// attribute's observation frontier. When nothing else merged between this
/// scan's prepare and its merge, the frontiers equal the plan-time
/// snapshots.
///
/// When the scan stopped before EOF (`outcome.stopped`: cancellation /
/// deadline), `outcome.outputs` holds only the contiguous completed prefix
/// of partitions: every frontier-based sub-merge still runs over that
/// prefix, but the end-of-scan bookkeeping (`row_count`, `mark_complete`,
/// `set_row_count`) is withheld — the file was not fully visited, so those
/// totals are unknown. Statistics observation frontiers are still advanced
/// over the merged prefix, so a re-run never double-observes. The query
/// then fails with the stop error: the next identical query starts from
/// the warmer map/cache/statistics state — the rows merged here are its
/// known prefix, and it reads only the bytes behind them.
pub(crate) fn merge_outputs(
    table: Option<&mut RawTable>,
    config: &NoDbConfig,
    prep: &ScanPrep,
    outcome: &mut ScanOutcome,
    telemetry: &TelemetryHandle,
) -> EngineResult<()> {
    let results = &mut outcome.outputs;
    let steals = outcome.steals;
    let stopped = outcome.stopped.take();
    let complete = stopped.is_none();
    let clock = PhaseClock::new(config.detailed_timing);
    let mut bd = Breakdown {
        io: outcome.planning,
        ..Breakdown::default()
    };
    let t = clock.start();
    let bases: Vec<usize> = results
        .iter()
        .scan(0usize, |acc, o| {
            let b = *acc;
            *acc += o.rows;
            Some(b)
        })
        .collect();
    let total = bases.last().copied().unwrap_or(0) + results.last().map(|o| o.rows).unwrap_or(0);

    let mut io = IoCounters::default();
    let mut worker_hits = 0u64;
    let mut worker_misses = 0u64;
    let mut quarantined = 0u64;
    let mut quarantine_samples: Vec<QuarantineSample> = Vec::new();
    for (p, o) in results.iter().enumerate() {
        bd.merge(&o.breakdown);
        io.merge(o.io);
        worker_hits += o.cache_hits;
        worker_misses += o.cache_misses;
        quarantined += o.quarantined;
        for s in &o.quarantine_samples {
            if quarantine_samples.len() >= QuarantineSample::MAX_SAMPLES {
                break;
            }
            // Sample rows are slice-local, like error rows.
            quarantine_samples.push(QuarantineSample {
                row: s.row + bases[p] as u64,
                ..*s
            });
        }
    }

    let mut installed = false;
    if let Some(table) = table {
        if prep.plan.is_some() {
            for (p, o) in results.iter().enumerate() {
                table
                    .map
                    .row_index_mut()
                    .note_rows(bases[p], &o.line_starts);
            }
        }

        if prep.build_chunk {
            let mut merged = ChunkBuilder::with_capacity(prep.req.attrs.clone(), total);
            for o in results.iter_mut() {
                if let Some(wb) = o.builder.take() {
                    merged.append_partial(wb);
                }
            }
            installed = table.map.install(merged).is_some();
        }

        // Cache and statistics: each slice's typed partials go in whole,
        // in slice order — statistics first (they read only the values
        // their reservoirs keep), then the cache takes the columns. Both
        // start at their own current frontier per attribute. Sketches exist
        // only with statistics on: one per attribute with rows to observe
        // at plan time.
        if config.enable_stats {
            for (i, &attr) in prep.req.attrs.iter().enumerate() {
                let slices = results.iter().zip(&bases).filter_map(|(o, &base)| {
                    let sketch = o.sketches.get(i)?.as_ref()?;
                    Some((&o.side_cols[i], sketch, base as u64))
                });
                table.stats.absorb(attr, slices);
            }
        }
        if config.enable_cache {
            table.cache.record_reads(worker_hits, worker_misses);
            for (o, &base) in results.iter_mut().zip(&bases) {
                let cols = std::mem::take(&mut o.side_cols);
                table
                    .cache
                    .append_slice(&prep.req.attrs, cols, base, total, prep.query_tick);
            }
        }

        // End-of-scan bookkeeping — withheld on a partial merge, where
        // `total` is a prefix, not the file.
        if complete {
            table.row_count = Some(total as u64);
            if prep.plan.is_some() {
                table.map.row_index_mut().mark_complete();
            }
            if config.enable_stats {
                table.stats.set_row_count(total as u64);
            }
        }
    }

    clock.lap(t, &mut bd.install);
    bd.nodb += bd.install;

    let mut tel = lock_recover(telemetry);
    tel.io.merge(io);
    tel.rows_scanned = total as u64;
    tel.installed_chunk = installed;
    tel.breakdown = bd;
    tel.cache_hits = worker_hits;
    tel.cache_misses = worker_misses;
    tel.steals = steals;
    tel.rows_quarantined = quarantined;
    tel.quarantine_samples = quarantine_samples;
    tel.stopped_early = !complete;

    stopped.map_or(Ok(()), Err)
}

/// What a scan's data phase hands to its install phase.
pub(crate) enum StagedScan {
    /// A fully-cached query's result batches, served straight off the cache
    /// columns; only the hit tally is left to fold in.
    Cached(VecDeque<Batch>),
    /// A raw scan's partition partials, waiting for the ordered merge.
    Partitions(ScanOutcome),
}

impl StagedScan {
    /// The scan's result batches in row order. A cached stream's batches
    /// pass through as formed; a raw scan's per-slice batches are
    /// concatenated in slice order and re-packed to full batches
    /// (reorder-free; `Batch::extend_from` resolves selection vectors).
    /// Touches no table, so [`scan_shared`] calls it with no lock held.
    fn into_batches(self) -> VecDeque<Batch> {
        let outputs = match self {
            StagedScan::Cached(queue) => return queue,
            StagedScan::Partitions(outcome) => outcome.outputs,
        };
        let mut queue: VecDeque<Batch> = VecDeque::new();
        let mut acc = Batch::default();
        for b in outputs.into_iter().flat_map(|o| o.batches) {
            if acc.is_empty() {
                acc = b;
            } else {
                acc.extend_from(b);
            }
            if acc.rows() >= BATCH_SIZE {
                queue.push_back(std::mem::take(&mut acc));
            }
        }
        if !acc.is_empty() {
            queue.push_back(acc);
        }
        queue
    }
}

/// The data phase of a prepared scan, over a shared borrow of the table:
/// stream the cache for a fully-cached query, otherwise run the partition
/// slices and re-validate the source epoch. Mutates nothing — everything
/// it produces is staged for [`scan_install`].
fn scan_data(table: &RawTable, config: &NoDbConfig, prep: &ScanPrep) -> EngineResult<StagedScan> {
    if prep.fully_cached {
        return stream_cached(table, prep).map(StagedScan::Cached);
    }
    let outcome = run_partitions(table, config, prep)?;
    // Re-validate the epoch before *any* merge — including a stopped
    // scan's partial-prefix merge — so a file rewritten while the workers
    // streamed it never installs poisoned map/cache/stats partials.
    revalidate_epoch(prep)?;
    Ok(StagedScan::Partitions(outcome))
}

/// The install phase of a prepared scan, over an exclusive borrow of the
/// table: fold a cached stream's hit tally into the cache metrics, or merge
/// the staged partials ([`merge_outputs`]). Publishes the scan telemetry;
/// the result batches stay in `staged`.
///
/// Behind the **install fence**: when the table's generation moved past
/// `prep.generation` since the data phase (another query reconciled an
/// append or quarantined a rewrite), the staged state describes an older
/// epoch, so nothing is installed — the telemetry is still published, and
/// the query answers from what it read.
fn scan_install(
    table: &mut RawTable,
    config: &NoDbConfig,
    prep: &ScanPrep,
    staged: &mut StagedScan,
    telemetry: &TelemetryHandle,
) -> EngineResult<()> {
    let live = table.generation == prep.generation;
    match staged {
        StagedScan::Cached(_) => {
            // One hit per requested attribute per cached row.
            let hits = prep.cached_rows * prep.req.attrs.len() as u64;
            if live {
                table.cache.record_reads(hits, 0);
            }
            let mut tel = lock_recover(telemetry);
            tel.rows_scanned = prep.cached_rows;
            tel.cache_hits = hits;
            Ok(())
        }
        StagedScan::Partitions(outcome) => {
            merge_outputs(live.then_some(table), config, prep, outcome, telemetry)
        }
    }
}

/// Run one scan of `req` against a shared table handle, starting from the
/// write guard the caller planned under: prepare under it, downgrade it
/// into the data phase's read guard (no writer can land in between, so the
/// prep is exact for the data), release it, install under a short write
/// lock behind the install fence, and re-pack the result under no lock.
/// The install's lock acquisition is added to `lock_wait`; the downgrade
/// never waits.
pub(crate) fn scan_shared(
    handle: &TableHandle,
    mut guard: RwLockWriteGuard<'_, RawTable>,
    config: &NoDbConfig,
    req: ScanRequest,
    telemetry: &TelemetryHandle,
    ctx: QueryCtx,
    lock_wait: &mut Duration,
) -> EngineResult<VecDeque<Batch>> {
    let prep = prepare_scan(&mut guard, config, req, telemetry, ctx);
    let mut staged = {
        let table = RwLockWriteGuard::downgrade(guard);
        scan_data(&table, config, &prep)?
    };
    scan_install(
        &mut timed(lock_wait, || handle.write()),
        config,
        &prep,
        &mut staged,
        telemetry,
    )?;
    Ok(staged.into_batches())
}

/// Serve a fully-cached query from the cache columns, one [`segment_batch`]
/// per `BATCH_SIZE` rows. The columns are resident by construction — the
/// data phase inherits the prepare guard, so nothing can evict them in
/// between — and a missing one is an internal error, never a panic.
fn stream_cached(table: &RawTable, prep: &ScanPrep) -> EngineResult<VecDeque<Batch>> {
    let total = prep.cached_rows as usize;
    let mut queue: VecDeque<Batch> = VecDeque::new();
    if total == 0 {
        // A known-empty table is vacuously fully cached: there is nothing
        // to stream, and no column need be resident to say so.
        return Ok(queue);
    }
    let cols = cached_column_handles(&table.cache, &prep.req.attrs, total).ok_or_else(|| {
        EngineError::Execution("fully-cached plan found a cache column missing".into())
    })?;
    for lo in (0..total).step_by(BATCH_SIZE) {
        // Cancellation granularity: one check per batch; a pure cache
        // read mutates nothing, so stopping here needs no partial merge.
        prep.ctx.check()?;
        let batch = segment_batch(&prep.req, &cols, lo, total.min(lo + BATCH_SIZE));
        if !batch.is_empty() {
            queue.push_back(batch);
        }
    }
    Ok(queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParseErrorPolicy;
    use crate::table::RawTable;
    use nodb_rawcsv::{Datum, GeneratorConfig};
    use std::path::PathBuf;

    fn tmp_csv(cols: usize, rows: u64, seed: u64) -> (PathBuf, nodb_rawcsv::Schema) {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_rawscan_{cols}_{rows}_{seed}_{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = GeneratorConfig::uniform_ints(cols, rows, seed);
        cfg.generate_file(&p).unwrap();
        (p, cfg.schema())
    }

    /// One query through the production stages — `prepare_scan`, the data
    /// phase, the fenced install, the re-pack — over an exclusive borrow
    /// in place of `scan_shared`'s lock hand-offs, surfacing the scan error
    /// instead of unwrapping. Hands back the result batches as the engine
    /// would receive them.
    fn try_scan_batches(
        table: &mut RawTable,
        config: NoDbConfig,
        req: ScanRequest,
        ctx: QueryCtx,
    ) -> (EngineResult<VecDeque<Batch>>, ScanTelemetry) {
        let tel: TelemetryHandle = Arc::new(Mutex::new(ScanTelemetry::default()));
        let prep = prepare_scan(table, &config, req, &tel, ctx);
        let r = scan_data(table, &config, &prep).and_then(|mut staged| {
            scan_install(table, &config, &prep, &mut staged, &tel)?;
            Ok(staged.into_batches())
        });
        let t = Arc::try_unwrap(tel).unwrap().into_inner().unwrap();
        (r, t)
    }

    fn rows_of(queue: &VecDeque<Batch>) -> Vec<Vec<Datum>> {
        queue
            .iter()
            .flat_map(|b| (0..b.rows()).map(|r| b.row(r)))
            .collect()
    }

    fn try_scan_once(
        table: &mut RawTable,
        config: NoDbConfig,
        req: ScanRequest,
        ctx: QueryCtx,
    ) -> (EngineResult<Vec<Vec<Datum>>>, ScanTelemetry) {
        let (r, t) = try_scan_batches(table, config, req, ctx);
        (r.map(|queue| rows_of(&queue)), t)
    }

    fn scan_once(
        table: &mut RawTable,
        config: NoDbConfig,
        req: ScanRequest,
    ) -> (Vec<Vec<Datum>>, ScanTelemetry) {
        let ctx = QueryCtx::from_timeout_ms(config.query_timeout_ms);
        let (rows, tel) = try_scan_once(table, config, req, ctx);
        (rows.unwrap(), tel)
    }

    #[test]
    fn first_scan_learns_row_count_and_installs_chunk() {
        let (p, schema) = tmp_csv(5, 500, 1);
        let cfg = NoDbConfig::default();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let (rows, tel) = scan_once(&mut t, cfg, ScanRequest::project(vec![1, 3]));
        assert_eq!(rows.len(), 500);
        assert_eq!(tel.rows_scanned, 500);
        assert!(tel.installed_chunk);
        assert_eq!(t.row_count, Some(500));
        assert!(t.map.row_index().is_complete());
        assert_eq!(t.map.coverage(1), 500);
        assert_eq!(t.cache.coverage(3), 500);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn second_scan_is_fully_cached() {
        let (p, schema) = tmp_csv(4, 300, 2);
        let cfg = NoDbConfig::default();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let req = ScanRequest::project(vec![0, 2]);
        let (first, tel1) = scan_once(&mut t, cfg, req.clone());
        assert!(!tel1.fully_cached);
        let (second, tel2) = scan_once(&mut t, cfg, req);
        assert!(tel2.fully_cached, "all attrs cached → no file access");
        assert_eq!(tel2.io.bytes_read, 0);
        assert!(tel2.cache_hits > 0, "cached scan tallies its hits");
        assert_eq!(first, second, "cache must return identical data");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn map_only_scan_matches_baseline_values() {
        let (p, schema) = tmp_csv(6, 200, 3);
        let mut t_pm =
            RawTable::register(&p, schema.clone(), false, &NoDbConfig::pm_only()).unwrap();
        let mut t_base = RawTable::register(&p, schema, false, &NoDbConfig::baseline()).unwrap();
        let req = ScanRequest::project(vec![2, 4]);
        // Warm the map with a first query on different attrs.
        let (_, _) = scan_once(
            &mut t_pm,
            NoDbConfig::pm_only(),
            ScanRequest::project(vec![1]),
        );
        let (a, _) = scan_once(&mut t_pm, NoDbConfig::pm_only(), req.clone());
        let (b, _) = scan_once(&mut t_base, NoDbConfig::baseline(), req);
        assert_eq!(a, b);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn predicate_filters_before_tuple_formation() {
        use nodb_engine::RExpr;
        use nodb_sqlparse::ast::BinOp;
        let (p, schema) = tmp_csv(3, 400, 4);
        let cfg = NoDbConfig::default();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let req = ScanRequest {
            attrs: vec![0, 1],
            predicate: Some(RExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(500_000_000))),
            }),
            materialize: vec![true, false],
        };
        let (rows, tel) = scan_once(&mut t, cfg, req);
        assert!(tel.rows_scanned == 400);
        assert!(rows.len() < 400 && !rows.is_empty());
        // Predicate-only column arrives as NULL (never materialized).
        assert!(rows.iter().all(|r| r[1] == Datum::Null));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn exact_map_jumps_replace_tokenizing() {
        let (p, schema) = tmp_csv(8, 300, 5);
        let cfg = NoDbConfig::pm_only();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let req = ScanRequest::project(vec![5]);
        let (_, _) = scan_once(&mut t, cfg, req.clone());
        assert_eq!(t.map.coverage(5), 300);
        let (rows, tel2) = scan_once(&mut t, cfg, req);
        assert_eq!(rows.len(), 300);
        // Second scan uses exact jumps: parsing time present, tokenizing ~0.
        assert_eq!(tel2.breakdown.tokenizing, Duration::ZERO);
        assert!(tel2.breakdown.parsing > Duration::ZERO);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn stats_observed_on_requested_attrs_only() {
        let (p, schema) = tmp_csv(5, 100, 6);
        let cfg = NoDbConfig::default();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let (_, _) = scan_once(&mut t, cfg, ScanRequest::project(vec![1, 2]));
        assert_eq!(t.stats.covered_attrs(), vec![1, 2]);
        assert_eq!(t.stats.attr(1).unwrap().rows_seen(), 100);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rescans_never_double_observe_statistics() {
        // pm_only: no cache, so the second query re-scans the file. The
        // observation frontier must keep the accumulators at one
        // observation per (attr, row).
        let (p, schema) = tmp_csv(4, 150, 66);
        let cfg = NoDbConfig::pm_only();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let req = ScanRequest::project(vec![2]);
        let (_, _) = scan_once(&mut t, cfg, req.clone());
        let seen1 = t.stats.attr(2).unwrap().rows_seen();
        let sample1 = t.stats.attr(2).unwrap().sample().to_vec();
        let (_, _) = scan_once(&mut t, cfg, req);
        assert_eq!(t.stats.attr(2).unwrap().rows_seen(), seen1);
        assert_eq!(t.stats.attr(2).unwrap().sample(), &sample1[..]);
        assert_eq!(t.stats.observed_upto(2), 150);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn baseline_keeps_no_state() {
        let (p, schema) = tmp_csv(4, 100, 7);
        let cfg = NoDbConfig::baseline();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let (rows, tel) = scan_once(&mut t, cfg, ScanRequest::project(vec![0, 3]));
        assert_eq!(rows.len(), 100);
        assert!(!tel.installed_chunk);
        assert!(t.map.chunks().is_empty());
        assert_eq!(t.cache.bytes_used(), 0);
        assert!(t.stats.covered_attrs().is_empty());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn header_rows_are_skipped() {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_rawscan_hdr_{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&p, "a,b\n1,2\n3,4\n").unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("a", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("b", nodb_rawcsv::ColumnType::Int),
        ]);
        let cfg = NoDbConfig::default();
        let mut t = RawTable::register(&p, schema, true, &cfg).unwrap();
        let (rows, _) = scan_once(&mut t, cfg, ScanRequest::project(vec![0, 1]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Datum::Int(1), Datum::Int(2)]);
        std::fs::remove_file(p).unwrap();
    }

    /// Assert two tables hold identical adaptive state: row count, row
    /// index, map coverage, cache hit/miss accounting and contents, and
    /// statistics (rows seen, reservoir, observation frontier).
    fn assert_same_state(tag: &str, a: &RawTable, b: &RawTable, cols: usize) {
        assert_eq!(a.row_count, b.row_count, "{tag}: row count");
        // Hit/miss telemetry does not depend on the slicing: slices of known
        // rows read the cache exactly where the sequential scan would, and
        // slices of the unknown tail read it at no worker count.
        assert_eq!(
            a.cache.metrics().hits,
            b.cache.metrics().hits,
            "{tag}: cache hit accounting"
        );
        assert_eq!(
            a.cache.metrics().misses,
            b.cache.metrics().misses,
            "{tag}: cache miss accounting"
        );
        assert_eq!(
            a.map.row_index().len(),
            b.map.row_index().len(),
            "{tag}: row index"
        );
        assert_eq!(
            a.map.row_index().is_complete(),
            b.map.row_index().is_complete(),
            "{tag}: row index completeness"
        );
        for attr in 0..cols {
            assert_eq!(
                a.map.coverage(attr),
                b.map.coverage(attr),
                "{tag}: map c{attr}"
            );
            assert_eq!(
                a.cache.coverage(attr),
                b.cache.coverage(attr),
                "{tag}: cache c{attr}"
            );
            for row in 0..a.cache.coverage(attr) {
                assert_eq!(
                    a.cache.peek(attr, row),
                    b.cache.peek(attr, row),
                    "{tag}: cache c{attr} row {row}"
                );
            }
            match (a.stats.attr(attr), b.stats.attr(attr)) {
                (None, None) => {}
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.rows_seen(), sb.rows_seen(), "{tag}: stats rows c{attr}");
                    assert_eq!(sa.sample(), sb.sample(), "{tag}: stats reservoir c{attr}");
                }
                other => panic!("{tag}: stats presence differs for c{attr}: {other:?}"),
            }
            assert_eq!(
                a.stats.observed_upto(attr),
                b.stats.observed_upto(attr),
                "{tag}: stats frontier c{attr}"
            );
        }
    }

    /// Scan the same table twice — `scan_threads = 1` vs `threads` — against
    /// two freshly registered tables, and assert identical results and
    /// identical post-scan adaptive state.
    fn assert_parallel_matches_sequential(
        cols: usize,
        rows: u64,
        seed: u64,
        threads: usize,
        mk_cfg: impl Fn(usize) -> NoDbConfig,
        reqs: &[ScanRequest],
    ) {
        let (p, schema) = tmp_csv(cols, rows, seed);
        let cfg_seq = mk_cfg(1);
        let cfg_par = mk_cfg(threads);
        let mut t_seq = RawTable::register(&p, schema.clone(), false, &cfg_seq).unwrap();
        let mut t_par = RawTable::register(&p, schema, false, &cfg_par).unwrap();
        for (qi, req) in reqs.iter().enumerate() {
            let (a, tel_a) = scan_once(&mut t_seq, cfg_seq, req.clone());
            let (b, tel_b) = scan_once(&mut t_par, cfg_par, req.clone());
            assert_eq!(a, b, "query {qi} rows differ (threads = {threads})");
            assert_eq!(
                tel_a.rows_scanned, tel_b.rows_scanned,
                "query {qi} rows_scanned"
            );
            assert_eq!(
                tel_a.fully_cached, tel_b.fully_cached,
                "query {qi} fully_cached"
            );
        }
        assert_same_state(&format!("threads = {threads}"), &t_seq, &t_par, cols);
        std::fs::remove_file(p).unwrap();
    }

    /// The install fence: a scan whose data phase ran at generation g,
    /// while another query reconciled an append before its install,
    /// answers from what it read and installs nothing; the next query reads
    /// the appended file and ends where a cold table on it does.
    #[test]
    fn install_fence_answers_the_read_and_installs_nothing() {
        let (p, schema) = tmp_csv(4, 300, 61);
        let cfg = NoDbConfig {
            scan_threads: 2,
            ..NoDbConfig::default()
        };
        let req = ScanRequest::project(vec![0, 2]);
        let (before, _) = scan_once(
            &mut RawTable::register(&p, schema.clone(), false, &cfg).unwrap(),
            cfg,
            req.clone(),
        );
        let handle: TableHandle = Arc::new(parking_lot::RwLock::new(
            RawTable::register(&p, schema.clone(), false, &cfg).unwrap(),
        ));

        let tel: TelemetryHandle = Arc::new(Mutex::new(ScanTelemetry::default()));
        let ctx = QueryCtx::from_timeout_ms(cfg.query_timeout_ms);
        let mut guard = handle.write();
        let prep = prepare_scan(&mut guard, &cfg, req.clone(), &tel, ctx);
        let mut staged = scan_data(&RwLockWriteGuard::downgrade(guard), &cfg, &prep).unwrap();
        GeneratorConfig::uniform_ints(4, 300, 61)
            .append_rows(&p, 50)
            .unwrap();
        handle.write().check_updates().unwrap();
        assert_eq!(handle.read().generation, prep.generation + 1);
        scan_install(&mut handle.write(), &cfg, &prep, &mut staged, &tel).unwrap();

        assert_eq!(rows_of(&staged.into_batches()), before, "answers its read");
        assert_eq!(lock_recover(&tel).rows_scanned, 300, "telemetry published");
        {
            let t = handle.read();
            assert_eq!(t.row_count, None);
            assert!(t.cache.resident().is_empty(), "no cache column");
            assert_eq!(t.map.row_index().len(), 0, "no row-index row");
            assert!(t.map.chunks().is_empty(), "no map chunk");
            for attr in 0..4 {
                assert_eq!(t.stats.observed_upto(attr), 0, "no observation c{attr}");
                assert!(t.stats.attr(attr).is_none(), "no statistics c{attr}");
            }
        }

        let (after, _) = scan_once(&mut handle.write(), cfg, req.clone());
        let mut cold = RawTable::register(&p, schema, false, &cfg).unwrap();
        let (expect, _) = scan_once(&mut cold, cfg, req);
        assert_eq!(after.len(), 350);
        assert_eq!(after, expect);
        assert_same_state("after the fence", &handle.read(), &cold, 4);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_cold_scan_matches_sequential_state() {
        for threads in [2, 3, 8] {
            assert_parallel_matches_sequential(
                6,
                1000,
                21,
                threads,
                |t| NoDbConfig {
                    scan_threads: t,
                    ..NoDbConfig::default()
                },
                &[ScanRequest::project(vec![1, 4])],
            );
        }
    }

    #[test]
    fn parallel_warm_scan_uses_map_and_cache() {
        // Second query on other attrs runs in row-partitioned (warm) mode.
        assert_parallel_matches_sequential(
            8,
            600,
            22,
            4,
            |t| NoDbConfig {
                scan_threads: t,
                ..NoDbConfig::default()
            },
            &[
                ScanRequest::project(vec![0, 3]),
                ScanRequest::project(vec![3, 6]),
                ScanRequest::project(vec![1]),
            ],
        );
    }

    #[test]
    fn io_slice_covers_the_time_inside_read() {
        // Multi-block scans (4 KiB blocks): block reads belong to the I/O
        // slice on the first scan and on a rescan over a partial cache
        // alike, so `breakdown.io` is never below `io.stall`.
        let (p, schema) = tmp_csv(5, 20000, 41);
        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                io_block_size: 4096,
                cache_budget_bytes: 40_000,
                ..NoDbConfig::cache_only()
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            let req = ScanRequest::project(vec![1, 3]);
            let (_, cold) = scan_once(&mut t, cfg, req.clone());
            let (_, again) = scan_once(&mut t, cfg, req);
            let slices = cfg.scan_slice_target() as u64;
            for tel in [cold, again] {
                assert!(tel.io.read_calls > 2 * slices, "several refills a slice");
                assert!(tel.io.stall > Duration::ZERO);
                assert!(
                    tel.breakdown.io >= tel.io.stall,
                    "threads {threads}: io {:?} < stall {:?}",
                    tel.breakdown.io,
                    tel.io.stall
                );
                // The lock-side install is a (non-empty) part of `nodb`.
                assert!(tel.breakdown.install > Duration::ZERO);
                assert!(tel.breakdown.install <= tel.breakdown.nodb);
            }
            // Timing off: the reads are still counted, no slice is.
            let quiet = NoDbConfig {
                detailed_timing: false,
                ..cfg
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &quiet).unwrap();
            let (_, tel) = scan_once(&mut t, quiet, ScanRequest::project(vec![1, 3]));
            assert!(tel.io.stall > Duration::ZERO);
            assert_eq!(tel.breakdown.total(), Duration::ZERO);
            assert_eq!(tel.breakdown.install, Duration::ZERO);
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_predicate_filters_like_sequential() {
        use nodb_engine::RExpr;
        use nodb_sqlparse::ast::BinOp;
        let (p, schema) = tmp_csv(4, 700, 23);
        let req = ScanRequest {
            attrs: vec![0, 2],
            predicate: Some(RExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(400_000_000))),
            }),
            materialize: vec![true, false],
        };
        let cfg1 = NoDbConfig {
            scan_threads: 1,
            ..NoDbConfig::default()
        };
        let cfg4 = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        };
        let mut t1 = RawTable::register(&p, schema.clone(), false, &cfg1).unwrap();
        let mut t4 = RawTable::register(&p, schema, false, &cfg4).unwrap();
        let (a, tel_a) = scan_once(&mut t1, cfg1, req.clone());
        let (b, tel_b) = scan_once(&mut t4, cfg4, req);
        assert_eq!(a, b);
        assert_eq!(tel_a.rows_scanned, 700);
        assert_eq!(tel_b.rows_scanned, 700);
        assert!(!a.is_empty() && a.len() < 700);
        assert!(a.iter().all(|r| r[1] == Datum::Null), "predicate-only col");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_respects_cache_budget_stalls() {
        // Tight budget: only a prefix fits; admission decisions must match.
        assert_parallel_matches_sequential(
            4,
            300,
            24,
            4,
            |t| NoDbConfig {
                scan_threads: t,
                cache_budget_bytes: 900,
                enable_positional_map: false,
                ..NoDbConfig::default()
            },
            &[ScanRequest::project(vec![1]), ScanRequest::project(vec![1])],
        );
    }

    #[test]
    fn parallel_baseline_keeps_no_state() {
        let (p, schema) = tmp_csv(4, 200, 25);
        let cfg = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::baseline()
        };
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let (rows, tel) = scan_once(&mut t, cfg, ScanRequest::project(vec![0, 3]));
        assert_eq!(rows.len(), 200);
        assert!(!tel.installed_chunk);
        assert!(t.map.chunks().is_empty());
        assert_eq!(t.cache.bytes_used(), 0);
        assert!(t.stats.covered_attrs().is_empty());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_empty_and_tiny_files() {
        for rows in [0u64, 1, 3] {
            assert_parallel_matches_sequential(
                3,
                rows,
                26,
                8,
                |t| NoDbConfig {
                    scan_threads: t,
                    ..NoDbConfig::default()
                },
                // The rerun is fully cached — vacuously so for the empty
                // file, whose cache holds no column at all.
                &[
                    ScanRequest::project(vec![0, 2]),
                    ScanRequest::project(vec![0, 2]),
                ],
            );
        }
    }

    #[test]
    fn parallel_scan_with_header() {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawscan_par_hdr_{}", std::process::id()));
        let mut content = String::from("a,b\n");
        for i in 0..500 {
            content.push_str(&format!("{i},{}\n", i * 2));
        }
        std::fs::write(&p, content).unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("a", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("b", nodb_rawcsv::ColumnType::Int),
        ]);
        let cfg = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        };
        let mut t = RawTable::register(&p, schema, true, &cfg).unwrap();
        let (rows, _) = scan_once(&mut t, cfg, ScanRequest::project(vec![0, 1]));
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0], vec![Datum::Int(0), Datum::Int(0)]);
        assert_eq!(rows[499], vec![Datum::Int(499), Datum::Int(998)]);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_warm_partial_coverage_counts_cache_hits() {
        // Tight cache budget + posmap on: the second scan runs warm
        // (row-partitioned) with only a prefix cached, so workers peek the
        // cache for covered rows — hit/miss telemetry must match the
        // sequential scan's `get` accounting.
        assert_parallel_matches_sequential(
            4,
            400,
            27,
            4,
            |t| NoDbConfig {
                scan_threads: t,
                cache_budget_bytes: 1200,
                ..NoDbConfig::default()
            },
            &[ScanRequest::project(vec![1]), ScanRequest::project(vec![1])],
        );
    }

    #[test]
    fn parallel_cold_error_reports_global_row() {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawscan_par_badrow_{}", std::process::id()));
        let mut content = String::new();
        for i in 0..800 {
            if i == 700 {
                content.push_str("oops,1\n");
            } else {
                content.push_str(&format!("{i},{}\n", i * 2));
            }
        }
        std::fs::write(&p, content).unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("a", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("b", nodb_rawcsv::ColumnType::Int),
        ]);
        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            let (r, _) = try_scan_once(
                &mut t,
                cfg,
                ScanRequest::project(vec![0]),
                QueryCtx::unbounded(),
            );
            let msg = r
                .expect_err("scan must fail on the malformed row")
                .to_string();
            assert!(
                msg.contains("row 700"),
                "threads={threads}: error must name the global row, got: {msg}"
            );
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn cold_error_text_identical_across_thread_counts() {
        // Satellite audit: the same malformed file must produce *identical*
        // error text at scan_threads 1 and 8 — same global row number (0- vs
        // 1-based confusion would differ), same attribute, same field text —
        // with errors placed in partitions ≥ 1 (the rebase path) and with a
        // header shifting data-row numbering.
        for (label, bad_rows, header) in [
            ("mid", vec![421usize], false),
            ("late", vec![707], false),
            ("multi", vec![303, 551], false),
            ("hdr", vec![645], true),
        ] {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "nodb_rawscan_errtext_{label}_{}",
                std::process::id()
            ));
            let mut content = String::new();
            if header {
                content.push_str("a,b\n");
            }
            for i in 0..800usize {
                if bad_rows.contains(&i) {
                    content.push_str(&format!("bad{i},1\n"));
                } else {
                    content.push_str(&format!("{i},{}\n", i * 2));
                }
            }
            std::fs::write(&p, content).unwrap();
            let schema = nodb_rawcsv::Schema::new(vec![
                nodb_rawcsv::ColumnDef::new("a", nodb_rawcsv::ColumnType::Int),
                nodb_rawcsv::ColumnDef::new("b", nodb_rawcsv::ColumnType::Int),
            ]);
            let mut texts = Vec::new();
            for threads in [1usize, 8] {
                let cfg = NoDbConfig {
                    scan_threads: threads,
                    ..NoDbConfig::default()
                };
                let mut t = RawTable::register(&p, schema.clone(), header, &cfg).unwrap();
                let (r, _) = try_scan_once(
                    &mut t,
                    cfg,
                    ScanRequest::project(vec![0]),
                    QueryCtx::unbounded(),
                );
                texts.push(r.expect_err("scan must fail").to_string());
            }
            assert_eq!(
                texts[0], texts[1],
                "{label}: error text must not depend on scan_threads"
            );
            assert!(
                texts[0].contains(&format!("row {}", bad_rows[0])),
                "{label}: first bad data row must be named: {}",
                texts[0]
            );
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn parallel_quoted_file_matches_sequential() {
        use nodb_rawcsv::tokenizer::TokenizerConfig;
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawscan_par_quoted_{}", std::process::id()));
        let mut content = String::new();
        for i in 0..400 {
            content.push_str(&format!("{i},\"name, {i}\",\"say \"\"hi\"\"\"\n"));
        }
        std::fs::write(&p, content).unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("id", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("name", nodb_rawcsv::ColumnType::Str),
            nodb_rawcsv::ColumnDef::new("quip", nodb_rawcsv::ColumnType::Str),
        ]);
        let tok = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let cfg1 = NoDbConfig {
            scan_threads: 1,
            ..NoDbConfig::default()
        };
        let cfg4 = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        };
        let mut t1 =
            RawTable::register_with_tokenizer(&p, schema.clone(), false, &cfg1, tok).unwrap();
        let mut t4 = RawTable::register_with_tokenizer(&p, schema, false, &cfg4, tok).unwrap();
        let req = ScanRequest::project(vec![0, 1, 2]);
        let (a, _) = scan_once(&mut t1, cfg1, req.clone());
        let (b, _) = scan_once(&mut t4, cfg4, req);
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
        assert_eq!(a[7][1], Datum::from("name, 7"));
        assert_eq!(a[7][2], Datum::from("say \"hi\""));
        // Quoted files bypass the positional map but still cache.
        assert_eq!(t1.cache.coverage(1), t4.cache.coverage(1));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn mapless_table_rescans_from_raw_bytes_and_still_matches() {
        // Cache-only configuration: the positional map is off, so there is
        // never a row index and every rescan is all unknown tail. With a
        // tight budget the first query caches only a prefix; the second
        // resolves every row from raw bytes again — no cache reads, and no
        // more I/O than the first — and still ends byte-identical to the
        // one-worker scan.
        let mk = |threads: usize| NoDbConfig {
            scan_threads: threads,
            cache_budget_bytes: 1200,
            ..NoDbConfig::cache_only()
        };
        assert_parallel_matches_sequential(
            4,
            400,
            31,
            8,
            mk,
            &[ScanRequest::project(vec![1]), ScanRequest::project(vec![1])],
        );

        let (p, schema) = tmp_csv(4, 400, 31);
        let cfg = mk(8);
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let req = ScanRequest::project(vec![1]);
        let (a, tel1) = scan_once(&mut t, cfg, req.clone());
        let cov = t.cache.coverage(1);
        assert!(cov > 0 && cov < 400, "partial coverage, got {cov}");
        assert!(t.map.row_index().is_empty(), "no row index without the map");
        let (b, tel2) = scan_once(&mut t, cfg, req);
        assert_eq!(a, b);
        assert_eq!(tel2.cache_hits, 0, "unknown rows resolve from raw bytes");
        assert_eq!(
            tel2.io.bytes_read, tel1.io.bytes_read,
            "one pass over the file, like the first scan"
        );
        assert_eq!(t.cache.coverage(1), cov);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn partially_known_table_reuses_its_prefix_without_a_counting_pass() {
        // An append invalidates row-index completeness but keeps the index,
        // chunks and cache for the prefix. The next scan cuts the known rows
        // into row slices — served from the cache without opening the file
        // — and reads only the bytes behind them, at any worker count, and
        // must match the one-worker scan.
        use nodb_rawcsv::GeneratorConfig;
        let gen = GeneratorConfig::uniform_ints(5, 5000, 33);
        let mk_table = |threads: usize, path: &PathBuf| {
            let cfg = NoDbConfig {
                scan_threads: threads,
                io_block_size: 4096,
                ..NoDbConfig::default()
            };
            (
                RawTable::register(path, gen.schema(), false, &cfg).unwrap(),
                cfg,
            )
        };
        let mut p1 = std::env::temp_dir();
        p1.push(format!("nodb_rawscan_append_seq_{}", std::process::id()));
        gen.generate_file(&p1).unwrap();
        let mut p8 = std::env::temp_dir();
        p8.push(format!("nodb_rawscan_append_par_{}", std::process::id()));
        gen.generate_file(&p8).unwrap();
        let (mut t1, cfg1) = mk_table(1, &p1);
        let (mut t8, cfg8) = mk_table(8, &p8);
        let req = ScanRequest::project(vec![1, 3]);
        let (a0, _) = scan_once(&mut t1, cfg1, req.clone());
        let (b0, _) = scan_once(&mut t8, cfg8, req.clone());
        assert_eq!(a0, b0);
        let old_len = std::fs::metadata(&p1).unwrap().len();
        gen.append_rows(&p1, 120).unwrap();
        gen.append_rows(&p8, 120).unwrap();
        let tail_bytes = std::fs::metadata(&p1).unwrap().len() - old_len;
        t1.check_updates().unwrap();
        t8.check_updates().unwrap();
        let (a1, tel_a) = scan_once(&mut t1, cfg1, req.clone());
        let (b1, tel_b) = scan_once(&mut t8, cfg8, req);
        assert_eq!(a1, b1, "post-append scans must agree");
        assert_eq!(a1.len(), 5120);
        assert_eq!(tel_a.cache_hits, 2 * 5000, "known prefix served from cache");
        assert_eq!(tel_a.cache_hits, tel_b.cache_hits, "hit parity");
        for (tel, cfg) in [(&tel_a, &cfg1), (&tel_b, &cfg8)] {
            // Each tail slice reads its bytes plus at most two page-sized
            // steps to find the line that ends it; nothing re-reads the
            // prefix to learn row numbers.
            let slack = cfg.scan_slice_target() as u64 * 2 * 4096;
            assert!(
                tel.io.bytes_read <= tail_bytes + slack && tel.io.bytes_read < old_len / 2,
                "read {} bytes for a {tail_bytes}-byte tail behind {old_len} known bytes",
                tel.io.bytes_read
            );
        }
        assert_eq!(t1.row_count, Some(5120));
        assert_eq!(t1.row_count, t8.row_count);
        assert!(t1.map.row_index().is_complete());
        assert_eq!(t1.map.row_index().starts(), t8.map.row_index().starts());
        for attr in [1usize, 3] {
            assert_eq!(t1.cache.coverage(attr), 5120);
            assert_eq!(t1.cache.coverage(attr), t8.cache.coverage(attr));
            for row in 0..t1.cache.coverage(attr) {
                assert_eq!(t1.cache.peek(attr, row), t8.cache.peek(attr, row));
            }
        }
        std::fs::remove_file(p1).unwrap();
        std::fs::remove_file(p8).unwrap();
    }

    #[test]
    fn stealing_and_static_partitioning_agree() {
        // Same dataset and queries under static partitioning
        // (steal_slices_per_thread = 0) and fine-grained stealing: results
        // and post-scan state must be identical — which worker executes a
        // slice can never matter.
        for steal in [0usize, 1, 4, 16] {
            assert_parallel_matches_sequential(
                6,
                700,
                34,
                8,
                move |t| NoDbConfig {
                    scan_threads: t,
                    steal_slices_per_thread: steal,
                    ..NoDbConfig::default()
                },
                &[
                    ScanRequest::project(vec![0, 4]),
                    ScanRequest::project(vec![2]),
                ],
            );
        }
    }

    #[test]
    fn skewed_line_widths_balance_via_stealing() {
        // A file whose first half has enormous lines and second half tiny
        // ones: equal-byte slices then hold wildly different row counts.
        // The scan must still return every row, in order, at any thread
        // count, with stealing on.
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawscan_skew_{}", std::process::id()));
        let mut content = String::new();
        let wide = "x".repeat(900);
        for i in 0..200 {
            content.push_str(&format!("{i},{wide}\n"));
        }
        for i in 200..2200 {
            content.push_str(&format!("{i},s\n"));
        }
        std::fs::write(&p, content).unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("a", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("b", nodb_rawcsv::ColumnType::Str),
        ]);
        for threads in [1usize, 3, 8] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            let (rows, _) = scan_once(&mut t, cfg, ScanRequest::project(vec![0]));
            assert_eq!(rows.len(), 2200, "threads = {threads}");
            assert_eq!(rows[0][0], Datum::Int(0));
            assert_eq!(rows[2199][0], Datum::Int(2199));
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn partial_cache_coverage_mixes_sources() {
        let (p, schema) = tmp_csv(4, 200, 9);
        // Tight budget: only part of the column fits.
        let cfg = NoDbConfig {
            cache_budget_bytes: 800, // ~100 int rows
            enable_positional_map: false,
            ..NoDbConfig::default()
        };
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let req = ScanRequest::project(vec![1]);
        let (a, _) = scan_once(&mut t, cfg, req.clone());
        let cov = t.cache.coverage(1);
        assert!(cov > 0 && cov < 200, "partial coverage, got {cov}");
        let (b, tel) = scan_once(&mut t, cfg, req);
        assert_eq!(a, b, "mixed cache+raw scan must match raw scan");
        assert!(!tel.fully_cached);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn worker_panic_is_contained_and_table_stays_usable() {
        let (p, schema) = tmp_csv(4, 400, 21);
        let cfg = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        };
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        *lock_recover(&worker::INJECT_WORKER_PANIC) = Some(p.clone());
        let (r, _) = try_scan_once(
            &mut t,
            cfg,
            ScanRequest::project(vec![0, 2]),
            QueryCtx::unbounded(),
        );
        *lock_recover(&worker::INJECT_WORKER_PANIC) = None;
        match r {
            Err(EngineError::WorkerPanic { partition, message }) => {
                assert_eq!(partition, 0, "lowest failed slice reported");
                assert!(
                    message.contains("injected worker panic"),
                    "panic payload carried: {message}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The same table serves the next query normally.
        let (rows, tel) = scan_once(&mut t, cfg, ScanRequest::project(vec![0, 2]));
        assert_eq!(rows.len(), 400);
        assert_eq!(tel.rows_scanned, 400);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn permissive_policy_quarantines_malformed_cells() {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawscan_quar_{}", std::process::id()));
        std::fs::write(&p, "1,10\n2,oops\n3,30\nbad,40\n5,50\n").unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("a", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("b", nodb_rawcsv::ColumnType::Int),
        ]);

        // Strict (the default) aborts on the first malformed cell.
        let strict = NoDbConfig {
            scan_threads: 1,
            ..NoDbConfig::default()
        };
        let mut t = RawTable::register(&p, schema.clone(), false, &strict).unwrap();
        let (r, _) = try_scan_once(
            &mut t,
            strict,
            ScanRequest::project(vec![0, 1]),
            QueryCtx::unbounded(),
        );
        assert!(matches!(r, Err(EngineError::Csv(_))), "strict aborts");

        // Permissive keeps every row, tombstoning the bad cells as NULL, at
        // any thread count, with identical output and telemetry.
        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                parse_errors: ParseErrorPolicy::Permissive,
                ..NoDbConfig::default()
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            let (r, tel) = try_scan_once(
                &mut t,
                cfg,
                ScanRequest::project(vec![0, 1]),
                QueryCtx::unbounded(),
            );
            let rows = r.unwrap();
            assert_eq!(rows.len(), 5, "threads = {threads}");
            assert_eq!(rows[1], vec![Datum::Int(2), Datum::Null]);
            assert_eq!(rows[3], vec![Datum::Null, Datum::Int(40)]);
            assert_eq!(tel.rows_quarantined, 2, "threads = {threads}");
            let sampled: Vec<(u64, usize)> = tel
                .quarantine_samples
                .iter()
                .map(|s| (s.row, s.attr))
                .collect();
            assert_eq!(sampled, vec![(1, 1), (3, 0)], "threads = {threads}");
            // The tombstones land in the cache like short-row NULLs: the
            // warm rerun serves identical rows.
            let (rows2, tel2) = scan_once(&mut t, cfg, ScanRequest::project(vec![0, 1]));
            assert_eq!(rows, rows2, "cached rerun identical (threads = {threads})");
            assert!(tel2.fully_cached);
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn expired_deadline_stops_scan_and_leaves_state_reusable() {
        let (p, schema) = tmp_csv(4, 300, 22);
        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            // Already-expired deadline: the scan stops at its first check.
            let (r, _) = try_scan_once(
                &mut t,
                cfg,
                ScanRequest::project(vec![1]),
                QueryCtx::with_timeout(Duration::ZERO),
            );
            assert!(
                matches!(r, Err(EngineError::DeadlineExceeded)),
                "threads = {threads}, got {r:?}"
            );
            // The table is immediately usable and the rerun is complete and
            // correct — no double-observed statistics, full row count.
            let (rows, tel) = scan_once(&mut t, cfg, ScanRequest::project(vec![1]));
            assert_eq!(rows.len(), 300, "threads = {threads}");
            assert_eq!(tel.rows_scanned, 300);
            assert_eq!(t.row_count, Some(300));
            assert_eq!(t.stats.attr(1).unwrap().rows_seen(), 300);
            assert_eq!(t.stats.observed_upto(1), 300);
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn cancel_token_stops_one_worker_scan_with_partial_state() {
        // One worker, cancelled mid-file: the chunk, row-index and cache
        // prefix of the completed slices must be installed and the
        // statistics frontier advanced.
        //
        // The scan publishes nothing until its merge, so the canceller
        // cannot wait on its progress; instead the fault injector bounds
        // the scan's pace from below. Seed 3's first draw is a transient
        // `EIO`, and every slice opens its own injector, so each of the 16
        // slices sleeps one 40 ms retry backoff: slice `k` cannot finish
        // before `40 (k + 1)` ms, and a cancel at 100 ms lands inside
        // slice 1 or 2 — after slice 0, 540 ms before the last one.
        let (p, schema) = tmp_csv(3, 5000, 23);
        let cfg = NoDbConfig {
            scan_threads: 1,
            steal_slices_per_thread: 16,
            io_fault_seed: 3,
            io_fault_one_in: 1,
            io_retry_backoff_ms: 40,
            ..NoDbConfig::default()
        };
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        let ctx = QueryCtx::unbounded();
        let token = ctx.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        });
        let (r, stopped_tel) = try_scan_once(&mut t, cfg, ScanRequest::project(vec![1]), ctx);
        canceller.join().unwrap();
        let err = r.expect_err("scan finished despite cancellation");
        assert!(matches!(err, EngineError::Cancelled), "got {err:?}");
        assert!(stopped_tel.stopped_early);
        let visited = stopped_tel.rows_scanned;
        assert!(
            visited > 0 && visited < 5000,
            "stopped mid-file, visited {visited}"
        );
        // Partial state: cache/frontier cover the visited prefix; EOF
        // bookkeeping withheld.
        assert_eq!(t.row_count, None);
        assert!(!t.map.row_index().is_complete());
        assert_eq!(t.cache.coverage(1) as u64, visited);
        assert_eq!(t.stats.observed_upto(1), visited);
        // Rerun (fault-free) completes, starting warmer, without double
        // observation.
        let cfg = NoDbConfig {
            io_fault_seed: 0,
            ..cfg
        };
        let (rows, _) = scan_once(&mut t, cfg, ScanRequest::project(vec![1]));
        assert_eq!(rows.len(), 5000);
        assert_eq!(t.stats.attr(1).unwrap().rows_seen(), 5000);
        std::fs::remove_file(p).unwrap();
    }

    /// Assert that `queue` is what the one former produces for `req`: typed
    /// storage at materialized positions, `Column::Nulls` at predicate-only
    /// ones; column-less batches for a zero-attribute request.
    fn assert_typed(tag: &str, req: &ScanRequest, queue: &VecDeque<Batch>) {
        for b in queue {
            assert_eq!(b.ncols(), req.attrs.len(), "{tag}: arity");
            for (i, &m) in req.materialize.iter().enumerate() {
                match b.column(i) {
                    Column::Typed(_) => assert!(m, "{tag}: position {i} was materialized"),
                    Column::Nulls(_) => assert!(!m, "{tag}: position {i} was not materialized"),
                }
            }
        }
    }

    #[test]
    fn cold_and_warm_batches_leave_the_one_former_typed_and_equal() {
        use nodb_engine::RExpr;
        use nodb_sqlparse::ast::BinOp;
        let (p, schema) = tmp_csv(4, 3000, 31);
        let filtered = ScanRequest {
            attrs: vec![0, 2],
            predicate: Some(RExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(500_000_000))),
            }),
            materialize: vec![true, false],
        };
        let count_star = ScanRequest::project(Vec::new());
        let mut expect: Option<Vec<Vec<Datum>>> = None;
        for base in [
            NoDbConfig::default(),
            NoDbConfig::pm_only(),
            NoDbConfig::baseline(),
        ] {
            for threads in [1usize, 4] {
                let cfg = NoDbConfig {
                    scan_threads: threads,
                    ..base
                };
                let tag = format!(
                    "cache {} stats {} threads {threads}",
                    cfg.enable_cache, cfg.enable_stats
                );
                let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
                let mut scan = |req: &ScanRequest| {
                    let (r, tel) =
                        try_scan_batches(&mut t, cfg, req.clone(), QueryCtx::unbounded());
                    (r.unwrap(), tel)
                };
                let (cold, tel_cold) = scan(&filtered);
                let (warm, tel_warm) = scan(&filtered);
                assert!(!tel_cold.fully_cached, "{tag}");
                assert_eq!(tel_warm.fully_cached, cfg.enable_cache, "{tag}");
                assert_typed(&format!("{tag} cold"), &filtered, &cold);
                assert_typed(&format!("{tag} warm"), &filtered, &warm);
                let rows = rows_of(&cold);
                assert!(!rows.is_empty() && rows.len() < 3000, "{tag}");
                assert!(rows.iter().all(|r| r[1] == Datum::Null), "{tag}");
                assert_eq!(rows, rows_of(&warm), "{tag}: cold ≡ warm, row for row");
                assert_eq!(expect.get_or_insert(rows.clone()), &rows, "{tag}");

                // `COUNT(*)`: zero attributes, cardinality only.
                for pass in ["cold", "warm"] {
                    let (q, _) = scan(&count_star);
                    assert_typed(&format!("{tag} count {pass}"), &count_star, &q);
                    assert_eq!(
                        q.iter().map(Batch::rows).sum::<usize>(),
                        3000,
                        "{tag} {pass}"
                    );
                }
            }
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn tombstones_and_quote_escapes_survive_the_typed_former() {
        use nodb_rawcsv::tokenizer::TokenizerConfig;
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawscan_typed_quoted_{}", std::process::id()));
        let mut content = String::new();
        for i in 0..1500 {
            let id = if i % 7 == 3 {
                "oops".to_string()
            } else {
                i.to_string()
            };
            content.push_str(&format!("{id},\"name, {i}\",\"say \"\"hi\"\" {i}\"\n"));
        }
        std::fs::write(&p, content).unwrap();
        let schema = nodb_rawcsv::Schema::new(vec![
            nodb_rawcsv::ColumnDef::new("id", nodb_rawcsv::ColumnType::Int),
            nodb_rawcsv::ColumnDef::new("name", nodb_rawcsv::ColumnType::Str),
            nodb_rawcsv::ColumnDef::new("quip", nodb_rawcsv::ColumnType::Str),
        ]);
        let tok = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let req = ScanRequest::project(vec![0, 1, 2]);
        for base in [NoDbConfig::default(), NoDbConfig::baseline()] {
            for threads in [1usize, 4] {
                let cfg = NoDbConfig {
                    scan_threads: threads,
                    parse_errors: ParseErrorPolicy::Permissive,
                    ..base
                };
                let tag = format!("cache {} threads {threads}", cfg.enable_cache);
                let mut t = RawTable::register_with_tokenizer(&p, schema.clone(), false, &cfg, tok)
                    .unwrap();
                for pass in ["cold", "warm"] {
                    let (r, tel) =
                        try_scan_batches(&mut t, cfg, req.clone(), QueryCtx::unbounded());
                    let queue = r.unwrap();
                    assert_typed(&format!("{tag} {pass}"), &req, &queue);
                    let rows = rows_of(&queue);
                    assert_eq!(rows.len(), 1500, "{tag} {pass}");
                    for (i, row) in rows.iter().enumerate() {
                        let id = if i % 7 == 3 {
                            Datum::Null
                        } else {
                            Datum::Int(i as i64)
                        };
                        assert_eq!(row[0], id, "{tag} {pass} row {i}");
                        assert_eq!(row[1], Datum::from(format!("name, {i}").as_str()));
                        assert_eq!(row[2], Datum::from(format!("say \"hi\" {i}").as_str()));
                    }
                    // A cached rerun reads no raw bytes, so it has nothing
                    // to quarantine: the tombstones come from the cache.
                    let fresh = pass == "cold" || !cfg.enable_cache;
                    assert_eq!(
                        tel.rows_quarantined,
                        if fresh { 214 } else { 0 },
                        "{tag} {pass}"
                    );
                }
            }
        }
        std::fs::remove_file(p).unwrap();
    }
}
