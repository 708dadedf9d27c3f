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
//!    no value is boxed as a `Datum` between the tokenizer and the engine.
//!    On a file's first scan, a column only the rest of the plan needs is
//!    converted only for the rows the predicate keeps (`survivors_only`);
//! 5. evaluates the pushed predicate *before* materializing the tuple
//!    (**selective tuple formation** — tuples "are only created after the
//!    select operator"): resolved values land in typed columns, and one
//!    function, `filter_segment`, runs the predicate over a segment of
//!    them as a columnar kernel, once per row — the same function whether
//!    the columns are a raw slice's fresh partials or the cache's own, so
//!    cold, warm and cached answers are equal by construction. A raw
//!    slice's batches (`segment_batch`) copy out only the surviving rows of
//!    the materialized positions; the cached rows' (`window_batch`) copy
//!    nothing and lend the engine the cache's columns in place;
//! 6. as side effects, populates the positional map, cache and statistics
//!    (§3.1–3.3) and the shared row index.
//!
//! Rows the cache covers for every requested attribute are neither read
//! from the file — the paper's "eliminating the need to access hot raw data
//! via caching" — nor copied: below the scan's **cache frontier** the
//! engine reads the cache's columns where they lie (`CachedStream`), and an
//! aggregate folds them on the scan's workers, each its own contiguous
//! range of cache windows, the partials merged in row order. Only the rows
//! after the frontier are read: none when the cache covers every known row
//! (a fully-cached scan), the appended ones after an append.
//!
//! # Threading model
//!
//! There is one scan path. Every scan splits the rows after its cache
//! frontier into line-aligned partition slices, runs them on
//! `NoDbConfig::scan_threads` workers
//! (`crate::worker`; `0` = auto-detect, `1` = one worker, same path) and
//! deterministically merges the partition-local partials in slice order, so
//! the post-scan state does not depend on the worker count.
//!
//! The slices come from the file and the row index alone, never from the
//! worker count: one function decides them (`plan_slices`), cutting each
//! half of the scan below into at most [`SCAN_SLICES`] slices, by one rule —
//! the shared **row index is the source of global row numbers**. The workers
//! only decide how many claim those slices, each taking the next one from a
//! single shared cursor in file order (`SliceQueue`).
//!
//! * **Rows the index holds** are cut into row ranges. Their workers know
//!   their global row base up front and can therefore use per-row cache
//!   reads and exact positional-map jumps. In a scan that builds no map
//!   chunk (a chunk needs every row's bytes), the rows below the cache
//!   frontier (`cache_frontier`: the first row some requested attribute
//!   lacks in the cache or has yet to sketch) are not run, and the range
//!   the frontier cuts starts at it.
//! * **The bytes after its last row**, up to the epoch fence, are cut at
//!   byte targets snapped forward to line boundaries
//!   ([`nodb_rawcsv::reader::partition_line_ranges_capped`]). Nothing is
//!   known about these rows — not even how many there are — so their
//!   workers resolve every value from raw bytes, tokenizing every row from
//!   its start in the batch fetch's one mask pass
//!   ([`nodb_rawcsv::reader::RangeScanner::fill_batch`]), and record the
//!   line starts that extend the index.
//!
//! A first-ever scan has no known rows; a warm scan (some earlier query
//! reached EOF, nothing appended since) has no tail; after an append, or
//! after a scan that stopped early, a scan has both, and reads only the
//! known rows past its frontier and the tail. A table that keeps no row index
//! (positional map off, quoted fields) is scanned from raw bytes every time
//! it is not fully cached; a partially cached column of such a table is not
//! consulted.
//!
//! Every scanner reads its blocks synchronously on its own thread through
//! the [`nodb_rawcsv::reader::BlockSource`] layer (the file-backed source,
//! wrapped by retry and, in chaos runs, fault injection); the time inside
//! `read` is reported as `IoCounters::stall`. A scan's thread count is
//! exactly its worker count, `min(scan_threads, slices)`.
//!
//! # Concurrent queries (lock staging)
//!
//! With the table registry (`crate::registry`), several queries may scan
//! the *same* table at once. A query that finds the file unchanged plans
//! and scans under one **read** guard; the write lock is taken only to
//! reconcile a file change or to install what a scan read from the file,
//! never for data access. `scan_shared` runs a scan in up to three phases:
//!
//! 1. **Prepare** (`prepare_scan`, read lock) — access planning (LRU
//!    touches, cache query tick) and coverage snapshots (cache coverage,
//!    statistics frontiers), captured into a `ScanPrep` together with the
//!    table's file-state generation, under the read guard the query
//!    planned with. The bookkeeping it writes — LRU clocks and stamps,
//!    access counts, hit tallies — is atomic, and a stamp only moves
//!    forward, so concurrent queries leave the stamps a serial replay in
//!    tick order leaves.
//! 2. **Execute** (the same read guard) — the engine pulls one lazy source,
//!    `CachedStream`. The rows below the cache frontier come as batches
//!    that borrow one `BATCH_SIZE`-row window of the cache's columns each,
//!    the predicate kernel's selection attached; an aggregate folds them on
//!    `min(threads, windows)` workers, one contiguous range of windows each
//!    (the calling thread the first, scoped threads the rest, as
//!    `run_partitions` runs its workers: safe Rust cannot lend the
//!    guard-borrowed columns to a parked pool), or on one thread when its
//!    admission found the scan budget shared or it adds floats. Once the
//!    engine pulls past them, `run_partitions` plans the slices after the
//!    frontier from the row index as it stands, its workers borrow the
//!    map/cache/schema immutably and stage everything in partition-local
//!    partials, statistics sketches included, and their batches follow in
//!    slice order. No writer can land between prepare and execute, so the
//!    `ScanPrep` is exact for the data read. Any number of queries can be
//!    in this phase at once. While the guard is held nothing takes a table
//!    lock again — a recursive read would deadlock behind a queued writer.
//! 3. **Install** (`merge_outputs`, write lock; only when the engine pulled
//!    past the frontier) — once the engine has returned, the source epoch
//!    is re-validated (`revalidate_epoch`), the read guard is released, and
//!    the staged partials are installed under a short write lock, once.
//!    The merge is *frontier-based* and therefore idempotent under
//!    interleaving: the row index skips known rows, chunk installs go
//!    through subsumption, cache admission resumes at the cache's *current*
//!    coverage, and statistics observe only rows beyond each attribute's
//!    observation frontier. Merging the same full-scan output after another
//!    query already merged its own is a no-op, which is what makes N
//!    concurrent queries end in the same state as a sequential replay.
//!
//! The only window in which the table can change under a prepared scan is
//! between releasing the read guard and taking the install's write lock.
//! Other queries' installs and evictions there only move the frontiers the
//! merge resumes at. A file change there is caught by the **install
//! fence**: when another query reconciled an append or quarantined a
//! rewrite, the table's generation is no longer `prep.generation`, and the
//! scan installs nothing. It publishes its telemetry and answers from what
//! it read — the prepared generation's cache columns, and raw bytes that
//! passed `revalidate_epoch` — one epoch's answer, linearized at its scan.
//!
//! # Merge invariants
//!
//! Workers never touch shared mutable state; each returns partition-local
//! partials that the driver merges **in partition order**, which makes the
//! post-scan state byte-identical for every worker count and claim order,
//! and equal to a naive one-pass model (property-tested in
//! `tests/property_based.rs`):
//!
//! * *Row index* — the tail slices' line-start lists are replayed in order
//!   ([`nodb_posmap::RowIndex::note_rows`]); offsets are absolute, so
//!   rebasing is concatenation.
//! * *Positional map* — per-partition `ChunkBuilder`s hold line-relative
//!   offsets keyed by local row; `ChunkBuilder::append_partial` rebases by
//!   concatenating in partition order, then the usual install path
//!   (subsumption, LRU, budget) runs once on the merged chunk.
//! * *Cache admission* — workers buffer one value per row per requested
//!   attribute as typed partial columns, and the merge hands them — but
//!   for the survivors-only ones, whose rejected rows hold placeholders —
//!   to the cache one slice at a time, in slice order
//!   (`RawCache::append_slice`, the cache's only admission path). One rule
//!   decides each column: the slice's tail from the cache's coverage at
//!   that moment goes in whole — moved as typed segments, after LRU
//!   room-making for its exact footprint — or not at all. A refused tail
//!   evicts nothing and leaves the column behind every later slice's first
//!   row, so it is skipped for the rest of the scan. The slices come from
//!   the file and the row index, never from the worker count, so the
//!   columns end at the same slice boundary at every worker count and
//!   claim order.
//! * *Statistics* — split by whether the state depends on row order. The
//!   order-independent part — the min/max bounds — is built by the
//!   workers, in parallel: each sketches its slice's partial columns from
//!   the attribute's plan-time observation frontier on (a byte slice, whose
//!   rows are unknown, sketches all of them; a survivors-only column is not
//!   sketched) into a `ColumnSketch`. The install absorbs the sketches
//!   slice by slice in row order
//!   (`TableStats::absorb`): it merges the bounds — idempotent, so rows a
//!   sketch covers below the install-time frontier change nothing — and
//!   counts rows and NULLs from the frontier by null-mask popcounts,
//!   reading no value. Accumulators are per
//!   attribute, so this equals an attribute-interleaved row replay at
//!   every worker count.
//! * *Results* — every slice forms its batches with `segment_batch` over
//!   at most `BATCH_SIZE` scanned rows each, in row order; they follow the
//!   cached rows' batches in slice order, no reordering anywhere
//!   downstream.
//! * *Telemetry* — `Breakdown` and `IoCounters` are summed; cache hit/miss
//!   tallies travel with the scan (not as global metric diffs), so
//!   concurrent queries never misattribute each other's reads. The cached
//!   stream's ranges and the install each add their rows, hits and time,
//!   so every row counts once at every worker count.
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
//! bookkeeping (`row_count`, `mark_complete`) withheld, since the file was
//! not fully visited. Statistics observation frontiers *are* advanced over
//! the merged prefix so a re-run never double-observes. A stop among the
//! cached rows leaves the rows after the frontier unread, and nothing is
//! installed. The query itself still fails with [`EngineError::Cancelled`]
//! / [`EngineError::DeadlineExceeded`]; the next identical query starts from
//! the warmer map/cache/statistics state the aborted one left behind — the
//! paper's "queries as advisors" principle applied to failure paths.
//!
//! ## LIMIT: stop once enough rows survive
//!
//! A bare `LIMIT n` (`ScanRequest::limit`, pushed only when no aggregate
//! and no `ORDER BY` sits above the scan) answers with the first `n` rows
//! that pass the predicate, in file order — a prefix, and every scan
//! already delivers its rows in file order. So the scan stops reading once
//! it has that prefix; pushdown changes how much is read, never what is
//! returned:
//!
//! * The **cached rows stream lazily**, so they end when the engine stops
//!   pulling: after the batch that brings the engine's rows to `n` (before
//!   the first one for `LIMIT 0`). Their hit tally, `rows_scanned` and
//!   `stopped_early` count only the windows streamed — as they do when the
//!   query fails or is cancelled mid-stream. A LIMIT they satisfy reads no
//!   raw byte.
//! * The rows after the frontier are read with the limit less the cached
//!   rows' survivors, and **their workers claim slices in ascending slice
//!   order** from one shared cursor, so the slices in flight are the lowest
//!   unclaimed ones and the answer's prefix fills first. Each completed
//!   slice publishes its survivor count; `k` is the first slice at which
//!   the completed contiguous prefix reaches the limit, and once `k` is
//!   known no slice past it is claimed. No slice is cut short, and slicing
//!   is unchanged: under a LIMIT the frontier is a slice boundary, so `k`
//!   is the slice a read of every row would stop at.
//! * The **install merges exactly slices `0..=k`** through the partial-prefix
//!   merge above: slices past `k` that completed anyway are dropped
//!   unmerged, and the end-of-scan bookkeeping is withheld unless `0..=k` is
//!   every slice. The query succeeds; `ScanTelemetry::stopped_early` records
//!   that it read a prefix.
//!
//! Over a table whose row count is already known (some earlier scan
//! reached EOF), a satisfied LIMIT installs its prefix into the row index
//! and the statistics only — no map chunk, no cache column. Under a budget
//! a prefix of a column fits into room a whole one never could, and a
//! later full scan has to evict it again: a LIMIT is a poor advisor of
//! which whole columns to keep. A table's first scans, whose extent is
//! unknown, install everything they convert whole.
//!
//! The installed state is **timing-independent**. The slices are a function
//! of the file and the table state (`plan_slices`), a slice's survivor
//! count a function of its rows, and so `k` is one too: however the workers
//! interleave, however many slices past `k` were in flight, at any thread
//! count and whatever a `ScanBudget` grants, the same slices `0..=k` are
//! merged. Two tables answering the same bare LIMIT from the same state end
//! identical.

#![doc = " lint:cancellable — every scan/batch loop in this module must poll the"]
#![doc = " query context (`ctx.check()`) or drive an interrupt-flagged `BlockSource`;"]
#![doc = " enforced by `nodb-lint` (see crates/lint/README.md)."]

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use nodb_engine::batch::{Batch, ColView, Column, BATCH_SIZE};
use nodb_engine::{AggPartial, EngineError, EngineResult, ScanRequest, ScanSource};
use nodb_posmap::{AccessPlan, AttrSource, ChunkBuilder};
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::reader::{partition_line_ranges_capped, LineRange};
use nodb_rawcsv::{IoCounters, RawCsvError};
use parking_lot::RwLockReadGuard;

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
    /// Rows with at least one malformed cell tombstoned under
    /// [`ParseErrorPolicy::Permissive`](crate::ParseErrorPolicy::Permissive)
    /// (always 0 under strict).
    pub rows_quarantined: u64,
    /// Capped per-row detail of the quarantined rows (first
    /// [`QuarantineSample::MAX_SAMPLES`] in row order).
    pub quarantine_samples: Vec<QuarantineSample>,
    /// The scan ended before EOF and read or merged only a prefix of the
    /// table: it was stopped (cancellation or deadline; the query fails), or
    /// its bare `LIMIT` was satisfied by a prefix of the rows (the query
    /// succeeds — a raw scan merged slices `0..=k`, a cached stream
    /// streamed only the batches the limit needed).
    pub stopped_early: bool,
    /// Source-epoch invalidations this query observed: how many times the
    /// backing file was found truncated/rewritten (at planning, mid-scan,
    /// or at the post-scan re-validation) and the adaptive state was
    /// quarantined for a cold retry. 0 on the happy path.
    pub source_changed: u64,
    /// Time spent inside a scan's lazy source while the engine pulled from
    /// it: the pushed predicate over the cache windows below the cache
    /// frontier, and the partitions after it. It elapses inside the
    /// engine's call; the facade charges it out of the engine's slice, so
    /// the partitions' time lands in their phase slices and the rest stays
    /// in `processing` with the scan work no phase slice covers. An
    /// aggregate folded on several workers adds each worker's stream time:
    /// summed thread time, as the phase slices of a parallel raw scan are.
    pub stream: Duration,
    /// Summed wall time of the helper threads a cached stream's aggregate
    /// folded its later ranges on (zero when the calling thread folded
    /// alone). Their streaming is part of `stream`; the facade
    /// charges the rest to the engine, beside the calling thread's own.
    pub fold_helpers: Duration,
    /// Time the calling thread of such a fold waited for its helpers after
    /// folding its own range: inside the engine's call, but no engine
    /// work, so the facade leaves it in `processing`.
    pub fold_wait: Duration,
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
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared handle to the telemetry a scan publishes when it finishes.
///
/// `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`: scan workers require every
/// scan-adjacent type to be `Send`, and the facade keeps its clone across
/// the engine call. The lock is touched once per query.
pub type TelemetryHandle = Arc<Mutex<ScanTelemetry>>;

/// The pushed predicate over rows `[lo, lo + rows)` of one typed column
/// per requested attribute: the selection of the rows that pass, `None`
/// without a predicate. The kernels (`engine::expr::RExpr::filter_columnar`)
/// run over the *borrowed* columns — one typed, branch-free loop per
/// (column type, constant type), with no per-cell `Datum` and a
/// row-at-a-time fallback inside for unsupported expression shapes. `lo` is
/// every view's `base`, so they read the values and NULL-bitmap words of
/// backing rows `[lo, lo + rows)`, which need not start on a 64-row bitmap
/// word. Every selection starts here — a raw slice's in the batch resolver
/// (`worker::resolve_batch`, once per fetched batch), the cached rows' per
/// window (`window_batch`) — so raw and cached rows select the same rows
/// by construction.
pub(crate) fn filter_segment(
    req: &ScanRequest,
    cols: &[&TypedColumn],
    lo: usize,
    rows: usize,
) -> Option<Vec<u32>> {
    req.predicate.as_ref().map(|p| {
        let views: Vec<ColView> = cols.iter().map(|&col| ColView { col, base: lo }).collect();
        p.filter_columnar(&views, rows)
    })
}

/// A raw scan's batch former: rows `[lo, hi)` of one typed column per
/// requested attribute become one owned result batch. `sel` is the
/// [`filter_segment`] selection of those rows (relative to `lo`; `None`
/// without a predicate), computed once by the batch resolver over a raw
/// slice's fresh partials (`worker::run_partition`), whose survivors-only
/// columns hold placeholders in the rows it rejected. The batch outlives
/// the slice's partials, so it copies, and only for materialized
/// positions (late materialization):
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
    mut sel: Option<Vec<u32>>,
) -> Batch<'static> {
    let rows = hi.saturating_sub(lo);
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

/// The cached rows' batch former: rows `[lo, hi)` of the cache's
/// own columns become one batch that **borrows** them — each materialized
/// position a [`Column::Window`] of its cache column, each predicate-only
/// one [`Column::Nulls`] — with [`filter_segment`]'s selection attached.
/// Nothing is copied, however many or few rows pass: the engine's kernels
/// read the window through the selection. A zero-attribute (`COUNT(*)`)
/// stream yields [`Batch::rows_only`].
fn window_batch<'c>(
    req: &ScanRequest,
    cols: &[&'c TypedColumn],
    lo: usize,
    hi: usize,
) -> Batch<'c> {
    let rows = hi - lo;
    let sel = filter_segment(req, cols, lo, rows);
    if cols.is_empty() {
        return Batch::rows_only(sel.map_or(rows, |s| s.len()));
    }
    let columns = cols
        .iter()
        .enumerate()
        .map(
            |(i, &col)| match req.materialize.get(i).copied().unwrap_or(true) {
                true => Column::Window {
                    col,
                    base: lo,
                    len: rows,
                },
                false => Column::Nulls(rows),
            },
        )
        .collect();
    Batch::from_parts(columns, sel)
}

/// Everything a scan decides up front, captured under the read lock its
/// data phase runs under. Tied to the table's file-state `generation`: the
/// install fence installs nothing into a different generation.
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
    /// Per requested position: convert it only for the rows the pushed
    /// predicate keeps (see [`survivors_only`]). Such a column is never
    /// sketched (its `stats_from` is `u64::MAX`), absorbed or cached.
    pub survivors_only: Vec<bool>,
    /// LRU tick from `RawCache::begin_query` protecting this query's columns.
    pub query_tick: u64,
    /// Every requested attribute is cached for every row of a table whose
    /// row count is known: the scan opens no file.
    pub fully_cached: bool,
    /// The cache frontier: rows `[0, frontier)` stream from the cache's
    /// columns in place ([`CachedStream`]), and [`run_partitions`] reads
    /// only the rows after them. The row count when `fully_cached`, else
    /// [`cache_frontier`]'s row (0: the scan reads every row).
    pub frontier: usize,
    /// Resolved worker count: how many workers claim the slices, never how
    /// many slices there are.
    pub threads: usize,
    /// The access plan resolves at least one attribute through a chunk
    /// (exact or anchor). Workers only receive the map when this holds, so
    /// an assist-free scan plans no per-row map reads.
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

/// Which requested positions a scan converts only for the rows its pushed
/// predicate keeps — selective parsing taken down to the row. A position
/// is *survivors-only* when the query has a pushed predicate that does not
/// read it and the engine needs its values (`materialize`), on a file's
/// first scan: no scan has installed anything into the table yet
/// ([`RawTable::untouched`]) and the query has no deadline. Such a scan
/// caches its predicate columns alone; every later scan converts whole
/// columns, which the cache and the statistics take, so a rerun after a
/// stopped scan or a satisfied `LIMIT`, and every scan after an append,
/// extends whole columns as before. A query under a deadline converts
/// whole columns from the start: if it stops, the prefix it merged is
/// what its rerun resumes from, and that rerun reads only the file's
/// unknown tail.
fn survivors_only(table: &RawTable, req: &ScanRequest, ctx: &QueryCtx) -> Vec<bool> {
    let mut read = Vec::new();
    match &req.predicate {
        Some(p) if table.untouched() && !ctx.has_deadline() => p.columns(&mut read),
        _ => return vec![false; req.attrs.len()],
    }
    (0..req.attrs.len())
        .map(|i| !read.contains(&i) && req.materialize.get(i).copied().unwrap_or(true))
        .collect()
}

/// Phase 1 of a scan: access planning and coverage snapshots, run under the
/// table's read lock. Access planning advances the map's and the cache's
/// LRU clocks, which are atomic, so it needs no exclusive borrow. Also
/// publishes the `fully_cached` flag to the telemetry.
fn prepare_scan(
    table: &RawTable,
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
    let survivors_only = survivors_only(table, &req, &ctx);
    let stats_from: Vec<u64> = req
        .attrs
        .iter()
        .zip(&survivors_only)
        .map(|(&a, &partial)| {
            let from = table.stats.observed_upto(a);
            let done = table.row_count.is_some_and(|rc| from >= rc);
            if !config.enable_stats || done || partial {
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

    let (fully_cached, frontier) = match table.row_count {
        Some(rc) if config.enable_cache && cache_cov.iter().all(|&c| c as u64 >= rc) => {
            (true, rc as usize)
        }
        _ if config.enable_cache && plan.is_some() && !build_chunk => (
            false,
            cache_frontier(table, &cache_cov, &stats_from, req.limit),
        ),
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
        survivors_only,
        query_tick,
        fully_cached,
        frontier,
        threads: config.effective_scan_threads(),
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

/// How many slices `plan_slices` cuts each half of a raw scan into — the
/// rows the row index holds, and the unknown tail behind them. A constant:
/// the slices, and so what a stopped or LIMIT-satisfied scan installs, are a
/// function of the file and the table state, never of the worker count.
pub const SCAN_SLICES: usize = 64;

/// The cache frontier of a scan that builds no map chunk: the first known
/// row that some requested attribute lacks in the cache (`cache_cov`) or
/// still has to sketch (`stats_from`), so streaming the rows below it from
/// the cache leaves the statistics as reading them would. The slice of
/// [`plan_slices`]' grid that the frontier cuts starts at it: the cache
/// admits a slice's tail past each column's coverage, and the statistics
/// sketch it past their own frontier, so the install is the whole slice's.
/// Under a bare LIMIT the frontier is the last grid boundary at or below
/// that row instead: the LIMIT counts survivors a slice at a time, so it
/// stops at, and installs, the slices a scan without a frontier would.
fn cache_frontier(
    table: &RawTable,
    cache_cov: &[usize],
    stats_from: &[u64],
    limit: Option<u64>,
) -> usize {
    let known = table.map.row_index().len();
    let sketched = stats_from
        .iter()
        .map(|&s| usize::try_from(s).unwrap_or(usize::MAX));
    let upto = cache_cov
        .iter()
        .copied()
        .chain(sketched)
        .min()
        .unwrap_or(known);
    let parts = SCAN_SLICES.min(known).max(1);
    match limit {
        None => upto.min(known),
        Some(_) => (0..=parts)
            .rev()
            .map(|k| known * k / parts)
            .find(|&b| b <= upto)
            .unwrap_or(0),
    }
}

/// The one place a raw scan's slices are decided, from one rule: **the row
/// index is the source of global row numbers.**
///
/// * Rows the index holds become *row-range* slices with `row_base` filled
///   in, so their workers may read the cache per row and jump through map
///   chunks. The rows below the cache frontier (`prep.frontier`) are left
///   out: the scan streams them from the cache.
/// * The bytes after the last row it holds, up to the epoch fence, become
///   *byte-range* slices ([`partition_line_ranges_capped`] from an offset
///   inside that row): nothing is known about them, so their workers resolve
///   everything from raw bytes and record the line starts they find.
///
/// A first-ever scan has an empty prefix, a warm scan (index complete) an
/// empty tail that is not even probed, and after an append or a scan that
/// stopped early both halves exist. A table that keeps no row index
/// (positional map off, quoted fields) is all tail on every scan. Each half
/// is cut into up to [`SCAN_SLICES`] slices, whatever the worker count.
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
        partition_line_ranges_capped(&prep.path, SCAN_SLICES, from, fence)?
    };
    // The known rows end where the tail begins; with no tail they run to the
    // fence (the worker clamps), so an appender can never leak rows of the
    // next epoch into this scan.
    let prefix_end = tail.first().map_or(u64::MAX, |r| r.start);

    let known = starts.len();
    let parts = SCAN_SLICES.min(known);
    let mut slices = Vec::with_capacity(parts + tail.len());
    for k in 0..parts {
        let (lo, hi) = (known * k / parts, known * (k + 1) / parts);
        if hi <= prep.frontier {
            continue;
        }
        let lo = lo.max(prep.frontier);
        slices.push(Partition {
            range: LineRange {
                start: starts[lo],
                // A row the index does not hold starts the tail.
                end: starts.get(hi).copied().unwrap_or(prefix_end),
            },
            skip_header: false, // data-row offsets already skip it
            row_base: Some(lo),
        });
    }
    slices.extend(tail.into_iter().map(|range| Partition {
        range,
        skip_header: prep.has_header && range.start == 0,
        row_base: None,
    }));
    Ok(slices)
}

/// What [`run_partitions`] hands back.
pub(crate) struct ScanOutcome {
    /// Completed partition partials — all of them on success, the
    /// contiguous completed prefix when `stopped` is set, slices `0..=k`
    /// when `limit_met` is.
    pub outputs: Vec<PartitionOutput>,
    /// The scan's LIMIT was satisfied by a proper prefix of its slices
    /// (slices `0..=k`, see [`SliceQueue`]): the slices behind it were not
    /// read, or were read and dropped, so the file was not fully visited.
    pub limit_met: bool,
    /// Wall time of [`plan_slices`] (it probes the raw file for the tail's
    /// cut points), reported in the breakdown's I/O slice.
    pub planning: Duration,
    /// The cancellation/deadline error that stopped the scan, when one did.
    pub stopped: Option<EngineError>,
}

/// How a raw scan's workers claim its slices: every worker takes the next
/// one from one shared cursor, so slices are claimed in ascending order and
/// each is handed out exactly once, whatever the interleaving. (Each slice
/// opens its own reader, so a worker gains nothing from owning a run of
/// adjacent slices.)
///
/// Under a LIMIT each completed slice publishes its survivor count
/// ([`Self::complete`]); once the completed *contiguous* prefix holds
/// `limit` survivors — first at slice `k` — [`Self::keep`] is `k + 1` and no
/// slice at or past it is claimed. `k` depends only on the survivor counts
/// of slices `0..=k`, a function of the file and the table state, never on
/// which worker finished first.
struct SliceQueue {
    /// The next unclaimed slice.
    cursor: AtomicUsize,
    slices: usize,
    /// The LIMIT, as a row count (`None`: read every slice).
    limit: Option<usize>,
    /// Slices the answer needs: `k + 1` once known, `usize::MAX` before (0
    /// for `LIMIT 0`, which needs none).
    keep: AtomicUsize,
    /// Per slice, its survivors once completed; the completed contiguous
    /// prefix's length and survivors.
    progress: Mutex<(Vec<Option<usize>>, usize, usize)>,
}

impl SliceQueue {
    fn new(slices: usize, limit: Option<u64>) -> Self {
        let limit = limit.map(|n| usize::try_from(n).unwrap_or(usize::MAX));
        SliceQueue {
            cursor: AtomicUsize::new(0),
            slices,
            limit,
            keep: AtomicUsize::new(if limit == Some(0) { 0 } else { usize::MAX }),
            progress: Mutex::new((vec![None; slices], 0, 0)),
        }
    }

    /// Claim the next slice: `None` when no slice is left or the LIMIT needs
    /// none of those left.
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.slices.min(self.keep())).then_some(i)
    }

    /// Slices `0..keep()` make a LIMIT's answer (`usize::MAX` until the
    /// limit is met, and always without one).
    fn keep(&self) -> usize {
        self.keep.load(Ordering::Acquire)
    }

    /// Publish that slice `idx` completed with `survivors` rows passing the
    /// predicate, and extend the completed prefix as far as it now reaches.
    fn complete(&self, idx: usize, survivors: usize) {
        let Some(limit) = self.limit else {
            return;
        };
        let mut guard = lock_recover(&self.progress);
        let (done, prefix, total) = &mut *guard;
        done[idx] = Some(survivors);
        while self.keep() == usize::MAX {
            let Some(&Some(s)) = done.get(*prefix) else {
                break;
            };
            *prefix += 1;
            *total += s;
            if *total >= limit {
                self.keep.store(*prefix, Ordering::Release);
            }
        }
    }
}

/// Phase 2 of a raw scan: decide the slices ([`plan_slices`]) and run them
/// on `min(prep.threads, slices)` workers — the calling thread and the rest
/// as scoped threads, so never more than [`SCAN_SLICES`] per half of the
/// scan — over shared borrows of the table, collecting the partials in slice
/// order. Needs only `&RawTable`, so concurrent queries run this phase under
/// the table's read lock.
///
/// Every worker claims the next slice from one shared cursor
/// ([`SliceQueue`]), in ascending slice order, so the slices in flight are
/// always the lowest unclaimed ones. Which worker executes a slice never
/// affects the output — partials are merged in slice order — so every
/// claim interleaving produces the byte-identical post-scan state the merge
/// invariants promise.
///
/// With a LIMIT (`limit`: the pushed one, less the rows a cached stream
/// already yielded) each completed slice publishes its survivor count to
/// the queue; once slices `0..=k` hold the limit, nothing
/// past `k` is claimed, slices past `k` that completed anyway are dropped
/// unmerged, and the outcome is marked [`ScanOutcome::limit_met`] unless `k`
/// is the last slice. No slice is cut short: the answer and the installed
/// state are whole slices `0..=k`.
///
/// A worker error aborts the scan; the error reported is the
/// lowest-numbered slice's, its slice-local row rebased to the global row
/// number using the frontier and the preceding slices' row counts. Under a
/// LIMIT only slices `0..=k` count: an error in a slice the answer does not
/// need is not reported.
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
    limit: Option<u64>,
) -> EngineResult<ScanOutcome> {
    let clock = PhaseClock::new(config.detailed_timing);
    let mut planning = Duration::ZERO;
    let t = clock.start();
    let partitions = plan_slices(table, prep)?;
    clock.lap(t, &mut planning);
    // Workers may address per-row adaptive state wherever a slice knows its
    // global rows: the cache always, the map only when the plan actually
    // resolves something through a chunk (an assist-free plan would just
    // cost per-row planning for nothing).
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
        survivors_only: &prep.survivors_only,
        build_chunk: prep.build_chunk,
        collect_offsets: prep.plan.is_some(),
        source_len: prep.source_len(),
    };

    let workers = prep.threads.min(partitions.len()).max(1);
    let slots: Vec<Mutex<Option<EngineResult<PartitionOutput>>>> =
        partitions.iter().map(|_| Mutex::new(None)).collect();
    let queue = SliceQueue::new(partitions.len(), limit);
    // Errors park in the slice's slot; a worker keeps draining so every
    // lower-numbered slice completes and the driver can report the
    // lowest-slice error with an exact row rebase.
    let drain = || {
        while let Some(idx) = queue.claim() {
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
            if let Ok(o) = &r {
                queue.complete(idx, o.batches.iter().map(Batch::rows).sum());
            }
            *lock_recover(&slots[idx]) = Some(r);
        }
    };
    // The calling thread is worker 0: a scan keeps exactly `workers`
    // threads runnable and a one-worker scan spawns none. A caller that only
    // waited would leave the scheduler `workers` fresh threads to place
    // around the CPU it is about to vacate, and how long two of them share
    // one CPU while another idles differs from scan to scan.
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(drain)).collect();
        drain();
        for h in handles {
            // A panicked worker leaves its claimed slice's slot empty; the
            // collection loop below reports it.
            let _ = h.join();
        }
    });

    // Slices past a satisfied LIMIT's `k` are dropped, completed or not.
    let keep = queue.keep().min(slots.len());
    let limit_met = keep < slots.len();
    let collected: Vec<EngineResult<PartitionOutput>> = slots
        .into_iter()
        .take(keep)
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
                    limit_met: false,
                    planning,
                    stopped: Some(e),
                });
            }
            Err(e) => {
                // Abort without merging any side effects. Workers number the
                // rows they report slice-locally: the preceding slices' row
                // counts make it the true file row.
                let base: usize = prep.frontier + results.iter().map(|o| o.rows).sum::<usize>();
                return Err(rebase_row_error(e, base as u64));
            }
        }
    }
    Ok(ScanOutcome {
        outputs: results,
        limit_met,
        planning,
        stopped: None,
    })
}

/// Phase 3 of a raw scan: install the per-partition partials into the
/// table's adaptive structures, in slice order, under exclusive access to
/// the table, and publish the scan telemetry. Its duration is the scan's
/// [`Breakdown::install`] — the time a cold scan keeps every other query
/// off the table.
///
/// Behind the **install fence**: when the table's generation moved past
/// `prep.generation` since the data phase (another query reconciled an
/// append or quarantined a rewrite), the staged state describes an older
/// epoch, so nothing is installed — the telemetry is still published, a
/// stopped scan still fails with its stop error, and the query answers
/// from what it read.
///
/// Row index and map chunk are rebased by concatenation. Cache and
/// statistics receive each slice's typed partial columns whole: the
/// statistics absorb the slice's worker-built sketch (bounds merged, rows
/// and NULLs counted by popcount — `TableStats::absorb`), then the cache takes ownership and admits each column's tail whole or
/// not at all — see the module docs on cache admission. Nothing here walks
/// the values.
///
/// Every sub-merge is **frontier-based** so interleaved queries converge to
/// the sequential-replay state: the row index skips known rows, the chunk
/// install goes through subsumption, each cache column resumes at its
/// *current* coverage, and statistics observe only rows at or beyond each
/// attribute's observation frontier. When nothing else merged between this
/// scan's prepare and its merge, the frontiers equal the plan-time
/// snapshots.
///
/// Two kinds of scan end before EOF, and both install a **prefix** of
/// slices through this same merge:
///
/// * a *stopped* scan (`outcome.stopped`: cancellation / deadline) hands
///   back the contiguous completed prefix of its partitions;
/// * a *satisfied* scan (`outcome.limit_met`: a bare `LIMIT n` whose
///   slices `0..=k` hold `n` survivors) hands back exactly slices `0..=k`,
///   whatever else completed — so what it installs depends on the file and
///   the table state, never on timing or the thread count.
///
/// Every frontier-based sub-merge runs over the prefix (a satisfied one
/// over a table of known row count skips the chunk and the cache — see the
/// module docs on LIMIT), but the end-of-scan bookkeeping (`row_count`,
/// `mark_complete`) is withheld — the file was not fully visited, so those
/// totals are unknown. Statistics observation frontiers
/// are still advanced over the merged prefix, so a re-run never
/// double-observes. The next query starts from the warmer map/cache/
/// statistics state — the rows merged here are its known prefix, and it
/// reads only the bytes behind them. A stopped query then fails with its
/// stop error; a satisfied one succeeds.
fn merge_outputs(
    table: &mut RawTable,
    config: &NoDbConfig,
    prep: &ScanPrep,
    outcome: &mut ScanOutcome,
    telemetry: &TelemetryHandle,
) -> EngineResult<()> {
    let results = &mut outcome.outputs;
    let stopped = outcome.stopped.take();
    let complete = stopped.is_none() && !outcome.limit_met;
    let clock = PhaseClock::new(config.detailed_timing);
    let mut bd = Breakdown {
        io: outcome.planning,
        ..Breakdown::default()
    };
    let t = clock.start();
    // The slices start at the frontier: the rows below it install nothing.
    let bases: Vec<usize> = results
        .iter()
        .scan(prep.frontier, |acc, o| {
            let b = *acc;
            *acc += o.rows;
            Some(b)
        })
        .collect();
    let total = prep.frontier + results.iter().map(|o| o.rows).sum::<usize>();

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
    if table.generation == prep.generation {
        // A satisfied LIMIT over a table whose extent is already known
        // starts no map chunk and no cache column: a prefix of one would
        // only fill budget room that whole ones, built by full scans, must
        // win back — see the module docs on LIMIT.
        let structures = !(outcome.limit_met && table.row_count.is_some());
        if prep.plan.is_some() {
            for (p, o) in results.iter().enumerate() {
                table
                    .map
                    .row_index_mut()
                    .note_rows(bases[p], &o.line_starts);
            }
        }

        // Only a scan without a cache frontier builds a chunk.
        if prep.build_chunk && structures {
            let mut merged = ChunkBuilder::with_capacity(prep.req.attrs.clone(), total);
            for o in results.iter_mut() {
                if let Some(wb) = o.builder.take() {
                    merged.append_partial(wb);
                }
            }
            installed = table.map.install(merged).is_some();
        }

        // Cache and statistics: each slice's typed partials go in slice
        // order — statistics first (they read the sketches and the null
        // masks, no value), then the cache takes the columns, each tail
        // whole or not at all. Both start at their own current frontier
        // per attribute. Sketches exist only with statistics on: one per
        // attribute with rows to observe at plan time, so a survivors-only
        // column, which has none, leaves its statistics as they were.
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
        }
        if config.enable_cache && structures {
            // A survivors-only partial holds placeholders in the rows the
            // predicate rejected: it is never offered.
            let attrs: Vec<usize> = prep
                .req
                .attrs
                .iter()
                .zip(&prep.survivors_only)
                .filter_map(|(&a, &partial)| (!partial).then_some(a))
                .collect();
            for (o, &base) in results.iter_mut().zip(&bases) {
                let cols = std::mem::take(&mut o.side_cols)
                    .into_iter()
                    .zip(&prep.survivors_only)
                    .filter_map(|(col, &partial)| (!partial).then_some(col))
                    .collect();
                table
                    .cache
                    .append_slice(&attrs, cols, base, total, prep.query_tick);
            }
        }

        // End-of-scan bookkeeping — withheld on a partial merge, where
        // `total` is a prefix, not the file.
        if complete {
            table.row_count = Some(total as u64);
            if prep.plan.is_some() {
                table.map.row_index_mut().mark_complete();
            }
        }
    }

    clock.lap(t, &mut bd.install);
    bd.nodb += bd.install;

    // Added, not assigned: the rows below the frontier added their own.
    let mut tel = lock_recover(telemetry);
    tel.io.merge(io);
    tel.rows_scanned += (total - prep.frontier) as u64;
    tel.installed_chunk = installed;
    tel.breakdown.merge(&bd);
    tel.cache_hits += worker_hits;
    tel.cache_misses += worker_misses;
    tel.rows_quarantined += quarantined;
    tel.quarantine_samples = quarantine_samples;
    tel.stopped_early |= !complete;

    stopped.map_or(Ok(()), Err)
}

/// What a scan's read past its cache frontier staged for the install, or
/// its error; `None` while the engine has not pulled past the frontier.
type Staged = Mutex<Option<EngineResult<ScanOutcome>>>;

/// Run one scan of `req` against a shared table handle, starting from the
/// read guard the caller planned under, and hand its source to `run` (the
/// engine); returns what `run` returns, or the scan's own error.
///
/// The scan prepares under the guard (no writer can land in between, so
/// the prep is exact for the data) and runs `run` **under that guard** over
/// a [`CachedStream`]. Once `run` has returned, the guard is released and
/// what the stream's read past the cache frontier staged is installed
/// under a short write lock behind the install fence, its acquisition
/// added to `lock_wait`; a scan that read nothing past the frontier never
/// asks for the write lock. The cached rows' aggregate folds on one thread
/// when `shared` — its admission found the scan budget shared with other
/// queries ([`crate::ScanGrant::shared`]), so its helpers would only take
/// their CPUs — and on the scan's workers otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_shared<T>(
    handle: &TableHandle,
    table: RwLockReadGuard<'_, RawTable>,
    config: &NoDbConfig,
    req: ScanRequest,
    telemetry: &TelemetryHandle,
    ctx: QueryCtx,
    shared: bool,
    lock_wait: &mut Duration,
    run: impl for<'s> FnOnce(Box<dyn ScanSource<'s> + 's>) -> T,
) -> EngineResult<T> {
    let prep = prepare_scan(&table, config, req, telemetry, ctx);
    let staged = Staged::default();
    let answer = run(Box::new(CachedStream::new(
        &table, config, &prep, telemetry, shared, &staged,
    )?));
    let Some(outcome) = staged.into_inner().unwrap_or_else(PoisonError::into_inner) else {
        return Ok(answer);
    };
    let mut outcome = outcome?;
    // Re-validate the epoch before *any* merge — including a stopped
    // scan's partial-prefix merge — so a file rewritten while the workers
    // streamed it never installs poisoned map/cache/stats partials.
    revalidate_epoch(&prep)?;
    drop(table);
    let mut table = timed(lock_wait, || handle.write());
    merge_outputs(&mut table, config, &prep, &mut outcome, telemetry)?;
    Ok(answer)
}

/// A scan as the engine sees it: a lazy [`ScanSource`] over rows `[lo, hi)`
/// of the cache's own columns — the rows below the cache frontier, borrowed
/// under the read guard the query planned with — and then the rows after
/// it. Each pull of the cached rows checks the query context once per
/// `BATCH_SIZE`-row window ([`window_batch`]) and skips windows no row of
/// which passes. Once they run out, [`run_partitions`] reads the rows after
/// the frontier under the same guard, with the LIMIT less the survivors
/// streamed, and leaves what it staged in `staged` for the install; its
/// batches follow in row order. The engine stopping first — a satisfied
/// LIMIT, an error — leaves them unread. It reports no size hint: the
/// table's row count would only over-reserve under a selective predicate.
///
/// An aggregate over it runs on `threads` workers
/// ([`ScanSource::aggregate`]): the stream cuts its cached windows into one
/// contiguous range per worker, folds each into a partial of its own,
/// merges the partials in row order, and then absorbs the rows after the
/// frontier.
///
/// The columns are resident by construction — the guard is held from
/// prepare to the last pull, so nothing can evict them — and a missing one
/// is an internal error, never a panic. When a stream is dropped it adds
/// what it actually streamed to the telemetry (see the `Drop` impl).
struct CachedStream<'s> {
    table: &'s RawTable,
    config: &'s NoDbConfig,
    prep: &'s ScanPrep,
    /// How many workers an order-free aggregate folds on.
    threads: usize,
    cols: Vec<&'s TypedColumn>,
    telemetry: &'s TelemetryHandle,
    /// The cached rows this stream covers: `[lo, hi)`.
    lo: usize,
    hi: usize,
    /// The first row not streamed yet: every window before it was formed,
    /// passing rows or not.
    next: usize,
    /// Time spent in [`ScanSource::next_batch`].
    time: Duration,
    /// Where the read of the rows after the frontier stages its outcome:
    /// `None` in the ranges a parallel fold cuts off, which never read them.
    staged: Option<&'s Staged>,
    /// The pushed LIMIT less the survivors streamed so far.
    limit: Option<u64>,
    /// The batches of the rows after the frontier, once read.
    rest: VecDeque<Batch<'static>>,
}

impl<'s> CachedStream<'s> {
    fn new(
        table: &'s RawTable,
        config: &'s NoDbConfig,
        prep: &'s ScanPrep,
        telemetry: &'s TelemetryHandle,
        shared: bool,
        staged: &'s Staged,
    ) -> EngineResult<Self> {
        let total = prep.frontier;
        // A known-empty table is vacuously fully cached: there is nothing to
        // stream, and no column need be resident to say so.
        let cols = match total {
            0 => Vec::new(),
            _ => prep
                .req
                .attrs
                .iter()
                .map(|&a| table.cache.column(a).filter(|c| c.len() >= total))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    EngineError::Execution("the cache frontier found a cache column missing".into())
                })?,
        };
        Ok(CachedStream {
            table,
            config,
            prep,
            threads: if shared { 1 } else { prep.threads },
            cols,
            telemetry,
            lo: 0,
            hi: total,
            next: 0,
            time: Duration::ZERO,
            staged: Some(staged),
            limit: prep.req.limit,
            rest: VecDeque::new(),
        })
    }

    /// Cut the cached rows this stream has yet to stream into `n`
    /// contiguous ranges of whole windows, as even as windows allow, in row
    /// order. This stream keeps only the rows after the frontier.
    fn split(&mut self, n: usize) -> Vec<CachedStream<'s>> {
        let (from, windows) = (self.next, (self.hi - self.next).div_ceil(BATCH_SIZE));
        let cut = |i: usize| self.hi.min(from + windows * i / n * BATCH_SIZE);
        let ranges = (0..n)
            .map(|i| CachedStream {
                threads: 1,
                cols: self.cols.clone(),
                lo: cut(i),
                hi: cut(i + 1),
                next: cut(i),
                time: Duration::ZERO,
                staged: None,
                limit: None,
                rest: VecDeque::new(),
                ..*self
            })
            .collect();
        self.hi = self.next;
        ranges
    }

    /// The next window with a passing row, or `None` at the end.
    fn next_window(&mut self) -> EngineResult<Option<Batch<'s>>> {
        while self.next < self.hi {
            // Cancellation granularity: one check per window; a pure cache
            // read mutates nothing, so stopping here needs no partial merge.
            self.prep.ctx.check()?;
            let lo = self.next;
            self.next = self.hi.min(lo + BATCH_SIZE);
            let batch = window_batch(&self.prep.req, &self.cols, lo, self.next);
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    /// The staging slot of rows after the frontier that are yet to be read.
    fn unread(&self) -> Option<&'s Staged> {
        self.staged
            .filter(|s| !self.prep.fully_cached && lock_recover(s).is_none())
    }

    /// Read the rows after the frontier, stage the outcome, and hand back
    /// their batches — or the error the engine stops with: a stopped read's
    /// stop error, or a copy of a failed read's, whose own reaches the
    /// caller through `staged`.
    fn read(&self, staged: &Staged) -> EngineResult<VecDeque<Batch<'static>>> {
        let (batches, outcome) =
            match run_partitions(self.table, self.config, self.prep, self.limit) {
                Ok(o) if o.stopped.is_some() => (Err(self.prep.ctx.stop_error()), Ok(o)),
                Ok(mut o) => {
                    let batches = o
                        .outputs
                        .iter_mut()
                        .flat_map(|o| std::mem::take(&mut o.batches));
                    (Ok(batches.collect()), Ok(o))
                }
                Err(e) => (Err(EngineError::Execution(e.to_string())), Err(e)),
            };
        *lock_recover(staged) = Some(outcome);
        batches
    }
}

impl<'s> ScanSource<'s> for CachedStream<'s> {
    fn next_batch(&mut self) -> EngineResult<Option<Batch<'s>>> {
        let t = Instant::now();
        let batch = self.next_window();
        self.time += t.elapsed();
        if let Some(batch) = batch? {
            self.limit = self.limit.map(|n| n.saturating_sub(batch.rows() as u64));
            return Ok(Some(batch));
        }
        if let Some(staged) = self.unread() {
            let t = Instant::now();
            let read = self.read(staged);
            self.time += t.elapsed();
            self.rest = read?;
        }
        Ok(self.rest.pop_front())
    }

    /// Fold the cached rows on `min(threads, windows)` workers, one
    /// contiguous range of windows each ([`Self::split`]), when the
    /// aggregation is order-free — no SUM or AVG adds floats — and on this
    /// thread alone otherwise; then the rows after the frontier, on this
    /// thread. The calling thread is worker 0 and folds the first range,
    /// the others run as scoped threads, exactly as [`run_partitions`]'
    /// workers do. The partials merge in row order, so the answer is the
    /// serial fold's; a failing range reports its first failure, and the
    /// lowest failing range's is the one reported, as the serial fold would
    /// have met it first. A cancel or deadline stops every worker at its
    /// next window.
    fn aggregate(&mut self, partial: &mut AggPartial<'_>) -> EngineResult<()> {
        let windows = (self.hi - self.next).div_ceil(BATCH_SIZE);
        let workers = self.threads.min(windows);
        let int_column = |c: usize| matches!(self.cols.get(c), Some(TypedColumn::Int { .. }));
        if workers < 2 || !partial.order_free(int_column) {
            return partial.absorb_source(self);
        }
        let spec = partial.spec();
        let mut ranges = self.split(workers);
        let mut head = ranges.remove(0);
        let (first, later, helpers, wait) = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|mut range| {
                    s.spawn(move || {
                        let t = Instant::now();
                        let mut part = AggPartial::new(spec);
                        let r = part.absorb_source(&mut range).map(|()| part);
                        (r, t.elapsed())
                    })
                })
                .collect();
            let first = partial.absorb_source(&mut head);
            let joining = Instant::now();
            let mut helpers = Duration::ZERO;
            let later: Vec<EngineResult<AggPartial<'_>>> = handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| match h.join() {
                    Ok((r, time)) => {
                        helpers += time;
                        r
                    }
                    Err(payload) => Err(EngineError::WorkerPanic {
                        partition: i + 1,
                        message: panic_message(payload),
                    }),
                })
                .collect();
            (first, later, helpers, joining.elapsed())
        });
        let mut tel = lock_recover(self.telemetry);
        tel.fold_helpers += helpers;
        tel.fold_wait += wait;
        drop(tel);
        first?;
        later.into_iter().try_for_each(|p| partial.merge(p?))?;
        partial.absorb_source(self)
    }
}

impl Drop for CachedStream<'_> {
    /// Add what this stream actually streamed to the telemetry — whether
    /// the engine drained it, stopped pulling at a LIMIT, or failed: one hit
    /// per requested attribute per streamed cached row, those rows, and the
    /// stream's time. The ranges of one query add up, so the telemetry
    /// counts each row once and its stream time is the workers' summed
    /// thread time. The hit tally is atomic and the generation cannot move
    /// while the guard is held, so it needs no write lock.
    fn drop(&mut self) {
        let rows = (self.next - self.lo) as u64;
        let hits = rows * self.prep.req.attrs.len() as u64;
        self.table.cache.record_reads(hits, 0);
        let stopped = self.next < self.hi || self.unread().is_some();
        let mut tel = lock_recover(self.telemetry);
        tel.rows_scanned += rows;
        tel.cache_hits += hits;
        tel.stopped_early |= stopped;
        tel.stream += self.time;
    }
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

    /// A batch column's storage class.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Class {
        Owned,
        Window,
        Nulls,
    }

    /// What the engine received of one batch: its logical rows, and each
    /// column's storage class.
    struct Seen {
        rows: Vec<Vec<Datum>>,
        classes: Vec<Class>,
    }

    /// Pull every batch of `source`, as the engine would.
    fn drain(mut source: Box<dyn ScanSource<'_> + '_>) -> EngineResult<Vec<Seen>> {
        let mut seen = Vec::new();
        while let Some(b) = source.next_batch()? {
            let classes = (0..b.ncols())
                .map(|c| match b.column(c) {
                    Column::Typed(_) => Class::Owned,
                    Column::Window { .. } => Class::Window,
                    Column::Nulls(_) => Class::Nulls,
                })
                .collect();
            let rows = (0..b.rows()).map(|r| b.row(r)).collect();
            seen.push(Seen { rows, classes });
        }
        Ok(seen)
    }

    /// One query through the production stages — `prepare_scan`, a scan
    /// stream, and the fenced install of what it read past its cache
    /// frontier — over an exclusive borrow in place of `scan_shared`'s lock
    /// hand-offs, surfacing the scan error instead of unwrapping. Drains the
    /// source as the engine would.
    fn try_scan_batches(
        table: &mut RawTable,
        config: NoDbConfig,
        req: ScanRequest,
        ctx: QueryCtx,
    ) -> (EngineResult<Vec<Seen>>, ScanTelemetry) {
        let tel: TelemetryHandle = Arc::new(Mutex::new(ScanTelemetry::default()));
        let prep = prepare_scan(table, &config, req, &tel, ctx);
        let staged = Staged::default();
        let seen = CachedStream::new(table, &config, &prep, &tel, false, &staged)
            .and_then(|s| drain(Box::new(s)));
        let r = match staged.into_inner().unwrap() {
            Some(outcome) => outcome.and_then(|mut outcome| {
                revalidate_epoch(&prep)?;
                merge_outputs(table, &config, &prep, &mut outcome, &tel)?;
                seen
            }),
            None => seen,
        };
        let t = Arc::try_unwrap(tel).unwrap().into_inner().unwrap();
        (r, t)
    }

    fn rows_of(seen: &[Seen]) -> Vec<Vec<Datum>> {
        seen.iter().flat_map(|b| b.rows.iter().cloned()).collect()
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
            limit: None,
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
        // Second scan uses exact jumps: parsing time present. Its
        // tokenizing slice is the newline pass alone (no row asks for a
        // field: `worker::tests::map_jumps_and_anchors_shape_the_batch_plans`).
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
        let (_, _) = scan_once(&mut t, cfg, req);
        assert_eq!(t.stats.attr(2).unwrap().rows_seen(), seen1);
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
    /// statistics (every accumulator's state, observation frontier).
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
                    a.cache.column(attr).and_then(|c| c.datum(row)),
                    b.cache.column(attr).and_then(|c| c.datum(row)),
                    "{tag}: cache c{attr} row {row}"
                );
            }
            match (a.stats.attr(attr), b.stats.attr(attr)) {
                (None, None) => {}
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.rows_seen(), sb.rows_seen(), "{tag}: stats rows c{attr}");
                    assert_eq!(
                        format!("{:?}", sa.export_state()),
                        format!("{:?}", sb.export_state()),
                        "{tag}: stats state c{attr}"
                    );
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

    /// Phase laps are exact, once per batch: on a cold scan the
    /// tokenizing, convert and nodb slices are each measured, and the
    /// workers' phases sum to no more than the workers' wall time (the
    /// scan's wall time times its worker count).
    #[test]
    fn cold_scan_phases_fit_in_the_workers_wall_time() {
        let (p, schema) = tmp_csv(6, 20_000, 71);
        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            };
            let table = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            let tel: TelemetryHandle = Arc::new(Mutex::new(ScanTelemetry::default()));
            let ctx = QueryCtx::from_timeout_ms(cfg.query_timeout_ms);
            let prep = prepare_scan(&table, &cfg, ScanRequest::project(vec![1, 4]), &tel, ctx);
            let start = std::time::Instant::now();
            let outcome = run_partitions(&table, &cfg, &prep, None).unwrap();
            let wall = start.elapsed() * threads as u32;
            let mut phases = Breakdown::default();
            for o in &outcome.outputs {
                phases.merge(&o.breakdown);
            }
            assert!(phases.tokenizing > Duration::ZERO, "threads {threads}");
            assert!(phases.convert > Duration::ZERO, "threads {threads}");
            assert!(phases.nodb > Duration::ZERO, "threads {threads}");
            let sum = phases.tokenizing + phases.convert + phases.nodb;
            assert!(sum <= wall, "threads {threads}: {sum:?} > {wall:?}");
        }
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
        let (prep, mut outcome) = {
            let guard = handle.read();
            let prep = prepare_scan(&guard, &cfg, req.clone(), &tel, ctx);
            assert!(!prep.fully_cached, "a cold scan stages partitions");
            let outcome = run_partitions(&guard, &cfg, &prep, None).unwrap();
            (prep, outcome)
        };
        GeneratorConfig::uniform_ints(4, 300, 61)
            .append_rows(&p, 50)
            .unwrap();
        handle.write().check_updates().unwrap();
        assert_eq!(handle.read().generation, prep.generation + 1);
        merge_outputs(&mut handle.write(), &cfg, &prep, &mut outcome, &tel).unwrap();

        let rows: Vec<Vec<Datum>> = outcome
            .outputs
            .iter()
            .flat_map(|o| &o.batches)
            .flat_map(|b| (0..b.rows()).map(|r| b.row(r)))
            .collect();
        assert_eq!(rows, before, "answers its read");
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
            let slices = SCAN_SLICES as u64;
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
            limit: None,
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
        // chunks and cache for the prefix. The next scan streams the cached
        // prefix — every known row, counted once — and reads only the bytes
        // behind it, at any worker count, and must match the one-worker
        // scan.
        use nodb_rawcsv::GeneratorConfig;
        let gen = GeneratorConfig::uniform_ints(5, 5000, 33);
        let req = ScanRequest::project(vec![1, 3]);
        let mut one_worker: Option<(RawTable, Vec<Vec<Datum>>)> = None;
        for threads in [1usize, 4, 8] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                io_block_size: 4096,
                ..NoDbConfig::default()
            };
            let mut p = std::env::temp_dir();
            p.push(format!(
                "nodb_rawscan_append_{threads}_{}",
                std::process::id()
            ));
            gen.generate_file(&p).unwrap();
            let mut t = RawTable::register(&p, gen.schema(), false, &cfg).unwrap();
            scan_once(&mut t, cfg, req.clone());
            let old_len = std::fs::metadata(&p).unwrap().len();
            gen.append_rows(&p, 120).unwrap();
            let tail_bytes = std::fs::metadata(&p).unwrap().len() - old_len;
            t.check_updates().unwrap();
            let (rows, tel) = scan_once(&mut t, cfg, req.clone());
            let tag = format!("threads {threads}");
            assert_eq!(rows.len(), 5120, "{tag}");
            assert_eq!(tel.rows_scanned, 5120, "{tag}: every row once");
            assert_eq!(tel.cache_hits, 2 * 5000, "{tag}: known prefix from cache");
            assert_eq!(
                tel.cache_misses,
                2 * 120,
                "{tag}: appended rows from raw bytes"
            );
            // Each tail slice reads at most its bytes plus two page-sized
            // steps; nothing re-reads the prefix to learn row numbers.
            let slack = SCAN_SLICES as u64 * 2 * 4096;
            assert!(
                tel.io.bytes_read <= tail_bytes + slack && tel.io.bytes_read < old_len / 2,
                "{tag}: read {} bytes for a {tail_bytes}-byte tail behind {old_len} known bytes",
                tel.io.bytes_read
            );
            assert_eq!(t.row_count, Some(5120), "{tag}");
            assert!(t.map.row_index().is_complete(), "{tag}");
            for attr in [1usize, 3] {
                assert_eq!(t.cache.coverage(attr), 5120, "{tag}");
            }
            std::fs::remove_file(p).unwrap();
            match &one_worker {
                None => one_worker = Some((t, rows)),
                Some((one, expect)) => {
                    assert_eq!(&rows, expect, "{tag}: post-append scans must agree");
                    assert_eq!(one.map.row_index().starts(), t.map.row_index().starts());
                    assert_same_state(&tag, one, &t, 5);
                }
            }
        }
    }

    #[test]
    fn skewed_line_widths_keep_every_row_in_order() {
        // A file whose first half has enormous lines and second half tiny
        // ones: equal-byte slices then hold wildly different row counts.
        // The scan must still return every row, in order, at any thread
        // count.
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
    fn partially_cached_scan_counts_a_hit_or_a_miss_per_value() {
        // With the cache on, each requested value of each scanned row is
        // served by the cache (a hit) or parsed from raw bytes (a miss).
        for threads in [1usize, 4] {
            let (p, schema) = tmp_csv(4, 200, 9);
            let cfg = NoDbConfig {
                scan_threads: threads,
                cache_budget_bytes: 1600,
                ..NoDbConfig::default()
            };
            let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
            let req = ScanRequest::project(vec![1, 2]);
            scan_once(&mut t, cfg, req.clone());
            let cached: usize = [1, 2].iter().map(|&a| t.cache.coverage(a)).sum();
            assert!(
                cached > 0 && cached < 2 * 200,
                "partial coverage, got {cached}"
            );
            let (rows, tel) = scan_once(&mut t, cfg, req);
            assert_eq!(rows.len(), 200);
            assert!(!tel.fully_cached);
            assert_eq!(tel.cache_hits, cached as u64, "threads {threads}");
            assert_eq!(
                tel.cache_hits + tel.cache_misses,
                200 * 2,
                "threads {threads}"
            );
            std::fs::remove_file(p).unwrap();
        }
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
        // `EIO`, and every slice opens its own injector, so each of the
        // `SCAN_SLICES` (64) slices sleeps one 40 ms retry backoff: slice `k`
        // cannot finish before `40 (k + 1)` ms, and a cancel at 100 ms lands
        // inside slice 1 or 2 — after slice 0, 2.4 s before the last one.
        let (p, schema) = tmp_csv(3, 5000, 23);
        let cfg = NoDbConfig {
            scan_threads: 1,
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

    /// The claim order and the `k` a LIMIT settles on: every worker claims
    /// from one cursor in ascending slice order, with or without a LIMIT,
    /// and `keep` becomes `k + 1` only once the completed *contiguous*
    /// prefix holds the limit, in whatever order the slices complete.
    #[test]
    fn limit_claims_in_slice_order_and_keeps_the_first_satisfying_prefix() {
        let q = SliceQueue::new(16, Some(10));
        let claims: Vec<usize> = (0..5).map(|_| q.claim().unwrap()).collect();
        assert_eq!(claims, [0, 1, 2, 3, 4]);
        q.complete(1, 5);
        assert_eq!(q.keep(), usize::MAX, "slice 0 still running");
        q.complete(3, 100);
        q.complete(0, 4);
        assert_eq!(q.keep(), usize::MAX, "slices 0..=1 hold 9 of 10");
        q.complete(2, 1);
        assert_eq!(q.keep(), 3, "slices 0..=2 hold 10: k = 2");
        q.complete(4, 7);
        assert_eq!(q.keep(), 3, "k never moves");
        assert_eq!(q.claim(), None, "nothing past k is claimed");

        // LIMIT 0 needs no slice; a limit no prefix meets keeps them all.
        assert_eq!(SliceQueue::new(16, Some(0)).claim(), None);
        let q = SliceQueue::new(3, Some(u64::MAX));
        for i in 0..3 {
            assert_eq!(q.claim(), Some(i));
            q.complete(i, 1_000);
        }
        assert_eq!((q.claim(), q.keep()), (None, usize::MAX));

        // No LIMIT: the same ascending claims, every slice once.
        let q = SliceQueue::new(4, None);
        let order: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        q.complete(2, 1_000);
        assert_eq!((q.claim(), q.keep()), (None, usize::MAX));
    }

    /// Rows of `path` (headerless, comma-separated ints) whose attribute 1 is
    /// below `cut`, per slice of a cold scan: each slice's end row and the
    /// survivors up to it.
    fn survivors_per_slice(path: &PathBuf, cut: i64) -> Vec<(usize, usize)> {
        let bytes = std::fs::read(path).unwrap();
        let ranges = nodb_rawcsv::reader::partition_line_ranges(path, SCAN_SLICES).unwrap();
        let (mut out, mut row, mut survivors, mut at) = (Vec::new(), 0, 0, 0usize);
        for r in ranges {
            for line in bytes[at..r.end as usize].split_inclusive(|&b| b == b'\n') {
                let c1: i64 = std::str::from_utf8(line)
                    .unwrap()
                    .split(',')
                    .nth(1)
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap();
                row += 1;
                survivors += usize::from(c1 < cut);
            }
            at = r.end as usize;
            out.push((row, survivors));
        }
        out
    }

    /// A cold bare-LIMIT scan installs exactly slices `0..=k`, `k` the first
    /// slice whose prefix holds `n` survivors: the row index, the chunk, the
    /// predicate column's cache coverage and every statistics frontier it
    /// moves all end at slice `k`'s last row — the projection-only columns,
    /// converted for the survivors alone on this first scan, are neither
    /// cached nor sketched — the answer is every survivor of those slices (a
    /// prefix of the unlimited answer), and the table ends in the state the
    /// one-worker scan leaves at every thread count — the slices do not
    /// depend on it. A limit only the whole file meets is an ordinary
    /// complete scan. The same query run again finds the table touched: it
    /// converts whole columns over the slices it needs — cut from the known
    /// rows, so they may end before slice `k` — and caches and sketches
    /// them, and a third run serves those slices from the cache without
    /// opening the file.
    #[test]
    fn cold_bare_limit_installs_exactly_the_satisfying_slices() {
        use nodb_engine::RExpr;
        use nodb_sqlparse::ast::BinOp;
        const ROWS: u64 = 20_000;
        const CUT: i64 = 300_000_000;
        let (p, schema) = tmp_csv(4, ROWS, 71);
        let req = |limit: Option<u64>| ScanRequest {
            attrs: vec![0, 1, 2],
            predicate: Some(RExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(CUT))),
            }),
            materialize: vec![true, false, true],
            limit,
        };
        let fresh = |cfg: &NoDbConfig| RawTable::register(&p, schema.clone(), false, cfg).unwrap();
        let base = NoDbConfig::default();
        let (unlimited, _) = scan_once(&mut fresh(&base), base, req(None));
        let slices = survivors_per_slice(&p, CUT);
        let all = slices.last().unwrap().1;
        assert_eq!(all, unlimited.len());
        for n in [1, slices[2].1, slices[2].1 + 1, all, all + 1] {
            let k = slices.iter().position(|&(_, s)| s >= n);
            let (end, kept) = k.map_or((ROWS as usize, all), |k| slices[k]);
            let whole = k.is_none_or(|k| k + 1 == slices.len());
            let mut one_worker: Option<RawTable> = None;
            for threads in [1usize, 2, 4, 8] {
                let tag = format!("threads {threads} LIMIT {n}");
                let cfg = NoDbConfig {
                    scan_threads: threads,
                    ..NoDbConfig::default()
                };
                let mut t = fresh(&cfg);
                let (rows, tel) = scan_once(&mut t, cfg, req(Some(n as u64)));
                assert_eq!(rows.len(), kept, "{tag}: every survivor of 0..=k");
                assert_eq!(rows[..], unlimited[..kept], "{tag}: a prefix of the answer");
                assert_eq!(tel.rows_scanned, end as u64, "{tag}");
                assert_eq!(tel.stopped_early, !whole, "{tag}");
                assert_eq!(t.row_count, whole.then_some(ROWS), "{tag}");
                assert_eq!(t.map.row_index().is_complete(), whole, "{tag}");
                assert_eq!(t.map.row_index().len(), end, "{tag}: row index");
                for attr in 0..3 {
                    let whole = if attr == 1 { end } else { 0 };
                    assert_eq!(t.map.coverage(attr), end, "{tag}: chunk c{attr}");
                    assert_eq!(t.cache.coverage(attr), whole, "{tag}: cache c{attr}");
                    assert_eq!(
                        t.stats.observed_upto(attr),
                        whole as u64,
                        "{tag}: stats c{attr}"
                    );
                }
                match &one_worker {
                    None => one_worker = Some(t),
                    Some(one) => assert_same_state(&tag, one, &t, 4),
                }
                if whole || threads == 2 {
                    continue;
                }
                // The rerun cuts the known rows into row-range slices of
                // its own, so it may stop at an earlier row than `end`.
                let mut t = fresh(&cfg);
                scan_once(&mut t, cfg, req(Some(n as u64)));
                let (second, tel) = scan_once(&mut t, cfg, req(Some(n as u64)));
                let again = tel.rows_scanned as usize;
                assert!(second.len() >= n && again <= end, "{tag}: rerun");
                assert_eq!(second[..], unlimited[..second.len()], "{tag}: rerun");
                for attr in 0..3 {
                    let whole = if attr == 1 { end } else { again };
                    assert_eq!(t.cache.coverage(attr), whole, "{tag}: rerun cache c{attr}");
                    assert_eq!(
                        t.stats.observed_upto(attr),
                        whole as u64,
                        "{tag}: rerun stats c{attr}"
                    );
                }
                let (third, tel) = scan_once(&mut t, cfg, req(Some(n as u64)));
                assert_eq!(third, second, "{tag}: third run");
                assert_eq!(tel.io.bytes_read, 0, "{tag}: third run reads the cache");
            }
        }
        std::fs::remove_file(p).unwrap();
    }

    /// Over a table whose row count is known, a satisfied LIMIT reads its
    /// prefix but starts no cache column and no map chunk; the statistics
    /// still observe the prefix, and the table keeps its row count. (A table
    /// of unknown extent installs everything: see the cold test above.)
    #[test]
    fn bare_limit_over_a_known_table_starts_no_cache_column_or_chunk() {
        let (p, schema) = tmp_csv(4, 8_000, 73);
        for threads in [1usize, 4] {
            let cfg = NoDbConfig {
                scan_threads: threads,
                ..NoDbConfig::default()
            };
            let mut t = RawTable::register(&p, schema.clone(), false, &cfg).unwrap();
            let (_, _) = scan_once(&mut t, cfg, ScanRequest::project(vec![0]));
            assert_eq!(t.row_count, Some(8_000));
            let chunks = t.map.chunks().len();
            let req = ScanRequest {
                limit: Some(10),
                ..ScanRequest::project(vec![1, 2])
            };
            let (rows, tel) = scan_once(&mut t, cfg, req);
            let end = tel.rows_scanned;
            assert!(tel.stopped_early && !tel.fully_cached, "threads {threads}");
            assert!((10..8_000).contains(&end), "threads {threads}: read {end}");
            assert_eq!(rows.len() as u64, end, "threads {threads}");
            assert_eq!(t.row_count, Some(8_000));
            assert_eq!(t.map.chunks().len(), chunks, "threads {threads}: no chunk");
            for attr in [1, 2] {
                assert_eq!(t.cache.coverage(attr), 0, "threads {threads}: c{attr}");
                assert_eq!(t.map.coverage(attr), 0, "threads {threads}: c{attr}");
                assert_eq!(t.stats.observed_upto(attr), end, "threads {threads}");
            }
        }
        std::fs::remove_file(p).unwrap();
    }

    /// A fully-cached aggregate folds on the scan's workers, and on the
    /// calling thread alone when its admission found the scan budget shared
    /// with other queries (`shared`): the answer and the streamed rows are the same
    /// either way, and only the unshared fold spends helper-thread time.
    #[test]
    fn a_shared_admission_folds_on_one_thread() {
        use nodb_engine::{execute, plan_select};
        let rows = 5 * BATCH_SIZE as u64 + 9;
        let (p, schema) = tmp_csv(3, rows, 67);
        let cfg = NoDbConfig {
            scan_threads: 4,
            ..NoDbConfig::default()
        };
        let handle: TableHandle = Arc::new(parking_lot::RwLock::new(
            RawTable::register(&p, schema.clone(), false, &cfg).unwrap(),
        ));
        scan_once(
            &mut handle.write(),
            cfg,
            ScanRequest::project(vec![0, 1, 2]),
        );
        let sql = "SELECT COUNT(*), SUM(c1), MAX(c2) FROM t WHERE c0 < 500000000";
        let stmt = nodb_sqlparse::parse_select(sql).unwrap();
        let planned = plan_select(&stmt, &schema, &nodb_stats::estimate::NoStats).unwrap();
        let run = |shared: bool| {
            let tel: TelemetryHandle = Arc::new(Mutex::new(ScanTelemetry::default()));
            let mut lock_wait = Duration::ZERO;
            let r = scan_shared(
                &handle,
                handle.read(),
                &cfg,
                planned.scan.clone(),
                &tel,
                QueryCtx::unbounded(),
                shared,
                &mut lock_wait,
                |source| execute(&planned, source),
            )
            .unwrap()
            .unwrap();
            let t = lock_recover(&tel);
            assert!(t.fully_cached, "shared {shared}");
            (r, t.rows_scanned, t.fold_helpers)
        };
        let (alone, shared) = (run(false), run(true));
        assert!(alone.2 > Duration::ZERO, "helpers fold the later ranges");
        assert_eq!(shared.2, Duration::ZERO, "no helper beside other queries");
        assert_eq!((&alone.0, alone.1), (&shared.0, rows));
        assert_eq!(shared.1, rows);
        std::fs::remove_file(p).unwrap();
    }

    /// A warm, fully-cached bare LIMIT streams only the windows the engine
    /// pulls — it stops pulling once it holds `n` rows — and its hit tally
    /// counts only the rows it streamed: one hit per requested attribute
    /// per row, in the telemetry and in the cache's own metrics alike.
    #[test]
    fn warm_bare_limit_streams_and_tallies_only_what_it_needs() {
        use nodb_engine::RExpr;
        use nodb_sqlparse::ast::BinOp;
        let (p, schema) = tmp_csv(3, 5_000, 72);
        let req = |limit: Option<u64>| ScanRequest {
            attrs: vec![0, 2],
            predicate: Some(RExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(RExpr::Col(1)),
                right: Box::new(RExpr::Const(Datum::Int(500_000_000))),
            }),
            materialize: vec![true, false],
            limit,
        };
        let cfg = NoDbConfig::default();
        let mut t = RawTable::register(&p, schema, false, &cfg).unwrap();
        // A first complete scan, so the next one converts and caches whole
        // columns.
        scan_once(&mut t, cfg, ScanRequest::project(Vec::new()));
        let (all, _) = scan_once(&mut t, cfg, req(None));
        assert_eq!(t.row_count, Some(5_000));
        for (n, streamed) in [
            (0u64, 0u64),
            (1, BATCH_SIZE as u64),
            (all.len() as u64, 5_000),
            (u64::MAX, 5_000),
        ] {
            let before = t.cache.metrics().hits;
            let tel: TelemetryHandle = Arc::default();
            let prep = prepare_scan(&t, &cfg, req(Some(n)), &tel, QueryCtx::unbounded());
            let staged = Staged::default();
            let mut stream = CachedStream::new(&t, &cfg, &prep, &tel, false, &staged).unwrap();
            let mut rows = Vec::new();
            while (rows.len() as u64) < n {
                let Some(b) = stream.next_batch().unwrap() else {
                    break;
                };
                rows.extend((0..b.rows()).map(|r| b.row(r)));
            }
            drop(stream);
            let tel = Arc::try_unwrap(tel).unwrap().into_inner().unwrap();
            let tag = format!("LIMIT {n}");
            assert!(tel.fully_cached, "{tag}");
            assert_eq!(tel.rows_scanned, streamed, "{tag}");
            assert_eq!(tel.stopped_early, streamed < 5_000, "{tag}");
            assert_eq!(tel.cache_hits, streamed * 2, "{tag}");
            assert_eq!(t.cache.metrics().hits - before, streamed * 2, "{tag}");
            assert!(rows.len() as u64 >= n.min(all.len() as u64), "{tag}");
            assert_eq!(rows[..], all[..rows.len()], "{tag}: a prefix of the answer");
        }
        std::fs::remove_file(p).unwrap();
    }

    /// Assert that `seen` is what the batch formers produce for `req`:
    /// typed storage at materialized positions — borrowed cache windows
    /// when the scan was fully cached (`borrowed`), owned copies otherwise
    /// — and `Column::Nulls` at predicate-only ones; column-less batches
    /// for a zero-attribute request.
    fn assert_typed(tag: &str, req: &ScanRequest, seen: &[Seen], borrowed: bool) {
        let typed = if borrowed {
            Class::Window
        } else {
            Class::Owned
        };
        for b in seen {
            assert_eq!(b.classes.len(), req.attrs.len(), "{tag}: arity");
            for (i, &m) in req.materialize.iter().enumerate() {
                let want = if m { typed } else { Class::Nulls };
                assert_eq!(b.classes[i], want, "{tag}: position {i}");
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
            limit: None,
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
                // The first scan converts position 0 for the survivors
                // alone, the second converts it whole, and the third reads
                // the cache.
                let (first, tel_first) = scan(&filtered);
                let (cold, tel_cold) = scan(&filtered);
                let (warm, tel_warm) = scan(&filtered);
                assert!(!tel_first.fully_cached && !tel_cold.fully_cached, "{tag}");
                assert_eq!(tel_warm.fully_cached, cfg.enable_cache, "{tag}");
                assert_typed(&format!("{tag} first"), &filtered, &first, false);
                assert_typed(&format!("{tag} cold"), &filtered, &cold, false);
                let warm_cached = tel_warm.fully_cached;
                assert_typed(&format!("{tag} warm"), &filtered, &warm, warm_cached);
                let rows = rows_of(&cold);
                assert!(!rows.is_empty() && rows.len() < 3000, "{tag}");
                assert!(rows.iter().all(|r| r[1] == Datum::Null), "{tag}");
                assert_eq!(rows, rows_of(&first), "{tag}: first ≡ cold, row for row");
                assert_eq!(rows, rows_of(&warm), "{tag}: cold ≡ warm, row for row");
                assert_eq!(expect.get_or_insert(rows.clone()), &rows, "{tag}");

                // `COUNT(*)`: zero attributes, cardinality only.
                for pass in ["cold", "warm"] {
                    let (q, tel) = scan(&count_star);
                    let borrowed = tel.fully_cached;
                    assert_typed(&format!("{tag} count {pass}"), &count_star, &q, borrowed);
                    let rows: usize = q.iter().map(|b| b.rows.len()).sum();
                    assert_eq!(rows, 3000, "{tag} {pass}");
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
                    let seen = r.unwrap();
                    assert_typed(&format!("{tag} {pass}"), &req, &seen, tel.fully_cached);
                    let rows = rows_of(&seen);
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
