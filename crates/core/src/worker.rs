//! The per-partition scan worker of the raw scan.
//!
//! One worker owns one slice of the file — a [`LineRange`] that either
//! covers rows the row index holds (`Partition::row_base` is set: the worker
//! may copy rows out of the cache and jump through map chunks) or bytes
//! nobody has numbered yet (everything comes from the raw bytes, and the
//! line starts found are handed back) — and everything it needs to process
//! it without synchronization: its own [`RangeScanner`] (reading
//! synchronously on this thread), a reusable [`RowBatch`], a partial
//! positional-map [`ChunkBuilder`], typed partial columns ([`TypedColumn`]
//! per requested attribute, one value per row) and per-phase timing, lapped
//! once per batch.
//!
//! The worker runs a batch at a time. One [`RangeScanner::fill_batch`]
//! finds up to `BATCH_SIZE` lines and the spans of the fields each row
//! needs in one mask pass over the window (a row whose values the cache or
//! exact map jumps provide asks for none; one the map anchors starts at the
//! anchor). The batch resolver then fills each partial a column at a time:
//! a range copied out of a cache column, exact jumps, the batch's spans,
//! and one typed loop (`TypedColumn::extend_parsed`) that parses them — so
//! no value is ever boxed on its way from the tokenizer to the engine.
//!
//! Conversion follows the predicate. The resolver converts every position
//! the pushed predicate may read first, runs the predicate once over the
//! batch (`rawscan::filter_segment`), and only then converts the
//! *survivors-only* positions (`rawscan::survivors_only`: on a file's
//! first scan, the projection-only columns) for the rows it keeps; a
//! rejected row holds a NULL placeholder there that nothing reads. The map
//! chunk still takes every row's spans.
//!
//! The partials are what the result batches are formed from, and — but for
//! the survivors-only ones — what the cache and the statistics take at
//! install; the worker sketches them for the statistics itself (the
//! bounds, [`sketch_partials`]) so the install has no value to walk. Every
//! `BATCH_SIZE` rows the worker hands the newest partial rows and the
//! resolver's selection of them to `rawscan::segment_batch`, so the
//! predicate runs once per row of the raw file. All shared state is borrowed
//! immutably ([`ScanContext`]); the mutable merge into the table's
//! positional map, cache and statistics happens on the driver thread
//! afterwards (`rawscan`), in partition order, so the post-scan state does
//! not depend on how the slices were scheduled.
//!
//! The worker is deliberately a plain function over `Send + Sync` borrows —
//! no `Rc`/`RefCell` — so it can run under `std::thread::scope`.

#![doc = " lint:cancellable — every scan/batch loop in this module must poll the"]
#![doc = " query context (`ctx.check()`) or drive an interrupt-flagged `BlockSource`;"]
#![doc = " enforced by `nodb-lint` (see crates/lint/README.md)."]

use std::path::Path;
use std::time::{Duration, Instant};

use nodb_engine::batch::{Batch, BATCH_SIZE};
use nodb_engine::{EngineError, EngineResult, ScanRequest};
use nodb_posmap::{AccessPlan, AttrSource, ChunkBuilder, PositionalMap, NO_OFFSET};
use nodb_rawcache::{RawCache, TypedColumn};
use nodb_rawcsv::reader::{LineRange, RangeScanner, RowBatch, RowPlan};
use nodb_rawcsv::tokenizer::{find_byte, FieldSpan, TokenizerConfig};
use nodb_rawcsv::{parser, IoCounters, IoProfile, Schema};
use nodb_stats::ColumnSketch;

use crate::config::{NoDbConfig, ParseErrorPolicy};
use crate::ctx::QueryCtx;
use crate::metrics::{Breakdown, PhaseClock};
use crate::rawscan::{filter_segment, segment_batch, QuarantineSample};

/// Test hook: make every `run_partition` call over this raw file panic, to
/// exercise the worker-boundary `catch_unwind` containment without a
/// contrived schema. Keyed by path so tests running in parallel (each on
/// its own scratch file) never trip each other's injection.
#[cfg(test)]
pub(crate) static INJECT_WORKER_PANIC: std::sync::Mutex<Option<std::path::PathBuf>> =
    std::sync::Mutex::new(None);

/// Convert a scanner error into the structured stop error when the query
/// context tripped mid-read: a cancelled refill surfaces as a wrapped "scan
/// interrupted" I/O error, and callers should see `Cancelled` /
/// `DeadlineExceeded` instead. (A real I/O error racing the stop flag is
/// reported as the cancellation — acceptable, since the query was being
/// abandoned either way.)
fn check_io<T>(qctx: &QueryCtx, r: nodb_rawcsv::Result<T>) -> EngineResult<T> {
    r.map_err(|e| {
        if qctx.is_stopped() {
            qctx.stop_error()
        } else {
            e.into()
        }
    })
}

/// Immutable scan-wide state shared by every worker.
///
/// `cache` is populated when the cache is enabled, `map`/`plan` when the
/// access plan resolves something through a chunk. A worker consults them
/// only for a slice that knows its global rows ([`Partition::row_base`]) —
/// per-row adaptive reads need row numbers — and resolves everything from
/// raw bytes otherwise (see `rawscan::plan_slices`).
pub(crate) struct ScanContext<'a> {
    pub config: NoDbConfig,
    /// The config's I/O resilience profile, resolved once per scan
    /// (`NoDbConfig::io_profile` reads the environment).
    pub io_profile: IoProfile,
    /// Per-query deadline/cancellation state, polled once per batch of rows
    /// and wired into each scanner's refill path as an interrupt flag.
    pub ctx: &'a QueryCtx,
    pub req: &'a ScanRequest,
    pub tokenizer: TokenizerConfig,
    pub schema: &'a Schema,
    pub path: &'a Path,
    pub map: Option<&'a PositionalMap>,
    pub plan: Option<&'a AccessPlan>,
    pub cache: Option<&'a RawCache>,
    /// Cache coverage per requested position at query start.
    pub cache_cov: &'a [usize],
    /// Statistics observation frontier per requested position at query
    /// start (`u64::MAX`: nothing to sketch) — see [`sketch_partials`].
    pub stats_from: &'a [u64],
    /// Per requested position: converted only for the rows the pushed
    /// predicate keeps (`rawscan::survivors_only`).
    pub survivors_only: &'a [bool],
    /// Collect per-row positional-map offsets into a partial chunk builder.
    pub build_chunk: bool,
    /// The scan feeds the shared row index: slices that do not know their
    /// rows record the line-start offsets they find.
    pub collect_offsets: bool,
    /// The source epoch's torn-row fence (`None` when `detect_updates` is
    /// off): workers clamp their partition range to it and treat an EOF
    /// before it as a mid-scan truncation ([`EngineError::SourceChanged`]).
    pub source_len: Option<u64>,
}

/// The mid-scan mutation error, labeled with the backing path.
fn source_changed(ctx: &ScanContext<'_>) -> EngineError {
    EngineError::SourceChanged {
        table: ctx.path.display().to_string(),
    }
}

/// One partition of work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partition {
    pub range: LineRange,
    /// The slice starting at byte 0 of a file with a header skips its first
    /// line.
    pub skip_header: bool,
    /// Global index of this partition's first data row: `Some` for a slice
    /// of rows the row index holds, `None` for a byte slice of the unknown
    /// tail behind them. A slice the cache covers for every requested
    /// attribute never gets here: the scan streams its rows from the cache
    /// (`rawscan`'s cache frontier).
    pub row_base: Option<usize>,
}

/// Everything a worker hands back for the deterministic merge.
#[derive(Default)]
pub(crate) struct PartitionOutput {
    /// Data rows scanned in this partition.
    pub rows: usize,
    /// Line-start byte offsets, one per row (empty unless requested).
    pub line_starts: Vec<u64>,
    /// Per requested attribute: every row's value, in partition row order,
    /// for the cache and the statistics to take at install (empty columns
    /// when both are off — see [`run_partition`]).
    pub side_cols: Vec<TypedColumn>,
    /// Per requested attribute, the sketch of `side_cols` the statistics
    /// absorb at install (empty when statistics are off; `None` for an
    /// attribute with no rows to observe) — see [`sketch_partials`].
    pub sketches: Vec<Option<ColumnSketch>>,
    /// Partial positional-map chunk over this partition's rows.
    pub builder: Option<ChunkBuilder>,
    /// Predicate-filtered output batches, in row order, each formed by
    /// `rawscan::segment_batch` over at most `BATCH_SIZE` scanned rows.
    pub batches: Vec<Batch<'static>>,
    /// With the cache on, one per requested attribute per row: a hit when
    /// the cache serves the value, a miss when it is parsed from raw bytes
    /// (workers cannot count on the shared metrics; the driver folds these
    /// in at merge).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub breakdown: Breakdown,
    pub io: IoCounters,
    /// Rows with at least one malformed cell tombstoned under
    /// [`ParseErrorPolicy::Permissive`] (0 under strict — strict aborts).
    pub quarantined: u64,
    /// Capped sample of quarantined rows for telemetry.
    pub quarantine_samples: Vec<QuarantineSample>,
}

/// Scan one partition to completion.
pub(crate) fn run_partition(
    ctx: &ScanContext<'_>,
    part: Partition,
) -> EngineResult<PartitionOutput> {
    #[cfg(test)]
    if crate::rawscan::lock_recover(&INJECT_WORKER_PANIC).as_deref() == Some(ctx.path) {
        panic!("injected worker panic (test hook)");
    }
    let clock = PhaseClock::new();
    let mut laps = Laps::default();

    // Clamp the partition to the epoch's torn-row fence: bytes past it
    // belong to the next epoch (a torn trailing row, a concurrent append).
    // This also resolves the `u64::MAX` run-to-EOF end of the last known-row
    // slice of a tail-less scan to a hard edge, so an appender can never
    // leak new-epoch rows into a warm scan.
    let mut range = part.range;
    if let Some(fence) = ctx.source_len {
        range.end = range.end.min(fence);
    }
    let t = clock.start();
    let mut scanner = RangeScanner::open_with_profile(
        ctx.path,
        ctx.config.io_block_size,
        range,
        0,
        ctx.io_profile,
    )?;
    scanner.set_interrupt(ctx.ctx.stop_flag());
    clock.lap(t, &mut laps.io);

    let mut out = PartitionOutput {
        side_cols: fresh_partials(ctx),
        builder: ctx
            .build_chunk
            .then(|| ChunkBuilder::new(ctx.req.attrs.clone())),
        ..Default::default()
    };
    // The batch resolver parses every value straight into the typed
    // partials and selects the rows the predicate keeps, and every
    // `BATCH_SIZE` rows the batch former gathers the newest of them with
    // that selection. When the cache or the statistics take the partials at
    // install they grow with the slice; otherwise they are per-batch
    // scratch, emptied once the batch is formed, and hold only the slice's
    // rows since `lo`.
    let keep_partials = ctx.config.enable_cache || ctx.config.enable_stats;
    let form_batch = |out: &mut PartitionOutput, sel: &mut Vec<u32>, lo: usize, hi: usize| {
        let dropped = if keep_partials { 0 } else { lo };
        let cols: Vec<&TypedColumn> = out.side_cols.iter().collect();
        let sel = ctx.req.predicate.is_some().then(|| std::mem::take(sel));
        let batch = segment_batch(ctx.req, &cols, lo - dropped, hi - dropped, sel);
        if !batch.is_empty() {
            out.batches.push(batch);
        }
        if !keep_partials {
            out.side_cols = fresh_partials(ctx);
        }
    };

    let upto = if ctx.config.selective_tokenizing {
        ctx.req.attrs.last().copied().unwrap_or(0)
    } else {
        usize::MAX
    };
    let adaptive = part.row_base.and_then(|base| AdaptiveReads::new(ctx, base));
    // The row index already holds the line starts of a slice that knows its
    // rows.
    let collect_offsets = ctx.collect_offsets && part.row_base.is_none();
    let mut batch = RowBatch::new();
    let mut scratch = Scratch::new(ctx, out.builder.as_ref());

    if part.skip_header {
        let t = clock.start();
        let stall = scanner.counters().stall;
        check_io(ctx.ctx, scanner.next_line())?;
        laps.fetch(&clock, t, scanner.counters().stall.saturating_sub(stall));
        if ctx.source_len.is_some() && scanner.ended_short() {
            return Err(source_changed(ctx));
        }
    }
    let mut local = 0usize;
    loop {
        // Cooperative cancellation: one relaxed load + deadline compare per
        // batch, so a stop lands within one batch of rows.
        ctx.ctx.check()?;
        // Batches end on the `BATCH_SIZE` grid of slice rows, where the
        // batch former cuts.
        let want = BATCH_SIZE - local % BATCH_SIZE;
        batch.request(want, upto);
        if let Some(reads) = &adaptive {
            let t = clock.start();
            reads.plan(ctx, local, want, &mut scratch, &mut batch);
            clock.lap(t, &mut laps.parse);
        }
        // The fill is the tokenizing pass: newlines and delimiters in one
        // walk of the window. A block refill inside it is left out: the
        // scanner's stall counter has it, exactly, and joins the I/O slice
        // after the loop.
        let t = clock.start();
        let stall = scanner.counters().stall;
        let rows = check_io(ctx.ctx, scanner.fill_batch(&ctx.tokenizer, &mut batch))?;
        laps.fetch(&clock, t, scanner.counters().stall.saturating_sub(stall));
        // Mid-scan truncation detection, gated on the fence so legacy mode
        // (`detect_updates` off) stays byte-identical. A cut mid-line
        // surfaces a bogus final unterminated line in the last batch
        // (caught here, before it is parsed); a cut exactly on a newline
        // boundary is only discovered by the empty refill after the last
        // complete line.
        if ctx.source_len.is_some() && scanner.ended_short() {
            return Err(source_changed(ctx));
        }
        if rows == 0 {
            break;
        }
        if collect_offsets {
            let t = clock.start();
            out.line_starts.extend((0..rows).map(|r| batch.offset(r)));
            clock.lap(t, &mut laps.nodb);
        }
        resolve_batch(
            ctx,
            adaptive.as_ref(),
            &batch,
            scanner.bytes(),
            local,
            &mut scratch,
            &mut out,
            &clock,
            &mut laps,
        )?;
        local += rows;
        if local.is_multiple_of(BATCH_SIZE) {
            form_batch(&mut out, &mut scratch.sel, local - BATCH_SIZE, local);
        }
    }

    if !local.is_multiple_of(BATCH_SIZE) {
        let lo = local - local % BATCH_SIZE;
        form_batch(&mut out, &mut scratch.sel, lo, local);
    }
    out.rows = local;
    out.io = scanner.take_counters();
    laps.io += out.io.stall;
    out.breakdown.io = laps.io;
    out.breakdown.tokenizing = laps.tok;
    out.breakdown.parsing = laps.parse;
    out.breakdown.convert = laps.conv;
    out.breakdown.nodb = laps.nodb;
    let t = clock.start();
    out.sketches = sketch_partials(ctx, part.row_base, &out.side_cols);
    clock.lap(t, &mut out.breakdown.nodb);
    Ok(out)
}

/// A worker's phase times, each lapped once per batch.
#[derive(Default)]
struct Laps {
    io: Duration,
    tok: Duration,
    parse: Duration,
    conv: Duration,
    nodb: Duration,
}

impl Laps {
    /// Lap a line fetch started at `t` into tokenizing, less the `reads`
    /// spent inside it (those join `io` through the stall counter).
    fn fetch(&mut self, clock: &PhaseClock, t: Instant, reads: Duration) {
        self.tok += clock.since(t).saturating_sub(reads);
    }
}

/// What a slice that knows its rows can read instead of tokenizing, per
/// requested position: the cache column with its coverage at query start,
/// and the positional map's offsets of the attribute itself (an exact jump)
/// or of the anchor attribute the plan resumes from.
struct AdaptiveReads<'a> {
    /// Global row of the slice's first row.
    base: usize,
    cache: Vec<Option<&'a TypedColumn>>,
    exact: Vec<Option<&'a [u16]>>,
    anchor: Vec<Option<(usize, &'a [u16])>>,
}

/// The offset column of `attr` in the map's chunk `chunk`.
fn map_column(map: &PositionalMap, chunk: usize, attr: usize) -> Option<&[u16]> {
    let c = map.chunks().get(chunk)?;
    c.attrs().binary_search(&attr).ok().map(|k| c.raw_col(k))
}

impl<'a> AdaptiveReads<'a> {
    /// The reads open to the slice whose first row is global row `base`;
    /// `None` when there are none (no row below a cache coverage, no map
    /// column), and every row is tokenized from its start.
    fn new(ctx: &ScanContext<'a>, base: usize) -> Option<Self> {
        let attrs = &ctx.req.attrs;
        let cache_reads = ctx.cache_cov.iter().any(|&c| c > base);
        let cache = match ctx.cache {
            Some(cache) if cache_reads => attrs.iter().map(|&a| cache.column(a)).collect(),
            _ => vec![None; attrs.len()],
        };
        let (exact, anchor) = attrs
            .iter()
            .map(
                |&a| match (ctx.map, ctx.plan.and_then(|p| p.source_for(a))) {
                    (Some(map), Some(AttrSource::Exact { chunk })) => {
                        (map_column(map, chunk, a), None)
                    }
                    (Some(map), Some(AttrSource::Anchor { chunk, anchor_attr })) => (
                        None,
                        map_column(map, chunk, anchor_attr).map(|col| (anchor_attr, col)),
                    ),
                    _ => (None, None),
                },
            )
            .unzip::<_, _, Vec<_>, Vec<_>>();
        let map_reads = exact.iter().any(Option::is_some) || anchor.iter().any(Option::is_some);
        (cache_reads || map_reads).then_some(AdaptiveReads {
            base,
            cache,
            exact,
            anchor,
        })
    }

    /// The exact map offset of position `i` in global row `row`.
    #[inline]
    fn exact_at(&self, i: usize, row: usize) -> Option<u16> {
        let off = *self.exact[i]?.get(row)?;
        (off != NO_OFFSET).then_some(off)
    }

    /// Plan batch rows `0..want`, starting at slice row `local`: per
    /// position, how many leading rows the cache serves (`Scratch::cached`);
    /// per row, where tokenizing starts and stops — only the positions
    /// neither the cache nor an exact jump resolves are tokenized, from the
    /// nearest jump or map anchor before the first of them.
    fn plan(
        &self,
        ctx: &ScanContext<'_>,
        local: usize,
        want: usize,
        scratch: &mut Scratch,
        batch: &mut RowBatch,
    ) {
        let attrs = &ctx.req.attrs;
        let first = self.base + local;
        for (i, &attr) in attrs.iter().enumerate() {
            let covered = ctx.cache_cov[i].saturating_sub(first).min(want);
            scratch.cached[i] = match self.cache[i] {
                Some(col) if col.ty() == ctx.schema.ty(attr) => {
                    covered.min(col.len().saturating_sub(first))
                }
                _ => 0,
            };
        }
        let selective = ctx.config.selective_tokenizing;
        for r in 0..want {
            let row = first + r;
            let parsed = |i: usize| r >= scratch.cached[i];
            let missing = |i: usize| parsed(i) && self.exact_at(i, row).is_none();
            let Some(lo) = (0..attrs.len()).find(|&i| missing(i)) else {
                batch.plan_row(RowPlan::NONE);
                continue;
            };
            let hi = (lo..attrs.len()).rev().find(|&i| missing(i)).unwrap_or(lo);
            if !selective {
                batch.plan_row(RowPlan::from_start(usize::MAX));
                continue;
            }
            // Best anchor: the largest position before `lo` this row jumps
            // to, else the plan's anchor attribute.
            let jump = (0..lo).rev().find_map(|i| {
                parsed(i)
                    .then(|| self.exact_at(i, row))
                    .flatten()
                    .map(|o| (attrs[i], o))
            });
            let anchor = jump.or_else(|| {
                let (attr, col) = self.anchor[lo]?;
                let off = *col.get(row)?;
                (off != NO_OFFSET).then_some((attr, off))
            });
            let (field, off) = anchor.unwrap_or((0, 0));
            batch.plan_row(RowPlan {
                field,
                off: u32::from(off),
                upto: attrs[hi],
            });
        }
    }
}

/// The batch resolver's scratch, reused across batches.
struct Scratch {
    /// Per position: leading batch rows the cache serves (a hit each; with
    /// the cache on, every other row is a miss, parsed from raw bytes).
    cached: Vec<usize>,
    /// Per position and batch row: the field's line-relative span; `None`
    /// for a short row's absent field and for a row the cache serves.
    spans: Vec<Vec<Option<FieldSpan>>>,
    /// Per batch row: the first position whose cell failed to parse.
    bad: Vec<Option<usize>>,
    /// The rows of the batch former's current segment that the predicate
    /// keeps, relative to the segment's first row.
    sel: Vec<u32>,
    /// Per chunk-builder column: the position holding its attribute.
    builder_pos: Vec<Option<usize>>,
}

impl Scratch {
    fn new(ctx: &ScanContext<'_>, builder: Option<&ChunkBuilder>) -> Self {
        let n = ctx.req.attrs.len();
        let builder_pos = builder.map_or_else(Vec::new, |b| {
            b.attrs()
                .iter()
                .map(|a| ctx.req.attrs.iter().position(|x| x == a))
                .collect()
        });
        Scratch {
            cached: vec![0; n],
            spans: vec![Vec::new(); n],
            bad: Vec::new(),
            sel: Vec::new(),
            builder_pos,
        }
    }
}

/// Resolve every requested position of one batch — the scan operator's
/// only resolver, over immutable borrows of the shared state — and select
/// the rows the pushed predicate keeps. Per position: the rows below its
/// cache coverage are copied from the cache column as one range, exact
/// positional-map jumps are resolved next, and the rest take their spans
/// from the batch. Every position but the survivors-only ones then
/// converts in one typed loop; the predicate runs once over the batch
/// ([`filter_segment`]), its selection joins the segment's
/// (`Scratch::sel`) for the batch former, and the survivors-only positions
/// convert the kept rows alone. Every row of every position lands in its
/// typed partial exactly once: a cached value, the parsed field, or NULL
/// for a short row, a tombstone, or a row a survivors-only position skips
/// (a placeholder the former never reads).
///
/// A malformed cell fails the slice under [`ParseErrorPolicy::Strict`] —
/// the first one in row order, named by its slice-local row — and is
/// tombstoned under [`ParseErrorPolicy::Permissive`], counting its row
/// as quarantined once. A cell that is not converted is neither: a
/// survivors-only cell of a rejected row.
#[allow(clippy::too_many_arguments)]
fn resolve_batch(
    ctx: &ScanContext<'_>,
    adaptive: Option<&AdaptiveReads<'_>>,
    batch: &RowBatch,
    bytes: &[u8],
    local: usize,
    scratch: &mut Scratch,
    out: &mut PartitionOutput,
    clock: &PhaseClock,
    laps: &mut Laps,
) -> EngineResult<()> {
    let rows = batch.len();
    let attrs = &ctx.req.attrs;
    // The partials' row of the batch's first row.
    let at = out.side_cols.first().map_or(0, TypedColumn::len);
    for spans in &mut scratch.spans {
        spans.clear();
        spans.resize(rows, None);
    }
    if adaptive.is_none() {
        scratch.cached.fill(0);
    }

    // 1. Cache reads, a range per position.
    if let Some(reads) = adaptive {
        let first = reads.base + local;
        for (i, part) in out.side_cols.iter_mut().enumerate() {
            let cached = scratch.cached[i].min(rows);
            scratch.cached[i] = cached;
            if let Some(col) = reads.cache[i].filter(|_| cached > 0) {
                part.extend_from(col, first, first + cached);
            }
        }

        // 2. Exact positional-map jumps for the rows the cache missed.
        let t = clock.start();
        for (i, spans) in scratch.spans.iter_mut().enumerate() {
            if reads.exact[i].is_none() {
                continue;
            }
            for (r, span) in spans.iter_mut().enumerate().skip(scratch.cached[i]) {
                let Some(off) = reads.exact_at(i, first + r) else {
                    continue;
                };
                let line = batch.line(bytes, r);
                let start = usize::from(off).min(line.len());
                let end = find_byte(&line[start..], ctx.tokenizer.delimiter)
                    .map_or(line.len(), |p| start + p);
                *span = Some(FieldSpan::at(start, end));
            }
        }
        clock.lap(t, &mut laps.parse);
    }

    // Workers cannot count on the shared metrics, so hits and misses are
    // tallied here and folded in by the driver: with the cache on, every
    // row of every position is one or the other.
    if ctx.cache.is_some() {
        for &cached in &scratch.cached {
            out.cache_hits += cached as u64;
            out.cache_misses += (rows - cached) as u64;
        }
    }

    // 3. The rest take the batch's spans.
    let t = clock.start();
    for (i, spans) in scratch.spans.iter_mut().enumerate() {
        for (r, span) in spans.iter_mut().enumerate().skip(scratch.cached[i]) {
            if span.is_none() {
                *span = batch.span(r, attrs[i]);
            }
        }
    }
    clock.lap(t, &mut laps.tok);

    // 4. Selective parsing: convert only what is needed, a column at a
    // time — first every position the predicate may read. Quoted string
    // fields keep `""` escapes in their spans; the typed parse unescapes
    // them.
    let t = clock.start();
    scratch.bad.clear();
    scratch.bad.resize(rows, None);
    for (i, part) in out.side_cols.iter_mut().enumerate() {
        if !ctx.survivors_only[i] {
            convert(ctx, batch, bytes, scratch, i, part, None);
        }
    }
    clock.lap(t, &mut laps.conv);

    // 5. The pushed predicate, once per row: its selection is what the
    // batch former gathers with. Like the former's, it is in no phase
    // slice.
    let cols: Vec<&TypedColumn> = out.side_cols.iter().collect();
    let sel = filter_segment(ctx.req, &cols, at, rows);

    // 6. The survivors-only positions, for the kept rows alone.
    if let Some(sel) = &sel {
        let t = clock.start();
        for (i, part) in out.side_cols.iter_mut().enumerate() {
            if ctx.survivors_only[i] {
                convert(ctx, batch, bytes, scratch, i, part, Some(sel));
            }
        }
        clock.lap(t, &mut laps.conv);
        let seg = (local % BATCH_SIZE) as u32;
        scratch.sel.extend(sel.iter().map(|&r| seg + r));
    }

    if let Some(r) = scratch.bad.iter().position(Option::is_some) {
        // The predicate above saw a malformed cell as NULL; a strict scan
        // fails here before any row is formed.
        if ctx.config.parse_errors == ParseErrorPolicy::Strict {
            if let Some(i) = scratch.bad[r] {
                // `parse_field` words the error: row, attr, type and text.
                // Errors name the slice-local row; the driver rebases to the
                // file row.
                let raw = scratch.spans[i][r].map_or(&[][..], |s| s.of(batch.line(bytes, r)));
                parser::parse_field(raw, ctx.schema.ty(attrs[i]), (local + r) as u64, attrs[i])?;
            }
        }
        // Permissive policy: the malformed cell was tombstoned exactly like
        // a short row's absent attribute, so cache/stats/map stay
        // byte-identical across runs.
        for (r, bad) in scratch.bad.iter().enumerate().skip(r) {
            let Some(i) = *bad else { continue };
            out.quarantined += 1;
            if out.quarantine_samples.len() < QuarantineSample::MAX_SAMPLES {
                out.quarantine_samples.push(QuarantineSample {
                    row: (local + r) as u64, // slice-local; the merge rebases
                    offset: batch.offset(r),
                    attr: attrs[i],
                });
            }
        }
    }

    // 7. Positional-map side effect into the partition-local chunk: each
    // attribute's line-relative starts as a column.
    if let Some(b) = &mut out.builder {
        let t = clock.start();
        let (spans, pos) = (&scratch.spans, &scratch.builder_pos);
        b.push_rows(rows, |k, r| {
            pos[k].and_then(|i| spans[i][r]).map(|s| s.start)
        });
        clock.lap(t, &mut laps.nodb);
    }
    Ok(())
}

/// Convert position `i`'s spans of the batch rows the cache does not serve
/// into its partial: every row, or only the rows in `keep` (ascending batch
/// rows; any other row appends NULL unparsed). A malformed cell's row
/// records the lowest position that failed in it (`Scratch::bad`), so the
/// order positions convert in does not change which cell an error names.
fn convert(
    ctx: &ScanContext<'_>,
    batch: &RowBatch,
    bytes: &[u8],
    scratch: &mut Scratch,
    i: usize,
    part: &mut TypedColumn,
    keep: Option<&[u32]>,
) {
    let from = scratch.cached[i];
    let (spans, bad) = (&scratch.spans[i], &mut scratch.bad);
    let field = |r: usize| spans[r].map(|s| s.of(batch.line(bytes, r)));
    let mark = |k: usize| {
        let b = &mut bad[from + k];
        *b = Some(b.map_or(i, |j| j.min(i)));
    };
    let quote = ctx.tokenizer.quote;
    match keep {
        None => part.extend_parsed((from..batch.len()).map(field), quote, mark),
        Some(keep) => {
            let mut keep = keep.iter().copied().peekable();
            let kept = (from..batch.len()).map(|r| match keep.next_if_eq(&(r as u32)) {
                Some(_) => field(r),
                None => None,
            });
            part.extend_parsed(kept, quote, mark)
        }
    }
}

/// The statistics' share of a slice's work: per requested attribute, a
/// [`ColumnSketch`] (the bounds) of the partial column's rows from the
/// plan-time observation frontier on, built here so the install only
/// merges it. A byte slice does not know its rows and sketches all of
/// them; the bounds of rows observed before are idempotent there.
/// `None` for an attribute with no rows to observe in the slice, and no
/// sketches at all with statistics off.
fn sketch_partials(
    ctx: &ScanContext<'_>,
    row_base: Option<usize>,
    cols: &[TypedColumn],
) -> Vec<Option<ColumnSketch>> {
    if !ctx.config.enable_stats {
        return Vec::new();
    }
    cols.iter()
        .zip(ctx.stats_from)
        .map(|(col, &frontier)| {
            if frontier == u64::MAX {
                return None;
            }
            let from = row_base.map_or(0, |base| frontier.saturating_sub(base as u64));
            let from = usize::try_from(from).ok().filter(|&f| f < col.len())?;
            Some(ColumnSketch::build(col, from))
        })
        .collect()
}

/// One empty typed partial column per requested attribute.
fn fresh_partials(ctx: &ScanContext<'_>) -> Vec<TypedColumn> {
    ctx.req
        .attrs
        .iter()
        .map(|&a| TypedColumn::new(ctx.schema.ty(a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_posmap::MapPolicy;
    use nodb_rawcsv::reader::read_full;
    use nodb_rawcsv::{GeneratorConfig, Tokens};

    /// Batch plans over a map chunk holding attributes 2 and 5: a request
    /// the chunk covers exactly asks no row for a single field (the jumps
    /// replace tokenizing), and one it does not resumes every row at the
    /// chunk's anchor.
    #[test]
    fn map_jumps_and_anchors_shape_the_batch_plans() {
        let mut path = std::env::temp_dir();
        path.push(format!("nodb_worker_plans_{}", std::process::id()));
        let gen = GeneratorConfig::uniform_ints(8, 300, 5);
        gen.generate_file(&path).unwrap();
        let schema = gen.schema();
        let tok = TokenizerConfig::default();
        let bytes = read_full(&path).unwrap();
        let mut map = PositionalMap::new(MapPolicy::with_budget(1 << 20));
        let mut builder = ChunkBuilder::new(vec![2, 5]);
        let mut tokens = Tokens::new();
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            tok.tokenize_into(line, &mut tokens);
            builder.push_row(&tokens);
        }
        map.install(builder).unwrap();
        let qctx = QueryCtx::unbounded();
        let len = bytes.len() as u64;
        for (attr, first) in [(5usize, None), (6, Some(5usize))] {
            let req = ScanRequest::project(vec![attr]);
            let plan = map.plan_access(&req.attrs);
            let ctx = ScanContext {
                config: NoDbConfig::pm_only(),
                io_profile: IoProfile::default(),
                ctx: &qctx,
                req: &req,
                tokenizer: tok,
                schema: &schema,
                path: &path,
                map: Some(&map),
                plan: Some(&plan),
                cache: None,
                cache_cov: &[0],
                stats_from: &[u64::MAX],
                survivors_only: &[false],
                build_chunk: false,
                collect_offsets: false,
                source_len: None,
            };
            let reads = AdaptiveReads::new(&ctx, 0).unwrap();
            let mut scratch = Scratch::new(&ctx, None);
            let mut batch = RowBatch::new();
            batch.request(BATCH_SIZE, attr);
            reads.plan(&ctx, 0, BATCH_SIZE, &mut scratch, &mut batch);
            let range = LineRange { start: 0, end: len };
            let mut scanner = RangeScanner::open(&path, 1 << 20, range, 0).unwrap();
            assert_eq!(scanner.fill_batch(&tok, &mut batch).unwrap(), 300);
            for r in 0..300 {
                let located: Vec<usize> = (0..8).filter(|&f| batch.span(r, f).is_some()).collect();
                match first {
                    None => assert!(located.is_empty(), "attr {attr} row {r}"),
                    Some(anchor) => assert_eq!(located, [anchor, attr], "row {r}"),
                }
            }
        }
        std::fs::remove_file(path).unwrap();
    }
}
