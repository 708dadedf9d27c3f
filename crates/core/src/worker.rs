//! The per-partition scan worker of the raw scan.
//!
//! One worker owns one slice of the file — a [`LineRange`] that either
//! covers rows the row index holds (`Partition::row_base` is set: the worker
//! may read the cache per row, jump through map chunks, or serve the whole
//! slice from the cache) or bytes nobody has numbered yet (everything comes
//! from the raw bytes, and the line starts found are handed back) — and
//! everything it needs to process it without synchronization: its own
//! [`RangeScanner`] (reading synchronously on this thread), a reusable
//! [`Tokens`] buffer, a partial positional-map [`ChunkBuilder`], typed
//! partial columns ([`TypedColumn`] per requested attribute, one value per
//! row) and per-phase timing (sampled — see
//! [`crate::metrics::TIMING_STRIDE`]). The row resolver writes each value
//! straight into its partial — a row copied out of a cache column, or a
//! field span parsed by `TypedColumn::push_parsed` — so no value is ever
//! boxed on its way from the tokenizer to the engine. The partials are both
//! what the cache and the statistics take at install and what the result
//! batches are formed from, and the worker sketches them for the statistics
//! itself (the bounds, [`sketch_partials`]) so the install has no value to
//! walk: every `BATCH_SIZE` rows the worker hands the newest partial rows
//! to `rawscan::segment_batch`, the same former that serves cache-covered
//! slices, and whose predicate step a fully-cached stream shares. All
//! shared state is borrowed
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
use std::time::Duration;

use nodb_engine::batch::{Batch, BATCH_SIZE};
use nodb_engine::{EngineError, EngineResult, ScanRequest};
use nodb_posmap::{AccessPlan, AttrSource, ChunkBuilder, PositionalMap};
use nodb_rawcache::{RawCache, TypedColumn};
use nodb_rawcsv::reader::{LineRange, RangeScanner};
use nodb_rawcsv::tokenizer::{find_byte, TokenizerConfig, Tokens};
use nodb_rawcsv::{parser, IoCounters, IoProfile, Schema};
use nodb_stats::ColumnSketch;

use crate::config::{NoDbConfig, ParseErrorPolicy};
use crate::ctx::{QueryCtx, CHECK_STRIDE};
use crate::metrics::{Breakdown, PhaseClock};
use crate::rawscan::{cached_column_handles, segment_batch, QuarantineSample};

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
    /// Per-query deadline/cancellation state, polled every [`CHECK_STRIDE`]
    /// rows and wired into each scanner's refill path as an interrupt flag.
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
    /// tail behind them.
    pub row_base: Option<usize>,
    /// Exact data-row count of the partition, known exactly when
    /// `row_base` is. Together they enable the whole-partition cache probe:
    /// a partition fully covered by the cache for every requested attribute
    /// is served without opening the file.
    pub rows: Option<usize>,
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
    /// Cache reads served / refused via `RawCache::peek` (workers cannot
    /// take `&mut` to count on the shared metrics; the driver folds these
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
    let n = ctx.req.attrs.len();
    let clock = PhaseClock::new(ctx.config.detailed_timing);
    let mut d_io = Duration::ZERO;
    let mut d_line = Duration::ZERO;
    let mut d_tok = Duration::ZERO;
    let mut d_parse = Duration::ZERO;
    let mut d_conv = Duration::ZERO;
    let mut d_nodb = Duration::ZERO;

    // Whole-partition cache probe: with the global row range known and
    // every requested attribute cached for every row of it, the raw file
    // has nothing left to offer — serve the partition straight from the
    // cache, zero I/O. Skipped when the scan collects a map chunk (that
    // needs the raw line bytes), so the partition-local partials stay
    // identical to what the streaming loop would have produced. A column
    // that is not resident with that coverage sends the slice to the raw
    // bytes below.
    if let (Some(base), Some(rows), Some(cache)) = (part.row_base, part.rows, ctx.cache) {
        if !ctx.build_chunk {
            if let Some(cols) = cached_column_handles(cache, &ctx.req.attrs, base + rows) {
                return Ok(run_cached_partition(ctx, base, rows, &cols, &clock));
            }
        }
    }

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
    clock.lap(t, &mut d_io);

    let mut out = PartitionOutput {
        side_cols: fresh_partials(ctx),
        builder: ctx
            .build_chunk
            .then(|| ChunkBuilder::new(ctx.req.attrs.clone())),
        ..Default::default()
    };

    // Per-row reusable buffers (workhorse pattern: zero allocation per row
    // in the common paths).
    let mut tokens = Tokens::new();
    let mut spans: Vec<Option<(u32, u32)>> = vec![None; n];
    let mut offsets_buf: Vec<(usize, u32)> = Vec::with_capacity(n);
    let mut line_buf: Vec<u8> = Vec::new();
    // `resolve_row` parses every value straight into the typed partials,
    // and every `BATCH_SIZE` rows the batch former runs over the newest of them. When
    // the cache or the statistics take the partials at install they grow
    // with the slice; otherwise they are per-batch scratch, emptied once
    // the batch is formed, and hold only the slice's rows since `lo`.
    let keep_partials = ctx.config.enable_cache || ctx.config.enable_stats;
    let form_batch = |out: &mut PartitionOutput, lo: usize, hi: usize| {
        let dropped = if keep_partials { 0 } else { lo };
        let cols: Vec<&TypedColumn> = out.side_cols.iter().collect();
        let batch = segment_batch(ctx.req, &cols, lo - dropped, hi - dropped);
        if !batch.is_empty() {
            out.batches.push(batch);
        }
        if !keep_partials {
            out.side_cols = fresh_partials(ctx);
        }
    };

    // Will any row of this partition read the cache or jump via the map?
    let cache_reads = match (ctx.cache, part.row_base) {
        (Some(_), Some(base)) => ctx.cache_cov.iter().any(|&c| c > base),
        _ => false,
    };
    let map_reads = ctx.map.is_some() && ctx.plan.is_some() && part.row_base.is_some();
    // Resolve the cache columns once per partition; the per-row reads index
    // straight through the handles instead of re-probing the cache's map.
    let cache_cols: Vec<Option<&TypedColumn>> = match (ctx.cache, part.row_base) {
        (Some(cache), Some(_)) if cache_reads => {
            ctx.req.attrs.iter().map(|&a| cache.column(a)).collect()
        }
        _ => vec![None; n],
    };
    let upto = if ctx.config.selective_tokenizing {
        ctx.req.attrs.last().copied().unwrap_or(0)
    } else {
        usize::MAX
    };
    // Fused fast path: when no per-row adaptive reads can occur and the
    // tokenizer is plain, line splitting and tokenizing share one SWAR pass
    // (`find_byte2` — each prefix byte is visited once, not twice).
    let fused = ctx.tokenizer.quote.is_none() && !cache_reads && !map_reads;

    // The row index already holds the line starts of a slice that knows its
    // rows.
    let collect_offsets = ctx.collect_offsets && part.row_base.is_none();
    let mut header_pending = part.skip_header;
    let mut local = 0usize;
    let mut timed = 0usize;
    loop {
        // Cooperative cancellation: one relaxed load + deadline compare per
        // CHECK_STRIDE rows, bounding stop latency without showing up in
        // per-row profiles.
        if (local as u64).is_multiple_of(CHECK_STRIDE) {
            ctx.ctx.check()?;
        }
        // Phase laps are sampled (`TIMING_STRIDE`) and scaled after the loop.
        let row_clock = clock.for_row(local);
        timed += usize::from(row_clock.enabled());
        let stall = row_clock.enabled().then(|| scanner.counters().stall);
        let t = row_clock.start();
        let line_meta: Option<u64> = if fused {
            match check_io(
                ctx.ctx,
                scanner.next_line_tokenized(ctx.tokenizer.delimiter, upto, &mut tokens),
            )? {
                Some(l) => {
                    line_buf.clear();
                    line_buf.extend_from_slice(l.bytes);
                    Some(l.offset)
                }
                None => None,
            }
        } else {
            match check_io(ctx.ctx, scanner.next_line())? {
                Some(l) => {
                    line_buf.clear();
                    line_buf.extend_from_slice(l.bytes);
                    Some(l.offset)
                }
                None => None,
            }
        };
        // The fused pass does the tokenizing work inside the line fetch, so
        // its time lands in the tokenizing slice; the plain path's fetch is
        // newline discovery, charged to I/O. Either way a block refill
        // inside this fetch is left out: the scanner's stall counter already
        // has it, exactly, and joins the I/O slice after the loop.
        if let (Some(stall), Some(t)) = (stall, t) {
            let lap = row_clock.since(t);
            let reads = scanner.counters().stall.saturating_sub(stall);
            *(if fused { &mut d_tok } else { &mut d_line }) += lap.saturating_sub(reads);
        }
        // Mid-scan truncation detection, gated on the fence so legacy mode
        // (`detect_updates` off) stays byte-identical. Both probes are
        // needed: a cut mid-line surfaces a bogus final unterminated line
        // *before* `None` (catch it before parsing garbage); a cut exactly
        // on a newline boundary is only discovered by the empty refill
        // after the last complete line (the `None` arm).
        if ctx.source_len.is_some() && scanner.ended_short() {
            return Err(source_changed(ctx));
        }
        let Some(offset) = line_meta else { break };
        if header_pending {
            header_pending = false;
            continue;
        }
        if collect_offsets {
            out.line_starts.push(offset);
        }

        let quarantined_attr = resolve_row(
            ctx,
            part.row_base.map(|b| b + local),
            local,
            &line_buf,
            &mut tokens,
            fused,
            &cache_cols,
            &mut out.side_cols,
            &mut spans,
            (&mut out.cache_hits, &mut out.cache_misses),
            &row_clock,
            &mut d_tok,
            &mut d_parse,
            &mut d_conv,
        )?;
        if let Some(attr) = quarantined_attr {
            out.quarantined += 1;
            if out.quarantine_samples.len() < QuarantineSample::MAX_SAMPLES {
                out.quarantine_samples.push(QuarantineSample {
                    row: local as u64, // slice-local; the merge rebases
                    offset,
                    attr,
                });
            }
        }

        // Positional-map side effect into the partition-local chunk.
        {
            let t = row_clock.start();
            if let Some(b) = &mut out.builder {
                offsets_buf.clear();
                for (&attr, span) in ctx.req.attrs.iter().zip(&spans) {
                    if let Some((s, _)) = span {
                        offsets_buf.push((attr, *s));
                    }
                }
                b.push_row_offsets(&offsets_buf);
            }
            row_clock.lap(t, &mut d_nodb);
        }

        local += 1;
        if local.is_multiple_of(BATCH_SIZE) {
            form_batch(&mut out, local - BATCH_SIZE, local);
        }
    }

    if !local.is_multiple_of(BATCH_SIZE) {
        form_batch(&mut out, local - local % BATCH_SIZE, local);
    }
    out.rows = local;
    out.io = scanner.take_counters();
    if clock.enabled() {
        d_io += out.io.stall;
    }
    let scaled = |slot| PhaseClock::scale_sampled(slot, local, timed);
    out.breakdown.io = d_io + scaled(d_line);
    out.breakdown.tokenizing = scaled(d_tok);
    out.breakdown.parsing = scaled(d_parse);
    out.breakdown.convert = scaled(d_conv);
    out.breakdown.nodb = scaled(d_nodb);
    // Timed whole, not through the sampled row clock.
    let t = clock.start();
    out.sketches = sketch_partials(ctx, part.row_base, &out.side_cols);
    clock.lap(t, &mut out.breakdown.nodb);
    Ok(out)
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

/// Serve one fully-cached partition without touching the raw file: the
/// batch former runs over the cache columns `cols` themselves, and the
/// partials are the same rows exported as whole typed segments (so a later
/// merge under shrunk coverage re-admits real data, never placeholders).
/// The output rows are exactly what the streaming loop would have produced
/// — minus the I/O.
fn run_cached_partition(
    ctx: &ScanContext<'_>,
    base: usize,
    rows: usize,
    cols: &[&TypedColumn],
    clock: &PhaseClock,
) -> PartitionOutput {
    let mut out = PartitionOutput {
        rows,
        cache_hits: (rows * cols.len()) as u64,
        ..Default::default()
    };
    let t = clock.start();
    let end = base + rows;
    out.side_cols = cols.iter().map(|c| c.export_range(base, end)).collect();
    out.sketches = sketch_partials(ctx, Some(base), &out.side_cols);
    clock.lap(t, &mut out.breakdown.nodb);
    for lo in (base..end).step_by(BATCH_SIZE) {
        let batch = segment_batch(ctx.req, cols, lo, end.min(lo + BATCH_SIZE));
        if !batch.is_empty() {
            out.batches.push(batch);
        }
    }
    out
}

/// Resolve every requested position of one row — the scan operator's only
/// row resolver: cache reads and exact positional-map jumps (when global
/// rows are known), then tokenizing for the rest, then selective parsing,
/// all over immutable borrows of the shared state. Every requested position
/// gets exactly one push into its typed partial (`partials[i]`): a copy of
/// the cached row, the parsed field, or NULL for a short row or a
/// tombstone.
///
/// Returns `Some(attr)` when [`ParseErrorPolicy::Permissive`] tombstoned at
/// least one malformed cell (the first offending attribute, for the
/// telemetry sample); `None` for a clean row.
#[allow(clippy::too_many_arguments)]
fn resolve_row(
    ctx: &ScanContext<'_>,
    global_row: Option<usize>,
    local_row: usize,
    line: &[u8],
    tokens: &mut Tokens,
    fused: bool,
    cache_cols: &[Option<&TypedColumn>],
    partials: &mut [TypedColumn],
    spans: &mut [Option<(u32, u32)>],
    (cache_hits, cache_misses): (&mut u64, &mut u64),
    clock: &PhaseClock,
    d_tok: &mut Duration,
    d_parse: &mut Duration,
    d_conv: &mut Duration,
) -> EngineResult<Option<usize>> {
    let n = ctx.req.attrs.len();
    spans.fill(None);
    // A position is resolved for this row once its partial holds the row.
    let before = partials.first().map_or(0, TypedColumn::len);
    let resolved = |p: &TypedColumn| p.len() > before;

    // 1. Cache reads (the slice knows its global rows). Workers cannot
    // count on the shared metrics, so hits/misses are tallied here and
    // folded in by the driver — same accounting as sequential `get`.
    if let Some(row) = global_row {
        for (i, part) in partials.iter_mut().enumerate() {
            if row < ctx.cache_cov[i] {
                if cache_cols[i].is_some_and(|c| part.push_from(c, row)) {
                    *cache_hits += 1;
                } else {
                    *cache_misses += 1;
                }
            }
        }
    }

    // 2. Exact positional-map jumps for positions the cache missed.
    let mut missing_lo: Option<usize> = None;
    let mut missing_hi: Option<usize> = None;
    for i in 0..n {
        if resolved(&partials[i]) {
            continue;
        }
        if let (Some(plan), Some(map), Some(row)) = (ctx.plan, ctx.map, global_row) {
            if let Some(AttrSource::Exact { chunk }) = plan.source_for(ctx.req.attrs[i]) {
                if let Some(off) = map.offset_in(chunk, ctx.req.attrs[i], row) {
                    let t = clock.start();
                    let start = (off as usize).min(line.len());
                    let end = find_byte(&line[start..], ctx.tokenizer.delimiter)
                        .map(|p| start + p)
                        .unwrap_or(line.len());
                    spans[i] = Some((start as u32, end as u32));
                    clock.lap(t, d_parse);
                    continue;
                }
            }
        }
        missing_lo = missing_lo.or(Some(i));
        missing_hi = Some(i);
    }

    // 3. Tokenize for the positions still missing. On the fused path the
    // spans were already produced during line splitting; otherwise run
    // selective/resumable tokenizing.
    if let (Some(lo), Some(hi)) = (missing_lo, missing_hi) {
        if !fused {
            let t = clock.start();
            let first_attr = ctx.req.attrs[lo];
            let last_attr = ctx.req.attrs[hi];
            let upto = if ctx.config.selective_tokenizing {
                last_attr
            } else {
                usize::MAX
            };
            // Best anchor: the largest attribute < first_attr already
            // resolved this row, else the plan's anchor chunk.
            let mut anchor: Option<(usize, usize)> = None;
            for i in (0..lo).rev() {
                if let Some((s, _)) = spans[i] {
                    anchor = Some((ctx.req.attrs[i], s as usize));
                    break;
                }
            }
            if anchor.is_none() {
                if let (Some(plan), Some(map), Some(row)) = (ctx.plan, ctx.map, global_row) {
                    if let Some(AttrSource::Anchor { chunk, anchor_attr }) =
                        plan.source_for(first_attr)
                    {
                        if let Some(off) = map.offset_in(chunk, anchor_attr, row) {
                            anchor = Some((anchor_attr, off as usize));
                        }
                    }
                }
            }
            match anchor {
                Some((attr, off)) if ctx.config.selective_tokenizing && off <= line.len() => {
                    ctx.tokenizer.tokenize_from(line, attr, off, upto, tokens);
                }
                _ => {
                    ctx.tokenizer.tokenize_selective(line, upto, tokens);
                }
            }
            clock.lap(t, d_tok);
        }
        for i in lo..=hi {
            if resolved(&partials[i]) || spans[i].is_some() {
                continue;
            }
            if let Some(span) = tokens.get(ctx.req.attrs[i]) {
                spans[i] = Some((span.start, span.end));
            }
        }
    }

    // 4. Selective parsing: convert only what is needed.
    let t = clock.start();
    // Errors name the slice-local row; the driver rebases to the file row.
    let err_row = local_row as u64;
    let mut quarantined: Option<usize> = None;
    for (i, part) in partials.iter_mut().enumerate() {
        if resolved(part) {
            continue;
        }
        // Short row: attribute absent → NULL.
        let Some((s, e)) = spans[i] else {
            part.push_null();
            continue;
        };
        // Quoted string fields keep `""` escapes in their spans; the typed
        // parse unescapes them.
        let raw = &line[s as usize..e as usize];
        if !part.push_parsed(raw, ctx.tokenizer.quote) {
            let attr = ctx.req.attrs[i];
            if ctx.config.parse_errors == ParseErrorPolicy::Strict {
                // `parse_field` words the error: row, attr, type and text.
                parser::parse_field(raw, ctx.schema.ty(attr), err_row, attr)?;
            }
            // Permissive policy: tombstone the malformed cell exactly like a
            // short row's absent attribute, so cache/stats/map stay
            // byte-identical across runs.
            quarantined.get_or_insert(attr);
            part.push_null();
        }
    }
    clock.lap(t, d_conv);
    Ok(quarantined)
}
