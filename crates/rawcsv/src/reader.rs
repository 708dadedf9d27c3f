//! Block-oriented sequential scanning of raw files, with I/O accounting.
//!
//! The paper observes that in row-ordered CSV, *selective tokenizing does not
//! bring any I/O benefits* — every query that touches uncached attributes
//! still streams the file once. [`BlockScanner`] is that streaming pass:
//! fixed-size block reads, line reassembly across block boundaries, and
//! byte/call/stall counters so the harness can report the *I/O* slice of the
//! paper's Figure 3 execution breakdown.
//!
//! # The `BlockSource` layer
//!
//! [`BlockScanner`] owns only the line-reassembly state (a [`Window`] over
//! the byte stream) and pulls refills from a [`BlockSource`]. There is one
//! file-backed source and two decorators:
//!
//! * [`SyncBlocks`] — blocking block-sized `read` calls on the scanning
//!   thread. Every scan and snapshot read goes through it.
//! * [`FaultyBlocks`] — wraps a source with a seeded schedule of
//!   recoverable faults (transient `EIO`, latency, short reads) for the
//!   chaos suites.
//! * [`RetryBlocks`] — wraps a source with bounded retry and backoff for
//!   transient read errors.
//!
//! [`make_source_with`] stacks them from an [`IoProfile`]; the trait is what
//! lets tests substitute the faulty source under an unchanged scanner.
//!
//! There is deliberately no user-level prefetch thread: a scan issues
//! strictly sequential `read`s, which the kernel's own readahead already
//! overlaps with the caller's CPU work, and a helper thread measured no
//! faster on cached or evicted files while competing with the scan workers
//! for cores. A scan's thread count is exactly its worker count.
//!
//! **Why decorators cannot perturb results:** read sizes come from one
//! formula (`read_size_at`) over the source's position, and a fault only
//! fails a refill before it advances or moves a block boundary — so the
//! *concatenated byte stream* a scanner consumes is the file's bytes in
//! order, whatever the stack. Line splitting, tokenizing and offset
//! arithmetic only ever see that stream through the [`Window`]; block
//! boundaries are invisible above the refill call.
//!
//! Besides bytes and calls the source accounts [`IoCounters::stall`]: the
//! time the scanning thread spent inside `read`. That is the *I/O* slice of
//! the Figure-3-style breakdown, separating "waiting for bytes" from
//! "tokenizing".

#![doc = " lint:cancellable — every scan/batch loop in this module must poll the"]
#![doc = " query context (`ctx.check()`) or drive an interrupt-flagged `BlockSource`;"]
#![doc = " enforced by `nodb-lint` (see crates/lint/README.md)."]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::RawCsvError;
use crate::tokenizer::{count_byte, find_byte, find_byte2, trim_cr, Tokens};
use crate::Result;

/// Default block size for sequential scans (1 MiB).
pub const DEFAULT_BLOCK_SIZE: usize = 1 << 20;

/// Cumulative I/O counters for one scanner (or one query, after
/// [`BlockScanner::take_counters`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounters {
    /// Total bytes handed back by the OS.
    pub bytes_read: u64,
    /// Number of `read` calls issued.
    pub read_calls: u64,
    /// Time the scanning thread spent inside `read` calls — the "waiting
    /// for bytes" (I/O) slice of the execution breakdown.
    pub stall: Duration,
    /// Refills re-issued by [`RetryBlocks`] after a transient read error
    /// (injected or real). Zero on a healthy scan.
    pub retries: u64,
}

impl IoCounters {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: IoCounters) {
        self.bytes_read += other.bytes_read;
        self.read_calls += other.read_calls;
        self.stall += other.stall;
        self.retries += other.retries;
    }
}

/// One line of the file as exposed by [`BlockScanner::next_line`].
#[derive(Debug, Clone, Copy)]
pub struct LineRef<'a> {
    /// Zero-based line number (header excluded if skipped by the caller).
    pub line_no: u64,
    /// Byte offset of the first byte of this line in the file.
    pub offset: u64,
    /// Line content without the trailing newline (and without `\r`).
    pub bytes: &'a [u8],
}

/// Streaming line reader over fixed-size blocks.
///
/// Usage:
/// ```no_run
/// # use nodb_rawcsv::reader::BlockScanner;
/// let mut scanner = BlockScanner::open("data.csv", 1 << 20).unwrap();
/// while let Some(line) = scanner.next_line().unwrap() {
///     let _ = (line.line_no, line.offset, line.bytes);
/// }
/// ```
pub struct BlockScanner {
    source: Box<dyn BlockSource>,
    win: Window,
    eof: bool,
    next_line_no: u64,
}

/// Read granularity beyond a [`BlockSource::set_read_cap`] cap (one page:
/// enough for the typical tail line in one step without over-reading into
/// the next scanner's slice). Also the smallest accepted block size.
const TAIL_READ: usize = 4096;

/// The scanner-side view of the byte stream: a growable window where
/// `buf[pos..filled]` is the unconsumed bytes and `file_offset` is the file
/// position of `buf[0]`.
#[derive(Debug, Default)]
pub struct Window {
    /// Backing buffer.
    pub buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    pub pos: usize,
    /// End of the valid bytes.
    pub filled: usize,
    /// File offset of `buf[0]`.
    pub file_offset: u64,
}

impl Window {
    /// Empty window positioned at `offset`.
    pub fn at(offset: u64) -> Self {
        Window {
            file_offset: offset,
            ..Window::default()
        }
    }

    /// Slide the unconsumed tail to the front before a read appends to it.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.file_offset += self.pos as u64;
            self.filled -= self.pos;
            self.pos = 0;
        }
    }
}

/// A sequential block supplier for [`BlockScanner`]: where the bytes come
/// from is this trait's business; line reassembly stays in the scanner. See
/// the module docs for why every stack of implementations yields an
/// identical byte stream.
pub trait BlockSource: Send {
    /// Produce the next sequential chunk into `win`: the unconsumed tail
    /// `buf[pos..filled]` must be preserved (contiguously, ending where the
    /// fresh bytes begin) and `file_offset` kept consistent. Returns the
    /// number of fresh bytes appended; `0` means end of stream.
    fn refill(&mut self, win: &mut Window) -> Result<usize>;

    /// Restart sequential reading at `offset` (the caller resets its
    /// window).
    fn seek(&mut self, offset: u64) -> Result<()>;

    /// Soft read cap: reads stop short of this file offset, then degrade to
    /// `TAIL_READ`-sized steps for the (usually short) line straddling
    /// it. `u64::MAX` = uncapped. Set by [`RangeScanner`]: a scanner over a
    /// small slice of a large file must not pull a whole block past its
    /// range — with many fine-grained partition slices that amplifies I/O
    /// by `block_size / slice_len`.
    fn set_read_cap(&mut self, cap: u64);

    /// Hard read limit: never read at or past this file offset (end of
    /// stream there instead). Used by [`count_lines_in_range`], which knows
    /// its exact byte range up front.
    fn set_read_limit(&mut self, limit: u64);

    /// Counters accumulated so far.
    fn counters(&self) -> IoCounters;

    /// Return and reset the counters.
    fn take_counters(&mut self) -> IoCounters;

    /// Install a cooperative interrupt flag: once it reads `true`, the next
    /// `refill` fails with a *non-transient* "scan interrupted" error
    /// instead of touching the file, so a cancelled query stops pulling
    /// blocks mid-stream. Default: ignore the flag.
    fn set_interrupt(&mut self, _flag: Arc<AtomicBool>) {}
}

/// The error a [`BlockSource`] raises when its interrupt flag trips.
/// `ErrorKind::Other` with no OS errno, so [`is_transient_io`] never
/// classifies it as retryable — cancellation must not be retried away.
fn interrupted_error(path: &Path) -> RawCsvError {
    RawCsvError::io(
        format!("read {}", path.display()),
        std::io::Error::other("scan interrupted by query context"),
    )
}

/// Should a failed refill be retried? Only errors that are plausibly
/// transient at the device/syscall layer: `EIO`/`EAGAIN` by errno, or the
/// interrupted/would-block/timed-out kinds. Interrupt-flag errors and
/// parse-layer errors are final.
pub fn is_transient_io(err: &RawCsvError) -> bool {
    match err {
        RawCsvError::Io { source, .. } => {
            matches!(source.raw_os_error(), Some(5) | Some(11))
                || matches!(
                    source.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                )
        }
        _ => false,
    }
}

/// Bytes to request when positioned at file offset `pos`: block-sized until
/// the soft cap, page-sized tail steps beyond it, truncated at the hard
/// limit (0 = stop).
fn read_size_at(pos: u64, block_size: usize, cap: u64, limit: u64) -> usize {
    if pos >= limit {
        return 0;
    }
    let base = if pos >= cap {
        TAIL_READ as u64
    } else {
        (block_size as u64).min(cap - pos).max(TAIL_READ as u64)
    };
    // lint: cast-ok result ≤ block_size.max(TAIL_READ), both usize-valued
    base.min(limit - pos) as usize
}

/// The file-backed source: blocking block-sized `read`s on the scanning
/// thread.
pub struct SyncBlocks {
    file: File,
    path: PathBuf,
    block_size: usize,
    read_cap: u64,
    read_limit: u64,
    /// Next file offset to read.
    pos: u64,
    counters: IoCounters,
    interrupt: Option<Arc<AtomicBool>>,
}

impl SyncBlocks {
    /// Open `path` for sequential block reads.
    pub fn open(path: impl AsRef<Path>, block_size: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)
            .map_err(|e| RawCsvError::io(format!("open {}", path.display()), e))?;
        Ok(SyncBlocks {
            file,
            path,
            block_size: block_size.max(TAIL_READ),
            read_cap: u64::MAX,
            read_limit: u64::MAX,
            pos: 0,
            counters: IoCounters::default(),
            interrupt: None,
        })
    }
}

impl BlockSource for SyncBlocks {
    fn refill(&mut self, win: &mut Window) -> Result<usize> {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                return Err(interrupted_error(&self.path));
            }
        }
        win.compact();
        let want = read_size_at(self.pos, self.block_size, self.read_cap, self.read_limit);
        if want == 0 {
            return Ok(0);
        }
        if win.buf.len() < win.filled + want {
            win.buf.resize(win.filled + want, 0);
        }
        let t = Instant::now();
        let n = self
            .file
            .read(&mut win.buf[win.filled..win.filled + want])
            .map_err(|e| RawCsvError::io(format!("read {}", self.path.display()), e))?;
        self.counters.stall += t.elapsed();
        self.counters.read_calls += 1;
        self.counters.bytes_read += n as u64;
        self.pos += n as u64;
        win.filled += n;
        Ok(n)
    }

    fn seek(&mut self, offset: u64) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| RawCsvError::io(format!("seek {}", self.path.display()), e))?;
        self.pos = offset;
        Ok(())
    }

    fn set_read_cap(&mut self, cap: u64) {
        self.read_cap = cap;
    }

    fn set_read_limit(&mut self, limit: u64) {
        self.read_limit = limit;
    }

    fn counters(&self) -> IoCounters {
        self.counters
    }

    fn take_counters(&mut self) -> IoCounters {
        std::mem::take(&mut self.counters)
    }

    fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }
}

/// Deterministic fault schedule for [`FaultyBlocks`]: a seeded PRNG decides
/// per refill whether to inject, and which of the three fault kinds
/// (transient `EIO`, injected latency, short read). Same seed + same refill
/// sequence = same faults, which is what makes chaos runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed (splitmix64 stream).
    pub seed: u64,
    /// Inject on roughly one refill in `one_in` (clamped to at least 1).
    pub one_in: u32,
    /// Sleep this long when the latency fault fires.
    pub latency_us: u64,
}

/// Resilience knobs for a scan's I/O stack, applied by [`make_source_with`]:
/// optional deterministic fault injection (innermost) and bounded retry
/// with backoff (outermost). The default profile is a no-op — no wrapper is
/// stacked at all — so existing callers keep byte- and counter-identical
/// behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoProfile {
    /// Re-issue a failed refill up to this many times when the error is
    /// transient ([`is_transient_io`]). `0` disables retry entirely.
    pub retry_attempts: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub retry_backoff_ms: u64,
    /// Inject deterministic faults (tests/CI chaos runs only).
    pub faults: Option<FaultPlan>,
}

/// A [`BlockSource`] decorator that injects deterministic, *recoverable*
/// faults: transient `EIO` (the refill fails without touching the inner
/// source, so a retry succeeds), injected latency (a sleep before a normal
/// read), and short reads (the inner hard limit is temporarily clamped one
/// page ahead, then restored — the concatenated byte stream is unchanged,
/// only the block boundaries move). Never injects twice in a row, so a
/// single retry always clears an injected error.
pub struct FaultyBlocks {
    inner: Box<dyn BlockSource>,
    plan: FaultPlan,
    rng: u64,
    /// Mirror of the inner source's position (refill advances, seek resets)
    /// so short-read clamps can be computed without querying the inner.
    pos: u64,
    /// The real hard limit, restored after each short-read clamp.
    read_limit: u64,
    last_was_fault: bool,
}

impl FaultyBlocks {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: Box<dyn BlockSource>, plan: FaultPlan) -> Self {
        FaultyBlocks {
            inner,
            plan,
            rng: plan.seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
            pos: 0,
            read_limit: u64::MAX,
            last_was_fault: false,
        }
    }

    /// splitmix64 step.
    fn next_draw(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl BlockSource for FaultyBlocks {
    fn refill(&mut self, win: &mut Window) -> Result<usize> {
        let draw = self.next_draw();
        let one_in = self.plan.one_in.max(1) as u64;
        let inject = !self.last_was_fault && draw.is_multiple_of(one_in);
        self.last_was_fault = false;
        if inject {
            match (draw / one_in) % 3 {
                0 => {
                    self.last_was_fault = true;
                    return Err(RawCsvError::io(
                        "injected transient fault".to_string(),
                        std::io::Error::from_raw_os_error(5), // EIO
                    ));
                }
                1 => {
                    // Latency only: the read below proceeds normally.
                    std::thread::sleep(Duration::from_micros(self.plan.latency_us));
                }
                _ => {
                    // Short read: clamp the inner hard limit one page ahead
                    // so this refill returns at most TAIL_READ fresh bytes,
                    // then restore the real limit. Position-only state means
                    // the byte stream is unaffected.
                    self.last_was_fault = true;
                    let short = (self.pos + TAIL_READ as u64).min(self.read_limit);
                    self.inner.set_read_limit(short);
                    let r = self.inner.refill(win);
                    self.inner.set_read_limit(self.read_limit);
                    let n = r?;
                    self.pos += n as u64;
                    return Ok(n);
                }
            }
        }
        let n = self.inner.refill(win)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn seek(&mut self, offset: u64) -> Result<()> {
        self.inner.seek(offset)?;
        self.pos = offset;
        Ok(())
    }

    fn set_read_cap(&mut self, cap: u64) {
        self.inner.set_read_cap(cap);
    }

    fn set_read_limit(&mut self, limit: u64) {
        self.read_limit = limit;
        self.inner.set_read_limit(limit);
    }

    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }

    fn take_counters(&mut self) -> IoCounters {
        self.inner.take_counters()
    }

    fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.inner.set_interrupt(flag);
    }
}

/// A [`BlockSource`] decorator that re-issues a failed refill up to
/// `attempts` times when the error is transient ([`is_transient_io`]),
/// sleeping an exponentially growing backoff between tries. Safe because a
/// failed refill never advances the source's position: [`SyncBlocks`]
/// forwards the error before bumping `pos`, and [`FaultyBlocks`] fails
/// without touching its inner source. Retries are tallied into
/// [`IoCounters::retries`].
pub struct RetryBlocks {
    inner: Box<dyn BlockSource>,
    attempts: u32,
    backoff_ms: u64,
    retries: u64,
}

impl RetryBlocks {
    /// Wrap `inner` with bounded retry.
    pub fn new(inner: Box<dyn BlockSource>, attempts: u32, backoff_ms: u64) -> Self {
        RetryBlocks {
            inner,
            attempts,
            backoff_ms,
            retries: 0,
        }
    }
}

impl BlockSource for RetryBlocks {
    fn refill(&mut self, win: &mut Window) -> Result<usize> {
        let mut attempt = 0u32;
        loop {
            match self.inner.refill(win) {
                Err(e) if attempt < self.attempts && is_transient_io(&e) => {
                    attempt += 1;
                    self.retries += 1;
                    let backoff = self.backoff_ms.saturating_mul(1u64 << (attempt - 1).min(6));
                    if backoff > 0 {
                        std::thread::sleep(Duration::from_millis(backoff));
                    }
                }
                other => return other,
            }
        }
    }

    fn seek(&mut self, offset: u64) -> Result<()> {
        self.inner.seek(offset)
    }

    fn set_read_cap(&mut self, cap: u64) {
        self.inner.set_read_cap(cap);
    }

    fn set_read_limit(&mut self, limit: u64) {
        self.inner.set_read_limit(limit);
    }

    fn counters(&self) -> IoCounters {
        let mut c = self.inner.counters();
        c.retries += self.retries;
        c
    }

    fn take_counters(&mut self) -> IoCounters {
        let mut c = self.inner.take_counters();
        c.retries += std::mem::take(&mut self.retries);
        c
    }

    fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.inner.set_interrupt(flag);
    }
}

/// Build the [`BlockSource`] stack for `path` under an [`IoProfile`]: a
/// [`SyncBlocks`] wrapped innermost-out with [`FaultyBlocks`] (when a fault
/// plan is set) and [`RetryBlocks`] (when retries are enabled) — so retry
/// sits *above* injection. A default profile stacks nothing.
pub fn make_source_with(
    path: impl AsRef<Path>,
    block_size: usize,
    profile: IoProfile,
) -> Result<Box<dyn BlockSource>> {
    let mut source: Box<dyn BlockSource> = Box::new(SyncBlocks::open(path, block_size)?);
    if let Some(plan) = profile.faults {
        source = Box::new(FaultyBlocks::new(source, plan));
    }
    if profile.retry_attempts > 0 {
        source = Box::new(RetryBlocks::new(
            source,
            profile.retry_attempts,
            profile.retry_backoff_ms,
        ));
    }
    Ok(source)
}

impl BlockScanner {
    /// Open `path` for a sequential scan with the given block size.
    pub fn open(path: impl AsRef<Path>, block_size: usize) -> Result<Self> {
        Self::open_with_profile(path, block_size, IoProfile::default())
    }

    /// [`Self::open`] with an [`IoProfile`] (retry / fault-injection stack
    /// — see [`make_source_with`]).
    pub fn open_with_profile(
        path: impl AsRef<Path>,
        block_size: usize,
        profile: IoProfile,
    ) -> Result<Self> {
        Ok(Self::from_source(make_source_with(
            path, block_size, profile,
        )?))
    }

    /// Scan over an arbitrary [`BlockSource`].
    pub fn from_source(source: Box<dyn BlockSource>) -> Self {
        BlockScanner {
            source,
            win: Window::default(),
            eof: false,
            next_line_no: 0,
        }
    }

    /// Open with [`DEFAULT_BLOCK_SIZE`].
    pub fn open_default(path: impl AsRef<Path>) -> Result<Self> {
        Self::open(path, DEFAULT_BLOCK_SIZE)
    }

    /// Restart the scan from offset `offset` (used to resume over appended
    /// data without re-reading the prefix). Resets line numbering to
    /// `line_no`.
    pub fn seek_to(&mut self, offset: u64, line_no: u64) -> Result<()> {
        self.source.seek(offset)?;
        self.win.buf.clear();
        self.win.pos = 0;
        self.win.filled = 0;
        self.win.file_offset = offset;
        self.eof = false;
        self.next_line_no = line_no;
        Ok(())
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> IoCounters {
        self.source.counters()
    }

    /// Return and reset the counters.
    pub fn take_counters(&mut self) -> IoCounters {
        self.source.take_counters()
    }

    /// Produce the next line, or `None` at end of file.
    ///
    /// The returned slice borrows the internal buffer and is valid until the
    /// next call.
    pub fn next_line(&mut self) -> Result<Option<LineRef<'_>>> {
        loop {
            // Look for a newline in the unconsumed window.
            if let Some(nl) = find_byte(&self.win.buf[self.win.pos..self.win.filled], b'\n') {
                let start = self.win.pos;
                let end = start + nl;
                self.win.pos = end + 1;
                let offset = self.win.file_offset + start as u64;
                let line_no = self.next_line_no;
                self.next_line_no += 1;
                let bytes = trim_cr(&self.win.buf[start..end]);
                return Ok(Some(LineRef {
                    line_no,
                    offset,
                    bytes,
                }));
            }
            if self.eof {
                // Final unterminated line, if any.
                if self.win.pos < self.win.filled {
                    let start = self.win.pos;
                    self.win.pos = self.win.filled;
                    let offset = self.win.file_offset + start as u64;
                    let line_no = self.next_line_no;
                    self.next_line_no += 1;
                    let bytes = trim_cr(&self.win.buf[start..self.win.filled]);
                    return Ok(Some(LineRef {
                        line_no,
                        offset,
                        bytes,
                    }));
                }
                return Ok(None);
            }
            self.refill()?;
        }
    }

    /// Produce the next line *and* tokenize its leading fields in the same
    /// byte pass (plain, unquoted configurations only).
    ///
    /// The classic loop pays two passes over every tuple prefix: one SWAR
    /// scan locating `\n` (line splitting) and a second locating delimiters
    /// (tokenizing). This fused variant uses [`find_byte2`] to match
    /// *delimiter or newline* per 8-byte word, so each prefix byte is
    /// visited once; once `upto_field` fields are delimited (selective
    /// tokenizing), the remainder of the tuple degrades to a single-needle
    /// newline scan. `out` afterwards holds exactly what
    /// [`crate::tokenizer::TokenizerConfig::tokenize_selective`] would have
    /// produced for the returned line.
    pub fn next_line_tokenized(
        &mut self,
        delimiter: u8,
        upto_field: usize,
        out: &mut Tokens,
    ) -> Result<Option<LineRef<'_>>> {
        out.begin_line();
        // All cursors are relative to the line start (`self.win.pos`), which
        // does not advance until the line is complete: `refill` preserves
        // the unconsumed tail contiguously (compaction), so absolute
        // positions shift while relative ones stay valid.
        let mut rel = 0usize; // scan cursor
        let mut field_start = 0usize; // current field start
        let mut fields_done = false; // located every requested field
        loop {
            let window = &self.win.buf[self.win.pos + rel..self.win.filled];
            let hit = if fields_done {
                find_byte(window, b'\n').map(|p| (p, b'\n'))
            } else {
                find_byte2(window, delimiter, b'\n')
            };
            match hit {
                Some((off, b)) if b == delimiter => {
                    let at = rel + off;
                    // lint: cast-ok line-relative span; lines ≤ io_block_size (≤ 256 MiB)
                    out.push_span(field_start as u32, at as u32);
                    if out.len() > upto_field {
                        fields_done = true;
                    }
                    field_start = at + 1;
                    rel = at + 1;
                }
                Some((off, _newline)) => {
                    let at = rel + off;
                    return Ok(Some(self.emit_line(
                        at,
                        true,
                        field_start,
                        fields_done,
                        out,
                    )));
                }
                None => {
                    if self.eof {
                        if self.win.pos < self.win.filled {
                            let at = self.win.filled - self.win.pos;
                            return Ok(Some(self.emit_line(
                                at,
                                false,
                                field_start,
                                fields_done,
                                out,
                            )));
                        }
                        return Ok(None);
                    }
                    rel = self.win.filled - self.win.pos; // resume where the scan stopped
                    self.refill()?;
                }
            }
        }
    }

    /// Finish the fused scan of one line: push the final span, consume the
    /// buffer, and build the [`LineRef`]. `line_len` is relative to the line
    /// start; `terminated` tells whether a `\n` follows.
    fn emit_line(
        &mut self,
        line_len: usize,
        terminated: bool,
        field_start: usize,
        fields_done: bool,
        out: &mut Tokens,
    ) -> LineRef<'_> {
        let start = self.win.pos;
        let trimmed = trim_cr(&self.win.buf[start..start + line_len]).len();
        if !fields_done {
            // Final field runs to the (CR-trimmed) end of the line.
            // lint: cast-ok line-relative span; lines ≤ io_block_size (≤ 256 MiB)
            out.push_span(field_start.min(trimmed) as u32, trimmed as u32);
            out.mark_complete();
        }
        self.win.pos = start + line_len + usize::from(terminated);
        let offset = self.win.file_offset + start as u64;
        let line_no = self.next_line_no;
        self.next_line_no += 1;
        LineRef {
            line_no,
            offset,
            bytes: &self.win.buf[start..start + trimmed],
        }
    }

    /// Restrict reads to stop at file offset `cap` and continue in
    /// `TAIL_READ`-sized steps beyond it (for the line straddling the
    /// cap). Lines are still produced normally past the cap — this caps
    /// how far reads run ahead, not the scan.
    pub fn set_read_cap(&mut self, cap: u64) {
        self.source.set_read_cap(cap);
    }

    /// The file offset of the next unconsumed byte. After a line is
    /// produced this points just past its terminator (or, for a final
    /// unterminated line, just past its last byte) — so at end of stream
    /// it equals the number of file bytes the scan actually saw.
    pub fn position(&self) -> u64 {
        self.win.file_offset + self.win.pos as u64
    }

    /// Whether the underlying source reported end of stream. Combined with
    /// [`Self::position`] a caller that knows the expected file length can
    /// tell a clean end from a file that shrank mid-scan.
    pub fn at_eof(&self) -> bool {
        self.eof
    }

    /// Install a cooperative interrupt flag on the underlying source (see
    /// [`BlockSource::set_interrupt`]).
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.source.set_interrupt(flag);
    }

    /// Pull the next sequential chunk from the source into the window.
    fn refill(&mut self) -> Result<()> {
        if self.source.refill(&mut self.win)? == 0 {
            self.eof = true;
        }
        Ok(())
    }
}

/// One partition of a raw file for the parallel scan: the byte range
/// `[start, end)`, where `start` is the first byte of a line (or 0) and
/// `end` is either the first byte of a later line or the file length.
///
/// Ownership discipline: a scanner over the range owns every line whose
/// *first byte* lies inside it. A line that starts before `end` but runs
/// past it still belongs to this range (its reader scans past `end` to the
/// terminating newline); a line starting exactly at `end` belongs to the
/// next range. Ranges produced by [`partition_line_ranges`] therefore cover
/// every line exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRange {
    /// First byte of the range (a line start, or 0).
    pub start: u64,
    /// One past the last byte of the range (a line start, or the file end).
    pub end: u64,
}

/// Split `path` into up to `parts` line-aligned [`LineRange`]s of roughly
/// equal byte size.
///
/// Each candidate split point (`len * k / parts`) is snapped forward to the
/// next line start by probing for the following `\n`. Snapping can collapse
/// neighbouring candidates (very long lines), so the result may hold fewer
/// ranges than requested — but always at least one for a non-empty file, and
/// the ranges concatenate to exactly `[0, len)`.
///
/// Files smaller than `parts` bytes are special-cased: equal-byte targets
/// there collapse so badly that the snap loop used to return fewer
/// partitions than the line count supports, leaving workers idle. For those
/// the whole file is read (it is tiny by definition) and split line-exactly
/// into `min(parts, lines)` ranges.
pub fn partition_line_ranges(path: impl AsRef<Path>, parts: usize) -> Result<Vec<LineRange>> {
    partition_line_ranges_capped(path, parts, 0, u64::MAX)
}

/// [`partition_line_ranges`] over a sub-range of the file: the ranges cover
/// `[start, min(file_len, max_len))`, where `start` is the first line start
/// at or after `from`.
///
/// `from` lets a caller that already knows the file's leading rows partition
/// only what follows them: given any offset inside the last known row past
/// its first byte, the ranges begin at the first row it does not know.
///
/// `max_len` is an externally known length. Callers that fingerprinted the
/// file earlier (a source epoch) pass the fingerprinted length so that (a) a
/// file that *grew* since the fingerprint is partitioned only up to the
/// known-good prefix (a concurrent appender's torn tail is never handed to a
/// scanner), and (b) a file that *shrank* between `stat` and open yields
/// ranges that never seek past EOF.
pub fn partition_line_ranges_capped(
    path: impl AsRef<Path>,
    parts: usize,
    from: u64,
    max_len: u64,
) -> Result<Vec<LineRange>> {
    let path = path.as_ref();
    let mut file =
        File::open(path).map_err(|e| RawCsvError::io(format!("open {}", path.display()), e))?;
    let len = file
        .metadata()
        .map_err(|e| RawCsvError::io(format!("stat {}", path.display()), e))?
        .len()
        .min(max_len);
    let start = next_line_start_at_or_after(&mut file, path, from, len)?;
    if start >= len {
        return Ok(Vec::new());
    }
    let span = len - start;
    if span < parts as u64 {
        return partition_tiny_span(&mut file, path, start, len, parts);
    }
    let mut cuts: Vec<u64> = vec![start];
    let mut last_cut = start;
    for k in 1..parts {
        let target = start + (span as u128 * k as u128 / parts as u128) as u64;
        let cut = next_line_start_at_or_after(&mut file, path, target, len)?;
        if cut < len && cut > last_cut {
            cuts.push(cut);
            last_cut = cut;
        }
    }
    cuts.push(len);
    Ok(cuts
        .windows(2)
        .map(|w| LineRange {
            start: w[0],
            end: w[1],
        })
        .collect())
}

/// Exact split of a span `[start, len)` smaller than `parts` bytes: read it
/// whole, list every line start, and deal lines out to exactly
/// `min(parts, lines)` ranges, near-equal in line count.
fn partition_tiny_span(
    file: &mut File,
    path: &Path,
    start: u64,
    len: u64,
    parts: usize,
) -> Result<Vec<LineRange>> {
    file.seek(SeekFrom::Start(start))
        .map_err(|e| RawCsvError::io(format!("seek {}", path.display()), e))?;
    // The span is < `parts` bytes by definition, and ends at `len` even when
    // the file is longer (a source epoch older than a concurrent append).
    let mut bytes = Vec::new();
    file.take(len - start)
        .read_to_end(&mut bytes)
        .map_err(|e| RawCsvError::io(format!("read {}", path.display()), e))?;
    let mut starts: Vec<u64> = vec![start];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' && i + 1 < bytes.len() {
            starts.push(start + i as u64 + 1);
        }
    }
    let lines = starts.len();
    let nparts = parts.min(lines).max(1);
    let mut ranges = Vec::with_capacity(nparts);
    for k in 0..nparts {
        let lo = lines * k / nparts;
        let hi = lines * (k + 1) / nparts;
        let start = starts[lo];
        let end = if hi < lines { starts[hi] } else { len };
        ranges.push(LineRange { start, end });
    }
    Ok(ranges)
}

/// Count the lines a [`LineRange`] *owns* (lines whose first byte lies in
/// `[start, end)`), in one SWAR pass over block reads.
///
/// A non-empty range starts at a line start, so it owns one line plus one
/// per `\n` in `[start, end - 1)` (the newline at `end - 1`, if any,
/// terminates the range's last line rather than starting a new owned one —
/// see the [`LineRange`] ownership discipline). No line reassembly, no
/// copies: the block buffer is only ever scanned by [`count_byte`]; the hard
/// read limit keeps the source from reading a single byte past
/// `range.end - 1`. Returns the owned-line count together with the I/O
/// performed.
pub fn count_lines_in_range(
    path: impl AsRef<Path>,
    block_size: usize,
    range: LineRange,
) -> Result<(u64, IoCounters)> {
    if range.end <= range.start {
        return Ok((0, IoCounters::default()));
    }
    let mut source = make_source_with(path, block_size, IoProfile::default())?;
    if range.start > 0 {
        source.seek(range.start)?;
    }
    source.set_read_limit(range.end - 1); // counting window is [start, end-1)
    let mut win = Window::at(range.start);
    let mut lines = 1u64; // the line starting at `range.start`
    loop {
        // A short read (file shrank under us) ends the loop too.
        if source.refill(&mut win)? == 0 {
            break;
        }
        lines += count_byte(&win.buf[win.pos..win.filled], b'\n') as u64;
        win.pos = win.filled; // fully consumed: nothing to carry over
    }
    Ok((lines, source.take_counters()))
}

/// Byte offset of the first line that starts at or after `from`: scan
/// forward for the next `\n` and return the byte after it (`len` when the
/// tail has no further newline).
fn next_line_start_at_or_after(file: &mut File, path: &Path, from: u64, len: u64) -> Result<u64> {
    if from == 0 {
        return Ok(0);
    }
    // A line starting exactly at `from` is recognized by the newline just
    // before it, so the probe starts one byte early.
    let mut pos = from - 1;
    file.seek(SeekFrom::Start(pos))
        .map_err(|e| RawCsvError::io(format!("seek {}", path.display()), e))?;
    let mut buf = [0u8; 4096];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| RawCsvError::io(format!("read {}", path.display()), e))?;
        if n == 0 {
            return Ok(len);
        }
        if let Some(i) = find_byte(&buf[..n], b'\n') {
            return Ok(pos + i as u64 + 1);
        }
        pos += n as u64;
    }
}

/// A [`BlockScanner`] restricted to one [`LineRange`] — the per-worker
/// reader of the parallel scan. Yields exactly the lines the range owns,
/// with the same offsets a whole-file scan would report.
pub struct RangeScanner {
    inner: BlockScanner,
    end: u64,
    done: bool,
}

impl RangeScanner {
    /// Open `path` positioned at `range.start`.
    ///
    /// `first_line_no` seeds line numbering (purely informational; the
    /// caller usually knows how many lines precede the range, or passes 0).
    pub fn open(
        path: impl AsRef<Path>,
        block_size: usize,
        range: LineRange,
        first_line_no: u64,
    ) -> Result<Self> {
        Self::open_with_profile(path, block_size, range, first_line_no, IoProfile::default())
    }

    /// [`Self::open`] with an [`IoProfile`] (retry / fault-injection stack
    /// — see [`make_source_with`]).
    pub fn open_with_profile(
        path: impl AsRef<Path>,
        block_size: usize,
        range: LineRange,
        first_line_no: u64,
        profile: IoProfile,
    ) -> Result<Self> {
        let mut inner = BlockScanner::open_with_profile(path, block_size, profile)?;
        if range.start > 0 {
            inner.seek_to(range.start, first_line_no)?;
        }
        // Stop block-sized reads at the range end (plus page-sized steps
        // for the final straddling line): with many fine-grained slices,
        // full-block reads would multiply I/O by `block_size / slice_len`.
        inner.set_read_cap(range.end);
        Ok(RangeScanner {
            inner,
            end: range.end,
            done: false,
        })
    }

    /// Next owned line, or `None` once the range is exhausted.
    pub fn next_line(&mut self) -> Result<Option<LineRef<'_>>> {
        if self.done {
            return Ok(None);
        }
        match self.inner.next_line()? {
            Some(l) if l.offset < self.end => Ok(Some(l)),
            _ => {
                self.done = true;
                Ok(None)
            }
        }
    }

    /// Fused variant of [`Self::next_line`]: tokenize the line's leading
    /// fields in the same byte pass (see
    /// [`BlockScanner::next_line_tokenized`]).
    pub fn next_line_tokenized(
        &mut self,
        delimiter: u8,
        upto_field: usize,
        out: &mut Tokens,
    ) -> Result<Option<LineRef<'_>>> {
        if self.done {
            return Ok(None);
        }
        match self.inner.next_line_tokenized(delimiter, upto_field, out)? {
            Some(l) if l.offset < self.end => Ok(Some(l)),
            _ => {
                self.done = true;
                Ok(None)
            }
        }
    }

    /// The I/O counters accumulated so far.
    pub fn counters(&self) -> IoCounters {
        self.inner.counters()
    }

    /// Return and reset the I/O counters.
    pub fn take_counters(&mut self) -> IoCounters {
        self.inner.take_counters()
    }

    /// Install a cooperative interrupt flag on the underlying source (see
    /// [`BlockSource::set_interrupt`]).
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.inner.set_interrupt(flag);
    }

    /// The file offset of the next unconsumed byte (see
    /// [`BlockScanner::position`]).
    pub fn position(&self) -> u64 {
        self.inner.position()
    }

    /// Whether the scan ran out of file *before* reaching the range end:
    /// the source reported end of stream while the read position is still
    /// short of `range.end`. A clean exhaustion (a line starting at or
    /// after `end`, or the file ending exactly at `end`) never trips this —
    /// only a file that shrank after the range was planned does. Callers
    /// should consult this both after every produced line (a truncation
    /// mid-line surfaces as a bogus final unterminated line *before* the
    /// scanner returns `None`) and when `next_line` returns `None`.
    pub fn ended_short(&self) -> bool {
        self.inner.at_eof() && self.inner.position() < self.end
    }
}

/// FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Read an entire file into memory (used by the conventional loaders, where
/// the full parse dominates anyway).
pub fn read_full(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| RawCsvError::io(format!("read {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(name: &str, content: &[u8]) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_rawcsv_test_{name}_{}", std::process::id()));
        let mut f = File::create(&p).unwrap();
        f.write_all(content).unwrap();
        p
    }

    fn collect_lines(path: &Path, block: usize) -> Vec<(u64, u64, Vec<u8>)> {
        let mut sc = BlockScanner::open(path, block).unwrap();
        let mut out = Vec::new();
        while let Some(l) = sc.next_line().unwrap() {
            out.push((l.line_no, l.offset, l.bytes.to_vec()));
        }
        out
    }

    /// Drain a source to EOF, returning the concatenated byte stream.
    fn drain_source(src: &mut dyn BlockSource) -> Vec<u8> {
        let mut win = Window::default();
        let mut bytes = Vec::new();
        loop {
            let n = src.refill(&mut win).unwrap();
            if n == 0 {
                break;
            }
            bytes.extend_from_slice(&win.buf[win.pos..win.filled]);
            win.pos = win.filled;
        }
        bytes
    }

    #[test]
    fn faulty_stream_with_retry_is_byte_identical_and_deterministic() {
        let mut content = Vec::new();
        for i in 0..6000 {
            content.extend_from_slice(format!("{i},name_{i},{}\n", i % 13).as_bytes());
        }
        let p = tmp_file("faulty", &content);
        let profile = IoProfile {
            retry_attempts: 2,
            retry_backoff_ms: 0,
            faults: Some(FaultPlan {
                seed: 0x5eed,
                one_in: 3,
                latency_us: 10,
            }),
        };
        let mut counters = Vec::new();
        for _ in 0..2 {
            let mut src = make_source_with(&p, 4096, profile).unwrap();
            let bytes = drain_source(src.as_mut());
            assert_eq!(bytes, content, "faults must never corrupt the stream");
            counters.push(src.take_counters());
        }
        // `stall` is wall-clock and excluded; everything the fault
        // schedule controls must replay exactly.
        let key = |c: &IoCounters| (c.bytes_read, c.read_calls, c.retries);
        assert_eq!(
            key(&counters[0]),
            key(&counters[1]),
            "seeded fault schedule must be reproducible"
        );
        assert!(
            counters[0].retries > 0,
            "one_in=3 over dozens of refills must inject at least one EIO"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn injected_eio_without_retry_surfaces_as_transient() {
        let content = vec![b'a'; 64 * 1024];
        let p = tmp_file("eio_surface", &content);
        let profile = IoProfile {
            retry_attempts: 0,
            retry_backoff_ms: 0,
            faults: Some(FaultPlan {
                seed: 1,
                one_in: 1, // every eligible refill faults
                latency_us: 0,
            }),
        };
        let mut src = make_source_with(&p, 4096, profile).unwrap();
        let mut win = Window::default();
        let mut saw_err = false;
        for _ in 0..8 {
            match src.refill(&mut win) {
                Ok(_) => win.pos = win.filled,
                Err(e) => {
                    assert!(is_transient_io(&e), "injected EIO must classify transient");
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(
            saw_err,
            "one_in=1 must inject an error within a few refills"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn interrupt_flag_stops_refills_with_final_error() {
        let content = vec![b'x'; 32 * 1024];
        let p = tmp_file("interrupt", &content);
        let flag = Arc::new(AtomicBool::new(false));
        let mut src = SyncBlocks::open(&p, 4096).unwrap();
        src.set_interrupt(Arc::clone(&flag));
        let mut win = Window::default();
        assert!(
            src.refill(&mut win).unwrap() > 0,
            "runs until the flag trips"
        );
        win.pos = win.filled;
        flag.store(true, Ordering::Relaxed);
        let err = src.refill(&mut win).unwrap_err();
        assert!(
            !is_transient_io(&err),
            "interrupt errors must never be retried away"
        );
        assert!(err.to_string().contains("interrupted"), "got: {err}");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn lines_across_block_boundaries() {
        let content = b"aaaa,1\nbbbb,2\ncccc,3\n";
        let p = tmp_file("blocks", content);
        // Block size is clamped to >= 4096 so use content larger than that
        // to exercise boundary handling separately below; here verify basic
        // correctness.
        let lines = collect_lines(&p, 4096);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], (0, 0, b"aaaa,1".to_vec()));
        assert_eq!(lines[1].1, 7);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn long_lines_grow_buffer() {
        let long = vec![b'x'; 10_000];
        let mut content = long.clone();
        content.push(b'\n');
        content.extend_from_slice(b"tail");
        let p = tmp_file("long", &content);
        let lines = collect_lines(&p, 4096);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].2.len(), 10_000);
        assert_eq!(lines[1].2, b"tail");
        assert_eq!(lines[1].1, 10_001);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn crlf_is_trimmed() {
        let p = tmp_file("crlf", b"a,b\r\nc,d\r\n");
        let lines = collect_lines(&p, 4096);
        assert_eq!(lines[0].2, b"a,b");
        assert_eq!(lines[1].2, b"c,d");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn counters_track_bytes() {
        let p = tmp_file("counters", b"1\n2\n3\n");
        let mut sc = BlockScanner::open(&p, 4096).unwrap();
        while sc.next_line().unwrap().is_some() {}
        assert_eq!(sc.counters().bytes_read, 6);
        assert!(sc.counters().read_calls >= 1);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn seek_resumes_mid_file() {
        let p = tmp_file("seek", b"aa\nbb\ncc\n");
        let mut sc = BlockScanner::open(&p, 4096).unwrap();
        sc.seek_to(3, 1).unwrap();
        let l = sc.next_line().unwrap().unwrap();
        assert_eq!(l.bytes, b"bb");
        assert_eq!(l.line_no, 1);
        assert_eq!(l.offset, 3);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn empty_file_yields_no_lines() {
        let p = tmp_file("empty", b"");
        assert!(collect_lines(&p, 4096).is_empty());
        std::fs::remove_file(p).unwrap();
    }

    fn gen_lines(n: usize) -> Vec<u8> {
        let mut content = Vec::new();
        for i in 0..n {
            content.extend_from_slice(format!("row{i},{},{}\n", i * 7, i % 13).as_bytes());
        }
        content
    }

    #[test]
    fn partitions_cover_every_line_once() {
        let content = gen_lines(257);
        let p = tmp_file("partition", &content);
        let whole = collect_lines(&p, 4096);
        for parts in [1usize, 2, 3, 7, 16, 300] {
            let ranges = partition_line_ranges(&p, parts).unwrap();
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, content.len() as u64);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile");
            }
            let mut merged = Vec::new();
            for r in &ranges {
                let mut sc = RangeScanner::open(&p, 4096, *r, 0).unwrap();
                while let Some(l) = sc.next_line().unwrap() {
                    assert!(l.offset >= r.start && l.offset < r.end);
                    merged.push((l.offset, l.bytes.to_vec()));
                }
            }
            let expect: Vec<(u64, Vec<u8>)> =
                whole.iter().map(|(_, o, b)| (*o, b.clone())).collect();
            assert_eq!(merged, expect, "parts = {parts}");
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn partition_of_empty_file_is_empty() {
        let p = tmp_file("partition_empty", b"");
        assert!(partition_line_ranges(&p, 4).unwrap().is_empty());
        std::fs::remove_file(p).unwrap();
    }

    /// Regression: a capped partitioning covers exactly `[0, cap)` even
    /// when the file on disk is longer (it grew after the cap was
    /// fingerprinted), for both the probing and the tiny-file paths.
    #[test]
    fn capped_partitions_ignore_bytes_past_cap() {
        let content = gen_lines(100);
        // Cap at a line boundary ~60% in.
        let cap = {
            let target = content.len() * 6 / 10;
            let nl = content[..target].iter().rposition(|&b| b == b'\n').unwrap();
            (nl + 1) as u64
        };
        let p = tmp_file("partition_capped", &content);
        for parts in [1usize, 3, 8] {
            let ranges = partition_line_ranges_capped(&p, parts, 0, cap).unwrap();
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, cap, "parts={parts}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
        std::fs::remove_file(&p).unwrap();

        // Tiny-file path: cap smaller than `parts`.
        let p = tmp_file("partition_capped_tiny", b"a\nb\nc\nd\n");
        let ranges = partition_line_ranges_capped(&p, 16, 0, 4).unwrap();
        assert_eq!(ranges.last().unwrap().end, 4);
        let owned: u64 = ranges.iter().map(|r| r.end - r.start).sum();
        assert_eq!(owned, 4, "exactly the capped prefix is covered");
        std::fs::remove_file(p).unwrap();
    }

    /// A cap at or above the file length is a no-op (same ranges as the
    /// uncapped partitioner), and a cap of zero yields no ranges.
    #[test]
    fn capped_partitions_degenerate_cases() {
        let content = gen_lines(50);
        let p = tmp_file("partition_cap_nop", &content);
        let plain = partition_line_ranges(&p, 4).unwrap();
        let capped = partition_line_ranges_capped(&p, 4, 0, content.len() as u64).unwrap();
        assert_eq!(plain, capped);
        assert!(partition_line_ranges_capped(&p, 4, 0, 0)
            .unwrap()
            .is_empty());
        std::fs::remove_file(p).unwrap();
    }

    /// A start offset partitions only the tail: the ranges begin at the
    /// first line start at or after `from` — given a byte inside line `k`,
    /// at line `k + 1` — and end at the cap, on the probing and the
    /// tiny-span paths alike.
    #[test]
    fn partitions_from_an_offset_cover_exactly_the_tail() {
        let content = gen_lines(120);
        let starts: Vec<u64> = std::iter::once(0)
            .chain(
                content
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .map(|(i, _)| i as u64 + 1),
            )
            .collect();
        let len = content.len() as u64;
        let p = tmp_file("partition_from", &content);
        for known in [1usize, 57, 117, 119] {
            for parts in [1usize, 4, 64, 4096] {
                // One byte into the last known line, and exactly on the
                // first unknown line's start: the same tail either way.
                for from in [starts[known - 1] + 1, starts[known]] {
                    let ranges = partition_line_ranges_capped(&p, parts, from, len).unwrap();
                    assert_eq!(
                        ranges[0].start, starts[known],
                        "known={known} parts={parts}"
                    );
                    assert_eq!(ranges.last().unwrap().end, len);
                    for w in ranges.windows(2) {
                        assert_eq!(w[0].end, w[1].start);
                    }
                    assert!(ranges.iter().all(|r| starts.contains(&r.start)));
                }
            }
        }
        // Nothing after the last line, and nothing below the cap.
        assert!(partition_line_ranges_capped(&p, 4, starts[119] + 1, len)
            .unwrap()
            .is_empty());
        assert!(
            partition_line_ranges_capped(&p, 4, starts[60] + 1, starts[60])
                .unwrap()
                .is_empty()
        );
        std::fs::remove_file(p).unwrap();
    }

    /// `ended_short` distinguishes a file that shrank mid-scan from a clean
    /// range exhaustion.
    #[test]
    fn range_scanner_reports_short_end_after_truncation() {
        let content = gen_lines(200);
        let len = content.len() as u64;
        let p = tmp_file("range_short", &content);

        // Clean full-range scan: never short.
        let range = LineRange { start: 0, end: len };
        let mut sc = RangeScanner::open(&p, 4096, range, 0).unwrap();
        while let Some(_l) = sc.next_line().unwrap() {}
        assert!(!sc.ended_short(), "clean EOF at range end is not short");

        // Truncate mid-file, deliberately mid-line (3 bytes past a line
        // start; every generated row is longer than that), then scan the
        // full planned range: the scanner must (a) surface the torn final
        // line as short *before* `None`, and (b) still be short at `None`.
        let cut = {
            let nl = content[content.len() / 3..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap();
            content.len() / 3 + nl + 1 + 3
        };
        std::fs::write(&p, &content[..cut]).unwrap();
        let mut sc = RangeScanner::open(&p, 4096, range, 0).unwrap();
        let mut short_seen_on_line = false;
        while let Some(_l) = sc.next_line().unwrap() {
            if sc.ended_short() {
                short_seen_on_line = true;
            }
        }
        assert!(
            short_seen_on_line,
            "torn final line must be flagged before parse"
        );
        assert!(sc.ended_short(), "exhaustion before range end is short");
        std::fs::remove_file(p).unwrap();
    }

    /// Regression: ranges must tile `[0, len)` exactly and a `RangeScanner`
    /// sweep over them must reproduce the whole-file line sequence.
    fn assert_partitions_cover(p: &Path, parts: usize) {
        let len = std::fs::metadata(p).unwrap().len();
        let whole = collect_lines(p, 4096);
        let ranges = partition_line_ranges(p, parts).unwrap();
        if len == 0 {
            assert!(ranges.is_empty());
            return;
        }
        assert_eq!(ranges[0].start, 0, "parts={parts}");
        assert_eq!(ranges.last().unwrap().end, len, "parts={parts}");
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "parts={parts}: ranges must tile");
        }
        let mut merged = Vec::new();
        for r in &ranges {
            let mut sc = RangeScanner::open(p, 4096, *r, 0).unwrap();
            while let Some(l) = sc.next_line().unwrap() {
                merged.push((l.offset, l.bytes.to_vec()));
            }
        }
        let expect: Vec<(u64, Vec<u8>)> = whole.iter().map(|(_, o, b)| (*o, b.clone())).collect();
        assert_eq!(merged, expect, "parts={parts}: lines dropped or duplicated");
    }

    #[test]
    fn partitions_keep_final_line_without_trailing_newline() {
        // The last line is unterminated; no partitioning may drop it, and a
        // cut landing inside it must collapse into the final range.
        for content in [
            b"a,b".to_vec(),                                  // single unterminated line
            b"a,b\nc,d\ne,f".to_vec(),                        // unterminated tail
            [b"x".repeat(9000), b"\ntail".to_vec()].concat(), // long line + tail
        ] {
            let p = tmp_file("partition_notrail", &content);
            for parts in [1usize, 2, 3, 8, 64] {
                assert_partitions_cover(&p, parts);
            }
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn partitions_of_single_line_longer_than_partition() {
        // One line dwarfing every byte target: all cuts snap past it (or to
        // EOF) and must still yield non-overlapping, fully covering ranges.
        let mut content = b"y".repeat(40_000);
        content.push(b'\n');
        let p = tmp_file("partition_oneline", &content);
        for parts in [2usize, 7, 100] {
            let ranges = partition_line_ranges(&p, parts).unwrap();
            assert_eq!(
                ranges,
                vec![LineRange {
                    start: 0,
                    end: content.len() as u64
                }],
                "parts={parts}: cuts inside the only line must collapse"
            );
            assert_partitions_cover(&p, parts);
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn partitions_of_empty_and_newline_only_files() {
        for content in [b"".to_vec(), b"\n".to_vec(), b"\n\n\n".to_vec()] {
            let p = tmp_file("partition_nl", &content);
            for parts in [1usize, 2, 5] {
                assert_partitions_cover(&p, parts);
            }
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn tiny_files_get_exactly_min_parts_lines_partitions() {
        // Regression: equal-byte snapping on files smaller than `parts`
        // bytes used to collapse cuts and return fewer partitions than the
        // line count supports. Such files must now split line-exactly into
        // min(parts, lines) ranges.
        for (content, parts, lines) in [
            (b"a\nb\nc\n".to_vec(), 8usize, 3usize), // 6 bytes < 8 parts
            (b"a\nb\nc\n".to_vec(), 7, 3),
            (b"a\nb".to_vec(), 8, 2), // unterminated tail line
            (b"\n\n\n\n".to_vec(), 6, 4),
            (b"x,y\n".to_vec(), 9, 1),
        ] {
            let p = tmp_file("partition_tiny", &content);
            let ranges = partition_line_ranges(&p, parts).unwrap();
            assert_eq!(
                ranges.len(),
                parts.min(lines),
                "content {:?} parts {parts}: want exactly min(parts, lines)",
                String::from_utf8_lossy(&content)
            );
            assert_partitions_cover(&p, parts);
            std::fs::remove_file(p).unwrap();
        }
        // At or above the byte threshold the snapping path still applies.
        let p = tmp_file("partition_tiny_edge", b"a\nb\nc\n");
        let ranges = partition_line_ranges(&p, 6).unwrap();
        assert!(!ranges.is_empty() && ranges.len() <= 6);
        assert_partitions_cover(&p, 6);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn range_scanner_reads_little_beyond_its_slice() {
        // Regression: a RangeScanner over a small slice of a big file must
        // not pull a whole block past its range — that amplified I/O by
        // block_size / slice_len under fine-grained partition slicing.
        let content = gen_lines(4000); // ~50 KiB
        let p = tmp_file("readcap", &content);
        let len = content.len() as u64;
        let ranges = partition_line_ranges(&p, 16).unwrap();
        let mut total = 0u64;
        for r in &ranges {
            let mut sc = RangeScanner::open(&p, 1 << 20, *r, 0).unwrap();
            while sc.next_line().unwrap().is_some() {}
            let io = sc.take_counters();
            assert!(
                io.bytes_read <= (r.end - r.start) + 2 * 4096,
                "slice {:?} read {} bytes",
                r,
                io.bytes_read
            );
            total += io.bytes_read;
        }
        assert!(
            total <= len + ranges.len() as u64 * 2 * 4096,
            "whole sweep read {total} bytes of a {len}-byte file"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn count_lines_in_range_matches_range_scanner() {
        // The counting-only pass must agree with the full scanner
        // on every partitioning, including unterminated tails and newline
        // runs straddling block boundaries.
        let mut contents = vec![
            gen_lines(257),
            b"a,b".to_vec(),
            b"a,b\nc,d\ne,f".to_vec(),
            b"\n\n\n".to_vec(),
        ];
        let mut long = vec![b'z'; 9000];
        long.extend_from_slice(b"\nshort\n");
        contents.push(long);
        for content in contents {
            let p = tmp_file("count_range", &content);
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = partition_line_ranges(&p, parts).unwrap();
                for r in &ranges {
                    let (counted, io) = count_lines_in_range(&p, 4096, *r).unwrap();
                    let mut sc = RangeScanner::open(&p, 4096, *r, 0).unwrap();
                    let mut scanned = 0u64;
                    while sc.next_line().unwrap().is_some() {
                        scanned += 1;
                    }
                    assert_eq!(counted, scanned, "parts={parts} range={r:?}");
                    assert!(io.bytes_read <= r.end - r.start);
                }
            }
            std::fs::remove_file(p).unwrap();
        }
        // Degenerate empty range.
        let p = tmp_file("count_range_empty", b"a\nb\n");
        let (n, io) = count_lines_in_range(&p, 4096, LineRange { start: 2, end: 2 }).unwrap();
        assert_eq!((n, io.bytes_read), (0, 0));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn partition_snaps_to_line_starts() {
        // One huge line followed by short ones: every cut lands after the
        // huge line or collapses entirely.
        let mut content = vec![b'x'; 9000];
        content.push(b'\n');
        content.extend_from_slice(b"a,b\nc,d\n");
        let p = tmp_file("partition_snap", &content);
        let ranges = partition_line_ranges(&p, 4).unwrap();
        for r in &ranges[1..] {
            assert!(
                r.start == 9001 || content[r.start as usize - 1] == b'\n',
                "range start {} is not a line start",
                r.start
            );
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn fused_scan_matches_next_line_plus_tokenizer() {
        use crate::tokenizer::TokenizerConfig;
        let content = gen_lines(113);
        let p = tmp_file("fused", &content);
        for upto in [0usize, 1, 2, usize::MAX] {
            let mut a = BlockScanner::open(&p, 4096).unwrap();
            let mut b = BlockScanner::open(&p, 4096).unwrap();
            let cfg = TokenizerConfig::default();
            let mut ta = Tokens::new();
            let mut tb = Tokens::new();
            loop {
                let la = a
                    .next_line_tokenized(b',', upto, &mut ta)
                    .unwrap()
                    .map(|l| (l.line_no, l.offset, l.bytes.to_vec()));
                let lb = b
                    .next_line()
                    .unwrap()
                    .map(|l| (l.line_no, l.offset, l.bytes.to_vec()));
                assert_eq!(la, lb, "upto = {upto}");
                let Some((_, _, line)) = lb else { break };
                cfg.tokenize_selective(&line, upto, &mut tb);
                assert_eq!(ta.len(), tb.len(), "upto = {upto} line {line:?}");
                assert_eq!(ta.reached_end_of_line(), tb.reached_end_of_line());
                for f in 0..tb.len() {
                    assert_eq!(ta.get(f), tb.get(f), "upto = {upto} field {f}");
                }
            }
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn fused_scan_handles_crlf_and_unterminated_tail() {
        let p = tmp_file("fused_crlf", b"a,b\r\nlong,unterminated");
        let mut sc = BlockScanner::open(&p, 4096).unwrap();
        let mut t = Tokens::new();
        {
            let l = sc
                .next_line_tokenized(b',', usize::MAX, &mut t)
                .unwrap()
                .unwrap();
            assert_eq!(l.bytes, b"a,b");
        }
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get(1).map(|s| (s.start, s.end)),
            Some((2, 3)),
            "CR excluded"
        );
        {
            let l = sc
                .next_line_tokenized(b',', usize::MAX, &mut t)
                .unwrap()
                .unwrap();
            assert_eq!(l.bytes, b"long,unterminated");
        }
        assert_eq!(t.len(), 2);
        assert!(t.reached_end_of_line());
        assert!(sc
            .next_line_tokenized(b',', usize::MAX, &mut t)
            .unwrap()
            .is_none());
        std::fs::remove_file(p).unwrap();
    }

    /// Stall accounting: the source attributes its read time to
    /// `IoCounters::stall`, and byte/call totals follow the block size.
    #[test]
    fn stall_and_counter_accounting() {
        let content = gen_lines(2000);
        let p = tmp_file("stall", &content);
        let mut sc = BlockScanner::open(&p, 4096).unwrap();
        while sc.next_line().unwrap().is_some() {}
        let io = sc.take_counters();
        assert_eq!(io.bytes_read, content.len() as u64);
        // One read per full 4 KiB block, plus the final short + EOF reads.
        assert_eq!(io.read_calls, (content.len() / 4096) as u64 + 2);
        assert!(io.stall > Duration::ZERO, "reads must count as stall");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn fused_scan_across_block_boundaries() {
        // Lines sized so fields straddle the 4 KiB refill boundary.
        let mut content = Vec::new();
        for i in 0..200 {
            content.extend_from_slice(format!("{:0>40},{:0>40},{i}\n", i, i * 3).as_bytes());
        }
        let p = tmp_file("fused_blocks", &content);
        let mut sc = BlockScanner::open(&p, 4096).unwrap();
        let mut t = Tokens::new();
        let mut rows = 0;
        while let Some(l) = sc.next_line_tokenized(b',', usize::MAX, &mut t).unwrap() {
            let _ = l;
            assert_eq!(t.len(), 3);
            rows += 1;
        }
        assert_eq!(rows, 200);
        std::fs::remove_file(p).unwrap();
    }
}
