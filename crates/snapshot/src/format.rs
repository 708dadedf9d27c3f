//! The sidecar binary format: encode and paranoid decode.
//!
//! Layout (all integers little-endian; see `README.md` for the rationale):
//!
//! ```text
//! [0..8)        magic            "NODBSNP1"
//! [8..12)       version          u32 (FORMAT_VERSION)
//! [12..16)      header_len       u32 (bytes of header payload H)
//! [16..16+H)    header payload   source epoch + row count + section count
//! [..+8)        header checksum  checksum64 over bytes [8, 16+H)
//! then          section_count ×  { tag u32, payload_len u64,
//!                                  payload checksum u64, payload }
//! ```
//!
//! The decoder trusts nothing: every length is bounds-checked before any
//! allocation, every section checksum is verified before its payload is
//! parsed, the three sections must each appear exactly once, and trailing
//! bytes after the last section are an error. Any failure surfaces as a
//! [`SnapshotError`] and the caller degrades the table to cold.

use std::time::{Duration, UNIX_EPOCH};

use nodb_posmap::chunk::ChunkBuilder;
use nodb_posmap::PositionalMap;
use nodb_rawcache::column::NullMask;
use nodb_rawcache::{RawCache, TypedColumn};
use nodb_rawcsv::epoch::{EPOCH_HEAD_LIMIT, EPOCH_TAIL_LIMIT};
use nodb_rawcsv::{ColumnType, Datum, SourceEpoch};
use nodb_stats::{AttrStatsState, TableStats, TableStatsState};

/// Sidecar magic: identifies the file family (the trailing `1` is part of
/// the brand, not the version — that lives in the next field).
pub const MAGIC: [u8; 8] = *b"NODBSNP1";

/// Current format version. Bump on any layout change; the loader refuses
/// every other version (degrade to cold, never guess).
pub const FORMAT_VERSION: u32 = 6;

const SECTION_POSMAP: u32 = 1;
const SECTION_CACHE: u32 = 2;
const SECTION_STATS: u32 = 3;

/// The sidecar's content checksum: a word-at-a-time 64-bit mix.
///
/// Not cryptographic — it guards against truncation, bit rot and torn
/// writes, not adversaries (anyone who can rewrite the sidecar can rewrite
/// its checksums too). Each step is bijective in the input word (xor, then
/// multiply by an odd constant, then rotate), so *any* corruption confined
/// to one 8-byte word provably changes the sum; the length is folded into
/// the seed so same-prefix inputs of different lengths differ too.
/// Processing 8 bytes per step keeps validating a multi-megabyte sidecar
/// around a millisecond where a byte-serial hash costs ~8× that — the
/// difference between a warm restart and a noticeably stalled one.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0x5851_F42D_4C95_7F2D_u64 ^ (bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(arr8(w)))
            .wrapping_mul(K)
            .rotate_left(27);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail))
            .wrapping_mul(K)
            .rotate_left(27);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

/// Why a sidecar could not be used. Every variant means the same thing to
/// the caller — start cold — but the distinction feeds telemetry and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Reading the sidecar failed at the I/O layer.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file is from a different format version.
    VersionSkew {
        /// The version recorded in the file.
        found: u32,
    },
    /// The file ends before a declared length (torn write / truncation).
    Truncated,
    /// A checksum did not match its bytes (bit flip / torn write).
    ChecksumMismatch {
        /// Which region failed: `"header"` or a section name.
        section: &'static str,
    },
    /// Structurally invalid content inside checksummed bytes.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O: {msg}"),
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapshotError::VersionSkew { found } => {
                write!(f, "snapshot version {found} != supported {FORMAT_VERSION}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot checksum mismatch in {section}")
            }
            SnapshotError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

type Result<T> = std::result::Result<T, SnapshotError>;

/// One positional-map chunk in serializable form: sorted attrs plus one raw
/// `u16` offset column per attr (sentinels included).
#[derive(Debug, Clone)]
pub struct ChunkState {
    /// Sorted attribute indices.
    pub attrs: Vec<usize>,
    /// `cols[i][row]` = raw offset of `attrs[i]` in tuple `row`.
    pub cols: Vec<Vec<u16>>,
}

/// The positional map's full serializable state.
#[derive(Debug, Clone, Default)]
pub struct PosMapState {
    /// Row-start offsets, in row order.
    pub row_starts: Vec<u64>,
    /// Whether the row index covered the whole file at capture time.
    pub complete: bool,
    /// Installed chunks.
    pub chunks: Vec<ChunkState>,
}

impl PosMapState {
    /// Capture a map's state through its read accessors.
    pub fn capture(map: &PositionalMap) -> PosMapState {
        PosMapState {
            row_starts: map.row_index().starts().to_vec(),
            complete: map.row_index().is_complete(),
            chunks: map
                .chunks()
                .iter()
                .map(|c| ChunkState {
                    attrs: c.attrs().to_vec(),
                    cols: (0..c.attrs().len())
                        .map(|i| c.raw_col(i).to_vec())
                        .collect(),
                })
                .collect(),
        }
    }

    /// Replay this state into a fresh map. Chunks go through the map's
    /// normal install path (subsumption, budget admission, fresh ids), so a
    /// smaller budget on the restored side simply keeps fewer chunks —
    /// never wrong positions. Malformed chunk shapes are skipped.
    pub fn install_into(self, map: &mut PositionalMap) {
        map.row_index_mut().note_rows(0, &self.row_starts);
        if self.complete {
            map.row_index_mut().mark_complete();
        }
        for chunk in self.chunks {
            if let Some(builder) = ChunkBuilder::from_raw_cols(chunk.attrs, chunk.cols) {
                map.install(builder);
            }
        }
    }
}

/// Everything one table persists: the source epoch the state is keyed by,
/// plus the three adaptive-state sections.
#[derive(Debug)]
pub struct TableSnapshot {
    /// The raw file's epoch at capture time; the restoring table keys its
    /// state to it and reconciles it with the live file like any query.
    pub epoch: SourceEpoch,
    /// The table's exact row count, when a complete scan had established it.
    pub row_count: Option<u64>,
    /// Positional-map state.
    pub map: PosMapState,
    /// Cached typed columns, keyed by attribute.
    pub columns: Vec<(usize, TypedColumn)>,
    /// Statistics registry state.
    pub stats: TableStatsState,
}

impl TableSnapshot {
    /// Capture a consistent snapshot of one table's adaptive state (the
    /// caller holds whatever lock makes the three structures mutually
    /// consistent).
    pub fn capture(
        epoch: SourceEpoch,
        row_count: Option<u64>,
        map: &PositionalMap,
        cache: &RawCache,
        stats: &TableStats,
    ) -> TableSnapshot {
        let columns = cache
            .resident()
            .into_iter()
            .filter_map(|(attr, rows)| cache.column(attr).map(|c| (attr, c.export_range(0, rows))))
            .collect();
        TableSnapshot {
            epoch,
            row_count,
            map: PosMapState::capture(map),
            columns,
            stats: stats.export_state(),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
    fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64); // widening on all supported targets
    }
    fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn put_datum(&mut self, d: &Datum) {
        match d {
            Datum::Null => self.put_u8(0),
            Datum::Int(v) => {
                self.put_u8(1);
                self.put_i64(*v);
            }
            Datum::Float(v) => {
                self.put_u8(2);
                self.put_f64(*v);
            }
            Datum::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            Datum::Bool(b) => {
                self.put_u8(4);
                self.put_bool(*b);
            }
        }
    }
    fn put_opt_datum(&mut self, d: Option<&Datum>) {
        match d {
            Some(d) => {
                self.put_u8(1);
                self.put_datum(d);
            }
            None => self.put_u8(0),
        }
    }
}

fn encode_posmap(map: &PosMapState) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.put_len(map.row_starts.len());
    for &s in &map.row_starts {
        e.put_u64(s);
    }
    e.put_bool(map.complete);
    e.put_len(map.chunks.len());
    for chunk in &map.chunks {
        e.put_len(chunk.attrs.len());
        for &a in &chunk.attrs {
            e.put_u64(a as u64); // widening
        }
        let rows = chunk.cols.first().map_or(0, Vec::len);
        e.put_len(rows);
        for col in &chunk.cols {
            for &v in col {
                e.put_u16(v);
            }
        }
    }
    e.buf
}

fn encode_cache(columns: &[(usize, TypedColumn)]) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.put_len(columns.len());
    for (attr, col) in columns {
        e.put_u64(*attr as u64); // widening
        let rows = col.len();
        match col {
            TypedColumn::Int { values, nulls } => {
                e.put_u8(0);
                e.put_len(rows);
                put_null_bits(&mut e, nulls, rows);
                for &v in values {
                    e.put_i64(v);
                }
            }
            TypedColumn::Float { values, nulls } => {
                e.put_u8(1);
                e.put_len(rows);
                put_null_bits(&mut e, nulls, rows);
                for &v in values {
                    e.put_f64(v);
                }
            }
            TypedColumn::Bool { values, nulls } => {
                e.put_u8(2);
                e.put_len(rows);
                put_null_bits(&mut e, nulls, rows);
                for &v in values {
                    e.put_bool(v);
                }
            }
            TypedColumn::Str {
                values,
                nulls,
                str_bytes: _,
            } => {
                e.put_u8(3);
                e.put_len(rows);
                put_null_bits(&mut e, nulls, rows);
                for v in values {
                    e.put_str(v);
                }
            }
        }
    }
    e.buf
}

/// Pack `rows` validity bits, LSB-first within each byte.
fn put_null_bits(e: &mut Enc, nulls: &NullMask, rows: usize) {
    let mut byte = 0u8;
    for i in 0..rows {
        if nulls.is_null(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            e.put_u8(byte);
            byte = 0;
        }
    }
    if !rows.is_multiple_of(8) {
        e.put_u8(byte);
    }
}

fn encode_stats(stats: &TableStatsState) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.put_len(stats.observed.len());
    for &(attr, frontier) in &stats.observed {
        e.put_u64(attr as u64); // widening
        e.put_u64(frontier);
    }
    e.put_len(stats.attrs.len());
    for a in &stats.attrs {
        e.put_u64(a.attr as u64); // widening
        e.put_u64(a.rows_seen);
        e.put_u64(a.nulls);
        e.put_opt_datum(a.min.as_ref());
        e.put_opt_datum(a.max.as_ref());
    }
    e.buf
}

/// Serialize a snapshot to sidecar bytes.
pub fn encode_snapshot(snap: &TableSnapshot) -> Vec<u8> {
    // Header payload: source epoch, row count, section count.
    let epoch = &snap.epoch;
    let mut h = Enc { buf: Vec::new() };
    h.put_u64(epoch.len);
    match epoch
        .modified
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
    {
        Some(d) => {
            h.put_u8(1);
            h.put_u64(d.as_secs());
            h.put_u32(d.subsec_nanos());
        }
        None => {
            h.put_u8(0);
            h.put_u64(0);
            h.put_u32(0);
        }
    }
    h.put_u64(epoch.head_len);
    h.put_u64(epoch.head_hash);
    h.put_u64(epoch.tail_len);
    h.put_u64(epoch.tail_hash);
    h.put_u64(epoch.trusted_len);
    match snap.row_count {
        Some(n) => {
            h.put_u8(1);
            h.put_u64(n);
        }
        None => {
            h.put_u8(0);
            h.put_u64(0);
        }
    }
    h.put_u32(3); // section count

    let mut out = Enc { buf: Vec::new() };
    out.buf.extend_from_slice(&MAGIC);
    out.put_u32(FORMAT_VERSION);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the header payload is a few dozen bytes"
    )]
    out.put_u32(h.buf.len() as u32);
    out.buf.extend_from_slice(&h.buf);
    let header_checksum = checksum64(&out.buf[MAGIC.len()..]);
    out.put_u64(header_checksum);

    for (tag, payload) in [
        (SECTION_POSMAP, encode_posmap(&snap.map)),
        (SECTION_CACHE, encode_cache(&snap.columns)),
        (SECTION_STATS, encode_stats(&snap.stats)),
    ] {
        out.put_u32(tag);
        out.put_len(payload.len());
        out.put_u64(checksum64(&payload));
        out.buf.extend_from_slice(&payload);
    }
    out.buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool out of range")),
        }
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(arr4(self.take(4)?)))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(arr8(self.take(8)?)))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(arr8(self.take(8)?)))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A length prefix, rejected outright when it exceeds the bytes that
    /// could possibly follow — so a corrupt length can never drive a huge
    /// allocation.
    fn len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| SnapshotError::Malformed("length exceeds usize"))?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }
    fn usize64(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("index exceeds usize"))
    }
    fn str(&mut self) -> Result<Box<str>> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.into()),
            Err(_) => Err(SnapshotError::Malformed("string not UTF-8")),
        }
    }
    fn datum(&mut self) -> Result<Datum> {
        match self.u8()? {
            0 => Ok(Datum::Null),
            1 => Ok(Datum::Int(self.i64()?)),
            2 => Ok(Datum::Float(self.f64()?)),
            3 => Ok(Datum::Str(self.str()?)),
            4 => Ok(Datum::Bool(self.bool()?)),
            _ => Err(SnapshotError::Malformed("unknown datum tag")),
        }
    }
    fn opt_datum(&mut self) -> Result<Option<Datum>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.datum()?)),
            _ => Err(SnapshotError::Malformed("option tag out of range")),
        }
    }
    fn done(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes"))
        }
    }
}

fn arr2(s: &[u8]) -> [u8; 2] {
    let mut a = [0u8; 2];
    a.copy_from_slice(s);
    a
}
fn arr4(s: &[u8]) -> [u8; 4] {
    let mut a = [0u8; 4];
    a.copy_from_slice(s);
    a
}
fn arr8(s: &[u8]) -> [u8; 8] {
    let mut a = [0u8; 8];
    a.copy_from_slice(s);
    a
}

fn decode_posmap(payload: &[u8]) -> Result<PosMapState> {
    let mut d = Dec::new(payload);
    let n_rows = d.len()?;
    let row_bytes = n_rows
        .checked_mul(8)
        .ok_or(SnapshotError::Malformed("row count overflow"))?;
    let mut row_starts = Vec::with_capacity(row_bytes.min(d.remaining()) / 8);
    for chunk in d.take(row_bytes)?.chunks_exact(8) {
        row_starts.push(u64::from_le_bytes(arr8(chunk)));
    }
    // Row starts must be strictly increasing: a map replaying a
    // non-monotone index would hand out wrong line offsets.
    if row_starts.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::Malformed("row starts not increasing"));
    }
    let complete = d.bool()?;
    let n_chunks = d.len()?;
    let mut chunks = Vec::with_capacity(n_chunks.min(d.remaining()));
    for _ in 0..n_chunks {
        let n_attrs = d.len()?;
        let mut attrs = Vec::with_capacity(n_attrs.min(d.remaining() / 8));
        for _ in 0..n_attrs {
            attrs.push(d.usize64()?);
        }
        let rows = d.len()?;
        let col_bytes = rows
            .checked_mul(2)
            .ok_or(SnapshotError::Malformed("chunk rows overflow"))?;
        let mut cols = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let mut col = Vec::with_capacity(rows);
            for pair in d.take(col_bytes)?.chunks_exact(2) {
                col.push(u16::from_le_bytes(arr2(pair)));
            }
            cols.push(col);
        }
        chunks.push(ChunkState { attrs, cols });
    }
    d.done()?;
    Ok(PosMapState {
        row_starts,
        complete,
        chunks,
    })
}

fn decode_cache(payload: &[u8]) -> Result<Vec<(usize, TypedColumn)>> {
    let mut d = Dec::new(payload);
    let n_cols = d.len()?;
    let mut columns = Vec::with_capacity(n_cols.min(d.remaining()));
    for _ in 0..n_cols {
        let attr = d.usize64()?;
        let ty = match d.u8()? {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Bool,
            3 => ColumnType::Str,
            _ => return Err(SnapshotError::Malformed("unknown column type tag")),
        };
        let rows = d.len()?;
        let nulls = take_null_bits(&mut d, rows)?;
        let col = match ty {
            ColumnType::Int => {
                let bytes = rows
                    .checked_mul(8)
                    .ok_or(SnapshotError::Malformed("column rows overflow"))?;
                let mut values = Vec::with_capacity(rows);
                for c in d.take(bytes)?.chunks_exact(8) {
                    values.push(i64::from_le_bytes(arr8(c)));
                }
                TypedColumn::Int { values, nulls }
            }
            ColumnType::Float => {
                let bytes = rows
                    .checked_mul(8)
                    .ok_or(SnapshotError::Malformed("column rows overflow"))?;
                let mut values = Vec::with_capacity(rows);
                for c in d.take(bytes)?.chunks_exact(8) {
                    values.push(f64::from_bits(u64::from_le_bytes(arr8(c))));
                }
                TypedColumn::Float { values, nulls }
            }
            ColumnType::Bool => {
                let mut values = Vec::with_capacity(rows);
                for &b in d.take(rows)? {
                    match b {
                        0 => values.push(false),
                        1 => values.push(true),
                        _ => return Err(SnapshotError::Malformed("bool value out of range")),
                    }
                }
                TypedColumn::Bool { values, nulls }
            }
            ColumnType::Str => {
                let mut values: Vec<Box<str>> = Vec::with_capacity(rows.min(d.remaining()));
                let mut str_bytes = 0usize;
                for _ in 0..rows {
                    let s = d.str()?;
                    str_bytes += s.len();
                    values.push(s);
                }
                TypedColumn::Str {
                    values,
                    str_bytes,
                    nulls,
                }
            }
        };
        columns.push((attr, col));
    }
    d.done()?;
    Ok(columns)
}

/// Unpack `rows` validity bits written by `put_null_bits`.
fn take_null_bits(d: &mut Dec<'_>, rows: usize) -> Result<NullMask> {
    let n_bytes = rows.div_ceil(8);
    let bytes = d.take(n_bytes)?;
    let mut mask = NullMask::default();
    for i in 0..rows {
        mask.push(bytes[i / 8] & (1 << (i % 8)) != 0);
    }
    Ok(mask)
}

fn decode_stats(payload: &[u8]) -> Result<TableStatsState> {
    let mut d = Dec::new(payload);
    let n_obs = d.len()?;
    let mut observed = Vec::with_capacity(n_obs.min(d.remaining() / 16));
    for _ in 0..n_obs {
        let attr = d.usize64()?;
        let frontier = d.u64()?;
        observed.push((attr, frontier));
    }
    let n_attrs = d.len()?;
    let mut attrs = Vec::with_capacity(n_attrs.min(d.remaining()));
    for _ in 0..n_attrs {
        let attr = d.usize64()?;
        let rows_seen = d.u64()?;
        let nulls = d.u64()?;
        let min = d.opt_datum()?;
        let max = d.opt_datum()?;
        attrs.push(AttrStatsState {
            attr,
            rows_seen,
            nulls,
            min,
            max,
        });
    }
    d.done()?;
    let state = TableStatsState { attrs, observed };
    // The accumulators' own consistency checks (no more NULLs than rows,
    // one entry per attribute): state that fails them is as
    // untrusted as a bad checksum, and the whole sidecar goes with it.
    if TableStats::from_state(state.clone()).is_none() {
        return Err(SnapshotError::Malformed("inconsistent statistics"));
    }
    Ok(state)
}

/// Parse and validate sidecar bytes into a [`TableSnapshot`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<TableSnapshot> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionSkew { found: version });
    }
    let header_len: usize = d
        .u32()?
        .try_into()
        .map_err(|_| SnapshotError::Malformed("header length exceeds usize"))?;
    if header_len > d.remaining() {
        return Err(SnapshotError::Truncated);
    }
    let header_end = d.pos + header_len;
    // Verify the header checksum before trusting any header field beyond
    // the version (which had to be read to know the layout).
    {
        let mut peek = Dec::new(bytes);
        let _ = peek.take(header_end)?;
        let declared = peek.u64()?;
        if checksum64(&bytes[MAGIC.len()..header_end]) != declared {
            return Err(SnapshotError::ChecksumMismatch { section: "header" });
        }
    }
    let file_len = d.u64()?;
    let mod_present = d.bool()?;
    let mod_secs = d.u64()?;
    let mod_nanos = d.u32()?;
    let modified = mod_present.then(|| UNIX_EPOCH + Duration::new(mod_secs, mod_nanos));
    let epoch = SourceEpoch {
        len: file_len,
        modified,
        head_len: d.u64()?,
        head_hash: d.u64()?,
        tail_len: d.u64()?,
        tail_hash: d.u64()?,
        trusted_len: d.u64()?,
    };
    // The windows a capture hashes are fixed by the length; a probe of the
    // live file re-reads exactly these ranges, so they must lie inside it.
    if epoch.head_len != epoch.len.min(EPOCH_HEAD_LIMIT)
        || epoch.tail_len != epoch.len.min(EPOCH_TAIL_LIMIT)
        || epoch.trusted_len > epoch.len
    {
        return Err(SnapshotError::Malformed(
            "epoch windows disagree with length",
        ));
    }
    let rc_present = d.bool()?;
    let rc = d.u64()?;
    let row_count = rc_present.then_some(rc);
    let section_count = d.u32()?;
    if d.pos != header_end {
        return Err(SnapshotError::Malformed("header length mismatch"));
    }
    let _checksum = d.u64()?; // verified above
    if section_count != 3 {
        return Err(SnapshotError::Malformed("unexpected section count"));
    }

    let mut map: Option<PosMapState> = None;
    let mut columns: Option<Vec<(usize, TypedColumn)>> = None;
    let mut stats: Option<TableStatsState> = None;
    for _ in 0..section_count {
        let tag = d.u32()?;
        let payload_len = d.len()?;
        let declared = d.u64()?;
        let payload = d.take(payload_len)?;
        let section_name = match tag {
            SECTION_POSMAP => "posmap",
            SECTION_CACHE => "cache",
            SECTION_STATS => "stats",
            _ => return Err(SnapshotError::Malformed("unknown section tag")),
        };
        if checksum64(payload) != declared {
            return Err(SnapshotError::ChecksumMismatch {
                section: section_name,
            });
        }
        match tag {
            SECTION_POSMAP if map.is_none() => map = Some(decode_posmap(payload)?),
            SECTION_CACHE if columns.is_none() => columns = Some(decode_cache(payload)?),
            SECTION_STATS if stats.is_none() => stats = Some(decode_stats(payload)?),
            _ => return Err(SnapshotError::Malformed("duplicate section")),
        }
    }
    d.done()?;
    match (map, columns, stats) {
        (Some(map), Some(columns), Some(stats)) => Ok(TableSnapshot {
            epoch,
            row_count,
            map,
            columns,
            stats,
        }),
        _ => Err(SnapshotError::Malformed("missing section")),
    }
}
