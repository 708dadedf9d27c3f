//! Chunks: per-combination columnar position storage.
//!
//! A chunk holds, for one *combination* of attributes, the relative byte
//! offset of each attribute's start within every covered tuple. Offsets are
//! `u16` relative to the tuple's line start (tuples ≥ 64 KiB store the
//! [`NO_OFFSET`] sentinel and fall back to anchor-based tokenizing).

use std::sync::atomic::AtomicU64;

use nodb_rawcsv::tokenizer::Tokens;

/// Sentinel for "position unavailable" (line too long for a u16 offset, or
/// the tuple had fewer fields than the attribute index).
pub const NO_OFFSET: u16 = u16::MAX;

/// Stable identity of an installed chunk (used by LRU bookkeeping and by
/// the monitoring panel to visualize map contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

/// An immutable, installed chunk of the positional map.
#[derive(Debug)]
pub struct Chunk {
    id: ChunkId,
    /// Sorted attribute indices stored in this chunk.
    attrs: Vec<usize>,
    /// `cols[i][row]` = offset of attribute `attrs[i]` in tuple `row`,
    /// for rows `0..self.rows`.
    cols: Vec<Box<[u16]>>,
    rows: usize,
    /// LRU tick of the last access (maintained by the map; plans stamp it
    /// under a shared borrow, forward only).
    pub(crate) last_used: AtomicU64,
}

impl Chunk {
    /// Chunk identity.
    pub fn id(&self) -> ChunkId {
        self.id
    }

    /// Sorted attributes covered by this chunk.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Number of tuples covered (a prefix of the file's rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the chunk stores attribute `attr`.
    pub fn covers(&self, attr: usize) -> bool {
        self.attrs.binary_search(&attr).is_ok()
    }

    /// Offset of `attr` within tuple `row`, if covered and recorded.
    #[inline]
    pub fn offset(&self, attr: usize, row: usize) -> Option<u16> {
        let col = self.attrs.binary_search(&attr).ok()?;
        let v = *self.cols[col].get(row)?;
        (v != NO_OFFSET).then_some(v)
    }

    /// Raw offset column for `attrs()[col]`, sentinel values included —
    /// the lossless view a snapshot serializer needs ([`Chunk::offset`]
    /// masks [`NO_OFFSET`], which must survive a round trip as-is).
    pub fn raw_col(&self, col: usize) -> &[u16] {
        &self.cols[col]
    }

    /// Greatest covered attribute `<= attr` (the best resume anchor this
    /// chunk offers for `attr`).
    pub fn best_anchor_at_or_before(&self, attr: usize) -> Option<usize> {
        match self.attrs.binary_search(&attr) {
            Ok(_) => Some(attr),
            Err(0) => None,
            Err(i) => Some(self.attrs[i - 1]),
        }
    }

    /// Approximate heap footprint in bytes, charged against the map budget.
    pub fn footprint(&self) -> usize {
        self.cols.iter().map(|c| c.len() * 2).sum::<usize>()
            + self.attrs.len() * std::mem::size_of::<usize>()
            + std::mem::size_of::<Chunk>()
    }
}

/// Incrementally collects positions for one attribute combination during a
/// scan, then freezes into a [`Chunk`].
///
/// The builder is fed once per tuple, in row order, from the scan's
/// [`Tokens`] buffer — population happens *during tokenizing*, exactly as in
/// the paper ("the map is populated during the tokenizing phase").
#[derive(Debug)]
pub struct ChunkBuilder {
    attrs: Vec<usize>,
    cols: Vec<Vec<u16>>,
    rows: usize,
}

impl ChunkBuilder {
    /// Builder for the given attribute set (deduplicated, sorted).
    pub fn new(mut attrs: Vec<usize>) -> Self {
        attrs.sort_unstable();
        attrs.dedup();
        let cols = attrs.iter().map(|_| Vec::new()).collect();
        ChunkBuilder {
            attrs,
            cols,
            rows: 0,
        }
    }

    /// Builder with capacity for `rows` tuples (avoids regrowth when the
    /// file's row count is already known from the row index).
    pub fn with_capacity(mut attrs: Vec<usize>, rows: usize) -> Self {
        attrs.sort_unstable();
        attrs.dedup();
        let cols = attrs.iter().map(|_| Vec::with_capacity(rows)).collect();
        ChunkBuilder {
            attrs,
            cols,
            rows: 0,
        }
    }

    /// Rebuild a builder from raw offset columns (sentinels included), the
    /// inverse of reading [`Chunk::raw_col`] per attribute — the snapshot
    /// restore path. Returns `None` when the shape is inconsistent: attrs
    /// unsorted or duplicated, column count != attr count, or ragged column
    /// lengths. A restored sidecar is untrusted input, so shape errors
    /// degrade to "no chunk" rather than panic.
    pub fn from_raw_cols(attrs: Vec<usize>, cols: Vec<Vec<u16>>) -> Option<Self> {
        if attrs.windows(2).any(|w| w[0] >= w[1]) || attrs.len() != cols.len() {
            return None;
        }
        let rows = cols.first().map_or(0, Vec::len);
        if cols.iter().any(|c| c.len() != rows) {
            return None;
        }
        Some(ChunkBuilder { attrs, cols, rows })
    }

    /// Attributes this builder collects.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Rows recorded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Record one tuple's positions from the scan's token buffer.
    ///
    /// Must be called exactly once per row, in row order. Attributes the
    /// tokenizer did not reach (short rows) or whose offset exceeds `u16`
    /// record [`NO_OFFSET`].
    pub fn push_row(&mut self, tokens: &Tokens) {
        for (i, &attr) in self.attrs.iter().enumerate() {
            let off = match tokens.get(attr) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "guarded: start < NO_OFFSET fits u16"
                )]
                Some(span) if span.start < NO_OFFSET as u32 => span.start as u16,
                _ => NO_OFFSET,
            };
            self.cols[i].push(off);
        }
        self.rows += 1;
    }

    /// Record one tuple's positions from raw `(attr, offset)` pairs; used by
    /// resumable scans that compute offsets without a full `Tokens` pass.
    pub fn push_row_offsets(&mut self, offsets: &[(usize, u32)]) {
        for (i, &attr) in self.attrs.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "guarded: o < NO_OFFSET fits u16"
            )]
            let off = offsets
                .iter()
                .find(|(a, _)| *a == attr)
                .map(|&(_, o)| {
                    if o < NO_OFFSET as u32 {
                        o as u16
                    } else {
                        NO_OFFSET
                    }
                })
                .unwrap_or(NO_OFFSET);
            self.cols[i].push(off);
        }
        self.rows += 1;
    }

    /// Record a batch of `rows` tuples an attribute column at a time:
    /// `start(k, row)` is the line-relative start of `attrs()[k]` in batch
    /// row `row`, `None` where the scan did not locate it. Offsets follow
    /// [`Self::push_row`]'s rules.
    pub fn push_rows(&mut self, rows: usize, mut start: impl FnMut(usize, usize) -> Option<u32>) {
        for (k, col) in self.cols.iter_mut().enumerate() {
            col.extend((0..rows).map(|row| match start(k, row) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "guarded: o < NO_OFFSET fits u16"
                )]
                Some(o) if o < NO_OFFSET as u32 => o as u16,
                _ => NO_OFFSET,
            }));
        }
        self.rows += rows;
    }

    /// Approximate current footprint (for admission decisions mid-scan).
    pub fn footprint(&self) -> usize {
        self.cols.iter().map(|c| c.len() * 2).sum::<usize>()
    }

    /// Append every row of `other` after this builder's rows — the partition
    /// merge of the parallel scan.
    ///
    /// Each worker collects positions for *its* partition with local row
    /// numbering; because offsets are stored relative to each tuple's line
    /// start, rebasing to global rows is pure concatenation in partition
    /// order. Both builders must target the same attribute combination.
    ///
    /// # Panics
    /// Panics when the attribute sets differ (the driver always derives all
    /// partial builders from one request, so a mismatch is a logic error).
    pub fn append_partial(&mut self, other: ChunkBuilder) {
        assert_eq!(
            self.attrs, other.attrs,
            "cannot merge chunk builders over different attribute sets"
        );
        for (col, mut ocol) in self.cols.iter_mut().zip(other.cols) {
            col.append(&mut ocol);
        }
        self.rows += other.rows;
    }

    /// Freeze into an installable chunk. `id` is assigned by the map.
    pub(crate) fn freeze(self, id: ChunkId, tick: u64) -> Chunk {
        Chunk {
            id,
            attrs: self.attrs,
            cols: self.cols.into_iter().map(Vec::into_boxed_slice).collect(),
            rows: self.rows,
            last_used: AtomicU64::new(tick),
        }
    }

    /// True when nothing was collected (no rows or no attributes).
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.attrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::tokenizer::TokenizerConfig;

    fn tokens_for(line: &[u8]) -> Tokens {
        let mut t = Tokens::new();
        TokenizerConfig::default().tokenize_into(line, &mut t);
        t
    }

    #[test]
    fn builder_collects_offsets() {
        let mut b = ChunkBuilder::new(vec![2, 0]);
        b.push_row(&tokens_for(b"aa,bb,cc"));
        b.push_row(&tokens_for(b"x,y,z"));
        let c = b.freeze(ChunkId(1), 0);
        assert_eq!(c.attrs(), &[0, 2]);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.offset(0, 0), Some(0));
        assert_eq!(c.offset(2, 0), Some(6));
        assert_eq!(c.offset(2, 1), Some(4));
        assert_eq!(c.offset(1, 0), None); // not covered
        assert_eq!(c.offset(2, 5), None); // beyond rows
    }

    #[test]
    fn short_rows_record_sentinel() {
        let mut b = ChunkBuilder::new(vec![0, 3]);
        b.push_row(&tokens_for(b"only,two"));
        let c = b.freeze(ChunkId(2), 0);
        assert_eq!(c.offset(0, 0), Some(0));
        assert_eq!(c.offset(3, 0), None);
    }

    #[test]
    fn anchor_lookup() {
        let mut b = ChunkBuilder::new(vec![1, 4, 7]);
        b.push_row(&tokens_for(b"a,b,c,d,e,f,g,h"));
        let c = b.freeze(ChunkId(3), 0);
        assert_eq!(c.best_anchor_at_or_before(4), Some(4));
        assert_eq!(c.best_anchor_at_or_before(6), Some(4));
        assert_eq!(c.best_anchor_at_or_before(0), None);
        assert_eq!(c.best_anchor_at_or_before(100), Some(7));
    }

    #[test]
    fn dedup_and_sort_attrs() {
        let b = ChunkBuilder::new(vec![5, 1, 5, 3]);
        assert_eq!(b.attrs(), &[1, 3, 5]);
    }

    #[test]
    fn footprint_scales_with_rows() {
        let mut b = ChunkBuilder::new(vec![0, 1]);
        for _ in 0..100 {
            b.push_row(&tokens_for(b"a,b"));
        }
        let c = b.freeze(ChunkId(4), 0);
        assert!(c.footprint() >= 400); // 100 rows * 2 attrs * 2 bytes
    }

    #[test]
    fn append_partial_concatenates_partitions() {
        let mut lo = ChunkBuilder::new(vec![0, 2]);
        lo.push_row(&tokens_for(b"aa,bb,cc"));
        lo.push_row(&tokens_for(b"x,y,z"));
        let mut hi = ChunkBuilder::new(vec![0, 2]);
        hi.push_row(&tokens_for(b"pppp,q,r"));

        let mut whole = ChunkBuilder::new(vec![0, 2]);
        for line in [b"aa,bb,cc".as_slice(), b"x,y,z", b"pppp,q,r"] {
            whole.push_row(&tokens_for(line));
        }

        lo.append_partial(hi);
        assert_eq!(lo.rows(), 3);
        let merged = lo.freeze(ChunkId(10), 0);
        let direct = whole.freeze(ChunkId(11), 0);
        for attr in [0usize, 2] {
            for row in 0..3 {
                assert_eq!(merged.offset(attr, row), direct.offset(attr, row));
            }
        }
    }

    #[test]
    #[should_panic(expected = "different attribute sets")]
    fn append_partial_rejects_mismatched_attrs() {
        let mut a = ChunkBuilder::new(vec![0]);
        let b = ChunkBuilder::new(vec![1]);
        a.append_partial(b);
    }

    #[test]
    fn raw_cols_round_trip_preserves_sentinels() {
        let mut b = ChunkBuilder::new(vec![0, 3]);
        b.push_row(&tokens_for(b"only,two")); // attr 3 records NO_OFFSET
        b.push_row(&tokens_for(b"a,b,c,d"));
        let c = b.freeze(ChunkId(7), 0);

        let cols: Vec<Vec<u16>> = (0..c.attrs().len())
            .map(|i| c.raw_col(i).to_vec())
            .collect();
        let restored = ChunkBuilder::from_raw_cols(c.attrs().to_vec(), cols)
            .expect("well-formed shape")
            .freeze(ChunkId(8), 0);
        assert_eq!(restored.rows(), c.rows());
        for attr in [0usize, 3] {
            for row in 0..c.rows() {
                assert_eq!(restored.offset(attr, row), c.offset(attr, row));
            }
        }
    }

    #[test]
    fn from_raw_cols_rejects_bad_shapes() {
        // Unsorted attrs.
        assert!(ChunkBuilder::from_raw_cols(vec![2, 0], vec![vec![0], vec![0]]).is_none());
        // Duplicated attrs.
        assert!(ChunkBuilder::from_raw_cols(vec![1, 1], vec![vec![0], vec![0]]).is_none());
        // Column count mismatch.
        assert!(ChunkBuilder::from_raw_cols(vec![0, 1], vec![vec![0]]).is_none());
        // Ragged columns.
        assert!(ChunkBuilder::from_raw_cols(vec![0, 1], vec![vec![0, 1], vec![0]]).is_none());
    }

    #[test]
    fn push_row_offsets_matches_tokens_path() {
        let mut b1 = ChunkBuilder::new(vec![0, 2]);
        b1.push_row(&tokens_for(b"aa,bb,cc"));
        let c1 = b1.freeze(ChunkId(5), 0);

        let mut b2 = ChunkBuilder::new(vec![0, 2]);
        b2.push_row_offsets(&[(0, 0), (2, 6)]);
        let c2 = b2.freeze(ChunkId(6), 0);

        assert_eq!(c1.offset(0, 0), c2.offset(0, 0));
        assert_eq!(c1.offset(2, 0), c2.offset(2, 0));
    }

    #[test]
    fn push_rows_matches_row_pushes() {
        // Row 1 is short (no field 2), row 2 lies past the u16 range.
        let starts = [[Some(0), Some(6)], [Some(0), None], [Some(3), Some(70_000)]];
        let mut by_rows = ChunkBuilder::new(vec![0, 2]);
        for row in &starts {
            let pairs: Vec<(usize, u32)> = [0, 2]
                .into_iter()
                .zip(row)
                .filter_map(|(a, s)| s.map(|s| (a, s)))
                .collect();
            by_rows.push_row_offsets(&pairs);
        }
        let mut by_batch = ChunkBuilder::new(vec![0, 2]);
        by_batch.push_rows(starts.len(), |k, row| starts[row][k]);
        assert_eq!(by_batch.rows(), 3);
        let (a, b) = (
            by_rows.freeze(ChunkId(1), 0),
            by_batch.freeze(ChunkId(2), 0),
        );
        for k in 0..2 {
            assert_eq!(a.raw_col(k), b.raw_col(k));
        }
    }
}
