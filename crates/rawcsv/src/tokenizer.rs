//! Delimiter scanning: full, *selective* and *resumable* tokenizing.
//!
//! This module implements the three access disciplines the paper describes:
//!
//! * **Full tokenizing** — locate every field of a tuple
//!   ([`TokenizerConfig::tokenize_into`]). This is what the naive external
//!   files baseline does on every query.
//! * **Selective tokenizing** (§3) — abort the scan of a tuple as soon as the
//!   last attribute a query needs has been located
//!   ([`TokenizerConfig::tokenize_selective`]). CSV rows are laid out
//!   left-to-right, so a query touching attributes `{2, 5}` never pays for
//!   delimiters after field 5.
//! * **Resumable tokenizing** — start from a *positional-map anchor*
//!   (`attribute k starts at byte b`) instead of the beginning of the line
//!   ([`TokenizerConfig::tokenize_from`]). This is how the adaptive
//!   positional map converts its stored positions into skipped CPU work.
//!
//! The per-line delimiter scan uses a branch-light SWAR
//! (SIMD-within-a-register) loop over 8-byte words; quoted fields take a
//! byte-at-a-time state machine. A scan over a whole window of lines
//! (`reader::RangeScanner::fill_batch`) instead turns each 64-byte block into
//! one bit mask per needle ([`block_masks`]) and walks the set bits, so
//! newlines and delimiters are found in the same pass over the bytes.

/// Byte range of one field within a line (end-exclusive).
///
/// Offsets are `u32` relative to the start of the line: CSV tuples are far
/// below 4 GiB, and the narrower type halves the positional-map footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpan {
    /// Offset of the first byte of the field within the line.
    pub start: u32,
    /// Offset one past the last byte of the field.
    pub end: u32,
}

impl FieldSpan {
    /// Build a span from line-relative byte positions. This is the one place
    /// the usize→u32 narrowing happens: offsets fit `u32` by construction
    /// because spans are relative to their line's start and a line never
    /// exceeds the scan block size (`NoDbConfig` clamps it to ≤ 256 MiB).
    #[inline]
    pub fn at(start: usize, end: usize) -> FieldSpan {
        debug_assert!(start <= end && end <= u32::MAX as usize);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "line-relative, bounded per doc above"
        )]
        let (start, end) = (start as u32, end as u32);
        FieldSpan { start, end }
    }

    /// Slice the field's bytes out of its line.
    #[inline]
    pub fn of<'a>(&self, line: &'a [u8]) -> &'a [u8] {
        &line[self.start as usize..self.end as usize]
    }

    /// Field width in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True for zero-width (empty) fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Reusable output buffer for tokenizing one tuple.
///
/// `spans[i]` describes field `first_field + i`. Reusing one `Tokens` across
/// all tuples of a scan keeps the hot loop allocation-free (workhorse
/// collection pattern).
#[derive(Debug, Default, Clone)]
pub struct Tokens {
    spans: Vec<FieldSpan>,
    first_field: usize,
    /// True when the scan reached the end of the line, i.e. `spans` covers
    /// every field from `first_field` to the last field of the tuple.
    complete: bool,
}

impl Tokens {
    /// New empty buffer.
    pub fn new() -> Self {
        Tokens::default()
    }

    /// Spans collected by the last tokenize call.
    #[inline]
    pub fn spans(&self) -> &[FieldSpan] {
        &self.spans
    }

    /// Index of the field described by `spans()[0]`.
    #[inline]
    pub fn first_field(&self) -> usize {
        self.first_field
    }

    /// Number of fields located.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no fields were located.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Whether the last call consumed the entire line.
    #[inline]
    pub fn reached_end_of_line(&self) -> bool {
        self.complete
    }

    /// Span for absolute field index `field`, if it was located.
    #[inline]
    pub fn get(&self, field: usize) -> Option<FieldSpan> {
        field
            .checked_sub(self.first_field)
            .and_then(|i| self.spans.get(i))
            .copied()
    }

    fn reset(&mut self, first_field: usize) {
        self.spans.clear();
        self.first_field = first_field;
        self.complete = false;
    }
}

/// Tokenizer settings for one raw file.
#[derive(Debug, Clone, Copy)]
pub struct TokenizerConfig {
    /// Field delimiter, e.g. `b','`.
    pub delimiter: u8,
    /// Quote character enabling the RFC-4180-style slow path, or `None` for
    /// the plain fast path (the paper's synthetic workloads are unquoted).
    pub quote: Option<u8>,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig {
            delimiter: b',',
            quote: None,
        }
    }
}

impl TokenizerConfig {
    /// Plain CSV with the given delimiter and no quoting.
    pub fn plain(delimiter: u8) -> Self {
        TokenizerConfig {
            delimiter,
            quote: None,
        }
    }

    /// Tokenize every field of `line` into `out`.
    ///
    /// Returns the number of fields found. A line always has at least one
    /// field (the empty line has one empty field), matching CSV semantics.
    pub fn tokenize_into(&self, line: &[u8], out: &mut Tokens) -> usize {
        self.tokenize_selective(line, usize::MAX, out)
    }

    /// *Selective tokenizing*: locate fields `0..=upto_field`, aborting the
    /// tuple as soon as `upto_field` has been delimited. Returns the number
    /// of fields found (which is `< upto_field + 1` for short rows).
    pub fn tokenize_selective(&self, line: &[u8], upto_field: usize, out: &mut Tokens) -> usize {
        out.reset(0);
        self.scan(line, 0, upto_field, out);
        out.spans.len()
    }

    /// *Resumable tokenizing*: field `anchor_field` is known (from the
    /// positional map) to start at byte `anchor_off` of `line`; locate
    /// fields `anchor_field..=upto_field` without touching the prefix.
    ///
    /// Returns the number of fields found from the anchor onward.
    pub fn tokenize_from(
        &self,
        line: &[u8],
        anchor_field: usize,
        anchor_off: usize,
        upto_field: usize,
        out: &mut Tokens,
    ) -> usize {
        debug_assert!(anchor_field <= upto_field);
        debug_assert!(anchor_off <= line.len());
        out.reset(anchor_field);
        self.scan(line, anchor_off, upto_field - anchor_field, out);
        out.spans.len()
    }

    /// Core loop: starting at byte `from`, append spans for up to
    /// `relative_upto + 1` fields to `out`.
    fn scan(&self, line: &[u8], from: usize, relative_upto: usize, out: &mut Tokens) {
        match self.quote {
            None => self.scan_plain(line, from, relative_upto, out),
            Some(q) => self.scan_quoted(line, from, relative_upto, q, out),
        }
    }

    #[inline]
    fn scan_plain(&self, line: &[u8], from: usize, relative_upto: usize, out: &mut Tokens) {
        let mut start = from;
        let mut field = 0usize;
        loop {
            match find_byte(&line[start..], self.delimiter) {
                Some(rel) => {
                    let end = start + rel;
                    out.spans.push(FieldSpan::at(start, end));
                    if field == relative_upto {
                        return;
                    }
                    field += 1;
                    start = end + 1;
                }
                None => {
                    out.spans.push(FieldSpan::at(start, line.len()));
                    out.complete = true;
                    return;
                }
            }
        }
    }

    /// Quote-aware state machine. A field beginning with the quote byte runs
    /// to the matching unescaped quote; doubled quotes inside are literal.
    /// Spans of quoted fields exclude the surrounding quotes but keep any
    /// doubling (the parser unescapes when materializing strings).
    ///
    /// A malformed line whose closing quote is followed by something other
    /// than the delimiter (`"ab"c,d`) keeps its field positions: the field
    /// holds the quoted text alone (`ab`), the stray bytes up to the next
    /// delimiter are dropped, and the next field starts after that
    /// delimiter (`d`). With no delimiter left, the quoted field is the
    /// line's last. An unterminated quote runs to the end of the line.
    fn scan_quoted(&self, line: &[u8], from: usize, relative_upto: usize, q: u8, out: &mut Tokens) {
        let mut i = from;
        let mut field = 0usize;
        loop {
            if i < line.len() && line[i] == q {
                // Quoted field: scan to the closing quote.
                let content_start = i + 1;
                let mut j = content_start;
                loop {
                    match find_byte(&line[j..], q) {
                        Some(rel) => {
                            let at = j + rel;
                            if at + 1 < line.len() && line[at + 1] == q {
                                j = at + 2; // escaped quote, keep scanning
                            } else {
                                out.spans.push(FieldSpan::at(content_start, at));
                                i = at + 1;
                                break;
                            }
                        }
                        None => {
                            // Unterminated quote: treat rest of line as field.
                            out.spans.push(FieldSpan::at(content_start, line.len()));
                            out.complete = true;
                            return;
                        }
                    }
                }
                if field == relative_upto {
                    return;
                }
                // Skip the delimiter after the closing quote, and any stray
                // bytes before it.
                match find_byte(&line[i..], self.delimiter) {
                    Some(rel) => i += rel + 1,
                    None => {
                        out.complete = true;
                        return;
                    }
                }
                field += 1;
            } else {
                match find_byte(&line[i..], self.delimiter) {
                    Some(rel) => {
                        let end = i + rel;
                        out.spans.push(FieldSpan::at(i, end));
                        if field == relative_upto {
                            return;
                        }
                        field += 1;
                        i = end + 1;
                    }
                    None => {
                        out.spans.push(FieldSpan::at(i, line.len()));
                        out.complete = true;
                        return;
                    }
                }
            }
        }
    }
}

/// Find the first occurrence of `needle` in `hay` using an 8-byte SWAR loop.
///
/// Equivalent to `hay.iter().position(|&b| b == needle)` but roughly 4-6x
/// faster on long runs, which dominates tokenizing cost on wide tuples.
#[inline]
pub fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pat = LO.wrapping_mul(needle as u64);
    let mut i = 0usize;
    // Unaligned little-endian loads of 8 bytes while 8 remain.
    while let Some(&chunk) = hay[i..].first_chunk::<8>() {
        let w = u64::from_le_bytes(chunk);
        let x = w ^ pat;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == needle).map(|p| p + i)
}

/// Count every occurrence of `needle` in `hay` with an 8-byte SWAR loop.
///
/// Counting the newlines of a byte range gives its line count without
/// tokenizing or copying a single line (`reader::count_lines_in_range`, the
/// floor a cold scan is measured against). Per 8-byte word the match mask is reduced with `count_ones`, so the pass
/// is pure load/XOR/SUB/AND/POPCNT — no branches on the hot path.
#[inline]
pub fn count_byte(hay: &[u8], needle: u8) -> usize {
    // `find_byte`'s zero-detect mask is only exact below its lowest hit
    // (subtraction borrows can smear into higher bytes), so counting uses
    // the carry-free variant: per byte, `(x & 0x7f) + 0x7f` overflows into
    // the high bit unless the low 7 bits are zero, and `| x` folds in the
    // byte's own high bit — the complement's high bits then mark exactly
    // the zero bytes, with no carries crossing byte lanes.
    const LO: u64 = 0x0101_0101_0101_0101;
    const SEVENF: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let pat = LO.wrapping_mul(needle as u64);
    let mut count = 0usize;
    let (words, tail) = hay.as_chunks::<8>();
    for &word in words {
        let x = u64::from_le_bytes(word) ^ pat;
        let hit = !(((x & SEVENF) + SEVENF) | x | SEVENF);
        count += hit.count_ones() as usize;
    }
    count + tail.iter().filter(|&&b| b == needle).count()
}

/// Bit masks of one 64-byte block: bit `k` of `masks[j]` is set exactly when
/// `block[k] == needles[j]`.
///
/// Per 8-byte word and needle, the carry-free zero-byte test of
/// [`count_byte`] leaves `0x80` in every matching lane; shifting those lane
/// bits down to bit 0 of each byte and multiplying by `0x0102_0408_1020_4080`
/// gathers the eight of them, in order, into the top byte (every partial
/// product lands on its own bit, so nothing carries into that byte). Eight
/// words give the 64 bits of a block, and a caller walks them with
/// `trailing_zeros` instead of restarting a search per field.
#[inline(always)]
pub fn block_masks<const N: usize>(block: &[u8; 64], needles: [u8; N]) -> [u64; N] {
    const LO: u64 = 0x0101_0101_0101_0101;
    const SEVENF: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let pats = needles.map(|b| LO.wrapping_mul(u64::from(b)));
    let mut masks = [0u64; N];
    let (words, _) = block.as_chunks::<8>();
    for (k, &word) in words.iter().enumerate() {
        let w = u64::from_le_bytes(word);
        for (mask, &pat) in masks.iter_mut().zip(&pats) {
            let x = w ^ pat;
            let hit = !(((x & SEVENF) + SEVENF) | x | SEVENF);
            *mask |= ((hit >> 7).wrapping_mul(GATHER) >> 56) << (8 * k);
        }
    }
    masks
}

/// Locate the end of the current line (`\n`) starting at `from`.
/// Returns the index of the newline byte, or `None` if the buffer ends first.
#[inline]
pub fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    find_byte(&buf[from..], b'\n').map(|p| p + from)
}

/// Strip a trailing `\r` (CRLF input) from a line slice.
#[inline]
pub fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_of(cfg: &TokenizerConfig, line: &[u8]) -> Vec<(u32, u32)> {
        let mut t = Tokens::new();
        cfg.tokenize_into(line, &mut t);
        t.spans().iter().map(|s| (s.start, s.end)).collect()
    }

    #[test]
    fn find_byte_matches_naive_scan() {
        let data = b"abcdefghijklmnop,qrstuvwxyz";
        assert_eq!(find_byte(data, b','), Some(16));
        assert_eq!(find_byte(data, b'!'), None);
        assert_eq!(find_byte(b"", b','), None);
        assert_eq!(find_byte(b",", b','), Some(0));
    }

    #[test]
    fn find_byte_short_tail() {
        // Hits in the < 8-byte scalar tail.
        assert_eq!(find_byte(b"abcdefgh,xy", b','), Some(8));
        assert_eq!(find_byte(b"abc,", b','), Some(3));
    }

    #[test]
    fn count_byte_matches_naive_count() {
        assert_eq!(count_byte(b"", b'\n'), 0);
        assert_eq!(count_byte(b"\n", b'\n'), 1);
        assert_eq!(count_byte(b"a,b\nc,d\ne", b'\n'), 2);
        // Pseudo-random soup at several offsets so both the SWAR body and
        // the scalar tail are exercised.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = Vec::new();
        for _ in 0..4099 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bytes.push((x % 5) as u8 + b'\n');
        }
        for start in [0usize, 1, 3, 7, 8, 15] {
            let hay = &bytes[start..];
            let naive = hay.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(count_byte(hay, b'\n'), naive, "start = {start}");
        }
    }

    #[test]
    fn block_masks_match_a_byte_compare() {
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..64 {
            let mut block = [0u8; 64];
            for b in &mut block {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = [b',', b'\n', b'"', b'a', 0x80, 0xac, 0x8a, 0x00][(x % 8) as usize];
            }
            let needles = [b',', b'\n', b'"', 0x80];
            let masks = block_masks(&block, needles);
            for (mask, needle) in masks.iter().zip(needles) {
                let naive = (0..64)
                    .filter(|&k| block[k] == needle)
                    .fold(0u64, |m, k| m | 1 << k);
                assert_eq!(*mask, naive, "needle {needle:#x}");
            }
        }
    }

    #[test]
    fn tokenize_full_line() {
        let cfg = TokenizerConfig::default();
        assert_eq!(spans_of(&cfg, b"1,22,333"), vec![(0, 1), (2, 4), (5, 8)]);
    }

    #[test]
    fn tokenize_empty_fields() {
        let cfg = TokenizerConfig::default();
        assert_eq!(spans_of(&cfg, b",a,"), vec![(0, 0), (1, 2), (3, 3)]);
        assert_eq!(spans_of(&cfg, b""), vec![(0, 0)]);
    }

    #[test]
    fn selective_tokenize_stops_early() {
        let cfg = TokenizerConfig::default();
        let mut t = Tokens::new();
        let n = cfg.tokenize_selective(b"a,b,c,d,e", 1, &mut t);
        assert_eq!(n, 2);
        assert_eq!(t.get(1).unwrap().of(b"a,b,c,d,e"), b"b");
        assert!(!t.reached_end_of_line());
    }

    #[test]
    fn selective_past_end_marks_complete() {
        let cfg = TokenizerConfig::default();
        let mut t = Tokens::new();
        let n = cfg.tokenize_selective(b"a,b", 10, &mut t);
        assert_eq!(n, 2);
        assert!(t.reached_end_of_line());
    }

    #[test]
    fn resumable_tokenize_from_anchor() {
        let cfg = TokenizerConfig::default();
        let line = b"alpha,beta,gamma,delta";
        // Anchor: field 2 ("gamma") starts at byte 11.
        let mut t = Tokens::new();
        let n = cfg.tokenize_from(line, 2, 11, 3, &mut t);
        assert_eq!(n, 2);
        assert_eq!(t.first_field(), 2);
        assert_eq!(t.get(2).unwrap().of(line), b"gamma");
        assert_eq!(t.get(3).unwrap().of(line), b"delta");
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn quoted_fields() {
        let cfg = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let line = br#""a,b",c,"d""e""#;
        let s = spans_of(&cfg, line);
        assert_eq!(s.len(), 3);
        assert_eq!(&line[s[0].0 as usize..s[0].1 as usize], b"a,b");
        assert_eq!(&line[s[1].0 as usize..s[1].1 as usize], b"c");
        assert_eq!(&line[s[2].0 as usize..s[2].1 as usize], br#"d""e"#);
    }

    #[test]
    fn quoted_unterminated_takes_rest() {
        let cfg = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let line = br#"x,"unterminated"#;
        let s = spans_of(&cfg, line);
        assert_eq!(s.len(), 2);
        assert_eq!(&line[s[1].0 as usize..s[1].1 as usize], b"unterminated");
    }

    /// Stray bytes after a closing quote are dropped up to the next
    /// delimiter, so every later field keeps its position — also when
    /// tokenizing stops at that field or resumes past it.
    #[test]
    fn stray_bytes_after_a_closing_quote_keep_field_positions() {
        let cfg = TokenizerConfig {
            delimiter: b',',
            quote: Some(b'"'),
        };
        let text = |line: &[u8]| -> Vec<Vec<u8>> {
            spans_of(&cfg, line)
                .iter()
                .map(|&(a, b)| line[a as usize..b as usize].to_vec())
                .collect()
        };
        assert_eq!(text(br#""ab"c,d"#), [&b"ab"[..], b"d"]);
        assert_eq!(text(br#""abc,"def",x"#), [&b"abc,"[..], b"x"]);
        assert_eq!(text(br#"1,"ab"cd"#), [&b"1"[..], b"ab"]);
        let mut t = Tokens::new();
        assert_eq!(cfg.tokenize_selective(br#""ab"c,d,e"#, 1, &mut t), 2);
        assert_eq!(t.get(1).unwrap().of(br#""ab"c,d,e"#), b"d");
    }

    #[test]
    fn trim_cr_strips_only_trailing() {
        assert_eq!(trim_cr(b"abc\r"), b"abc");
        assert_eq!(trim_cr(b"abc"), b"abc");
        assert_eq!(trim_cr(b"a\rb"), b"a\rb");
    }

    #[test]
    fn tokens_reuse_resets_state() {
        let cfg = TokenizerConfig::default();
        let mut t = Tokens::new();
        cfg.tokenize_into(b"a,b,c", &mut t);
        assert_eq!(t.len(), 3);
        cfg.tokenize_selective(b"x,y", 0, &mut t);
        assert_eq!(t.len(), 1);
        assert_eq!(t.first_field(), 0);
    }
}
