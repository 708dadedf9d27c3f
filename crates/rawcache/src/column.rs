//! Typed columnar storage for cached binary values.

use nodb_rawcsv::{parser, ColumnType, Datum};

/// Compact null bitmap (1 bit per row).
#[derive(Debug, Default, Clone)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
    any_null: bool,
}

impl NullMask {
    /// Append one validity bit (`true` = NULL).
    #[inline]
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[word] |= 1u64 << (self.len % 64);
            self.any_null = true;
        }
        self.len += 1;
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if !self.any_null {
            return false;
        }
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when at least one NULL bit is set; on a `false` (all-valid)
    /// column, vectorized kernels skip the per-row null check entirely.
    #[inline]
    pub fn any_null(&self) -> bool {
        self.any_null
    }

    /// The mask restricted to rows `[lo, hi)` (segment export). Copies
    /// word-at-a-time (shift-and-merge across the `lo % 64` misalignment) —
    /// this runs once per batch per column on the warm path, so per-bit
    /// pushes would be ~64x too slow on nullable columns.
    pub fn slice(&self, lo: usize, hi: usize) -> NullMask {
        let len = hi.saturating_sub(lo);
        let mut words = vec![0u64; len.div_ceil(64)];
        let mut any_null = false;
        if self.any_null {
            let shift = lo % 64;
            let base = lo / 64;
            let src = |i: usize| self.words.get(i).copied().unwrap_or(0);
            for (w, out) in words.iter_mut().enumerate() {
                let mut v = src(base + w) >> shift;
                if shift > 0 {
                    v |= src(base + w + 1) << (64 - shift);
                }
                *out = v;
            }
            // Zero the bits past `len`: later pushes OR into these slots,
            // and `any_null` must describe only the sliced range.
            if !len.is_multiple_of(64) {
                if let Some(last) = words.last_mut() {
                    *last &= (1u64 << (len % 64)) - 1;
                }
            }
            any_null = words.iter().any(|&w| w != 0);
        }
        NullMask {
            words,
            len,
            any_null,
        }
    }

    /// The mask at the given rows, in order (selective segment export).
    pub fn gather(&self, rows: &[u32], base: usize) -> NullMask {
        let mut out = NullMask::default();
        if !self.any_null {
            out.len = rows.len();
            out.words = vec![0; out.len.div_ceil(64)];
            return out;
        }
        for &r in rows {
            out.push(self.is_null(base + r as usize)); // lint: cast-ok u32 selection index widens into usize
        }
        out
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bitmap bytes held (see [`TypedColumn::footprint`] for the accounting
    /// discipline).
    pub fn footprint(&self) -> usize {
        self.words.len() * 8
    }

    /// Append every bit of `other` after this mask's bits (segment merge).
    /// Word-at-a-time: each source word is shifted across the `len % 64`
    /// misalignment and OR-ed into the (at most two) words it lands in —
    /// bits past a mask's `len` are always zero, so nothing needs clearing.
    pub fn append_segment(&mut self, other: &NullMask) {
        let shift = self.len % 64;
        let base = self.len / 64;
        self.len += other.len;
        self.words.resize(self.len.div_ceil(64), 0);
        if !other.any_null {
            return;
        }
        self.any_null = true;
        for (i, &w) in other.words.iter().enumerate() {
            self.words[base + i] |= w << shift;
            if shift > 0 {
                // The spill is non-zero only where `resize` made room.
                if let Some(next) = self.words.get_mut(base + i + 1) {
                    *next |= w >> (64 - shift);
                }
            }
        }
    }
}

/// One cached attribute's values in typed, post-parse form.
#[derive(Debug)]
pub enum TypedColumn {
    /// 64-bit integers.
    Int {
        /// Values (NULL rows hold 0; consult `nulls`).
        values: Vec<i64>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// 64-bit floats.
    Float {
        /// Values (NULL rows hold 0.0).
        values: Vec<f64>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// Booleans.
    Bool {
        /// Values (NULL rows hold false).
        values: Vec<bool>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// Strings.
    Str {
        /// Values (NULL rows hold "").
        values: Vec<Box<str>>,
        /// Cumulative byte length of all strings (budget accounting).
        str_bytes: usize,
        /// Null bitmap.
        nulls: NullMask,
    },
}

impl TypedColumn {
    /// Empty column of the given type.
    pub fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => TypedColumn::Int {
                values: Vec::new(),
                nulls: NullMask::default(),
            },
            ColumnType::Float => TypedColumn::Float {
                values: Vec::new(),
                nulls: NullMask::default(),
            },
            ColumnType::Bool => TypedColumn::Bool {
                values: Vec::new(),
                nulls: NullMask::default(),
            },
            ColumnType::Str => TypedColumn::Str {
                values: Vec::new(),
                str_bytes: 0,
                nulls: NullMask::default(),
            },
        }
    }

    /// The column's type.
    pub fn ty(&self) -> ColumnType {
        match self {
            TypedColumn::Int { .. } => ColumnType::Int,
            TypedColumn::Float { .. } => ColumnType::Float,
            TypedColumn::Bool { .. } => ColumnType::Bool,
            TypedColumn::Str { .. } => ColumnType::Str,
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            TypedColumn::Int { values, .. } => values.len(),
            TypedColumn::Float { values, .. } => values.len(),
            TypedColumn::Bool { values, .. } => values.len(),
            TypedColumn::Str { values, .. } => values.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a datum. NULL appends a null slot; a type-mismatched datum is
    /// recorded as NULL (cannot happen when fed from a typed parse path, but
    /// keeps the API total).
    pub fn push(&mut self, d: &Datum) {
        self.push_owned(d.clone());
    }

    /// [`Self::push`] by value: a string moves into the column instead of
    /// being copied.
    pub fn push_owned(&mut self, d: Datum) {
        match self {
            TypedColumn::Int { values, nulls } => {
                let v = match d {
                    Datum::Int(v) => Some(v),
                    _ => None,
                };
                values.push(v.unwrap_or(0));
                nulls.push(v.is_none());
            }
            TypedColumn::Float { values, nulls } => {
                let v = match d {
                    Datum::Float(v) => Some(v),
                    Datum::Int(v) => Some(v as f64),
                    _ => None,
                };
                values.push(v.unwrap_or(0.0));
                nulls.push(v.is_none());
            }
            TypedColumn::Bool { values, nulls } => {
                let v = match d {
                    Datum::Bool(v) => Some(v),
                    _ => None,
                };
                values.push(v.unwrap_or(false));
                nulls.push(v.is_none());
            }
            TypedColumn::Str {
                values,
                str_bytes,
                nulls,
            } => match d {
                Datum::Str(s) => {
                    *str_bytes += s.len();
                    values.push(s);
                    nulls.push(false);
                }
                _ => {
                    values.push("".into());
                    nulls.push(true);
                }
            },
        }
    }

    /// Append a NULL slot.
    pub fn push_null(&mut self) {
        self.push_owned(Datum::Null);
    }

    /// Parse one raw field straight into the column — the scan's convert
    /// step, with no `Datum` in between. The rules are
    /// [`parser::parse_field`]'s: an empty field is NULL, `Str` is lossy
    /// UTF-8, and a `Str` field holding the `quote` byte is unescaped
    /// ([`parser::unescape_quoted`]). Returns `false`, appending nothing,
    /// exactly when `parse_field` would return an error.
    pub fn push_parsed(&mut self, raw: &[u8], quote: Option<u8>) -> bool {
        if raw.is_empty() {
            self.push_null();
            return true;
        }
        match self {
            TypedColumn::Int { values, .. } => match parser::parse_int(raw) {
                Some(v) => values.push(v),
                None => return false,
            },
            TypedColumn::Float { values, .. } => match parser::parse_float(raw) {
                Some(v) => values.push(v),
                None => return false,
            },
            TypedColumn::Bool { values, .. } => match parser::parse_bool(raw) {
                Some(v) => values.push(v),
                None => return false,
            },
            TypedColumn::Str {
                values, str_bytes, ..
            } => {
                let s: Box<str> = match quote {
                    Some(q) if raw.contains(&q) => parser::unescape_quoted(raw, q).into(),
                    _ => String::from_utf8_lossy(raw).into(),
                };
                *str_bytes += s.len();
                values.push(s);
            }
        }
        self.nulls_mut().push(false);
        true
    }

    /// Append row `i` of `src`, a column of the same type (a per-row cache
    /// read). Returns `false`, appending nothing, when `src` has no row `i`
    /// or holds another type.
    pub fn push_from(&mut self, src: &TypedColumn, i: usize) -> bool {
        if i >= src.len() {
            return false;
        }
        match (&mut *self, src) {
            (TypedColumn::Int { values, .. }, TypedColumn::Int { values: sv, .. }) => {
                values.push(sv[i])
            }
            (TypedColumn::Float { values, .. }, TypedColumn::Float { values: sv, .. }) => {
                values.push(sv[i])
            }
            (TypedColumn::Bool { values, .. }, TypedColumn::Bool { values: sv, .. }) => {
                values.push(sv[i])
            }
            (
                TypedColumn::Str {
                    values, str_bytes, ..
                },
                TypedColumn::Str { values: sv, .. },
            ) => {
                *str_bytes += sv[i].len();
                values.push(sv[i].clone());
            }
            _ => return false,
        }
        let null = src.nulls().is_null(i);
        self.nulls_mut().push(null);
        true
    }

    /// The column's null bitmap.
    pub fn nulls(&self) -> &NullMask {
        match self {
            TypedColumn::Int { nulls, .. }
            | TypedColumn::Float { nulls, .. }
            | TypedColumn::Bool { nulls, .. }
            | TypedColumn::Str { nulls, .. } => nulls,
        }
    }

    fn nulls_mut(&mut self) -> &mut NullMask {
        match self {
            TypedColumn::Int { nulls, .. }
            | TypedColumn::Float { nulls, .. }
            | TypedColumn::Bool { nulls, .. }
            | TypedColumn::Str { nulls, .. } => nulls,
        }
    }

    /// Read row `i` back as a datum. Returns `None` past the end.
    #[inline]
    pub fn datum(&self, i: usize) -> Option<Datum> {
        if i >= self.len() {
            return None;
        }
        if self.nulls().is_null(i) {
            return Some(Datum::Null);
        }
        Some(match self {
            TypedColumn::Int { values, .. } => Datum::Int(values[i]),
            TypedColumn::Float { values, .. } => Datum::Float(values[i]),
            TypedColumn::Bool { values, .. } => Datum::Bool(values[i]),
            TypedColumn::Str { values, .. } => Datum::Str(values[i].clone()),
        })
    }

    /// Append every row of `other` after this column's rows — the segment
    /// merge of the parallel scan, which concatenates per-partition partial
    /// columns in partition order.
    pub fn append_segment(&mut self, other: TypedColumn) {
        self.append_tail(other, 0);
    }

    /// Append rows `[lo, other.len())` of `other` after this column's rows.
    /// An empty column adopts a whole segment's vectors outright; otherwise
    /// fixed-width values are copied as one slice and strings move by
    /// pointer. Segments always derive from the same schema as the column
    /// they extend, so the types match; a mismatch appends nothing.
    pub(crate) fn append_tail(&mut self, other: TypedColumn, lo: usize) {
        if lo == 0 && self.is_empty() && self.ty() == other.ty() {
            *self = other;
            return;
        }
        let lo = lo.min(other.len());
        let tail = |on: NullMask| if lo == 0 { on } else { on.slice(lo, on.len()) };
        match (self, other) {
            (
                TypedColumn::Int { values, nulls },
                TypedColumn::Int {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend_from_slice(&ov[lo..]);
                nulls.append_segment(&tail(on));
            }
            (
                TypedColumn::Float { values, nulls },
                TypedColumn::Float {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend_from_slice(&ov[lo..]);
                nulls.append_segment(&tail(on));
            }
            (
                TypedColumn::Bool { values, nulls },
                TypedColumn::Bool {
                    values: ov,
                    nulls: on,
                },
            ) => {
                values.extend_from_slice(&ov[lo..]);
                nulls.append_segment(&tail(on));
            }
            (
                TypedColumn::Str {
                    values,
                    str_bytes,
                    nulls,
                },
                TypedColumn::Str {
                    values: mut ov,
                    str_bytes: ob,
                    nulls: on,
                },
            ) => {
                *str_bytes += match lo {
                    0 => ob,
                    _ => ov[lo..].iter().map(|s| s.len()).sum(),
                };
                values.extend(ov.drain(lo..));
                nulls.append_segment(&tail(on));
            }
            (a, b) => debug_assert!(
                false,
                "cannot merge column segments of different types: {:?} vs {:?}",
                a.ty(),
                b.ty()
            ),
        }
    }

    /// What `append_tail(self, lo)` would add to the
    /// [`Self::footprint`] of a same-typed column currently holding
    /// `target_rows` rows, and the longest string payload in that tail (0
    /// for fixed-width types) — computed without touching either column, so
    /// the cache can decide admission before it moves anything.
    pub(crate) fn tail_cost(&self, lo: usize, target_rows: usize) -> (usize, usize) {
        let lo = lo.min(self.len());
        let n = self.len() - lo;
        let mask_growth = ((target_rows + n).div_ceil(64) - target_rows.div_ceil(64)) * 8;
        match self {
            TypedColumn::Int { .. } | TypedColumn::Float { .. } => (n * 8 + mask_growth, 0),
            TypedColumn::Bool { .. } => (n + mask_growth, 0),
            TypedColumn::Str { values, .. } => {
                let (bytes, longest) = values[lo..]
                    .iter()
                    .fold((0, 0), |(sum, max), s| (sum + s.len(), max.max(s.len())));
                (
                    n * std::mem::size_of::<Box<str>>() + bytes + mask_growth,
                    longest,
                )
            }
        }
    }

    /// Reserve room for `rows` more rows (string payloads excluded).
    pub(crate) fn reserve(&mut self, rows: usize) {
        match self {
            TypedColumn::Int { values, .. } => values.reserve(rows),
            TypedColumn::Float { values, .. } => values.reserve(rows),
            TypedColumn::Bool { values, .. } => values.reserve(rows),
            TypedColumn::Str { values, .. } => values.reserve(rows),
        }
    }

    /// Export rows `[lo, hi)` as an owned column of the same type — the
    /// typed segment export the vectorized warm path is built on: a cache
    /// segment crosses into the engine as value vectors plus a null mask,
    /// never as per-cell boxed datums. Values are copied (`memcpy` for
    /// fixed-width types). The range is clamped to `[0, len())`: rows past
    /// the end are truncated, so the exported column's length is
    /// `min(hi, len()) - min(lo, len())`.
    pub fn export_range(&self, lo: usize, hi: usize) -> TypedColumn {
        let lo = lo.min(self.len());
        let hi = hi.clamp(lo, self.len());
        match self {
            TypedColumn::Int { values, nulls } => TypedColumn::Int {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            TypedColumn::Float { values, nulls } => TypedColumn::Float {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            TypedColumn::Bool { values, nulls } => TypedColumn::Bool {
                values: values[lo..hi].to_vec(),
                nulls: nulls.slice(lo, hi),
            },
            TypedColumn::Str { values, nulls, .. } => {
                let vals: Vec<Box<str>> = values[lo..hi].to_vec();
                let str_bytes = vals.iter().map(|s| s.len()).sum();
                TypedColumn::Str {
                    values: vals,
                    str_bytes,
                    nulls: nulls.slice(lo, hi),
                }
            }
        }
    }

    /// Export the rows `base + rows[i]`, in order, as an owned column of the
    /// same type — the selective (late-materializing) twin of
    /// [`Self::export_range`]: only rows that survived a selection vector
    /// are ever copied.
    pub fn gather(&self, rows: &[u32], base: usize) -> TypedColumn {
        match self {
            TypedColumn::Int { values, nulls } => TypedColumn::Int {
                values: rows.iter().map(|&r| values[base + r as usize]).collect(), // lint: cast-ok u32 selection index widens into usize
                nulls: nulls.gather(rows, base),
            },
            TypedColumn::Float { values, nulls } => TypedColumn::Float {
                values: rows.iter().map(|&r| values[base + r as usize]).collect(), // lint: cast-ok u32 selection index widens into usize
                nulls: nulls.gather(rows, base),
            },
            TypedColumn::Bool { values, nulls } => TypedColumn::Bool {
                values: rows.iter().map(|&r| values[base + r as usize]).collect(), // lint: cast-ok u32 selection index widens into usize
                nulls: nulls.gather(rows, base),
            },
            TypedColumn::Str { values, nulls, .. } => {
                let vals: Vec<Box<str>> = rows
                    .iter()
                    .map(|&r| values[base + r as usize].clone()) // lint: cast-ok u32 selection index widens into usize
                    .collect();
                let str_bytes = vals.iter().map(|s| s.len()).sum();
                TypedColumn::Str {
                    values: vals,
                    str_bytes,
                    nulls: nulls.gather(rows, base),
                }
            }
        }
    }

    /// Value bytes held (budget accounting). Deliberately counts *data*
    /// bytes (`len`), not allocator capacity: capacity slack is bounded at
    /// 2x by Vec's growth policy and charging it would make per-row budget
    /// checks jump unpredictably at reallocation points.
    pub fn footprint(&self) -> usize {
        match self {
            TypedColumn::Int { values, nulls } => values.len() * 8 + nulls.footprint(),
            TypedColumn::Float { values, nulls } => values.len() * 8 + nulls.footprint(),
            TypedColumn::Bool { values, nulls } => values.len() + nulls.footprint(),
            TypedColumn::Str {
                values,
                str_bytes,
                nulls,
            } => values.len() * std::mem::size_of::<Box<str>>() + str_bytes + nulls.footprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_round_trip() {
        let mut m = NullMask::default();
        for i in 0..130 {
            m.push(i % 7 == 0);
        }
        for i in 0..130 {
            assert_eq!(m.is_null(i), i % 7 == 0, "row {i}");
        }
        assert_eq!(m.len(), 130);
    }

    #[test]
    fn int_column_round_trip() {
        let mut c = TypedColumn::new(ColumnType::Int);
        c.push(&Datum::Int(5));
        c.push(&Datum::Null);
        c.push(&Datum::Int(-9));
        assert_eq!(c.datum(0), Some(Datum::Int(5)));
        assert_eq!(c.datum(1), Some(Datum::Null));
        assert_eq!(c.datum(2), Some(Datum::Int(-9)));
        assert_eq!(c.datum(3), None);
    }

    #[test]
    fn str_column_accounts_bytes() {
        let mut c = TypedColumn::new(ColumnType::Str);
        c.push(&Datum::Str("hello".into()));
        c.push(&Datum::Str("world!".into()));
        assert!(c.footprint() >= 11);
        assert_eq!(c.datum(1), Some(Datum::Str("world!".into())));
    }

    #[test]
    fn float_column_coerces_ints() {
        let mut c = TypedColumn::new(ColumnType::Float);
        c.push(&Datum::Int(2));
        assert_eq!(c.datum(0), Some(Datum::Float(2.0)));
    }

    /// Datum equality with floats compared by bit pattern (NaN, -0.0).
    fn same(a: &Option<Datum>, b: &Option<Datum>) -> bool {
        match (a, b) {
            (Some(Datum::Float(x)), Some(Datum::Float(y))) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn push_parsed_equals_parse_field() {
        let corpus: &[&[u8]] = &[
            b"",
            b"0",
            b"-0",
            b"+7",
            b"-42",
            b"9223372036854775807",
            b"-9223372036854775808",
            b"9223372036854775808",
            b"-9223372036854775809",
            b"00000000000000000001",
            b"-",
            b"+",
            b"12a",
            b" 1",
            b"3.5",
            b"-12.25",
            b"-0.0",
            b"7.0",
            b"1.",
            b".5",
            b"1e3",
            b"-2.5E-2",
            b"1e400",
            b"4503599627370497.5",
            b"inf",
            b"NaN",
            b"1",
            b"t",
            b"T",
            b"f",
            b"F",
            b"true",
            b"TRUE",
            b"True",
            b"false",
            b"FALSE",
            b"fAlSe",
            b"yes",
            b"plain",
            b"\xff\xfeok",
            b"caf\xc3\xa9",
            b"a\"\"b",
            b"\"\"",
        ];
        for ty in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Bool,
            ColumnType::Str,
        ] {
            for quote in [None, Some(b'"')] {
                let mut typed = TypedColumn::new(ty);
                let mut reference = TypedColumn::new(ty);
                for (row, raw) in corpus.iter().enumerate() {
                    let tag = format!("{ty:?} {quote:?} {:?}", String::from_utf8_lossy(raw));
                    let expect = match quote {
                        Some(q) if ty == ColumnType::Str && raw.contains(&q) => {
                            Ok(Datum::Str(parser::unescape_quoted(raw, q).into()))
                        }
                        _ => parser::parse_field(raw, ty, row as u64, 0),
                    };
                    assert_eq!(typed.push_parsed(raw, quote), expect.is_ok(), "{tag}");
                    if let Ok(d) = expect {
                        reference.push(&d);
                    }
                    assert_eq!(typed.len(), reference.len(), "{tag}");
                }
                assert_eq!(typed.footprint(), reference.footprint(), "{ty:?}");
                // A row-by-row copy (the scan's cache read) reproduces it.
                let mut copy = TypedColumn::new(ty);
                for i in 0..typed.len() {
                    assert!(copy.push_from(&typed, i));
                }
                assert!(!copy.push_from(&typed, typed.len()), "past the end");
                assert_eq!(copy.footprint(), reference.footprint(), "{ty:?}");
                for i in 0..reference.len() {
                    assert!(same(&typed.datum(i), &reference.datum(i)), "{ty:?} row {i}");
                    assert!(same(&copy.datum(i), &reference.datum(i)), "{ty:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn mismatched_push_becomes_null() {
        let mut c = TypedColumn::new(ColumnType::Int);
        c.push(&Datum::Str("oops".into()));
        assert_eq!(c.datum(0), Some(Datum::Null));
    }

    #[test]
    fn null_mask_append_segment_matches_pushes() {
        // Every `self.len % 64` x `other.len % 64` misalignment (plus
        // multi-word lengths), three null densities, against the bit-by-bit
        // loop — `any_null` exact, and no stray bit left past the end for a
        // later push to trip over.
        let bit = |seed: usize, i: usize, every: usize| {
            every != 0 && (i * 7 + seed).is_multiple_of(every)
        };
        for la in (0..=64).chain([65, 127, 128, 191]) {
            for lb in (0..=64).chain([65, 127, 128, 130]) {
                for every in [0usize, 3, 61] {
                    let mut direct = NullMask::default();
                    let mut a = NullMask::default();
                    let mut b = NullMask::default();
                    for i in 0..la {
                        direct.push(bit(1, i, 5));
                        a.push(bit(1, i, 5));
                    }
                    for i in 0..lb {
                        direct.push(bit(2, i, every));
                        b.push(bit(2, i, every));
                    }
                    a.append_segment(&b);
                    // A trailing partial word followed by further pushes.
                    for i in 0..70 {
                        direct.push(i % 9 == 0);
                        a.push(i % 9 == 0);
                    }
                    let tag = format!("({la},{lb},{every})");
                    assert_eq!(a.len(), direct.len(), "{tag}");
                    assert_eq!(a.footprint(), direct.footprint(), "{tag}");
                    assert_eq!(a.any_null(), direct.any_null(), "{tag}");
                    for i in 0..direct.len() {
                        assert_eq!(a.is_null(i), direct.is_null(i), "{tag} bit {i}");
                    }
                    assert_eq!(a.words, direct.words, "{tag}: no stray bits");
                }
            }
        }
    }

    #[test]
    fn column_append_segment_matches_pushes() {
        let vals = [
            Datum::Int(3),
            Datum::Null,
            Datum::Int(-7),
            Datum::Int(42),
            Datum::Null,
        ];
        let mut direct = TypedColumn::new(ColumnType::Int);
        let mut lo = TypedColumn::new(ColumnType::Int);
        let mut hi = TypedColumn::new(ColumnType::Int);
        for (i, v) in vals.iter().enumerate() {
            direct.push(v);
            if i < 2 {
                lo.push(v);
            } else {
                hi.push(v);
            }
        }
        lo.append_segment(hi);
        assert_eq!(lo.len(), direct.len());
        assert_eq!(lo.footprint(), direct.footprint());
        for i in 0..vals.len() {
            assert_eq!(lo.datum(i), direct.datum(i), "row {i}");
        }

        let mut s1 = TypedColumn::new(ColumnType::Str);
        let mut s2 = TypedColumn::new(ColumnType::Str);
        s1.push(&Datum::Str("ab".into()));
        s2.push(&Datum::Null);
        s2.push(&Datum::Str("cdef".into()));
        s1.append_segment(s2);
        assert_eq!(s1.len(), 3);
        assert_eq!(s1.datum(1), Some(Datum::Null));
        assert_eq!(s1.datum(2), Some(Datum::Str("cdef".into())));
        assert!(s1.footprint() >= 6);
    }

    /// A column of `n` values of `ty` with NULLs and empty strings mixed in.
    fn sample_column(ty: ColumnType, n: usize, seed: usize) -> (TypedColumn, Vec<Datum>) {
        let mut col = TypedColumn::new(ty);
        let mut vals = Vec::new();
        for i in 0..n {
            let k = i * 31 + seed;
            let d = if k.is_multiple_of(11) {
                Datum::Null
            } else {
                match ty {
                    ColumnType::Int => Datum::Int(k as i64 - 40),
                    ColumnType::Float => Datum::Float(k as f64 / 4.0),
                    ColumnType::Bool => Datum::Bool(k.is_multiple_of(3)),
                    ColumnType::Str => Datum::Str("xyzzy-plugh"[..k % 12].into()),
                }
            };
            col.push(&d);
            vals.push(d);
        }
        (col, vals)
    }

    #[test]
    fn append_tail_and_tail_cost_match_pushes() {
        for ty in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Bool,
            ColumnType::Str,
        ] {
            for (have, seg_len, lo) in [
                (0usize, 70usize, 0usize), // fresh column adopts the segment
                (0, 70, 9),
                (63, 130, 0),
                (64, 1, 0),
                (100, 90, 89),
                (5, 40, 40), // empty tail
                (5, 40, 99), // `lo` past the end
            ] {
                let tag = format!("{ty:?} have {have} seg {seg_len} lo {lo}");
                let (mut col, head) = sample_column(ty, have, 1);
                let (seg, tail) = sample_column(ty, seg_len, 2);
                let mut direct = TypedColumn::new(ty);
                for d in head.iter().chain(tail.iter().skip(lo)) {
                    direct.push(d);
                }
                let before = col.footprint();
                let (growth, longest) = seg.tail_cost(lo, col.len());
                col.append_tail(seg, lo);
                assert_eq!(col.len(), direct.len(), "{tag}");
                assert_eq!(col.footprint(), direct.footprint(), "{tag}");
                assert_eq!(growth, col.footprint() - before, "{tag}: growth is exact");
                let expect_longest = tail
                    .iter()
                    .skip(lo)
                    .map(|d| match d {
                        Datum::Str(s) => s.len(),
                        _ => 0,
                    })
                    .max()
                    .unwrap_or(0);
                assert_eq!(longest, expect_longest, "{tag}");
                for i in 0..direct.len() {
                    assert_eq!(col.datum(i), direct.datum(i), "{tag} row {i}");
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different types")]
    fn column_append_segment_rejects_type_mismatch() {
        let mut a = TypedColumn::new(ColumnType::Int);
        a.append_segment(TypedColumn::new(ColumnType::Str));
    }

    #[test]
    fn export_range_matches_pushes() {
        let vals = [
            Datum::Int(3),
            Datum::Null,
            Datum::Int(-7),
            Datum::Int(42),
            Datum::Null,
            Datum::Int(9),
        ];
        let mut col = TypedColumn::new(ColumnType::Int);
        for v in &vals {
            col.push(v);
        }
        for (lo, hi) in [(0usize, 6usize), (1, 4), (3, 3), (5, 6)] {
            let seg = col.export_range(lo, hi);
            assert_eq!(seg.len(), hi - lo, "({lo},{hi})");
            for i in 0..hi - lo {
                assert_eq!(seg.datum(i), col.datum(lo + i), "({lo},{hi}) row {i}");
            }
        }
        let mut s = TypedColumn::new(ColumnType::Str);
        s.push(&Datum::Str("ab".into()));
        s.push(&Datum::Null);
        s.push(&Datum::Str("cdef".into()));
        let seg = s.export_range(1, 3);
        assert_eq!(seg.datum(0), Some(Datum::Null));
        assert_eq!(seg.datum(1), Some(Datum::Str("cdef".into())));
        assert!(seg.footprint() >= 4, "str_bytes recomputed for the range");
    }

    #[test]
    fn null_mask_slice_matches_per_bit() {
        // Word-level shift-and-merge must agree with bit-by-bit extraction
        // across alignments, word boundaries, and ragged tails.
        let mut m = NullMask::default();
        for i in 0..300 {
            m.push(i % 5 == 0 || i % 37 == 0);
        }
        for (lo, hi) in [
            (0usize, 300usize),
            (0, 64),
            (64, 128),
            (1, 65),
            (63, 64),
            (63, 190),
            (100, 100),
            (129, 257),
            (250, 310), // past the end: stray range reads as not-null
        ] {
            let s = m.slice(lo, hi);
            assert_eq!(s.len(), hi - lo, "({lo},{hi})");
            let mut any = false;
            for i in 0..hi - lo {
                let expect = m.is_null(lo + i);
                assert_eq!(s.is_null(i), expect, "({lo},{hi}) bit {i}");
                any |= expect;
            }
            assert_eq!(s.any_null(), any, "({lo},{hi}) any_null exact");
            // Appending after a slice stays consistent (no stray tail bits).
            let mut grown = s;
            grown.push(true);
            assert!(grown.is_null(hi - lo));
        }
        // Export range clamps to the column length, values and mask agreeing.
        let mut c = TypedColumn::new(ColumnType::Int);
        for i in 0..10 {
            if i % 3 == 0 {
                c.push(&Datum::Null);
            } else {
                c.push(&Datum::Int(i));
            }
        }
        let seg = c.export_range(7, 99);
        assert_eq!(seg.len(), 3, "range clamped to len()");
        for i in 0..3 {
            assert_eq!(seg.datum(i), c.datum(7 + i));
        }
    }

    #[test]
    fn gather_picks_selected_rows() {
        let mut col = TypedColumn::new(ColumnType::Float);
        for i in 0..10 {
            if i % 4 == 0 {
                col.push(&Datum::Null);
            } else {
                col.push(&Datum::Float(i as f64));
            }
        }
        let picked = col.gather(&[0, 3, 5], 2); // rows 2, 5, 7
        assert_eq!(picked.len(), 3);
        assert_eq!(picked.datum(0), col.datum(2));
        assert_eq!(picked.datum(1), col.datum(5));
        assert_eq!(picked.datum(2), col.datum(7));
        // All-valid fast path keeps bits addressable past the copy.
        let mut dense = TypedColumn::new(ColumnType::Int);
        for i in 0..70 {
            dense.push(&Datum::Int(i));
        }
        let seg = dense.export_range(0, 70);
        assert_eq!(seg.datum(69), Some(Datum::Int(69)));
    }
}
