//! Dense group ids for hash aggregation.
//!
//! [`GroupTable::assign`] resolves every logical row of a batch to a group
//! id — `0, 1, 2, …` in order of first arrival — so the aggregates above it
//! can fold their argument columns into per-group state arrays indexed by
//! id. An aggregate without GROUP BY is the zero-key case, decided here
//! alone: the table holds group 0 from the start, so an aggregate over no
//! rows still answers one row, and `assign` puts every row in it without
//! hashing or probing.
//! Keys are read a column at a time: a bare column reference reads the
//! batch's typed storage directly through its [`ColView`] (owned or a
//! borrowed window alike), a computed key is evaluated once per
//! logical row into a `Vec<Datum>`. Row hashes fold the per-value hashes of
//! [`crate::hash`], which equal `hash_datum` of the same value, so a typed
//! column and a computed column holding equal values land in the same
//! groups.
//!
//! The table is open addressing over a power-of-two `Vec<u32>` of group ids
//! with linear probing, grown at a quarter load: on a skewed key the probe
//! length decides how often the probe loop's branch mispredicts, and a slot
//! costs four bytes. Each group keeps its row hash (compared before any
//! value) and its key values, which the output needs anyway; the keys sit
//! in one flat `Vec<Datum>`, one run of values per group, so a probe reads
//! them without another indirection. A row hash is scrambled under a
//! per-table random seed before it picks a slot, as a keyed hasher would
//! place it. Group ids, and so the output order, do not depend on the seed.
//! Equality is [`Datum::total_cmp`]: NULL groups with NULL, NaN with NaN of
//! the same bits, `-0.0` apart from `0.0`, and an integer with the float of
//! the same value.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use nodb_rawcache::column::NullMask;
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::Datum;

use crate::batch::{Batch, BatchRow, ColView};
use crate::error::{EngineError, EngineResult};
use crate::expr::RExpr;
use crate::hash::{hash_bool, hash_datum, hash_float, hash_int, hash_str};

/// Slot value of an empty slot (never a group id: ids stay below it).
const EMPTY: u32 = u32::MAX;

/// Slots of a new table; it doubles whenever groups would pass a quarter of
/// it.
const INITIAL_SLOTS: usize = 16;

/// One group-key column of one batch, over its logical rows.
enum KeyColumn<'a> {
    /// A bare column reference: the batch's storage, read through its
    /// selection.
    Typed(ColView<'a>, Option<&'a [u32]>),
    /// A computed key (or an all-NULL column), one value per logical row.
    Values(Vec<Datum>),
}

impl<'a> KeyColumn<'a> {
    fn new(expr: &RExpr, batch: &'a Batch<'a>) -> Self {
        match expr {
            RExpr::Col(c) => match batch.column(*c).view() {
                Some(view) => KeyColumn::Typed(view, batch.selection()),
                None => KeyColumn::Values(vec![Datum::Null; batch.rows()]),
            },
            e => KeyColumn::Values(
                (0..batch.rows())
                    .map(|r| e.eval(&BatchRow::new(batch, r)))
                    .collect(),
            ),
        }
    }

    /// Fold this column's per-value hashes into the row hashes: the first
    /// key column sets them, each later one mixes itself in.
    fn hash_into(&self, hashes: &mut [u64], first: bool) {
        let null = hash_datum(&Datum::Null);
        let put = |h: &mut u64, v: u64| *h = if first { v } else { mix(*h, v) };
        match self {
            KeyColumn::Typed(ColView { col, base }, sel) => {
                let (nulls, sel) = ((col.nulls(), *base), *sel);
                match col {
                    TypedColumn::Int { values, .. } => {
                        hash_typed(values, nulls, sel, hashes, null, put, |v| hash_int(*v))
                    }
                    TypedColumn::Float { values, .. } => {
                        hash_typed(values, nulls, sel, hashes, null, put, |v| hash_float(*v))
                    }
                    TypedColumn::Str { values, .. } => {
                        hash_typed(values, nulls, sel, hashes, null, put, |v| hash_str(v))
                    }
                    TypedColumn::Bool { values, .. } => {
                        hash_typed(values, nulls, sel, hashes, null, put, |v| hash_bool(*v))
                    }
                }
            }
            KeyColumn::Values(vals) => {
                for (h, d) in hashes.iter_mut().zip(vals) {
                    put(h, hash_datum(d));
                }
            }
        }
    }

    /// Whether logical row `r`'s value equals `key` under
    /// [`Datum::total_cmp`]. A string is compared in place, never cloned.
    #[inline]
    fn eq(&self, r: usize, key: &Datum) -> bool {
        match self {
            KeyColumn::Typed(ColView { col, base }, sel) => {
                let p = base + sel.map_or(r, |s| s[r] as usize);
                if col.nulls().is_null(p) {
                    return key.is_null();
                }
                match col {
                    TypedColumn::Int { values, .. } => total_eq(&Datum::Int(values[p]), key),
                    TypedColumn::Float { values, .. } => total_eq(&Datum::Float(values[p]), key),
                    TypedColumn::Bool { values, .. } => total_eq(&Datum::Bool(values[p]), key),
                    TypedColumn::Str { values, .. } => {
                        matches!(key, Datum::Str(s) if **s == *values[p])
                    }
                }
            }
            KeyColumn::Values(vals) => total_eq(&vals[r], key),
        }
    }

    /// Logical row `r`'s value, owned (a new group's key).
    fn value(&self, r: usize) -> Datum {
        match self {
            KeyColumn::Typed(view, sel) => view.datum(sel.map_or(r, |s| s[r] as usize)),
            KeyColumn::Values(vals) => vals[r].clone(),
        }
    }
}

/// `a.total_cmp(b).is_eq()`, with the same-class cases inlined into the
/// probe loop (equal floats under `total_cmp` are equal bits).
#[inline]
fn total_eq(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => x == y,
        (Datum::Float(x), Datum::Float(y)) => x.to_bits() == y.to_bits(),
        (Datum::Bool(x), Datum::Bool(y)) => x == y,
        (Datum::Str(x), Datum::Str(y)) => x == y,
        (Datum::Null, Datum::Null) => true,
        _ => a.total_cmp(b).is_eq(),
    }
}

/// [`KeyColumn::hash_into`] over one typed column whose physical row `p`
/// is backing row `base + p`: `put` each logical row's value hash (`null`
/// for a NULL) into its row hash.
#[inline]
fn hash_typed<T>(
    values: &[T],
    (nulls, base): (&NullMask, usize),
    sel: Option<&[u32]>,
    hashes: &mut [u64],
    null: u64,
    put: impl Fn(&mut u64, u64),
    hash: impl Fn(&T) -> u64,
) {
    let values = &values[base..];
    let value = |p: usize| {
        if nulls.is_null(base + p) {
            null
        } else {
            hash(&values[p])
        }
    };
    match sel {
        Some(s) => {
            for (h, &p) in hashes.iter_mut().zip(s) {
                put(h, value(p as usize));
            }
        }
        None => {
            for (p, h) in hashes.iter_mut().enumerate() {
                put(h, value(p));
            }
        }
    }
}

/// Fold one more key column's value hash into a row hash (order-sensitive,
/// so `(a, b)` and `(b, a)` hash apart).
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let h = (h.rotate_left(23) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
/// flips each output bit with probability ~1/2.
#[inline]
fn scramble(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Insertion-ordered hash groups: key values → dense group id.
pub(crate) struct GroupTable<'a> {
    /// The group-key expressions.
    exprs: &'a [RExpr],
    /// Open-addressing slots holding group ids (or [`EMPTY`]); a power of
    /// two long, at most a quarter full.
    slots: Vec<u32>,
    /// Per group, by id: its row hash.
    hashes: Vec<u64>,
    /// Per group, by id: its key values, one per expression.
    keys: Vec<Datum>,
    /// Row hashes of the batch being assigned (reused across batches).
    row_hashes: Vec<u64>,
    /// Random per table: keys where each row hash lands (see [`Self::assign`]).
    seed: u64,
}

impl<'a> GroupTable<'a> {
    /// A table grouping by the key expressions `exprs`: empty, or with no
    /// keys holding group 0 already.
    pub(crate) fn new(exprs: &'a [RExpr]) -> Self {
        GroupTable {
            exprs,
            slots: vec![EMPTY; INITIAL_SLOTS],
            // Group 0 of a keyless table is never probed: its hash is unused.
            hashes: if exprs.is_empty() {
                vec![0]
            } else {
                Vec::new()
            },
            keys: Vec::new(),
            row_hashes: Vec::new(),
            seed: RandomState::new().hash_one(0u8),
        }
    }

    /// Number of groups so far.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Each group's key values, by id.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &[Datum]> {
        let width = self.exprs.len();
        (0..self.len()).map(move |g| &self.keys[g * width..][..width])
    }

    /// Resolve every logical row of `batch` to its group, into `ids` (one
    /// id per logical row), and return them. A row whose key is new creates
    /// the next group. Without keys every row is in group 0: `None`, and
    /// nothing is hashed or probed.
    pub(crate) fn assign<'i>(
        &mut self,
        batch: &Batch<'_>,
        ids: &'i mut Vec<u32>,
    ) -> EngineResult<Option<&'i [u32]>> {
        if self.exprs.is_empty() {
            return Ok(None);
        }
        let rows = batch.rows();
        let cols: Vec<KeyColumn<'_>> = self
            .exprs
            .iter()
            .map(|e| KeyColumn::new(e, batch))
            .collect();
        let mut hashes = std::mem::take(&mut self.row_hashes);
        hashes.clear();
        hashes.resize(rows, 0);
        for (k, col) in cols.iter().enumerate() {
            col.hash_into(&mut hashes, k == 0);
        }
        // The value hashes are unkeyed and the keys come from the file:
        // scramble them under this table's random seed, so keys crafted to
        // share the slot bits do not pile into one probe run — the
        // protection a standard `HashMap`'s keyed hasher gives.
        for h in &mut hashes {
            *h = scramble(*h ^ self.seed);
        }
        ids.clear();
        ids.reserve(rows);
        for (r, &h) in hashes.iter().enumerate() {
            ids.push(self.find_or_insert(
                h,
                |key| cols.iter().zip(key).all(|(col, k)| col.eq(r, k)),
                |keys| keys.extend(cols.iter().map(|c| c.value(r))),
            )?);
        }
        self.row_hashes = hashes;
        Ok(Some(ids))
    }

    /// The id of the group whose key values are `key` (one per
    /// expression), created if it is new — how a later partial's groups
    /// join this table ([`crate::exec::AggPartial::merge`]). The key hashes
    /// as a batch row holding those values would.
    pub(crate) fn insert_key(&mut self, key: &[Datum]) -> EngineResult<u32> {
        if self.exprs.is_empty() {
            return Ok(0);
        }
        let h = key.iter().map(hash_datum).reduce(mix).unwrap_or_default();
        self.find_or_insert(
            scramble(h ^ self.seed),
            |stored| stored.iter().zip(key).all(|(s, k)| total_eq(k, s)),
            |keys| keys.extend_from_slice(key),
        )
    }

    /// The id of the group with row hash `h` whose stored key values
    /// `same` accepts, created if there is none: `push` then appends its
    /// key values.
    #[inline]
    fn find_or_insert(
        &mut self,
        h: u64,
        same: impl Fn(&[Datum]) -> bool,
        push: impl FnOnce(&mut Vec<Datum>),
    ) -> EngineResult<u32> {
        let width = self.exprs.len();
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let g = self.slots[i];
            if g == EMPTY {
                break;
            }
            let gi = g as usize;
            if self.hashes[gi] == h && same(&self.keys[gi * width..][..width]) {
                return Ok(g);
            }
            i = (i + 1) & mask;
        }
        let g = u32::try_from(self.len())
            .ok()
            .filter(|&g| g != EMPTY)
            .ok_or_else(|| EngineError::Execution("too many groups".to_string()))?;
        self.slots[i] = g;
        self.hashes.push(h);
        push(&mut self.keys);
        if self.len() * 4 > self.slots.len() {
            self.grow();
        }
        Ok(g)
    }

    /// Double the slots and re-place every group by its stored hash.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        let mask = len - 1;
        self.slots = vec![EMPTY; len];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut i = h as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            // Ids are below `EMPTY` (checked when the group was created).
            self.slots[i] = g as u32;
        }
    }
}
