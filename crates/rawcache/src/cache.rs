//! The cache proper: per-attribute columns, byte budget, LRU eviction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::column::TypedColumn;

/// Lifetime counters and gauges for the monitoring panel (Fig 2).
#[derive(Debug, Default, Clone)]
pub struct CacheMetrics {
    /// Row-level cache hits (values served without touching the raw file).
    pub hits: u64,
    /// Row-level misses (value had to be parsed from raw bytes).
    pub misses: u64,
    /// Columns evicted by LRU pressure.
    pub evictions: u64,
    /// Slice tails refused: the budget could not hold one even after
    /// evicting every column stamped before the admitting query.
    pub admission_stalls: u64,
}

impl CacheMetrics {
    /// Hit ratio in `[0, 1]`; 0 when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident cached column plus bookkeeping.
#[derive(Debug)]
struct Entry {
    col: TypedColumn,
    /// LRU stamp: the latest query tick that touched the column. Queries
    /// stamp it under a shared borrow ([`RawCache::begin_query`]), so it
    /// only ever moves forward (`fetch_max`).
    last_used: AtomicU64,
}

/// The adaptive binary cache for one raw file.
///
/// Rows are addressed with the same row ids the positional map uses, so a
/// single scan can serve attribute A from the cache and attribute B from the
/// raw file position by position.
///
/// The per-query bookkeeping — the LRU clock, the column stamps and the
/// hit/miss tallies — is atomic, so concurrent queries holding the cache by
/// shared reference can begin and finish without exclusive access; only
/// admission, eviction and budget changes take `&mut self`. The atomics
/// publish no other data, so they are `Relaxed`: the owner's lock orders
/// them against the exclusive sections that read them.
#[derive(Debug)]
pub struct RawCache {
    entries: HashMap<usize, Entry>,
    budget: usize,
    bytes_used: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: u64,
    admission_stalls: u64,
}

impl RawCache {
    /// Empty cache holding at most `budget` bytes of columns ("the size of
    /// the cache is a parameter that can be tuned depending on the
    /// resources", §3.2).
    pub fn new(budget: usize) -> Self {
        RawCache {
            entries: HashMap::new(),
            budget,
            bytes_used: 0,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            admission_stalls: 0,
        }
    }

    /// Byte budget for all cached columns together.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Change the budget at runtime (demo knob). Shrinking evicts LRU
    /// columns, whatever their stamps, until the bytes in use fit. Growing
    /// only lets later slices in: a column that stopped short resumes when a
    /// scan next offers the slice holding its coverage.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
        self.make_room(0, u64::MAX);
    }

    /// Bytes held by cached columns.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Utilization in `[0, 1]` of the budget — the Fig 2 gauge.
    pub fn utilization(&self) -> f64 {
        if self.budget == 0 {
            return 0.0;
        }
        self.bytes_used as f64 / self.budget as f64
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions,
            admission_stalls: self.admission_stalls,
        }
    }

    /// Attributes currently resident, with their coverage (rows cached).
    pub fn resident(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .entries
            .iter()
            .map(|(&a, e)| (a, e.col.len()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Rows of `attr` served directly from the cache (prefix coverage);
    /// 0 when the attribute is not resident.
    pub fn coverage(&self, attr: usize) -> usize {
        self.entries.get(&attr).map(|e| e.col.len()).unwrap_or(0)
    }

    /// Coverage for a whole attribute set, in request order: what a scan
    /// snapshots at prepare to decide which rows it reads from the cache.
    /// Admission does not start from this snapshot — each slice resumes at
    /// the coverage current at its install (see [`Self::append_slice`]).
    pub fn coverage_of(&self, attrs: &[usize]) -> Vec<usize> {
        attrs.iter().map(|&a| self.coverage(a)).collect()
    }

    /// Direct read-only handle to a resident column.
    ///
    /// Partition workers resolve the columns they will read *once* per
    /// partition and then index rows straight through the handle, so no
    /// per-row map probe sits in the hot loop.
    pub fn column(&self, attr: usize) -> Option<&TypedColumn> {
        self.entries.get(&attr).map(|e| &e.col)
    }

    /// Begin a query touching `attrs`: advances the LRU clock, stamps the
    /// resident columns among them and returns the clock value. The scan
    /// passes it back to [`Self::append_slice`], whose room-making evicts
    /// only columns stamped *before* it — never this query's columns, nor
    /// those of a query that began later.
    ///
    /// Takes `&self`: queries sharing the cache begin concurrently. Each
    /// takes its own tick, and a stamp only moves forward, so a query that
    /// stamps late with an older tick never overwrites a newer one — the
    /// stamps end as a serial replay in tick order leaves them.
    pub fn begin_query(&self, attrs: &[usize]) -> u64 {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        for a in attrs {
            if let Some(e) = self.entries.get(a) {
                e.last_used.fetch_max(tick, Ordering::Relaxed);
            }
        }
        tick
    }

    /// Fold the scan workers' read tallies into the hit/miss metrics (the
    /// workers hold the cache by shared reference and count on their own).
    pub fn record_reads(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Admit one scan slice — the cache's only admission path. `cols[i]`
    /// holds the values of `attrs[i]` (distinct attributes) for data rows
    /// `[row_base, row_base + cols[i].len())`; `query_tick` is the value
    /// from [`Self::begin_query`], and `scan_rows` the row count the whole
    /// scan will offer, used to size a growing column once.
    ///
    /// A scan offers its slices in order, and each column goes by one rule:
    /// **a slice's tail goes in whole or not at all.** The tail starts at
    /// the column's current coverage; a column whose coverage lies before
    /// the slice start stopped at an earlier refusal and is skipped, one
    /// already past the slice end has nothing pending. Room for the tail's
    /// exact footprint growth is made by evicting LRU columns stamped before
    /// `query_tick`, and the tail is then moved in. When even evicting all
    /// of them could not make room, nothing is evicted: the tail is refused
    /// and counted in [`CacheMetrics::admission_stalls`]. A column's
    /// coverage therefore always ends on a slice boundary of the scan that
    /// last extended it.
    pub fn append_slice(
        &mut self,
        attrs: &[usize],
        cols: Vec<TypedColumn>,
        row_base: usize,
        scan_rows: usize,
        query_tick: u64,
    ) {
        for (&attr, col) in attrs.iter().zip(cols) {
            let have = self.coverage(attr);
            let Some(lo) = have.checked_sub(row_base).filter(|&lo| lo < col.len()) else {
                continue;
            };
            if let Some(e) = self.entries.get_mut(&attr) {
                // Being extended by this query: never its own victim.
                let stamp = e.last_used.get_mut();
                *stamp = (*stamp).max(query_tick);
            }
            let growth = col.tail_cost(lo, have);
            if !self.make_room(growth, query_tick) {
                self.admission_stalls += 1;
                continue;
            }
            let per_row = growth / (col.len() - lo);
            let e = self.entries.entry(attr).or_insert_with(|| Entry {
                col: TypedColumn::new(col.ty()),
                last_used: AtomicU64::new(query_tick),
            });
            e.col.append_tail(col, lo);
            self.bytes_used += growth;
            // Room for the rest of the scan, as far as the budget could
            // ever hold it at this slice's bytes per row.
            let free = self.budget - self.bytes_used;
            let rest = scan_rows.saturating_sub(e.col.len());
            e.col.reserve(rest.min(free / per_row.max(1)));
        }
    }

    /// Install a whole restored column for `attr` — the snapshot restore
    /// path, which rebuilds columns wholesale. The column's footprint is
    /// charged against the budget with normal LRU room-making; returns
    /// `false` (column dropped) when it cannot fit, when it is empty, or
    /// when `attr` is already resident (a live column is never clobbered by
    /// a restore).
    pub fn install_restored(&mut self, attr: usize, col: TypedColumn) -> bool {
        if col.is_empty() || self.entries.contains_key(&attr) {
            return false;
        }
        let fp = col.footprint();
        if !self.make_room(fp, u64::MAX) {
            return false;
        }
        let tick = self.tick.get_mut();
        *tick += 1;
        let last_used = AtomicU64::new(*tick);
        self.entries.insert(attr, Entry { col, last_used });
        self.bytes_used += fp;
        true
    }

    /// Make `incoming` more bytes fit by evicting LRU columns stamped
    /// before `protect_tick`. Returns whether they now fit; when they could
    /// not fit even with every such column gone, nothing is evicted.
    ///
    /// Victims go in `(last_used, attr)` order. Every column one query
    /// touches shares its tick, so the attribute breaks the tie: which
    /// columns stay resident is a function of the query sequence, never of
    /// the map's per-instance iteration order.
    fn make_room(&mut self, incoming: usize, protect_tick: u64) -> bool {
        let stamp = |e: &Entry| e.last_used.load(Ordering::Relaxed);
        let evictable = |e: &Entry| stamp(e) < protect_tick;
        let freeable: usize = self
            .entries
            .values()
            .filter(|e| evictable(e))
            .map(|e| e.col.footprint())
            .sum();
        if self.bytes_used - freeable + incoming > self.budget {
            return false;
        }
        while self.bytes_used + incoming > self.budget {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| evictable(e))
                .min_by_key(|&(&a, e)| (stamp(e), a))
                .map(|(&a, _)| a);
            let Some(e) = victim.and_then(|a| self.entries.remove(&a)) else {
                return false;
            };
            self.bytes_used -= e.col.footprint();
            self.evictions += 1;
        }
        true
    }

    /// Epoch quarantine: drop every column, because the backing file was
    /// truncated or rewritten and cached values were parsed from bytes of a
    /// dead file epoch.
    pub fn quarantine(&mut self) {
        self.entries.clear();
        self.bytes_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use nodb_rawcsv::{ColumnType, Datum};

    use super::*;

    fn column(ty: ColumnType, values: &[Datum]) -> TypedColumn {
        let mut col = TypedColumn::new(ty);
        values.iter().for_each(|d| col.push(d));
        col
    }

    fn ints(range: std::ops::Range<i64>) -> TypedColumn {
        column(ColumnType::Int, &range.map(Datum::Int).collect::<Vec<_>>())
    }

    fn value(c: &RawCache, attr: usize, row: usize) -> Option<Datum> {
        c.column(attr).and_then(|col| col.datum(row))
    }

    /// One query caching rows `0..n` of int column `attr` as one slice.
    fn fill(cache: &mut RawCache, attr: usize, n: usize) -> u64 {
        let tick = cache.begin_query(&[attr]);
        cache.append_slice(&[attr], vec![ints(0..n as i64)], 0, n, tick);
        tick
    }

    #[test]
    fn column_handle_reads_rows() {
        let mut c = RawCache::new(1 << 30);
        fill(&mut c, 0, 10);
        fill(&mut c, 1, 4);
        let col = c.column(1).expect("resident");
        assert_eq!(col.len(), 4);
        assert_eq!(col.datum(3), Some(Datum::Int(3)));
        assert!(c.column(7).is_none());
    }

    #[test]
    fn append_then_hit() {
        let mut c = RawCache::new(1 << 30);
        fill(&mut c, 2, 10);
        assert_eq!(c.coverage(2), 10);
        assert_eq!(value(&c, 2, 3), Some(Datum::Int(3)));
        c.record_reads(1, 0);
        assert_eq!(c.metrics().hits, 1);
        assert_eq!(value(&c, 2, 99), None);
        c.record_reads(0, 1);
        assert_eq!(c.metrics().misses, 1);
    }

    #[test]
    fn partial_coverage_is_prefix() {
        let mut c = RawCache::new(1 << 30);
        fill(&mut c, 0, 5);
        assert_eq!(value(&c, 0, 4), Some(Datum::Int(4)));
        assert_eq!(value(&c, 0, 5), None);
    }

    #[test]
    fn lru_eviction_prefers_cold_columns() {
        // Budget for roughly one 1000-row int column.
        let mut c = RawCache::new(12_000);
        fill(&mut c, 0, 1000);
        // Attr 1 arrives: attr 0 is cold (older tick) and gets evicted.
        fill(&mut c, 1, 1000);
        assert_eq!(c.coverage(0), 0, "cold column evicted");
        assert_eq!(c.coverage(1), 1000);
        assert_eq!(c.metrics().evictions, 1);
    }

    /// Columns one query cached share its tick; the victim among them is
    /// the lowest attribute, in every instance, whatever its hash order.
    #[test]
    fn tied_victims_are_chosen_by_attribute() {
        let resident_after = || {
            // Eight 400-row columns take 26 048 bytes; the 1 000-row column
            // behind them needs two of them gone.
            let mut c = RawCache::new(30_000);
            let attrs = [0, 1, 2, 3, 4, 5, 6, 7];
            let tick = c.begin_query(&attrs);
            let cols = attrs.iter().map(|_| ints(0..400)).collect();
            c.append_slice(&attrs, cols, 0, 400, tick);
            fill(&mut c, 9, 1_000);
            c.resident()
        };
        let first = resident_after();
        let kept: Vec<usize> = first.iter().map(|&(a, _)| a).collect();
        assert_eq!(kept, [2, 3, 4, 5, 6, 7, 9], "attrs 0 and 1 evicted");
        for instance in 1..16 {
            assert_eq!(resident_after(), first, "instance {instance}");
        }
    }

    #[test]
    fn current_query_columns_protected() {
        let mut c = RawCache::new(4_000);
        let tick = c.begin_query(&[0, 1]);
        // Two columns of one query, slice by slice, until the budget stalls.
        for base in (0..1000).step_by(50) {
            let cols = vec![ints(base..base + 50), ints(base..base + 50)];
            c.append_slice(&[0, 1], cols, base as usize, 1000, tick);
        }
        // Neither column evicted the other (both at the protected tick):
        // growth stalls instead, on a slice boundary.
        assert_eq!(c.metrics().evictions, 0);
        assert!(c.metrics().admission_stalls > 0);
        assert!(c.coverage(0) > 0 && c.coverage(0).is_multiple_of(50));
        assert!(c.coverage(1).is_multiple_of(50));
        assert!(c.bytes_used() <= c.budget());
    }

    /// The slice cannot fit even with every older column gone, so none of
    /// them is evicted for it; one that fits after an eviction evicts.
    #[test]
    fn a_slice_that_cannot_fit_evicts_nothing() {
        let mut c = RawCache::new(2_000);
        fill(&mut c, 0, 50); // older: 408 bytes
        fill(&mut c, 1, 50); // the query's own: 408 bytes, protected
        let tick = c.begin_query(&[1, 2]);
        // 200 rows take 1 632 bytes > 2 000 - 408.
        c.append_slice(&[2], vec![ints(0..200)], 0, 200, tick);
        assert_eq!(c.resident(), [(0, 50), (1, 50)], "nothing evicted");
        assert_eq!(c.metrics().evictions, 0);
        assert_eq!(c.metrics().admission_stalls, 1);
        // 150 rows (1 224 bytes) fit once the older column is gone.
        c.append_slice(&[2], vec![ints(0..150)], 0, 150, tick);
        assert_eq!(c.resident(), [(1, 50), (2, 150)]);
        assert_eq!(c.metrics().evictions, 1);
    }

    /// A query that began later stamped column 0; the install of one that
    /// began earlier must not evict it to make room.
    #[test]
    fn an_older_install_never_evicts_a_newer_querys_column() {
        let mut c = RawCache::new(1_000);
        fill(&mut c, 0, 100); // 816 bytes
        let older = c.begin_query(&[1]);
        c.begin_query(&[0]);
        c.append_slice(&[1], vec![ints(0..50)], 0, 50, older);
        assert_eq!(c.resident(), [(0, 100)]);
        assert_eq!(c.metrics().evictions, 0);
        assert_eq!(c.metrics().admission_stalls, 1);
    }

    /// Queries begin concurrently on a shared borrow: every call takes its
    /// own tick, and each shared column ends stamped with the last one —
    /// what any serial replay of the calls leaves behind.
    #[test]
    fn concurrent_begin_query_leaves_the_serial_stamps() {
        let (threads, calls) = if cfg!(miri) { (2, 8) } else { (4, 500) };
        let mut c = RawCache::new(1 << 30);
        for attr in 0..3 {
            fill(&mut c, attr, 10);
        }
        let before = *c.tick.get_mut();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (c, start) = (&c, &start);
                // Attribute 9 is not resident: nothing to stamp.
                s.spawn(move || {
                    start.wait();
                    for _ in 0..calls {
                        c.begin_query(&[0, 1, 2, 9]);
                    }
                });
            }
        });
        let tick = *c.tick.get_mut();
        assert_eq!(tick - before, (threads * calls) as u64, "one tick per call");
        for attr in 0..3 {
            let stamp = c.entries[&attr].last_used.load(Ordering::Relaxed);
            assert_eq!(stamp, tick, "c{attr} keeps the newest stamp");
        }
        c.record_reads(3, 1);
        assert_eq!((c.metrics().hits, c.metrics().misses), (3, 1));
    }

    #[test]
    fn set_budget_shrink_evicts() {
        let mut c = RawCache::new(1 << 30);
        fill(&mut c, 0, 100);
        fill(&mut c, 1, 100);
        c.set_budget(0);
        assert_eq!(c.bytes_used(), 0);
        assert_eq!(c.resident().len(), 0);
    }

    #[test]
    fn quarantine_clears() {
        let mut c = RawCache::new(1 << 30);
        fill(&mut c, 0, 10);
        c.quarantine();
        assert_eq!(c.coverage(0), 0);
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn utilization_and_hit_ratio_gauges() {
        let mut c = RawCache::new(100_000);
        fill(&mut c, 0, 100);
        assert!(c.utilization() > 0.0);
        c.record_reads(1, 1);
        assert!((c.metrics().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resident_lists_coverage() {
        let mut c = RawCache::new(1 << 30);
        fill(&mut c, 3, 4);
        fill(&mut c, 1, 2);
        assert_eq!(c.resident(), vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn install_restored_charges_budget_and_respects_residents() {
        let mut c = RawCache::new(10_000);
        let col = ints(0..100);
        let fp = col.footprint();
        assert!(c.install_restored(3, col));
        assert_eq!(c.coverage(3), 100);
        assert_eq!(c.bytes_used(), fp);
        assert_eq!(value(&c, 3, 42), Some(Datum::Int(42)));

        // A live column is never clobbered by a restore.
        assert!(!c.install_restored(3, ints(-1..0)));
        assert_eq!(value(&c, 3, 0), Some(Datum::Int(0)));

        // Empty columns are refused.
        assert!(!c.install_restored(4, TypedColumn::new(ColumnType::Int)));

        // Over-budget columns are refused without evicting what fits.
        let mut c2 = RawCache::new(64);
        assert!(c2.install_restored(0, ints(0..1)));
        assert!(!c2.install_restored(1, ints(0..100)));
        assert_eq!(c2.resident(), [(0, 1)]);
    }

    #[test]
    fn string_budget_counts_payload() {
        let mut c = RawCache::new(1 << 20);
        let tick = c.begin_query(&[0]);
        let col = column(ColumnType::Str, &[Datum::Str("abcdefgh".into())]);
        c.append_slice(&[0], vec![col], 0, 1, tick);
        // Slot, payload, one null-mask word.
        assert_eq!(c.bytes_used(), 16 + 8 + 8);
    }

    /// SplitMix64 — deterministic case generation for the differential test.
    struct CaseRng(u64);

    impl CaseRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// The admission rule restated over plain values: columns as datum
    /// vectors with their stamps, bytes by the footprint formula (8 per
    /// int, 16 plus payload per string slot, 8 per null-mask word).
    #[derive(Default)]
    struct Reference {
        cols: BTreeMap<usize, (Vec<Datum>, u64)>,
        tick: u64,
        budget: usize,
        evictions: u64,
        stalls: u64,
    }

    /// Attribute `a`'s type in the differential test.
    fn ty(a: usize) -> ColumnType {
        if a.is_multiple_of(2) {
            ColumnType::Int
        } else {
            ColumnType::Str
        }
    }

    fn bytes(a: usize, values: &[Datum]) -> usize {
        let slot = |d: &Datum| match (ty(a), d) {
            (ColumnType::Str, Datum::Str(s)) => 16 + s.len(),
            (ColumnType::Str, _) => 16,
            _ => 8,
        };
        values.iter().map(slot).sum::<usize>() + values.len().div_ceil(64) * 8
    }

    impl Reference {
        fn used(&self) -> usize {
            self.cols.iter().map(|(&a, (v, _))| bytes(a, v)).sum()
        }

        fn begin_query(&mut self, attrs: &[usize]) -> u64 {
            self.tick += 1;
            for a in attrs {
                if let Some(c) = self.cols.get_mut(a) {
                    c.1 = self.tick;
                }
            }
            self.tick
        }

        fn append_slice(&mut self, attrs: &[usize], cols: &[Vec<Datum>], base: usize, tick: u64) {
            for (&a, slice) in attrs.iter().zip(cols) {
                let (mut values, stamp) = self.cols.get(&a).cloned().unwrap_or((vec![], tick));
                if values.len() < base || values.len() >= base + slice.len() {
                    continue;
                }
                let before = bytes(a, &values);
                values.extend_from_slice(&slice[values.len() - base..]);
                let stamp = stamp.max(tick);
                self.cols.entry(a).and_modify(|c| c.1 = stamp);
                let mut victims: Vec<(u64, usize)> = (self.cols.iter())
                    .filter(|(_, (_, stamp))| *stamp < tick)
                    .map(|(&v, (_, stamp))| (*stamp, v))
                    .collect();
                victims.sort_unstable();
                let freeable: usize = (victims.iter())
                    .map(|&(_, v)| bytes(v, &self.cols[&v].0))
                    .sum();
                let growth = bytes(a, &values) - before;
                if self.used() - freeable + growth > self.budget {
                    self.stalls += 1;
                    continue;
                }
                for (_, victim) in victims {
                    if self.used() + growth <= self.budget {
                        break;
                    }
                    self.cols.remove(&victim);
                    self.evictions += 1;
                }
                self.cols.insert(a, (values, stamp));
            }
        }

        fn assert_same(&self, tag: &str, c: &RawCache) {
            let resident: Vec<(usize, usize)> =
                self.cols.iter().map(|(&a, c)| (a, c.0.len())).collect();
            assert_eq!(c.resident(), resident, "{tag}: resident");
            assert_eq!(c.bytes_used(), self.used(), "{tag}: bytes");
            for (&a, (values, _)) in &self.cols {
                for (row, v) in values.iter().enumerate() {
                    assert_eq!(value(c, a, row).as_ref(), Some(v), "{tag}: c{a} row {row}");
                }
            }
            let m = c.metrics();
            assert_eq!(
                (m.evictions, m.admission_stalls),
                (self.evictions, self.stalls),
                "{tag}"
            );
        }
    }

    /// `append_slice` against [`Reference`]: scans of random attribute
    /// sets over mixed Int/Str/NULL columns, cut at random rows and resuming
    /// from random rows, under random budgets. Several scans are prepared
    /// before any installs, so installs run with stale ticks over columns a
    /// later query re-stamped.
    #[test]
    fn append_slice_follows_the_reference_rule() {
        let (cases, max_rows) = if cfg!(miri) { (6, 40) } else { (400, 300) };
        let mut rng = CaseRng(0x51CE);
        let (mut refused, mut evicted) = (0, 0);
        for case in 0..cases {
            let rows = 1 + rng.below(max_rows);
            // Row `r` of attribute `a`, the same in every scan.
            let datum = |a: usize, r: usize| match (a * 7919 + r * 104_729) % 11 {
                0 => Datum::Null,
                h if ty(a) == ColumnType::Int => Datum::Int((r * 31 + h) as i64),
                h => Datum::Str("abcdefghijklmnop"[..h + a].into()),
            };
            let need = bytes(1, &(0..rows).map(|r| datum(1, r)).collect::<Vec<_>>()) * 4;
            let budget = rng.below(need + need / 4);
            let mut cache = RawCache::new(budget);
            let mut model = Reference {
                budget,
                ..Reference::default()
            };
            for round in 0..4 {
                // Prepare up to three scans, then install them in a random
                // order.
                let mut scans = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let attrs: Vec<usize> = (0..5).filter(|_| rng.below(2) == 0).collect();
                    let tick = cache.begin_query(&attrs);
                    assert_eq!(tick, model.begin_query(&attrs));
                    scans.push((attrs, tick));
                }
                while !scans.is_empty() {
                    let (attrs, tick) = scans.swap_remove(rng.below(scans.len()));
                    let mut cuts: Vec<usize> = (0..rng.below(6)).map(|_| rng.below(rows)).collect();
                    let from = if rng.below(4) == 0 {
                        rng.below(rows)
                    } else {
                        0
                    };
                    cuts.extend([from, rows]);
                    cuts.retain(|&c| c >= from);
                    cuts.sort_unstable();
                    for w in cuts.windows(2) {
                        let values: Vec<Vec<Datum>> = (attrs.iter())
                            .map(|&a| (w[0]..w[1]).map(|r| datum(a, r)).collect())
                            .collect();
                        let cols = (attrs.iter().zip(&values))
                            .map(|(&a, v)| column(ty(a), v))
                            .collect();
                        cache.append_slice(&attrs, cols, w[0], rows, tick);
                        model.append_slice(&attrs, &values, w[0], tick);
                    }
                    model.assert_same(
                        &format!("case {case} round {round} (budget {budget})"),
                        &cache,
                    );
                }
            }
            refused += usize::from(model.stalls > 0);
            evicted += usize::from(model.evictions > 0);
        }
        if !cfg!(miri) {
            assert!(refused > 50 && evicted > 50, "{refused} / {evicted}");
        }
    }
}
