//! The cache proper: per-attribute columns, byte budget, LRU eviction.

use std::collections::HashMap;

use nodb_rawcsv::{ColumnType, Datum};

use crate::column::TypedColumn;

/// Cache policy knobs ("the size of the cache is a parameter that can be
/// tuned depending on the resources", §3.2).
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Byte budget for all cached columns together.
    pub budget_bytes: usize,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            budget_bytes: 1 << 30,
        } // 1 GiB: effectively unbounded on demo data
    }
}

impl CachePolicy {
    /// Policy with an explicit budget.
    pub fn with_budget(budget_bytes: usize) -> Self {
        CachePolicy { budget_bytes }
    }
}

/// Lifetime counters and gauges for the monitoring panel (Fig 2).
#[derive(Debug, Default, Clone)]
pub struct CacheMetrics {
    /// Row-level cache hits (values served without touching the raw file).
    pub hits: u64,
    /// Row-level misses (value had to be parsed from raw bytes).
    pub misses: u64,
    /// Columns evicted by LRU pressure.
    pub evictions: u64,
    /// Appends refused because the budget was exhausted and every resident
    /// column was in use by the current query.
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
    last_used: u64,
    /// Column refuses further growth: an append found the budget exhausted
    /// with nothing evictable. The flag outlives that query — only
    /// [`RawCache::set_budget`] raising the budget above the bytes in use
    /// clears it (an evicted column simply leaves with its flag).
    frozen: bool,
}

impl Entry {
    fn new(ty: ColumnType, query_tick: u64) -> Self {
        Entry {
            col: TypedColumn::new(ty),
            last_used: query_tick,
            frozen: false,
        }
    }
}

/// The admission estimate [`RawCache::append`] checks against the budget
/// before a value goes in: fixed-width values and NULLs count 8 bytes, a
/// string its slot plus payload.
const FIXED_INCOMING: usize = 8;

fn str_incoming(payload: usize) -> usize {
    16 + payload
}

/// Headroom demanded on top of the first value before a column is created.
const NEW_COLUMN_HEADROOM: usize = 64;

/// The adaptive binary cache for one raw file.
///
/// Rows are addressed with the same row ids the positional map uses, so a
/// single scan can serve attribute A from the cache and attribute B from the
/// raw file position by position.
#[derive(Debug)]
pub struct RawCache {
    entries: HashMap<usize, Entry>,
    policy: CachePolicy,
    bytes_used: usize,
    tick: u64,
    metrics: CacheMetrics,
}

impl RawCache {
    /// Empty cache under the given policy.
    pub fn new(policy: CachePolicy) -> Self {
        RawCache {
            entries: HashMap::new(),
            policy,
            bytes_used: 0,
            tick: 0,
            metrics: CacheMetrics::default(),
        }
    }

    /// Policy in force.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Change the budget at runtime (demo knob). Shrinking evicts at the
    /// next admission check; growing unfreezes stalled columns.
    pub fn set_budget(&mut self, budget_bytes: usize) {
        self.policy.budget_bytes = budget_bytes;
        if budget_bytes > self.bytes_used {
            for e in self.entries.values_mut() {
                e.frozen = false;
            }
        } else {
            self.make_room(0, u64::MAX);
        }
    }

    /// Bytes held by cached columns.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Utilization in `[0, 1]` of the budget — the Fig 2 gauge.
    pub fn utilization(&self) -> f64 {
        if self.policy.budget_bytes == 0 {
            return 0.0;
        }
        self.bytes_used as f64 / self.policy.budget_bytes as f64
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
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

    /// Coverage snapshot for a whole attribute set, in request order.
    ///
    /// This is the admission frontier of a scan's deferred cache merge:
    /// the parallel/concurrent scan buffers one value per row per attribute
    /// and replays the sequential admission loop from *this* frontier, so
    /// rows another interleaved query already admitted are never appended
    /// twice.
    pub fn coverage_of(&self, attrs: &[usize]) -> Vec<usize> {
        attrs.iter().map(|&a| self.coverage(a)).collect()
    }

    /// Direct read-only handle to a resident column.
    ///
    /// Partition workers resolve the columns they will read *once* per
    /// partition and then index rows straight through the handle — the
    /// per-row `HashMap` probe [`Self::peek`] pays is hoisted out of the
    /// hot loop.
    pub fn column(&self, attr: usize) -> Option<&TypedColumn> {
        self.entries.get(&attr).map(|e| &e.col)
    }

    /// Begin a query touching `attrs`: bumps the LRU clock of the resident
    /// columns among them and returns the clock value, which the scan passes
    /// back to [`Self::append`] so the current query's columns are protected
    /// from eviction.
    pub fn begin_query(&mut self, attrs: &[usize]) -> u64 {
        self.tick += 1;
        for a in attrs {
            if let Some(e) = self.entries.get_mut(a) {
                e.last_used = self.tick;
            }
        }
        self.tick
    }

    /// Read `attr` at `row` if cached. Counts a hit or miss.
    #[inline]
    pub fn get(&mut self, attr: usize, row: usize) -> Option<Datum> {
        match self.entries.get(&attr).and_then(|e| e.col.datum(row)) {
            Some(d) => {
                self.metrics.hits += 1;
                Some(d)
            }
            None => {
                self.metrics.misses += 1;
                None
            }
        }
    }

    /// Read without counting (planning probes).
    pub fn peek(&self, attr: usize, row: usize) -> Option<Datum> {
        self.entries.get(&attr).and_then(|e| e.col.datum(row))
    }

    /// Fold externally tallied read counts into the hit/miss metrics.
    ///
    /// Parallel scan workers read through [`Self::peek`] (they hold the
    /// cache by shared reference), so the per-row accounting [`Self::get`]
    /// would have done happens on the worker and is merged here — keeping
    /// the hit ratio identical to a sequential scan.
    pub fn record_reads(&mut self, hits: u64, misses: u64) {
        self.metrics.hits += hits;
        self.metrics.misses += misses;
    }

    /// Append the value of `attr` at the next uncached row. `query_tick` is
    /// the value from [`Self::begin_query`]; columns touched at that tick are
    /// never evicted to make room (they belong to the running query).
    ///
    /// Returns `false` when the value was not admitted (budget exhausted and
    /// nothing evictable) — the scan simply continues without caching,
    /// matching the paper's "cache as a side effect, never as an obligation".
    pub fn append(&mut self, attr: usize, ty: ColumnType, d: &Datum, query_tick: u64) -> bool {
        // Fast budget estimate before mutating: size of the incoming datum.
        let incoming = match d {
            Datum::Str(s) => str_incoming(s.len()),
            _ => FIXED_INCOMING,
        };
        if !self.entries.contains_key(&attr) {
            if !self.make_room(incoming + NEW_COLUMN_HEADROOM, query_tick) {
                self.metrics.admission_stalls += 1;
                return false;
            }
            self.entries.insert(attr, Entry::new(ty, query_tick));
        }
        let frozen = self.entries.get(&attr).map(|e| e.frozen).unwrap_or(false);
        if frozen {
            self.metrics.admission_stalls += 1;
            return false;
        }
        if self.bytes_used + incoming > self.policy.budget_bytes
            && !self.make_room(incoming, query_tick)
        {
            // Could not evict anything: freeze this column for the rest of
            // the query to avoid re-checking per row.
            if let Some(e) = self.entries.get_mut(&attr) {
                e.frozen = true;
            }
            self.metrics.admission_stalls += 1;
            return false;
        }
        let Some(e) = self.entries.get_mut(&attr) else {
            // Making room evicted the target itself (its LRU stamp was
            // another query's): there is no column left to extend.
            self.metrics.admission_stalls += 1;
            return false;
        };
        let before = e.col.footprint();
        e.col.push(d);
        e.last_used = query_tick;
        let after = e.col.footprint();
        self.bytes_used += after - before;
        true
    }

    /// Admit one scan slice's values: `cols[i]` holds the values of
    /// `attrs[i]` (distinct attributes) for data rows
    /// `[row_base, row_base + cols[i].len())`, and every column appends the
    /// rows from its current coverage on — none when its coverage lies
    /// outside the slice (already cached further, or stopped short of it).
    /// `query_tick` protects the running query's columns as in
    /// [`Self::append`]; `scan_rows` is the row count the whole scan will
    /// offer, used to size a growing column once.
    ///
    /// The outcome is exactly that of offering the pending values to
    /// [`Self::append`] row by row, attributes interleaved, a column
    /// stopping for good at its first refusal. When no pending column is
    /// frozen and the slice's exact footprint growth plus the largest single
    /// admission estimate fits the free budget, no such append could be
    /// refused or evict anything — every check it makes sees at most the
    /// bytes in use now plus that growth — so the pending tails are appended
    /// whole, as [`TypedColumn::append_segment`] would. Otherwise the slice
    /// straddles the budget edge and is replayed value by value through
    /// `append`, which may evict and thereby let the next slice go in whole
    /// again.
    pub fn append_slice(
        &mut self,
        attrs: &[usize],
        cols: Vec<TypedColumn>,
        row_base: usize,
        scan_rows: usize,
        query_tick: u64,
    ) {
        // First pending local row per column; `usize::MAX` = nothing to append.
        let mut next: Vec<usize> = attrs
            .iter()
            .zip(&cols)
            .map(|(&a, col)| match self.coverage(a).checked_sub(row_base) {
                Some(lo) if lo < col.len() => lo,
                _ => usize::MAX,
            })
            .collect();
        if next.iter().all(|&lo| lo == usize::MAX) {
            return;
        }
        // Worst case any single `append` of the replay could see: all of the
        // slice's growth already in, plus its own estimate (and a new
        // column's headroom).
        let mut worst = 0usize;
        let mut largest = 0usize;
        let mut frozen = false;
        for ((&a, col), &lo) in attrs.iter().zip(&cols).zip(&next) {
            if lo == usize::MAX {
                continue;
            }
            let resident = self.entries.get(&a);
            let (growth, longest) = col.tail_cost(lo, resident.map_or(0, |e| e.col.len()));
            worst += growth;
            let incoming = match col.ty() {
                ColumnType::Str => str_incoming(longest),
                _ => FIXED_INCOMING,
            };
            match resident {
                Some(e) => {
                    frozen |= e.frozen;
                    largest = largest.max(incoming);
                }
                None => largest = largest.max(incoming + NEW_COLUMN_HEADROOM),
            }
        }
        let free = self.policy.budget_bytes.saturating_sub(self.bytes_used);
        if !frozen && worst + largest <= free {
            for ((&a, col), lo) in attrs.iter().zip(cols).zip(next) {
                if lo == usize::MAX {
                    continue;
                }
                let e = self
                    .entries
                    .entry(a)
                    .or_insert_with(|| Entry::new(col.ty(), query_tick));
                let before = e.col.footprint();
                e.col.append_tail(col, lo);
                e.last_used = query_tick;
                // Room for the rest of the scan, as far as the budget could
                // ever admit it.
                let rest = scan_rows.saturating_sub(e.col.len());
                e.col.reserve(rest.min(free / FIXED_INCOMING));
                self.bytes_used += e.col.footprint() - before;
            }
            return;
        }
        let rows = cols.iter().map(TypedColumn::len).max().unwrap_or(0);
        let mut row = next.iter().copied().min().unwrap_or(rows);
        while row < rows && next.iter().any(|&lo| lo != usize::MAX) {
            for ((&a, col), slot) in attrs.iter().zip(&cols).zip(&mut next) {
                if *slot == row {
                    let d = col.datum(row).unwrap_or(Datum::Null);
                    // (A column another query re-stamped is not protected
                    // by `query_tick`; if room-making evicted it, its next
                    // row is no longer this one.)
                    let admitted = self.coverage(a) == row_base + row
                        && self.append(a, col.ty(), &d, query_tick);
                    *slot = if admitted { row + 1 } else { usize::MAX };
                }
            }
            row += 1;
        }
    }

    /// Install a whole restored column for `attr` — the snapshot restore
    /// path, which rebuilds columns wholesale instead of replaying
    /// [`Self::append`] per row. The column's footprint is charged against
    /// the budget with normal LRU room-making; returns `false` (column
    /// dropped) when it cannot fit, when it is empty, or when `attr` is
    /// already resident (a live column is never clobbered by a restore).
    pub fn install_restored(&mut self, attr: usize, col: TypedColumn) -> bool {
        if col.is_empty() || self.entries.contains_key(&attr) {
            return false;
        }
        let fp = col.footprint();
        if fp > self.policy.budget_bytes || !self.make_room(fp, u64::MAX) {
            return false;
        }
        self.tick += 1;
        self.entries.insert(
            attr,
            Entry {
                col,
                last_used: self.tick,
                frozen: false,
            },
        );
        self.bytes_used += fp;
        true
    }

    /// Evict LRU columns (never ones touched at `protect_tick`) until
    /// `incoming` more bytes fit. Returns whether they now fit.
    ///
    /// Victims go in `(last_used, attr)` order. Every column one query
    /// touches shares its tick, so the attribute breaks the tie: which
    /// columns stay resident is a function of the query sequence, never of
    /// the map's per-instance iteration order.
    fn make_room(&mut self, incoming: usize, protect_tick: u64) -> bool {
        while self.bytes_used + incoming > self.policy.budget_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.last_used != protect_tick)
                .min_by_key(|&(&a, e)| (e.last_used, a))
                .map(|(&a, _)| a);
            let Some(e) = victim.and_then(|a| self.entries.remove(&a)) else {
                return false;
            };
            self.bytes_used -= e.col.footprint();
            self.metrics.evictions += 1;
        }
        true
    }

    /// Drop everything (file replaced).
    pub fn invalidate(&mut self) {
        self.entries.clear();
        self.bytes_used = 0;
    }

    /// Epoch quarantine: the backing file was truncated or rewritten, so
    /// cached values were parsed from bytes of a dead file epoch. Alias of
    /// [`Self::invalidate`] under the name the source-epoch layer uses.
    pub fn quarantine(&mut self) {
        self.invalidate();
    }

    /// Drop a single attribute (used by tests and the demo's component
    /// toggles).
    pub fn evict_attr(&mut self, attr: usize) {
        if let Some(e) = self.entries.remove(&attr) {
            self.bytes_used -= e.col.footprint();
            self.metrics.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(cache: &mut RawCache, attr: usize, n: usize) -> u64 {
        let tick = cache.begin_query(&[attr]);
        for i in 0..n {
            assert!(cache.append(attr, ColumnType::Int, &Datum::Int(i as i64), tick));
        }
        tick
    }

    #[test]
    fn column_handle_mirrors_peek() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 10);
        fill(&mut c, 1, 4);
        let col = c.column(1).expect("resident");
        assert_eq!(col.len(), 4);
        assert_eq!(col.datum(3), c.peek(1, 3));
        assert!(c.column(7).is_none());
    }

    #[test]
    fn append_then_hit() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 2, 10);
        assert_eq!(c.coverage(2), 10);
        assert_eq!(c.get(2, 3), Some(Datum::Int(3)));
        assert_eq!(c.metrics().hits, 1);
        assert_eq!(c.get(2, 99), None);
        assert_eq!(c.metrics().misses, 1);
    }

    #[test]
    fn partial_coverage_is_prefix() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 5);
        assert_eq!(c.peek(0, 4), Some(Datum::Int(4)));
        assert_eq!(c.peek(0, 5), None);
    }

    #[test]
    fn lru_eviction_prefers_cold_columns() {
        // Budget for roughly one 1000-row int column.
        let mut c = RawCache::new(CachePolicy::with_budget(12_000));
        fill(&mut c, 0, 1000);
        // Attr 1 arrives: attr 0 is cold (different tick) and gets evicted.
        let t1 = c.begin_query(&[1]);
        for i in 0..1000 {
            c.append(1, ColumnType::Int, &Datum::Int(i), t1);
        }
        assert_eq!(c.coverage(0), 0, "cold column evicted");
        assert!(c.coverage(1) > 0);
        assert!(c.metrics().evictions >= 1);
    }

    /// Columns one query cached share its tick; the victim among them is
    /// the lowest attribute, in every instance, whatever its hash order.
    #[test]
    fn tied_victims_are_chosen_by_attribute() {
        let resident_after = || {
            // Eight 400-row columns take 26 048 bytes; the 1 000-row column
            // behind them needs two of them gone.
            let mut c = RawCache::new(CachePolicy::with_budget(30_000));
            let tick = c.begin_query(&[0, 1, 2, 3, 4, 5, 6, 7]);
            for i in 0..400 {
                for a in 0..8 {
                    assert!(c.append(a, ColumnType::Int, &Datum::Int(i), tick));
                }
            }
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
        let mut c = RawCache::new(CachePolicy::with_budget(4_000));
        let tick = c.begin_query(&[0, 1]);
        // Interleave two columns in one query until the budget stalls.
        let mut admitted = 0;
        for i in 0..1000 {
            if c.append(0, ColumnType::Int, &Datum::Int(i), tick) {
                admitted += 1;
            }
            if c.append(1, ColumnType::Int, &Datum::Int(i), tick) {
                admitted += 1;
            }
        }
        // Neither column evicted the other (both at the protected tick):
        // growth stalls instead.
        assert!(c.metrics().evictions == 0);
        assert!(c.metrics().admission_stalls > 0);
        assert!(admitted > 0);
        assert!(c.bytes_used() <= c.policy().budget_bytes + 64);
    }

    #[test]
    fn set_budget_shrink_evicts() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 100);
        fill(&mut c, 1, 100);
        c.set_budget(0);
        assert_eq!(c.bytes_used(), 0);
        assert_eq!(c.resident().len(), 0);
    }

    #[test]
    fn invalidate_clears() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 0, 10);
        c.invalidate();
        assert_eq!(c.coverage(0), 0);
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn utilization_and_hit_ratio_gauges() {
        let mut c = RawCache::new(CachePolicy::with_budget(100_000));
        fill(&mut c, 0, 100);
        assert!(c.utilization() > 0.0);
        let _ = c.get(0, 0);
        let _ = c.get(0, 1_000_000);
        assert!((c.metrics().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resident_lists_coverage() {
        let mut c = RawCache::new(CachePolicy::default());
        fill(&mut c, 3, 4);
        fill(&mut c, 1, 2);
        assert_eq!(c.resident(), vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn install_restored_charges_budget_and_respects_residents() {
        let mut c = RawCache::new(CachePolicy::with_budget(10_000));
        let mut col = crate::column::TypedColumn::new(ColumnType::Int);
        for i in 0..100 {
            col.push(&Datum::Int(i));
        }
        let fp = col.footprint();
        assert!(c.install_restored(3, col));
        assert_eq!(c.coverage(3), 100);
        assert_eq!(c.bytes_used(), fp);
        assert_eq!(c.peek(3, 42), Some(Datum::Int(42)));

        // A live column is never clobbered by a restore.
        let mut other = crate::column::TypedColumn::new(ColumnType::Int);
        other.push(&Datum::Int(-1));
        assert!(!c.install_restored(3, other));
        assert_eq!(c.peek(3, 0), Some(Datum::Int(0)));

        // Empty columns are refused.
        assert!(!c.install_restored(4, crate::column::TypedColumn::new(ColumnType::Int)));

        // Over-budget columns are refused without evicting what fits.
        let mut c2 = RawCache::new(CachePolicy::with_budget(64));
        let mut big = crate::column::TypedColumn::new(ColumnType::Int);
        for i in 0..100 {
            big.push(&Datum::Int(i));
        }
        assert!(!c2.install_restored(0, big));
        assert_eq!(c2.bytes_used(), 0);
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

    fn random_value(rng: &mut CaseRng, ty: ColumnType) -> Datum {
        if rng.below(8) == 0 {
            return Datum::Null;
        }
        match ty {
            ColumnType::Int => Datum::Int(rng.next() as i64 >> 20),
            ColumnType::Float => Datum::Float(rng.below(10_000) as f64 / 8.0),
            ColumnType::Bool => Datum::Bool(rng.below(2) == 0),
            ColumnType::Str => Datum::Str("abcdefghijklmnopqrstuvwx"[..rng.below(25)].into()),
        }
    }

    /// The value-by-value admission `append_slice` stands in for: one
    /// row-major, attribute-interleaved pass over the whole scan from the
    /// coverage at its start, a column stopping for good at its first
    /// refused append.
    fn replay(
        cache: &mut RawCache,
        attrs: &[usize],
        types: &[ColumnType],
        rows: &[Vec<Datum>],
        tick: u64,
    ) {
        let mut next = cache.coverage_of(attrs);
        for (row, values) in rows.iter().enumerate() {
            for (i, &a) in attrs.iter().enumerate() {
                if next[i] == row {
                    let admitted = cache.append(a, types[i], &values[i], tick);
                    next[i] = if admitted { row + 1 } else { usize::MAX };
                }
            }
        }
    }

    fn assert_same_cache(tag: &str, a: &RawCache, b: &RawCache) {
        assert_eq!(a.resident(), b.resident(), "{tag}: resident");
        assert_eq!(a.bytes_used(), b.bytes_used(), "{tag}: bytes_used");
        for (attr, rows) in a.resident() {
            for row in 0..=rows {
                assert_eq!(
                    a.peek(attr, row),
                    b.peek(attr, row),
                    "{tag}: c{attr} row {row}"
                );
            }
        }
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(
            (ma.hits, ma.misses, ma.evictions, ma.admission_stalls),
            (mb.hits, mb.misses, mb.evictions, mb.admission_stalls),
            "{tag}: metrics"
        );
    }

    #[test]
    fn append_slice_equals_the_append_replay() {
        const TYPES: [ColumnType; 4] = [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Bool,
            ColumnType::Str,
        ];
        let mut rng = CaseRng(0x51CE);
        let (mut bulk_cases, mut replay_cases) = (0, 0);
        for case in 0..400 {
            let n = 1 + rng.below(4);
            let attrs: Vec<usize> = (0..n).map(|i| i * 2 + 1).collect();
            let types: Vec<ColumnType> = (0..n).map(|_| TYPES[rng.below(4)]).collect();
            let total = rng.below(400);
            let rows: Vec<Vec<Datum>> = (0..total)
                .map(|_| types.iter().map(|&ty| random_value(&mut rng, ty)).collect())
                .collect();
            // Slice boundaries, empty slices included.
            let mut cuts: Vec<usize> = (0..rng.below(7)).map(|_| rng.below(total + 1)).collect();
            cuts.extend([0, total]);
            cuts.sort_unstable();

            // What the scan needs when everything is admitted.
            let mut ample = RawCache::new(CachePolicy::default());
            replay(&mut ample, &attrs, &types, &rows, 1);
            let need = ample.bytes_used();

            // Earlier queries: LRU victims (their own ticks), a prefix of
            // some scan columns (frontiers inside a slice), maybe a column
            // frozen at a budget edge that has since moved away.
            let victims = rng.below(3);
            let prefix: Vec<usize> = (0..n)
                .map(|_| {
                    if rng.below(3) == 0 {
                        rng.below(total + 1)
                    } else {
                        0
                    }
                })
                .collect();
            let budget = match rng.below(7) {
                0 => 0,
                1 => 100,
                2 => need / 3,
                3 => need * 2 / 3,
                4 => need.saturating_sub(1 + rng.below(40)),
                5 => need + rng.below(200),
                _ => 1 << 30,
            } + victims * 400;
            // (Only under a budget the filler below can exhaust.)
            let freeze = rng.below(3) == 0 && budget < 1 << 20;
            let prepare = || {
                let mut c = RawCache::new(CachePolicy::with_budget(budget));
                for v in 0..victims {
                    let attr = 100 + v;
                    let tick = c.begin_query(&[attr]);
                    for i in 0..40 {
                        c.append(attr, ColumnType::Int, &Datum::Int(i), tick);
                    }
                }
                let tick = c.begin_query(&attrs);
                for (i, &a) in attrs.iter().enumerate() {
                    for values in &rows[..prefix[i]] {
                        if !c.append(a, types[i], &values[i], tick) {
                            break;
                        }
                    }
                }
                if freeze {
                    // Fill the budget with a filler the scan's first column
                    // then starves against, and take the filler away again.
                    let tick = c.begin_query(&[999, attrs[0]]);
                    while c.append(999, ColumnType::Int, &Datum::Int(7), tick) {}
                    let at = c.coverage(attrs[0]);
                    if let Some(values) = rows.get(at) {
                        c.append(attrs[0], types[0], &values[0], tick);
                    }
                    c.evict_attr(999);
                }
                c
            };

            let (mut by_value, mut by_slice) = (prepare(), prepare());
            let tag = format!("case {case} (budget {budget}, need {need}, cuts {cuts:?})");
            assert_same_cache(&format!("{tag} before"), &by_value, &by_slice);
            let tick = by_value.begin_query(&attrs);
            assert_eq!(tick, by_slice.begin_query(&attrs));
            replay(&mut by_value, &attrs, &types, &rows, tick);
            for w in cuts.windows(2) {
                let cols: Vec<TypedColumn> = (0..n)
                    .map(|i| {
                        let mut col = TypedColumn::new(types[i]);
                        rows[w[0]..w[1]]
                            .iter()
                            .for_each(|values| col.push(&values[i]));
                        col
                    })
                    .collect();
                by_slice.append_slice(&attrs, cols, w[0], total, tick);
            }
            assert_same_cache(&tag, &by_value, &by_slice);
            let m = by_slice.metrics();
            if m.admission_stalls + m.evictions > 0 {
                replay_cases += 1;
            } else {
                bulk_cases += 1;
            }
        }
        assert!(
            bulk_cases > 50 && replay_cases > 50,
            "{bulk_cases} / {replay_cases}"
        );
    }

    #[test]
    fn replay_never_resumes_a_column_its_own_room_making_evicted() {
        // Column 2 holds rows 0..10 but carries another query's LRU stamp,
        // so this scan's tick does not protect it: column 1's growth evicts
        // it at row 9, one row before its own pending rows begin. It must
        // stay out — row 10's value is not row 0's.
        let ints = |range: std::ops::Range<i64>| {
            let mut col = TypedColumn::new(ColumnType::Int);
            range.for_each(|v| col.push(&Datum::Int(v)));
            col
        };
        let mut c = RawCache::new(CachePolicy::with_budget(170));
        fill(&mut c, 2, 10);
        let tick = c.begin_query(&[1, 2]);
        c.begin_query(&[2]);
        c.append_slice(&[1, 2], vec![ints(100..130), ints(0..30)], 0, 30, tick);
        assert_eq!(c.metrics().evictions, 1);
        assert_eq!(c.coverage(2), 0, "evicted, not restarted mid-column");
        assert_eq!(c.peek(1, 9), Some(Datum::Int(109)));
    }

    #[test]
    fn string_budget_counts_payload() {
        let mut c = RawCache::new(CachePolicy::with_budget(1 << 20));
        let tick = c.begin_query(&[0]);
        c.append(0, ColumnType::Str, &Datum::Str("abcdefgh".into()), tick);
        assert!(c.bytes_used() >= 8);
    }
}
