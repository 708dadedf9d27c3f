//! The adaptive positional map proper: row index, chunk registry, access
//! planning, LRU bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::chunk::{Chunk, ChunkBuilder, ChunkId};
use crate::policy::MapPolicy;

/// Shared per-file row index: byte offset of the start of every known line.
///
/// Built during the first scan and extended by later scans (after an append,
/// or after a scan that stopped early). All chunks express their positions
/// relative to these line starts, and the index is the scan's one source of
/// global row numbers: the rows it holds are scanned as row ranges, which may
/// read the cache and jump through chunks; whatever follows its last row is
/// scanned as byte ranges, which resolve everything from raw bytes.
#[derive(Debug, Default)]
pub struct RowIndex {
    starts: Vec<u64>,
    /// True once a scan has reached end-of-file, i.e. `starts` covers every
    /// tuple currently in the file.
    complete: bool,
}

impl RowIndex {
    /// Number of rows whose start offset is known.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when no rows are known.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Whether the index covers the whole file (as of the last scan).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Start offset of `row`, if known.
    #[inline]
    pub fn offset(&self, row: usize) -> Option<u64> {
        self.starts.get(row).copied()
    }

    /// Record the start offset of the next row. Rows must arrive in order;
    /// recording an already-known row is a no-op (later queries re-scan the
    /// same prefix).
    #[inline]
    pub fn note_row(&mut self, row: usize, offset: u64) {
        match row.cmp(&self.starts.len()) {
            std::cmp::Ordering::Equal => self.starts.push(offset),
            std::cmp::Ordering::Less => debug_assert_eq!(self.starts[row], offset),
            std::cmp::Ordering::Greater => {
                debug_assert!(
                    false,
                    "row index gap: got row {row}, have {}",
                    self.starts.len()
                )
            }
        }
    }

    /// Record a contiguous run of row starts beginning at `first_row` — the
    /// bulk form of [`Self::note_row`] used when merging the per-partition
    /// offset lists of a parallel scan.
    ///
    /// Rows already known are skipped (replays of a known prefix are no-ops,
    /// with the same debug-time consistency check as `note_row`); rows at
    /// the frontier extend the index. A gap beyond the frontier is a logic
    /// error, as in `note_row`.
    pub fn note_rows(&mut self, first_row: usize, offsets: &[u64]) {
        debug_assert!(
            first_row <= self.starts.len(),
            "row index gap: got run starting at {first_row}, have {}",
            self.starts.len()
        );
        if first_row > self.starts.len() {
            // Release-mode guard: appending across a gap would register the
            // offsets under the wrong row numbers and silently corrupt every
            // later positional-map jump. Dropping the run only loses an
            // optimization, never correctness.
            return;
        }
        let known = self
            .starts
            .len()
            .saturating_sub(first_row)
            .min(offsets.len());
        debug_assert!(
            offsets[..known]
                .iter()
                .zip(&self.starts[first_row..])
                .all(|(a, b)| a == b),
            "row index replay mismatch at rows {first_row}..{}",
            first_row + known
        );
        self.starts.extend_from_slice(&offsets[known..]);
    }

    /// Mark the index as covering the whole file.
    pub fn mark_complete(&mut self) {
        self.complete = true;
    }

    /// Invalidate completeness (file grew); known prefix offsets stay valid.
    pub fn mark_incomplete(&mut self) {
        self.complete = false;
    }

    /// Drop everything (file replaced).
    pub fn clear(&mut self) {
        self.starts.clear();
        self.complete = false;
    }

    /// All known row-start offsets, in row order (the snapshot serializer
    /// reads these wholesale; restore replays them through
    /// [`Self::note_rows`]).
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// Heap footprint in bytes (reported, not budgeted — see [`MapPolicy`]).
    pub fn footprint(&self) -> usize {
        self.starts.len() * 8
    }
}

/// Where the map says one attribute's bytes can be found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrSource {
    /// A chunk stores this attribute's offset directly.
    Exact {
        /// Index into the map's chunk table.
        chunk: usize,
    },
    /// A chunk stores a *predecessor* attribute; resume tokenizing from it.
    Anchor {
        /// Index into the map's chunk table.
        chunk: usize,
        /// The covered attribute to resume from (`<` the requested one).
        anchor_attr: usize,
    },
    /// Nothing useful: tokenize from the start of the line.
    Scan,
}

/// Result of planning access for one query's attribute set.
///
/// The paper: "PostgresRaw opts to determine first all required positions
/// instead of interleaving parsing with search" — this plan is that
/// pre-computation, made once per query before the scan loop.
#[derive(Debug, Clone)]
pub struct AccessPlan {
    /// `(attribute, source)` pairs, in ascending attribute order.
    pub sources: Vec<(usize, AttrSource)>,
    /// Distinct chunks the *covered* attributes resolve to.
    pub distinct_chunks: usize,
    /// Number of requested attributes with no exact coverage.
    pub uncovered: usize,
    /// Whether the scan should collect this combination into a new chunk:
    /// always when an attribute is uncovered, and otherwise by the paper's
    /// rule — more than one attribute requested, each in a different chunk.
    pub should_index: bool,
}

impl AccessPlan {
    /// Source planned for `attr`, if it was part of the request.
    pub fn source_for(&self, attr: usize) -> Option<AttrSource> {
        self.sources
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|&(_, s)| s)
    }
}

/// Counters and gauges exposed to the monitoring panel (Fig 2) and the
/// experiment harness.
#[derive(Debug, Default, Clone)]
pub struct MapMetrics {
    /// Chunks installed over the map's lifetime.
    pub installs: u64,
    /// Chunks evicted by LRU pressure.
    pub evictions: u64,
    /// Chunk installs rejected because a single chunk exceeded the budget.
    pub rejects: u64,
    /// Installs skipped because an existing chunk subsumed the new one.
    pub subsumed: u64,
}

/// The adaptive positional map for one raw file.
///
/// Access planning only reads the chunks and advances the LRU clock and
/// stamps, which are atomic (`Relaxed`: they publish no other data):
/// concurrent queries plan on a shared borrow. Installs, evictions and the
/// row index take `&mut self`.
#[derive(Debug)]
pub struct PositionalMap {
    row_index: RowIndex,
    chunks: Vec<Chunk>,
    policy: MapPolicy,
    tick: AtomicU64,
    next_chunk_id: u64,
    bytes_used: usize,
    metrics: MapMetrics,
}

impl PositionalMap {
    /// Empty map under the given policy.
    pub fn new(policy: MapPolicy) -> Self {
        PositionalMap {
            row_index: RowIndex::default(),
            chunks: Vec::new(),
            policy,
            tick: AtomicU64::new(0),
            next_chunk_id: 0,
            bytes_used: 0,
            metrics: MapMetrics::default(),
        }
    }

    /// The shared row index.
    pub fn row_index(&self) -> &RowIndex {
        &self.row_index
    }

    /// Mutable access to the row index (used by the scan while streaming).
    pub fn row_index_mut(&mut self) -> &mut RowIndex {
        &mut self.row_index
    }

    /// Policy in force.
    pub fn policy(&self) -> &MapPolicy {
        &self.policy
    }

    /// Replace the byte budget at runtime (the demo's interactive knob).
    /// Shrinking evicts LRU chunks immediately.
    pub fn set_budget(&mut self, budget_bytes: usize) {
        self.policy.budget_bytes = budget_bytes;
        self.evict_to_fit(0);
    }

    /// Installed chunks (monitoring / tests).
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Bytes consumed by chunks (excludes the row index; see policy docs).
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> &MapMetrics {
        &self.metrics
    }

    /// Utilization in `[0, 1]` of the chunk budget — the Fig 2 gauge.
    pub fn utilization(&self) -> f64 {
        if self.policy.budget_bytes == 0 {
            return 0.0;
        }
        self.bytes_used as f64 / self.policy.budget_bytes as f64
    }

    /// Number of known rows for which `attr` has an exact position in some
    /// chunk (coverage gauge for the monitoring panel).
    pub fn coverage(&self, attr: usize) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.covers(attr))
            .map(Chunk::rows)
            .max()
            .unwrap_or(0)
    }

    /// Plan access for one query's requested attributes (deduplicated,
    /// any order). Touches the LRU clock of every chunk the plan uses.
    ///
    /// Takes `&self`, so concurrent queries plan at once. Each plan takes
    /// its own tick and a stamp only moves forward (`fetch_max`): a plan
    /// that stamps late with an older tick never overwrites a newer one.
    pub fn plan_access(&self, attrs: &[usize]) -> AccessPlan {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut requested: Vec<usize> = attrs.to_vec();
        requested.sort_unstable();
        requested.dedup();

        let mut sources = Vec::with_capacity(requested.len());
        let mut used_chunks: Vec<usize> = Vec::new();
        let mut uncovered = 0usize;

        for &attr in &requested {
            // Prefer exact coverage; among candidates pick the one covering
            // the most rows (ties: most recently used).
            let exact = self
                .chunks
                .iter()
                .enumerate()
                .filter(|(_, c)| c.covers(attr) && c.rows() > 0)
                .max_by_key(|(_, c)| (c.rows(), c.last_used.load(Ordering::Relaxed)));
            if let Some((idx, _)) = exact {
                sources.push((attr, AttrSource::Exact { chunk: idx }));
                if !used_chunks.contains(&idx) {
                    used_chunks.push(idx);
                }
                continue;
            }
            uncovered += 1;
            // Otherwise the best anchor at or before the attribute.
            let anchor = self
                .chunks
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    (c.rows() > 0)
                        .then(|| c.best_anchor_at_or_before(attr).map(|a| (i, a, c.rows())))
                        .flatten()
                })
                .max_by_key(|&(_, a, rows)| (a, rows));
            match anchor {
                Some((idx, anchor_attr, _)) => {
                    sources.push((
                        attr,
                        AttrSource::Anchor {
                            chunk: idx,
                            anchor_attr,
                        },
                    ));
                    if !used_chunks.contains(&idx) {
                        used_chunks.push(idx);
                    }
                }
                None => sources.push((attr, AttrSource::Scan)),
            }
        }

        // LRU touch for every chunk this plan will read.
        for &idx in &used_chunks {
            self.chunks[idx]
                .last_used
                .fetch_max(tick, Ordering::Relaxed);
        }

        // Distinct chunks among *exact* resolutions only (the paper's
        // "belong in different chunks" is about where attributes live).
        let mut exact_chunks: Vec<usize> = sources
            .iter()
            .filter_map(|(_, s)| match s {
                AttrSource::Exact { chunk } => Some(*chunk),
                _ => None,
            })
            .collect();
        exact_chunks.sort_unstable();
        exact_chunks.dedup();
        let distinct_chunks = exact_chunks.len();

        // The paper's default, its only rule here: "if all requested
        // attributes for a query belong in different chunks, then the new
        // combination is indexed".
        let should_index =
            uncovered > 0 || (requested.len() > 1 && distinct_chunks == requested.len());

        AccessPlan {
            sources,
            distinct_chunks,
            uncovered,
            should_index,
        }
    }

    /// Offset of `attr` in `row` according to chunk `chunk_idx`
    /// (as referenced by an [`AttrSource`] from the current plan).
    #[inline]
    pub fn offset_in(&self, chunk_idx: usize, attr: usize, row: usize) -> Option<u16> {
        self.chunks.get(chunk_idx)?.offset(attr, row)
    }

    /// Install a finished chunk builder, applying subsumption, LRU eviction
    /// and budget admission. Returns the new chunk's id when installed.
    pub fn install(&mut self, builder: ChunkBuilder) -> Option<ChunkId> {
        if builder.is_empty() {
            return None;
        }
        // Subsumption: an existing chunk with a superset of attributes and
        // at least as many rows makes the new chunk useless.
        let attrs = builder.attrs();
        let rows = builder.rows();
        if self
            .chunks
            .iter()
            .any(|c| c.rows() >= rows && attrs.iter().all(|&a| c.covers(a)))
        {
            self.metrics.subsumed += 1;
            return None;
        }
        // Replacement: drop existing chunks that the new one strictly
        // subsumes (same or subset attrs, fewer-or-equal rows).
        let before = self.chunks.len();
        let new_attrs: Vec<usize> = attrs.to_vec();
        self.chunks.retain(|c| {
            let subsumed = c.rows() <= rows
                && c.attrs()
                    .iter()
                    .all(|&a| new_attrs.binary_search(&a).is_ok());
            !subsumed
        });
        let dropped = before - self.chunks.len();
        if dropped > 0 {
            self.recompute_bytes();
        }

        let fp = builder.footprint();
        if fp > self.policy.budget_bytes {
            self.metrics.rejects += 1;
            return None;
        }
        self.evict_to_fit(fp);

        let tick = self.tick.get_mut();
        *tick += 1;
        let id = ChunkId(self.next_chunk_id);
        self.next_chunk_id += 1;
        let chunk = builder.freeze(id, *tick);
        self.bytes_used += chunk.footprint();
        self.chunks.push(chunk);
        self.metrics.installs += 1;
        Some(id)
    }

    /// Evict least-recently-used chunks until `incoming` more bytes fit.
    /// Victims go in `(last_used, id)` order: chunks one plan stamped tie
    /// on `last_used`, and the older id goes first, so the victim does not
    /// depend on where `swap_remove` left a chunk in the vector.
    fn evict_to_fit(&mut self, incoming: usize) {
        while self.bytes_used + incoming > self.policy.budget_bytes {
            let Some((victim, _)) = self
                .chunks
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (c.last_used.load(Ordering::Relaxed), c.id()))
            else {
                break;
            };
            let removed = self.chunks.swap_remove(victim);
            self.bytes_used -= removed.footprint();
            self.metrics.evictions += 1;
        }
    }

    fn recompute_bytes(&mut self) {
        self.bytes_used = self.chunks.iter().map(Chunk::footprint).sum();
    }

    /// Drop all positional state (file replaced).
    pub fn invalidate(&mut self) {
        self.chunks.clear();
        self.row_index.clear();
        self.bytes_used = 0;
    }

    /// File grew: keep all prefix state, but the row index no longer covers
    /// the whole file — the next scan reads what follows its last row.
    pub fn note_appended(&mut self) {
        self.row_index.mark_incomplete();
    }

    /// Epoch quarantine: the backing file was truncated or rewritten, so
    /// every recorded offset — chunks and the row index — may point at bytes
    /// from a different file epoch and must not be consulted again. Today an alias of [`Self::invalidate`]; the
    /// source-epoch layer calls it under this name so the intent ("the file
    /// mutated under us") stays distinct from administrative resets.
    pub fn quarantine(&mut self) {
        self.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::tokenizer::{TokenizerConfig, Tokens};

    fn builder_with_rows(attrs: Vec<usize>, lines: &[&[u8]]) -> ChunkBuilder {
        let cfg = TokenizerConfig::default();
        let mut t = Tokens::new();
        let mut b = ChunkBuilder::new(attrs);
        for line in lines {
            cfg.tokenize_into(line, &mut t);
            b.push_row(&t);
        }
        b
    }

    fn default_map() -> PositionalMap {
        PositionalMap::new(MapPolicy::default())
    }

    #[test]
    fn empty_map_plans_scans() {
        let m = default_map();
        let plan = m.plan_access(&[1, 3]);
        assert_eq!(plan.uncovered, 2);
        assert!(plan.should_index);
        assert!(matches!(plan.source_for(1), Some(AttrSource::Scan)));
    }

    #[test]
    fn exact_coverage_preferred() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![1, 3], &[b"a,b,c,d", b"e,f,g,h"]));
        let plan = m.plan_access(&[3]);
        assert_eq!(plan.uncovered, 0);
        assert!(matches!(plan.source_for(3), Some(AttrSource::Exact { .. })));
        assert!(!plan.should_index); // single attr, covered
    }

    #[test]
    fn anchor_used_for_uncovered_attr() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![1], &[b"a,b,c,d"]));
        let plan = m.plan_access(&[3]);
        assert_eq!(plan.uncovered, 1);
        match plan.source_for(3) {
            Some(AttrSource::Anchor { anchor_attr, .. }) => assert_eq!(anchor_attr, 1),
            other => panic!("expected anchor, got {other:?}"),
        }
        assert!(plan.should_index);
    }

    #[test]
    fn best_anchor_across_chunks() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![0], &[b"a,b,c,d,e,f"]));
        m.install(builder_with_rows(vec![3], &[b"a,b,c,d,e,f"]));
        let plan = m.plan_access(&[5]);
        match plan.source_for(5) {
            Some(AttrSource::Anchor { anchor_attr, .. }) => assert_eq!(anchor_attr, 3),
            other => panic!("expected anchor at 3, got {other:?}"),
        }
    }

    #[test]
    fn all_different_chunks_triggers_combination() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![0], &[b"a,b,c"]));
        m.install(builder_with_rows(vec![1], &[b"a,b,c"]));
        let plan = m.plan_access(&[0, 1]);
        assert_eq!(plan.distinct_chunks, 2);
        assert!(plan.should_index, "paper default: all-different triggers");

        // Same chunk: no trigger.
        let mut m2 = default_map();
        m2.install(builder_with_rows(vec![0, 1], &[b"a,b,c"]));
        let plan2 = m2.plan_access(&[0, 1]);
        assert_eq!(plan2.distinct_chunks, 1);
        assert!(!plan2.should_index);

        // Three attributes over three chunks trigger; two of them sharing a
        // chunk do not, and a single covered attribute never does.
        let mut m3 = default_map();
        for attr in 0..3 {
            m3.install(builder_with_rows(vec![attr], &[b"a,b,c,d"]));
        }
        assert!(m3.plan_access(&[0, 1, 2]).should_index);
        assert!(!m3.plan_access(&[1]).should_index);
        m2.install(builder_with_rows(vec![2], &[b"a,b,c"]));
        let plan3 = m2.plan_access(&[0, 1, 2]);
        assert_eq!((plan3.distinct_chunks, plan3.uncovered), (2, 0));
        assert!(!plan3.should_index);
    }

    #[test]
    fn subsumption_skips_useless_installs() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![0, 1, 2], &[b"a,b,c", b"d,e,f"]));
        let before = m.chunks().len();
        let id = m.install(builder_with_rows(vec![1], &[b"a,b,c"]));
        assert!(id.is_none());
        assert_eq!(m.chunks().len(), before);
        assert_eq!(m.metrics().subsumed, 1);
    }

    #[test]
    fn install_replaces_subsumed_chunks() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![1], &[b"a,b,c"]));
        m.install(builder_with_rows(vec![0, 1], &[b"a,b,c", b"d,e,f"]));
        // The superset chunk replaces the singleton.
        assert_eq!(m.chunks().len(), 1);
        assert_eq!(m.chunks()[0].attrs(), &[0, 1]);
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Budget that fits roughly one 1000-row, 1-attr chunk.
        let one_chunk = {
            let lines: Vec<Vec<u8>> = (0..1000).map(|_| b"aa,bb,cc".to_vec()).collect();
            let refs: Vec<&[u8]> = lines.iter().map(|l| l.as_slice()).collect();
            builder_with_rows(vec![0], &refs).footprint()
        };
        let budget = one_chunk * 2 + 200; // fits two small chunks, not three
        let mut m = PositionalMap::new(MapPolicy::with_budget(budget));

        let lines: Vec<Vec<u8>> = (0..1000).map(|_| b"aa,bb,cc".to_vec()).collect();
        let refs: Vec<&[u8]> = lines.iter().map(|l| l.as_slice()).collect();
        m.install(builder_with_rows(vec![0], &refs));
        m.install(builder_with_rows(vec![1], &refs));
        assert_eq!(m.chunks().len(), 2);

        // Touch attr 1 so attr 0's chunk is the LRU victim.
        let _ = m.plan_access(&[1]);
        m.install(builder_with_rows(vec![2], &refs));
        assert_eq!(m.metrics().evictions, 1);
        let covered: Vec<bool> = (0..3).map(|a| m.coverage(a) > 0).collect();
        assert_eq!(covered, vec![false, true, true], "attr 0 was evicted");
    }

    /// Chunks stamped by one plan tie on `last_used`; two maps holding the
    /// same chunks in different vector orders must still evict the same
    /// ones, oldest id first.
    #[test]
    fn tied_victims_do_not_depend_on_vector_order() {
        let lines: Vec<Vec<u8>> = (0..100).map(|_| b"a,b,c,d".to_vec()).collect();
        let refs: Vec<&[u8]> = lines.iter().map(|l| l.as_slice()).collect();
        let maps: Vec<PositionalMap> = (0..2)
            .map(|reversed| {
                let mut m = default_map();
                for attr in 0..4 {
                    m.install(builder_with_rows(vec![attr], &refs));
                }
                let _ = m.plan_access(&[0, 1, 2, 3]);
                if reversed == 1 {
                    m.chunks.reverse();
                }
                let two = m.chunks[0].footprint() * 2;
                m.set_budget(two);
                m
            })
            .collect();
        let ids = |m: &PositionalMap| {
            let mut v: Vec<ChunkId> = m.chunks().iter().map(Chunk::id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(maps[0].metrics().evictions, 2);
        assert_eq!(ids(&maps[0]), ids(&maps[1]));
        assert_eq!(ids(&maps[0]), vec![ChunkId(2), ChunkId(3)]);
    }

    /// Plans run concurrently on a shared borrow: every call takes its own
    /// tick, and each chunk the plans share ends stamped with the last one,
    /// as any serial replay of the calls leaves it.
    #[test]
    fn concurrent_plans_leave_the_serial_stamps() {
        let (threads, calls) = if cfg!(miri) { (2, 8) } else { (4, 500) };
        let mut m = default_map();
        for attr in 0..3 {
            m.install(builder_with_rows(vec![attr], &[b"a,b,c,d"]));
        }
        let before = *m.tick.get_mut();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (m, start) = (&m, &start);
                // Attribute 3 has no chunk: it plans an anchor on chunk 2.
                s.spawn(move || {
                    start.wait();
                    for _ in 0..calls {
                        m.plan_access(&[0, 1, 2, 3]);
                    }
                });
            }
        });
        let tick = *m.tick.get_mut();
        assert_eq!(tick - before, (threads * calls) as u64, "one tick per call");
        for c in m.chunks() {
            let stamp = c.last_used.load(Ordering::Relaxed);
            assert_eq!(stamp, tick, "chunk {:?} keeps the newest stamp", c.id());
        }
    }

    #[test]
    fn oversized_chunk_rejected() {
        let mut m = PositionalMap::new(MapPolicy::with_budget(8));
        let id = m.install(builder_with_rows(vec![0, 1], &[b"a,b", b"c,d", b"e,f"]));
        assert!(id.is_none());
        assert_eq!(m.metrics().rejects, 1);
        assert_eq!(m.bytes_used(), 0);
    }

    #[test]
    fn shrinking_budget_evicts() {
        let mut m = default_map();
        let lines: Vec<Vec<u8>> = (0..100).map(|_| b"a,b,c".to_vec()).collect();
        let refs: Vec<&[u8]> = lines.iter().map(|l| l.as_slice()).collect();
        m.install(builder_with_rows(vec![0], &refs));
        m.install(builder_with_rows(vec![1], &refs));
        assert_eq!(m.chunks().len(), 2);
        m.set_budget(0);
        assert_eq!(m.chunks().len(), 0);
        assert_eq!(m.bytes_used(), 0);
    }

    #[test]
    fn row_index_notes_in_order() {
        let mut m = default_map();
        m.row_index_mut().note_row(0, 0);
        m.row_index_mut().note_row(1, 10);
        m.row_index_mut().note_row(1, 10); // replay is a no-op
        assert_eq!(m.row_index().len(), 2);
        assert_eq!(m.row_index().offset(1), Some(10));
        assert_eq!(m.row_index().offset(2), None);
        m.row_index_mut().mark_complete();
        assert!(m.row_index().is_complete());
    }

    #[test]
    fn note_rows_bulk_matches_note_row() {
        let mut a = default_map();
        let mut b = default_map();
        let offsets: Vec<u64> = (0..10).map(|i| i * 11).collect();
        for (i, &o) in offsets.iter().enumerate() {
            a.row_index_mut().note_row(i, o);
        }
        b.row_index_mut().note_rows(0, &offsets[..4]);
        b.row_index_mut().note_rows(4, &offsets[4..]);
        // Replay of a known prefix is a no-op.
        b.row_index_mut().note_rows(2, &offsets[2..6]);
        assert_eq!(a.row_index().len(), b.row_index().len());
        for i in 0..10 {
            assert_eq!(a.row_index().offset(i), b.row_index().offset(i));
        }
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut m = default_map();
        m.install(builder_with_rows(vec![0], &[b"a,b"]));
        m.row_index_mut().note_row(0, 0);
        m.invalidate();
        assert!(m.chunks().is_empty());
        assert!(m.row_index().is_empty());
        assert_eq!(m.bytes_used(), 0);
    }

    #[test]
    fn append_keeps_the_known_prefix() {
        let mut m = default_map();
        m.row_index_mut().note_row(0, 0);
        m.row_index_mut().mark_complete();
        m.note_appended();
        assert!(!m.row_index().is_complete());
        assert_eq!(m.row_index().len(), 1, "prefix offsets survive");
    }

    #[test]
    fn utilization_gauge() {
        let mut m = PositionalMap::new(MapPolicy::with_budget(10_000));
        assert_eq!(m.utilization(), 0.0);
        let lines: Vec<Vec<u8>> = (0..100).map(|_| b"a,b".to_vec()).collect();
        let refs: Vec<&[u8]> = lines.iter().map(|l| l.as_slice()).collect();
        m.install(builder_with_rows(vec![0], &refs));
        assert!(m.utilization() > 0.0 && m.utilization() <= 1.0);
    }
}
