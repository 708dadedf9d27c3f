//! Shared helpers for the integration-test binaries. Each test file is its
//! own crate, so anything both `concurrent_queries.rs` and `server.rs` need
//! lives here (`mod common;`). Not every binary uses every helper.
#![allow(dead_code)]

use std::collections::BTreeSet;

use nodb_repro::core::rawscan::SCAN_SLICES;
use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::posmap::{ChunkBuilder, MapPolicy, PositionalMap};
use nodb_repro::rawcache::{RawCache, TypedColumn};
use nodb_repro::rawcsv::reader::partition_line_ranges_capped;
use nodb_repro::rawcsv::tokenizer::{TokenizerConfig, Tokens};
use nodb_repro::rawcsv::{parser, ColumnType, Datum, Schema};
use nodb_repro::stats::TableStats;

/// One data row of a [`NaiveModel`]: line-start offset, parsed fields,
/// field-start offsets.
type Row = (u64, Vec<Datum>, Vec<u32>);

/// One table's adaptive structures, borrowed for comparison.
type Structures<'a> = (&'a PositionalMap, &'a RawCache, &'a TableStats);

/// Assert that two sets of adaptive structures are identical: row index,
/// positional-map coverage (when `chunks`), cache contents (a `NaN` equals
/// a `NaN`) and bytes,
/// statistics (every accumulator's full state — counts and bounds — and
/// `observed_upto`).
fn assert_same_structures(
    tag: &str,
    a: Structures<'_>,
    b: Structures<'_>,
    cols: usize,
    chunks: bool,
) {
    let ((map_a, cache_a, stats_a), (map_b, cache_b, stats_b)) = (a, b);
    assert_eq!(
        map_a.row_index().starts(),
        map_b.row_index().starts(),
        "{tag}: row index"
    );
    assert_eq!(
        map_a.row_index().is_complete(),
        map_b.row_index().is_complete(),
        "{tag}: row index completeness"
    );
    assert_eq!(
        cache_a.bytes_used(),
        cache_b.bytes_used(),
        "{tag}: cache bytes"
    );
    for attr in (0..cols).filter(|_| chunks) {
        assert_eq!(
            map_a.coverage(attr),
            map_b.coverage(attr),
            "{tag}: map coverage c{attr}"
        );
    }
    for attr in 0..cols {
        assert_eq!(
            cache_a.coverage(attr),
            cache_b.coverage(attr),
            "{tag}: cache coverage c{attr}"
        );
        for row in 0..cache_a.coverage(attr) {
            let x = cache_a.column(attr).and_then(|c| c.datum(row));
            let y = cache_b.column(attr).and_then(|c| c.datum(row));
            // `NaN` never `==` itself: identical text is equal.
            assert!(
                x == y || format!("{x:?}") == format!("{y:?}"),
                "{tag}: cache content c{attr} row {row}: {x:?} vs {y:?}"
            );
        }
        assert_eq!(
            stats_a.observed_upto(attr),
            stats_b.observed_upto(attr),
            "{tag}: stats frontier c{attr}"
        );
        match (stats_a.attr(attr), stats_b.attr(attr)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.rows_seen(), y.rows_seen(), "{tag}: stats rows c{attr}");
                assert_eq!(
                    x.null_fraction(),
                    y.null_fraction(),
                    "{tag}: stats nulls c{attr}"
                );
                assert_eq!(
                    format!("{:?}", x.export_state()),
                    format!("{:?}", y.export_state()),
                    "{tag}: stats state c{attr}"
                );
            }
            other => panic!("{tag}: stats presence differs for c{attr}: {other:?}"),
        }
    }
}

/// Assert that two instances' adaptive state for table `t` is identical
/// (coverage, cache contents, statistics, row index). This is the
/// convergence invariant behind every concurrency test: side-effect merges
/// are frontier-based, so any interleaving of the same query set must land
/// exactly where a sequential replay lands.
pub fn assert_same_state(tag: &str, a: &NoDb, b: &NoDb, cols: usize) {
    let (ha, hb) = (a.table_handle("t").unwrap(), b.table_handle("t").unwrap());
    let (ta, tb) = (ha.read(), hb.read());
    assert_same_structures(
        tag,
        (ta.map(), ta.cache(), ta.stats()),
        (tb.map(), tb.cache(), tb.stats()),
        cols,
        true,
    );
}

/// The reference for "what one pass over the file leaves behind": a
/// deliberately naive model of a table's adaptive state. It reads the whole
/// file, splits every line and parses every field up front, then replays
/// each query's side effects straight into a fresh cache, statistics
/// registry and positional map — no workers, no staging. The cache takes
/// each scan slice by slice, with the slices cut the way a raw scan cuts
/// them, but derived here from the row index and the file. The staged scan
/// at any worker count must end in this state.
///
/// The model states the first-scan rule in its own terms (see
/// [`Self::query`]) rather than asking the engine which columns it takes.
pub struct NaiveModel {
    path: std::path::PathBuf,
    types: Vec<ColumnType>,
    tokenizer: TokenizerConfig,
    /// Whether the table keeps a row index and a positional map: without
    /// them every scan is all tail.
    indexed: bool,
    rows: Vec<Row>,
    /// File length in bytes.
    len: u64,
    row_count: Option<usize>,
    /// Whether a query has run since the load.
    queried: bool,
    /// Every slice boundary, in rows, of the scans so far (row counts
    /// included): where an admitted cache column's coverage may end.
    pub cuts: BTreeSet<usize>,
    pub cache: RawCache,
    pub stats: TableStats,
    pub map: PositionalMap,
}

impl NaiveModel {
    /// Load a headerless, unquoted, comma-separated file under `cfg`'s
    /// budgets and positional-map switch.
    pub fn load(path: &std::path::Path, schema: &Schema, cfg: &NoDbConfig) -> Self {
        Self::load_with(path, schema, cfg, TokenizerConfig::default())
    }

    /// [`Self::load`] for a headerless file under `tokenizer`'s delimiter
    /// and quote byte. A quoted table keeps no row index and no map.
    pub fn load_with(
        path: &std::path::Path,
        schema: &Schema,
        cfg: &NoDbConfig,
        tokenizer: TokenizerConfig,
    ) -> Self {
        let types: Vec<ColumnType> = (0..schema.len()).map(|a| schema.ty(a)).collect();
        let (rows, len) = Self::read_rows(path, &types, &tokenizer);
        NaiveModel {
            path: path.to_path_buf(),
            rows,
            len,
            types,
            tokenizer,
            indexed: cfg.enable_positional_map && tokenizer.quote.is_none(),
            row_count: None,
            queried: false,
            cuts: BTreeSet::new(),
            cache: RawCache::new(cfg.cache_budget_bytes),
            stats: TableStats::default(),
            map: PositionalMap::new(MapPolicy::with_budget(cfg.map_budget_bytes)),
        }
    }

    /// Every line of the file (start offset, parsed fields, field starts),
    /// and the file's length. A line ends at `\n`, less a `\r` before it;
    /// a plain file's fields are what splitting at the delimiter gives, a
    /// quoted file's what the per-line quote-aware tokenizer locates, and a
    /// quoted string is unescaped.
    fn read_rows(
        path: &std::path::Path,
        types: &[ColumnType],
        tok: &TokenizerConfig,
    ) -> (Vec<Row>, u64) {
        let bytes = std::fs::read(path).unwrap();
        let mut rows = Vec::new();
        let mut offset = 0u64;
        let mut tokens = Tokens::new();
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let text = line.strip_suffix(b"\n").unwrap_or(line);
            let text = text.strip_suffix(b"\r").unwrap_or(text);
            let fields: Vec<(u32, &[u8])> = match tok.quote {
                None => {
                    let mut at = 0u32;
                    text.split(|&b| b == tok.delimiter)
                        .map(|field| {
                            at += field.len() as u32 + 1;
                            (at - field.len() as u32 - 1, field)
                        })
                        .collect()
                }
                Some(_) => {
                    tok.tokenize_into(text, &mut tokens);
                    tokens
                        .spans()
                        .iter()
                        .map(|s| (s.start, s.of(text)))
                        .collect()
                }
            };
            let (mut values, mut starts) = (Vec::new(), Vec::new());
            for (attr, (start, field)) in fields.into_iter().enumerate() {
                values.push(match tok.quote {
                    Some(q) if types[attr] == ColumnType::Str && field.contains(&q) => {
                        Datum::Str(parser::unescape_quoted(field, q).into())
                    }
                    _ => parser::parse_field(field, types[attr], rows.len() as u64, attr).unwrap(),
                });
                starts.push(start);
            }
            rows.push((offset, values, starts));
            offset += line.len() as u64;
        }
        (rows, offset)
    }

    /// Rows were appended to the file: read it again and forget what an
    /// append makes a table forget — the totals, not the prefix state.
    pub fn note_appended(&mut self, path: &std::path::Path) {
        (self.rows, self.len) = Self::read_rows(path, &self.types, &self.tokenizer);
        self.row_count = None;
        self.map.note_appended();
    }

    /// Index of the data row starting at byte `offset` (the row count when
    /// `offset` is the file's end).
    pub fn row_at(&self, offset: u64) -> usize {
        self.rows.partition_point(|r| r.0 < offset)
    }

    /// Cache bytes that the first `rows` rows of `attrs` take.
    pub fn bytes_for_rows(&self, attrs: &[usize], rows: usize) -> usize {
        attrs
            .iter()
            .map(|&a| self.column(a, 0..rows).footprint())
            .sum()
    }

    /// Rows `range` of attribute `attr` as a typed column.
    fn column(&self, attr: usize, range: std::ops::Range<usize>) -> TypedColumn {
        let mut col = TypedColumn::new(self.types[attr]);
        for (_, values, _) in &self.rows[range] {
            col.push(&values[attr]);
        }
        col
    }

    /// Where a scan starting now cuts the file, in rows: the rows the row
    /// index holds into up to `SCAN_SLICES` equal row ranges, the bytes
    /// behind them into up to `SCAN_SLICES` line-aligned byte ranges. The
    /// row count ends the list.
    fn slice_cuts(&self) -> Vec<usize> {
        let index = self.map.row_index();
        let known = if self.indexed { index.len() } else { 0 };
        let parts = SCAN_SLICES.min(known);
        let mut cuts: Vec<usize> = (0..parts).map(|k| known * k / parts).collect();
        if !(self.indexed && index.is_complete()) {
            let from = index.starts()[..known].last().map_or(0, |&last| last + 1);
            let tail = partition_line_ranges_capped(&self.path, SCAN_SLICES, from, self.len);
            cuts.extend(tail.unwrap().iter().map(|r| self.row_at(r.start)));
        }
        cuts.push(self.rows.len());
        cuts
    }

    /// [`Self::query`] for a query that converts every attribute whole even
    /// as the model's first: one under a deadline, or one the engine runs
    /// after a scan that installed a prefix (a stopped one, or one its
    /// `LIMIT` met), which the model does not run.
    pub fn query_whole(&mut self, pred: &[usize], used: &[usize]) {
        self.queried = true;
        self.query(pred, used);
    }

    /// Apply the side effects of one query whose pushed predicate reads the
    /// attributes `pred` (empty: the query has no `WHERE`) and whose engine
    /// uses the attributes `used` — projections, group keys, aggregate
    /// arguments, sort keys. The scan reads their union.
    ///
    /// The first query since the load, when it is filtered, converts an
    /// attribute it uses but does not filter on only for the rows its
    /// predicate keeps: such an attribute joins the map chunk, but neither
    /// the cache nor the statistics take it. Every later query converts
    /// whole attributes.
    pub fn query(&mut self, pred: &[usize], used: &[usize]) {
        let mut attrs: Vec<usize> = pred.iter().chain(used).copied().collect();
        attrs.sort_unstable();
        attrs.dedup();
        let first_scan = !pred.is_empty() && !self.queried;
        self.queried = true;
        let whole: Vec<usize> = attrs
            .iter()
            .copied()
            .filter(|&a| !(first_scan && used.contains(&a) && !pred.contains(&a)))
            .collect();
        let attrs = &attrs[..];
        let tick = self.cache.begin_query(attrs);
        let plan = self.map.plan_access(attrs);
        let total = self.rows.len();
        if self
            .row_count
            .is_some_and(|rc| attrs.iter().all(|&a| self.cache.coverage(a) >= rc))
        {
            return; // fully cached: the file is not touched
        }
        let cuts = self.slice_cuts();
        self.cuts.extend(&cuts);
        let starts: Vec<u64> = self.rows.iter().map(|r| r.0).collect();
        if self.indexed {
            self.map.row_index_mut().note_rows(0, &starts);
        }
        if self.indexed && plan.should_index {
            let mut chunk = ChunkBuilder::new(attrs.to_vec());
            for (_, _, field_starts) in &self.rows {
                let offsets: Vec<(usize, u32)> =
                    attrs.iter().map(|&a| (a, field_starts[a])).collect();
                chunk.push_row_offsets(&offsets);
            }
            self.map.install(chunk);
        }
        // Cache: slice by slice, in slice order.
        for w in cuts.windows(2) {
            let cols = whole.iter().map(|&a| self.column(a, w[0]..w[1])).collect();
            self.cache.append_slice(&whole, cols, w[0], total, tick);
        }
        // Statistics: every row from the frontier on is observed.
        for &a in &whole {
            let frontier = self.stats.observed_upto(a) as usize;
            for (_, values, _) in self.rows.iter().skip(frontier) {
                self.stats.observe(a, &values[a]);
            }
        }
        self.row_count = Some(total);
        if self.indexed {
            self.map.row_index_mut().mark_complete();
        }
        for &a in &whole {
            self.stats.advance_observed(a, total as u64);
        }
    }
}

/// Assert that table `t` of `db` holds exactly the model's adaptive state.
pub fn assert_matches_model(tag: &str, db: &NoDb, model: &NaiveModel) {
    matches_model(tag, db, model, true);
}

/// [`assert_matches_model`] without positional-map coverage: for a table
/// whose map kept a chunk over a prefix of the rows (a scan that stopped
/// early or met its LIMIT indexed them, and the next scan found its
/// attributes indexed and collected no chunk of its own).
pub fn assert_matches_model_but_chunks(tag: &str, db: &NoDb, model: &NaiveModel) {
    matches_model(tag, db, model, false);
}

fn matches_model(tag: &str, db: &NoDb, model: &NaiveModel, chunks: bool) {
    let handle = db.table_handle("t").unwrap();
    let t = handle.read();
    assert_same_structures(
        tag,
        (t.map(), t.cache(), t.stats()),
        (&model.map, &model.cache, &model.stats),
        model.types.len(),
        chunks,
    );
}
