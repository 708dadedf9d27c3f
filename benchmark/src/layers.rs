//! Per-layer probes: one function per probe, each timing calls into one
//! crate's public functions from outside. Every call the benchmark makes
//! into a crate other than through the facade, the server, the generator
//! and the loaded-DBMS reference lives in this file, so a refactor of a
//! layer's interface is repaired in one place.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use nodb_engine::{execute, plan_select, MemSource};
use nodb_posmap::{AttrSource, ChunkBuilder, MapPolicy, PositionalMap};
use nodb_rawcache::TypedColumn;
use nodb_rawcsv::reader::{count_lines_in_range, LineRange};
use nodb_rawcsv::{parser, ColumnType, Datum, GeneratorConfig, Schema, TokenizerConfig, Tokens};
use nodb_sqlparse::parse_select;
use nodb_stats::estimate::NoStats;
use nodb_stats::TableStats;

use crate::stat::median;

/// Repeat `pass`, which does `units` units of work, until `budget` is
/// spent (at least three times); the median units per second over passes.
fn rate(budget: Duration, units: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        pass();
        rates.push(units / t.elapsed().as_secs_f64().max(1e-9));
    }
    median(&rates)
}

/// Rows of a generated file held in memory for the probes.
pub struct Lines {
    pub lines: Vec<Vec<u8>>,
    pub schema: Schema,
}

impl Lines {
    /// The first `limit` lines of `path`.
    pub fn load(path: &Path, schema: Schema, limit: usize) -> Result<Lines, String> {
        use std::io::BufRead;
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut lines = Vec::new();
        for line in std::io::BufReader::new(file).split(b'\n').take(limit) {
            lines.push(line.map_err(|e| format!("read {}: {e}", path.display()))?);
        }
        Ok(Lines { lines, schema })
    }

    /// In-memory rows of `cols` uniform integers (the positional-map probe
    /// needs more fields per line than `narrow` has).
    pub fn uniform_ints(cols: usize, rows: u64, seed: u64) -> Lines {
        let gen = GeneratorConfig::uniform_ints(cols, rows, seed);
        Lines {
            lines: gen
                .generate_bytes()
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .map(<[u8]>::to_vec)
                .collect(),
            schema: gen.schema(),
        }
    }

    fn bytes(&self) -> f64 {
        self.lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64
    }

    /// The raw bytes of field `attr` of every line.
    fn field(&self, attr: usize) -> Vec<&[u8]> {
        let cfg = TokenizerConfig::default();
        let mut tokens = Tokens::new();
        self.lines
            .iter()
            .map(|l| {
                cfg.tokenize_selective(l, attr, &mut tokens);
                tokens.get(attr).map_or(&[][..], |s| s.of(l))
            })
            .collect()
    }

    /// Every line parsed to a row of datums.
    fn rows(&self) -> Vec<Vec<Datum>> {
        let cfg = TokenizerConfig::default();
        let mut tokens = Tokens::new();
        self.lines
            .iter()
            .enumerate()
            .map(|(row, l)| {
                cfg.tokenize_into(l, &mut tokens);
                (0..self.schema.len())
                    .map(|attr| {
                        let raw = tokens.get(attr).map_or(&[][..], |s| s.of(l));
                        parser::parse_field(raw, self.schema.ty(attr), row as u64, attr)
                            .unwrap_or(Datum::Null)
                    })
                    .collect()
            })
            .collect()
    }
}

/// `rawcsv.newline_floor_mb_s`: one thread counting newlines over the whole
/// file — the fastest any cold scan of it can go.
pub fn newline_floor_mb_s(
    path: &Path,
    bytes: u64,
    rows: u64,
    budget: Duration,
) -> Result<f64, String> {
    let range = LineRange {
        start: 0,
        end: bytes,
    };
    let (counted, _) = count_lines_in_range(path, 1 << 20, range)
        .map_err(|e| format!("count_lines_in_range: {e}"))?;
    if counted != rows {
        return Err(format!(
            "newline floor counted {counted} lines, file has {rows}"
        ));
    }
    Ok(rate(budget, bytes as f64 / 1e6, || {
        black_box(count_lines_in_range(path, 1 << 20, range).ok());
    }))
}

/// `rawcsv.tokenize_mb_s`: `tokenize_selective` to the last field of every
/// line.
pub fn tokenize_mb_s(data: &Lines, budget: Duration) -> f64 {
    let cfg = TokenizerConfig::default();
    let mut tokens = Tokens::new();
    rate(budget, data.bytes() / 1e6, || {
        let mut fields = 0usize;
        for l in &data.lines {
            fields += cfg.tokenize_selective(l, usize::MAX, &mut tokens);
        }
        black_box(fields);
    })
}

/// `rawcsv.parse_*_ns_per_field`: `parse_field` over column `attr`.
pub fn parse_ns_per_field(data: &Lines, attr: usize, budget: Duration) -> f64 {
    let ty: ColumnType = data.schema.ty(attr);
    let fields = data.field(attr);
    1e9 / rate(budget, fields.len() as f64, || {
        for (row, raw) in fields.iter().enumerate() {
            black_box(parser::parse_field(raw, ty, row as u64, attr).ok());
        }
    })
}

/// `stats.observe_ns_per_value`: `AttrStats::observe` on every value of an
/// integer column, as the default configuration does on a first pass.
pub fn stats_observe_ns_per_value(data: &Lines, attr: usize, budget: Duration) -> f64 {
    let values: Vec<Datum> = data
        .field(attr)
        .iter()
        .enumerate()
        .map(|(row, raw)| {
            parser::parse_field(raw, data.schema.ty(attr), row as u64, attr).unwrap_or(Datum::Null)
        })
        .collect();
    1e9 / rate(budget, values.len() as f64, || {
        let mut stats = TableStats::new(1);
        let a = stats.attr_mut(0);
        for v in &values {
            a.observe(v);
        }
        black_box(stats.attr(0).map(|s| s.rows_seen()));
    })
}

/// `posmap.jump_ns_per_field` and `posmap.scan_from_start_ns_per_field`:
/// reaching field `target` of every line through a chunk that indexes
/// field `anchor` (offset lookup + `tokenize_from`), against tokenizing
/// from the line start.
pub fn posmap_ns_per_field(
    data: &Lines,
    anchor: usize,
    target: usize,
    budget: Duration,
) -> Result<(f64, f64), String> {
    let cfg = TokenizerConfig::default();
    let mut tokens = Tokens::new();
    let mut map = PositionalMap::new(MapPolicy::default());
    let mut builder = ChunkBuilder::new(vec![anchor]);
    for (row, l) in data.lines.iter().enumerate() {
        map.row_index_mut().note_row(row, 0);
        cfg.tokenize_into(l, &mut tokens);
        builder.push_row(&tokens);
    }
    map.install(builder);
    let plan = map.plan_access(&[target]);
    let (chunk, anchor_attr) = match plan.source_for(target) {
        Some(AttrSource::Anchor { chunk, anchor_attr }) => (chunk, anchor_attr),
        other => return Err(format!("positional map planned {other:?}, not an anchor")),
    };
    let n = data.lines.len() as f64;
    let jump = 1e9
        / rate(budget, n, || {
            let mut acc = 0usize;
            for (row, l) in data.lines.iter().enumerate() {
                let off = map
                    .offset_in(chunk, anchor_attr, row)
                    .map_or(0, usize::from);
                cfg.tokenize_from(l, anchor_attr, off, target, &mut tokens);
                acc += tokens.get(target).map_or(0, |s| s.len());
            }
            black_box(acc);
        });
    let scan = 1e9
        / rate(budget, n, || {
            let mut acc = 0usize;
            for l in &data.lines {
                cfg.tokenize_selective(l, target, &mut tokens);
                acc += tokens.get(target).map_or(0, |s| s.len());
            }
            black_box(acc);
        });
    Ok((jump, scan))
}

/// `rawcache.export_rows_per_s` and `rawcache.gather_rows_per_s`: copying a
/// cached integer column out in 4096-row segments, and gathering every
/// tenth row of each segment.
pub fn rawcache_rows_per_s(data: &Lines, attr: usize, budget: Duration) -> (f64, f64) {
    const SEGMENT: usize = 4096;
    let ty = data.schema.ty(attr);
    let mut column = TypedColumn::new(ty);
    for (row, raw) in data.field(attr).iter().enumerate() {
        column.push(&parser::parse_field(raw, ty, row as u64, attr).unwrap_or(Datum::Null));
    }
    let n = column.len();
    let export = rate(budget, n as f64, || {
        for lo in (0..n).step_by(SEGMENT) {
            black_box(column.export_range(lo, lo + SEGMENT));
        }
    });
    let selection: Vec<u32> = (0..SEGMENT as u32).step_by(10).collect();
    let gathered = (n / SEGMENT * selection.len()).max(1);
    let gather = rate(budget, gathered as f64, || {
        for base in (0..n - n % SEGMENT).step_by(SEGMENT) {
            black_box(column.gather(&selection, base));
        }
    });
    (export, gather)
}

/// `sqlparse.parse_us`: `parse_select` per statement of `sqls`.
pub fn sqlparse_parse_us(sqls: &[String], budget: Duration) -> f64 {
    1e6 / rate(budget, sqls.len() as f64, || {
        for sql in sqls {
            black_box(parse_select(sql).ok());
        }
    })
}

/// `engine.plan_us`: `plan_select` per parsed statement, with no statistics.
pub fn engine_plan_us(sqls: &[String], schema: &Schema, budget: Duration) -> Result<f64, String> {
    let stmts = sqls
        .iter()
        .map(|sql| parse_select(sql).map_err(|e| format!("parse {sql:?}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(1e6
        / rate(budget, stmts.len() as f64, || {
            for stmt in &stmts {
                black_box(plan_select(stmt, schema, &NoStats).ok());
            }
        }))
}

/// `engine.exec_rows_per_s`: the engine alone, executing `sqls` over the
/// rows of `data` held in a `MemSource` — the floor under a warm query.
/// Rows are input rows offered to the engine, per second.
pub fn engine_exec_rows_per_s(
    data: &Lines,
    sqls: &[String],
    budget: Duration,
) -> Result<f64, String> {
    let table = data.rows();
    let planned = sqls
        .iter()
        .map(|sql| {
            let stmt = parse_select(sql).map_err(|e| format!("parse {sql:?}: {e}"))?;
            plan_select(&stmt, &data.schema, &NoStats).map_err(|e| format!("plan {sql:?}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut failed = None;
    let rows_per_s = rate(budget, (table.len() * planned.len()) as f64, || {
        for p in &planned {
            let source = MemSource::from_table(&table, &p.scan);
            if let Err(e) = execute(p, Box::new(source)) {
                failed = Some(e.to_string());
            }
        }
    });
    match failed {
        Some(e) => Err(format!("engine probe: {e}")),
        None => Ok(rows_per_s),
    }
}
