//! Deterministic synthetic CSV generation.
//!
//! The demo's GUI lets the audience "generate their own input CSV files and
//! choose parameters such as the number of attributes and the number of
//! tuples in the file, the width of attributes, as well as the type of the
//! input data" (§4.2). This module is that knob panel as a library:
//! a seeded [`GeneratorConfig`] producing byte-identical files across runs,
//! with per-column value distributions (uniform, Zipf, sequential) so the
//! statistics/selectivity experiments have controllable skew.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::RawCsvError;
use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::Result;

/// Value distribution for one generated column.
#[derive(Debug, Clone)]
pub enum ValueDistribution {
    /// Integers uniform in `[min, max]`.
    IntUniform {
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
    },
    /// Integers `0..n` with Zipf(s) skew: value `k` has probability
    /// proportional to `1/(k+1)^s`.
    IntZipf {
        /// Number of distinct values.
        n: u64,
        /// Skew parameter (s = 0 is uniform; s = 1 is classic Zipf).
        s: f64,
    },
    /// Sequential integers starting at `start` (a dense primary key).
    IntSequential {
        /// First value emitted.
        start: i64,
    },
    /// Floats uniform in `[min, max)`, printed with 4 decimal digits.
    FloatUniform {
        /// Lower bound.
        min: f64,
        /// Upper bound (exclusive).
        max: f64,
    },
    /// Fixed-width lowercase ASCII strings.
    StrFixed {
        /// Exact width in bytes.
        width: usize,
    },
    /// Variable-width lowercase ASCII strings.
    StrVar {
        /// Minimum width.
        min: usize,
        /// Maximum width (inclusive).
        max: usize,
    },
    /// Booleans, `true` with probability `p`.
    BoolBernoulli {
        /// Probability of `true`.
        p: f64,
    },
}

impl ValueDistribution {
    /// The column type values of this distribution parse as.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ValueDistribution::IntUniform { .. }
            | ValueDistribution::IntZipf { .. }
            | ValueDistribution::IntSequential { .. } => ColumnType::Int,
            ValueDistribution::FloatUniform { .. } => ColumnType::Float,
            ValueDistribution::StrFixed { .. } | ValueDistribution::StrVar { .. } => {
                ColumnType::Str
            }
            ValueDistribution::BoolBernoulli { .. } => ColumnType::Bool,
        }
    }
}

/// Specification of one generated column.
#[derive(Debug, Clone)]
pub struct ColumnGenSpec {
    /// Column name.
    pub name: String,
    /// Value distribution.
    pub dist: ValueDistribution,
    /// Fraction of NULL (empty) fields in `[0, 1)`.
    pub null_fraction: f64,
}

impl ColumnGenSpec {
    /// Column with no NULLs.
    pub fn new(name: impl Into<String>, dist: ValueDistribution) -> Self {
        ColumnGenSpec {
            name: name.into(),
            dist,
            null_fraction: 0.0,
        }
    }
}

/// Full configuration of one synthetic file.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Columns in file order.
    pub columns: Vec<ColumnGenSpec>,
    /// Number of data tuples.
    pub rows: u64,
    /// Field delimiter.
    pub delimiter: u8,
    /// Whether to emit a header line with column names.
    pub header: bool,
    /// RNG seed: the same config always produces the same bytes.
    pub seed: u64,
}

impl GeneratorConfig {
    /// The demo's canonical shape: `cols` integer attributes uniform in
    /// `[0, 10^9)`, named `c0..`, no header.
    pub fn uniform_ints(cols: usize, rows: u64, seed: u64) -> Self {
        GeneratorConfig {
            columns: (0..cols)
                .map(|i| {
                    ColumnGenSpec::new(
                        format!("c{i}"),
                        ValueDistribution::IntUniform {
                            min: 0,
                            max: 999_999_999,
                        },
                    )
                })
                .collect(),
            rows,
            delimiter: b',',
            header: false,
            seed,
        }
    }

    /// `cols` string attributes of exactly `width` bytes — the §4.2
    /// attribute-width sensitivity knob.
    pub fn fixed_width_strings(cols: usize, width: usize, rows: u64, seed: u64) -> Self {
        GeneratorConfig {
            columns: (0..cols)
                .map(|i| ColumnGenSpec::new(format!("c{i}"), ValueDistribution::StrFixed { width }))
                .collect(),
            rows,
            delimiter: b',',
            header: false,
            seed,
        }
    }

    /// Schema matching the generated file.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| ColumnDef::new(c.name.clone(), c.dist.column_type()))
                .collect(),
        )
    }

    /// Generate into an in-memory buffer (tests, small files).
    pub fn generate_bytes(&self) -> Vec<u8> {
        let mut out = self.header_line();
        let mut state = GenState::new(self);
        for row in 0..self.rows {
            out.extend_from_slice(state.format_row(row, self));
        }
        out
    }

    /// Generate to a file at `path`, returning the number of bytes written.
    pub fn generate_file(&self, path: impl AsRef<Path>) -> Result<u64> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| RawCsvError::io(format!("create {}", path.display()), e))?;
        let mut w = CountingWriter {
            inner: BufWriter::new(file),
            written: 0,
        };
        self.write_to(&mut w)
            .map_err(|e| RawCsvError::io(format!("write {}", path.display()), e))?;
        w.inner
            .flush()
            .map_err(|e| RawCsvError::io(format!("flush {}", path.display()), e))?;
        Ok(w.written)
    }

    /// Append `extra_rows` more tuples to an existing file, continuing the
    /// deterministic stream (used by the UPDATES experiment). The RNG is
    /// fast-forwarded past the first `self.rows` tuples so appended values
    /// continue the same sequence.
    pub fn append_rows(&self, path: impl AsRef<Path>, extra_rows: u64) -> Result<u64> {
        let path = path.as_ref();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| RawCsvError::io(format!("open append {}", path.display()), e))?;
        let mut w = CountingWriter {
            inner: BufWriter::new(file),
            written: 0,
        };
        let mut state = GenState::new(self);
        // Fast-forward deterministically.
        for row in 0..self.rows {
            state.format_row(row, self);
        }
        for row in self.rows..self.rows + extra_rows {
            w.write_all(state.format_row(row, self))
                .map_err(|e| RawCsvError::io(format!("append {}", path.display()), e))?;
        }
        w.inner
            .flush()
            .map_err(|e| RawCsvError::io(format!("flush {}", path.display()), e))?;
        Ok(w.written)
    }

    fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.header_line())?;
        let mut state = GenState::new(self);
        for row in 0..self.rows {
            w.write_all(state.format_row(row, self))?;
        }
        Ok(())
    }

    /// The header line (column names), or nothing when `header` is off.
    fn header_line(&self) -> Vec<u8> {
        let mut line = Vec::new();
        if self.header {
            for (i, c) in self.columns.iter().enumerate() {
                if i > 0 {
                    line.push(self.delimiter);
                }
                line.extend_from_slice(c.name.as_bytes());
            }
            line.push(b'\n');
        }
        line
    }
}

/// Running generator state: RNG plus precomputed Zipf tables per column.
struct GenState {
    rng: StdRng,
    /// One entry per column, in column order: for a Zipf column the
    /// cumulative probability table used for inverse-transform sampling
    /// (capped at 10k entries; beyond that the tail is uniform, which is
    /// indistinguishable in practice for selectivity experiments), empty
    /// for every other column.
    zipf_cdfs: Vec<Vec<f64>>,
    /// Reused per-row formatting buffer.
    scratch: Vec<u8>,
}

impl GenState {
    fn new(cfg: &GeneratorConfig) -> Self {
        let zipf_cdfs = cfg
            .columns
            .iter()
            .map(|c| match c.dist {
                ValueDistribution::IntZipf { n, s } => zipf_cdf(n.min(10_000), s),
                _ => Vec::new(),
            })
            .collect();
        GenState {
            rng: StdRng::seed_from_u64(cfg.seed),
            zipf_cdfs,
            scratch: Vec::with_capacity(64),
        }
    }

    /// Draw and format tuple `row` (newline included), advancing the RNG
    /// stream by exactly that tuple's draws. The bytes live in the reused
    /// scratch buffer until the next call.
    fn format_row(&mut self, row: u64, cfg: &GeneratorConfig) -> &[u8] {
        self.scratch.clear();
        for (i, (col, cdf)) in cfg.columns.iter().zip(&self.zipf_cdfs).enumerate() {
            if i > 0 {
                self.scratch.push(cfg.delimiter);
            }
            // NULL draw happens before the value draw but the value draw
            // still occurs, keeping the stream position independent of null
            // placement (so append_rows fast-forward stays exact).
            let is_null = col.null_fraction > 0.0 && self.rng.random::<f64>() < col.null_fraction;
            let start = self.scratch.len();
            match col.dist {
                ValueDistribution::IntUniform { min, max } => {
                    let v = self.rng.random_range(min..=max);
                    write_i64(&mut self.scratch, v);
                }
                ValueDistribution::IntZipf { .. } => {
                    let u: f64 = self.rng.random();
                    let k = cdf.partition_point(|&c| c < u) as i64;
                    write_i64(&mut self.scratch, k);
                }
                ValueDistribution::IntSequential { start: s } => {
                    write_i64(&mut self.scratch, s + row as i64);
                }
                ValueDistribution::FloatUniform { min, max } => {
                    let v: f64 = self.rng.random_range(min..max);
                    // 4 decimal digits, stable formatting.
                    let _ = write!(&mut self.scratch, "{v:.4}");
                }
                ValueDistribution::StrFixed { width } => {
                    for _ in 0..width {
                        let c = b'a' + self.rng.random_range(0..26u8);
                        self.scratch.push(c);
                    }
                }
                ValueDistribution::StrVar { min, max } => {
                    let width = self.rng.random_range(min..=max);
                    for _ in 0..width {
                        let c = b'a' + self.rng.random_range(0..26u8);
                        self.scratch.push(c);
                    }
                }
                ValueDistribution::BoolBernoulli { p } => {
                    let v = self.rng.random::<f64>() < p;
                    self.scratch
                        .extend_from_slice(if v { b"true" } else { b"false" });
                }
            }
            if is_null {
                self.scratch.truncate(start);
            }
        }
        self.scratch.push(b'\n');
        &self.scratch
    }
}

/// Cumulative distribution for Zipf(s) over `0..n`.
fn zipf_cdf(n: u64, s: f64) -> Vec<f64> {
    // A CDF table of u64::MAX entries could never allocate anyway; saturate.
    let n = usize::try_from(n.max(1)).unwrap_or(usize::MAX);
    let mut weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k as f64) + 1.0).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    // Guard against floating point shortfall at the end.
    if let Some(last) = weights.last_mut() {
        *last = 1.0;
    }
    weights
}

/// Append the decimal representation of `v` without allocating.
fn write_i64(out: &mut Vec<u8>, v: i64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let neg = v < 0;
    let mut u = v.unsigned_abs();
    loop {
        i -= 1;
        buf[i] = b'0' + (u % 10) as u8; // lint: cast-ok bounded by % 10
        u /= 10;
        if u == 0 {
            break;
        }
    }
    if neg {
        i -= 1;
        buf[i] = b'-';
    }
    out.extend_from_slice(&buf[i..]);
}

struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::uniform_ints(5, 100, 42);
        assert_eq!(cfg.generate_bytes(), cfg.generate_bytes());
        let other = GeneratorConfig::uniform_ints(5, 100, 43);
        assert_ne!(cfg.generate_bytes(), other.generate_bytes());
    }

    #[test]
    fn row_and_column_counts_match() {
        let cfg = GeneratorConfig::uniform_ints(7, 50, 1);
        let bytes = cfg.generate_bytes();
        let lines: Vec<&[u8]> = bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(lines.len(), 50);
        for l in lines {
            assert_eq!(l.iter().filter(|&&b| b == b',').count(), 6);
        }
    }

    #[test]
    fn header_row_present_when_requested() {
        let mut cfg = GeneratorConfig::uniform_ints(3, 2, 9);
        cfg.header = true;
        let bytes = cfg.generate_bytes();
        assert!(bytes.starts_with(b"c0,c1,c2\n"));
    }

    #[test]
    fn fixed_width_strings_have_exact_width() {
        let cfg = GeneratorConfig::fixed_width_strings(4, 9, 20, 3);
        let bytes = cfg.generate_bytes();
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            for field in line.split(|&b| b == b',') {
                assert_eq!(field.len(), 9);
            }
        }
    }

    #[test]
    fn sequential_column_is_dense() {
        let cfg = GeneratorConfig {
            columns: vec![ColumnGenSpec::new(
                "id",
                ValueDistribution::IntSequential { start: 10 },
            )],
            rows: 5,
            delimiter: b',',
            header: false,
            seed: 0,
        };
        let bytes = cfg.generate_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, "10\n11\n12\n13\n14\n");
    }

    #[test]
    fn null_fraction_produces_empty_fields() {
        let cfg = GeneratorConfig {
            columns: vec![ColumnGenSpec {
                name: "v".into(),
                dist: ValueDistribution::IntUniform { min: 0, max: 9 },
                null_fraction: 0.5,
            }],
            rows: 1000,
            delimiter: b',',
            header: false,
            seed: 11,
        };
        let bytes = cfg.generate_bytes();
        let empties = bytes
            .split(|&b| b == b'\n')
            .filter(|l| l.is_empty())
            .count();
        // 1000 rows → 1000 newlines → the final split yields one trailing
        // empty; NULL rows are empty lines too in a 1-column file.
        assert!(empties > 300 && empties < 700, "empties = {empties}");
    }

    #[test]
    fn zipf_is_skewed() {
        let cfg = GeneratorConfig {
            columns: vec![ColumnGenSpec::new(
                "z",
                ValueDistribution::IntZipf { n: 100, s: 1.2 },
            )],
            rows: 2000,
            delimiter: b',',
            header: false,
            seed: 5,
        };
        let bytes = cfg.generate_bytes();
        let zeros = bytes.split(|&b| b == b'\n').filter(|l| *l == b"0").count();
        // Value 0 should dominate under heavy skew.
        assert!(zeros > 200, "zeros = {zeros}");
    }

    #[test]
    fn append_continues_stream() {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_gen_append_{}", std::process::id()));
        let cfg = GeneratorConfig::uniform_ints(3, 10, 77);
        cfg.generate_file(&p).unwrap();
        cfg.append_rows(&p, 5).unwrap();

        // The 15-row file generated in one shot must equal generate+append.
        let mut cfg15 = cfg.clone();
        cfg15.rows = 15;
        let expect = cfg15.generate_bytes();
        let got = std::fs::read(&p).unwrap();
        assert_eq!(got, expect);
        std::fs::remove_file(p).unwrap();
    }

    /// Pins the generated bytes of a config exercising every distribution,
    /// NULLs, a header and a non-comma delimiter: datasets (and the
    /// checksums benchmarks print for them) must not drift.
    #[test]
    fn mixed_config_bytes_are_pinned() {
        let cfg = GeneratorConfig {
            columns: vec![
                ColumnGenSpec::new("id", ValueDistribution::IntSequential { start: -3 }),
                ColumnGenSpec {
                    name: "z".into(),
                    dist: ValueDistribution::IntZipf { n: 50, s: 1.1 },
                    null_fraction: 0.2,
                },
                ColumnGenSpec::new(
                    "u",
                    ValueDistribution::IntUniform {
                        min: -1_000,
                        max: 1_000,
                    },
                ),
                ColumnGenSpec {
                    name: "f".into(),
                    dist: ValueDistribution::FloatUniform {
                        min: -5.0,
                        max: 5.0,
                    },
                    null_fraction: 0.1,
                },
                ColumnGenSpec::new("s", ValueDistribution::StrFixed { width: 6 }),
                ColumnGenSpec {
                    name: "v".into(),
                    dist: ValueDistribution::StrVar { min: 0, max: 9 },
                    null_fraction: 0.3,
                },
                ColumnGenSpec::new("b", ValueDistribution::BoolBernoulli { p: 0.4 }),
            ],
            rows: 500,
            delimiter: b'|',
            header: true,
            seed: 2026,
        };
        let bytes = cfg.generate_bytes();
        assert_eq!(bytes.len(), 16_933);
        assert_eq!(crate::reader::fnv1a(&bytes), 0x545b_8c70_5e38_9b71);
    }

    #[test]
    fn write_i64_handles_extremes() {
        let mut v = Vec::new();
        write_i64(&mut v, i64::MIN);
        assert_eq!(v, b"-9223372036854775808");
        v.clear();
        write_i64(&mut v, 0);
        assert_eq!(v, b"0");
    }
}
