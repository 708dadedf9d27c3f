//! The two generated input files.
//!
//! Sizes are constants, not knobs: a fifth of the issue's 1 000 000 x 8 and
//! 300 000 x 50, so that one run (which regenerates its input from `--seed`)
//! fits the driver's time cap. `--quick` divides by a further 50 for tests.

use std::io::Read;
use std::path::{Path, PathBuf};

use nodb_rawcsv::{ColumnGenSpec, GeneratorConfig, Schema, ValueDistribution};

use crate::stat::{fnv1a, FNV_OFFSET};

pub const NARROW_ROWS: u64 = 200_000;
pub const WIDE_ROWS: u64 = 60_000;
pub const WIDE_COLS: usize = 50;
pub const QUICK_DIVISOR: u64 = 50;

/// Uniform integer columns draw from `[0, INT_DOMAIN)`, so `c < s * 1e9`
/// selects the share `s` of the rows.
pub const INT_DOMAIN: i64 = 1_000_000_000;

/// A generated file and what is needed to register, extend and describe it.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: &'static str,
    pub path: PathBuf,
    pub gen: GeneratorConfig,
    pub bytes: u64,
    /// FNV-1a of the file's bytes: parent and change can show they read
    /// the same input.
    pub checksum: u64,
}

impl Dataset {
    pub fn schema(&self) -> Schema {
        self.gen.schema()
    }

    pub fn rows(&self) -> u64 {
        self.gen.rows
    }

    pub fn describe(&self) -> String {
        format!(
            "dataset {}: {} rows x {} columns, {} bytes, fnv1a {:016x}",
            self.name,
            self.gen.rows,
            self.gen.columns.len(),
            self.bytes,
            self.checksum
        )
    }
}

fn scaled(rows: u64, quick: bool) -> u64 {
    if quick {
        rows / QUICK_DIVISOR
    } else {
        rows
    }
}

/// `narrow`: 8 columns of mixed types — `c0` sequential id, `c1..c3` uniform
/// ints, `c4` Zipf(1.0) over 1 000 values, `c5` float, `c6` string of 4-12
/// bytes, `c7` bool; 2 % NULLs in `c2` and `c6`.
pub fn narrow_config(seed: u64, quick: bool) -> GeneratorConfig {
    let uniform = |name: &str| {
        ColumnGenSpec::new(
            name,
            ValueDistribution::IntUniform {
                min: 0,
                max: INT_DOMAIN - 1,
            },
        )
    };
    let with_nulls = |mut c: ColumnGenSpec| {
        c.null_fraction = 0.02;
        c
    };
    GeneratorConfig {
        columns: vec![
            ColumnGenSpec::new("c0", ValueDistribution::IntSequential { start: 0 }),
            uniform("c1"),
            with_nulls(uniform("c2")),
            uniform("c3"),
            ColumnGenSpec::new("c4", ValueDistribution::IntZipf { n: 1_000, s: 1.0 }),
            ColumnGenSpec::new(
                "c5",
                ValueDistribution::FloatUniform {
                    min: 0.0,
                    max: 1_000.0,
                },
            ),
            with_nulls(ColumnGenSpec::new(
                "c6",
                ValueDistribution::StrVar { min: 4, max: 12 },
            )),
            ColumnGenSpec::new("c7", ValueDistribution::BoolBernoulli { p: 0.5 }),
        ],
        rows: scaled(NARROW_ROWS, quick),
        delimiter: b',',
        header: false,
        seed,
    }
}

/// `wide`: 50 uniform integer columns, the paper's many-attribute
/// exploration shape.
pub fn wide_config(seed: u64, quick: bool) -> GeneratorConfig {
    GeneratorConfig::uniform_ints(WIDE_COLS, scaled(WIDE_ROWS, quick), seed)
}

/// Write `gen` to `dir/<name>.csv` and checksum what was written.
pub fn generate(name: &'static str, gen: GeneratorConfig, dir: &Path) -> Result<Dataset, String> {
    let path = dir.join(format!("{name}.csv"));
    let bytes = gen
        .generate_file(&path)
        .map_err(|e| format!("generate {name}: {e}"))?;
    let checksum = checksum_file(&path)?;
    Ok(Dataset {
        name,
        path,
        gen,
        bytes,
        checksum,
    })
}

pub fn checksum_file(path: &Path) -> Result<u64, String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut buf = vec![0u8; 1 << 20];
    let mut h = FNV_OFFSET;
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        if n == 0 {
            return Ok(h);
        }
        h = fnv1a(h, &buf[..n]);
    }
}
