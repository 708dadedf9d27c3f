//! # nodb-repro
//!
//! Umbrella crate for the Rust reproduction of *NoDB in Action: Adaptive
//! Query Processing on Raw Data* (Alagiannis et al., VLDB 2012).
//!
//! The interesting code lives in the workspace crates; this crate re-exports
//! the user-facing API so examples and downstream users can depend on a
//! single crate:
//!
//! ```no_run
//! use nodb_repro::prelude::*;
//!
//! let mut db = NoDb::new(NoDbConfig::default());
//! db.register_csv("taxi", "rides.csv").unwrap();
//! let result = db.query("SELECT c0, c3 FROM taxi WHERE c1 > 100").unwrap();
//! println!("{result}");
//! ```
//!
//! `ROADMAP.md` holds the open design items and what each change did;
//! `benchmark/README.md` describes the benchmark that measures them. The
//! `experiments` binary of `nodb-bench` prints the paper's figures.

pub use nodb_bench as bench;
pub use nodb_core as core;
pub use nodb_engine as engine;
pub use nodb_posmap as posmap;
pub use nodb_rawcache as rawcache;
pub use nodb_rawcsv as rawcsv;
pub use nodb_snapshot as snapshot;
pub use nodb_sqlparse as sqlparse;
pub use nodb_stats as stats;
pub use nodb_storage as storage;

/// Most commonly used items, re-exported for examples and quickstarts.
pub mod prelude {
    pub use nodb_core::{NoDb, NoDbConfig};
    pub use nodb_engine::result::QueryResult;
    pub use nodb_rawcsv::{
        ColumnDef, ColumnType, Datum, GeneratorConfig, Schema, ValueDistribution,
    };
}
