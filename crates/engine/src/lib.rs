//! # nodb-engine — the shared query engine
//!
//! Logical planning, a selectivity-driven optimizer, and Volcano-style
//! columnar execution. This is the layer the paper keeps *unchanged* between
//! PostgresRaw and the conventional comparators: "PostgresRaw overrides the
//! scan operator … while the rest of the query plan, generated by the
//! optimizer, works without any changes compared to a conventional DBMS."
//!
//! Correspondingly, the engine is parameterized over a [`source::ScanSource`]:
//!
//! * `nodb-core` plugs in the adaptive in-situ raw scan (positional map,
//!   cache, on-the-fly statistics);
//! * `nodb-storage` plugs in loaded row/column stores and the naive
//!   external-files scan;
//! * tests plug in [`source::MemSource`].
//!
//! Planning applies three optimizations relevant to the paper:
//! predicate pushdown into the scan (enabling *selective parsing* and
//! *selective tuple formation*), conjunct ordering by estimated selectivity
//! (the consumer of §3.3's on-the-fly statistics), and projection pruning
//! (enabling *selective tokenizing*).

pub mod batch;
pub mod error;
pub mod exec;
pub mod expr;
mod group;
mod hash;
pub mod planner;
pub mod result;
pub mod sketch;
pub mod source;

pub use batch::{Batch, ColView, Column, RowAccess};
pub use error::{EngineError, EngineResult};
pub use exec::{execute, AggPartial};
pub use expr::RExpr;
pub use planner::{plan_select, PlannedQuery};
pub use result::QueryResult;
pub use source::{MemSource, ScanRequest, ScanSource};
