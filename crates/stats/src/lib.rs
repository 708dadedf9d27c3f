//! # nodb-stats — on-the-fly statistics (paper §3.3)
//!
//! Conventional optimizers build statistics *after load*; PostgresRaw
//! "extends the scan operator to create statistics on-the-fly", only on
//! requested attributes, incrementally augmented as queries touch more of
//! the file. The one decision that reads them here is the planner's order
//! of the pushed WHERE conjuncts, so they hold what its estimates need and
//! nothing more. This crate provides:
//!
//! * [`ndv::DistinctCounter`] — linear-counting distinct-value estimation,
//!   over a word-at-a-time hash ([`ndv::hash_datum`]) that the engine's
//!   GROUP BY and COUNT DISTINCT share;
//! * [`sketch::ColumnSketch`] — the order-independent part of a slice's
//!   statistics (NDV bitmap, min/max), built by the scan workers;
//! * [`attr::AttrStats`] — per-attribute accumulator (row and NULL counts,
//!   min/max, NDV);
//! * [`table::TableStats`] — the per-file registry the optimizer consults,
//!   itself the [`estimate::SelectivityEstimator`] the planner is handed,
//!   with the [`estimate::PredicateSketch`] vocabulary shared with the
//!   engine.
//!
//! ## What each estimate reads
//!
//! Equality, `<>` and IN divide the non-NULL fraction by the NDV estimate;
//! `IS [NOT] NULL` reads the NULL fraction; a numeric range interpolates
//! linearly between the observed minimum and maximum. A string or Bool
//! range, a prefix LIKE and an attribute no scan has observed get the
//! textbook defaults of [`estimate::defaults`].
//!
//! ## Sketch and absorb
//!
//! The scan feeds the statistics in two halves. Each worker builds a
//! [`ColumnSketch`] over its slice's typed partial column, in parallel and
//! outside the table's lock. The install then calls [`TableStats::absorb`]
//! per attribute with the scan's slices in row order: each sketch's bits
//! and bounds are merged (idempotent, so slices overlapping rows already
//! observed are harmless), and the rows and NULLs beyond the observation
//! frontier are counted by popcount; no value is read. The resulting state
//! equals [`TableStats::observe`] on every row in row order, byte for byte
//! — the property the scan's equivalence tests check at every worker
//! count.

#![forbid(unsafe_code)]

pub mod attr;
pub mod estimate;
pub mod ndv;
pub mod sketch;
pub mod table;

pub use attr::{AttrStats, AttrStatsState};
pub use estimate::{PredicateSketch, SelectivityEstimator};
pub use ndv::DistinctCounter;
pub use sketch::ColumnSketch;
pub use table::{TableStats, TableStatsState};
