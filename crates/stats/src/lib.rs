//! # nodb-stats — on-the-fly statistics (paper §3.3)
//!
//! Conventional optimizers build statistics *after load*; PostgresRaw
//! "extends the scan operator to create statistics on-the-fly", only on
//! requested attributes, incrementally augmented as queries touch more of
//! the file. The one decision that reads them here is the planner's order
//! of the pushed WHERE conjuncts, so they hold what its estimates need and
//! nothing more. This crate provides:
//!
//! * [`sketch::ColumnSketch`] — the order-independent part of a slice's
//!   statistics (its min/max), built by the scan workers;
//! * [`attr::AttrStats`] — per-attribute accumulator (row and NULL counts,
//!   min/max);
//! * [`table::TableStats`] — the per-file registry the optimizer consults,
//!   with the per-attribute observation frontiers; itself the
//!   [`estimate::SelectivityEstimator`] the planner is handed, with the
//!   [`estimate::PredicateSketch`] vocabulary shared with the engine.
//!
//! ## What each estimate reads
//!
//! Every component is there for a reader:
//!
//! * the row and NULL counts give `IS [NOT] NULL` its NULL fraction, and
//!   scale every range estimate to the non-NULL rows;
//! * the min/max bounds give a numeric range its fraction, interpolated
//!   linearly between them;
//! * the observation frontiers let [`TableStats::absorb`] count each row
//!   of an attribute once, however many scans install it.
//!
//! Equality, `<>`, IN, a string or Bool range, a prefix LIKE and an
//! attribute no scan has observed get the textbook defaults of
//! [`estimate::defaults`] — the answers of a freshly started PostgresRaw.
//!
//! ## Sketch and absorb
//!
//! The scan feeds the statistics in two halves. Each worker builds a
//! [`ColumnSketch`] over its slice's typed partial column, in parallel and
//! outside the table's lock. The install then calls [`TableStats::absorb`]
//! per attribute with the scan's slices in row order: each sketch's bounds
//! are merged (idempotent, so slices overlapping rows already observed are
//! harmless), and the rows and NULLs beyond the observation frontier are
//! counted by popcount; no value is read. The resulting state equals
//! [`TableStats::observe`] on every row in row order, byte for byte — the
//! property the scan's equivalence tests check at every worker count.

pub mod attr;
pub mod estimate;
pub mod sketch;
pub mod table;

pub use attr::{AttrStats, AttrStatsState};
pub use estimate::{PredicateSketch, SelectivityEstimator};
pub use sketch::ColumnSketch;
pub use table::{TableStats, TableStatsState};
