//! # nodb-stats — on-the-fly statistics (paper §3.3)
//!
//! Conventional optimizers build statistics *after load*; PostgresRaw
//! "extends the scan operator to create statistics on-the-fly", only on
//! requested attributes, incrementally augmented as queries touch more of
//! the file. This crate provides:
//!
//! * [`sample::Reservoir`] — reservoir sampling by Li's Algorithm L: at
//!   each acceptance it draws how many offers to skip, so the random
//!   number generator runs only at acceptances and a run of offers jumps
//!   straight to the accepted values — the "sample of the data" handed to
//!   the statistics routines;
//! * [`ndv::DistinctCounter`] — linear-counting distinct-value estimation,
//!   over a word-at-a-time hash ([`ndv::hash_datum`]) that the engine's
//!   GROUP BY and COUNT DISTINCT share;
//! * [`histogram::EquiDepthHistogram`] — equi-depth histograms built from
//!   the reservoir, used for range selectivity;
//! * [`sketch::ColumnSketch`] — the order-independent part of a slice's
//!   statistics (NDV bitmap, min/max), built by the scan workers;
//! * [`attr::AttrStats`] — per-attribute accumulator (row and NULL counts,
//!   min/max, NDV, reservoir);
//! * [`table::TableStats`] — the per-file registry the optimizer consults,
//!   with the [`estimate::SelectivityEstimator`] trait and the
//!   [`estimate::PredicateSketch`] vocabulary shared with the engine.
//!
//! ## Sketch and absorb
//!
//! The scan feeds the statistics in two halves. Each worker builds a
//! [`ColumnSketch`] over its slice's typed partial column, in parallel and
//! outside the table's lock. The install then calls [`TableStats::absorb`]
//! per attribute with the scan's slices in row order: each sketch's bits
//! and bounds are merged (idempotent, so slices overlapping rows already
//! observed are harmless), the rows and NULLs are counted by popcount, and
//! the reservoir advances through the slice's offered rows to the ones it
//! accepts; once all the slices are in, only the values that stayed in the
//! sample are boxed. The resulting state equals [`TableStats::observe`] on
//! every row in row order, byte for byte — the property the scan's
//! equivalence tests check at every worker count.
//!
//! ## The sampling stride
//!
//! `TableStats::sample_every` gates only the reservoir: a row is offered
//! to it when [`TableStats::should_sample`] selects its global row number.
//! Counts, bounds and NDV see every row whatever the stride.
//!
//! Everything here is deterministic given the scan order (the reservoir RNG
//! is seeded from the attribute index), so experiments are reproducible.

#![forbid(unsafe_code)]

pub mod attr;
pub mod estimate;
pub mod histogram;
pub mod ndv;
pub mod sample;
pub mod sketch;
pub mod table;

pub use attr::{AttrStats, AttrStatsState};
pub use estimate::{PredicateSketch, SelectivityEstimator};
pub use histogram::EquiDepthHistogram;
pub use ndv::DistinctCounter;
pub use sample::{Reservoir, ReservoirState};
pub use sketch::ColumnSketch;
pub use table::{TableStats, TableStatsState};
