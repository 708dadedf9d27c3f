//! # nodb-bench — experiment harness
//!
//! Reproduces every figure and demo scenario of the paper (see the table in
//! [`experiments`]). Run everything with:
//!
//! ```text
//! cargo run --release -p nodb-bench --bin experiments -- all --scale small
//! ```
//!
//! or a single experiment (`fig2`, `fig3`, `seq`, `adapt`, `dataset`,
//! `race`, `updates`, `knobs`). `--scale full` uses paper-comparable file
//! sizes; `small` finishes in seconds for CI.
//!
//! Performance is measured by the out-of-workspace `benchmark/` package
//! alone: its named workloads, end-to-end and per-layer metrics, and the
//! `compare` of one commit's results against another's.

pub mod experiments;
pub mod report;
pub mod systems;
pub mod workload;

pub use experiments::{run, ExperimentReport, ALL};
pub use workload::Scale;

/// What an experiment returns: its output, or the first failure of the
/// systems under test, the dataset generator or the file system.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
