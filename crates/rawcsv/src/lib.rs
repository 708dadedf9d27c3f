//! # nodb-rawcsv
//!
//! Raw CSV substrate for the NoDB reproduction.
//!
//! This crate owns everything that touches raw bytes of a CSV file:
//!
//! * [`schema`] — column types and table schemas;
//! * [`datum`] — the runtime value representation shared by the whole stack;
//! * [`tokenizer`] — delimiter scanning, including the paper's *selective
//!   tokenizing* (abort a tuple as soon as the required attributes have been
//!   located) and *resumable* tokenizing from a positional-map anchor;
//! * [`parser`] — *selective parsing*: byte-slice → [`datum::Datum`]
//!   conversion only for the attributes a query plan actually needs;
//! * [`reader`] — block-oriented sequential file scanning with I/O
//!   accounting;
//! * [`epoch`] — the source epoch: the one fingerprint (length, mtime,
//!   sampled head/tail hashes, torn-row fence) that binds adaptive state —
//!   live or restored from a snapshot sidecar — to one version of the file;
//! * [`generator`] — deterministic synthetic CSV generation with the knobs
//!   the demo exposes (attribute count, attribute width, types, tuple count,
//!   value distributions);
//! * [`infer`] — schema inference from a file sample, so a user can point
//!   the system at a file with zero preparation.
//!
//! The tokenizer handles plain CSV (the paper's workload) on a fast SWAR
//! path and quoted fields on a slower, quote-aware path.

// Every narrowing cast on offset or row arithmetic states its bound in an
// `#[expect]`; test code is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod datum;
pub mod epoch;
pub mod error;
pub mod generator;
pub mod infer;
pub mod parser;
pub mod reader;
pub mod schema;
pub mod tokenizer;

pub use datum::Datum;
pub use epoch::{EpochChange, SourceEpoch};
pub use error::RawCsvError;
pub use generator::{ColumnGenSpec, GeneratorConfig, ValueDistribution};
pub use reader::{
    is_transient_io, BlockScanner, BlockSource, FaultPlan, FaultyBlocks, IoCounters, IoProfile,
    RetryBlocks, SyncBlocks,
};
pub use schema::{ColumnDef, ColumnType, Schema};
pub use tokenizer::{FieldSpan, TokenizerConfig, Tokens};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, RawCsvError>;
