//! # nodb-storage — the conventional load-then-query substrate
//!
//! The paper's friendly race (§4.3) pits PostgresRaw against PostgreSQL,
//! MySQL and a commercial "DBMS X", all of which must *load* (and optionally
//! index) before answering their first query. This crate implements those
//! comparators as real storage engines sharing `nodb-engine` above the scan:
//!
//! * [`tuple`](mod@tuple) — tagged binary row encoding with skip-decoding;
//! * [`page`] — slotted pages;
//! * [`heap`] — on-disk heap files read through an LRU buffer pool;
//! * [`colstore`] — per-column binary segments (the DBMS X model);
//! * [`index`] — B-tree secondary indexes built at load time;
//! * [`scan`] — [`nodb_engine::ScanSource`] implementations (sequential heap
//!   scan, column scan, row-id index fetch);
//! * [`dbms`] — the [`dbms::ConventionalDb`] facade with per-system
//!   profiles and load reports for data-to-query-time accounting.

pub mod colstore;
pub mod dbms;
pub mod error;
pub mod heap;
pub mod index;
pub mod page;
pub mod scan;
pub mod tuple;

pub use dbms::{ConventionalDb, DbProfile, LoadReport};
pub use error::{StorageError, StorageResult};
