//! # nodb-rawcache — the adaptive binary cache (paper §3.2)
//!
//! PostgresRaw "contains a cache that temporarily holds previously accessed
//! data, e.g., a previously accessed attribute or even parts of an
//! attribute". This crate is that cache:
//!
//! * **Binary, typed, columnar** — values are stored post-parse, so a hit
//!   skips tokenizing, parsing *and* conversion; one typed column per
//!   attribute ([`column::TypedColumn`]).
//! * **Populated on the fly, slice by slice** — the scan hands each parsed
//!   slice's typed values to [`RawCache::append_slice`] as it installs
//!   ("once a disk block of the raw file has been parsed during a scan,
//!   PostgresRaw caches the binary data immediately"); a slice goes in
//!   whole or not at all, so a column may cover only a prefix of the file
//!   ("even parts of an attribute") that ends on a slice boundary.
//! * **Never forces extra parsing** — only attributes the current query
//!   parses get cached (§3.2: "caching does not force additional data to be
//!   parsed").
//! * **LRU under a byte budget** — whole-column eviction, with the current
//!   query's columns protected (they are, by definition, most recent), and
//!   nothing evicted for a slice that could not fit anyway.
//! * **Positional-map-compatible layout** — rows are addressed by the same
//!   row ids the positional map uses, so one query plan can mix cache reads
//!   and map-assisted raw reads per attribute ("the cache follows the format
//!   of the positional map").

// Every narrowing cast on offset or row arithmetic states its bound in an
// `#[expect]`; test code is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod cache;
pub mod column;

pub use cache::{CacheMetrics, RawCache};
pub use column::TypedColumn;
