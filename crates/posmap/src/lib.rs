//! # nodb-posmap — the Adaptive Positional Map (paper §3.1)
//!
//! The positional map is the paper's central auxiliary structure: low-level
//! metadata about *where attributes live inside the raw file*, built
//! incrementally as a side effect of query tokenization and used by later
//! queries to jump (nearly) directly to the bytes they need.
//!
//! Key behaviours reproduced here:
//!
//! * **Incremental population** — the map starts empty; every query that
//!   tokenizes rows feeds a [`chunk::ChunkBuilder`], and the finished chunk
//!   is installed when the scan ends.
//! * **Chunked combinations** — attributes accessed together are stored
//!   together, one chunk per combination ("combinations of attributes used
//!   in the same query … are stored together in chunks").
//! * **LRU under a storage budget** — installing a chunk under memory
//!   pressure evicts least-recently-used chunks ("some attributes may no
//!   longer be relevant and are dropped by the LRU policy").
//! * **Distance-triggered combination indexing** — whether a query's
//!   attribute set deserves its own chunk is decided during access planning
//!   ("the default setting is that if all requested attributes for a query
//!   belong in different chunks, then the new combination is indexed"), the
//!   one rule [`map::PositionalMap::plan_access`] applies.
//! * **Nearest-anchor exploitation** — for an attribute that is not indexed,
//!   the map returns the closest indexed attribute *to its left* so the
//!   tokenizer can resume mid-tuple instead of rescanning the prefix
//!   ("jump to the exact position of the file or as close as possible").
//!
//! Positions are stored as `u16` offsets relative to each tuple's line start;
//! the line starts themselves (the *row index*) are shared by all chunks.
//! This keeps the map an order of magnitude smaller than absolute `u64`
//! positions.

// Every narrowing cast on offset or row arithmetic states its bound in an
// `#[expect]`; test code is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod chunk;
pub mod map;
pub mod policy;

pub use chunk::{Chunk, ChunkBuilder, ChunkId, NO_OFFSET};
pub use map::{AccessPlan, AttrSource, MapMetrics, PositionalMap, RowIndex};
pub use policy::MapPolicy;
