//! The frozen yardstick of the NoDB reproduction: five named workloads,
//! four end-to-end metrics, per-layer probes and a traced run. See
//! `README.md` beside `Cargo.toml` and `BENCHMARK.json` at the repository
//! root.

pub mod cli;
pub mod compare;
pub mod datasets;
pub mod digest;
pub mod harness;
pub mod json;
pub mod layers;
pub mod probes;
pub mod queries;
pub mod report;
pub mod stat;
pub mod trace;
pub mod workloads;
