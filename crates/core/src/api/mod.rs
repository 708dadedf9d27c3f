//! The public API, split by audience.
//!
//! * [`client`] — what applications and server connections hold:
//!   [`NoDb`] (register / query / snapshot / schema).
//! * [`admin`] — what operators and harnesses hold: [`Admin`] (budgets,
//!   update probes, admission control, prepared statements, reports),
//!   minted per-call via [`NoDb::admin`].
//! * [`prepared`] — the prepared-statement cache behind
//!   `Admin::enable_prepared_statements`.
//!
//! The split exists so a network request handler works against a surface
//! with no operational foot-guns on it, while everything that mutates
//! budgets or global behavior is one deliberate hop away.

pub mod admin;
pub mod client;
pub mod prepared;

pub use admin::Admin;
pub use client::NoDb;
pub use prepared::{CachedPlan, PreparedCache, PreparedStats, DEFAULT_PREPARED_CAPACITY};
