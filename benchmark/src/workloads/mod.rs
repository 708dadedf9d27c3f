//! The five workloads. Each touches the program only through
//! `NoDbConfig::builder()`, `NoDb::{new, register_csv_with_schema,
//! query_reported, snapshot, admin}`, `nodb_server::{Server, ServerConfig,
//! NoDbClient}`, `GeneratorConfig` and `ConventionalDb`.

pub mod append;
pub mod cold;
pub mod explore;
pub mod serve;
pub mod warm;

use nodb_engine::QueryResult;

use crate::digest::{Expect, Rendered};
use crate::harness::{Env, Outcome};

pub const COLD_FIRST_QUERY: &str = "cold_first_query";
pub const EXPLORE_ADAPTIVE: &str = "explore_adaptive";
pub const WARM_ANALYTICS: &str = "warm_analytics";
pub const SERVE_MIXED: &str = "serve_mixed";
pub const APPEND_THEN_QUERY: &str = "append_then_query";

pub const NAMES: [&str; 5] = [
    COLD_FIRST_QUERY,
    EXPLORE_ADAPTIVE,
    WARM_ANALYTICS,
    SERVE_MIXED,
    APPEND_THEN_QUERY,
];

pub fn run(name: &str, env: &mut Env) -> Result<Outcome, String> {
    match name {
        COLD_FIRST_QUERY => cold::run(env),
        EXPLORE_ADAPTIVE => explore::run(env),
        WARM_ANALYTICS => warm::run(env),
        SERVE_MIXED => serve::run(env),
        APPEND_THEN_QUERY => append::run(env),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            NAMES.join(", ")
        )),
    }
}

fn answer_is(expect: &Expect, result: &QueryResult) -> bool {
    expect.matches(&Rendered::of_result(result))
}
