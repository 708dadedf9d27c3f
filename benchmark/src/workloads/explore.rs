//! `explore_adaptive`: the paper's adaptation curve. A lap is a fresh
//! instance over `wide`, with budgets far below the working set, answering
//! 60 select-project queries whose ten-attribute window slides across the
//! file; laps repeat until the time is up. Positional-map jumps, cache hits
//! and evictions and statistics-driven planning decide the time.

use std::time::Instant;

use nodb_core::{NoDb, NoDbConfig};

use super::{answer_is, EXPLORE_ADAPTIVE};
use crate::datasets::{self, Dataset};
use crate::harness::{
    register, repeat_setup, timed_query, Env, Op, Oracle, Outcome, REGISTER_SETUP_REPS,
};
use crate::queries;
use crate::trace::Tracer;

/// Room for about 7 of the 50 columns in the cache and 14 attributes in
/// the positional map: the issue's 16 MiB and 8 MiB at a fifth of its rows.
fn budgeted_instance(data: &Dataset, tracer: &mut Tracer) -> Result<NoDb, String> {
    let rows = data.rows() as usize;
    let config = NoDbConfig::builder()
        .cache_budget_bytes(rows * 8 * 7)
        .map_budget_bytes(rows * 2 * 14)
        .build();
    let mut db = tracer.within("NoDb::new", || NoDb::new(config));
    register(&mut db, data, &data.path, tracer)?;
    Ok(db)
}

pub fn run(env: &mut Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let harness = Instant::now();
    let data = datasets::generate("wide", datasets::wide_config(env.seed, env.quick), env.dir)?;
    out.notes.push(data.describe());
    let lap = queries::explore_lap(env.seed);
    let expects = Oracle::load(&data, env.dir)?.expect_all(&lap)?;
    out.sql_texts = lap.iter().map(|q| q.sql.clone()).collect();
    out.harness_s = harness.elapsed().as_secs_f64();

    env.trace_all();
    let (_, setup_s) = repeat_setup(REGISTER_SETUP_REPS, || {
        budgeted_instance(&data, &mut env.tracer)
    })?;
    out.setup_s = setup_s;

    let start = Instant::now();
    let mut laps = 0usize;
    // Whole laps only: a lap cut short would leave out its late, warm
    // queries and move the median.
    while laps == 0 || start.elapsed().as_secs_f64() < env.seconds {
        let traced = env.next_op_traced();
        let db = budgeted_instance(&data, &mut env.tracer)?;
        for (query, expect) in lap.iter().zip(&expects) {
            let (r, latency_ms, root) = timed_query(&db, &mut env.tracer, "op", &query.sql);
            let (report, ok) = match r {
                Ok((result, report)) => (Some(report), answer_is(expect, &result)),
                Err(_) => (None, false),
            };
            out.book(
                &mut env.tracer,
                Op {
                    workload: EXPLORE_ADAPTIVE,
                    class: query.class,
                    root,
                    latency_ms,
                    traced,
                    report: report.as_ref(),
                    ok,
                },
            );
            out.record_state(&db, data.bytes);
        }
        laps += 1;
    }
    out.notes
        .push(format!("{laps} laps of {} queries", lap.len()));
    Ok(out)
}
