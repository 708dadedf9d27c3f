//! `cold_first_query`: the paper's data-to-query time. Every operation is a
//! fresh instance, a registration and the first query over `narrow`, so the
//! reader, tokenizer and parser and the first-touch building of map, cache
//! and statistics do nearly all the work.

use std::time::Instant;

use nodb_core::{NoDb, QueryCtx, QueryReport};
use nodb_engine::QueryResult;

use super::{answer_is, COLD_FIRST_QUERY};
use crate::datasets::{self, Dataset};
use crate::harness::{
    default_instance, register, repeat_setup, Env, Op, Oracle, Outcome, REGISTER_SETUP_REPS,
};
use crate::queries;
use crate::trace::Tracer;

pub fn cold_op(
    data: &Dataset,
    sql: &str,
    tracer: &mut Tracer,
) -> Result<(NoDb, QueryResult, QueryReport), String> {
    let mut db = tracer.within("NoDb::new", default_instance);
    register(&mut db, data, &data.path, tracer)?;
    let call = tracer.begin("NoDb::query_reported");
    let r = db.query_reported(sql, &QueryCtx::unbounded());
    tracer.end(call);
    let (result, report) = r.map_err(|e| e.to_string())?;
    Ok((db, result, report))
}

pub fn run(env: &mut Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let harness = Instant::now();
    let data = datasets::generate(
        "narrow",
        datasets::narrow_config(env.seed, env.quick),
        env.dir,
    )?;
    out.notes.push(data.describe());
    let query = queries::cold_query(env.seed);
    let expect = Oracle::load(&data, env.dir)?.expect(&query)?;
    out.sql_texts = vec![query.sql.clone()];
    out.harness_s = harness.elapsed().as_secs_f64();

    // Set-up is what the program does before the first query can be sent:
    // an instance and a registration (the point of the paper is that this
    // is next to nothing).
    env.trace_all();
    let (_, setup_s) = repeat_setup(REGISTER_SETUP_REPS, || {
        let mut db = default_instance();
        register(&mut db, &data, &data.path, &mut env.tracer)?;
        Ok(db)
    })?;
    out.setup_s = setup_s;
    // Two untimed operations: the file is in the page cache from here on.
    for _ in 0..2 {
        cold_op(&data, &query.sql, &mut env.tracer)?;
    }

    let start = Instant::now();
    let mut last = None;
    while start.elapsed().as_secs_f64() < env.seconds {
        let traced = env.next_op_traced();
        let t = Instant::now();
        let root = env.tracer.begin("op");
        let op = cold_op(&data, &query.sql, &mut env.tracer);
        env.tracer.end(root);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let (report, ok) = match op {
            Ok((db, result, report)) => {
                // Dropping the previous instance frees its cache here,
                // outside the timed part of the next operation.
                last = Some(db);
                (Some(report), answer_is(&expect, &result))
            }
            Err(_) => (None, false),
        };
        out.book(
            &mut env.tracer,
            Op {
                workload: COLD_FIRST_QUERY,
                class: query.class,
                root,
                latency_ms,
                traced,
                report: report.as_ref(),
                ok,
            },
        );
    }
    match &last {
        Some(db) => out.record_state(db, data.bytes),
        None => out
            .violations
            .push("no cold operation succeeded".to_string()),
    }
    Ok(out)
}
