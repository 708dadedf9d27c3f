//! `warm_analytics`: steady state, "like a loaded DBMS". One instance over
//! `narrow`, warmed until every query class is served from the cache, and
//! one in-process client walking a fixed mix. Engine kernels, cache export
//! and parsing+planning of the SQL do all the work; the raw file is never
//! read, and the run fails if it is.

use std::time::Instant;

use super::{answer_is, WARM_ANALYTICS};
use crate::datasets;
use crate::harness::{
    repeat_setup, timed_query, warm_instance, Env, Op, Oracle, Outcome, WARM_SETUP_REPS,
};
use crate::queries;
use crate::stat::Rng;

pub fn run(env: &mut Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let harness = Instant::now();
    let data = datasets::generate(
        "narrow",
        datasets::narrow_config(env.seed, env.quick),
        env.dir,
    )?;
    out.notes.push(data.describe());
    let mix = queries::warm_mix(env.seed);
    let expects = Oracle::load(&data, env.dir)?.expect_all(&mix.pool)?;
    out.sql_texts = mix.pool.iter().map(|q| q.sql.clone()).collect();
    out.harness_s = harness.elapsed().as_secs_f64();

    env.trace_all();
    let warm_sql: Vec<&str> = mix.pool.iter().map(|q| q.sql.as_str()).collect();
    let (db, setup_s) = repeat_setup(WARM_SETUP_REPS, || {
        warm_instance(&data, &data.path, &warm_sql, &mut env.tracer)
    })?;
    out.setup_s = setup_s;

    let mut order = Rng::new(env.seed ^ 0x5eed);
    let start = Instant::now();
    'phase: loop {
        for index in mix.shuffled_cycle(&mut order) {
            if start.elapsed().as_secs_f64() >= env.seconds {
                break 'phase;
            }
            let query = &mix.pool[index];
            let traced = env.next_op_traced();
            let (r, latency_ms, root) = timed_query(&db, &mut env.tracer, "op", &query.sql);
            let (report, ok) = match r {
                Ok((result, report)) => (Some(report), answer_is(&expects[index], &result)),
                Err(_) => (None, false),
            };
            out.book(
                &mut env.tracer,
                Op {
                    workload: WARM_ANALYTICS,
                    class: query.class,
                    root,
                    latency_ms,
                    traced,
                    report: report.as_ref(),
                    ok,
                },
            );
        }
    }
    if out.counters.raw_bytes_read > 0 || out.counters.not_fully_cached > 0 {
        out.violations.push(format!(
            "warm_analytics touched the raw file: {} bytes read, {} queries not fully cached",
            out.counters.raw_bytes_read, out.counters.not_fully_cached
        ));
    }
    out.record_state(&db, data.bytes);
    Ok(out)
}
