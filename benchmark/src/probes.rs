//! The layer probes of a traced run. They are the same in every workload's
//! traced run — always over a `narrow` file generated from the run's seed —
//! so a layer's number can be compared across runs whatever workload was
//! traced.

use std::time::{Duration, Instant};

use crate::datasets::{self, Dataset};
use crate::harness::{timed_query, warm_instance, Env, Oracle};
use crate::layers::{self, Lines};
use crate::queries::{self, Mix};
use crate::stat::median;
use crate::workloads::{append, cold, serve};

/// Lines of `narrow` held in memory for the in-memory probes.
const PROBE_LINES: usize = 20_000;

/// How long one micro-probe repeats its pass.
pub fn budget(quick: bool) -> Duration {
    Duration::from_secs_f64(if quick { 0.01 } else { 0.2 })
}

fn spanned<T>(env: &mut Env, name: &'static str, f: impl FnOnce(&mut Env) -> T) -> T {
    let span = env.tracer.begin(name);
    let value = f(env);
    env.tracer.end(span);
    value
}

/// Name and value of every probe metric.
pub fn run(env: &mut Env) -> Result<Vec<(&'static str, f64)>, String> {
    env.trace_all();
    let budget = budget(env.quick);
    let gen = datasets::narrow_config(env.seed, env.quick);
    let data = datasets::generate("probe-narrow", gen, env.dir)?;
    let lines = Lines::load(&data.path, data.schema(), PROBE_LINES)?;
    let wide_lines = Lines::uniform_ints(datasets::WIDE_COLS, 2_000, env.seed);
    let mix = queries::warm_mix(env.seed);
    let warm_sql: Vec<String> = mix.pool.iter().map(|q| q.sql.clone()).collect();
    let mut m = Vec::new();

    let floor = spanned(env, "probe rawcsv.newline_floor_mb_s", |_| {
        layers::newline_floor_mb_s(&data.path, data.bytes, data.rows(), budget)
    })?;
    m.push(("rawcsv.newline_floor_mb_s", floor));
    m.push((
        "rawcsv.tokenize_mb_s",
        spanned(env, "probe rawcsv.tokenize_mb_s", |_| {
            layers::tokenize_mb_s(&lines, budget)
        }),
    ));
    for (name, attr) in [
        ("rawcsv.parse_int_ns_per_field", 1),
        ("rawcsv.parse_float_ns_per_field", 5),
        ("rawcsv.parse_str_ns_per_field", 6),
    ] {
        let ns = spanned(env, "probe rawcsv.parse_ns_per_field", |_| {
            layers::parse_ns_per_field(&lines, attr, budget)
        });
        m.push((name, ns));
    }
    m.push((
        "stats.observe_ns_per_value",
        spanned(env, "probe stats.observe_ns_per_value", |_| {
            layers::stats_observe_ns_per_value(&lines, 1, budget)
        }),
    ));
    let (jump, scan) = spanned(env, "probe posmap.jump_ns_per_field", |_| {
        layers::posmap_ns_per_field(&wide_lines, 35, 40, budget)
    })?;
    m.push(("posmap.jump_ns_per_field", jump));
    m.push(("posmap.scan_from_start_ns_per_field", scan));
    let (export, gather) = spanned(env, "probe rawcache.export_rows_per_s", |_| {
        layers::rawcache_rows_per_s(&lines, 1, budget)
    });
    m.push(("rawcache.export_rows_per_s", export));
    m.push(("rawcache.gather_rows_per_s", gather));
    m.push((
        "engine.plan_us",
        spanned(env, "probe engine.plan_us", |_| {
            layers::engine_plan_us(&warm_sql, &lines.schema, budget)
        })?,
    ));
    m.push((
        "engine.exec_rows_per_s",
        spanned(env, "probe engine.exec_rows_per_s", |_| {
            layers::engine_exec_rows_per_s(&lines, &warm_sql, budget)
        })?,
    ));

    // The loaded DBMS beside the in-situ engine: its load against our
    // set-up, and the warm cycle on each, statement by statement.
    let mut oracle = spanned(env, "probe storage", |env| {
        let mut oracle = Oracle::load(&data, env.dir)?;
        for q in &mix.pool {
            oracle.run(&q.sql)?;
        }
        Ok::<_, String>(oracle)
    })?;
    let loaded_ms: Vec<f64> = mix
        .cycle
        .iter()
        .filter_map(|&i| {
            let sql = &mix.pool[i].sql;
            oracle.latency_ms.iter().find(|(s, _)| s == sql)
        })
        .map(|(_, ms)| *ms)
        .collect();
    m.push(("storage.load_s", oracle.load_s));
    m.push(("storage.query_p50_ms", median(&loaded_ms)));
    let warm_p50 = spanned(env, "probe warm_x_loaded", |env| {
        warm_cycle_p50_ms(env, &data, &mix)
    })?;
    m.push(("warm_x_loaded", warm_p50 / median(&loaded_ms)));

    let cold_p50 = spanned(env, "probe cold_x_floor", |env| cold_p50_ms(env, &data))?;
    let floor_ms = data.bytes as f64 / 1e6 / floor * 1e3;
    m.push(("cold_x_floor", cold_p50 / floor_ms));

    m.push((
        "core.tail_replay_ms",
        spanned(env, "probe core.tail_replay_ms", |env| {
            append::tail_replay_probe(env, &data)
        })?,
    ));

    let server = spanned(env, "probe server", |env| {
        serve::probe(env, &data, &mut oracle)
    })?;
    m.push(("server.ping_us", server.ping_us));
    m.push(("server.wire_overhead_ms", server.wire_overhead_ms));
    m.push(("server.client_scaling", server.client_scaling));
    m.push(("core.prepared_hit_ratio", server.prepared_hit_ratio));
    m.push((
        "core.admission_peak_in_flight",
        server.admission_peak_in_flight,
    ));
    m.push(("core.admission_peak_waiting", server.admission_peak_waiting));
    m.push(("core.admission_rejected", server.admission_rejected));
    Ok(m)
}

/// Median latency over a few walks of the warm cycle on a warm instance.
fn warm_cycle_p50_ms(env: &mut Env, data: &Dataset, mix: &Mix) -> Result<f64, String> {
    let warm_sql: Vec<&str> = mix.pool.iter().map(|q| q.sql.as_str()).collect();
    let db = warm_instance(data, &data.path, &warm_sql, &mut env.tracer)?;
    let mut latencies = Vec::new();
    for _ in 0..if env.quick { 1 } else { 3 } {
        for &index in &mix.cycle {
            let (r, latency_ms, _) =
                timed_query(&db, &mut env.tracer, "probe query", &mix.pool[index].sql);
            r?;
            latencies.push(latency_ms);
        }
    }
    Ok(median(&latencies))
}

/// Median of a few cold first queries (instance, registration, query).
fn cold_p50_ms(env: &mut Env, data: &Dataset) -> Result<f64, String> {
    let query = queries::cold_query(env.seed);
    let mut latencies = Vec::new();
    for _ in 0..if env.quick { 2 } else { 5 } {
        let t = Instant::now();
        cold::cold_op(data, &query.sql, &mut env.tracer)?;
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&latencies))
}
