//! `append_then_query`: the same layers used differently — writes beside
//! reads. A warm instance over a private copy of `narrow`; each round the
//! harness appends rows (untimed) and then times a `COUNT(*)` and three
//! filter+aggregate queries. Epoch revalidation, tail replay and the
//! incremental extension of map, cache and statistics do the work, so a
//! warm-path gain bought by skipping epoch checks, or by structures that
//! are dearer to extend, shows here as a loss.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::Instant;

use nodb_core::QueryCtx;
use nodb_engine::QueryResult;
use nodb_rawcsv::{Datum, GeneratorConfig, ValueDistribution};

use super::APPEND_THEN_QUERY;
use crate::datasets::{self, Dataset};
use crate::digest::Rendered;
use crate::harness::{
    default_instance, register, repeat_setup, timed_query, warm_instance, Env, Op, Oracle, Outcome,
    WARM_SETUP_REPS,
};
use crate::queries::{self, Fold, RoundQuery};
use crate::stat::median;
use crate::trace::Tracer;

/// Rows appended per round: an eighth of a percent of the file as
/// generated (250 rows of `narrow`), so that the file grows by about a tenth
/// over a run, as in the issue's 30 rounds of half a percent.
fn append_rows(data: &Dataset) -> u64 {
    (data.rows() / 800).max(1)
}

/// The expected answer of one round query: one value per aggregate, `None`
/// for SQL NULL.
type Answer = Vec<Option<i64>>;

fn int_cell(d: &Datum) -> Option<i64> {
    match d {
        Datum::Int(v) => Some(*v),
        // SUM may come back as a float; the sums here are exact in an f64.
        Datum::Float(v) if v.fract() == 0.0 => Some(*v as i64),
        _ => None,
    }
}

fn answer_of(result: &QueryResult) -> Option<Answer> {
    match result.rows.as_slice() {
        [row] => Some(row.iter().map(int_cell).collect()),
        _ => None,
    }
}

/// Fold the rows of `tail` (freshly appended CSV bytes) into `answer`.
fn extend_answer(answer: &mut Answer, query: &RoundQuery, tail: &[u8]) {
    for line in tail.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let cells: Vec<Option<i64>> = line
            .split(|&b| b == b',')
            .map(|c| std::str::from_utf8(c).ok().and_then(|s| s.parse().ok()))
            .collect();
        let cell = |c: usize| cells.get(c).copied().flatten();
        if let Some((column, bound)) = query.filter {
            if cell(column).is_none_or(|v| v >= bound) {
                continue;
            }
        }
        for (acc, fold) in answer.iter_mut().zip(&query.aggregates) {
            let merge = |acc: Option<i64>, v: Option<i64>, f: fn(i64, i64) -> i64| match (acc, v) {
                (Some(a), Some(b)) => Some(f(a, b)),
                (a, b) => a.or(b),
            };
            *acc = match *fold {
                Fold::CountRows => Some(acc.unwrap_or(0) + 1),
                Fold::Count(c) => Some(acc.unwrap_or(0) + i64::from(cell(c).is_some())),
                Fold::Sum(c) => merge(*acc, cell(c), |a, b| a + b),
                Fold::Min(c) => merge(*acc, cell(c), i64::min),
                Fold::Max(c) => merge(*acc, cell(c), i64::max),
            };
        }
    }
}

/// Append [`append_rows`] rows to `path` with `GeneratorConfig::append_rows`
/// and return the bytes that were added. A config of zero rows with its
/// own seed continues the file: `c0` stays a dense key, and the generator
/// has nothing to fast-forward through.
fn append(
    data: &Dataset,
    path: &Path,
    rows_so_far: u64,
    round_seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<u8>, String> {
    let mut gen: GeneratorConfig = data.gen.clone();
    gen.rows = 0;
    gen.seed = round_seed;
    gen.columns[0].dist = ValueDistribution::IntSequential {
        start: rows_so_far as i64,
    };
    let before = std::fs::metadata(path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    let span = tracer.begin("GeneratorConfig::append_rows");
    let appended = gen.append_rows(path, append_rows(data));
    tracer.end(span);
    appended.map_err(|e| format!("append to {}: {e}", path.display()))?;
    let mut tail = Vec::new();
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    file.seek(SeekFrom::Start(before))
        .and_then(|_| file.read_to_end(&mut tail))
        .map_err(|e| format!("read the appended rows of {}: {e}", path.display()))?;
    Ok(tail)
}

fn private_copy(data: &Dataset, dir: &Path) -> Result<std::path::PathBuf, String> {
    let path = dir.join(format!("{}-private.csv", data.name));
    std::fs::copy(&data.path, &path).map_err(|e| format!("copy {}: {e}", data.path.display()))?;
    Ok(path)
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
    let path = private_copy(&data, env.dir)?;
    let round = queries::append_round(env.seed);
    // Answers over the file as generated, from the loaded DBMS; from here
    // on the harness extends them by the rows it appends.
    let mut oracle = Oracle::load(&data, env.dir)?;
    let mut answers = round
        .iter()
        .map(|q| {
            answer_of(&oracle.run(&q.sql)?)
                .ok_or_else(|| format!("reference answer to {:?} is not one row", q.sql))
        })
        .collect::<Result<Vec<Answer>, String>>()?;
    out.sql_texts = round.iter().map(|q| q.sql.clone()).collect();
    out.harness_s = harness.elapsed().as_secs_f64();

    env.trace_all();
    let warm_sql: Vec<&str> = round.iter().map(|q| q.sql.as_str()).collect();
    let (db, setup_s) = repeat_setup(WARM_SETUP_REPS, || {
        warm_instance(&data, &path, &warm_sql, &mut env.tracer)
    })?;
    out.setup_s = setup_s;

    let mut rows = data.rows();
    let mut last_results: Vec<Option<QueryResult>> = vec![None; round.len()];
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < env.seconds {
        let traced = env.next_op_traced();
        let round_seed = env.seed.wrapping_mul(1_000_003).wrapping_add(rounds);
        let tail = append(&data, &path, rows, round_seed, &mut env.tracer)?;
        rows += append_rows(&data);
        for (i, query) in round.iter().enumerate() {
            extend_answer(&mut answers[i], query, &tail);
            let (r, latency_ms, root) = timed_query(&db, &mut env.tracer, "op", &query.sql);
            let (report, ok) = match r {
                Ok((result, report)) => {
                    let ok = answer_of(&result).as_ref() == Some(&answers[i]);
                    last_results[i] = Some(result);
                    (Some(report), ok)
                }
                Err(_) => (None, false),
            };
            out.book(
                &mut env.tracer,
                Op {
                    workload: APPEND_THEN_QUERY,
                    class: query.class,
                    root,
                    latency_ms,
                    traced,
                    report: report.as_ref(),
                    ok,
                },
            );
        }
        rounds += 1;
    }
    out.notes.push(format!(
        "{rounds} rounds of {} appended rows and {} queries; the file ends at {rows} rows",
        append_rows(&data),
        round.len()
    ));
    if answers[0] != vec![Some(rows as i64)] {
        out.violations.push(format!(
            "the harness wrote {rows} rows but expects COUNT(*) = {:?}",
            answers[0]
        ));
    }
    let final_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    out.record_state(&db, final_bytes);

    // Warm and extended must equal cold: a fresh instance over the final
    // file answers every round query the same.
    env.trace_all();
    let mut cold = default_instance();
    register(&mut cold, &data, &path, &mut env.tracer)?;
    for (query, warm) in round.iter().zip(&last_results) {
        let fresh = cold
            .query_reported(&query.sql, &QueryCtx::unbounded())
            .map_err(|e| format!("fresh instance on {:?}: {e}", query.sql))?
            .0;
        if warm.as_ref().map(Rendered::of_result) != Some(Rendered::of_result(&fresh)) {
            out.violations.push(format!(
                "after {rounds} appends the warm instance and a fresh one disagree on {:?}",
                query.sql
            ));
        }
    }
    Ok(out)
}

/// `core.tail_replay_ms`: what the first query after an append costs over
/// the same query asked again — the price of revalidating the epoch and
/// replaying the tail.
pub fn tail_replay_probe(env: &mut Env, data: &Dataset) -> Result<f64, String> {
    let path = private_copy(data, env.dir)?;
    let count = "SELECT COUNT(*) FROM t";
    let db = warm_instance(data, &path, &[count], &mut env.tracer)?;
    let (mut first, mut again) = (Vec::new(), Vec::new());
    let mut rows = data.rows();
    for round in 0..if env.quick { 3 } else { 15 } {
        append(data, &path, rows, env.seed ^ round, &mut env.tracer)?;
        rows += append_rows(data);
        for latencies in [&mut first, &mut again] {
            let (r, latency_ms, _) = timed_query(&db, &mut env.tracer, "probe query", count);
            let (result, _) = r?;
            if answer_of(&result) != Some(vec![Some(rows as i64)]) {
                return Err(format!("tail replay probe: COUNT(*) is not {rows}"));
            }
            latencies.push(latency_ms);
        }
    }
    Ok(median(&first) - median(&again))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_extend_by_the_appended_rows() {
        let round = queries::append_round(1);
        // c0,c1,c2,c3,c4,c5,c6,c7 — the filter of round[2] is on c1, its
        // aggregates are COUNT(c2), SUM(c2), MIN(c3).
        let (column, bound) = round[2].filter.unwrap();
        assert_eq!(column, 1);
        let tail = format!(
            "0,{},7,50,1,0.5,abcd,true\n1,{},,40,1,0.5,abcd,true\n2,{},9,30,1,0.5,abcd,true\n",
            bound - 1,
            bound - 1,
            bound
        );
        let mut answer: Answer = vec![Some(10), Some(100), None];
        extend_answer(&mut answer, &round[2], tail.as_bytes());
        // Row 0 counts; row 1 passes the filter but its c2 is NULL; row 2
        // fails the filter.
        assert_eq!(answer, vec![Some(11), Some(107), Some(40)]);

        let mut count: Answer = vec![Some(5)];
        extend_answer(&mut count, &round[0], tail.as_bytes());
        assert_eq!(count, vec![Some(8)]);
    }

    #[test]
    fn one_row_results_become_answers() {
        let r = QueryResult {
            columns: vec!["a".into(), "b".into(), "c".into()],
            rows: vec![vec![Datum::Int(3), Datum::Null, Datum::Float(12.0)]],
        };
        assert_eq!(answer_of(&r), Some(vec![Some(3), None, Some(12)]));
        assert_eq!(answer_of(&QueryResult::empty(vec![])), None);
    }
}
