//! The benchmark at 1/50 scale: every workload answers correctly, every
//! metric `BENCHMARK.json` names is reported with its unit, and `compare`
//! catches a slowdown. Run with
//! `cargo test --manifest-path benchmark/Cargo.toml`.

use std::collections::HashMap;
use std::process::Command;

use nodb_benchmark::compare::{self, Verdict};
use nodb_benchmark::harness::package_dir;
use nodb_benchmark::json::{self, Value};
use nodb_benchmark::report::{self, run_once, RunArgs, RunResult};
use nodb_benchmark::workloads;

fn benchmark_json() -> Value {
    compare::load(&package_dir().join("..").join("BENCHMARK.json")).unwrap()
}

fn quick(workload: &str, traced: bool) -> (RunResult, Vec<nodb_benchmark::trace::Span>) {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.3,
        traced,
        quick: true,
    };
    let mut spans = Vec::new();
    let result = run_once(&args, 0, &mut spans).unwrap();
    (result, spans)
}

/// (name, unit) of every entry of one of `BENCHMARK.json`'s metric lists.
fn named(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// (name, unit) of every metric of a result line.
fn reported(result: &RunResult) -> Vec<(String, String)> {
    let line = json::parse(&result.result_line()).unwrap();
    let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line.get("metrics")
        .unwrap()
        .as_obj()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").unwrap().as_f64().unwrap().is_finite(),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_answers_correctly_and_reports_the_end_to_end_metrics() {
    let spec = benchmark_json();
    let expected = named(spec.get("end_to_end").unwrap());
    for workload in workloads::NAMES {
        let (result, spans) = quick(workload, false);
        assert!(result.correct, "{workload}: {:?}", result.notes);
        assert_eq!(result.failed, 0, "{workload}");
        assert!(result.attempted >= 1, "{workload}");
        assert_eq!(reported(&result), expected, "{workload}");
        assert!(
            result.metrics.iter().all(|(_, v)| *v > 0.0),
            "{workload}: an end-to-end metric is 0: {:?}",
            result.metrics
        );
        assert!(
            spans.is_empty(),
            "{workload}: an untraced run recorded spans"
        );
    }
}

#[test]
fn every_traced_run_reports_every_per_layer_metric_and_a_trace() {
    let spec = benchmark_json();
    let mut expected = named(spec.get("per_layer").unwrap());
    expected.sort();
    for workload in workloads::NAMES {
        let (result, spans) = quick(workload, true);
        assert!(result.correct, "{workload}: {:?}", result.notes);
        let mut got = reported(&result);
        got.sort();
        assert_eq!(got, expected, "{workload}");

        // Every operation is a root span with the call into the program
        // beneath it, and carries the workload's name.
        let ids: HashMap<u64, &nodb_benchmark::trace::Span> =
            spans.iter().map(|s| (s.id, s)).collect();
        assert_eq!(ids.len(), spans.len(), "{workload}: span ids repeat");
        let ops: Vec<_> = spans.iter().filter(|s| s.name == "op").collect();
        assert!(!ops.is_empty(), "{workload}: no operation was traced");
        for op in &ops {
            assert!(op.parent.is_none(), "{workload}: an op span has a parent");
            assert!(op
                .attrs
                .iter()
                .any(|(k, v)| *k == "workload" && v.as_str() == Some(workload)));
        }
        let call = if workload == workloads::SERVE_MIXED {
            "NoDbClient::query"
        } else {
            "NoDb::query_reported"
        };
        assert!(
            spans.iter().any(|s| s.name == call
                && s.parent
                    .and_then(|p| ids.get(&p))
                    .is_some_and(|p| p.name == "op")),
            "{workload}: no {call} span under an op"
        );
        assert!(spans.iter().any(|s| s.name.starts_with("probe ")));
        for (span, own) in spans
            .iter()
            .zip(nodb_benchmark::trace::self_times_us(&spans))
        {
            assert!(span.end_us >= span.start_us);
            assert!(own > -1.0, "{workload}: {} has self time {own}", span.name);
        }
    }
}

#[test]
fn benchmark_json_meets_the_contract_and_names_what_the_code_reports() {
    let spec = benchmark_json();
    let keys: Vec<&str> = spec.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = spec
        .get("paths")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = spec.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let names: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| {
            let keys: Vec<&str> = w.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "why"]);
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            w.get("name").unwrap().as_str().unwrap()
        })
        .collect();
    assert_eq!(names, workloads::NAMES);

    let code = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        named(spec.get("end_to_end").unwrap()),
        code(&report::END_TO_END)
    );
    let mut per_layer = code(&report::FROM_WORKLOAD);
    per_layer.extend(code(&report::FROM_PROBES));
    assert_eq!(named(spec.get("per_layer").unwrap()), per_layer);

    let specs = compare::end_to_end_specs(&spec).unwrap();
    assert!(specs.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
    let setup = specs.iter().find(|s| s.name == "setup_s").unwrap();
    assert!(!setup.higher_is_better && setup.unit == "s");
    assert!(specs.iter().all(|s| s.bound <= setup.bound));
    for m in spec.get("per_layer").unwrap().as_arr() {
        let keys: Vec<&str> = m.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "unit", "better"]);
    }
    let mut all: Vec<String> = named(spec.get("end_to_end").unwrap())
        .into_iter()
        .chain(named(spec.get("per_layer").unwrap()))
        .map(|(n, _)| n)
        .chain(names.iter().map(|n| n.to_string()))
        .collect();
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
}

#[test]
fn compare_flags_an_injected_twofold_slowdown() {
    let spec = benchmark_json();
    let specs = compare::end_to_end_specs(&spec).unwrap();
    let (result, _) = quick(workloads::WARM_ANALYTICS, false);
    let file = |r: &RunResult| Value::obj(vec![("runs", Value::Arr(vec![r.to_json()]))]);
    let same = compare::compare(&file(&result), &file(&result), &specs).unwrap();
    assert!(same.passed());
    assert!(same.rows.iter().all(|r| r.verdict == Verdict::Ok));

    let mut slow = result.clone();
    for (name, value) in &mut slow.metrics {
        match name.as_str() {
            "query_p50_ms" => *value *= 2.0,
            "queries_per_s" => *value /= 2.0,
            _ => {}
        }
    }
    let c = compare::compare(&file(&result), &file(&slow), &specs).unwrap();
    assert!(!c.passed());
    let worse: Vec<&str> = c
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Worse)
        .map(|r| r.metric.as_str())
        .collect();
    assert_eq!(worse, ["query_p50_ms", "queries_per_s"]);

    let mut failing = result.clone();
    failing.failed = 1;
    assert!(!compare::compare(&file(&result), &file(&failing), &specs)
        .unwrap()
        .passed());
}

#[test]
fn the_binary_prints_a_result_line_and_refuses_fault_injection() {
    let exe = env!("CARGO_BIN_EXE_nodb-benchmark");
    let run = |faults: bool| {
        let mut c = Command::new(exe);
        c.args([
            "--workload",
            "warm_analytics",
            "--seed",
            "2",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--quick",
        ]);
        c.env_remove("NODB_TEST_FAULTS");
        if faults {
            c.env("NODB_TEST_FAULTS", "7");
        }
        c.output().unwrap()
    };
    let ok = run(false);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8(ok.stdout).unwrap();
    assert!(stdout.contains("page cache"));
    let line = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
    assert_eq!(
        line.get("metrics")
            .unwrap()
            .get("setup_s")
            .unwrap()
            .get("unit")
            .unwrap()
            .as_str(),
        Some("s")
    );

    let refused = run(true);
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("NODB_TEST_FAULTS"));
    assert!(!String::from_utf8_lossy(&refused.stdout).contains("\"metrics\""));
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    let args = RunArgs {
        workload: "no_such_workload".to_string(),
        seed: 1,
        seconds: 0.1,
        traced: false,
        quick: true,
    };
    assert!(run_once(&args, 0, &mut Vec::new()).is_err());
}
