//! The command line.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload once and prints its result as the last line (what the driver
//!   of `BENCHMARK.json` calls).
//! * `all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]` (or no
//!   arguments) runs every workload untraced, then traced, and writes a
//!   results file.
//! * `compare <a.json> <b.json>` compares two results files.
//!
//! `--quick` runs at 1/50 scale (tests).

use std::path::PathBuf;
use std::process::ExitCode;

use crate::compare;
use crate::harness::package_dir;
use crate::json::Value;
use crate::report::{out_dir, run_once, RunArgs, RunResult, PAGE_CACHE_CAVEAT};
use crate::trace::{write_jsonl, Span};
use crate::workloads;

pub const DEFAULT_SEED: u64 = 11;

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    One(RunArgs),
    All {
        seed: u64,
        seconds: Option<f64>,
        runs: u64,
        out: Option<PathBuf>,
        quick: bool,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("usage: compare <a.json> <b.json>".to_string()),
        };
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut quick = false;
    let mut runs = 1;
    let mut out = None;
    let mut rest = args
        .iter()
        .skip(usize::from(args.first().map(String::as_str) == Some("all")));
    while let Some(flag) = rest.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => seconds = Some(value.parse().map_err(|_| number("a number"))?),
            "--runs" => runs = value.parse().map_err(|_| number("a whole number"))?,
            "--out" => out = Some(PathBuf::from(value)),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(match workload {
        Some(workload) => Command::One(RunArgs {
            workload,
            seed,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            traced,
            quick,
        }),
        None => Command::All {
            seed,
            seconds,
            runs,
            out,
            quick,
        },
    })
}

/// `BENCHMARK.json`, one level above this package.
fn benchmark_json() -> Result<Value, String> {
    compare::load(&package_dir().join("..").join("BENCHMARK.json"))
}

fn write_trace(spans: &[Span]) -> Result<(), String> {
    let path = out_dir().join("trace.jsonl");
    write_jsonl(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());
    Ok(())
}

/// First line a command prints, if it can be run at all.
fn first_line_of(program: &str, args: &[&str]) -> Value {
    std::process::Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| Value::str(l.trim())))
        .unwrap_or(Value::Null)
}

/// What a baseline must say about where it was recorded.
fn machine_context() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj(vec![
        (
            "logical_cores",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Value::str(cpu)),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("commit", first_line_of("git", &["rev-parse", "HEAD"])),
    ])
}

fn run_all(
    seed: u64,
    seconds: Option<f64>,
    runs: u64,
    out: Option<PathBuf>,
    quick: bool,
) -> Result<bool, String> {
    let seconds = match seconds {
        Some(s) => s,
        None => benchmark_json()?
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    let mut results: Vec<RunResult> = Vec::new();
    let mut spans = Vec::new();
    // Every workload untraced, for the end-to-end metrics; then every
    // workload traced, for the per-layer ones.
    for traced in [false, true] {
        for workload in workloads::NAMES {
            for run in 0..if traced { 1 } else { runs.max(1) } {
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: seed + run,
                    seconds,
                    traced,
                    quick,
                };
                let r = run_once(&args, results.len() as u64, &mut spans)?;
                r.print_human();
                results.push(r);
            }
        }
    }
    write_trace(&spans)?;
    let path = out.unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    // One run a line, so that a results file can be read and diffed.
    let runs: Vec<String> = results.iter().map(|r| r.to_json().to_string()).collect();
    let file = format!(
        "{{\"context\": {},\n \"runs\": [\n{}\n]}}\n",
        machine_context(),
        runs.join(",\n")
    );
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(results.iter().all(|r| r.correct))
}

pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = parse(&args).and_then(|command| match command {
        Command::One(args) => {
            println!("{PAGE_CACHE_CAVEAT}");
            let mut spans = Vec::new();
            let result = run_once(&args, 0, &mut spans)?;
            result.print_human();
            if args.traced {
                write_trace(&spans)?;
            }
            // The driver reads the last line; a wrong answer is reported
            // there (`correct`, `failed`), not through the exit code.
            println!("{}", result.result_line());
            Ok(true)
        }
        Command::All {
            seed,
            seconds,
            runs,
            out,
            quick,
        } => {
            println!("{PAGE_CACHE_CAVEAT}");
            run_all(seed, seconds, runs, out, quick)
        }
        Command::Compare { a, b } => {
            let specs = compare::end_to_end_specs(&benchmark_json()?)?;
            let c = compare::compare(&compare::load(&a)?, &compare::load(&b)?, &specs)?;
            compare::print(&c);
            Ok(c.passed())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("nodb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        assert_eq!(
            parse(&args(
                "--workload warm_analytics --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Command::One(RunArgs {
                workload: "warm_analytics".into(),
                seed: 7,
                seconds: 10.0,
                traced: true,
                quick: false,
            }))
        );
    }

    #[test]
    fn no_arguments_means_every_workload() {
        assert_eq!(
            parse(&[]),
            Ok(Command::All {
                seed: DEFAULT_SEED,
                seconds: None,
                runs: 1,
                out: None,
                quick: false,
            })
        );
        assert!(matches!(
            parse(&args("all --runs 3 --quick --out x.json")),
            Ok(Command::All {
                runs: 3,
                quick: true,
                ..
            })
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&args("--workload w")).is_err(), "no --seconds");
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--frobnicate 1")).is_err());
        assert!(parse(&args("compare a.json")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
