//! CI perf-regression gate over the `BENCH_*.json` trajectory files.
//!
//! Compares every fresh `BENCH_*.json` in `--fresh-dir` against the file of
//! the same name in `--baseline-dir`, record by record at equal
//! name/threads/clients/rows, and exits non-zero when any mean latency
//! regressed by more than `--threshold-pct` (default 25%). Fresh records
//! with no equal-key baseline are reported but never fail the gate (a new
//! bench has no history yet); a *malformed* baseline or fresh file does
//! fail it — a gate that silently compares nothing is worse than none.
//!
//! Typical CI wiring (see `.github/workflows/ci.yml`):
//!
//! ```text
//! cp BENCH_*.json ci-baselines/          # checked-in baselines
//! cargo bench ...                        # rewrites BENCH_*.json in place
//! cargo run --release -p nodb-bench --bin bench_gate -- \
//!     --baseline-dir ci-baselines --fresh-dir . --report bench_gate_report.txt
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nodb_bench::report::{gate_bench_records, parse_bench_json, GateReport};

struct Args {
    baseline_dir: PathBuf,
    fresh_dir: PathBuf,
    threshold: f64,
    report: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_dir: PathBuf::from("ci-baselines"),
        fresh_dir: PathBuf::from("."),
        threshold: 0.25,
        report: PathBuf::from("bench_gate_report.txt"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--baseline-dir" => args.baseline_dir = PathBuf::from(value(&flag)?),
            "--fresh-dir" => args.fresh_dir = PathBuf::from(value(&flag)?),
            "--report" => args.report = PathBuf::from(value(&flag)?),
            "--threshold-pct" => {
                args.threshold = value(&flag)?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --threshold-pct: {e}"))?
                    / 100.0
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The `BENCH_*.json` files present in a directory, sorted by name.
fn bench_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let mut report_text = String::new();
    let mut totals = GateReport::default();
    let fresh_files = bench_files(&args.fresh_dir);
    if fresh_files.is_empty() {
        eprintln!(
            "bench_gate: no BENCH_*.json under {} — nothing to gate",
            args.fresh_dir.display()
        );
        return ExitCode::from(2);
    }

    for fresh_path in &fresh_files {
        let name = fresh_path.file_name().unwrap_or_default().to_string_lossy();
        let base_path = args.baseline_dir.join(name.as_ref());
        report_text.push_str(&format!("== {name} ==\n"));
        if !base_path.exists() {
            report_text.push_str("  no baseline file (new bench): skipped\n");
            continue;
        }
        let read_records = |p: &Path| {
            std::fs::read_to_string(p)
                .ok()
                .and_then(|body| parse_bench_json(&body))
        };
        let (Some(base), Some(fresh)) = (read_records(&base_path), read_records(fresh_path)) else {
            eprintln!("bench_gate: malformed records in {name} (baseline or fresh)");
            return ExitCode::from(2);
        };
        let gate = gate_bench_records(&base, &fresh, args.threshold);
        for line in &gate.lines {
            report_text.push_str("  ");
            report_text.push_str(&line.text);
            report_text.push('\n');
        }
        if gate.skipped > 0 {
            report_text.push_str(&format!(
                "  ({} record(s) without an equal-rows/threads counterpart)\n",
                gate.skipped
            ));
        }
        totals.compared += gate.compared;
        totals.skipped += gate.skipped;
        totals.regressions += gate.regressions;
    }

    let verdict = format!(
        "gate: {} compared, {} skipped, {} regression(s) at threshold {:.0}%\n",
        totals.compared,
        totals.skipped,
        totals.regressions,
        args.threshold * 100.0
    );
    report_text.push_str(&verdict);
    print!("{report_text}");
    if let Err(e) = std::fs::write(&args.report, &report_text) {
        eprintln!("bench_gate: cannot write {}: {e}", args.report.display());
        return ExitCode::from(2);
    }

    if totals.regressions > 0 {
        eprintln!("bench_gate: FAILED — throughput regression beyond threshold");
        return ExitCode::FAILURE;
    }
    if totals.compared == 0 {
        eprintln!("bench_gate: warning — no comparable records (first run on these baselines?)");
    }
    ExitCode::SUCCESS
}
