//! `nodb-lint` CLI.
//!
//! ```text
//! nodb-lint --workspace [--root DIR]
//! nodb-lint FILE...
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/I-O error. Every finding is one
//! line, `path:line: [rule] message` — greppable, and `-D`-style by
//! construction (any finding fails the run; there are no warnings).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nodb-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => root = Some(PathBuf::from(next_value(&mut args, "--root")?)),
            "--help" | "-h" => {
                print!("{}", USAGE);
                return Ok(true);
            }
            _ if arg.starts_with("--") => {
                return Err(format!("unknown flag `{arg}`\n{USAGE}"));
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    if !workspace && paths.is_empty() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    if workspace && !paths.is_empty() {
        return Err("pass either --workspace or explicit files, not both".to_string());
    }

    if !workspace {
        let refs: Vec<&Path> = paths.iter().map(|p| p.as_path()).collect();
        let findings = nodb_lint::lint_paths(&refs).map_err(|e| e.to_string())?;
        for f in &findings {
            println!("{}", f.render());
        }
        return Ok(report_summary(findings.len(), None));
    }

    let root = match root {
        Some(r) => r,
        None => nodb_lint::walk::find_root(&std::env::current_dir().map_err(|e| e.to_string())?)
            .ok_or("no workspace root found (no Cargo.toml with [workspace] above cwd)")?,
    };
    let report = nodb_lint::lint_workspace(&root).map_err(|e| e.to_string())?;
    for f in &report.findings {
        println!("{}", f.render());
    }
    Ok(report_summary(
        report.findings.len(),
        Some(report.files_scanned),
    ))
}

fn report_summary(findings: usize, files: Option<usize>) -> bool {
    match files {
        Some(n) => eprintln!("nodb-lint: {findings} finding(s) across {n} file(s) scanned"),
        None => eprintln!("nodb-lint: {findings} finding(s)"),
    }
    findings == 0
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

const USAGE: &str = "\
usage: nodb-lint --workspace [--root DIR]
       nodb-lint FILE...

Enforces the workspace invariant clippy cannot see (crates/lint/README.md):
  cancellation      scan loops in lint:cancellable modules must poll ctx

Exit codes: 0 clean, 1 findings, 2 usage/I-O error.
";
