//! `nodb-lint` — the workspace invariant checker.
//!
//! The toolchain enforces most of the repo's invariants: `[workspace.lints]`
//! in the root `Cargo.toml` forbids `unsafe` and warns on
//! `unwrap`/`expect`/`panic!` in library code, and the offset-arithmetic
//! crates warn on truncating casts; CI's clippy step makes every warning
//! fatal. What neither `rustc` nor `clippy` can see is this repo's own
//! convention of cooperative cancellation in every scan loop (`QueryCtx`).
//! This crate enforces it as one token-level rule (see [`rules`] and
//! `README.md` for the waiver syntax), built on a hand-rolled lexer
//! ([`lexer`]) so the checker itself stays dependency-free and
//! offline-buildable.
//!
//! Two entry points:
//! - [`lint_workspace`]: walk every `src/` tree — what CI runs via
//!   `cargo run -p nodb-lint -- --workspace`;
//! - [`lint_paths`]: lint explicit files — what the fixture tests use.

pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use rules::{Finding, RuleId};

/// Result of a workspace lint run.
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Lint every library file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        findings.extend(lint_one(rel, path)?);
    }
    sort_findings(&mut findings);
    Ok(WorkspaceReport {
        findings,
        files_scanned: files.len(),
    })
}

/// Lint explicit files.
pub fn lint_paths(paths: &[&Path]) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in paths {
        findings.extend(lint_one(path, path)?);
    }
    sort_findings(&mut findings);
    Ok(findings)
}

/// Findings of the file at `path`, reported under the name `shown`.
fn lint_one(shown: &Path, path: &Path) -> std::io::Result<Vec<Finding>> {
    let rel = shown.to_string_lossy().replace('\\', "/");
    let src = std::fs::read_to_string(path)?;
    Ok(rules::lint_file(&rules::SourceFile::parse(&rel, &src)))
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
}
