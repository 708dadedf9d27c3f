//! `nodb-lint` — the workspace invariant checker.
//!
//! The repo carries cross-cutting invariants that `rustc` and `clippy`
//! cannot see: poison-tolerant locking (`lock_recover`, PR 6), cooperative
//! cancellation in every scan loop (`QueryCtx`, PR 6), byte-identical merge
//! state (PRs 1–3), bounded-offset arithmetic in the positional map and
//! tokenizer, and audited `unsafe`. This crate enforces them as five
//! token-level rules (see [`rules`] for the catalog and `README.md` for the
//! waiver syntax), built on a hand-rolled lexer ([`lexer`]) so the checker
//! itself stays dependency-free and offline-buildable.
//!
//! Two entry points:
//! - [`lint_workspace`]: walk every `src/` tree, aggregate `no-unwrap`
//!   counts against the checked-in ratchet (`lint-ratchet.toml`) — what CI
//!   runs via `cargo run -p nodb-lint -- --workspace`;
//! - [`lint_paths`]: lint explicit files, reporting every `no-unwrap` site
//!   individually and applying every rule regardless of crate — what the
//!   fixture tests use.

pub mod lexer;
pub mod ratchet;
pub mod rules;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

pub use rules::{Finding, RuleId};

/// The crates whose offset/row arithmetic is subject to
/// [`RuleId::TruncatingCast`] in workspace mode: file offsets (u64),
/// positional-map spans (u16/u32), cache row indices (u32), the source
/// epoch's fingerprint windows, the snapshot sidecar's length-prefixed
/// section decoding and the server's wire framing all live here, and each
/// narrowing cast is one bad length away from silent truncation.
const CAST_SCOPED_CRATES: &[&str] = &[
    "crates/posmap/",
    "crates/rawcsv/",
    "crates/rawcache/",
    "crates/snapshot/",
    "crates/server/",
];

/// Result of a workspace lint run.
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    /// Measured `no-unwrap` sites per file (library code only) — what
    /// `--write-ratchet` serializes.
    pub unwrap_counts: BTreeMap<String, usize>,
    pub files_scanned: usize,
}

/// Lint every library file under `root` against `ratchet`.
pub fn lint_workspace(root: &Path, ratchet: &ratchet::Ratchet) -> std::io::Result<WorkspaceReport> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    let mut unwrap_counts = BTreeMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        let file = rules::SourceFile::parse(&rel, &src);
        let opts = rules::FileOptions {
            casts_in_scope: CAST_SCOPED_CRATES.iter().any(|c| rel.starts_with(c)),
            report_unwrap_sites: false,
        };
        findings.extend(rules::lint_file(&file, opts));
        let (count, _) = rules::count_unwrap_sites(&file);
        if count > 0 {
            unwrap_counts.insert(rel, count);
        }
    }
    findings.extend(ratchet::check(&unwrap_counts, ratchet));
    sort_findings(&mut findings);
    Ok(WorkspaceReport {
        findings,
        unwrap_counts,
        files_scanned: files.len(),
    })
}

/// Lint explicit files: every rule applies (no crate scoping), and each
/// `no-unwrap` site is its own finding with a real line number.
pub fn lint_paths(paths: &[&Path]) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in paths {
        let rel = path.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        let file = rules::SourceFile::parse(&rel, &src);
        let opts = rules::FileOptions {
            casts_in_scope: true,
            report_unwrap_sites: true,
        };
        findings.extend(rules::lint_file(&file, opts));
    }
    sort_findings(&mut findings);
    Ok(findings)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
}
