//! Golden-fixture tests for the `cancellation` rule (exact finding lines)
//! and an end-to-end run of the `nodb-lint` binary over the real workspace
//! (which must be clean — that is the whole point of checking the lint in).

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns abort on an unreadable fixture"
)]

use std::path::{Path, PathBuf};

use nodb_lint::rules::{lint_file, SourceFile};
use nodb_lint::{lint_paths, RuleId};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lines of the `rule` findings in one fixture, sorted.
fn of_rule(name: &str, rule: RuleId) -> Vec<u32> {
    let path = fixture(name);
    let found = lint_paths(&[path.as_path()]).expect("fixture readable");
    found
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn cancellation_violations_exact() {
    assert_eq!(
        of_rule("cancellation_violation.rs", RuleId::Cancellation),
        vec![9, 20, 40]
    );
}

#[test]
fn cancellation_clean_fixture_has_none() {
    assert_eq!(
        of_rule("cancellation_clean.rs", RuleId::Cancellation),
        Vec::<u32>::new()
    );
}

#[test]
fn cancellation_needs_the_module_marker() {
    // The violation fixture's loops in an unannotated module are not
    // findings: the rule only applies where the module opted in.
    let src = std::fs::read_to_string(fixture("cancellation_violation.rs")).unwrap();
    let unmarked = src.replace("lint:cancellable", "");
    let file = SourceFile::parse("unmarked.rs", &unmarked);
    assert!(lint_file(&file).is_empty());
}

/// The checked-in workspace must be lint-clean: run the real binary with
/// `--workspace` against the repo root and require exit code 0.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nodb-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(&root)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "workspace has lint findings:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The seeded fixture must fail through the binary too (exit code 1),
/// proving the CI wiring actually gates.
#[test]
fn binary_exits_nonzero_on_the_seeded_fixture() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nodb-lint"))
        .arg(fixture("cancellation_violation.rs"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "the fixture should fail the lint:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
