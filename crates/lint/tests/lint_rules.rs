//! Golden-fixture tests for every lint rule (exact finding counts, rule IDs
//! and line numbers), ratchet direction tests, and an end-to-end run of the
//! `nodb-lint` binary over the real workspace (which must be clean — that is
//! the whole point of checking the lint in).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nodb_lint::{lint_paths, ratchet, RuleId};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `(rule, line)` pairs for one fixture, sorted.
fn findings(name: &str) -> Vec<(RuleId, u32)> {
    let path = fixture(name);
    let found = lint_paths(&[path.as_path()]).expect("fixture readable");
    found.iter().map(|f| (f.rule, f.line)).collect()
}

fn of_rule(name: &str, rule: RuleId) -> Vec<u32> {
    findings(name)
        .into_iter()
        .filter(|(r, _)| *r == rule)
        .map(|(_, l)| l)
        .collect()
}

// --- poison-lock -----------------------------------------------------------

#[test]
fn poison_lock_violations_exact() {
    assert_eq!(
        of_rule("poison_lock_violation.rs", RuleId::PoisonLock),
        vec![9, 14, 20]
    );
}

#[test]
fn poison_lock_clean_fixture_has_none() {
    assert_eq!(
        of_rule("poison_lock_clean.rs", RuleId::PoisonLock),
        Vec::<u32>::new()
    );
}

// --- cancellation ----------------------------------------------------------

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
    // The same loops in an unannotated module are not findings: the rule
    // only applies where the module opted in.
    assert_eq!(
        of_rule("unwrap_violation.rs", RuleId::Cancellation),
        Vec::<u32>::new()
    );
}

// --- no-unwrap -------------------------------------------------------------

#[test]
fn unwrap_violations_exact() {
    assert_eq!(
        of_rule("unwrap_violation.rs", RuleId::NoUnwrap),
        vec![6, 11, 17, 22]
    );
}

#[test]
fn unwrap_clean_fixture_has_none() {
    assert_eq!(
        of_rule("unwrap_clean.rs", RuleId::NoUnwrap),
        Vec::<u32>::new()
    );
}

// --- truncating-cast -------------------------------------------------------

#[test]
fn cast_violations_exact() {
    // Two narrowing casts share line 7; one more on line 12. Waived and
    // widening casts stay silent.
    assert_eq!(
        of_rule("cast_violation.rs", RuleId::TruncatingCast),
        vec![7, 7, 12]
    );
}

#[test]
fn cast_clean_fixture_has_none() {
    assert_eq!(
        of_rule("cast_clean.rs", RuleId::TruncatingCast),
        Vec::<u32>::new()
    );
}

// --- unsafe-audit ----------------------------------------------------------

#[test]
fn unsafe_violations_exact() {
    assert_eq!(
        of_rule("unsafe_violation.rs", RuleId::UnsafeAudit),
        vec![7, 16]
    );
}

#[test]
fn unsafe_clean_fixture_has_none() {
    assert_eq!(
        of_rule("unsafe_clean.rs", RuleId::UnsafeAudit),
        Vec::<u32>::new()
    );
}

// --- rules do not bleed across fixtures ------------------------------------

#[test]
fn clean_fixtures_are_clean_under_every_rule() {
    for name in [
        "poison_lock_clean.rs",
        "cancellation_clean.rs",
        "unwrap_clean.rs",
        "cast_clean.rs",
        "unsafe_clean.rs",
    ] {
        // The poison-lock clean fixture deliberately keeps one library-code
        // unwrap on an I/O read to prove the lock rule ignores it; that site
        // belongs to no-unwrap. Everything else must be silent everywhere.
        let extra: Vec<_> = findings(name)
            .into_iter()
            .filter(|(r, _)| !(name == "poison_lock_clean.rs" && *r == RuleId::NoUnwrap))
            .collect();
        assert!(extra.is_empty(), "{name}: unexpected findings {extra:?}");
    }
}

// --- ratchet ---------------------------------------------------------------

fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
    pairs.iter().map(|(p, n)| (p.to_string(), *n)).collect()
}

#[test]
fn ratchet_rejects_an_increased_count() {
    let r = ratchet::parse("[no-unwrap]\n\"crates/x/src/lib.rs\" = 3\n").expect("parse");
    let f = ratchet::check(&counts(&[("crates/x/src/lib.rs", 4)]), &r);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].rule, RuleId::NoUnwrap);
    assert!(
        f[0].message.contains("ratchet allows 3"),
        "{}",
        f[0].message
    );
}

#[test]
fn ratchet_rejects_a_new_file_with_sites() {
    let r = ratchet::Ratchet::default();
    let f = ratchet::check(&counts(&[("crates/new/src/lib.rs", 1)]), &r);
    assert_eq!(f.len(), 1);
}

#[test]
fn ratchet_flags_stale_entries_so_they_ratchet_down() {
    let r = ratchet::parse("[no-unwrap]\n\"a.rs\" = 5\n").expect("parse");
    let f = ratchet::check(&counts(&[("a.rs", 2)]), &r);
    assert_eq!(f.len(), 1);
    assert!(f[0].message.contains("stale"));
    // And at the exact budget: silence.
    assert!(ratchet::check(&counts(&[("a.rs", 5)]), &r).is_empty());
}

// --- end to end ------------------------------------------------------------

/// The checked-in workspace must be lint-clean: run the real binary with
/// `--workspace` against the repo root and require exit code 0.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nodb-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run nodb-lint");
    assert!(
        out.status.success(),
        "workspace has lint findings:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Seeded fixtures must fail through the binary too (exit code 1), proving
/// the CI wiring actually gates.
#[test]
fn binary_exits_nonzero_on_every_seeded_fixture() {
    for name in [
        "poison_lock_violation.rs",
        "cancellation_violation.rs",
        "unwrap_violation.rs",
        "cast_violation.rs",
        "unsafe_violation.rs",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nodb-lint"))
            .arg(fixture(name))
            .output()
            .expect("run nodb-lint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} should fail the lint:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
