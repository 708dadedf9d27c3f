//! Snapshot corruption matrix (ISSUE 9): every way a sidecar can rot —
//! truncation, bit flips, stale fingerprints, version skew, bad magic,
//! trailing garbage — must degrade the table to *cold*, never to a wrong
//! answer. Each case asserts three things: the restore was rejected (or
//! skipped), the telemetry says so, and every query afterwards is
//! byte-identical to a never-snapshotted cold instance.
//!
//! The chaos CI job re-runs this whole matrix under `NODB_TEST_FAULTS`
//! (seeded transient I/O faults on every block read, including the
//! sidecar restore path), so corruption handling is exercised with and
//! without flaky I/O underneath it.

use nodb_repro::core::{NoDb, NoDbConfig};
use nodb_repro::prelude::*;
use nodb_repro::snapshot;

mod common;
use common::assert_same_state;

const COLS: usize = 4;
const SQL: &str = "SELECT c1, c3 FROM t WHERE c0 < 700000000";

fn scratch(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nodb_snapcorrupt_{tag}_{}", std::process::id()));
    p
}

fn mk_db(path: &std::path::Path, schema: Schema, persistence: bool) -> NoDb {
    let mut db = NoDb::new(NoDbConfig {
        scan_threads: 2,
        snapshot_persistence: persistence,
        ..NoDbConfig::default()
    });
    db.register_csv_with_schema("t", path, schema, false)
        .unwrap();
    db
}

/// Generate data, warm a table, write its sidecar, and return the paths.
fn warmed_sidecar(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, GeneratorConfig) {
    let gen = GeneratorConfig::uniform_ints(COLS, 500, 0xC0FF);
    let path = scratch(tag);
    gen.generate_file(&path).unwrap();
    let warm = mk_db(&path, gen.schema(), true);
    warm.query(SQL).unwrap();
    for (table, r) in warm.admin().snapshot_now() {
        r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
    }
    let side = snapshot::sidecar_path(&path);
    assert!(side.exists());
    (path, side, gen)
}

/// Open the table against the (possibly corrupted) sidecar and assert it
/// behaves exactly like a cold instance: restore rejected, results
/// byte-identical, adaptive end-state identical.
fn assert_degrades_to_cold(case: &str, path: &std::path::Path, gen: &GeneratorConfig) {
    let cold = mk_db(path, gen.schema(), false);
    let want = cold.query(SQL).unwrap().to_string();
    let want_count = cold.query("SELECT COUNT(*) FROM t").unwrap().to_string();

    let db = mk_db(path, gen.schema(), true);
    let stats = db.admin().snapshot_stats();
    assert_eq!(stats.restores, 0, "{case}: nothing restored ({stats:?})");
    assert_eq!(
        stats.restores_rejected, 1,
        "{case}: rejection counted ({stats:?})"
    );
    assert_eq!(
        db.query(SQL).unwrap().to_string(),
        want,
        "{case}: corrupted sidecar changed an answer"
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap().to_string(),
        want_count,
        "{case}: corrupted sidecar changed COUNT(*)"
    );
    assert_same_state(case, &db, &cold, COLS);
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(snapshot::sidecar_path(path)).ok();
    std::fs::remove_file(path).ok();
}

/// Truncation at many cut points: header, mid-section, last byte.
#[test]
fn truncation_degrades_to_cold() {
    let (path, side, gen) = warmed_sidecar("trunc");
    let full = std::fs::read(&side).unwrap();
    let cuts = [4, 12, 20, full.len() / 2, full.len() - 1];
    for cut in cuts {
        std::fs::write(&side, &full[..cut]).unwrap();
        assert_degrades_to_cold(&format!("truncate@{cut}"), &path, &gen);
    }
    cleanup(&path);
}

/// Single-bit flips across the file: header fingerprint bytes, section
/// framing, payload bytes deep inside each section.
#[test]
fn bit_flips_degrade_to_cold() {
    let (path, side, gen) = warmed_sidecar("flip");
    let full = std::fs::read(&side).unwrap();
    let n = full.len();
    // Magic, version, header payload (file length, head hash, tail hash,
    // torn-row fence), early/middle/late payload bytes.
    let offsets = [0, 9, 17, 40, 62, 70, n / 4, n / 2, (3 * n) / 4, n - 2];
    for off in offsets {
        let mut evil = full.clone();
        evil[off] ^= 0x10;
        std::fs::write(&side, &evil).unwrap();
        assert_degrades_to_cold(&format!("bitflip@{off}"), &path, &gen);
    }
    cleanup(&path);
}

/// Version skew: a sidecar from "the future" is refused outright — no
/// attempt to parse a layout this build does not know.
#[test]
fn future_version_degrades_to_cold() {
    let (path, side, gen) = warmed_sidecar("version");
    let mut bytes = std::fs::read(&side).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&side, &bytes).unwrap();
    assert_degrades_to_cold("future-version", &path, &gen);
    cleanup(&path);
}

/// Version skew the other way: a sidecar written by the previous format
/// version (whose statistics carried their own row count and an NDV
/// bitmap per attribute) is refused by the same gate, and the table
/// answers cold.
#[test]
fn previous_version_degrades_to_cold() {
    let (path, side, gen) = warmed_sidecar("oldversion");
    let mut bytes = std::fs::read(&side).unwrap();
    let previous = snapshot::FORMAT_VERSION - 1;
    assert_eq!(previous, 5);
    bytes[8..12].copy_from_slice(&previous.to_le_bytes());
    std::fs::write(&side, &bytes).unwrap();
    assert_eq!(
        snapshot::decode_snapshot(&bytes).err(),
        Some(snapshot::SnapshotError::VersionSkew { found: previous })
    );
    assert_degrades_to_cold("previous-version", &path, &gen);
    cleanup(&path);
}

/// A sidecar whose checksums are intact but whose statistics are
/// impossible — more NULLs than rows seen, an attribute listed twice — is
/// refused as untrusted and the table answers cold.
#[test]
fn untrusted_statistics_degrade_to_cold() {
    let (path, side, gen) = warmed_sidecar("badstats");
    let good = snapshot::decode_snapshot(&std::fs::read(&side).unwrap()).unwrap();
    assert!(
        !good.stats.attrs.is_empty(),
        "the warm query built statistics"
    );
    type Corrupt = fn(&mut snapshot::TableSnapshot);
    let cases: [(&str, Corrupt); 2] = [
        ("nulls-above-rows", |s| {
            let a = &mut s.stats.attrs[0];
            a.nulls = a.rows_seen + 1;
        }),
        ("duplicate-attr", |s| {
            let dup = s.stats.attrs[0].clone();
            s.stats.attrs.push(dup);
        }),
    ];
    for (case, corrupt) in cases {
        let mut evil = snapshot::decode_snapshot(&std::fs::read(&side).unwrap()).unwrap();
        corrupt(&mut evil);
        std::fs::write(&side, snapshot::encode_snapshot(&evil)).unwrap();
        assert_degrades_to_cold(case, &path, &gen);
        // Put the good sidecar back for the next case.
        std::fs::write(&side, snapshot::encode_snapshot(&good)).unwrap();
    }
    cleanup(&path);
}

/// Stale fingerprint: the sidecar is internally pristine but the data file
/// it describes was replaced. The fingerprint check must win.
#[test]
fn stale_fingerprint_degrades_to_cold() {
    let (path, _side, _gen) = warmed_sidecar("stale");
    // Replace the data file wholesale (different seed + row count). The
    // sidecar on disk is untouched and self-consistent — only stale.
    let new = GeneratorConfig::uniform_ints(COLS, 480, 0xDEAD);
    new.generate_file(&path).unwrap();
    assert_degrades_to_cold("stale-fingerprint", &path, &new);
    cleanup(&path);
}

/// A foreign file wearing the sidecar's name.
#[test]
fn bad_magic_and_garbage_degrade_to_cold() {
    let (path, side, gen) = warmed_sidecar("garbage");
    for (case, bytes) in [
        (
            "not-a-sidecar",
            b"these are not the bytes you are looking for".to_vec(),
        ),
        ("empty", Vec::new()),
        ("magic-only", snapshot::MAGIC.to_vec()),
    ] {
        std::fs::write(&side, &bytes).unwrap();
        assert_degrades_to_cold(case, &path, &gen);
    }
    // Trailing garbage after a valid image must also be refused: re-warm
    // to get a valid sidecar, then append bytes.
    let warm = mk_db(&path, gen.schema(), true);
    warm.query(SQL).unwrap();
    for (table, r) in warm.admin().snapshot_now() {
        r.unwrap_or_else(|e| panic!("snapshot_now({table}): {e}"));
    }
    drop(warm);
    let mut bytes = std::fs::read(&side).unwrap();
    bytes.extend_from_slice(&[0xAB; 16]);
    std::fs::write(&side, &bytes).unwrap();
    assert_degrades_to_cold("trailing-garbage", &path, &gen);
    cleanup(&path);
}

/// After degrading to cold, the table re-warms normally and the *next*
/// snapshot overwrites the corrupt sidecar with a good one: corruption is
/// an event, not a permanent haunting.
#[test]
fn corruption_recovery_rewrites_a_good_sidecar() {
    let (path, side, gen) = warmed_sidecar("recover");
    let mut bytes = std::fs::read(&side).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&side, &bytes).unwrap();

    let db = mk_db(&path, gen.schema(), true);
    assert_eq!(db.admin().snapshot_stats().restores_rejected, 1);
    let want = db.query(SQL).unwrap().to_string();
    // Write-behind (persistence is on) replaced the corrupt sidecar.
    assert!(db.admin().snapshot_stats().saves >= 1);
    drop(db);

    let reborn = mk_db(&path, gen.schema(), true);
    let stats = reborn.admin().snapshot_stats();
    assert_eq!(stats.restores, 1, "healed sidecar restores: {stats:?}");
    assert_eq!(reborn.query(SQL).unwrap().to_string(), want);
    cleanup(&path);
}
