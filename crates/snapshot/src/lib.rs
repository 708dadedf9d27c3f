//! # nodb-snapshot — crash-safe persistence for adaptive state
//!
//! NoDB's positional map, adaptive cache, and on-the-fly statistics are all
//! built as a side effect of queries — which makes them free to build but
//! means every restart starts cold. This crate persists that state to a
//! versioned sidecar file next to the raw data (`foo.csv` →
//! `foo.csv.nodb-snap`) so a restarted engine resumes warm.
//!
//! Design stance: **the sidecar is a hint, never an authority.** The raw
//! CSV file remains the single source of truth for query answers. The
//! loader validates paranoidly — magic, version, per-section checksums,
//! structural invariants — and keys the restored state to the file's
//! recorded source epoch (length, mtime, sampled head/tail hashes, torn-row
//! fence), which the table reconciles with the live file exactly as it does
//! before every query. Any irregularity discards the snapshot and starts
//! cold. A corrupt or stale sidecar can cost warm-up time; it can never
//! change a query result.
//!
//! * [`format`](mod@format) — the byte layout, [`format::encode_snapshot`] /
//!   [`format::decode_snapshot`], and the capture/install glue to the
//!   `posmap`, `rawcache`, and `stats` crates;
//! * [`io`] — crash-safe atomic writes (temp + fsync + rename) and reads
//!   routed through the `BlockSource` seam so fault injection and retry
//!   cover the restore path.
//!
//! See `README.md` for the on-disk format specification.

// Every narrowing cast on offset or row arithmetic states its bound in an
// `#[expect]`; test code is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod format;
pub mod io;

pub use format::{
    decode_snapshot, encode_snapshot, ChunkState, PosMapState, SnapshotError, TableSnapshot,
    FORMAT_VERSION, MAGIC,
};
pub use io::{
    load_snapshot, read_sidecar_bytes, save_snapshot, sidecar_path, write_sidecar_atomic,
    SIDECAR_SUFFIX,
};

#[cfg(test)]
mod tests {
    use std::time::{Duration, UNIX_EPOCH};

    use nodb_posmap::{MapPolicy, PositionalMap};
    use nodb_rawcache::RawCache;
    use nodb_rawcsv::reader::fnv1a;
    use nodb_rawcsv::{ColumnType, Datum, IoProfile, SourceEpoch};
    use nodb_stats::TableStats;

    use super::*;

    fn sample_epoch() -> SourceEpoch {
        SourceEpoch {
            len: 8192,
            modified: Some(UNIX_EPOCH + Duration::new(1_700_000_000, 123)),
            head_len: 4096,
            head_hash: 0xDEAD_BEEF_u64,
            tail_len: 4096,
            tail_hash: 0xFEED_F00D_u64,
            trusted_len: 8000,
        }
    }

    fn sample_snapshot() -> TableSnapshot {
        let mut map = PositionalMap::new(MapPolicy::default());
        map.row_index_mut().note_rows(0, &[0, 40, 81, 130]);
        map.row_index_mut().mark_complete();
        let mut b = nodb_posmap::ChunkBuilder::new(vec![1, 3]);
        b.push_row_offsets(&[(1, 5)]);
        b.push_row_offsets(&[(1, 7), (3, 12)]);
        map.install(b);

        let mut cache = RawCache::new(1 << 30);
        let mut col = nodb_rawcache::TypedColumn::new(ColumnType::Int);
        col.push(&Datum::Int(42));
        col.push(&Datum::Null);
        col.push(&Datum::Int(-7));
        assert!(cache.install_restored(2, col));
        let mut sc = nodb_rawcache::TypedColumn::new(ColumnType::Str);
        sc.push(&Datum::Str("alpha".into()));
        sc.push(&Datum::Str("".into()));
        assert!(cache.install_restored(5, sc));

        let mut stats = TableStats::default();
        for row in 0..50u64 {
            stats.attr_mut(1).observe(&Datum::Int(row as i64 % 9));
            if row % 5 == 0 {
                stats.attr_mut(3).observe(&Datum::Null);
            } else {
                stats.attr_mut(3).observe(&Datum::Float(row as f64 * 0.5));
            }
        }
        stats.advance_observed(1, 50);
        stats.advance_observed(3, 50);
        TableSnapshot::capture(sample_epoch(), Some(4), &map, &cache, &stats)
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).expect("round trip");
        assert_eq!(back.epoch, snap.epoch);
        assert_eq!(back.row_count, Some(4));
        assert_eq!(back.map.row_starts, vec![0, 40, 81, 130]);
        assert!(back.map.complete);
        assert_eq!(back.map.chunks.len(), 1);
        assert_eq!(back.map.chunks[0].attrs, vec![1, 3]);
        // Sentinel NO_OFFSET survives the trip raw.
        assert_eq!(back.map.chunks[0].cols[1], vec![nodb_posmap::NO_OFFSET, 12]);
        assert_eq!(back.columns.len(), 2);
        let ints = back
            .columns
            .iter()
            .find(|(a, _)| *a == 2)
            .map(|(_, c)| c)
            .expect("attr 2 restored");
        assert_eq!(ints.datum(0), Some(Datum::Int(42)));
        assert_eq!(ints.datum(1), Some(Datum::Null));
        assert_eq!(ints.datum(2), Some(Datum::Int(-7)));
        let strs = back
            .columns
            .iter()
            .find(|(a, _)| *a == 5)
            .map(|(_, c)| c)
            .expect("attr 5 restored");
        assert_eq!(strs.datum(0), Some(Datum::Str("alpha".into())));
        // Stats state is structurally identical.
        let orig = &snap.stats;
        let got = &back.stats;
        assert_eq!(got.observed, orig.observed);
        assert_eq!(got.attrs.len(), orig.attrs.len());
        for (a, b) in orig.attrs.iter().zip(&got.attrs) {
            assert_eq!(a.attr, b.attr);
            assert_eq!(a.rows_seen, b.rows_seen);
            assert_eq!(a.nulls, b.nulls);
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
        }
    }

    /// Statistics over a few thousand rows, a tenth of them NULL.
    fn observed_stats() -> TableStats {
        let mut stats = TableStats::default();
        for row in 0..5_000u64 {
            let d = if row % 11 == 0 {
                Datum::Null
            } else {
                Datum::Int((row * 7_919 % 1_009) as i64)
            };
            stats.observe(0, &d);
        }
        stats.advance_observed(0, 5_000);
        stats
    }

    /// A restored registry continues exactly where the captured one stood:
    /// the same counts and bounds after any further observations.
    #[test]
    fn restored_stats_continue_identically() {
        let mut live = observed_stats();
        let snap = TableSnapshot::capture(
            sample_epoch(),
            None,
            &PositionalMap::new(MapPolicy::default()),
            &RawCache::new(1 << 30),
            &live,
        );
        let back = decode_snapshot(&encode_snapshot(&snap)).expect("round trip");
        let mut restored = TableStats::from_state(back.stats).expect("consistent");
        assert_eq!(
            format!("{:?}", live.export_state()),
            format!("{:?}", restored.export_state())
        );
        for row in 5_000..40_000u64 {
            let d = Datum::Int((row * 31) as i64);
            live.observe(0, &d);
            restored.observe(0, &d);
        }
        assert_eq!(
            format!("{:?}", live.export_state()),
            format!("{:?}", restored.export_state())
        );
    }

    /// A sidecar whose statistics are impossible — more NULLs than rows
    /// seen, an attribute listed twice —
    /// is refused whole (checksums intact, so only the structural check
    /// can catch it), and decoding never panics.
    #[test]
    fn untrusted_statistics_are_rejected() {
        let stats = observed_stats();
        let capture = || {
            TableSnapshot::capture(
                sample_epoch(),
                None,
                &PositionalMap::new(MapPolicy::default()),
                &RawCache::new(1 << 30),
                &stats,
            )
        };
        type Corrupt = fn(&mut nodb_stats::TableStatsState);
        let cases: [(&str, Corrupt); 2] = [
            ("nulls > rows", |s| {
                s.attrs[0].nulls = s.attrs[0].rows_seen + 1
            }),
            ("duplicate attr", |s| {
                let dup = s.attrs[0].clone();
                s.attrs.push(dup);
            }),
        ];
        for (tag, corrupt) in cases {
            let mut snap = capture();
            corrupt(&mut snap.stats);
            assert_eq!(
                decode_snapshot(&encode_snapshot(&snap)).err(),
                Some(SnapshotError::Malformed("inconsistent statistics")),
                "{tag}"
            );
        }
    }

    #[test]
    fn decode_is_deterministic_and_reencodes_identically() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).expect("decode");
        assert_eq!(encode_snapshot(&back), bytes, "canonical re-encode");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes[0] ^= 0xFF;
        assert_eq!(decode_snapshot(&bytes).err(), Some(SnapshotError::BadMagic));
    }

    #[test]
    fn future_version_rejected_before_anything_else() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bytes).err(),
            Some(SnapshotError::VersionSkew { found: 99 })
        );
    }

    #[test]
    fn every_truncation_point_fails_closed() {
        let bytes = encode_snapshot(&sample_snapshot());
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                !matches!(err, SnapshotError::Io(_)),
                "cut at {cut} gave an I/O error from pure bytes"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_fails_or_roundtrips_consistently() {
        // Flip each byte: the decoder must either reject the file or (for
        // the handful of bytes whose flip is caught by a checksum anyway)
        // never panic. No flip may produce a snapshot that re-encodes to
        // the corrupted bytes AND differs from the original in validated
        // sections.
        let bytes = encode_snapshot(&sample_snapshot());
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            assert!(
                decode_snapshot(&evil).is_err(),
                "single-bit flip at byte {i} was not detected"
            );
        }
    }

    #[test]
    fn header_checksum_guards_fingerprint() {
        let bytes = encode_snapshot(&sample_snapshot());
        // Byte 16 is the first header payload byte (file_len LSB); 62 lies
        // inside tail_hash [61, 69) and 70 inside trusted_len [69, 77).
        for off in [16, 62, 70] {
            let mut evil = bytes.clone();
            evil[off] ^= 0x01;
            assert_eq!(
                decode_snapshot(&evil).err(),
                Some(SnapshotError::ChecksumMismatch { section: "header" }),
                "flip at {off}"
            );
        }
    }

    #[test]
    fn epoch_windows_outside_the_length_are_malformed() {
        let mut snap = sample_snapshot();
        snap.epoch.tail_len = snap.epoch.len + 1;
        assert_eq!(
            decode_snapshot(&encode_snapshot(&snap)).err(),
            Some(SnapshotError::Malformed(
                "epoch windows disagree with length"
            ))
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes).err(),
            Some(SnapshotError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn huge_declared_length_never_allocates() {
        // A corrupted length prefix far beyond the file size must be
        // rejected by bounds-checking, not trusted by `with_capacity`.
        let mut bytes = encode_snapshot(&sample_snapshot());
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn posmap_state_installs_into_fresh_map() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).expect("decode");
        let mut map = PositionalMap::new(MapPolicy::default());
        back.map.install_into(&mut map);
        assert!(map.row_index().is_complete());
        assert_eq!(map.row_index().starts(), &[0, 40, 81, 130]);
        assert_eq!(map.chunks().len(), 1);
        assert_eq!(map.chunks()[0].offset(1, 0), Some(5));
        assert_eq!(map.chunks()[0].offset(3, 0), None);
        assert_eq!(map.chunks()[0].offset(3, 1), Some(12));
    }

    #[test]
    fn sidecar_path_appends_suffix() {
        let p = sidecar_path(std::path::Path::new("/data/lineitem.csv"));
        assert_eq!(p, std::path::PathBuf::from("/data/lineitem.csv.nodb-snap"));
    }

    #[test]
    fn save_then_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "nodb-snap-test-{}-{}",
            std::process::id(),
            fnv1a(b"save_then_load")
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let data = dir.join("t.csv");
        std::fs::write(&data, b"a,b\n1,2\n").expect("write data");
        let snap = sample_snapshot();
        let side = save_snapshot(&data, &snap).expect("save");
        assert_eq!(side, sidecar_path(&data));
        let back = load_snapshot(&data, 4096, IoProfile::default())
            .expect("load")
            .expect("present");
        assert_eq!(back.map.row_starts, snap.map.row_starts);
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_sidecar_is_none_not_error() {
        let dir = std::env::temp_dir().join(format!(
            "nodb-snap-test-{}-{}",
            std::process::id(),
            fnv1a(b"missing")
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let data = dir.join("t.csv");
        std::fs::write(&data, b"a\n1\n").expect("write data");
        let loaded = load_snapshot(&data, 4096, IoProfile::default()).expect("load");
        assert!(loaded.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reads_through_fault_injection_and_retry() {
        let dir = std::env::temp_dir().join(format!(
            "nodb-snap-test-{}-{}",
            std::process::id(),
            fnv1a(b"faulty")
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let data = dir.join("t.csv");
        std::fs::write(&data, b"a\n1\n").expect("write data");
        save_snapshot(&data, &sample_snapshot()).expect("save");
        // Aggressive fault plan + retries: the retry layer above the
        // injector must still deliver the full, checksum-clean sidecar.
        let profile = IoProfile {
            retry_attempts: 16,
            retry_backoff_ms: 0,
            faults: Some(nodb_rawcsv::FaultPlan {
                seed: 7,
                one_in: 3,
                latency_us: 0,
            }),
        };
        // Small blocks so many refills happen and faults actually fire.
        let back = load_snapshot(&data, 64, profile)
            .expect("retries recover")
            .expect("present");
        assert_eq!(back.row_count, Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
