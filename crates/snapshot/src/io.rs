//! Sidecar file I/O: crash-safe writes and fault-tolerant reads.
//!
//! Writes go through the classic temp-file dance — write, `fsync`, atomic
//! rename into place, `fsync` the parent directory — so a crash at any
//! point leaves either the old sidecar or the new one, never a torn file
//! with the final name. Reads route through the [`BlockSource`] seam from
//! `nodb-rawcsv`, so the same fault-injection and retry machinery that
//! exercises raw scans (`NODB_TEST_FAULTS`, `IoProfile`) also exercises
//! snapshot restore.
//!
//! [`BlockSource`]: nodb_rawcsv::BlockSource

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nodb_rawcsv::reader::{make_source_with, Window};
use nodb_rawcsv::IoProfile;

use crate::format::{decode_snapshot, SnapshotError, TableSnapshot};

/// The sidecar lives next to the data file: `lineitem.csv` →
/// `lineitem.csv.nodb-snap`. Same directory, so the atomic rename stays on
/// one filesystem and the snapshot travels with the data.
pub const SIDECAR_SUFFIX: &str = ".nodb-snap";

/// Sidecar path for a data file.
pub fn sidecar_path(data_path: &Path) -> PathBuf {
    let mut name = data_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(SIDECAR_SUFFIX);
    data_path.with_file_name(name)
}

/// Per-process counter so concurrent writers in one process never collide
/// on a temp name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` crash-safely: unique temp file in the same
/// directory, `write_all` + `sync_all`, atomic rename over `path`, then a
/// best-effort `fsync` of the parent directory so the rename itself is
/// durable.
pub fn write_sidecar_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(format!(".tmp.{pid}.{seq}"));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let mut f = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Leave no droppings behind a failed attempt; the rename (when it
        // failed) may or may not have consumed the temp file.
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename: fsync the directory entry. Best-effort —
    // a failure here only narrows the crash window, it cannot tear data.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read the whole sidecar through the [`BlockSource`] seam, so fault
/// injection and retry apply to restore exactly as they do to scans.
///
/// [`BlockSource`]: nodb_rawcsv::BlockSource
pub fn read_sidecar_bytes(
    path: &Path,
    block_size: usize,
    profile: IoProfile,
) -> Result<Vec<u8>, SnapshotError> {
    let mut source = make_source_with(path, block_size, profile)
        .map_err(|e| SnapshotError::Io(e.to_string()))?;
    let mut win = Window::at(0);
    // Capacity hint only — the loop still reads to EOF, so a file that
    // grows or shrinks between stat and read stays correct.
    let hint = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut bytes = Vec::with_capacity(usize::try_from(hint).unwrap_or(0));
    loop {
        match source.refill(&mut win) {
            Ok(0) => break,
            Ok(_) => {
                bytes.extend_from_slice(&win.buf[win.pos..win.filled]);
                win.pos = win.filled;
            }
            Err(e) => return Err(SnapshotError::Io(e.to_string())),
        }
    }
    Ok(bytes)
}

/// Load and validate the sidecar for `data_path`. `Ok(None)` means no
/// sidecar exists (a fresh table, not an error); every other failure is a
/// [`SnapshotError`] the caller answers by starting cold.
pub fn load_snapshot(
    data_path: &Path,
    block_size: usize,
    profile: IoProfile,
) -> Result<Option<TableSnapshot>, SnapshotError> {
    let side = sidecar_path(data_path);
    if !side.exists() {
        return Ok(None);
    }
    let bytes = read_sidecar_bytes(&side, block_size, profile)?;
    decode_snapshot(&bytes).map(Some)
}

/// Encode `snap` and write it as `data_path`'s sidecar, crash-safely.
pub fn save_snapshot(data_path: &Path, snap: &TableSnapshot) -> Result<PathBuf, SnapshotError> {
    let bytes = crate::format::encode_snapshot(snap);
    let side = sidecar_path(data_path);
    write_sidecar_atomic(&side, &bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
    Ok(side)
}
