#![doc = " lint:cancellable — source epochs: the fingerprint that binds every
adaptive structure to one version of the raw file.

NoDB does not own its data files: an external writer may append to,
truncate, rewrite, or replace them at any moment, while the positional
map, the column cache, and the statistics all embed byte offsets and
parsed values of *some past version* of the bytes. A [`SourceEpoch`] is
the identity of that version — length, mtime, sampled head and tail
hashes — captured in one `open`/`stat`/two-page read, cheap enough to
re-validate under the short planning lock of every query. It is the one
file identity of the stack: the snapshot sidecar stores it whole, and a
restored table reconciles through the same [`SourceEpoch::classify`] as
every query.

Three guarantees hang off it:

* **Pre-scan validation.** [`SourceEpoch::classify`] compares the live
  file against the epoch the adaptive state was built under. `Appended`
  keeps all prefix state (the §4.2 path: the next scan reads only what
  follows the row index's last row); `Truncated` / `Rewritten` quarantine
  map, cache and statistics wholesale and force a cold rescan — offsets into a dead epoch are never consulted.
* **Mid-scan detection.** Scanners bounds-check against the epoch
  length: a file that runs out early (`RangeScanner::ended_short`), and a
  post-scan re-classification before any merge, turn a concurrent
  truncation or rewrite into `EngineError::SourceChanged` instead of
  installing poisoned partials or returning mixed-epoch rows.
* **The torn-row fence.** [`SourceEpoch::trusted_len`] is the byte count
  up to and including the *last newline observed at capture*. A
  concurrent appender caught mid-write leaves a trailing unterminated
  row; no scanner ever reads past `trusted_len`, so half-written bytes
  are invisible until their terminator lands — at which point the next
  epoch probe classifies them as a plain append and replays them. The
  corollary (documented in the crate-level error taxonomy): while update
  detection is on, a final line with no trailing newline is not served
  until a newline terminates it — a row exists once it is terminated.
"]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::SystemTime;

use crate::reader::fnv1a;
use crate::{RawCsvError, Result};

/// Bytes of file head covered by the epoch's head hash.
pub const EPOCH_HEAD_LIMIT: u64 = 4096;

/// Bytes of file tail covered by the epoch's tail hash.
pub const EPOCH_TAIL_LIMIT: u64 = 4096;

/// How far the torn-row fence will scan backward looking for the last
/// newline before giving up (and trusting nothing). A CSV whose final line
/// is longer than this is pathological; bounding the scan keeps epoch
/// capture O(pages), not O(file).
const MAX_FENCE_SCAN: u64 = 1 << 20;

/// How many times [`SourceEpoch::capture`] restarts when the file keeps
/// changing under it (stat/read/stat disagree). Each attempt is a few
/// page-sized reads, so a writer would have to mutate continuously at
/// sub-millisecond cadence to exhaust this.
const CAPTURE_ATTEMPTS: u32 = 8;

/// Fingerprint of one version ("epoch") of a raw source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceEpoch {
    /// File length in bytes.
    pub len: u64,
    /// Last-modified time as reported by the filesystem.
    pub modified: Option<SystemTime>,
    /// Number of head bytes covered by `head_hash` (`min(len, 4096)`).
    pub head_len: u64,
    /// FNV-1a hash of the first `head_len` bytes. Appending rows keeps this
    /// prefix stable; replacing the file almost surely changes it.
    pub head_hash: u64,
    /// Number of tail bytes covered by `tail_hash` (`min(len, 4096)`).
    pub tail_len: u64,
    /// FNV-1a hash of the last `tail_len` bytes. Re-hashing this *region*
    /// later distinguishes a pure append (region unchanged) from a rewrite
    /// that happened to grow the file.
    pub tail_hash: u64,
    /// The torn-row fence: bytes `[0, trusted_len)` end at a newline
    /// observed at capture time and are safe to scan; bytes at or past
    /// `trusted_len` may be half of a row still being written. Equal to
    /// `len` whenever the file ends with a newline (the common case).
    pub trusted_len: u64,
}

/// How the live file relates to a previously captured [`SourceEpoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochChange {
    /// Same length, mtime, head, and tail: the epoch still describes the
    /// bytes on disk.
    Unchanged,
    /// The file grew and every fingerprinted old byte is intact: rows were
    /// appended. Prefix state stays valid, the row index included, so the
    /// next scan reads from the first row the index does not hold — the
    /// *old* trusted length, which re-reads a previously torn tail row now
    /// that its terminator landed.
    Appended {
        /// The old epoch's torn-row fence — the append replay start.
        old_trusted_len: u64,
    },
    /// The file shrank but its head is intact: truncation. All adaptive
    /// state must be quarantined (offsets past the new end are dangling;
    /// cached values past it describe deleted rows).
    Truncated {
        /// Live length observed by the probe.
        new_len: u64,
    },
    /// The head or the fingerprinted tail changed (or same-length content
    /// was touched): the file was rewritten or replaced. All adaptive
    /// state must be quarantined.
    Rewritten,
}

impl EpochChange {
    /// Does this change invalidate state built under the old epoch?
    pub fn invalidates(self) -> bool {
        matches!(self, EpochChange::Truncated { .. } | EpochChange::Rewritten)
    }
}

impl SourceEpoch {
    /// Fingerprint the live file: one `open`, one `stat`, a head read, a
    /// tail read, and (only when the tail does not end in a newline) a
    /// bounded backward scan for the torn-row fence.
    ///
    /// An epoch must be a *self-consistent* snapshot: all reads describing
    /// one version of the file. A writer racing the capture (the file
    /// shrinking between the stat and a read, or the post-read stat
    /// disagreeing with the first) restarts the attempt, up to
    /// `CAPTURE_ATTEMPTS` times; only a file mutating continuously
    /// faster than a few page reads makes this fail. This entry point is
    /// for callers with nothing to retry against (registration), so a file
    /// that never holds still is reported as an I/O error.
    pub fn capture(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        Self::try_capture(path)?.ok_or_else(|| {
            RawCsvError::io(
                format!("fingerprint {}", path.display()),
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "file kept changing during epoch capture",
                ),
            )
        })
    }

    /// [`Self::capture`] for a table that already holds adaptive state:
    /// `Ok(None)` means every attempt raced a mutation — an active writer,
    /// not an I/O failure — which the table reports as the retryable
    /// `EngineError::SourceChanged`.
    pub fn try_capture(path: impl AsRef<Path>) -> Result<Option<Self>> {
        Self::capture_bounded(path.as_ref(), Self::capture_once)
    }

    /// The bounded restart loop around one capture attempt (a parameter so
    /// tests can force exhaustion).
    pub fn capture_bounded(
        path: &Path,
        mut attempt: impl FnMut(&Path) -> Result<Option<Self>>,
    ) -> Result<Option<Self>> {
        for _ in 0..CAPTURE_ATTEMPTS {
            if let Some(epoch) = attempt(path)? {
                return Ok(Some(epoch));
            }
        }
        Ok(None)
    }

    /// One capture attempt; `Ok(None)` means a concurrent writer changed
    /// the file mid-capture and the caller should start over.
    fn capture_once(path: &Path) -> Result<Option<Self>> {
        let mut file = open(path)?;
        let fsmeta = file
            .metadata()
            .map_err(|e| RawCsvError::io(format!("stat {}", path.display()), e))?;
        let len = fsmeta.len();
        let modified = fsmeta.modified().ok();
        let Some(head) = try_read_at(&mut file, path, 0, len.min(EPOCH_HEAD_LIMIT))? else {
            return Ok(None);
        };
        let tail_len = len.min(EPOCH_TAIL_LIMIT);
        let Some(tail) = try_read_at(&mut file, path, len - tail_len, tail_len)? else {
            return Ok(None);
        };
        let Some(trusted_len) = trusted_prefix_len(&mut file, path, len, &tail)? else {
            return Ok(None);
        };
        // The reads above only describe one version if the file is still
        // that version now.
        let after = file
            .metadata()
            .map_err(|e| RawCsvError::io(format!("stat {}", path.display()), e))?;
        if after.len() != len || after.modified().ok() != modified {
            return Ok(None);
        }
        Ok(Some(SourceEpoch {
            len,
            modified,
            head_len: head.len() as u64,
            head_hash: fnv1a(&head),
            tail_len,
            tail_hash: fnv1a(&tail),
            trusted_len,
        }))
    }

    /// Re-probe the live file and classify how it relates to this epoch.
    ///
    /// The decision tree (each probe is one `open` + `stat` + at most two
    /// page-sized reads):
    ///
    /// * shrank → head intact ? `Truncated` : `Rewritten`
    /// * head changed → `Rewritten`
    /// * grew → old tail *region* re-hashed: intact ? `Appended` :
    ///   `Rewritten`
    /// * same length → mtime or old tail region changed ? `Rewritten` :
    ///   `Unchanged`
    ///
    /// Like every sampled fingerprint this has a blind spot: a same-length
    /// in-place rewrite that preserves the sampled head and tail *and*
    /// lands within the filesystem's mtime granularity is indistinguishable
    /// from no change. The post-scan re-validation narrows the window to
    /// one mtime tick; a writer that defeats it is deliberately adversarial.
    pub fn classify(&self, path: impl AsRef<Path>) -> Result<EpochChange> {
        let path = path.as_ref();
        let mut file = open(path)?;
        let fsmeta = file
            .metadata()
            .map_err(|e| RawCsvError::io(format!("stat {}", path.display()), e))?;
        let new_len = fsmeta.len();
        // Head comparison needs all `head_len` fingerprinted bytes; a file
        // now shorter than the head window cannot match it. A read coming
        // up short (the file shrank *between* the stat and the read) is
        // itself proof of an active writer: classify as a rewrite rather
        // than failing the probe.
        let head_same = new_len >= self.head_len && {
            match try_read_at(&mut file, path, 0, self.head_len)? {
                Some(head) => fnv1a(&head) == self.head_hash,
                None => return Ok(EpochChange::Rewritten),
            }
        };
        if new_len < self.len {
            return Ok(if head_same {
                EpochChange::Truncated { new_len }
            } else {
                EpochChange::Rewritten
            });
        }
        if !head_same {
            return Ok(EpochChange::Rewritten);
        }
        // Re-hash the *old* tail region of the live file: a pure append
        // leaves those bytes alone; a rewrite that grew (or kept) the
        // length almost surely disturbs them.
        let old_tail_region =
            match try_read_at(&mut file, path, self.len - self.tail_len, self.tail_len)? {
                Some(region) => region,
                None => return Ok(EpochChange::Rewritten),
            };
        let tail_same = fnv1a(&old_tail_region) == self.tail_hash;
        if new_len > self.len {
            return Ok(if tail_same {
                EpochChange::Appended {
                    old_trusted_len: self.trusted_len,
                }
            } else {
                EpochChange::Rewritten
            });
        }
        if !tail_same || fsmeta.modified().ok() != self.modified {
            return Ok(EpochChange::Rewritten);
        }
        Ok(EpochChange::Unchanged)
    }

    /// Is state built under this epoch dead? True when the live file was
    /// truncated or rewritten — or cannot be probed at all (deleted,
    /// permissions yanked), which earns the same fate. An append is not:
    /// the prefix is still byte-identical.
    pub fn is_dead(&self, path: impl AsRef<Path>) -> bool {
        self.classify(path).map_or(true, EpochChange::invalidates)
    }
}

fn open(path: &Path) -> Result<File> {
    File::open(path).map_err(|e| RawCsvError::io(format!("open {}", path.display()), e))
}

/// Read exactly `[offset, offset + len)` of `file`. `Ok(None)` means the
/// file ended before `offset + len` — it shrank since the caller's stat,
/// i.e. a mutation race, not an I/O failure.
fn try_read_at(file: &mut File, path: &Path, offset: u64, len: u64) -> Result<Option<Vec<u8>>> {
    // lint: cast-ok len ≤ EPOCH_HEAD/TAIL_LIMIT (4 KiB), a module constant
    let mut buf = vec![0u8; len as usize];
    if buf.is_empty() {
        return Ok(Some(buf));
    }
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| RawCsvError::io(format!("seek {}", path.display()), e))?;
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = file
            .read(&mut buf[filled..])
            .map_err(|e| RawCsvError::io(format!("read {}", path.display()), e))?;
        if n == 0 {
            return Ok(None);
        }
        filled += n;
    }
    Ok(Some(buf))
}

/// Byte count up to and including the last `\n` of the file, given its last
/// `tail.len()` bytes: the torn-row fence. Scans backward page by page when
/// the tail sample holds no newline, bounded by [`MAX_FENCE_SCAN`]; a file
/// with no newline in its final megabyte trusts nothing (`0`). `Ok(None)`
/// propagates a shrink race from the backward scan's reads.
fn trusted_prefix_len(file: &mut File, path: &Path, len: u64, tail: &[u8]) -> Result<Option<u64>> {
    if len == 0 {
        return Ok(Some(0));
    }
    let tail_start = len - tail.len() as u64;
    if let Some(i) = tail.iter().rposition(|&b| b == b'\n') {
        return Ok(Some(tail_start + i as u64 + 1));
    }
    let mut lo = tail_start;
    let mut scanned = tail.len() as u64;
    while lo > 0 && scanned < MAX_FENCE_SCAN {
        let step = lo.min(EPOCH_TAIL_LIMIT);
        lo -= step;
        let Some(chunk) = try_read_at(file, path, lo, step)? else {
            return Ok(None);
        };
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(Some(lo + i as u64 + 1));
        }
        scanned += step;
    }
    Ok(Some(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str, content: &[u8]) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nodb_epoch_{name}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&p, content).unwrap();
        p
    }

    #[test]
    fn terminated_file_trusts_its_full_length() {
        let p = tmp("full", b"a,1\nb,2\nc,3\n");
        let e = SourceEpoch::capture(&p).unwrap();
        assert_eq!(e.len, 12);
        assert_eq!(e.trusted_len, 12);
        assert_eq!(e.classify(&p).unwrap(), EpochChange::Unchanged);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn torn_tail_is_fenced_to_last_newline() {
        let p = tmp("torn", b"a,1\nb,2\nc,"); // appender mid-row
        let e = SourceEpoch::capture(&p).unwrap();
        assert_eq!(e.trusted_len, 8, "fence at the byte after the last \\n");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn file_with_no_newline_trusts_nothing() {
        let p = tmp("nonl", b"a,1");
        let e = SourceEpoch::capture(&p).unwrap();
        assert_eq!(e.trusted_len, 0);
        let p2 = tmp("empty", b"");
        let e2 = SourceEpoch::capture(&p2).unwrap();
        assert_eq!(e2.trusted_len, 0);
        assert_eq!(e2.len, 0);
        std::fs::remove_file(p).unwrap();
        std::fs::remove_file(p2).unwrap();
    }

    #[test]
    fn fence_scans_back_past_the_tail_window() {
        // Torn tail longer than one tail window: the last newline sits more
        // than EPOCH_TAIL_LIMIT bytes from the end.
        let mut content = b"x,1\ny,2\n".to_vec();
        let fence = content.len() as u64;
        content.extend(std::iter::repeat_n(b'z', 2 * EPOCH_TAIL_LIMIT as usize));
        let p = tmp("deep_torn", &content);
        let e = SourceEpoch::capture(&p).unwrap();
        assert_eq!(e.trusted_len, fence);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn append_is_classified_with_old_fence_as_replay_start() {
        let p = tmp("append", b"a,1\nb,2\nc,");
        let e = SourceEpoch::capture(&p).unwrap();
        // The appender finishes the torn row and adds another.
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        use std::io::Write;
        f.write_all(b"3\nd,4\n").unwrap();
        drop(f);
        assert_eq!(
            e.classify(&p).unwrap(),
            EpochChange::Appended { old_trusted_len: 8 },
            "replay must start at the old fence, re-reading the torn row"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn truncation_and_rewrite_are_told_apart_by_the_head() {
        // Large enough that the truncated half still covers the whole
        // 4 KiB head window — a remnant shorter than the head window
        // cannot match the head hash and classifies as Rewritten instead.
        let content: Vec<u8> = (0..2000)
            .flat_map(|i| format!("row{i},{i}\n").into_bytes())
            .collect();
        assert!(content.len() as u64 / 2 > EPOCH_HEAD_LIMIT);
        let p = tmp("trunc", &content);
        let e = SourceEpoch::capture(&p).unwrap();

        // Truncate: head intact, shorter.
        std::fs::write(&p, &content[..content.len() / 2]).unwrap();
        match e.classify(&p).unwrap() {
            EpochChange::Truncated { new_len } => {
                assert_eq!(new_len, content.len() as u64 / 2)
            }
            other => panic!("expected Truncated, got {other:?}"),
        }

        // Rewrite: same length, different bytes from offset 0.
        let mut rewritten = content.clone();
        for b in rewritten.iter_mut() {
            if *b == b'r' {
                *b = b'R';
            }
        }
        std::fs::write(&p, &rewritten).unwrap();
        assert_eq!(e.classify(&p).unwrap(), EpochChange::Rewritten);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn grown_file_with_disturbed_old_tail_is_a_rewrite() {
        // > 4 KiB so the head window is a strict prefix and the mutation
        // below is only visible to the tail-region re-hash.
        let content: Vec<u8> = (0..2000)
            .flat_map(|i| format!("k{i},{i}\n").into_bytes())
            .collect();
        assert!(content.len() as u64 > 2 * EPOCH_HEAD_LIMIT);
        let p = tmp("grow_rewrite", &content);
        let e = SourceEpoch::capture(&p).unwrap();
        // Longer file, head kept, but bytes just before the old end
        // changed: not an append.
        let mut other = content.clone();
        let n = other.len();
        other[n - 3] = b'X';
        other.extend_from_slice(b"extra,1\n");
        std::fs::write(&p, &other).unwrap();
        assert_eq!(e.classify(&p).unwrap(), EpochChange::Rewritten);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn invalidates_partitions_the_enum() {
        assert!(!EpochChange::Unchanged.invalidates());
        assert!(!EpochChange::Appended { old_trusted_len: 0 }.invalidates());
        assert!(EpochChange::Truncated { new_len: 0 }.invalidates());
        assert!(EpochChange::Rewritten.invalidates());
    }

    #[test]
    fn an_unprobeable_file_is_as_dead_as_a_rewritten_one() {
        let p = tmp("dead", b"a,1\nb,2\n");
        let e = SourceEpoch::capture(&p).unwrap();
        assert!(!e.is_dead(&p));
        std::fs::write(&p, b"a,1\nb,2\nc,3\n").unwrap();
        assert!(!e.is_dead(&p), "an append keeps the prefix alive");
        std::fs::write(&p, b"z,9\n").unwrap();
        assert!(e.is_dead(&p));
        std::fs::remove_file(&p).unwrap();
        assert!(e.is_dead(&p), "a failed probe counts as invalidated");
    }
}
