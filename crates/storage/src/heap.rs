//! Heap files: a sequence of slotted pages on disk, read through a buffer
//! pool with LRU replacement.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::Page;

/// I/O counters for the buffer pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// Page reads served from the pool.
    pub hits: u64,
    /// Page reads that went to disk.
    pub misses: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
}

/// A fixed-capacity page cache over one heap file.
struct BufferPool {
    frames: Vec<(u64, Page, u64)>, // (page_no, page, last_used)
    capacity: usize,
    tick: u64,
    stats: PoolStats,
}

impl BufferPool {
    fn new(capacity: usize) -> Self {
        BufferPool {
            frames: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: PoolStats::default(),
        }
    }

    fn get(&mut self, page_no: u64) -> Option<&Page> {
        self.tick += 1;
        let i = self.frames.iter().position(|(no, _, _)| *no == page_no)?;
        self.frames[i].2 = self.tick;
        self.stats.hits += 1;
        Some(&self.frames[i].1)
    }

    fn insert(&mut self, page_no: u64, page: Page) -> &Page {
        if self.frames.len() >= self.capacity {
            if let Some(victim) = (0..self.frames.len()).min_by_key(|&i| self.frames[i].2) {
                self.frames.swap_remove(victim);
            }
        }
        self.tick += 1;
        self.frames.push((page_no, page, self.tick));
        let i = self.frames.len() - 1;
        &self.frames[i].1
    }
}

/// An append-only heap file of slotted pages.
///
/// Writing happens once, during load; queries then read pages through the
/// pool. The file handle is shared behind a mutex so scan sources can clone
/// cheaply.
pub struct HeapFile {
    path: PathBuf,
    page_size: usize,
    npages: u64,
    nrows: u64,
    inner: Mutex<HeapInner>,
}

struct HeapInner {
    file: File,
    pool: BufferPool,
}

impl HeapFile {
    /// Create (truncate) a heap file for writing.
    pub fn create(
        path: impl AsRef<Path>,
        page_size: usize,
        pool_pages: usize,
    ) -> StorageResult<HeapWriter> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)
            .map_err(|e| StorageError::io(format!("create {}", path.display()), e))?;
        Ok(HeapWriter {
            path,
            page_size,
            pool_pages,
            file,
            current: Page::new(page_size),
            npages: 0,
            nrows: 0,
            bytes_written: 0,
        })
    }

    /// Open an existing heap file for reading.
    pub fn open(
        path: impl AsRef<Path>,
        page_size: usize,
        npages: u64,
        nrows: u64,
        pool_pages: usize,
    ) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)
            .map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
        Ok(HeapFile {
            path,
            page_size,
            npages,
            nrows,
            inner: Mutex::new(HeapInner {
                file,
                pool: BufferPool::new(pool_pages),
            }),
        })
    }

    /// Total pages.
    pub fn npages(&self) -> u64 {
        self.npages
    }

    /// Total rows.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Read page `page_no` (through the pool), handing it to `f`.
    pub fn with_page<T>(&self, page_no: u64, f: impl FnOnce(&Page) -> T) -> StorageResult<T> {
        // Poison-audit: `parking_lot::Mutex::lock` (the shim) recovers from
        // poisoning itself and returns the guard directly — there is no
        // `.unwrap()` here to route through `lock_recover`, and a panicking
        // reader cannot brick the pool for later queries.
        let mut inner = self.inner.lock();
        if let Some(page) = inner.pool.get(page_no) {
            return Ok(f(page));
        }
        // Miss: read from disk.
        let mut buf = vec![0u8; self.page_size];
        inner
            .file
            .seek(SeekFrom::Start(page_no * self.page_size as u64))
            .map_err(|e| StorageError::io(format!("seek {}", self.path.display()), e))?;
        inner
            .file
            .read_exact(&mut buf)
            .map_err(|e| StorageError::io(format!("read page {page_no}"), e))?;
        inner.pool.stats.misses += 1;
        inner.pool.stats.bytes_read += self.page_size as u64;
        let page = Page::from_bytes(buf);
        let page_ref = inner.pool.insert(page_no, page);
        Ok(f(page_ref))
    }

    /// Pool statistics so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().pool.stats
    }
}

/// Writer used during load.
pub struct HeapWriter {
    path: PathBuf,
    page_size: usize,
    pool_pages: usize,
    file: File,
    current: Page,
    npages: u64,
    nrows: u64,
    bytes_written: u64,
}

impl HeapWriter {
    /// Append one encoded tuple.
    pub fn append(&mut self, tuple: &[u8]) -> StorageResult<()> {
        if self.current.insert(tuple).is_none() {
            self.flush_page()?;
            if self.current.insert(tuple).is_none() {
                return Err(StorageError::TupleTooLarge {
                    size: tuple.len(),
                    page_size: self.page_size,
                });
            }
        }
        self.nrows += 1;
        Ok(())
    }

    fn flush_page(&mut self) -> StorageResult<()> {
        let page = std::mem::replace(&mut self.current, Page::new(self.page_size));
        self.file
            .write_all(page.bytes())
            .map_err(|e| StorageError::io(format!("write {}", self.path.display()), e))?;
        self.bytes_written += page.bytes().len() as u64;
        self.npages += 1;
        Ok(())
    }

    /// Finish writing and reopen for reading. Returns the heap and the
    /// number of bytes written (load-cost accounting).
    pub fn finish(mut self) -> StorageResult<(HeapFile, u64)> {
        if self.current.nslots() > 0 {
            self.flush_page()?;
        }
        self.file
            .flush()
            .map_err(|e| StorageError::io(format!("flush {}", self.path.display()), e))?;
        let bytes = self.bytes_written;
        let heap = HeapFile::open(
            &self.path,
            self.page_size,
            self.npages,
            self.nrows,
            self.pool_pages,
        )?;
        Ok((heap, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_heap_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn write_then_scan_all_pages() {
        let path = tmp("scan");
        let mut w = HeapFile::create(&path, 4096, 4).unwrap();
        for i in 0..1000u32 {
            w.append(format!("tuple-{i:05}").as_bytes()).unwrap();
        }
        let (heap, bytes) = w.finish().unwrap();
        assert!(bytes > 0);
        assert_eq!(heap.nrows(), 1000);
        let mut seen = 0;
        for pg in 0..heap.npages() {
            heap.with_page(pg, |p| seen += p.nslots()).unwrap();
        }
        assert_eq!(seen, 1000);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pool_caches_hot_pages() {
        let path = tmp("pool");
        let mut w = HeapFile::create(&path, 4096, 2).unwrap();
        for i in 0..500u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let (heap, _) = w.finish().unwrap();
        heap.with_page(0, |_| ()).unwrap();
        heap.with_page(0, |_| ()).unwrap();
        let s = heap.pool_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn oversized_tuple_rejected() {
        let path = tmp("big");
        let mut w = HeapFile::create(&path, 128, 2).unwrap();
        let huge = vec![0u8; 4096];
        assert!(matches!(
            w.append(&huge),
            Err(StorageError::TupleTooLarge { .. })
        ));
        std::fs::remove_file(path).ok();
    }
}
